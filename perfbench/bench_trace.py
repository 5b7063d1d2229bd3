"""Outside-in span tracer for the benchmark's traced pass.

Wrappers are installed from here, never inside ``htpg``: each public
function is replaced under the name its caller looks it up by (for example
``htpg.training.score`` or ``TrappedCar.step``) and restored on exit.
Spans live in flat in-memory arrays (name id, parent index, start, end) so
that a traced run of a few million calls stays small; self time is derived
afterwards from the recorded parentage.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, patch site "module" or "module:Class", attribute).  One span
# name may have several sites: every caller's own lookup is patched.
PATCH_SITES = (
    ("sas.sample_sas", "htpg.policy", "sample_sas"),
    ("policy.sample_action", "htpg.envs", "sample_action"),
    ("policy.sample_action", "htpg.qvalue", "sample_action"),
    ("policy.features", "htpg.envs", "features"),
    ("policy.features", "htpg.qvalue", "features"),
    ("policy.features", "htpg.training", "features"),
    ("policy.score", "htpg.training", "score"),
    ("policy.clip_score", "htpg.training", "clip_score"),
    ("envs.step", "htpg.envs:TrappedCar", "step"),
    ("envs.step", "htpg.envs:MountainCar", "step"),
    ("envs.rollout", "htpg.training", "rollout"),
    ("qvalue.estimate_q", "htpg.training", "estimate_q"),
    ("qvalue.draw_horizon", "htpg.training", "draw_horizon"),
    ("qvalue.draw_horizon", "htpg.qvalue", "draw_horizon"),
    ("qvalue.discounted_partial_return", "htpg.training", "discounted_partial_return"),
    ("training.train", "htpg.training", "train"),
    ("training.train", "htpg.experiment", "train"),
    ("training.apply_update", "htpg.training", "apply_update"),
    ("training.apply_update", "htpg.diagnostics", "apply_update"),
    ("training.step_size", "htpg.training", "step_size"),
    ("training.step_size", "htpg.diagnostics", "step_size"),
    ("diagnostics.synthetic_sga_run", "htpg.diagnostics", "synthetic_sga_run"),
    ("experiment.write_run_csv", "htpg.experiment", "write_run_csv"),
    ("experiment.render_chart", "htpg.experiment", "render_chart"),
    ("experiment.replot", "htpg.experiment", "replot"),
    ("config.parse_config", "htpg.config", "parse_config"),
    ("config.build_train_config", "htpg.config", "build_train_config"),
    ("config.build_train_config", "htpg.experiment", "build_train_config"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in PATCH_SITES))


def _resolve(site: str):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records one span per wrapped call, plus a few result-derived counts.

    Use as a context manager around the traced body: entering installs every
    wrapper in :data:`PATCH_SITES`, leaving restores the originals.
    """

    def __init__(self, span_names=SPAN_NAMES) -> None:
        self.span_names = tuple(span_names)
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A transparent stand-in for ``fn`` that records a span per call.

        ``after(args, result)`` runs once the span has closed, so its cost
        lands in the caller's self time rather than in ``name``'s.
        """
        name_id = self._ids[name]
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def record_max(self, key: str, value: float) -> None:
        if value > self.counts.get(key, -np.inf):
            self.counts[key] = value

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, after))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        hooks = _result_hooks(self)
        try:
            for name, site, attr in PATCH_SITES:
                self.patch(_resolve(site), attr, name, hooks.get(name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int32),
            "parents": np.frombuffer(self.parents, dtype=np.int64),
            "starts": np.frombuffer(self.starts, dtype=np.float64),
            "ends": np.frombuffer(self.ends, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: ``calls``, ``self_s`` and ``children`` (a count of
        direct child spans by child name)."""
        return span_summary(self.span_names, **self.arrays())

    def save(self, path: Path) -> None:
        """Write the raw spans out (compressed numpy archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, span_names=np.array(self.span_names), **self.arrays())


def span_summary(span_names, name_ids, parents, starts, ends) -> dict:
    """Self time per span name from flat span arrays.

    A span's self time is its duration minus the durations of its direct
    children.  Wrapped calls are synchronous, so children never overlap each
    other and always lie inside their parent.
    """
    n_names = len(span_names)
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=duration[has_parent],
                             minlength=name_ids.size)
    self_time = duration - child_time
    calls = np.bincount(name_ids, minlength=n_names)
    self_s = np.bincount(name_ids, weights=self_time, minlength=n_names)
    parent_names = name_ids[parents[has_parent]]
    child_names = name_ids[has_parent]
    pairs = np.bincount(parent_names * n_names + child_names,
                        minlength=n_names * n_names).reshape(n_names, n_names)
    return {
        name: {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "children": {span_names[j]: int(pairs[i, j])
                         for j in np.flatnonzero(pairs[i])},
        }
        for i, name in enumerate(span_names)
    }


def _result_hooks(tracer: Tracer) -> dict:
    """Counts taken from arguments and results at the layer boundary."""

    def clip(args, result):
        tracer.add("clip_components", result.size)
        tracer.add("clip_clipped", int(np.count_nonzero(result != args[0])))

    def q_value(args, result):
        tracer.record_max("q_abs_max", abs(result.value))

    def shared_q(args, result):
        tracer.record_max("q_abs_max", abs(result))

    def csv_bytes(args, result):
        tracer.add("csv_bytes", os.path.getsize(args[0]))

    def svg_bytes(args, result):
        tracer.add("svg_bytes", len(result.encode("utf-8")))

    return {
        "policy.clip_score": clip,
        "qvalue.estimate_q": q_value,
        "qvalue.discounted_partial_return": shared_q,
        "experiment.write_run_csv": csv_bytes,
        "experiment.render_chart": svg_bytes,
    }
