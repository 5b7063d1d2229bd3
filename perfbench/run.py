"""htpg benchmark: one workload per invocation, checked outputs, JSON result.

    python3 perfbench/run.py --workload trapped_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up in fresh interpreters,
then a warm-up and timed repetitions of the workload body with tracing off).
``--trace 1`` runs the body serially, alternating untraced and traced
repetitions, and reports the per-layer metrics and the tracing overhead.
Either way every output is checked and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import bench_stats  # noqa: E402
import bench_workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_SETUP_PROBES = 5
MIN_TIMED_REPS = 3
OUT_ROOT = Path(".perfbench_out")
REFERENCE = HERE / "reference.json"

def import_program():
    """Import htpg from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import htpg
    except ImportError as err:
        raise SystemExit(f"error: cannot import htpg from {SRC}: {err}") from None
    if not Path(htpg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: htpg resolved to {htpg.__file__}, outside {SRC}")


def machine() -> dict:
    import numpy as np

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"usable_cpus": len(os.sched_getaffinity(0)), "nproc": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__}


def worker_count(workload, inputs: dict) -> int:
    """Pool size for the parallel workload: usable CPUs, capped by the cells
    and by nproc; the serial workloads use one."""
    if not workload.parallel:
        return 1
    cells = len(inputs["families"]) * len(inputs["seeds"])
    return max(1, min(len(os.sched_getaffinity(0)), cells, os.cpu_count() or 1))


class SetupProbe:
    """Set-up time in a fresh interpreter: import htpg, parse the workload's
    config and build every training config (see bench_setup.py)."""

    def __init__(self, workload, inputs: dict, out_dir: str) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.request = json.dumps({"workload": workload.name, "inputs": inputs,
                                   "out": out_dir})
        self.times: list[float] = []

    def __call__(self) -> None:
        done = subprocess.run([sys.executable, str(HERE / "bench_setup.py")],
                              input=self.request, capture_output=True, text=True,
                              env=self.env, timeout=60, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        self.times.append(float(done.stdout.strip().splitlines()[-1]))


class Ledger:
    """Checks every repetition and counts cells attempted and failed."""

    def __init__(self, reference: dict | None, shared_problems: list) -> None:
        self.reference = reference
        self.shared_problems = shared_problems
        self.fingerprint = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcome, what: str, rep_problems=()) -> None:
        """Count the cells of one repetition, each failed if its own checks,
        the reference, or a check of the whole repetition found a problem."""
        fingerprint = outcome.fingerprint()
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        shared = self.shared_problems + list(rep_problems)
        if fingerprint != self.fingerprint:
            shared.append("results differ from the first repetition")
        for cell in outcome.cells:
            problems = cell.problems + shared
            if self.reference is not None:
                want = self.reference["cells"].get(cell.label)
                problems += (["no reference for this cell"] if want is None else
                             bench_workloads.compare_reference(cell.summary, want))
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{what} {cell.label}: {p}" for p in problems]


def load_ledger(workload, seed: int, inputs: dict) -> Ledger:
    """Reference checks on the default seed, invariant checks on any other."""
    if seed != DEFAULT_SEED:
        return Ledger(None, [])
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    stale = [] if reference["inputs"] == inputs else [
        "reference.json was recorded for other inputs"]
    return Ledger(reference, stale)


def run_once(workload, inputs: dict, out_dir: Path, workers: int, tracer=None):
    """One repetition; returns (outcome, seconds including prepare)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        outcome = workload.execute(workload.prepare(inputs, str(out_dir)), workers)
    return outcome, time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def keep_going(done: list, started: float, seconds: float, least: int) -> bool:
    """Start another repetition while one more is expected to end inside the
    window, and always until ``least`` have run."""
    if len(done) < least:
        return True
    return time.perf_counter() - started + bench_stats.median(done) <= seconds


def measure(workload, inputs, out_dir, seconds, ledger, log) -> dict:
    """End-to-end metrics, tracing off.  Set-up probes are interleaved with
    the timed repetitions so both sample the same stretch of machine time."""
    probe = SetupProbe(workload, inputs, str(out_dir))
    workers = worker_count(workload, inputs)
    outcome, _ = run_once(workload, inputs, out_dir, workers)
    ledger.record(outcome, "warm-up")
    walls, rates, paced = [], [], []
    started = time.perf_counter()
    while keep_going(paced, started, seconds, MIN_TIMED_REPS):
        begin = time.perf_counter()
        probe()
        outcome, _ = run_once(workload, inputs, out_dir, workers)
        ledger.record(outcome, f"rep {len(walls) + 1}")
        walls.append(outcome.wall_s)
        rates.append(outcome.updates / outcome.wall_s)
        paced.append(time.perf_counter() - begin)
    while len(probe.times) < MIN_SETUP_PROBES:
        probe()
    log(f"{len(outcome.cells)} cells x {len(walls)} timed reps after one warm-up, "
        f"{workers} worker(s); {len(probe.times)} set-up probes")
    q1, _, q3 = bench_stats.quartiles(walls)
    log(f"wall_s quartiles over reps: {q1:.4f} .. {q3:.4f}")
    return {
        "setup_s": bench_stats.median(probe.times),
        "wall_s": bench_stats.median(walls),
        "updates_per_s": bench_stats.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(workload, inputs, out_dir, seconds, ledger, log, trace_path: Path) -> dict:
    """Per-layer metrics from serial traced repetitions, each paired with an
    untraced one for the overhead."""
    import bench_trace

    bound = workload.q_bound(inputs)
    outcome, _ = run_once(workload, inputs, out_dir, 1)
    ledger.record(outcome, "warm-up")
    plain, traced, summaries, paced = [], [], [], []
    started = time.perf_counter()
    while keep_going(paced, started, seconds, 1):
        begin = time.perf_counter()
        outcome, elapsed = run_once(workload, inputs, out_dir, 1)
        ledger.record(outcome, f"untraced rep {len(plain) + 1}")
        plain.append(elapsed)
        tracer = bench_trace.Tracer()
        outcome, elapsed = run_once(workload, inputs, out_dir, 1, tracer)
        q_max = tracer.counts.get("q_abs_max", 0.0)
        ledger.record(outcome, f"traced rep {len(traced) + 1}",
                      [] if q_max <= bound else [f"|Q| reached {q_max!r} > {bound!r}"])
        traced.append(elapsed)
        summaries.append(tracer.summary())
        paced.append(time.perf_counter() - begin)
    tracer.save(trace_path)
    log(f"{len(traced)} traced + {len(plain)} untraced serial reps; spans "
        f"({len(tracer.name_ids)} per rep) written to {trace_path}")
    return layer_metrics(summaries, tracer.counts, traced, plain)


def layer_metrics(summaries: list, counts: dict, traced: list, plain: list) -> dict:
    import bench_trace

    last = summaries[-1]
    metrics = {}
    for name in bench_trace.SPAN_NAMES:
        metrics[f"{name}.calls"] = last[name]["calls"]
        metrics[f"{name}.self_s"] = bench_stats.median(s[name]["self_s"] for s in summaries)
    for name in ("envs.rollout", "qvalue.estimate_q"):
        metrics[f"{name}.steps"] = last[name]["children"].get("envs.step", 0)
    components = counts.get("clip_components", 0)
    metrics["policy.clip_score.clipped_frac"] = (
        counts.get("clip_clipped", 0) / components if components else 0.0)
    metrics["experiment.write_run_csv.bytes"] = int(counts.get("csv_bytes", 0))
    metrics["experiment.render_chart.bytes"] = int(counts.get("svg_bytes", 0))
    metrics["trace.wall_s"] = bench_stats.median(traced)
    metrics["trace.overhead_frac"] = bench_stats.median(traced) / bench_stats.median(plain) - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    os.chdir(ROOT)
    import_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    def log(message: str) -> None:
        print(f"[{args.workload}] {message}", flush=True)

    workload = bench_workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    ledger = load_ledger(workload, args.seed, inputs)
    log(f"machine {json.dumps(machine())}")
    log(f"seed {args.seed}: {'reference' if ledger.reference else 'invariant'} checks")
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            trace_path = OUT_ROOT / "traces" / f"{args.workload}-seed{args.seed}.npz"
            values = trace(workload, inputs, out_dir, seconds, ledger, log, trace_path)
        else:
            values = measure(workload, inputs, out_dir, seconds, ledger, log)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    for spec in wanted:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        log(f"{spec['name']} = {value:.6g} {spec['unit']}")
    log(f"failed_frac = {ledger.failed / max(ledger.attempted, 1):.6g} ratio "
        f"({ledger.failed} of {ledger.attempted} cells)")
    for problem in ledger.problems[:20]:
        print(f"[{args.workload}] FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
