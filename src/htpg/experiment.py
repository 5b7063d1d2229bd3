"""Sweep runner: executes family x seed training runs, persists CSV metrics,
and renders a deterministic SVG comparison chart.

Per-run CSVs are the source of truth: the aggregate CSV is written from
the same runs, and the SVG is always drawn from the CSVs by ``replot``, so a
sweep's chart and a rebuilt one are the same bytes.  Runs execute in
parallel processes (capped by the HTPG_THREADS environment variable) and
write only their own files; aggregation happens after the join.  Every file
is written to a temp file beside it and then moved into place, so a killed
or failing writer leaves the old file or none, never a truncated one.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .config import ConfigError, ExperimentConfig, build_train_config, config_to_text
from .errors import ParameterError
from .policy import _float_sum
from .training import RunMetrics, train

__all__ = [
    "RUN_CSV_COLUMNS",
    "run_experiment",
    "replot",
    "worker_count",
]

RUN_CSV_COLUMNS = ("episode", "return", "avg_return_100", "update_count")
AGGREGATE_COLUMNS = (
    "family", "seed", "episodes", "final_avg_return_100", "first_exit_episode",
    "terminal_episodes", "wall_updates", "diverged",
)

_FLOAT_MAX = sys.float_info.max

_NOT_XML_TEXT = re.compile("[^\t\n\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def worker_count(n_jobs: int) -> int:
    """Parallelism cap: HTPG_THREADS if set, else the CPUs this process may
    run on (its affinity where the platform has one, else the CPU count)."""
    env_cap = os.environ.get("HTPG_THREADS")
    if env_cap:
        try:
            cap = int(env_cap)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ConfigError(f"HTPG_THREADS must be a positive integer, got {env_cap!r}")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def run_path(out_dir: Path, family: str, seed: int) -> Path:
    return out_dir / f"{family}_seed{seed}.csv"


def _format(value: float) -> str:
    return repr(float(value))


@contextmanager
def _replacing(path: Path, newline: str | None = None):
    """A text file to write that replaces ``path`` when the block ends.

    It is ``.<name>.tmp`` beside ``path``, moved onto it by ``os.replace``; a
    block that raises deletes it and leaves ``path`` as it was.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_run_csv(path: Path, metrics: RunMetrics) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_CSV_COLUMNS)
        for i, ret in enumerate(metrics.returns):
            writer.writerow(
                [i, _format(ret), _format(metrics.moving_avg_100[i]),
                 metrics.update_counts[i]]
            )
        if metrics.diverged:
            writer.writerow(["diverged", "", "", metrics.wall_updates])


def _run_cell(cfg: ExperimentConfig, cell) -> RunMetrics:
    family, seed = cell
    metrics = train(build_train_config(cfg, family, seed))
    write_run_csv(run_path(Path(cfg.out_dir), family.name, seed), metrics)
    return metrics


def run_experiment(cfg: ExperimentConfig, max_workers: int | None = None) -> dict:
    """Execute the full sweep and write all outputs.

    Returns {family: [RunMetrics in seed order]}.  A diverged run is recorded
    (marker row in its CSV, flag in the aggregate) without failing the sweep.
    """
    cells = [(family, seed) for family in cfg.families for seed in cfg.seeds]
    workers = worker_count(len(cells)) if max_workers is None else max_workers
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(out_dir / "config.txt") as fh:
        fh.write(config_to_text(cfg))

    run_cell = partial(_run_cell, cfg)
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = list(map(run_cell, cells))

    _write_aggregate(out_dir / "aggregate.csv", zip(cells, results))
    replot(out_dir, [f.name for f in cfg.families], list(cfg.seeds))
    n = len(cfg.seeds)
    return {f.name: results[i * n:(i + 1) * n] for i, f in enumerate(cfg.families)}


def _write_aggregate(path: Path, cell_runs) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for (family, seed), metrics in cell_runs:
            writer.writerow([
                family.name,
                seed,
                len(metrics.returns),
                _format(metrics.moving_avg_100[-1]) if metrics.moving_avg_100 else "",
                "" if metrics.first_exit_episode is None else metrics.first_exit_episode,
                metrics.terminal_episodes,
                metrics.wall_updates,
                int(metrics.diverged),
            ])


def _read_moving_avg(path: Path) -> list[float]:
    """The avg_return_100 series of a run CSV, without its divergence row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if {"episode", "avg_return_100"} <= set(reader.fieldnames or ()):
                averages = [float(r["avg_return_100"])
                            for r in reader if r["episode"] != "diverged"]
                if all(map(math.isfinite, averages)):
                    return averages
    except (ValueError, TypeError, csv.Error):
        pass
    raise ParameterError(f"{path} is not a run CSV: it needs an episode column "
                         "and finite numbers in an avg_return_100 column")


def replot(out_dir: Path, families: list[str], seeds: list[int]) -> None:
    """(Re)draw returns.svg from the per-run CSVs on disk."""
    series = {family: [_read_moving_avg(run_path(out_dir, family, seed)) for seed in seeds]
              for family in families}
    with _replacing(out_dir / "returns.svg") as fh:
        fh.write(render_chart(series))


# ---------------------------------------------------------------------------
# SVG chart


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    raw = (hi / 2 - lo / 2) / count * 2  # (hi - lo) / count, without overflow
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * power:
            step = mult * power
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    stop = min(hi + 1e-12 * step, _FLOAT_MAX)  # a tick past the float range is inf
    while t <= stop:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # the step is below t's precision
            break
        t += step
    return ticks


def _xml_text(text: str) -> str:
    """``text`` as XML character data: markup escaped, and each character that
    XML 1.0 cannot hold (or CR, which a reader takes for LF) as U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML_TEXT.sub("\ufffd", text)


def render_chart(series: dict) -> str:
    """Seed-averaged moving-average returns per family with a min/max band.

    ``series`` maps family name to a list (per seed) of per-episode values.
    Byte-deterministic for identical input.
    """
    width, height = 800, 480
    pad_l, pad_r, pad_t, pad_b = 60, 20, 20, 45
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b

    stats: dict[str, tuple[list, list, list]] = {}
    x_max, y_lo, y_hi = 1, math.inf, -math.inf
    for name, runs in series.items():
        n = min((len(r) for r in runs), default=0)
        if n == 0:
            stats[name] = ([], [], [])
            continue
        mean, lo, hi = [], [], []
        for i in range(n):
            vals = [r[i] for r in runs]
            lo.append(min(vals))
            hi.append(max(vals))
            m = _float_sum(vals) / len(vals)
            if math.isinf(m):  # the sum overflowed
                m = min(max(_float_sum(v / len(vals) for v in vals), lo[-1]), hi[-1])
            mean.append(m)
        stats[name] = (mean, lo, hi)
        x_max = max(x_max, n - 1)
        y_lo = min(y_lo, min(lo))
        y_hi = max(y_hi, max(hi))
    if y_lo > y_hi:
        y_lo, y_hi = 0.0, 1.0
    if y_hi - y_lo < 1e-300:  # flat, or too narrow for a tick step
        # From 2**53 on, + 1.0 rounds away: widen toward 0 by half instead.
        y_lo, y_hi = (y_lo, y_lo + 1.0) if abs(y_lo) < 2.0**53 else sorted((y_lo / 2, y_lo))
    # Halves keep the span finite for averages near +-1e308, and the margin
    # stays inside the float range.
    margin = 0.1 * (y_hi / 2 - y_lo / 2)
    y_lo = max(y_lo - margin, -_FLOAT_MAX)
    y_hi = min(y_hi + margin, _FLOAT_MAX)
    half_span = y_hi / 2 - y_lo / 2

    def sx(i: float) -> float:
        return pad_l + plot_w * (i / x_max if x_max else 0.0)

    def sy(v: float) -> float:
        return pad_t + plot_h * (1.0 - (v / 2 - y_lo / 2) / half_span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="#333"/>',
    ]
    for t in _ticks(0, x_max):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{pad_t + plot_h}" x2="{x:.2f}" '
                     f'y2="{pad_t + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{pad_t + plot_h + 18}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{pad_l - 5}" y1="{y:.2f}" x2="{pad_l}" '
                     f'y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{pad_l - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{pad_l + plot_w / 2:.2f}" y="{height - 8}" '
                 'text-anchor="middle">episode</text>')
    parts.append(f'<text x="14" y="{pad_t + plot_h / 2:.2f}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {pad_t + plot_h / 2:.2f})">'
                 'avg return (last 100)</text>')

    for ci, (name, (mean, lo, hi)) in enumerate(stats.items()):
        if not mean:
            continue
        color = _PALETTE[ci % len(_PALETTE)]
        band = (
            " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(hi))
            + " "
            + " ".join(
                f"{sx(i):.2f},{sy(v):.2f}"
                for i, v in zip(range(len(lo) - 1, -1, -1), reversed(lo))
            )
        )
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" '
                     'stroke="none"/>')
        line = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(mean))
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = pad_t + 16 + 16 * ci
        parts.append(f'<line x1="{pad_l + 10}" y1="{ly - 4}" x2="{pad_l + 34}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad_l + 40}" y="{ly}">{_xml_text(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
