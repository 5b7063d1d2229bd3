"""Record ``reference.json``: the default-seed results of every workload at
the current commit, which ``run.py`` then requires on that seed.

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter training results.
"""

import json
import os
import shutil

import run
import bench_workloads


def main() -> None:
    os.chdir(run.ROOT)
    run.import_program()
    reference = {}
    for name, workload in bench_workloads.WORKLOADS.items():
        inputs = workload.inputs(run.DEFAULT_SEED)
        out_dir = run.OUT_ROOT / f"record-{name}"
        try:
            outcome, _ = run.run_once(workload, inputs, out_dir, 1)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        problems = [p for cell in outcome.cells for p in cell.problems]
        if problems:
            raise SystemExit(f"{name}: {problems}")
        reference[name] = {"inputs": inputs,
                           "cells": {c.label: c.summary for c in outcome.cells}}
        print(f"{name}: {len(outcome.cells)} cells in {outcome.wall_s:.2f}s")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
