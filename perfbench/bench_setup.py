"""Set-up probe, run in a fresh interpreter by ``run.py``.

Reads ``{"workload": ..., "inputs": ..., "out": ...}`` as JSON on stdin,
then times importing ``htpg``, parsing the workload's config and building
every training config, and prints the elapsed seconds.
"""

import json
import sys
import time

import bench_workloads

request = json.load(sys.stdin)
start = time.perf_counter()
bench_workloads.WORKLOADS[request["workload"]].setup(request["inputs"], request["out"])
print(repr(time.perf_counter() - start))
