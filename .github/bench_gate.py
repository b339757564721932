"""Checks one benchmark result line against count ceilings.

Usage: bench_gate.py RESULT_JSON WORKLOAD [METRIC CEILING]...

RESULT_JSON holds the last stdout line of a traced benchmark run. The
run must be correct, and every METRIC must lie in (0, CEILING]; a
CEILING of "-" skips its metric. The gated metrics are counts the
program makes, which repeat exactly from run to run, never timings.
"""

import json
import sys

path, workload, gates = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(path) as f:
    result = json.load(f)
print(workload, "correct:", result["correct"])
assert result["correct"] is True, result
for metric, ceiling in zip(gates[::2], gates[1::2]):
    if ceiling == "-":
        continue
    value = result["metrics"][metric]["value"]
    print(workload, metric, value, "ceiling", ceiling)
    assert 0 < value <= float(ceiling), (workload, metric, value, ceiling)
