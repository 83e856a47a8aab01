"""Read the verdict of a ``bench/run.py`` run from its output on stdin.

``bench/run.py`` exits 0 even when a check fails, so the verdict is the
JSON object on the last line of its output.  This prints how many checks
failed and exits 1 unless that object says ``"correct": true``.

Usage: python3 bench/run.py --workload gibbs_small --seed 5 | python3 .github/bench_verdict.py
"""

import json
import sys

lines = sys.stdin.read().splitlines()
if not lines:
    sys.exit("no output to read a verdict from")
result = json.loads(lines[-1])
print(result["failed"], "failed of", result["attempted"])
sys.exit(result["correct"] is not True)
