"""Fail unless the benchmark's last output line reports a correct run with
no failed job.

Usage: python3 bench/run.py ARGS | tail -n 1 | python3 .github/bench_verdict.py LABEL
"""

import json
import sys

last = json.loads(sys.stdin.read().splitlines()[-1])
if last["correct"] is not True or last["failed"] != 0:
    sys.exit("%s: correct=%r failed=%r" % (sys.argv[1], last["correct"], last["failed"]))
