"""Check that every benchmark document of a workload is accepted without jsonschema.

Usage: python3 .github/jobspec_fast_path.py WORKLOAD

jsonschema is blocked before udeform is imported, and each seed-0 and
seed-1 document of the workload, as `bench/jobs.py` builds it, goes through
`cli.validate_jobspec`.  A document that the in-library check cannot accept
on its own imports jsonschema, which raises ImportError here and fails the
run.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.modules["jsonschema"] = None  # any import of it now raises ImportError

import jobs
from udeform import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(jobs.WORKLOADS))
    args = parser.parse_args()
    checked, needed = 0, []
    for seed in (0, 1):
        for job in jobs.WORKLOADS[args.workload](seed):
            checked += 1
            try:
                cli.validate_jobspec(job.doc)
            except ImportError:
                needed.append("seed %d %s" % (seed, job.name))
    for name in needed:
        print("needs jsonschema: %s" % name)
    print("%d of %d %s documents accepted without jsonschema"
          % (checked - len(needed), checked, args.workload))
    return 1 if needed else 0


if __name__ == "__main__":
    sys.exit(main())
