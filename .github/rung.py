"""Run ladder rungs above the benchmark and check each against its oracle.

Usage: python3 .github/rung.py NAME... [--max-rss-mb N]

Each NAME is built from `bench/jobs.py`, run through `cli.run` and checked
with `bench/oracles.py`; the first rung that exits nonzero or disagrees with
its oracle fails the run.  With --max-rss-mb the process's peak RSS
(VmHWM) after the last rung must be at most N MB, so give each bounded rung
its own process.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jobs
import oracles
from udeform import cli


def _hochschild_qplane_d6():
    doc = jobs.hochschild_job()
    doc["inputs"]["algebra"] = jobs.plane(6)
    doc["parameters"]["search_bound"] = 3
    return jobs.Job("hochschild-qplane-d6", doc, "hochschild")


def _twist3(order):
    name = "twist3-N%d" % order
    return lambda: jobs.Job(name, jobs.twist_job(["p1", "p2", "p3"], order), "twist")


RUNGS = {
    "tensor-D8": lambda: jobs.Job(
        "tensor-D8", jobs.cobar_job("tensor-primitive", ["x", "y"], 8),
        "tensor_h2", generators=2, cutoff=8),
    "matrix-D5": lambda: jobs.Job(
        "matrix-D5", jobs.cobar_job("matrix-coordinate", ["a", "b", "c", "d"], 5),
        "cosemisimple_h2"),
    "moyal-d12": lambda: jobs.Job(
        "moyal-d12",
        jobs.deform_job(jobs.MOYAL_ACTION, jobs.antisymmetric_exponent(["p1", "p2"]), 12, 6),
        "moyal", cutoff=12, order=6),
    "qplane-d10": lambda: jobs.Job(
        "qplane-d10", jobs.deform_job(jobs.EULER_ACTION, jobs.ANTISYMMETRIC_UNIT, 10, 6),
        "quantum_plane", cutoff=10, order=6),
    "hochschild-qplane-d6": _hochschild_qplane_d6,
    "twist3-N8": _twist3(8),
    "twist3-N10": _twist3(10),
    "twist3-N11": _twist3(11),
    "twist3-N12": _twist3(12),
}


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        return [int(line.split()[1]) for line in fh if line.startswith("VmHWM:")][0] / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", choices=sorted(RUNGS), metavar="NAME")
    parser.add_argument("--max-rss-mb", type=int)
    args = parser.parse_args()
    for name in args.names:
        job = RUNGS[name]()
        report, code = cli.run(job.doc)
        problems = oracles.check(job, report.to_json())
        if code != 0 or problems:
            sys.exit("%s: exit code %d, %s" % (name, code, problems))
        print("%s: agrees with its oracle" % name)
    if args.max_rss_mb is not None:
        label = " ".join(args.names)
        hwm = peak_rss_mb()
        if hwm > args.max_rss_mb:
            sys.exit("%s: peak RSS %.1f MB, above %d MB" % (label, hwm, args.max_rss_mb))
        print("%s: peak RSS %.1f MB" % (label, hwm))


if __name__ == "__main__":
    main()
