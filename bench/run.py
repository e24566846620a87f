"""Job-level benchmark of udeform: three workloads through `cli.run`.

    python3 bench/run.py --workload W --seed N --seconds S --trace {0,1}
    python3 bench/run.py --write-hashes [--seed N]

W is one of moduli, star, twist.  Run from the root of a source checkout;
the library is imported from its `src/`.  Each job runs in a fresh
interpreter (bench/child.py), one at a time, so no cache of one job helps
the next and one core suffices.

Untraced (`--trace 0`): whole passes over the workload's jobs, at least two
and more while they fit in `--seconds`, judged by the pass before; the
end-to-end metrics are medians over the passes.  Traced (`--trace 1`): one
untraced pass, one pass with per-layer spans and one under cProfile; prints
the per-layer metrics and the tracing overhead.  Every job is checked
against its expect block and against the independent oracles of
bench/oracles.py.  The last line of standard output is one JSON object with
the verdict and the metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import oracles
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
HASHES = BENCH / "reference_hashes.json"

# Every run must end within 180 s: children still running past this are killed.
RUN_LIMIT_S = 165.0

# A median over fewer passes would let one slow stretch of the host decide it.
MIN_PASSES = 2


def child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(job, mode, deadline):
    """One job in a fresh interpreter; the child's JSON record."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode],
            input=json.dumps(job.doc), capture_output=True, text=True,
            env=child_env(), cwd=str(ROOT), timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": "killed after %.0f s" % timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip() or "exit code %d" % proc.returncode}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "unreadable child output: %r" % lines[-1][:200]}


def judge(job, record):
    """('ok' | 'wrong' | 'crashed', problems) for one job record."""
    if record.get("error"):
        return "crashed", [record["error"].strip().splitlines()[-1]]
    problems = []
    if record["code"] != 0:
        problems.append("exit code %d against the expect block" % record["code"])
    problems.extend(oracles.check(job, record["report"]))
    return ("wrong" if problems else "ok"), problems


class Reference:
    """Recorded report hashes; informational, the oracles gate correctness."""

    def __init__(self, workload, seed):
        self.hashes = {}
        self.docs = {}
        if HASHES.is_file():
            data = json.loads(HASHES.read_text())
            self.hashes = data["hashes"]
            self.docs = {j.name: j.doc
                         for j in jobs.WORKLOADS[workload](data["seed"])}
        self.workload = workload

    def compare(self, job, digest):
        key = "%s/%s" % (self.workload, job.name)
        if key not in self.hashes or self.docs.get(job.name) != job.doc:
            return "no reference for this seed"
        return "matches reference" if self.hashes[key] == digest else "DIFFERS"


class Pass:
    """One pass over a workload's jobs in one mode."""

    def __init__(self, job_list, mode, deadline, reference):
        self.records = []
        self.verdicts = []
        self.totals = tracer.LayerTotals()
        self.trace_lines = []
        for job in job_list:
            record = run_child(job, mode, deadline)
            verdict, problems = judge(job, record)
            trace = record.pop("trace", None)
            if trace is not None:
                self.totals.add_job(trace)
                self.trace_lines.append(json.dumps({"job": job.name, **trace}))
            self.records.append((job, record))
            self.verdicts.append(verdict)
            line = "%-8s %-22s %-7s" % (mode, job.name, verdict)
            if "run_s" in record:
                line += " run %8.4f s  setup %.4f s  rss %6.1f MB" % (
                    record["run_s"], record["setup_s"], record["rss_kb"] / 1024)
            if "sha256" in record:
                line += "  sha256 %s (%s)" % (
                    record["sha256"], reference.compare(job, record["sha256"]))
            print(line, flush=True)
            for problem in problems:
                print("    %s" % problem, flush=True)

    def timed(self):
        return [r for _, r in self.records if "run_s" in r]

    def wall_s(self):
        return sum(r["run_s"] for r in self.timed())

    def metrics(self, top_rung):
        timed = self.timed()
        return {
            "wall_s": self.wall_s(),
            "top_rung_s": sum(r["run_s"] for j, r in self.records
                              if j.name == top_rung and "run_s" in r),
            "setup_s": sum(r["setup_s"] for r in timed),
            "peak_rss_mb": max((r["rss_kb"] for r in timed), default=0) / 1024,
        }


END_TO_END_UNITS = {"wall_s": "s", "top_rung_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def warm_up(deadline):
    """Compile the library's bytecode once, so set-up times are steady."""
    subprocess.run([sys.executable, "-c", "import udeform.cli"],
                   env=child_env(), cwd=str(ROOT), check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def untraced(workload, job_list, seconds, started, reference):
    limit = started + RUN_LIMIT_S
    passes = []
    while True:
        begun = time.monotonic()
        passes.append(Pass(job_list, "plain", limit, reference))
        now = time.monotonic()
        next_end = now + (now - begun)
        if next_end > limit or (len(passes) >= MIN_PASSES
                                and next_end > started + seconds):
            break
    per_pass = [p.metrics(jobs.TOP_RUNG[workload]) for p in passes]
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    print("%s: %d passes; medians over passes:" % (workload, len(passes)))
    for name, m in metrics.items():
        print("  %-12s %.4f %s" % (name, m["value"], m["unit"]))
    return passes, metrics


def traced(workload, job_list, seed, started, reference):
    deadline = started + RUN_LIMIT_S
    plain = Pass(job_list, "plain", deadline, reference)
    spans = Pass(job_list, "trace", deadline, reference)
    profiled = Pass(job_list, "profile", deadline, reference)

    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.jsonl.gz" % (workload, seed))
    with gzip.open(path, "wt") as fh:
        for line in spans.trace_lines:
            fh.write(line + "\n")
    layer = tracer.layer_metrics(spans.totals)
    layer["scalar.fraction.self_s"] = (
        sum(r.get("fraction_s", 0) for _, r in profiled.records), "s")
    overhead = spans.wall_s() - plain.wall_s()
    layer["trace.overhead_s"] = (overhead, "s")
    print("%s: traced wall_s %.4f s, untraced %.4f s, tracing overhead %.4f s"
          % (workload, spans.wall_s(), plain.wall_s(), overhead))
    print("spans written to %s" % path.relative_to(ROOT))
    for name, (value, unit) in layer.items():
        print("  %-40s %s %s" % (name, value, unit))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layer.items()}
    return [plain, spans, profiled], metrics


def write_hashes(seed):
    deadline = time.monotonic() + 3 * RUN_LIMIT_S
    hashes = {}
    for workload, make in jobs.WORKLOADS.items():
        reference = Reference(workload, seed)
        p = Pass(make(seed), "plain", deadline, reference)
        if any(v != "ok" for v in p.verdicts):
            print("not writing hashes: %s has a failed job" % workload,
                  file=sys.stderr)
            return 1
        for job, record in p.records:
            hashes["%s/%s" % (workload, job.name)] = record["sha256"]
    HASHES.write_text(json.dumps({"seed": seed, "hashes": hashes},
                                 indent=2, sort_keys=True) + "\n")
    print("wrote %d hashes to %s" % (len(hashes), HASHES.relative_to(ROOT)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-hashes", action="store_true",
                        help="rewrite the reference report hashes and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload is None and not args.write_hashes:
        parser.error("--workload is required")

    if not (SRC / "udeform" / "cli.py").is_file():
        print("error: no udeform sources under %s" % SRC, file=sys.stderr)
        return 2
    started = time.monotonic()
    warm_up(started + RUN_LIMIT_S)
    if args.write_hashes:
        return write_hashes(args.seed)

    job_list = jobs.WORKLOADS[args.workload](args.seed)
    reference = Reference(args.workload, args.seed)
    if args.trace:
        passes, metrics = traced(args.workload, job_list, args.seed, started,
                                 reference)
    else:
        passes, metrics = untraced(args.workload, job_list, args.seconds,
                                   started, reference)
    verdicts = [v for p in passes for v in p.verdicts]
    attempted, failed = len(verdicts), sum(v != "ok" for v in verdicts)
    print("%s: attempted %d jobs, failed %d" % (args.workload, attempted, failed))
    print(json.dumps({
        "correct": "wrong" not in verdicts,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
