"""Run one udeform job in this fresh interpreter and print one JSON line.

Usage: python3 child.py {plain|trace|profile} < job.json

The job document arrives on standard input.  `setup_s` covers importing
`udeform.cli` and loading the document; `run_s` is wall time inside
`cli.run`.  `trace` records per-layer spans (see tracer.py); `profile` runs
the job under cProfile and reports the self time spent in `fractions`.
"""

import hashlib
import json
import resource
import sys
import time
import traceback


def fraction_self_s(profiler):
    import fractions
    import pstats

    stats = pstats.Stats(profiler).stats
    return sum(row[2] for (path, _, _), row in stats.items()
               if path == fractions.__file__)


def peak_rss_kb():
    """Peak resident set of this process, in KiB.

    VmHWM belongs to this process image alone; ru_maxrss would also carry
    the parent's peak from before exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(mode):
    start = time.perf_counter()
    from udeform import cli

    doc = json.load(sys.stdin)
    out = {"setup_s": time.perf_counter() - start, "error": None}
    tracer = profiler = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile(builtins=False, subcalls=False)
    start = time.perf_counter()
    try:
        if tracer is not None:
            report, code = tracer.run(cli.run, doc)
        elif profiler is not None:
            report, code = profiler.runcall(cli.run, doc)
        else:
            report, code = cli.run(doc)
    except Exception:
        report, out["error"] = None, traceback.format_exc()
    out["run_s"] = time.perf_counter() - start
    if report is not None:
        out["code"] = code
        out["report"] = report.to_json()
        canonical = json.dumps(out["report"], indent=2, sort_keys=True) + "\n"
        out["sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    out["rss_kb"] = peak_rss_kb()
    if tracer is not None:
        out["trace"] = tracer.to_json()
    if profiler is not None:
        out["fraction_s"] = fraction_self_s(profiler)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
