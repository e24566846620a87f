"""Every method the benchmark tracer wraps is defined where it looks for it.

`bench/tracer.py` resolves each target in its owner's own `__dict__`, so a
traced method that moves into a base class breaks `--trace 1`.  This test
catches that in the normal test run.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracer imports its sibling oracles
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_in_its_owners_dict(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    missing = []
    for name, module, qualname, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append("%s (%s.%s)" % (name, module, qualname))
    assert not missing, missing
