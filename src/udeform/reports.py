"""Pass/fail reports with witnesses, rendered as text or canonical JSON.

`first_witness` is where every basis-sweep checker stops: it runs the
checker's per-case witness function over its cases (basis tuples from
`kernel.bounded_product`) and returns the first failure's witness with the
number of cases tried.  Together they are the one checker loop.
"""

from __future__ import annotations


class CheckEntry:
    __slots__ = ("label", "ok", "witness")

    def __init__(self, label, ok, witness=None):
        self.label = label
        self.ok = bool(ok)
        self.witness = witness  # JSON-compatible dict or None

    def to_json(self):
        out = {"label": self.label, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CheckReport:
    """An ordered list of named checks; passes iff every entry passes."""

    def __init__(self, name):
        self.name = name
        self.entries = []

    def add(self, label, ok, witness=None):
        self.entries.append(CheckEntry(label, ok, witness))
        return self

    @property
    def passed(self):
        return all(e.ok for e in self.entries)

    @property
    def failures(self):
        return [e for e in self.entries if not e.ok]

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "entries": [e.to_json() for e in self.entries],
        }

    def render_text(self):
        lines = ["[%s] %s" % ("PASS" if self.passed else "FAIL", self.name)]
        for e in self.entries:
            mark = "+" if e.ok else "x"
            lines.append("  %s %s" % (mark, e.label))
            if e.witness is not None and not e.ok:
                for k in sorted(e.witness):
                    lines.append("      %s: %s" % (k, e.witness[k]))
        return "\n".join(lines)

    def __repr__(self):
        return "<CheckReport %s: %s>" % (
            self.name,
            "pass" if self.passed else "FAIL",
        )


def first_witness(cases, witness):
    """The first non-None witness(*case) over `cases`, with the number of
    cases tried up to and including it; (None, all cases) when none fails."""
    tried = 0
    for case in cases:
        tried += 1
        found = witness(*case)
        if found is not None:
            return found, tried
    return None, tried
