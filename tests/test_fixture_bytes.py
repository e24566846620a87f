"""The bytes of every fixture report are pinned.

`test_cli.test_reports_are_byte_identical` shows that a report does not
depend on the interpreter's hashing; this file shows that it does not change
at all.  Each `emit` fixture runs through `cli.run`, and its exit code and
the SHA-256 of its JSON report (the text `run --format json` writes: two-space
indent, sorted keys, one trailing newline) must match the values recorded
here.  A change to a report's bytes is then a deliberate edit of this table.
"""

import hashlib
import json

import pytest

from udeform.cli import run
from udeform.fixtures import FIXTURES, emit_example

# fixture name -> (exit code, SHA-256 of the JSON report)
PINNED = {
    "diagram-power-map": (
        0, "2fb420f9c47d950f81b2abef325655375748c61fca121ffba48188f73f000382"),
    "exp-pp": (
        0, "f0e5b7b733aad2b158f107d31533acf73d6376180677a382fd33b082790052d8"),
    "interchange-grouplike": (
        0, "ea6e24f568fd8c541e321359849a1038966b1e8ae62427880ca8472dcfa2dbda"),
    "moyal": (
        0, "bb41c085421b7efcf89c91fa1ce2a5a8f73cd6ba69f89cb71e1841f635ff0641"),
    "nonsmooth-counterexample": (
        0, "b0c7ffc14030be9c4192e7fb24a54c948484dfe61ca965e1a207c48a6697c3a7"),
    "quantum-plane": (
        0, "9c8911852f9d3aace6fa68d16be37581a999ff98ecb6d10d80d6126c76cc2929"),
    "ternary-quantum-plane": (
        0, "f8a7dc1bed59e26bc006c0a31d5e2eb2a1de937101530eca903fc0cc41565ceb"),
    # the same report as interchange-grouplike: both pairs pass every check
    "trivial-pair": (
        0, "ea6e24f568fd8c541e321359849a1038966b1e8ae62427880ca8472dcfa2dbda"),
}


def test_every_fixture_is_pinned():
    assert sorted(PINNED) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixture_report_bytes(name):
    report, code = run(emit_example(name))
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == PINNED[name]
