"""Mutated job documents never crash the CLI.

Each example takes one of the shipped fixtures (`emit_example`) and applies
one to three mutations: replace the value at a random path, delete a key,
rename a key, or replace the whole document with something that is no
object.  Replacement values are JSON values of every type; integers stay
in 0..3, since a large order or cutoff makes a valid job slow, not wrong.
Every mutated document goes through `cli.main` as a job file and must exit
0, 1 or 2 with no exception escaping, and a second run must print the same
bytes.  The examples are derandomized, so a failure reproduces.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from udeform.cli import main
from udeform.fixtures import FIXTURES, emit_example

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.floats(),
    st.integers(min_value=0, max_value=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)
NON_OBJECTS = st.one_of(SCALARS, st.lists(VALUES, max_size=3))


def _paths(doc, prefix=()):
    """Every path below the root of a JSON document, as key/index tuples."""
    children = (
        doc.items() if isinstance(doc, dict)
        else enumerate(doc) if isinstance(doc, list)
        else ()
    )
    for key, value in children:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_jobs(draw):
    doc = emit_example(draw(st.sampled_from(sorted(FIXTURES))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["replace", "delete", "rename", "non-object"]))
        if kind == "non-object" or not isinstance(doc, dict):
            return draw(NON_OBJECTS)
        paths = list(_paths(doc))
        if kind != "replace":
            paths = [p for p in paths if isinstance(_parent(doc, p), dict)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        if kind == "replace":
            parent[key] = draw(VALUES)
        elif kind == "delete":
            del parent[key]
        else:
            parent[draw(st.text(max_size=8))] = parent.pop(key)
    return doc


def _run(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--job", path, "--format", "json"])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_jobs())
def test_mutated_job_exits_cleanly_and_deterministically(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, first = _run(path)
        assert code in (0, 1, 2)
        assert _run(path) == (code, first)
