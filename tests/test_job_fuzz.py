"""Mutated job documents never crash the CLI.

Each example takes one of the shipped fixtures (`emit_example`) and either
applies one to three mutations (`mutated_jobs`): replace the value at a
random path, delete a key, rename a key, or replace the whole document with
something that is no object; or replaces one to three leaves by values of
their own JSON type (`retyped_leaves`), so that more documents pass the
schema and reach a handler.  About half the examples come from each.
Replacement values are JSON values of every type; integers stay in 0..3,
since a large order or cutoff makes a valid job slow, not wrong.  Every
mutated document goes through `cli.main` as a job file and must exit 0, 1
or 2 with no exception escaping, and a second run must print the same
bytes.  The examples are derandomized, so a failure reproduces.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from udeform import cli
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


def _schema_strings(schema):
    """Every string an `enum` or `const` of the schema names."""
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key == "enum":
                yield from value
            elif key == "const":
                yield value
            else:
                yield from _schema_strings(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _schema_strings(value)


SAME_TYPE = {
    str: st.one_of(st.text(max_size=6),
                   st.sampled_from(sorted(set(_schema_strings(cli._JOBSPEC_SCHEMA))))),
    int: st.integers(min_value=0, max_value=3),
    float: st.floats(),
    bool: st.booleans(),
    type(None): st.none(),
}


@st.composite
def retyped_leaves(draw):
    """A fixture with one to three leaves replaced by values of their own
    JSON type: enum names switch the `if` branches, and 0 falls below a
    `minimum` of 1."""
    doc = emit_example(draw(st.sampled_from(sorted(FIXTURES))))
    leaves = [p for p in _paths(doc) if not isinstance(_parent(doc, p)[p[-1]], (dict, list))]
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3)):
        parent = _parent(doc, path)
        parent[path[-1]] = draw(SAME_TYPE[type(parent[path[-1]])])
    return doc


def _run(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--job", path, "--format", "json"])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(mutated_jobs(), retyped_leaves()))
def test_mutated_job_exits_cleanly_and_deterministically(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, first = _run(path)
        assert code in (0, 1, 2)
        assert _run(path) == (code, first)
