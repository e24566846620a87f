"""The fast job-schema check gives jsonschema's verdict.

`cli.validate_jobspec` first decides a document with `cli._conforms`, which
reads the shipped schema itself, and builds the jsonschema validator only
when that check rejects the document or is unsure.  These tests hold the
fast verdict equal to jsonschema's (the same validator `validate_jobspec`
falls back to) on mutated fixtures, on type-preserving mutations, most of
which stay valid, and on named edge cases; they show that every shipped
fixture runs with jsonschema blocked, and that the schema uses only
keywords and subschema forms the fast check decides.
"""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings

from udeform import cli
from udeform.fixtures import FIXTURES, emit_example

from test_cli import _subprocess_env
from test_fixture_bytes import PINNED
from test_job_fuzz import _parent, mutated_jobs, retyped_leaves


def _fast_verdict(doc):
    try:
        return cli._conforms(doc, cli._JOBSPEC_SCHEMA)
    except cli._Unsure:
        return "unsure"


def _jsonschema_verdict(doc):
    return cli._jobspec_validator().is_valid(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_jobs())
def test_fast_check_agrees_on_mutated_jobs(doc):
    assert _fast_verdict(doc) == _jsonschema_verdict(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(retyped_leaves())
def test_fast_check_agrees_on_retyped_leaves(doc):
    assert _fast_verdict(doc) == _jsonschema_verdict(doc)


ALGEBRA = ("inputs", "algebra")
P1 = ("inputs", "action", "p1")
TREE = ("inputs", "action", "p1", "p", 0, "tree")
DELETE = object()

# label, fixture, path, new value (DELETE removes the key), valid
NAMED = [
    ("integral float", "quantum-plane", ("parameters", "order"), 2.0, False),
    ("bool", "quantum-plane", ("parameters", "degree"), True, False),
    ("nan", "quantum-plane", ("parameters", "order"), math.nan, False),
    ("below minimum", "quantum-plane", ("parameters", "order"), -1, False),
    ("at minimum", "quantum-plane", ("parameters", "degree"), 1, True),
    ("2-item tree", "ternary-quantum-plane", TREE, ["p", "p"], False),
    ("4-item tree", "ternary-quantum-plane", TREE, ["p", "p", "p", "p"], False),
    ("nested tree", "ternary-quantum-plane", TREE, [["p", "p", "p"], "p", "p"], True),
    # algebra: `then` (polynomial-truncated) and `else` (finite-dimensional)
    ("polynomial-truncated", "quantum-plane", ALGEBRA + ("kind",),
     "polynomial-truncated", True),
    ("polynomial-truncated without cutoff", "quantum-plane",
     ALGEBRA + ("degree_cutoff",), DELETE, False),
    ("finite-dimensional", "nonsmooth-counterexample", ALGEBRA + ("unit",), "1", True),
    ("finite-dimensional without unit", "nonsmooth-counterexample",
     ALGEBRA + ("unit",), DELETE, False),
    ("finite-dimensional without basis", "quantum-plane", ALGEBRA + ("kind",),
     "finite-dimensional", False),
    # action: `then` (derivation) and `else` (endomorphism)
    ("derivation by partials", "quantum-plane", P1 + ("type",), "derivation", True),
    ("derivation by images", "quantum-plane", P1,
     {"type": "derivation", "images": {"p": {"p": "1"}}}, True),
    ("derivation by variables", "quantum-plane", P1,
     {"type": "derivation", "variables": {"p": {"p": "1"}}}, False),
    ("endomorphism by variables", "quantum-plane", P1,
     {"type": "endomorphism", "variables": {"p": {"p": "1"}}}, True),
    ("endomorphism by images", "quantum-plane", P1,
     {"type": "endomorphism", "images": {"p": {"p": "1"}}}, True),
    ("endomorphism by partials", "quantum-plane", P1 + ("type",), "endomorphism", False),
]


@pytest.mark.parametrize("name,path,value,valid", [case[1:] for case in NAMED],
                         ids=[case[0] for case in NAMED])
def test_named_cases(name, path, value, valid):
    job = emit_example(name)
    parent = _parent(job, path)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    assert _jsonschema_verdict(job) is valid
    assert _fast_verdict(job) is valid


@pytest.mark.parametrize(
    "name,edit,location,message",
    [
        ("ternary-quantum-plane",
         lambda job: job["inputs"]["action"]["p1"]["p"][0].update(tree=("p", "p", "p")),
         "$.inputs.action.p1.p[0].tree",
         "('p', 'p', 'p') is not valid under any of the given schemas"),
        ("quantum-plane", lambda job: job["inputs"]["bialgebra"].update({1: "x"}),
         "$.inputs.bialgebra", "Additional properties are not allowed (1 was unexpected)"),
    ],
    ids=["tuple", "non-str key"],
)
def test_values_outside_json_take_the_fallback(name, edit, location, message):
    job = emit_example(name)
    edit(job)
    assert _fast_verdict(job) == "unsure"
    with pytest.raises(cli.JobError) as info:
        cli.validate_jobspec(job)
    assert (info.value.location, info.value.message) == (location, message)


def test_non_str_key_where_any_key_is_allowed_is_valid():
    job = emit_example("quantum-plane")
    job["expect"] = {1: True}
    assert _fast_verdict(job) == "unsure"
    cli.validate_jobspec(job)


BLOCKED_RUN = """
import contextlib, hashlib, io, json, sys
sys.modules["jsonschema"] = None
from udeform.cli import main
for name, path in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", "--job", path, "--format", "json"])
    print(json.dumps([name, code, hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def test_fixtures_run_with_jsonschema_blocked(tmp_path):
    paths = {}
    for name in sorted(FIXTURES):
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as fh:
            json.dump(emit_example(name), fh)
    proc = subprocess.run([sys.executable, "-c", BLOCKED_RUN, json.dumps(paths)],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    got = {name: (code, digest) for name, code, digest in map(json.loads, proc.stdout.splitlines())}
    assert got == PINNED


def _is_schema(value):
    return isinstance(value, dict)


def _is_str_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_count(value):
    return type(value) is int and value >= 0


TYPE_NAMES = {"object", "array", "string", "integer", "number", "boolean", "null"}
# keyword -> whether its value has a form the fast check decides
DECIDED = {
    "type": lambda v: v in TYPE_NAMES if isinstance(v, str) else (
        isinstance(v, list) and all(n in TYPE_NAMES for n in v)),
    "enum": _is_str_list,
    "const": lambda v: isinstance(v, str),
    "required": _is_str_list,
    "properties": lambda v: isinstance(v, dict) and all(map(_is_schema, v.values())),
    "additionalProperties": lambda v: v is False or _is_schema(v),
    "items": _is_schema,
    "minItems": _is_count,
    "maxItems": _is_count,
    "minimum": lambda v: type(v) in (int, float),
    "if": _is_schema,
    "then": _is_schema,
    "else": _is_schema,
    "anyOf": lambda v: isinstance(v, list) and all(map(_is_schema, v)),
    "allOf": lambda v: isinstance(v, list) and all(map(_is_schema, v)),
}
ANNOTATIONS = {"$schema", "$id", "title", "definitions"}


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key in ("properties", "definitions"):
            children = list(value.values())
        elif key in ("anyOf", "allOf"):
            children = value
        elif key in ("additionalProperties", "items", "if", "then", "else"):
            children = [value] if isinstance(value, dict) else []
        else:
            children = []
        for child in children:
            yield from _subschemas(child)


def test_schema_uses_only_what_the_fast_check_decides():
    schema = cli._JOBSPEC_SCHEMA
    forms = []
    for sub in _subschemas(schema):
        if "$ref" in sub:
            head, _, name = sub["$ref"].rpartition("/")
            forms.append(head == "#/definitions" and name.isidentifier()
                         and name in schema["definitions"])
            continue
        for key, value in sub.items():
            if key in ANNOTATIONS:
                forms.append(sub is schema)
            else:
                forms.append(key in DECIDED and DECIDED[key](value))
        if not all(forms):
            pytest.fail("undecided form in %s" % json.dumps(sub)[:200])
    assert len(forms) > 100
