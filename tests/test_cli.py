import copy
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

import udeform
from udeform.cli import (
    DEFAULTS,
    JobError,
    _build_diagram,
    _load_schema,
    build_action,
    build_algebra,
    build_bialgebra,
    main,
    run,
    validate_jobspec,
)
from udeform.bialgebra import (
    MAX_INDEXED_KEYS, BialgebraSpec, TensorPrimitiveBialgebra, check_key_space,
    construct_bialgebra,
)
from udeform.fixtures import FIXTURES, emit_example
from udeform.kernel import Monomial

from conftest import bench_job


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_passes(tmp_path, name):
    path = write_job(tmp_path, emit_example(name))
    out = tmp_path / "report.json"
    code = main(["run", "--job", path, "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0, report
    assert report["status"] == "pass"


def test_emit_writes_valid_jobspecs(tmp_path):
    for name in FIXTURES:
        out = tmp_path / ("%s.json" % name)
        assert main(["emit", name, "--out", str(out)]) == 0
        validate_jobspec(json.loads(out.read_text()))


def test_emit_unknown_name():
    assert main(["emit", "nonexistent-fixture"]) == 2


def _subprocess_env(**extra):
    env = dict(os.environ, **extra)
    src = str(pathlib.Path(udeform.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_reports_are_byte_identical(tmp_path):
    # string hashing differs between the two interpreters, so no report
    # may depend on the iteration order of a set or of hashed elements
    for name in sorted(FIXTURES):
        path = write_job(tmp_path, emit_example(name), name + ".json")
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "udeform.cli", "run", "--job", path,
                 "--format", "json"],
                capture_output=True,
                env=_subprocess_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, (name, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], name


def test_report_json_matches_schema(tmp_path):
    path = write_job(tmp_path, emit_example("exp-pp"))
    out = tmp_path / "report.json"
    main(["run", "--job", path, "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    jsonschema.Draft7Validator(_load_schema("report.schema.json")).validate(report)


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"command": oops}')
    assert main(["run", "--job", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_schema_violation_exits_two(tmp_path, capsys):
    path = write_job(tmp_path, {"command": "no-such-command", "inputs": {}})
    assert main(["run", "--job", str(path)]) == 2
    out = capsys.readouterr().out
    assert "status: ERROR" in out and "$.command" in out


def test_missing_file_exits_two(tmp_path):
    assert main(["run", "--job", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("doc", [[], "x", 1, None])
@pytest.mark.parametrize("flags", [[], ["--order", "3"]])
def test_job_that_is_not_an_object_exits_two(tmp_path, capsys, doc, flags):
    path = write_job(tmp_path, doc)
    assert main(["run", "--job", path, "--format", "json", *flags]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["location"] == "$"
    assert "is not of type 'object'" in error["message"]


@pytest.mark.parametrize("flag", [["--order", "3"], ["--seed", "1"]])
def test_flag_over_parameters_that_are_no_object_exits_two(tmp_path, capsys, flag):
    path = write_job(tmp_path, {"command": "deform", "parameters": []})
    assert main(["run", "--job", path, "--format", "json", *flag]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["error"]["location"] in ("$", "$.parameters")


@pytest.mark.parametrize("mode", ["emit", "run"])
def test_unwritable_out_exits_two(tmp_path, capsys, mode):
    out = str(tmp_path / "missing" / "x.json")
    if mode == "emit":
        argv = ["emit", "moyal", "--out", out]
    else:
        argv = ["run", "--job", write_job(tmp_path, emit_example("moyal")), "--out", out]
    assert main(argv) == 2
    assert "error: cannot write output file:" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_failing_job_exits_one(tmp_path):
    job = {
        "command": "operad-axioms",
        "inputs": {"bialgebra": {"kind": "matrix-coordinate", "degree_cutoff": 3}},
        "parameters": {"samples": 10},
    }
    path = write_job(tmp_path, job)
    out = tmp_path / "r.json"
    code = main(["run", "--job", path, "--format", "json", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    assert report["data"]["mismatches"]["equivariance"] == {
        "expected": True,
        "got": False,
    }
    # the same job with the failure declared expected turns into a pass
    job["expect"] = {"equivariance": False}
    path2 = write_job(tmp_path, job, "job2.json")
    assert main(["run", "--job", path2]) == 0


def test_flag_overrides_parameters(tmp_path):
    job = emit_example("moyal")
    path = write_job(tmp_path, job)
    out = tmp_path / "r.json"
    main(["run", "--job", path, "--format", "json", "--order", "3", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["parameters"]["order"] == 3


def test_text_and_json_statuses_agree(tmp_path):
    path = write_job(tmp_path, emit_example("quantum-plane"))
    out_t = tmp_path / "r.txt"
    out_j = tmp_path / "r.json"
    main(["run", "--job", path, "--format", "text", "--out", str(out_t)])
    main(["run", "--job", path, "--format", "json", "--out", str(out_j)])
    text = out_t.read_text()
    report = json.loads(out_j.read_text())
    assert ("status: PASS" in text) == (report["status"] == "pass")


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("UDEFORM_OUT_DIR", str(tmp_path))
    assert main(["emit", "trivial-pair", "--out", "spec.json"]) == 0
    assert (tmp_path / "spec.json").exists()


def test_unknown_expectation_key_is_an_error(tmp_path):
    job = dict(emit_example("trivial-pair"))
    job["expect"] = {"nonexistent": True}
    path = write_job(tmp_path, job)
    assert main(["run", "--job", path]) == 2


def test_console_script_wiring(tmp_path):
    path = write_job(tmp_path, emit_example("trivial-pair"))
    proc = subprocess.run(
        [sys.executable, "-m", "udeform.cli", "run", "--job", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: PASS" in proc.stdout


def test_run_function_reports_defaults():
    report, code = run(emit_example("exp-pp"))
    assert code == 0
    for key, value in DEFAULTS.items():
        if key not in ("order",):
            assert report.parameters[key] == value


def test_cobar_job_payload(tmp_path):
    job = {
        "command": "cobar-h2",
        "inputs": {
            "bialgebra": {"kind": "polynomial-primitive", "generators": ["p1", "p2"]}
        },
        "parameters": {"cobar_cutoff": 4},
    }
    path = write_job(tmp_path, job)
    out = tmp_path / "r.json"
    assert main(["run", "--job", path, "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["data"]["total_dimension"] == 1
    nonzero = [b for b in report["data"]["blocks"] if b["dim"]]
    assert nonzero == [{"degree": 2, "dim": 1, "representatives": ["p1@p2"]}]


def test_hochschild_job_reports_wedge(tmp_path):
    job = {
        "command": "hochschild",
        "inputs": {
            "bialgebra": {"kind": "polynomial-primitive", "generators": ["p1", "p2"]},
            "algebra": {
                "kind": "polynomial-truncated",
                "variables": ["p", "q"],
                "degree_cutoff": 4,
            },
            "action": {
                "p1": {"type": "derivation", "partials": {"p": {"1": "1"}}},
                "p2": {"type": "derivation", "partials": {"p": {"q": "1"}}},
            },
            "udf": {
                "exp_of": [
                    {"coeff": "1/2", "slots": ["p1", "p2"]},
                    {"coeff": "-1/2", "slots": ["p2", "p1"]},
                ]
            },
        },
        "parameters": {"order": 2},
        "expect": {"cocycle_zero": True, "coboundary": True, "wedge_nonzero": False},
    }
    path = write_job(tmp_path, job)
    out = tmp_path / "r.json"
    assert main(["run", "--job", path, "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["data"]["wedge_over_A"] == {}


def test_udf_orders_form(tmp_path):
    job = {
        "command": "verify-twist",
        "inputs": {
            "bialgebra": {"kind": "polynomial-primitive", "generators": ["p1", "p2"]},
            "udf": {
                "orders": [
                    [{"coeff": "1", "slots": ["1", "1"]}],
                    [
                        {"coeff": "1/2", "slots": ["p1", "p2"]},
                        {"coeff": "-1/2", "slots": ["p2", "p1"]},
                    ],
                ]
            },
        },
        "parameters": {"order": 1},
    }
    path = write_job(tmp_path, job)
    assert main(["run", "--job", path]) == 0


def test_non_twist_fails_d1_at_order_two():
    # F = 1@1 + t p1@p2 + t^2 (1/2 p1^2@p2^2 + p1^2@1): the exponential of
    # p1@p2 up to order 1, and at order 2 the extra p1^2@1 breaks (d1) by
    # (Delta@id)(p1^2@1) + p1^2@1@1 - (id@Delta)(p1^2@1) - 1@p1^2@1
    job = {
        "command": "verify-twist",
        "inputs": {
            "bialgebra": {"kind": "polynomial-primitive", "generators": ["p1", "p2"]},
            "udf": {
                "orders": [
                    [{"coeff": "1", "slots": ["1", "1"]}],
                    [{"coeff": "1", "slots": ["p1", "p2"]}],
                    [
                        {"coeff": "1/2", "slots": ["p1^2", "p2^2"]},
                        {"coeff": "1", "slots": ["p1^2", "1"]},
                    ],
                ]
            },
            "options": {"counital": False},
        },
        "parameters": {"order": 2},
    }
    report, code = run(job)
    out = report.to_json()
    assert out["data"]["outcomes"] == {"twist": False}
    [check] = out["checks"]
    assert check["entries"] == [{
        "label": "(d1) cocycle identity",
        "ok": False,
        "witness": {"first_failing_order": 2, "difference": "2*p1@p1@1 + p1^2@1@1"},
    }]
    assert code == 1


def test_product_table_text_alignment(tmp_path):
    path = write_job(tmp_path, emit_example("quantum-plane"))
    out = tmp_path / "r.txt"
    main(["run", "--job", path, "--format", "text", "--out", str(out)])
    text = out.read_text()
    assert "product table:" in text
    import re

    assert re.search(r"p\s+\*\s+q\s+=", text)


# ---------------------------------------------------------------------------
# library errors become exit 2, never a traceback
# ---------------------------------------------------------------------------

def _run_error(job):
    report, code = run(job)
    doc = report.to_json()
    assert code == 2 and doc["status"] == "error"
    assert doc["error"]["location"]
    return doc["error"]


def test_bialgebra_cutoff_overflow_exits_two():
    job = copy.deepcopy(emit_example("moyal"))
    job["inputs"]["bialgebra"]["degree_cutoff"] = 1
    error = _run_error(job)
    assert "key p1^2 exceeds degree cutoff 1" in error["message"]


def test_word_basis_past_the_key_bound_exits_two_before_it_is_built(monkeypatch):
    # 2 generators at cutoff 30 are 2^31 - 1 words; the bound refuses them
    # before any basis key is enumerated
    def enumerated(self, max_degree):
        raise AssertionError("enumerated the word basis to degree %d" % max_degree)

    monkeypatch.setattr(TensorPrimitiveBialgebra, "basis_keys", enumerated)
    job = bench_job("tensor-D5")
    job["inputs"]["bialgebra"]["degree_cutoff"] = 30
    error = _run_error(job)
    assert error == {
        "location": "inputs.bialgebra.degree_cutoff",
        "message": "the word basis on 2 generators up to degree 30 has more "
                   "than %d keys" % MAX_INDEXED_KEYS,
    }
    # the bound is the key count itself: 2^17 - 1 words at cutoff 16 pass it
    check_key_space(BialgebraSpec("tensor-primitive", ["x", "y"]), 16)
    with pytest.raises(ValueError):
        check_key_space(BialgebraSpec("tensor-primitive", ["x", "y"]), 17)
    check_key_space(BialgebraSpec("tensor-primitive", ["x"]), MAX_INDEXED_KEYS - 1)
    with pytest.raises(ValueError):
        check_key_space(BialgebraSpec("tensor-primitive", ["x"]), MAX_INDEXED_KEYS)
    check_key_space(BialgebraSpec("tensor-primitive", []), 10 ** 9)
    # the library refuses it too, not only the job runner
    with pytest.raises(ValueError, match="more than %d keys" % MAX_INDEXED_KEYS):
        construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), 30)


def test_tensor_term_past_the_cutoff_exits_two_at_the_term():
    job = copy.deepcopy(emit_example("quantum-plane"))
    job["inputs"]["bialgebra"]["degree_cutoff"] = 2
    job["inputs"]["udf"] = {
        "orders": [[{"slots": ["1", "1"]}], [{"slots": ["p1^3", "p2"]}]],
    }
    assert _run_error(job) == {
        "location": "inputs.udf.orders[1][0]",
        "message": "key p1^3 exceeds degree cutoff 2",
    }


def test_algebra_cutoff_overflow_exits_two():
    job = copy.deepcopy(emit_example("quantum-plane"))
    job["inputs"]["action"]["p1"]["partials"]["p"] = {"p^2": "1"}
    error = _run_error(job)
    assert "derivation output p^2*q^3 exceeds cutoff 4" in error["message"]


def test_associativity_sweep_is_clamped_to_the_algebra_cutoff():
    # parameters.degree defaults to 4, past the algebra's cutoff 3: the sweep
    # covers the C(9, 6) = 84 triples within the cutoff instead of exiting 2
    job = copy.deepcopy(emit_example("quantum-plane"))
    job["inputs"]["algebra"]["degree_cutoff"] = 3
    del job["parameters"]["degree"]
    report, code = run(job)
    assert code == 0
    doc = report.to_json()
    assert doc["parameters"]["degree"] == 4
    labels = [e["label"] for c in doc["checks"] for e in c["entries"]]
    assert "associativity on 84 basis triples" in labels


def test_cobar_job_computes_h2_once(monkeypatch):
    import udeform
    from udeform import cobar

    original = cobar.h2
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # replace h2 under every name a udeform module holds it by
    for name, module in list(sys.modules.items()):
        if name == "udeform" or name.startswith("udeform."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    assert udeform.h2 is counting
    job = {
        "command": "cobar-h2",
        "inputs": {
            "bialgebra": {"kind": "polynomial-primitive", "generators": ["p1", "p2"]}
        },
        "parameters": {"cobar_cutoff": 3},
    }
    report, code = run(job)
    assert code == 0
    assert report.data["total_dimension"] == 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# invariants are explicit raises, so they hold under python -O
# ---------------------------------------------------------------------------

def test_library_has_no_assert_statements():
    import ast
    import pathlib

    import udeform

    package = pathlib.Path(udeform.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_library_has_no_unused_module_imports():
    import ast

    package = pathlib.Path(udeform.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the public names
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            "%s:%d %s" % (path.name, line, name)
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_runtime_dependencies_stay_at_jsonschema():
    import ast

    package = pathlib.Path(udeform.__file__).parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                "%s:%d %s" % (path.name, node.lineno, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"jsonschema"}
            ]
    assert foreign == []


def test_optimized_interpreter_gives_identical_report(tmp_path):
    path = write_job(tmp_path, emit_example("moyal"))
    env = _subprocess_env()
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "udeform.cli", "run", "--job", path,
             "--format", "json"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# no job document raises out of cli.run
# ---------------------------------------------------------------------------

def test_emit_example_returns_a_fresh_copy():
    job = emit_example("moyal")
    original = copy.deepcopy(job)
    job["inputs"]["bialgebra"]["degree_cutoff"] = 1
    del job["inputs"]["udf"]
    assert emit_example("moyal") == original


# the inputs each command cannot run without
REQUIRED_INPUTS = {
    "verify-twist": {"bialgebra", "udf"},
    "operad-axioms": {"bialgebra"},
    "deform": {"bialgebra", "algebra", "action", "udf"},
    "cobar-h2": {"bialgebra"},
    "hochschild": {"bialgebra", "algebra", "action", "udf"},
    "ternary": {"bialgebra", "udf", "pass_algebra", "action"},
    "interchange": {"bialgebra", "F1", "F2"},
    "diagram": {"diagram"},
}


@pytest.mark.parametrize(
    "name,key",
    [
        (name, key)
        for name in sorted(FIXTURES)
        for key in sorted(FIXTURES[name]["inputs"])
    ],
)
def test_deleting_an_input_never_raises(name, key):
    job = emit_example(name)
    del job["inputs"][key]
    report, code = run(job)
    if key in REQUIRED_INPUTS[job["command"]]:
        assert code == 2
        assert report.error["location"] == "$.inputs"
        assert repr(key) in report.error["message"]
    else:
        assert code in (0, 1, 2)


def test_ternary_term_without_tree_exits_two():
    job = emit_example("ternary-quantum-plane")
    images = job["inputs"]["action"]["p1"]
    pgen = sorted(images)[0]
    del images[pgen][0]["tree"]
    error = _run_error(job)
    assert error["location"] == "inputs.action.p1.%s[0]" % pgen


@pytest.mark.parametrize(
    "tree,location,message",
    [
        (["p", 0, "p"], "$.inputs.action.p1.p[0].tree", "not valid"),
        (["p", "p"], "$.inputs.action.p1.p[0].tree", "not valid"),
        (["p", "p", "z"], "inputs.action.p1.p[0]", "unknown generator 'z'"),
    ],
    ids=["integer leaf", "two children", "unknown generator"],
)
def test_malformed_ternary_tree_exits_two(tree, location, message):
    job = emit_example("ternary-quantum-plane")
    job["inputs"]["action"]["p1"]["p"][0]["tree"] = tree
    error = _run_error(job)
    assert error["location"] == location
    assert message in error["message"]


@pytest.mark.parametrize("depth,code", [(100, 0), (400, 2)])
def test_deeply_nested_tree_exits_without_a_traceback(tmp_path, capsys, depth, code):
    job = emit_example("ternary-quantum-plane")
    term = job["inputs"]["action"]["p1"]["p"][0]
    for _ in range(depth):
        term["tree"] = [term["tree"], "p", "p"]
    path = write_job(tmp_path, job)
    assert main(["run", "--job", path, "--format", "json"]) == code
    report = json.loads(capsys.readouterr().out)
    if code == 2:
        assert report["error"] == {"location": "$", "message": "document nested too deeply"}


@pytest.mark.parametrize(
    "path",
    [
        ("pass_algebra",),
        ("pass_algebra", "generators"),
        ("pass_algebra", "leaf_cutoff"),
        ("pass_algebra", "symmetric"),
        ("action",),
        ("action", "p1"),
        ("action", "p1", "p"),
    ],
    ids=".".join,
)
def test_mistyped_ternary_input_never_raises(path):
    for value in (None, 0, "x", [], {}, 4, -1, ["p", 1]):
        job = emit_example("ternary-quantum-plane")
        doc = job["inputs"]
        for part in path[:-1]:
            doc = doc[part]
        doc[path[-1]] = value
        report, code = run(job)
        assert code in (0, 1, 2), (path, value)
        if code == 2:
            assert "inputs" in report.error["location"], (path, value)


@pytest.mark.parametrize(
    "path",
    [
        ("diagram",),
        ("diagram", "nodes"),
        ("diagram", "nodes", 0),
        ("diagram", "nodes", 1),
        ("diagram", "nodes", 0, "name"),
        ("diagram", "arrows"),
        ("diagram", "arrows", 0),
        ("diagram", "arrows", 0, "from"),
        ("triple",),
        ("triple", "F1"),
        ("triple", "G"),
        ("literal_action_variant",),
        ("literal_action_variant", "node"),
        ("m",),
        ("n",),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_mistyped_diagram_input_never_raises(path):
    for value in (None, 0, "x", [], {}, -1, 4, ["p", 1]):
        job = emit_example("diagram-power-map")
        doc = job["inputs"]
        for part in path[:-1]:
            doc = doc[part]
        doc[path[-1]] = value
        report, code = run(job)
        assert code in (0, 1, 2), (path, value)
        if code == 2:
            assert "inputs" in report.error["location"], (path, value)


def test_diagram_node_without_a_field_exits_two_at_the_node():
    for field in ("name", "bialgebra", "algebra", "action"):
        job = emit_example("diagram-power-map")
        del job["inputs"]["diagram"]["nodes"][1][field]
        error = _run_error(job)
        assert error["location"] == "$.inputs.diagram.nodes[1]", field
        assert repr(field) in error["message"]


_SQUARE_ZERO = {"kind": "finite-dimensional", "basis": ["1", "p", "q"], "unit": "1",
                "products": {"p|p": {}, "p|q": {}, "q|p": {}, "q|q": {}}}


@pytest.mark.parametrize(
    "op_type,bialgebra,images",
    [
        ("derivation", None, {"p": {"zz": "1"}}),
        ("derivation", None, {"zz": {"p": "1"}}),
        ("endomorphism", {"kind": "monoid", "generators": ["g"]}, {"p": {"zz": "1"}}),
        ("derivation", None, {"p": {"zz": "0"}}),
    ],
    ids=["derivation-image", "derivation-argument", "endomorphism-image", "zero-coefficient"],
)
def test_unknown_basis_element_in_images_exits_two(op_type, bialgebra, images):
    # a diagram node over a finite-dimensional algebra
    job = emit_example("diagram-power-map")
    node = job["inputs"]["diagram"]["nodes"][1]
    node["algebra"] = copy.deepcopy(_SQUARE_ZERO)
    if bialgebra is not None:
        node["bialgebra"] = bialgebra
    names = bialgebra["generators"] if bialgebra else ["p1", "p2"]
    node["action"] = {name: {"type": op_type, "images": images} for name in names}
    error = _run_error(job)
    assert error["location"] == "inputs.diagram.nodes[1].action"
    assert "unknown basis element 'zz'" in error["message"]
    # the same action in a top-level job
    job = emit_example("nonsmooth-counterexample")
    if bialgebra is not None:
        job["inputs"]["bialgebra"] = bialgebra
    job["inputs"]["action"] = node["action"]
    error = _run_error(job)
    assert error["location"] == "inputs.action"
    assert "unknown basis element 'zz'" in error["message"]


def test_unknown_variable_in_a_derivation_exits_two():
    # a coefficient naming no variable of the algebra: the top-level job used
    # to pass, and on a diagram node it raised KeyError out of the compat check
    action = {"p1": {"type": "derivation", "partials": {"p": {"z": "1"}}},
              "p2": {"type": "derivation", "partials": {"q": {"q": "1"}}}}
    job = emit_example("quantum-plane")
    job["inputs"]["action"] = copy.deepcopy(action)
    error = _run_error(job)
    assert error["location"] == "inputs.action"
    assert "unknown variable 'z'" in error["message"]
    for i in (0, 1):
        job = emit_example("diagram-power-map")
        job["inputs"]["diagram"]["nodes"][i]["action"] = copy.deepcopy(action)
        error = _run_error(job)
        assert error["location"] == "inputs.diagram.nodes[%d].action" % i
        assert "unknown variable 'z'" in error["message"]


def test_diagram_triple_without_arrow_exits_two():
    job = emit_example("diagram-power-map")
    assert "triple" in job["inputs"]
    job["inputs"]["diagram"]["arrows"] = []
    job["inputs"].pop("literal_action_variant", None)
    error = _run_error(job)
    assert error["location"] == "inputs.diagram.arrows"


def test_unknown_literal_variant_node_exits_two():
    job = emit_example("diagram-power-map")
    job["inputs"]["literal_action_variant"]["node"] = "no-such-node"
    error = _run_error(job)
    assert error["location"] == "inputs.literal_action_variant.node"


def test_node_cutoff_overflow_fails_the_node():
    # the literal (p^2/2) d/dp action on a cutoff-4 target overflows inside
    # the node's module-algebra check; that is a failed node, not an error
    job = emit_example("diagram-power-map")
    inputs = job["inputs"]
    v2 = inputs["diagram"]["nodes"][1]
    v2["algebra"]["degree_cutoff"] = 4
    v2["action"] = inputs["literal_action_variant"]["action"]
    for key in ("triple", "literal_action_variant"):
        del inputs[key]
    del job["expect"]
    report, code = run(job)
    assert code == 1
    entries = {e["label"]: e for e in report.to_json()["checks"][0]["entries"]}
    assert entries["node v1 is a module algebra"]["ok"]
    node = entries["node v2 is a module algebra"]
    assert not node["ok"]
    assert node["witness"] == {"error": "derivation output p^2*q^3 exceeds cutoff 4"}
    assert not entries["arrow 0 (v1 -> v2): b h(a) = h(phi(b) a)"]["ok"]


def test_hochschild_at_order_zero_exits_two():
    job = emit_example("nonsmooth-counterexample")
    job["parameters"]["order"] = 0
    error = _run_error(job)
    assert error["location"] == "parameters.order"


def test_hochschild_with_a_non_twist_exits_two():
    # F = 1@1 + t p1@1: its order-t layer d(a) b is not a Hochschild cocycle
    job = emit_example("nonsmooth-counterexample")
    job["inputs"]["algebra"] = {
        "kind": "polynomial-truncated", "variables": ["p", "q"], "degree_cutoff": 4,
    }
    job["inputs"]["action"] = {
        "p1": {"type": "derivation", "partials": {"p": {"1": "1"}}},
        "p2": {"type": "derivation", "partials": {"q": {"1": "1"}}},
    }
    job["inputs"]["udf"] = {"orders": [
        [{"coeff": "1", "slots": ["1", "1"]}],
        [{"coeff": "1", "slots": ["p1", "1"]}],
    ]}
    error = _run_error(job)
    assert error["location"] == "inputs.udf"
    assert "Hochschild cocycle" in error["message"]


def _bialgebra_paths(job):
    """Paths in job["inputs"] of every bialgebra object of a job."""
    inputs = job["inputs"]
    paths = [("bialgebra",)] if "bialgebra" in inputs else []
    for i, _ in enumerate(inputs.get("diagram", {}).get("nodes", [])):
        paths.append(("diagram", "nodes", i, "bialgebra"))
    return paths


@pytest.mark.parametrize(
    "name,path",
    [
        (name, path)
        for name in sorted(FIXTURES)
        for path in _bialgebra_paths(FIXTURES[name])
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
@pytest.mark.parametrize("field", ["kind", "generators", "flags", "degree_cutoff"])
def test_mistyped_bialgebra_field_never_raises(name, path, field):
    for value in (None, 0, "x", [], {}):
        job = emit_example(name)
        doc = job["inputs"]
        for part in path:
            doc = doc[part]
        doc[field] = value
        report, code = run(job)
        assert code in (0, 1, 2), (field, value)
        if code == 2:
            assert "inputs" in report.error["location"], (field, value)


def _walk(doc, path=()):
    """(path, value) for `doc` and every value below it, depth first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _walk(child, path + (key,))


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def _paths_below(inputs, roots):
    """Paths in `inputs` at or below each root path."""
    return [path for root in roots for path, _ in _walk(_at(inputs, root), root)]


def _tensor_series_paths(job):
    """Paths in job["inputs"] at or below every tensor series of a job."""
    inputs = job["inputs"]
    roots = [(key,) for key in ("udf", "F1", "F2") if key in inputs]
    roots += [("triple", key) for key in ("F1", "G", "F2") if key in inputs.get("triple", {})]
    return _paths_below(inputs, roots)


def _one_document_per_command():
    """A fixture for each command that has one, a benchmark job otherwise."""
    docs = {}
    for name in sorted(FIXTURES):
        docs.setdefault(FIXTURES[name]["command"], FIXTURES[name])
    docs["cobar-h2"] = bench_job("tensor-D5")
    docs["operad-axioms"] = bench_job("operad-matrix")
    return docs


COMMAND_DOCUMENTS = _one_document_per_command()
INTEGER_PARAMETERS = ("order", "degree", "cobar_cutoff", "seed", "search_bound", "samples")
NESTED_INTEGERS = ("degree_cutoff", "leaf_cutoff", "image_degree", "compat_cutoff")


def _integer_fields(job):
    """Every integer parameter, read by the command or not, and every nested
    integer field of the inputs."""
    paths = [("parameters", name) for name in INTEGER_PARAMETERS]
    return paths + [("inputs",) + path for path, _ in _walk(job["inputs"])
                    if path and path[-1] in NESTED_INTEGERS]


@pytest.mark.parametrize(
    "command,path",
    [(command, path) for command, job in sorted(COMMAND_DOCUMENTS.items())
     for path in _integer_fields(job)],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_integral_float_in_an_integer_field_exits_two(command, path):
    job = copy.deepcopy(COMMAND_DOCUMENTS[command])
    job.setdefault("parameters", {})
    doc = _at(job, path[:-1])
    doc[path[-1]] = value = float(doc.get(path[-1], 2))
    report, code = run(job)
    assert code == 2
    assert report.error == {
        "location": "$" + "".join(
            "[%d]" % p if isinstance(p, int) else ".%s" % p for p in path),
        "message": "%r is not of type 'integer'" % value,
    }


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_mistyped_tensor_series_never_raises(name):
    paths = _tensor_series_paths(FIXTURES[name])
    for path in paths:
        for value in (None, 0, "x", [], {}):
            job = emit_example(name)
            doc = job["inputs"]
            for part in path[:-1]:
                doc = doc[part]
            doc[path[-1]] = value
            report, code = run(job)
            assert code in (0, 1, 2), (path, value)
            if code == 2:
                assert "inputs" in report.error["location"], (path, value)


def test_unknown_generator_message_is_bare():
    for kind in ("polynomial-primitive", "tensor-primitive"):
        job = emit_example("moyal")
        job["inputs"]["bialgebra"]["kind"] = kind
        job["inputs"]["udf"]["exp_of"][0]["slots"][0] = "z"
        error = _run_error(job)
        assert error["location"] == "inputs.udf.exp_of[0]", kind
        assert error["message"] == "unknown generator 'z'", kind


def test_unknown_arrow_endpoint_names_the_node():
    job = emit_example("diagram-power-map")
    job["inputs"]["diagram"]["arrows"][0]["from"] = "nope"
    error = _run_error(job)
    assert error["location"] == "inputs.diagram.arrows[0]"
    assert error["message"] == "unknown node 'nope'"


@pytest.mark.parametrize(
    "field,value,location",
    [
        ("h", "x", "$.inputs.diagram.arrows[0].h"),
        ("phi", "x", "$.inputs.diagram.arrows[0].phi"),
        ("phi", {"p1": "x"}, "$.inputs.diagram.arrows[0].phi.p1"),
    ],
    ids=["h string", "phi string", "phi image string"],
)
def test_mistyped_arrow_map_exits_two(field, value, location):
    job = emit_example("diagram-power-map")
    job["inputs"]["diagram"]["arrows"][0][field] = value
    error = _run_error(job)
    assert error["location"] == location


@pytest.mark.parametrize(
    "field,image,message",
    [
        ("h", {"p": "1"}, "not a variable of node 'v1'"),
        ("phi", [{"coeff": "1", "slots": ["p1"]}], "not a generator of node 'v2'"),
    ],
)
def test_unknown_arrow_entry_exits_two(field, image, message):
    job = emit_example("diagram-power-map")
    job["inputs"]["diagram"]["arrows"][0][field]["zz"] = image
    error = _run_error(job)
    assert error["location"] == "inputs.diagram.arrows[0].%s.zz" % field
    assert error["message"] == message


def test_arrow_between_finite_dimensional_nodes_exits_two():
    job = emit_example("diagram-power-map")
    for node in job["inputs"]["diagram"]["nodes"]:
        node["algebra"] = {"kind": "finite-dimensional", "basis": ["1", "x"],
                           "unit": "1", "products": {"x|x": {"x": "1"}}}
        node["action"] = {g: {"type": "derivation", "images": {}}
                          for g in node["bialgebra"]["generators"]}
    error = _run_error(job)
    assert error["location"] == "inputs.diagram.arrows[0]"
    assert "polynomial-truncated" in error["message"]


def _algebra_action_option_paths(job):
    """Paths in job["inputs"] at or below every target algebra, binary
    action, option block, image degree and compatibility cutoff of a job."""
    inputs = job["inputs"]
    roots = [(key,) for key in ("algebra", "options", "image_degree") if key in inputs]
    if "algebra" in inputs:
        roots.append(("action",))  # the ternary action has no algebra beside it
    for i, node in enumerate(inputs.get("diagram", {}).get("nodes", [])):
        roots += [("diagram", "nodes", i, key) for key in ("algebra", "action") if key in node]
    variant = inputs.get("literal_action_variant", {})
    roots += [
        ("literal_action_variant", key)
        for key in ("action", "compat_cutoff") if key in variant
    ]
    return _paths_below(inputs, roots)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_mistyped_algebra_action_or_option_never_raises(name):
    for path in _algebra_action_option_paths(FIXTURES[name]):
        for value in (None, 0, "x", [], {}):
            job = emit_example(name)
            doc = job["inputs"]
            for part in path[:-1]:
                doc = doc[part]
            doc[path[-1]] = value
            report, code = run(job)
            assert code in (0, 1, 2), (path, value)
            if code == 2:
                # an emptied option block drops the outcome its expect names
                location = report.error["location"]
                assert "inputs" in location or location == "expect", (path, value)


def _name_probe(name):
    """The fixture with one string value or one key under its inputs
    replaced by a name outside every algebra, then by a malformed monomial."""
    for path, value in _walk(FIXTURES[name]["inputs"]):
        for new in ("zz", "p^x"):
            if isinstance(value, str):
                job = emit_example(name)
                _at(job["inputs"], path[:-1])[path[-1]] = new
                yield (path, new), job
            elif isinstance(value, dict):
                for key in value:
                    job = emit_example(name)
                    doc = _at(job["inputs"], path)
                    doc[new] = doc.pop(key)
                    yield (path + (key,), new), job


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_unknown_or_malformed_name_exits_at_a_location(name):
    for mutation, job in _name_probe(name):
        report, code = run(job)
        assert code in (0, 1, 2), mutation
        if code == 2:
            assert report.error["location"] != "inputs", (mutation, report.error)


@pytest.mark.parametrize(
    "table",
    [
        {"elements": [["a"]], "unit": "a", "table": [["a"]]},
        {"elements": ["a"], "unit": "a", "table": [1, 2]},
    ],
    ids=["nested elements", "flat table"],
)
def test_mistyped_monoid_table_exits_two(table):
    job = {"command": "cobar-h2",
           "inputs": {"bialgebra": {"kind": "monoid", "monoid_table": table}}}
    error = _run_error(job)
    assert error["location"].startswith("$.inputs.bialgebra.monoid_table")


@pytest.mark.parametrize(
    "path,key,typo,location",
    [
        (("udf", "exp_of", 0), "coeff", "coef", "$.inputs.udf.exp_of[0]"),
        (("bialgebra", "flags"), "counital", "countal", "$.inputs.bialgebra.flags"),
    ],
    ids=["coeff", "counital"],
)
def test_misspelt_key_exits_two(path, key, typo, location):
    # read as absent, either key would mean its default
    job = emit_example("moyal")
    doc = _at(job["inputs"], path)
    doc[typo] = doc.pop(key)
    error = _run_error(job)
    assert error["location"] == location
    assert "Additional properties are not allowed (%r was unexpected)" % typo in error["message"]


def test_arrow_image_outside_the_target_exits_two():
    job = emit_example("diagram-power-map")
    job["inputs"]["diagram"]["arrows"][0]["h"]["p"] = {"zz": "1"}
    error = _run_error(job)
    assert error == {"location": "inputs.diagram.arrows[0]",
                     "message": "unknown variable 'zz'"}


@pytest.mark.parametrize("pair,name", [("p|zz", "zz"), ("pp", "pp")])
def test_product_pair_outside_the_basis_exits_two(pair, name):
    # such an entry used to be dropped, and the job passed
    job = emit_example("nonsmooth-counterexample")
    job["inputs"]["algebra"]["products"][pair] = {"q": "1"}
    error = _run_error(job)
    assert error == {"location": "inputs.algebra",
                     "message": "unknown basis element %r" % name}


@pytest.mark.parametrize("pair,row", [("1|p", {"q": "1"}), ("p|1", {"p": "2"}),
                                      ("1|1", {})])
def test_declared_unit_product_that_contradicts_the_unit_exits_two(pair, row):
    # the declared product used to be overwritten by the implied one
    job = emit_example("nonsmooth-counterexample")
    job["inputs"]["algebra"]["products"][pair] = row
    left, _, right = pair.partition("|")
    error = _run_error(job)
    assert error == {
        "location": "inputs.algebra.products.%s" % pair,
        "message": "declared product %s*%s contradicts the unit: it must be %s"
        % (left, right, right if left == "1" else left),
    }


def test_declared_unit_product_that_agrees_with_the_unit_runs():
    job = emit_example("nonsmooth-counterexample")
    want = run(job)
    job["inputs"]["algebra"]["products"]["p|1"] = {"p": "1", "q": "0"}
    job["inputs"]["algebra"]["products"]["1|q"] = {"q": "1"}
    got = run(job)
    assert got[1] == want[1] == 0
    assert got[0].to_json()["checks"] == want[0].to_json()["checks"]


def test_bad_ternary_term_coefficient_exits_two_at_its_term():
    job = emit_example("ternary-quantum-plane")
    job["inputs"]["action"]["p1"]["p"][0]["coeff"] = "x"
    error = _run_error(job)
    assert error["location"] == "inputs.action.p1.p[0]"
    assert error["message"].startswith("not an exact scalar: 'x'")


def test_unknown_ternary_image_generator_message():
    job = emit_example("ternary-quantum-plane")
    images = job["inputs"]["action"]["p1"]
    images["zz"] = images.pop("p")
    error = _run_error(job)
    assert error == {"location": "inputs.action", "message": "unknown generator 'zz'"}


@pytest.mark.parametrize(
    "name,path,location",
    [
        ("moyal", ("udf", "exp_of", 0, "slots"), "inputs.udf.exp_of[0]"),
        ("quantum-plane", ("action", "p1", "partials", "p"), "inputs.action.p1"),
        ("diagram-power-map", ("diagram", "arrows", 0, "h", "p"),
         "inputs.diagram.arrows[0]"),
    ],
    ids=["tensor slot", "partials", "arrow image"],
)
def test_malformed_monomial_exits_two_at_its_map(name, path, location):
    job = emit_example(name)
    doc = _at(job["inputs"], path[:-1])
    doc[path[-1]] = ["p^x", "1"] if path[-1] == "slots" else {"p^x": "1"}
    error = _run_error(job)
    assert error == {"location": location, "message": "malformed monomial 'p^x'"}


def test_spellings_of_one_monomial_add_up():
    split = {"p*q": "1", "q*p": "1"}
    twice_pq = {Monomial.parse("p*q"): 2}
    A = build_algebra({"kind": "polynomial-truncated", "variables": ["p", "q"],
                       "degree_cutoff": 4})
    for kind, op_type, field in (("polynomial-primitive", "derivation", "partials"),
                                 ("monoid", "endomorphism", "variables")):
        B = build_bialgebra({"kind": kind, "generators": ["g"]}, 2)
        action = build_action(B, A, {"g": {"type": op_type, field: {"p": split}}})
        op = action.images["g"]
        image = op.coeffs["p"] if op_type == "derivation" else op.var_images["p"]
        assert image.terms == twice_pq, field
    job = emit_example("diagram-power-map")
    job["inputs"]["diagram"]["arrows"][0]["h"]["p"] = split
    D = _build_diagram(job["inputs"]["diagram"], 2)
    assert D.arrows[0].h.images["p"].terms == twice_pq


def _schema_refs(doc):
    if isinstance(doc, dict):
        if "$ref" in doc:
            yield doc["$ref"]
        for value in doc.values():
            yield from _schema_refs(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _schema_refs(value)


def test_schemas_are_valid_and_every_definition_is_used():
    for name in ("jobspec.schema.json", "report.schema.json"):
        jsonschema.Draft7Validator.check_schema(_load_schema(name))
    schema = _load_schema("jobspec.schema.json")
    refs = set(_schema_refs(schema))
    for ref in refs:
        assert ref.startswith("#/"), ref
        target = schema
        for part in ref[2:].split("/"):
            assert isinstance(target, dict) and part in target, ref
            target = target[part]
    assert refs == {"#/definitions/%s" % name for name in schema["definitions"]}
