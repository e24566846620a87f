"""Command-line driver: parse JSON job specs, dispatch, render reports.

One job per invocation.  Exit code 0 means every expectation of the job was
met, 1 means some check disagreed with the expectations, 2 means the job
could not be run at all (malformed JSON, schema violation, bad inputs).

Reports are deterministic: identical job documents (including the seed)
produce byte-identical JSON.  Wall-clock timing therefore appears only in
the text rendering, never in the JSON payload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from importlib import resources

from . import __version__
from .kernel import Monomial, Polynomial, QQ, add_term, as_scalar
from .bialgebra import (
    BialgebraSpec,
    CounitUnavailable,
    CutoffError,
    check_key_space,
    construct_bialgebra,
)
from .operad import (
    FLAVOR_ADDITIVE,
    FLAVOR_MULTIPLICATIVE,
    check_assoc_cases,
    check_equivariance,
    check_unit,
)
from .twist import UDF, make_exp_udf, series_from_orders
from .cobar import check_oracle_agreement
from .deform import (
    AlgebraEndomorphism,
    Derivation,
    FiniteDimensionalAlgebra,
    PolynomialTruncatedAlgebra,
    StarProduct,
    action_from_derivations,
    check_associativity,
    check_module_algebra,
    infinitesimal_cocycle,
    is_hochschild_coboundary,
    wedge_over_A,
)
from .generalized import (
    AlgebraMorphism,
    BialgebraMorphism,
    DiagramArrow,
    DiagramNode,
    DiagramSpec,
    FreePAssAlgebra,
    TernaryAction,
    TwistTriple,
    TwistedTernaryProduct,
    check_partial_assoc,
    diagram_compat_check,
    diagram_twist_check,
    interchange_check,
    morphism_image_check,
    pass_udf,
)
from .fixtures import FIXTURES, SCHEMA_VERSION, emit_example
from .reports import CheckReport

DEFAULTS = {
    "order": 6,
    "degree": 4,
    "cobar_cutoff": 6,
    "seed": 0,
    "search_bound": 2,
    "samples": 100,
}

OUT_DIR_ENV = "UDEFORM_OUT_DIR"


class JobError(Exception):
    """Unrunnable job: schema violation or malformed inputs, with location."""

    def __init__(self, location, message):
        super().__init__("%s: %s" % (location, message))
        self.location = location
        self.message = message


# ---------------------------------------------------------------------------
# parsing the input blocks
# ---------------------------------------------------------------------------

def _load_schema(name):
    text = resources.files("udeform.schemas").joinpath(name).read_text()
    return json.loads(text)


# Job documents are validated in two stages.  The fast check `_conforms`
# reads the shipped schema itself and decides the keywords it uses: `$ref`
# to "#/definitions/NAME" (Draft 7 ignores its siblings), `type` (a name or
# a list of names), `enum` and `const` over strings, `required`,
# `properties`, `additionalProperties` (false or a schema), `items` (one
# schema), `minItems`, `maxItems`, `minimum`, `if`/`then`/`else`, `anyOf`
# and `allOf`; `$schema`, `$id`, `title` and `definitions` are annotations.
# On plain JSON values (dicts with str keys, lists, str, int, float, bool,
# None) its verdict is jsonschema's, with "integer" an int that is no bool.
# Any other value, any other keyword or subschema form, and a
# RecursionError leave it unsure.  When it is unsure, and on every
# rejection, jsonschema decides and words the error, so a valid document
# never imports jsonschema (about 0.1 s per job).
_JOBSPEC_SCHEMA = _load_schema("jobspec.schema.json")
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}
_TYPE_NAMES = frozenset(_JSON_TYPES.values())
# annotations, and the branches that `if` reads
_SKIPPED = frozenset(["$schema", "$id", "title", "definitions", "then", "else"])
_JOBSPEC = None  # the jsonschema validator, built on the first rejection


class _Unsure(Exception):
    """The fast check cannot promise jsonschema's verdict."""


def _is_a(kind, name):
    if name not in _TYPE_NAMES:
        raise _Unsure
    return kind == name or (name == "number" and kind == "integer")


def _definition(ref):
    head, _, name = ref.rpartition("/")
    if head != "#/definitions" or name not in _JOBSPEC_SCHEMA["definitions"]:
        raise _Unsure
    return _JOBSPEC_SCHEMA["definitions"][name]


def _conforms(x, schema):
    """Whether the value x satisfies the subschema, as jsonschema decides;
    raises _Unsure where that verdict is not certain."""
    kind = _JSON_TYPES.get(type(x))
    if kind is None or type(schema) is not dict:
        raise _Unsure
    if kind == "object" and not all(type(k) is str for k in x):
        raise _Unsure
    if "$ref" in schema:
        return _conforms(x, _definition(schema["$ref"]))
    for key, value in schema.items():
        if key in _SKIPPED:
            continue
        if key == "type":
            ok = any(_is_a(kind, name)
                     for name in ([value] if type(value) is str else value))
        elif key in ("enum", "const"):
            options = value if key == "enum" else [value]
            if not all(type(o) is str for o in options):
                raise _Unsure
            ok = kind == "string" and x in options
        elif key == "required":
            ok = kind != "object" or all(k in x for k in value)
        elif key == "properties":
            ok = kind != "object" or all(
                _conforms(x[k], sub) for k, sub in value.items() if k in x)
        elif key == "additionalProperties":
            named = schema.get("properties", {})
            extra = [v for k, v in x.items() if k not in named] if kind == "object" else []
            ok = not extra if value is False else all(_conforms(v, value) for v in extra)
        elif key == "items":
            ok = kind != "array" or all(_conforms(v, value) for v in x)
        elif key == "minItems":
            ok = kind != "array" or len(x) >= value
        elif key == "maxItems":
            ok = kind != "array" or len(x) <= value
        elif key == "minimum":
            ok = kind not in ("integer", "number") or not x < value
        elif key == "if":
            branch = schema.get("then" if _conforms(x, value) else "else")
            ok = branch is None or _conforms(x, branch)
        elif key == "anyOf":
            ok = any(_conforms(x, sub) for sub in value)
        elif key == "allOf":
            ok = all(_conforms(x, sub) for sub in value)
        else:
            raise _Unsure
        if not ok:
            return False
    return True


def _jobspec_validator():
    global _JOBSPEC
    if _JOBSPEC is None:
        import jsonschema

        # Draft 7 counts an integral float such as 2.0 as an integer, but
        # the library takes integer fields as ints (bit_length, range), so
        # only an int that is no bool passes as one.
        _JOBSPEC = jsonschema.validators.extend(
            jsonschema.Draft7Validator,
            type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
                "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)),
        )(_JOBSPEC_SCHEMA)
    return _JOBSPEC


def validate_jobspec(doc):
    try:
        if _conforms(doc, _JOBSPEC_SCHEMA):
            return
    except (_Unsure, RecursionError):
        pass
    try:
        errors = sorted(_jobspec_validator().iter_errors(doc),
                        key=lambda e: list(e.absolute_path))
    except RecursionError:
        raise JobError("$", "document nested too deeply") from None
    if errors:
        e = errors[0]
        loc = "$" + "".join(
            "[%d]" % p if isinstance(p, int) else ".%s" % p for p in e.absolute_path
        )
        raise JobError(loc, e.message)


def _scalar(value, location):
    try:
        return as_scalar(value if not isinstance(value, float) else str(value))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise JobError(location, "not an exact scalar: %r (%s)" % (value, exc))


@contextlib.contextmanager
def _located(location):
    """Turn a KeyError, ValueError or CutoffError raised while the inputs
    become library objects into a JobError at `location` with its message."""
    try:
        yield
    except (KeyError, ValueError, CutoffError) as exc:
        raise JobError(location, exc.args[0])


def _coefficients(doc, location, key=str):
    """A {text: scalar} map as {key(text): Fraction}.  Texts that name the
    same key add up; a zero sum keeps its key, so that the library's name
    checks still see it."""
    out = {}
    for text, value in doc.items():
        with _located(location):
            k = key(text)
        out[k] = out.get(k, QQ(0)) + _scalar(value, location)
    return out


def _tensor_terms_degree(terms):
    deg = 0
    for term in terms:
        for slot in term.get("slots", []):
            try:
                deg = max(deg, Monomial.parse(slot).degree)
            except ValueError:
                deg = max(deg, 1)
    return deg


def _udf_doc_degree(doc):
    if "exp_of" in doc:
        return max(1, _tensor_terms_degree(doc["exp_of"]))
    return max(
        [1] + [_tensor_terms_degree(terms) for terms in doc.get("orders", [])]
    )


def build_bialgebra(doc, order, location="inputs.bialgebra", slot_degree=1):
    cutoff = doc.get("degree_cutoff")
    if cutoff is None:
        cutoff = max(1, order * slot_degree)
    with _located(location):
        spec = BialgebraSpec.from_json(doc)
    with _located(location + ".degree_cutoff"):
        check_key_space(spec, cutoff)
    with _located(location):
        return construct_bialgebra(spec, cutoff)


def parse_tensor(B, arity, terms, location):
    trm = {}
    for i, term in enumerate(terms):
        loc = "%s[%d]" % (location, i)
        slots = term.get("slots", [])
        if len(slots) != arity:
            raise JobError(loc, "expected %d slots, got %d" % (arity, len(slots)))
        with _located(loc):
            keys = tuple(B.check_cutoff(B.parse_key(s)) for s in slots)
        add_term(trm, keys, _scalar(term.get("coeff", "1"), loc))
    return B.tensor(arity, trm)


def parse_tensor_series(B, arity, doc, order, location):
    orders = doc.get("orders")
    if orders is None:
        raise JobError(location, "missing 'orders'")
    if len(orders) > order + 1:
        raise JobError(
            location, "%d coefficient lists exceed order %d" % (len(orders), order)
        )
    coeffs = {
        k: parse_tensor(B, arity, terms, "%s.orders[%d]" % (location, k))
        for k, terms in enumerate(orders)
    }
    return series_from_orders(B, arity, order, coeffs)


def parse_udf(B, doc, order, location="inputs.udf"):
    if "exp_of" in doc:
        r = parse_tensor(B, 2, doc["exp_of"], location + ".exp_of")
        with _located(location):
            return make_exp_udf(r, order)
    with _located(location):
        return UDF(parse_tensor_series(B, 2, doc, order, location))


def build_algebra(doc, location="inputs.algebra"):
    with _located(location):
        if doc["kind"] == "polynomial-truncated":
            return PolynomialTruncatedAlgebra(doc["variables"], doc["degree_cutoff"])
        products = {}
        for pair, row in doc.get("products", {}).items():
            left, _, right = pair.partition("|")
            row = products[(left, right)] = _coefficients(row, location)
            with _located("%s.products.%s" % (location, pair)):
                FiniteDimensionalAlgebra.check_unit_product(
                    doc["basis"], doc["unit"], left, right, row
                )
        return FiniteDimensionalAlgebra(doc["basis"], doc["unit"], products)


def build_action(B, A, doc, location="inputs.action"):
    """The schema guarantees each operator's type and one of its image maps."""
    operators = {}
    for name, op_doc in doc.items():
        loc = "%s.%s" % (location, name)
        derivation = op_doc["type"] == "derivation"
        if derivation and "partials" in op_doc:
            data = {
                var: Polynomial(_coefficients(poly, loc, Monomial.parse))
                for var, poly in op_doc["partials"].items()
            }
        elif not derivation and "variables" in op_doc:
            data = {
                var: A.element(_coefficients(img, loc, Monomial.parse))
                for var, img in op_doc["variables"].items()
            }
        else:
            data = {
                key: _coefficients(img, loc) for key, img in op_doc["images"].items()
            }
        operators[name] = (Derivation if derivation else AlgebraEndomorphism, data)
    with _located(location):
        return action_from_derivations(
            B, A, {name: op(A, data) for name, (op, data) in operators.items()}
        )


# ---------------------------------------------------------------------------
# command handlers: each returns (check reports, outcomes, data)
# ---------------------------------------------------------------------------

def run_verify_twist(inputs, params):
    options = inputs.get("options", {})
    counital = options.get("counital", True)
    symmetric = options.get("symmetric", False)
    order = params["order"]
    slot_degree = _udf_doc_degree(inputs.get("udf", {}))
    B = build_bialgebra(inputs["bialgebra"], order, slot_degree=slot_degree)
    F = parse_udf(B, inputs["udf"], order)
    report = F.check(counital=counital, symmetric=symmetric)
    core = [e.ok for e in report.entries if e.label.startswith("(d")]
    outcomes = {"twist": all(core)}
    if symmetric:
        outcomes["symmetric"] = report.entries[-1].ok
    return [report], outcomes, {}


def run_operad_axioms(inputs, params):
    order = params["order"]
    B = build_bialgebra(inputs["bialgebra"], order, slot_degree=1)
    samples = params["samples"]
    seed = params["seed"]
    reports = []
    ok_assoc = True
    ok_unit = True
    for flavor in (FLAVOR_MULTIPLICATIVE, FLAVOR_ADDITIVE):
        rep = check_assoc_cases(flavor, B, samples=samples, seed=seed)
        ok_assoc = ok_assoc and rep.passed
        reports.append(rep)
        rep = check_unit(flavor, B, samples=samples, seed=seed)
        ok_unit = ok_unit and rep.passed
        reports.append(rep)
    eq_rep = check_equivariance(B, samples=samples, seed=seed)
    reports.append(eq_rep)
    outcomes = {
        "associativity": ok_assoc,
        "unit": ok_unit,
        "equivariance": eq_rep.passed,
    }
    return reports, outcomes, {}


def run_deform(inputs, params):
    order = params["order"]
    degree = params["degree"]
    slot_degree = _udf_doc_degree(inputs.get("udf", {}))
    B = build_bialgebra(inputs["bialgebra"], order, slot_degree=slot_degree)
    A = build_algebra(inputs["algebra"])
    action = build_action(B, A, inputs["action"])
    F = parse_udf(B, inputs["udf"], order)
    rep_mod = check_module_algebra(action)
    star = StarProduct(F, action)
    rep_assoc = check_associativity(star, cutoff=degree)
    table = []
    for k1 in A.basis_keys():
        for k2 in A.basis_keys():
            if A.degree(k1) + A.degree(k2) > min(2, degree):
                continue
            prod = star.star(A.element({k1: QQ(1)}), A.element({k2: QQ(1)}))
            table.append(
                {
                    "left": A.key_str(k1),
                    "right": A.key_str(k2),
                    "product": repr(prod),
                }
            )
    outcomes = {
        "module_algebra": rep_mod.passed,
        "associativity": rep_assoc.passed,
    }
    return [rep_mod, rep_assoc], outcomes, {"product_table": table}


def run_cobar_h2(inputs, params):
    D = params["cobar_cutoff"]
    B = build_bialgebra(inputs["bialgebra"], D, slot_degree=1)
    report, blocks = check_oracle_agreement(B, D)
    data = {
        "blocks": [b.to_json() for b in blocks],
        "total_dimension": sum(b.dim for b in blocks),
    }
    return [report], {"oracle_agreement": report.passed}, data


def run_hochschild(inputs, params):
    order = params["order"]
    slot_degree = _udf_doc_degree(inputs.get("udf", {}))
    B = build_bialgebra(inputs["bialgebra"], order, slot_degree=slot_degree)
    A = build_algebra(inputs["algebra"])
    action = build_action(B, A, inputs["action"])
    F = parse_udf(B, inputs["udf"], order)
    if order < 1:
        raise JobError("parameters.order", "the order-t layer needs order >= 1")
    cutoff = A.cutoff or 0
    with _located("inputs.udf"):
        cochain = infinitesimal_cocycle(F, action, cutoff=cutoff)
    report = CheckReport("infinitesimal layer")
    report.add("order-t cochain is a Hochschild cocycle", True)
    is_zero, zero_witness = cochain.zero_witness(cutoff)
    report.add("order-t cocycle vanishes identically", is_zero, zero_witness)
    g, info = is_hochschild_coboundary(
        A, cochain, search_bound=params["search_bound"]
    )
    report.add(
        "cocycle is a coboundary in the declared search space",
        g is not None,
        None if g is not None else dict(info),
    )
    data = {"search_space": info}
    if g is not None and hasattr(g, "operator"):
        data["coboundary_witness"] = g.operator.describe()
    outcomes = {"cocycle_zero": is_zero, "coboundary": g is not None}
    gens = B.spec.generators
    if (
        isinstance(A, PolynomialTruncatedAlgebra)
        and len(gens) == 2
        and all(isinstance(action.images.get(g2), Derivation) for g2 in gens)
    ):
        wedge = wedge_over_A(action.images[gens[0]], action.images[gens[1]])
        data["wedge_over_A"] = {
            "%s^%s" % pair: repr(poly) for pair, poly in sorted(wedge.items())
        }
        outcomes["wedge_nonzero"] = bool(wedge)
    return [report], outcomes, data


def run_ternary(inputs, params):
    order = params["order"]
    slot_degree = _udf_doc_degree(inputs.get("udf", {}))
    B = build_bialgebra(inputs["bialgebra"], order, slot_degree=slot_degree)
    F = parse_udf(B, inputs["udf"], order)
    pass_doc = inputs["pass_algebra"]
    with _located("inputs.pass_algebra"):
        P = FreePAssAlgebra(
            pass_doc["generators"],
            pass_doc["leaf_cutoff"],
            pass_doc.get("symmetric", True),
        )
    images = {}
    for bgen, img_doc in inputs["action"].items():
        loc = "inputs.action.%s" % bgen
        gen_images = images[bgen] = {}
        for pgen, terms in img_doc.items():
            coords = {}
            for i, term in enumerate(terms):
                term_loc = "%s.%s[%d]" % (loc, pgen, i)
                with _located(term_loc):
                    tree = P.parse_tree(term["tree"])
                add_term(coords, tree, _scalar(term.get("coeff", "1"), term_loc))
            gen_images[pgen] = P.element(coords)
    with _located("inputs.action"):
        action = TernaryAction(B, P, images)
    report = CheckReport("ternary twist")
    try:
        H = pass_udf(F)
        report.add("induced twist agrees between the two composites", True)
        consistent = True
    except ValueError as exc:
        report.add(
            "induced twist agrees between the two composites",
            False,
            {"error": str(exc)},
        )
        H = None
        consistent = False
    reports = [report]
    outcomes = {"pass_consistency": consistent}
    data = {
        "dimensions": {
            str(n): P.dimension(n) for n in range(1, pass_doc["leaf_cutoff"] + 1, 2)
        }
    }
    if H is not None:
        prod = TwistedTernaryProduct(H, action)
        rep = check_partial_assoc(prod, cutoff=pass_doc["leaf_cutoff"], order=order)
        reports.append(rep)
        outcomes["partial_assoc"] = rep.passed
    return reports, outcomes, data


def run_interchange(inputs, params):
    order = params["order"]
    deg = max(
        _tensor_terms_degree(sum(inputs["F1"].get("orders", []), [])),
        _tensor_terms_degree(sum(inputs["F2"].get("orders", []), [])),
        1,
    )
    B = build_bialgebra(inputs["bialgebra"], order, slot_degree=2 * deg)
    s1 = parse_tensor_series(B, 2, inputs["F1"], order, "inputs.F1")
    s2 = parse_tensor_series(B, 2, inputs["F2"], order, "inputs.F2")
    report = interchange_check(s1, s2)
    return [report], {"interchange": report.passed}, {}


def _build_diagram(doc, order, location="inputs.diagram"):
    nodes = []
    node_map = {}
    for i, node_doc in enumerate(doc.get("nodes", [])):
        loc = "%s.nodes[%d]" % (location, i)
        name = node_doc["name"]
        B = build_bialgebra(node_doc["bialgebra"], order, location=loc + ".bialgebra")
        A = build_algebra(node_doc["algebra"], location=loc + ".algebra")
        action = build_action(B, A, node_doc["action"], location=loc + ".action")
        node = DiagramNode(name, B, A, action)
        nodes.append(node)
        node_map[name] = node
    arrows = []
    for i, arrow_doc in enumerate(doc.get("arrows", [])):
        loc = "%s.arrows[%d]" % (location, i)
        try:
            src, dst = (node_map[arrow_doc[end]] for end in ("from", "to"))
        except KeyError as exc:
            raise JobError(loc, "unknown node %r" % (exc.args[0],))
        for node in (src, dst):
            if not isinstance(node.algebra, PolynomialTruncatedAlgebra):
                raise JobError(loc, "node %r: an arrow needs a polynomial-truncated "
                                    "algebra" % (node.name,))
        for field, names, what in (
            ("h", src.algebra.variables, "variable of node %r" % (src.name,)),
            ("phi", dst.bialgebra.spec.generators, "generator of node %r" % (dst.name,)),
        ):
            for name in arrow_doc[field]:
                if name not in names:
                    raise JobError("%s.%s.%s" % (loc, field, name), "not a %s" % (what,))
        with _located(loc):
            h = AlgebraMorphism(
                src.algebra,
                dst.algebra,
                {
                    var: dst.algebra.element(_coefficients(img, loc, Monomial.parse))
                    for var, img in arrow_doc["h"].items()
                },
            )
            phi = BialgebraMorphism(
                dst.bialgebra,
                src.bialgebra,
                {
                    gen: parse_tensor(src.bialgebra, 1, terms, loc + ".phi")
                    for gen, terms in arrow_doc["phi"].items()
                },
            )
        arrows.append(DiagramArrow(arrow_doc["from"], arrow_doc["to"], h, phi))
    with _located(location):
        return DiagramSpec(nodes, arrows)


def run_diagram(inputs, params):
    order = params["order"]
    D = _build_diagram(inputs["diagram"], order)
    reports = []
    rep_compat = diagram_compat_check(D, cutoff=params["degree"])
    reports.append(rep_compat)
    outcomes = {"compat": rep_compat.passed}
    data = {}
    if "triple" in inputs:
        if not D.arrows:
            raise JobError("inputs.diagram.arrows", "a twisting triple needs an arrow")
        first_arrow = D.arrows[0]
        B1 = D.nodes[first_arrow.src].bialgebra
        tdoc = inputs["triple"]
        F1 = parse_udf(B1, tdoc["F1"], order, "inputs.triple.F1")
        B2 = D.nodes[first_arrow.dst].bialgebra
        F2 = parse_udf(B2, tdoc["F2"], order, "inputs.triple.F2")
        G = parse_tensor_series(B1, 1, tdoc["G"], order, "inputs.triple.G")
        triple = TwistTriple(F1, G, F2)
        rep_triple = diagram_twist_check(D, triple)
        reports.append(rep_triple)
        outcomes["triple"] = rep_triple.passed
        data["image_check"] = morphism_image_check(
            D, triple, degree=inputs.get("image_degree", params["degree"])
        )
        data["image_check"]["degree"] = inputs.get("image_degree", params["degree"])
    if "literal_action_variant" in inputs:
        var_doc = inputs["literal_action_variant"]
        node_name = var_doc["node"]
        if node_name not in D.nodes:
            raise JobError(
                "inputs.literal_action_variant.node", "unknown node %r" % (node_name,)
            )
        base = D.nodes[node_name]
        variant_action = build_action(
            base.bialgebra,
            base.algebra,
            var_doc["action"],
            location="inputs.literal_action_variant.action",
        )
        variant_nodes = [
            n if n.name != node_name
            else DiagramNode(n.name, base.bialgebra, base.algebra, variant_action)
            for n in D.nodes.values()
        ]
        variant = DiagramSpec(variant_nodes, D.arrows)
        rep_var = diagram_compat_check(
            variant, cutoff=var_doc.get("compat_cutoff", params["degree"])
        )
        rep_var.name = "literal-action variant compatibility"
        reports.append(rep_var)
        outcomes["literal_variant_compat"] = rep_var.passed
    return reports, outcomes, data


HANDLERS = {
    "verify-twist": run_verify_twist,
    "operad-axioms": run_operad_axioms,
    "deform": run_deform,
    "cobar-h2": run_cobar_h2,
    "hochschild": run_hochschild,
    "ternary": run_ternary,
    "interchange": run_interchange,
    "diagram": run_diagram,
}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class Report:
    def __init__(self, command, parameters, status, checks, data, error=None):
        self.command = command
        self.parameters = parameters
        self.status = status
        self.checks = checks
        self.data = data
        self.error = error
        self.elapsed = None

    def to_json(self):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": self.command,
            "status": self.status,
            "parameters": self.parameters,
            "checks": [c.to_json() for c in self.checks],
            "data": self.data,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def render_text(self):
        lines = [
            "udeform %s | command: %s | status: %s"
            % (__version__, self.command, self.status.upper())
        ]
        if self.parameters:
            lines.append(
                "parameters: "
                + ", ".join("%s=%s" % kv for kv in sorted(self.parameters.items()))
            )
        if self.error is not None:
            lines.append("error at %s: %s" % (self.error["location"], self.error["message"]))
        for c in self.checks:
            lines.append(c.render_text())
        for key in sorted(self.data):
            if key == "product_table":
                lines.append("product table:")
                rows = self.data[key]
                width_l = max((len(r["left"]) for r in rows), default=1)
                width_r = max((len(r["right"]) for r in rows), default=1)
                for r in rows:
                    lines.append(
                        "  %-*s * %-*s = %s"
                        % (width_l, r["left"], width_r, r["right"], r["product"])
                    )
                continue
            lines.append("%s: %s" % (key, json.dumps(self.data[key], sort_keys=True)))
        if self.elapsed is not None:
            lines.append("elapsed: %.2fs" % self.elapsed)
        return "\n".join(lines)


def run(job):
    """Execute one JobSpec document; returns (Report, exit_code)."""
    t0 = time.time()
    try:
        validate_jobspec(job)
        command = job["command"]
        params = dict(DEFAULTS)
        params.update(job.get("parameters", {}))
        checks, outcomes, data = HANDLERS[command](job.get("inputs", {}), params)
        expect = job.get("expect", {})
        unknown = set(expect) - set(outcomes)
        if unknown:
            raise JobError("expect", "unknown outcome keys: %s" % sorted(unknown))
        mismatches = {
            key: {"expected": expect.get(key, True), "got": got}
            for key, got in sorted(outcomes.items())
            if got != expect.get(key, True)
        }
        status = "pass" if not mismatches else "fail"
        data = dict(data)
        data["outcomes"] = {k: v for k, v in sorted(outcomes.items())}
        if mismatches:
            data["mismatches"] = mismatches
        report = Report(command, params, status, checks, data)
        report.elapsed = time.time() - t0
        return report, 0 if status == "pass" else 1
    except JobError as exc:
        error = {"location": exc.location, "message": exc.message}
    except (CutoffError, CounitUnavailable, ValueError) as exc:
        # the inputs ask for more than they declare (a cutoff, a counit) or
        # hold a value the library rejects: unrunnable, not a failed check
        message = "%s: %s" % (type(exc).__name__, exc)
        error = {"location": "inputs", "message": message}
    command = job.get("command", "?") if isinstance(job, dict) else "?"
    report = Report(command, {}, "error", [], {}, error=error)
    report.elapsed = time.time() - t0
    return report, 2


def _resolve_out(path):
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write(path, text):
    """Write `text` to the output path; 0, or 2 with a message on stderr if
    the file cannot be written."""
    try:
        with open(_resolve_out(path), "w") as fh:
            fh.write(text)
    except OSError as exc:
        print("error: cannot write output file: %s" % exc, file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="udeform",
        description="exact verification of bialgebra twists and the "
        "deformations they generate",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    runp = sub.add_parser("run", help="run a JSON job specification")
    runp.add_argument("--job", required=True, help="path to the JobSpec JSON file")
    runp.add_argument("--format", choices=["text", "json"], default="text")
    runp.add_argument("--order", type=int, help="truncation order N")
    runp.add_argument("--degree", type=int, help="degree cutoff d")
    runp.add_argument("--cobar-cutoff", type=int, help="internal-degree cutoff D")
    runp.add_argument("--seed", type=int, help="seed for sampled checks")
    runp.add_argument("--out", help="write the report here instead of stdout")

    emitp = sub.add_parser("emit", help="write a ready-made example JobSpec")
    emitp.add_argument("name", help="one of: %s" % ", ".join(sorted(FIXTURES)))
    emitp.add_argument("--out", help="write the JobSpec here instead of stdout")

    args = parser.parse_args(argv)

    if args.mode == "emit":
        try:
            doc = emit_example(args.name)
        except KeyError as exc:
            print("error: %s" % exc.args[0], file=sys.stderr)
            return 2
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.out:
            return _write(args.out, text)
        sys.stdout.write(text)
        return 0

    try:
        with open(args.job) as fh:
            job = json.load(fh)
    except OSError as exc:
        print("error: cannot read job file: %s" % exc, file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print("error: malformed JSON at line %d: %s" % (exc.lineno, exc.msg),
              file=sys.stderr)
        return 2

    overrides = {
        "order": args.order,
        "degree": args.degree,
        "cobar_cutoff": args.cobar_cutoff,
        "seed": args.seed,
    }
    # a job or parameters that is no object is left for run's validation
    params = job.setdefault("parameters", {}) if isinstance(job, dict) else None
    if isinstance(params, dict):
        for key, value in overrides.items():
            if value is not None:
                params[key] = value

    report, code = run(job)
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    else:
        text = report.render_text() + "\n"
    if args.out:
        return _write(args.out, text) or code
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
