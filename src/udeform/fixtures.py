"""Ready-to-run job specifications for the worked examples.

Each fixture is a complete JobSpec document; the comment field describes the
mathematical content.  Fixtures whose point is a negative verdict carry an
``expect`` block so that "the check fails exactly as predicted" renders as a
passing job.
"""

from __future__ import annotations

import copy

SCHEMA_VERSION = "1"


def _bialg_poly(gens, cutoff=None):
    doc = {"kind": "polynomial-primitive", "generators": gens,
           "flags": {"counital": True}}
    if cutoff is not None:
        doc["degree_cutoff"] = cutoff
    return doc


_MOYAL_EXPONENT = [
    {"coeff": "1/2", "slots": ["p1", "p2"]},
    {"coeff": "-1/2", "slots": ["p2", "p1"]},
]

_EULER_EXPONENT = [
    {"coeff": "1", "slots": ["p1", "p2"]},
    {"coeff": "-1", "slots": ["p2", "p1"]},
]


FIXTURES = {
    "moyal": {
        "schema_version": SCHEMA_VERSION,
        "comment": "antisymmetric exponential twist on two commuting "
                   "primitives; the classical star-product deformation",
        "command": "verify-twist",
        "inputs": {
            "bialgebra": _bialg_poly(["p1", "p2"]),
            "udf": {"exp_of": _MOYAL_EXPONENT},
            "options": {"counital": True, "symmetric": True},
        },
        "parameters": {"order": 6},
        "expect": {"twist": True, "symmetric": False},
    },
    "quantum-plane": {
        "schema_version": SCHEMA_VERSION,
        "comment": "Euler-derivation action of the antisymmetric exponential "
                   "twist on k[p,q]; deformed relation p*q = e^(2t) q*p",
        "command": "deform",
        "inputs": {
            "bialgebra": _bialg_poly(["p1", "p2"]),
            "algebra": {"kind": "polynomial-truncated",
                        "variables": ["p", "q"], "degree_cutoff": 4},
            "action": {
                "p1": {"type": "derivation", "partials": {"p": {"p": "1"}}},
                "p2": {"type": "derivation", "partials": {"q": {"q": "1"}}},
            },
            "udf": {"exp_of": _EULER_EXPONENT},
        },
        "parameters": {"order": 6, "degree": 4},
    },
    "exp-pp": {
        "schema_version": SCHEMA_VERSION,
        "comment": "symmetric exponential twist exp(t p@p) on one primitive; "
                   "passes the symmetric checker and is additively gauge-trivial",
        "command": "verify-twist",
        "inputs": {
            "bialgebra": _bialg_poly(["p"]),
            "udf": {"exp_of": [{"coeff": "1", "slots": ["p", "p"]}]},
            "options": {"counital": True, "symmetric": True},
        },
        "parameters": {"order": 6},
        "expect": {"twist": True, "symmetric": True},
    },
    "ternary-quantum-plane": {
        "schema_version": SCHEMA_VERSION,
        "comment": "arity-3 twist induced by the antisymmetric exponential, "
                   "acting on the free symmetric partially associative "
                   "ternary algebra by cubing derivations",
        "command": "ternary",
        "inputs": {
            "bialgebra": _bialg_poly(["p1", "p2"], cutoff=4),
            "pass_algebra": {"generators": ["p", "q"], "leaf_cutoff": 7,
                             "symmetric": True},
            "udf": {"exp_of": _EULER_EXPONENT},
            "action": {
                "p1": {"p": [{"coeff": "1", "tree": ["p", "p", "p"]}]},
                "p2": {"q": [{"coeff": "1", "tree": ["q", "q", "q"]}]},
            },
        },
        "parameters": {"order": 1},
    },
    "interchange-grouplike": {
        "schema_version": SCHEMA_VERSION,
        "comment": "grouplike pair (a@b, c@d) in a free commutative monoid "
                   "bialgebra solves the middle-interchange coherence identity",
        "command": "interchange",
        "inputs": {
            "bialgebra": {"kind": "monoid", "generators": ["a", "b", "c", "d"],
                          "flags": {"counital": True}},
            "F1": {"orders": [[{"coeff": "1", "slots": ["a", "b"]}]]},
            "F2": {"orders": [[{"coeff": "1", "slots": ["c", "d"]}]]},
        },
        "parameters": {},
        "expect": {"interchange": True},
    },
    "diagram-power-map": {
        "schema_version": SCHEMA_VERSION,
        "comment": "power map h(p)=p^m, h(q)=q^n between two deformed planes; "
                   "the rescaled Euler action (p/m) d/dp satisfies the arrow "
                   "compatibility, the unrescaled (p^m/m) d/dp variant fails it",
        "command": "diagram",
        "inputs": {
            "m": 2,
            "n": 3,
            "image_degree": 2,
            "diagram": {
                "nodes": [
                    {
                        "name": "v1",
                        "bialgebra": _bialg_poly(["p1", "p2"], cutoff=4),
                        "algebra": {"kind": "polynomial-truncated",
                                    "variables": ["p", "q"], "degree_cutoff": 2},
                        "action": {
                            "p1": {"type": "derivation", "partials": {"p": {"p": "1"}}},
                            "p2": {"type": "derivation", "partials": {"q": {"q": "1"}}},
                        },
                    },
                    {
                        "name": "v2",
                        "bialgebra": _bialg_poly(["p1", "p2"], cutoff=4),
                        "algebra": {"kind": "polynomial-truncated",
                                    "variables": ["p", "q"], "degree_cutoff": 10},
                        "action": {
                            "p1": {"type": "derivation", "partials": {"p": {"p": "1/2"}}},
                            "p2": {"type": "derivation", "partials": {"q": {"q": "1/3"}}},
                        },
                    },
                ],
                "arrows": [
                    {
                        "from": "v1",
                        "to": "v2",
                        "h": {"p": {"p^2": "1"}, "q": {"q^3": "1"}},
                        "phi": {"p1": [{"coeff": "1", "slots": ["p1"]}],
                                "p2": [{"coeff": "1", "slots": ["p2"]}]},
                    }
                ],
            },
            "triple": {
                "F1": {"exp_of": _EULER_EXPONENT},
                "G": {"orders": [[{"coeff": "1", "slots": ["1"]}]]},
                "F2": {"exp_of": _EULER_EXPONENT},
            },
            "literal_action_variant": {
                "node": "v2",
                "action": {
                    "p1": {"type": "derivation", "partials": {"p": {"p^2": "1/2"}}},
                    "p2": {"type": "derivation", "partials": {"q": {"q^3": "1/3"}}},
                },
                "compat_cutoff": 4,
            },
        },
        "parameters": {"order": 4},
        "expect": {"literal_variant_compat": False},
    },
    "nonsmooth-counterexample": {
        "schema_version": SCHEMA_VERSION,
        "comment": "square-zero three-dimensional quotient of the plane with "
                   "the Euler derivations: the wedge over A is nonzero but the "
                   "induced infinitesimal deformation vanishes identically",
        "command": "hochschild",
        "inputs": {
            "bialgebra": _bialg_poly(["p1", "p2"]),
            "algebra": {
                "kind": "finite-dimensional",
                "basis": ["1", "p", "q"],
                "unit": "1",
                "products": {"p|p": {}, "p|q": {}, "q|p": {}, "q|q": {}},
            },
            "action": {
                "p1": {"type": "derivation", "images": {"p": {"p": "1"}}},
                "p2": {"type": "derivation", "images": {"q": {"q": "1"}}},
            },
            "udf": {"exp_of": _MOYAL_EXPONENT},
        },
        "parameters": {"order": 2, "search_bound": 2},
        "expect": {"cocycle_zero": True, "coboundary": True},
    },
    "trivial-pair": {
        "schema_version": SCHEMA_VERSION,
        "comment": "the trivial pair (1@1, 1@1): every coherence identity "
                   "degenerates to an equality of units",
        "command": "interchange",
        "inputs": {
            "bialgebra": _bialg_poly(["p1", "p2"]),
            "F1": {"orders": [[{"coeff": "1", "slots": ["1", "1"]}]]},
            "F2": {"orders": [[{"coeff": "1", "slots": ["1", "1"]}]]},
        },
        "parameters": {},
        "expect": {"interchange": True},
    },
}


def emit_example(name):
    if name not in FIXTURES:
        raise KeyError(
            "unknown fixture %r (known: %s)" % (name, ", ".join(sorted(FIXTURES)))
        )
    return copy.deepcopy(FIXTURES[name])
