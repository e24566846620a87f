"""The job documents of the three benchmark workloads.

Every document is built here, from the benchmark's own files, so a change to
the shipped fixtures of the library does not change what is measured.  Only
the operad-axiom jobs sample at random; their job seeds are derived from the
benchmark seed, and every other document is the same for every seed.
"""

from __future__ import annotations

import random

SCHEMA_VERSION = "1"

ANTISYMMETRIC_UNIT = [
    {"coeff": "1", "slots": ["p1", "p2"]},
    {"coeff": "-1", "slots": ["p2", "p1"]},
]

# Euler derivations p d/dp and q d/dq: the quantum-plane action.
EULER_ACTION = {
    "p1": {"type": "derivation", "partials": {"p": {"p": "1"}}},
    "p2": {"type": "derivation", "partials": {"q": {"q": "1"}}},
}

# Constant-coefficient partials d/dp and d/dq: the Moyal action.
MOYAL_ACTION = {
    "p1": {"type": "derivation", "partials": {"p": {"1": "1"}}},
    "p2": {"type": "derivation", "partials": {"q": {"1": "1"}}},
}


def bialgebra(kind, generators, cutoff=None):
    doc = {"kind": kind, "generators": list(generators), "flags": {"counital": True}}
    if cutoff is not None:
        doc["degree_cutoff"] = cutoff
    return doc


def job(command, inputs, parameters, expect=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
    }
    if expect is not None:
        doc["expect"] = expect
    return doc


def plane(cutoff):
    return {"kind": "polynomial-truncated", "variables": ["p", "q"],
            "degree_cutoff": cutoff}


def cobar_job(kind, generators, cutoff):
    return job("cobar-h2", {"bialgebra": bialgebra(kind, generators)},
               {"cobar_cutoff": cutoff}, {"oracle_agreement": True})


def deform_job(action, exponent, cutoff, order):
    return job(
        "deform",
        {
            "bialgebra": bialgebra("polynomial-primitive", ["p1", "p2"]),
            "algebra": plane(cutoff),
            "action": action,
            "udf": {"exp_of": exponent},
        },
        {"order": order, "degree": cutoff},
        {"module_algebra": True, "associativity": True},
    )


def antisymmetric_exponent(generators):
    """r = 1/2 sum_{i<j} (g_i@g_j - g_j@g_i) over commuting primitives."""
    out = []
    for i, a in enumerate(generators):
        for b in generators[i + 1:]:
            out.append({"coeff": "1/2", "slots": [a, b]})
            out.append({"coeff": "-1/2", "slots": [b, a]})
    return out


def twist_job(generators, order):
    return job(
        "verify-twist",
        {
            "bialgebra": bialgebra("polynomial-primitive", generators),
            "udf": {"exp_of": antisymmetric_exponent(generators)},
            "options": {"counital": True, "symmetric": True},
        },
        {"order": order},
        {"twist": True, "symmetric": False},
    )


def operad_job(kind, generators, samples, seed, cocommutative):
    return job(
        "operad-axioms",
        {"bialgebra": bialgebra(kind, generators)},
        {"samples": samples, "seed": seed},
        {"associativity": True, "unit": True, "equivariance": cocommutative},
    )


def ternary_job(generators, leaf_cutoff, symmetric):
    return job(
        "ternary",
        {
            "bialgebra": bialgebra("polynomial-primitive", ["p1", "p2"], cutoff=4),
            "pass_algebra": {"generators": generators, "leaf_cutoff": leaf_cutoff,
                             "symmetric": symmetric},
            "udf": {"exp_of": ANTISYMMETRIC_UNIT},
            "action": {
                "p1": {"p": [{"coeff": "1", "tree": ["p", "p", "p"]}]},
                "p2": {"q": [{"coeff": "1", "tree": ["q", "q", "q"]}]},
            },
        },
        {"order": 1},
        {"pass_consistency": True, "partial_assoc": True},
    )


def diagram_power_map():
    """Power map h(p)=p^2, h(q)=q^3 between two deformed planes."""
    def node(name, cutoff, action):
        return {
            "name": name,
            "bialgebra": bialgebra("polynomial-primitive", ["p1", "p2"], cutoff=4),
            "algebra": plane(cutoff),
            "action": action,
        }

    def scaled_euler(p_coeff, q_coeff, p_mono="p", q_mono="q"):
        return {
            "p1": {"type": "derivation", "partials": {"p": {p_mono: p_coeff}}},
            "p2": {"type": "derivation", "partials": {"q": {q_mono: q_coeff}}},
        }

    return job(
        "diagram",
        {
            "m": 2,
            "n": 3,
            "image_degree": 2,
            "diagram": {
                "nodes": [node("v1", 2, EULER_ACTION),
                          node("v2", 10, scaled_euler("1/2", "1/3"))],
                "arrows": [{
                    "from": "v1",
                    "to": "v2",
                    "h": {"p": {"p^2": "1"}, "q": {"q^3": "1"}},
                    "phi": {"p1": [{"coeff": "1", "slots": ["p1"]}],
                            "p2": [{"coeff": "1", "slots": ["p2"]}]},
                }],
            },
            "triple": {
                "F1": {"exp_of": ANTISYMMETRIC_UNIT},
                "G": {"orders": [[{"coeff": "1", "slots": ["1"]}]]},
                "F2": {"exp_of": ANTISYMMETRIC_UNIT},
            },
            "literal_action_variant": {
                "node": "v2",
                "action": scaled_euler("1/2", "1/3", "p^2", "q^3"),
                "compat_cutoff": 4,
            },
        },
        {"order": 4},
        {"compat": True, "triple": True, "literal_variant_compat": False},
    )


def interchange_grouplike():
    return job(
        "interchange",
        {
            "bialgebra": bialgebra("monoid", ["a", "b", "c", "d"]),
            "F1": {"orders": [[{"coeff": "1", "slots": ["a", "b"]}]]},
            "F2": {"orders": [[{"coeff": "1", "slots": ["c", "d"]}]]},
        },
        {},
        {"interchange": True},
    )


def hochschild_job():
    return job(
        "hochschild",
        {
            "bialgebra": bialgebra("polynomial-primitive", ["p1", "p2"]),
            "algebra": plane(4),
            "action": EULER_ACTION,
            "udf": {"exp_of": ANTISYMMETRIC_UNIT},
        },
        {"order": 6, "search_bound": 3},
        {"cocycle_zero": False, "coboundary": False, "wedge_nonzero": True},
    )


class Job:
    """One job of a workload: its document and what the oracles need."""

    def __init__(self, name, doc, oracle, **facts):
        self.name = name
        self.doc = doc
        self.oracle = oracle
        self.facts = facts


def moduli(seed):
    return [
        Job("tensor-D5", cobar_job("tensor-primitive", ["x", "y"], 5),
            "tensor_h2", generators=2, cutoff=5),
        Job("tensor-D6", cobar_job("tensor-primitive", ["x", "y"], 6),
            "tensor_h2", generators=2, cutoff=6),
        Job("tensor-D7", cobar_job("tensor-primitive", ["x", "y"], 7),
            "tensor_h2", generators=2, cutoff=7),
        Job("poly3-D8", cobar_job("polynomial-primitive", ["x", "y", "z"], 8),
            "polynomial_h2", generators=3, cutoff=8),
        Job("matrix-D4", cobar_job("matrix-coordinate", ["a", "b", "c", "d"], 4),
            "cosemisimple_h2"),
        Job("monoid-D8", cobar_job("monoid", ["a", "b"], 8), "cosemisimple_h2"),
    ]


def star(seed):
    moyal_exponent = antisymmetric_exponent(["p1", "p2"])
    return [
        Job("qplane-d4", deform_job(EULER_ACTION, ANTISYMMETRIC_UNIT, 4, 6),
            "quantum_plane", cutoff=4, order=6),
        Job("qplane-d5", deform_job(EULER_ACTION, ANTISYMMETRIC_UNIT, 5, 6),
            "quantum_plane", cutoff=5, order=6),
        Job("moyal-d5", deform_job(MOYAL_ACTION, moyal_exponent, 5, 6),
            "moyal", cutoff=5, order=6),
        Job("moyal-d6", deform_job(MOYAL_ACTION, moyal_exponent, 6, 6),
            "moyal", cutoff=6, order=6),
        Job("hochschild-qplane-d4", hochschild_job(), "hochschild"),
    ]


def twist(seed):
    rng = random.Random(seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(3)]
    return [
        Job("twist2-N14", twist_job(["p1", "p2"], 14), "twist"),
        Job("twist3-N7", twist_job(["p1", "p2", "p3"], 7), "twist"),
        Job("operad-poly", operad_job("polynomial-primitive", ["x", "y"], 200,
                                      seeds[0], True),
            "operad", cocommutative=True),
        Job("operad-tensor", operad_job("tensor-primitive", ["x", "y"], 200,
                                        seeds[1], True),
            "operad", cocommutative=True),
        Job("operad-matrix", operad_job("matrix-coordinate", ["a", "b", "c", "d"],
                                        4, seeds[2], False),
            "operad", cocommutative=False),
        Job("ternary-planar-5", ternary_job(["p", "q"], 5, False),
            "ternary", generators=2, leaves=5, symmetric=False),
        Job("ternary-sym-7", ternary_job(["p", "q", "r"], 7, True),
            "ternary", generators=3, leaves=7, symmetric=True),
        Job("diagram-power-map", diagram_power_map(), "expect_only"),
        Job("interchange-grouplike", interchange_grouplike(), "expect_only"),
    ]


WORKLOADS = {"moduli": moduli, "star": star, "twist": twist}

# The largest job of each workload; its time is the top_rung_s metric.
TOP_RUNG = {"moduli": "tensor-D7", "star": "moyal-d6", "twist": "twist3-N7"}


if __name__ == "__main__":
    # python3 bench/jobs.py [SEED]: print every job document, one per line.
    import json
    import sys

    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    for workload, make in WORKLOADS.items():
        for j in make(seed):
            print(json.dumps({"workload": workload, "job": j.name, "doc": j.doc},
                             sort_keys=True))
