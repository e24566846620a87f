"""Tests of the benchmark's independent oracles (no udeform import)."""

from fractions import Fraction
from itertools import product
from math import factorial

import jobs
import oracles


def test_witt_dimensions_on_two_generators():
    assert [oracles.witt_dimension(2, n) for n in range(1, 8)] == [2, 1, 2, 3, 6, 9, 18]
    assert [oracles.witt_dimension(3, n) for n in range(1, 5)] == [3, 3, 8, 18]


def test_mobius():
    assert [oracles.mobius(n) for n in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_exterior_square_of_free_lie_algebra():
    assert oracles.exterior_square_dims(2, 7) == [0, 0, 1, 2, 4, 8, 16, 30]


def test_polynomial_h2_is_lambda2_in_degree_two():
    assert oracles.polynomial_h2_dims(3, 8) == [0, 0, 3, 0, 0, 0, 0, 0, 0]
    assert oracles.polynomial_h2_dims(2, 3) == [0, 0, 1, 0]


def test_associativity_triples_match_enumeration():
    for d in range(0, 7):
        monos = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
        count = sum(1 for x, y, z in product(monos, repeat=3)
                    if sum(x) + sum(y) + sum(z) <= d)
        assert count == oracles.associativity_triples(d)
    assert [oracles.associativity_triples(d) for d in (4, 5, 6)] == [210, 462, 924]


def test_ternary_dimensions():
    assert oracles.ternary_dimensions(2, 5, False) == {1: 2, 3: 8, 5: 64}
    assert oracles.ternary_dimensions(3, 7, True) == {1: 3, 3: 10, 5: 0, 7: 0}


def test_quantum_plane_commutation():
    t = oracles.quantum_plane_product((1, 0), (0, 1), 3)
    assert t == {(n, (1, 1)): Fraction(1, factorial(n)) for n in range(4)}
    back = oracles.quantum_plane_product((0, 1), (1, 0), 3)
    assert back == {(n, (1, 1)): (-1) ** n * c for (n, _), c in t.items()}


def test_moyal_products_by_hand():
    pq = oracles.moyal_product((1, 0), (0, 1), 6)
    qp = oracles.moyal_product((0, 1), (1, 0), 6)
    assert pq == {(0, (1, 1)): 1, (1, (0, 0)): Fraction(1, 2)}
    assert qp == {(0, (1, 1)): 1, (1, (0, 0)): Fraction(-1, 2)}
    # p^2 * q^2 = p^2 q^2 + 2t pq + t^2/2
    assert oracles.moyal_product((2, 0), (0, 2), 6) == {
        (0, (2, 2)): 1, (1, (1, 1)): 2, (2, (0, 0)): Fraction(1, 2)}


def test_parse_series_in_the_report_format():
    text = "p*q + (p*q)*t + (1/2*p*q)*t^2 + (-1/6*p*q)*t^3"
    assert oracles.parse_series(text) == {
        (0, (1, 1)): 1, (1, (1, 1)): 1, (2, (1, 1)): Fraction(1, 2),
        (3, (1, 1)): Fraction(-1, 6)}
    assert oracles.parse_series("0") == {}
    assert oracles.parse_series("(-p*q)*t") == {(1, (1, 1)): -1}
    assert oracles.parse_series("p^2 - 1/2*q + 3 + (1/2)*t") == {
        (0, (2, 0)): 1, (0, (0, 1)): Fraction(-1, 2), (0, (0, 0)): 3,
        (1, (0, 0)): Fraction(1, 2)}


def _cobar_report(dims):
    return {"status": "pass", "data": {
        "blocks": [{"degree": d, "dim": n, "representatives": ["r"] * n}
                   for d, n in enumerate(dims)],
        "total_dimension": sum(dims)}}


def test_h2_oracles_accept_the_closed_form_and_reject_others():
    job = jobs.moduli(0)[2]
    assert job.name == "tensor-D7"
    good = _cobar_report([0, 0, 1, 2, 4, 8, 16, 30])
    assert oracles.check(job, good) == []
    assert oracles.check(job, _cobar_report([0, 0, 1, 2, 4, 8, 16, 29]))
    matrix = next(j for j in jobs.moduli(0) if j.name == "matrix-D4")
    assert oracles.check(matrix, {"status": "pass", "data": {
        "blocks": [{"degree": None, "dim": 0, "representatives": []}],
        "total_dimension": 0}}) == []
    assert oracles.check(matrix, {"status": "pass", "data": {
        "blocks": [{"degree": None, "dim": 1, "representatives": ["r"]}],
        "total_dimension": 1}})


def _star_report(product, cutoff, order, triples, wrong=None):
    rows = []
    for f in oracles.plane_monomials(2):
        for g in oracles.plane_monomials(2):
            if sum(f) + sum(g) > 2:
                continue
            terms = product(f, g, order)
            if (f, g) == wrong:
                key = next(iter(terms))
                terms = dict(terms)
                terms[key] += 1
            rows.append({"left": _mono(f), "right": _mono(g),
                         "product": _series(terms)})
    return {"status": "pass",
            "checks": [{"name": "assoc", "passed": True, "entries": [
                {"label": "associativity on %d basis triples" % triples,
                 "ok": True}]}],
            "data": {"product_table": rows}}


def _mono(exps):
    bits = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip("pq", exps) if e]
    return "*".join(bits) or "1"


def _series(terms):
    by_order = {}
    for (n, exps), c in terms.items():
        term = str(c) if exps == (0, 0) else "%s*%s" % (c, _mono(exps))
        by_order.setdefault(n, []).append(term)
    parts = []
    for n in sorted(by_order):
        body = " + ".join(by_order[n])
        parts.append(body if n == 0 else "(%s)*t^%d" % (body, n))
    return " + ".join(parts) or "0"


def test_star_oracles_detect_a_wrong_coefficient_and_triple_count():
    moyal = next(j for j in jobs.star(0) if j.name == "moyal-d6")
    good = _star_report(oracles.moyal_product, 6, 6, 924)
    assert oracles.check(moyal, good) == []
    assert oracles.check(moyal, _star_report(oracles.moyal_product, 6, 6, 923))
    bad = _star_report(oracles.moyal_product, 6, 6, 924, wrong=((1, 0), (0, 1)))
    assert oracles.check(moyal, bad)
    qplane = next(j for j in jobs.star(0) if j.name == "qplane-d4")
    assert oracles.check(qplane, _star_report(oracles.quantum_plane_product,
                                              4, 6, 210)) == []
    assert oracles.check(qplane, good)


def test_equivariance_is_expected_false_only_on_matrix_coordinate():
    report = {"status": "pass", "data": {"outcomes": {
        "associativity": True, "unit": True, "equivariance": True}}}
    operads = {j.name: j for j in jobs.twist(0) if j.oracle == "operad"}
    assert oracles.check(operads["operad-poly"], report) == []
    assert oracles.check(operads["operad-matrix"], report)


def test_every_job_has_an_oracle_and_every_workload_a_top_rung():
    for workload, make in jobs.WORKLOADS.items():
        job_list = make(7)
        assert all(j.oracle in oracles.ORACLES for j in job_list)
        assert jobs.TOP_RUNG[workload] in {j.name for j in job_list}


def test_seed_reaches_only_the_sampled_jobs():
    a, b = jobs.twist(1), jobs.twist(2)
    changed = {x.name for x, y in zip(a, b) if x.doc != y.doc}
    assert changed == {"operad-poly", "operad-tensor", "operad-matrix"}
    assert [j.doc for j in jobs.twist(1)] == [j.doc for j in a]
    for make in (jobs.moduli, jobs.star):
        assert [j.doc for j in make(1)] == [j.doc for j in make(2)]
