"""Correctness oracles computed apart from udeform.

Nothing here imports the library.  Each oracle takes the canonical JSON
report of one job and returns a list of disagreements (empty when the job's
answer is right).  The expected values come from closed forms or from
properties the mathematics forces, never from a stored copy of a report:

* tensor-primitive H2 per degree is the graded dimension of
  Lambda^2(free Lie algebra on the generators), with Lie dimensions from
  Witt's necklace formula;
* polynomial-primitive H2 is Lambda^2 V, concentrated in degree 2;
* matrix-coordinate and free commutative monoid coalgebras are
  cosemisimple over Q, so their H2 vanishes;
* star-product tables are recomputed with Fractions from the closed forms
  of the quantum-plane and Moyal products;
* partially associative ternary dimensions follow from counting trees.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def mobius(n):
    """The Moebius function mu(n)."""
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt_dimension(generators, degree):
    """dim of the degree-n part of the free Lie algebra on k generators."""
    total = sum(
        mobius(d) * generators ** (degree // d)
        for d in range(1, degree + 1)
        if degree % d == 0
    )
    return total // degree


def exterior_square_dims(generators, max_degree):
    """Graded dimensions of Lambda^2 of the free Lie algebra, degrees 0..max."""
    lie = [0] + [witt_dimension(generators, n) for n in range(1, max_degree + 1)]
    out = []
    for m in range(max_degree + 1):
        total = sum(lie[a] * lie[m - a] for a in range(1, (m + 1) // 2))
        if m % 2 == 0 and m:
            total += comb(lie[m // 2], 2)
        out.append(total)
    return out


def polynomial_h2_dims(generators, max_degree):
    """Lambda^2 V in degree 2, nothing elsewhere."""
    return [comb(generators, 2) if m == 2 else 0 for m in range(max_degree + 1)]


def associativity_triples(cutoff):
    """Basis triples of k[p,q] with total degree <= d: monomials in 6 letters."""
    return comb(cutoff + 6, 6)


def ternary_dimensions(generators, leaf_cutoff, symmetric):
    """Dimensions of the free partially associative ternary algebra.

    Planar: k^3 trees at 3 leaves, and at 5 leaves the three bracketings
    modulo one relation each leave 2k^5.  Symmetric: cubic monomials at 3
    leaves, and the relation kills everything at 5 leaves and beyond.
    """
    k = generators
    out = {}
    for n in range(1, leaf_cutoff + 1, 2):
        if n == 1:
            out[n] = k
        elif n == 3:
            out[n] = comb(k + 2, 3) if symmetric else k ** 3
        elif symmetric:
            out[n] = 0
        elif n == 5:
            out[n] = 2 * k ** 5
    return out


# ---------------------------------------------------------------------------
# star products on k[p, q], as dicts (t-order, (a, b)) -> Fraction
# ---------------------------------------------------------------------------

def _monomial_derivative(exps, dp, dq):
    """d/dp^dp d/dq^dq of p^a q^b as (coefficient, exponents)."""
    a, b = exps
    if dp > a or dq > b:
        return 0, None
    c = factorial(a) // factorial(a - dp) * factorial(b) // factorial(b - dq)
    return c, (a - dp, b - dq)


def quantum_plane_product(f, g, order):
    """sum_{n<=N} (ad - bc)^n t^n / n! p^(a+c) q^(b+d) for f=p^a q^b, g=p^c q^d."""
    (a, b), (c, d) = f, g
    lam = a * d - b * c
    out = {}
    for n in range(order + 1):
        coeff = Fraction(lam ** n, factorial(n))
        if coeff:
            out[(n, (a + c, b + d))] = coeff
    return out


def moyal_product(f, g, order):
    """sum_n (t/2)^n/n! sum_k (-1)^k C(n,k) (dp^(n-k) dq^k f)(dp^k dq^(n-k) g)."""
    out = {}
    for n in range(order + 1):
        scale = Fraction(1, 2 ** n * factorial(n))
        for k in range(n + 1):
            c1, m1 = _monomial_derivative(f, n - k, k)
            c2, m2 = _monomial_derivative(g, k, n - k)
            if not c1 or not c2:
                continue
            key = (n, (m1[0] + m2[0], m1[1] + m2[1]))
            value = out.get(key, 0) + scale * (-1) ** k * comb(n, k) * c1 * c2
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# parsing the rendered series of a product table
# ---------------------------------------------------------------------------

def parse_monomial(text):
    """'1', 'p', 'p^2*q' -> exponents (a, b) in the variables p, q."""
    a = b = 0
    text = text.strip()
    if text == "1":
        return (0, 0)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        e = int(power) if power else 1
        if name == "p":
            a += e
        elif name == "q":
            b += e
        else:
            raise ValueError("unexpected factor %r" % factor)
    return (a, b)


_TERM = re.compile(r"^(?P<sign>-?)(?P<coeff>\d+(?:/\d+)?)?(?:\*?(?P<mono>[pq].*))?$")


def parse_element(text):
    """'p*q - 1/2*q^2 + 3' -> {(a, b): Fraction}."""
    out = {}
    text = text.strip().replace(" - ", " + -")
    for term in text.split(" + "):
        m = _TERM.match(term.strip())
        if m is None or (m.group("coeff") is None and m.group("mono") is None):
            raise ValueError("cannot parse term %r" % term)
        c = Fraction(m.group("coeff") or 1) * (-1 if m.group("sign") else 1)
        mono = parse_monomial(m.group("mono") or "1")
        out[mono] = out.get(mono, 0) + c
    return {k: v for k, v in out.items() if v}


_SERIES_TERM = re.compile(r"^\((?P<body>.*)\)\*t(?:\^(?P<power>\d+))?$")


def parse_series(text):
    """Rendered TruncSeries of plane elements -> {(t-order, (a, b)): Fraction}.

    The t^0 coefficient is printed bare; every higher one as '(x)*t^k'.
    """
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + (", i):
            parts.append(text[start:i])
            start = i + 3
    parts.append(text[start:])
    out = {}
    for part in parts:
        m = _SERIES_TERM.match(part.strip())
        if m is None:
            if part.strip() == "0":
                continue
            order, body = 0, part
        else:
            order, body = int(m.group("power") or 1), m.group("body")
        for mono, c in parse_element(body).items():
            out[(order, mono)] = out.get((order, mono), 0) + c
    return {k: v for k, v in out.items() if v}


def plane_monomials(max_degree):
    return [(a, n - a) for n in range(max_degree + 1) for a in range(n, -1, -1)]


# ---------------------------------------------------------------------------
# the oracles, one per job kind
# ---------------------------------------------------------------------------

def _outcomes(report):
    return report.get("data", {}).get("outcomes", {})


def _h2_profile(report, expected):
    blocks = report["data"]["blocks"]
    got = {b["degree"]: b["dim"] for b in blocks}
    want = dict(enumerate(expected))
    problems = []
    if got != want:
        problems.append("H2 profile %s, expected %s" % (got, want))
    for b in blocks:
        if len(b["representatives"]) != b["dim"]:
            problems.append("degree %s: %d representatives for dim %d"
                            % (b["degree"], len(b["representatives"]), b["dim"]))
    return problems


def tensor_h2(report, facts):
    return _h2_profile(report, exterior_square_dims(facts["generators"],
                                                    facts["cutoff"]))


def polynomial_h2(report, facts):
    return _h2_profile(report, polynomial_h2_dims(facts["generators"],
                                                  facts["cutoff"]))


def cosemisimple_h2(report, facts):
    total = report["data"]["total_dimension"]
    dims = [b["dim"] for b in report["data"]["blocks"]]
    if total != 0 or any(dims):
        return ["H2 of a cosemisimple coalgebra is %d (blocks %s), expected 0"
                % (total, dims)]
    return []


def triple_count(report):
    """The triple count in the label of the associativity sweep, or None."""
    for check in report["checks"]:
        for entry in check["entries"]:
            m = re.match(r"associativity on (\d+) basis triples", entry["label"])
            if m:
                return int(m.group(1))
    return None


def _star_table(report, facts, product):
    problems = []
    cutoff, order = facts["cutoff"], facts["order"]
    count = triple_count(report)
    if count != associativity_triples(cutoff):
        problems.append("associativity ran on %s triples, expected %d"
                        % (count, associativity_triples(cutoff)))
    table_degree = min(2, cutoff)
    want_pairs = {
        (f, g)
        for f in plane_monomials(table_degree)
        for g in plane_monomials(table_degree)
        if sum(f) + sum(g) <= table_degree
    }
    seen = set()
    for row in report["data"]["product_table"]:
        f, g = parse_monomial(row["left"]), parse_monomial(row["right"])
        seen.add((f, g))
        got = parse_series(row["product"])
        want = product(f, g, order)
        if got != want:
            problems.append("%s * %s = %s, expected %s"
                            % (row["left"], row["right"], got, want))
    if seen != want_pairs:
        problems.append("product table covers %d pairs, expected %d"
                        % (len(seen), len(want_pairs)))
    return problems


def quantum_plane(report, facts):
    return _star_table(report, facts, quantum_plane_product)


def moyal(report, facts):
    return _star_table(report, facts, moyal_product)


def hochschild(report, facts):
    """Euler derivations p d/dp, q d/dq on k[p,q] under exp(t(p1@p2 - p2@p1)).

    mu_1(p, q) = pq is nonzero and antisymmetric, while every Hochschild
    coboundary on a commutative algebra is symmetric: the cocycle is neither
    zero nor a coboundary.  The wedge of the two derivations over A is the
    2x2 minor p*q.
    """
    problems = []
    want = {"cocycle_zero": False, "coboundary": False, "wedge_nonzero": True}
    got = _outcomes(report)
    for key, value in want.items():
        if got.get(key) is not value:
            problems.append("%s is %s, expected %s" % (key, got.get(key), value))
    wedge = report["data"].get("wedge_over_A", {})
    if {k: parse_element(v) for k, v in wedge.items()} != {"p^q": {(1, 1): 1}}:
        problems.append("wedge over A is %s, expected p^q = p*q" % (wedge,))
    return problems


def twist(report, facts):
    """exp(r) with r built from commuting primitives is a twist; r is
    antisymmetric and nonzero, so exp(r)_21 = exp(-r) != exp(r)."""
    got = _outcomes(report)
    if got != {"twist": True, "symmetric": False}:
        return ["outcomes %s, expected twist true and symmetric false" % (got,)]
    return []


def operad(report, facts):
    """Both operads are operads; equivariance holds iff Delta is cocommutative."""
    want = {"associativity": True, "unit": True,
            "equivariance": facts["cocommutative"]}
    got = _outcomes(report)
    if got != want:
        return ["outcomes %s, expected %s" % (got, want)]
    return []


def ternary(report, facts):
    want = ternary_dimensions(facts["generators"], facts["leaves"],
                              facts["symmetric"])
    got = {int(n): d for n, d in report["data"]["dimensions"].items()}
    problems = []
    if got != want:
        problems.append("dimensions %s, expected %s" % (got, want))
    if _outcomes(report) != {"pass_consistency": True, "partial_assoc": True}:
        problems.append("outcomes %s" % (_outcomes(report),))
    return problems


def expect_only(report, facts):
    """Fixtures whose verdicts are carried by their expect block alone."""
    return []


ORACLES = {
    "tensor_h2": tensor_h2,
    "polynomial_h2": polynomial_h2,
    "cosemisimple_h2": cosemisimple_h2,
    "quantum_plane": quantum_plane,
    "moyal": moyal,
    "hochschild": hochschild,
    "twist": twist,
    "operad": operad,
    "ternary": ternary,
    "expect_only": expect_only,
}


def check(job, report):
    """Disagreements between one job's report and its oracle."""
    problems = []
    if report.get("status") != "pass":
        problems.append("status %s" % report.get("status"))
    try:
        problems.extend(ORACLES[job.oracle](report, job.facts))
    except (KeyError, ValueError, TypeError) as exc:
        problems.append("report does not have the expected shape: %r" % (exc,))
    return problems
