"""The two operads a bialgebra generates, and executable axiom checkers.

For a bialgebra B both operads have n-th component B^(@n), and both graft v
(arity n) into slot i of u (arity m) through Delta^(n-1) of the keys in
slot i of u, read from the bialgebra's one memoized table of packed
elements, `iterated_coproduct_code` (eps = Delta^(-1) for an arity-0 v,
Delta itself for arity 2); both run on the packed codes of the tensor
elements.  The multiplicative operad replaces slot i of each term of u by
Delta^(n-1)(its key) . v, the slotwise product in B^(@n).  The additive
("logarithmic") operad takes

    u o_i v = E + P,   E = Delta_i^(n-1) u,   P = 1^(@(i-1)) @ v @ 1^(@(m-i)),

so it never touches the product of B and makes sense for a bare coalgebra
with a grouplike unit.  The operad unit is 1 in the multiplicative flavor
and 0 in the additive one.

The axioms are theorems, so the checkers here exist to catch implementation
bugs: they combine fixed-seed random sweeps with exhaustive low-degree
sweeps and report witnesses on failure.  Every checker states its identity
as the two sides at one case and hands them to one comparison step
(`_compared`) under the package's one checker loop, `reports.first_witness`;
the step counts a case whose compositions leave the tabulated degree range
as skipped, since the truncation cannot decide it, and the report labels
carry that count.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import partial

from .bialgebra import CutoffError, TensorElement
from .kernel import QQ, bounded_product
from .reports import CheckReport, first_witness

FLAVOR_MULTIPLICATIVE = "multiplicative"
FLAVOR_ADDITIVE = "additive"
FLAVORS = (FLAVOR_MULTIPLICATIVE, FLAVOR_ADDITIVE)


def circ_B(u, i, v):
    """Multiplicative partial composition of tensors u (arity m), v (arity n).

    Slot i of each term of u is replaced by Delta^(n-1)(its key) . v and
    the results are added up in term order (`TensorElement.substitute`);
    each slot code's product is formed once per call.  Arity-0 v uses the
    counit (our Delta^(-1)).  A product past the cutoff raises CutoffError
    at the first term of u that reaches it, even where its expansion would
    cancel against another term's.
    """
    _check_slot(u, i, v)
    return u.substitute(i, _products(u.parent, v, {}), v.arity)


def add_circ_B(acc, num, u, i, v, products):
    """acc += num * circ_B(u, i, v) in place, for a packed sum acc
    (`TensorElement.substitute_into`); `products` is the dict slot code ->
    product that the call fills, so calls with one v may share it."""
    _check_slot(u, i, v)
    u.substitute_into(acc, num, i, _products(u.parent, v, products), v.arity)


def _products(B, v, products):
    """slot code -> Delta^(n-1)(its key) . v, memoized in `products`."""
    n = v.arity

    def image(code):
        hit = products.get(code)
        if hit is None:
            hit = products[code] = B.iterated_coproduct_code(code, n - 1) * v
        return hit

    return image


def circ_b(u, i, v):
    """Additive partial composition; touches only the coproduct and unit of B.

    u o_i v = E + P: E = Delta_i^(n-1) u replaces slot i of each term of u
    by the terms of Delta^(n-1) of its key, and P = 1^(@(i-1)) @ v @
    1^(@(m-i)) pads v with units.  The product of B is never invoked here;
    a regression test pins that down.
    """
    if u.arity < 1 or v.arity < 1:
        raise ValueError("the additive operad is indexed from arity 1")
    _check_slot(u, i, v)
    B, n = u.parent, v.arity
    E = u.substitute(i, lambda code: B.iterated_coproduct_code(code, n - 1), n)
    # the unit's slot code is 0, so P is v's codes shifted i - 1 slots up
    at = (i - 1) * B.codec.width
    P = {code << at: c for code, c in v.codes.items()}
    return E + u._like(P, v.den, u.arity + n - 1)


def _check_slot(u, i, v):
    if not 1 <= i <= u.arity:
        raise ValueError("composition slot %d out of range for arity %d" % (i, u.arity))
    if u.parent is not v.parent:
        raise ValueError("operands live over different bialgebras")


def _compose(flavor, u, i, v):
    return circ_B(u, i, v) if flavor == FLAVOR_MULTIPLICATIVE else circ_b(u, i, v)


# ---------------------------------------------------------------------------
# permutation helpers (right action, one-line notation, 1-based)
# ---------------------------------------------------------------------------

def inflate_inner(tau, i, m):
    """tau acting on the block [i, i+n-1] inside m+n-1 slots, identity outside."""
    n = len(tau)
    out = []
    for p in range(1, m + n):
        if p < i:
            out.append(p)
        elif p < i + n:
            out.append(i - 1 + tau[p - i])
        else:
            out.append(p)
    return tuple(out)

def inflate_outer(sigma, i, n):
    """sigma in Sigma_m with input sigma(i) expanded to a block of n slots."""
    m = len(sigma)
    s_i = sigma[i - 1]
    out = []
    for p in range(1, m + n):
        if p < i:
            q = sigma[p - 1]
            out.append(q if q < s_i else q + n - 1)
        elif p < i + n:
            out.append(s_i + (p - i))
        else:
            q = sigma[p - n]
            out.append(q if q < s_i else q + n - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_keys(B):
    """The basis keys random samples draw from: slot degree 2, lowered at
    small cutoffs so that most sampled compositions stay in the degree
    range.  A checker takes them once and passes them to `random_tensor`."""
    return B.basis_keys(max(1, min(2, B.cutoff // 3)))


def random_tensor(B, keys, rng, arity):
    """The random samples of every checker: one or two tensors of `keys`
    (`sample_keys`) with small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        tup = tuple(rng.choice(keys) for _ in range(arity))
        terms[tup] = terms.get(tup, 0) + rng.choice([-2, -1, 1, 2])
    return TensorElement(B, arity, {k: QQ(c) for k, c in terms.items() if c})


def _sample_arity(rng, flavor, counital):
    lo = 0 if (flavor == FLAVOR_MULTIPLICATIVE and counital) else 1
    # arity 0 stays rare; most of the interesting cases live at 1..3
    pick = rng.randint(max(lo, 1), 3)
    if lo == 0 and rng.random() < 0.1:
        return 0
    return pick


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _compared(sides, witness, tally):
    """The witness function every checker here hands to `first_witness`.

    `sides(*case)` gives the two sides of an identity at one case, and
    `witness(*case, lhs, rhs)` the witness when they differ.  A case whose
    compositions leave the tabulated degree range cannot be decided inside
    the truncation: it counts as skipped in the Counter `tally`, and every
    other case as decided."""

    def step(*case):
        try:
            lhs, rhs = sides(*case)
        except CutoffError:
            tally["skipped"] += 1
            return None
        tally["decided"] += 1
        if lhs != rhs:
            return witness(*case, lhs, rhs)

    return step


def _labelled(label, tally):
    """The check label, with the count of skipped cases when there are any."""
    skipped = tally["skipped"]
    return label + (", %d outside the degree range" % skipped if skipped else "")


def _sweep(report, label, cases, sides, witness):
    """Add the check `label` to `report`: the two sides compared over `cases`
    up to the first witness."""
    tally = Counter()
    bad, _ = first_witness(cases, _compared(sides, witness, tally))
    report.add(_labelled(label, tally), bad is None, bad)


def _assoc_case_triples(a, b, c):
    """Yield (case, j, i) index data for the three associativity cases."""
    for j in range(1, a + 1):
        for i in range(1, j):
            yield 1, j, i
        for i in range(j, b + j):
            yield 2, j, i
        for i in range(j + b, a + b):
            yield 3, j, i


def _check_assoc_on(flavor, u, v, w, tallies):
    """The witness of the first failing associativity instance on (u, v, w),
    else None; each instance counts into the tally of its case."""
    b, c, o = v.arity, w.arity, partial(_compose, flavor)

    def sides(case, j, i):
        lhs = o(o(u, j, v), i, w)
        if case == 1:
            return lhs, o(o(u, i, w), j + c - 1, v)
        if case == 2:
            return lhs, o(u, j, o(v, i - j + 1, w))
        return lhs, o(o(u, i - b + 1, w), j, v)

    def witness(case, j, i, lhs, rhs):
        return {"case": case, "i": i, "j": j, "u": u.render(), "v": v.render(),
                "w": w.render(), "lhs": lhs.render(), "rhs": rhs.render()}

    steps = {case: _compared(sides, witness, tally) for case, tally in tallies.items()}
    bad, _ = first_witness(_assoc_case_triples(u.arity, b, c),
                           lambda case, j, i: steps[case](case, j, i))
    return bad


def _exhaustive_low_degree_elements(B, flavor):
    """Single-term tensors of arity at most 2 on basis keys within the
    cutoff, of total degree at most 2; used for the exhaustive sweeps."""
    keys = B.basis_keys(min(2, B.cutoff))
    lo = 0 if (flavor == FLAVOR_MULTIPLICATIVE and B.counital) else 1
    out = [
        TensorElement(B, arity, {tup: QQ(1)})
        for arity in range(max(lo, 1), 3)
        for tup in bounded_product([keys] * arity, B.degree, 2)
    ]
    if lo == 0:
        out.append(TensorElement(B, 0, {(): QQ(1)}))
    return out


def check_assoc_cases(flavor, B, samples=50, seed=0):
    """All three associativity cases on random and exhaustive triples."""
    if flavor not in FLAVORS:
        raise ValueError("unknown operad flavor %r" % (flavor,))
    report = CheckReport("operad associativity (%s over %s)" % (flavor, B.spec.kind))
    rng, keys = random.Random(seed), sample_keys(B)
    tallies = {1: Counter(), 2: Counter(), 3: Counter()}
    failures = {}

    def run(u, v, w):
        bad = _check_assoc_on(flavor, u, v, w, tallies)
        if bad is not None:
            failures.setdefault(bad["case"], bad)

    for _ in range(samples):
        u = random_tensor(B, keys, rng, _sample_arity(rng, flavor, B.counital))
        v = random_tensor(B, keys, rng, _sample_arity(rng, flavor, B.counital))
        w = random_tensor(B, keys, rng, _sample_arity(rng, flavor, B.counital))
        if u.arity == 0:
            u = B.one(1)
        run(u, v, w)

    basis_elements = _exhaustive_low_degree_elements(B, flavor)
    outer = [u for u in basis_elements if u.arity]
    pools = [outer, basis_elements, basis_elements]
    for u, v, w in bounded_product(pools, TensorElement.degree, 2):
        run(u, v, w)

    for case, tally in tallies.items():
        label = "associativity case %d (%d instances)" % (case, tally["decided"])
        bad = failures.get(case)
        report.add(_labelled(label, tally), bad is None, bad)
    return report


def check_equivariance(B, samples=50, seed=0):
    """Right-equivariance of the multiplicative composition.

    Checks u o_i (v.tau) = (u o_i v).tau' and (u.sigma) o_i v =
    (u o_sigma(i) v).sigma'' on random data; passes exactly when the
    coproduct is cocommutative.
    """
    report = CheckReport("operad equivariance (%s)" % B.spec.kind)
    rng, keys = random.Random(seed), sample_keys(B)

    def perms(n):
        return list(itertools.permutations(range(1, n + 1)))

    cases = []
    for _ in range(samples):
        u = random_tensor(B, keys, rng, rng.randint(1, 3))
        v = random_tensor(B, keys, rng, rng.randint(1, 3))
        cases.append((u, v))
    # the decisive low-degree case: a generator against 1@1
    for name in B.spec.generators[:4]:
        g = B.generator(name)
        cases.append((g, B.one(2)))

    def inner(u, v, i, tau):
        return (circ_B(u, i, v.permute(tau)),
                circ_B(u, i, v).permute(inflate_inner(tau, i, u.arity)))

    def outer(u, v, sigma, i):
        return (circ_B(u.permute(sigma), i, v),
                circ_B(u, sigma[i - 1], v).permute(inflate_outer(sigma, i, v.arity)))

    _sweep(report, "inner equivariance u o (v.tau)",
           ((u, v, i, tau) for u, v in cases
            for i in range(1, u.arity + 1) for tau in perms(v.arity)),
           inner, lambda u, v, i, tau, lhs, rhs: {
               "u": u.render(), "v": v.render(), "i": i, "tau": list(tau),
               "lhs": lhs.render(), "rhs": rhs.render()})
    _sweep(report, "outer equivariance (u.sigma) o v",
           ((u, v, sigma, i) for u, v in cases
            for sigma in perms(u.arity) for i in range(1, u.arity + 1)),
           outer, lambda u, v, sigma, i, lhs, rhs: {
               "u": u.render(), "v": v.render(), "i": i, "sigma": list(sigma),
               "lhs": lhs.render(), "rhs": rhs.render()})
    return report


def check_unit(flavor, B, samples=50, seed=0):
    """Unit laws: unit o_1 v = v and u o_i unit = u."""
    report = CheckReport("operad unit laws (%s over %s)" % (flavor, B.spec.kind))
    rng, keys = random.Random(seed), sample_keys(B)
    unit = B.one(1) if flavor == FLAVOR_MULTIPLICATIVE else B.zero(1)
    elements = [random_tensor(B, keys, rng, rng.randint(1, 3)) for _ in range(samples)]
    elements.extend(
        e for e in _exhaustive_low_degree_elements(B, flavor) if e.arity >= 1
    )

    _sweep(report, "unit o_1 v = v", ((v,) for v in elements),
           lambda v: (_compose(flavor, unit, 1, v), v),
           lambda v, got, _: {"v": v.render(), "got": got.render()})
    _sweep(report, "u o_i unit = u",
           ((v, i) for v in elements for i in range(1, v.arity + 1)),
           lambda v, i: (_compose(flavor, v, i, unit), v),
           lambda v, i, got, _: {"u": v.render(), "i": i, "got": got.render()})
    return report
