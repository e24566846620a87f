"""The two operads a bialgebra generates, and executable axiom checkers.

For a bialgebra B both operads have n-th component B^(@n), and both graft v
(arity n) into slot i of u (arity m) through Delta^(n-1) of the keys in
slot i of u, read from the bialgebra's memoized table
`iterated_coproduct_code`; both run on the packed codes of the tensor
elements.  The multiplicative operad replaces slot i of each term of u by
Delta^(n-1)(its key) . v, the slotwise product in B^(@n).  The additive
("logarithmic") operad takes

    u o_i v = E + P,   E = Delta_i^(n-1) u,   P = 1^(@(i-1)) @ v @ 1^(@(m-i)),

so it never touches the product of B and makes sense for a bare coalgebra
with a grouplike unit.  The operad unit is 1 in the multiplicative flavor
and 0 in the additive one.

The axioms are theorems, so the checkers here exist to catch implementation
bugs: they combine fixed-seed random sweeps with exhaustive low-degree
sweeps and report witnesses on failure.
"""

from __future__ import annotations

import itertools
import random

from .bialgebra import CutoffError, TensorElement
from .kernel import QQ, bounded_product
from .reports import CheckReport, first_witness

FLAVOR_MULTIPLICATIVE = "multiplicative"
FLAVOR_ADDITIVE = "additive"
FLAVORS = (FLAVOR_MULTIPLICATIVE, FLAVOR_ADDITIVE)


class OperadElement:
    """A flavored element: payload in B^(@n), n >= 1 for the additive flavor."""

    __slots__ = ("flavor", "payload")

    def __init__(self, flavor, payload):
        if flavor not in FLAVORS:
            raise ValueError("unknown operad flavor %r" % (flavor,))
        if flavor == FLAVOR_ADDITIVE and payload.arity < 1:
            raise ValueError("the additive operad has no arity-0 component")
        if payload.arity == 0 and not payload.parent.counital:
            raise ValueError("arity 0 needs a counital bialgebra")
        self.flavor = flavor
        self.payload = payload

    @property
    def arity(self):
        return self.payload.arity

    @staticmethod
    def unit(flavor, B):
        return OperadElement(flavor, _unit_payload(flavor, B))

    def compose(self, i, other):
        if self.flavor != other.flavor:
            raise ValueError("cannot compose across operad flavors")
        payload = _compose(self.flavor, self.payload, i, other.payload)
        return OperadElement(self.flavor, payload)

    def __eq__(self, other):
        return (
            isinstance(other, OperadElement)
            and self.flavor == other.flavor
            and self.payload == other.payload
        )

    def __repr__(self):
        return "<%s operad element %s>" % (self.flavor, self.payload.render())


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
    B, n = u.parent, v.arity
    products = {}

    def image(code):
        hit = products.get(code)
        if hit is None:
            hit = products[code] = B.iterated_coproduct_code(code, n - 1) * v
        return hit

    return u.substitute(i, image, n)


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
    return E + v.insert_units(1, i - 1).insert_units(i + n, u.arity - i)


def _check_slot(u, i, v):
    if not 1 <= i <= u.arity:
        raise ValueError("composition slot %d out of range for arity %d" % (i, u.arity))
    if u.parent is not v.parent:
        raise ValueError("operands live over different bialgebras")


def _compose(flavor, u, i, v):
    return circ_B(u, i, v) if flavor == FLAVOR_MULTIPLICATIVE else circ_b(u, i, v)


def _unit_payload(flavor, B):
    return B.one(1) if flavor == FLAVOR_MULTIPLICATIVE else B.zero(1)


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

def random_tensor(B, rng, arity, max_terms=2):
    """The random samples of every checker.  Slot degree 2, lowered at small
    cutoffs so that most sampled compositions stay in the degree range."""
    keys = B.basis_keys(max(1, min(2, B.cutoff // 3)))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
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

def _assoc_case_triples(a, b, c):
    """Yield (case, j, i) index data for the three associativity cases."""
    for j in range(1, a + 1):
        for i in range(1, j):
            yield 1, j, i
        for i in range(j, b + j):
            yield 2, j, i
        for i in range(j + b, a + b):
            yield 3, j, i


def _check_assoc_on(flavor, u, v, w, tested, skipped):
    """Return (case, j, i, lhs, rhs) for the first failing case, else None.

    Instances whose intermediate products leave the tabulated degree range
    cannot be decided inside the truncation and are counted as skipped."""
    b, c = v.arity, w.arity

    def instance(case, j, i):
        try:
            lhs = _compose(flavor, _compose(flavor, u, j, v), i, w)
            if case == 1:
                rhs = _compose(flavor, _compose(flavor, u, i, w), j + c - 1, v)
            elif case == 2:
                rhs = _compose(flavor, u, j, _compose(flavor, v, i - j + 1, w))
            else:
                rhs = _compose(flavor, _compose(flavor, u, i - b + 1, w), j, v)
        except CutoffError:
            skipped[case] += 1
            return None
        tested[case] += 1
        if lhs != rhs:
            return case, j, i, lhs, rhs

    bad, _ = first_witness(_assoc_case_triples(u.arity, b, c), instance)
    return bad


def _exhaustive_low_degree_elements(B, flavor, total_degree=2, max_arity=2):
    """Single-term tensors on basis keys within the cutoff; used for the
    exhaustive sweeps."""
    keys = B.basis_keys(min(total_degree, B.cutoff))
    lo = 0 if (flavor == FLAVOR_MULTIPLICATIVE and B.counital) else 1
    out = [
        TensorElement(B, arity, {tup: QQ(1)})
        for arity in range(max(lo, 1), max_arity + 1)
        for tup in bounded_product([keys] * arity, B.degree, total_degree)
    ]
    if lo == 0:
        out.append(TensorElement(B, 0, {(): QQ(1)}))
    return out


def check_assoc_cases(flavor, B, samples=50, seed=0):
    """All three associativity cases on random and exhaustive triples."""
    if flavor not in FLAVORS:
        raise ValueError("unknown operad flavor %r" % (flavor,))
    report = CheckReport("operad associativity (%s over %s)" % (flavor, B.spec.kind))
    rng = random.Random(seed)

    failures = {1: None, 2: None, 3: None}
    tested = {1: 0, 2: 0, 3: 0}
    skipped = {1: 0, 2: 0, 3: 0}

    def run(u, v, w):
        bad = _check_assoc_on(flavor, u, v, w, tested, skipped)
        if bad is not None:
            case, j, i, lhs, rhs = bad
            if failures[case] is None:
                failures[case] = {
                    "case": case,
                    "i": i,
                    "j": j,
                    "u": u.render(),
                    "v": v.render(),
                    "w": w.render(),
                    "lhs": lhs.render(),
                    "rhs": rhs.render(),
                }

    for _ in range(samples):
        u = random_tensor(B, rng, _sample_arity(rng, flavor, B.counital))
        v = random_tensor(B, rng, _sample_arity(rng, flavor, B.counital))
        w = random_tensor(B, rng, _sample_arity(rng, flavor, B.counital))
        if u.arity == 0:
            u = B.one(1)
        run(u, v, w)

    basis_elements = _exhaustive_low_degree_elements(B, flavor)
    outer = [u for u in basis_elements if u.arity]
    pools = [outer, basis_elements, basis_elements]
    for u, v, w in bounded_product(pools, TensorElement.degree, 2):
        run(u, v, w)

    for case in (1, 2, 3):
        label = "associativity case %d (%d instances)" % (case, tested[case])
        report.add(_outside(label, skipped[case]), failures[case] is None, failures[case])
    return report


def _outside(label, skipped):
    """The check label, with the count of instances that left the tabulated
    degree range (undecidable inside the truncation) when there are any."""
    return label + (", %d outside the degree range" % skipped if skipped else "")


def check_equivariance(B, samples=50, seed=0):
    """Right-equivariance of the multiplicative composition.

    Checks u o_i (v.tau) = (u o_i v).tau' and (u.sigma) o_i v =
    (u o_sigma(i) v).sigma'' on random data; passes exactly when the
    coproduct is cocommutative.
    """
    report = CheckReport("operad equivariance (%s)" % B.spec.kind)
    rng = random.Random(seed)

    def perms(n):
        return list(itertools.permutations(range(1, n + 1)))

    cases = []
    for _ in range(samples):
        u = random_tensor(B, rng, rng.randint(1, 3))
        v = random_tensor(B, rng, rng.randint(1, 3))
        cases.append((u, v))
    # the decisive low-degree case: a generator against 1@1
    for name in B.spec.generators[:4]:
        g = B.generator(name)
        cases.append((g, B.one(2)))

    # an instance outside the tabulated degree range is undecidable: counted
    skipped = {"inner": 0, "outer": 0}

    def inner(u, v, i, tau):
        try:
            lhs = circ_B(u, i, v.permute(tau))
            rhs = circ_B(u, i, v).permute(inflate_inner(tau, i, u.arity))
        except CutoffError:
            skipped["inner"] += 1
            return None
        if lhs != rhs:
            return {"u": u.render(), "v": v.render(), "i": i, "tau": list(tau),
                    "lhs": lhs.render(), "rhs": rhs.render()}

    def outer(u, v, sigma, i):
        try:
            lhs = circ_B(u.permute(sigma), i, v)
            rhs = circ_B(u, sigma[i - 1], v).permute(inflate_outer(sigma, i, v.arity))
        except CutoffError:
            skipped["outer"] += 1
            return None
        if lhs != rhs:
            return {"u": u.render(), "v": v.render(), "i": i, "sigma": list(sigma),
                    "lhs": lhs.render(), "rhs": rhs.render()}

    bad_inner, _ = first_witness(
        ((u, v, i, tau) for u, v in cases
         for i in range(1, u.arity + 1) for tau in perms(v.arity)),
        inner,
    )
    bad_outer, _ = first_witness(
        ((u, v, sigma, i) for u, v in cases
         for sigma in perms(u.arity) for i in range(1, u.arity + 1)),
        outer,
    )
    report.add(_outside("inner equivariance u o (v.tau)", skipped["inner"]),
               bad_inner is None, bad_inner)
    report.add(_outside("outer equivariance (u.sigma) o v", skipped["outer"]),
               bad_outer is None, bad_outer)
    return report


def check_unit(flavor, B, samples=50, seed=0):
    """Unit laws: unit o_1 v = v and u o_i unit = u."""
    report = CheckReport("operad unit laws (%s over %s)" % (flavor, B.spec.kind))
    rng = random.Random(seed)
    unit = _unit_payload(flavor, B)
    elements = [random_tensor(B, rng, rng.randint(1, 3)) for _ in range(samples)]
    elements.extend(
        e for e in _exhaustive_low_degree_elements(B, flavor) if e.arity >= 1
    )

    # a composition outside the tabulated degree range is undecidable: counted
    skipped = {"left": 0, "right": 0}

    def left(v):
        try:
            got = _compose(flavor, unit, 1, v)
        except CutoffError:
            skipped["left"] += 1
            return None
        if got != v:
            return {"v": v.render(), "got": got.render()}

    def right(v, i):
        try:
            got = _compose(flavor, v, i, unit)
        except CutoffError:
            skipped["right"] += 1
            return None
        if got != v:
            return {"u": v.render(), "i": i, "got": got.render()}

    bad_left, _ = first_witness(((v,) for v in elements), left)
    bad_right, _ = first_witness(
        ((v, i) for v in elements for i in range(1, v.arity + 1)), right
    )
    report.add(_outside("unit o_1 v = v", skipped["left"]), bad_left is None, bad_left)
    report.add(_outside("u o_i unit = u", skipped["right"]), bad_right is None, bad_right)
    return report


def reconstruct_bialgebra_check(B, cutoff=2):
    """Diagnostic for the bialgebra <-> operad dictionary, one direction.

    Reads the bialgebra structure back off the multiplicative operad
    (product = o_1 at arity one, Delta(b) = b o_1 (1@1), eps via the arity-0
    component) and confirms it agrees with the declared structure maps.
    """
    report = CheckReport("bialgebra reconstruction from the operad (%s)" % B.spec.kind)
    keys = B.basis_keys(cutoff)
    singles = [(k,) for k in keys]
    scalar_one = TensorElement(B, 0, {(): QQ(1)})

    def product(k1, k2):
        e1, e2 = B.element({k1: QQ(1)}), B.element({k2: QQ(1)})
        if circ_B(e1, 1, e2) != e1 * e2:
            return {"pair": "%s , %s" % (B.key_str(k1), B.key_str(k2))}

    def coproduct(k):
        e = B.element({k: QQ(1)})
        if circ_B(e, 1, B.one(2)) != e.apply_coproduct(1):
            return {"element": B.key_str(k)}

    def counit(k):
        got = circ_B(B.element({k: QQ(1)}), 1, scalar_one).scalar_value()
        if got != B.counit_key(k):
            return {"element": B.key_str(k)}

    bad, _ = first_witness(
        bounded_product([keys, keys], B.degree, B.cutoff), product
    )
    report.add("product recovered by o_1", bad is None, bad)
    bad, _ = first_witness(singles, coproduct)
    report.add("coproduct recovered by b o_1 (1@1)", bad is None, bad)
    if B.counital:
        bad, _ = first_witness(singles, counit)
        report.add("counit recovered by the arity-0 slot", bad is None, bad)
    return report
