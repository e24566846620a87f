"""Twisting elements and universal deformation formulas over Q[[t]]/t^(N+1).

A twisting element is an arity-2 tensor F over a bialgebra subject to the
cocycle condition

    (d1)  [(Delta @ id)(F)] (F @ 1)  =  [(id @ Delta)(F)] (1 @ F),

that is F o_1 F = F o_2 F in the operad the bialgebra generates
(`operad.circ_B`), and, in the counital variant,

    (d2)  (eps @ id)(F) = 1 = (id @ eps)(F).

Every twist identity here is such a composition: (d1) and the rescaling
test compare F o_1 F with F o_2 F, a gauge G = 1 + (ideal part) acts by
F -> (G o_1 F) (G^-1 @ G^-1) with G o_1 F = Delta(G) F, and an additive
twist f solves f o_1 f = f o_2 f in the logarithmic operad (`operad.circ_b`).

Everything t-dependent is carried as a TruncSeries whose coefficients are
tensors, so the generic series arithmetic of the kernel module does all the
order bookkeeping.  A two-sided identity between tensor series is decided
one t-order at a time (`first_failing_difference`), the lazy-coefficient
view of power series (M. D. McIlroy, "Power series, power serious",
J. Funct. Programming 9(3), 1999): the t^k coefficient of lhs - rhs needs
only the slots up to k, so it is formed as one signed integer sum, tested
for zero and dropped; the comparison never builds either side in full.
The check stops at the first failing order, and its witness is the
difference there, the same tensor as the t^k coefficient of the full
lhs - rhs.

A UDF is a twisting element of the shape 1@1 + (ideal part).  For
commutative coefficients the formal logarithm turns all of this into linear
algebra (the additive picture), and over one-generator polynomial
bialgebras there is a further dictionary into bivariate polynomials and a
functional equation.
"""

from __future__ import annotations

from .bialgebra import TensorElement
from .kernel import (
    Monomial, Polynomial, QQ, TruncSeries, add_rational, add_term, as_scalar,
    series_multilinear, slot_combinations, slot_supports,
)
from .linalg import solve as linalg_solve
from .operad import circ_B, circ_b
from .reports import CheckReport

DEFAULT_ORDER = 6


# ---------------------------------------------------------------------------
# series-of-tensors helpers
# ---------------------------------------------------------------------------

def series_from_orders(B, arity, order, coeffs):
    """Series with prescribed tensor coefficients, dict t-order -> tensor."""
    slots = []
    for k in range(order + 1):
        c = coeffs.get(k)
        slots.append(B.zero(arity) if c is None else c)
    return TruncSeries(slots)

def series_outer(a, b):
    """Tensor-concatenation of two tensor-valued series (Cauchy pattern)."""
    return series_multilinear(lambda x, y: x.outer(y), a, b)

def series_counit(s, slot):
    return s.map_coeffs(lambda c: c.apply_counit(slot))

def series_circ(a, i, b):
    """Multiplicative operadic composition extended over series (bilinear)."""
    return series_multilinear(lambda x, y: circ_B(x, i, y), a, b)

def first_failing_order(a, b):
    """Index of the first differing coefficient of two series, or None."""
    for k in range(a.order + 1):
        if a.coeffs[k] != b.coeffs[k]:
            return k
    return None


# ---------------------------------------------------------------------------
# twisting elements
# ---------------------------------------------------------------------------

class TensorSeries:
    """A series of arity-`arity` tensors over one bialgebra, held as
    `series`; a subclass names its `arity` and, for messages, its `kind`."""

    arity = 2
    kind = "twisting elements"

    def __init__(self, series):
        first = series.coeffs[0]
        if not isinstance(first, TensorElement) or first.arity != self.arity:
            raise ValueError("%s are arity-%d tensor series" % (self.kind, self.arity))
        for c in series.coeffs:
            if c.parent is not first.parent or c.arity != self.arity:
                raise ValueError("series coefficients disagree on parent or arity")
        self.series = series

    @property
    def parent(self):
        return self.series.coeffs[0].parent

    @property
    def order(self):
        return self.series.order


def tensor_series(x):
    """The tensor series behind a wrapper, a bare series, or a plain tensor
    (taken as a series of order 0)."""
    if isinstance(x, TensorSeries):
        return x.series
    if isinstance(x, TensorElement):
        return TruncSeries.constant(x, 0)
    return x


class TwistingElement(TensorSeries):
    """An arity-2 tensor series; validity is established by check(), never assumed."""

    def __init__(self, series):
        super().__init__(series)
        self._verdicts = {}

    def check(self, counital=True, symmetric=False):
        key = (self.order, bool(counital), bool(symmetric))
        hit = self._verdicts.get(key)
        if hit is None:
            hit = check_twisting(self, counital=counital, symmetric=symmetric)
            self._verdicts[key] = hit
        return hit

    def __eq__(self, other):
        return isinstance(other, TwistingElement) and self.series == other.series

    def render(self):
        return repr(self.series)


class UDF(TwistingElement):
    """Twisting element of the shape 1@1 + t F1 + t^2 F2 + ..."""

    def __init__(self, series):
        super().__init__(series)
        if self.series.coeffs[0] != self.parent.one(2):
            raise ValueError("a UDF starts at 1@1 in the t^0 slot")


class GaugeElement(TensorSeries):
    """G = 1 + (ideal part) in B[[t]]/t^(N+1), with its inverse cached.

    Over a counital bialgebra the ideal part must be counit-free: a gauge
    with eps(G) != 1 rescales the twist by the unit scalar series eps(G)^-1,
    which breaks the counit normalization the gauge action is supposed to
    preserve.
    """

    arity = 1
    kind = "gauge elements"

    def __init__(self, series):
        super().__init__(series)
        B = self.parent
        if series.coeffs[0] != B.one(1):
            raise ValueError("a gauge element starts at 1 in the t^0 slot")
        if B.counital:
            for k in range(1, series.order + 1):
                if series.coeffs[k].apply_counit(1).scalar_value():
                    raise ValueError(
                        "gauge elements are counit-normalized: eps vanishes "
                        "on the ideal part (fails at order %d)" % k
                    )
        self._inverse = None

    def inverse(self):
        if self._inverse is None:
            inverse = self.series.inverse()
            if self.series * inverse != TruncSeries.constant(self.parent.one(1), self.order):
                raise AssertionError("gauge inverse is not an inverse; this is a bug")
            self._inverse = inverse
        return self._inverse


class AdditiveTwist(TensorSeries):
    """Arity-2 tensor series with no t^0 part; the logarithmic picture."""

    kind = "additive twists"

    def __init__(self, series):
        super().__init__(series)
        if series.coeffs[0]:
            raise ValueError("an additive twist has zero t^0 part")

    def __eq__(self, other):
        return isinstance(other, AdditiveTwist) and self.series == other.series


# ---------------------------------------------------------------------------
# the checkers
# ---------------------------------------------------------------------------

def first_failing_difference(order, terms):
    """(k, D) for the first t-order k <= order at which lhs - rhs has a
    nonzero coefficient D, or None: the identity lhs = rhs between tensor
    series decided one order at a time.

    lhs - rhs is given as `terms`, each (parts, *series) with the series of
    one order: its t^k coefficient is, over the tuples of nonzero slots
    (a_i, b_j, ...) with i + j + ... = k (`kernel.slot_combinations`), the
    sum of the signed tensors `parts(a_i, b_j, ...)` yields as (sign,
    tensor) pairs.  Each part is added into one packed {code: numerator}
    dict over the running lcm of the denominators (`kernel.add_rational`)
    as soon as it is formed, so parts that cancel do so early and no order's
    products are held; a nonzero dict becomes D through the first part's
    `_like`, which reduces it.  Orders past the first failing one are never
    formed.
    """
    supports = []
    for parts, *series in terms:
        if any(s.order != order for s in series):
            raise ValueError("truncation orders differ")
        supports.append((parts, slot_supports(series)))
    for k in range(order + 1):
        slot, mate = [1, {}], None
        for parts, support in supports:
            for combo in slot_combinations(support, k):
                for sign, x in parts(*combo):
                    if mate is None:
                        mate = x
                    else:
                        mate._check_mate(x)
                    add_rational(slot, x.codes, sign, x.den)
        # read through slot, not unpacked: a name bound to an emptied sum
        # would keep its dict, still at its peak table size, alive through
        # the next order
        if slot[1]:
            return k, mate._like(slot[1], slot[0])
    return None


def add_series_identity(report, label, order, terms):
    """Add the entry lhs = rhs, given as `terms` (`first_failing_difference`),
    to `report`; a failure names the first failing t-order and the
    difference there."""
    failing = first_failing_difference(order, terms)
    report.add(
        label,
        failing is None,
        None if failing is None else {
            "first_failing_order": failing[0],
            "difference": failing[1].render(),
        },
    )


def _cocycle_parts(x, y):
    """F_i o_1 F_j, then minus F_i o_2 F_j: both sides of (d1) on one pair
    of slots, the second formed once the first is added, so that the two
    cancel as they go."""
    yield 1, circ_B(x, 1, y)
    yield -1, circ_B(x, 2, y)


def check_twisting(F, counital=True, symmetric=False):
    """Verify (d1), optionally (d2) and the symmetry F = tau F, exactly.

    Works order by order in t and stops at the first failing order; the
    witness names that order and the offending difference tensor.
    """
    if isinstance(F, TensorElement):
        F = TwistingElement(tensor_series(F))
    B = F.parent
    s = F.series
    report = CheckReport("twisting element over %s" % B.spec.kind)

    add_series_identity(report, "(d1) cocycle identity", F.order, [(_cocycle_parts, s, s)])

    if counital:
        B.require_counit()
        target = TruncSeries.constant(B.one(1), F.order)
        for slot, side in ((1, "left"), (2, "right")):
            k = first_failing_order(series_counit(s, slot), target)
            if k is not None:
                break
        report.add(
            "(d2) counit normalization",
            k is None,
            None if k is None else {"first_failing_order": k, "side": side},
        )

    if symmetric:
        add_series_identity(report, "symmetry F = tau F", F.order,
                            [(lambda c: ((1, c), (-1, c.permute((2, 1)))), s)])

    return report


def make_exp_udf(r, order=DEFAULT_ORDER):
    """exp(t*r) as a UDF, for r an arity-2 tensor over a commutative bialgebra.

    Over a noncommutative coefficient algebra exp is not multiplicative and
    the result would be unvalidated, so this constructor refuses.
    """
    if r.arity != 2:
        raise ValueError("the exponent must be an arity-2 tensor")
    B = r.parent
    if not B.is_commutative():
        raise ValueError(
            "exp twists need a commutative bialgebra; %s is not" % B.spec.kind
        )
    x = series_from_orders(B, 2, order, {1: r})
    return UDF(x.exp())


def gauge_transform(F, G):
    """Delta(G) F (G^-1 @ G^-1), with Delta(G) F = G o_1 F; preserves
    (d1)-validity, which is re-verified."""
    if not isinstance(F, UDF):
        raise ValueError("gauge transforms act on UDFs")
    if F.parent is not G.parent:
        raise ValueError("UDF and gauge element live over different bialgebras")
    ginv = G.inverse()
    result = UDF(series_circ(G.series, 1, F.series) * series_outer(ginv, ginv))
    if F.check(counital=False).passed and not result.check(counital=False).passed:
        raise AssertionError("gauge transform broke (d1); this is a bug")
    return result


def additive_twist_equation(f):
    """Check f o_1 f = f o_2 f in the additive operad, that is
    (Delta@id)f + f@1 = (id@Delta)f + 1@f, one coefficient at a time (the
    composition is not bilinear); returns a report."""
    s = tensor_series(f)
    report = CheckReport("additive twist equation")
    add_series_identity(
        report, "additive cocycle identity", s.order,
        [(lambda c: ((1, circ_b(c, 1, c)), (-1, circ_b(c, 2, c))), s)],
    )
    return report


def coboundary(g):
    """Delta(g) - 1@g - g@1 for an arity-1 tensor g: the additive gauge
    shift, the map the first-order gauge search inverts, and cobar's
    reduced diagonal."""
    one = g.parent.one(1)
    return g.apply_coproduct(1) - one.outer(g) - g.outer(one)


def _require_log_trick(B, order):
    if not (B.is_commutative() or order <= 1):
        raise ValueError(
            "the logarithm dictionary needs a commutative bialgebra or order 1"
        )


def to_additive(F):
    """f = log(F); valid for commutative B or truncation order 1.

    The two pictures are equivalent, and that equivalence is re-checked here:
    f solves the additive equation exactly when F satisfies (d1).
    """
    if not isinstance(F, UDF):
        raise ValueError("the logarithm is taken of a UDF")
    _require_log_trick(F.parent, F.order)
    f = AdditiveTwist(F.series.log())
    mult_ok = F.check(counital=False).passed
    add_ok = additive_twist_equation(f).passed
    if mult_ok != add_ok:
        raise AssertionError(
            "logarithm broke the twist-equation equivalence; this is a bug"
        )
    return f


def from_additive(f):
    """exp(f); inverse of to_additive under the same hypotheses."""
    _require_log_trick(f.parent, f.order)
    return UDF(f.series.exp())


def additive_gauge(f, g):
    """f + Delta(g) - 1@g - g@1 for g an arity-1 series with zero t^0 part."""
    if not isinstance(g, TruncSeries):
        raise ValueError("g must be an arity-1 tensor series")
    _require_log_trick(f.parent, f.order)
    if g.coeffs[0]:
        raise ValueError("additive gauge elements have zero t^0 part")
    return AdditiveTwist(f.series + g.map_coeffs(coboundary))


def rescale(F, a):
    """Normalize a general morphism pair (F, a) by the literal 1/a rescaling.

    Preconditions: F o_1 F = F o_2 F, which is (d1) for F, and
    a*(eps@id)F = 1 = a*(id@eps)F.  The rescaled twist (1/a)F is then
    validated against the counit normalization; pairs whose rescaling fails
    it are rejected.
    """
    a = as_scalar(a)
    if a == 0:
        raise ValueError("the arity-0 value must be nonzero")
    if not isinstance(F, TensorElement) or F.arity != 2:
        raise ValueError("rescale acts on plain arity-2 tensors")
    if circ_B(F, 1, F) != circ_B(F, 2, F):
        raise ValueError("pair rejected: F does not satisfy the cocycle relation")
    one = F.parent.one(1)
    if a * F.apply_counit(1) != one or a * F.apply_counit(2) != one:
        raise ValueError("pair rejected: a*(eps@id)F = 1 fails")
    scaled = F.scale(1 / a)
    if scaled.apply_counit(1) != one or scaled.apply_counit(2) != one:
        raise ValueError(
            "pair rejected: the rescaled twist fails the counit normalization"
        )
    return scaled, QQ(1)


# ---------------------------------------------------------------------------
# first-order gauge search
# ---------------------------------------------------------------------------

def first_order_gauge(F1, F2, degree_bound=None):
    """Find g in B with F2_1 - F1_1 = Delta(g) - 1@g - g@1, or None.

    Only the t^1 layer is searched (a finite linear solve over the
    degree-bounded basis of B); higher orders are out of scope.
    """
    s1, s2 = tensor_series(F1), tensor_series(F2)
    B = s1.coeffs[0].parent
    bound = B.cutoff if degree_bound is None else degree_bound
    target = s2.coeffs[1] - s1.coeffs[1]

    gamma_keys = B.basis_keys(bound)
    gammas = [coboundary(B.element({k: QQ(1)})) for k in gamma_keys]
    sol = linalg_solve([(g.codes, g.den) for g in gammas], (target.codes, target.den))
    if sol is None:
        return None
    return B.element({gamma_keys[col]: c for col, c in sol.items()})


# ---------------------------------------------------------------------------
# the one-variable polynomial dictionary
# ---------------------------------------------------------------------------

def to_bivariate(F, names=("u1", "u2")):
    """Image of an arity-2 tensor (series) over k[p] in k[u1, u2].

    p^a @ p^b goes to u1^a u2^b; only single-generator polynomial-primitive
    parents admit this dictionary.
    """
    s = tensor_series(F)
    B = s.coeffs[0].parent
    if B.spec.kind != "polynomial-primitive" or len(B.spec.generators) != 1:
        raise ValueError("the bivariate dictionary needs one primitive generator")

    def convert(te):
        out = {}
        for (k1, k2), n in te._key_items():
            e1 = dict(k1).get(B.spec.generators[0], 0)
            e2 = dict(k2).get(B.spec.generators[0], 0)
            add_term(out, Monomial({names[0]: e1, names[1]: e2}), n)
        return Polynomial()._like(out, te.den)

    return s.map_coeffs(convert)


def check_functional_equation(F, names=("u1", "u2", "u3")):
    """The three-variable coherence identity for a bivariate F, plus boundaries.

    F may be a Polynomial in (u1, u2) or a TruncSeries of such; the identity

        F(u1+u2, u3) F(u1, u2) = F(u1, u2+u3) F(u2, u3)

    is checked exactly (mod t^(N+1) for series), as are F(0,u) = F(u,0) = 1.
    """
    u1, u2, u3 = names
    if isinstance(F, Polynomial):
        F = TruncSeries([F])
    v1, v2, v3 = (Polynomial.variable(n) for n in names)
    zero = Polynomial()

    def sub(poly, img1, img2):
        return poly.substitute_linear({u1: img1, u2: img2})

    lhs = F.map_coeffs(lambda p: sub(p, v1 + v2, v3)) * F
    rhs = F.map_coeffs(lambda p: sub(p, v1, v2 + v3)) * F.map_coeffs(
        lambda p: sub(p, v2, v3)
    )
    report = CheckReport("functional equation")
    k = first_failing_order(lhs, rhs)
    witness = None
    if k is not None:
        diff = lhs.coeffs[k] - rhs.coeffs[k]
        witness = {
            "first_failing_order": k,
            "monomial": repr(min(diff.terms, key=Monomial.sort_key)),
            "difference": repr(diff),
        }
    report.add("three-variable identity", k is None, witness)

    one = Polynomial.constant(1)
    ok = True
    for img1, img2 in (((zero), v1), (v1, zero)):
        val = F.map_coeffs(lambda p: sub(p, img1, img2))
        expected = TruncSeries([one] + [zero] * F.order)
        if val != expected:
            ok = False
    report.add("boundary condition F(0,u) = F(u,0) = 1", ok)
    return report
