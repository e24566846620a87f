"""Twisting elements and universal deformation formulas over Q[[t]]/t^(N+1).

A twisting element is an arity-2 tensor F over a bialgebra subject to the
cocycle condition

    (d1)  [(Delta @ id)(F)] (F @ 1)  =  [(id @ Delta)(F)] (1 @ F),

that is F o_1 F = F o_2 F in the operad the bialgebra generates
(`operad.circ_B`), and, in the counital variant,

    (d2)  (eps @ id)(F) = 1 = (id @ eps)(F).

Every twist identity here is such a composition: (d1) compares F o_1 F
with F o_2 F, and a gauge G = 1 + (ideal part) acts by
F -> (G o_1 F) (G^-1 @ G^-1) with G o_1 F = Delta(G) F.

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

A UDF is a twisting element of the shape 1@1 + (ideal part).
"""

from __future__ import annotations

from .bialgebra import TensorElement
from .kernel import (
    TruncSeries, add_rational, series_multilinear, slot_combinations, slot_supports,
)
from .operad import circ_B
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
