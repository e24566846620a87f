import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from udeform.kernel import Monomial, Polynomial, QQ, TruncSeries
from udeform.bialgebra import BialgebraSpec, CutoffError, construct_bialgebra
from udeform.operad import add_circ_B, circ_B
from udeform.reports import CheckReport
from udeform import twist
from udeform.twist import (
    UDF,
    GaugeElement,
    TwistingElement,
    check_twisting,
    gauge_transform,
    make_exp_udf,
    series_circ,
    series_from_orders,
    series_outer,
)

from conftest import (
    IDEMPOTENT_TABLE, antisym, cocycle_sides, coproduct_series, hand_cocycle_sides,
    reference_series_identity,
)
from formulations import (
    AdditiveTwist,
    additive_gauge,
    additive_twist_equation,
    check_functional_equation,
    first_order_gauge,
    from_additive,
    rescale,
    to_additive,
    to_bivariate,
)


def d1_passes(report):
    return report.entries[0].ok


class TestCheckTwisting:
    def test_trivial_element(self, B2):
        rep = check_twisting(B2.one(2), counital=True, symmetric=True)
        assert rep.passed

    def test_moyal_passes_d1_d2_fails_symmetry(self, moyal_udf):
        rep = moyal_udf.check(counital=True, symmetric=True)
        entries = {e.label: e.ok for e in rep.entries}
        assert entries["(d1) cocycle identity"]
        assert entries["(d2) counit normalization"]
        assert not entries["symmetry F = tau F"]

    def test_exp_pp_symmetric(self, B1):
        p = B1.generator("p")
        F = make_exp_udf(p.outer(p).scale(QQ(3)), order=6)
        rep = F.check(counital=True, symmetric=True)
        assert rep.passed

    def test_exp_pp_hand_expansion_at_order_two(self, B1):
        # frozen by hand: with S = p@1@p + 1@p@p + p@p@1, both (d1) sides of
        # exp(t p@p) equal exp(tS); the t^2 slot is S^2/2.
        p = B1.generator("p")
        one = B1.one(1)
        F = make_exp_udf(p.outer(p), order=2)
        lhs, rhs = cocycle_sides(F.series)
        p2 = p * p
        expected_t2 = (
            p2.outer(one).outer(p2).scale(QQ(1, 2))
            + one.outer(p2).outer(p2).scale(QQ(1, 2))
            + p2.outer(p2).outer(one).scale(QQ(1, 2))
            + p.outer(p).outer(p2)
            + p2.outer(p).outer(p)
            + p.outer(p2).outer(p)
        )
        assert lhs.coeffs[2] == expected_t2
        assert rhs.coeffs[2] == expected_t2

    def test_non_twist_fails_with_order_witness(self, B1):
        p = B1.generator("p")
        F = UDF(
            series_from_orders(
                B1, 2, 3, {0: B1.one(2), 1: p.outer(B1.one(1))}
            )
        )
        rep = F.check(counital=False)
        assert not rep.passed
        assert rep.entries[0].witness["first_failing_order"] == 1

    def test_verdict_cache(self, moyal_udf):
        first = moyal_udf.check()
        assert moyal_udf.check() is first


def test_moyal_against_substitution_oracle(moyal_udf):
    """Independent oracle: the substitution picture over sympy.

    Slot i of the two-generator bialgebra maps to variables (x_i, y_i); the
    coproduct becomes variable duplication.  The (d1) left side then has the
    closed form exp((t/2)((x1+x2)y3-(y1+y2)x3)) * exp((t/2)(x1y2-y1x2)),
    which sympy expands independently of the tensor machinery.
    """
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    x = [sp.Symbol("x%d" % i) for i in range(1, 4)]
    y = [sp.Symbol("y%d" % i) for i in range(1, 4)]
    K = 3

    def tensor_to_expr(T):
        expr = sp.Integer(0)
        for keys, c in T.terms.items():
            term = sp.Rational(c.numerator, c.denominator)
            for slot, key in enumerate(keys):
                exps = dict(key)
                term *= x[slot] ** exps.get("p1", 0) * y[slot] ** exps.get("p2", 0)
            expr += term
        return sp.expand(expr)

    lhs, rhs = cocycle_sides(moyal_udf.series)
    mine_lhs = sum(tensor_to_expr(lhs.coeffs[k]) * t**k for k in range(K + 1))
    mine_rhs = sum(tensor_to_expr(rhs.coeffs[k]) * t**k for k in range(K + 1))

    half = sp.Rational(1, 2)
    closed_lhs = sp.exp(half * t * ((x[0] + x[1]) * y[2] - (y[0] + y[1]) * x[2])) * sp.exp(
        half * t * (x[0] * y[1] - y[0] * x[1])
    )
    closed_rhs = sp.exp(half * t * (x[0] * (y[1] + y[2]) - y[0] * (x[1] + x[2]))) * sp.exp(
        half * t * (x[1] * y[2] - y[1] * x[2])
    )
    ref_lhs = sp.expand(sp.series(closed_lhs, t, 0, K + 1).removeO())
    ref_rhs = sp.expand(sp.series(closed_rhs, t, 0, K + 1).removeO())
    assert sp.expand(mine_lhs - ref_lhs) == 0
    assert sp.expand(mine_rhs - ref_rhs) == 0


class TestMakeExpUdf:
    def test_moyal_truncation_two(self, B2):
        r = antisym(B2).scale(QQ(1, 2))
        F = make_exp_udf(r, order=2)
        assert F.series.coeffs[0] == B2.one(2)
        assert F.series.coeffs[1] == r
        assert F.series.coeffs[2] == (r * r).scale(QQ(1, 2))

    def test_zero_exponent(self, B2):
        F = make_exp_udf(B2.zero(2), order=4)
        assert F.series == TruncSeries.constant(B2.one(2), 4)

    def test_noncommutative_refused(self, tensorB):
        r = tensorB.generator("e1").outer(tensorB.generator("e2"))
        with pytest.raises(ValueError, match="commutative"):
            make_exp_udf(r, order=2)

    def test_udf_normalization(self, moyal_udf, B2):
        # (eps @ id)F = 1 = (id @ eps)F, order by order
        from udeform.twist import series_counit

        one = TruncSeries.constant(B2.one(1), moyal_udf.order)
        assert series_counit(moyal_udf.series, 1) == one
        assert series_counit(moyal_udf.series, 2) == one


class TestGauge:
    def test_identity_gauge(self, moyal_udf, B2):
        G = GaugeElement(TruncSeries.constant(B2.one(1), moyal_udf.order))
        assert gauge_transform(moyal_udf, G).series == moyal_udf.series

    def test_primitive_exponents_cancel(self, B1):
        # F = 1@1, G = exp(tp): Delta(G)(G^-1@G^-1) = 1@1 exactly
        p = B1.generator("p")
        order = 4
        G = GaugeElement(series_from_orders(B1, 1, order, {1: p}).exp())
        F = UDF(TruncSeries.constant(B1.one(2), order))
        got = gauge_transform(F, G)
        assert got.series == TruncSeries.constant(B1.one(2), order)

    def test_gauge_of_symmetric_twist_changes_it_but_stays_valid(self, B1):
        p = B1.generator("p")
        order = 3  # slot degrees reach 2*order, which must stay within cutoff 6
        F = make_exp_udf(p.outer(p), order=order)
        G = GaugeElement(series_from_orders(B1, 1, order, {1: p * p}).exp())
        got = gauge_transform(F, G)
        assert got.series != F.series
        assert got.series.coeffs[1] != F.series.coeffs[1]
        assert d1_passes(got.check(counital=True))

    def test_gauge_closure_sampled(self):
        # gauge coefficients of degree <= 2 at every order force slot degrees
        # up to 2N, so the ambient bialgebra is built with cutoff 12
        order = 6
        B = construct_bialgebra(
            BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 2 * order
        )
        F = make_exp_udf(antisym(B).scale(QQ(1, 2)), order=order)
        rng = random.Random(11)
        # counit-normalized gauges: sample away from the unit key
        keys = [k for k in B.basis_keys(2) if k != B.unit_key]
        for _ in range(5):
            coeffs = {}
            for k in range(1, order + 1):
                terms = {}
                for _ in range(2):
                    key = rng.choice(keys)
                    terms[(key,)] = QQ(rng.choice([-2, -1, 1, 2]))
                coeffs[k] = B.tensor(1, terms)
            G = GaugeElement(
                series_from_orders(B, 1, order, {0: B.one(1), **coeffs})
            )
            got = gauge_transform(F, G)
            assert got.check(counital=True).passed


class TestAdditivePicture:
    def test_trivial(self, B2):
        F = UDF(TruncSeries.constant(B2.one(2), 4))
        f = to_additive(F)
        assert f.series.is_zero()

    def test_moyal_log(self, moyal_udf):
        f = to_additive(moyal_udf)
        r = antisym(moyal_udf.parent).scale(QQ(1, 2))
        expected = series_from_orders(moyal_udf.parent, 2, moyal_udf.order, {1: r})
        assert f.series == expected

    def test_primitive_tensors_solve_the_additive_equation(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        for r in (p1.outer(p2), p2.outer(p2), antisym(B2), p1.outer(p1) + p1.outer(p2)):
            f = AdditiveTwist(series_from_orders(B2, 2, 3, {1: r}))
            assert additive_twist_equation(f).passed

    def test_roundtrip_on_shipped_udfs(self, moyal_udf, B1):
        for F in (moyal_udf, make_exp_udf(B1.generator("p").outer(B1.generator("p")), 5)):
            assert from_additive(to_additive(F)).series == F.series

    def test_noncommutative_requires_order_one(self, tensorB):
        one = tensorB.one(2)
        F1 = UDF(TruncSeries.constant(one, 1))
        assert to_additive(F1).series.is_zero()  # order 1: square-zero ideal
        F2 = UDF(TruncSeries.constant(one, 2))
        with pytest.raises(ValueError):
            to_additive(F2)

    def test_additive_gauge_identity(self, B2):
        f = AdditiveTwist(series_from_orders(B2, 2, 3, {1: antisym(B2)}))
        zero_g = series_from_orders(B2, 1, 3, {})
        assert additive_gauge(f, zero_g).series == f.series

    def test_symmetric_class_is_gauge_trivial(self, B1):
        # f = t(p@p) dies against g = -(t/2)p^2 since Delta-bar(p^2) = 2 p@p
        p = B1.generator("p")
        f = AdditiveTwist(series_from_orders(B1, 2, 3, {1: p.outer(p)}))
        g = series_from_orders(B1, 1, 3, {1: (p * p).scale(QQ(-1, 2))})
        assert additive_gauge(f, g).series.is_zero()

    def test_antisymmetric_part_is_gauge_invariant(self, B2):
        f = AdditiveTwist(series_from_orders(B2, 2, 4, {1: antisym(B2)}))
        rng = random.Random(5)
        keys = B2.basis_keys(3)
        for _ in range(5):
            terms = {(rng.choice(keys),): QQ(rng.choice([-2, 1, 3]))}
            g = series_from_orders(B2, 1, 4, {1: B2.tensor(1, terms)})
            moved = additive_gauge(f, g)
            diff = moved.series - f.series
            # commutative B: the gauge image is symmetric, so the
            # antisymmetric component never moves
            anti = diff - diff.map_coeffs(lambda c: c.permute((2, 1)))
            assert anti.is_zero()

    def test_equivalence_of_pictures_both_ways(self, B2, moyal_udf):
        # valid side
        f = to_additive(moyal_udf)
        assert additive_twist_equation(f).passed
        # invalid side: a non-solution f whose exp fails (d1)
        p1 = B2.generator("p1")
        bad = AdditiveTwist(
            series_from_orders(B2, 2, 3, {1: p1.outer(p1 * p1)})
        )
        assert not additive_twist_equation(bad).passed
        F = from_additive(bad)
        assert not d1_passes(F.check(counital=False))


class TestRescale:
    def test_identity(self, moyal_udf, B2):
        F0 = moyal_udf.series.coeffs[0]  # 1@1 as a plain tensor
        got, a = rescale(F0, QQ(1))
        assert got == F0 and a == 1

    def test_double_unit_pair_rejected(self, B2):
        F = B2.one(2).scale(2)
        with pytest.raises(ValueError, match="rescaled twist fails"):
            rescale(F, QQ(1, 2))

    def test_zero_rejected(self, B2):
        with pytest.raises(ValueError):
            rescale(B2.one(2), 0)

    def test_inconsistent_pair_rejected(self, B2):
        with pytest.raises(ValueError, match="eps"):
            rescale(B2.one(2).scale(2), QQ(1, 3))


class TestFunctionalEquation:
    def test_constant_one(self):
        rep = check_functional_equation(Polynomial.constant(1))
        assert rep.passed

    def test_exp_bivariate(self):
        u1u2 = Polynomial.variable("u1") * Polynomial.variable("u2")
        F = TruncSeries(
            [Polynomial.constant(0), u1u2.scale(QQ(2)), Polynomial.constant(0)]
        ).exp()
        rep = check_functional_equation(F)
        assert rep.passed

    def test_one_plus_u1u2_fails(self):
        F = Polynomial.constant(1) + Polynomial.variable("u1") * Polynomial.variable("u2")
        rep = check_functional_equation(F)
        assert not rep.passed
        witness = rep.entries[0].witness
        assert witness["monomial"] in ("u1^2*u2*u3", "u1*u2*u3^2")

    def test_dictionary_matches_check_twisting(self, B1):
        p = B1.generator("p")
        cases = [
            (UDF(TruncSeries.constant(B1.one(2), 4)), True),
            (make_exp_udf(p.outer(p), order=4), True),
            (
                UDF(series_from_orders(B1, 2, 4, {0: B1.one(2), 1: p.outer(B1.one(1))})),
                False,
            ),
        ]
        for F, expected in cases:
            twist_ok = d1_passes(F.check(counital=False))
            func_ok = check_functional_equation(to_bivariate(F)).entries[0].ok
            assert twist_ok == func_ok == expected


class TestFirstOrderGauge:
    def test_recovers_a_known_gauge(self, B1):
        p = B1.generator("p")
        order = 2
        F = make_exp_udf(p.outer(p), order=order)
        G = GaugeElement(
            series_from_orders(
                B1, 1, order, {0: B1.one(1), 1: (p * p).scale(QQ(1, 3))}
            )
        )
        F2 = gauge_transform(F, G)
        g1 = first_order_gauge(F, F2, degree_bound=3)
        assert g1 is not None
        img = g1.apply_coproduct(1) - B1.one(1).outer(g1) - g1.outer(B1.one(1))
        assert img == F2.series.coeffs[1] - F.series.coeffs[1]

    def test_no_gauge_between_inequivalent(self, B2, moyal_udf):
        trivial = UDF(TruncSeries.constant(B2.one(2), moyal_udf.order))
        assert first_order_gauge(trivial, moyal_udf, degree_bound=4) is None


class TestNonCounitalVariant:
    def test_symmetric_check_without_counit(self):
        # the route for structures that need no constants: a non-counital,
        # cocommutative bialgebra with a symmetric twist; (d2) is not required
        B = construct_bialgebra(
            BialgebraSpec("polynomial-primitive", ["p"], counital=False), 6
        )
        p = B.generator("p")
        F = make_exp_udf(p.outer(p), order=4)
        rep = F.check(counital=False, symmetric=True)
        assert rep.passed
        labels = [e.label for e in rep.entries]
        assert all(not l.startswith("(d2)") for l in labels)

    def test_counital_option_needs_a_counital_parent(self):
        from udeform.bialgebra import CounitUnavailable

        B = construct_bialgebra(
            BialgebraSpec("polynomial-primitive", ["p"], counital=False), 4
        )
        F = UDF(TruncSeries.constant(B.one(2), 2))
        with pytest.raises(CounitUnavailable):
            check_twisting(F, counital=True)


# ---------------------------------------------------------------------------
# negative controls: a twist perturbed at order k fails first at order k
# ---------------------------------------------------------------------------

CONTROL_ORDER = 3


def _control_twists():
    """(B, F) for a Moyal twist over polynomial-primitive and the trivial
    twist over tensor-primitive and matrix-coordinate, all mod t^4; each
    cutoff holds every product the check forms with X of slot degree <= 2,
    X * X at order 2k <= 3 included."""
    P = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 6)
    T = construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), 4)
    M = construct_bialgebra(BialgebraSpec("matrix-coordinate"), 4)
    return [
        (P, make_exp_udf(antisym(P).scale(QQ(1, 2)), order=CONTROL_ORDER).series),
        (T, TruncSeries.constant(T.one(2), CONTROL_ORDER)),
        (M, TruncSeries.constant(M.one(2), CONTROL_ORDER)),
    ]


CONTROL_TWISTS = _control_twists()


@st.composite
def _perturbations(draw):
    B, F = draw(st.sampled_from(CONTROL_TWISTS))
    keys = B.basis_keys(2)
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(keys), st.sampled_from(keys)),
        st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4)]),
        min_size=1, max_size=4,
    ))
    return B, F, draw(st.integers(1, CONTROL_ORDER)), B.tensor(2, terms)


def _perturbed(F, k, X):
    coeffs = list(F.coeffs)
    coeffs[k] = coeffs[k] + X
    return TwistingElement(TruncSeries(coeffs))


@settings(max_examples=60, deadline=None)
@given(_perturbations())
def test_perturbed_twist_fails_d1_first_at_k_by_the_additive_operator(case):
    # F' = F + t^k X: below order k F' is F, and at order k the two sides
    # of (d1) differ by the additive twist operator applied to X
    B, F, k, X = case
    one = B.one(1)
    predicted = X.apply_coproduct(1) + X.outer(one) - X.apply_coproduct(2) - one.outer(X)
    assume(predicted)
    d1 = check_twisting(_perturbed(F, k, X), counital=False).entries[0]
    assert not d1.ok
    assert d1.witness == {"first_failing_order": k, "difference": predicted.render()}


@settings(max_examples=60, deadline=None)
@given(_perturbations())
def test_perturbed_twist_fails_d2_first_at_k_on_the_nonzero_side(case):
    B, F, k, X = case
    left, right = X.apply_counit(1), X.apply_counit(2)
    d2 = check_twisting(_perturbed(F, k, X), counital=True).entries[1]
    assert d2.label == "(d2) counit normalization"
    if not (left or right):
        assert d2.ok
        return
    assert not d2.ok
    assert d2.witness == {"first_failing_order": k, "side": "left" if left else "right"}


def test_perturbations_reach_both_branches():
    # the controls are not vacuous: some X fail (d1) and each (d2) side
    P, F = CONTROL_TWISTS[0][0], CONTROL_TWISTS[0][1]
    p1, one = P.generator("p1"), P.one(1)
    X = p1.outer(p1 * p1)  # the additive operator gives -2 p1@p1@p1
    d1, d2 = check_twisting(_perturbed(F, 2, X), counital=True).entries[:2]
    assert d1.witness == {"first_failing_order": 2, "difference": "-2*p1@p1@p1"}
    assert d2.ok
    d2 = check_twisting(_perturbed(F, 1, one.outer(p1)), counital=True).entries[1]
    assert d2.witness == {"first_failing_order": 1, "side": "left"}
    d2 = check_twisting(_perturbed(F, 3, p1.outer(one)), counital=True).entries[1]
    assert d2.witness == {"first_failing_order": 3, "side": "right"}


# ---------------------------------------------------------------------------
# (d1) order by order against both sides built in full
# ---------------------------------------------------------------------------

def _exp_bases():
    """(B, exp(t r)) mod t^(N+1) for a few r over polynomial-primitive
    (N = 4) and tensor-primitive (N = 3, r on one generator, so exp(t r) is
    a twist there too); each cutoff holds every product (d1) forms once an
    order-k coefficient, k >= 1, gains an X of slot degree <= 2."""
    P = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 6)
    T = construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), 4)
    p1, p2 = P.generator("p1"), P.generator("p2")
    x = T.generator("x")
    bases = [
        (P, 4, antisym(P).scale(QQ(1, 2))),
        (P, 4, p1.outer(p1) + p1.outer(p2).scale(QQ(2)) - p2.outer(p1)),
        (T, 3, x.outer(x)),
        (T, 3, x.outer(x).scale(QQ(-1, 3))),
    ]
    return [(B, series_from_orders(B, 2, N, {1: r}).exp()) for B, N, r in bases]


EXP_BASES = _exp_bases()


@st.composite
def _exp_perturbations(draw):
    # the order-k coefficient of exp(t r) plus a random X; X = 0 leaves a twist
    B, s = draw(st.sampled_from(EXP_BASES))
    keys = B.basis_keys(2)
    X = B.tensor(2, draw(st.dictionaries(
        st.tuples(st.sampled_from(keys), st.sampled_from(keys)),
        st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4)]),
        max_size=4,
    )))
    k = draw(st.integers(1, s.order))
    coeffs = list(s.coeffs)
    coeffs[k] = coeffs[k] + X
    return TruncSeries(coeffs)


def _parts_per_order(s):
    """{t-order: number of grade parts} over the nonzero coefficients of s,
    and whether the series holds more than one grade."""
    graded = {k: twist._graded(c) for k, c in enumerate(s.coeffs) if c}
    grades = {g for parts in graded.values() for g, _ in parts}
    return {k: len(parts) for k, parts in graded.items()}, len(grades) > 1


def _pairs(count, k):
    return sum(n * count[k - i] for i, n in count.items() if k - i in count)


@settings(max_examples=60, deadline=None)
@given(_exp_perturbations())
def test_orderwise_d1_matches_both_sides_built_in_full(s):
    want = CheckReport("twisting element")
    reference_series_identity(want, "(d1) cocycle identity", *cocycle_sides(s))
    want = want.entries[0]
    # the t-order of every composition check_twisting forms, in the grade
    # blocks and in the unsplit route
    slot = {id(c): k for k, c in enumerate(s.coeffs) if c}
    blocks, whole = [], []
    graded = twist._graded

    def split(c):
        parts = graded(c)
        slot.update((id(part), slot[id(c)]) for _, part in parts)
        return parts

    def block_counted(acc, num, u, i, v, products):
        blocks.append(slot[id(u)] + slot[id(v)])
        return add_circ_B(acc, num, u, i, v, products)

    def counted(u, i, v):
        whole.append(slot[id(u)] + slot[id(v)])
        return circ_B(u, i, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twist, "_graded", split)
        mp.setattr(twist, "add_circ_B", block_counted)
        mp.setattr(twist, "circ_B", counted)
        got = check_twisting(TwistingElement(s), counital=False).entries[0]
    assert (got.ok, got.witness) == (want.ok, want.witness)
    last = s.order if got.ok else got.witness["first_failing_order"]
    assert max(blocks + whole) == last
    parts, split_up = _parts_per_order(s)
    ones = dict.fromkeys(parts, 1)
    if not split_up:
        # one grade: the unsplit route decides every order
        assert not blocks
        assert len(whole) == 2 * sum(_pairs(ones, k) for k in range(last + 1))
        return
    # every block of the orders below `last`; at a failing order, the blocks
    # up to the first nonzero one, then that order unsplit for its witness
    for k in range(last):
        assert blocks.count(k) == 2 * _pairs(parts, k)
    if got.ok:
        assert blocks.count(last) == 2 * _pairs(parts, last) and not whole
    else:
        assert 2 <= blocks.count(last) <= 2 * _pairs(parts, last)
        assert whole == [last] * (2 * _pairs(ones, last))


def test_d1_holds_one_order_not_both_sides(B3):
    # the traced peak of the check stays below what the two full sides of
    # (d1) hold once built; relative, so it holds on any machine
    gens = B3.spec.generators
    r = sum(
        (B3.generator(a).outer(B3.generator(b)) - B3.generator(b).outer(B3.generator(a))
         for i, a in enumerate(gens) for b in gens[i + 1:]),
        B3.zero(2),
    )
    F = make_exp_udf(r.scale(QQ(1, 2)), order=6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert check_twisting(F, counital=False).passed
        check_peak = tracemalloc.get_traced_memory()[1] - base
        before = tracemalloc.get_traced_memory()[0]
        sides = cocycle_sides(F.series)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sides[0] == sides[1]
    assert check_peak < held


def test_d1_blocks_hold_at_most_half_the_unsplit_peak():
    # the traced peak of check_twisting, which decides (d1) one grade block
    # at a time, against the unsplit order-by-order route on the same F, on
    # 3 generators at order 7; relative, so it holds on any machine
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2", "p3"]), 7)
    gens = B.spec.generators
    r = sum(
        (B.generator(a).outer(B.generator(b)) - B.generator(b).outer(B.generator(a))
         for i, a in enumerate(gens) for b in gens[i + 1:]),
        B.zero(2),
    )
    s = make_exp_udf(r.scale(QQ(1, 2)), order=7).series
    peaks = []
    tracemalloc.start()
    try:
        for decide in (
            lambda: check_twisting(TwistingElement(s), counital=False).passed,
            lambda: twist.first_failing_difference(7, [(twist._cocycle_parts, s, s)]) is None,
        ):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert decide()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert 2 * peaks[0] <= peaks[1]


# ---------------------------------------------------------------------------
# (d1) in grade blocks: the grade, and the block route against both sides
# ---------------------------------------------------------------------------

def _graded_bialgebras():
    """Both graded kinds at cutoff 4, and the kinds that stay at grade 0."""
    return [
        construct_bialgebra(BialgebraSpec(*args, **kwargs), 4)
        for args, kwargs in (
            (("polynomial-primitive", ["p1", "p2", "p3"]), {}),
            (("tensor-primitive", ["x", "y"]), {}),
            (("matrix-coordinate",), {}),
            (("monoid", ["a", "b"]), {}),
            (("monoid",), {"monoid_table": IDEMPOTENT_TABLE}),
        )
    ]


GRADED_BIALGEBRAS = _graded_bialgebras()


@st.composite
def _key_pairs(draw):
    B = draw(st.sampled_from(GRADED_BIALGEBRAS))
    keys = B.basis_keys(B.cutoff)
    k1 = draw(st.sampled_from(keys))
    k2 = draw(st.sampled_from([k for k in keys if B.degree(k1) + B.degree(k) <= B.cutoff]))
    return B, k1, k2


@settings(max_examples=200, deadline=None)
@given(_key_pairs())
def test_grade_adds_across_products_and_coproduct_terms(case):
    B, k1, k2 = case
    slot, grade = B.codec.slot, B.grade
    assert grade(slot(B.product_single(k1, k2))) == grade(slot(k1)) + grade(slot(k2))
    for (left, right) in B.coproduct_key(k1):
        assert grade(slot(left)) + grade(slot(right)) == grade(slot(k1))
    if B.spec.kind not in ("polynomial-primitive", "tensor-primitive"):
        assert grade(slot(k1)) == 0


def test_grade_reads_the_first_generator():
    P, T = GRADED_BIALGEBRAS[:2]
    p1, p2 = P.generator("p1"), P.generator("p2")
    (code,) = (p1 * p1 * p2).codes
    assert P.grade(code) == 2
    (code,) = T.tensor(1, {(T.parse_key("x*y*x"),): QQ(1)}).codes
    assert T.grade(code) == 2


def _cutoff_bases():
    """(B, F) mod t^4 at cutoff 3, so that products of a perturbed
    coefficient may pass the cutoff: the trivial twist and exp(t r) on
    polynomial-primitive, and on tensor-primitive the trivial twist, the
    twist exp(t x@x) and the non-twist exp(t r)."""
    P = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 3)
    T = construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), 3)
    x, y = T.generator("x"), T.generator("y")
    bases = [
        (P, P.zero(2)),
        (P, antisym(P).scale(QQ(1, 2))),
        (T, T.zero(2)),
        (T, x.outer(x)),
        (T, x.outer(y) - y.outer(x)),
    ]
    return [(B, series_from_orders(B, 2, 3, {1: r}).exp()) for B, r in bases]


CUTOFF_BASES = _cutoff_bases()


@st.composite
def _cutoff_perturbations(draw):
    # X = c (Delta g - g@1 - 1@g) plus a few random terms, added at a random
    # order k: the first part adds nothing to (d1) at order k, so a check
    # may pass k and form X o_i X or X o_i F_j past the cutoff above it
    B, s = draw(st.sampled_from(CUTOFF_BASES))
    keys = B.basis_keys(2)
    scalars = st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4)])
    g, one = B.element({draw(st.sampled_from(B.basis_keys(3))): QQ(1)}), B.one(1)
    X = (g.apply_coproduct(1) - g.outer(one) - one.outer(g)).scale(draw(scalars))
    X = X + B.tensor(2, draw(st.dictionaries(
        st.tuples(st.sampled_from(keys), st.sampled_from(keys)), scalars, max_size=3,
    )))
    coeffs = list(s.coeffs)
    k = draw(st.integers(1, s.order))
    coeffs[k] = coeffs[k] + X
    return TruncSeries(coeffs)


def _outcome(decide):
    """(ok, witness) of the (d1) entry `decide` returns, or the text of the
    CutoffError it raises."""
    try:
        entry = decide()
    except CutoffError as exc:
        return "CutoffError: %s" % exc
    return entry.ok, entry.witness


def _entry(add, *args):
    report = CheckReport("twisting element")
    add(report, "(d1) cocycle identity", *args)
    return report.entries[0]


@settings(max_examples=150, deadline=None)
@given(_cutoff_perturbations())
def test_d1_blocks_match_both_sides_and_the_unsplit_route(s):
    got = _outcome(lambda: check_twisting(TwistingElement(s), counital=False).entries[0])
    # the unsplit order-by-order route, byte for byte, CutoffError text included
    assert got == _outcome(lambda: _entry(
        twist.add_series_identity, s.order, [(twist._cocycle_parts, s, s)]))
    # both sides built in full: the same verdict and witness; where they
    # pass the cutoff, the orderwise check forms the same product at that
    # order, so it raises there too unless it failed below
    want = _outcome(lambda: _entry(reference_series_identity, *cocycle_sides(s)))
    if isinstance(want, str):
        assert isinstance(got, str) or not got[0]
    else:
        assert got == want


# ---------------------------------------------------------------------------
# the twist identities through the operad against the hand-built route
# ---------------------------------------------------------------------------

def _operad_bialgebras():
    """The five kinds at cutoffs 2 and 3; the pools hold the basis keys one
    degree below the cutoff, so that some products pass it and most do not."""
    out = []
    for cutoff in (2, 3):
        for args, kwargs in (
            (("polynomial-primitive", ["p", "q"]), {}),
            (("tensor-primitive", ["x", "y"]), {}),
            (("matrix-coordinate",), {}),
            (("monoid", ["a", "b"]), {}),
            (("monoid",), {"monoid_table": IDEMPOTENT_TABLE}),
        ):
            B = construct_bialgebra(BialgebraSpec(*args, **kwargs), cutoff)
            out.append((B, B.basis_keys(cutoff - 1)))
    return out


OPERAD_BIALGEBRAS = _operad_bialgebras()
SERIES_ORDER = 2


@st.composite
def _tensor_series(draw, B, pool, arity):
    # few keys per slot, so that terms share slots and their products merge
    # and cancel; a coefficient may be zero and the t^0 slot need not be 1
    slots = [
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        for _ in range(arity)
    ]
    keys = st.tuples(*(st.sampled_from(slot) for slot in slots))
    coeffs = st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(-1, 2), QQ(2, 3)])
    return TruncSeries([
        B.tensor(arity, draw(st.dictionaries(keys, coeffs, max_size=3)))
        for _ in range(SERIES_ORDER + 1)
    ])


@st.composite
def _twist_cases(draw):
    B, pool = draw(st.sampled_from(OPERAD_BIALGEBRAS))
    return B, draw(_tensor_series(B, pool, 2)), draw(_tensor_series(B, pool, 1))


def _agree_or_cutoff(new, hand):
    """The operad route gives the hand-built value, or raises CutoffError:
    it forms every slot product of the hand route before any cancellation,
    so it raises wherever the hand route does, and may raise where that
    route's cancellations avoid a product past the cutoff."""
    try:
        want = hand()
    except CutoffError:
        with pytest.raises(CutoffError):
            new()
        return
    try:
        got = new()
    except CutoffError:
        return
    assert got == want


@settings(max_examples=200, deadline=None)
@given(_twist_cases())
def test_twist_identities_through_the_operad_match_the_hand_route(case):
    B, s, g = case
    # (d1): F o_1 F and F o_2 F, in check_twisting and pass_udf; the t^0
    # slot is the rescaling test's circ_B(F0, i, F0)
    _agree_or_cutoff(lambda: cocycle_sides(s), lambda: hand_cocycle_sides(s))
    # the gauge action and the triple condition: Delta(G) F = G o_1 F
    _agree_or_cutoff(lambda: series_circ(g, 1, s), lambda: coproduct_series(g, 1) * s)
    # the additive picture, with its witness: f o_1 f = f o_2 f in circ_b
    one = TruncSeries.constant(B.one(1), SERIES_ORDER)
    want = CheckReport("additive twist equation")
    reference_series_identity(
        want, "additive cocycle identity",
        coproduct_series(s, 1) + series_outer(s, one),
        coproduct_series(s, 2) + series_outer(one, s),
    )
    assert additive_twist_equation(s).to_json() == want.to_json()
