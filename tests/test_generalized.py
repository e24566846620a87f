import itertools

import pytest
from hypothesis import given, settings, strategies as st

from udeform.kernel import Monomial, Polynomial, QQ, TruncSeries
from udeform.bialgebra import BialgebraSpec, CutoffError, construct_bialgebra
from udeform.operad import circ_B
from udeform.twist import (
    GaugeElement,
    gauge_transform,
    make_exp_udf,
    series_from_orders,
)
from udeform.deform import PolynomialTruncatedAlgebra, action_from_derivations
from udeform import cli
from udeform.fixtures import emit_example
from udeform.kernel import add_term
from udeform.linalg import ForwardSpan
from udeform.generalized import (
    AlgebraMorphism,
    BialgebraMorphism,
    DiagramArrow,
    DiagramNode,
    DiagramSpec,
    FreePAssAlgebra,
    TernaryAction,
    TernaryDerivation,
    TernaryTwist,
    TwistTriple,
    TwistedTernaryProduct,
    check_partial_assoc,
    diagram_compat_check,
    diagram_twist_check,
    interchange_check,
    morphism_image_check,
    pass_udf,
)

from conftest import (
    antisym,
    bench_job,
    coproduct_series,
    guard_shape_builds,
    labeled_quotient,
    labeled_relation,
    raw_tree_count,
    twisted_ternary,
)


class TestFreePAss:
    def test_planar_one_generator_dimensions(self):
        P = FreePAssAlgebra(["x"], 7, symmetric=False)
        assert P.dimension(1) == 1
        assert P.dimension(3) == 1
        assert raw_tree_count(["x"], 5, symmetric=False) == 3
        assert P.dimension(5) == 2

    def test_symmetric_two_generators_multisets(self):
        P = FreePAssAlgebra(["p", "q"], 3, symmetric=True)
        assert P.dimension(3) == 4  # multisets {ppp, ppq, pqq, qqq}

    def test_symmetric_collapses_in_characteristic_zero(self):
        # all three bracketings of equal arguments coincide, so the single
        # relation instance reads 3T = 0 and the quotient dies at 5 leaves
        P = FreePAssAlgebra(["x"], 5, symmetric=True)
        assert raw_tree_count(["x"], 5, symmetric=True) == 1
        assert P.dimension(5) == 0

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            FreePAssAlgebra(["x"], 9, symmetric=False)
        with pytest.raises(ValueError):
            FreePAssAlgebra(["x"], 4, symmetric=False)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("leaves", [0, 2, 4, -1])
    def test_even_or_nonpositive_leaf_count_rejected(self, leaves, symmetric):
        P = FreePAssAlgebra(["p", "q"], 5, symmetric)
        for query in (P.basis, P.dimension):
            with pytest.raises(ValueError, match="not %d" % leaves):
                query(leaves)

    def test_relations_are_leaf_homogeneous(self):
        P = FreePAssAlgebra(["p", "q"], 5, symmetric=False)
        x, q = P.generator("p"), P.generator("q")
        elem = P.ternary(x, q, P.ternary(x, x, x)) + x.scale(2)

        def leaves(tree):
            return 1 if isinstance(tree, int) else sum(map(leaves, tree))

        assert sorted({leaves(t) for t in elem.terms}) == [1, 5]

    def test_quotient_reduction_is_canonical(self):
        P = FreePAssAlgebra(["x"], 5, symmetric=False)
        x = P.generator("x")
        cube = P.ternary(x, x, x)
        t1 = P.ternary(cube, x, x)
        t2 = P.ternary(x, cube, x)
        t3 = P.ternary(x, x, cube)
        # the relation sum reduces to zero in the quotient
        assert (t1 + t2 + t3) == 0
        assert P.dimension(5) == 2

    def test_structure_constants(self):
        P = FreePAssAlgebra(["p", "q"], 3, symmetric=True)
        p = P.generator("p")
        sc = dict(P.ternary(p, p, p).terms)
        assert list(sc.values()) == [QQ(1)]

    def test_element_merges_trees_that_normalize_alike(self):
        P = FreePAssAlgebra(["x", "y"], 3, True)
        merged = P.element({("x", "y", "x"): 1, ("y", "x", "x"): 1})
        assert merged.render() == "2*(x,x,y)"
        assert P.element({"x": 1, 0: 1}).render() == "2*x"


class TestPassUdf:
    def test_trivial(self, B2):
        from udeform.twist import UDF

        F = UDF(TruncSeries.constant(B2.one(2), 2))
        H = pass_udf(F)
        assert H.series == TruncSeries.constant(B2.one(3), 2)

    def test_order_t_exponent_matches_the_ternary_bracket(self, B2):
        F = make_exp_udf(antisym(B2), order=1)
        H = pass_udf(F)
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        one = B2.one(1)
        f = antisym(B2)
        bracket = (
            f.outer(one)
            + p1.outer(one).outer(p2)
            - p2.outer(one).outer(p1)
            + one.outer(f)
        )
        assert H.series.coeffs[1] == bracket

    def test_full_exponential_form(self, B2):
        # in the commutative case H = exp(t * bracket) at every order
        F = make_exp_udf(antisym(B2), order=3)
        H = pass_udf(F)
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        one = B2.one(1)
        f = antisym(B2)
        bracket = (
            f.outer(one)
            + p1.outer(one).outer(p2)
            - p2.outer(one).outer(p1)
            + one.outer(f)
        )
        expected = series_from_orders(B2, 3, 3, {1: bracket}).exp()
        assert H.series == expected

    def test_composites_agree_for_moyal(self, moyal_udf):
        from udeform.twist import series_circ

        h1 = series_circ(moyal_udf.series, 1, moyal_udf.series)
        h2 = series_circ(moyal_udf.series, 2, moyal_udf.series)
        assert TruncSeries(h1.coeffs[:4]) == TruncSeries(h2.coeffs[:4])

    def test_non_twist_rejected(self, B2):
        from udeform.twist import UDF

        p1 = B2.generator("p1")
        bad = UDF(
            series_from_orders(B2, 2, 2, {0: B2.one(2), 1: p1.outer(B2.one(1))})
        )
        with pytest.raises(ValueError, match="o_1"):
            pass_udf(bad)


@pytest.fixture(scope="module")
def ternaryB():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 4)


@pytest.fixture(scope="module")
def cubing_action(ternaryB):
    P = FreePAssAlgebra(["p", "q"], 7, symmetric=True)
    action = TernaryAction(
        ternaryB,
        P,
        {
            "p1": {"p": {("p", "p", "p"): 1}},
            "p2": {"q": {("q", "q", "q"): 1}},
        },
    )
    return action


def _to_index_coords(P, action_images):
    return action_images


class TestTernaryDerivations:
    def test_cubing_derivations_commute(self, cubing_action):
        ops = [cubing_action.images[n] for n in ("p1", "p2")]
        assert ops[0].commutes_with(ops[1])

    def test_unknown_generator_rejected(self):
        P = FreePAssAlgebra(["p", "q"], 3, symmetric=True)
        with pytest.raises(KeyError, match="unknown generator 'zz'"):
            TernaryDerivation(P, {"zz": {"p": 1}})

    def test_noncommuting_rejected(self, ternaryB):
        # on the planar carrier theta2(theta1(p)) = (p,(q,q,q),q) + (p,q,(q,q,q))
        # survives while theta1(theta2(p)) = 0 (on the symmetric carrier both
        # sides collapse to zero, so the planar algebra is the honest probe)
        P = FreePAssAlgebra(["p", "q"], 5, symmetric=False)
        with pytest.raises(ValueError, match="commute"):
            TernaryAction(
                ternaryB,
                P,
                {
                    "p1": {"p": {("p", "q", "q"): 1}},
                    "p2": {"q": {("q", "q", "q"): 1}},
                },
            )

    def test_three_slot_leibniz(self, cubing_action):
        P = cubing_action.A
        theta = cubing_action.images["p1"]
        p, q = P.generator("p"), P.generator("q")
        lhs = theta.apply(P.ternary(p, q, p))
        rhs = (
            P.ternary(theta.apply(p), q, p)
            + P.ternary(p, theta.apply(q), p)
            + P.ternary(p, q, theta.apply(p))
        )
        assert lhs == rhs


class TestTwistedTernary:
    def test_trivial_twist_is_the_plain_product(self, ternaryB, cubing_action):
        H = TernaryTwist(TruncSeries.constant(ternaryB.one(3), 1))
        P = cubing_action.A
        p, q = P.generator("p"), P.generator("q")
        got = twisted_ternary(H, cubing_action, p, q, q)
        assert got.coeffs[0] == P.ternary(p, q, q)
        assert not got.coeffs[1]

    def test_shipped_symmetric_example_mod_t2(self, ternaryB, cubing_action):
        F = make_exp_udf(antisym(ternaryB), order=1)
        H = pass_udf(F)
        prod = TwistedTernaryProduct(H, cubing_action)
        rep = check_partial_assoc(prod, cutoff=7, order=1)
        assert rep.passed, rep.render_text()

    def test_planar_euler_twist_mod_t2(self, ternaryB):
        # leaf-counting derivations keep leaf counts fixed, so the planar
        # (nondegenerate) carrier stays within the public cutoff
        P = FreePAssAlgebra(["p", "q"], 7, symmetric=False)
        action = TernaryAction(
            ternaryB,
            P,
            {"p1": {"p": {"p": 1}}, "p2": {"q": {"q": 1}}},
        )
        F = make_exp_udf(antisym(ternaryB), order=1)
        H = pass_udf(F)
        prod = TwistedTernaryProduct(H, action)
        p, q = P.generator("p"), P.generator("q")
        first = prod.product(p, q, q)
        assert first.coeffs[1]  # genuinely deformed
        rep = check_partial_assoc(prod, cutoff=5, order=1)
        assert rep.passed, rep.render_text()

    def test_corrupted_twist_fails_with_witness(self, ternaryB):
        P = FreePAssAlgebra(["p", "q"], 5, symmetric=False)
        action = TernaryAction(
            ternaryB,
            P,
            {"p1": {"p": {"p": 1}}, "p2": {"q": {"q": 1}}},
        )
        F = make_exp_udf(antisym(ternaryB), order=1)
        H = pass_udf(F)
        # drop one summand of the order-t bracket
        p1, p2 = ternaryB.generator("p1"), ternaryB.generator("p2")
        one = ternaryB.one(1)
        corrupted = H.series.coeffs[1] - p1.outer(one).outer(p2)
        bad = TernaryTwist(
            series_from_orders(
                ternaryB, 3, 1, {0: ternaryB.one(3), 1: corrupted}
            )
        )
        prod = TwistedTernaryProduct(bad, action)
        rep = check_partial_assoc(prod, cutoff=5, order=1)
        assert not rep.passed
        witness = rep.entries[0].witness
        assert witness["first_failing_order"] == 1


class TestInterchange:
    def test_trivial_pair(self, B2):
        rep = interchange_check(B2.one(2), B2.one(2))
        assert rep.passed

    @pytest.mark.parametrize(
        "left,right", [("a", "b"), ("a", "a"), ("c", "d"), ("b", "c")]
    )
    def test_grouplike_pairs(self, monoid_free, left, right):
        F1 = monoid_free.generator(left).outer(monoid_free.generator(right))
        F2 = monoid_free.generator("c").outer(monoid_free.generator("d"))
        rep = interchange_check(F1, F2)
        assert rep.passed

    def test_grouplike_product_pairs(self, monoid_free):
        a, b = monoid_free.generator("a"), monoid_free.generator("b")
        c, d = monoid_free.generator("c"), monoid_free.generator("d")
        rep = interchange_check((a * b).outer(c), d.outer(a * a))
        assert rep.passed

    def test_perturbed_pair_fails_at_order_t(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        one2 = B2.one(2)
        F1 = series_from_orders(B2, 2, 2, {0: one2, 1: p1.outer(p2)})
        F2 = TruncSeries.constant(one2, 2)
        rep = interchange_check(F1, F2)
        assert not rep.passed
        witness = rep.entries[0].witness
        assert witness["first_failing_order"] == 1
        one = B2.one(1)
        expected = (
            p1.outer(one).outer(one).outer(p2)
            + one.outer(p2).outer(p1).outer(one)
        )
        got_lhs_minus_rhs = witness["difference"]
        assert got_lhs_minus_rhs == expected.render()


INTERCHANGE_BIALGEBRAS = [
    construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), cutoff)
    for cutoff in (3, 4)
]


@st.composite
def _interchange_pairs(draw):
    B = draw(st.sampled_from(INTERCHANGE_BIALGEBRAS))
    pool = B.basis_keys(2)
    keys = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    coeffs = st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(1, 2)])
    a, b = (B.tensor(2, draw(st.dictionaries(keys, coeffs, max_size=3)))
            for _ in range(2))
    return a, b


@settings(max_examples=150, deadline=None)
@given(_interchange_pairs())
def test_double_composition_is_the_hand_built_interchange_side(pair):
    # (a o_2 b) o_1 b = (Delta@Delta)(a) (b@b), the route interchange_check
    # takes for each side; the operad route forms every slot product of the
    # hand route before any cancellation, so it raises wherever that does
    a, b = pair
    try:
        want = a.apply_coproduct(1).apply_coproduct(3) * b.outer(b)
    except CutoffError:
        with pytest.raises(CutoffError):
            circ_B(circ_B(a, 2, b), 1, b)
        return
    try:
        got = circ_B(circ_B(a, 2, b), 1, b)
    except CutoffError:
        return
    assert got == want


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

def power_map_diagram(m, n, order, corrected=True, a2_cutoff=None, b_cutoff=None):
    B = construct_bialgebra(
        BialgebraSpec("polynomial-primitive", ["p1", "p2"]), b_cutoff or order
    )
    A1 = PolynomialTruncatedAlgebra(["p", "q"], 2)
    A2 = PolynomialTruncatedAlgebra(["p", "q"], a2_cutoff or max(2 * max(m, n) + 4, 8))
    act1 = action_from_derivations(
        B, A1, {"p1": {"p": Polynomial.variable("p")}, "p2": {"q": Polynomial.variable("q")}}
    )
    if corrected:
        images2 = {
            "p1": {"p": Polynomial.variable("p").scale(QQ(1, m))},
            "p2": {"q": Polynomial.variable("q").scale(QQ(1, n))},
        }
    else:
        images2 = {
            "p1": {"p": Polynomial({Monomial({"p": m}): QQ(1, m)})},
            "p2": {"q": Polynomial({Monomial({"q": n}): QQ(1, n)})},
        }
    act2 = action_from_derivations(B, A2, images2)
    h = AlgebraMorphism(
        A1,
        A2,
        {
            "p": A2.element({Monomial({"p": m}): 1}),
            "q": A2.element({Monomial({"q": n}): 1}),
        },
    )
    phi = BialgebraMorphism(B, B, {"p1": B.generator("p1"), "p2": B.generator("p2")})
    D = DiagramSpec(
        [DiagramNode("v1", B, A1, act1), DiagramNode("v2", B, A2, act2)],
        [DiagramArrow("v1", "v2", h, phi)],
    )
    return B, D


class TestDiagrams:
    def test_identity_arrow_passes(self, B2):
        A = PolynomialTruncatedAlgebra(["p", "q"], 3)
        act = action_from_derivations(B2, A, {"p1": {"p": 1}, "p2": {"q": 1}})
        h = AlgebraMorphism(A, A, {"p": A.variable("p"), "q": A.variable("q")})
        phi = BialgebraMorphism(
            B2, B2, {"p1": B2.generator("p1"), "p2": B2.generator("p2")}
        )
        D = DiagramSpec(
            [DiagramNode("v", B2, A, act)], [DiagramArrow("v", "v", h, phi)]
        )
        assert diagram_compat_check(D).passed

    def test_morphism_image_outside_the_target_rejected(self):
        A = PolynomialTruncatedAlgebra(["p", "q"], 3)
        with pytest.raises(ValueError, match="unknown variable 'z'"):
            AlgebraMorphism(A, A, {"p": A.variable("p"), "q": A.element({Monomial.parse("z"): 1})})

    def test_corrected_action_passes_compat(self):
        _, D = power_map_diagram(2, 3, order=4, corrected=True)
        assert diagram_compat_check(D).passed

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (2, 2)])
    def test_literal_action_fails_compat_with_witness(self, m, n):
        _, D = power_map_diagram(m, n, order=4, corrected=False)
        rep = diagram_compat_check(D, cutoff=4)
        assert not rep.passed
        bad = [e for e in rep.entries if not e.ok]
        assert bad and bad[0].witness["a"] in ("p", "q")

    def test_literal_action_passes_for_m_n_one(self):
        _, D = power_map_diagram(1, 1, order=4, corrected=False)
        assert diagram_compat_check(D).passed

    def test_trivial_triple(self, B2):
        A = PolynomialTruncatedAlgebra(["p", "q"], 3)
        act = action_from_derivations(B2, A, {"p1": {"p": 1}, "p2": {"q": 1}})
        h = AlgebraMorphism(A, A, {"p": A.variable("p"), "q": A.variable("q")})
        phi = BialgebraMorphism(
            B2, B2, {"p1": B2.generator("p1"), "p2": B2.generator("p2")}
        )
        D = DiagramSpec(
            [DiagramNode("v", B2, A, act)], [DiagramArrow("v", "v", h, phi)]
        )
        from udeform.twist import UDF

        order = 2
        one_udf = UDF(TruncSeries.constant(B2.one(2), order))
        triple = TwistTriple(one_udf, TruncSeries.constant(B2.one(1), order), one_udf)
        rep = diagram_twist_check(D, 0, triple, order=order)
        assert rep.passed, rep.render_text()

    def test_power_map_triple_mod_t4(self):
        B, D = power_map_diagram(2, 3, order=4, corrected=True)
        F = make_exp_udf(antisym(B), order=4)
        triple = TwistTriple(F, TruncSeries.constant(B.one(1), 4), F)
        rep = diagram_twist_check(D, 0, triple, order=4)
        assert rep.passed, rep.render_text()

    def test_triple_with_nontrivial_gauge(self):
        # gauge slot degrees reach 2*order, hence the wider bialgebra cutoff
        B, D = power_map_diagram(
            1, 1, order=3, corrected=True, a2_cutoff=8, b_cutoff=6
        )
        F2 = make_exp_udf(antisym(B), order=3)
        p1 = B.generator("p1")
        G = series_from_orders(B, 1, 3, {0: B.one(1), 1: p1 * p1})
        # choose F1 so that condition (ii) holds by construction:
        # Delta(G) F1 (G^-1 @ G^-1) = F2, i.e. F1 = Delta(G^-1)-conjugate of F2
        ginv = GaugeElement(G).inverse()
        from udeform.twist import UDF, series_outer

        F1 = UDF(
            coproduct_series(ginv, 1) * F2.series * series_outer(G, G)
        )
        triple = TwistTriple(F1, G, F2)
        rep = diagram_twist_check(D, 0, triple, order=3)
        assert rep.passed, rep.render_text()

    def test_morphism_image_profile(self):
        B, D = power_map_diagram(2, 3, order=2, corrected=True)
        F = make_exp_udf(antisym(B), order=2)
        triple = TwistTriple(F, TruncSeries.constant(B.one(1), 2), F)
        out = morphism_image_check(D, 0, triple, degree=2)
        assert out == {"injective": True, "surjective": False}
        B1, D1 = power_map_diagram(1, 1, order=2, corrected=True, a2_cutoff=2)
        F1 = make_exp_udf(antisym(B1), order=2)
        triple1 = TwistTriple(F1, TruncSeries.constant(B1.one(1), 2), F1)
        out1 = morphism_image_check(D1, 0, triple1, degree=2)
        assert out1 == {"injective": True, "surjective": True}

    @staticmethod
    def _linear_image_check(B2, images, degree):
        """morphism_image_check for h given by `images` between two planes of
        cutoff 2 with the same action, G = 1 and the trivial twists."""
        A1, A2 = (PolynomialTruncatedAlgebra(["p", "q"], 2) for _ in range(2))
        moyal = {"p1": {"p": 1}, "p2": {"q": 1}}
        h = AlgebraMorphism(A1, A2, {
            name: A2.element({Monomial.parse(k): c for k, c in img.items()})
            for name, img in images.items()
        })
        phi = BialgebraMorphism(
            B2, B2, {"p1": B2.generator("p1"), "p2": B2.generator("p2")}
        )
        D = DiagramSpec(
            [DiagramNode("v1", B2, A1, action_from_derivations(B2, A1, moyal)),
             DiagramNode("v2", B2, A2, action_from_derivations(B2, A2, moyal))],
            [DiagramArrow("v1", "v2", h, phi)],
        )
        from udeform.twist import UDF

        one_udf = UDF(TruncSeries.constant(B2.one(2), 1))
        triple = TwistTriple(one_udf, TruncSeries.constant(B2.one(1), 1), one_udf)
        return morphism_image_check(D, 0, triple, degree=degree)

    def test_morphism_image_with_dependent_images_is_not_injective(self, B2):
        # the images of p and q are distinct but h(q) = 2 h(p)
        out = self._linear_image_check(B2, {"p": {"p": 1}, "q": {"p": 2}}, 1)
        assert out == {"injective": False, "surjective": False}

    def test_morphism_image_that_misses_a_key_is_not_surjective(self, B2):
        # every key of degree <= 1 appears in some image, but p is not in the
        # span of 1, p + q, (p + q)^2, ...
        out = self._linear_image_check(B2, {"p": {"p": 1, "q": 1}, "q": {"p": 2, "q": 2}}, 1)
        assert out == {"injective": False, "surjective": False}

    def test_morphism_image_of_a_change_of_variables_is_bijective(self, B2):
        out = self._linear_image_check(B2, {"p": {"p": 1, "q": 1}, "q": {"p": 1, "q": -1}}, 2)
        assert out == {"injective": True, "surjective": True}


def test_cubing_action_fixes_the_pure_cube(ternaryB, cubing_action):
    # every order-t summand of the induced twist carries one p2-slot, which
    # kills anything built from p alone
    F = make_exp_udf(antisym(ternaryB), order=1)
    H = pass_udf(F)
    P = cubing_action.A
    p = P.generator("p")
    got = twisted_ternary(H, cubing_action, p, p, p)
    assert got.coeffs[0] == P.ternary(p, p, p)
    assert not got.coeffs[1]


def test_symmetric_dimension_profile_regression(cubing_action):
    P = cubing_action.A
    assert {n: P.dimension(n) for n in (1, 3, 5, 7)} == {1: 2, 3: 4, 5: 0, 7: 0}


# dim P(n) of the planar pAss operad at 1, 3, ..., 13 leaves, the values the
# one-generator labeled elimination gives; a labeling multiplies by g^n
PLANAR_OPERAD_DIMENSIONS = {1: 1, 3: 1, 5: 2, 7: 4, 9: 5, 11: 6, 13: 7}


def test_planar_two_generator_dimension_profile():
    cases = [(g, n) for g in (1, 2) for n in PLANAR_OPERAD_DIMENSIONS] + [(3, 7)]
    for generators, leaves in cases:
        P = FreePAssAlgebra(["x%d" % k for k in range(generators)], 7, False)
        expected = PLANAR_OPERAD_DIMENSIONS[leaves] * generators ** leaves
        assert P.dimension(leaves) == expected, (generators, leaves)
    assert FreePAssAlgebra(["x", "y", "z"], 7, False).dimension(7) == 8748


@pytest.mark.parametrize("generators,leaves", [(2, 5), (2, 7), (3, 5), (3, 7)])
def test_shape_quotient_matches_the_labeled_elimination(generators, leaves):
    # the library reduces a tree through its shape and carries its word; the
    # labeled-tree elimination must pick the same basis and representatives
    P = FreePAssAlgebra(["x%d" % k for k in range(generators)], leaves, False)
    for n, (trees, span) in labeled_quotient(generators, leaves, False).items():
        assert P.dimension(n) == len(trees) - span.rank
        assert P.basis(n) == [t for i, t in enumerate(trees) if i not in span.rows]
        for i, tree in enumerate(trees):
            rep, scale = span.reduce({i: 1})
            assert P.zero()._like(*P.reduce_coords({tree: 1}, 1)).terms == {
                trees[col]: QQ(x, scale) for col, x in rep.items()
            }


# the pAss quotients the two ternary bench jobs build: the t^1 coefficient of
# H acts on two slots and each cubing derivation adds two leaves, so planar
# products reach 9 leaves (a twist order past the truncation would add four
# more); a symmetric quotient is zero from 5 leaves and is never built there
BUILT_LEAF_COUNTS = {"ternary-planar-5": {1, 3, 5, 7, 9}, "ternary-sym-7": {1, 3}}


@pytest.mark.parametrize("name", sorted(BUILT_LEAF_COUNTS))
def test_ternary_bench_job_builds_only_the_leaf_counts_it_needs(name, monkeypatch):
    built = guard_shape_builds(monkeypatch, BUILT_LEAF_COUNTS[name])
    report, code = cli.run(bench_job(name))
    assert code == 0, report.to_json()
    assert built == BUILT_LEAF_COUNTS[name]


def test_planar_ternary_fixture_builds_shapes_only(monkeypatch):
    # the twisted products of the fixture reach 11 leaves, past the public
    # cutoff; a build over labeled trees fails the guard at one leaf
    doc = emit_example("ternary-quantum-plane")
    doc["inputs"]["pass_algebra"]["symmetric"] = False
    built = guard_shape_builds(monkeypatch)
    report, code = cli.run(doc)
    assert code == 0, report.to_json()
    assert max(built) == 11


@pytest.mark.parametrize(
    "generators,leaves",
    [(g, 5) for g in range(1, 5)] + [(g, 7) for g in (2, 3)],
)
def test_symmetric_shortcut_matches_the_elimination(generators, leaves):
    # the symmetric pAss operad is 0 in arity 5: its 10 two-node trees on
    # five distinct leaves are spanned by the 120 relation instances on them
    index, arity5 = {}, ForwardSpan()
    for labels in itertools.permutations(range(5)):
        vec = {}
        for tree in labeled_relation(*labels, symmetric=True):
            add_term(vec, index.setdefault(tree, len(index)), 1)
        arity5.add(vec)
    assert len(index) == arity5.rank == 10
    # so the library reports a zero quotient from 5 leaves on without
    # building it, where the labeled-tree elimination reaches full rank
    names = ["x%d" % k for k in range(generators)]
    P = FreePAssAlgebra(names, leaves, symmetric=True)
    quotient = labeled_quotient(generators, leaves, symmetric=True)
    for n, (trees, span) in quotient.items():
        assert len(trees) == raw_tree_count(names, n, symmetric=True)
        assert P.dimension(n) == len(trees) - span.rank
        assert P.basis(n) == [t for i, t in enumerate(trees) if i not in span.rows]
    top = quotient[leaves][0]
    assert top and P.dimension(leaves) == 0 and P.basis(leaves) == []
    assert P.element({t: QQ(k + 1) for k, t in enumerate(top)}) == 0
    assert leaves not in P._shapes  # answered without building the trees
