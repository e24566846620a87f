import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from udeform.kernel import Monomial, Polynomial, QQ, TruncSeries, series_multilinear
from udeform.bialgebra import BialgebraSpec, CutoffError, construct_bialgebra
from udeform.twist import UDF, GaugeElement, gauge_transform, make_exp_udf, series_from_orders
from udeform.deform import (
    AlgebraEndomorphism,
    Derivation,
    FiniteDimensionalAlgebra,
    HochschildCochain,
    PolynomialOperator1Cochain,
    PolynomialTruncatedAlgebra,
    StarProduct,
    TwistedProduct,
    action_from_derivations,
    check_associativity,
    check_module_algebra,
    infinitesimal_cocycle,
    is_hochschild_coboundary,
    wedge_over_A,
)

from udeform.generalized import (
    FreePAssAlgebra,
    TernaryAction,
    TwistedTernaryProduct,
    pass_udf,
)
from udeform import cli

from conftest import (
    ReferenceTwistedProduct, antisym, bench_job, from_terms, hochschild_differential,
    operator_cochain, twisted_product,
)
from formulations import first_order_gauge


def M(text):
    return Monomial.parse(text)


@pytest.fixture(scope="module")
def square_zero():
    return FiniteDimensionalAlgebra(
        ["1", "p", "q"],
        "1",
        {("p", "p"): {}, ("p", "q"): {}, ("q", "p"): {}, ("q", "q"): {}},
    )


class TestAlgebraSpecs:
    def test_truncated_product_overflow(self, plane):
        p2 = plane.element({M("p^2"): 1})
        p3 = plane.element({M("p^3"): 1})
        with pytest.raises(CutoffError):
            p2 * p3

    def test_structure_constants_validated(self):
        # (x.x).x = y.x = 0 while x.(x.x) = x.y = 1
        with pytest.raises(ValueError, match="associative"):
            FiniteDimensionalAlgebra(
                ["1", "x", "y"], "1", {("x", "x"): {"y": 1}, ("x", "y"): {"1": 1}}
            )
        # x^2 = 1 + x is associative (a quadratic field algebra)
        FiniteDimensionalAlgebra(["1", "x"], "1", {("x", "x"): {"x": 1, "1": 1}})

    def test_unit_membership(self):
        with pytest.raises(ValueError):
            FiniteDimensionalAlgebra(["x"], "1", {})

    def test_product_pairs_name_basis_elements(self):
        with pytest.raises(ValueError, match="unknown basis element 'z'"):
            FiniteDimensionalAlgebra(["1", "x"], "1", {("x", "z"): {"x": 1}})

    def test_declared_unit_products_agree_with_the_unit(self):
        with pytest.raises(ValueError, match="declared product 1\\*x contradicts the unit"):
            FiniteDimensionalAlgebra(["1", "x"], "1", {("1", "x"): {"1": 1}})
        with pytest.raises(ValueError, match="declared product x\\*1 contradicts"):
            FiniteDimensionalAlgebra(["1", "x"], "1", {("x", "1"): {"x": 2}})
        A = FiniteDimensionalAlgebra(["1", "x"], "1", {("x", "1"): {"x": 1, "1": 0}})
        assert A.product_row("x", "1") == ({"x": 1}, 1)


class TestOperators:
    def test_leibniz_holds_for_polynomial_derivations(self, plane):
        theta = Derivation(plane, {"p": Polynomial.variable("q")})
        a = plane.element({M("p^2"): 1})
        b = plane.element({M("p*q"): 1})
        assert theta.apply(a * b) == theta.apply(a) * b + a * theta.apply(b)

    def test_leibniz_failure_rejected(self, square_zero):
        # "theta(p) = 1" is not a derivation of the square-zero algebra
        with pytest.raises(ValueError, match="Leibniz"):
            Derivation(square_zero, {"p": {"1": 1}})

    def test_endomorphism_must_fix_unit(self, square_zero):
        with pytest.raises(ValueError):
            AlgebraEndomorphism(square_zero, {"1": {"p": 1}, "p": {}, "q": {}})

    def test_names_outside_the_algebra_rejected(self, plane, square_zero):
        z = plane.element({M("z"): 1})
        for op, A, data, name in (
            (Derivation, plane, {"z": 1}, "variable 'z'"),
            (Derivation, plane, {"p": z.to_polynomial()}, "variable 'z'"),
            (AlgebraEndomorphism, plane, {"z": plane.element({M("p"): 1})}, "variable 'z'"),
            (AlgebraEndomorphism, plane, {"p": z}, "variable 'z'"),
            (Derivation, square_zero, {"z": {"p": 1}}, "basis element 'z'"),
            (Derivation, square_zero, {"p": {"z": 1}}, "basis element 'z'"),
            (AlgebraEndomorphism, square_zero, {"p": {"z": 1}}, "basis element 'z'"),
        ):
            with pytest.raises(ValueError, match="unknown " + name):
                op(A, data)

    def test_commutation_probe(self, plane):
        d_p = Derivation(plane, {"p": 1})
        p_dp = Derivation(plane, {"p": Polynomial.variable("p")})
        assert not d_p.commutes_with(p_dp)
        d_q = Derivation(plane, {"q": 1})
        assert d_p.commutes_with(d_q)


class TestActions:
    def test_moyal_action_valid(self, moyal_action):
        assert check_module_algebra(moyal_action).passed

    def test_euler_action_valid(self, euler_action):
        assert check_module_algebra(euler_action).passed

    def test_noncommuting_images_rejected(self, B2, plane):
        with pytest.raises(ValueError, match="commute"):
            action_from_derivations(
                B2, plane, {"p1": {"p": 1}, "p2": {"p": Polynomial.variable("p")}}
            )

    def test_tensor_primitive_allows_noncommuting(self, tensorB, plane):
        action = action_from_derivations(
            tensorB,
            plane,
            {"e1": {"p": 1}, "e2": {"p": Polynomial.variable("p")}},
        )
        assert check_module_algebra(action).passed

    def test_monoid_action_by_endomorphisms(self, monoid_z2, plane):
        flip = AlgebraEndomorphism(
            plane,
            {"p": plane.element({M("q"): 1}), "q": plane.element({M("p"): 1})},
        )
        ident = AlgebraEndomorphism(plane, {})
        action = action_from_derivations(
            monoid_z2, plane, {"1": ident, "g": flip}
        )
        assert check_module_algebra(action).passed

    def test_monoid_multiplicativity_enforced(self, monoid_z2, plane):
        # g^2 = 1 forces the image of g to be an involution; doubling is not
        double = AlgebraEndomorphism(
            plane,
            {"p": plane.element({M("p"): 2}), "q": plane.element({M("q"): 1})},
        )
        ident = AlgebraEndomorphism(plane, {})
        with pytest.raises(ValueError, match="multiplicative"):
            action_from_derivations(monoid_z2, plane, {"1": ident, "g": double})


class TestActionLayer:
    """The one tabulated action of B-basis keys against naive composition."""

    def test_tensor_word_acts_first_letter_last(self, tensorB, plane):
        # d/dp and p d/dp do not commute, so the order of a word shows
        d_x = Derivation(plane, {"p": 1})
        d_y = Derivation(plane, {"p": Polynomial.variable("p")})
        action = action_from_derivations(tensorB, plane, {"e1": d_x, "e2": d_y})
        a = plane.element({M("p^2*q"): 1})
        word = tensorB.parse_key("e1*e2")
        got = action.apply_key(word, a)
        assert got == d_x.apply(d_y.apply(a))
        assert got != d_y.apply(d_x.apply(a))
        assert action.apply_key(word, a) == got  # second call reads the table

    def test_free_commutative_monoid_matches_composition(self, plane):
        B = construct_bialgebra(BialgebraSpec("monoid", ["a", "b"]), 3)
        p, q = plane.variable("p"), plane.variable("q")
        images = {
            "a": AlgebraEndomorphism(plane, {"q": q + p}),
            "b": AlgebraEndomorphism(plane, {"p": p.scale(3), "q": q.scale(3) + p}),
        }
        action = action_from_derivations(B, plane, images)
        for bkey in B.basis_keys(3):
            for akey in plane.basis_keys():
                e = plane.element({akey: 1})
                want = e
                for name, exp in bkey:
                    for _ in range(exp):
                        want = images[name].apply(want)
                assert action.apply_key(bkey, e) == want, (bkey, akey)

    def test_finite_monoid_matches_composition(self, monoid_z2, plane):
        flip = AlgebraEndomorphism(
            plane,
            {"p": plane.element({M("q"): 1}), "q": plane.element({M("p"): 1})},
        )
        images = {"1": AlgebraEndomorphism(plane, {}), "g": flip}
        action = action_from_derivations(monoid_z2, plane, images)
        for x in monoid_z2.basis_keys(3):
            for akey in plane.basis_keys():
                e = plane.element({akey: 1})
                assert action.apply_key(x, e) == images[x].apply(e)
                for y in monoid_z2.basis_keys(3):
                    (xy,) = monoid_z2.product_keys(x, y)
                    twice = action.apply_key(x, action.apply_key(y, e))
                    assert twice == images[xy].apply(e)

    def test_quantum_plane_applies_each_table_entry_once(self, monkeypatch):
        from udeform import cli
        from udeform.fixtures import emit_example

        job = emit_example("quantum-plane")
        inputs, order = job["inputs"], job["parameters"]["order"]
        slot_degree = cli._udf_doc_degree(inputs["udf"])
        B = cli.build_bialgebra(inputs["bialgebra"], order, slot_degree=slot_degree)
        A = cli.build_algebra(inputs["algebra"])
        action = cli.build_action(B, A, inputs["action"])
        F = cli.parse_udf(B, inputs["udf"], order)
        calls = []
        original = Derivation.apply

        def counting(self, elem):
            calls.append(1)
            return original(self, elem)

        monkeypatch.setattr(Derivation, "apply", counting)
        star = StarProduct(F, action)
        rep = check_associativity(star, cutoff=job["parameters"]["degree"])
        assert rep.passed
        assert 0 < len(calls) <= len(B.basis_keys(B.cutoff)) * len(A.basis_keys())


class TestTwistedProducts:
    def test_moyal_basic_products(self, moyal_udf, moyal_action, plane):
        p, q = plane.variable("p"), plane.variable("q")
        pq = twisted_product(moyal_udf, moyal_action, p, q)
        qp = twisted_product(moyal_udf, moyal_action, q, p)
        base = plane.element({M("p*q"): 1})
        half = plane.one().scale(QQ(1, 2))
        assert pq == series_from_orders_like(pq, {0: base, 1: half})
        assert qp == series_from_orders_like(qp, {0: base, 1: half.scale(-1)})
        # commutator is exactly t at every order
        assert (pq - qp) == series_from_orders_like(pq, {1: plane.one()})

    def test_unit_preserved(self, moyal_udf, moyal_action, plane):
        f = plane.element({M("p^2*q"): 3, M("q"): QQ(1, 2)})
        got = twisted_product(moyal_udf, moyal_action, plane.one(), f)
        assert got == TruncSeries.constant(f, moyal_udf.order)
        got = twisted_product(moyal_udf, moyal_action, f, plane.one())
        assert got == TruncSeries.constant(f, moyal_udf.order)

    def test_quantum_plane_relation(self, B2_wide, plane):
        F = make_exp_udf(antisym(B2_wide), order=8)
        action = action_from_derivations(
            B2_wide,
            plane,
            {"p1": {"p": Polynomial.variable("p")}, "p2": {"q": Polynomial.variable("q")}},
        )
        p, q = plane.variable("p"), plane.variable("q")
        pq = twisted_product(F, action, p, q)
        qp = twisted_product(F, action, q, p)
        e2t = TruncSeries([QQ(0), QQ(2)] + [QQ(0)] * 7).exp()
        scaled = TruncSeries(
            [
                sum((e2t.coeffs[k] * qp.coeffs[n - k] for k in range(n + 1)), plane.zero())
                for n in range(9)
            ]
        )
        assert pq == scaled

    def test_moyal_associativity(self, moyal_udf, moyal_action):
        rep = check_associativity(StarProduct(moyal_udf, moyal_action), cutoff=3)
        assert rep.passed, rep.render_text()

    def test_corrupted_twist_fails_localized(self, B2, moyal_action, plane, moyal_udf):
        # drop the t^2 coefficient of the Moyal twist
        coeffs = dict(enumerate(moyal_udf.series.coeffs))
        coeffs[2] = B2.zero(2)
        from udeform.twist import UDF

        bad = UDF(TruncSeries([coeffs[k] for k in range(moyal_udf.order + 1)]))
        rep = check_associativity(StarProduct(bad, moyal_action), cutoff=4)
        assert not rep.passed
        witness = rep.entries[0].witness
        assert witness["first_failing_order"] == 2


def series_from_orders_like(series, coeffs):
    zero = series.coeffs[0].zero_like()
    return TruncSeries(
        [coeffs.get(k, zero) for k in range(series.order + 1)]
    )


# ---------------------------------------------------------------------------
# twisted products as contractions over their structure constants
# ---------------------------------------------------------------------------

def _contraction_cases():
    """(product, argument key pools, zero element) for each kind of target:
    Moyal and Euler actions on the truncated plane, a finite-dimensional
    algebra, and the planar and symmetric free pAss algebras."""
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 6)
    F = make_exp_udf(antisym(B).scale(QQ(1, 2)), order=4)
    plane = PolynomialTruncatedAlgebra(["p", "q"], 4)
    low = plane.basis_keys(2)  # two factors stay inside the cutoff
    moyal = action_from_derivations(B, plane, {"p1": {"p": 1}, "p2": {"q": 1}})
    euler = action_from_derivations(
        B,
        plane,
        {"p1": {"p": Polynomial.variable("p")}, "p2": {"q": Polynomial.variable("q")}},
    )
    dual = FiniteDimensionalAlgebra(
        ["1", "x", "y", "xy"], "1", {("x", "y"): {"xy": 1}, ("y", "x"): {"xy": 1}}
    )
    weights = action_from_derivations(
        B,
        dual,
        {
            "p1": Derivation(dual, {"x": {"x": 1}, "xy": {"xy": 1}}),
            "p2": Derivation(dual, {"y": {"y": 1}, "xy": {"xy": 1}}),
        },
    )
    cases = [
        (StarProduct(F, moyal), [low, low], plane.zero()),
        (StarProduct(F, euler), [low, low], plane.zero()),
        (StarProduct(F, weights), [dual.basis_keys()] * 2, dual.zero()),
    ]
    H = pass_udf(make_exp_udf(antisym(B), order=2))
    for symmetric in (False, True):
        P = FreePAssAlgebra(["p", "q"], 5, symmetric)
        # leaf-count preserving derivations keep every product at <= 5 leaves
        action = TernaryAction(B, P, {"p1": {"p": {"p": 1}}, "p2": {"q": {"q": 1}}})
        pools = [P.basis(1) + P.basis(3), P.basis(1), P.basis(1)]
        cases.append((TwistedTernaryProduct(H, action), pools, P.zero()))
    return cases


CONTRACTION_CASES = _contraction_cases()
COEFFS = [QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-1, 2), QQ(-2, 3)]


@st.composite
def _contraction_arguments(draw):
    product, pools, zero = draw(st.sampled_from(CONTRACTION_CASES))
    n = product.order
    args = []
    for pool in pools:
        slots = [zero] * (n + 1)
        # any slots up to t^N, so some combinations sum past the truncation
        for i in draw(st.lists(st.integers(0, n), max_size=3, unique=True)):
            terms = draw(st.dictionaries(
                st.sampled_from(pool), st.sampled_from(COEFFS), min_size=1, max_size=3
            ))
            slots[i] = from_terms(zero, terms)
        args.append(TruncSeries(slots))
    return product, args


@settings(max_examples=300, deadline=None)
@given(_contraction_arguments())
def test_contraction_matches_the_route_over_whole_arguments(case):
    product, args = case
    # the products share their tables across examples, so entries filled
    # by one example are reused by later ones
    multiply = product.star if isinstance(product, StarProduct) else product.product
    got = multiply(*args)
    value = ReferenceTwistedProduct(product).value
    want = series_multilinear(value, TruncSeries(product.terms), *args)
    assert [c.sorted_terms() for c in got.coeffs] == [
        c.sorted_terms() for c in want.coeffs
    ]


def test_basis_overflow_raises_even_where_the_arguments_cancel(B1):
    A = PolynomialTruncatedAlgebra(["x", "y"], 2)
    y2 = Polynomial({M("y^2"): 1})
    action = action_from_derivations(B1, A, {"p": {"x": y2, "y": y2}})
    p = B1.generator("p")
    star = StarProduct(make_exp_udf(p.outer(p), order=1), action)
    x, y = A.variable("x"), A.variable("y")
    # theta x = theta y = y^2: the t^1 slot of (x - y) * x is
    # theta(x - y) theta(x) = 0, but the product is defined term by term and
    # the basis constant theta(x) theta(x) = y^4 passes the cutoff
    for a, b in ((x - y, x), (x, x)):
        with pytest.raises(CutoffError, match=r"y\^4 exceeds the degree cutoff 2"):
            star.star(a, b)


def test_moyal_d6_evaluates_each_structure_constant_once(monkeypatch):
    job = bench_job("moyal-d6")
    inputs, order = job["inputs"], job["parameters"]["order"]
    slot_degree = cli._udf_doc_degree(inputs["udf"])
    B = cli.build_bialgebra(inputs["bialgebra"], order, slot_degree=slot_degree)
    A = cli.build_algebra(inputs["algebra"])
    action = cli.build_action(B, A, inputs["action"])
    F = cli.parse_udf(B, inputs["udf"], order)
    calls = collections.Counter()
    original = TwistedProduct._form

    def counting(self, codes, l):
        calls[tuple(str(self._keys[c]) for c in codes), l] += 1
        return original(self, codes, l)

    monkeypatch.setattr(TwistedProduct, "_form", counting)
    star = StarProduct(F, action)
    rep = check_associativity(star, cutoff=job["parameters"]["degree"])
    assert rep.passed
    assert calls and max(calls.values()) == 1
    # arguments that start at t^N reach only the t^0 constants
    calls.clear()
    p = A.variable("p")
    late = TruncSeries([A.zero()] * order + [p])
    StarProduct(F, action).star(late, p)
    assert calls == {(("p", "p"), 0): 1}


def test_deform_job_shares_one_table_with_its_product_table(monkeypatch):
    # run_deform tabulates products with the StarProduct the associativity
    # check filled, so no structure constant is evaluated twice per job
    calls = collections.Counter()
    original = TwistedProduct._form

    def counting(self, codes, l):
        calls[id(self), codes, l] += 1
        return original(self, codes, l)

    monkeypatch.setattr(TwistedProduct, "_form", counting)
    report, code = cli.run(bench_job("moyal-d6"))
    assert code == 0, report.to_json()
    assert calls and max(calls.values()) == 1
    assert len({key[0] for key in calls}) == 1


class TestInfinitesimalLayer:
    def test_moyal_cocycle_values(self, moyal_udf, moyal_action, plane):
        mu1 = infinitesimal_cocycle(moyal_udf, moyal_action)
        assert mu1.on_keys(M("p"), M("q")) == plane.one().scale(QQ(1, 2))
        assert mu1.on_keys(M("q"), M("p")) == plane.one().scale(QQ(-1, 2))

    def test_shear_action_gives_zero_cocycle(self, B2, plane, moyal_udf):
        action = action_from_derivations(
            B2, plane, {"p1": {"p": 1}, "p2": {"p": Polynomial.variable("q")}}
        )
        mu1 = infinitesimal_cocycle(moyal_udf, action)
        assert mu1.zero_witness(plane.cutoff)[0]

    def test_square_zero_counterexample(self, B2, square_zero, moyal_udf):
        th1 = Derivation(square_zero, {"p": {"p": 1}})
        th2 = Derivation(square_zero, {"q": {"q": 1}})
        action = action_from_derivations(B2, square_zero, {"p1": th1, "p2": th2})
        mu1 = infinitesimal_cocycle(moyal_udf, action, cutoff=0)
        assert mu1.zero_witness(0)[0]

    def test_moyal_class_is_not_a_coboundary(self, moyal_udf, moyal_action, plane):
        mu1 = infinitesimal_cocycle(moyal_udf, moyal_action)
        g, info = is_hochschild_coboundary(plane, mu1, search_bound=2)
        assert g is None
        assert info["operator_order"] == 2

    def test_coboundary_roundtrip(self, plane):
        # degree-non-raising terms keep the verification inside the cutoff
        g0 = PolynomialOperator1Cochain(
            plane,
            [
                (M("p"), (("q", 1),), QQ(3, 2)),
                (Monomial(), (("p", 2),), QQ(-1)),
                (M("q"), (("p", 1), ("q", 1)), QQ(2)),
            ],
        )
        c = hochschild_differential(operator_cochain(g0))
        g, info = is_hochschild_coboundary(plane, c, search_bound=2)
        assert g is not None
        d = hochschild_differential(g)
        for x in plane.basis_keys():
            for y in plane.basis_keys():
                if plane.degree(x) + plane.degree(y) > plane.cutoff:
                    continue
                assert d.on_keys(x, y) == c.on_keys(x, y)

    def test_zero_cochain_has_zero_witness(self, plane):
        zero = HochschildCochain(plane, 2, lambda x, y: plane.zero())
        g, _ = is_hochschild_coboundary(plane, zero, search_bound=1)
        assert g is not None
        assert hochschild_differential(g).zero_witness(plane.cutoff)[0]

    def test_finite_dimensional_coboundary_search(self, square_zero, B2, moyal_udf):
        th1 = Derivation(square_zero, {"p": {"p": 1}})
        th2 = Derivation(square_zero, {"q": {"q": 1}})
        action = action_from_derivations(B2, square_zero, {"p1": th1, "p2": th2})
        mu1 = infinitesimal_cocycle(moyal_udf, action, cutoff=0)
        g, _ = is_hochschild_coboundary(square_zero, mu1)
        assert g is not None  # the zero cocycle is a coboundary

    def test_mu1_is_a_cocycle(self, moyal_udf, euler_action, plane):
        mu1 = infinitesimal_cocycle(moyal_udf, euler_action)
        assert hochschild_differential(mu1).zero_witness(plane.cutoff)[0]

    def test_a_cutoff_past_the_algebra_is_clamped(self, B2, moyal_udf):
        # as in check_associativity: no triple past the algebra's cutoff
        # has a product in it, so cutoff 5 sweeps what cutoff 3 does
        plane3 = PolynomialTruncatedAlgebra(["p", "q"], 3)
        action = action_from_derivations(B2, plane3, {"p1": {"p": 1}, "p2": {"q": 1}})
        mu1 = infinitesimal_cocycle(moyal_udf, action, cutoff=5)
        assert mu1.on_keys(M("p"), M("q")) == plane3.one().scale(QQ(1, 2))
        assert check_associativity(StarProduct(moyal_udf, action), cutoff=5).passed


class TestOneCoboundarySearch:
    """Both algebra kinds and the first-order gauge search build columns
    for one `linalg.solve`; the answers are pinned to output recorded from
    the per-kind hand-assembled systems they replaced."""

    PLANE = {
        "roundtrip": [None, "2*q*dp*dq + -1*1*dp^2", "2*q*dp*dq + -1*1*dp^2"],
        "zero": ["0", "0", "0"],
        "moyal": [None, None, None],
        "euler": [None, None, None],
    }

    FINITE = {
        "dual": (
            (["1", "e"], {("e", "e"): {}}),
            {"1": "-2*e", "e": "-1"},
            ("e", "e", "1"),
        ),
        "square-zero": (
            (["1", "p", "q"], {}),
            {"1": "1 + p + 3*q", "p": "1", "q": "1"},
            ("p", "q", "1"),
        ),
        "x3": (
            (["1", "x", "x2"], {("x", "x"): {"x2": 1}}),
            {"1": "-1 - 2/3*x - x2", "x": "1/3 - 11/6*x", "x2": "1/2"},
            ("x", "x2", "1"),
        ),
        "exterior": (
            (["1", "a", "b", "ab"], {("a", "b"): {"ab": 1}, ("b", "a"): {"ab": -1}}),
            {"1": "-1 - ab - 3/2*b", "a": "-1 + 7/2*a", "ab": "2/3 + 1/2*a + b", "b": "1"},
            ("a", "b", "1"),
        ),
    }

    def test_polynomial_search(self, plane, moyal_udf, moyal_action, euler_action):
        g0 = PolynomialOperator1Cochain(
            plane,
            [
                (M("p"), (("q", 1),), QQ(3, 2)),
                (Monomial(), (("p", 2),), QQ(-1)),
                (M("q"), (("p", 1), ("q", 1)), QQ(2)),
            ],
        )
        cochains = {
            "roundtrip": hochschild_differential(operator_cochain(g0)),
            "zero": HochschildCochain(plane, 2, lambda x, y: plane.zero()),
            "moyal": infinitesimal_cocycle(moyal_udf, moyal_action),
            "euler": infinitesimal_cocycle(moyal_udf, euler_action),
        }
        for name, cochain in cochains.items():
            for bound, expected in zip((1, 2, 3), self.PLANE[name]):
                g, info = is_hochschild_coboundary(plane, cochain, search_bound=bound)
                assert (None if g is None else g.operator.describe()) == expected
                assert info == {
                    "search_space": "differential operators",
                    "operator_order": bound,
                    "coefficient_degree": plane.cutoff,
                }

    @pytest.mark.parametrize("name", sorted(FINITE))
    def test_finite_dimensional_search(self, name):
        (basis, products), expected, (x0, y0, value) = self.FINITE[name]
        A = FiniteDimensionalAlgebra(basis, "1", products)
        rng = random.Random(name)
        images = {
            k: A.element({d: QQ(rng.randint(-3, 3), rng.randint(1, 3)) for d in basis})
            for k in basis
        }
        cases = [
            (hochschild_differential(HochschildCochain(A, 1, images.__getitem__)), expected),
            (HochschildCochain(A, 2, lambda x, y: A.zero()), dict.fromkeys(basis, "0")),
            (HochschildCochain(
                A, 2,
                lambda x, y: A.element({value: QQ(1)}) if (x, y) == (x0, y0) else A.zero(),
            ), None),
        ]
        for cochain, want in cases:
            g, info = is_hochschild_coboundary(A, cochain)
            assert info == {"search_space": "all linear maps on the %d-dim basis" % len(basis)}
            if want is None:
                assert g is None
                continue
            assert {k: repr(g.on_keys(k)) for k in basis} == want
            d = hochschild_differential(g)
            for x in basis:
                for y in basis:
                    assert d.on_keys(x, y) == cochain.on_keys(x, y)

    def test_first_order_gauge(self, B2, moyal_udf):
        B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), 9)
        p = B.generator("p")
        for order in (2, 3):
            F = make_exp_udf(p.outer(p), order=order)
            g1 = (p * p).scale(QQ(1, 3)) + p.scale(QQ(-2)) + (p * p * p).scale(QQ(1, 5))
            G = GaugeElement(series_from_orders(B, 1, order, {0: B.one(1), 1: g1}))
            F2 = gauge_transform(F, G)
            found = [first_order_gauge(F, F2, degree_bound=d) for d in (2, 3, 4)]
            assert [None if g is None else repr(g) for g in found] == [
                None, "1/3*p^2 + 1/5*p^3", "1/3*p^2 + 1/5*p^3",
            ]
        trivial = UDF(TruncSeries.constant(B2.one(2), moyal_udf.order))
        assert first_order_gauge(trivial, moyal_udf, degree_bound=4) is None


class TestWedge:
    def test_constant_derivations(self, plane):
        w = wedge_over_A(Derivation(plane, {"p": 1}), Derivation(plane, {"q": 1}))
        assert w == {("p", "q"): Polynomial.constant(1)}

    def test_euler_pair(self, plane):
        w = wedge_over_A(
            Derivation(plane, {"p": Polynomial.variable("p")}),
            Derivation(plane, {"q": Polynomial.variable("q")}),
        )
        assert w == {("p", "q"): Polynomial.variable("p") * Polynomial.variable("q")}

    def test_proportional_columns_vanish(self, plane):
        w = wedge_over_A(
            Derivation(plane, {"p": 1}),
            Derivation(plane, {"p": Polynomial.variable("q")}),
        )
        assert w == {}

    def test_finite_dimensional_unsupported(self, square_zero):
        th = Derivation(square_zero, {"p": {"p": 1}})
        with pytest.raises(ValueError):
            wedge_over_A(th, th)


def test_gauge_naturality_first_order(B2, moyal_action, plane):
    # mu1' - mu1 = -delta(g) for g(a) = G1 . a; order 2 keeps the slot
    # degrees of the transformed twist inside the cutoff
    F = make_exp_udf(antisym(B2).scale(QQ(1, 2)), order=2)
    g1_tensor = B2.generator("p1") * B2.generator("p1")
    G = GaugeElement(
        series_from_orders(B2, 1, F.order, {0: B2.one(1), 1: g1_tensor})
    )
    moved = gauge_transform(F, G)
    mu1 = infinitesimal_cocycle(F, moyal_action)
    mu1_moved = infinitesimal_cocycle(moved, moyal_action)
    g_cochain = HochschildCochain(
        plane,
        1,
        lambda key: moyal_action.apply_element(g1_tensor, plane.element({key: QQ(1)})),
    )
    delta_g = hochschild_differential(g_cochain)
    for x in plane.basis_keys(2):
        for y in plane.basis_keys(2):
            if plane.degree(x) + plane.degree(y) > plane.cutoff:
                continue
            diff = mu1_moved.on_keys(x, y) - mu1.on_keys(x, y)
            assert diff == delta_g.on_keys(x, y).scale(-1)


def test_euler_star_matches_the_eigenvalue_closed_form(B2, plane, euler_action):
    # independent route: p^a q^b @ p^c q^d is an eigenvector of the
    # antisymmetric exponent with eigenvalue ad - bc, so the star product is
    # exp((ad-bc) t) times the plain product
    F = make_exp_udf(antisym(B2), order=6)
    for (a, b, c, d) in [(1, 0, 0, 1), (0, 1, 1, 0), (2, 1, 0, 1), (1, 1, 1, 1)]:
        x = plane.element({Monomial({"p": a, "q": b}): 1})
        y = plane.element({Monomial({"p": c, "q": d}): 1})
        got = twisted_product(F, euler_action, x, y)
        lam = a * d - b * c
        scalar = TruncSeries([QQ(0), QQ(lam)] + [QQ(0)] * 5).exp()
        base = Monomial({"p": a + c, "q": b + d})
        expected = TruncSeries(
            [plane.element({base: coeff}) for coeff in scalar.coeffs]
        )
        assert got == expected


def test_moyal_star_matches_the_bidifferential_expansion(
    moyal_udf, moyal_action, plane
):
    # independent route: the order-k layer of the classical star product is
    # (1/(2^k k!)) sum_i (-1)^i C(k,i) (d_p^(k-i) d_q^i f)(d_p^i d_q^(k-i) g)
    import math

    def layer(k, f, g):
        out = Polynomial()
        for i in range(k + 1):
            cf = f
            cg = g
            for _ in range(k - i):
                cf = cf.partial("p")
            for _ in range(i):
                cf = cf.partial("q")
            for _ in range(i):
                cg = cg.partial("p")
            for _ in range(k - i):
                cg = cg.partial("q")
            sign = QQ((-1) ** i * math.comb(k, i))
            out = out + (cf * cg).scale(sign)
        return out.scale(QQ(1, 2 ** k * math.factorial(k)))

    pairs = [
        (Monomial({"p": 2, "q": 1}), Monomial({"q": 1})),
        (Monomial({"p": 1, "q": 1}), Monomial({"p": 1, "q": 1})),
        (Monomial({"p": 2}), Monomial({"q": 2})),
    ]
    for mx, my in pairs:
        x, y = plane.element({mx: 1}), plane.element({my: 1})
        got = twisted_product(moyal_udf, moyal_action, x, y)
        fx = Polynomial({mx: QQ(1)})
        fy = Polynomial({my: QQ(1)})
        for k in range(4):
            expected = layer(k, fx, fy)
            assert got.coeffs[k].to_polynomial() == expected
