"""The packed rows of a twisted product against the Fraction route.

`TwistedProduct` holds its structure constants as packed integer rows and
decides both associativity sweeps by contracting them.  Here every result is
compared with `conftest.ReferenceTwistedProduct`, the route over Fraction
dicts keyed by basis keys that multiplies whole series: the
`check_associativity` and `check_partial_assoc` reports, passing and failing,
byte for byte, and the product values on series with several nonzero slots,
key order included.  The targets are the Moyal and quantum-plane actions on
the truncated plane, the square-zero algebra of the
`nonsmooth-counterexample` fixture, and the planar and symmetric free pAss
algebras.

The rows themselves, the module-algebra check and the columns of the
Hochschild coboundary search are formed in integers from the action table,
`product_row` and the packed Delta table.  The last part compares them with
the element route kept in `conftest` (elements through the action, the
decoded coproduct, and untruncated `Polynomial` operators), on random
derivation actions of a tensor-primitive bialgebra, on random polynomial
search spaces and on finite-dimensional algebras: rows key order included,
reports byte for byte, the CutoffError raised by either route, columns as
rationals and the witness of a coboundary as its bytes.  The cocycle check
of the order-t layer, decided on the t^1 slot of the associator, is held
to delta(mu_1) built as elements (`conftest.hochschild_differential`): the
verdict, the witness bytes, the CutoffError text and mu_1 itself.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from udeform import cli
from udeform.bialgebra import BialgebraSpec, CutoffError, construct_bialgebra
from udeform.deform import (
    Derivation,
    FiniteDimensionalAlgebra,
    HochschildCochain,
    PolynomialOperator1Cochain,
    PolynomialTruncatedAlgebra,
    StarProduct,
    _coboundary_columns,
    action_from_derivations,
    check_associativity,
    check_module_algebra,
    infinitesimal_cocycle,
    is_hochschild_coboundary,
)
from udeform.fixtures import emit_example
from udeform.generalized import (
    FreePAssAlgebra,
    TernaryAction,
    TernaryTwist,
    TwistedTernaryProduct,
    check_partial_assoc,
    pass_udf,
)
from udeform.kernel import QQ, Monomial, Polynomial, TruncSeries, bounded_product, monomials
from udeform.twist import UDF, make_exp_udf, series_from_orders

from conftest import (
    ReferenceTwistedProduct,
    antisym,
    from_terms,
    hochschild_differential,
    operator_cochain,
    reference_check_associativity,
    reference_check_module_algebra,
    reference_check_partial_assoc,
    reference_coboundary_columns,
    reference_coboundary_witness,
    reference_infinitesimal_cocycle,
)
from coproduct_override import with_coproduct_override

MOYAL = {"p1": {"p": 1}, "p2": {"q": 1}}
EULER = {"p1": {"p": Polynomial.variable("p")}, "p2": {"q": Polynomial.variable("q")}}
# p1 acts as p^2 d/dp, which raises degrees, so products inside the
# algebra's cutoff still reach past it
RAISING = {"p1": {"p": Polynomial({Monomial.parse("p^2"): 1})},
           "p2": {"q": Polynomial.variable("q")}}


def _B2():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 6)


def _plane_case(derivations, scale, order, cutoff=4):
    B = _B2()
    plane = PolynomialTruncatedAlgebra(["p", "q"], cutoff)
    action = action_from_derivations(B, plane, derivations)
    return B, action, make_exp_udf(antisym(B).scale(scale), order=order)


def _without_t2(F):
    coeffs = list(F.series.coeffs)
    return UDF(TruncSeries(coeffs[:2] + [F.parent.zero(2)] + coeffs[3:]))


def _not_a_twist(B):
    square = B.generator("p1") * B.generator("p1")
    return UDF(series_from_orders(B, 2, 1, {0: B.one(2), 1: square.outer(B.one(1))}))


def _nonsmooth():
    """The square-zero algebra, action and order-2 Moyal UDF of the
    `nonsmooth-counterexample` fixture, built as a job builds them."""
    inputs = emit_example("nonsmooth-counterexample")["inputs"]
    B = cli.build_bialgebra(inputs["bialgebra"], 2, slot_degree=1)
    A = cli.build_algebra(inputs["algebra"])
    action = cli.build_action(B, A, inputs["action"])
    return B, action, cli.parse_udf(B, inputs["udf"], 2)


def _associativity_case(name):
    """(F, action, cutoff) of one associativity case."""
    if name.startswith("moyal"):
        B, action, F = _plane_case(MOYAL, QQ(1, 2), 3)
    elif name.startswith("raising"):
        B, action, F = _plane_case(RAISING, QQ(1, 2), 3)
    elif name.startswith("qplane"):
        B, action, F = _plane_case(EULER, QQ(1), 3)
    else:
        B, action, F = _nonsmooth()
    cutoff = None
    if name.endswith("no-t2"):
        F = _without_t2(F)
    elif name.endswith("not-a-twist"):
        F = _not_a_twist(B)
    elif name.endswith("overflow"):
        cutoff = 6  # past the algebra's cutoff 4, so the sweep is clamped to 4
    return F, action, cutoff


ASSOCIATIVITY_CASES = [
    "moyal", "moyal-no-t2", "moyal-not-a-twist", "moyal-overflow", "raising",
    "qplane", "qplane-no-t2", "qplane-not-a-twist",
    "nonsmooth", "nonsmooth-not-a-twist",
]


def _outcome(check, *args, **kwargs):
    """The report JSON of a check, or the text of the CutoffError it raises."""
    try:
        return check(*args, **kwargs).to_json()
    except CutoffError as exc:
        return "CutoffError: %s" % exc


@pytest.mark.parametrize("name", ASSOCIATIVITY_CASES)
def test_associativity_reports_match_the_reference(name):
    F, action, cutoff = _associativity_case(name)
    got = _outcome(check_associativity, StarProduct(F, action), cutoff=cutoff)
    want = _outcome(reference_check_associativity, F, action, cutoff=cutoff)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    if name.endswith("overflow"):
        assert got == _outcome(check_associativity, StarProduct(F, action)) and got["passed"]
    elif name == "raising":
        assert got == "CutoffError: derivation output p^4*q exceeds cutoff 4"
    else:
        assert got["passed"] == (name in ("moyal", "qplane", "nonsmooth")), got


def _pass_algebra(symmetric):
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 4)
    P = FreePAssAlgebra(["p", "q"], 7 if symmetric else 5, symmetric)
    if symmetric:
        images = {"p1": {"p": {("p", "p", "p"): 1}}, "p2": {"q": {("q", "q", "q"): 1}}}
    else:
        images = {"p1": {"p": {"p": 1}}, "p2": {"q": {"q": 1}}}
    return B, P, TernaryAction(B, P, images)


def _ternary_product(symmetric, corrupted, order=1):
    B, P, action = _pass_algebra(symmetric)
    H = pass_udf(make_exp_udf(antisym(B), order=order))
    if corrupted:
        one = B.one(1)
        bad = H.series.coeffs[1] - B.generator("p1").outer(one).outer(B.generator("p2"))
        coeffs = dict(enumerate(H.series.coeffs))
        coeffs[1] = bad
        H = TernaryTwist(series_from_orders(B, 3, order, coeffs))
    return P, TwistedTernaryProduct(H, action)


@pytest.mark.parametrize("symmetric", [False, True], ids=["planar", "symmetric"])
@pytest.mark.parametrize("corrupted", [False, True], ids=["twist", "corrupted"])
@pytest.mark.parametrize("order", [0, 1])
def test_partial_assoc_reports_match_the_reference(symmetric, corrupted, order):
    P, prod = _ternary_product(symmetric, corrupted)
    cutoff = P.leaf_cutoff
    got = check_partial_assoc(prod, cutoff=cutoff, order=order).to_json()
    ref = _ternary_product(symmetric, corrupted)[1]
    want = reference_check_partial_assoc(ref, cutoff=cutoff, order=order).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    # the symmetric quotient is zero from 5 leaves on, so no sum can fail
    assert got["passed"] == (symmetric or not corrupted or order == 0)


def test_partial_assoc_rejects_an_order_above_the_product():
    _, prod = _ternary_product(symmetric=False, corrupted=False)
    with pytest.raises(ValueError, match="order 2 exceeds the order 1"):
        check_partial_assoc(prod, cutoff=5, order=2)


def _slots(zero, parts):
    """A series of order len(parts) - 1 whose slot i holds parts[i] (a dict
    key -> coefficient, possibly empty)."""
    return TruncSeries([from_terms(zero, p) for p in parts])


def _star_arguments(name):
    F, action, _ = _associativity_case(name)
    A = action.A
    keys = A.basis_keys(1) if A.cutoff else A.basis_keys()
    half, two = QQ(1, 2), QQ(-2, 3)
    n = F.order
    left = [{keys[0]: QQ(1), keys[1]: half}, {}, {keys[-1]: two, keys[0]: QQ(3)}]
    right = [{keys[1]: QQ(1)}, {keys[-1]: QQ(-1), keys[1]: half}, {}, {keys[0]: two}]
    left, right = (p + [{}] * (n + 1 - len(p)) for p in (left, right))
    zero = A.zero()
    return StarProduct(F, action), _slots(zero, left[:n + 1]), _slots(zero, right[:n + 1])


def _key_order(series):
    return [list(c.terms.items()) for c in series.coeffs]


@pytest.mark.parametrize("name", ["moyal", "qplane", "nonsmooth", "moyal-not-a-twist"])
def test_star_values_match_the_reference(name):
    star, a, b = _star_arguments(name)
    ref = ReferenceTwistedProduct(star)
    for args in ((a, b), (b, a), (a, a), (a.coeffs[0], b)):
        assert _key_order(star.star(*args)) == _key_order(ref(*args))


@pytest.mark.parametrize("symmetric", [False, True], ids=["planar", "symmetric"])
def test_ternary_values_match_the_reference(symmetric):
    P, prod = _ternary_product(symmetric, corrupted=False, order=2)
    ref = ReferenceTwistedProduct(prod)
    t1, t3 = P.basis(1), P.basis(3)
    zero = P.zero()
    a = _slots(zero, [{t1[0]: QQ(1), t3[0]: QQ(1, 2)}, {t1[1]: QQ(-1)}, {}])
    b = _slots(zero, [{t1[1]: QQ(2)}, {}, {t1[0]: QQ(1, 3)}])
    c = _slots(zero, [{t1[0]: QQ(1)}, {t1[0]: QQ(1), t1[1]: QQ(-1)}, {}])
    for args in ((a, b, c), (c, b, a), (b, b, b)):
        assert _key_order(prod.product(*args)) == _key_order(ref(*args))


def test_counital_perturbation_fails_at_its_order_with_the_predicted_witness():
    """A negative control on a real twist: the Moyal UDF F plus t^k c for the
    counital 2-tensor c = p1 @ p1 p2 deforms the product at order k by the
    cochain phi(a, b) = mu(c (a @ b)) = d_p a * d_p d_q b only.  The orders
    below k are those of F, which is associative; at order k the
    associativity defect is lhs - rhs = -delta(phi)(a, b, c), which is
    nonzero (delta(phi)(p, p, q) = 1), so the check fails first at order k
    and the witness triple's two sides differ by exactly -delta(phi)."""
    B, action, F = _plane_case(MOYAL, QQ(1, 2), 3)
    A, k = action.A, 2
    p1, p2 = B.generator("p1"), B.generator("p2")
    c = p1.outer(p1 * p2)
    coeffs = list(F.series.coeffs)
    coeffs[k] = coeffs[k] + c
    perturbed = UDF(TruncSeries(coeffs))

    rep = check_associativity(StarProduct(perturbed, action))
    assoc = rep.entries[0]
    assert not assoc.ok
    witness = assoc.witness
    assert witness["first_failing_order"] == k

    # the witness triple, read back from its keys
    names = {A.key_str(key): key for key in A.basis_keys()}
    triple = [names[s.strip()] for s in witness["triple"].strip("()").split(",")]
    x, y, z = (A.element({key: QQ(1)}) for key in triple)
    star = StarProduct(perturbed, action)
    lhs = star.star(star.star(x, y), z).coeffs[k]
    rhs = star.star(x, star.star(y, z)).coeffs[k]
    assert (lhs.render(), rhs.render()) == (witness["lhs"], witness["rhs"])

    (g1, g2), = c.terms
    phi = HochschildCochain(A, 2, lambda a, b: (
        action.apply_key(g1, A.element({a: QQ(1)}))
        * action.apply_key(g2, A.element({b: QQ(1)}))
    ))
    delta = hochschild_differential(phi).on_keys(*triple)
    assert delta
    assert lhs - rhs == -delta


def test_star_rejects_series_of_another_order():
    star, a, _ = _star_arguments("moyal")
    shorter = TruncSeries(a.coeffs[:-1])
    with pytest.raises(ValueError, match="truncation orders differ"):
        star.star(a, shorter)


# ---------------------------------------------------------------------------
# rows, module-algebra decisions and coboundary columns against the element
# route
# ---------------------------------------------------------------------------

SMALL = [QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-2, 3)]
TENSOR_B = construct_bialgebra(BialgebraSpec("tensor-primitive", ["p1", "p2"]), 4)


def _square_zero():
    return FiniteDimensionalAlgebra(["1", "p", "q"], "1", {})


@st.composite
def _derivation_actions(draw):
    """A tensor-primitive B on {p1, p2}, which takes any derivations, acting
    on the truncated plane (coefficients up to degree 2, so that some
    actions leave the cutoff) or on the square-zero algebra (whose
    derivations are the maps into span(p, q)); sometimes with Delta(p1)
    replaced by p1 @ p1 or doubled, which breaks B-linearity (doubling on
    the support of the true sides)."""
    B = TENSOR_B
    p1, one = B.generator_key("p1"), B.unit_key
    delta = draw(st.sampled_from([
        None, {(p1, p1): QQ(1)}, {(p1, one): QQ(2), (one, p1): QQ(2)}]))
    if delta is not None:
        B = with_coproduct_override(B, {p1: delta})
    coeffs = st.sampled_from(SMALL)
    if draw(st.booleans()):
        A = PolynomialTruncatedAlgebra(["p", "q"], draw(st.integers(2, 4)))
        monos = st.sampled_from(A.basis_keys(2))
        images = {g: {v: Polynomial(draw(st.dictionaries(monos, coeffs, max_size=2)))
                      for v in ("p", "q")} for g in ("p1", "p2")}
    else:
        A = _square_zero()
        names = st.sampled_from(["p", "q"])
        images = {g: Derivation(A, {x: draw(st.dictionaries(names, coeffs, max_size=2))
                                    for x in ("p", "q")}) for g in ("p1", "p2")}
    return action_from_derivations(B, A, images)


def _raised(fn, *args):
    """fn(*args), or the text of the CutoffError it raises."""
    try:
        return fn(*args)
    except CutoffError as exc:
        return "CutoffError: %s" % exc


def _row_routes(product, keys, l):
    """The row C_l(keys) of a library twisted product and of the element
    route, each as its (key, coefficient) pairs in order, or the text of
    the CutoffError it raises."""
    def library():
        return list(product.structure_constant(keys, l).terms.items())

    def reference():
        basis = [product._zero._like({k: 1}) for k in keys]
        value = ReferenceTwistedProduct(product).value(product.terms[l], *basis)
        return list(value.terms.items())

    return _raised(library), _raised(reference)


@settings(max_examples=80, deadline=None)
@given(_derivation_actions(), st.data())
def test_rows_match_the_element_route(action, data):
    B, A = action.B, action.A
    keys = st.sampled_from(B.basis_keys(2))
    twist = {0: B.one(2)}
    for l in (1, 2):
        twist[l] = B.tensor(2, data.draw(st.dictionaries(
            st.tuples(keys, keys), st.sampled_from(SMALL), max_size=3)))
    product = StarProduct(UDF(series_from_orders(B, 2, 2, twist)), action)
    pool = st.sampled_from(A.basis_keys())
    args = data.draw(st.tuples(pool, pool))
    got, want = _row_routes(product, args, data.draw(st.integers(0, 2)))
    assert got == want


@pytest.mark.parametrize("symmetric", [False, True], ids=["planar", "symmetric"])
@pytest.mark.parametrize("corrupted", [False, True], ids=["twist", "corrupted"])
def test_ternary_rows_match_the_element_route(symmetric, corrupted):
    P, product = _ternary_product(symmetric, corrupted, order=2)
    # one factor of up to 3 leaves keeps every product at <= 5 leaves
    pools = [P.basis(1) + P.basis(3), P.basis(1), P.basis(1)]
    for keys in bounded_product(pools, lambda tree: 0, 0):
        for l in range(3):
            got, want = _row_routes(product, keys, l)
            assert got == want and isinstance(got, list)


def test_a_row_past_the_cutoff_raises_the_same_error_on_both_routes():
    # p1 acts as p^2 d/dp: p1^2 . p^3 = 12 p^5 passes the cutoff 4, and
    # the t^2 twist term p1^2 @ p2^2 reaches it
    _, action, F = _plane_case(RAISING, QQ(1, 2), 3)
    p3, q = Monomial.parse("p^3"), Monomial.parse("q")
    got, want = _row_routes(StarProduct(F, action), (p3, q), 2)
    assert got == want == "CutoffError: derivation output p^5 exceeds cutoff 4"


@settings(max_examples=80, deadline=None)
@given(_derivation_actions(), st.sampled_from([None, 1, 2]))
def test_module_algebra_decisions_match_the_element_route(action, cutoff):
    got = _outcome(check_module_algebra, action, cutoff=cutoff)
    want = _outcome(reference_check_module_algebra, action, cutoff=cutoff)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_module_algebra_past_the_cutoff_raises_the_same_error_on_both_routes():
    _, action, _ = _plane_case(RAISING, QQ(1, 2), 3)
    got = _outcome(check_module_algebra, action)
    assert got == _outcome(reference_check_module_algebra, action)
    assert got.startswith("CutoffError: derivation output")


@st.composite
def _search_spaces(draw):
    """A truncated polynomial algebra and an operator order small enough
    for the element route."""
    names = draw(st.sampled_from([["p"], ["p", "q"], ["x", "y", "z"]]))
    cutoff = draw(st.integers(1, {1: 4, 2: 3, 3: 2}[len(names)]))
    return PolynomialTruncatedAlgebra(names, cutoff), draw(st.integers(0, 2))


def _pairs(A):
    basis = A.basis_keys()
    return list(bounded_product([basis, basis], A.degree, A.cutoff))


def _assert_columns_match(A, bound):
    pairs = _pairs(A)
    _, candidates, columns, _ = _coboundary_columns(A, pairs, bound)
    want_candidates, _, want = reference_coboundary_columns(A, pairs, bound)
    assert candidates == want_candidates
    assert [{label: Fraction(n, den) for label, n in nums.items()}
            for nums, den in columns] == want


@settings(max_examples=40, deadline=None)
@given(_search_spaces())
def test_operator_columns_match_the_element_route(space):
    _assert_columns_match(*space)


@st.composite
def _operator_coboundaries(draw):
    """delta(g) of a random operator g = sum c m d^alpha inside the search
    space, with deg m <= |alpha| so that delta(g) stays inside the cutoff."""
    A, bound = draw(_search_spaces())
    alphas = st.sampled_from(monomials(A.variables, bound))
    terms = []
    for alpha in draw(st.lists(alphas, max_size=3)):
        mono = draw(st.sampled_from(A.basis_keys(alpha.degree)))
        terms.append((mono, alpha, draw(st.sampled_from(SMALL))))
    g = PolynomialOperator1Cochain(A, terms)
    return A, bound, hochschild_differential(operator_cochain(g))


@settings(max_examples=40, deadline=None)
@given(_operator_coboundaries())
def test_a_found_coboundary_keeps_the_element_route_witness(case):
    A, bound, cochain = case
    g, _ = is_hochschild_coboundary(A, cochain, search_bound=bound)
    assert g is not None
    values = {k: g.on_keys(k).render() for k in A.basis_keys()}
    assert (g.operator.describe(), values) == reference_coboundary_witness(A, cochain, bound)


FINITE_ALGEBRAS = {
    "dual": (["1", "e"], {("e", "e"): {}}),
    "square-zero": (["1", "p", "q"], {}),
    "x3": (["1", "x", "x2"], {("x", "x"): {"x2": 1}}),
    "exterior": (["1", "a", "b", "ab"], {("a", "b"): {"ab": 1}, ("b", "a"): {"ab": -1}}),
}


@pytest.mark.parametrize("name", sorted(FINITE_ALGEBRAS))
def test_finite_columns_and_witness_match_the_element_route(name):
    basis, products = FINITE_ALGEBRAS[name]
    A = FiniteDimensionalAlgebra(basis, "1", products)
    _assert_columns_match(A, None)
    images = {k: A.element({d: QQ(len(k) - i, 1 + i) for i, d in enumerate(basis)})
              for k in basis}
    cochain = hochschild_differential(HochschildCochain(A, 1, images.__getitem__))
    g, _ = is_hochschild_coboundary(A, cochain)
    values = {k: g.on_keys(k).render() for k in basis}
    assert (None, values) == reference_coboundary_witness(A, cochain, None)


# ---------------------------------------------------------------------------
# the cocycle check on the t^1 associator against the element route
# ---------------------------------------------------------------------------

PLANE_B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 4)


@st.composite
def _commuting_derivations(draw, A):
    """Commuting derivations for p1, p2 of PLANE_B: diagonal ones on the
    square-zero algebra; on the plane constant coefficients, the Euler
    pair, or the degree-raising pair p^2 d/dp, q d/dq."""
    coeffs = st.sampled_from(SMALL)
    if A.cutoff is None:
        return {"p1": Derivation(A, {"p": {"p": draw(coeffs)}}),
                "p2": Derivation(A, {"q": {"q": draw(coeffs)}})}
    constant = {g: {v: draw(coeffs) for v in ("p", "q")} for g in ("p1", "p2")}
    return draw(st.sampled_from([constant, EULER, RAISING]))


@st.composite
def _cocycle_cases(draw):
    """(F, action, cutoff) for the cocycle check.  B is tensor-primitive
    with random derivations or polynomial-primitive with commuting ones,
    acting on k[p,q] truncated at 2 or 3 or on the square-zero algebra.  F
    is exp(t r) of order 1 or 2, a twist for r in a commutative span (c g @ g
    over the tensor-primitive B, any sum of c p_i @ p_j over the
    polynomial-primitive one), or 1@1 + t r for a random r of slot degree at
    most 2, which need not be a twist."""
    coeffs = st.sampled_from(SMALL)
    if draw(st.integers(0, 3)):
        A = PolynomialTruncatedAlgebra(["p", "q"], draw(st.integers(2, 3)))
    else:
        A = _square_zero()
    gens = st.sampled_from(["p1", "p2"])
    if draw(st.booleans()):
        B = TENSOR_B
        if A.cutoff is None:
            names = st.sampled_from(["p", "q"])
            images = {g: Derivation(A, {x: draw(st.dictionaries(names, coeffs, max_size=2))
                                        for x in ("p", "q")}) for g in ("p1", "p2")}
        else:
            monos = st.sampled_from(A.basis_keys(2))
            images = {g: {v: Polynomial(draw(st.dictionaries(monos, coeffs, max_size=2)))
                          for v in ("p", "q")} for g in ("p1", "p2")}
        g = B.generator(draw(gens))
        r = g.outer(g).scale(draw(coeffs))
    else:
        B = PLANE_B
        images = draw(_commuting_derivations(A))
        r = B.zero(2)
        for (g, h), c in draw(st.dictionaries(st.tuples(gens, gens), coeffs,
                                              min_size=1, max_size=3)).items():
            r = r + B.generator(g).outer(B.generator(h)).scale(c)
    action = action_from_derivations(B, A, images)
    order = draw(st.integers(1, 2))
    if draw(st.booleans()):
        F = UDF(series_from_orders(B, 2, order, {1: r}).exp())
    else:
        keys = st.sampled_from(B.basis_keys(2))
        r = B.tensor(2, draw(st.dictionaries(st.tuples(keys, keys), coeffs,
                                             min_size=1, max_size=3)))
        F = UDF(series_from_orders(B, 2, order, {0: B.one(2), 1: r}))
    return F, action, draw(st.sampled_from([None, 0, 1, 2, 3, 5]))


def _cocycle_outcome(check, F, action, cutoff):
    """The mu_1 a cocycle check returns, as the (key, coefficient) pairs
    of its values on the basis pairs inside the algebra's cutoff, or the
    text of the ValueError or CutoffError it raises."""
    try:
        mu1 = check(F, action, cutoff=cutoff)
    except (ValueError, CutoffError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    A = action.A
    pairs = bounded_product([A.basis_keys()] * 2, A.degree, A.cutoff)
    return [_raised(lambda: list(mu1.on_keys(*pair).terms.items())) for pair in pairs]


@settings(max_examples=80, deadline=None)
@given(_cocycle_cases())
def test_cocycle_decisions_match_the_element_route(case):
    # the reference reads mu_1 off the full-order product, so equal values
    # also hold the truncated product's C_1 rows to structure_constant(., 1)
    got = _cocycle_outcome(infinitesimal_cocycle, *case)
    want = _cocycle_outcome(reference_infinitesimal_cocycle, *case)
    assert got == want


@pytest.mark.parametrize("name", ["not-a-twist", "raising"])
def test_cocycle_failures_keep_their_text(name):
    B, action, F = _plane_case(RAISING if name == "raising" else MOYAL, QQ(1, 2), 2)
    if name == "not-a-twist":
        F = _not_a_twist(B)
    got = _cocycle_outcome(infinitesimal_cocycle, F, action, None)
    assert got == _cocycle_outcome(reference_infinitesimal_cocycle, F, action, None)
    assert got == {
        "not-a-twist": "ValueError: the order-t layer of a UDF must be a Hochschild "
                       "cocycle: {'keys': ['p', 'p', '1'], 'value': '-2'}",
        "raising": "CutoffError: derivation output p^2*q^3 exceeds cutoff 4",
    }[name]
