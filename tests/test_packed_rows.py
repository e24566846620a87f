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
"""

import json

import pytest

from udeform import cli
from udeform.bialgebra import BialgebraSpec, CutoffError, construct_bialgebra
from udeform.deform import (
    HochschildCochain,
    PolynomialTruncatedAlgebra,
    StarProduct,
    action_from_derivations,
    check_associativity,
    hochschild_differential,
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
from udeform.kernel import QQ, Monomial, Polynomial, TruncSeries
from udeform.twist import UDF, make_exp_udf, series_from_orders

from conftest import (
    ReferenceTwistedProduct,
    antisym,
    from_terms,
    reference_check_associativity,
    reference_check_partial_assoc,
)

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
    got = _outcome(check_associativity, F, action, cutoff=cutoff)
    want = _outcome(reference_check_associativity, F, action, cutoff=cutoff)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    if name.endswith("overflow"):
        assert got == _outcome(check_associativity, F, action) and got["passed"]
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

    rep = check_associativity(perturbed, action)
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
