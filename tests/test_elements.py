"""The element contract shared by every sparse element class.

`SparseElement` owns the packed form (integer numerators over one reduced
denominator), the linear structure on it, equality, hashing, the zero, the
decoded `terms`, the basis order and the text form; `Polynomial`,
`TensorElement`, `AlgebraElement` and `PAssElement` supply only their product
and the small hooks the kernel docstring lists.  The rendered strings below
were recorded from the per-class renderers this contract replaced, so a
change in any report byte shows up here first.  The linear structure and the
products are compared, values and key order, with the route over Fraction
dicts in `conftest.ReferenceTwin`.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from udeform.bialgebra import BialgebraSpec, TensorElement, construct_bialgebra
from udeform.deform import (
    AlgebraElement, FiniteDimensionalAlgebra, PolynomialTruncatedAlgebra,
)
from udeform.generalized import FreePAssAlgebra, PAssElement
from udeform.kernel import QQ, Monomial, Polynomial, SparseElement, clean_terms, monomials

from conftest import ReferenceTwin

M = Monomial.parse


def cases():
    """name -> element, covering every class, units, arity 0 and signs."""
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 4)
    T = construct_bialgebra(BialgebraSpec("tensor-primitive", ["e1", "e2"]), 3)
    plane = PolynomialTruncatedAlgebra(["p", "q"], 4)
    dual_1 = FiniteDimensionalAlgebra(["1", "x"], "1", {("x", "x"): {}})
    dual_e = FiniteDimensionalAlgebra(["e", "x"], "e", {("x", "x"): {}})
    one_not_unit = FiniteDimensionalAlgebra(["e", "1"], "e", {("1", "1"): {}})
    P = FreePAssAlgebra(["x", "y"], 3, symmetric=False)
    x, y = P.generator("x"), P.generator("y")
    return {
        "poly zero": Polynomial(),
        "poly one": Polynomial.constant(1),
        "poly minus one": Polynomial.constant(-1),
        "poly two": Polynomial.constant(2),
        "poly mixed": Polynomial({M("p*q"): -1, M("1"): QQ(3, 2), M("q^2"): 2}),
        "poly negative lead": Polynomial({M("p"): -1, M("q"): 1, M("p^2"): -2}),
        "tensor zero": B.zero(2),
        "tensor one": B.one(1),
        "tensor minus one": B.one(1).scale(-1),
        "tensor two": B.one(2).scale(2),
        "tensor arity 0 one": TensorElement(B, 0, {(): 1}),
        "tensor arity 0 minus one": TensorElement(B, 0, {(): -1}),
        "tensor arity 0 two": TensorElement(B, 0, {(): 2}),
        "tensor arity 0 zero": TensorElement(B, 0, {}),
        "tensor mixed": B.tensor(
            2,
            {
                (M("p2"), M("1")): -1,
                (M("1"), M("1")): QQ(1, 2),
                (M("p1^2"), M("p2")): 3,
                (M("1"), M("p1")): 1,
            },
        ),
        "tensor words": T.tensor(
            2, {((1, 0), ()): -2, ((), (0,)): -1, ((0,), (1,)): 1, ((), ()): -1}
        ),
        "algebra zero": plane.zero(),
        "algebra one": plane.one(),
        "algebra minus one": plane.one().scale(-1),
        "algebra two": plane.one().scale(2),
        "algebra mixed": plane.element({M("q"): 1, M("1"): -3, M("p*q"): QQ(-1, 2)}),
        "algebra negative lead": plane.element({M("p"): -1, M("q^2"): 1}),
        "unit named 1, two": dual_1.one().scale(2),
        "unit named 1, mixed": dual_1.element({"x": -1, "1": 1}),
        "unit named e, one": dual_e.one(),
        "unit named e, two": dual_e.one().scale(2),
        "unit named e, minus one": dual_e.one().scale(-1),
        "unit named e, mixed": dual_e.element({"x": 2, "e": -1}),
        "key named 1, not the unit, two": one_not_unit.element({"1": 2}),
        "pass zero": P.zero(),
        "pass generator": x,
        "pass minus generator": -x,
        "pass two": x.scale(2),
        "pass mixed": P.ternary(x, y, x).scale(QQ(-3, 2)) + y - x.scale(2),
        "pass negative lead": P.ternary(y, y, y) - y,
    }


RENDERED = {
    "poly zero": "0",
    "poly one": "1",
    "poly minus one": "-1",
    "poly two": "2",
    "poly mixed": "3/2 - p*q + 2*q^2",
    "poly negative lead": "-p + q - 2*p^2",
    "tensor zero": "0",
    "tensor one": "1",
    "tensor minus one": "-1",
    "tensor two": "2*1@1",
    "tensor arity 0 one": "()",
    "tensor arity 0 minus one": "-()",
    "tensor arity 0 two": "2*()",
    "tensor arity 0 zero": "0",
    "tensor mixed": "1/2*1@1 + 1@p1 - p2@1 + 3*p1^2@p2",
    "tensor words": "-1@1 - 1@e1 + e1@e2 - 2*e2*e1@1",
    "algebra zero": "0",
    "algebra one": "1",
    "algebra minus one": "-1",
    "algebra two": "2",
    "algebra mixed": "-3 + q - 1/2*p*q",
    "algebra negative lead": "-p + q^2",
    "unit named 1, two": "2",
    "unit named 1, mixed": "1 - x",
    "unit named e, one": "e",
    "unit named e, two": "2*e",
    "unit named e, minus one": "-e",
    "unit named e, mixed": "-e + 2*x",
    "key named 1, not the unit, two": "2*1",
    "pass zero": "0",
    "pass generator": "x",
    "pass minus generator": "-x",
    "pass two": "2*x",
    "pass mixed": "-2*x + y - 3/2*(x,y,x)",
    "pass negative lead": "-y + (y,y,y)",
}


@pytest.fixture(scope="module")
def elements():
    return cases()


def test_every_class_is_covered(elements):
    assert {type(e) for e in elements.values()} == {
        Polynomial, TensorElement, AlgebraElement, PAssElement,
    }
    assert sorted(elements) == sorted(RENDERED)


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_render_is_unchanged(elements, name):
    e = elements[name]
    assert e.render() == RENDERED[name]
    assert repr(e) == RENDERED[name]


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_scalar_equality(elements, name):
    e = elements[name]
    assert (e == 0) == (not e.terms)
    assert (e == QQ(0)) == (not e.terms)
    if isinstance(e, PAssElement):
        # the free pAss algebra has no unit, so no element equals a nonzero scalar
        assert not e == 1
        assert not e == QQ(2)
        return
    one = e.one_like()
    assert one == 1 and one.scale(2) == 2 and one.scale(-1) == -1
    assert not one == 2 and not one.scale(2) == 1
    assert (e == 2) == (e.terms == one.scale(2).terms)


def test_unit_equality_is_per_space():
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), 2)
    assert B.one(2) == 1 and not B.one(2) == B.one(1)
    other = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), 2)
    assert not B.one(1) == other.one(1)
    plane = PolynomialTruncatedAlgebra(["p"], 2)
    assert not plane.one() == PolynomialTruncatedAlgebra(["p"], 2).one()
    assert not plane.one() == Polynomial.constant(1)
    with pytest.raises(ValueError):
        B.one(2) + B.one(1)
    with pytest.raises(ValueError):
        B.one(1) + other.one(1)
    with pytest.raises(TypeError):
        plane.one() + Polynomial.constant(1)


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_equal_elements_hash_equal(elements, name):
    e = elements[name]
    twin = e.scale(3).scale(QQ(1, 3)) + e.zero_like()
    assert twin is not e
    assert twin == e and hash(twin) == hash(e)
    assert e.zero_like() == 0 and e.zero_like() == e - e
    assert {e: 1}[twin] == 1


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_sorted_terms_follow_the_basis_order(elements, name):
    e = elements[name]
    pairs = e.sorted_terms()
    assert dict(pairs) == e.terms
    assert [e._order(k) for k, _ in pairs] == sorted(e._order(k) for k in e.terms)


@pytest.mark.parametrize(
    "cls", [Polynomial, TensorElement, AlgebraElement, PAssElement]
)
def test_element_policy_lives_only_in_the_base_class(cls):
    assert issubclass(cls, SparseElement)
    policy = (
        "__eq__", "__hash__", "render", "__repr__", "zero_like", "sorted_terms",
        "_canonical", "__bool__", "_sum", "__neg__", "scale", "map_terms", "terms",
    )
    assert [name for name in policy if name in cls.__dict__] == []


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_elements_store_reduced_integer_numerators(elements, name):
    e = elements[name]
    numerators = list(e.codes.values())
    assert all(type(n) is int and n != 0 for n in numerators)
    assert type(e.den) is int and e.den > 0
    assert math.gcd(e.den, *numerators) == 1


def _spaces():
    """(name, pool of basis keys, constructor from terms, product): one space
    per element class the reference twin covers, the products staying inside
    the cutoffs."""
    plane = PolynomialTruncatedAlgebra(["p", "q"], 4)
    quadratic = FiniteDimensionalAlgebra(
        ["1", "x"], "1", {("x", "x"): {"1": QQ(-2, 3), "x": QQ(1, 2)}}
    )
    small = monomials(["p", "q"], 2)
    spaces = [
        ("polynomial", small, Polynomial, lambda a, b, c: a * b),
        ("truncated", small, plane.element, lambda a, b, c: a * b),
        ("finite-dimensional", quadratic.basis, quadratic.element, lambda a, b, c: a * b),
    ]
    for symmetric in (False, True):
        P = FreePAssAlgebra(["x", "y"], 3, symmetric)
        spaces.append((
            "pass symmetric" if symmetric else "pass planar",
            P.basis(1) + P.basis(3),
            lambda terms, P=P: PAssElement(P, terms),
            lambda a, b, c: a.ternary(b, c) if isinstance(a, ReferenceTwin)
            else a.parent.ternary(a, b, c),
        ))
    return spaces


SPACES = _spaces()
COEFFS = [QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4), QQ(5, 6)]


@st.composite
def _operands(draw):
    name, pool, build, product = draw(st.sampled_from(SPACES))
    terms = [draw(st.dictionaries(st.sampled_from(pool), st.sampled_from(COEFFS), max_size=4))
             for _ in range(3)]
    scale = draw(st.sampled_from(COEFFS + [QQ(0)]))
    return name, pool, build, product, terms, scale


def _key_order(x):
    return list(x.terms.items())


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_linear_structure_and_products_match_the_fraction_reference(case):
    name, pool, build, product, terms, scale = case
    got = [build(t) for t in terms]
    want = [ReferenceTwin(x, clean_terms(t)) for x, t in zip(got, terms)]
    for x, y in zip(got, want):
        assert _key_order(x) == _key_order(y), name
    for route in (got, want):
        a, b, c = route
        route.extend([
            a + b, a - b, b - a + c, -a, a.scale(scale), product(a, b, c),
            # each basis key goes to b or c, by its place in the pool
            a.map_terms(lambda k: (b, c)[pool.index(k) % 2]),
        ])
    for x, y in zip(got, want):
        assert _key_order(x) == _key_order(y), name
