import importlib.util
import itertools
import math
import operator
from pathlib import Path

import pytest

from udeform.kernel import (
    QQ, Polynomial, SparseElement, TruncSeries, add_into, as_scalar,
    bounded_product, combine, monomials, pack,
)
from udeform.bialgebra import BialgebraSpec, construct_bialgebra
from udeform.reports import CheckReport, first_witness
from udeform.twist import first_failing_order, make_exp_udf, series_circ, series_outer
from udeform.deform import (
    FiniteDimensionalAlgebra, HochschildCochain, PolynomialOperator1Cochain,
    PolynomialTruncatedAlgebra, StarProduct, action_from_derivations,
)
from udeform.generalized import (
    FreePAssAlgebra, TwistedTernaryProduct, _compositions, _fill, _leaves, _node,
    _split, _tree_key,
)
from udeform.kernel import add_term
from udeform import cobar
from udeform.linalg import ForwardSpan, solve as linalg_solve

BENCH = Path(__file__).resolve().parent.parent / "bench"


Z2_TABLE = {
    "elements": ["1", "g"],
    "unit": "1",
    "table": [["1", "g"], ["g", "1"]],
}

IDEMPOTENT_TABLE = {
    "elements": ["1", "e"],
    "unit": "1",
    "table": [["1", "e"], ["e", "e"]],
}


@pytest.fixture(scope="session")
def B1():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), 6)


@pytest.fixture(scope="session")
def B2():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 6)


@pytest.fixture(scope="session")
def B2_wide():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 8)


@pytest.fixture(scope="session")
def B3():
    return construct_bialgebra(
        BialgebraSpec("polynomial-primitive", ["p1", "p2", "p3"]), 6
    )


@pytest.fixture(scope="session")
def tensorB():
    return construct_bialgebra(BialgebraSpec("tensor-primitive", ["e1", "e2"]), 4)


@pytest.fixture(scope="session")
def matrixB():
    return construct_bialgebra(BialgebraSpec("matrix-coordinate"), 3)


@pytest.fixture(scope="session")
def monoid_free():
    return construct_bialgebra(BialgebraSpec("monoid", ["a", "b", "c", "d"]), 4)


@pytest.fixture(scope="session")
def monoid_z2():
    return construct_bialgebra(
        BialgebraSpec("monoid", monoid_table=Z2_TABLE), 1
    )


@pytest.fixture(scope="session")
def monoid_idem():
    return construct_bialgebra(
        BialgebraSpec("monoid", monoid_table=IDEMPOTENT_TABLE), 1
    )


def antisym(B):
    """p1 @ p2 - p2 @ p1 over a two-generator bialgebra."""
    p1, p2 = B.generator("p1"), B.generator("p2")
    return p1.outer(p2) - p2.outer(p1)


@pytest.fixture(scope="session")
def moyal_udf(B2):
    return make_exp_udf(antisym(B2).scale(QQ(1, 2)), order=6)


@pytest.fixture(scope="session")
def plane():
    return PolynomialTruncatedAlgebra(["p", "q"], 4)


@pytest.fixture(scope="session")
def moyal_action(B2, plane):
    return action_from_derivations(
        B2, plane, {"p1": {"p": 1}, "p2": {"q": 1}}
    )


@pytest.fixture(scope="session")
def euler_action(B2, plane):
    return action_from_derivations(
        B2,
        plane,
        {"p1": {"p": Polynomial.variable("p")}, "p2": {"q": Polynomial.variable("q")}},
    )


def from_terms(like, terms):
    """The sibling of the library element `like` with the given terms, a
    dict basis key -> rational, taken as given (no reduction in a quotient)."""
    return like._like(*pack(terms))


class ReferenceElement(SparseElement):
    """The linear structure on Fraction dicts, the route apart from the
    library's packed integer form: `terms` maps basis keys to nonzero
    Fractions, sums add one element at a time with `add_into`, and
    `map_terms` adds each image's terms times its coefficient.  Equality,
    hashing and the renderer stay `SparseElement`'s.  A subclass supplies
    `_like(terms)` and the hooks of the element contract."""

    __slots__ = ("terms",)

    def _canonical(self):
        return 1, self.terms

    def __bool__(self):
        return bool(self.terms)

    def _sum(self, others, sign):
        c = QQ(-1) if sign < 0 else 1
        acc = dict(self.terms)
        for other in others:
            add_into(acc, other.terms, c)
        return self._like(acc)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = as_scalar(c)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def map_terms(self, image, like=None):
        out = {}
        for key, c in self.terms.items():
            add_into(out, image(key).terms, c)
        return (self if like is None else like)._like(out)


class ReferenceTwin(ReferenceElement):
    """The reference twin of a library `Polynomial`, `AlgebraElement` or
    `PAssElement`: the same space, basis order and key text over Fraction
    terms, with the products those classes had on Fraction dicts."""

    __slots__ = ("twin",)

    def __init__(self, twin, terms):
        self.twin, self.terms = twin, dict(terms)

    def _like(self, terms):
        return ReferenceTwin(self.twin, terms)

    def _space(self):
        return type(self.twin), self.twin._space()

    def _order(self, key):
        return self.twin._order(key)

    def _key_text(self, key):
        return self.twin._key_text(key)

    def __mul__(self, other):
        """The product of two polynomials or algebra elements, term by term."""
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if isinstance(self.twin, Polynomial):
                    add_term(out, k1 * k2, c1 * c2)
                    continue
                codes, den = self.twin.parent.product_row(k1, k2)
                add_into(out, {k: QQ(n, den) for k, n in codes.items()}, c1 * c2)
        return self._like(out)

    def ternary(self, y, z):
        """The ternary product of three pAss elements, reduced in Fractions
        (`reference_reduce_coords`)."""
        P, coords = self.twin.parent, {}
        for tx, cx in self.terms.items():
            for ty, cy in y.terms.items():
                for tz, cz in z.terms.items():
                    add_term(coords, _node(tx, ty, tz, P.symmetric), cx * cy * cz)
        return self._like(reference_reduce_coords(P, coords))


def reference_reduce_coords(P, coords):
    """Canonical quotient coordinates of a Fraction dict on trees, reduced
    word by word in Fractions (`fraction_reduce`): the route apart from the
    library's integer residuals."""
    out, by_word = {}, {}
    for tree, c in coords.items():
        n = _leaves(tree)
        if P.symmetric:
            if n < 5 and c:
                out[tree] = c
            continue
        shape, word = _split(tree)
        by_word.setdefault((n, word), {})[shape] = c
    for (n, word), part in by_word.items():
        P._ensure(n)
        vec = {P._index[n][s]: c for s, c in part.items() if c}
        for col, c in fraction_reduce(P._span[n], vec).items():
            out[_fill(P._shapes[n][col], iter(word))] = c
    return out


class ReferenceTensor(ReferenceElement):
    """Tensor arithmetic on key tuples and Fractions, the route apart from
    the library's packed codes: `terms` maps n-tuples of basis keys to
    Fractions, products run slot by slot through `product_single`, and every
    sum adds one term at a time with `add_term`.  The linear structure is
    `ReferenceElement`'s."""

    __slots__ = ("parent", "arity")

    def __init__(self, parent, arity, terms):
        self.parent, self.arity, self.terms = parent, arity, dict(terms)

    @staticmethod
    def of(t):
        """The reference twin of a library tensor element."""
        return ReferenceTensor(t.parent, t.arity, t.terms)

    def _like(self, terms, arity=None):
        return ReferenceTensor(self.parent, self.arity if arity is None else arity, terms)

    def _space(self):
        return self.parent, self.arity

    def _order(self, keys):
        return tuple(map(self.parent.key_sort_key, keys))

    def _key_text(self, keys):
        return "@".join(map(self.parent.key_str, keys)) if keys else "()"

    def one_like(self):
        return ReferenceTensor.of(self.parent.one(self.arity))

    def __mul__(self, other):
        single = self.parent.product_single
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_term(out, tuple(map(single, k1, k2)), c1 * c2)
        return self._like(out)

    def outer(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out[k1 + k2] = c1 * c2
        return self._like(out, self.arity + other.arity)

    def apply_coproduct(self, slot):
        B, i, out = self.parent, slot - 1, {}
        for keys, c in self.terms.items():
            for (a, b), c2 in B.coproduct_key(keys[i]).items():
                add_term(out, keys[:i] + (a, b) + keys[i + 1:], c * c2)
        return self._like(out, self.arity + 1)

    def apply_counit(self, slot):
        B, i, out = self.parent, slot - 1, {}
        for keys, c in self.terms.items():
            add_term(out, keys[:i] + keys[i + 1:], c * B.counit_key(keys[i]))
        return self._like(out, self.arity - 1)

    def permute(self, sigma):
        return self._like({tuple(keys[s - 1] for s in sigma): c
                           for keys, c in self.terms.items()})


# The bialgebra axiom checkers.  No job runs them: the monoid and
# finite-dimensional tables are validated at construction, and the other
# kinds are bialgebras by construction.  Tests use them to tell a broken
# coproduct override from a good one.

def check_axioms(B, cutoff=None):
    """Verify the bialgebra axioms on all basis elements within the cutoff."""
    cutoff = B.cutoff if cutoff is None else cutoff
    report = CheckReport("bialgebra axioms (%s)" % B.spec.kind)
    keys = B.basis_keys(cutoff)
    singles = [(k,) for k in keys]
    pairs = list(bounded_product([keys, keys], B.degree, cutoff))

    def coassociative(k):
        d = B.element({k: QQ(1)}).apply_coproduct(1)
        lhs, rhs = d.apply_coproduct(1), d.apply_coproduct(2)
        if lhs != rhs:
            return {"element": B.key_str(k), "lhs": lhs.render(), "rhs": rhs.render()}

    def counit_law(k):
        e = B.element({k: QQ(1)})
        d = e.apply_coproduct(1)
        if d.apply_counit(1) != e or d.apply_counit(2) != e:
            return {"element": B.key_str(k)}

    def pair(k1, k2):
        return "%s , %s" % (B.key_str(k1), B.key_str(k2))

    def coproduct_multiplicative(k1, k2):
        e1, e2 = B.element({k1: QQ(1)}), B.element({k2: QQ(1)})
        lhs = (e1 * e2).apply_coproduct(1)
        rhs = e1.apply_coproduct(1) * e2.apply_coproduct(1)
        if lhs != rhs:
            return {"pair": pair(k1, k2), "lhs": lhs.render(), "rhs": rhs.render()}

    def counit_multiplicative(k1, k2):
        e1, e2 = B.element({k1: QQ(1)}), B.element({k2: QQ(1)})
        lhs = (e1 * e2).apply_counit(1).scalar_value()
        if lhs != B.counit_key(k1) * B.counit_key(k2):
            return {"pair": pair(k1, k2)}

    bad, _ = first_witness(singles, coassociative)
    report.add("coassociativity", bad is None, bad)
    if B.counital:
        bad, _ = first_witness(singles, counit_law)
        report.add("counit law", bad is None, bad)
    bad, _ = first_witness(pairs, coproduct_multiplicative)
    report.add("coproduct is an algebra morphism", bad is None, bad)
    if B.counital:
        bad, _ = first_witness(pairs, counit_multiplicative)
        report.add("counit is an algebra morphism", bad is None, bad)
    return report


def check_cocommutative(B, cutoff=None):
    """(True, None) iff tau.Delta = Delta on all basis keys within the
    cutoff, else (False, the first failing key)."""
    cutoff = B.cutoff if cutoff is None else cutoff

    def flipped(k):
        d = B.element({k: QQ(1)}).apply_coproduct(1)
        return B.key_str(k) if d.permute((2, 1)) != d else None

    bad, _ = first_witness(((k,) for k in B.basis_keys(cutoff)), flipped)
    return bad is None, bad


def iterated_coproduct(b, k):
    """Delta^k sending B to B^(@(k+1)); Delta^0 = id and Delta^(-1) = eps."""
    if b.arity != 1:
        raise ValueError("iterated coproduct starts from an arity-1 element")
    if k < -1:
        raise ValueError("k must be >= -1")
    B = b.parent
    return b.substitute(1, lambda code: B.iterated_coproduct_code(code, k), k + 1)


def twisted_product(F, action, a, b):
    """a * b = mu(F(a @ b)) as a series over the truncation ring."""
    return StarProduct(F, action).star(a, b)


def twisted_ternary(H, action, a, b, c):
    """One twisted ternary product value as a series."""
    return TwistedTernaryProduct(H, action).product(a, b, c)


def element_product(product):
    """The m-ary product of a library twisted product's target on elements:
    the algebra product, or the ternary product of a free pAss algebra."""
    A = product.action.A
    return A.ternary if isinstance(A, FreePAssAlgebra) else operator.mul


class ReferenceTwistedProduct:
    """A twisted product on Fraction dicts keyed by basis keys, the route
    apart from the library's packed rows.  It takes the twist terms, the
    action and the m-ary product of a library `TwistedProduct`, tabulates
    mu(T_l (b_k1 @ ... @ b_km)) as Fraction dicts keyed by (keys, l), and
    multiplies whole series: every argument (a basis element included) is
    wrapped as a series, and every choice of argument terms adds its
    coefficient times a table entry into a Fraction dict per t-order."""

    def __init__(self, product):
        self.product = product
        self.order = product.order
        self.multiply = element_product(product)
        self.table = {}

    def value(self, terms, *elems):
        """mu(T (x1 @ ... @ xm)) for one twist coefficient T, given as terms."""
        act = self.product.action.apply_key
        out = {}
        for keys, c in terms:
            add_into(out, self.multiply(*map(act, keys, elems)).terms, c)
        return from_terms(elems[0], out)

    def __call__(self, *args):
        n = self.order
        series = [x if isinstance(x, TruncSeries) else TruncSeries.constant(x, n)
                  for x in args]
        if any(s.order != n for s in series):
            raise ValueError("truncation orders differ")
        supports = [[(i, c) for i, c in enumerate(s.coeffs) if c] for s in series]
        slots = [{} for _ in range(n + 1)]
        for combo in itertools.product(*supports):
            low = sum(i for i, _ in combo)
            if low > n:
                continue
            elems = [x for _, x in combo]
            for chosen in itertools.product(*(x.terms.items() for x in elems)):
                keys = tuple(k for k, _ in chosen)
                c = math.prod(a for _, a in chosen)
                for l in range(n - low + 1):
                    entry = self.table.get((keys, l))
                    if entry is None:
                        basis = [x._like({k: 1}) for x, k in zip(elems, keys)]
                        entry = self.value(self.product.terms[l], *basis).terms
                        self.table[keys, l] = entry
                    if entry:
                        add_into(slots[low + l], entry, c)
        like = series[0].coeffs[0]
        return TruncSeries([from_terms(like, s) for s in slots])


def reference_check_associativity(F, action, cutoff=None):
    """`deform.check_associativity` on the reference route: both sides of
    every basis triple multiplied out as series and compared slot by slot."""
    star = ReferenceTwistedProduct(StarProduct(F, action))
    A = action.A
    if cutoff is None:
        cutoff = A.cutoff or 0
    elif A.cutoff is not None:
        cutoff = min(cutoff, A.cutoff)
    report = CheckReport("twisted product associativity")
    keys = A.basis_keys()

    def associative(k1, k2, k3):
        x, y, z = (A.element({k: QQ(1)}) for k in (k1, k2, k3))
        lhs = star(star(x, y), z)
        rhs = star(x, star(y, z))
        failing = first_failing_order(lhs, rhs)
        if failing is not None:
            return {
                "triple": "(%s, %s, %s)" % (A.key_str(k1), A.key_str(k2), A.key_str(k3)),
                "first_failing_order": failing,
                "lhs": lhs.coeffs[failing].render(),
                "rhs": rhs.coeffs[failing].render(),
            }

    one = A.one()

    def unital(k):
        x = A.element({k: QQ(1)})
        expect = TruncSeries.constant(x, star.order)
        if star(one, x) != expect or star(x, one) != expect:
            return {"element": A.key_str(k)}

    bad, count = first_witness(
        bounded_product([keys] * 3, A.degree, cutoff), associative
    )
    report.add("associativity on %d basis triples" % count, bad is None, bad)
    bad, _ = first_witness(((k,) for k in keys), unital)
    report.add("1 is a unit for the twisted product", bad is None, bad)
    return report


def reference_check_module_algebra(action, cutoff=None):
    """`deform.check_module_algebra` on the element route: both sides of
    b.(x y) = sum b1.x b2.y built as elements, through the action's
    `apply_key` and the decoded coproduct, and compared as elements."""
    B, A = action.B, action.A
    if cutoff is None:
        cutoff = A.cutoff
    elif A.cutoff is not None:
        cutoff = min(cutoff, A.cutoff)
    report = CheckReport("module-algebra compatibility")
    bkeys = [k for k in B.basis_keys(min(2, B.cutoff)) if B.degree(k) <= 2]
    akeys = A.basis_keys()

    def b_linear(bk, k1, k2):
        e1, e2 = A.element({k1: QQ(1)}), A.element({k2: QQ(1)})
        lhs = action.apply_key(bk, e1 * e2)
        rhs = A.zero()
        for (b1, b2), c in B.coproduct_key(bk).items():
            rhs = rhs + (action.apply_key(b1, e1) * action.apply_key(b2, e2)).scale(c)
        if lhs != rhs:
            return {
                "b": B.key_str(bk),
                "pair": "%s , %s" % (A.key_str(k1), A.key_str(k2)),
                "lhs": lhs.render(),
                "rhs": rhs.render(),
            }

    def unital(bk):
        got = action.apply_key(bk, A.one())
        if got != A.one().scale(B.counit_key(bk)):
            return {"b": B.key_str(bk), "got": got.render()}

    pairs = list(bounded_product([akeys, akeys], A.degree, cutoff))
    bad, _ = first_witness(
        ((bk, k1, k2) for bk in bkeys for k1, k2 in pairs), b_linear
    )
    report.add("product is B-linear", bad is None, bad)
    bad, _ = first_witness(((bk,) for bk in bkeys), unital)
    report.add("unit condition b.1 = eps(b) 1", bad is None, bad)
    return report


def reference_coboundary_columns(A, pairs, search_bound):
    """(candidates, value, columns) of the coboundary search on the element
    route: each candidate's values g(key) as elements -- an operator
    m * d^alpha applied to untruncated Polynomials by repeated partial
    derivatives (`apply_poly_operator`), an elementary map of a
    finite-dimensional basis as A's elements -- and each column
    delta(g)(x, y) = x g(y) - g(xy) + g(x) y multiplied out on every basis
    pair, as a dict (pair, key) -> Fraction."""
    basis = A.basis_keys()
    if isinstance(A, FiniteDimensionalAlgebra):
        candidates = list(itertools.product(basis, basis))

        def lift(key):
            return A.element({key: QQ(1)})

        def value(cand, key):
            return lift(cand[1]) if key == cand[0] else A.zero()
    else:
        candidates = [(mono, m) for m in monomials(A.variables, search_bound)
                      for mono in basis]

        def lift(key):
            return Polynomial({key: QQ(1)})

        def value(cand, key):
            return apply_poly_operator(*cand, lift(key))

    lifted = {k: lift(k) for k in basis}
    columns = []
    for cand in candidates:
        g = {k: value(cand, k) for k in basis}
        column = {}
        for x, y in pairs:
            xy = lifted[x] * lifted[y]
            v = lifted[x] * g[y] - xy.map_terms(g.__getitem__) + g[x] * lifted[y]
            column.update({((x, y), k): c for k, c in v.terms.items()})
        columns.append(column)
    return candidates, value, columns


def reference_coboundary_witness(A, cochain, search_bound):
    """The witness of `deform.is_hochschild_coboundary` from the reference
    columns: None, or (describe() of the operator, or None on a
    finite-dimensional algebra; the rendered value g(key) per basis key)."""
    basis = A.basis_keys()
    pairs = list(bounded_product([basis, basis], A.degree, A.cutoff))
    candidates, value, columns = reference_coboundary_columns(A, pairs, search_bound)
    target = {}
    for pair in pairs:
        target.update({(pair, k): c for k, c in cochain.on_keys(*pair).terms.items()})
    sol = linalg_solve([pack(col) for col in columns], pack(target))
    if sol is None:
        return None
    chosen = [(candidates[j], c) for j, c in sorted(sol.items())]
    values = {}
    for key in basis:
        out = A.zero()
        for cand, c in chosen:
            out = out + from_terms(A.zero(), value(cand, key).terms).scale(c)
        values[key] = out.render()
    if isinstance(A, FiniteDimensionalAlgebra):
        return None, values
    operator_ = PolynomialOperator1Cochain(
        A, [(mono, alpha, c) for (mono, alpha), c in chosen])
    return operator_.describe(), values


def reference_check_partial_assoc(product, cutoff, order):
    """`generalized.check_partial_assoc` on the reference route: the three
    products of every basis 5-tuple multiplied out as series and summed."""
    P = product.action.A
    prod = ReferenceTwistedProduct(product)
    report = CheckReport("partial associativity")
    pools = {n: [P.element({t: QQ(1)}) for t in P.basis(n)]
             for n in range(1, cutoff + 1, 2)}
    zero = TruncSeries([P.zero()] * (order + 1))

    def relation(a, b, c, d, e):
        total = (
            prod(a, b, prod(c, d, e))
            + prod(a, prod(b, c, d), e)
            + prod(prod(a, b, c), d, e)
        )
        failing = first_failing_order(zero, total)
        if failing is not None:
            return {
                "tuple": [x.render() for x in (a, b, c, d, e)],
                "first_failing_order": failing,
                "value": total.coeffs[failing].render(),
            }

    splits = [s for total in range(5, cutoff + 1, 2) for s in _compositions(total, 5)]
    bad, count = first_witness(
        itertools.chain.from_iterable(
            itertools.product(*(pools[m] for m in split)) for split in splits
        ),
        relation,
    )
    report.add(
        "relation on %d basis 5-tuples (mod t^%d)" % (count, order + 1),
        bad is None,
        bad,
    )
    return report


def lambda_expected(num_primitives):
    """Expected total H^2 dimension for a primitively generated polynomial
    bialgebra on k generators: the dimension k(k-1)/2 of the degree-2 part
    of the exterior algebra on the primitives."""
    k = num_primitives
    if k < 0:
        raise ValueError("the number of primitives is nonnegative")
    return k * (k - 1) // 2


def coproduct_series(s, slot):
    """Delta on slot `slot` of every coefficient of a tensor series."""
    return s.map_coeffs(lambda c: c.apply_coproduct(slot))


def hand_cocycle_sides(s):
    """The two sides of (d1) for an arity-2 tensor series F, built by hand
    from the coproduct, the concatenation and the product:
    (Delta@id)(F) (F@1) and (id@Delta)(F) (1@F).  The reference route for
    the library's F o_1 F and F o_2 F."""
    one = TruncSeries.constant(s.coeffs[0].parent.one(1), s.order)
    return (coproduct_series(s, 1) * series_outer(s, one),
            coproduct_series(s, 2) * series_outer(one, s))


def substitute_linear(poly, images):
    """The Polynomial poly with each variable named in `images` substituted
    by its Polynomial image (e.g. u1 -> u1 + u2)."""
    def term(mono):
        out = Polynomial.constant(1)
        for name, e in mono:
            img = images.get(name)
            out = out * (Polynomial.variable(name) if img is None else img) ** e
        return out

    return combine(poly, ((n, term(mono)) for mono, n in poly.codes.items()), poly.den)


def cocycle_sides(s):
    """F o_1 F and F o_2 F for an arity-2 tensor series F, each built in
    full: the two sides of (d1), (Delta@id)(F) (F@1) and (id@Delta)(F) (1@F).
    The reference the library's order-by-order (d1) check is compared with."""
    return series_circ(s, 1, s), series_circ(s, 2, s)


def reference_series_identity(report, label, lhs, rhs):
    """Add the entry lhs = rhs for two series built in full to `report`,
    the witness read off the first differing coefficient: the reference
    route of `twist.add_series_identity`."""
    k = first_failing_order(lhs, rhs)
    report.add(
        label,
        k is None,
        None if k is None else {
            "first_failing_order": k,
            "difference": (lhs.coeffs[k] - rhs.coeffs[k]).render(),
        },
    )


def integer_row(T, index):
    """T as an integer row on its line: coefficients times the lcm of their
    denominators, each key tuple at its column in `index` (new ones next)."""
    den = math.lcm(*[c.denominator for c in T.terms.values()])
    return {index.setdefault(keys, len(index)): int(c * den)
            for keys, c in T.terms.items()}


def in_span(ech, vec):
    """Does the integer vector vec lie in the row space of the `Echelon` ech?"""
    residual, _ = ech.reduce(vec)
    return not residual


def fraction_reduce(ech, vec):
    """The Fraction dict vec modulo the row space of the `Echelon` ech, in
    Fractions: the smallest pivot column left in vec is cleared by
    subtracting vec[p] / row[p] times that row until none is left."""
    vec, rows = dict(vec), ech.rows
    while True:
        hits = [j for j in vec if j in rows]
        if not hits:
            return vec
        p = min(hits)
        add_into(vec, rows[p], QQ(-vec[p], rows[p][p]))


def apply_poly_operator(mono_coeff, alpha, poly):
    """(mono_coeff * d^alpha) applied to an untruncated polynomial, by
    repeated partial derivatives."""
    out = poly
    for name, order in alpha:
        for _ in range(order):
            out = out.partial(name)
            if not out:
                return out
    # distinct monomials stay distinct times mono_coeff
    return out._like({mono_coeff * m: n for m, n in out.codes.items()}, out.den)


def operator_cochain(op):
    """A `PolynomialOperator1Cochain` as the Hochschild 1-cochain
    key -> op(key) on its algebra."""
    A = op.parent

    def g(key):
        poly = Polynomial({key: QQ(1)})
        out = {}
        for mono, alpha, c in op.terms:
            add_into(out, apply_poly_operator(mono, alpha, poly).terms, c)
        return from_terms(A.zero(), out)

    return HochschildCochain(A, 1, g)


def evaluate(c, *elems):
    """A Hochschild cochain on elements, extended linearly from its values
    on basis keys."""
    return combine(c.parent.zero(), (
        (math.prod(n for _, n in combo), c.on_keys(*(k for k, _ in combo)))
        for combo in itertools.product(*(e.codes.items() for e in elems))),
        math.prod(e.den for e in elems))


def hochschild_differential(c):
    """The Hochschild coboundary of a 1- or 2-cochain, on elements: the
    reference the library's row route (`deform.infinitesimal_cocycle`) is
    held to."""
    A = c.parent
    if c.degree == 1:
        def d(x, y):
            ex, ey = A.element({x: QQ(1)}), A.element({y: QQ(1)})
            return ex * c.on_keys(y) - evaluate(c, ex * ey) + c.on_keys(x) * ey
        return HochschildCochain(A, 2, d)
    if c.degree == 2:
        def d3(x, y, z):
            ex, ey, ez = (A.element({k: QQ(1)}) for k in (x, y, z))
            return (
                ex * c.on_keys(y, z)
                - evaluate(c, ex * ey, ez)
                + evaluate(c, ex, ey * ez)
                - c.on_keys(x, y) * ez
            )
        return HochschildCochain(A, 3, d3)
    raise ValueError("differentials ship for degrees 1 and 2 only")


def reference_infinitesimal_cocycle(F, action, cutoff=None):
    """`deform.infinitesimal_cocycle` on the element route: mu_1 read from
    the C_1 rows of the full-order product, and delta(mu_1) built as
    elements by `hochschild_differential` on the basis triples within the
    cutoff, clamped to the algebra's."""
    star = StarProduct(F, action)
    A = action.A
    if cutoff is None:
        cutoff = A.cutoff or 0
    elif A.cutoff is not None:
        cutoff = min(cutoff, A.cutoff)
    cochain = HochschildCochain(A, 2, lambda x, y: star.structure_constant((x, y), 1))
    ok, witness = hochschild_differential(cochain).zero_witness(cutoff)
    if not ok:
        raise ValueError(
            "the order-t layer of a UDF must be a Hochschild cocycle: %s" % witness
        )
    return cochain


def raw_tree_count(generators, leaf_count, symmetric):
    """Ternary trees on `generators` with `leaf_count` leaves, before the
    pAss relation, counted apart from the library: a planar tree is a triple
    of trees, a symmetric one a multiset of three."""
    trees = {1: set(generators)}
    for n in range(3, leaf_count + 1, 2):
        level = set()
        for a in range(1, n - 1, 2):
            for b in range(1, n - a, 2):
                for t in itertools.product(trees[a], trees[b], trees[n - a - b]):
                    level.add(tuple(sorted(t, key=repr)) if symmetric else t)
        trees[n] = level
    return len(trees[leaf_count])


def labeled_relation(t1, t2, t3, t4, t5, symmetric):
    """The three canonical labeled trees whose sum is one pAss relation."""
    return (
        _node(t1, t2, _node(t3, t4, t5, symmetric), symmetric),
        _node(t1, _node(t2, t3, t4, symmetric), t5, symmetric),
        _node(_node(t1, t2, t3, symmetric), t4, t5, symmetric),
    )


def labeled_quotient(generators, leaf_count, symmetric):
    """The free pAss quotient eliminated over labeled trees, the route apart
    from the library's shape reduction: {n: (trees, span)} for each odd
    n <= leaf_count, `trees` the canonical trees on `generators` labels in
    basis order and `span` the relation span over their indices."""
    trees, spans = {}, {}
    for n in range(1, leaf_count + 1, 2):
        if n == 1:
            level = list(range(generators))
        else:
            level = sorted(
                {
                    _node(a, b, c, symmetric)
                    for split in _compositions(n, 3)
                    for a, b, c in itertools.product(*(trees[m] for m in split))
                },
                key=_tree_key,
            )
        index = {t: i for i, t in enumerate(level)}
        span = ForwardSpan()
        trees[n], spans[n] = level, span
        if n < 5:
            continue
        seen = set()

        def feed(parts):
            vec = {}
            for tree, c in parts:
                add_term(vec, index[tree], c)
            frozen = frozenset(vec.items())
            if vec and frozen not in seen:
                seen.add(frozen)
                span.add(vec)

        # direct relation instances on lower trees
        for split in _compositions(n, 5):
            for leaves in itertools.product(*(trees[m] for m in split)):
                feed((t, 1) for t in labeled_relation(*leaves, symmetric))
        # relation consequences wrapped one node deeper
        for m in range(5, n - 1, 2):
            for u_leaves, v_leaves in _compositions(n - m, 2):
                for row in spans[m].rows.values():
                    terms = [(trees[m][col], c) for col, c in row.items()]
                    for u, v in itertools.product(trees[u_leaves], trees[v_leaves]):
                        for slot in range(3):
                            parts = []
                            for tree, c in terms:
                                args = [u, v]
                                args.insert(slot, tree)
                                parts.append((_node(*args, symmetric), c))
                            feed(parts)
    return {n: (trees[n], spans[n]) for n in trees}


def fuss_catalan(leaf_count):
    """Planar ternary tree shapes with `leaf_count` leaves: C(3k, k)/(2k+1)
    for k = (leaf_count - 1)/2 nodes."""
    k = (leaf_count - 1) // 2
    return math.comb(3 * k, k) // (2 * k + 1)


def guard_shape_builds(monkeypatch, allowed=None):
    """Wrap `FreePAssAlgebra._build_count` so that every build holds at most
    the Fuss-Catalan count of trees at its leaf count (a labeled build fails
    already at one leaf), and, with `allowed`, only builds those leaf counts.
    Returns the set of leaf counts built."""
    original = FreePAssAlgebra._build_count
    built = set()

    def guarded(self, n):
        # stop before an unneeded build, which can run for minutes
        assert allowed is None or n in allowed, "built the %d-leaf quotient" % n
        original(self, n)
        assert len(self._shapes[n]) <= fuss_catalan(n), (
            "the %d-leaf build holds %d trees" % (n, len(self._shapes[n]))
        )
        built.add(n)

    monkeypatch.setattr(FreePAssAlgebra, "_build_count", guarded)
    return built


def bench_job(name):
    """The document of one benchmark job, as `bench/jobs.py` builds it."""
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for workload in jobs.WORKLOADS.values():
        for job in workload(0):
            if job.name == name:
                return job.doc
    raise KeyError(name)


def reference_cobar_block(B, cutoff, label):
    """One block of `cobar.CobarComplex` built on key tuples and Fractions,
    the route apart from the library's integer codes: its key pairs, the
    nonzero columns of d1 and the rows of d2, one per triple d2 reaches, in
    the order the triples are first reached."""
    unit = B.unit_key
    dbar = {
        m: {p: c for p, c in B.coproduct_key(m).items() if unit not in p}
        for m in cobar.reduced_keys(B, cutoff)
    }
    pairs = cobar._pairs_for_block(B, cutoff, label, reduced=True)
    pair_index = {p: i for i, p in enumerate(pairs)}
    d1_cols = []
    for m in cobar._keys_for_block(B, cutoff, label, reduced=True):
        col = {pair_index[p]: c for p, c in dbar[m].items()}
        if col:
            d1_cols.append(col)
    rows = {}
    for col, (m, n) in enumerate(pairs):
        for (a, b), c in dbar[m].items():
            add_term(rows.setdefault((a, b, n), {}), col, c)
        for (a, b), c in dbar[n].items():
            add_term(rows.setdefault((m, a, b), {}), col, -c)
    return {"pairs": pairs, "d1_cols": d1_cols, "d2_rows": list(rows.values())}


def reference_twist_system(B, cutoff, label):
    """The additive twist equation of one block built on key tuples and
    Fractions: (key pairs, rows, gauge vectors), the rows in the order their
    triples are first reached."""
    unit = B.unit_key
    pairs = cobar._pairs_for_block(B, cutoff, label, reduced=False)
    pair_index = {p: i for i, p in enumerate(pairs)}
    rows = {}

    def put(triple, col, c):
        add_term(rows.setdefault(triple, {}), col, c)

    for col, (m, n) in enumerate(pairs):
        for (a, b), c in B.coproduct_key(m).items():
            put((a, b, n), col, c)          # (Delta @ id) xi
        put((m, n, unit), col, QQ(1))       # xi @ 1
        for (a, b), c in B.coproduct_key(n).items():
            put((m, a, b), col, -c)         # -(id @ Delta) xi
        put((unit, m, n), col, QQ(-1))      # -1 @ xi
    gauge = []
    for g in cobar._keys_for_block(B, cutoff, label, reduced=False):
        img = dict(B.coproduct_key(g))
        add_term(img, (unit, g), QQ(-1))
        add_term(img, (g, unit), QQ(-1))
        vec = {pair_index[p]: c for p, c in img.items()}
        if vec:
            gauge.append(vec)
    return pairs, list(rows.values()), gauge
