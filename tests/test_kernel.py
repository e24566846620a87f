import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from udeform.kernel import (
    Monomial,
    Polynomial,
    QQ,
    TruncSeries,
    add_into,
    add_term,
    bounded_product,
    monomials,
    pack,
    series_multilinear,
)
from udeform.linalg import Echelon, ForwardSpan, ReducedEchelon, kernel_basis, solve

from conftest import substitute_linear


def S(values, order):
    """The series of the given Fraction coefficients, zero-padded to order."""
    return TruncSeries([QQ(v) for v in values] + [QQ(0)] * (order + 1 - len(values)))


class TestSeriesMul:
    def test_one_plus_t_times_one_minus_t(self):
        assert S([1, 1], 2) * S([1, -1], 2) == S([1, 0, -1], 2)

    def test_unit(self):
        a = S([1, 1], 2)
        assert a * S([1], 2) == a

    def test_hand_expanded_square(self):
        # (t + t^2)^2 = t^2 + 2t^3 + t^4, truncated at order 3
        x = S([0, 1, 1], 3)
        assert x * x == S([0, 0, 1, 2], 3)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            S([1], 2) * S([1], 3)


class TestExpLogInv:
    def test_exp_t(self):
        assert S([0, 1], 2).exp() == S([1, 1, QQ(1, 2)], 2)

    def test_exp_zero(self):
        assert S([0], 5).exp() == S([1], 5)

    def test_exp_t_plus_t2(self):
        assert S([0, 1, 1], 2).exp() == S([1, 1, QQ(3, 2)], 2)

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            S([1, 1], 2).exp()

    def test_log_one_plus_t(self):
        assert S([1, 1], 3).log() == S([0, 1, QQ(-1, 2), QQ(1, 3)], 3)

    def test_log_one(self):
        assert S([1], 4).log() == S([0], 4)

    def test_log_exp_roundtrip(self):
        x = S([0, 1, 2], 4)
        assert x.exp().log() == x

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            S([2, 1], 2).log()

    def test_inv_one_plus_t(self):
        assert S([1, 1], 2).inverse() == S([1, -1, 1], 2)

    def test_inv_one(self):
        assert S([1], 3).inverse() == S([1], 3)

    def test_inv_geometric(self):
        assert S([1, QQ(-1, 2)], 2).inverse() == S([1, QQ(1, 2), QQ(1, 4)], 2)

    def test_inv_scalar_constant(self):
        y = S([2, 1], 2)
        assert y * y.inverse() == S([1], 2)

    def test_inv_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            S([0, 1], 2).inverse()


small_scalars = st.integers(min_value=-4, max_value=4).map(QQ)


def series_strategy(order):
    return st.lists(
        small_scalars, min_size=order + 1, max_size=order + 1
    ).map(TruncSeries)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(series_strategy(n), series_strategy(n), series_strategy(n))
))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b - a) == b


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(small_scalars, min_size=n, max_size=n)
))
def test_exp_log_inverse_pair(tail):
    x = TruncSeries([QQ(0)] + tail)
    assert x.exp().log() == x
    y = x.exp()
    assert y.log().exp() == y


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(small_scalars, min_size=n, max_size=n),
        st.lists(small_scalars, min_size=n, max_size=n),
    )
))
def test_exp_is_additive_for_commuting_arguments(pair):
    xa, xb = pair
    x = TruncSeries([QQ(0)] + xa)
    y = TruncSeries([QQ(0)] + xb)
    assert (x + y).exp() == x.exp() * y.exp()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(series_strategy(n), series_strategy(n))
))
def test_no_stored_zeros_or_unreduced_fractions(pair):
    a, b = pair
    for s in (a * b, a + b, a - b):
        for c in s.coeffs:
            assert isinstance(c, Fraction)  # always reduced, exact


def test_series_multilinear_matches_product():
    a, b = S([1, 2, 3], 2), S([4, 5, 6], 2)
    assert series_multilinear(lambda x, y: x * y, a, b) == a * b


def test_series_multilinear_three_series_and_empty_slots():
    a, b, c = S([1, 0, 3, 0], 3), S([0, 5, 0, 2], 3), S([2, 0, 0, 7], 3)
    assert series_multilinear(lambda x, y, z: x * y * z, a, b, c) == (a * b) * c
    # t^1 and t^3 receive no term: they hold the zero of the value space
    p, q, zero = Polynomial.variable("p"), Polynomial.variable("q"), Polynomial()
    sp = TruncSeries([p, zero, q, zero])
    sq = TruncSeries([q, zero, zero, zero])
    got = series_multilinear(lambda x, y, z: x * y * z, sp, sq, sp)
    assert got == (sp * sq) * sp
    for k in (1, 3):
        assert isinstance(got.coeffs[k], Polynomial) and not got.coeffs[k]
    assert got.coeffs[2] == p * q * q + q * q * p


# items are (label, weight) pairs, so items of equal weight stay distinct
weighted_pools = st.lists(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)), max_size=4),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(weighted_pools, st.integers(-1, 8))
def test_bounded_product_is_the_filtered_product(pools, bound):
    weighed = []

    def weight(item):
        weighed.append(item)
        return item[1]

    got = list(bounded_product(pools, weight, bound))
    want = [
        tup for tup in itertools.product(*pools)
        if sum(w for _, w in tup) <= bound
    ]
    assert got == want
    assert len(weighed) <= sum(map(len, pools))


def test_bounded_product_edge_cases():
    def weight(x):
        return x

    assert list(bounded_product([[0, 0], [0]], weight, 0)) == [(0, 0), (0, 0)]
    assert list(bounded_product([[1, 2], []], weight, 5)) == []
    assert list(bounded_product([[3, 1, 2]], weight, 2)) == [(1,), (2,)]
    assert list(bounded_product([[2, 0], [1, 0]], weight, 0)) == [(0, 0)]
    assert list(bounded_product([], weight, 0)) == [()]
    assert list(bounded_product([], weight, -1)) == []
    assert list(bounded_product([[5], [1, 2]], weight, None)) == [(5, 1), (5, 2)]


class TestPolynomial:
    def test_parse_and_multiply(self):
        p = Polynomial.variable("p")
        q = Polynomial.variable("q")
        assert (p + q) * (p - q) == p * p - q * q

    def test_monomial_parse(self):
        m = Monomial.parse("p^2*q")
        assert m.degree == 3
        assert repr(m) == "p^2*q"
        assert Monomial.parse("1") == Monomial()

    def test_monomial_keys_hash_and_compare_as_tuples(self):
        # the action table and the product rows are keyed by monomials, so
        # their hashing and equality must stay the tuple's, in C
        assert Monomial.__hash__ is tuple.__hash__
        assert Monomial.__eq__ is tuple.__eq__
        m = Monomial({"q": 1, "s": 0, "p": 2})
        assert Monomial(m) is m
        n = Monomial({"p": 2, "r": 0, "q": 1})
        assert n == m and hash(n) == hash(m)
        assert Monomial() == () and not Monomial()
        got = sorted(monomials(["p", "q"], 3), key=Monomial.sort_key)
        assert list(map(repr, got)) == [
            "1", "p", "q", "p*q", "p^2", "q^2", "p*q^2", "p^2*q", "p^3", "q^3"]

    def test_malformed_monomial_is_named(self):
        for text in ("p^x", "p^2^3", "p^-1"):
            with pytest.raises(ValueError, match=re.escape("malformed monomial %r" % text)):
                Monomial.parse(text)

    def test_partial_derivative(self):
        p = Polynomial.variable("p")
        f = p * p * p
        assert f.partial("p") == (p * p).scale(3)
        assert f.partial("q") == Polynomial()

    def test_substitute_linear(self):
        # f(u1, u2) = u1*u2 composed with u1 -> u1 + u2, u2 -> u3
        f = Polynomial.variable("u1") * Polynomial.variable("u2")
        g = substitute_linear(
            f,
            {
                "u1": Polynomial.variable("u1") + Polynomial.variable("u2"),
                "u2": Polynomial.variable("u3"),
            }
        )
        u1, u2, u3 = (Polynomial.variable(n) for n in ("u1", "u2", "u3"))
        assert g == u1 * u3 + u2 * u3

    def test_no_zero_terms_stored(self):
        p = Polynomial.variable("p")
        z = p - p
        assert not z.terms
        assert z == 0

    def test_pow(self):
        p = Polynomial.variable("p")
        one = Polynomial.constant(1)
        assert (p + one) ** 2 == p * p + p.scale(2) + one


# ---------------------------------------------------------------------------
# the in-place accumulator and the two elimination classes
# ---------------------------------------------------------------------------

coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=3)
sparse_vectors = st.dictionaries(
    st.integers(0, 5), coefficients.filter(bool), max_size=5
)


def naive_sum(acc, terms, c):
    """A fresh copy of acc with c * terms added one term at a time."""
    out = dict(acc)
    for key, x in terms.items():
        s = out.get(key, QQ(0)) + c * x
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


@settings(max_examples=200, deadline=None)
@given(sparse_vectors, st.lists(st.tuples(sparse_vectors, coefficients), max_size=5))
def test_add_into_is_the_naive_sum_in_place(acc, summands):
    got, expected = dict(acc), dict(acc)
    for terms, c in summands:
        assert add_into(got, terms, c) is got
        expected = naive_sum(expected, terms, c)
        # same items in the same order, and never a stored zero
        assert list(got.items()) == list(expected.items())
        assert all(got.values())
    # a summand and its negative cancel to nothing
    assert add_into(dict(got), got, QQ(-1)) == {}
    assert add_into(dict(got), got) == naive_sum(got, got, 1)


@settings(max_examples=100, deadline=None)
@given(sparse_vectors, st.lists(st.tuples(st.integers(0, 5), coefficients), max_size=8))
def test_add_term_never_stores_zero(acc, updates):
    expected = dict(acc)
    for key, c in updates:
        add_term(acc, key, c)
        expected = naive_sum(expected, {key: c}, 1)
        assert list(acc.items()) == list(expected.items())
        assert all(acc.values())


def with_dependent_rows(rows, mixes):
    """rows plus combinations of its first two, so that dependent rows occur."""
    if len(rows) >= 2:
        for a, b in mixes:
            rows.append(naive_sum(naive_sum({}, rows[0], a), rows[1], b))
    return rows


def gauss_jordan(rows):
    """Reference elimination in Fractions, fully reduced after every row: the
    pivot each row gets (None if dependent) and pivot -> unit-pivot row, in
    insertion order.  The pivot is the smallest column of the residual."""
    rref, pivots = {}, []
    for vec in rows:
        res = gauss_jordan_reduce(rref, vec)
        if not res:
            pivots.append(None)
            continue
        piv = min(res)
        row = {j: x / res[piv] for j, x in res.items()}
        for p, other in rref.items():
            if piv in other:
                rref[p] = naive_sum(other, row, -other[piv])
        rref[piv] = row
        pivots.append(piv)
    return pivots, rref


def gauss_jordan_reduce(rref, vec):
    # rows of a reduced echelon form vanish in every other pivot column, so
    # one pass over them clears every pivot column of vec
    res = naive_sum({}, vec, 1)
    for piv, row in rref.items():
        if piv in res:
            res = naive_sum(res, row, -res[piv])
    return res


def apply_rows(rows, x):
    return [sum((c * x.get(j, 0) for j, c in row.items()), QQ(0)) for row in rows]


NCOLS = 6  # sparse_vectors use columns 0..5


def cleared(row):
    """row times the lcm of its denominators: an integer row on its line."""
    den = math.lcm(*[x.denominator for x in row.values()])
    return {j: int(x * den) for j, x in row.items()}


def fractions(nums, den):
    """The packed vector nums / den as a Fraction dict, in its key order."""
    return {j: QQ(x, den) for j, x in nums.items()}


def residual(ech, vec):
    """The Fraction residual of the Fraction dict vec modulo ech's row space,
    through the integer `Echelon.reduce` of its numerators."""
    nums, den = pack(vec)
    res, scale = ech.reduce(nums)
    assert scale > 0 and all(type(x) is int for x in res.values())
    assert res.keys().isdisjoint(ech.rows)
    return fractions(res, scale * den)


def test_echelon_rows_are_primitive_integers():
    ech = Echelon()
    # 9 (-2/3, 4/9) and 6 (1, 1/2, -1/3): rows are stored primitive
    assert ech.add({3: -6, 5: 4}) == 3
    assert ech.add({3: 6, 4: 3, 5: -2}) == 4
    assert ech.rows == {3: {3: 3, 5: -2}, 4: {4: 3, 5: 2}}
    vec = {4: 1, 5: 1}
    assert ech.reduce(vec) == ({5: 1}, 3)  # (0, 1, 1) = (0, 1, 2/3) + (0, 0, 1/3)
    assert vec == {4: 1, 5: 1}


def columns_of(rows, ncols):
    """The packed columns of a list of Fraction rows, each keyed by row index."""
    return [pack({i: r[j] for i, r in enumerate(rows) if j in r}) for j in range(ncols)]


def test_solve_inconsistent_and_consistent():
    columns = [({0: 1, 1: 2}, 1), ({0: 1, 1: 2}, 1)]
    assert solve(columns, ({0: 1, 1: 3}, 1)) is None
    assert solve(columns, ({0: 1, 1: 2}, 1)) == {0: QQ(1)}


def test_solve_rescales_packed_columns():
    # x0 (1/2, 1/3, 0) + x1 (1/5, 0, 1/4) = t = (137, 110, -35) / 770: the
    # integer system on the numerators has y_j = x_j d_t / d_j
    c0, c1 = {0: QQ(1, 2), 1: QQ(1, 3)}, {0: QQ(1, 5), 2: QQ(1, 4)}
    x0, x1 = QQ(3, 7), QQ(-2, 11)
    target = {j: x0 * c0.get(j, 0) + x1 * c1.get(j, 0) for j in range(3)}
    columns = [pack(c0), pack(c1)]
    assert [den for _, den in columns] == [6, 20]
    assert pack(target) == ({0: 137, 1: 110, 2: -35}, 770)
    assert solve(columns, pack(target)) == {0: x0, 1: x1}
    # the reference: the same system in Fractions
    _, aug_rref = gauss_jordan([{0: c0.get(i, 0), 1: c1.get(i, 0), 2: -target[i]}
                                for i in range(3)])
    assert {p: -row[2] for p, row in aug_rref.items() if 2 in row} == {0: x0, 1: x1}
    target[1] += 1  # now off the column span
    assert solve(columns, pack(target)) is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(sparse_vectors, max_size=8),
    st.lists(st.tuples(coefficients, coefficients), max_size=3),
    st.lists(sparse_vectors, max_size=4),
    st.lists(coefficients, min_size=11, max_size=11),
)
def test_echelon_matches_fraction_gauss_jordan(rows, mixes, probes, rhs):
    rows = with_dependent_rows(rows, mixes)
    pivots, rref = gauss_jordan(rows)
    # equation rows are integer: each rational row enters on its line
    integer_rows = [cleared(row) for row in rows]
    copies = [dict(row) for row in integer_rows]
    ech = Echelon()
    assert [ech.add(row) for row in integer_rows] == pivots
    assert integer_rows == copies  # add leaves its input unchanged
    assert list(ech.rows) == list(rref) and ech.rank == len(rref)
    for piv, row in ech.rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == piv and row[piv] > 0
        assert math.gcd(*row.values()) == 1
    red = ReducedEchelon()
    assert [red.add(row) for row in integer_rows] == pivots
    assert integer_rows == copies
    reduced = red.rows
    assert list(reduced) == list(rref)
    for piv, row in reduced.items():
        assert all(type(x) is int for x in row.values())
        assert {j: QQ(x, row[piv]) for j, x in row.items()} == rref[piv]
    for vec in rows + probes:
        assert residual(ech, vec) == gauss_jordan_reduce(rref, vec) == residual(red, vec)

    # kernel vectors are packed and reduced, entries in the reference's order
    kernel = kernel_basis(integer_rows, NCOLS)
    expected = []
    for j in range(NCOLS):
        if j not in rref:
            vec = {j: QQ(1)}
            for p, row in rref.items():
                if j in row:
                    vec[p] = -row[j]
            expected.append(vec)
    for nums, den in kernel:
        assert den > 0 and all(type(x) is int for x in nums.values())
        assert math.gcd(den, *nums.values()) == 1
    assert ([list(fractions(*v).items()) for v in kernel]
            == [list(v.items()) for v in expected])
    assert all(not any(apply_rows(rows, fractions(*v))) for v in kernel)

    rhs = rhs[: len(rows)]
    augmented = [naive_sum(row, {NCOLS: b}, -1) for row, b in zip(rows, rhs)]
    _, aug_rref = gauss_jordan(augmented)
    sol = solve(columns_of(rows, NCOLS), pack(dict(enumerate(rhs))))
    if NCOLS in aug_rref:
        assert sol is None
    else:
        assert sol == {p: -row[NCOLS] for p, row in aug_rref.items() if NCOLS in row}
        assert apply_rows(rows, sol) == rhs


@settings(max_examples=100, deadline=None)
@given(
    st.lists(sparse_vectors, max_size=8),
    st.lists(st.tuples(coefficients, coefficients), max_size=3),
)
def test_reduced_echelon_is_the_rref_after_every_row(rows, mixes):
    rows = with_dependent_rows(rows, mixes)
    red = ReducedEchelon()
    for k, row in enumerate(rows):
        pivots, rref = gauss_jordan(rows[: k + 1])
        assert red.add(cleared(row)) == pivots[-1]
        assert list(red.rows) == list(rref)
        holders = {}
        for piv, r in red.rows.items():
            assert all(type(x) is int for x in r.values())
            assert r[piv] > 0 and math.gcd(*r.values()) == 1
            assert {j: QQ(x, r[piv]) for j, x in r.items()} == rref[piv]
            for j in r:
                if j != piv:
                    holders.setdefault(j, set()).add(piv)
        # the index column -> pivots names exactly the rows with an entry
        assert {j: s for j, s in red._holders.items() if s} == holders


@settings(max_examples=100, deadline=None)
@given(
    st.lists(sparse_vectors, max_size=8),
    st.lists(st.tuples(coefficients, coefficients), max_size=3),
    st.lists(sparse_vectors, max_size=4),
)
def test_forward_span_agrees_with_echelon(rows, mixes, probes):
    # one elimination under two names: the same pivots, rows and residuals
    rows = with_dependent_rows(rows, mixes)
    full, forward = Echelon(), ForwardSpan()
    for row in map(cleared, rows):
        assert full.add(row) == forward.add(row)
    assert full.rows == forward.rows
    for vec in rows + probes:
        nums = pack(vec)[0]
        assert full.reduce(nums) == forward.reduce(nums)
