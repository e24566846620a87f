import functools
import itertools
import operator
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from udeform.kernel import Monomial, QQ, TruncSeries, clean_terms, series_multilinear
from udeform.bialgebra import (
    BialgebraSpec,
    CounitUnavailable,
    CutoffError,
    construct_bialgebra,
)

from conftest import (
    IDEMPOTENT_TABLE, ReferenceTensor, Z2_TABLE, check_axioms, check_cocommutative,
    iterated_coproduct,
)
from coproduct_override import noncoassociative_cube, with_coproduct_override


class TestConstruction:
    def test_primitive_coproduct(self, B1):
        p = B1.generator("p")
        assert p.apply_coproduct(1) == p.outer(B1.one(1)) + B1.one(1).outer(p)

    def test_grouplike_coproduct(self, monoid_free):
        g = monoid_free.generator("a")
        assert g.apply_coproduct(1) == g.outer(g)
        assert g.apply_counit(1).scalar_value() == 1

    def test_tensor_primitive_unknown_generator(self, tensorB):
        for lookup in (tensorB.generator_key, tensorB.parse_key):
            with pytest.raises(KeyError, match="unknown generator 'zz'"):
                lookup("zz")
        assert tensorB.parse_key("e2*e1") == (1, 0)

    def test_tensor_primitive_words(self, tensorB):
        e1, e2 = tensorB.generator("e1"), tensorB.generator("e2")
        w = e1 * e2  # concatenation e1e2
        ww = e2 * e1
        assert w != ww  # noncommutative word basis
        d = w.apply_coproduct(1)
        expected = (
            w.outer(tensorB.one(1))
            + e1.outer(e2)
            + e2.outer(e1)
            + tensorB.one(1).outer(w)
        )
        assert d == expected

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError):
            BialgebraSpec("polynomial-primitive", ["p", "p"])

    def test_malformed_monoid_table_rejected(self):
        broken_unit = {
            "elements": ["1", "g"],
            "unit": "1",
            "table": [["g", "g"], ["g", "1"]],
        }
        with pytest.raises(ValueError, match="unit law"):
            construct_bialgebra(BialgebraSpec("monoid", monoid_table=broken_unit), 1)
        not_associative = {
            "elements": ["1", "a", "b"],
            "unit": "1",
            "table": [["1", "a", "b"], ["a", "b", "a"], ["b", "a", "a"]],
        }
        with pytest.raises(ValueError, match="associativity"):
            construct_bialgebra(
                BialgebraSpec("monoid", monoid_table=not_associative), 1
            )

    def test_cutoff_overflow_is_an_error(self, B1):
        p = B1.generator("p")
        high = B1.element({Monomial({"p": 6}): QQ(1)})
        with pytest.raises(CutoffError):
            p * high
        with pytest.raises(CutoffError, match=r"key p\^7 exceeds degree cutoff 6"):
            B1.element({Monomial({"p": 7}): QQ(1)})

    def test_spec_json_roundtrip(self, B2, monoid_z2):
        for B in (B2, monoid_z2):
            doc = B.spec.to_json(degree_cutoff=B.cutoff)
            again = BialgebraSpec.from_json(doc)
            assert again.kind == B.spec.kind
            assert again.generators == B.spec.generators
            assert again.monoid_table == B.spec.monoid_table


class TestIteratedCoproduct:
    def test_primitive_square(self, B1):
        p = B1.generator("p")
        d2 = iterated_coproduct(p, 2)
        one = B1.one(1)
        assert d2 == (
            p.outer(one).outer(one)
            + one.outer(p).outer(one)
            + one.outer(one).outer(p)
        )

    def test_minus_one_is_counit(self, B1):
        p = B1.generator("p")
        assert iterated_coproduct(p, -1).scalar_value() == 0
        assert iterated_coproduct(B1.one(1), -1).scalar_value() == 1

    def test_grouplike_cube(self, monoid_z2):
        g = monoid_z2.generator("g")
        assert iterated_coproduct(g, 2) == g.outer(g).outer(g)

    def test_zero_is_identity(self, B1):
        p = B1.generator("p")
        assert iterated_coproduct(p, 0) == p

    def test_noncounital_mode_blocks_counit(self):
        B = construct_bialgebra(
            BialgebraSpec("polynomial-primitive", ["p"], counital=False), 4
        )
        with pytest.raises(CounitUnavailable):
            iterated_coproduct(B.generator("p"), -1)


class TestTensorOps:
    def test_slotwise_product(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        one = B2.one(1)
        assert p1.outer(one) * one.outer(p1) == p1.outer(p1)
        u = p1.outer(p2)
        assert B2.one(2) * u == u
        sq = u * u
        assert sq == B2.tensor(
            2, {(Monomial({"p1": 2}), Monomial({"p2": 2})): QQ(1)}
        )

    def test_arity_mismatch(self, B2):
        with pytest.raises(ValueError):
            B2.one(2) * B2.one(3)

    def test_slot_apply_counit(self, B2):
        assert B2.one(2).apply_counit(1) == B2.one(1)
        p1 = B2.generator("p1")
        assert not p1.outer(p1).apply_counit(2)

    def test_slot_apply_coproduct(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        one = B2.one(1)
        got = p1.outer(p2).apply_coproduct(1)
        assert got == p1.outer(one).outer(p2) + one.outer(p1).outer(p2)

    def test_slot_out_of_range(self, B2):
        with pytest.raises(ValueError):
            B2.one(2).apply_coproduct(3)
        with pytest.raises(ValueError):
            B2.one(2).apply_counit(0)

    def test_permute_transposition(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        assert p1.outer(p2).permute((2, 1)) == p2.outer(p1)
        u = p1.outer(p2) + p2.outer(p2)
        assert u.permute((1, 2)) == u

    def test_permute_1324(self, monoid_free):
        a, b, c, d = (monoid_free.generator(x) for x in "abcd")
        u = a.outer(b).outer(c).outer(d)
        got = u.permute((1, 3, 2, 4))
        assert got == a.outer(c).outer(b).outer(d)

    def test_permutation_right_action(self, B2):
        # permute(tau, permute(sigma, u)) = permute(sigma o tau, u)
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        u = p1.outer(p2).outer(p1 + p2)
        for sigma in itertools.permutations((1, 2, 3)):
            for tau in itertools.permutations((1, 2, 3)):
                composed = tuple(sigma[tau[k] - 1] for k in range(3))
                assert u.permute(sigma).permute(tau) == u.permute(composed)


class TestAxiomCheckers:
    @pytest.mark.parametrize(
        "fixture",
        ["B1", "B2", "tensorB", "matrixB", "monoid_free", "monoid_z2", "monoid_idem"],
    )
    def test_all_shipped_kinds_pass(self, fixture, request):
        B = request.getfixturevalue(fixture)
        rep = check_axioms(B, min(B.cutoff, 3))
        assert rep.passed, rep.render_text()

    def test_counit_law_within_cutoff(self, B2):
        for k in B2.basis_keys(3):
            e = B2.element({k: QQ(1)})
            d = e.apply_coproduct(1)
            assert d.apply_counit(1) == e
            assert d.apply_counit(2) == e

    def test_grouplike_on_primitive_generator_fails(self, B1):
        p_key = B1.generator_key("p")
        bad = with_coproduct_override(
            B1, {p_key: {(p_key, p_key): QQ(1)}}
        )
        rep = check_axioms(bad, 3)
        assert not rep.passed
        labels = [e.label for e in rep.failures]
        assert "coproduct is an algebra morphism" in labels

    def test_cocommutativity_verdicts(self, B2, monoid_free, matrixB, tensorB):
        assert check_cocommutative(B2) == (True, None)
        assert check_cocommutative(monoid_free) == (True, None)
        assert check_cocommutative(tensorB) == (True, None)
        ok, witness = check_cocommutative(matrixB)
        assert not ok and witness == "a"

    def test_commutativity_flags(self, B2, tensorB, matrixB):
        assert B2.is_commutative()
        assert matrixB.is_commutative()
        assert not tensorB.is_commutative()


def test_iterated_coproduct_composition_identity(B2):
    # Delta^(b+c-2) = (id^(i-1) @ Delta^(c-1) @ id^(b-i)) Delta^(b-1)
    samples = [
        B2.generator("p1"),
        B2.generator("p2") * B2.generator("p2"),
        B2.generator("p1") * B2.generator("p2") + B2.one(1).scale(3),
    ]
    for b, c in [(2, 2), (2, 3), (3, 2)]:
        for i in range(1, b + 1):
            for x in samples:
                lhs = iterated_coproduct(x, b + c - 2)
                rhs = iterated_coproduct(x, b - 1)
                for _ in range(c - 1):
                    rhs = rhs.apply_coproduct(i)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Delta and eps derived from generator data, against closed forms per kind
# ---------------------------------------------------------------------------

LEFT_ZERO_TABLE = {  # a unit adjoined to the left-zero semigroup: ab = a, ba = b
    "elements": ["1", "a", "b"],
    "unit": "1",
    "table": [["1", "a", "b"], ["a", "a", "a"], ["b", "b", "b"]],
}


def _binomial_coproduct(key):
    out = {}
    names = [name for name, _ in key]
    for split in itertools.product(*(range(e + 1) for _, e in key)):
        left = Monomial(dict(zip(names, split)))
        right = Monomial({n: e - i for (n, e), i in zip(key, split)})
        c = 1
        for (_, e), i in zip(key, split):
            c *= comb(e, i)
        out[(left, right)] = c
    return out


def _shuffle_coproduct(word):
    out = {}
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        out[(left, right)] = out.get((left, right), 0) + 1
    return out


def _grouplike_coproduct(key):
    return {(key, key): 1}


MATRIX_LETTERS = {
    "a": (("a", "a"), ("b", "c")),
    "b": (("a", "b"), ("b", "d")),
    "c": (("c", "a"), ("d", "c")),
    "d": (("c", "b"), ("d", "d")),
}


def _matrix_coproduct(key):
    letters = [name for name, e in key for _ in range(e)]
    out = {}
    for choice in itertools.product(*(MATRIX_LETTERS[x] for x in letters)):
        left = Monomial({})
        right = Monomial({})
        for l, r in choice:
            left, right = left * Monomial({l: 1}), right * Monomial({r: 1})
        out[(left, right)] = out.get((left, right), 0) + 1
    return out


def _reference_kinds():
    """name -> (bialgebra at cutoff 5, reference Delta, reference eps)."""
    def build(*args, **kwargs):
        return construct_bialgebra(BialgebraSpec(*args, **kwargs), 5)

    def primitive_eps(B):
        return lambda key: 1 if key == B.unit_key else 0

    poly = build("polynomial-primitive", ["p", "q"])
    tensor = build("tensor-primitive", ["e1", "e2"])
    matrix = build("matrix-coordinate")
    kinds = {
        "polynomial": (poly, _binomial_coproduct, primitive_eps(poly)),
        "tensor": (tensor, _shuffle_coproduct, primitive_eps(tensor)),
        "matrix": (
            matrix,
            _matrix_coproduct,
            lambda key: 0 if {"b", "c"} & {n for n, _ in key} else 1,
        ),
        "free monoid": (build("monoid", ["a", "b"]), _grouplike_coproduct, lambda k: 1),
    }
    for name, table in (
        ("z2", Z2_TABLE), ("idempotent", IDEMPOTENT_TABLE), ("left zero", LEFT_ZERO_TABLE)
    ):
        kinds[name] = (build("monoid", monoid_table=table), _grouplike_coproduct,
                       lambda k: 1)
    return kinds


REFERENCE_KINDS = _reference_kinds()


@pytest.mark.parametrize("name", sorted(REFERENCE_KINDS))
def test_structure_maps_match_closed_forms(name):
    B, delta, eps = REFERENCE_KINDS[name]
    for key in B.basis_keys(5):
        assert B.coproduct_key(key) == delta(key), B.key_str(key)
        assert B.counit_key(key) == eps(key), B.key_str(key)


@pytest.mark.parametrize("name", sorted(REFERENCE_KINDS))
def test_commutativity_matches_full_sweep(name):
    B = REFERENCE_KINDS[name][0]
    for cutoff in range(1, 5):
        keys = B.basis_keys(cutoff)
        full = all(
            B.product_keys(k1, k2) == B.product_keys(k2, k1)
            for k1 in keys
            for k2 in keys
            if B.degree(k1) + B.degree(k2) <= cutoff
        )
        assert B.is_commutative(cutoff) == full, cutoff
    expected = name not in ("tensor", "left zero")
    assert B.is_commutative(4) == expected


# ---------------------------------------------------------------------------
# the product kernel against a slotwise reference
# ---------------------------------------------------------------------------

def _reference_product(u, v):
    """u * v term by term on key tuples, accumulated with `add_term`."""
    return (ReferenceTensor.of(u) * ReferenceTensor.of(v)).terms


def _product_bialgebras():
    """Every kind at cutoffs on both sides of a packed-field boundary; the
    pools hold the basis keys, whose products still pass the cutoff."""
    out = []
    for cutoff in (1, 3, 4):
        for args, kwargs in (
            (("polynomial-primitive", ["p", "q"]), {}),
            (("matrix-coordinate",), {}),
            (("monoid", ["a", "b"]), {}),
            (("tensor-primitive", ["e1", "e2"]), {}),
            (("monoid",), {"monoid_table": LEFT_ZERO_TABLE}),
        ):
            B = construct_bialgebra(BialgebraSpec(*args, **kwargs), cutoff)
            out.append((B, B.basis_keys(cutoff)))
    return out


PRODUCT_BIALGEBRAS = _product_bialgebras()
COEFFS = [QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-1, 2), QQ(-2, 3), QQ(5, 6)]


@st.composite
def _product_operands(draw):
    B, pool = draw(st.sampled_from(PRODUCT_BIALGEBRAS))
    arity = draw(st.integers(1, 3))
    # few keys per slot make products collide, so terms merge and cancel
    slots = [
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        for _ in range(arity)
    ]
    keys = st.tuples(*(st.sampled_from(slot) for slot in slots))
    u, v = (
        B.tensor(arity, draw(st.dictionaries(keys, st.sampled_from(COEFFS), max_size=6)))
        for _ in range(2)
    )
    return u, v


@settings(max_examples=400, deadline=None)
@given(_product_operands())
def test_product_kernel_matches_slotwise_reference(operands):
    u, v = operands
    try:
        want = _reference_product(u, v)
    except CutoffError as exc:
        with pytest.raises(CutoffError) as got:
            u * v
        assert str(got.value) == str(exc)
        return
    assert list((u * v).terms.items()) == list(want.items())


def test_product_kernel_cancels_and_reinserts_in_order(B2):
    p1, one = B2.generator("p1"), B2.one(1)
    u = p1.outer(one) + one.outer(p1) + one.outer(one)
    v = p1.outer(one) - one.outer(p1) + p1.outer(p1)
    # p1@p1 appears (-1), cancels (+1) and comes back last (+1), as with
    # adding the term products one at a time
    got = u * v
    assert list(got.terms.items()) == list(_reference_product(u, v).items())
    m1, m2, m0 = Monomial({"p1": 1}), Monomial({"p1": 2}), Monomial({})
    assert list(got.terms.items()) == [
        ((m2, m0), 1), ((m2, m1), 1), ((m0, m2), -1), ((m1, m2), 1),
        ((m1, m0), 1), ((m0, m1), -1), ((m1, m1), 1),
    ]


@pytest.mark.parametrize("kind,generators", [
    ("polynomial-primitive", ["p", "q"]),
    ("matrix-coordinate", []),
    ("monoid", ["a", "b"]),
])
def test_monomial_kinds_multiply_packed(kind, generators, monkeypatch):
    B = construct_bialgebra(BialgebraSpec(kind, generators), 4)
    x = B.generator(B.spec.generators[0])
    u = x.outer(B.one(1)) + B.one(1).outer(x)

    def slotwise(k1, k2):
        raise AssertionError("slotwise product of %r and %r" % (k1, k2))

    monkeypatch.setattr(B, "product_single", slotwise)
    assert (u * u * u).degree() == 3  # packed codes add; no slotwise product
    with pytest.raises(AssertionError, match="slotwise"):
        u * u * u * u * u  # past the cutoff, the guard reruns the pair slotwise


# ---------------------------------------------------------------------------
# the packed elements against the reference route, term for term
# ---------------------------------------------------------------------------

def _packed_bialgebras():
    """The five kinds and a coproduct override at cutoffs 2-4; the pools
    hold the basis keys."""
    out = []
    for cutoff in (2, 3, 4):
        for B in (
            construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p", "q"]), cutoff),
            construct_bialgebra(BialgebraSpec("tensor-primitive", ["e1", "e2"]), cutoff),
            construct_bialgebra(BialgebraSpec("monoid", ["a", "b"]), cutoff),
            construct_bialgebra(BialgebraSpec("monoid", monoid_table=LEFT_ZERO_TABLE),
                                cutoff),
            construct_bialgebra(BialgebraSpec("matrix-coordinate"), cutoff),
            noncoassociative_cube(cutoff),
        ):
            out.append((B, B.basis_keys(cutoff)))
    return out


PACKED_BIALGEBRAS = _packed_bialgebras()


@st.composite
def _packed_cases(draw):
    B, pool = draw(st.sampled_from(PACKED_BIALGEBRAS))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 2))

    def terms(arity):
        # few keys per slot make terms merge and cancel
        slots = [
            draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
            for _ in range(arity)
        ]
        keys = st.tuples(*(st.sampled_from(slot) for slot in slots))
        return draw(st.dictionaries(keys, st.sampled_from(COEFFS + [QQ(0)]), max_size=5))

    sigma = tuple(draw(st.permutations(range(1, m + 1))))
    c = draw(st.sampled_from(COEFFS + [QQ(0)]))
    return B, m, n, terms(m), terms(m), terms(n), c, sigma


def _agree(got, want):
    """Both routes give the same terms in the same order and the same text,
    or the same CutoffError."""
    try:
        expected = want()
    except CutoffError as exc:
        with pytest.raises(CutoffError) as raised:
            got()
        assert str(raised.value) == str(exc)
        return
    value = got()
    assert list(value.terms.items()) == list(expected.terms.items())
    assert value.render() == expected.render()


@settings(max_examples=300, deadline=None)
@given(_packed_cases())
def test_packed_elements_match_the_reference_route(case):
    B, m, n, raw_u, raw_v, raw_w, c, sigma = case
    u, v, w = B.tensor(m, raw_u), B.tensor(m, raw_v), B.tensor(n, raw_w)
    ru, rv, rw = (ReferenceTensor(B, arity, clean_terms(raw))
                  for arity, raw in ((m, raw_u), (m, raw_v), (n, raw_w)))
    _agree(lambda: u, lambda: ru)
    _agree(lambda: u * v, lambda: ru * rv)
    _agree(lambda: u + v, lambda: ru + rv)
    _agree(lambda: u - v, lambda: ru - rv)
    _agree(lambda: u.scale(c), lambda: ru.scale(c))
    _agree(lambda: u.outer(w), lambda: ru.outer(rw))
    _agree(lambda: w.outer(u), lambda: rw.outer(ru))
    _agree(lambda: u.permute(sigma), lambda: ru.permute(sigma))
    for slot in range(1, m + 1):
        _agree(lambda: u.apply_coproduct(slot), lambda: ru.apply_coproduct(slot))
        _agree(lambda: u.apply_counit(slot), lambda: ru.apply_counit(slot))
    assert (u == v) == (ru == rv)
    for x in (0, 1, -1, 2, c):
        assert (u == x) == (ru == x)
    # equal elements built along different routes are equal and hash equal
    for twin in (B.tensor(m, dict(reversed(list(raw_u.items())))),
                 u.scale(3).scale(QQ(1, 3)), (u + v) - v,
                 B.tensor(m, (ru + rv - rv).terms)):
        assert twin == u and hash(twin) == hash(u)


@st.composite
def _summands(draw):
    B, pool = draw(st.sampled_from(PACKED_BIALGEBRAS))
    keys = st.tuples(st.sampled_from(pool[:4]), st.sampled_from(pool[:4]))
    coeffs = st.sampled_from(COEFFS + [QQ(3, 4), QQ(-1, 6)])
    return [B.tensor(2, draw(st.dictionaries(keys, coeffs, max_size=4)))
            for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=200, deadline=None)
@given(_summands())
def test_series_slots_add_up_as_repeated_sums(parts):
    # with fn(x, y) = x and y = 1 in every slot, slot k of the Cauchy
    # pattern is a_0 + ... + a_k: one pass over the lcm of the denominators
    # must give what adding the nonzero a_i one at a time gives, key order
    # included
    a = TruncSeries(parts)
    slots = series_multilinear(lambda x, _: x, a, TruncSeries([1] * len(parts)))
    for k, slot in enumerate(slots.coeffs):
        nonzero = [x for x in parts[:k + 1] if x]
        want = functools.reduce(operator.add, nonzero, parts[0].zero_like())
        assert list(slot.terms.items()) == list(want.terms.items())
        assert slot.render() == want.render()


@pytest.mark.parametrize("spec,past,unknown", [
    (BialgebraSpec("polynomial-primitive", ["p"]), Monomial({"p": 3}), Monomial({"zz": 1})),
    (BialgebraSpec("tensor-primitive", ["p"]), (0, 0, 0), (1,)),
    (BialgebraSpec("monoid", ["p"]), Monomial({"p": 3}), Monomial({"zz": 1})),
    (BialgebraSpec("monoid", monoid_table=LEFT_ZERO_TABLE), None, "zz"),
    (BialgebraSpec("matrix-coordinate"), Monomial({"a": 3}), Monomial({"zz": 1})),
], ids=["polynomial", "tensor", "free-monoid", "finite-monoid", "matrix"])
def test_a_code_is_a_key_within_the_cutoff(spec, past, unknown):
    B = construct_bialgebra(spec, 2)
    keys = B.basis_keys(2)
    codes = [B.codec.slot(key) for key in keys]
    assert len(set(codes)) == len(keys)
    assert [B.codec.decode(code, 1) for code in codes] == [(key,) for key in keys]
    with pytest.raises(KeyError, match="unknown (generator|monoid element)"):
        B.element({unknown: QQ(1)})
    if past is None:  # a finite monoid has no key past the cutoff
        return
    # building an element on a key past the cutoff raises what the product
    # that reaches it raises
    g = B.generator(B.spec.generators[0])
    with pytest.raises(CutoffError) as product:
        g * g * g
    with pytest.raises(CutoffError) as built:
        B.element({past: QQ(1)})
    assert str(built.value) == str(product.value) == "key %s exceeds degree cutoff 2" % (
        B.key_str(past),)
    with pytest.raises(CutoffError):
        B.tensor(2, {(B.unit_key, past): QQ(1)})


def test_packed_structure_maps_cancel_like_the_reference():
    # sums inside Delta and eps that reach zero drop their term and bring it
    # back at the end, as adding one term at a time does
    T = construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), 3)
    x, y = T.generator("x"), T.generator("y")
    u = (x * y - y * x).outer(x) + x.outer(y)
    M = construct_bialgebra(BialgebraSpec("monoid", ["a", "b"]), 3)
    a, b = M.generator("a"), M.generator("b")
    w = a.outer(b) - b.outer(b) + a.outer(a)
    for e, slot in ((u, 1), (u, 2), (w, 1), (w, 2)):
        ref = ReferenceTensor.of(e)
        assert list(e.apply_coproduct(slot).terms.items()) == list(
            ref.apply_coproduct(slot).terms.items())
        assert list(e.apply_counit(slot).terms.items()) == list(
            ref.apply_counit(slot).terms.items())
    assert not (x * y - y * x).apply_coproduct(1).nonunit_part()  # primitive
    assert w.apply_counit(1) == a
