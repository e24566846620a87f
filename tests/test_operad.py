import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from udeform.kernel import QQ, add_term
from udeform.bialgebra import (
    BialgebraSpec,
    CounitUnavailable,
    CutoffError,
    TensorElement,
    construct_bialgebra,
)
from udeform.operad import (
    FLAVOR_ADDITIVE,
    FLAVOR_MULTIPLICATIVE,
    check_assoc_cases,
    check_equivariance,
    check_unit,
    circ_B,
    circ_b,
    reconstruct_bialgebra_check,
)

from conftest import IDEMPOTENT_TABLE, ReferenceTensor, antisym, check_cocommutative
from coproduct_override import with_coproduct_override


class TestMultiplicativeComposition:
    def test_pad_identity(self, B2):
        # 1@1 o_2 b = 1 @ b, and the general unit-padding identity
        b = B2.generator("p1") * B2.generator("p2")
        got = circ_B(B2.one(2), 2, B2.element({B2.generator_key("p1"): QQ(1)}))
        assert got == B2.one(1).outer(B2.generator("p1"))
        for n in range(1, 5):
            for i in range(1, n + 1):
                for key in B2.basis_keys(3):
                    e = B2.element({key: QQ(1)})
                    got = circ_B(B2.one(n), i, e)
                    want = B2.one(i - 1).outer(e).outer(B2.one(n - i))
                    assert got == want

    def test_unit_right(self, B2):
        u = B2.generator("p1").outer(B2.generator("p2"))
        for i in (1, 2):
            assert circ_B(u, i, B2.one(1)) == u

    def test_primitive_expansion(self, B1):
        # p o_1 (v1 @ v2) = p v1 @ v2 + v1 @ p v2
        p = B1.generator("p")
        v = B1.element({B1.generator_key("p"): QQ(1)})
        v2 = v * v
        got = circ_B(p, 1, v.outer(v2))
        want = (p * v).outer(v2) + v.outer(p * v2)
        assert got == want

    def test_arity_zero_uses_counit(self, B1):
        scalar = TensorElement(B1, 0, {(): QQ(1)})
        p = B1.generator("p")
        u = p.outer(p) + B1.one(2).scale(3)
        got = circ_B(u, 1, scalar)
        assert got == B1.one(1).scale(3)

    def test_arity_zero_noncounital_rejected(self):
        from udeform.bialgebra import BialgebraSpec, construct_bialgebra

        B = construct_bialgebra(
            BialgebraSpec("polynomial-primitive", ["p"], counital=False), 4
        )
        scalar = TensorElement(B, 0, {(): QQ(1)})
        with pytest.raises(CounitUnavailable):
            circ_B(B.generator("p").outer(B.generator("p")), 1, scalar)

    def test_slot_out_of_range(self, B1):
        with pytest.raises(ValueError):
            circ_B(B1.one(2), 3, B1.one(1))


class TestAdditiveComposition:
    def test_arity_one_is_addition(self, B2):
        u, v = B2.generator("p1"), B2.generator("p2")
        assert circ_b(u, 1, v) == u + v
        with pytest.raises(ValueError, match="indexed from arity 1"):
            circ_b(u, 1, TensorElement(B2, 0, {(): QQ(1)}))

    def test_zero_is_the_unit(self, B2):
        u = B2.generator("p1").outer(B2.generator("p2"))
        for i in (1, 2):
            assert circ_b(u, i, B2.zero(1)) == u
        assert circ_b(B2.zero(1), 1, u) == u

    def test_antisymmetric_square_matches_ternary_exponent(self, B2):
        # f o_1 f for f = p1@p2 - p2@p1 equals the hand expansion
        f = antisym(B2)
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        one = B2.one(1)
        want = (
            f.outer(one)
            + p1.outer(one).outer(p2)
            - p2.outer(one).outer(p1)
            + one.outer(f)
        )
        assert circ_b(f, 1, f) == want

    def test_never_touches_the_product(self, B2, monkeypatch):
        calls = []
        original = type(B2).product_keys

        def spy(self, k1, k2):
            calls.append((k1, k2))
            return original(self, k1, k2)

        monkeypatch.setattr(type(B2), "product_keys", spy)
        u = B2.generator("p1").outer(B2.generator("p2"))
        v = antisym(B2)
        circ_b(u, 2, v)
        circ_b(v, 1, u)
        assert not calls


class TestAxiomCheckers:
    @pytest.mark.parametrize("flavor", [FLAVOR_MULTIPLICATIVE, FLAVOR_ADDITIVE])
    @pytest.mark.parametrize("fixture", ["B2", "monoid_free", "monoid_z2"])
    def test_associativity_and_units_pass(self, flavor, fixture, request):
        B = request.getfixturevalue(fixture)
        rep = check_assoc_cases(flavor, B, samples=50, seed=0)
        assert rep.passed, rep.render_text()
        rep = check_unit(flavor, B, samples=50, seed=0)
        assert rep.passed, rep.render_text()

    def test_additive_over_single_generator(self, B1):
        rep = check_assoc_cases(FLAVOR_ADDITIVE, B1, samples=50, seed=0)
        assert rep.passed

    def test_corrupted_coproduct_fails_middle_case(self, B1):
        p_key = B1.generator_key("p")
        p2_key = B1.parse_key("p^2")
        one = B1.unit_key
        # a coproduct that is not coassociative: Delta p = p@1 + 1@p + 1@p^2
        bad = with_coproduct_override(
            B1,
            {p_key: {(p_key, one): QQ(1), (one, p_key): QQ(1), (one, p2_key): QQ(1)}},
        )
        rep = check_assoc_cases(FLAVOR_MULTIPLICATIVE, bad, samples=60, seed=0)
        assert not rep.passed
        by_case = {i + 1: rep.entries[i] for i in range(3)}
        assert by_case[1].ok and by_case[3].ok
        assert not by_case[2].ok
        assert by_case[2].witness is not None

    def test_equivariance_agrees_with_cocommutativity(
        self, B2, monoid_free, matrixB
    ):
        for B in (B2, monoid_free, matrixB):
            rep = check_equivariance(B, samples=25, seed=0)
            assert rep.passed == check_cocommutative(B)[0]

    def test_matrix_witness_is_concrete(self, matrixB):
        rep = check_equivariance(matrixB, samples=10, seed=0)
        assert not rep.passed
        bad = [e for e in rep.entries if not e.ok]
        assert bad and bad[0].witness is not None
        # the decisive instance: u = a, v = 1@1, tau the transposition
        a = matrixB.generator("a")
        lhs = circ_B(a, 1, matrixB.one(2).permute((2, 1)))
        from udeform.operad import inflate_inner

        rhs = circ_B(a, 1, matrixB.one(2)).permute(inflate_inner((2, 1), 1, 1))
        assert lhs != rhs


def test_exhaustive_sweep_weighs_each_element_once(matrixB, monkeypatch):
    # the sweep visits (u, v, w) of total degree <= 2 among all single-term
    # basis tensors; their degrees are computed once per element, not once
    # per candidate triple (over 200,000 here)
    from udeform.operad import _exhaustive_low_degree_elements

    calls = []
    degree = TensorElement.degree

    def counted(self):
        calls.append(self)
        return degree(self)

    monkeypatch.setattr(TensorElement, "degree", counted)
    rep = check_assoc_cases(FLAVOR_MULTIPLICATIVE, matrixB, samples=0)
    assert rep.passed
    elements = _exhaustive_low_degree_elements(matrixB, FLAVOR_MULTIPLICATIVE)
    assert len(calls) <= 3 * len(elements)


def test_checkers_count_undecidable_instances():
    # at cutoff 1 many compositions of the samples leave the degree range;
    # the labels say how many, and only decided instances can fail
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["x", "y"]), 1)
    eq = check_equivariance(B, samples=20, seed=0)
    assert eq.passed
    for rep in (eq, check_assoc_cases(FLAVOR_MULTIPLICATIVE, B, samples=20, seed=0)):
        assert all(
            re.search(r", [1-9][0-9]* outside the degree range$", e.label)
            for e in rep.entries
        ), rep.render_text()
    # the samples are keys within the cutoff, and grafting the unit keeps
    # them there
    unit = check_unit(FLAVOR_MULTIPLICATIVE, B, samples=20, seed=0)
    assert [e.label for e in unit.entries] == ["unit o_1 v = v", "u o_i unit = u"]
    # within the range nothing is skipped and the labels stay bare
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["x", "y"]), 6)
    labels = [e.label for e in check_equivariance(B, samples=20, seed=0).entries]
    labels += [e.label for e in check_unit(FLAVOR_ADDITIVE, B, samples=20, seed=0).entries]
    assert labels == [
        "inner equivariance u o (v.tau)", "outer equivariance (u.sigma) o v",
        "unit o_1 v = v", "u o_i unit = u",
    ]


def test_reconstruction_diagnostic(B2, monoid_z2, matrixB):
    for B in (B2, monoid_z2, matrixB):
        rep = reconstruct_bialgebra_check(B, cutoff=2)
        assert rep.passed, rep.render_text()


class TestBlockPermutations:
    def test_inflate_outer_hand_example(self, B2):
        # m=2, sigma the transposition, graft at slot 1 with n=2:
        # (u.sigma) o_1 v = (u o_2 v).sigma'' with sigma'' = (2,3,1)
        from udeform.operad import inflate_outer

        assert inflate_outer((2, 1), 1, 2) == (2, 3, 1)
        u = B2.generator("p1").outer(B2.generator("p2") * B2.generator("p2"))
        v = B2.generator("p2").outer(B2.one(1))
        lhs = circ_B(u.permute((2, 1)), 1, v)
        rhs = circ_B(u, 2, v).permute((2, 3, 1))
        assert lhs == rhs

    def test_inflate_inner_is_a_block(self):
        from udeform.operad import inflate_inner

        assert inflate_inner((2, 1), 2, 3) == (1, 3, 2, 4)
        assert inflate_inner((3, 1, 2), 1, 2) == (3, 1, 2, 4)


# ---------------------------------------------------------------------------
# the compositions against their termwise and stepwise definitions
# ---------------------------------------------------------------------------

def _delta_steps(b, k):
    """Delta^k of an arity-1 element by k steps of Delta on the first slot."""
    if k == -1:
        return b.apply_counit(1)
    for _ in range(k):
        b = b.apply_coproduct(1)
    return b


def _termwise_circ_B(u, i, v):
    """The multiplicative composition one term of u at a time, through
    n-1 coproduct steps and one product per term."""
    B, n = u.parent, v.arity
    out = {}
    for keys, c in u.terms.items():
        mid = _delta_steps(B.element({keys[i - 1]: QQ(1)}), n - 1) * v
        for mkeys, mc in mid.terms.items():
            add_term(out, keys[: i - 1] + mkeys + keys[i:], c * mc)
    return B.tensor(u.arity + n - 1, out)


def _stepwise_circ_b(u, i, v):
    B, expanded = u.parent, u
    for _ in range(v.arity - 1):
        expanded = expanded.apply_coproduct(i)
    return expanded + B.one(i - 1).outer(v).outer(B.one(u.arity - i))


def _composition_bialgebras():
    """All five kinds at small cutoffs; the pools hold the basis keys."""
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
            pool = B.basis_keys(cutoff)
            # distinct keys whose coproducts share a term, as xy and yx do
            twins = [
                (k1, k2) for k1, k2 in itertools.combinations(B.basis_keys(cutoff), 2)
                if set(B.coproduct_key(k1)) & set(B.coproduct_key(k2))
            ]
            out.append((B, pool, twins))
    return out


COMPOSITION_BIALGEBRAS = _composition_bialgebras()
COEFFS = [QQ(1), QQ(-1), QQ(2), QQ(-1, 2), QQ(2, 3)]


@st.composite
def _tensors(draw, B, pool, arity):
    # few keys per slot, so that terms of u share slots and their
    # expansions merge and cancel
    slots = [
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        for _ in range(arity)
    ]
    keys = st.tuples(*(st.sampled_from(slot) for slot in slots))
    return B.tensor(arity, draw(st.dictionaries(keys, st.sampled_from(COEFFS), max_size=4)))


@st.composite
def _compositions(draw):
    B, pool, twins = draw(st.sampled_from(COMPOSITION_BIALGEBRAS))
    m, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    u, i = draw(_tensors(B, pool, m)), draw(st.integers(1, m))
    if twins and u and draw(st.booleans()):
        # c (keys with k1 at slot i) - c (keys with k2 at slot i): the shared
        # terms of their expansions cancel in E
        keys, c = draw(st.sampled_from(sorted(u.terms.items(), key=repr)))
        k1, k2 = draw(st.sampled_from(twins))
        terms = dict(u.terms)
        terms[keys[: i - 1] + (k1,) + keys[i:]] = c
        terms[keys[: i - 1] + (k2,) + keys[i:]] = -c
        u = B.tensor(m, terms)
    return u, i, draw(_tensors(B, pool, n))


def _same_outcome(got, want, *args):
    try:
        expected = want(*args)
    except CutoffError as exc:
        with pytest.raises(CutoffError) as raised:
            got(*args)
        assert str(raised.value) == str(exc)
        return
    assert got(*args) == expected


@settings(max_examples=400, deadline=None)
@given(_compositions())
def test_compositions_match_the_termwise_definition(case):
    u, i, v = case
    _same_outcome(circ_B, _termwise_circ_B, u, i, v)
    if v.arity:
        _same_outcome(circ_b, _stepwise_circ_b, u, i, v)


def test_cancelling_expansion_matches_termwise():
    # in tensor-primitive, Delta(xy) and Delta(yx) share x@y and y@x, so
    # u = a@xy - a@yx loses them in E; next to the cutoff the value, and
    # past it the error message, must still be the termwise ones
    B = construct_bialgebra(BialgebraSpec("tensor-primitive", ["x", "y"]), 3)
    x, y = B.generator("x"), B.generator("y")
    u = x.outer(x * y) - x.outer(y * x)
    for v in (y.outer(B.one(1)), y.outer(y), (x * y).outer(y)):
        _same_outcome(circ_B, _termwise_circ_B, u, 2, v)
        _same_outcome(circ_b, _stepwise_circ_b, u, 2, v)
    with pytest.raises(CutoffError, match="exceeds degree cutoff 3"):
        circ_B(u, 2, (x * y).outer(y))


def test_iterated_coproduct_table_steps_once_per_entry(monkeypatch):
    B = construct_bialgebra(BialgebraSpec("matrix-coordinate"), 3)
    steps = []
    apply_coproduct = TensorElement.apply_coproduct

    def counted(self, slot):
        steps.append((tuple(self.terms), slot))
        return apply_coproduct(self, slot)

    monkeypatch.setattr(TensorElement, "apply_coproduct", counted)
    keys = B.basis_keys(2)
    codes = [B.codec.slot(key) for key in keys]
    for _ in range(2):
        for code in codes:
            for k in (3, -1, 0, 1, 2):
                B.iterated_coproduct_code(code, k)
    # one step per (key, k >= 2), each on a different element; k = 1 is a
    # product along split_key and takes no step
    assert len(steps) == 2 * len(keys)
    assert len(set(steps)) == len(steps)
    u, v = B.generator("a").outer(B.generator("b")), B.one(3)
    steps.clear()
    for i in (1, 2):
        circ_B(u, i, v)
        circ_b(u, i, v)
    assert not steps  # every Delta^2 the compositions need is tabulated
    monkeypatch.undo()
    for key, code in zip(keys, codes):
        for k in (-1, 0, 1, 2, 3):
            want = _delta_steps(B.element({key: QQ(1)}), k)
            got = B.iterated_coproduct_code(code, k)
            assert list(got.terms.items()) == list(want.terms.items())
    # every kind, k = -1..3, against the key-tuple route of the reference
    # tensors; each entry is memoized, so a second call returns the same object
    for B, pool, _ in COMPOSITION_BIALGEBRAS:
        for key in pool:
            code = B.codec.slot(key)
            ref = ReferenceTensor.of(B.element({key: QQ(1)}))
            wants = {-1: ref.apply_counit(1), 0: ref}
            for k in (1, 2, 3):
                wants[k] = wants[k - 1].apply_coproduct(1)
            for k, want in wants.items():
                got = B.iterated_coproduct_code(code, k)
                assert got.arity == k + 1
                assert list(got.terms.items()) == list(want.terms.items()), (key, k)
                assert B.iterated_coproduct_code(code, k) is got
