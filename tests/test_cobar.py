import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

import udeform
from udeform import cobar
from udeform.kernel import Monomial, QQ, add_into
from udeform.bialgebra import (
    BialgebraSpec, CounitUnavailable, TensorElement, construct_bialgebra,
)
from udeform.cobar import (
    CobarComplex,
    check_oracle_agreement,
    corner_solutions_trivial,
    embed_reduced,
    h2,
    profile,
    reduced_keys,
    twi_direct,
)
from udeform.linalg import Echelon

from conftest import (
    in_span, integer_row, lambda_expected, reference_cobar_block, reference_twist_system,
)
import coproduct_override
from coproduct_override import noncoassociative_cube
from formulations import coboundary


class TestReducedDiagonal:
    # on the counit kernel, the additive gauge shift is cobar's reduced diagonal
    def test_primitive_dies(self, B1):
        assert not coboundary(B1.generator("p"))

    def test_square_of_primitive(self, B1):
        p = B1.generator("p")
        assert coboundary(p * p) == p.outer(p).scale(2)

    def test_mixed_product(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        assert coboundary(p1 * p2) == p1.outer(p2) + p2.outer(p1)

    def test_needs_counit_kernel(self, B1):
        # off the counit kernel the value leaves Bbar @ Bbar:
        # Delta(1) - 1@1 - 1@1 = -1@1
        assert coboundary(B1.one(1)) == -B1.one(2)


def _d2_d1(blk):
    """The entries of d2 . d1 on one block, rows by columns."""
    return [sum(c * col.get(j, 0) for j, c in row.items())
            for row in blk["d2_rows"] for col in blk["d1_cols"]]


class TestDifferential:
    # the blocks of CobarComplex are the one cobar differential
    def test_d1_kills_primitives(self, B2):
        assert CobarComplex(B2, 4).blocks[1]["d1_cols"] == []

    def test_d2_kills_primitive_pairs(self, B2):
        blk = CobarComplex(B2, 4).blocks[2]  # the pairs of primitives
        assert (B2.parse_key("p1"), B2.parse_key("p2")) in blk["pairs"]
        assert not any(blk["d2_rows"])

    def test_d2_after_d1_vanishes(
        self, B1, B2, tensorB, matrixB, monoid_free, monoid_z2, monoid_idem
    ):
        # h2 checks this as a rank identity; here d2_rows . d1_cols = 0 is
        # multiplied out on every block of each shipped counital kind
        reached = 0
        for B, cutoff in [
            (B1, 6),
            (B2, 4),
            (tensorB, 3),
            (matrixB, 2),
            (monoid_free, 3),
            (monoid_z2, 1),
            (monoid_idem, 1),
        ]:
            for blk in CobarComplex(B, cutoff).blocks.values():
                products = _d2_d1(blk)
                assert not any(products), (B, blk)
                reached += len(products)
        assert reached

    def test_value_must_live_in_the_counit_kernel(self, B1):
        # the unit key is in no pair: cochains live on the counit kernel
        for blk in CobarComplex(B1, 4).blocks.values():
            assert all(B1.unit_key not in pair for pair in blk["pairs"])
        nonunital = construct_bialgebra(
            BialgebraSpec("polynomial-primitive", ["p"], counital=False), 2)
        with pytest.raises(CounitUnavailable):
            CobarComplex(nonunital, 2)

    def test_internal_degree(self, B2):
        for label, blk in CobarComplex(B2, 4).blocks.items():
            assert {sum(map(B2.degree, pair)) for pair in blk["pairs"]} <= {label}

    def test_complex_builds_for_every_shipped_counital_kind(
        self, B1, B2, tensorB, matrixB, monoid_free, monoid_z2, monoid_idem
    ):
        # d2 o d1 = 0 is checked in h2's quotient step
        for B, cutoff in [
            (B1, 6),
            (B2, 4),
            (tensorB, 3),
            (matrixB, 2),
            (monoid_free, 3),
            (monoid_z2, 1),
            (monoid_idem, 1),
        ]:
            h2(B, cutoff)


class TestLambdaExpected:
    @pytest.mark.parametrize("k,expected", [(0, 0), (1, 0), (2, 1), (4, 6)])
    def test_values(self, k, expected):
        assert lambda_expected(k) == expected


class TestPolynomialModuli:
    def test_one_generator_vanishes(self, B1):
        blocks = h2(B1, 6)
        assert sum(b.dim for b in blocks) == 0

    def test_two_generators(self, B2):
        blocks = h2(B2, 6)
        total = {b.degree: b.dim for b in blocks}
        assert sum(total.values()) == 1 == lambda_expected(2)
        assert total[2] == 1
        # the class is generated by the antisymmetric primitive tensor
        blk = [b for b in blocks if b.degree == 2][0]
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        wedge = p1.outer(p2) - p2.outer(p1)
        ech = Echelon()
        index = {}

        def vec(T):
            return integer_row(T, index)

        for g in blk.gauge:
            ech.add(vec(g))
        assert not in_span(ech, vec(wedge))  # nontrivial class
        for r in blk.representatives:
            ech.add(vec(r))
        assert in_span(ech, vec(wedge))  # the representative generates it

    def test_three_generators(self, B3):
        blocks = h2(B3, 6)
        assert sum(b.dim for b in blocks) == 3 == lambda_expected(3)

    def test_twi_equivalences(self, B1):
        # p@p is killed by gamma = p^2/2, and 1@1 by gamma = 1
        blocks = twi_direct(B1, 4)
        p = B1.generator("p")
        by_degree = {b.degree: b for b in blocks}
        blk2 = by_degree[2]
        index = {}

        def vec(T):
            return integer_row(T, index)

        ech = Echelon()
        for g in blk2.gauge:
            ech.add(vec(g))
        assert in_span(ech, vec(p.outer(p)))
        # explicit gauge: Delta(p^2/2) - 1@(p^2/2) - (p^2/2)@1 = p@p
        gamma = (p * p).scale(QQ(1, 2))
        img = gamma.apply_coproduct(1) - B1.one(1).outer(gamma) - gamma.outer(B1.one(1))
        assert img == p.outer(p)

        blk0 = by_degree[0]
        assert blk0.dim == 0
        ech0 = Echelon()
        index.clear()
        for g in blk0.gauge:
            ech0.add(vec(g))
        assert in_span(ech0, vec(B1.one(2)))  # 1@1 ~ 0 via gamma = 1


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "fixture,cutoff",
        [
            ("B1", 6),
            ("B2", 6),
            ("B3", 4),
            ("tensorB", 3),
            ("matrixB", 2),
            ("monoid_free", 3),
            ("monoid_z2", 1),
            ("monoid_idem", 1),
        ],
    )
    def test_every_shipped_counital_kind(self, fixture, cutoff, request):
        B = request.getfixturevalue(fixture)
        rep, _ = check_oracle_agreement(B, cutoff)
        assert rep.passed, rep.render_text()

    def test_profiles_match_for_k2(self, B2):
        assert profile(h2(B2, 5)) == profile(twi_direct(B2, 5))

    def test_corner_solutions(self, B2):
        ok, witness = corner_solutions_trivial(B2, twi_direct(B2, 4))
        assert ok, witness


def test_monoid_moduli_vanish(monoid_z2, monoid_idem, monoid_free):
    for B, cutoff in [(monoid_z2, 1), (monoid_idem, 1), (monoid_free, 3)]:
        assert sum(b.dim for b in h2(B, cutoff)) == 0


# ---------------------------------------------------------------------------
# both invariants raise on a noncoassociative coproduct, also under python -O
# ---------------------------------------------------------------------------

INVARIANT_FAILURES = [
    ("h2", "d2 o d1 != 0 in block 3"),
    ("twi_direct", "gauge image is not a solution in block 3"),
]
ROUTES = [route for route, _ in INVARIANT_FAILURES]


@pytest.mark.parametrize("route,message", INVARIANT_FAILURES, ids=ROUTES)
def test_noncoassociative_cube_fails_the_invariant(route, message):
    with pytest.raises(AssertionError) as exc:
        getattr(cobar, route)(noncoassociative_cube(), 4)
    assert str(exc.value) == message


@pytest.mark.parametrize("route,message", INVARIANT_FAILURES, ids=ROUTES)
def test_invariant_fails_under_the_optimized_interpreter(route, message):
    src = pathlib.Path(udeform.__file__).parent.parent
    tests = pathlib.Path(__file__).resolve().parent
    code = (
        "from coproduct_override import noncoassociative_cube\n"
        "from udeform import cobar\n"
        "cobar.%s(noncoassociative_cube(), 4)\n" % route
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("AssertionError: " + message)


# ---------------------------------------------------------------------------
# the integer systems against the key-tuple route
# ---------------------------------------------------------------------------

SYSTEMS = [
    ("B2", 4),
    ("tensorB", 3),
    ("matrixB", 2),
    ("monoid_free", 3),
    ("monoid_z2", 1),
    ("monoid_idem", 1),
    ("halved_square", 3),
]


@pytest.fixture(scope="module")
def halved_square():
    return coproduct_override.halved_square()


def assert_rows_on_lines(got, want):
    """Row for row, each integer row is a nonzero rational multiple of the
    reference row (an empty row of an empty one)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(type(x) is int for x in g.values())
        assert list(g) == list(w)
        ratios = {Fraction(g[j]) / w[j] for j in w}
        assert len(ratios) <= 1 and 0 not in ratios, (g, w)


@pytest.mark.parametrize("fixture,cutoff", SYSTEMS, ids=[f for f, _ in SYSTEMS])
def test_integer_systems_match_the_key_tuple_route(fixture, cutoff, request):
    B = request.getfixturevalue(fixture)
    complex_ = CobarComplex(B, cutoff)
    delta, L = cobar._coproduct_table(B, B.basis_keys(cutoff))
    assert L == (2 if fixture == "halved_square" else 1)
    reached = 0
    for label, blk in complex_.blocks.items():
        want = reference_cobar_block(B, cutoff, label)
        assert blk["pairs"] == want["pairs"]
        assert_rows_on_lines(blk["d1_cols"], want["d1_cols"])
        assert_rows_on_lines(blk["d2_rows"], want["d2_rows"])
        pairs, rows, gauge = reference_twist_system(B, cutoff, label)
        codes, got_rows, got_gauge = cobar._twist_system(B, cutoff, label, delta, L)
        assert codes == [B.codec.encode(p) for p in pairs]
        assert_rows_on_lines(got_rows, rows)
        assert_rows_on_lines(got_gauge, gauge)
        reached += len(rows) + len(blk["d2_rows"])
    assert reached


def test_a_halved_coproduct_scales_both_systems_and_both_routes_agree(
    halved_square,
):
    rep, blocks = check_oracle_agreement(halved_square, 3)
    assert rep.passed, rep.render_text()
    # dbar(p^2) = 1/2 p@p, so p@p is exact, as over k[p]
    assert profile(blocks) == [(0, 0), (1, 0), (2, 0), (3, 0)]


# ---------------------------------------------------------------------------
# embedding reduced coordinates
# ---------------------------------------------------------------------------

def outer_product_expansion(B, coords):
    """Reference: each key expanded as the outer product of its slots'
    arity-1 elements m - eps(m)1, accumulated key by key."""
    out = {}
    for keys, c in coords.items():
        piece = TensorElement(B, 0, {(): c})
        for k in keys:
            e = B.element({k: QQ(1)})
            eps = B.counit_key(k)
            if eps:
                e = e - B.one(1).scale(eps)
            piece = piece.outer(e)
        add_into(out, piece.terms)
    return out


@pytest.mark.parametrize("fixture", ["matrixB", "monoid_free"])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_embed_reduced_matches_outer_product_expansion(fixture, arity, request):
    B = request.getfixturevalue(fixture)
    keys = reduced_keys(B, 2)[:6]
    assert any(B.counit_key(k) for k in keys)  # eps(m) != 0 occurs
    # coefficients of both signs, so corner terms cancel and come back
    scalars = [QQ(1), QQ(-1), QQ(1, 2), QQ(-2, 3)]
    coords = {
        combo: scalars[i % len(scalars)]
        for i, combo in enumerate(itertools.product(keys, repeat=arity))
    }
    got = embed_reduced(B.tensor(arity, coords))
    assert got.arity == arity
    assert list(got.terms.items()) == list(outer_product_expansion(B, coords).items())


# ---------------------------------------------------------------------------
# tensor-primitive H2 against Witt's necklace formula
# ---------------------------------------------------------------------------

def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def free_lie_dims(k, top):
    """Degree n -> dim of the free Lie algebra on k generators, n <= top:
    Witt's necklace formula (1/n) sum over d | n of mu(d) k^(n/d)."""
    return {
        n: sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, top + 1)
    }


def exterior_square_dims(lie, top):
    """Graded dimensions of the exterior square of a graded space in
    degrees >= 1: pairs a < b of degrees plus 2-subsets within one degree."""
    out = []
    for D in range(top + 1):
        dim = sum(lie[a] * lie[D - a] for a in range(1, (D + 1) // 2))
        if D % 2 == 0 and D:
            dim += comb(lie[D // 2], 2)
        out.append(dim)
    return out


def test_tensor_h2_profile_is_the_exterior_square_of_free_lie():
    top = 7
    expected = exterior_square_dims(free_lie_dims(2, top), top)
    assert expected == [0, 0, 1, 2, 4, 8, 16, 30]
    B = construct_bialgebra(BialgebraSpec("tensor-primitive", ["e1", "e2"]), top)
    for blocks in (h2(B, top), twi_direct(B, top)):
        dims = dict(profile(blocks))
        assert [dims.get(D, 0) for D in range(top + 1)] == expected
