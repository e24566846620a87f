import pytest

from udeform.kernel import Monomial, QQ
from udeform.bialgebra import BialgebraSpec, construct_bialgebra
from udeform.cobar import (
    CobarCochain,
    CobarComplex,
    check_oracle_agreement,
    corner_solutions_trivial,
    h2,
    lambda_expected,
    profile,
    reduced_diagonal,
    twi_direct,
)
from udeform.linalg import Echelon


class TestReducedDiagonal:
    def test_primitive_dies(self, B1):
        assert reduced_diagonal(B1.generator("p")).is_zero()

    def test_square_of_primitive(self, B1):
        p = B1.generator("p")
        assert reduced_diagonal(p * p) == p.outer(p).scale(2)

    def test_mixed_product(self, B2):
        p1, p2 = B2.generator("p1"), B2.generator("p2")
        assert reduced_diagonal(p1 * p2) == p1.outer(p2) + p2.outer(p1)

    def test_needs_counit_kernel(self, B1):
        with pytest.raises(ValueError):
            reduced_diagonal(B1.one(1))


class TestDifferential:
    def test_d1_kills_primitives(self, B2):
        c = CobarCochain(B2.generator("p1"))
        assert c.differential().value.is_zero()

    def test_d2_kills_primitive_pairs(self, B2):
        c = CobarCochain(B2.generator("p1").outer(B2.generator("p2")))
        assert c.differential().value.is_zero()

    def test_d2_after_d1_vanishes(self, B2):
        for key in B2.basis_keys(4):
            if key == B2.unit_key:
                continue
            c = CobarCochain(B2.element({key: QQ(1)}))
            assert c.differential().differential().value.is_zero()

    def test_value_must_live_in_the_counit_kernel(self, B1):
        with pytest.raises(ValueError):
            CobarCochain(B1.one(1))

    def test_internal_degree(self, B2):
        c = CobarCochain(B2.generator("p1").outer(B2.generator("p2")))
        assert c.internal_degree() == 2

    def test_complex_builds_for_every_shipped_counital_kind(
        self, B1, B2, tensorB, matrixB, monoid_free, monoid_z2, monoid_idem
    ):
        # d2 o d1 = 0 is asserted inside the constructor
        for B, cutoff in [
            (B1, 6),
            (B2, 4),
            (tensorB, 3),
            (matrixB, 2),
            (monoid_free, 3),
            (monoid_z2, 1),
            (monoid_idem, 1),
        ]:
            CobarComplex(B, cutoff)


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
            out = {}
            for keys, c in T.terms.items():
                col = index.setdefault(keys, len(index))
                out[col] = c
            return out

        for g in blk.gauge:
            ech.add(vec(g))
        assert not ech.contains(vec(wedge))  # nontrivial class
        for r in blk.representatives:
            ech.add(vec(r))
        assert ech.contains(vec(wedge))  # the representative generates it

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
            out = {}
            for keys, c in T.terms.items():
                col = index.setdefault(keys, len(index))
                out[col] = c
            return out

        ech = Echelon()
        for g in blk2.gauge:
            ech.add(vec(g))
        assert ech.contains(vec(p.outer(p)))
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
        assert ech0.contains(vec(B1.one(2)))  # 1@1 ~ 0 via gamma = 1


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
