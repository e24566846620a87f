"""A deliberately broken bialgebra for exercising the checkers' failure branches."""

from udeform.bialgebra import Bialgebra, BialgebraSpec, construct_bialgebra
from udeform.kernel import QQ


class _CoproductOverride(Bialgebra):
    """A bialgebra with the coproduct of selected basis keys replaced.

    Deliberately breaks the axioms; used to exercise the failure branches of
    the checkers (everything else delegates to the wrapped bialgebra).
    """

    def __init__(self, base, overrides):
        super().__init__(base.spec, base.cutoff)
        self._base = base
        self._overrides = dict(overrides)

    @property
    def unit_key(self):
        return self._base.unit_key

    def degree(self, key):
        return self._base.degree(key)

    def product_keys(self, k1, k2):
        return self._base.product_keys(k1, k2)

    def basis_keys(self, max_degree):
        return self._base.basis_keys(max_degree)

    def generator_key(self, name):
        return self._base.generator_key(name)

    def split_key(self, key):
        return self._base.split_key(key)

    def key_str(self, key):
        return self._base.key_str(key)

    def parse_key(self, text):
        return self._base.parse_key(text)

    def key_sort_key(self, key):
        return self._base.key_sort_key(key)

    def _split_code(self, code, k):
        # Delta from the overrides, else the base's Delta and eps on the key
        key = self.codec.keys[code]
        if k == -1:
            return self.tensor(0, {(): self._base.counit_key(key)})
        hit = self._overrides.get(key)
        return self.tensor(2, self._base.coproduct_key(key) if hit is None else hit)


class _IdentityOverride(_CoproductOverride):
    """A bialgebra whose Delta^0, the identity of B by convention, is
    replaced on selected basis keys.  Of the operad unit laws only
    u o_i unit = u reads Delta^0 of a key other than the unit, so this breaks
    that law alone."""

    def __init__(self, base, images):
        super().__init__(base, {})
        self._images = dict(images)

    def iterated_coproduct_code(self, code, k):
        image = self._images.get(self.codec.keys[code]) if k == 0 else None
        if image is None:
            return super().iterated_coproduct_code(code, k)
        return self.element(image)


def with_identity_override(B, images):
    """Copy of B whose Delta^0 sends each key of `images` to the element
    given there (a dict basis key -> coefficient) instead of to itself."""
    return _IdentityOverride(B, images)


def with_coproduct_override(B, overrides):
    """Copy of B whose Delta is replaced on the given basis keys.

    overrides: dict basis-key -> dict (key, key) -> coefficient.  The result
    generally violates coassociativity or multiplicativity; that is the point.
    """
    return _CoproductOverride(B, overrides)


def halved_square(cutoff=3):
    """k[p] at the cutoff, with Delta(p^2) = p^2@1 + 1@p^2 + 1/2 p@p.

    p is primitive, so any multiple of p@p keeps Delta coassociative up to
    p^3: both moduli routes run and agree, and their integer systems are
    scaled by the denominator L = 2.
    """
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), cutoff)
    p, p2 = B.parse_key("p"), B.parse_key("p^2")
    one = B.unit_key
    delta = {(p2, one): QQ(1), (one, p2): QQ(1), (p, p): QQ(1, 2)}
    return with_coproduct_override(B, {p2: delta})


def noncoassociative_cube(cutoff=4):
    """k[p] at the cutoff, with Delta(p^3) = p^3@1 + 1@p^3 + 3 p@p^2 + 2 p^2@p.

    The primitive coproduct has 3 p^2@p there, so coassociativity fails at
    p^3: d2 o d1 != 0 on p^3, and the gauge image of p^3 solves no twist
    equation.
    """
    B = construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), cutoff)
    p, p2, p3 = (B.parse_key(text) for text in ("p", "p^2", "p^3"))
    one = B.unit_key
    delta = {(p3, one): QQ(1), (one, p3): QQ(1), (p, p2): QQ(3), (p2, p): QQ(2)}
    return with_coproduct_override(B, {p3: delta})
