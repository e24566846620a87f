"""The paper's equivalent formulations of a twist, as second routes.

Each formulation here restates a twist identity the library decides
directly, so the tests hold the library's checks to it:

- the additive (logarithmic) picture: f = log(F) solves f o_1 f = f o_2 f
  in the additive operad (`operad.circ_b`) exactly when F satisfies (d1),
  and an additive gauge shifts f by the coboundary Delta(g) - 1@g - g@1;
- the rescaling of a general morphism pair (F, a) to a counital twist;
- the first-order gauge search, one linear solve over the t^1 layer;
- over one-generator polynomial bialgebras, the dictionary into bivariate
  polynomials and the functional equation
  F(u1+u2, u3) F(u1, u2) = F(u1, u2+u3) F(u2, u3);
- the bialgebra read back off its multiplicative operad.

No job reaches these, so they live with the tests rather than in the
library; tests import this module the way they import `coproduct_override`.
"""

from udeform.bialgebra import TensorElement
from udeform.kernel import (
    Monomial, Polynomial, QQ, TruncSeries, add_term, as_scalar, bounded_product,
)
from udeform.linalg import solve as linalg_solve
from udeform.operad import _sweep, circ_B, circ_b
from udeform.reports import CheckReport
from udeform.twist import (
    UDF, TensorSeries, add_series_identity, first_failing_order, tensor_series,
)


# ---------------------------------------------------------------------------
# the additive picture and rescaling
# ---------------------------------------------------------------------------

class AdditiveTwist(TensorSeries):
    """Arity-2 tensor series with no t^0 part; the logarithmic picture."""

    kind = "additive twists"

    def __init__(self, series):
        super().__init__(series)
        if series.coeffs[0]:
            raise ValueError("an additive twist has zero t^0 part")

    def __eq__(self, other):
        return isinstance(other, AdditiveTwist) and self.series == other.series


def additive_twist_equation(f):
    """Check f o_1 f = f o_2 f in the additive operad, that is
    (Delta@id)f + f@1 = (id@Delta)f + 1@f, one coefficient at a time (the
    composition is not bilinear); returns a report."""
    s = tensor_series(f)
    report = CheckReport("additive twist equation")
    add_series_identity(
        report, "additive cocycle identity", s.order,
        [(lambda c: ((1, circ_b(c, 1, c)), (-1, circ_b(c, 2, c))), s)],
    )
    return report


def coboundary(g):
    """Delta(g) - 1@g - g@1 for an arity-1 tensor g: the additive gauge
    shift, the map the first-order gauge search inverts, and cobar's
    reduced diagonal."""
    one = g.parent.one(1)
    return g.apply_coproduct(1) - one.outer(g) - g.outer(one)


def _require_log_trick(B, order):
    if not (B.is_commutative() or order <= 1):
        raise ValueError(
            "the logarithm dictionary needs a commutative bialgebra or order 1"
        )


def to_additive(F):
    """f = log(F); valid for commutative B or truncation order 1.

    The two pictures are equivalent, and that equivalence is re-checked here:
    f solves the additive equation exactly when F satisfies (d1).
    """
    if not isinstance(F, UDF):
        raise ValueError("the logarithm is taken of a UDF")
    _require_log_trick(F.parent, F.order)
    f = AdditiveTwist(F.series.log())
    mult_ok = F.check(counital=False).passed
    add_ok = additive_twist_equation(f).passed
    if mult_ok != add_ok:
        raise AssertionError(
            "logarithm broke the twist-equation equivalence; this is a bug"
        )
    return f


def from_additive(f):
    """exp(f); inverse of to_additive under the same hypotheses."""
    _require_log_trick(f.parent, f.order)
    return UDF(f.series.exp())


def additive_gauge(f, g):
    """f + Delta(g) - 1@g - g@1 for g an arity-1 series with zero t^0 part."""
    if not isinstance(g, TruncSeries):
        raise ValueError("g must be an arity-1 tensor series")
    _require_log_trick(f.parent, f.order)
    if g.coeffs[0]:
        raise ValueError("additive gauge elements have zero t^0 part")
    return AdditiveTwist(f.series + g.map_coeffs(coboundary))


def rescale(F, a):
    """Normalize a general morphism pair (F, a) by the literal 1/a rescaling.

    Preconditions: F o_1 F = F o_2 F, which is (d1) for F, and
    a*(eps@id)F = 1 = a*(id@eps)F.  The rescaled twist (1/a)F is then
    validated against the counit normalization; pairs whose rescaling fails
    it are rejected.
    """
    a = as_scalar(a)
    if a == 0:
        raise ValueError("the arity-0 value must be nonzero")
    if not isinstance(F, TensorElement) or F.arity != 2:
        raise ValueError("rescale acts on plain arity-2 tensors")
    if circ_B(F, 1, F) != circ_B(F, 2, F):
        raise ValueError("pair rejected: F does not satisfy the cocycle relation")
    one = F.parent.one(1)
    if a * F.apply_counit(1) != one or a * F.apply_counit(2) != one:
        raise ValueError("pair rejected: a*(eps@id)F = 1 fails")
    scaled = F.scale(1 / a)
    if scaled.apply_counit(1) != one or scaled.apply_counit(2) != one:
        raise ValueError(
            "pair rejected: the rescaled twist fails the counit normalization"
        )
    return scaled, QQ(1)


# ---------------------------------------------------------------------------
# first-order gauge search
# ---------------------------------------------------------------------------

def first_order_gauge(F1, F2, degree_bound=None):
    """Find g in B with F2_1 - F1_1 = Delta(g) - 1@g - g@1, or None.

    Only the t^1 layer is searched (a finite linear solve over the
    degree-bounded basis of B); higher orders are out of scope.
    """
    s1, s2 = tensor_series(F1), tensor_series(F2)
    B = s1.coeffs[0].parent
    bound = B.cutoff if degree_bound is None else degree_bound
    target = s2.coeffs[1] - s1.coeffs[1]

    gamma_keys = B.basis_keys(bound)
    gammas = [coboundary(B.element({k: QQ(1)})) for k in gamma_keys]
    sol = linalg_solve([(g.codes, g.den) for g in gammas], (target.codes, target.den))
    if sol is None:
        return None
    return B.element({gamma_keys[col]: c for col, c in sol.items()})


# ---------------------------------------------------------------------------
# the one-variable polynomial dictionary
# ---------------------------------------------------------------------------

def to_bivariate(F, names=("u1", "u2")):
    """Image of an arity-2 tensor (series) over k[p] in k[u1, u2].

    p^a @ p^b goes to u1^a u2^b; only single-generator polynomial-primitive
    parents admit this dictionary.
    """
    s = tensor_series(F)
    B = s.coeffs[0].parent
    if B.spec.kind != "polynomial-primitive" or len(B.spec.generators) != 1:
        raise ValueError("the bivariate dictionary needs one primitive generator")

    def convert(te):
        out = {}
        for (k1, k2), n in te._key_items():
            e1 = dict(k1).get(B.spec.generators[0], 0)
            e2 = dict(k2).get(B.spec.generators[0], 0)
            add_term(out, Monomial({names[0]: e1, names[1]: e2}), n)
        return Polynomial()._like(out, te.den)

    return s.map_coeffs(convert)


def check_functional_equation(F, names=("u1", "u2", "u3")):
    """The three-variable coherence identity for a bivariate F, plus boundaries.

    F may be a Polynomial in (u1, u2) or a TruncSeries of such; the identity

        F(u1+u2, u3) F(u1, u2) = F(u1, u2+u3) F(u2, u3)

    is checked exactly (mod t^(N+1) for series), as are F(0,u) = F(u,0) = 1.
    """
    u1, u2, u3 = names
    if isinstance(F, Polynomial):
        F = TruncSeries([F])
    v1, v2, v3 = (Polynomial.variable(n) for n in names)
    zero = Polynomial()

    def sub(poly, img1, img2):
        return poly.substitute_linear({u1: img1, u2: img2})

    lhs = F.map_coeffs(lambda p: sub(p, v1 + v2, v3)) * F
    rhs = F.map_coeffs(lambda p: sub(p, v1, v2 + v3)) * F.map_coeffs(
        lambda p: sub(p, v2, v3)
    )
    report = CheckReport("functional equation")
    k = first_failing_order(lhs, rhs)
    witness = None
    if k is not None:
        diff = lhs.coeffs[k] - rhs.coeffs[k]
        witness = {
            "first_failing_order": k,
            "monomial": repr(min(diff.terms, key=Monomial.sort_key)),
            "difference": repr(diff),
        }
    report.add("three-variable identity", k is None, witness)

    one = Polynomial.constant(1)
    ok = True
    for img1, img2 in (((zero), v1), (v1, zero)):
        val = F.map_coeffs(lambda p: sub(p, img1, img2))
        expected = TruncSeries([one] + [zero] * F.order)
        if val != expected:
            ok = False
    report.add("boundary condition F(0,u) = F(u,0) = 1", ok)
    return report


# ---------------------------------------------------------------------------
# the bialgebra read back off the operad
# ---------------------------------------------------------------------------

def reconstruct_bialgebra_check(B, cutoff=2):
    """Diagnostic for the bialgebra <-> operad dictionary, one direction.

    Reads the bialgebra structure back off the multiplicative operad
    (product = o_1 at arity one, Delta(b) = b o_1 (1@1), eps via the arity-0
    component) and confirms it agrees with the declared structure maps.
    """
    report = CheckReport("bialgebra reconstruction from the operad (%s)" % B.spec.kind)
    keys = B.basis_keys(cutoff)
    singles = [(k,) for k in keys]
    scalar_one = TensorElement(B, 0, {(): QQ(1)})

    def product(k1, k2):
        e1, e2 = B.element({k1: QQ(1)}), B.element({k2: QQ(1)})
        return circ_B(e1, 1, e2), e1 * e2

    def coproduct(k):
        e = B.element({k: QQ(1)})
        return circ_B(e, 1, B.one(2)), e.apply_coproduct(1)

    def counit(k):
        return (circ_B(B.element({k: QQ(1)}), 1, scalar_one).scalar_value(),
                B.counit_key(k))

    def element(k, *_):
        return {"element": B.key_str(k)}

    _sweep(report, "product recovered by o_1",
           bounded_product([keys, keys], B.degree, B.cutoff), product,
           lambda k1, k2, *_: {"pair": "%s , %s" % (B.key_str(k1), B.key_str(k2))})
    _sweep(report, "coproduct recovered by b o_1 (1@1)", singles, coproduct, element)
    if B.counital:
        _sweep(report, "counit recovered by the arity-0 slot", singles, counit, element)
    return report
