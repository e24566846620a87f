"""The cobar construction in cohomological degrees <= 3 and the twist moduli.

Two independent computations of the same space live here:

* ``h2``         -- kernel/image ranks of the differential of the cobar
  complex on the counit kernel, per block;
* ``twi_direct`` -- the solution space of the additive twist equation on the
  full B@B, modulo the additive gauge action.

Their agreement (identical block dimensions, gauge-equivalent
representatives) is a theorem and doubles as the oracle test for both
implementations.

`CobarComplex` is the one cobar differential: its blocks hold d1 (the
reduced diagonal dbar) and d2(x@y) = dbar(x)@y - x@dbar(y) on the counit
kernel.  dbar of m - eps(m)1 is read off Delta(m) as the terms with no unit
slot: every other term of Delta(m) - m@1 - 1@m + eps(m)1@1 has one.  (On a
whole element g the same map is `twist.coboundary`, the additive gauge
shift.)  Both routes end in the same step, a kernel basis modulo a subspace
that must lie inside it (`linalg.quotient_representatives`).  The kernel
vectors are independent, so that elimination checks the inclusion as
rank(sub + kernel) = dim kernel: for ``h2`` the subspace is im d1 and the
identity is d2 o d1 = 0; for ``twi_direct`` it is the gauge span and the
identity is that the gauge span lies in the solutions.  A failure raises
AssertionError, under python -O as well.

Blocks: primitively generated kinds are sliced by internal degree (their
coproduct is degree-graded).  Grouplike-flavored kinds (monoid,
matrix-coordinate) are not graded that way, but every degree-<=D truncation
is a subcoalgebra, so they are handled as one finite block.
"""

from __future__ import annotations

import itertools

from .kernel import MINUS_ONE, QQ, add_term
from .bialgebra import TensorElement
from .linalg import Echelon, kernel_basis, quotient_representatives
from .reports import CheckReport, first_witness

GRADED_KINDS = ("polynomial-primitive", "tensor-primitive")


def lambda_expected(num_primitives):
    """Expected total H^2 dimension for a primitively generated polynomial
    bialgebra on k generators: the dimension k(k-1)/2 of the degree-2 part
    of the exterior algebra on the primitives."""
    k = num_primitives
    if k < 0:
        raise ValueError("the number of primitives is nonnegative")
    return k * (k - 1) // 2


# ---------------------------------------------------------------------------
# the counit kernel
# ---------------------------------------------------------------------------

def reduced_keys(B, max_degree):
    """Non-unit basis keys; key m stands for the class of m - eps(m)1."""
    return [k for k in B.basis_keys(max_degree) if k != B.unit_key]


def embed_reduced(B, coords, arity):
    """Expand reduced coordinates into B^(@arity) via m -> m - eps(m)1.

    Keys of `coords` have no unit slot (see `_embed`).
    """
    return _embed(B.tensor(arity, coords))


def _embed(R):
    """m -> m - eps(m)1 on every slot of R, whose terms have no unit slot.

    On the primitively generated kinds eps vanishes off the unit, so this is
    the identity.  Elsewhere each term expands as the outer product of the
    factors m - eps(m)1 of its slots, terms added in order.
    """
    B = R.parent
    if _is_graded(B):
        return R
    factors = {}

    def factor(m):
        hit = factors.get(m)
        if hit is None:
            hit = factors[m] = B.element({m: QQ(1)}) - B.one(1).scale(B.counit_key(m))
        return hit

    return R.map_keys_linear(factor)


# ---------------------------------------------------------------------------
# block-by-block linear algebra
# ---------------------------------------------------------------------------

class ModuliBlock:
    """One block of the moduli computation (per degree, or the single block)."""

    def __init__(self, degree, dim, representatives, solutions=None, gauge=None):
        self.degree = degree          # int, or None for the unsliced block
        self.dim = dim
        self.representatives = representatives  # tensors in B@B
        self.solutions = solutions or []
        self.gauge = gauge or []

    def to_json(self):
        return {
            "degree": self.degree,
            "dim": self.dim,
            "representatives": [r.render() for r in self.representatives],
        }

    def __repr__(self):
        return "<block degree=%s dim=%d>" % (self.degree, self.dim)


def _is_graded(B):
    return B.spec.kind in GRADED_KINDS


def _block_labels(B, cutoff):
    if _is_graded(B):
        return list(range(cutoff + 1))
    return [None]


def _keys_for_block(B, cutoff, label, reduced):
    pool = reduced_keys(B, cutoff) if reduced else B.basis_keys(cutoff)
    if label is None:
        return pool
    return [k for k in pool if B.degree(k) == label]


def _pairs_for_block(B, cutoff, label, reduced):
    """Key pairs in one block, deterministically ordered."""
    pool = reduced_keys(B, cutoff) if reduced else B.basis_keys(cutoff)
    if label is None:
        return list(itertools.product(pool, repeat=2))
    by_degree = {}
    for k in pool:
        by_degree.setdefault(B.degree(k), []).append(k)
    degrees = sorted(by_degree)
    out = []
    for combo in itertools.product(degrees, repeat=2):
        if sum(combo) != label:
            continue
        out.extend(itertools.product(*(by_degree[d] for d in combo)))
    return out


class CobarComplex:
    """d1 and d2 of the cobar construction, sliced into finite blocks.

    dbar(m) is read off Delta(m) as its terms with no unit slot.  Per block,
    d1 is kept as its nonzero columns and d2 as rows, one per triple d2
    reaches; `h2` checks d2 o d1 = 0 in its quotient step.
    """

    def __init__(self, B, cutoff):
        B.require_counit()
        self.B = B
        self.cutoff = cutoff
        unit = B.unit_key
        self._dbar = {  # key -> reduced pair coords, shared across blocks
            m: {p: c for p, c in B.coproduct_key(m).items() if unit not in p}
            for m in reduced_keys(B, cutoff)
        }
        self.blocks = {
            label: self._build_block(label) for label in _block_labels(B, cutoff)
        }

    def _build_block(self, label):
        B = self.B
        pairs = _pairs_for_block(B, self.cutoff, label, reduced=True)
        pair_index = {p: i for i, p in enumerate(pairs)}
        dbar = self._dbar

        d1_cols = []
        for m in _keys_for_block(B, self.cutoff, label, reduced=True):
            col = {pair_index[p]: c for p, c in dbar[m].items()}
            if col:
                d1_cols.append(col)

        rows = {}  # triple -> its row of d2; only the triples d2 reaches
        for col, (m, n) in enumerate(pairs):
            for (a, b), c in dbar[m].items():
                add_term(rows.setdefault((a, b, n), {}), col, c)
            for (a, b), c in dbar[n].items():
                add_term(rows.setdefault((m, a, b), {}), col, -c)

        return {"pairs": pairs, "d1_cols": d1_cols, "d2_rows": list(rows.values())}


def _quotient(kernel, sub, failure, label):
    """Representatives of span(kernel)/span(sub), where sub must lie in the
    kernel: the elimination checks that as rank(sub + kernel) = dim kernel.
    A failure raises AssertionError with the text `failure` and the block."""
    try:
        return quotient_representatives(kernel, sub)
    except ValueError:
        block = "the single block" if label is None else "block %d" % label
        raise AssertionError("%s in %s" % (failure, block)) from None


def h2(B, cutoff):
    """Second cohomology of the cobar construction, per block.

    Per block: ker d2 modulo im d1, with representatives embedded back into
    B@B and chosen deterministically.
    """
    complex_ = CobarComplex(B, cutoff)
    out = []
    for label, blk in complex_.blocks.items():
        pairs = blk["pairs"]
        kernel = kernel_basis(blk["d2_rows"], len(pairs))
        image = blk["d1_cols"]
        reps = _quotient(kernel, image, "d2 o d1 != 0", label)

        def embed(vecs):
            return [
                embed_reduced(B, {pairs[j]: c for j, c in vec.items()}, 2)
                for vec in vecs
            ]

        out.append(ModuliBlock(label, len(reps), embed(reps), gauge=embed(image)))
    return out


def twi_direct(B, cutoff):
    """Solutions of the additive twist equation on the full B@B, mod gauge.

    The linear system is not pre-reduced to the counit kernel: unknowns run
    over all pairs of basis keys in the block, and the gauge span includes
    gamma = 1.  Agreement with h2 is the Prop-style oracle equivalence.
    """
    B.require_counit()
    out = []
    for label in _block_labels(B, cutoff):
        pairs = _pairs_for_block(B, cutoff, label, reduced=False)
        pair_index = {p: i for i, p in enumerate(pairs)}
        unit = B.unit_key

        rows = {}  # triple -> its row; only the triples the equation reaches

        def put(triple, col, c):
            add_term(rows.setdefault(triple, {}), col, c)

        for col, (m, n) in enumerate(pairs):
            for (a, b), c in B.coproduct_key(m).items():
                put((a, b, n), col, c)          # (Delta @ id) xi
            put((m, n, unit), col, QQ(1))       # xi @ 1
            for (a, b), c in B.coproduct_key(n).items():
                put((m, a, b), col, -c)         # -(id @ Delta) xi
            put((unit, m, n), col, MINUS_ONE)   # -1 @ xi

        kernel = kernel_basis(list(rows.values()), len(pairs))

        gauge_keys = _keys_for_block(B, cutoff, label, reduced=False)
        gauge_vecs = []
        for g in gauge_keys:
            img = dict(B.coproduct_key(g))
            add_term(img, (unit, g), MINUS_ONE)
            add_term(img, (g, unit), MINUS_ONE)
            vec = {pair_index[p]: c for p, c in img.items()}
            if vec:
                gauge_vecs.append(vec)

        reps = _quotient(kernel, gauge_vecs, "gauge image is not a solution", label)

        def to_tensor(vec):
            return TensorElement(B, 2, {pairs[j]: c for j, c in vec.items()})

        out.append(
            ModuliBlock(
                label,
                len(reps),
                [to_tensor(v) for v in reps],
                solutions=[to_tensor(v) for v in kernel],
                gauge=[to_tensor(v) for v in gauge_vecs],
            )
        )
    return out


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------

def profile(blocks):
    """The graded dimension profile as a sorted list of (degree, dim)."""
    return sorted(
        ((b.degree if b.degree is not None else -1), b.dim) for b in blocks
    )


def corner_solutions_trivial(B, blocks):
    """Each solution's component in k@B + B@k must be a multiple of 1@1.

    The component is taken with respect to the splitting
    B@B = (k@B + B@k) + (embedded Bbar@Bbar): subtract the embedded reduced
    part and what remains has to be proportional to 1@1.
    """
    unit = B.unit_key

    def nontrivial_corner(blk, sol):
        corner = sol - _embed(sol.nonunit_part())
        if any(keys != (unit, unit) for keys in corner.terms):
            return {"degree": blk.degree, "term": sol.render()}

    bad, _ = first_witness(
        ((blk, sol) for blk in blocks for sol in blk.solutions), nontrivial_corner
    )
    return bad is None, bad


def gauge_equivalent(B, blk_a, blk_b):
    """Do two blocks present the same classes?  (Same span modulo gauge.)"""
    index = {}

    # numerators span the same lines as the coefficients
    def vec(T):
        return {index.setdefault(code, len(index)): n for code, n in T.codes.items()}

    span_a = Echelon()
    for g in blk_a.gauge + blk_b.gauge:
        span_a.add(vec(g))
    for r in blk_a.representatives:
        span_a.add(vec(r))
    rank_a = span_a.rank
    for r in blk_b.representatives:
        span_a.add(vec(r))
    return span_a.rank == rank_a and blk_a.dim == blk_b.dim


def check_oracle_agreement(B, cutoff):
    """Compare h2 and twi_direct: profiles match, representatives agree.

    Returns (report, the h2 blocks), so callers reuse the blocks.
    """
    report = CheckReport("moduli oracle agreement (%s)" % B.spec.kind)
    blocks_h2 = h2(B, cutoff)
    blocks_twi = twi_direct(B, cutoff)
    report.add(
        "graded dimension profiles are identical",
        profile(blocks_h2) == profile(blocks_twi),
        {
            "h2": profile(blocks_h2),
            "twi": profile(blocks_twi),
        },
    )
    by_label_h2 = {b.degree: b for b in blocks_h2}

    def inequivalent(label, blk):
        other = by_label_h2.get(label)
        if blk.dim if other is None else not gauge_equivalent(B, blk, other):
            return {"degree": label}

    witness, _ = first_witness(
        ((b.degree, b) for b in blocks_twi), inequivalent
    )
    report.add("representatives are gauge-equivalent", witness is None, witness)
    ok, witness = corner_solutions_trivial(B, blocks_twi)
    report.add("corner components of solutions are multiples of 1@1", ok, witness)
    return report, blocks_h2
