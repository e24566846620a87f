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
whole element g the same map is `coboundary` in `tests/formulations.py`,
the additive gauge shift.)  Both routes end in the same step, a kernel
basis modulo a subspace that must lie inside it
(`linalg.quotient_representatives`).  The kernel
vectors are independent, so that elimination checks the inclusion as
rank(sub + kernel) = dim kernel: for ``h2`` the subspace is im d1 and the
identity is d2 o d1 = 0; for ``twi_direct`` it is the gauge span and the
identity is that the gauge span lies in the solutions.  A failure raises
AssertionError, under python -O as well.

Both systems are integer from the start.  Delta is read from the
bialgebra's packed table (`Bialgebra.iterated_coproduct_code`, {pair code:
int} over a denominator) and every entry is scaled by the lcm L of those
denominators; L is 1 for every shipped kind.  A column is a pair code, a row
is keyed by the code of the triple it stands for (the code of x@y@z holds z
two slot widths up), and the rows go into `linalg.Echelon` as they are.  Its
rows are primitive, so the scaling changes no pivot, kernel vector or
representative.  The kernel vectors come back from `linalg` packed,
({column: int}, den), the image and gauge vectors are integer rows, and the
solution, gauge and representative tensors take those numerators and
denominators as they are, each column read as its pair code.

Blocks: primitively generated kinds are sliced by internal degree (their
coproduct is degree-graded).  Grouplike-flavored kinds (monoid,
matrix-coordinate) are not graded that way, but every degree-<=D truncation
is a subcoalgebra, so they are handled as one finite block.
"""

from __future__ import annotations

import itertools
from math import lcm

from .kernel import QQ, add_term
from .linalg import Echelon, kernel_basis, quotient_representatives
from .reports import CheckReport, first_witness

GRADED_KINDS = ("polynomial-primitive", "tensor-primitive")


# ---------------------------------------------------------------------------
# the counit kernel
# ---------------------------------------------------------------------------

def reduced_keys(B, max_degree):
    """Non-unit basis keys; key m stands for the class of m - eps(m)1."""
    return [k for k in B.basis_keys(max_degree) if k != B.unit_key]


def embed_reduced(R):
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


def _coproduct_table(B, keys):
    """({slot code: L Delta(key) as {pair code: int}}, L) over the keys, L the
    lcm of the denominators of their coproducts; the dicts are read only."""
    slots = [B.codec.slot(k) for k in keys]
    deltas = [B.iterated_coproduct_code(m, 1) for m in slots]
    L = lcm(1, *[d.den for d in deltas])
    table = {
        m: d.codes if d.den == L
        else {pc: n * (L // d.den) for pc, n in d.codes.items()}
        for m, d in zip(slots, deltas)
    }
    return table, L


def _block_codes(B, cutoff, label, reduced):
    """The key pairs of one block and their pair codes."""
    pairs = _pairs_for_block(B, cutoff, label, reduced)
    slot, width = B.codec.slot, B.codec.width
    return pairs, [slot(m) | slot(n) << width for m, n in pairs]


def _columns(codes, vectors):
    """{pair code: c} vectors as {column: c}, columns indexed by `codes`;
    empty vectors are dropped."""
    col_of = {code: j for j, code in enumerate(codes)}
    out = [{col_of[pc]: c for pc, c in vec.items()} for vec in vectors]
    return [v for v in out if v]


def _tensor(B, codes, nums, den=1):
    """The element of B@B with the reduced coordinates nums / den over the
    pair codes: a packed kernel vector or an integer row, taken as it is."""
    t = B.zero(2)
    t.codes, t.den = {codes[j]: n for j, n in nums.items()}, den
    return t


class CobarComplex:
    """d1 and d2 of the cobar construction, sliced into finite blocks.

    dbar(m) is read off Delta(m) as its terms with no unit slot, scaled by
    the lcm L of the denominators of Delta.  Per block, d1 is kept as its
    nonzero columns and d2 as rows, one per triple code d2 reaches; `h2`
    checks d2 o d1 = 0 in its quotient step.
    """

    def __init__(self, B, cutoff):
        B.require_counit()
        self.B = B
        self.cutoff = cutoff
        codec = B.codec
        width, mask = codec.width, codec.mask
        delta, _ = _coproduct_table(B, reduced_keys(B, cutoff))
        self._dbar = {  # slot code -> L dbar, shared across blocks
            m: {pc: c for pc, c in d.items() if pc & mask and pc >> width}
            for m, d in delta.items()
        }
        self.blocks = {
            label: self._build_block(label) for label in _block_labels(B, cutoff)
        }

    def _build_block(self, label):
        B, codec, dbar = self.B, self.B.codec, self._dbar
        width, mask = codec.width, codec.mask
        pairs, codes = _block_codes(B, self.cutoff, label, reduced=True)
        keys = _keys_for_block(B, self.cutoff, label, reduced=True)
        d1_cols = _columns(codes, (dbar[codec.slot(m)] for m in keys))

        rows = {}  # triple code -> its row of d2; only the triples d2 reaches
        for col, code in enumerate(codes):
            m, n = code & mask, code >> width
            high = n << 2 * width
            for pc, c in dbar[m].items():         # dbar(m) @ n
                rows.setdefault(pc | high, {})[col] = c
            for pc, c in dbar[n].items():         # -m @ dbar(n)
                add_term(rows.setdefault(m | pc << width, {}), col, -c)

        return {
            "pairs": pairs, "codes": codes,
            "d1_cols": d1_cols, "d2_rows": list(rows.values()),
        }


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
        codes = blk["codes"]
        kernel = kernel_basis(blk["d2_rows"], len(codes))
        image = blk["d1_cols"]
        reps = _quotient(kernel, image, "d2 o d1 != 0", label)

        def embed(vecs):
            return [embed_reduced(_tensor(B, codes, *vec)) for vec in vecs]

        out.append(ModuliBlock(label, len(reps), embed(reps),
                               gauge=embed((v, 1) for v in image)))
    return out


def _twist_system(B, cutoff, label, delta, L):
    """The additive twist equation of one block on the full B@B, scaled by L.

    `delta, L` are `_coproduct_table` over the basis.  Returns (pair codes,
    rows, gauge vectors): the rows are (Delta @ id) xi + xi @ 1
    - (id @ Delta) xi - 1 @ xi, one per triple code the equation reaches,
    and the gauge vectors Delta(g) - 1 @ g - g @ 1 over the keys g of the
    block, all integer dicts over the columns of the pair codes.
    """
    codec = B.codec
    width, mask = codec.width, codec.mask
    _, codes = _block_codes(B, cutoff, label, reduced=False)
    rows = {}  # triple code -> its row; only the triples the equation reaches
    for col, code in enumerate(codes):
        m, n = code & mask, code >> width
        high = n << 2 * width
        for pc, c in delta[m].items():            # (Delta @ id) xi
            rows.setdefault(pc | high, {})[col] = c
        add_term(rows.setdefault(code, {}), col, L)             # xi @ 1
        for pc, c in delta[n].items():            # -(id @ Delta) xi
            add_term(rows.setdefault(m | pc << width, {}), col, -c)
        add_term(rows.setdefault(code << width, {}), col, -L)   # -1 @ xi

    gauge = []
    for key in _keys_for_block(B, cutoff, label, reduced=False):
        g = codec.slot(key)
        img = dict(delta[g])
        add_term(img, g << width, -L)            # -1 @ g
        add_term(img, g, -L)                     # -g @ 1
        gauge.append(img)
    return codes, list(rows.values()), _columns(codes, gauge)


def twi_direct(B, cutoff):
    """Solutions of the additive twist equation on the full B@B, mod gauge.

    The linear system is not pre-reduced to the counit kernel: unknowns run
    over all pairs of basis keys in the block, and the gauge span includes
    gamma = 1.  Agreement with h2 is the Prop-style oracle equivalence.
    """
    B.require_counit()
    delta, L = _coproduct_table(B, B.basis_keys(cutoff))
    out = []
    for label in _block_labels(B, cutoff):
        codes, rows, gauge_vecs = _twist_system(B, cutoff, label, delta, L)
        kernel = kernel_basis(rows, len(codes))
        reps = _quotient(kernel, gauge_vecs, "gauge image is not a solution", label)

        def tensors(vecs):
            return [_tensor(B, codes, *vec) for vec in vecs]

        out.append(ModuliBlock(label, len(reps), tensors(reps), solutions=tensors(kernel),
                               gauge=[_tensor(B, codes, v) for v in gauge_vecs]))
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
    def nontrivial_corner(blk, sol):
        corner = sol - embed_reduced(sol.nonunit_part())
        if any(corner.codes):  # 1@1 is the pair code 0
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
