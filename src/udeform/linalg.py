"""Sparse exact linear algebra over the rationals, eliminated in the integers.

Vectors are sparse dicts column index -> nonzero coefficient; matrices are
lists of such rows.  Rows that enter an elimination are integer dicts, the
numerators of the package's one packed form (see `kernel`): the moduli
systems of `cobar` and the pAss relations are integer from the start, and a
row scaled by a nonzero integer spans the same line.  Callers that hold
rationals (`solve`, the kernel vectors of `quotient_representatives`) pack
them first (`kernel.pack`).  The
image search `solve(columns, target)` takes columns instead, sparse vectors
keyed by any hashable row label, and groups them into rows by label; the
order of those rows is free (see the last paragraph).

`Echelon` stores each row as a primitive integer dict whose pivot entry is
positive, so scaling an input row changes no stored row.  Every elimination
step is vec = (p/g) vec - (a/g) row with p the row's pivot entry, a the
entry of vec in that column and g = gcd(p, a), and a new row is divided by
its content before it is stored -- fraction-free elimination in the sense
of Bareiss (Math. Comp. 22, 1968), with no `Fraction` arithmetic.

Two accumulators share that step.  `Echelon.add` does forward elimination
only: the leading column of the incoming row is cleared until it is no
pivot, and no stored row changes; spans that are only reduced against
(`quotient_representatives`, `ForwardSpan`, the image check of
`generalized`) use it; the pAss quotient reads its integer residuals
(`_reduce_integral`).  `ReducedEchelon` keeps
its rows in reduced row echelon form as they are inserted; the systems that
are solved (`kernel_basis`, `solve`) use it, and an incoming row that is
mostly dependent is cleared in one pass over its pivot columns.
`Fraction`s are built only for the vectors handed back.

Elimination pivots on the smallest available column index.  Pivot columns
and the reduced row echelon form depend only on the row space, so echelon
forms, ranks, kernels, solutions, residuals and representatives are the ones
a `Fraction` Gauss-Jordan elimination in the same pivot order gives:
deterministic functions of the input order, as reproducible reports need.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .kernel import QQ, add_into, pack

ONE = QQ(1)


def _eliminate(vec, row, col):
    """Clear column col of vec against row, whose pivot is col, in place.

    vec becomes (p/g) vec - (a/g) row; returns the factor p/g.
    """
    p = row[col]
    a = vec[col]
    g = gcd(p, a)
    p //= g
    if p != 1:
        for j in vec:
            vec[j] *= p
    add_into(vec, row, -(a // g))
    return p


def _primitive(vec, col):
    """vec divided by its content, signed so that vec[col] > 0, in place."""
    g = gcd(*vec.values())
    if vec[col] < 0:
        g = -g
    if g != 1:
        for j in vec:
            vec[j] //= g
    return vec


class Echelon:
    """Forward row-echelon accumulator over primitive integer rows.

    Row dicts are owned by the accumulator; callers only read `rows`.
    """

    def __init__(self):
        # pivot column -> primitive integer row, row[pivot] > 0 and pivot the
        # smallest column of its support; in insertion order
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _reduce_integral(self, vec):
        """(r, s): r = s * (vec reduced modulo the row space) in the
        integers, s > 0, for vec a dict of ints or Fractions (left
        unchanged); r avoids every pivot column."""
        vec, scale = pack(vec)
        rows = self.rows
        while True:
            hit = None
            for j in vec:
                if j in rows and (hit is None or j < hit):
                    hit = j
            if hit is None:
                return vec, scale
            scale *= _eliminate(vec, rows[hit], hit)

    def reduce(self, vec):
        """Residual of vec modulo the row space, as Fractions; its support
        avoids every pivot column, so it is the canonical representative of
        the coset."""
        res, scale = self._reduce_integral(vec)
        return {j: Fraction(x, scale) for j, x in res.items()}

    def add(self, vec):
        """Insert the integer row vec (left unchanged); returns the pivot
        column or None if dependent."""
        vec = self._clear(dict(vec))
        if not vec:
            return None
        piv = min(vec)
        self._store(piv, _primitive(vec, piv))
        return piv

    def _clear(self, vec):
        """vec with its leading column cleared until it is no pivot."""
        rows = self.rows
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                break
            _eliminate(vec, row, piv)
        return vec

    def _store(self, piv, row):
        self.rows[piv] = row


class ReducedEchelon(Echelon):
    """An `Echelon` whose rows are kept reduced as they are inserted.

    Every row is zero in every other pivot column, so an incoming row is
    cleared in one pass over its pivot columns and brings in no fill-in
    from unreduced rows; a new row is cleared from the rows that hold its
    pivot column, found through an index column -> pivots.  Pivots and the
    row space are `Echelon`'s, and `rows` is at every step the reduced row
    echelon form, each row primitive with a positive pivot entry; divide a
    row by that entry for the unit-pivot row.
    """

    def __init__(self):
        super().__init__()
        self._holders = {}  # non-pivot column -> pivots of rows with an entry

    def _clear(self, vec):
        rows = self.rows
        # a reduced row has no entry in another pivot column
        for j in [j for j in vec if j in rows]:
            _eliminate(vec, rows[j], j)
        return vec

    def _store(self, piv, row):
        rows, holders = self.rows, self._holders
        for p in holders.pop(piv, ()):
            other = rows[p]
            before = other.keys() - {piv}
            _eliminate(other, row, piv)
            _primitive(other, p)
            for j in other.keys() - before:
                holders.setdefault(j, set()).add(p)
            for j in before - other.keys():
                holders[j].discard(p)
        rows[piv] = row
        for j in row:
            if j != piv:
                holders.setdefault(j, set()).add(piv)


class ForwardSpan(Echelon):
    """A relation span: its rows are only reduced against, never solved for.

    The elimination is `Echelon`'s.  `add` is bound in this class as well,
    so that insertions into relation spans are timed and counted apart from
    insertions into equation systems.
    """

    add = Echelon.add


def kernel_basis(rows, ncols):
    """Basis of the right kernel {x : A x = 0}, deterministic order.

    `rows` are the equations (integer rows of A); columns 0..ncols-1 are
    unknowns.
    Free column j gives x_j = 1, with the pivot variables read off the
    reduced rows.
    """
    ech = ReducedEchelon()
    for r in rows:
        ech.add(r)
    reduced = ech.rows  # reduced as inserted
    basis = {j: {j: ONE} for j in range(ncols) if j not in reduced}
    for p, row in reduced.items():
        lead = row[p]
        for j, x in row.items():
            if j != p:
                basis[j][p] = Fraction(-x, lead)
    return list(basis.values())


def solve(columns, target):
    """{j: x_j} with sum_j x_j columns[j] = target (free x_j are 0), or None.

    The columns and the target are sparse vectors keyed by row labels.
    """
    aug = len(columns)  # the extra column carries the negated target
    rows = {}
    for j, col in enumerate(columns + [{k: -c for k, c in target.items()}]):
        for label, c in col.items():
            rows.setdefault(label, {})[j] = c
    ech = ReducedEchelon()
    for r in rows.values():
        ech.add(pack(r)[0])
    # a pivot in the augmented column means the system forces 0 = 1
    if aug in ech.rows:
        return None
    sol = {}
    for p, row in ech.rows.items():
        x = row.get(aug)
        if x:
            sol[p] = Fraction(-x, row[p])
    return sol


def quotient_representatives(space_vectors, sub_vectors):
    """Representatives of a basis of span(space)/span(sub), deterministically.

    The space vectors are rational and independent, the sub vectors integer
    rows, and span(sub) lies in span(space).  The one elimination checks
    both as rank(sub + space) = len(space) and raises ValueError when that
    fails.
    """
    ech = Echelon()
    for v in sub_vectors:
        ech.add(v)
    reps = [v for v in space_vectors if ech.add(pack(v)[0]) is not None]
    if ech.rank != len(space_vectors):
        raise ValueError("the subspace does not lie in the span of the space")
    return reps
