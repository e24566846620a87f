"""Sparse exact linear algebra over the rationals, eliminated in the integers.

Every vector that enters or leaves this module has the package's one packed
form (see `kernel`): a sparse dict {column: nonzero int} of numerators over a
positive denominator, the pair (nums, den).  A row of an elimination lives
on its line, where a nonzero scale changes nothing, so rows (the equations
of `kernel_basis`, the vectors a span is built from) are passed as their
integer dicts alone, den 1: the moduli systems of `cobar` and the pAss
relations are integer from the start.  `kernel_basis` returns reduced
packed vectors, `quotient_representatives` takes and returns them as they
are, `Echelon.reduce` returns an integer residual with its scale, and
`solve(columns, target)` takes packed columns keyed by any hashable row
label, groups them into rows by label (the order of those rows is free, see
the last paragraph) and solves the integer system on the numerators.
`Fraction`s are built only for the solution `solve` hands back.

`Echelon` stores each row as a primitive integer dict whose pivot entry is
positive, so scaling an input row changes no stored row.  Every elimination
step is vec = (p/g) vec - (a/g) row with p the row's pivot entry, a the
entry of vec in that column and g = gcd(p, a), and a new row is divided by
its content before it is stored -- fraction-free elimination in the sense
of Bareiss (Math. Comp. 22, 1968).

Two accumulators share that step.  `Echelon.add` does forward elimination
only: the leading column of the incoming row is cleared until it is no
pivot, and no stored row changes; spans that are only reduced against
(`quotient_representatives`, `ForwardSpan`, the pAss quotient and the image
check of `generalized`) use it.  `ReducedEchelon` keeps its rows in reduced
row echelon form as they are inserted; the systems that are solved
(`kernel_basis`, `solve`) use it, and an incoming row that is mostly
dependent is cleared in one pass over its pivot columns.

Elimination pivots on the smallest available column index.  Pivot columns
and the reduced row echelon form depend only on the row space, so echelon
forms, ranks, kernels, solutions, residuals and representatives are the ones
a `Fraction` Gauss-Jordan elimination in the same pivot order gives:
deterministic functions of the input order, as reproducible reports need.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .kernel import add_into


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

    def reduce(self, vec):
        """(r, s): r = s * (vec reduced modulo the row space) in the
        integers, s > 0, for the integer dict vec (left unchanged); r avoids
        every pivot column, so r / s is the canonical representative of the
        coset."""
        vec, scale = dict(vec), 1
        rows = self.rows
        while True:
            hit = None
            for j in vec:
                if j in rows and (hit is None or j < hit):
                    hit = j
            if hit is None:
                return vec, scale
            scale *= _eliminate(vec, rows[hit], hit)

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
    unknowns.  Free column j gives x_j = 1, with the pivot variables read
    off the reduced rows; each vector is packed and reduced, its entries
    in the order j, then the pivots.
    """
    ech = ReducedEchelon()
    for r in rows:
        ech.add(r)
    reduced = ech.rows  # reduced as inserted
    parts = {j: [] for j in range(ncols) if j not in reduced}
    for p, row in reduced.items():
        lead = row[p]
        for j, x in row.items():
            if j != p:
                g = gcd(x, lead)
                parts[j].append((p, -x // g, lead // g))  # x_p = -x / lead
    basis = []
    for j, part in parts.items():
        den = lcm(1, *[d for _, _, d in part])
        vec = {j: den}
        for p, n, d in part:
            vec[p] = n * (den // d)
        basis.append((vec, den))
    return basis


def solve(columns, target):
    """{j: x_j} with sum_j x_j columns[j] = target (free x_j are 0), or None.

    The columns and the target are packed vectors (nums, den) keyed by row
    labels.  The system solved is the integer one sum_j y_j c_j = t on
    their numerators, so x_j = y_j d_j / d_t; scaling a column changes no
    pivot, so the solution is the one of the rational system.
    """
    nums, den = target
    aug = len(columns)  # the extra column carries the negated target
    rows = {}
    numerators = [c for c, _ in columns] + [{k: -n for k, n in nums.items()}]
    for j, col in enumerate(numerators):
        for label, c in col.items():
            rows.setdefault(label, {})[j] = c
    ech = ReducedEchelon()
    for r in rows.values():
        ech.add(r)
    # a pivot in the augmented column means the system forces 0 = 1
    if aug in ech.rows:
        return None
    sol = {}
    for p, row in ech.rows.items():
        x = row.get(aug)
        if x:
            sol[p] = Fraction(-x * columns[p][1], row[p] * den)
    return sol


def quotient_representatives(space_vectors, sub_vectors):
    """Representatives of a basis of span(space)/span(sub), deterministically.

    The space vectors are packed and independent, the sub vectors integer
    rows, and span(sub) lies in span(space).  The one elimination checks
    both as rank(sub + space) = len(space) and raises ValueError when that
    fails; the representatives are space vectors, returned as they are.
    """
    ech = Echelon()
    for v in sub_vectors:
        ech.add(v)
    reps = [v for v in space_vectors if ech.add(v[0]) is not None]
    if ech.rank != len(space_vectors):
        raise ValueError("the subspace does not lie in the span of the space")
    return reps
