"""Sparse exact linear algebra over the rationals.

Vectors are the package's one sparse representation, dicts column-index ->
nonzero Fraction (see `kernel`); matrices are lists of such rows.  Every
elimination step is `kernel.add_into`, updating a row in place.  Elimination
pivots on the smallest available column index, so echelon forms, ranks,
kernels and representatives are deterministic functions of the input order --
required for reproducible reports.
"""

from __future__ import annotations

from .kernel import QQ, add_into


class Echelon:
    """Row-echelon accumulator with unit pivots and full back-substitution.

    Row dicts are owned by the accumulator and updated in place; callers
    only read `rows`.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> reduced row (dict), row[pivot] == 1

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec modulo the row space; its support avoids every
        pivot column, so it is the canonical representative of the coset."""
        vec = dict(vec)
        rows = self.rows
        while True:
            hit = None
            for j in vec:
                if j in rows and (hit is None or j < hit):
                    hit = j
            if hit is None:
                return vec
            add_into(vec, rows[hit], -vec[hit])

    def _new_row(self, vec):
        """(pivot, unit-pivot residual row) of vec, or (None, None)."""
        res = self.reduce(vec)
        if not res:
            return None, None
        piv = min(res)
        inv = 1 / res[piv]
        return piv, {j: inv * x for j, x in res.items()}

    def add(self, vec):
        """Insert vec; returns the pivot column or None if dependent."""
        piv, row = self._new_row(vec)
        if piv is None:
            return None
        # keep earlier rows fully reduced against the new pivot
        for r in self.rows.values():
            c = r.get(piv)
            if c:
                add_into(r, row, -c)
        self.rows[piv] = row
        return piv

    def contains(self, vec):
        return not self.reduce(vec)


class ForwardSpan(Echelon):
    """Echelon without back-substitution; cheaper for large relation spans.

    Each row's pivot is the smallest column of its support, so `reduce`
    still returns the canonical coset representative, and ranks, pivots and
    residuals agree with `Echelon` on the same input.
    """

    def add(self, vec):
        piv, row = self._new_row(vec)
        if piv is not None:
            self.rows[piv] = row
        return piv


def kernel_basis(rows, ncols):
    """Basis of the right kernel {x : A x = 0}, deterministic order.

    `rows` are the equations (rows of A); columns 0..ncols-1 are unknowns.
    """
    ech = Echelon()
    for r in rows:
        ech.add(r)
    pivots = set(ech.rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        # free column j: x_j = 1, pivot variables solved from reduced rows
        vec = {j: QQ(1)}
        for p, row in ech.rows.items():
            c = row.get(j)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols):
    """One solution x of A x = b, or None.  rhs is a list aligned with rows."""
    ech = Echelon()
    aug = ncols  # the extra column carries the (negated) right-hand side
    for r, b in zip(rows, rhs):
        v = dict(r)
        if b:
            v[aug] = -b
        ech.add(v)
    # a pivot in the augmented column means the system forces 0 = 1
    if aug in ech.rows:
        return None
    sol = {}
    for p, row in ech.rows.items():
        c = row.get(aug)
        if c:
            sol[p] = -c
    return sol


def quotient_representatives(space_vectors, sub_vectors):
    """Representatives of a basis of span(space)/span(sub), deterministically."""
    ech = Echelon()
    for v in sub_vectors:
        ech.add(v)
    reps = []
    for v in space_vectors:
        if ech.add(v) is not None:
            reps.append(v)
    return reps
