"""Exact dense linear algebra over a ground field.

Small matrices only: group elements, action matrices on monomial bases,
and the linear systems behind invariant-space computations.  Everything
is deterministic; pivoting always takes the first nonzero entry.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SingularMatrix
from .fields import Field, Scalar


class Matrix:
    """Immutable matrix of scalars over one field; its rank is computed
    at most once."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_rank")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        self._rank = None
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        return cls(field, [[field.scalar(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        zero = self.field.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    if not a.is_zero():
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            self.field,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def apply(self, vector: Sequence[Scalar]):
        """Matrix-vector product."""
        zero = self.field.zero
        out = []
        for i in range(self.nrows):
            acc = zero
            for k in range(self.ncols):
                a = self.rows[i][k]
                if not a.is_zero():
                    acc = acc + a * vector[k]
            out.append(acc)
        return tuple(out)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(_echelon([list(r) for r in self.rows])[1])
        return self._rank

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularMatrix("only square matrices invert")
        n = self.nrows
        field = self.field
        aug = [
            list(self.rows[i]) + list(Matrix.identity(field, n).rows[i])
            for i in range(n)
        ]
        reduced, pivots = _echelon(aug, reduce=True)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix(field, [row[n:] for row in reduced])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


def _echelon(rows, reduce=False):
    """In-place row echelon form; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        sel = None
        for i in range(r, nrows):
            if not rows[i][col].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        span = range(nrows) if reduce else range(r + 1, nrows)
        for i in span:
            if i == r:
                continue
            f = rows[i][col]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def rref(matrix_rows, field: Field):
    """Reduced row echelon form of a list-of-lists of scalars."""
    rows = [[field.scalar(x) for x in row] for row in matrix_rows]
    if not rows:
        return [], []
    return _echelon(rows, reduce=True)


def nullspace(matrix_rows, field: Field, ncols: int):
    """Deterministic echelonized basis of the right kernel.

    Basis vectors are indexed by free columns in ascending order; the
    free coordinate carries 1 and pivot coordinates are filled from the
    reduced echelon form.
    """
    rows, pivots = rref(matrix_rows, field)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    zero, one = field.zero, field.one
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis
