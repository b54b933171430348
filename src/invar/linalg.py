"""Exact linear algebra over a ground field on sparse rows of raw payloads.

Matrices are small and dense (group elements, action matrices); the
linear systems behind invariant spaces are large and very sparse.  Both
are eliminated by one kernel, `_echelon`, on rows that map a column to
its nonzero field payload, touching only the pivot row's nonzero
columns.  Everything is deterministic; pivoting always takes the first
nonzero entry.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from .errors import FieldMismatch
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
        if other.field != self.field:
            raise FieldMismatch(f"matrices over {self.field} and {other.field}")
        field = self.field
        zero, is_zero = field.zero, field._is_zero
        mul, add, settle = field._accumulator()
        cols = list(zip(*(tuple(x.value for x in r) for r in other.rows)))
        out = []
        for r in self.rows:
            left = [(k, x.value) for k, x in enumerate(r) if not is_zero(x.value)]
            # each entry is summed unsettled, then settled and wrapped once
            out.append([Scalar(field, settle(reduce(add, [mul(a, col[k]) for k, a in left])))
                        if left else zero for col in cols])
        return Matrix(field, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        return Matrix(
            self.field,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def apply(self, vector: Sequence[Scalar]):
        """Matrix-vector product: the product with the column `vector`."""
        if len(vector) != self.ncols:
            raise ValueError("dimension mismatch")
        field = self.field
        column = Matrix(field, [[field.scalar(x)] for x in vector])  # refuses another field's scalars
        return tuple(row[0] for row in (self @ column).rows)

    def _sparse_rows(self):
        is_zero = self.field._is_zero
        return [{j: x.value for j, x in enumerate(r) if not is_zero(x.value)}
                for r in self.rows]

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(_echelon(self.field, self._sparse_rows(), self.ncols)[1])
        return self._rank

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


def _echelon(field: Field, rows, ncols: int, reduce=False):
    """In-place row echelon form of sparse rows, each a dict from column
    to nonzero payload; returns (rows, pivot column list).  Pivot rows
    are scaled to 1 at their pivot; with `reduce`, pivot columns are
    cleared above the pivot as well as below it."""
    mul, add, neg, inv, is_zero = field._mul, field._add, field._neg, field._inv, field._is_zero
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if col in rows[i]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        scale = inv(rows[r][col])
        rows[r] = {j: mul(x, scale) for j, x in rows[r].items()}
        tail = [(j, x) for j, x in rows[r].items() if j != col]
        for i in range(0 if reduce else r + 1, nrows):
            row = rows[i]
            if i == r or col not in row:
                continue
            f = neg(row.pop(col))
            for j, b in tail:
                if j in row:
                    v = add(row[j], mul(f, b))
                    if is_zero(v):
                        del row[j]
                    else:
                        row[j] = v
                else:
                    row[j] = mul(f, b)
        pivots.append(col)
        r += 1
    return rows, pivots


def nullspace(rows, field: Field, ncols: int):
    """Deterministic echelonized basis of the right kernel of sparse
    rows, each a dict from column to `Scalar`.

    Basis vectors are indexed by free columns in ascending order; the
    free coordinate carries 1 and pivot coordinates are filled from the
    reduced echelon form.
    """
    is_zero = field._is_zero
    rows = [{j: c.value for j, c in row.items() if not is_zero(c.value)} for row in rows]
    rows, pivots = _echelon(field, rows, ncols, reduce=True)
    zero, one = field.zero, field.one
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            if f in rows[r]:
                vec[p] = Scalar(field, field._neg(rows[r][f]))
        basis.append(tuple(vec))
    return basis
