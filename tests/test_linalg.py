"""Tests of the sparse elimination kernel.

`linalg._echelon` works on sparse rows of raw field payloads.  It is
compared below with the dense `Scalar` elimination it replaced, kept
here as the reference, through its two users (`nullspace` and
`Matrix.rank`) on hypothesis-drawn matrices over GF(7), Q and
Q(sqrt 2): zero rows and columns, rank-deficient, tall, wide and
singular square ones.  A seeded cross-check against sympy
(skipped when it is missing) compares kernels of sparse matrices over Q.
"""

import pytest
from hypothesis import given, settings, strategies as st

from invar.errors import FieldMismatch
from invar.fields import NumberField, PrimeField, Rationals
from invar.linalg import Matrix, nullspace
from invar.prng import XorShift

Q = Rationals()
FIELDS = {"GF7": PrimeField(7), "QQ": Q, "QQ(sqrt2)": NumberField([-2, 0, 1], "w")}


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# ---------------------------------------------------------------------------
# the kernel against the dense reference
# ---------------------------------------------------------------------------

def _reference_echelon(rows, reduce=False):
    """The dense elimination before sparse rows: every entry of every
    row below (or, with `reduce`, beside) the pivot row is updated with
    `Scalar` arithmetic."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if not rows[i][col].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows) if reduce else range(r + 1, nrows):
            f = rows[i][col]
            if i != r and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def _reference_nullspace(rows, field, ncols):
    rows, pivots = _reference_echelon([list(r) for r in rows], reduce=True)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def _scalar(field, a, b):
    """a + b*w, with w the generator of a number field and 1/3 otherwise
    (a unit of GF(7) too)."""
    w = field.generator if isinstance(field, NumberField) else field.one / 3
    return field.scalar(a) + w * b


# entries are zero about half the time, so zero rows and columns show up
_entries = st.one_of(st.just((0, 0)), st.tuples(st.integers(-3, 3), st.integers(-2, 2)))


@st.composite
def _matrices(draw):
    """(field name, rows, column count), the rows either drawn entry by
    entry or a product B @ C of sparse factors, whose rank is at most
    the inner dimension k."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[name]
    m, n, k = draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 6))

    def entries(rows, cols):
        return [[_scalar(field, *draw(_entries)) for _ in range(cols)] for _ in range(rows)]

    if draw(st.booleans()):
        return name, entries(m, n), n
    b, c = entries(m, k), entries(k, n)
    return name, [[sum((b[i][t] * c[t][j] for t in range(k)), field.zero) for j in range(n)]
                  for i in range(m)], n


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_kernel_matches_dense_reference(drawn):
    name, rows, n = drawn
    field = FIELDS[name]
    sparse = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]
    assert nullspace(sparse, field, n) == _reference_nullspace(rows, field, n)
    if not rows:
        return
    matrix = Matrix(field, rows)
    assert matrix.rank() == len(_reference_echelon([list(r) for r in rows])[1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_matmul_matches_scalar_sums(name, data):
    field = FIELDS[name]
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    b, c = ([[_scalar(field, *data.draw(_entries)) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in ((m, k), (k, n)))
    assert Matrix(field, b) @ Matrix(field, c) == Matrix(field, [
        [sum((b[i][t] * c[t][j] for t in range(k)), field.zero) for j in range(n)]
        for i in range(m)])
    other = FIELDS[min(set(FIELDS) - {name})]
    with pytest.raises(FieldMismatch):
        Matrix(field, b) @ Matrix.identity(other, k)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_apply_matches_scalar_sums(name, data):
    field = FIELDS[name]
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = [[_scalar(field, *data.draw(_entries)) for _ in range(n)] for _ in range(m)]
    v = [_scalar(field, *data.draw(_entries)) for _ in range(n)]
    image = Matrix(field, a).apply(v)
    assert image == tuple(sum((a[i][k] * v[k] for k in range(n)), field.zero)
                          for i in range(m))
    assert all(x.field == field for x in image)
    # the product with the column v, and with a column of 3s
    for vector in (v, [field.scalar(3)] * n):
        column = Matrix(field, a) @ Matrix(field, [[x] for x in vector])
        assert Matrix(field, a).apply(vector) == tuple(row[0] for row in column.rows)
    # int coordinates are coerced
    assert Matrix(field, a).apply([3] * n) == Matrix(field, a).apply([field.scalar(3)] * n)
    other = FIELDS[min(set(FIELDS) - {name})]
    with pytest.raises(FieldMismatch):
        Matrix(field, a).apply([other.one] * n)


def test_apply_refuses_a_vector_of_the_wrong_length():
    matrix = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    for vector in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matrix.apply(vector)
    assert matrix.apply([1, 1]) == (Q.scalar(3), Q.scalar(7))


def test_difference_refuses_matrices_of_other_shapes():
    matrix = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    for other in ([[1]], [[1, 2]], [[1], [2]]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matrix - Matrix.from_rows(Q, other)
    assert matrix - Matrix.identity(Q, 2) == Matrix.from_rows(Q, [[0, 2], [3, 3]])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_singular_square_matrices_do_not_invert(name):
    field = FIELDS[name]
    for rows in ([[0, 0], [0, 0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
                 [[0, 1, 0], [0, 2, 0], [0, 0, 3]]):
        matrix = Matrix.from_rows(field, rows)
        assert matrix.rank() < len(rows)


def test_rank_and_inverse_take_the_pivot_from_the_first_nonzero_row():
    matrix = Matrix.from_rows(Q, [[0, 2, 0], [0, 0, 1], [3, 0, 0]])
    assert matrix.rank() == 3


# ---------------------------------------------------------------------------
# differential test against sympy
# ---------------------------------------------------------------------------

def _sparse_rational_rows(rng, m, n):
    rows = []
    for _ in range(m):
        row = {}
        for j in range(n):
            if rng.randint(0, 3) == 0:  # about a quarter of the entries
                value = Q.scalar(rng.randint(-5, 5)) / rng.randint(1, 4)
                if not value.is_zero():
                    row[j] = value
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_spans_the_sympy_kernel(sympy, seed):
    rng = XorShift(seed)
    m, n = rng.randint(1, 14), rng.randint(1, 12)
    rows = _sparse_rational_rows(rng, m, n)
    ours = nullspace(rows, Q, n)
    dense = sympy.Matrix(m, n, lambda i, j: sympy.Rational(str(rows[i].get(j, Q.zero))))
    theirs = dense.nullspace()
    assert len(ours) == len(theirs)
    if not ours:
        return
    mine = sympy.Matrix([[sympy.Rational(str(x)) for x in vec] for vec in ours]).T
    assert dense * mine == sympy.zeros(m, len(ours))
    stacked = mine.row_join(sympy.Matrix.hstack(*theirs))
    assert mine.rank() == stacked.rank() == len(ours)
