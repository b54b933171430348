"""Sparse multivariate polynomials and monomial orders.

A monomial is a plain tuple of exponents, one per ring variable, at
every API; only the division kernel packs monomials into ints.
Polynomials map monomials to nonzero scalars of the ring's field; all
values are immutable and all operations pure.  Term iteration order in
formatted output follows the chosen monomial order descending, so every
rendering is deterministic.

A group acts on polynomials through exactly two entry points:
``groups.apply_element`` for finite matrix groups, which is the only
caller of ``Polynomial.apply_linear_map`` (a matrix A sends the i-th
acted variable to sum_j A[i][j] x_j: the row gives the image of the
variable), and ``algebraic.action_graph_generators`` for algebraic
groups, which builds the same images with polynomial entries.

`DEGREE_BOUND` (2^15) is the total degree that packed monomials cannot
hold: a power reaching it raises `CapExceeded` before it is expanded,
and the Groebner engine refuses any monomial of that degree.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, mul, neg, sub
from typing import Optional, Sequence

from .errors import (
    CapExceeded,
    ContextMismatch,
    FieldMismatch,
    LengthMismatch,
    ParseError,
    SingularMatrix,
    ZeroPolynomial,
)
from .fields import Field, NumberField, Scalar, _power

DEGREE_BOUND = 1 << 15  # total degrees packed monomials cannot hold


# ---------------------------------------------------------------------------
# monomials and orders
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    return tuple(map(add, a, b))

def mono_divides(a, b):
    """Does x^a divide x^b?"""
    return all(map(le, a, b))

def mono_support(a):
    """Bitmask of the variables that occur in x^a.  x^a can divide x^b
    only if mono_support(a) & ~mono_support(b) == 0, a test on two ints
    that rules candidates out before `mono_divides` runs."""
    return sum(1 << i for i, e in enumerate(a) if e)

def mono_div(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))

def mono_degree(a):
    return sum(a)


class MonomialOrder:
    """Total, multiplicative well-order on monomials, via a sort key.

    Every key is a flat tuple of ints, linear in the exponents, so keys
    compare in C and the division kernel packs them into ints; monomials
    of one ring all have keys of one length."""

    name = "abstract"

    def key(self, exps):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


class _Lex(MonomialOrder):
    name = "lex"

    def key(self, exps):
        return exps


class _GradedLex(MonomialOrder):
    name = "gradedlex"

    def key(self, exps):
        return (sum(exps), *exps)


class _Grevlex(MonomialOrder):
    name = "grevlex"

    def key(self, exps):
        return (sum(exps), *map(neg, reversed(exps)))


LEX = _Lex()
GRADEDLEX = _GradedLex()
GREVLEX = _Grevlex()


class BlockElimination(MonomialOrder):
    """Blocks of variables, each dominating the blocks after it, with the
    inner order inside each block: `BlockElimination(k)` splits the
    variables into the first k and the rest, `BlockElimination(r, n)`
    into the first r, the next n and the rest.  Graded inner orders make
    it an elimination order for every leading run of blocks.

    In K[z, y, x] under `BlockElimination(r, n)`, the elements of a
    Groebner basis whose leading monomial is free of z form a Groebner
    basis of the elimination ideal J in K[y, x] for y >> x.  They are
    then also a Groebner basis of the extension of J to K(x)[y] under
    the inner order on y: if c(x) f lies in J, its leading monomial has
    the y-part of f's, and a leading monomial dividing it has a y-part
    that divides f's.  Localisation commutes with elimination, so
    invariant fields are computed over K and only inter-reduced over
    K(x) (Mueller-Quade & Beth, J. Symb. Comput. 1999; Kemper,
    Transformation Groups 12, 2007).

    The key concatenates the inner key of the front block with the key
    of the remaining blocks; all lengths are fixed by the block sizes."""

    def __init__(self, *sizes: int, inner: MonomialOrder = GREVLEX):
        self.sizes = sizes
        self.front_size = sizes[0]
        self.inner = inner
        self.rest = BlockElimination(*sizes[1:], inner=inner) if sizes[1:] else inner

    @property
    def name(self):
        return f"block({','.join(map(str, self.sizes))},{self.inner.name})"

    def key(self, exps):
        k = self.front_size
        return self.inner.key(exps[:k]) + self.rest.key(exps[k:])


def order_by_name(name: str) -> MonomialOrder:
    table = {"lex": LEX, "gradedlex": GRADEDLEX, "graded-lex": GRADEDLEX,
             "grevlex": GREVLEX}
    if name not in table:
        raise ParseError(f"unknown monomial order {name!r}")
    return table[name]


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

class PolynomialRing:
    """A fixed field together with an ordered tuple of variable names."""

    def __init__(self, field: Field, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ContextMismatch(f"duplicate variable names in {names}")
        for n in names:
            if not n.isidentifier():
                raise ContextMismatch(f"bad variable name {n!r}")
        self.field = field
        self.names = names
        self.nvars = len(names)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.from_int(1)

    def from_scalar(self, s) -> "Polynomial":
        s = self.field.scalar(s)
        if s.is_zero():
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: s})

    def from_int(self, n: int) -> "Polynomial":
        return self.from_scalar(n)

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1) -> "Polynomial":
        coeff = self.field.scalar(coeff)
        if coeff.is_zero():
            return self.zero
        return Polynomial(self, {tuple(exps): coeff})

    def index(self, name: str) -> int:
        return self.names.index(name)

    def parse(self, text: str) -> "Polynomial":
        from .parsing import parse_expression

        symbols = {n: self.variable(i) for i, n in enumerate(self.names)}
        if isinstance(self.field, NumberField):
            gen = self.field.generator_name
            if gen not in symbols:
                symbols[gen] = self.from_scalar(self.field.generator)
        value = parse_expression(text, symbols, self.from_int, _product)
        if isinstance(value, Polynomial):
            return value
        return self.from_scalar(value)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def _from_nonzero(cls, ring: PolynomialRing, terms: dict) -> "Polynomial":
        """A polynomial on terms known to be nonzero, as the division
        kernel emits them: `__init__` without the zero re-test."""
        p = object.__new__(cls)
        p.ring, p.terms = ring, terms
        return p

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def constant_coefficient(self) -> Scalar:
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ContextMismatch(
                    f"mixing polynomials of {self.ring} and {other.ring}"
                )
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.from_scalar(other)
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            acc = terms.get(m)
            terms[m] = -c if acc is None else acc - c
        return Polynomial(self.ring, terms)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = self.ring.field.scalar(other)
            if c.is_zero():
                return self.ring.zero
            return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()})
        o = self._check(other)
        if o is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar or constant polynomial."""
        if isinstance(other, Polynomial):
            if not other.is_constant():
                raise ParseError("division by nonconstant polynomial")
            other = other.constant_coefficient()
        inv = self.ring.field.scalar(other).inverse()
        return self * inv

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        if self.total_degree() * n >= DEGREE_BOUND:
            raise CapExceeded(f"power of degree {self.total_degree() * n} "
                              f"reaches the bound {DEGREE_BOUND}")
        return _power(self, n) if n else self.ring.one

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.from_scalar(other)
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------------

    def leading(self, order: MonomialOrder):
        """Greatest (monomial, coefficient) pair under the order."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder):
        return self.leading(order)[0]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, c = self.leading(order)
        return self * c.inverse()

    def homogeneous_components(self):
        """Nonzero components, ascending degree."""
        out = {}
        for m, c in self.terms.items():
            out.setdefault(mono_degree(m), {})[m] = c
        return [Polynomial(self.ring, out[d]) for d in sorted(out)]

    def evaluate(self, point: Sequence, powers: Optional[list] = None) -> Scalar:
        """Value at the point; calls at one point may share a `powers` list."""
        if len(point) != self.ring.nvars:
            raise LengthMismatch(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars}"
            )
        field = self.ring.field
        pt = [field.scalar(x).value for x in point]
        value = self._power_sum(pt, field.zero.value, field.one.value,
                                lambda c: c.value, field._mul, field._add, powers=powers)
        return Scalar(field, value)

    def substitute(self, images: Sequence["Polynomial"]):
        """Map variable i to images[i], lifting scalar images into the one
        ring of the others."""
        if len(images) != self.ring.nvars:
            raise LengthMismatch("one image per variable required")
        target = next((im.ring for im in images if isinstance(im, Polynomial)), self.ring)
        imgs = []
        for im in images:
            if not isinstance(im, Polynomial):
                im = target.from_scalar(im)
            if im.ring != target:
                raise ContextMismatch("substitution images in different rings")
            imgs.append(im)
        return self._power_sum(imgs, target.zero, target.one, target.from_scalar, mul, add)

    def _power_sum(self, values, zero, one, lift, mul, add, *, powers=None):
        """Sum over the terms c*x^m of lift(c) * prod_i values[i]^m_i,
        building each power of values[i] once, into `powers` if given;
        all arithmetic goes through `mul` and `add`, so evaluation runs
        on raw payloads."""
        powers = [] if powers is None else powers
        powers.extend([one] for _ in values[len(powers):])
        total = zero
        for m, c in self.terms.items():
            acc = lift(c)
            for i, e in enumerate(m):
                if e:
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(mul(cache[-1], values[i]))
                    acc = mul(acc, cache[e])
            total = add(total, acc)
        return total

    def apply_linear_map(self, rows) -> "Polynomial":
        """Substitute x_i -> sum_j rows[i][j] x_j for the first len(rows)
        variables, leaving any remaining variables fixed.  `rows` is a
        Matrix over the ring's field, whose rank is computed once, or
        plain rows of scalars.  The matrix must be invertible."""
        from .linalg import Matrix

        field = self.ring.field
        if isinstance(rows, Matrix):
            if rows.field != field:
                raise FieldMismatch(f"matrix over {rows.field} acting on a ring over {field}")
            mat = rows
        else:
            mat = Matrix.from_rows(field, rows)
        k = mat.nrows
        if mat.rank() != k:
            raise SingularMatrix("linear action matrix is singular")
        images = []
        for i in range(self.ring.nvars):
            if i < k:
                terms = {}
                for j in range(k):
                    c = mat.rows[i][j]
                    if not c.is_zero():
                        exps = [0] * self.ring.nvars
                        exps[j] = 1
                        terms[tuple(exps)] = c
                images.append(Polynomial(self.ring, terms))
            else:
                images.append(self.ring.variable(i))
        return self.substitute(images)

    # -- formatting ---------------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    def format(self, order: MonomialOrder = GREVLEX) -> str:
        if not self.terms:
            return "0"
        pieces = []
        one = self.ring.field.one
        for m, c in self.sorted_terms(order):
            mono = "*".join(
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(self.ring.names, m)
                if e > 0
            )
            if not mono:
                pieces.append(str(c))
                continue
            if c == one:
                pieces.append(mono)
                continue
            if c == -one:
                pieces.append(f"-{mono}")
                continue
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            pieces.append(f"{cs}*{mono}")
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-") and not piece.startswith("-("):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Poly({self.format()})"


def shift_scale(p: Polynomial, shift, factor) -> Polynomial:
    """x^shift * factor * p, without a polynomial product."""
    return Polynomial(p.ring, {mono_mul(m, shift): c * factor for m, c in p.terms.items()})


def _product(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b for the parser, as a `shift_scale` when a factor is one term."""
    if len(b.terms) == 1:
        a, b = b, a
    if len(a.terms) != 1:
        return a * b
    (shift, factor), = a.terms.items()
    return shift_scale(b, shift, factor)


def monomials_of_degree(ring: PolynomialRing, d: int, order: MonomialOrder = GREVLEX):
    """All exponent tuples of total degree d, ascending under the order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if ring.nvars == 0:
        return [()] if d == 0 else []
    rec((), d, ring.nvars)
    out.sort(key=order.key)
    return out


def transport(p: Polynomial, target: PolynomialRing, index_map) -> Polynomial:
    """Re-home a polynomial: old variable i becomes target variable
    index_map[i].  A None entry asserts the variable is absent from p.
    Fields must agree."""
    if target.field != p.ring.field:
        raise ContextMismatch("transport across different fields")
    terms = {}
    for m, c in p.terms.items():
        exps = [0] * target.nvars
        for i, e in enumerate(m):
            if e == 0:
                continue
            j = index_map[i]
            if j is None:
                raise ContextMismatch(
                    f"variable {p.ring.names[i]} has no image in target ring"
                )
            exps[j] = e
        terms[tuple(exps)] = c
    return Polynomial(target, terms)
