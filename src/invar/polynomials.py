"""Sparse multivariate polynomials and monomial orders.

A monomial is a plain tuple of exponents, one per ring variable, at
every API; only two kernels pack monomials into ints, the division
kernel and the product kernel `product`.
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

Substitution has one memoised path.  `monomial_image` fills a table
from monomials x^a to their images, raw term dicts, with one
`_raw_product` per new monomial; `Polynomial.substitute` (and so
`evaluate`, the substitution of a point's coordinates, and
`apply_linear_map`) and `groups.reynolds` read their monomials' images
from such a table.  Calls may share one, as
`algebraic.algebraic_invariant_basis` does per degree.

Over the fields with integral forms (Q, GF(p), Q(w)) two paths run on
Kronecker-packed ints (Harvey, J. Symb. Comput. 44, 2009): a
polynomial is lifted once by `integral_form`, through
`integral_vector`, to integer vectors over Z[w] on one denominator, and
each vector is packed into one int by w -> 2^B, with B wide enough
that no digit of a result overflows.
`product(ring, factors)`, the one kernel for products of many factors,
also packs each monomial into an int, multiplies in plain ints and
settles each term of the result once; Noether's separating set and
Dade's orbit products run on it, while `*` keeps its pairwise path on
field payloads, which K(x) needs.  `IntegralValues` evaluates fixed
polynomials at many points over Z[w], one table of monomial values
per point, for the sampled separation check.

`DEGREE_BOUND` (2^15) is the total degree that packed monomials cannot
hold: a power reaching it raises `CapExceeded` before it is expanded,
and the Groebner engine refuses any monomial of that degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
from math import lcm, prod
from operator import add, getitem, le, lshift, mul, neg, sub
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

def _unit(n, j, e=1):
    """Exponents of x_j^e among n variables."""
    return (0,) * j + (e,) + (0,) * (n - j - 1)


class MonomialOrder:
    """Total, multiplicative well-order on monomials, via a sort key.

    Every key is a flat tuple of ints, linear in the exponents, so keys
    compare in C; monomials of one ring all have keys of one length.
    `rows(n)` lists 0/1 rows that, dotted with the exponents and compared
    in turn, decide the same order: the division kernel packs monomials
    by them, so building a packing evaluates no key."""

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

    def rows(self, n):
        return [_unit(n, j) for j in range(n)]


class _GradedLex(MonomialOrder):
    name = "gradedlex"

    def key(self, exps):
        return (sum(exps), *exps)

    def rows(self, n):
        return [(1,) * n, *LEX.rows(n)]


class _Grevlex(MonomialOrder):
    name = "grevlex"

    def key(self, exps):
        return (sum(exps), *map(neg, reversed(exps)))

    def rows(self, n):  # x_1 + ... + x_(n-k): the degree, then -x_(n-k+1) plus the row above
        return [(1,) * (n - k) + (0,) * k for k in range(n)]


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

    def rows(self, n):
        k = self.front_size
        return ([r + (0,) * (n - k) for r in self.inner.rows(k)]
                + [(0,) * k + r for r in self.rest.rows(n - k)])


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
        self.index = {n: i for i, n in enumerate(names)}  # name -> position, read by transport
        if len(self.index) != len(names):
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
        return self.from_scalar(self.field.one)

    def from_scalar(self, s) -> "Polynomial":
        s = self.field.scalar(s)
        if s.is_zero():
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: s})

    def from_int(self, n: int) -> "Polynomial":
        return self.from_scalar(n)

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, {_unit(self.nvars, i): self.field.one})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1) -> "Polynomial":
        coeff = self.field.scalar(coeff)
        if coeff.is_zero():
            return self.zero
        return Polynomial(self, {tuple(exps): coeff})

    def parse(self, text: str) -> "Polynomial":
        from .parsing import parse_expression

        symbols = {n: self.variable(i) for i, n in enumerate(self.names)}
        if isinstance(self.field, NumberField):
            gen = self.field.generator_name
            if gen in symbols:
                raise ParseError(f"field generator {gen!r} is also a variable of the ring")
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

    @classmethod
    def _from_payloads(cls, ring: PolynomialRing, raw: dict) -> "Polynomial":
        """A polynomial on nonzero raw payloads, each wrapped once."""
        field = ring.field
        return cls._from_nonzero(ring, {m: Scalar(field, c) for m, c in raw.items()})

    def _payloads(self) -> dict:
        return {m: c.value for m, c in self.terms.items()}

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
        raw = _raw_product(self.ring.field, self._payloads(), o._payloads())
        return Polynomial._from_payloads(self.ring, raw)

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

    def evaluate(self, point: Sequence) -> Scalar:
        """Value at the point: the substitution of its coordinates."""
        if len(point) != self.ring.nvars:
            raise LengthMismatch(f"point has {len(point)} coordinates, ring has {self.ring.nvars}")
        return self.substitute(point).constant_coefficient()

    def integral_form(self):
        """(D, components), the form that `product` and `IntegralValues`
        pack: D is the lcm of the coefficients' denominators, and component
        i lists (a, N) for each x^a whose coefficient has i-th integer
        entry N / D != 0."""
        # zero, lifted first, gives the length of the vectors
        den, (zero, *vectors) = integral_vector([self.ring.field.zero, *self.terms.values()])
        return den, [[(a, nums[i]) for a, nums in zip(self.terms, vectors) if nums[i]]
                     for i in range(len(zero))]

    def substitute(self, images: Sequence["Polynomial"], table: Optional[dict] = None):
        """Map variable i to images[i], lifting scalar images into the one
        ring of the others.  Calls with the same images may share a
        `table`, a dict that is empty at the first call: it memoises the
        image of every monomial met so far, as raw terms."""
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
        field = target.field
        table = {} if table is None else table
        if not table:
            one = {(0,) * target.nvars: field.one.value}
            table.update(image_table(one, [im._payloads() for im in imgs]))
        mul = field._accumulator()[0]
        raw = _sum_terms(field, ((u, mul(c.value, cu)) for m, c in self.terms.items()
                                 for u, cu in monomial_image(table, m, field).items()))
        return Polynomial._from_payloads(target, raw)

    def apply_linear_map(self, mat) -> "Polynomial":
        """Substitute x_i -> sum_j mat[i][j] x_j for the first mat.nrows
        variables, leaving any remaining variables fixed.  `mat` is an
        invertible Matrix over the ring's field, whose rank is computed
        once."""
        field = self.ring.field
        if mat.field != field:
            raise FieldMismatch(f"matrix over {mat.field} acting on a ring over {field}")
        k, n = mat.nrows, self.ring.nvars
        if mat.rank() != k:
            raise SingularMatrix("linear action matrix is singular")
        images = [Polynomial(self.ring, {_unit(n, j): c for j, c in enumerate(row[:k])})
                  for row in mat.rows] + self.ring.variables()[k:]
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


def image_table(one, images) -> dict:
    """A monomial-image table for n = len(images) variables that knows
    image(1) = one and image(x_j) = images[j]."""
    n = len(images)
    return {(0,) * n: one, **{_unit(n, j): image for j, image in enumerate(images)}}


def monomial_image(table: dict, a: tuple, field: Field):
    """image(x^a) from a monomial-image table of raw term dicts over the
    field, which it fills in with one `_raw_product` per new monomial.
    Let x_j be the last variable of x^a, to the power k.  A missing
    image(x^a) is image(x^a / x_j^k) * image(x_j^k), and a missing pure
    power image(x_j^k) is image(x_j^(k - 1)) * image(x_j), so the only
    monomials the table gains besides x^a are powers of single variables
    and x^a with its last variables dropped."""
    if a in table:
        return table[a]
    j = max(compress(count(), a))
    power = _unit(len(a), j, a[j])
    rest = mono_div(a, power)
    if any(rest):
        image = table[a] = _raw_product(field, monomial_image(table, rest, field),
                                        monomial_image(table, power, field))
        return image
    unit, steps = _unit(len(a), j), []
    while a not in table:
        steps.append(a)
        a = mono_div(a, unit)
    image, factor = table[a], table[unit]
    for a in reversed(steps):
        image = table[a] = _raw_product(field, image, factor)
    return image


def _sum_terms(field: Field, terms) -> dict:
    """Raw term dict of the sum of (monomial, payload) pairs, whose
    payloads may be unsettled products of the field's accumulator;
    each sum is settled once and zeros are dropped."""
    _, add, settle = field._accumulator()
    total = {}
    for m, c in terms:
        total[m] = add(total[m], c) if m in total else c
    is_zero = field._is_zero
    return {m: c for m, c in zip(total, map(settle, total.values())) if not is_zero(c)}


def _raw_product(field: Field, f: dict, g: dict) -> dict:
    """Raw term dict of the product of two raw term dicts."""
    mul = field._accumulator()[0]
    return _sum_terms(field, ((mono_mul(m1, m2), mul(c1, c2))
                              for m1, c1 in f.items() for m2, c2 in g.items()))


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


def transport(p: Polynomial, target: PolynomialRing, rename=None) -> Polynomial:
    """Re-home a polynomial by variable name: each variable becomes the
    target variable of the same name, or of the name `rename` maps it
    to.  A variable that occurs in p must have a target; fields must
    agree."""
    if target.field != p.ring.field:
        raise ContextMismatch("transport across different fields")
    to = [target.index.get((rename or {}).get(n, n)) for n in p.ring.names]
    terms = {}
    for m, c in p.terms.items():
        exps = [0] * target.nvars
        for i, e in enumerate(m):
            if e == 0:
                continue
            j = to[i]
            if j is None:
                raise ContextMismatch(
                    f"variable {p.ring.names[i]} has no image in target ring"
                )
            exps[j] = e
        terms[tuple(exps)] = c
    return Polynomial(target, terms)


# ---------------------------------------------------------------------------
# Kronecker-packed integer forms over Q, GF(p) and Q(w)
# ---------------------------------------------------------------------------

def integral_vector(scalars):
    """(D, vectors): scalars of one field with integral forms as integer
    vectors over Z[w] on one positive denominator D."""
    lifted = [x.field._integral(x.value) for x in scalars]
    den = lcm(*(d for _, d in lifted))
    return den, [[n * (den // d) for n in nums] for nums, d in lifted]


def _packed_terms(parts, bits) -> dict:
    """Monomial -> the int sum_i c_i 2^(bits * i) of its coefficient
    vector (c_i), from the components of an `integral_form`."""
    packed = {}
    for i, terms in enumerate(parts):
        for a, c in terms:
            packed[a] = packed.get(a, 0) + (c << bits * i)
    return packed


@lru_cache(maxsize=256)
def _bias(bits, length):
    return sum(1 << bits * i + bits - 1 for i in range(length))


def _digits(value, bits, length):
    """The vector packed in `value`: its `length` signed digits in base
    2^bits, each of absolute value below 2^(bits - 1)."""
    value += _bias(bits, length)  # every digit in [0, 2^bits)
    mask, half = (1 << bits) - 1, 1 << bits - 1
    return [(value >> bits * i & mask) - half for i in range(length)]


class IntegralValues:
    """The values of fixed polynomials of a ring over Q, GF(p) or Q(w) at
    many points, on Kronecker-packed ints as in `product`.

    Each polynomial is lifted once by `integral_form` and each of its
    coefficient vectors packed into one int (w -> 2^B).  A point is its
    coordinates' numerator vectors over Z[w], packed by `pack`, on one
    denominator D.  At a point one table of monomial values, filled from
    rows of powers as the polynomials need them, serves all of them, and
    each value is summed in ints and settled once.  `size` must bound D
    and the L1 norm of every coordinate's numerator vector; B is then
    wide enough for every digit of a value."""

    def __init__(self, ring: PolynomialRing, polys: Sequence[Polynomial], size: int):
        self.field = ring.field
        self.degree = len(ring.zero.integral_form()[1])  # of the field over Q or GF(p)
        self.top = top = max([0] + [p.total_degree() for p in polys])
        self.exponents = [max((a[j] for p in polys for a in p.terms), default=0)
                          for j in range(ring.nvars)]
        forms = [p.integral_form() for p in polys]
        self.bits = bits = max([size] + [sum(abs(c) for terms in parts for _, c in terms) * size**top
                                         for _, parts in forms]).bit_length() + 1
        self.forms = [(den, list(_packed_terms(parts, bits).items())) for den, parts in forms]

    def pack(self, nums) -> int:
        return sum(x << self.bits * i for i, x in enumerate(nums))

    def settle(self, value, den, length=None):
        """The canonical payload of value / den, for a packed value of
        `length` digits, by default the field's degree."""
        return self.field._from_integral(_digits(value, self.bits, length or self.degree), den)

    def at(self, point, den=1, spread=0):
        """The payloads of the polynomials, lazily and in order, at the
        point with packed numerators `point` over `den`, whose coordinates
        have degree at most `spread` in w.  All values share the
        denominator den^top: a term c x^a is summed as c * x^a * den^(top - |a|)."""
        rows = [list(accumulate(repeat(x, e), mul, initial=1)) for x, e in zip(point, self.exponents)]
        scale = [den ** (self.top - k) for k in range(self.top + 1)]
        length = self.degree + self.top * spread
        table = {}
        for d, terms in self.forms:
            total = 0
            for a, c in terms:
                x = table.get(a)
                if x is None:
                    x = table[a] = prod(map(getitem, rows, a)) * scale[sum(a)]
                total += c * x
            yield self.settle(total, d * den**self.top, length)


def product(ring: PolynomialRing, factors: Sequence[Polynomial]) -> Polynomial:
    """The product of polynomials of a ring over Q, GF(p) or Q(w), the
    fields with integral forms; 1 for no factors.

    Each factor is lifted once through `integral_form`, to vectors over
    Z[w] on one denominator.  Its monomials are packed into ints, one bit
    field per variable wide enough for the variable's degree in the
    product, and each vector into one int by Kronecker substitution
    w -> 2^B, with 2^(B-1) above the product of the factors' L1 norms,
    which bounds every coefficient of the product in Z[w] before it is
    reduced modulo m.  The factors multiply as sums of int products;
    each term of the result is unpacked as signed digits and settled
    once by `_from_integral`, which reduces the vector modulo m."""
    field = ring.field
    if any(f.ring != ring for f in factors):
        raise ContextMismatch(f"product of polynomials outside {ring}")
    if any(f.is_zero() for f in factors):
        return ring.zero
    forms = [f.integral_form() for f in factors]
    bits = prod(sum(abs(c) for terms in parts for _, c in terms)
                for _, parts in forms).bit_length() + 1
    widths = [sum(max(a[j] for terms in parts for a, _ in terms) for _, parts in forms)
              .bit_length() for j in range(ring.nvars)]
    offsets = [sum(widths[:j]) for j in range(ring.nvars)]
    total = {0: 1}
    for _, parts in forms:
        factor = {sum(map(lshift, a, offsets)): c for a, c in _packed_terms(parts, bits).items()}
        step = {}
        get = step.get
        for m1, c1 in total.items():
            for m2, c2 in factor.items():
                m = m1 + m2
                step[m] = get(m, 0) + c1 * c2
        total = {m: c for m, c in step.items() if c}
    length = sum(len(parts) - 1 for _, parts in forms) + 1
    den, is_zero = prod(d for d, _ in forms), field._is_zero
    raw = {}
    for m, c in total.items():
        value = field._from_integral(_digits(c, bits, length), den)
        if not is_zero(value):
            raw[tuple(m >> o & ((1 << w) - 1) for o, w in zip(offsets, widths))] = value
    return Polynomial._from_payloads(ring, raw)
