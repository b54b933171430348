"""Exact ground fields and their elements.

Three kinds of field are supported: the rationals, prime fields GF(p),
and simple extensions Q[t]/(m(t)) of the rationals by a monic minimal
polynomial.  All arithmetic is exact; scalars are immutable values in
canonical form: rationals as integer pairs (numerator, positive
denominator) in lowest terms, residues in [0, p), and extension
elements reduced modulo m, those in Q as the same pairs (so their
arithmetic costs what it costs in Q) and the others as integer
coefficient vectors over one positive denominator that shares no
factor with all of them.

Scalar text (used by all input files) is polynomial text without
variables: signed decimal integers, fractions ``a/b``, and
extension-generator expressions built from ``+ - * / ^`` and
parentheses, e.g. ``(3*w^2 - 1)/2``, with whitespace insignificant.
`Field.parse` takes it through `PolynomialRing.parse`, and an extension
element prints as `Polynomial.format` prints it as a polynomial in the
generator over Q, so scalars and polynomials share one parser and one
printer.  `field_from_config` reads a ``minimal_poly`` through the same
parser, as a polynomial in the generator over Q, and hands its
coefficients to `NumberField`.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul

from .errors import CapExceeded, DivisionByZero, FieldMismatch, InvalidFieldSpec, ParseError


class ReducibleMinimalPolynomialWarning(UserWarning):
    """The supplied minimal polynomial has a proper factor over Q."""


class UnverifiedIrreducibilityWarning(UserWarning):
    """Irreducibility was not checked beyond squarefreeness: degree > 4,
    or a divisor search of the integer form too long to run."""


# ---------------------------------------------------------------------------
# irreducibility checks on minimal polynomials, given in primitive
# integer form as tuples of ints (index = power)
# ---------------------------------------------------------------------------

# Each divisor search, and the walk over (divisor of a_0, divisor of a_d)
# pairs, stops beyond this many steps.
_DIVISOR_STEPS = 10**6

# The largest minimal-polynomial degree: building a field costs O(d^3).
MAX_EXTENSION_DEGREE = 64


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _divisors(n: int):
    """Positive divisors of n, or None when trial division would take
    more than _DIVISOR_STEPS steps."""
    n = abs(n)
    if isqrt(n) > _DIVISOR_STEPS:
        return None
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return sorted({*small, *(n // i for i in small)})


def _least_factor_degree(a):
    """The least degree of a factor over Q of the primitive integer
    polynomial a of degree 2 .. 4 with a[-1] > 0 (so its own degree when
    it is irreducible), or None when the divisor search is too long.

    By Gauss's lemma every factor has an integer form whose leading
    coefficient divides a[-1] and whose constant coefficient divides a[0].
    """
    d = len(a) - 1
    if d == 2:
        return 1 if _is_square(a[1] * a[1] - 4 * a[0] * a[2]) else 2
    if a[0] == 0:
        return 1
    ends, leads = _divisors(a[0]), _divisors(a[d])
    if ends is None or leads is None or len(ends) * len(leads) > _DIVISOR_STEPS:
        return None
    ends += [-g for g in ends]
    # p/q is a root iff sum a_i p^i q^(d-i) = 0.  A root p/q in lowest
    # terms makes q x - p an integer factor, so q - p divides a(1) and
    # q + p divides a(-1); a candidate not in lowest terms may fail that
    # test, as its lowest terms are a candidate too.  With 1 and -1 no
    # roots, p = q and p = -q are none either.
    at_one, at_minus_one = sum(a), sum(a[::2]) - sum(a[1::2])
    if at_one == 0 or at_minus_one == 0:
        return 1
    if any(q != p != -q and at_one % (q - p) == 0 and at_minus_one % (q + p) == 0
           and sum(c * p**i * q ** (d - i) for i, c in enumerate(a)) == 0
           for p in ends for q in leads):
        return 1
    if d == 3:
        return 3
    a0, a1, a2, a3, a4 = a
    # the test below is symmetric in the two factors, so each pair is
    # tried once: u <= v, and g <= h when u = v
    for u in leads:
        v = a4 // u
        if u > v:
            break
        for g in ends:
            h = a0 // g
            if u == v and g > h:
                continue
            # (u x^2 + s x + g)(v x^2 + t x + h) = a needs v s + u t = a3,
            # h s + g t = a1 and s t = rest
            rest = a2 - u * h - g * v
            det = v * g - u * h
            if det:
                if (a3 * g - u * a1) * (v * a1 - h * a3) == rest * det * det:
                    return 2
            # singular: t = (a3 - v s) / u leaves v s^2 - a3 s + u rest = 0
            elif h * a3 == v * a1 and _is_square(a3 * a3 - 4 * u * v * rest):
                return 2
    return 4


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _identity(a):
    return a


def _power(x, n: int):
    """x^n for n >= 1, left to right from x itself: x^2 costs one
    product and x^3 two."""
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


class Field:
    """Base class; concrete fields implement arithmetic on raw payloads
    and end their __init__ with this one's, which builds zero and one."""

    kind = "abstract"

    def __init__(self):
        # set during construction: an attribute added later, as a
        # cached_property adds it, slows every attribute lookup on the
        # instance, such as self.p in the arithmetic
        self.zero = self.scalar(0)
        self.one = self.scalar(1)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar of this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar of {value.field} used in {self}")
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(self, self._from_rational(value))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def characteristic(self) -> int:
        raise NotImplementedError

    def parse(self, text: str) -> "Scalar":
        from .polynomials import PolynomialRing

        return PolynomialRing(self, ()).parse(text).constant_coefficient()

    # payload protocol, implemented per field kind
    def _from_rational(self, q):
        """Payload of an int or a Fraction."""
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _format(self, a) -> str:
        raise NotImplementedError

    # Q, GF(p) and Q(w) lift payloads to integers: `_integral(a)` is (nums,
    # den), ints over one positive int, one per basis element over the prime
    # field, and `_from_integral(nums, den)` the canonical payload of any such.

    def _accumulator(self):
        """(mul, add, settle) for sums of products read only when
        complete: `settle(add(a, mul(b, c)))` is `_add(a, _mul(b, c))`,
        and so for any chain of such steps.  Here the steps are the
        field's own and `settle` changes nothing."""
        return self._mul, self._add, _identity


def _lowest(a):
    """Q payload of n / d, for a pair a = (n, d) with d > 0, in lowest terms."""
    n, d = a
    g = gcd(n, d) if d != 1 else 1
    return a if g == 1 else (n // g, d // g)


def _pair_mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _pair_add(a, b):
    (an, ad), (bn, bd) = a, b
    return (an + bn, ad) if ad == bd else (an * bd + bn * ad, ad * bd)


def _pair_inv(a):
    n, d = a
    if n == 0:
        raise DivisionByZero("division by zero")
    return (d, n) if n > 0 else (-d, -n)


def _pair_format(a):
    return str(a[0]) if a[1] == 1 else f"{a[0]}/{a[1]}"


class Rationals(Field):
    """Q, on payloads (num, den) with den > 0 and gcd(num, den) == 1: zero is (0, 1)."""

    kind = "rationals"

    def characteristic(self):
        return 0

    def _from_rational(self, q):
        return q.numerator, q.denominator

    def _add(self, a, b):
        return _lowest(_pair_add(a, b))

    def _neg(self, a):
        return -a[0], a[1]

    def _mul(self, a, b):
        return _lowest(_pair_mul(a, b))

    def _inv(self, a):
        return _pair_inv(a)

    def _is_zero(self, a):
        return a[0] == 0

    _format = staticmethod(_pair_format)

    def _accumulator(self):
        # unreduced (num, den) pairs, in lowest terms once when read
        return _pair_mul, _pair_add, _lowest

    def _integral(self, a):
        return (a[0],), a[1]

    def _from_integral(self, nums, den):
        return _lowest((nums[0], den))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


# The prime of the modular certificates over Q: the closure's proof that
# a generator has infinite order, and the hsop test of Dade's construction.
MODULAR_PRIME = 2**31 - 1


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InvalidFieldSpec(f"{p} is not prime")
        self.p = p
        super().__init__()

    def characteristic(self):
        return self.p

    def _from_rational(self, q):
        return self._from_integral((q.numerator,), q.denominator)

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("division by zero")
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def _format(self, a):
        return str(a)

    def _accumulator(self):
        # plain int products and sums of residues, reduced once when read
        return mul, add, self.p.__rmod__

    def _integral(self, a):
        return (a,), 1

    def _from_integral(self, nums, den):
        """The residue of nums[0] / den: the one reduction of a rational mod p."""
        p = self.p
        if den % p == 0:
            raise DivisionByZero(f"denominator divisible by {p}")
        return nums[0] * pow(den, -1, p) % p

    def residue(self, s: "Scalar") -> "Scalar":
        """The image in GF(p) of a scalar of Q; DivisionByZero when p
        divides its denominator."""
        if not isinstance(s.field, Rationals):
            raise FieldMismatch(f"residue of a scalar of {s.field} in {self}")
        return Scalar(self, self._from_integral(*s.field._integral(s.value)))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _normal(nums, den):
    """Canonical extension payload of the vector nums / den, for den != 0."""
    if not any(nums[1:]):
        return _lowest((nums[0], den) if den > 0 else (-nums[0], -den))
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return tuple(x // g for x in nums), den // g
    return tuple(nums), den


def _settle(a):
    """Canonical extension payload of an unnormalised pair or vector."""
    return _lowest(a) if a[0].__class__ is int else _normal(*a)


def _vector_add(a, b):
    if a[0].__class__ is int:
        if b[0].__class__ is int:
            return _pair_add(a, b)
        a, b = b, a
    (an, ad), (bn, bd) = a, b
    if bn.__class__ is int:  # a vector plus a Q pair
        bn = (bn,) + (0,) * (len(an) - 1)
    if ad == bd:
        return [x + y for x, y in zip(an, bn)], ad
    return [x * bd + y * ad for x, y in zip(an, bn)], ad * bd


def _generator_name(name):
    """The name, if it can name an extension generator."""
    if not isinstance(name, str) or not name.isidentifier():
        raise InvalidFieldSpec(f"bad generator name {name!r}")
    return name


class NumberField(Field):
    """Q[t]/(m(t)) for monic squarefree m of degree >= 2.

    Irreducibility is certified for deg(m) <= 4 (a search for integer
    factors by Gauss's lemma); a detected factor or an unverified higher
    degree only warns.  A reducible m produces a ring with zero
    divisors, in which inverting a zero divisor raises DivisionByZero.

    An element of Q has its `Rationals` payload, an int pair.  Any other
    is (nums, den), a tuple and an int: the coefficients of t^0 ..
    t^(d-1) are nums[i] / den, some nums[i] != 0 for i >= 1, den > 0 and
    no common factor of den and every nums[i].  So equal elements have
    equal payloads, and `payload[0].__class__ is int` tells the forms apart.
    A degree above MAX_EXTENSION_DEGREE raises CapExceeded at once.
    """

    kind = "simple_extension"

    def __init__(self, minimal_poly, generator_name: str):
        coeffs = [Fraction(c) for c in minimal_poly]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        coeffs = tuple(coeffs)
        if len(coeffs) < 3:
            raise InvalidFieldSpec("minimal polynomial must have degree >= 2")
        if coeffs[-1] != 1:
            raise InvalidFieldSpec("minimal polynomial must be monic")
        self.minimal_poly = coeffs
        self.degree = d = len(coeffs) - 1
        if d > MAX_EXTENSION_DEGREE:
            raise CapExceeded(f"minimal polynomial of degree {d} exceeds the bound "
                              f"{MAX_EXTENSION_DEGREE}")
        # t^(d+k) mod m for k = 0 .. d-2, scaled to integers by one
        # common denominator
        row = [-c for c in coeffs[:-1]]
        rows = []
        for _ in range(d - 1):
            rows.append(row)
            row = [row[-1] * rows[0][0]] + [
                x + row[-1] * y for x, y in zip(row, rows[0][1:])
            ]
        self._scale = lcm(*(c.denominator for r in rows for c in r))
        self._rows = tuple(tuple(int(c * self._scale) for c in r) for r in rows)
        # m is squarefree iff its derivative is invertible modulo m
        deriv = [i * c for i, c in enumerate(coeffs) if i > 0]
        den = lcm(*(c.denominator for c in deriv))
        try:
            self._invert(tuple(int(c * den) for c in deriv), den)
        except DivisionByZero:
            raise InvalidFieldSpec("minimal polynomial must be squarefree") from None
        self.generator_name = _generator_name(generator_name)
        self._hash = hash(("ext", coeffs, generator_name))
        super().__init__()
        self._warn_if_reducible()

    def _warn_if_reducible(self):
        m, d = self.minimal_poly, self.degree
        den = lcm(*(c.denominator for c in m))
        a = tuple(c.numerator * (den // c.denominator) for c in m)
        least = _least_factor_degree(a) if d <= 4 else None
        if least is None:
            warnings.warn(f"irreducibility of degree-{d} minimal polynomial not verified",
                          UnverifiedIrreducibilityWarning, stacklevel=3)
        elif least < d:
            factor = "has a rational root" if least == 1 else "splits into two rational quadratics"
            warnings.warn(f"minimal polynomial {factor}; the quotient is not a field",
                          ReducibleMinimalPolynomialWarning, stacklevel=3)

    def characteristic(self):
        return 0

    @property
    def generator(self) -> "Scalar":
        return Scalar(self, ((0, 1) + (0,) * (self.degree - 2), 1))

    def _from_rational(self, q):
        return q.numerator, q.denominator

    def _add(self, a, b):
        return _settle(_vector_add(a, b))

    def _neg(self, a):
        return (-a[0] if a[0].__class__ is int else tuple(-x for x in a[0])), a[1]

    def _product(self, an, bn):
        """Integer vector of scale * an * bn reduced modulo m."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    conv[i + j] += x * y
        scale = self._scale
        out = conv[:d] if scale == 1 else [scale * x for x in conv[:d]]
        for c, row in zip(conv[d:], self._rows):
            if c:
                for j, r in enumerate(row):
                    out[j] += c * r
        return out

    def _mul(self, a, b):
        return _settle(self._vector_mul(a, b))

    def _vector_mul(self, a, b):
        (an, ad), (bn, bd) = a, b
        if an.__class__ is int:
            if bn.__class__ is int:
                return _pair_mul(a, b)
            return [an * y for y in bn], ad * bd
        if bn.__class__ is int:
            return [x * bn for x in an], ad * bd
        return self._product(an, bn), ad * bd * self._scale

    def _accumulator(self):
        # unnormalised Q pairs and vectors, made canonical once when read
        return self._vector_mul, _vector_add, _settle

    def _integral(self, a):
        return ((a[0],) + (0,) * (self.degree - 1), a[1]) if a[0].__class__ is int else a

    _from_integral = staticmethod(_normal)

    def _inv(self, a):
        return _pair_inv(a) if a[0].__class__ is int else self._invert(*a)

    def _invert(self, nums, den):
        """Solve (nums / den) * x = 1, for nums not all zero, by fraction-free
        (Bareiss) elimination on the integer matrix of multiplication by nums."""
        d = self.degree
        cols = [self._product(nums, (0,) * j + (1,)) for j in range(d)]
        rows = [[col[i] for col in cols] + [0] for i in range(d)]
        rows[0][d] = self._scale * den
        prev = 1
        for k in range(d):
            p = next((i for i in range(k, d) if rows[i][k]), None)
            if p is None:
                raise DivisionByZero(
                    "nonzero zero divisor inverted; minimal polynomial is reducible"
                )
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            for row in rows[k + 1:]:
                f = row[k]
                for j in range(k + 1, d + 1):
                    row[j] = (pivot[k] * row[j] - f * pivot[j]) // prev
            prev = pivot[k]
        # back substitution for prev * x, which is integral by Cramer's rule
        sol = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            rest = sum(row[j] * sol[j] for j in range(i + 1, d))
            sol[i] = (prev * row[d] - rest) // row[i]
        return _normal(sol, prev)

    def _is_zero(self, a):
        return a[0] == 0

    def _format(self, a):
        nums, den = a
        if nums.__class__ is int:
            return _pair_format(a)
        from .polynomials import Polynomial, PolynomialRing

        ring = PolynomialRing(Rationals(), (self.generator_name,))
        terms = {(i,): Scalar(ring.field, _lowest((n, den))) for i, n in enumerate(nums)}
        return Polynomial(ring, terms).format()

    def __eq__(self, other):
        return other is self or (
            isinstance(other, NumberField)
            and other.minimal_poly == self.minimal_poly
            and other.generator_name == self.generator_name
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"QQ[{self.generator_name}]/(m)"


class Scalar:
    """Immutable field element; all arithmetic is exact and canonical."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"mixing scalars of {self.field} and {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, self.field._neg(o.value)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, self.field._inv(o.value)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n) if n else self.field.one

    def inverse(self):
        return Scalar(self.field, self.field._inv(self.value))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar) or other.field != self.field:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field._format(self.value)

    def __repr__(self):
        return f"Scalar({self})"


def field_from_config(cfg: dict) -> Field:
    """Build a field from a JSON-style configuration block."""
    if not isinstance(cfg, dict):
        raise ParseError(f"field block must be a JSON object, not {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "rationals":
        return Rationals()
    if kind == "prime":
        p = cfg["p"]
        if type(p) is not int and not isinstance(p, str):
            raise ParseError(f"prime p must be an integer or an integer string, not {p!r}")
        return PrimeField(int(p))
    if kind == "simple_extension":
        from .polynomials import PolynomialRing

        name = _generator_name(cfg.get("generator", "t"))
        m = PolynomialRing(Rationals(), (name,)).parse(cfg["minimal_poly"])
        coeffs = [Fraction(0)] * (m.total_degree() + 1)
        for (i,), c in m.terms.items():
            coeffs[i] = Fraction(*c.value)
        return NumberField(coeffs, name)
    raise ParseError(f"unknown field kind {kind!r}")
