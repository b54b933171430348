"""Rational function fields K(a_1, ..., a_m) over an exact base field.

Elements are reduced fractions of multivariate polynomials: numerator
and denominator coprime and the denominator monic under grevlex.  The
class satisfies the Field protocol, so polynomial rings and Groebner
bases over a rational function field come for free.

The gcd needs no algebra of its own: gcd(f, g) = f*g / lcm(f, g), and
lcm(f, g) generates (f) ∩ (g), which is the t-free part of the ideal
(t*f, (1 - t)*g) (Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, ch. 4 §3).  `groebner.elimination_ideal` computes it, and
the exact division runs on the one sparse division kernel,
`groebner._reduce_terms`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DivisionByZero
from .fields import Field, Scalar
from .groebner import _adjoin_variable, _reduce_terms, _reducer, elimination_ideal
from .polynomials import GREVLEX, Polynomial, PolynomialRing


def _exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g; ArithmeticError unless g divides f exactly."""
    q = {}
    if _reduce_terms(f.terms, [_reducer(g, GREVLEX)], {}, GREVLEX, q):
        raise ArithmeticError("exact division failed")
    return Polynomial(f.ring, q)


def _monic(f: Polynomial) -> Polynomial:
    if f.is_zero():
        return f
    return f.monic(GREVLEX)


def multivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic (grevlex) gcd over the coefficient field, as f*g / lcm(f, g)."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return f.ring.one
    (ft, gt), t = _adjoin_variable("t", f, g)
    (lcm,) = elimination_ideal([t * ft, (1 - t) * gt], [t.ring.names[-1]])
    return _monic(_exact_div(f * g, lcm))


class RationalFunctionField(Field):
    """Fractions of polynomials over a base field, in canonical form."""

    kind = "rational_functions"

    def __init__(self, base: Field, names: Sequence[str]):
        self.base = base
        self.ring = PolynomialRing(base, tuple(names))
        super().__init__()

    def characteristic(self):
        return self.base.characteristic()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionField)
            and other.base == self.base
            and other.ring.names == self.ring.names
        )

    def __hash__(self):
        return hash(("ratfunc", self.base, self.ring.names))

    def __repr__(self):
        return f"{self.base!r}({', '.join(self.ring.names)})"

    # -- construction --------------------------------------------------------

    def _canonical(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            return (self.ring.zero, self.ring.one)
        if not den.is_constant():
            g = multivariate_gcd(num, den)
            if not g.is_constant():
                num = _exact_div(num, g)
                den = _exact_div(den, g)
        lc = den.leading(GREVLEX)[1]
        inv = lc.inverse()
        return (num * inv, den * inv)

    def from_fraction(self, num: Polynomial, den: Polynomial) -> Scalar:
        return Scalar(self, self._canonical(num, den))

    def from_polynomial(self, p: Polynomial) -> Scalar:
        return self.from_fraction(p, self.ring.one)

    def generator(self, i: int) -> Scalar:
        return self.from_polynomial(self.ring.variable(i))

    def generators(self):
        return [self.generator(i) for i in range(self.ring.nvars)]

    # -- Field protocol --------------------------------------------------------

    def _from_rational(self, q: Fraction):
        return (self.ring.from_scalar(q), self.ring.one)

    def _add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        return self._canonical(n1 * d2 + n2 * d1, d1 * d2)

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        n1, d1 = a
        n2, d2 = b
        return self._canonical(n1 * n2, d1 * d2)

    def _inv(self, a):
        if a[0].is_zero():
            raise DivisionByZero("division by zero")
        return self._canonical(a[1], a[0])

    def _is_zero(self, a):
        return a[0].is_zero()

    def _format(self, a):
        num, den = a
        if den == self.ring.one:
            return num.format()
        ns, ds = num.format(), den.format()
        if "+" in ns[1:] or "-" in ns[1:]:
            ns = f"({ns})"
        if "+" in ds[1:] or "-" in ds[1:] or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"
