"""Rational function fields K(a_1, ..., a_m) over an exact base field.

Elements are reduced fractions of multivariate polynomials: numerator
and denominator coprime (by exact multivariate gcd, computed with a
primitive pseudo-remainder sequence) and the denominator monic under
grevlex.  The class satisfies the Field protocol, so polynomial rings
and Groebner bases over a rational function field come for free.

Exact division and the univariate Euclidean gcd have no division loop
of their own: both run on the one sparse division kernel,
`groebner._reduce_terms`.  Pseudo-division (`_prem`) stays separate,
because it never inverts a coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DivisionByZero
from .fields import Field, Scalar
from .groebner import _reduce_terms, _reducer
from .polynomials import GREVLEX, Polynomial, PolynomialRing


def _exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g; ArithmeticError unless g divides f exactly."""
    q = {}
    if _reduce_terms(f.terms, [_reducer(g, GREVLEX)], GREVLEX, q):
        raise ArithmeticError("exact division failed")
    return Polynomial(f.ring, q)


def _deg_in(f: Polynomial, k: int) -> int:
    return max((m[k] for m in f.terms), default=-1)


def _coeff_in(f: Polynomial, k: int, d: int) -> Polynomial:
    """Coefficient of var_k^d, as a polynomial with var k removed."""
    terms = {}
    for m, c in f.terms.items():
        if m[k] == d:
            mm = list(m)
            mm[k] = 0
            terms[tuple(mm)] = c
    return Polynomial(f.ring, terms)


def _monic(f: Polynomial) -> Polynomial:
    if f.is_zero():
        return f
    return f.monic(GREVLEX)


def _prem(a: Polynomial, b: Polynomial, k: int) -> Polynomial:
    """Pseudo-remainder of a by b, both univariate in var k."""
    db = _deg_in(b, k)
    lb = _coeff_in(b, k, db)
    r = a
    ring = a.ring
    while not r.is_zero():
        dr = _deg_in(r, k)
        if dr < db:
            break
        lr = _coeff_in(r, k, dr)
        shift = [0] * ring.nvars
        shift[k] = dr - db
        xk = ring.monomial(tuple(shift))
        r = lb * r - lr * xk * b
    return r


def multivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic (grevlex) gcd over the coefficient field."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    k = f.ring.nvars - 1
    while k >= 0 and _deg_in(f, k) <= 0 and _deg_in(g, k) <= 0:
        k -= 1
    return _monic(_gcd_rec(f, g, k))


def _gcd_rec(f: Polynomial, g: Polynomial, k: int) -> Polynomial:
    """gcd of polynomials using only variables 0..k."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if k < 0:
        return f.ring.one
    while k >= 0 and _deg_in(f, k) <= 0 and _deg_in(g, k) <= 0:
        k -= 1
    if k < 0:
        return f.ring.one
    if k == 0 and f.ring.nvars == 1 or _only_var(f, k) and _only_var(g, k):
        return _univariate_gcd(f, g)
    cf, pf = _content_pp(f, k)
    cg, pg = _content_pp(g, k)
    a, b = pf, pg
    if _deg_in(a, k) < _deg_in(b, k):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, k)
        if r.is_zero():
            a, b = b, r
        else:
            _, rp = _content_pp(r, k)
            a, b = b, rp
    cont = _gcd_rec(cf, cg, k - 1)
    return cont * a


def _only_var(f: Polynomial, k: int) -> bool:
    return all(all(e == 0 for i, e in enumerate(m) if i != k) for m in f.terms)


def _univariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Euclid on polynomials in one variable, up to a scalar: there the
    full normal form of f by g is the Euclidean remainder."""
    while not g.is_zero():
        r = _reduce_terms(f.terms, [_reducer(g, GREVLEX)], GREVLEX)
        f, g = g, Polynomial(f.ring, r)
    return f


def _content_pp(f: Polynomial, k: int):
    """(content, primitive part) of f viewed as univariate in var k."""
    by_degree = {}  # one pass over the terms builds each coefficient once
    for m, c in f.terms.items():
        by_degree.setdefault(m[k], {})[m[:k] + (0,) + m[k + 1:]] = c
    coeffs = [Polynomial(f.ring, by_degree[d]) for d in sorted(by_degree)]
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_constant():
            break
        content = _gcd_rec(content, c, k - 1)
    content = _monic(content)
    if content.is_constant():
        return f.ring.one, f
    return content, _exact_div(f, content)


class RationalFunctionField(Field):
    """Fractions of polynomials over a base field, in canonical form."""

    kind = "rational_functions"

    def __init__(self, base: Field, names: Sequence[str]):
        self.base = base
        self.ring = PolynomialRing(base, tuple(names))

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

    def from_base(self, c) -> Scalar:
        return self.from_polynomial(self.ring.from_scalar(c))

    def generator(self, i: int) -> Scalar:
        return self.from_polynomial(self.ring.variable(i))

    def generators(self):
        return [self.generator(i) for i in range(self.ring.nvars)]

    def numerator(self, s: Scalar) -> Polynomial:
        return s.value[0]

    def denominator(self, s: Scalar) -> Polynomial:
        return s.value[1]

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
