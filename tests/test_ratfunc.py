import pytest

from invar.errors import DivisionByZero
from invar.fields import NumberField, Rationals
from invar.polynomials import GREVLEX, PolynomialRing
from invar.ratfunc import RationalFunctionField, _exact_div, multivariate_gcd

Q = Rationals()
L = RationalFunctionField(Q, ("a", "b"))
A, B = L.generators()
RING = L.ring


def test_gcd_univariate():
    r = PolynomialRing(Q, ("x",))
    x = r.variable(0)
    g = multivariate_gcd((x**2 - 1) * (x + 2), (x - 1) * x**3)
    assert g == x - 1


def test_exact_div_quotient_and_non_divisor():
    x, y = RING.variables()
    assert _exact_div((x + y) * (x - 2 * y), x - 2 * y) == x + y
    with pytest.raises(ArithmeticError):
        _exact_div(x**2 + y, x + y)


def test_gcd_multivariate():
    x = RING.variable(0)
    y = RING.variable(1)
    g = multivariate_gcd((x**2 - y**2) * (x + y), (x - y) * x)
    assert g == x - y
    assert multivariate_gcd(x * y, x**2) == x
    assert multivariate_gcd(x + y, x - y) == RING.one
    common = (x**2 + y) ** 2
    assert multivariate_gcd(common * (x + 1), common * y) == common


def test_gcd_with_content():
    x = RING.variable(0)
    y = RING.variable(1)
    f = (y + 1) * (x**2 - y)
    g = (y + 1) ** 2 * x
    assert multivariate_gcd(f, g) == y + 1


def test_gcd_over_a_number_field():
    sqrt2 = NumberField([-2, 0, 1], "w")
    ring = PolynomialRing(sqrt2, ("x", "y"))
    x, y = ring.variables()
    w = ring.from_scalar(sqrt2.generator)
    assert multivariate_gcd((x - w) * (x + y), (x - w) * y) == x - w


def test_gcd_of_scaled_products():
    from invar.prng import XorShift

    rng = XorShift(43)
    ring3 = type(RING)(Q, ("x", "y", "z"))

    def random_poly():
        p = ring3.zero
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + ring3.monomial(exps, rng.randint(-3, 3))
        return p

    checked = 0
    while checked < 15:
        a, b, c = random_poly(), random_poly(), random_poly()
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        if not multivariate_gcd(a, b).is_constant():
            continue  # want coprime cofactors so the answer is exactly c
        g = multivariate_gcd(a * c, b * c)
        assert g == c.monic(GREVLEX)
        checked += 1


def test_fraction_canonical_form():
    two_a = L.from_polynomial(2 * RING.variable(0))
    two_b = L.from_polynomial(2 * RING.variable(1))
    assert two_a / two_b == A / B
    num, den = (A / B).value
    assert str(num) == "a" and str(den) == "b"
    # denominator normalized monic
    frac = L.one / (L.from_polynomial(3 * RING.variable(1)))
    assert frac.value[1].leading(GREVLEX)[1] == Q.one


def test_fraction_arithmetic():
    s = A / B + B / A
    num, den = s.value
    assert str(num) == "a^2 + b^2"
    assert str(den) == "a*b"
    assert (A / B) * (B / A) == L.one
    assert (A - A).is_zero()
    assert str(A**2 / (A * B)) == "a/b"


def test_fraction_division_by_zero():
    with pytest.raises(DivisionByZero):
        A / (B - B)
    with pytest.raises(DivisionByZero):
        L.from_fraction(RING.one, RING.zero)


def test_polynomial_ring_over_rational_functions():
    ring = PolynomialRing(L, ("y",))
    y = ring.variable(0)
    p = y * A - B
    q = y * A + B
    assert (p * q).terms[(0,)] == -(B * B)
    assert (p * q).terms[(2,)] == A * A
    assert (1,) not in (p * q).terms


def test_groebner_over_rational_functions():
    from invar.groebner import buchberger, reduce_basis

    ring = PolynomialRing(L, ("y", "z"))
    y, z = ring.variables()
    basis = reduce_basis(buchberger([z * A - y, z * B - 1], GREVLEX))
    # z is a unit times y/a, so the reduced basis rewrites both
    assert len(basis.generators) == 2
    strs = {str(g) for g in basis.generators}
    assert any("y" in s and "a" in s for s in strs)
