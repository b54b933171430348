import operator
import time
import warnings
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from invar.errors import (
    CapExceeded,
    DivisionByZero,
    FieldMismatch,
    InvalidFieldSpec,
    InvarError,
    ParseError,
)
from invar.fields import (
    MAX_EXTENSION_DEGREE,
    NumberField,
    PrimeField,
    Rationals,
    ReducibleMinimalPolynomialWarning,
    Scalar,
    UnverifiedIrreducibilityWarning,
    _PRIME_BOUND,
    _is_prime,
    _least_factor_degree,
    field_from_config,
)
from invar.parsing import parse_expression
from invar.polynomials import DEGREE_BOUND, Polynomial, PolynomialRing
from invar.prng import XorShift
from invar.ratfunc import RationalFunctionField

Q = Rationals()
G7 = PrimeField(7)
SQRT2 = NumberField([-2, 0, 1], "w")


def test_rational_arithmetic():
    assert Q.scalar(1) / 2 + Q.scalar(1) / 3 == Q.parse("5/6")


def test_prime_field_division():
    assert G7.scalar(3) / G7.scalar(5) == G7.scalar(2)


# ---------------------------------------------------------------------------
# the integer lift protocol: _integral and _from_integral
# ---------------------------------------------------------------------------

ZETA5 = NumberField([1, 1, 1, 1, 1], "w")
LIFT_FIELDS = {"Q": Q, "GF7": G7, "Q(sqrt2)": SQRT2, "Q(zeta5)": ZETA5}
_FRACTIONS = st.fractions(-10**4, 10**4, max_denominator=60)


def _lift_element(field, coefficients):
    """The element sum c_i w^i, or its first coefficient where there is no w."""
    if not isinstance(field, NumberField):
        return field.scalar(coefficients[0])
    w = field.generator
    return sum((w**i * c for i, c in enumerate(coefficients[:field.degree])), field.zero)


@pytest.mark.parametrize("field", LIFT_FIELDS.values(), ids=LIFT_FIELDS.keys())
@settings(max_examples=80, deadline=None)
@given(coefficients=st.lists(st.one_of(st.just(Fraction(0)), _FRACTIONS), min_size=4,
                             max_size=4))
def test_integral_lift_round_trips(field, coefficients):
    # the Q pair and the vector forms of Q(w) both come back unchanged
    if isinstance(field, PrimeField):
        coefficients = [c.numerator for c in coefficients]
    a = _lift_element(field, coefficients).value
    assert field._from_integral(*field._integral(a)) == a


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-10**6, 10**6), d=st.integers(-10**6, 10**6).filter(bool),
       p=st.sampled_from([2, 7, 32003, 2**31 - 1]))
def test_prime_field_lift_divides_by_its_denominator(n, d, p):
    field = PrimeField(p)
    if d % p == 0:
        with pytest.raises(DivisionByZero):
            field._from_integral((n,), d)
        return
    r = field._from_integral((n,), d)
    assert 0 <= r < p and (r * d - n) % p == 0
    assert field.scalar(Fraction(n, d)) == field.scalar(n) / d
    q = Fraction(n, d)
    if q.denominator % p:
        assert field.residue(Q.scalar(q)) == field.scalar(q.numerator) / q.denominator
    else:
        with pytest.raises(DivisionByZero):
            field.residue(Q.scalar(q))


def test_prime_field_lift_examples():
    assert G7._from_integral((3,), 2) == 5
    assert G7._from_integral((3,), -1) == 4
    with pytest.raises(DivisionByZero):
        G7._from_integral((1,), 14)
    assert G7.residue(Q.scalar(Fraction(7, 2))) == G7.zero
    for other in (G7.one, SQRT2.one, PrimeField(5).one):
        with pytest.raises(FieldMismatch):
            G7.residue(other)


def test_extension_multiplication():
    w = SQRT2.generator
    assert (SQRT2.one + w) * (SQRT2.one - w) == SQRT2.scalar(-1)


def test_field_arith_dispatch():
    a, b = Q.scalar(3), Q.scalar(4)
    assert a + b == Q.scalar(7)
    assert a - b == Q.scalar(-1)
    assert a * b == Q.scalar(12)
    assert a / b == Q.parse("3/4")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero
    with pytest.raises(DivisionByZero):
        G7.one / G7.zero
    with pytest.raises(DivisionByZero):
        SQRT2.one / SQRT2.zero


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.one + G7.one
    with pytest.raises(FieldMismatch):
        Q.one * SQRT2.one


def test_parse_examples():
    assert Q.parse("-3/4") == Q.scalar(-3) / 4
    half = SQRT2.parse("(1+w)/2")
    assert half + half == SQRT2.one + SQRT2.generator
    assert G7.parse("9") == G7.scalar(2)
    # a scalar is never packed: its powers pass the monomial degree bound
    assert Q.parse("2^40000") == Q.scalar(2**40000)
    assert G7.parse("3^40000") == G7.scalar(pow(3, 40000, 7))
    assert SQRT2.parse("w^40000") == SQRT2.scalar(2**20000)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 13, 16, -3])
def test_powers_multiply_from_the_base(monkeypatch, n):
    # w^2 costs one product and w^3 two; a negative power inverts first
    w = SQRT2.generator
    expected = SQRT2.one
    for _ in range(abs(n)):
        expected = expected * w
    if n < 0:
        expected = expected.inverse()
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert w**n == expected
    n = abs(n)
    assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)


def test_parse_errors():
    with pytest.raises(ParseError):
        Q.parse("3 +")
    with pytest.raises(ParseError):
        Q.parse("1/0")
    with pytest.raises(ParseError):
        Q.parse("q")


def test_characteristic():
    assert Q.characteristic() == 0
    assert PrimeField(7).characteristic() == 7
    assert SQRT2.characteristic() == 0


def test_prime_validation():
    with pytest.raises(InvalidFieldSpec):
        PrimeField(4)
    with pytest.raises(InvalidFieldSpec):
        PrimeField(1)
    PrimeField(2)
    PrimeField(100003)
    PrimeField(2**61 - 1)
    # strong pseudoprimes to the bases 2 .. 37: the least one, which bounds
    # the proven range, and 1287836182261 * 2575672364521 above it
    assert 399165290221 * 798330580441 == _PRIME_BOUND
    for n in (_PRIME_BOUND, 3317044064679887385961981):
        with pytest.raises(InvalidFieldSpec, match="not below"):
            PrimeField(n)
        with pytest.raises(InvalidFieldSpec):
            field_from_config({"kind": "prime", "p": str(n)})


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(-5, 10**6), st.integers(10**6, _PRIME_BOUND - 1)))
def test_primality_below_the_bound_agrees_with_sympy(sympy, n):
    assert _is_prime(n) == sympy.isprime(n)


def test_minimal_poly_validation():
    with pytest.raises(InvalidFieldSpec):
        NumberField([1, 1], "w")  # degree 1
    with pytest.raises(InvalidFieldSpec):
        NumberField([-2, 0, 2], "w")  # not monic
    with pytest.raises(InvalidFieldSpec):
        NumberField([1, 2, 1], "w")  # (w+1)^2, not squarefree


def test_minimal_poly_degree_bound():
    # building the field costs O(d^3), so a degree past the bound is refused at once
    start = time.perf_counter()
    for d in (MAX_EXTENSION_DEGREE + 1, 400):
        with pytest.raises(CapExceeded):
            NumberField([-2] + [0] * (d - 1) + [1], "w")
    assert time.perf_counter() - start < 1
    with pytest.warns(UnverifiedIrreducibilityWarning):
        field = NumberField([-2] + [0] * (MAX_EXTENSION_DEGREE - 1) + [1], "w")
    assert field.generator ** MAX_EXTENSION_DEGREE == 2


@pytest.mark.parametrize("field", [Q, G7, SQRT2, RationalFunctionField(Q, ("a", "b"))],
                         ids=["Q", "GF7", "Qsqrt2", "Q(a,b)"])
def test_zero_and_one_are_built_once(field):
    assert field.zero is field.zero and field.one is field.one
    for cached, n in ((field.zero, 0), (field.one, 1)):
        fresh = field.scalar(n)
        assert cached is not fresh
        assert cached == fresh == n and hash(cached) == hash(fresh)
    assert field.zero.is_zero() and not field.one.is_zero()
    assert field.zero != field.one


def test_reducibility_warnings():
    with pytest.warns(ReducibleMinimalPolynomialWarning):
        NumberField([-1, 0, 1], "w")  # w^2 - 1, rational roots
    with pytest.warns(ReducibleMinimalPolynomialWarning):
        NumberField([2, 0, 3, 0, 1], "w")  # (w^2+1)(w^2+2)
    with pytest.warns(ReducibleMinimalPolynomialWarning):
        NumberField([2, 2, 3, 1, 1], "w")  # (w^2+w+1)(w^2+2): a cubic term
    with pytest.warns(ReducibleMinimalPolynomialWarning):
        NumberField([0, 1, 0, 1], "w")  # w(w^2+1): zero is a root
    with pytest.warns(UnverifiedIrreducibilityWarning):
        NumberField([-2, 0, 0, 0, 0, 1], "w")  # degree 5, unverified
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        NumberField([1, 1, 1, 1, 1], "w")  # 5th cyclotomic: irreducible quartic
        NumberField([1, 0, 0, 0, 1], "w")  # w^4 + 1: irreducible
        NumberField([-2, 0, 1], "w")


@pytest.mark.parametrize("text,warning", [
    ("w^2 - 1000000000000000003", None),
    ("w^2 - 1000000000000000014000000000000000049", ReducibleMinimalPolynomialWarning),
    ("w^3 - 1000000000000000003", UnverifiedIrreducibilityWarning),
    ("w^4 + w + 1000000000000000003", UnverifiedIrreducibilityWarning),
    ("w^3 + 3/10^7", None),
    ("w^4 + w^2/3 + 1/2^20", None),
    ("w^4 + w/735134400 + 1", UnverifiedIrreducibilityWarning),
    ("w^4 + w/55440 + 17383860", None),
], ids=["quadratic", "quadratic-square", "cubic", "quartic", "rational-cubic",
        "rational-biquadratic", "many-divisor-pairs", "many-root-candidates"])
def test_large_minimal_polynomials_finish_promptly(text, warning):
    # a full trial-division search of the 19-digit constants takes 10^9
    # steps, and the 1344 divisors of 735134400 make more pairs with those
    # of the constant term than the search bound allows.  The last one's
    # 6720 x 120 divisor pairs, just under that bound, pass the root
    # filter without an evaluation, and its quadratic factors are sought
    # only among the 32 sums of signed divisors of a(1) and a(-1)
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        field_from_config({"kind": "simple_extension", "generator": "w", "minimal_poly": text})
    assert time.perf_counter() - start < 1
    assert [w.category for w in caught] == ([warning] if warning else [])


@pytest.mark.parametrize("a,least", [
    ((-2, 2, 0, -1, 1), 1),  # (x - 1)(x^3 + 2): a(1) = 0
    ((2, 2, 0, 1, 1), 1),  # (x + 1)(x^3 + 2): a(-1) = 0
    ((-9, 6, 0, -3, 2), 1),  # (2x - 3)(x^3 + 3): 3/2, also drawn as 9/6
    ((-3, 2, -3, 2), 1),  # (2x - 3)(x^2 + 1)
    ((3, 0, 0, 2), 3),  # 2x^3 + 3
    ((1, 0, 0, 0, 1), 4),  # x^4 + 1
    ((6, 0, 5, 0, 1), 2),  # (x^2 + 2)(x^2 + 3)
], ids=["root-1", "root-minus-1", "root-3/2", "cubic-root-3/2", "irreducible-cubic",
        "irreducible-quartic", "two-quadratics"])
def test_least_factor_degree_through_the_root_filter(a, least):
    assert _least_factor_degree(a) == least


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


_FACTOR_COEFFICIENT = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _monic_polynomials(draw):
    """Monic rational polynomials of degree 2 .. 4 (index = power), half
    of them products of two monic rational factors."""
    degree = draw(st.integers(2, 4))
    degrees = [degree]
    if draw(st.booleans()):
        first = draw(st.integers(1, degree - 1))
        degrees = [first, degree - first]
    poly = [Fraction(1)]
    for k in degrees:
        factor = draw(st.lists(_FACTOR_COEFFICIENT, min_size=k, max_size=k)) + [Fraction(1)]
        product = [Fraction(0)] * (len(poly) + k)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        poly = product
    return poly


@settings(max_examples=300, deadline=None)
@given(_monic_polynomials())
def test_reducibility_warnings_match_sympy(sympy, coeffs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            NumberField(coeffs, "w")
        except InvalidFieldSpec as exc:
            assert "squarefree" in str(exc)
            return
    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
    least = min(sympy.degree(f, x) for f, _ in sympy.factor_list(poly, x, domain="QQ")[1])
    expected = {1: "minimal polynomial has a rational root; the quotient is not a field",
                2: "minimal polynomial splits into two rational quadratics; the quotient is "
                   "not a field"}
    assert [str(w.message) for w in caught] == ([expected[least]] if least < len(coeffs) - 1
                                                 else [])


def test_zero_divisor_detection():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad = NumberField([-1, 0, 1], "w")  # w^2 - 1
    with pytest.raises(DivisionByZero):
        (bad.generator - bad.one).inverse()


def _random_scalars(field, rng, count):
    out = []
    for _ in range(count):
        if isinstance(field, PrimeField):
            out.append(field.scalar(rng.randint(0, field.p - 1)))
        elif isinstance(field, NumberField):
            s = field.zero
            for i in range(field.degree):
                s = s + field.generator ** i * rng.randint(-9, 9)
            out.append(s)
        else:
            num = rng.randint(-99, 99)
            den = rng.randint(1, 30)
            out.append(field.scalar(num) / den)
    return out


@pytest.mark.parametrize("field", [Q, G7, SQRT2], ids=["Q", "GF7", "Q(sqrt2)"])
def test_field_axioms_on_random_triples(field):
    rng = XorShift(7)
    scalars = _random_scalars(field, rng, 3000)
    for i in range(0, 3000, 3):
        a, b, c = scalars[i : i + 3]
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [Q, G7, SQRT2], ids=["Q", "GF7", "Q(sqrt2)"])
def test_multiplicative_inverse(field):
    rng = XorShift(11)
    for a in _random_scalars(field, rng, 200):
        if not a.is_zero():
            assert a * a.inverse() == field.one


@pytest.mark.parametrize("field", [Q, G7, SQRT2], ids=["Q", "GF7", "Q(sqrt2)"])
def test_parse_format_roundtrip(field):
    rng = XorShift(13)
    for a in _random_scalars(field, rng, 300):
        assert field.parse(str(a)) == a


# ---------------------------------------------------------------------------
# differential test: integer-vector payloads against the Fraction-tuple
# arithmetic they replaced, kept here as the reference
# ---------------------------------------------------------------------------

def _ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_sub(a, b):
    n = max(len(a), len(b))
    return _ref_trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                     for i in range(n))


def _ref_divmod(a, b):
    a, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coef = a[-1] / b[-1]
        q[len(a) - len(b)] = coef
        for i, y in enumerate(b):
            a[len(a) - len(b) + i] -= coef * y
        a = list(_ref_trim(a))
    return _ref_trim(q), _ref_trim(a)


class _FractionTupleField:
    """Q[w]/(m) with elements as tuples of Fractions, low degree first."""

    def __init__(self, minimal_poly):
        self.m = tuple(Fraction(c) for c in minimal_poly)
        self.d = len(self.m) - 1

    def pad(self, c):
        return tuple(c) + (Fraction(0),) * (self.d - len(c))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.pad(_ref_divmod(_ref_mul(_ref_trim(a), _ref_trim(b)), self.m)[1])

    def inv(self, a):
        """Extended Euclid; None for zero and for zero divisors."""
        r0, r1, u0, u1 = self.m, _ref_trim(a), (), (Fraction(1),)
        if not r1:
            return None
        while r1:
            q, r = _ref_divmod(r0, r1)
            r0, r1, u0, u1 = r1, r, u1, _ref_sub(u0, _ref_mul(q, u1))
        if len(r0) != 1:
            return None
        return self.pad(_ref_divmod(tuple(x / r0[0] for x in u0), self.m)[1])


def _old_format(field, payload):
    """`NumberField._format` before it printed through `Polynomial.format`,
    kept here as the reference for the printed text."""
    nums, den = field._integral(payload)
    parts = []
    for i in range(field.degree - 1, -1, -1):
        c = Fraction(nums[i], den)
        if c == 0:
            continue
        if i == 0:
            mono = None
        elif i == 1:
            mono = field.generator_name
        else:
            mono = f"{field.generator_name}^{i}"
        if mono is None:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    if not parts:
        return "0"
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


DIFFERENTIAL_FIELDS = {
    "Q(sqrt2)": [-2, 0, 1],
    "Q(zeta5)": [1, 1, 1, 1, 1],
    "w^2-1": [-1, 0, 1],
    "w^2-1/2": [Fraction(-1, 2), 0, 1],
    # t^3 mod m has a denominator, so every product folds twice with a scale
    "w^3+w/2-1/3": [Fraction(-1, 3), Fraction(1, 2), 0, 1],
}


def _as_fractions(field, payload):
    nums, den = field._integral(payload)
    return tuple(Fraction(n, den) for n in nums)


def _element(field, fractions):
    """The element with these coefficients, over their least common denominator."""
    den = lcm(*(c.denominator for c in fractions))
    return Scalar(field, field._from_integral([int(c * den) for c in fractions], den))


def _assert_canonical(field, payload):
    """The Q pair in lowest terms exactly when the element is rational, else
    a vector of ints over a positive denominator coprime to all of them."""
    num, den = payload
    assert type(den) is int and den > 0
    if any(field._integral(payload)[0][1:]):
        assert type(num) is tuple and len(num) == field.degree
        assert all(type(x) is int for x in num) and gcd(den, *num) == 1
    else:
        assert type(num) is int and gcd(num, den) == 1


@pytest.mark.parametrize("minimal_poly", DIFFERENTIAL_FIELDS.values(),
                         ids=DIFFERENTIAL_FIELDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_vectors_match_fraction_tuples(minimal_poly, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = NumberField(minimal_poly, "w")
    ref = _FractionTupleField(minimal_poly)
    coeffs = st.lists(st.fractions(-30, 30, max_denominator=12),
                      min_size=field.degree, max_size=field.degree)
    fa, fb, fc = (tuple(data.draw(coeffs)) for _ in range(3))
    a, b, c = (_element(field, f) for f in (fa, fb, fc))
    for value, expected in [
        (a + b, ref.add(fa, fb)),
        (-a, ref.neg(fa)),
        (a * b, ref.mul(fa, fb)),
    ]:
        _assert_canonical(field, value.value)
        assert _as_fractions(field, value.value) == expected
    # a times w - 1 is a zero divisor in Q[w]/(w^2 - 1)
    for x in (a, a * (field.generator - 1)):
        expected_inverse = ref.inv(_as_fractions(field, x.value))
        if expected_inverse is None:
            with pytest.raises(DivisionByZero):
                x.inverse()
        else:
            inverse = x.inverse()
            _assert_canonical(field, inverse.value)
            assert _as_fractions(field, inverse.value) == expected_inverse
            assert x * inverse == field.one
    assert str(a) == _old_format(field, a.value)
    assert field.parse(str(a)) == a
    assert a.is_zero() == (not any(fa))
    assert a == sum((field.generator ** i * x for i, x in enumerate(fa)), field.zero)
    # canonical payloads: equal elements built differently hash equal
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _mixed_coefficients(data, degree):
    """Coefficients of an element that is rational on about half the draws."""
    coeffs = data.draw(st.lists(st.fractions(-30, 30, max_denominator=12),
                                min_size=degree, max_size=degree))
    if data.draw(st.booleans()):
        coeffs[1:] = [Fraction(0)] * (degree - 1)
    return tuple(coeffs)


@pytest.mark.parametrize("minimal_poly", DIFFERENTIAL_FIELDS.values(),
                         ids=DIFFERENTIAL_FIELDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_payload_forms_follow_rationality(minimal_poly, data):
    """Results move between the Q pair and the vector form exactly as
    their Fraction-tuple values move in and out of Q."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = NumberField(minimal_poly, "w")
    ref = _FractionTupleField(minimal_poly)
    d, g = field.degree, field.generator
    fg = ref.pad((Fraction(0), Fraction(1)))

    def check(value, expected):
        _assert_canonical(field, value.value)
        assert _as_fractions(field, value.value) == expected
        return value.value

    # w * w^k is rational for k = 1 in the quadratic fields (sqrt2 * sqrt2
    # = 2) and for k = 4 in Q(zeta5) (zeta * zeta^4 = 1)
    if d in (2, 4):
        k = 4 if d == 4 else 1
        fpower = fg
        for _ in range(k - 1):
            fpower = ref.mul(fpower, fg)
        assert type(check(g * g ** k, ref.mul(fg, fpower))[0]) is int
    # in every field w * (m(w) - m(0)) / w = -m(0) is rational
    fcofactor = ref.pad(tuple(map(Fraction, minimal_poly[1:])))
    assert type(check(g * _element(field, fcofactor), ref.mul(fg, fcofactor))[0]) is int
    # (w - 1)(w + 1) = w^2 - 1 is zero in Q[w]/(w^2 - 1)
    one = ref.pad((Fraction(1),))
    check((g - 1) * (g + 1), ref.mul(ref.add(fg, ref.neg(one)), ref.add(fg, one)))
    if minimal_poly == [-1, 0, 1]:
        assert ((g - 1) * (g + 1)).value == (0, 1)
    fs = [_mixed_coefficients(data, d) for _ in range(4)]
    xs = [_element(field, f) for f in fs]
    # b cancels the irrational part of a
    q = data.draw(st.fractions(-30, 30, max_denominator=12))
    fb = (q,) + ref.neg(fs[0][1:])
    assert check(xs[0] + _element(field, fb), ref.pad((fs[0][0] + q,))) == _pair(fs[0][0] + q)
    # inverses of pairs are pairs
    if q:
        assert check(field.scalar(q).inverse(), ref.pad((1 / q,))) == _pair(1 / q)
    for x, fx in zip(xs, fs):
        for y, fy in zip(xs, fs):
            check(x + y, ref.add(fx, fy))
            check(x - y, ref.add(fx, ref.neg(fy)))
            check(x * y, ref.mul(fx, fy))
        expected_inverse = ref.inv(fx)
        if expected_inverse is None:
            with pytest.raises(DivisionByZero):
                x.inverse()
        else:
            check(x.inverse(), expected_inverse)
    # an accumulator chain, settled once, and one whose last product
    # cancels the irrational part of the others
    mul, add, settle = field._accumulator()
    chain = add(mul(xs[0].value, xs[1].value), mul(xs[2].value, xs[3].value))
    expected = ref.add(ref.mul(fs[0], fs[1]), ref.mul(fs[2], fs[3]))
    check(Scalar(field, settle(chain)), expected)
    cancel = _element(field, (Fraction(0),) + ref.neg(expected[1:]))
    chain = add(chain, mul(cancel.value, field.one.value))
    assert check(Scalar(field, settle(chain)), ref.pad(expected[:1])) == _pair(expected[0])


# zeros and units decide which terms print and how their signs join
_PRINTED_COEFFICIENTS = st.sampled_from([0, 1, -1]).map(Fraction) | st.fractions(
    -30, 30, max_denominator=12)


@pytest.mark.parametrize("name", ["Q(sqrt2)", "Q(zeta5)", "w^2-1/2"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_number_field_printing_matches_the_old_printer(name, data):
    field = NumberField(DIFFERENTIAL_FIELDS[name], "w")
    a = _element(field, data.draw(st.lists(_PRINTED_COEFFICIENTS, min_size=field.degree,
                                           max_size=field.degree)))
    assert str(a) == _old_format(field, a.value)
    assert field.parse(str(a)) == a


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-20, 20).map(Fraction),
    st.fractions(-30, 30, max_denominator=12),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


def _pair(q):
    return q.numerator, q.denominator


@settings(max_examples=300, deadline=None)
@given(fa=RATIONALS, fb=RATIONALS)
def test_integer_pairs_match_fractions(fa, fb):
    a, b = Q.scalar(fa), Q.scalar(fb)
    # canonical payloads: den > 0, gcd(num, den) == 1, zero is (0, 1)
    for value, expected in [
        (a + b, fa + fb),
        (-a, -fa),
        (a - b, fa - fb),
        (a * b, fa * fb),
        (a - a, Fraction(0)),
        (a * 0, Fraction(0)),
    ]:
        assert value.value == _pair(expected)
        assert all(type(x) is int for x in value.value)
    if fa == 0:
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a.inverse().value == _pair(1 / fa)
        assert a * a.inverse() == Q.one
    assert str(a) == str(fa)
    assert Q.parse(str(a)) == a
    assert a.is_zero() == (fa == 0)
    # equal values built differently hash equal
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert hash(Q.scalar(fa + fb)) == hash(a + b)


def _accumulator_fields():
    """name -> (field, strategy of its canonical payloads), one entry per
    field kind and prime size."""
    from invar.ratfunc import RationalFunctionField

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reducible = NumberField([-1, 0, 1], "w")
    coefficients = st.lists(st.fractions(-30, 30, max_denominator=12), min_size=2, max_size=2)
    fields = {
        "Q": (Q, RATIONALS.map(_pair)),
        "Q(sqrt2)": (SQRT2, coefficients.map(lambda f: _element(SQRT2, f).value)),
        "Q[w]/(w^2-1)": (reducible, coefficients.map(lambda f: _element(reducible, f).value)),
    }
    for p in (2, 7, 32003, 2**31 - 1):
        fields[f"GF{p}"] = (PrimeField(p), st.integers(0, p - 1))
    ratfunc = RationalFunctionField(Q, ("a",))
    (a,) = ratfunc.ring.variables()
    polynomials = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda cs: sum((c * a**i for i, c in enumerate(cs)), ratfunc.ring.zero))
    fields["Q(a)"] = (ratfunc, st.tuples(polynomials, polynomials).filter(
        lambda nd: not nd[1].is_zero()).map(lambda nd: ratfunc.from_fraction(*nd).value))
    return fields


ACCUMULATOR_FIELDS = _accumulator_fields()
# 40 primes, none the characteristic of a field above
CHAIN_PRIMES = [q for q in range(43, 245) if all(q % r for r in range(2, q))]


@pytest.mark.parametrize("name", sorted(ACCUMULATOR_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accumulator_settles_to_field_arithmetic(name, data):
    # the division kernel's tail updates: a = add(a, mul(b, c)), read
    # only through settle, and starting from a canonical payload
    field, payloads = ACCUMULATOR_FIELDS[name]
    mul, add, settle = field._accumulator()
    a, b, c = (data.draw(payloads) for _ in range(3))
    assert settle(add(a, mul(b, c))) == field._add(a, field._mul(b, c))
    acc, expected = mul(b, c), field._mul(b, c)
    for x, y in data.draw(st.lists(st.tuples(payloads, payloads), max_size=6)):
        acc, expected = add(acc, mul(x, y)), field._add(expected, field._mul(x, y))
    assert settle(acc) == expected
    # a long chain whose every product brings a denominator of its own;
    # K(x) accumulates with its own arithmetic, where each step is a gcd
    # of growing polynomials, so it is left out
    if field.kind == "rational_functions":
        return
    for q in CHAIN_PRIMES:
        x, y = data.draw(payloads), field.scalar(Fraction(1, q)).value
        acc, expected = add(acc, mul(x, y)), field._add(expected, field._mul(x, y))
    assert settle(acc) == expected


class _UniPoly:
    """Dense univariate polynomial over Q, once the library's parser of
    minimal polynomials; kept here as the reference for the ring parser."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        return _UniPoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                        for i in range(max(len(a), len(b))))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _UniPoly(out)

    def __truediv__(self, other):
        if len(other.coeffs) > 1:
            raise ParseError("division by nonconstant polynomial")
        if not other.coeffs:
            raise DivisionByZero("division by zero")
        inv = Fraction(1) / other.coeffs[0]
        return _UniPoly(tuple(c * inv for c in self.coeffs))

    def __pow__(self, n):
        if (len(self.coeffs) - 1) * n >= DEGREE_BOUND:
            raise CapExceeded(f"power of degree {(len(self.coeffs) - 1) * n} "
                              f"reaches the bound {DEGREE_BOUND}")
        out = _UniPoly((Fraction(1),))
        for _ in range(n):
            out = out * self
        return out


def _reference_coefficients(text):
    """Fraction coefficients of the text in w, low degree first."""
    symbols = {"w": _UniPoly((Fraction(0), Fraction(1)))}
    value = parse_expression(text, symbols, lambda n: _UniPoly((Fraction(n),)), operator.mul)
    return list(value.coeffs)


def _binary(args):
    (left, dl), op, (right, dr) = args
    return f"{left} {op} {right}", {"*": dl + dr, "/": dl}.get(op, max(dl, dr))


# (text, a bound on its degree in w); the bound keeps the reference's
# power-by-repeated-products fast
_LEAVES = st.one_of(
    st.just(("w", 1)),
    st.integers(0, 12).map(lambda n: (str(n), 0)),
    st.tuples(st.integers(0, 12), st.integers(0, 4)).map(lambda nd: (f"{nd[0]}/{nd[1]}", 0)),
)
_MINIMAL_POLY_TEXTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*/"), inner).map(_binary),
    st.tuples(inner, st.integers(0, 12)).map(lambda t: (f"({t[0][0]})^{t[1]}", t[0][1] * t[1])),
    st.tuples(st.sampled_from(["w", "1/2", "3"]), st.integers(0, 12)).map(
        lambda t: (f"{t[0]}^{t[1]}", t[1] if t[0] == "w" else 0)),
    inner.map(lambda t: (f"-{t[0]}", t[1])),
    inner.map(lambda t: (f"({t[0]})", t[1])),
), max_leaves=8).filter(lambda t: t[1] <= 150)
# a leading w^k over a tail of lower degree is monic, so some texts build fields
_MONIC_TEXTS = st.tuples(st.integers(2, 6), _MINIMAL_POLY_TEXTS).filter(
    lambda t: t[1][1] < t[0]).map(lambda t: f"w^{t[0]} + {t[1][0]}")


def _outcome(build):
    """What build() returns, or the class and message of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return build()
        except InvarError as exc:
            return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_MINIMAL_POLY_TEXTS.map(lambda t: t[0]), _MONIC_TEXTS))
def test_minimal_polynomials_parse_as_the_reference_parser_did(text):
    ring = PolynomialRing(Q, ("w",))
    assert _outcome(lambda: ring.parse(text)) == _outcome(lambda: Polynomial(ring, {
        (i,): Q.scalar(c) for i, c in enumerate(_reference_coefficients(text))}))
    config = {"kind": "simple_extension", "generator": "w", "minimal_poly": text}
    assert _outcome(lambda: field_from_config(config)) == _outcome(
        lambda: NumberField(_reference_coefficients(text), "w"))
