import warnings
from fractions import Fraction
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from invar import linalg, polynomials
from invar.errors import (
    CapExceeded,
    ContextMismatch,
    FieldMismatch,
    LengthMismatch,
    SingularMatrix,
    ZeroPolynomial,
)
from invar.fields import NumberField, PrimeField, Rationals, UnverifiedIrreducibilityWarning
from invar.groups import reynolds
from invar.linalg import Matrix
from invar.polynomials import (
    GRADEDLEX,
    GREVLEX,
    LEX,
    DEGREE_BOUND,
    BlockElimination,
    Polynomial,
    IntegralValues,
    PolynomialRing,
    integral_vector,
    monomials_of_degree,
    product,
    transport,
)
from invar.prng import XorShift
from invar.specfile import fixture_path, load_spec_file

Q = Rationals()
R = PolynomialRing(Q, ("x", "y"))
X, Y = R.variables()


def test_ring_arithmetic_examples():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    p = X**2 + 3 * Y
    assert p + R.zero == p
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2


def test_powers_refuse_the_degree_bound_before_expanding():
    half = DEGREE_BOUND // 2
    assert (X * Y) ** (half - 1) == R.monomial((half - 1, half - 1))
    with pytest.raises(CapExceeded):
        (X * Y) ** half
    with pytest.raises(CapExceeded):
        R.parse(f"(x + y + 1)^{DEGREE_BOUND}")
    assert R.from_int(2) ** DEGREE_BOUND == R.from_int(2**DEGREE_BOUND)
    assert R.zero ** DEGREE_BOUND == R.zero


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 13, 16])
def test_powers_multiply_from_the_base(monkeypatch, n):
    # one squaring per bit after the first, one product per further set bit
    f = X + 2 * Y + 1
    expected = R.one
    for _ in range(n):
        expected = expected * f
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert f**n == expected
    assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)


def test_context_mismatch():
    other = PolynomialRing(Q, ("x", "z"))
    with pytest.raises(ContextMismatch):
        X + other.variable(0)


def test_transport_moves_variables_by_name():
    target = PolynomialRing(Q, ("z", "y", "w", "x"))
    p = R.parse("x^2*y - 3*y + 1")
    assert transport(p, target) == target.parse("x^2*y - 3*y + 1")
    assert transport(transport(p, target), R) == p


@settings(max_examples=50, deadline=None)
@given(st.permutations(["a", "b", "c"]),
       st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5), max_size=6),
       st.tuples(*[st.integers(-4, 4)] * 3))
def test_transport_between_orders_keeps_values(names, terms, point):
    source = PolynomialRing(Q, ("a", "b", "c"))
    target = PolynomialRing(Q, tuple(names))
    p = Polynomial(source, {m: Q.scalar(c) for m, c in terms.items() if c})
    moved = transport(p, target)
    assert moved.ring == target
    assert moved.evaluate([point["abc".index(n)] for n in names]) == p.evaluate(list(point))
    assert transport(moved, source) == p


def test_transport_renames():
    target = PolynomialRing(Q, ("y", "u"))
    assert transport(R.parse("x^2*y + x"), target, {"x": "u"}) == target.parse("u^2*y + u")
    assert transport(R.parse("x - 2*y^3"), R, {"x": "y", "y": "x"}) == R.parse("y - 2*x^3")


def test_transport_needs_a_target_only_for_present_variables():
    small = PolynomialRing(Q, ("y",))
    assert transport(R.parse("2*y^2 - 1"), small) == small.parse("2*y^2 - 1")
    assert transport(R.zero, small) == small.zero
    with pytest.raises(ContextMismatch):
        transport(R.parse("x*y"), small)
    with pytest.raises(ContextMismatch):
        transport(R.parse("y"), small, {"y": "v"})  # renamed to a name with no target


def test_transport_refuses_another_field():
    with pytest.raises(ContextMismatch):
        transport(X + Y, PolynomialRing(PrimeField(7), ("x", "y")))


def test_leading_monomial():
    p = X**2 + X * Y**2
    assert p.leading(LEX) == ((2, 0), Q.one)
    assert p.leading(GREVLEX) == ((1, 2), Q.one)
    assert (3 * X).leading(GREVLEX) == ((1, 0), Q.scalar(3))
    with pytest.raises(ZeroPolynomial):
        R.zero.leading(GREVLEX)


def test_apply_linear_map_examples():
    p = X**3 - Y
    identity = Matrix.identity(Q, 2)
    assert p.apply_linear_map(identity) == p

    tau = Matrix.from_rows(Q, [[1, 0], [0, -1]])  # reflection
    assert (X * Y).apply_linear_map(tau) == -(X * Y)

    K = NumberField([-2, 0, 1], "w")
    RK = PolynomialRing(K, ("x", "y"))
    xk, yk = RK.variables()
    half_w = K.generator / 2
    sigma = Matrix.from_rows(K, [[half_w, -half_w], [half_w, half_w]])  # rotation by 45 degrees
    assert xk.apply_linear_map(sigma) == (xk - yk) * half_w

    with pytest.raises(SingularMatrix):
        p.apply_linear_map(Matrix.from_rows(Q, [[1, 1], [1, 1]]))


def test_reynolds_eliminates_once_per_group_element(monkeypatch):
    group = load_spec_file(fixture_path("d8")).group
    eliminations = []
    echelon = linalg._echelon

    def counted(field, rows, *args, **kwargs):
        eliminations.append(len(rows))
        return echelon(field, rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    x, y = group.ring().variables()
    f = x**3 * y + 2 * y**2
    assert reynolds(f, group) == reynolds(f, group)
    assert len(eliminations) == group.order

    singular = Matrix.from_rows(Q, [[1, 1], [1, 1]])
    for _ in range(2):  # the cached rank refuses it again
        with pytest.raises(SingularMatrix):
            (X * Y).apply_linear_map(singular)
    with pytest.raises(FieldMismatch):
        (X * Y).apply_linear_map(Matrix.from_rows(PrimeField(7), [[1, 0], [0, 1]]))


def test_apply_linear_map_is_ring_hom():
    rng = XorShift(3)
    a = Matrix.from_rows(Q, [[1, 2], [1, 3]])
    for _ in range(20):
        p = _random_poly(R, rng)
        q = _random_poly(R, rng)
        assert (p * q).apply_linear_map(a) == p.apply_linear_map(a) * q.apply_linear_map(a)


def _homogeneous_component(p, d):
    return Polynomial(p.ring, {m: c for m, c in p.terms.items() if sum(m) == d})


def test_homogeneous_component():
    p = X**2 + X + 1
    assert _homogeneous_component(p, 1) == X
    assert _homogeneous_component(p, 3) == R.zero
    h = X**2 + X * Y
    assert _homogeneous_component(h, 2) == h
    total = R.zero
    for d in range(p.total_degree() + 1):
        total = total + _homogeneous_component(p, d)
    assert total == p
    assert p.homogeneous_components() == [_homogeneous_component(p, d) for d in range(3)]


def test_evaluate():
    assert (X**2 + Y**2).evaluate([1, 2]) == Q.scalar(5)
    p = X**2 + 3 * X * Y + 7
    assert p.evaluate([0, 0]) == Q.scalar(7)
    assert (X * Y).evaluate([Q.parse("1/2"), Q.parse("2/3")]) == Q.parse("1/3")
    with pytest.raises(LengthMismatch):
        X.evaluate([1])


def test_substitute_scalar_images_in_any_position():
    # the target ring is that of the first image that is a polynomial
    S = PolynomialRing(Q, ("u",))
    (U,) = S.variables()
    assert (X * Y).substitute([2, U]) == 2 * U
    assert (X * Y).substitute([U, 2]) == 2 * U
    assert (X**2 + Y).substitute([Q.scalar(3), U]) == U + 9 * S.one


def test_evaluate_is_ring_hom():
    rng = XorShift(5)
    for _ in range(50):
        p = _random_poly(R, rng)
        q = _random_poly(R, rng)
        v = [rng.randint(-5, 5), rng.randint(-5, 5)]
        assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
        assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


def test_monomials_of_degree():
    assert monomials_of_degree(R, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomials_of_degree(R, 0) == [(0, 0)]
    r3 = PolynomialRing(Q, ("x", "y", "z"))
    assert len(monomials_of_degree(r3, 1)) == 3
    assert len(monomials_of_degree(r3, 4)) == 15  # C(6, 2)


ORDERS = {
    "lex": LEX,
    "gradedlex": GRADEDLEX,
    "grevlex": GREVLEX,
    "block": BlockElimination(2),
    "block3": BlockElimination(1, 2),
}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_order_axioms(name):
    order = ORDERS[name]
    rng = XorShift(17)
    zero = (0, 0, 0, 0)
    for _ in range(1000):
        a = tuple(rng.randint(0, 6) for _ in range(4))
        b = tuple(rng.randint(0, 6) for _ in range(4))
        c = tuple(rng.randint(0, 6) for _ in range(4))
        # totality: distinct monomials compare strictly
        if a != b:
            assert order.key(a) != order.key(b)
        # multiplicativity
        if order.key(a) > order.key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) > order.key(bc)
        # 1 is minimal
        assert order.key(zero) <= order.key(a)


def _nested_key(order, exps):
    """The sort keys as first defined, with nested tuples: one inner key
    per block of a block order."""
    if isinstance(order, BlockElimination):
        cuts = [0, *accumulate(order.sizes), len(exps)]
        return tuple(_nested_key(order.inner, exps[a:b]) for a, b in zip(cuts, cuts[1:]))
    return {
        "lex": lambda: exps,
        "gradedlex": lambda: (sum(exps), exps),
        "grevlex": lambda: (sum(exps), tuple(-e for e in reversed(exps))),
    }[order.name]()


FLAT_KEY_ORDERS = [LEX, GRADEDLEX, GREVLEX, BlockElimination(1), BlockElimination(2),
                   BlockElimination(3), BlockElimination(2, inner=LEX),
                   BlockElimination(1, inner=GRADEDLEX),
                   BlockElimination(1, inner=BlockElimination(1)),
                   BlockElimination(1, 2), BlockElimination(1, 1, 1), BlockElimination(0, 2),
                   BlockElimination(2, 1, inner=LEX)]


@pytest.mark.parametrize("order", FLAT_KEY_ORDERS, ids=repr)
def test_flat_keys_keep_the_nested_order(order):
    rng = XorShift(23)
    monos = list({tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(400)})
    keys = [order.key(m) for m in monos]
    assert all(type(k) is tuple and all(type(e) is int for e in k) for k in keys)
    assert len({len(k) for k in keys}) == 1
    assert sorted(monos, key=order.key) == sorted(monos, key=lambda m: _nested_key(order, m))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_single_block_key_and_name_are_unchanged(k):
    order = BlockElimination(k)
    assert (order.name, repr(order), order.front_size) == (f"block({k},grevlex)",) * 2 + (k,)
    rng = XorShift(29)
    for _ in range(200):
        m = tuple(rng.randint(0, 5) for _ in range(4))
        assert order.key(m) == GREVLEX.key(m[:k]) + GREVLEX.key(m[k:])


def test_three_blocks_eliminate_each_leading_run():
    order = BlockElimination(1, 2)
    assert order.name == "block(1,2,grevlex)"
    rng = XorShift(31)
    for _ in range(300):
        a = tuple(rng.randint(0, 5) for _ in range(4))
        b = (0, rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
        c = (0, 0, 0, rng.randint(0, 5))
        if a[0]:
            assert order.key(a) > order.key(b)
        if any(a[:3]):
            assert order.key(a) > order.key(c)


def test_block_order_eliminates_front_block():
    order = BlockElimination(2)
    rng = XorShift(19)
    for _ in range(300):
        a = tuple(rng.randint(0, 5) for _ in range(4))
        b = (0, 0, rng.randint(0, 5), rng.randint(0, 5))
        if a[0] + a[1] > 0:
            assert order.key(a) > order.key(b)


def _random_poly(ring, rng, terms=4, deg=3):
    p = ring.zero
    for _ in range(terms):
        exps = tuple(rng.randint(0, deg) for _ in range(ring.nvars))
        p = p + ring.monomial(exps, rng.randint(-5, 5))
    return p


_term_dicts = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              st.tuples(st.integers(-9, 9), st.integers(1, 4)), max_size=5)


@pytest.mark.parametrize("field", [Q, PrimeField(32003)], ids=["Q", "GF32003"])
@settings(max_examples=60, deadline=None)
@given(a=_term_dicts, b=_term_dicts, c=_term_dicts)
def test_ring_laws(field, a, b, c):
    ring = PolynomialRing(field, ("x", "y"))

    def poly(terms):
        p = ring.zero
        for m, (num, den) in terms.items():
            p = p + ring.monomial(m, Fraction(num, den))
        return p

    f, g, h = poly(a), poly(b), poly(c)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero and (f - f).is_zero()


def test_linear_map_composition_convention():
    rng = XorShift(23)
    A = Matrix.from_rows(Q, [[1, 2], [0, 1]])
    B = Matrix.from_rows(Q, [[1, 0], [3, 1]])
    BA = B @ A
    for _ in range(30):
        p = _random_poly(R, rng)
        composed = p.apply_linear_map(B).apply_linear_map(A)
        assert composed == p.apply_linear_map(BA)


def test_parse_format_roundtrip():
    rng = XorShift(29)
    for _ in range(100):
        p = _random_poly(R, rng)
        assert R.parse(p.format()) == p
    K = NumberField([-2, 0, 1], "w")
    RK = PolynomialRing(K, ("x", "y"))
    w = K.generator
    p = RK.variable(0) * ((w + 1) / 2) + RK.variable(1) ** 2 * w - 3
    assert RK.parse(p.format()) == p


def test_parse_examples():
    assert R.parse("1/2*x^2 - y") == X**2 / 2 - Y
    assert R.parse("(x + y)^2") == (X + Y) ** 2
    assert R.parse("0") == R.zero


def test_format_is_order_descending():
    p = X**2 + X * Y**2 + 1
    assert p.format(LEX) == "x^2 + x*y^2 + 1"
    assert p.format(GREVLEX) == "x*y^2 + x^2 + 1"



# ---------------------------------------------------------------------------
# the shared monomial-image table behind evaluate, substitute and reynolds
# ---------------------------------------------------------------------------

SQRT2 = NumberField([-2, 0, 1], "w")
TABLE_FIELDS = [Q, PrimeField(32003), SQRT2]
_table_terms = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                               st.tuples(st.integers(-9, 9), st.integers(1, 4), st.integers(-3, 3)),
                               max_size=6)


def _table_poly(ring, terms):
    """Coefficients a/b + c*w over Q(sqrt 2), a/b elsewhere."""
    field = ring.field
    w = field.generator if field is SQRT2 else field.zero
    p = ring.zero
    for m, (num, den, k) in terms.items():
        p = p + ring.monomial(m, field.scalar(Fraction(num, den)) + w * k)
    return p


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=["Q", "GF32003", "Qsqrt2"])
@settings(max_examples=40, deadline=None)
@given(polys=st.lists(_table_terms, min_size=1, max_size=4),
       point=st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
       twist=st.integers(-2, 2))
def test_evaluation_on_a_shared_table_equals_fresh_tables(field, polys, point, twist):
    ring = PolynomialRing(field, ("x", "y", "z"))
    w = field.generator if field is SQRT2 else field.one
    point = [field.scalar(point[0]) + w * twist, *point[1:]]  # an irrational first coordinate
    polys = [_table_poly(ring, terms) for terms in polys]
    constants = [ring.from_scalar(c) for c in point]
    # evaluation is the substitution of the point's coordinates, whose
    # calls may share one table
    table = {}
    shared = [p.substitute(constants, table).constant_coefficient() for p in polys]
    assert shared == [p.evaluate(point) for p in polys]
    assert shared == [p.substitute(constants).constant_coefficient() for p in polys]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=["Q", "GF32003", "Qsqrt2"])
@settings(max_examples=40, deadline=None)
@given(polys=st.lists(_table_terms, min_size=1, max_size=4), images=st.lists(_table_terms,
                                                                            min_size=3, max_size=3))
def test_substitution_on_a_shared_table_equals_fresh_tables(field, polys, images):
    ring = PolynomialRing(field, ("x", "y", "z"))
    target = PolynomialRing(field, ("u", "v", "s"))
    # images of low degree, so that the substituted polynomials stay small
    images = [_table_poly(target, {m: c for m, c in terms.items() if sum(m) <= 2})
              for terms in images]
    polys = [_table_poly(ring, terms) for terms in polys]
    table = {}
    assert [p.substitute(images, table) for p in polys] == [p.substitute(images) for p in polys]


def _counting(field):
    """A copy of the field whose `_mul` counts its calls in `calls`, and
    whose `_add` counts its calls in `sums`."""
    cls = type(field)

    class Counting(cls):
        calls = sums = 0

        def _mul(self, a, b):
            Counting.calls += 1
            return cls._mul(self, a, b)

        def _add(self, a, b):
            Counting.sums += 1
            return cls._add(self, a, b)

    if isinstance(field, NumberField):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnverifiedIrreducibilityWarning)
            return Counting(field.minimal_poly, field.generator_name)
    return Counting(field.p) if cls is PrimeField else Counting()


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=["Q", "GF32003", "Qsqrt2"])
@settings(max_examples=40, deadline=None)
@given(polys=st.lists(_table_terms, min_size=1, max_size=4),
       point=st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)))
def test_the_table_makes_one_product_per_new_monomial(field, polys, point):
    ring = PolynomialRing(field, ("x", "y", "z"))
    polys = [_table_poly(ring, terms) for terms in polys]
    constants = [ring.from_scalar(c) for c in point]
    products = []

    def counting(*args):
        products.append(args)
        return raw_product(*args)

    raw_product, table = polynomials._raw_product, {}
    polys[0].substitute(constants, table)
    with patch.object(polynomials, "_raw_product", counting):
        for p in polys:
            entries, calls = len(table), len(products)
            value = p.substitute(constants, table).constant_coefficient()
            assert len(products) - calls == len(table) - entries
            assert value == p.evaluate(point)
    assert set(table) >= {m for p in polys for m in p.terms}


# ---------------------------------------------------------------------------
# evaluation in ints at points with integer coordinates
# ---------------------------------------------------------------------------

with warnings.catch_warnings():
    warnings.simplefilter("ignore", UnverifiedIrreducibilityWarning)
    ZETA7 = NumberField([1] * 7, "w")
INTEGRAL_FIELDS = [Q, PrimeField(2), PrimeField(32003), SQRT2, ZETA7]
INTEGRAL_IDS = ["Q", "GF2", "GF32003", "Qsqrt2", "Qzeta7"]
# odd denominators, so that every coefficient exists in GF(2) as well
_odd_fractions = st.builds(Fraction, st.integers(-40, 40),
                           st.integers(0, 12).map(lambda k: 2 * k + 1))
_integral_terms = st.dictionaries(st.tuples(*[st.integers(0, 16)] * 3),
                                  st.lists(_odd_fractions, min_size=1, max_size=6), max_size=8)
_integer_points = st.lists(st.integers(-20, 20), min_size=3, max_size=3)


def _integral_poly(ring, terms):
    """Coefficients sum_k c_k w^k over Q(w), c_0 elsewhere."""
    field = ring.field
    degree = field.degree if isinstance(field, NumberField) else 1
    powers = [field.generator ** k if k else field.one for k in range(degree)]
    return sum((ring.monomial(m, sum((c * w for c, w in zip(cs, powers)), field.zero))
                for m, cs in terms.items()), ring.zero)


def _values_at(field, polys, coordinates):
    """The polynomials' payloads at scalar coordinates through
    `IntegralValues`, the point lifted by `integral_vector`."""
    den, nums = integral_vector(coordinates)
    size = max([den] + [sum(map(abs, x)) for x in nums])
    values = IntegralValues(polys[0].ring, polys, size)
    spread = values.degree - 1 if any(any(x[1:]) for x in nums) else 0
    return list(values.at([values.pack(x) for x in nums], den, spread))


@pytest.mark.parametrize("field", INTEGRAL_FIELDS, ids=INTEGRAL_IDS)
@settings(max_examples=40, deadline=None)
@given(terms=_integral_terms, constant=_odd_fractions, point=_integer_points)
def test_integral_evaluation_equals_field_evaluation(field, terms, constant, point):
    ring = PolynomialRing(field, ("x", "y", "z"))
    polys = [_integral_poly(ring, terms), ring.zero, ring.from_scalar(constant)]
    # the drawn point, one with a zero coordinate, and its negative
    for coordinates in (point, [0] + point[1:], [-x for x in point]):
        at = [field.scalar(x) for x in coordinates]
        assert _values_at(field, polys, at) == [p.evaluate(at).value for p in polys]


@pytest.mark.parametrize("field", INTEGRAL_FIELDS, ids=INTEGRAL_IDS)
@settings(max_examples=20, deadline=None)
@given(terms=_integral_terms, point=_integer_points)
def test_integral_evaluation_makes_no_field_arithmetic(field, terms, point):
    field = _counting(field)
    ring = PolynomialRing(field, ("x", "y", "z"))
    p = _integral_poly(ring, terms)
    point = [field.scalar(x) for x in point]
    counts = type(field).calls, type(field).sums
    values = _values_at(field, [p], point)
    assert (type(field).calls, type(field).sums) == counts
    assert values == [p.evaluate(point).value]


@pytest.mark.parametrize("field", INTEGRAL_FIELDS, ids=INTEGRAL_IDS)
@settings(max_examples=20, deadline=None)
@given(polys=st.lists(_integral_terms, min_size=1, max_size=3),
       point=st.lists(st.lists(_odd_fractions, min_size=1, max_size=6), min_size=3, max_size=3))
def test_integral_evaluation_at_points_over_z_w(field, polys, point):
    # coordinates with denominators and, over Q(w), irrational ones; the
    # polynomials are of mixed degree, so that terms are scaled by den^(top - |a|)
    ring = PolynomialRing(field, ("x", "y", "z"))
    polys = [_integral_poly(ring, terms) for terms in polys]
    at = [_integral_poly(PolynomialRing(field, ()), {(): cs}).constant_coefficient()
          for cs in point]
    assert _values_at(field, polys, at) == [p.evaluate(at).value for p in polys]


# ---------------------------------------------------------------------------
# the product kernel on packed integers
# ---------------------------------------------------------------------------

with warnings.catch_warnings():
    warnings.simplefilter("ignore", UnverifiedIrreducibilityWarning)
    # monic with non-integral coefficients, so that t^3 mod m needs a denominator
    SCALED = NumberField([Fraction(-1, 3), Fraction(1, 2), 0, 1], "w")
PRODUCT_FIELDS = INTEGRAL_FIELDS + [SCALED]
PRODUCT_IDS = INTEGRAL_IDS + ["Q(w^3+w/2-1/3)"]
_big_fractions = st.builds(Fraction, st.integers(-2**70, 2**70),
                           st.integers(0, 4).map(lambda k: 2 * k + 1))
_product_terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                 st.lists(_big_fractions, min_size=1, max_size=6), max_size=4)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
@settings(max_examples=25, deadline=None)
@given(factors=st.lists(_product_terms, max_size=4))
def test_product_equals_the_fold_of_products(field, factors):
    ring = PolynomialRing(field, ("x", "y", "z"))
    factors = [_integral_poly(ring, terms) for terms in factors]
    expected = ring.one
    for f in factors:
        expected = expected * f
    assert product(ring, factors) == expected


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
def test_product_edge_cases(field):
    ring = PolynomialRing(field, ("x", "y"))
    w = getattr(field, "generator", field.one)
    f = ring.monomial((1, 0), w) - ring.monomial((0, 2), 3) + 2**70
    constant = ring.from_scalar(w * (-2**70) + 5)
    assert product(ring, []) == ring.one
    assert product(ring, [f]) == f
    assert product(ring, [f, ring.zero, f]).is_zero()
    assert product(ring, [constant, f, constant]) == constant * f * constant
    assert product(ring, [constant, constant]) == constant * constant
    with pytest.raises(ContextMismatch):
        product(ring, [f, PolynomialRing(field, ("y", "x")).one])


def test_scaled_field_reduces_long_vectors_exactly():
    assert SCALED._scale != 1
    w = SCALED.generator
    # (nums, den) longer than the degree, against powers of the generator
    nums = [3, -1, 0, 2**80, -5, 7, 1]
    expected = sum((w ** i * c for i, c in enumerate(nums)), SCALED.zero) / 11
    assert SCALED._from_integral(nums, 11) == expected.value
