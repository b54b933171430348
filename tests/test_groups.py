from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from time import perf_counter
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from invar.errors import CapExceeded, ModularCase, PositiveCharacteristic, SingularGenerator
from invar.fields import MODULAR_PRIME, PrimeField, Rationals, Scalar
from invar.groups import (
    FiniteMatrixGroup,
    apply_element,
    classify_element,
    close_group,
    cohen_macaulay_necessary_condition,
    element_order,
    generated_by_predicate,
    is_bireflection_group,
    is_reflection_group,
    molien_series,
    reynolds,
)
from invar.invariants import invariant_basis
from invar.linalg import Matrix
from invar.polynomials import Polynomial, PolynomialRing
from invar.prng import XorShift
from invar.specfile import fixture_path, load_spec_file

Q = Rationals()


def qmat(rows):
    return Matrix.from_rows(Q, rows)


def test_closure_orders(d8, trivial2, minus_identity, s3, c2_swap):
    assert d8.order == 16
    assert trivial2.order == 1
    assert minus_identity.order == 2
    assert s3.order == 6
    assert c2_swap.order == 2
    for g in d8.generators:
        assert d8.contains(g)


def test_closure_cap_and_singular():
    shear = qmat([[1, 1], [0, 1]])  # infinite order
    with pytest.raises(CapExceeded):
        close_group([shear], cap=50)
    with pytest.raises(SingularGenerator):
        close_group([qmat([[1, 0], [0, 0]])])


@pytest.mark.parametrize("rows", [[[1, 1], [0, 1]], [[1, 1], [1, 0]]],
                         ids=["unipotent", "golden-ratio"])
def test_infinite_order_generators_passing_the_det_test_fail_fast(rows):
    # det(1 - t*g) is (1 - t)^2 and 1 - t - t^2: integral and within the
    # binomial bound, so only g^12 != 1 rules out finite order
    start = perf_counter()
    with pytest.raises(CapExceeded, match=r"infinite order: g\^12 != 1 modulo 2147483647"):
        close_group([qmat(rows)])
    assert perf_counter() - start < 1


def test_denominators_divisible_by_the_prime_skip_the_modular_test():
    # g^12 has no image mod p, so finite order is left to the closure
    p = MODULAR_PRIME
    assert close_group([qmat([[0, p], [Fraction(1, p), 0]])]).order == 2
    with pytest.raises(CapExceeded, match="closure exceeded cap 50"):
        close_group([qmat([[1, Fraction(1, p)], [0, 1]])], cap=50)


def _permutation(images):
    return [[int(images[i] == j) for j in range(len(images))] for i in range(len(images))]


_ROTATION_6 = [[1, -1], [1, 0]]  # x^2 - x + 1: order 6
_ROTATION_3 = [[0, -1], [1, -1]]  # x^2 + x + 1: order 3
_ZERO_2 = [[0, 0], [0, 0]]


def _blocks(a, b):
    return [ra + rz for ra, rz in zip(a, _ZERO_2)] + [rz + rb for rz, rb in zip(_ZERO_2, b)]


@pytest.mark.parametrize("generators,order", [
    ([_permutation([1, 2, 3, 0]), _permutation([1, 0, 2, 3])], 24),  # S4
    ([_ROTATION_6, [[0, 1], [1, 0]]], 12),  # D12
    ([_blocks(_ROTATION_3, [[1, 0], [0, 1]]), _blocks([[1, 0], [0, 1]], _ROTATION_3)], 9),
    ([[[0, 1, 0], [1, 0, 0], [0, 0, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
      [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]], 48),  # signed permutations of three
], ids=["s4", "d12", "c3xc3", "signed-permutations-3"])
def test_rational_groups_pass_the_order_tests_and_close(generators, order):
    assert close_group([qmat(g) for g in generators]).order == order


def test_finite_order_rational_generator_with_fractions_closes():
    # the companion matrix of x^2 - x + 1 conjugated by [[1, 1/2], [0, 1]]:
    # its characteristic polynomial is integral although its entries are not
    sigma = qmat([[Fraction(-1, 2), Fraction(-7, 4)], [1, Fraction(3, 2)]])
    group = close_group([sigma])
    assert group.order == 6
    assert element_order(sigma, 10) == 6


def test_closure_is_group(d8):
    elems = set(d8.elements)
    identity = d8.identity()
    assert identity in elems
    for a in d8.elements:
        assert any(a @ b == identity for b in elems)  # a's inverse is an element
        for b in d8.generators:
            assert a @ b in elems


def test_reynolds_d8_values(d8):
    ring = d8.ring()
    x, y = ring.variables()
    assert reynolds(y**2, d8) == (x**2 + y**2) / 2
    assert reynolds(x * y, d8).is_zero()
    inv = (x**2 + y**2) / 2
    assert reynolds(inv, d8) == inv  # projection fixes invariants


def test_reynolds_idempotent_and_invariant(d8, c2_swap):
    for group in (c2_swap, d8):
        ring = group.ring()
        rng = XorShift(31)
        for _ in range(100):
            p = ring.zero
            for _ in range(4):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                p = p + ring.monomial(exps, rng.randint(-5, 5))
            image = reynolds(p, group)
            assert reynolds(image, group) == image
            for g in group.generators:
                assert image.apply_linear_map(g) == image


def test_reynolds_shared_power_tables_match_the_plain_average(d8, s3, cn5):
    # each element's monomial images outlive the call and are kept per ring
    small = d8.ring()
    big = PolynomialRing(d8.field, small.names + ("t",))
    rng = XorShift(5)
    for ring in (small, big, small):
        for _ in range(10):
            exps = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
            f = ring.monomial(exps, rng.randint(1, 5))
            plain = sum((apply_element(f, s) for s in d8.elements), ring.zero) / d8.order
            assert reynolds(f, d8) == plain
    # multi-term input over Q(sqrt 2), Q(zeta_5), Q and GF(5), where 5 does not divide |S3|
    gf5 = close_group([Matrix.from_rows(PrimeField(5), rows)
                       for rows in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                                    [[0, 1, 0], [0, 0, 1], [1, 0, 0]])])
    for group in (d8, cn5, s3, gf5):
        small = group.ring()
        big = PolynomialRing(group.field, small.names + ("t",))
        for ring in (small, big, small):
            for _ in range(5):
                f = ring.zero
                for _ in range(rng.randint(1, 4)):
                    exps = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
                    f = f + ring.monomial(exps, rng.randint(-5, 5))
                plain = sum((apply_element(f, s) for s in group.elements), ring.zero)
                plain = plain / group.order
                image = reynolds(f, group)
                assert image == plain
                image.terms.clear()
                assert reynolds(f, group) == plain


def test_reynolds_modular_case(c2_swap_gf2):
    ring = c2_swap_gf2.ring()
    with pytest.raises(ModularCase):
        reynolds(ring.variable(0), c2_swap_gf2)


class NotASubgroup(ValueError):
    pass


class NotHInvariant(ValueError):
    pass


def _is_subgroup(group: FiniteMatrixGroup, subgroup: Sequence) -> bool:
    sub = set(subgroup)
    if not sub or group.identity() not in sub:
        return False
    full = set(group.elements)
    if not sub <= full:
        return False
    return all(a @ b in sub for a in sub for b in sub)


@dataclass(frozen=True)
class CosetDecomposition:
    subgroup: tuple
    representatives: tuple

    @property
    def index(self) -> int:
        return len(self.representatives)


def coset_decomposition(group: FiniteMatrixGroup, subgroup: Sequence) -> CosetDecomposition:
    """Left coset representatives, greedily in group element order."""
    sub = list(subgroup)
    if not _is_subgroup(group, sub):
        raise NotASubgroup("element list is not a subgroup")
    covered = set()
    reps = []
    for sigma in group.elements:
        if sigma in covered:
            continue
        reps.append(sigma)
        for h in sub:
            covered.add(sigma @ h)
    return CosetDecomposition(subgroup=tuple(sub), representatives=tuple(reps))


def relative_trace(
    f: Polynomial,
    group: FiniteMatrixGroup,
    subgroup: Sequence,
    representatives: Optional[Sequence] = None,
) -> Polynomial:
    """Coset sum from the subgroup invariants up to the full invariants;
    the result does not depend on the representative choice."""
    decomposition = coset_decomposition(group, subgroup)
    for h in decomposition.subgroup:
        if apply_element(f, h) != f:
            raise NotHInvariant("polynomial is not fixed by the subgroup")
    reps = decomposition.representatives
    if representatives is not None:
        reps = tuple(representatives)
        covered = set()
        for r in reps:
            for h in decomposition.subgroup:
                covered.add(r @ h)
        if covered != set(group.elements) or len(reps) != decomposition.index:
            raise NotASubgroup("invalid coset representatives")
    total = f.ring.zero
    for sigma in reps:
        total = total + apply_element(f, sigma)
    return total


def test_relative_trace_whole_group_is_identity_map(c2_swap):
    ring = c2_swap.ring()
    x1, x2 = ring.variables()
    f = x1 + x2
    assert relative_trace(f, c2_swap, list(c2_swap.elements)) == f


def test_relative_trace_trivial_subgroup(d8):
    ring = d8.ring()
    f = ring.variable(1) ** 2
    tr = relative_trace(f, d8, [d8.identity()])
    assert tr == reynolds(f, d8) * d8.order


def test_relative_trace_gf2(c2_swap_gf2):
    ring = c2_swap_gf2.ring()
    x1, x2 = ring.variables()
    assert relative_trace(x1, c2_swap_gf2, [c2_swap_gf2.identity()]) == x1 + x2


def test_relative_trace_errors(d8):
    ring = d8.ring()
    tau = d8.generators[0]
    sub = close_group([tau])
    with pytest.raises(NotHInvariant):
        relative_trace(ring.variable(1), d8, list(sub.elements))
    with pytest.raises(NotASubgroup):
        relative_trace(ring.one, d8, [tau])  # no identity


def test_relative_trace_representative_independence(d8):
    tau = d8.generators[0]
    sub = close_group([tau])
    ring = d8.ring()
    x, y = ring.variables()
    f = y**2  # tau-invariant
    dec = coset_decomposition(d8, list(sub.elements))
    base = relative_trace(f, d8, list(sub.elements))
    # twist every representative inside its own coset
    twisted = [rep @ tau for rep in dec.representatives]
    assert relative_trace(f, d8, list(sub.elements), representatives=twisted) == base


def test_coset_lagrange(d8):
    for gens in ([d8.generators[0]], [d8.generators[1]], [d8.identity()], list(d8.generators)):
        sub = close_group(gens)
        dec = coset_decomposition(d8, list(sub.elements))
        assert dec.index * sub.order == d8.order


def test_classify_elements():
    assert classify_element(qmat([[1, 0], [0, 1]])).codimension == 0
    refl = classify_element(qmat([[1, 0], [0, -1]]))
    assert (refl.codimension, refl.label) == (1, "reflection")
    bi = classify_element(qmat([[-1, 0], [0, -1]]))
    assert (bi.codimension, bi.label) == (2, "bireflection")
    big = classify_element(qmat([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    assert (big.codimension, big.label) == (3, "other")


def test_element_order(d8):
    sigma = d8.generators[1]
    assert element_order(sigma, d8.order) == 8
    assert element_order(d8.identity(), d8.order) == 1


def test_generated_by_predicate(d8, minus_identity):
    assert is_reflection_group(d8)
    assert not is_reflection_group(minus_identity)
    assert is_bireflection_group(minus_identity)
    assert generated_by_predicate(d8, lambda m: True)


@pytest.mark.parametrize("name", ["d8", "s3_natural", "c2_swap", "c2_swap_gf2", "minus_identity",
                                  "cn_scalar_5", "trivial_2"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_generated_by_predicate_closes_what_the_whole_subset_closes(name, seed):
    group = load_spec_file(fixture_path(name)).group
    rng = XorShift(seed)
    subset = [g for g in group.elements if rng.randint(0, 2) == 0]
    order = close_group(subset).order if subset else 1
    assert generated_by_predicate(group, set(subset).__contains__) == (order == group.order)


def test_cm_condition_char0(d8, c2_swap, s3, minus_identity):
    for group in (d8, c2_swap, s3, minus_identity):
        assert cohen_macaulay_necessary_condition(group)


def test_molien_trivial(trivial2):
    series = molien_series(trivial2, 5)
    assert series == tuple(map(Q.scalar, [1, 2, 3, 4, 5, 6]))  # 1/(1-t)^2


def test_molien_sign_flip_one_variable():
    group = close_group([qmat([[-1]])])
    series = molien_series(group, 6)
    assert series == tuple(map(Q.scalar, [1, 0, 1, 0, 1, 0, 1]))


def test_molien_d8(d8):
    series = molien_series(d8, 8)
    assert [str(c) for c in series] == ["1", "0", "1", "0", "1", "0", "1", "0", "2"]


def test_molien_positive_characteristic(c2_swap_gf2):
    with pytest.raises(PositiveCharacteristic):
        molien_series(c2_swap_gf2, 4)


def test_molien_matches_invariant_dimensions(d8, c2_swap, s3, trivial2, minus_identity, cn3):
    for group in (d8, c2_swap, s3, trivial2, minus_identity, cn3):
        series = molien_series(group, 8)
        for e in range(9):
            dim = len(invariant_basis(group, e))
            assert series[e] == group.field.scalar(dim), (group.label, e)


def _reference_molien(group, truncation):
    """The group average of 1/det(1 - t*sigma), with the determinant
    expanded by cofactors over Q[t] and inverted as a power series."""
    field, n = group.field, group.dimension
    tring = PolynomialRing(field, ("t",))
    t = tring.variable(0)

    def det(rows):
        total, sign = tring.zero if rows else tring.one, 1
        for i, row in enumerate(rows):
            if not row[0].is_zero():
                minor = [r[1:] for j, r in enumerate(rows) if j != i]
                total = total + sign * row[0] * det(minor)
            sign = -sign
        return total

    total = [field.zero] * (truncation + 1)
    for sigma in group.elements:
        d = det([[tring.from_scalar(int(i == j)) - t * sigma.rows[i][j] for j in range(n)]
                 for i in range(n)])
        a = [d.terms.get((k,), field.zero) for k in range(d.total_degree() + 1)]
        out = [a[0].inverse()]
        for k in range(1, truncation + 1):
            acc = sum((a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1)), field.zero)
            out.append(-out[0] * acc)
        total = [x + y for x, y in zip(total, out)]
    return tuple(x / group.order for x in total)


@pytest.mark.parametrize("name", ["c2_swap", "cn_scalar_3", "cn_scalar_4", "cn_scalar_5", "d8",
                                  "minus_identity", "s3_natural", "trivial_2"])
def test_molien_matches_cofactor_reference(name):
    group = _fixture_group(name)
    assert molien_series(group, 15) == _reference_molien(group, 15)


@st.composite
def signed_permutation_groups(draw):
    n = draw(st.integers(1, 4))
    generators = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        generators.append(qmat([[signs[i] if j == perm[i] else 0 for j in range(n)]
                                for i in range(n)]))
    return close_group(generators)


@settings(max_examples=25, deadline=None)
@given(group=signed_permutation_groups())
def test_molien_matches_cofactor_reference_on_signed_permutations(group):
    series = molien_series(group, 15)
    assert series == _reference_molien(group, 15)
    assert all(isinstance(c, Scalar) for c in series)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


@pytest.mark.parametrize("name", ["c2_swap", "minus_identity", "s3_natural", "trivial_2", "d8"])
def test_molien_matches_sympy(sympy, name):
    group = _fixture_group(name)
    t = sympy.Symbol("t")
    w = {"w": sympy.sqrt(2)}  # d8 is defined over Q[w]/(w^2 - 2)

    def value(scalar):
        return sympy.sympify(str(scalar).replace("^", "**"), locals=w)

    average = sum(1 / (sympy.eye(group.dimension)
                       - t * sympy.Matrix([[value(x) for x in row] for row in sigma.rows])).det()
                  for sigma in group.elements) / group.order
    expansion = sympy.series(sympy.cancel(average), t, 0, 16).removeO()
    expected = [sympy.simplify(expansion.coeff(t, k)) for k in range(16)]
    assert [value(c) for c in molien_series(group, 15)] == expected


@lru_cache(maxsize=None)
def _fixture_group(name):
    return load_spec_file(fixture_path(name)).group


@pytest.mark.parametrize("name", ["d8", "c2_swap_gf2"])
@settings(max_examples=30, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        max_size=6,
    ),
    v=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_action_convention(name, terms, v):
    # sigma(f) evaluated at v is f evaluated at sigma(v), for every element
    group = _fixture_group(name)
    ring, field = group.ring(), group.field
    w = getattr(field, "generator", field.zero)  # sqrt(2) for d8
    f = ring.zero
    for exps, (a, b) in terms.items():
        f = f + ring.monomial(exps, field.scalar(a) + w * b)
    for sigma in group.elements:
        assert apply_element(f, sigma).evaluate(v) == f.evaluate(sigma.apply(v))
    constants = [ring.from_scalar(x) for x in v]
    assert f.evaluate(v) == f.substitute(constants).constant_coefficient()
