import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from invar import invariants
from invar.cli import main
from invar.errors import (
    FieldTooSmall,
    ModularCase,
    NonHomogeneousInput,
)
from invar.fields import NumberField, Rationals, UnverifiedIrreducibilityWarning
from invar.groebner import SubalgebraOracle, buchberger, ideal_dimension, ideal_membership
from invar.groups import apply_element, close_group, reynolds
from invar.invariants import (
    dade_primary_invariants,
    degree_bound_report,
    invariant_basis,
    is_phsop,
    king_generators,
    noether_separating_set,
    reduce_separating_set,
    verify_noether_and_hilbert,
    verify_separation_samples,
)
from invar.linalg import Matrix
from invar.polynomials import GREVLEX, PolynomialRing, monomials_of_degree, product, transport
from invar.prng import XorShift
from invar.specfile import fixture_path, load_spec_file

Q = Rationals()


# ---------------------------------------------------------------------------
# invariant spaces
# ---------------------------------------------------------------------------

def test_invariant_basis_d8(d8):
    ring = d8.ring()
    x, y = ring.variables()
    basis2 = invariant_basis(d8, 2)
    assert len(basis2) == 1
    assert basis2[0].monic(GREVLEX) == x**2 + y**2
    assert invariant_basis(d8, 3) == []


def test_invariant_basis_trivial(trivial2):
    ring = trivial2.ring()
    assert invariant_basis(trivial2, 1) == ring.variables()


def test_invariant_basis_modular_works(c2_swap_gf2):
    # linear algebra path has no Reynolds, so the modular case is fine
    basis = invariant_basis(c2_swap_gf2, 1)
    ring = c2_swap_gf2.ring()
    x1, x2 = ring.variables()
    assert basis == [x1 + x2]


@pytest.mark.parametrize("name", ["s3_natural", "d8", "c2_swap_gf2"])
def test_invariant_basis_does_not_depend_on_equation_order(name):
    # reordering the generators reorders the equations, repeating one repeats
    # them; the echelonized basis of the solution space is unique
    group = load_spec_file(fixture_path(name)).group
    gens = list(group.generators)
    others = [close_group(gens[::-1]), close_group(gens + gens[:1])]
    bases = [invariant_basis(group, d) for d in range(1, 5)]
    assert any(bases)
    for other in others:
        assert [invariant_basis(other, d) for d in range(1, 5)] == bases


# ---------------------------------------------------------------------------
# King's algorithm
# ---------------------------------------------------------------------------

def test_king_trivial_group(trivial2):
    result = king_generators(trivial2)
    ring = trivial2.ring()
    assert result.generators == [ring.variable(1), ring.variable(0)]
    assert result.degrees == [1, 1]
    assert result.termination_degree == 2
    assert result.minimal


def test_king_c2_swap_against_bruteforce_oracle(c2_swap):
    result = king_generators(c2_swap)
    assert sorted(result.degrees) == [1, 2]
    ring = c2_swap.ring()
    # oracle: Reynolds images of every monomial of degree <= |G|
    images = []
    for d in range(1, c2_swap.order + 1):
        for m in monomials_of_degree(ring, d):
            img = reynolds(ring.monomial(m), c2_swap)
            if not img.is_zero() and img not in images:
                images.append(img)
    king_oracle = SubalgebraOracle(result.generators)
    assert all(king_oracle.contains(f) for f in images)
    assert all(g in images for g in result.generators)


def test_king_modular_case(c2_swap_gf2):
    # one check raises the text stored in tests/golden_cli.json
    ring = c2_swap_gf2.ring()
    result = king_generators(close_group([Matrix.identity(c2_swap_gf2.field, 2)]))
    for call in (lambda: king_generators(c2_swap_gf2),
                 lambda: verify_noether_and_hilbert(c2_swap_gf2, result),
                 lambda: reynolds(ring.variable(0), c2_swap_gf2)):
        with pytest.raises(ModularCase, match="^characteristic 2 divides group order 2$"):
            call()


def test_king_d8_pass_trace(d8):
    # documented run: the quadratic average joins at pass 2 (leading
    # monomial x1^2), the degree-8 average at pass 8 with normal form
    # leading monomial x2^8, and nothing else is ever adjoined
    result = king_generators(d8)
    assert result.trace == [
        (2, (0, 2), (2, 0)),
        (8, (0, 8), (0, 8)),
    ]


def test_king_alternative_orders_generate_same_subalgebra(c2_swap):
    from invar.polynomials import GRADEDLEX, LEX

    reference = king_generators(c2_swap, GREVLEX)
    ref_oracle = SubalgebraOracle(reference.generators)
    for order in (LEX, GRADEDLEX):
        result = king_generators(c2_swap, order)
        assert sorted(result.degrees) == sorted(reference.degrees)
        oracle = SubalgebraOracle(result.generators)
        assert all(oracle.contains(g) for g in reference.generators)
        assert all(ref_oracle.contains(g) for g in result.generators)


def test_king_generators_are_invariant():
    """Every bundled finite fixture that `generators` accepts."""
    checked = 0
    for path in sorted(Path(fixture_path("d8")).parent.glob("*.json")):
        loaded = load_spec_file(str(path))
        if loaded.kind != "finite_matrix" or loaded.group.is_modular():
            continue
        group = loaded.group
        for g in king_generators(group).generators:
            assert g.is_homogeneous()
            for sigma in group.generators:
                assert apply_element(g, sigma) == g
        checked += 1
    assert checked == 8


def test_king_minimality_small_groups(c2_swap, cn3, minus_identity):
    for group in (c2_swap, cn3, minus_identity):
        result = king_generators(group)
        gens = result.generators
        for i in range(len(gens)):
            rest = [g for j, g in enumerate(gens) if j != i]
            if not rest:
                continue
            assert SubalgebraOracle(rest).express(gens[i]) is None


def test_king_on_rational_rotation_groups():
    # small subgroups of GL2(Q) beyond the bundled specs; full verification:
    # degree bound, Hilbert-ideal monomials, and subalgebra closure
    rotations = {
        "C3": [[0, -1], [1, -1]],
        "C4": [[0, -1], [1, 0]],
        "C6": [[0, -1], [1, 1]],
    }
    reflection = [[0, 1], [1, 0]]
    groups = {}
    for name, rot in rotations.items():
        groups[name] = close_group([Matrix.from_rows(Q, rot)], label=name)
    groups["D3"] = close_group(
        [Matrix.from_rows(Q, rotations["C3"]), Matrix.from_rows(Q, reflection)],
        label="D3",
    )
    groups["D4"] = close_group(
        [Matrix.from_rows(Q, rotations["C4"]), Matrix.from_rows(Q, [[1, 0], [0, -1]])],
        label="D4",
    )
    expected_orders = {"C3": 3, "C4": 4, "C6": 6, "D3": 6, "D4": 8}
    for name, group in groups.items():
        assert group.order == expected_orders[name]
        result = king_generators(group)
        assert result.termination_degree <= group.order + 1
        report = verify_noether_and_hilbert(group, result)
        assert report.all_ok, name


def test_verify_noether_and_hilbert(c2_swap, s3):
    for group in (c2_swap, s3):
        result = king_generators(group)
        report = verify_noether_and_hilbert(group, result)
        assert report.all_ok
        # dropping a generator must break the subalgebra check
        dropped = type(result)(
            generators=result.generators[:-1],
            degrees=result.degrees[:-1],
            termination_degree=result.termination_degree,
            minimal=False,
        )
        assert not verify_noether_and_hilbert(group, dropped).subalgebra_ok


# ---------------------------------------------------------------------------
# separating sets
# ---------------------------------------------------------------------------

def test_noether_separating_single_variable():
    group = close_group([Matrix.from_rows(Q, [[1]])])
    result = noether_separating_set(group)
    ring = group.ring()
    assert result.invariants == [ring.variable(0)]
    assert result.homogeneous


def test_noether_separating_c2(c2_swap):
    result = noether_separating_set(c2_swap)
    ring = c2_swap.ring()
    x1, x2 = ring.variables()
    assert x1 + x2 in result.invariants
    assert x1 * x2 in result.invariants
    assert all(p.total_degree() <= c2_swap.order for p in result.invariants)
    assert all(p.is_homogeneous() for p in result.invariants)


def test_noether_separating_degrees_and_invariance(s3, cn4):
    for group in (s3, cn4):
        result = noether_separating_set(group)
        for p in result.invariants:
            assert p.total_degree() <= group.order
            for sigma in group.generators:
                assert p.apply_linear_map(sigma) == p


def test_noether_separating_modular(c2_swap_gf2):
    result = noether_separating_set(c2_swap_gf2)
    assert result.invariants
    report = verify_separation_samples(result.invariants, c2_swap_gf2, pairs=40)
    assert report.passed


def test_cn_scalar_three_invariant_separating_family(cn4):
    # the three monomials x1^n, x1^(n-1) x2, x2^n separate the scalar action
    ring = cn4.ring()
    x1, x2 = ring.variables()
    n = cn4.order
    family = [x1**n, x1 ** (n - 1) * x2, x2**n]
    report = verify_separation_samples(family, cn4, pairs=100)
    assert report.passed


def test_separation_samples_detect_bad_set(c2_swap):
    ring = c2_swap.ring()
    report = verify_separation_samples([ring.variable(0)], c2_swap, pairs=50)
    assert not report.passed
    assert report.counterexamples


def test_separation_samples_report_a_non_invariant(d8):
    x1 = d8.ring().variable(0)
    report = verify_separation_samples([x1], d8, pairs=20)
    assert not report.passed
    assert {(c["kind"], c["invariant"]) for c in report.counterexamples} >= {("same-orbit", x1)}


def test_separation_samples_report_a_set_that_does_not_separate(d8):
    # x^2 + y^2 alone cannot tell orbits of one radius apart, such as
    # those of (3, 4) and (0, 5)
    (quadric,) = invariant_basis(d8, 2)
    report = verify_separation_samples([quadric], d8, pairs=100, coordinate_bound=5, seed=2)
    assert not report.passed
    assert {c["kind"] for c in report.counterexamples} == {"distinct-orbit"}
    for c in report.counterexamples:
        assert quadric.evaluate(c["v"]) == quadric.evaluate(c["w"])
        assert not any(sigma.apply(c["v"]) == c["w"] for sigma in d8.elements)


def _reference_separation(invariants, group, pairs, coordinate_bound, seed):
    """The sampling loop of `verify_separation_samples` without shared
    tables or payload rows: one evaluation per invariant and point, and
    orbit membership through `Matrix.apply`."""
    rng = XorShift(seed)
    field, n = group.field, group.dimension
    counterexamples, same_checked, distinct_checked = [], 0, 0

    def random_point():
        return tuple(field.scalar(rng.randint(-coordinate_bound, coordinate_bound))
                     for _ in range(n))

    for _ in range(pairs):
        v = random_point()
        sigma = group.elements[rng.next_u64() % group.order]
        w = sigma.apply(v)
        same_checked += 1
        for g in invariants:
            if g.evaluate(v) != g.evaluate(w):
                counterexamples.append(("same-orbit", g, v, w))
                break
        for _ in range(20):
            v = random_point()
            w = random_point()
            if not any(sigma.apply(v) == w for sigma in group.elements):
                break
        else:
            continue
        distinct_checked += 1
        if all(g.evaluate(v) == g.evaluate(w) for g in invariants):
            counterexamples.append(("distinct-orbit", None, v, w))
    return same_checked, distinct_checked, counterexamples


def _sampled_group(name):
    """Fixtures, and the C3 x C3 and C7 groups over cyclotomic fields."""
    if name == "c3xc3":
        K = NumberField([1, 1, 1], "w")
        w = K.generator
        return close_group([Matrix.from_rows(K, [[w, 0], [0, 1]]),
                            Matrix.from_rows(K, [[1, 0], [0, w]])])
    if name == "c7":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnverifiedIrreducibilityWarning)
            K = NumberField([1] * 7, "w")
        w = K.generator
        return close_group([Matrix.from_rows(K, [[w, 0], [0, w**6]])])
    return load_spec_file(fixture_path(name)).group


@pytest.mark.parametrize("name", ["d8", "s3_natural", "c2_swap_gf2", "c3xc3", "c7"])
def test_separation_samples_match_the_reference_loop(name):
    group = _sampled_group(name)
    noether = noether_separating_set(group).invariants
    candidate_sets = [noether, noether[:1], [group.ring().variable(0)] + noether]
    for seed in range(4):
        for candidates in candidate_sets:
            report = verify_separation_samples(candidates, group, pairs=25, coordinate_bound=3,
                                               seed=seed)
            got = (report.same_orbit_checked, report.distinct_orbit_checked,
                   [(c["kind"], c["invariant"], c["v"], c["w"]) for c in report.counterexamples])
            assert got == _reference_separation(candidates, group, 25, 3, seed)


@pytest.mark.parametrize("name", ["d8", "c3xc3", "c2_swap_gf2"])
@settings(max_examples=8, deadline=None)
@given(terms=st.lists(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                      st.tuples(st.integers(-4, 4), st.integers(-2, 2),
                                                st.integers(1, 3)), max_size=4),
                      min_size=1, max_size=3))
def test_separation_samples_of_inhomogeneous_candidates(name, terms):
    # candidates of mixed degrees with rational and irrational coefficients,
    # against the reference loop, under elements with denominators
    group = _sampled_group(name)
    ring, field = group.ring(), group.field
    w = getattr(field, "generator", field.zero)
    candidates = [sum((ring.monomial(m, (field.scalar(a) + w * b) / d)
                       for m, (a, b, d) in t.items() if field.characteristic() == 0 or d == 1),
                      ring.zero) for t in terms]
    report = verify_separation_samples(candidates, group, pairs=12, coordinate_bound=3, seed=5)
    got = (report.same_orbit_checked, report.distinct_orbit_checked,
           [(c["kind"], c["invariant"], c["v"], c["w"]) for c in report.counterexamples])
    assert got == _reference_separation(candidates, group, 12, 3, 5)


def test_reduce_noop_when_small(c2_swap):
    noether = noether_separating_set(c2_swap)
    result = reduce_separating_set(noether.invariants)
    assert result.invariants == noether.invariants
    assert result.alphas == []


def test_reduce_separating_set_c5(cn5):
    noether = noether_separating_set(cn5)
    assert noether.size == 6  # one more than 2n+1
    result = reduce_separating_set(noether.invariants)
    assert result.size <= 5
    # all inputs share degree 5, so the combinations happen to stay homogeneous
    assert result.homogeneous == all(p.is_homogeneous() for p in result.invariants)
    assert len(result.alphas) == 1
    # recorded alpha reconstructs the output as linear combinations
    alpha = [cn5.field.scalar(a) for a in result.alphas[0]]
    rebuilt = [
        alpha[0] * noether.invariants[i] - alpha[i] * noether.invariants[0]
        for i in range(1, noether.size)
    ]
    assert rebuilt == result.invariants
    report = verify_separation_samples(result.invariants, cn5, pairs=60)
    assert report.passed


def test_reduce_mixed_degree_set(c2_swap):
    # inflate the separating set with redundant invariants of other degrees;
    # one reduction round must fire and the output stays separating
    noether = noether_separating_set(c2_swap).invariants
    ring = c2_swap.ring()
    x1, x2 = ring.variables()
    e1 = x1 + x2
    inflated = noether + [e1**3, e1**4, x1 * x2 * e1]
    assert len(inflated) == 6
    result = reduce_separating_set(inflated)
    assert result.size == 5
    assert len(result.alphas) == 1
    assert not result.homogeneous  # combinations now mix degrees
    report = verify_separation_samples(result.invariants, c2_swap, pairs=60)
    assert report.passed


@pytest.mark.parametrize("names", [("t_aux", "T1"), ("a", "a_cp")])
def test_reduce_renames_its_auxiliary_variables(c2_swap, names):
    # the ring's own names may be the ones the reduction adjoins: the y
    # copies <x>_cp, t_aux and the tags T1..Tk
    ring = c2_swap.ring()
    x1, x2 = ring.variables()
    e1 = x1 + x2
    inflated = noether_separating_set(c2_swap).invariants + [e1**3, e1**4, x1 * x2 * e1]
    clash = PolynomialRing(ring.field, names)
    rename = dict(zip(ring.names, names))
    result = reduce_separating_set([transport(f, clash, rename) for f in inflated])
    expected = reduce_separating_set(inflated)
    assert result.alphas == expected.alphas and len(result.alphas) == 1
    assert result.invariants == [transport(f, clash, rename) for f in expected.invariants]


def test_reduce_rejects_finite_fields(c2_swap_gf2):
    noether = noether_separating_set(c2_swap_gf2)
    with pytest.raises(FieldTooSmall):
        reduce_separating_set(noether.invariants)


# ---------------------------------------------------------------------------
# parameter systems and bounds
# ---------------------------------------------------------------------------

def is_hsop(polys, n):
    """A homogeneous system of parameters: n polynomials forming a phsop."""
    polys = list(polys)
    return len(polys) == n and is_phsop(polys)


def test_hsop_examples(d8):
    ring = d8.ring()
    x, y = ring.variables()
    assert is_hsop([x, y], 2)
    g2 = x**2 + y**2
    g8 = x**2 * y**2 * (x**2 - y**2) ** 2
    assert is_hsop([g2, g8], 2)
    assert is_phsop([x * y])
    assert not is_hsop([x * y, x * y], 2)
    with pytest.raises(NonHomogeneousInput):
        is_phsop([x**2 + x])


def test_dade_trivial(trivial2):
    prim = dade_primary_invariants(trivial2, seed=0)
    assert [p.total_degree() for p in prim] == [1, 1]
    assert is_hsop(prim, 2)


def test_dade_rejects_finite_fields(c2_swap_gf2):
    with pytest.raises(FieldTooSmall):
        dade_primary_invariants(c2_swap_gf2, seed=0)


def test_dade_c2(c2_swap):
    prim = dade_primary_invariants(c2_swap, seed=0)
    assert is_hsop(prim, 2)
    for p in prim:
        assert c2_swap.order % p.total_degree() == 0  # orbit sizes divide |G|


def test_dade_tests_each_list_once(s3, monkeypatch):
    # the test that accepts the last slot is the hsop test of the result,
    # so no list is tested again
    tested = []

    def recording_is_phsop(polys):
        tested.append(tuple(polys))
        return is_phsop(polys)

    monkeypatch.setattr(invariants, "is_phsop", recording_is_phsop)
    prim = dade_primary_invariants(s3, seed=1)
    assert len(set(tested)) == len(tested)
    assert tested[-1] == tuple(prim)


def test_dade_s3_and_d8(s3, d8):
    for group in (s3, d8):
        prim = dade_primary_invariants(group, seed=0)
        assert is_hsop(prim, group.dimension)
        for p in prim:
            assert p.total_degree() <= group.order
            for sigma in group.generators:
                assert p.apply_linear_map(sigma) == p


def test_degree_bound_report(d8, c2_swap):
    rep = degree_bound_report(d8, [2, 8])
    assert (rep.symonds_bound, rep.coarse_bound, rep.noether_bound) == (8, 30, 16)
    assert rep.noether_applies
    assert degree_bound_report(d8, [1, 1]).symonds_bound == 0
    assert degree_bound_report(c2_swap, [1, 2]).coarse_bound == 2


# ---------------------------------------------------------------------------
# the modular certificate of the hsop test
# ---------------------------------------------------------------------------

def _dimension_over_q(polys):
    return ideal_dimension(buchberger(polys, GREVLEX))


def test_phsop_falls_back_to_q_when_the_prime_is_unlucky(monkeypatch):
    # mod 7 the ideal is (xy, x^2), of dimension 1; over Q it has dimension 0
    ring = PolynomialRing(Q, ("x", "y"))
    polys = [ring.parse("x*y"), ring.parse("x^2 + 7*y^2")]
    monkeypatch.setattr(invariants, "MODULAR_PRIME", 7)
    real = invariants._dimension_mod_prime
    mod_p = []

    def recording(fs):
        mod_p.append(real(fs))
        return mod_p[-1]

    monkeypatch.setattr(invariants, "_dimension_mod_prime", recording)
    assert is_phsop(polys)
    assert mod_p == [1]
    assert _dimension_over_q(polys) == 0


def test_phsop_certificate_skips_denominators_and_vanishing_generators():
    p = invariants.MODULAR_PRIME
    ring = PolynomialRing(Q, ("x", "y"))
    x, y = ring.variables()
    vanishing = [ring.parse(f"{p}*x^2")]
    assert invariants._dimension_mod_prime(vanishing) == 2
    assert is_phsop(vanishing)
    assert not is_phsop([x * p, x])
    dividing = [ring.parse(f"x^2/{p} + y^2"), x * y]
    assert invariants._dimension_mod_prime(dividing) is None
    assert is_phsop(dividing)
    assert not is_phsop([ring.parse(f"x^2/{p}"), x * y])


_COEFFICIENTS = st.builds(lambda num, den: Q.scalar(num) / den,
                          st.integers(-10, 10), st.sampled_from([1] * 8 + [2, 3, 5]))


@st.composite
def _homogeneous_systems(draw):
    n = draw(st.integers(1, 3))
    ring = PolynomialRing(Q, tuple(f"x{i + 1}" for i in range(n)))
    polys = []
    for _ in range(draw(st.integers(1, n))):
        d = draw(st.integers(1, 3 if n < 3 else 2))
        monos = monomials_of_degree(ring, d)
        coeffs = draw(st.lists(st.one_of(st.just(Q.zero), _COEFFICIENTS),
                               min_size=len(monos), max_size=len(monos)))
        f = sum((ring.monomial(m, c) for m, c in zip(monos, coeffs)), ring.zero)
        assume(not f.is_zero())
        polys.append(f)
    return polys


@settings(max_examples=150, deadline=None)
@given(polys=_homogeneous_systems())
def test_phsop_matches_the_computation_over_q(polys):
    # mod 5 many systems lose rank, so the certificate often has to decline
    n, k = polys[0].ring.nvars, len(polys)
    with mock.patch.object(invariants, "MODULAR_PRIME", 5):
        assert is_phsop(polys) == (_dimension_over_q(polys) == n - k)


def test_primary_invariants_unchanged_by_the_certificate(capsys, monkeypatch):
    # seeds 0-9 of s3_natural give the same reports with the certificate off
    def reports():
        out = []
        for seed in range(10):
            argv = ["analyze", "primary", fixture_path("s3_natural"), "--seed", str(seed), "--json"]
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    real = invariants._dimension_mod_prime
    certified = []

    def recording(polys):
        dim = real(polys)
        certified.append(dim == 3 - len(polys))
        return dim

    monkeypatch.setattr(invariants, "_dimension_mod_prime", recording)
    with_certificate = reports()
    assert any(certified)
    monkeypatch.setattr(invariants, "_dimension_mod_prime", lambda polys: None)
    assert reports() == with_certificate


# ---------------------------------------------------------------------------
# the Hilbert check through leading monomials, and the orbit products
# ---------------------------------------------------------------------------

def _reference_holds_degree(gens, d):
    """Every degree-d monomial has normal form zero: the check's own
    path for inhomogeneous generators."""
    basis = buchberger(gens, GREVLEX)
    return all(ideal_membership(gens[0].ring.monomial(m), basis)
               for m in monomials_of_degree(gens[0].ring, d))


_forms = st.lists(st.tuples(st.integers(1, 3), st.lists(st.integers(-3, 3), min_size=10,
                                                         max_size=10)), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(forms=_forms, d=st.integers(1, 4))
def test_hilbert_check_by_leading_monomials_matches_normal_forms(forms, d):
    ring = PolynomialRing(Rationals(), ("x", "y", "z"))
    # a homogeneous form of each drawn degree, from the drawn coefficients
    gens = [sum((ring.monomial(m, c) for m, c in zip(monomials_of_degree(ring, k), cs)),
                ring.zero) for k, cs in forms]
    assume(not all(g.is_zero() for g in gens))
    squares = [v**2 for v in ring.variables()]  # every monomial of degree 4 and up
    for candidate in (gens, gens + squares):
        verdict = invariants._holds_degree(buchberger(candidate, GREVLEX), d)
        assert verdict == _reference_holds_degree(candidate, d)
    assert invariants._holds_degree(buchberger(gens + squares, GREVLEX), 4)
    assert not invariants._holds_degree(buchberger(gens[:1], GREVLEX), d)


def test_hilbert_check_keeps_normal_forms_for_inhomogeneous_generators():
    ring = PolynomialRing(Rationals(), ("x", "y"))
    x, y = ring.variables()
    # the leading monomials x^2, xy, y^2 of the last basis cover degree 2,
    # yet x^2 has normal form y
    for gens, expected in (([x - 1, x], True), ([x - 1, y - 1], False),
                           ([x**2 - y, x * y, y**2], False)):
        basis = buchberger(gens, GREVLEX)
        assert invariants._holds_degree(basis, 2) == _reference_holds_degree(gens, 2) == expected


@pytest.mark.parametrize("name", ["s3_natural", "d8"])
def test_hilbert_verdicts_when_a_generator_is_dropped(name):
    group = load_spec_file(fixture_path(name)).group
    result = king_generators(group)
    assert verify_noether_and_hilbert(group, result).hilbert_monomials_ok
    for i in range(len(result.generators)):
        gens = result.generators[:i] + result.generators[i + 1:]
        dropped = type(result)(generators=gens, degrees=result.degrees[:i] + result.degrees[i + 1:],
                               termination_degree=result.termination_degree, minimal=False)
        expected = _reference_holds_degree(gens, group.order) if gens else False
        assert verify_noether_and_hilbert(group, dropped).hilbert_monomials_ok == expected


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


@pytest.mark.parametrize("name", ["s3_natural", "d8"])
def test_noether_product_matches_sympy(sympy, name):
    group = load_spec_file(fixture_path(name)).group
    n = group.dimension
    big = PolynomialRing(group.field, group.ring().names + ("t", "y"))
    xs, (t, y, w) = sympy.symbols(big.names[:n]), sympy.symbols("t y w")

    def value(scalar, w=w):
        return sympy.sympify(str(scalar).replace("^", "**"), locals={"w": w})

    # the oracle: prod_sigma (y - sum_i sigma(x_i) t^i), sigma(x_i) = sum_j sigma_ij x_j,
    # multiplied over Q[w] and reduced modulo w^2 - 2 (d8 is defined over Q[w]/(w^2 - 2))
    gens = (*xs, t, y, w)
    expected = sympy.Poly(1, *gens, domain=sympy.QQ)
    for sigma in group.elements:
        form = sum(value(c) * xs[j] * t**i for i, row in enumerate(sigma.rows)
                   for j, c in enumerate(row))
        expected *= sympy.Poly(y - form, *gens, domain=sympy.QQ)
    expected = expected.rem(sympy.Poly(w**2 - 2, *gens, domain=sympy.QQ))
    coefficients = {}
    for m, c in expected.terms():
        coefficients[m[:-1]] = coefficients.get(m[:-1], 0) + c * sympy.sqrt(2) ** m[-1]
    generic = sum((big.monomial(tuple(int(j == i) for j in range(n)) + (i, 0))
                   for i in range(n)), big.zero)
    factors = [big.variable(n + 1) - apply_element(generic, sigma) for sigma in group.elements]
    got = product(big, factors)
    assert {m: value(c, sympy.sqrt(2)) for m, c in got.terms.items()} == {
        m: c for m, c in coefficients.items() if c != 0}
