"""Acceptance suite: one test per release criterion, exact tolerances.

Every check is exact (integer or field-element equality); sampled
separation checks use the documented generator with seed 0.  Each test
prints a single PASS/FAIL line (visible with `pytest -s`).
"""

import json
import time
from contextlib import contextmanager

from invar.cli import main as cli_main
from invar.groebner import (
    SubalgebraOracle,
    buchberger,
    ideal_membership,
    reduce_basis,
)
from invar.groups import (
    cohen_macaulay_necessary_condition,
    is_bireflection_group,
    is_reflection_group,
    molien_series,
    reynolds,
)
from invar.invariants import (
    dade_primary_invariants,
    degree_bound_report,
    invariant_basis,
    is_phsop,
    king_generators,
    noether_separating_set,
    reduce_separating_set,
    verify_separation_samples,
)
from invar.algebraic import (
    algebraic_invariant_basis,
    derksen_generators,
    derksen_ideal,
    hilbert_ideal_generators,
    invariant_field_generators,
)
from invar.polynomials import GREVLEX, monomials_of_degree
from invar.specfile import fixture_path


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_1_d8_golden_run(d8):
    with criterion(1, "D8 golden run: generators, degrees, termination pass"):
        result = king_generators(d8, GREVLEX)
        ring = d8.ring()
        assert len(result.generators) == 2
        assert result.degrees == [2, 8]
        assert result.termination_degree == 9
        f2 = ring.parse("(x1^2 + x2^2)/2")
        f8 = ring.parse(
            "(9*x1^8 + 28*x1^6*x2^2 + 70*x1^4*x2^4 + 28*x1^2*x2^6 + 9*x2^8)/32"
        )
        assert result.generators == [f2, f8]


def test_criterion_2_hilbert_ideal_monomials(d8, c2_swap, s3):
    with criterion(2, "every monomial of degree |G| lies in the generator ideal"):
        for group in (d8, c2_swap, s3):
            gens = king_generators(group).generators
            basis = reduce_basis(buchberger(gens, GREVLEX))
            ring = group.ring()
            for m in monomials_of_degree(ring, group.order):
                assert ideal_membership(ring.monomial(m), basis), (group.label, m)


def test_criterion_3_cn_scalar_minimal_generation(cn3, cn4, cn5):
    with criterion(3, "Cn scalar actions: exactly n+1 generators, all of degree n"):
        for group in (cn3, cn4, cn5):
            n = group.order
            result = king_generators(group)
            assert len(result.generators) == n + 1
            assert all(d == n for d in result.degrees)


def test_criterion_4_oracle_equivalence_and_minimality(
    trivial2, c2_swap, minus_identity, cn3, cn4, cn5, s3, d8
):
    with criterion(4, "subalgebra contains all Reynolds images; removal breaks it"):
        for group in (trivial2, c2_swap, minus_identity, cn3, cn4, cn5, s3, d8):
            result = king_generators(group)
            ring = group.ring()
            oracle = SubalgebraOracle(result.generators)
            for d in range(1, group.order + 1):
                for m in monomials_of_degree(ring, d):
                    image = reynolds(ring.monomial(m), group)
                    if not image.is_zero():
                        assert oracle.contains(image), (group.label, m)
            for i in range(len(result.generators)):
                rest = [g for j, g in enumerate(result.generators) if j != i]
                if rest:
                    assert SubalgebraOracle(rest).express(result.generators[i]) is None, (
                        group.label,
                        i,
                    )


def test_criterion_5_separating_suites(c2_swap, s3, cn4):
    with criterion(5, "separating sets verified on 100 seeded sample pairs"):
        for group in (c2_swap, s3):
            noether = noether_separating_set(group)
            assert all(p.total_degree() <= group.order for p in noether.invariants)
            report = verify_separation_samples(
                noether.invariants, group, pairs=100, coordinate_bound=10, seed=0
            )
            assert report.passed, (group.label, report.counterexamples)
            assert report.same_orbit_checked == 100
        noether = noether_separating_set(cn4)
        reduced = reduce_separating_set(noether.invariants)
        assert reduced.size <= 2 * cn4.dimension + 1
        report = verify_separation_samples(
            reduced.invariants, cn4, pairs=100, coordinate_bound=10, seed=0
        )
        assert report.passed


def test_criterion_6_molien_cross_validation(d8, trivial2, c2_swap, s3):
    with criterion(6, "Molien coefficients equal invariant-space dimensions to degree 12"):
        for group in (d8, trivial2, c2_swap, s3):
            series = molien_series(group, 12)
            for e in range(13):
                dim = len(invariant_basis(group, e))
                assert series[e] == group.field.scalar(dim), (group.label, e)
        # free structure on generators of degrees 2 and 8: count monomials
        expected = [
            len([(a, b) for a in range(7) for b in range(3) if 2 * a + 8 * b == d])
            for d in (0, 2, 4, 6, 8)
        ]
        assert expected == [1, 1, 1, 1, 2]
        d8_series = molien_series(d8, 8)
        got = [d8_series[d] for d in (0, 2, 4, 6, 8)]
        assert got == [d8.field.scalar(c) for c in expected]


def test_criterion_7_gm_goldens(gm):
    with criterion(7, "weight (1,-1) torus: Derksen ideal, field, and generators"):
        ideal = derksen_ideal(gm)
        assert [str(g) for g in ideal.generators] == ["y1*y2 - x1*x2"]
        assert ideal.reduced
        field_gens = invariant_field_generators(gm)
        assert [str(c) for c in field_gens] == ["x1*x2"]
        gens = derksen_generators(gm)
        assert [str(g) for g in gens.generators] == ["x1*x2"]


def test_criterion_8_finite_as_variety_consistency(c2_variety, c2_swap):
    with criterion(8, "C2-as-variety specialization matches the averaging Hilbert ideal"):
        hilbert = hilbert_ideal_generators(c2_variety)
        king = king_generators(c2_swap)
        b_hilbert = reduce_basis(buchberger(hilbert, GREVLEX))
        b_king = reduce_basis(buchberger(king.generators, GREVLEX))
        assert all(ideal_membership(g, b_king) for g in hilbert)
        assert all(ideal_membership(g, b_hilbert) for g in king.generators)


def test_criterion_9_sl2_binary_quadratics(sl2):
    with criterion(9, "SL2 on binary quadratics: the discriminant generates"):
        t0 = time.time()
        assert algebraic_invariant_basis(sl2, 1) == []
        assert len(algebraic_invariant_basis(sl2, 2)) == 1
        result = derksen_generators(sl2)
        ring = result.generators[0].ring
        disc = ring.parse("x2^2 - 4*x1*x3")
        assert SubalgebraOracle(result.generators).contains(disc)
        disc_oracle = SubalgebraOracle([disc])
        assert all(disc_oracle.contains(g) for g in result.generators)
        assert time.time() - t0 < 60


def test_criterion_10_dade_and_bounds(s3, d8):
    with criterion(10, "Dade primary invariants verified; degree bound report"):
        for group in (s3, d8):
            prim = dade_primary_invariants(group, seed=0)
            assert len(prim) == group.dimension and is_phsop(prim)
        report = degree_bound_report(d8, [2, 8])
        assert report.symonds_bound == 8
        assert report.coarse_bound == 30
        assert report.noether_bound == 16


def test_criterion_11_classification(
    d8, minus_identity, trivial2, c2_swap, s3, cn3, cn4, cn5
):
    with criterion(11, "reflection/bireflection classification and CM condition"):
        assert is_reflection_group(d8)
        assert not is_reflection_group(minus_identity)
        assert is_bireflection_group(minus_identity)
        for group in (d8, minus_identity, trivial2, c2_swap, s3, cn3, cn4, cn5):
            assert not group.is_modular()
            assert cohen_macaulay_necessary_condition(group)


BATTERY = [
    ("generators", fixture_path("d8"), "--verify"),
    ("generators", fixture_path("d8"), "--monic"),
    ("generators", fixture_path("trivial_2")),
    ("generators", fixture_path("minus_identity")),
    ("generators", fixture_path("cn_scalar_3")),
    ("generators", fixture_path("cn_scalar_5")),
    ("generators", fixture_path("gm_weights"), "--algorithm", "derksen", "--verify"),
    ("generators", fixture_path("sl2_binary_quadratics"), "--algorithm", "derksen"),
    ("generators", fixture_path("trivial_algebraic_2"), "--algorithm", "derksen"),
    ("separating", fixture_path("c2_swap"), "--verify-samples", "100"),
    ("separating", fixture_path("s3_natural"), "--verify-samples", "50"),
    ("separating", fixture_path("cn_scalar_4"), "--method", "reduce", "--verify-samples", "50"),
    ("analyze", "molien", fixture_path("d8"), "--degree", "12"),
    ("analyze", "classify", fixture_path("minus_identity")),
    ("analyze", "classify", fixture_path("s3_natural")),
    ("analyze", "primary", fixture_path("s3_natural"), "--seed", "0"),
    ("analyze", "bounds", fixture_path("d8"), "--degrees", "2,8"),
    ("field", fixture_path("gm_weights")),
    ("field", fixture_path("c2_swap_variety")),
    ("derksen-ideal", fixture_path("gm_weights")),
    ("derksen-ideal", fixture_path("c2_swap_variety")),
    ("separating-variety", fixture_path("gm_weights")),
    ("separating-variety", fixture_path("trivial_algebraic_2")),
]


def test_criterion_12_determinism(capsys):
    with criterion(12, "repeated --json runs are byte-identical on every fixture command"):
        for argv in BATTERY:
            outputs = []
            for _ in range(2):
                code = cli_main(list(argv) + ["--json"])
                captured = capsys.readouterr()
                assert code == 0, (argv, captured.err)
                outputs.append(captured.out.encode())
                json.loads(captured.out)  # well-formed
            assert outputs[0] == outputs[1], argv
