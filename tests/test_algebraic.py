from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from invar import algebraic, groebner
from invar.algebraic import (
    AlgebraicGroupSpec,
    action_graph_generators,
    algebraic_invariant_basis,
    derksen_generators,
    derksen_ideal,
    hilbert_ideal_generators,
    invariant_field_generators,
    separating_subalgebra,
    separating_variety,
)
from invar.errors import ContextMismatch, MaxDegreeExceeded, NotDeclaredReductive
from invar.fields import Rationals
from invar.groebner import (
    SubalgebraOracle,
    buchberger,
    elimination_ideal,
    ideal_membership,
    normal_form,
    reduce_basis,
)
from invar.invariants import fixed_forms, king_generators
from invar.polynomials import GREVLEX, Polynomial, PolynomialRing, monomials_of_degree, transport
from invar.ratfunc import RationalFunctionField

Q = Rationals()


def scalar_in_polynomial_subfield(c, generators, L: RationalFunctionField) -> bool:
    """Witness check that a rational function is a polynomial expression
    in the given generators (all with trivial denominators).  Sufficient
    for field membership; a False only means no polynomial witness."""
    num, den = c.value
    if not den.is_constant():
        return False
    gen_polys = []
    for g in generators:
        gn, gd = g.value
        if not gd.is_constant():
            return False
        gen_polys.append(gn * gd.constant_coefficient().inverse())
    oracle = SubalgebraOracle(gen_polys)
    return oracle.contains(num * den.constant_coefficient().inverse())


def _ideal_intersection(gens1, gens2):
    """Oracle: I1 cap I2 via the one-tag trick t*I1 + (1-t)*I2."""
    ring = gens1[0].ring
    tname = "t_mix"
    big = PolynomialRing(ring.field, (tname,) + ring.names)
    t = big.variable(0)
    mixed = [t * transport(g, big) for g in gens1]
    mixed += [(big.one - t) * transport(g, big) for g in gens2]
    return elimination_ideal(mixed, [tname])


def test_graph_generators_gm(gm):
    gens = action_graph_generators(gm)
    assert [str(g) for g in gens] == ["z1*z2 - 1", "x1*z1 - y1", "x2*z2 - y2"]


def test_graph_generators_trivial(trivial_algebraic):
    gens = action_graph_generators(trivial_algebraic)
    assert [str(g) for g in gens] == ["-y1 + x1", "-y2 + x2"]


def test_graph_generators_c2_variety(c2_variety):
    gens = action_graph_generators(c2_variety)
    assert len(gens) == 3
    assert str(gens[0]) == "z^2 - z"


def test_derksen_ideal_gm(gm):
    result = derksen_ideal(gm)
    assert result.reduced
    assert [str(g) for g in result.generators] == ["y1*y2 - x1*x2"]


def test_derksen_ideal_trivial(trivial_algebraic):
    result = derksen_ideal(trivial_algebraic)
    assert {str(g) for g in result.generators} == {"y1 - x1", "y2 - x2"}


def test_derksen_ideal_c2_variety_matches_graph_intersection(c2_variety):
    result = derksen_ideal(c2_variety)
    ring = result.generators[0].ring  # (y1, y2, x1, x2)
    y1, y2, x1, x2 = ring.variables()
    # vanishing ideal of the two graph components, intersected directly
    identity_ideal = [y1 - x1, y2 - x2]
    swap_ideal = [y1 - x2, y2 - x1]
    oracle = _ideal_intersection(identity_ideal, swap_ideal)
    b1 = reduce_basis(buchberger(result.generators, GREVLEX))
    b2 = reduce_basis(buchberger(oracle, GREVLEX))
    assert [str(g) for g in b1.generators] == [str(g) for g in b2.generators]


def test_derksen_generators_require_flag(gm):
    spec = AlgebraicGroupSpec(
        field=gm.field,
        group_vars=gm.group_vars,
        ideal_gens=gm.ideal_gens,
        n=gm.n,
        action_matrix=gm.action_matrix,
        linear_reductive=False,
    )
    with pytest.raises(NotDeclaredReductive):
        derksen_generators(spec)


def test_derksen_generators_gm(gm):
    result = derksen_generators(gm)
    assert [str(g) for g in result.generators] == ["x1*x2"]
    assert result.degrees == [2]
    assert not result.minimal


def test_derksen_generators_trivial(trivial_algebraic):
    result = derksen_generators(trivial_algebraic)
    assert {str(g) for g in result.generators} == {"x1", "x2"}


def test_algebraic_invariant_basis_gm(gm):
    assert algebraic_invariant_basis(gm, 1) == []
    basis = algebraic_invariant_basis(gm, 2)
    assert [str(p) for p in basis] == ["x1*x2"]


def test_algebraic_invariant_basis_trivial(trivial_algebraic):
    xring = trivial_algebraic.x_ring()
    for d in (1, 2, 3):
        basis = algebraic_invariant_basis(trivial_algebraic, d)
        assert len(basis) == len(list(xring.names)) if d == 1 else True
        assert len(basis) == len(monomials_of_degree(xring, d))


def test_algebraic_invariant_basis_exactness(gm, c2_variety, sl2):
    # f(A(z) x) - f(x) must reduce to zero modulo the group ideal
    for spec in (gm, c2_variety, sl2):
        zring = spec.z_ring()
        zbasis = (
            reduce_basis(buchberger(spec.ideal_gens, GREVLEX))
            if spec.ideal_gens
            else None
        )
        combined = PolynomialRing(spec.field, spec.x_names() + spec.group_vars)
        images = []
        for i in range(spec.n):
            f_i = combined.zero
            for j in range(spec.n):
                f_i = f_i + transport(spec.action_matrix[i][j], combined) * combined.variable(j)
            images.append(f_i)
        images += [combined.variable(spec.n + i) for i in range(len(spec.group_vars))]
        for f in algebraic_invariant_basis(spec, 2):
            lifted = transport(f, combined)
            delta = lifted.substitute(images) - lifted
            # reduce every x-coefficient modulo the group ideal
            buckets = {}
            for m, c in delta.terms.items():
                buckets.setdefault(m[: spec.n], {})[m[spec.n :]] = c
            for zterms in buckets.values():
                zpoly = type(f)(zring, zterms)
                if zbasis is not None:
                    zpoly = normal_form(zpoly, zbasis)
                assert zpoly.is_zero()


def _bucket_invariant_basis(spec, d):
    """The reduction that the one in the graph ring replaced, kept as the
    reference: the terms of each image are bucketed by x-monomial, and
    each bucket reduces as a polynomial in K[z] by the group ideal's
    reduced basis."""
    zring = spec.z_ring()
    zbasis = reduce_basis(buchberger(spec.ideal_gens, GREVLEX)) if spec.ideal_gens else None
    n = spec.n
    ring = spec.graph_ring()
    graph = action_graph_generators(spec)[len(spec.ideal_gens):]
    images = ring.variables()
    images[n:2 * n] = [g + ring.variable(j) for j, g in enumerate(graph)]

    def equations(m):
        mono = ring.monomial((0,) * n + m + (0,) * len(spec.group_vars))
        buckets = {}
        for mm, c in (mono.substitute(images) - mono).terms.items():
            buckets.setdefault(mm[n:2 * n], {})[mm[2 * n:]] = c
        for xm, zterms in buckets.items():
            zpoly = Polynomial(zring, zterms)
            if zbasis is not None:
                zpoly = normal_form(zpoly, zbasis)
            for zm, c in zpoly.terms.items():
                yield (xm, zm), c

    return fixed_forms(spec.x_ring(), d, equations)


@pytest.mark.parametrize("name", ["gm", "c2_variety", "sl2", "trivial_algebraic"])
def test_algebraic_invariant_basis_matches_the_bucket_reduction(request, monkeypatch, name):
    spec = request.getfixturevalue(name)
    calls = []
    reduce = algebraic.normal_form

    def counting_normal_form(f, basis):
        calls.append(f)
        return reduce(f, basis)

    monkeypatch.setattr(algebraic, "normal_form", counting_normal_form)
    for d in range(1, 5):
        calls.clear()
        assert algebraic_invariant_basis(spec, d) == _bucket_invariant_basis(spec, d)
        # one reduction per degree-d monomial, in the graph ring
        assert len(calls) == len(monomials_of_degree(spec.x_ring(), d))
        assert all(f.ring == spec.graph_ring() for f in calls)


@pytest.mark.parametrize("spec", [lambda: _torus([2, -1, 3]), lambda: _ga_binary_forms(3)],
                         ids=["torus", "ga-cubics"])
def test_algebraic_invariant_basis_matches_the_bucket_reduction_off_the_fixtures(spec):
    spec = spec()
    for d in range(1, 5):
        assert algebraic_invariant_basis(spec, d) == _bucket_invariant_basis(spec, d)


def test_finite_as_variety_consistency_with_king(c2_variety, c2_swap):
    # y = 0 specialization of the graph ideal against the ideal generated
    # by the averaging-based generators: equal as ideals
    hilbert = hilbert_ideal_generators(c2_variety)
    king = king_generators(c2_swap)
    b_hilbert = reduce_basis(buchberger(hilbert, GREVLEX))
    b_king = reduce_basis(buchberger(king.generators, GREVLEX))
    assert all(ideal_membership(g, b_king) for g in hilbert)
    assert all(ideal_membership(g, b_hilbert) for g in king.generators)


def test_sl2_binary_quadratics(sl2):
    assert algebraic_invariant_basis(sl2, 1) == []
    basis2 = algebraic_invariant_basis(sl2, 2)
    assert len(basis2) == 1
    result = derksen_generators(sl2)
    ring = result.generators[0].ring
    disc = ring.parse("x2^2 - 4*x1*x3")
    assert SubalgebraOracle(result.generators).contains(disc)
    disc_oracle = SubalgebraOracle([disc])
    assert all(disc_oracle.contains(g) for g in result.generators)


def test_invariant_field_generators_gm(gm):
    gens = invariant_field_generators(gm)
    assert [str(c) for c in gens] == ["x1*x2"]


def test_invariant_field_generators_trivial(trivial_algebraic):
    gens = invariant_field_generators(trivial_algebraic)
    assert [str(c) for c in gens] == ["x1", "x2"]


def test_invariant_field_generators_c2_variety(c2_variety):
    gens = invariant_field_generators(c2_variety)
    assert {str(c) for c in gens} == {"x1 + x2", "x1*x2"}
    L = RationalFunctionField(Q, c2_variety.x_names())
    e1 = L.from_polynomial(L.ring.parse("x1 + x2"))
    e2 = L.from_polynomial(L.ring.parse("x1*x2"))
    power_sum = L.from_polynomial(L.ring.parse("x1^2 + x2^2"))
    assert scalar_in_polynomial_subfield(e1, gens, L)
    assert scalar_in_polynomial_subfield(e2, gens, L)
    assert scalar_in_polynomial_subfield(power_sum, gens, L)


def test_invariant_field_generators_fixed_by_action(gm, c2_variety):
    # numerator cross-multiplication: p(f(z,x)) q(x) - p(x) q(f(z,x)) lies
    # in the extension of the group ideal
    for spec in (gm, c2_variety):
        L = RationalFunctionField(spec.field, spec.x_names())
        gens = invariant_field_generators(spec)
        zring = spec.z_ring()
        zbasis = (
            reduce_basis(buchberger(spec.ideal_gens, GREVLEX))
            if spec.ideal_gens
            else None
        )
        combined = PolynomialRing(spec.field, spec.x_names() + spec.group_vars)
        images = []
        for i in range(spec.n):
            f_i = combined.zero
            for j in range(spec.n):
                f_i = f_i + transport(spec.action_matrix[i][j], combined) * combined.variable(j)
            images.append(f_i)
        images += [combined.variable(spec.n + i) for i in range(len(spec.group_vars))]
        for c in gens:
            num, den = c.value
            p = transport(num, combined)
            q = transport(den, combined)
            delta = p.substitute(images) * q - p * q.substitute(images)
            buckets = {}
            for m, cc in delta.terms.items():
                buckets.setdefault(m[: spec.n], {})[m[spec.n :]] = cc
            for zterms in buckets.values():
                zpoly = type(num)(zring, zterms)
                if zbasis is not None:
                    zpoly = normal_form(zpoly, zbasis)
                assert zpoly.is_zero()


# ---------------------------------------------------------------------------
# invariant fields against the elimination over K(x)
# ---------------------------------------------------------------------------

def _field_generators_over_L(spec):
    """The definition that the computation over the base field replaced,
    kept as the reference: the whole elimination runs over
    L = K(x_1, ..., x_n), and each nonconstant coefficient of the reduced
    basis is divided by its numerator's leading coefficient in L."""
    L = RationalFunctionField(spec.field, spec.x_names())
    ring = PolynomialRing(L, spec.y_names() + spec.group_vars)
    n = spec.n
    gens = []
    for g in action_graph_generators(spec):
        coeffs = {}
        for m, c in g.terms.items():
            coeffs.setdefault(m[:n] + m[2 * n:], {})[m[n:2 * n]] = c
        gens.append(Polynomial(ring, {
            m: L.from_polynomial(Polynomial(L.ring, xterms)) for m, xterms in coeffs.items()
        }))
    out = set()
    for g in elimination_ideal(gens, spec.group_vars):
        for c in g.terms.values():
            num, den = c.value
            if not (num.is_constant() and den.is_constant()):
                lc = L.from_polynomial(L.ring.from_scalar(num.leading(GREVLEX)[1]))
                out.add(c * lc.inverse())
    return sorted(out, key=str)


def _spec(group_vars, ideal_gens, action, linear_reductive=False):
    zring = PolynomialRing(Q, group_vars)
    return AlgebraicGroupSpec(
        field=Q, group_vars=group_vars, ideal_gens=[zring.parse(g) for g in ideal_gens],
        n=len(action), action_matrix=[[zring.parse(e) for e in row] for row in action],
        linear_reductive=linear_reductive,
    )


def _ga_binary_forms(d):
    """Ga acting on binary forms of degree d by (X, Y) -> (X + t Y, Y), in
    the basis X^(d-j) Y^j: entry [i][j] is C(d-j, i-j) t^(i-j)."""
    return _spec(("t",), [], [
        [f"{comb(d - j, i - j)}*t^{i - j}" if i >= j else "0" for j in range(d + 1)]
        for i in range(d + 1)
    ])


def _torus(weights):
    """Gm = {z u = 1} scaling coordinate i by z^w_i (u^-w_i when w_i < 0)."""
    return _spec(("z", "u"), ["z*u - 1"], [
        [(f"z^{w}" if w > 0 else f"u^{-w}") if i == j else "0" for j in range(len(weights))]
        for i, w in enumerate(weights)
    ], linear_reductive=True)


def _assert_same_field_generators(spec):
    new, reference = invariant_field_generators(spec), _field_generators_over_L(spec)
    assert new == reference
    assert [str(c) for c in new] == [str(c) for c in reference]


@pytest.mark.parametrize("name", ["gm", "trivial_algebraic", "c2_variety", "sl2"])
def test_invariant_fields_match_the_elimination_over_L(request, name):
    _assert_same_field_generators(request.getfixturevalue(name))


def test_invariant_fields_match_the_elimination_over_L_for_ga_quartics(monkeypatch):
    # here the front-free basis is not yet reduced over K(x): the final
    # inter-reduction rewrites a tail, not only the leading coefficients
    rewritten = []
    reduce = algebraic.reduce_basis

    def recording_reduce(basis):
        reduced = reduce(basis)
        rewritten.append(set(reduced.generators) - {g.monic(GREVLEX) for g in basis.generators})
        return reduced

    monkeypatch.setattr(algebraic, "reduce_basis", recording_reduce)
    _assert_same_field_generators(_ga_binary_forms(4))
    assert len(rewritten) == 1 and rewritten[0]


@settings(max_examples=25, deadline=None)
@given(weights=st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_invariant_fields_match_the_elimination_over_L_on_tori(weights):
    _assert_same_field_generators(_torus(weights))


def test_separating_variety_trivial(trivial_algebraic):
    gens = separating_variety(trivial_algebraic)
    assert {str(g) for g in gens} == {"y1 - x1", "y2 - x2"}


def test_separating_variety_gm(gm):
    gens = separating_variety(gm)
    ring = gens[0].ring
    target = ring.parse("x1*x2 - y1*y2")
    basis = reduce_basis(buchberger(gens, GREVLEX))
    assert ideal_membership(target, basis)


def test_separating_variety_pair_count(monkeypatch, sl2):
    # sugar selection forms 123 s-pairs here; the normal strategy (lowest
    # lcm degree first) formed 155
    formed = []
    original = groebner.s_polynomial

    def spy(*args):
        formed.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "s_polynomial", spy)
    separating_variety(sl2)
    assert len(formed) <= 123


def test_separating_variety_c2_variety_equals_graph_ideal(c2_variety):
    sep = separating_variety(c2_variety)
    graph = derksen_ideal(c2_variety).generators
    b_sep = reduce_basis(buchberger(sep, GREVLEX))
    b_graph = reduce_basis(buchberger(graph, GREVLEX))
    assert [str(g) for g in b_sep.generators] == [str(g) for g in b_graph.generators]


def test_separating_subalgebra_gm(gm):
    result = separating_subalgebra(gm, 2)
    assert [str(p) for p in result] == ["x1*x2"]


def test_separating_subalgebra_trivial(trivial_algebraic):
    result = separating_subalgebra(trivial_algebraic, 1)
    assert {str(p) for p in result} == {"x1", "x2"}


def test_separating_subalgebra_max_degree_exceeded(gm):
    with pytest.raises(MaxDegreeExceeded) as info:
        separating_subalgebra(gm, 0)
    assert info.value.partial == []
    with pytest.raises(MaxDegreeExceeded) as info:
        separating_subalgebra(gm, 1)  # no invariants of degree 1
    assert info.value.partial == []


def test_spec_validation():
    zr = PolynomialRing(Q, ("z",))
    z = zr.variable(0)
    with pytest.raises(ContextMismatch):
        AlgebraicGroupSpec(
            field=Q, group_vars=("z",), ideal_gens=[zr.one], n=1,
            action_matrix=[[z]],
        )  # ideal is the whole ring
    with pytest.raises(ContextMismatch):
        AlgebraicGroupSpec(
            field=Q, group_vars=("z",), ideal_gens=[], n=2,
            action_matrix=[[z]],
        )  # wrong shape
