import heapq
import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from invar import groebner
from invar.cli import main
from invar.errors import CapExceeded, TruncatedBasis, TruncationInsufficient
from invar.fields import NumberField, PrimeField, Rationals, Scalar
from invar.groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    SubalgebraOracle,
    buchberger,
    elimination_ideal,
    ideal_dimension,
    ideal_membership,
    normal_form,
    radical_membership,
    reduce_basis,
    s_polynomial,
    subalgebra_membership,
)
from invar.polynomials import (
    GREVLEX,
    LEX,
    BlockElimination,
    Polynomial,
    PolynomialRing,
    mono_degree,
    mono_div,
    mono_divides,
    mono_support,
    shift_scale,
    transport,
)
from invar.prng import XorShift

Q = Rationals()
R = PolynomialRing(Q, ("x", "y"))
X, Y = R.variables()


def test_buchberger_simple_lex():
    basis = buchberger([X**2 - Y, Y], LEX)
    lms = {g.leading_monomial(LEX) for g in basis.generators}
    assert lms == {(2, 0), (0, 1)}
    reduced = reduce_basis(basis)
    assert [str(g) for g in reduced.generators] == ["y", "x^2"]


def test_buchberger_weight_torus_elimination_order():
    ring = PolynomialRing(Q, ("z1", "z2", "y1", "y2", "x1", "x2"))
    z1, z2, y1, y2, x1, x2 = ring.variables()
    gens = [z1 * z2 - 1, z1 * x1 - y1, z2 * x2 - y2]
    basis = reduce_basis(buchberger(gens, BlockElimination(2)))
    assert y1 * y2 - x1 * x2 in set(basis.generators)


def test_buchberger_single_generator():
    basis = reduce_basis(buchberger([2 * X + 4 * Y], GREVLEX))
    assert list(basis.generators) == [X + 2 * Y]


def test_normal_form_membership_and_units():
    basis = buchberger([X**2 - Y, Y**3], GREVLEX)
    f = (X**2 - Y) * (X + Y) + Y**3 * X
    assert normal_form(f, basis).is_zero()
    assert normal_form(R.one, basis) == R.one


def test_normal_form_by_the_empty_basis_is_the_input():
    empty = GroebnerBasis(R, GREVLEX, ())
    f = X**2 - 3 * Y + 1
    assert normal_form(f, empty) == f
    assert normal_form(R.zero, empty).is_zero()
    with pytest.raises(TruncationInsufficient):
        normal_form(X**3, GroebnerBasis(R, GREVLEX, (), truncation_degree=2))


def test_normal_form_of_averaged_quartic_vanishes(d8):
    # the degree-4 average is divisible by the quadratic invariant, so its
    # normal form against it is zero
    from invar.groups import reynolds

    ring = d8.ring()
    y = ring.variable(1)
    f2 = reynolds(y**2, d8)
    basis = buchberger([f2], GREVLEX)
    assert normal_form(reynolds(y**4, d8), basis).is_zero()
    assert normal_form(reynolds(y**6, d8), basis).is_zero()


def test_truncation_guard():
    basis = buchberger([X**2 - Y], GREVLEX, truncate=2)
    with pytest.raises(TruncationInsufficient):
        normal_form(X**3, basis)
    with pytest.raises(TruncatedBasis):
        reduce_basis(basis)


def test_truncated_inhomogeneous_basis_refuses_low_degree_reduction():
    # x^2 - y^2 lies in the ideal, but only a pair above the truncation
    # degree produces the generator that reduces it to zero
    gens = [X**3 - Y, X * Y - 1]
    assert ideal_membership(X**2 - Y**2, buchberger(gens, GREVLEX))
    truncated = buchberger(gens, GREVLEX, truncate=3)
    with pytest.raises(TruncationInsufficient):
        ideal_membership(X**2 - Y**2, truncated)
    homogeneous = buchberger([X**2 - Y**2], GREVLEX, truncate=2)
    assert ideal_membership(X**2 - Y**2, homogeneous)


def test_reduce_basis_examples():
    basis = buchberger([X**2, X**2 + Y], GREVLEX)
    reduced = reduce_basis(basis)
    assert [str(g) for g in reduced.generators] == ["y", "x^2"]
    assert reduce_basis(reduced).generators == reduced.generators
    assert [str(g) for g in reduce_basis(buchberger([2 * X], GREVLEX)).generators] == ["x"]


def test_reduced_basis_unique_under_permutation():
    r3 = PolynomialRing(Q, ("x", "y", "z"))
    x, y, z = r3.variables()
    gens = [x**2 + y * z, y**2 - z, x * z - y]
    expected = None
    for perm in permutations(gens):
        reduced = reduce_basis(buchberger(list(perm), GREVLEX))
        if expected is None:
            expected = reduced.generators
        assert reduced.generators == expected


def test_elimination_examples():
    r3 = PolynomialRing(Q, ("x", "y", "z"))
    x, y, z = r3.variables()
    out = elimination_ideal([z - x, z - y], ["z"])
    assert [str(g) for g in out] == ["x - y"]
    # generators already free of the eliminated variable
    out2 = elimination_ideal([x**2 - y, y**2], ["z"])
    reference = reduce_basis(buchberger([X**2 - Y, Y**2], GREVLEX))
    assert [str(g) for g in out2] == [str(g) for g in reference.generators]


def test_elimination_of_nothing_matches_reduced_basis():
    gens = [X**2 - Y, X * Y - 1]
    out = elimination_ideal(gens, [])
    reduced = reduce_basis(buchberger(gens, GREVLEX))
    assert [str(g) for g in out] == [str(g) for g in reduced.generators]


def _triangular_system(rng, ring):
    """Split univariate in x plus explicit y, z expressions; returns
    (generators, sample points of the variety)."""
    x, y, z = ring.variables()
    roots = []
    while len(roots) < 3:
        r = Fraction(rng.randint(-4, 4))
        if r not in roots:
            roots.append(r)
    px = ring.one
    for r in roots:
        px = px * (x - r)
    fy = x**2 + rng.randint(-3, 3)
    fz = x * rng.randint(1, 3) + rng.randint(-3, 3)
    gens = [px, y - fy, z - fz]
    points = []
    for r in roots:
        yv = fy.evaluate([r, 0, 0])
        zv = fz.evaluate([r, 0, 0])
        points.append((ring.field.scalar(r), yv, zv))
    return gens, points


def test_elimination_vanishes_on_variety_samples():
    ring = PolynomialRing(Q, ("x", "y", "z"))
    rng = XorShift(41)
    checked = 0
    while checked < 50:
        gens, points = _triangular_system(rng, ring)
        out = elimination_ideal(gens, ["x"])
        assert out, "elimination of a 0-dimensional ideal is nontrivial"
        for g in out:
            for px, py, pz in points:
                assert g.evaluate([py, pz]).is_zero()
                checked += 1


def test_random_ideal_members_reduce_to_zero():
    rng = XorShift(59)
    gens = [X**2 + Y**2 - 1, X * Y**3 - X]
    basis = buchberger(gens, GREVLEX)
    for _ in range(200):
        member = R.zero
        for g in gens:
            c = R.zero
            for _ in range(3):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                c = c + R.monomial(exps, rng.randint(-4, 4))
            member = member + c * g
        assert normal_form(member, basis).is_zero()


def test_normal_form_idempotent():
    rng = XorShift(61)
    basis = buchberger([X**2 - Y, Y**2 - 2], GREVLEX)
    for _ in range(50):
        p = R.zero
        for _ in range(5):
            exps = (rng.randint(0, 4), rng.randint(0, 4))
            p = p + R.monomial(exps, rng.randint(-9, 9))
        nf = normal_form(p, basis)
        assert normal_form(nf, basis) == nf


@lru_cache(maxsize=None)
def _seeded_reduced_basis(seed, order_name):
    """Reduced basis of a small ideal: two or three random generators of
    degree at most 2 in x, y."""
    rng = XorShift(seed)
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = R.zero
        for _ in range(3):
            g = g + R.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3))
        gens.append(g)
    return reduce_basis(buchberger(gens, {"grevlex": GREVLEX, "lex": LEX}[order_name]))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 30), order_name=st.sampled_from(["grevlex", "lex"]),
       terms=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             st.integers(-9, 9), max_size=6))
def test_normal_forms_are_idempotent_and_kill_the_basis(seed, order_name, terms):
    basis = _seeded_reduced_basis(seed, order_name)
    f = R.zero
    for m, c in terms.items():
        f = f + R.monomial(m, c)
    nf = normal_form(f, basis)
    assert normal_form(nf, basis) == nf
    assert all(normal_form(g, basis).is_zero() for g in basis.generators)


def _processed_sugars(monkeypatch, engine, degree_limit=None):
    """The sugar of every s-pair that `engine.extend(degree_limit)`
    forms: each `s_polynomial` call follows the pop of its pair."""
    popped, formed = [], []
    heappop, original = heapq.heappop, groebner.s_polynomial

    def pop(heap):
        entry = heappop(heap)
        if heap is engine._heap:
            popped.append(entry[0])
        return entry

    def spy(*args):
        formed.append(popped[-1])
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(groebner.heapq, "heappop", pop)
        patch.setattr(groebner, "s_polynomial", spy)
        engine.extend(degree_limit)
    return formed


def test_truncated_equals_full_beyond_needed_degree(monkeypatch):
    r3 = PolynomialRing(Q, ("x", "y", "z"))
    x, y, z = r3.variables()
    gens = [x * y - z**2, y**2 - x * z, x**2 - y * z]
    engine = BuchbergerEngine(r3, GREVLEX)
    engine.seed(gens)
    needed = max(_processed_sugars(monkeypatch, engine), default=0)
    full = engine.snapshot()
    truncated = buchberger(gens, GREVLEX, truncate=needed)
    assert truncated.generators == full.generators


def test_truncated_basis_continues_incrementally():
    gens = [X**3 - Y, X * Y - 1]
    engine = BuchbergerEngine(R, GREVLEX)
    engine.seed(gens)
    engine.extend(2)
    partial = list(engine.basis)
    engine.extend(None)
    assert list(engine.basis)[: len(partial)] == partial
    assert engine.snapshot().generators == buchberger(gens, GREVLEX).generators


def test_ideal_dimension():
    assert ideal_dimension(buchberger([X, Y], GREVLEX)) == 0
    assert ideal_dimension(buchberger([X**2 - Y], GREVLEX)) == 1
    assert ideal_dimension(buchberger([X - X + R.one], GREVLEX)) is None
    assert ideal_dimension(buchberger([X * Y - 1], GREVLEX)) == 1


def test_ideal_membership_examples():
    basis = buchberger([X], GREVLEX)
    assert ideal_membership(X, basis)
    assert ideal_membership(X**2, basis)
    assert not ideal_membership(R.one, basis)
    assert not ideal_membership(Y, basis)


def test_radical_membership_examples():
    assert radical_membership(X, [X**2])
    assert not radical_membership(Y, [X**2])
    assert radical_membership(R.zero, [X**2])
    assert radical_membership(X + Y, [(X + Y) ** 3])


def test_subalgebra_membership_examples():
    witness = subalgebra_membership(X**2 + Y**2, [X + Y, X * Y])
    assert str(witness) == "T1^2 - 2*T2"
    gens = [X + Y, X * Y]
    for i, g in enumerate(gens):
        w = subalgebra_membership(g, gens)
        assert str(w) == f"T{i + 1}"
    assert subalgebra_membership(X, [X**2]) is None


def test_subalgebra_witness_substitutes_back():
    gens = [X + Y, X * Y]
    oracle = SubalgebraOracle(gens)
    f = (X + Y) ** 3 - 5 * X * Y + 2
    witness = oracle.express(f)
    assert witness is not None
    assert witness.substitute(gens) == f


def test_subalgebra_tags_are_fresh_names():
    ring = PolynomialRing(Q, ("x", "T1"))
    x, t1 = ring.variable(0), ring.variable(1)
    oracle = SubalgebraOracle([x + t1, x * t1])
    assert oracle.tag_ring.names == ("T1_", "T2")
    witness = oracle.express(x**2 + t1**2)
    assert str(witness) == "T1_^2 - 2*T2"
    assert witness.substitute([x + t1, x * t1]) == x**2 + t1**2


def test_s_polynomial_is_in_ideal():
    f, g = X**2 * Y - 1, X * Y**2 - X
    basis = buchberger([f, g], GREVLEX)
    assert normal_form(s_polynomial(f, g, GREVLEX), basis).is_zero()


def _naive_buchberger(gens, order):
    """Pruning-free reference implementation: process every pair."""
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop(0)
        s = s_polynomial(basis[i], basis[j], order)
        snapshot = GroebnerBasis(gens[0].ring, order, tuple(basis))
        h = normal_form(s, snapshot)
        if not h.is_zero():
            basis.append(h)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return GroebnerBasis(gens[0].ring, order, tuple(basis))


def _random_ideal(rng, ring):
    """Up to three random generators of three terms, exponents at most
    2: non-homogeneous in general."""
    gens = []
    for _ in range(3):
        p = ring.zero
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            p = p + ring.monomial(exps, rng.randint(-3, 3))
        if not p.is_zero():
            gens.append(p)
    return gens


_FIELDS = [Q, PrimeField(32003)]
_ORDERS = [GREVLEX, LEX, BlockElimination(1)]


def test_engine_matches_naive_buchberger_on_random_ideals():
    # reduced bases are unique, so the pruned engine must agree with the
    # pairwise-complete reference on every input
    for field in _FIELDS:
        r3 = PolynomialRing(field, ("x", "y", "z"))
        for order in _ORDERS:
            rng = XorShift(97)
            for _ in range(15):
                gens = _random_ideal(rng, r3)
                if not gens:
                    continue
                fast = reduce_basis(buchberger(gens, order))
                slow = reduce_basis(_naive_buchberger(gens, order))
                assert fast.generators == slow.generators, (field, order)


_R3 = {field: PolynomialRing(field, ("x", "y", "z")) for field in _FIELDS}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 200), field=st.sampled_from(_FIELDS), order=st.sampled_from(_ORDERS))
def test_reduce_basis_output_is_reduced_by_definition(seed, field, order):
    # the pairwise-complete reference leaves redundant elements and long
    # tails, so one pass of inter-reduction is put to work on it
    gens = _random_ideal(XorShift(seed), _R3[field])
    if not gens:
        return
    reduced = reduce_basis(_naive_buchberger(gens, order))
    lms = [g.leading_monomial(order) for g in reduced.generators]
    for i, g in enumerate(reduced.generators):
        assert g.leading(order)[1] == field.one
        for j, lm in enumerate(lms):
            assert j == i or not any(mono_divides(lm, m) for m in g.terms)
    assert reduce_basis(reduced).generators == reduced.generators
    assert reduce_basis(buchberger(gens, order)).generators == reduced.generators


def _reference_elimination(gens, eliminate):
    """The front-free part of the whole reduced basis, transported and sorted."""
    ring = gens[0].ring
    front = [n for n in ring.names if n in eliminate]
    kept = [n for n in ring.names if n not in eliminate]
    work_ring = PolynomialRing(ring.field, front + kept)
    moved = [transport(g, work_ring) for g in gens]
    basis = reduce_basis(buchberger(moved, BlockElimination(len(front))))
    kept_ring = PolynomialRing(ring.field, kept)
    out = [transport(g, kept_ring) for g in basis.generators
           if all(not any(m[:len(front)]) for m in g.terms)]
    return sorted(out, key=lambda g: GREVLEX.key(g.leading_monomial(GREVLEX)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 200), field=st.sampled_from(_FIELDS),
       eliminate=st.sampled_from([("x",), ("y",), ("z",), ("x", "z"), ("y", "z")]))
def test_elimination_ideal_matches_the_front_free_reduced_basis(seed, field, eliminate):
    gens = _random_ideal(XorShift(seed), _R3[field])
    if not gens:
        return
    assert elimination_ideal(gens, eliminate) == _reference_elimination(gens, eliminate)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 30), order_name=st.sampled_from(["grevlex", "lex"]),
       terms=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             st.integers(-9, 9), max_size=6))
def test_normal_forms_do_not_depend_on_reducing_the_basis(seed, order_name, terms):
    reduced = _seeded_reduced_basis(seed, order_name)
    f = R.zero
    for m, c in terms.items():
        f = f + R.monomial(m, c)
    gens = list(reduced.generators)
    # a Groebner basis of the same ideal with redundant elements
    basis = _naive_buchberger(gens + [g * (X + 2) for g in gens], reduced.order)
    assert normal_form(f, basis) == normal_form(f, reduced)
    if len(gens) < 2 or any(g.is_constant() for g in gens):
        return
    oracle = SubalgebraOracle(gens[:2])
    on_reduced = SubalgebraOracle(gens[:2])
    on_reduced.basis = reduce_basis(oracle.basis)
    for h in (f, gens[0] * gens[1] - gens[0] * 2):
        assert oracle.express(h) == on_reduced.express(h)


@pytest.mark.parametrize("order", _ORDERS, ids=["grevlex", "lex", "block1"])
@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "GF32003"])
def test_sugar_truncated_run_continues_to_the_full_basis(monkeypatch, field, order):
    # a run truncated at sugar d processes no pair of larger sugar, and
    # continuing it gives exactly the basis of one untruncated run
    rng = XorShift(13)
    r3 = PolynomialRing(field, ("x", "y", "z"))
    for _ in range(10):
        gens = _random_ideal(rng, r3)
        if not gens:
            continue
        full = buchberger(gens, order).generators
        for limit in (2, 3, 4):
            engine = BuchbergerEngine(r3, order)
            engine.seed(gens)
            assert all(sugar <= limit for sugar in _processed_sugars(monkeypatch, engine, limit))
            assert not engine._heap or engine._heap[0][0] > limit
            assert full[: len(engine.basis)] == tuple(engine.basis)
            engine.extend()
            assert engine.snapshot().generators == full


def _processed_pairs(monkeypatch, gens, order):
    """The (i, j) basis indices of every s-pair that `extend` forms."""
    engine = BuchbergerEngine(gens[0].ring, order)
    engine.seed(gens)
    formed = []
    original = groebner.s_polynomial

    def spy(f, g, *args):
        formed.append((f, g))
        return original(f, g, *args)

    monkeypatch.setattr(groebner, "s_polynomial", spy)
    engine.extend()
    index = {id(b): k for k, b in enumerate(engine.basis)}
    return [(index[id(f)], index[id(g)]) for f, g in formed]


_R4 = PolynomialRing(Q, ("a", "b", "c", "d"))
_A, _B, _C, _D = _R4.variables()
_HOMOGENEOUS = [_A**2 - _B * _C, _B**3 - _A * _C * _D, _C**2 * _D - _A**3, _A * _B * _D - _C**3]


@pytest.mark.parametrize("gens,order,expected", [
    ([_A * _C - _B**2, _B * _D - _C**2, _A * _D - _B * _C], GREVLEX, [(1, 2), (0, 2)]),
    (_HOMOGENEOUS, GREVLEX,
     [(0, 2), (3, 4), (2, 3), (1, 4), (2, 4), (1, 2), (3, 7), (3, 6), (4, 5), (5, 7),
      (2, 6), (6, 7), (0, 6), (1, 5), (2, 5), (5, 8), (1, 8), (0, 8)]),
    (_HOMOGENEOUS, LEX,
     [(1, 2), (2, 3), (0, 1), (0, 3), (0, 2), (4, 8), (1, 7), (5, 7), (2, 7), (3, 6),
      (2, 6), (6, 8), (4, 6), (0, 7), (0, 6), (12, 13), (5, 13), (10, 11), (11, 12),
      (9, 11), (11, 13), (5, 9), (8, 10), (8, 11), (8, 9), (3, 12), (7, 13), (3, 10),
      (3, 11), (7, 9)]),
], ids=["twisted-cubic-grevlex", "grevlex", "lex"])
def test_homogeneous_input_keeps_the_normal_strategy_sequence(monkeypatch, gens, order, expected):
    # on homogeneous input the sugar is the lcm degree; the expected
    # sequences were recorded under the normal strategy (lowest lcm
    # degree first), before sugar selection
    assert _processed_pairs(monkeypatch, gens, order) == expected


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def _scanned_pair_update(state, lm_t, sugar, order):
    """The pair update on tuple leading monomials by an O(t^2) scan, as
    the engine made it before packed exponents: the oracle for the
    engine's queue."""
    lms, sugars, pairs, heap = state
    t = len(lms)
    support_t = mono_support(lm_t)
    excess_t = sugar - mono_degree(lm_t)
    supports = [mono_support(lm) for lm in lms]
    for (i, j), lcm_ij in list(pairs.items()):
        if (
            not support_t & ~(supports[i] | supports[j])
            and mono_divides(lm_t, lcm_ij)
            and mono_lcm(lms[i], lm_t) != lcm_ij
            and mono_lcm(lms[j], lm_t) != lcm_ij
        ):
            del pairs[(i, j)]
    lcms = [mono_lcm(lm, lm_t) for lm in lms]
    lcm_supports = [s | support_t for s in supports]
    kept = []
    for i in range(t):
        li, outside = lcms[i], ~lcm_supports[i]
        if supports[i] & support_t and any(
            not lcm_supports[j] & outside and mono_divides(lcms[j], li)
            for j in chain(range(i + 1, t), kept)
        ):
            continue
        kept.append(i)
    for i in kept:
        if not supports[i] & support_t:
            continue  # coprime leading monomials
        li = lcms[i]
        deg = mono_degree(li)
        pair_sugar = max(sugars[i] - mono_degree(lms[i]), excess_t) + deg
        pairs[(i, t)] = li
        heapq.heappush(heap, (pair_sugar, deg, order.key(li), i, t))
    lms.append(lm_t)
    sugars.append(sugar)


_TOP = 2**15 - 1  # the largest degree the packing takes


def _below_the_bound(m):
    total = sum(m)
    return m if total <= _TOP else tuple(e * _TOP // total for e in m)


# small exponents make coprime pairs and repeated lcms, large ones reach the bound
_lead_sequences = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3) | st.integers(0, _TOP)] * n).map(_below_the_bound),
              st.integers(0, 2)),
    min_size=1, max_size=24))


@settings(max_examples=300, deadline=None)
@given(leads=_lead_sequences, order=st.sampled_from(_ORDERS))
def test_pair_update_queues_what_the_quadratic_scan_queues(leads, order):
    ring = PolynomialRing(Q, tuple(f"x{k}" for k in range(len(leads[0][0]))))
    engine = BuchbergerEngine(ring, order)
    state = [], [], {}, []
    for lm, lift in leads:
        sugar = sum(lm) + lift
        engine.add_generator(ring.monomial(lm, 1), sugar)
        _scanned_pair_update(state, lm, sugar, order)
        assert set(engine._pairs) == set(state[2])
        assert sorted(engine._heap) == sorted(state[3])


def test_pairs_at_the_degree_bound(capsys, tmp_path):
    # lcm degrees reach 2 * (2^15 - 1) = 65534, one below the fold modulus
    engine = BuchbergerEngine(R, GREVLEX)
    for lm in [(_TOP, 0), (0, _TOP)]:
        engine.add_generator(R.monomial(lm, 1), _TOP)
    assert engine._pairs == {}  # coprime at lcm degree 65534
    engine.add_generator(R.monomial((1, _TOP - 1), 1), _TOP)
    assert set(engine._pairs) == {(0, 2), (1, 2)}
    assert sorted(entry[1] for entry in engine._heap) == [_TOP + 1, 2 * _TOP - 1]
    with pytest.raises(CapExceeded):
        engine.add_generator(R.monomial((_TOP + 1, 0), 1), _TOP + 1)
    assert len(engine.basis) == 3
    # an s-pair formed at degree 65534 would pass the bound and exit 4
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"field": {"kind": "rationals"}, "variables": ["x", "y"],
                                   "polynomials": [f"x^{_TOP} - y", f"y^{_TOP} - x"]}))
    assert main(["groebner", str(problem), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["basis"] == [f"y^{_TOP} - x",
                                                                      f"x^{_TOP} - y"]
    problem.write_text(json.dumps({"field": {"kind": "rationals"}, "variables": ["x", "y"],
                                   "polynomials": [f"x^{_TOP + 1} - y"]}))
    assert main(["groebner", str(problem), "--json"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "CapExceeded"


@pytest.mark.parametrize("names,polynomials,top", [
    (["x", "y"], ["x*y - 1", f"x - y^{_TOP}"], (0, 2**15)),
    (["x", "y", "z"], ["x*y - 1", "x - y^16384*z^16383"], (0, 16385, 16383)),
], ids=["field-overflow", "degree-overflow"])
def test_lex_s_pair_past_the_degree_bound(capsys, tmp_path, names, polynomials, top):
    # the pair (x*y - 1, x - t) has the shifted tail y*t of degree 2^15:
    # s_polynomial forms it exactly, and reducing it refuses the degree;
    # the parser refuses the exponent 2^15, so the expected s is built directly
    ring = PolynomialRing(Q, names)
    f, g = map(ring.parse, polynomials)
    s = s_polynomial(f, g, LEX)
    assert s == _classic_s_polynomial(f, g, LEX) == ring.monomial(top) - 1
    with pytest.raises(CapExceeded):
        buchberger([f, g], LEX)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"field": {"kind": "rationals"}, "variables": names,
                                   "order": "lex", "polynomials": polynomials}))
    assert main(["groebner", str(problem), "--json"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "CapExceeded"


def _classic_s_polynomial(f, g, order):
    """The oracle: both polynomials shifted and scaled as tuples, then subtracted."""
    (lmf, lcf), (lmg, lcg) = f.leading(order), g.leading(order)
    lcm = mono_lcm(lmf, lmg)
    return (shift_scale(f, mono_div(lcm, lmf), lcf.inverse())
            - shift_scale(g, mono_div(lcm, lmg), lcg.inverse()))


_SQRT2 = NumberField([-2, 0, 1], "w")
_S_FIELDS = [Q, PrimeField(32003), _SQRT2]
_S_ORDERS = [GREVLEX, LEX, BlockElimination(1), BlockElimination(1, 1)]


@st.composite
def _s_pairs(draw):
    """(f, g, order) over three variables; inhomogeneous terms, and often
    a g that is a scaled shift of f, whose tail cancels f's completely."""
    field, order = draw(st.sampled_from(_S_FIELDS)), draw(st.sampled_from(_S_ORDERS))
    ring = PolynomialRing(field, ("x", "y", "z"))
    ints = st.integers(-5, 5)
    scalars = (st.tuples(ints, ints).map(lambda ab: ab[0] + ab[1] * field.generator)
               if field is _SQRT2 else ints.map(field.scalar))
    monomials = st.tuples(*[st.integers(0, 4)] * 3)

    def polynomial(min_size):
        terms = draw(st.dictionaries(monomials, scalars, min_size=min_size, max_size=6))
        return Polynomial(ring, terms)

    f = polynomial(1)
    while f.is_zero():
        f = f + ring.one
    if draw(st.booleans()):
        g = shift_scale(f, draw(monomials), draw(scalars.filter(lambda c: not c.is_zero())))
        g = g + polynomial(0) if draw(st.booleans()) else g
    else:
        g = polynomial(1)
    return f, g if not g.is_zero() else f, order


_F = X**2 * Y - 3 * Y + 1


@settings(max_examples=300, deadline=None)
@given(pair=_s_pairs())
@example(pair=(_F, shift_scale(_F, (1, 2), Q.scalar(-4)), LEX))  # the tails cancel
def test_s_polynomial_matches_the_classic_formula(pair):
    f, g, order = pair
    expected = _classic_s_polynomial(f, g, order)
    reducers = (groebner._reducer(f, order), groebner._reducer(g, order))
    for s in (s_polynomial(f, g, order), s_polynomial(f, g, order, reducers)):
        assert s == expected
        assert s.ring == f.ring and not [c for c in s.terms.values() if c.is_zero()]


def test_full_basis_property_spot_check():
    # every s-polynomial of a full basis reduces to zero
    r3 = PolynomialRing(Q, ("x", "y", "z"))
    x, y, z = r3.variables()
    basis = buchberger([x * y - z, y * z - x, x * z - y], GREVLEX)
    gens = basis.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j], GREVLEX)
            assert normal_form(s, basis).is_zero()


def test_duplicate_variable_names_rejected():
    from invar.errors import ContextMismatch

    with pytest.raises(ContextMismatch):
        PolynomialRing(Q, ("x", "x"))


def _cyclic5_gf():
    ring = PolynomialRing(PrimeField(32003), tuple(f"x{i + 1}" for i in range(5)))
    xs = ring.names
    return [ring.parse(" + ".join("*".join(xs[(i + j) % 5] for j in range(k)) for i in range(5)))
            for k in range(1, 5)] + [ring.parse("*".join(xs) + " - 1")]


def test_parsing_and_reducing_cyclic5_form_no_polynomial_products(monkeypatch):
    products = []
    for name in ("__mul__", "__rmul__"):
        method = getattr(Polynomial, name)

        def counted(self, other, method=method, name=name):
            products.append(name)
            return method(self, other)

        monkeypatch.setattr(Polynomial, name, counted)
    polys = _cyclic5_gf()
    ring = polys[0].ring
    reduced = reduce_basis(buchberger(polys, GREVLEX))
    assert products == []
    monkeypatch.undo()
    x = ring.variables()
    assert polys[1] == sum((x[i] * x[(i + 1) % 5] for i in range(5)), ring.zero)
    assert polys[4] == x[0] * x[1] * x[2] * x[3] * x[4] - 1
    assert len(reduced.generators) == 20
    assert all(g.leading(GREVLEX)[1] == ring.field.one for g in reduced.generators)


def _katsura5_qq():
    ring = PolynomialRing(Q, tuple(f"x{i}" for i in range(6)))
    xs = ring.names

    def var(l):
        return xs[abs(l)] if abs(l) <= 5 else None

    texts = [" + ".join(f"{var(l)}*{var(m - l)}" for l in range(-5, 6)
                        if var(l) and var(m - l)) + f" - {xs[m]}" for m in range(5)]
    texts.append(" + ".join(var(l) for l in range(-5, 6)) + " - 1")
    return [ring.parse(text) for text in texts]


def _separating_c5_qq():
    """The block elimination of `separating --method reduce` on the
    quintic monomials in two variables: 11 variables, and a basis of
    about 200, so that first pops go to the exponent index."""
    names = ("x1", "x2", "y1", "y2", "t") + tuple(f"T{i}" for i in range(6))
    x1, x2, y1, y2, t, *tags = PolynomialRing(Q, names).variables()
    return [tag - t * (x1**(5 - i) * x2**i - y1**(5 - i) * y2**i) for i, tag in enumerate(tags)]


@pytest.mark.parametrize("system, order", [
    (_cyclic5_gf, GREVLEX), (_katsura5_qq, GREVLEX), (_separating_c5_qq, BlockElimination(5)),
], ids=["cyclic5-gf", "katsura5-qq", "separating-c5-qq"])
def test_engine_reduces_by_the_first_divisible_reducer(monkeypatch, system, order):
    # the kernel's memo and exponent index of first divisors must pick
    # the reducer the plain scan picks: the same basis, in the same
    # order, from the same pairs
    from test_division_kernel import _reference_reduce

    gens = system()
    ring = gens[0].ring
    packer = groebner._packer(order, ring.nvars)
    field = ring.field
    polynomials = {}  # reducer id -> (the reducer, kept so its id stays unique, its polynomial)

    def polynomial(reducer):
        plm, inv, tail, lm = reducer
        if id(reducer) not in polynomials:
            terms = {lm: field.one / Scalar(field, inv), **groebner._unpacked(packer, field, tail)}
            polynomials[id(reducer)] = reducer, Polynomial(ring, terms)
        return polynomials[id(reducer)][1]

    def reference(terms, reducers, memo, order, quotient=None):
        return _reference_reduce(terms, [polynomial(r) for r in reducers], order, quotient)

    def run():
        formed, indexed = [], []
        original, index = groebner.s_polynomial, groebner._FirstDivisors.exponent_index

        def spy(*args):
            formed.append(args[:2])
            return original(*args)

        def indexing(self, reducers):
            indexed.append(len(reducers))
            return index(self, reducers)

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "s_polynomial", spy)
            patch.setattr(groebner._FirstDivisors, "exponent_index", indexing)
            basis = buchberger(gens, order).generators
        return basis, len(formed), indexed

    kernel_basis, kernel_pairs, indexed = run()
    assert indexed  # the index path ran
    monkeypatch.setattr(groebner, "_reduce_terms", reference)
    reference_basis, reference_pairs, _ = run()
    assert polynomials  # the reference division ran
    assert kernel_pairs == reference_pairs
    assert list(kernel_basis) == list(reference_basis)
