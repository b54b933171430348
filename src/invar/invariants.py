"""Invariant theory of finite matrix groups.

Degree-wise invariant bases by exact linear algebra, King's minimal
generating sets driven by truncated Groebner bases, Noether-style
separating sets and their reduction to at most 2n+1 elements, sampled
separation checks, homogeneous systems of parameters, Dade's orbit
product construction of primary invariants, and degree bound reports.

Degree-d invariants of finite and algebraic groups alike come from one
solver, `fixed_forms`: the callers supply the sparse linear equations
that a fixed form's coefficients satisfy, and it solves them with one
`nullspace` call.  The orbit products of Noether and Dade act on
linear forms only, and read each image (c sigma) x of a form c x off
the group's matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from operator import eq, mul
from typing import Sequence

from .errors import (
    DivisionByZero,
    FieldTooSmall,
    NonHomogeneousInput,
    RetryLimitExceeded,
    VerificationFailed,
)
from .fields import MODULAR_PRIME, PrimeField
from .groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    SubalgebraOracle,
    buchberger,
    elimination_ideal,
    fresh_names,
    ideal_dimension,
    ideal_membership,
)
from .groups import FiniteMatrixGroup, apply_element, require_nonmodular, reynolds
from .linalg import Matrix, nullspace
from .polynomials import (
    GREVLEX,
    IntegralValues,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    integral_vector,
    mono_divides,
    monomials_of_degree,
    product,
    transport,
)
from .prng import XorShift


# ---------------------------------------------------------------------------
# invariant spaces degree by degree
# ---------------------------------------------------------------------------

def fixed_forms(ring: PolynomialRing, d: int, equations) -> list:
    """Echelonized basis of the degree-d forms of `ring` whose
    coefficients satisfy sparse linear equations: `equations(m)` yields
    (key, c) for each equation, named by key, in which the coefficient of
    the monomial m enters with factor c.  The one solver for invariant
    spaces.  The reduced echelon form is unique, so the basis does not
    depend on the order of the equations; they are eliminated in key
    order, which fixes the work done."""
    monos = list(reversed(monomials_of_degree(ring, d)))  # descending grevlex
    rows = {}
    for j, m in enumerate(monos):
        for key, c in equations(m):
            rows.setdefault(key, {})[j] = c
    return [Polynomial(ring, {m: c for m, c in zip(monos, vec) if not c.is_zero()})
            for vec in nullspace([rows[k] for k in sorted(rows)], ring.field, len(monos))]


def invariant_basis(group: FiniteMatrixGroup, d: int) -> list:
    """Echelonized basis of the homogeneous degree-d invariants, from the
    exact linear system sigma(f) = f over the monomial basis, one
    equation per generator sigma and monomial of sigma(m) - m.  Works in
    the modular case as well.  The monomials substitute sigma's variable
    images, from `apply_element`, through one shared table."""
    ring = group.ring()
    actions = [([apply_element(x, sigma) for x in ring.variables()], {})
               for sigma in group.generators]

    def equations(m):
        mono = ring.monomial(m)
        for i, (images, table) in enumerate(actions):
            for mm, c in (mono.substitute(images, table) - mono).terms.items():
                yield (i, mm), c

    return fixed_forms(ring, d, equations)


# ---------------------------------------------------------------------------
# King's algorithm
# ---------------------------------------------------------------------------

@dataclass
class GeneratingSetResult:
    generators: list
    degrees: list
    termination_degree: int
    minimal: bool
    trace: list = dataclass_field(default_factory=list)

    def monic(self, order: MonomialOrder = GREVLEX) -> "GeneratingSetResult":
        return replace(self, generators=[g.monic(order) for g in self.generators])


def king_generators(
    group: FiniteMatrixGroup,
    order: MonomialOrder = GREVLEX,
) -> GeneratingSetResult:
    """Minimal generating set of the invariant ring of a nonmodular
    finite group.

    Pass d keeps a d-truncated Groebner basis of the ideal generated by
    the invariants found so far.  The degree-d monomials outside the
    leading term ideal are visited in ascending order; each Reynolds
    image with nonzero normal form h joins the generating set, h joins
    the truncated basis, and the leading monomial of h leaves the
    monomial pool (possibly deleting not-yet-visited monomials).  The
    algorithm stops at the first pass that opens with an empty pool,
    which happens at degree |G| + 1 at the latest."""
    require_nonmodular(group)
    ring = group.ring()
    engine = BuchbergerEngine(ring, order)
    gens = []
    degrees = []
    trace = []
    bound = group.order + 1
    d = 0
    while True:
        d += 1
        if d > bound:
            raise VerificationFailed(f"no termination by degree {bound} = |G| + 1")
        engine.extend(d)
        lms = engine.leading_monomials()
        pool = [
            m
            for m in monomials_of_degree(ring, d, order)
            if not any(mono_divides(lm, m) for lm in lms)
        ]
        if not pool:
            return GeneratingSetResult(
                generators=gens,
                degrees=degrees,
                termination_degree=d,
                minimal=True,
                trace=trace,
            )
        alive = set(pool)
        for t in pool:  # ascending in the order
            if t not in alive:
                continue
            f = reynolds(ring.monomial(t), group)
            if f.is_zero():
                continue
            h = engine.normal_form(f)
            if h.is_zero():
                continue
            gens.append(f)
            degrees.append(d)
            lm_h = h.leading_monomial(order)
            engine.add_generator(h, d)
            alive.discard(lm_h)
            trace.append((d, t, lm_h))


@dataclass
class NoetherHilbertReport:
    max_degree_ok: bool
    hilbert_monomials_ok: bool
    subalgebra_ok: bool
    group_order: int
    termination_degree: int

    @property
    def all_ok(self) -> bool:
        return self.max_degree_ok and self.hilbert_monomials_ok and self.subalgebra_ok


def verify_noether_and_hilbert(
    group: FiniteMatrixGroup, result: GeneratingSetResult
) -> NoetherHilbertReport:
    """Three checks on a generating set: degrees stay within the group
    order, every monomial of degree |G| lies in the generated ideal (by
    `_holds_degree`, on leading monomials alone for homogeneous
    generators such as King's), and the Reynolds image of every monomial
    up to the termination degree lies in the generated subalgebra."""
    require_nonmodular(group)
    gens = result.generators
    ring = gens[0].ring if gens else group.ring()
    g_order = group.order
    max_degree_ok = all(g.total_degree() <= g_order for g in gens)

    if gens:
        hilbert_ok = _holds_degree(buchberger(gens, GREVLEX), g_order)
    else:
        hilbert_ok = g_order == 1 or ring.nvars == 0
    # without generators the subalgebra is the constants
    oracle = SubalgebraOracle(gens) if gens else None
    subalgebra_ok = all(
        image.is_zero() or oracle is not None and oracle.contains(image)
        for d in range(1, result.termination_degree + 1)
        for m in monomials_of_degree(ring, d)
        for image in [reynolds(ring.monomial(m), group)]
    )
    return NoetherHilbertReport(
        max_degree_ok=max_degree_ok,
        hilbert_monomials_ok=hilbert_ok,
        subalgebra_ok=subalgebra_ok,
        group_order=g_order,
        termination_degree=result.termination_degree,
    )


def _holds_degree(basis: GroebnerBasis, d: int) -> bool:
    """Does the ideal of a Groebner basis hold every monomial of degree d?
    When the basis is homogeneous, its degree-d standard monomials are a
    basis of R_d / I_d (Macaulay's theorem; Cox, Little & O'Shea, ch. 9
    section 3), so it does exactly when a leading monomial divides each
    of them; otherwise each monomial is reduced to its normal form."""
    monomials = monomials_of_degree(basis.ring, d)
    if all(g.is_homogeneous() for g in basis.generators):
        leads = [g.leading_monomial(basis.order) for g in basis.generators]
        return all(any(mono_divides(lm, m) for lm in leads) for m in monomials)
    return all(ideal_membership(basis.ring.monomial(m), basis) for m in monomials)


# ---------------------------------------------------------------------------
# separating sets
# ---------------------------------------------------------------------------

@dataclass
class SeparatingSetResult:
    invariants: list
    homogeneous: bool
    provenance: str  # noether | reduced
    alphas: list = dataclass_field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.invariants)


def noether_separating_set(group: FiniteMatrixGroup) -> SeparatingSetResult:
    """Coefficients of prod_sigma (y - sum_ij sigma_ij x_j t^(i-1)) as
    polynomials in the x variables: a homogeneous separating set of
    degrees at most |G|, valid in any characteristic.  The |G| factors,
    read off the matrices, multiply in one call of the packed-integer kernel
    `polynomials.product`; coefficients are normalized monic and
    deduplicated."""
    ring = group.ring()
    n = group.dimension
    big = PolynomialRing(group.field, ring.names + ("t_aux", "y_aux"))
    y = big.variable(n + 1)
    orbit = product(big, [y - Polynomial(big, {tuple(int(k == j) for k in range(n)) + (i, 0): c
                                               for i, row in enumerate(sigma.rows)
                                               for j, c in enumerate(row)})
                          for sigma in group.elements])
    # split off the coefficient of each (t, y) monomial
    buckets = {}
    for m, c in orbit.terms.items():
        key = (m[n], m[n + 1])
        xm = m[:n]
        buckets.setdefault(key, {})[xm] = c
    out = []
    seen = set()
    for key in sorted(buckets):
        poly = Polynomial(ring, buckets[key])
        if poly.is_zero() or poly.is_constant():
            continue
        poly = poly.monic(GREVLEX)
        if poly not in seen:
            seen.add(poly)
            out.append(poly)
    return SeparatingSetResult(invariants=out, homogeneous=True, provenance="noether")


def _alpha_candidates(k: int, level: int):
    """Integer tuples of max-norm exactly `level`, lexicographic in the
    value sequence 1, 0, -1, 2, -2, ..., with a nonzero first entry."""
    values = [1, 0, -1]
    for v in range(2, level + 1):
        values.extend((v, -v))
    for tup in itertools.product(values, repeat=k):
        if max(abs(v) for v in tup) != level:
            continue
        if tup[0] == 0:
            continue
        yield tup


def reduce_separating_set(invariants: Sequence[Polynomial]) -> SeparatingSetResult:
    """Boil a finite separating set in n variables down to at most 2n+1
    elements.

    While more than 2n+1 invariants remain, the polynomials
    t*(f_i(x) - f_i(y)) acquire an algebraic relation H (least element
    of the reduced basis of their relation ideal); a point alpha with
    H(alpha) != 0 and alpha_1 != 0 is found by enumerating integer
    tuples, and the set is replaced by alpha_1 f_i - alpha_i f_1 for
    i >= 2.  The output consists of linear combinations of the input
    and is almost never homogeneous."""
    invariants = list(invariants)
    if not invariants:
        return SeparatingSetResult([], homogeneous=True, provenance="reduced")
    ring = invariants[0].ring
    field = ring.field
    if field.characteristic() != 0:
        raise FieldTooSmall("reduction needs an infinite (characteristic 0) field")
    n = ring.nvars
    alphas = []
    target = 2 * n + 1
    while len(invariants) > target:
        k = len(invariants)
        # y copies, t and the tags T1..Tk, renamed away from the x names
        aux = fresh_names([f"{nm}_cp" for nm in ring.names] + ["t_aux"]
                          + [f"T{i + 1}" for i in range(k)], ring.names)
        big = PolynomialRing(field, ring.names + aux)
        t = big.variable(2 * n)
        to_y = dict(zip(ring.names, aux))
        ideal = []
        for i, f in enumerate(invariants):
            fx = transport(f, big)
            fy = transport(f, big, to_y)
            tag = big.variable(2 * n + 1 + i)
            ideal.append(tag - t * (fx - fy))
        relations = elimination_ideal(ideal, big.names[:2 * n + 1])
        if not relations:
            raise VerificationFailed("more than 2n+1 invariants must be dependent")
        relation = relations[0]
        alpha = _find_nonvanishing_point(relation, k)
        alphas.append(alpha)
        a = [field.scalar(v) for v in alpha]
        invariants = [
            a[0] * invariants[i] - a[i] * invariants[0] for i in range(1, k)
        ]
    # linear combinations across degrees almost never stay homogeneous
    return SeparatingSetResult(
        invariants=invariants,
        homogeneous=all(p.is_homogeneous() for p in invariants),
        provenance="reduced",
        alphas=alphas,
    )


def _find_nonvanishing_point(relation: Polynomial, k: int):
    level = 1
    while True:
        for tup in _alpha_candidates(k, level):
            if not relation.evaluate(list(tup)).is_zero():
                return tup
        level += 1


@dataclass
class SeparationReport:
    passed: bool
    same_orbit_checked: int
    distinct_orbit_checked: int
    counterexamples: list  # {"kind", "invariant": Polynomial or None, "v", "w": points}
    seed: int
    coordinate_bound: int
    note: str = "sampled witness only; equality failures refute, successes do not prove"


def verify_separation_samples(
    invariants: Sequence[Polynomial],
    group: FiniteMatrixGroup,
    pairs: int = 100,
    coordinate_bound: int = 10,
    seed: int = 0,
) -> SeparationReport:
    """Seeded sampling check of the separating property: same-orbit point
    pairs must agree on every candidate invariant, and pairs from
    distinct orbits must differ somewhere (finite groups always separate
    distinct orbits by invariants).  The candidates and the group
    elements sigma = S / D are lifted to integer forms over Z[w] once and
    packed into ints (`polynomials.IntegralValues`).  A sampled point v
    has integer coordinates and sigma(v) the packed numerators S v over
    D, so the values of all candidates at a point (from one table of
    monomial values) and the orbit membership tests run on ints, each
    value settled once."""
    rng = XorShift(seed)
    n = group.dimension
    field = group.field
    counterexamples = []
    same_checked = 0
    distinct_checked = 0
    lifts = []
    for sigma in group.elements:
        den, entries = integral_vector([c for row in sigma.rows for c in row])
        lifts.append((den, [entries[i:i + n] for i in range(0, n * n, n)]))
    # D and the L1 norm of each coordinate of S v stay within `size`
    size = max([coordinate_bound] + [
        max(den, coordinate_bound * max((sum(sum(map(abs, x)) for x in row) for row in rows),
                                        default=0)) for den, rows in lifts])
    values = IntegralValues(group.ring(), invariants, size)
    # (D, packed rows of S, degree in w of the coordinates of sigma(v))
    elements = [(den, [list(map(values.pack, row)) for row in rows],
                 values.degree - 1 if any(any(x[1:]) for row in rows for x in row) else 0)
                for den, rows in lifts]

    def same_orbit(v, w):
        w = [field.scalar(x).value for x in w]
        return any(all(values.settle(sum(map(mul, row, v)), den) == x for row, x in zip(rows, w))
                   for den, rows, _ in elements)

    def random_point():
        return tuple(rng.randint(-coordinate_bound, coordinate_bound) for _ in range(n))

    def scalars(v):
        return tuple(map(field.scalar, v))

    for _ in range(pairs):
        # same-orbit pair
        v = random_point()
        index = rng.next_u64() % group.order
        den, rows, spread = elements[index]
        same_checked += 1
        images = values.at([sum(map(mul, row, v)) for row in rows], den, spread)
        for g, gv, gw in zip(invariants, values.at(v), images):
            if gv != gw:
                v = scalars(v)
                counterexamples.append({"kind": "same-orbit", "invariant": g, "v": v,
                                        "w": group.elements[index].apply(v)})
                break
        # distinct-orbit pair (resample a few times if we collide)
        for _ in range(20):
            v = random_point()
            w = random_point()
            if not same_orbit(v, w):
                break
        else:
            continue
        distinct_checked += 1
        if all(map(eq, values.at(v), values.at(w))):
            counterexamples.append({"kind": "distinct-orbit", "invariant": None,
                                    "v": scalars(v), "w": scalars(w)})
    return SeparationReport(
        passed=not counterexamples,
        same_orbit_checked=same_checked,
        distinct_orbit_checked=distinct_checked,
        counterexamples=counterexamples,
        seed=seed,
        coordinate_bound=coordinate_bound,
    )


# ---------------------------------------------------------------------------
# systems of parameters and degree bounds
# ---------------------------------------------------------------------------

def _dimension_mod_prime(polys: Sequence[Polynomial]):
    """dim (f_1, ..., f_k) over GF(MODULAR_PRIME) for f_i over Q, or None
    when a denominator is divisible by the prime.  An f_i that vanishes
    mod p only raises the dimension."""
    field = PrimeField(MODULAR_PRIME)
    ring = PolynomialRing(field, polys[0].ring.names)
    try:
        images = [Polynomial(ring, {m: field.residue(c) for m, c in f.terms.items()})
                  for f in polys]
    except DivisionByZero:
        return None
    return ideal_dimension(buchberger(images, GREVLEX))


def is_phsop(polys: Sequence[Polynomial]) -> bool:
    """Partial homogeneous system of parameters: the variety has the
    least possible dimension n - k.

    Over Q a test mod p = MODULAR_PRIME runs first and can only certify:
    with denominators prime to p, the degree-d part of the ideal is the
    row space of one integer matrix, whose rank mod p is at most its
    rank over Q, so degree by degree the Hilbert function mod p is at
    least the one over Q and dim over Q <= dim mod p, while Krull's
    principal ideal theorem gives dim over Q >= n - k (Arnold, J. Symb.
    Comput. 35, 2003).  Any mod-p answer other than n - k is redone over Q."""
    polys = list(polys)
    if not polys:
        return True
    for f in polys:
        if f.is_zero() or f.is_constant() or not f.is_homogeneous():
            raise NonHomogeneousInput(
                "phsop test needs nonconstant homogeneous polynomials"
            )
    n = polys[0].ring.nvars
    k = len(polys)
    if k > n:
        return False
    if polys[0].ring.field.kind == "rationals" and _dimension_mod_prime(polys) == n - k:
        return True
    dim = ideal_dimension(buchberger(polys, GREVLEX))
    return dim == n - k


DADE_RETRIES_PER_SLOT = 50  # random linear forms tried per slot
DADE_COEFFICIENT_BOUND = 10  # their coefficients lie in [-bound, bound]


def dade_primary_invariants(group: FiniteMatrixGroup, seed: int = 0) -> list:
    """Primary invariants as orbit products of seeded random linear
    forms, each the product of the distinct images of its form in one
    call of the packed-integer kernel `polynomials.product`; the image of
    c x is (c sigma) x.  Each addition is retried with fresh forms until
    the partial system of parameters test passes.  Slot n's test runs on
    all n forms, so it is the hsop test of the returned list."""
    if group.field.kind == "prime":
        # general-position forms need an infinite ground field
        raise FieldTooSmall("orbit-product construction needs an infinite field")
    rng = XorShift(seed)
    ring = group.ring()
    n = group.dimension
    chosen = []
    for slot in range(n):
        for _ in range(DADE_RETRIES_PER_SLOT):
            coeffs = [rng.randint(-DADE_COEFFICIENT_BOUND, DADE_COEFFICIENT_BOUND)
                      for _ in range(n)]
            if all(c == 0 for c in coeffs):
                continue
            form = Matrix.from_rows(group.field, [coeffs])
            # distinct images, in the order of the elements
            images = dict.fromkeys((form @ sigma).rows[0] for sigma in group.elements)
            orbit = product(ring, [Polynomial(ring, {tuple(int(k == j) for k in range(n)): c
                                                     for j, c in enumerate(row)})
                                   for row in images])
            if is_phsop(chosen + [orbit]):
                chosen.append(orbit)
                break
        else:
            raise RetryLimitExceeded(
                f"no suitable linear form found for slot {slot + 1}"
            )
    return chosen


@dataclass
class DegreeBoundReport:
    symonds_bound: int
    coarse_bound: int
    noether_bound: int
    noether_applies: bool  # nonmodular only


def degree_bound_report(
    group: FiniteMatrixGroup, primary_degrees: Sequence[int]
) -> DegreeBoundReport:
    """Secondary-invariant bound sum(d_i - 1), the coarse bound
    n(|G| - 1), and the group-order bound (nonmodular only)."""
    n = group.dimension
    return DegreeBoundReport(
        symonds_bound=sum(d - 1 for d in primary_degrees),
        coarse_bound=n * (group.order - 1),
        noether_bound=group.order,
        noether_applies=not group.is_modular(),
    )
