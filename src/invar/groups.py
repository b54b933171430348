"""Finite matrix groups: closure enumeration, Reynolds averaging,
element classification, and the Molien series.

Group elements are exact matrices over the ground field; equality and
hashing go through the canonical scalar forms, so closure enumeration
is a plain breadth-first search keyed by the matrices themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Callable, Sequence

from .errors import (CapExceeded, DivisionByZero, ModularCase, PositiveCharacteristic,
                     SingularGenerator)
from .fields import MODULAR_PRIME, Field, PrimeField
from .linalg import Matrix
from .polynomials import (
    Polynomial,
    PolynomialRing,
    _sum_terms,
    image_table,
    monomial_image,
)

DEFAULT_CLOSURE_CAP = 100000


@dataclass(frozen=True)
class FiniteMatrixGroup:
    field: Field
    dimension: int
    generators: tuple
    elements: tuple
    label: str = ""
    # per ring, `reynolds`' monomial images per element and orbit sums
    _cache: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def ring(self) -> PolynomialRing:
        return PolynomialRing(self.field, tuple(f"x{i + 1}" for i in range(self.dimension)))

    def identity(self) -> Matrix:
        return Matrix.identity(self.field, self.dimension)

    def contains(self, m: Matrix) -> bool:
        return m in set(self.elements)

    def is_modular(self) -> bool:
        p = self.field.characteristic()
        return p != 0 and self.order % p == 0


def require_nonmodular(group: FiniteMatrixGroup):
    """Raise ModularCase when the characteristic divides the group order."""
    if group.is_modular():
        raise ModularCase(f"characteristic {group.field.characteristic()} divides "
                          f"group order {group.order}")


def close_group(
    generators: Sequence[Matrix],
    cap: int = DEFAULT_CLOSURE_CAP,
    label: str = "",
) -> FiniteMatrixGroup:
    """Enumerate the group generated by invertible matrices by breadth
    first search from the identity, multiplying by generators on the
    right in the order given.  Raises CapExceeded when more than `cap`
    elements appear (infinite or oversized group), and at once for a
    generator over Q of infinite order, shown by one of two tests.  Roots
    of unity for eigenvalues make each c_i of det(1 - t*g) = sum c_i t^i
    an integer with |c_i| <= binomial(n, i).  And a finite-order g has
    order dividing M = lcm{k : phi(k) <= n}, as each eigenvalue is a
    primitive k-th root of unity of degree phi(k) <= n: g^M != 1 modulo
    a prime proves infinite order.  GF(p) matrices have finite order;
    number fields rely on the cap."""
    gens = list(generators)
    if not gens:
        raise ValueError("dimension unknown for an empty generating set")
    field = gens[0].field
    n = gens[0].nrows
    for g in gens:
        if g.nrows != n or g.ncols != n or g.field != field:
            raise ValueError("generators must be square over one field")
        if g.rank() != n:
            raise SingularGenerator("generator matrix is singular")
        if field.kind == "rationals":
            c = [x.value for x in det_one_minus_t(g)]
            if any(den != 1 or abs(num) > comb(n, i) for i, (num, den) in enumerate(c)):
                raise CapExceeded("a generator has infinite order: det(1 - t*g) is not "
                                  "integral with |c_i| <= binomial(n, i)")
            if not _power_is_identity_mod(g, _order_bound(n)):
                raise CapExceeded(f"a generator has infinite order: g^{_order_bound(n)} != 1 "
                                  f"modulo {MODULAR_PRIME}")
    return FiniteMatrixGroup(field=field, dimension=n, generators=tuple(gens),
                             elements=_closure(gens, cap), label=label)


@lru_cache(maxsize=None)
def _order_bound(n: int) -> int:
    """lcm{k : phi(k) <= n}, a multiple of the order of every finite-order
    rational n x n matrix; phi(k) >= sqrt(k / 2) bounds the search by 2n^2."""
    return lcm(*(k for k in range(1, 2 * n * n + 1)
                 if sum(gcd(i, k) == 1 for i in range(1, k + 1)) <= n))


def _power_is_identity_mod(g: Matrix, e: int) -> bool:
    """Is g^e = 1 over GF(MODULAR_PRIME), by square-and-multiply?
    Necessary for g^e = 1 over Q; a denominator divisible by the prime
    answers True."""
    field = PrimeField(MODULAR_PRIME)
    try:
        base = Matrix(field, [[field.residue(x) for x in row] for row in g.rows])
    except DivisionByZero:
        return True
    power = base
    for bit in bin(e)[3:]:
        power = power @ power
        if bit == "1":
            power = power @ base
    return power == Matrix.identity(field, g.nrows)


def _closure(gens: Sequence[Matrix], cap: int) -> tuple:
    """The elements generated by square matrices of finite order, in
    breadth-first order from the identity; CapExceeded past `cap`."""
    identity = Matrix.identity(gens[0].field, gens[0].nrows)
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = e @ g
                if prod not in seen:
                    if len(elements) >= cap:
                        raise CapExceeded(
                            f"closure exceeded cap {cap}; group infinite or too large"
                        )
                    seen.add(prod)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(elements)


def apply_element(p: Polynomial, m: Matrix) -> Polynomial:
    """The finite-group action on polynomials: x_i -> sum_j m[i][j] x_j
    on the first m.nrows variables of p's ring, the rest left fixed."""
    return p.apply_linear_map(m)


def reynolds(f: Polynomial, group: FiniteMatrixGroup) -> Polynomial:
    """Group average; the projection of f onto the invariant ring.

    Kept per ring: for each element sigma, a monomial-image table of
    sigma(x^a) as raw terms, and the orbit sums S(a) = sum_sigma
    sigma(x^a).  The average is sum_a c_a S(a) / |G|."""
    field, ring = group.field, f.ring
    require_nonmodular(group)
    if ring not in group._cache:
        one = {(0,) * ring.nvars: field.one.value}
        group._cache[ring] = [image_table(one, [apply_element(x, sigma)._payloads()
                                                for x in ring.variables()])
                              for sigma in group.elements], {}
    tables, sums = group._cache[ring]
    for a in f.terms.keys() - sums.keys():
        sums[a] = _sum_terms(field, (mc for t in tables
                                     for mc in monomial_image(t, a, field).items()))
    mul, inverse = field._accumulator()[0], field.scalar(group.order).inverse().value
    total = _sum_terms(field, ((m, mul(c.value, v)) for a, c in f.terms.items()
                               for m, v in sums[a].items()))
    return Polynomial._from_payloads(ring, {m: field._mul(v, inverse) for m, v in total.items()})


@dataclass(frozen=True)
class ElementClassification:
    codimension: int
    label: str  # identity | reflection | bireflection | other


def fixed_space_codimension(m: Matrix) -> int:
    return (m - Matrix.identity(m.field, m.nrows)).rank()


def classify_element(m: Matrix) -> ElementClassification:
    """Codimension of the fixed space with the strongest matching label;
    reflections fix codimension 1, bireflections codimension at most 2."""
    codim = fixed_space_codimension(m)
    if codim == 0:
        label = "identity"
    elif codim == 1:
        label = "reflection"
    elif codim == 2:
        label = "bireflection"
    else:
        label = "other"
    return ElementClassification(codimension=codim, label=label)


def element_order(m: Matrix, cap: int) -> int:
    identity = Matrix.identity(m.field, m.nrows)
    acc = m
    for k in range(1, cap + 1):
        if acc == identity:
            return k
        acc = acc @ m
    raise CapExceeded(f"element order exceeds {cap}")


def generated_by_predicate(
    group: FiniteMatrixGroup, predicate: Callable[[Matrix], bool]
) -> bool:
    """Does the subset satisfying the predicate generate the whole group?
    An element joins the generators only if their closure misses it, so
    each one at least doubles the closure: at most log2 |G| closures."""
    gens, reached = [], {group.identity()}
    for g in group.elements:
        if len(reached) == group.order:
            break
        if g not in reached and predicate(g):
            gens.append(g)
            reached = set(_closure(gens, group.order))
    return len(reached) == group.order


def is_reflection_group(group: FiniteMatrixGroup) -> bool:
    return generated_by_predicate(group, lambda m: fixed_space_codimension(m) <= 1)


def is_bireflection_group(group: FiniteMatrixGroup) -> bool:
    return generated_by_predicate(group, lambda m: fixed_space_codimension(m) <= 2)


def cohen_macaulay_necessary_condition(group: FiniteMatrixGroup) -> bool:
    """Necessary condition for a Cohen-Macaulay invariant ring: the group
    is generated by elements of order prime to the characteristic
    together with bireflections.  Trivially true in characteristic 0."""
    p = group.field.characteristic()
    if p == 0:
        return True

    def pred(m):
        if fixed_space_codimension(m) <= 2:
            return True
        return element_order(m, group.order) % p != 0

    return generated_by_predicate(group, pred)


def det_one_minus_t(sigma: Matrix) -> list:
    """Coefficients c_0 .. c_n of det(1 - t*sigma), in characteristic 0,
    from the traces p_i = tr(sigma^i) by Newton's identities."""
    n, zero = sigma.nrows, sigma.field.zero
    powers = [sigma]
    for _ in range(n - 1):
        powers.append(powers[-1] @ sigma)
    p = [None] + [sum((m.rows[j][j] for j in range(n)), zero) for m in powers]
    c = [sigma.field.one]
    for i in range(1, n + 1):
        c.append(-sum((c[i - j] * p[j] for j in range(1, i + 1)), zero) / i)
    return c


def molien_series(group: FiniteMatrixGroup, truncation: int) -> tuple:
    """Hilbert series of the invariant ring: the coefficients of t^0 ..
    t^truncation of the group average of 1/det(1 - t*sigma).

    For each sigma, Newton's identities turn the traces p_i = tr(sigma^i)
    into the coefficients of det(1 - t*sigma) = sum c_i t^i, through
    i*c_i = -sum_{j<=i} c_{i-j} p_j, and the reciprocal series sum h_k t^k
    follows from h_k = -sum_{1<=i<=min(k,n)} c_i h_{k-i}."""
    field = group.field
    if field.characteristic() != 0:
        raise PositiveCharacteristic("Molien series needs characteristic 0")
    n, zero, one = group.dimension, field.zero, field.one
    # elements with one characteristic polynomial share their series
    dets = Counter(tuple(det_one_minus_t(sigma)) for sigma in group.elements)
    total = [zero] * (truncation + 1)
    for c, count in dets.items():
        h = [one]
        for k in range(1, truncation + 1):
            h.append(-sum((c[i] * h[k - i] for i in range(1, min(k, n) + 1)), zero))
        total = [a + count * b for a, b in zip(total, h)]
    scale = field.scalar(group.order).inverse()
    return tuple(x * scale for x in total)
