"""Invariants of linear algebraic groups through the ideal of the
action graph.

A group is specified as an affine variety (vanishing-ideal generators
in the group coordinates z) together with a linear action matrix whose
entries are polynomials in z.  Elimination of the group coordinates
from the graph ideal yields the Derksen ideal; from it come generating
invariants (linearly reductive case), generators of the invariant
field over a rational function field, and separating varieties and
subalgebras for reductive groups.

The action enters through ``action_graph_generators`` alone: it is the
only reader of the action matrix, and every construction below derives
its images sum_j a_ij(z) x_j from those generators (``groups.apply_element``
is the finite-group counterpart).  The degree-d invariants of the action
are solved for by ``invariants.fixed_forms``, the solver that finite
groups use too, on images substituted through one shared table per
degree (``invariant_basis`` keeps one per group generator).

The group ideal reduces in the graph ring (y, x, z), where the spec
keeps its Groebner basis, computed in K[z]: the basis involves z only,
grevlex on (y, x, z) orders z-only monomials as grevlex on z does, and
a z-only reducer keeps the x-part of each term, so one remainder there
is the reduction of every x-coefficient in K[z].
Polynomials change rings through ``polynomials.transport``, by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from .errors import (
    ContextMismatch,
    MaxDegreeExceeded,
    NotDeclaredReductive,
    VerificationFailed,
)
from .fields import Field, Scalar
from .groebner import (
    GroebnerBasis,
    buchberger,
    elimination_ideal,
    front_free_basis,
    normal_form,
    radical_membership,
    reduce_basis,
)
from .invariants import GeneratingSetResult, fixed_forms
from .polynomials import (
    GREVLEX,
    BlockElimination,
    Polynomial,
    PolynomialRing,
    transport,
)
from .ratfunc import RationalFunctionField


@dataclass
class AlgebraicGroupSpec:
    """Affine algebraic group with a linear action on n coordinates.

    group_vars may be empty (the trivial group); ideal_gens live in the
    ring over group_vars; the action matrix entry a[i][j] (a polynomial
    in the group variables) sends x_i to sum_j a[i][j] x_j.
    """

    field: Field
    group_vars: tuple
    ideal_gens: list
    n: int
    action_matrix: list
    linear_reductive: bool = False
    label: str = ""
    _cache: dict = dataclass_field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.group_vars = tuple(self.group_vars)
        if len(self.action_matrix) != self.n or any(
            len(row) != self.n for row in self.action_matrix
        ):
            raise ContextMismatch("action matrix must be n x n")
        zring = self.z_ring()
        for g in self.ideal_gens:
            if g.ring != zring:
                raise ContextMismatch("ideal generators must live in the z ring")
        for row in self.action_matrix:
            for entry in row:
                if entry.ring != zring:
                    raise ContextMismatch("action entries must live in the z ring")
        gens = buchberger(self.ideal_gens, GREVLEX).generators if self.ideal_gens else ()
        graph = self.graph_ring()  # where `algebraic_invariant_basis` reduces
        basis = GroebnerBasis(graph, GREVLEX, tuple(transport(g, graph) for g in gens))
        if basis.contains_one():
            raise ContextMismatch("group ideal is the whole ring")
        self._cache["group_basis"] = basis

    def z_ring(self) -> PolynomialRing:
        return PolynomialRing(self.field, self.group_vars)

    def x_names(self) -> tuple:
        return tuple(f"x{i + 1}" for i in range(self.n))

    def y_names(self) -> tuple:
        return tuple(f"y{i + 1}" for i in range(self.n))

    def x_ring(self) -> PolynomialRing:
        return PolynomialRing(self.field, self.x_names())

    def pair_ring(self) -> PolynomialRing:
        """Doubled ring for the action graph; the y block is listed first
        so that image-point monomials lead in the induced order."""
        return PolynomialRing(self.field, self.y_names() + self.x_names())

    def graph_ring(self) -> PolynomialRing:
        return PolynomialRing(
            self.field, self.y_names() + self.x_names() + self.group_vars
        )


def action_graph_generators(spec: AlgebraicGroupSpec) -> list:
    """Generators of the vanishing ideal of the extended action graph
    {(v, sigma v, sigma)}: the group ideal plus f_i - y_i."""
    ring = spec.graph_ring()
    n = spec.n
    out = [transport(g, ring) for g in spec.ideal_gens]
    for i in range(n):
        f_i = ring.zero
        for j in range(n):
            a = transport(spec.action_matrix[i][j], ring)
            f_i = f_i + a * ring.variable(n + j)  # x_j
        out.append(f_i - ring.variable(i))  # y_i
    return out


@dataclass
class DerksenIdealResult:
    generators: list
    reduced: bool


def derksen_ideal(spec: AlgebraicGroupSpec) -> DerksenIdealResult:
    """Vanishing ideal of the action graph in the doubled variables,
    i.e. the elimination of the group coordinates from the extended
    graph ideal; returned as a reduced basis over the (x, y) ring."""
    if "derksen" not in spec._cache:
        gens = elimination_ideal(action_graph_generators(spec), spec.group_vars)
        spec._cache["derksen"] = DerksenIdealResult(generators=gens, reduced=True)
    return spec._cache["derksen"]


def _specialize_y_to_zero(p: Polynomial, spec: AlgebraicGroupSpec) -> Polynomial:
    """p lives in the pair ring (y block first); keep the pure-x part."""
    xring = spec.x_ring()
    n = spec.n
    terms = {}
    for m, c in p.terms.items():
        if any(e != 0 for e in m[:n]):
            continue
        terms[m[n:]] = c
    return Polynomial(xring, terms)


def hilbert_ideal_generators(spec: AlgebraicGroupSpec) -> list:
    """y = 0 specialization of the homogeneous components of the
    Derksen ideal generators: for a linearly reductive group these
    generate the ideal of all nonconstant homogeneous invariants."""
    out = []
    seen = set()
    for g in derksen_ideal(spec).generators:
        for comp in g.homogeneous_components():
            h = _specialize_y_to_zero(comp, spec)
            if h.is_zero() or h.is_constant():
                continue
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def algebraic_invariant_basis(spec: AlgebraicGroupSpec, d: int) -> list:
    """Echelonized basis of the degree-d invariants of the linear
    action, from `invariants.fixed_forms`: the coefficients of a generic
    degree-d form are constrained by requiring f(A(z) x) - f(x) to
    vanish modulo the group ideal, one equation per (x-monomial,
    z-monomial) of the image reduced once in the graph ring."""
    n = spec.n
    ring = spec.graph_ring()  # y block, x block, z block
    basis = spec._cache["group_basis"]
    # x_j -> f_j, read off the graph generator f_j - y_j
    graph = action_graph_generators(spec)[len(spec.ideal_gens):]
    images = ring.variables()
    images[n:2 * n] = [g + ring.variable(j) for j, g in enumerate(graph)]
    table = {}  # the images of the monomials below degree d, shared

    def equations(m):
        exps = (0,) * n + m + (0,) * len(spec.group_vars)
        mono = ring.monomial(exps)
        image = mono.substitute(images, table)
        del table[exps]  # a degree-d image is a factor of no other
        for mm, c in normal_form(image - mono, basis).terms.items():
            yield (mm[n:2 * n], mm[2 * n:]), c

    return fixed_forms(spec.x_ring(), d, equations)


def derksen_generators(spec: AlgebraicGroupSpec) -> GeneratingSetResult:
    """Generating invariants of a linearly reductive group: degrees of
    the Hilbert ideal generators obtained from the Derksen ideal, then
    a fresh invariant basis in each of those degrees.  Usually not
    minimal."""
    if not spec.linear_reductive:
        raise NotDeclaredReductive(
            "spec must declare linear_reductive (safe in characteristic 0 "
            "for reductive groups, tori, and nonmodular finite groups)"
        )
    hilbert = hilbert_ideal_generators(spec)
    degrees = sorted({h.total_degree() for h in hilbert})
    gens = []
    gen_degrees = []
    seen = set()
    for d in degrees:
        for b in algebraic_invariant_basis(spec, d):
            if b not in seen:
                seen.add(b)
                gens.append(b)
                gen_degrees.append(d)
    return GeneratingSetResult(
        generators=gens,
        degrees=gen_degrees,
        termination_degree=max(degrees, default=0),
        minimal=False,
    )


# ---------------------------------------------------------------------------
# invariant fields over a rational function field
# ---------------------------------------------------------------------------

def invariant_field_generators(spec: AlgebraicGroupSpec) -> list:
    """Generators of the invariant field: the nonconstant coefficients
    of the reduced basis of the Derksen ideal over L = K(x_1, ..., x_n),
    each normalized to a monic numerator and deduplicated.  No
    reductivity assumption is needed (Mueller-Quade & Beth, J. Symb.
    Comput. 1999; Kemper, Transformation Groups 12, 2007).

    Buchberger runs once over K, in K[z, y, x] under the block order
    z >> y >> x.  The basis elements free of z form a Groebner basis of
    the Derksen ideal for y >> x, and so of its extension to L[y]:
    localisation commutes with elimination (see `BlockElimination`).
    Only the final inter-reduction runs over L."""
    n, r = spec.n, len(spec.group_vars)
    ring = PolynomialRing(spec.field, spec.group_vars + spec.y_names() + spec.x_names())
    moved = [transport(g, ring) for g in action_graph_generators(spec)]
    free = front_free_basis(moved, BlockElimination(r, n)) if moved else ()
    L = RationalFunctionField(spec.field, spec.x_names())
    yring = PolynomialRing(L, spec.y_names())
    gens = []
    for g in free:
        # the x block of each term moves into its coefficient in L
        coeffs = {}
        for m, c in g.terms.items():
            coeffs.setdefault(m[r:r + n], {})[m[r + n:]] = c
        gens.append(Polynomial(yring, {
            m: L.from_polynomial(Polynomial(L.ring, xterms)) for m, xterms in coeffs.items()
        }))
    out = []
    seen = set()
    for g in reduce_basis(GroebnerBasis(yring, GREVLEX, tuple(gens))).generators:
        for _, c in g.sorted_terms(GREVLEX):
            num, den = c.value
            if num.is_constant() and den.is_constant():
                continue
            # a constant factor keeps the fraction reduced and den monic
            normalized = Scalar(L, (num * num.leading(GREVLEX)[1].inverse(), den))
            if normalized not in seen:
                seen.add(normalized)
                out.append(normalized)
    out.sort(key=str)
    return out


# ---------------------------------------------------------------------------
# separating varieties for reductive groups
# ---------------------------------------------------------------------------

def separating_variety(spec: AlgebraicGroupSpec) -> list:
    """Ideal of the pairs of points on which all invariants agree
    (orbit closures meet): both points are mapped into a shared target
    by two independent copies of the group, and everything but the pair
    is eliminated."""
    u_names = tuple(f"u{i + 1}" for i in range(spec.n))
    za_names = tuple(f"{z}_a" for z in spec.group_vars)
    zb_names = tuple(f"{z}_b" for z in spec.group_vars)
    ys, zs = spec.y_names(), spec.group_vars
    big = PolynomialRing(spec.field, ys + spec.x_names() + u_names + za_names + zb_names)
    # copy a sends (y, x, z) to (u, x, z_a), copy b sends it to (u, y, z_b)
    a_map = dict(zip(ys + zs, u_names + za_names))
    b_map = dict(zip(ys + spec.x_names() + zs, u_names + ys + zb_names))
    gens = []
    for g in action_graph_generators(spec):
        gens.append(transport(g, big, a_map))
        gens.append(transport(g, big, b_map))
    return elimination_ideal(gens, u_names + za_names + zb_names)


def separating_subalgebra(spec: AlgebraicGroupSpec, max_degree: int) -> list:
    """Homogeneous invariants of rising degree until their differences
    f(x) - f(y) cut out the separating variety set-theoretically
    (radical membership in both directions)."""
    sep = separating_variety(spec)
    xy = spec.pair_ring()
    to_y = dict(zip(spec.x_names(), spec.y_names()))
    invs = []
    deltas = []
    for d in range(1, max_degree + 1):
        for f in algebraic_invariant_basis(spec, d):
            invs.append(f)
            deltas.append(transport(f, xy) - transport(f, xy, to_y))
        if not deltas:
            continue
        if all(radical_membership(g, deltas) for g in sep):
            if not all(radical_membership(delta, sep) for delta in deltas):
                raise VerificationFailed(
                    "invariant difference must vanish on the separating variety"
                )
            return invs
    raise MaxDegreeExceeded(
        f"separating subalgebra incomplete at degree {max_degree}", partial=invs
    )
