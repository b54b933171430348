"""Buchberger engine with degree truncation, plus the ideal oracles
built on it: normal forms, reduced bases, elimination, dimension, and
ideal/radical/subalgebra membership.

`_reduce_terms` is the package's one sparse division loop.  Normal
forms, s-pair reduction, basis inter-reduction, and the exact division
of `ratfunc` all run through it, on reducers built by `_reducer`.
Inside it a monomial is one int (Bachmann & Schoenemann, ISSAC 1998),
laid out by `_Packer`: a product is an int sum, a quotient a
difference, the order int comparison and divisibility one guard-bit
mask test.  The loop is heap-driven (Monagan & Pearce,
J. Symb. Comput. 2011): the greatest term comes off a heap of negated
packed monomials.  Reduction is delayed, as there: a tail update adds
a product into the monomial's pending coefficient through the field's
`_accumulator`, with no normalising and no zero test, and the
coefficient is settled and tested for zero once, when its term is
popped; a cancelled term is dropped there.  Pending coefficients are
unreduced ints over GF(p), integer pairs over Q, and over Q(w) the
same pairs for rational values and integer vectors for the others,
reduced when settled; K(x) keeps its canonical arithmetic.
The ratio of a reduction step is taken from the settled
coefficient, so the quotient and the remainder are canonical.  The
arithmetic runs on raw field payloads; tuples and `Scalar`s come back
only in the result and the quotient.  Packing refuses degree 2^15; a
term that a division raises to it stops the division with
`CapExceeded`, never a wrong answer, when it is popped nonzero (a
product of zero divisors there vanishes and is dropped).

A popped term is reduced by the first reducer in the list whose leading
monomial divides it.  The owner of a reducer list keeps a memo beside
it, handed to every division on that list: per packed monomial, the
index of the first reducer found to divide it, or the list's length
when none did.  A later pop of the monomial resumes the scan there, so a
known divisor costs one mask test and a known miss tests only the
reducers appended since.  The memo is exact because every reducer list
only grows by `append` (the engine's, the one `reduce_basis` builds and
hands on to its result, and a `GroebnerBasis`'s frozen one): the
reducers before a remembered index never change, and none of them
divides.  Throwaway lists, as in `ratfunc`'s divisions, get a fresh memo.

Determinism is a hard requirement: pair selection follows the sugar
strategy (Giovini, Mora, Niesi, Robbiano & Traverso, ISSAC 1991).
Every basis element carries a sugar degree, the degree it would have
had if the input had been homogenised; a pair's sugar is the larger of
its two elements' sugars lifted to the lcm.  The lowest sugar goes
first, ties by lcm degree, then by the monomial order on the lcm, then
by pair indices.  On homogeneous input the sugar is the lcm degree, so
this is the normal strategy there.  The reducer is always the first
basis element whose leading monomial divides (found through the memo
above, which picks the same one), and queued pairs survive
truncation: a run truncated at sugar d is a prefix of the full run, so
it can be continued to higher degree without recomputation.  Pair
pruning uses the Gebauer-Moeller criteria (J. Symb. Comput. 6, 1988),
which depend only on leading monomials and therefore commute with
truncation.  They run on the packed leading exponents, the low fields of
every packing: an lcm takes a few int operations and its degree is the
int mod 2^16 - 1.  Of the new pairs, one pass in increasing lcm degree
keeps the minimal lcms (a plain loop over those kept so far, stopping at
the first divisor), and queues the last pair of each one that no
coprime pair shares.

An s-pair is formed from the two elements' `_reducer`s: both packed
tails are shifted to the packed lcm and scaled by the inverted leading
coefficients in one dict pass on raw payloads.  The leading terms cancel
by construction and are never formed, and only sums are tested for
zero.  `extend` still forms each pair through the module-level
`s_polynomial`, which returns a `Polynomial` (one unpacking per
surviving term), so that the pair count can be observed by replacing
that one name; `_reduce_terms` packs the result's terms again.
Results built from kernel output skip `Polynomial.__init__`'s zero
re-test, as the kernel never emits a zero coefficient.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, islice
from operator import mul
from typing import Optional, Sequence

from .errors import CapExceeded, ContextMismatch, TruncatedBasis, TruncationInsufficient
from .fields import Scalar
from .polynomials import (
    DEGREE_BOUND,
    GREVLEX,
    LEX,
    BlockElimination,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    mono_divides,
    mono_support,
    transport,
)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder, reducers=None) -> Polynomial:
    """Classic s-polynomial, with both lead terms scaled to 1.  A caller
    holding the `_reducer`s of f and g passes them, so that neither
    leading term is searched for nor inverted again.  Both tails are
    shifted to the packed lcm in one dict pass on raw payloads; the
    leading terms cancel by construction and are never formed."""
    if reducers is None:
        if f.ring != g.ring:
            raise ContextMismatch("s-polynomial of polynomials from different rings")
        reducers = _reducer(f, order), _reducer(g, order)
    (plmf, finv, ftail, lmf), (plmg, ginv, gtail, lmg) = reducers
    field = f.ring.field
    times, plus, is_zero = field._mul, field._add, field._is_zero
    packer = _packer(order, f.ring.nvars)
    # packed unchecked: a field of the lcm may pass DEGREE_BOUND, but the shifts
    # lcm/lm stay below it, so every shifted field stays below 2^_W
    lcm = sum(map(mul, map(max, lmf, lmg), packer.unit))
    shift = lcm - plmf
    # a unit times a nonzero payload is nonzero: only sums are tested
    work = {m + shift: times(c, finv) for m, c in ftail}
    shift, ginv = lcm - plmg, field._neg(ginv)
    for m, c in gtail:
        m += shift
        c = times(c, ginv)
        cur = work.get(m)
        if cur is None:
            work[m] = c
            continue
        cur = plus(cur, c)
        if is_zero(cur):
            del work[m]
        else:
            work[m] = cur
    return Polynomial._from_nonzero(f.ring, _unpacked(packer, field, work.items()))


_W = DEGREE_BOUND.bit_length()  # 16 bits per packed field, the top one a guard bit; unpacked as "H"
_FOLD = (1 << _W) - 1  # 2^_W = 1 mod _FOLD: an int is its fields' sum mod _FOLD


class _Packer:
    """Monomials as ints of `_W`-bit fields, most significant first: the
    order's 0/1 `rows` dotted with the exponents, then the exponents
    unless the rows end with them.  Below degree `DEGREE_BOUND` no
    field reaches its guard bit G, and a | b iff ((b | G) - a) & G == G."""

    def __init__(self, order: MonomialOrder, n: int):
        units = LEX.rows(n)
        rows = order.rows(n)
        if rows[len(rows) - n:] != units:
            rows += units
        shifts = [_W * j for j in reversed(range(len(rows)))]
        self.unit = [sum(row[i] << s for row, s in zip(rows, shifts)) for i in range(n)]
        self.guard = sum(DEGREE_BOUND << s for s in shifts)
        self.size, self.exponents = len(rows) * _W // 8, struct.Struct(f">{n}H")

    def pack(self, m) -> int:
        if sum(m) >= DEGREE_BOUND:
            raise CapExceeded(f"monomial degree {sum(m)} reaches the bound {DEGREE_BOUND}")
        return sum(map(mul, m, self.unit))

    def unpack(self, p: int) -> tuple:
        exponents = self.exponents
        return exponents.unpack_from(p.to_bytes(self.size, "big"), self.size - exponents.size)


def _packer(order: MonomialOrder, n: int) -> _Packer:
    """The packer of (order, n), kept on the order: no lookup hashes it."""
    packers = vars(order).setdefault("_packers", {})
    return packers.get(n) or packers.setdefault(n, _Packer(order, n))


def _reducer(g: Polynomial, order: MonomialOrder):
    """The (plm, inv, tail, lm) reducer of a nonzero polynomial: the
    packed leading monomial, the raw inverse of the leading coefficient,
    the other terms as (packed monomial, raw payload) pairs, and the
    leading monomial as a tuple."""
    packer = _packer(order, g.ring.nvars)
    packed = [(packer.pack(m), c) for m, c in g.terms.items()]
    plm, lc = max(packed)  # packed monomials are distinct ints
    tail = [(m, c.value) for m, c in packed if m != plm]
    return plm, lc.inverse().value, tail, packer.unpack(plm)


def _unpacked(packer: _Packer, field, items) -> dict:
    """(packed monomial, raw payload) pairs as a term dict: the one place
    `groebner` wraps payloads into `Scalar`s.  Unpacking is exact while
    no field carries, that is below 2^_W per field."""
    unpack = packer.unpack
    return {unpack(m): Scalar(field, c) for m, c in items}


def _reduce_terms(
    terms: dict, reducers, memo: dict, order: MonomialOrder, quotient: Optional[dict] = None
) -> dict:
    """Full normal form of a term dict against `_reducer`s; the first
    divisible reducer wins, found through `memo`, the list's memo of
    first divisors, which the call updates.  With a single reducer, a
    `quotient` dict collects the quotient's terms.  Both come back with
    tuple monomials, in descending order, and nonzero coefficients."""
    if not terms:
        return {}
    field = next(iter(terms.values())).field
    times, negate, is_zero = field._mul, field._neg, field._is_zero
    mul, add, settle = field._accumulator()
    packer = _packer(order, len(next(iter(terms))))
    guard = packer.guard
    # work maps each queued packed monomial to its unsettled raw
    # coefficient; the heap holds each queued one once
    work = {packer.pack(m): c.value for m, c in terms.items()}
    heap = [-m for m in work]
    heapq.heapify(heap)
    result, steps = [], []
    while heap:
        t = -heapq.heappop(heap)
        c = settle(work.pop(t))
        if is_zero(c):
            continue  # cancelled, or a product of zero divisors
        if t & guard:
            # in-range fields sum below 2^_W: overflow only sets a guard bit
            raise CapExceeded(f"an exponent reached {DEGREE_BOUND} in division")
        tg = t | guard
        # reducers before the remembered index do not divide t
        i = start = memo.get(t, 0)
        for plm, inv, tail, _ in islice(reducers, start, None):
            if (tg - plm) & guard == guard:
                break
            i += 1
        if i != start:
            memo[t] = i
        if i == len(reducers):
            result.append((t, c))
            continue
        ratio = times(c, inv)
        shift = t - plm
        if quotient is not None:
            steps.append((shift, ratio))
        ratio = negate(ratio)
        for m, mc in tail:
            m2 = m + shift
            cur = work.get(m2)
            if cur is None:
                heapq.heappush(heap, -m2)
                work[m2] = mul(ratio, mc)
            else:
                work[m2] = add(cur, mul(ratio, mc))
    if quotient is not None:
        quotient.update(_unpacked(packer, field, steps))
    return _unpacked(packer, field, result)


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolynomialRing
    order: MonomialOrder
    generators: tuple
    truncation_degree: Optional[int] = None
    _cache: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    def reducers(self):
        """The generators' `_reducer`s, frozen, and their division memo."""
        if "reducers" not in self._cache:
            self._cache["reducers"] = [_reducer(g, self.order) for g in self.generators], {}
        return self._cache["reducers"]

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)


class BuchbergerEngine:
    """Incremental Buchberger: generators can be adjoined between
    extension calls, and extension can stop at a sugar bound with the
    remaining pairs kept queued."""

    def __init__(self, ring: PolynomialRing, order: MonomialOrder):
        self.ring = ring
        self.order = order
        self.basis = []
        self._reducers = []
        self._memo = {}  # of `_reduce_terms`, shared by s-pairs and normal forms
        # per element: its packed leading exponents (the low nvars fields
        # of every packing), their degree, and its sugar's excess over it
        self._leads = []
        n = ring.nvars
        self._mask, self._guard = (1 << _W * n) - 1, sum(DEGREE_BOUND << _W * k for k in range(n))
        self._pairs = {}
        self._heap = []

    def leading_monomials(self):
        return [r[3] for r in self._reducers]

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise ContextMismatch("polynomial from a different ring")
        terms = _reduce_terms(f.terms, self._reducers, self._memo, self.order)
        return Polynomial._from_nonzero(f.ring, terms)

    def seed(self, gens: Sequence[Polynomial]):
        """Insert initial generators in order, each in normal form with
        respect to those already present."""
        for g in gens:
            if g.ring != self.ring:
                raise ContextMismatch("generator from a different ring")
            h = self.normal_form(g)
            if not h.is_zero():
                self.add_generator(h, g.total_degree())

    def add_generator(self, h: Polynomial, sugar: int):
        """Adjoin a nonzero polynomial assumed to be in normal form with
        respect to the current basis, updating the pair queue with the
        Gebauer-Moeller criteria.  Its sugar is the given one, or its
        total degree if that is larger."""
        t = len(self.basis)
        reducer = _reducer(h, self.order)
        guard = self._guard
        lead_t = reducer[0] & self._mask
        deg_t = lead_t % _FOLD
        # a pair lifts the larger excess of sugar over leading degree
        excess_t = max(sugar, h.total_degree()) - deg_t
        # lcm(lm_i, lm_t) fieldwise: d holds e_i - e_t + DEGREE_BOUND, with the
        # guard bit (in m) set where e_i >= e_t, and m - (m >> 15) masks
        # those fields' e_i - e_t; coprime iff the degrees add up
        degrees, last, coprime = [], {}, set()
        for i, (lead, deg_i, _) in enumerate(self._leads):
            d = (lead | guard) - lead_t
            m = d & guard
            lcm = lead_t + (d & (m - (m >> (_W - 1))))
            deg = lcm % _FOLD
            degrees.append(deg)
            last[lcm] = i
            if deg == deg_i + deg_t:
                coprime.add(lcm)
        # chain criterion: lm_t | lcm_ij, and then lcm(lm_i, lm_t), which
        # divides lcm_ij, equals it iff their degrees are equal
        for (i, j), (lcm, deg) in list(self._pairs.items()):
            if ((lcm | guard) - lead_t) & guard == guard and degrees[i] != deg != degrees[j]:
                del self._pairs[(i, j)]
        # (i, t) goes when another lcm properly divides its lcm, or a
        # coprime or later pair has the same lcm: only the last pair of a
        # minimal lcm shared by no coprime pair is queued
        minimal = []
        for lcm in sorted(last, key=lambda lcm: lcm % _FOLD):
            lg = lcm | guard
            for m in minimal:
                if (lg - m) & guard == guard:
                    break
            else:
                minimal.append(lcm)
        unpack = _packer(self.order, self.ring.nvars).unpack
        for lcm in minimal:
            if lcm in coprime:
                continue
            i = last[lcm]
            deg = degrees[i]
            pair_sugar = max(self._leads[i][2], excess_t) + deg
            self._pairs[(i, t)] = lcm, deg
            heapq.heappush(self._heap, (pair_sugar, deg, self.order.key(unpack(lcm)), i, t))
        self.basis.append(h)
        self._reducers.append(reducer)
        self._leads.append((lead_t, deg_t, excess_t))

    def extend(self, degree_limit: Optional[int] = None):
        """Process queued s-pairs in sugar order; pairs whose sugar
        exceeds the degree limit stay queued for a later call.  On
        homogeneous input the sugar is the ordinary degree."""
        while self._heap:
            sugar, _, _, i, j = self._heap[0]
            if degree_limit is not None and sugar > degree_limit:
                return
            heapq.heappop(self._heap)
            if self._pairs.pop((i, j), None) is None:
                continue  # pruned since queuing
            s = s_polynomial(
                self.basis[i], self.basis[j], self.order, (self._reducers[i], self._reducers[j])
            )
            # s lives in this ring: no `normal_form` ring check
            h = _reduce_terms(s.terms, self._reducers, self._memo, self.order)
            if h:
                self.add_generator(Polynomial._from_nonzero(self.ring, h), sugar)

    def snapshot(self, truncation_degree: Optional[int] = None) -> GroebnerBasis:
        return GroebnerBasis(
            ring=self.ring,
            order=self.order,
            generators=tuple(self.basis),
            truncation_degree=truncation_degree,
        )


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    truncate: Optional[int] = None,
) -> GroebnerBasis:
    """Groebner basis (or d-truncated basis) of the ideal generated by
    gens.  All-zero input yields the empty basis."""
    gens = list(gens)
    if not gens:
        raise ContextMismatch("buchberger needs at least one generator")
    engine = BuchbergerEngine(gens[0].ring, order)
    engine.seed(gens)  # refuses a generator from another ring
    engine.extend(truncate)
    return engine.snapshot(truncate)


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique fully reduced remainder of f modulo the basis."""
    if f.ring != basis.ring:
        raise ContextMismatch("polynomial from a different ring")
    d = basis.truncation_degree
    if d is not None and not all(g.is_homogeneous() for g in basis.generators):
        # an inhomogeneous pair above d can still yield a generator of degree <= d
        raise TruncationInsufficient(f"basis truncated at {d} is not homogeneous")
    if d is not None and f.total_degree() > d:
        raise TruncationInsufficient(f"degree {f.total_degree()} exceeds truncation {d}")
    if not basis.generators:
        return f
    reducers, memo = basis.reducers()
    return Polynomial._from_nonzero(f.ring, _reduce_terms(f.terms, reducers, memo, basis.order))


def ideal_membership(f: Polynomial, basis: GroebnerBasis) -> bool:
    return normal_form(f, basis).is_zero()


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """The reduced Groebner basis: inter-reduced, monic, sorted by
    leading monomial; unique for (ideal, order).  One pass, smallest
    leading monomial first: no term below lm(g) is divisible by a larger
    leading monomial, so reducing g against the smaller elements, which
    are reduced already, leaves it reduced against the whole basis."""
    if basis.truncation_degree is not None:
        raise TruncatedBasis("cannot reduce a truncated basis")
    order = basis.order
    leads = sorted(
        ((g.leading(order), g) for g in basis.generators if not g.is_zero()),
        key=lambda lead: order.key(lead[0][0]),
    )
    monic, reducers, memo = [], [], {}
    for (lm, lc), g in leads:
        if any(mono_divides(r[3], lm) for r in reducers):
            continue
        # the leading term survives, as no smaller leading monomial divides it;
        # normal forms are linear, so only the surviving terms are scaled
        inverse = lc.inverse()
        h = Polynomial(basis.ring, {m: c * inverse for m, c in
                                    _reduce_terms(g.terms, reducers, memo, order).items()})
        monic.append(h)
        reducers.append(_reducer(h, order))
    return GroebnerBasis(basis.ring, order, tuple(monic), _cache={"reducers": (reducers, memo)})


def front_free_basis(gens: Sequence[Polynomial], order: BlockElimination) -> tuple:
    """Buchberger in a block order, keeping the basis elements whose
    leading monomial is free of the front block: a Groebner basis of the
    ideal's intersection with the ring of the later blocks, under the
    order those blocks keep.  In that order a leading monomial free of
    the front block has a free tail."""
    k = order.front_size
    basis = buchberger(gens, order).generators
    return tuple(g for g in basis if not any(g.leading_monomial(order)[:k]))


def elimination_ideal(gens: Sequence[Polynomial], eliminate) -> list:
    """Reduced Groebner basis (under the induced grevlex order) of the
    intersection of the ideal with the subring in the kept variables,
    sorted by leading monomial.  Result polynomials live in a ring over
    the kept variables only; only the front-free basis elements are
    reduced."""
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    elim = list(eliminate)
    for n in elim:
        if n not in ring.names:
            raise ContextMismatch(f"unknown variable {n!r}")
    elim_set = set(elim)
    front = [n for n in ring.names if n in elim_set]
    kept = [n for n in ring.names if n not in elim_set]
    work_ring = PolynomialRing(ring.field, front + kept)
    order = BlockElimination(len(front))
    free = front_free_basis([transport(g, work_ring) for g in gens], order)
    # the block key of a free monomial is its grevlex key on the kept block
    reduced = reduce_basis(GroebnerBasis(work_ring, order, free)).generators
    kept_ring = PolynomialRing(ring.field, kept)
    return [transport(g, kept_ring) for g in reduced]


def ideal_dimension(basis: GroebnerBasis):
    """Krull dimension of the quotient ring, by leading-term
    combinatorics; None means the ideal is the whole ring."""
    if basis.truncation_degree is not None:
        raise TruncatedBasis("dimension needs a full basis")
    n = basis.ring.nvars
    gens = [g for g in basis.generators if not g.is_zero()]
    if not gens:
        return n
    if basis.contains_one():
        return None
    supports = [mono_support(g.leading_monomial(basis.order)) for g in gens]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            outside = ~sum(1 << i for i in subset)
            if all(s & outside for s in supports):
                return size
    return 0


def fresh_names(names, taken) -> tuple:
    """Each of `names` followed by as many underscores as make it new:
    distinct from `taken` and from the names before it."""
    taken, out = set(taken), []
    for name in names:
        while name in taken:
            name += "_"
        taken.add(name)
        out.append(name)
    return tuple(out)


def _adjoin_variable(name: str, *polys: Polynomial):
    """(the polynomials, the new variable) in their ring with one more
    variable, last, named by `fresh_names`."""
    ring = polys[0].ring
    big = PolynomialRing(ring.field, ring.names + fresh_names((name,), ring.names))
    return [transport(p, big) for p in polys], big.variable(ring.nvars)


def radical_membership(f: Polynomial, gens: Sequence[Polynomial]) -> bool:
    """Does f vanish on the variety of gens?  Uses the Rabinowitsch
    trick: 1 is in (gens, 1 - u*f) in one more variable."""
    if f.is_zero():
        return True
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    (fu, *moved), u = _adjoin_variable("u", f, *gens)
    return buchberger(moved + [1 - u * fu], GREVLEX).contains_one()


class SubalgebraOracle:
    """Membership in K[g_1, ..., g_k] via tag variables: the ideal
    (T_i - g_i) is eliminated of the original variables; f lies in the
    subalgebra iff its normal form uses tag variables only, and that
    normal form is the witness expression."""

    def __init__(self, gens: Sequence[Polynomial]):
        gens = list(gens)
        if not gens:
            raise ContextMismatch("subalgebra oracle needs generators")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise ContextMismatch("generators from different rings")
        tags = fresh_names([f"T{i + 1}" for i in range(len(gens))], ring.names)
        self.ring = ring
        self.tag_ring = PolynomialRing(ring.field, tags)
        self.big_ring = PolynomialRing(ring.field, ring.names + tags)
        ideal = []
        for i, g in enumerate(gens):
            tag = self.big_ring.variable(ring.nvars + i)
            ideal.append(tag - transport(g, self.big_ring))
        order = BlockElimination(ring.nvars)
        self.basis = buchberger(ideal, order)

    def express(self, f: Polynomial) -> Optional[Polynomial]:
        """Witness polynomial in the tag ring, or None."""
        if f.ring != self.ring:
            raise ContextMismatch("polynomial from a different ring")
        nf = normal_form(transport(f, self.big_ring), self.basis)
        n = self.ring.nvars
        if any(any(e != 0 for e in m[:n]) for m in nf.terms):
            return None
        return transport(nf, self.tag_ring)

    def contains(self, f: Polynomial) -> bool:
        return self.express(f) is not None


def subalgebra_membership(f: Polynomial, gens: Sequence[Polynomial]):
    """One-shot wrapper; returns the witness polynomial or None."""
    return SubalgebraOracle(gens).express(f)
