"""Tests of the sparse division kernel.

`groebner._reduce_terms` is compared with the plain division loop it
replaced, kept below as the reference, on hypothesis-drawn inputs over
fields with and without zero divisors, GF(p) for small and large p
among them (its tail updates are unreduced ints), and under every
monomial order, also when a memo of first divisors, filled on a shorter
reducer list, is reused after the list has grown, and on lists long
enough to reach the exponent index of leading exponents, with repeated
and wide exponents, where the index is also checked against its
definition.  The packing of
monomials into ints, which the kernel computes on, is
checked against the tuple operations it stands for, and at its degree
bound, where a computation must stop with `CapExceeded` rather than
return a wrong answer, unless the term past it vanishes.
The differential tests against sympy check every caller of the kernel
on seeded random inputs: reduced Groebner bases (normal forms, s-pair
reduction and inter-reduction) and elimination ideals over Q and GF(p),
and gcds over Q and GF(p), whose lcm eliminations and exact divisions
run on the same kernel.  They are skipped when sympy is missing.
"""

import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from invar.cli import main
from invar.errors import CapExceeded
from invar.fields import NumberField, PrimeField, Rationals
from invar.groebner import (
    _FirstDivisors,
    _Packer,
    _packer,
    _reduce_terms,
    _reducer,
    buchberger,
    elimination_ideal,
    normal_form,
    reduce_basis,
)
from invar.polynomials import (
    GRADEDLEX,
    GREVLEX,
    LEX,
    BlockElimination,
    PolynomialRing,
    mono_divides,
    mono_mul,
)
from invar.prng import XorShift
from invar.ratfunc import multivariate_gcd

P = 32003


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# ---------------------------------------------------------------------------
# the kernel against the reference loop
# ---------------------------------------------------------------------------

def _reference_reduce(terms, reducers, order, quotient=None):
    """The division loop before the heap: the greatest term by a full
    scan, the first reducer whose leading monomial divides it, and
    `Scalar` arithmetic throughout."""
    result, work = {}, dict(terms)
    while work:
        t = max(work, key=order.key)
        c = work.pop(t)
        for g in reducers:
            lm, lc = g.leading(order)
            if all(x <= y for x, y in zip(lm, t)):
                ratio = c * lc.inverse()
                shift = tuple(x - y for x, y in zip(t, lm))
                if quotient is not None:
                    quotient[shift] = ratio
                for m, mc in g.terms.items():
                    if m == lm:
                        continue
                    m2 = tuple(x + y for x, y in zip(m, shift))
                    value = work[m2] - ratio * mc if m2 in work else -(ratio * mc)
                    if value.is_zero():
                        work.pop(m2, None)
                    else:
                        work[m2] = value
                break
        else:
            result[t] = c
    return result


def _fields():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # w^2 - 1 = (w - 1)(w + 1): products of nonzero payloads can vanish
        reducible = NumberField([-1, 0, 1], "w")
    return {
        # GF(p) tail updates are unreduced ints: characteristic 2 cancels
        # often, and 1/2 in GF(2^31 - 1) makes products near 2^62
        "GF2": PrimeField(2),
        "GF7": PrimeField(7),
        "GF32003": PrimeField(P),
        "GF2^31-1": PrimeField(2**31 - 1),
        "QQ": Rationals(),
        "QQ(sqrt2)": NumberField([-2, 0, 1], "w"),
        "QQ[w]/(w^2-1)": reducible,
    }


FIELDS = _fields()
ORDERS = {
    "lex": LEX,
    "gradedlex": GRADEDLEX,
    "grevlex": GREVLEX,
    "block1": BlockElimination(1),
    "block2": BlockElimination(2),
    "block1,1": BlockElimination(1, 1),
}
NAMES = ("x", "y", "z")

_monomials = st.tuples(*[st.integers(0, 3)] * len(NAMES))
_coefficients = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_term_dicts = st.dictionaries(_monomials, _coefficients, max_size=7)


def _polynomial(ring, terms):
    """sum (a + b*w) x^m, with w the generator of a number field, 1 in
    characteristic 2 and 1/2 otherwise."""
    field = ring.field
    if isinstance(field, NumberField):
        w = field.generator
    else:
        w = field.one if field.characteristic() == 2 else field.one / 2
    p = ring.zero
    for m, (a, b) in terms.items():
        p = p + ring.monomial(m, field.scalar(a) + w * b)
    return p


def _divisor(ring, order, terms, lead):
    """A nonzero polynomial whose leading coefficient is the integer
    `lead`, or 1 where `lead` vanishes: a unit of every field drawn
    here."""
    if ring.field.scalar(lead).is_zero():
        lead = 1
    p = _polynomial(ring, terms)
    if p.is_zero():
        return ring.from_int(lead)
    lm = p.leading_monomial(order)
    return p + ring.monomial(lm, ring.field.scalar(lead) - p.terms[lm])


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(
    dividend=_term_dicts,
    divisors=st.lists(st.tuples(_term_dicts, st.sampled_from([1, -1, 2, 3])),
                      min_size=1, max_size=3),
    with_quotient=st.booleans(),
)
def test_kernel_matches_reference_loop(field_name, order_name, dividend, divisors, with_quotient):
    field, order = FIELDS[field_name], ORDERS[order_name]
    ring = PolynomialRing(field, NAMES)
    f = _polynomial(ring, dividend)
    gs = [_divisor(ring, order, terms, lead) for terms, lead in divisors]
    if with_quotient:
        gs = gs[:1]
    ours, theirs = ({} if with_quotient else None), ({} if with_quotient else None)
    remainder = _reduce_terms(f.terms, [_reducer(g, order) for g in gs], _FirstDivisors(),
                               order, ours)
    # same terms in the same (descending) order, as Scalars of the field
    assert list(remainder.items()) == list(_reference_reduce(f.terms, gs, order, theirs).items())
    assert all(c.field == field for c in remainder.values())
    if with_quotient:
        assert list(ours.items()) == list(theirs.items())
        q = r = ring.zero
        for m, c in ours.items():
            q = q + ring.monomial(m, c)
        for m, c in remainder.items():
            r = r + ring.monomial(m, c)
        assert q * gs[0] + r == f


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", ["GF32003", "QQ", "QQ(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(
    dividends=st.tuples(_term_dicts, _term_dicts),
    divisors=st.lists(st.tuples(_term_dicts, st.sampled_from([1, -1, 2, 3])),
                      min_size=1, max_size=4),
    k=st.integers(0, 3),
    with_quotient=st.booleans(),
)
def test_memo_stays_valid_as_the_reducer_list_grows(field_name, order_name, dividends, divisors,
                                                     k, with_quotient):
    # a remembered divisor or miss was found on a shorter list: the
    # search must resume there, not stop
    field, order = FIELDS[field_name], ORDERS[order_name]
    ring = PolynomialRing(field, NAMES)
    f, g = (_polynomial(ring, terms) for terms in dividends)
    gs = [_divisor(ring, order, terms, lead) for terms, lead in divisors]
    reducers, memo = [_reducer(h, order) for h in gs[:k]], _FirstDivisors()
    _reduce_terms(f.terms, reducers, memo, order)
    for h in gs[k:]:
        reducers.append(_reducer(h, order))
    for p in (f, g):
        ours, theirs = ({} if with_quotient else None), ({} if with_quotient else None)
        remainder = _reduce_terms(p.terms, reducers, memo, order, ours)
        assert list(remainder.items()) == list(_reference_reduce(p.terms, gs, order,
                                                                 theirs).items())
        assert ours == theirs


# ---------------------------------------------------------------------------
# the exponent index against the scan
# ---------------------------------------------------------------------------

INDEX_ORDERS = {"lex": LEX, "gradedlex": GRADEDLEX, "grevlex": GREVLEX}
_WIDE = 2**15 - 1  # the largest exponent a packing takes


@st.composite
def _lead_monomials(draw):
    """Small exponents, or one exponent up to 2^15 - 1 with the degree
    still below the packing's bound."""
    m = list(draw(st.tuples(*[st.integers(0, 3)] * len(NAMES))))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(NAMES) - 1))
        m[j] = draw(st.integers(2**14, _WIDE - sum(m) + m[j]))
    return tuple(m)


@st.composite
def _indexed_reducers(draw):
    """Reducer leads, some repeated whole, and small tails below the lead
    of no larger degree, so no division passes the degree bound; a lead's
    coefficient is a unit of every field drawn here.  A variable with a
    wide exponent has no small positive one in any lead, so no division
    walks down a wide exponent a step at a time."""
    leads = draw(st.lists(_lead_monomials(), min_size=1, max_size=12))
    wide = {j for lead in leads for j, e in enumerate(lead) if e > 3}
    leads = [tuple(0 if j in wide and e <= 3 else e for j, e in enumerate(lead))
             for lead in leads]
    leads += draw(st.lists(st.sampled_from(leads), max_size=4))
    leads = draw(st.permutations(leads))
    return [(lead, draw(st.sampled_from([1, -1, 2, 3])), draw(_term_dicts)) for lead in leads]


def _indexed_polynomial(ring, order, lead, unit, tail):
    tail = {m: c for m, c in tail.items()
            if order.key(m) < order.key(lead) and sum(m) <= sum(lead)}
    return ring.monomial(lead, ring.field.scalar(unit)) + _polynomial(ring, tail)


@pytest.mark.parametrize("order_name", sorted(INDEX_ORDERS))
@pytest.mark.parametrize("field_name", ["GF32003", "QQ", "QQ(sqrt2)"])
@settings(max_examples=60, deadline=None)
@given(
    reducers=_indexed_reducers(),
    dividends=st.lists(st.tuples(_term_dicts, st.lists(st.tuples(st.integers(0, 15), _monomials),
                                                       max_size=6)),
                       min_size=2, max_size=3),
    k=st.integers(0, 8),
    with_quotient=st.booleans(),
)
def test_exponent_index_finds_the_divisor_the_scan_finds(field_name, order_name, reducers,
                                                        dividends, k, with_quotient):
    # a first pop that fails its mask test goes to the index;
    # dividends carry multiples of the leads, so most pops have a
    # divisor, and the list grows between calls
    field, order = FIELDS[field_name], INDEX_ORDERS[order_name]
    ring = PolynomialRing(field, NAMES)
    gs = [_indexed_polynomial(ring, order, *r) for r in reducers]
    memo, packed = _FirstDivisors(), []
    for grown in (gs[:k], gs):
        packed += [_reducer(g, order) for g in grown[len(packed):]]
        for terms, multiples in dividends:
            p = _polynomial(ring, terms)
            for pick, shift in multiples:
                lead = reducers[pick % len(reducers)][0]
                if sum(lead) + sum(shift) < 2**15:
                    p = p + ring.monomial(mono_mul(lead, shift), field.scalar(pick + 1))
            ours, theirs = ({} if with_quotient else None), ({} if with_quotient else None)
            remainder = _reduce_terms(p.terms, packed, memo, order, ours)
            assert list(remainder.items()) == list(_reference_reduce(p.terms, grown, order,
                                                                     theirs).items())
            assert ours == theirs
    # the index is the one its definition gives, whether or not a query built it
    for j, (vals, sets) in enumerate(zip(*memo.exponent_index(packed))):
        assert vals == sorted({lead[j] for lead, _, _ in reducers})
        assert sets == [0] + [sum(1 << p for p, (lead, _, _) in enumerate(reducers)
                                  if lead[j] <= v) for v in vals]


def test_exponent_index_is_queried_only_past_a_failed_mask_test(monkeypatch):
    # a known divisor costs one mask test, a known miss on an unchanged
    # list nothing, and a failed test on the last reducer ends the
    # search; every other failed mask test asks the index
    ring = PolynomialRing(Rationals(), ("x", "y"))
    x, y = ring.variables()
    queried = []
    build = _FirstDivisors.exponent_index
    monkeypatch.setattr(_FirstDivisors, "exponent_index",
                        lambda self, reducers: queried.append(len(reducers)) or build(self, reducers))
    gs, memo = [x**3, y**3, x * y], _FirstDivisors()
    reducers = [_reducer(g, GREVLEX) for g in gs]
    for f, grown, expected in ((x * y, None, [3]), (x * y, None, []), (x, None, [3]),
                               (x, None, []), (x, x, []), (y, None, [4])):
        if grown is not None:
            gs.append(grown)
            reducers.append(_reducer(grown, GREVLEX))
        remainder = _reduce_terms(f.terms, reducers, memo, GREVLEX)
        assert list(remainder.items()) == list(_reference_reduce(f.terms, gs, GREVLEX).items())
        assert queried == expected
        queried.clear()
    remainder = _reduce_terms(x.terms, [_reducer(y, GREVLEX)], _FirstDivisors(), GREVLEX)
    assert remainder == x.terms and queried == []


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

BOUND = 2**15  # the packing refuses this degree

# two of these multiply to a monomial still below the bound
_wide_monomials = st.tuples(*[st.integers(0, 5000)] * len(NAMES))


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@settings(max_examples=200, deadline=None)
@given(a=_wide_monomials, b=_wide_monomials)
def test_packing_stands_for_the_tuple_operations(order_name, a, b):
    order = ORDERS[order_name]
    packer = _packer(order, len(NAMES))
    pa, pb, guard = packer.pack(a), packer.pack(b), packer.guard
    assert packer.unpack(pa) == a
    assert (pa < pb, pa == pb) == (order.key(a) < order.key(b), a == b)
    assert (((pb | guard) - pa) & guard == guard) == mono_divides(a, b)
    assert pa + pb == packer.pack(mono_mul(a, b))


@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_packings_are_built_without_evaluating_keys(monkeypatch, order_name):
    # packers live as long as their order, so a key evaluated while building
    # one would make key counts depend on which packers were built before
    def refuse(self, exps):
        raise AssertionError("a packing evaluated a key")

    for order in ORDERS.values():
        monkeypatch.setattr(type(order), "key", refuse)
    packer = _Packer(ORDERS[order_name], 4)
    assert packer.unpack(packer.pack((1, 0, 2, 3))) == (1, 0, 2, 3)


@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_packing_refuses_the_degree_bound(order_name):
    packer = _packer(ORDERS[order_name], 3)
    assert packer.unpack(packer.pack((BOUND - 3, 1, 1))) == (BOUND - 3, 1, 1)
    with pytest.raises(CapExceeded):
        packer.pack((BOUND - 2, 1, 1))


@pytest.mark.parametrize("e", [11000, 22000])
def test_lex_growth_is_exact_or_refused(e):
    # lex reduction raises degrees: x^e reduces to y^(3e), past the
    # bound for both e, and past twice the bound (a field's full width)
    # for the second
    ring = PolynomialRing(Rationals(), ("x", "y"))
    x, y = ring.variables()
    basis = buchberger([x - y**3], LEX)
    assert normal_form(x**10000, basis) == y**30000
    try:
        remainder = normal_form(x**e, basis)
    except CapExceeded:
        return
    assert remainder == y**(3 * e)


@pytest.mark.parametrize("field_name", ["QQ[w]/(w^2-1)", "QQ(sqrt2)", "GF7"])
def test_only_a_nonzero_term_past_the_bound_stops_division(field_name):
    # (w + 1)*x*y^e by x - (w - 1)*y^e: the tail product lands on
    # y^(2e), past the bound, with coefficient (w + 1)(w - 1), which
    # vanishes only where w^2 = 1; there the division succeeds,
    # elsewhere it stops
    field = FIELDS[field_name]
    ring = PolynomialRing(field, ("x", "y"))
    x, y = ring.variables()
    w = field.generator if isinstance(field, NumberField) else field.scalar(3)
    e = BOUND * 5 // 8
    f, g = (w + 1) * x * y**e, x - (w - 1) * y**e
    quotient = {}
    if ((w + 1) * (w - 1)).is_zero():
        assert _reduce_terms(f.terms, [_reducer(g, LEX)], _FirstDivisors(), LEX, quotient) == {}
        assert quotient == {(0, e): w + 1}
    else:
        with pytest.raises(CapExceeded):
            _reduce_terms(f.terms, [_reducer(g, LEX)], _FirstDivisors(), LEX, quotient)


def test_degree_bound_exits_4_through_the_cli(capsys, tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"field": {"kind": "rationals"}, "variables": ["x", "y"],
                                   "polynomials": [f"x^{BOUND} - y", "y^2"]}))
    code = main(["groebner", str(problem), "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "CapExceeded"


def test_input_degree_bound_exits_4_through_the_cli(capsys, tmp_path):
    # every power is below the bound, so the product reaches the packing
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"field": {"kind": "rationals"}, "variables": ["x", "y"],
                                   "polynomials": [f"x^{BOUND // 2}*y^{BOUND // 2} - y"]}))
    code = main(["groebner", str(problem), "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "CapExceeded"


# ---------------------------------------------------------------------------
# differential tests against sympy
# ---------------------------------------------------------------------------

def _random_poly(ring, rng, terms, max_degree):
    """A nonzero polynomial with up to `terms` terms."""
    p = ring.zero
    while p.is_zero():
        for _ in range(terms):
            exps = [0] * ring.nvars
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randint(0, ring.nvars - 1)] += 1
            p = p + ring.monomial(tuple(exps), rng.randint(-5, 5))
    return p


def _to_sympy(sympy, p, gens, **opts):
    return sympy.Poly(sympy.sympify(p.format(GREVLEX).replace("^", "**")), *gens, **opts)


def _sympy_options(field):
    return {"modulus": P} if field.characteristic() else {"domain": "QQ"}


@pytest.mark.parametrize("field, names", [
    (Rationals(), ("x",)), (Rationals(), ("x", "y", "z")),
    (PrimeField(P), ("x",)), (PrimeField(P), ("x", "y", "z")),
], ids=["univariate", "multivariate", "GF32003-univariate", "GF32003-multivariate"])
@pytest.mark.parametrize("seed", range(6))
def test_gcd_matches_sympy(sympy, field, names, seed):
    rng = XorShift(seed)
    ring = PolynomialRing(field, names)
    gens = sympy.symbols(" ".join(names), seq=True)
    opts = _sympy_options(field)
    common = _random_poly(ring, rng, 3, 2)
    f = common * _random_poly(ring, rng, 3, 2)
    g = common * _random_poly(ring, rng, 3, 2)
    ours = _to_sympy(sympy, multivariate_gcd(f, g), gens, **opts)
    theirs = sympy.gcd(_to_sympy(sympy, f, gens, **opts), _to_sympy(sympy, g, gens, **opts))
    assert ours == theirs.quo_ground(theirs.LC(order="grevlex"))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(P)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(6))
def test_reduced_basis_matches_sympy(sympy, field, seed):
    rng = XorShift(100 + seed)
    names = ("x", "y", "z")
    ring = PolynomialRing(field, names)
    polys = [_random_poly(ring, rng, 4, 3) for _ in range(2)]
    gens = sympy.symbols(" ".join(names), seq=True)
    opts = _sympy_options(field)
    ours = reduce_basis(buchberger(polys, GREVLEX)).generators
    assert all(g.leading(GREVLEX)[1] == field.one for g in ours)
    theirs = sympy.groebner([_to_sympy(sympy, p, gens, **opts) for p in polys], *gens,
                            order="grevlex", **opts)
    assert sorted(str(_to_sympy(sympy, g, gens, **opts).monic()) for g in ours) == sorted(
        str(sympy.Poly(e, *gens, **opts).monic()) for e in theirs.exprs
    )


@pytest.mark.parametrize("field", [Rationals(), PrimeField(P)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(4))
def test_elimination_ideal_matches_sympy(sympy, field, seed):
    # sympy's route: a lex basis with the eliminated variables first, its
    # elements free of them, and their reduced grevlex basis
    rng = XorShift(200 + seed)
    names = ("x", "y", "z", "u")
    eliminate = names[: 1 + seed % 2]
    kept = names[len(eliminate):]
    ring = PolynomialRing(field, names)
    polys = [_random_poly(ring, rng, 3, 2) for _ in range(len(eliminate) + 1)]
    opts = _sympy_options(field)
    gens = sympy.symbols(" ".join(names), seq=True)
    kept_gens = gens[len(eliminate):]
    lex = sympy.groebner([_to_sympy(sympy, p, gens, **opts) for p in polys], *gens,
                         order="lex", **opts)
    free = [e for e in lex.exprs if not (e.free_symbols & set(gens[: len(eliminate)]))]
    theirs = (sympy.groebner(free, *kept_gens, order="grevlex", **opts).exprs
              if free else [])
    ours = elimination_ideal(polys, eliminate)
    assert all(g.ring.names == kept for g in ours)
    assert sorted(str(_to_sympy(sympy, g, kept_gens, **opts).monic()) for g in ours) == sorted(
        str(sympy.Poly(e, *kept_gens, **opts).monic()) for e in theirs
    )
