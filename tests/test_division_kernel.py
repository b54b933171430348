"""Differential tests of the sparse division kernel against sympy.

Every caller of `groebner._reduce_terms` is checked on seeded random
inputs: reduced Groebner bases (normal forms, s-pair reduction and
inter-reduction) over Q and GF(p), and gcds over Q, whose univariate
Euclid and exact divisions run on the same kernel.
"""

import pytest

from invar.fields import PrimeField, Rationals
from invar.groebner import buchberger, reduce_basis
from invar.polynomials import GREVLEX, PolynomialRing
from invar.prng import XorShift
from invar.ratfunc import multivariate_gcd

sympy = pytest.importorskip("sympy")

P = 32003


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


def _to_sympy(p, gens, **opts):
    return sympy.Poly(sympy.sympify(p.format(GREVLEX).replace("^", "**")), *gens, **opts)


@pytest.mark.parametrize("names", [("x",), ("x", "y", "z")], ids=["univariate", "multivariate"])
@pytest.mark.parametrize("seed", range(6))
def test_gcd_matches_sympy(names, seed):
    rng = XorShift(seed)
    ring = PolynomialRing(Rationals(), names)
    gens = sympy.symbols(" ".join(names), seq=True)
    common = _random_poly(ring, rng, 3, 2)
    f = common * _random_poly(ring, rng, 3, 2)
    g = common * _random_poly(ring, rng, 3, 2)
    ours = _to_sympy(multivariate_gcd(f, g), gens, domain="QQ")
    theirs = sympy.gcd(_to_sympy(f, gens, domain="QQ"), _to_sympy(g, gens, domain="QQ"))
    assert ours == theirs.quo_ground(theirs.LC(order="grevlex"))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(P)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(6))
def test_reduced_basis_matches_sympy(field, seed):
    rng = XorShift(100 + seed)
    names = ("x", "y", "z")
    ring = PolynomialRing(field, names)
    polys = [_random_poly(ring, rng, 4, 3) for _ in range(2)]
    gens = sympy.symbols(" ".join(names), seq=True)
    opts = {"modulus": P} if field.characteristic() else {"domain": "QQ"}
    ours = reduce_basis(buchberger(polys, GREVLEX)).generators
    assert all(g.leading(GREVLEX)[1] == field.one for g in ours)
    theirs = sympy.groebner([_to_sympy(p, gens, **opts) for p in polys], *gens,
                            order="grevlex", **opts)
    assert sorted(str(_to_sympy(g, gens, **opts).monic()) for g in ours) == sorted(
        str(sympy.Poly(e, *gens, **opts).monic()) for e in theirs.exprs
    )
