"""Check the stored expected outputs against independent references.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os

import pytest

from inputs import PROBLEMS
from workloads import EXPECTED_DIR

sympy = pytest.importorskip("sympy")

PROBLEMS_BY_JOB = {f"groebner-{name}": make for name, make in PROBLEMS.items()}


def _payload(job_id):
    with open(os.path.join(EXPECTED_DIR, job_id + ".json")) as fh:
        return json.load(fh)["payload"]


def _expr(text):
    return sympy.sympify(text.replace("^", "**"))


def _syms(names):
    return sympy.symbols(names)


def _proportional(a, b):
    ratio = sympy.cancel(a / b)
    return ratio.is_number and ratio != 0


@pytest.mark.parametrize("job_id", sorted(PROBLEMS_BY_JOB))
def test_groebner_outputs_match_sympy(job_id):
    problem = PROBLEMS_BY_JOB[job_id]()
    gens = _syms(problem["variables"])
    polys = [_expr(p) for p in problem["polynomials"]]
    opts = {"modulus": problem["field"]["p"]} if problem["field"]["kind"] == "prime" else {"domain": "QQ"}
    reference = sympy.groebner(polys, *gens, order="grevlex", **opts)
    ours = [sympy.Poly(_expr(p), *gens, **opts).monic() for p in _payload(job_id)["basis"]]
    theirs = [sympy.Poly(p, *gens, **opts).monic() for p in reference.exprs]
    assert sorted(map(str, ours)) == sorted(map(str, theirs))


def test_d8_generators_closed_form():
    x1, x2 = _syms("x1 x2")
    got = [_expr(g) for g in _payload("generators-d8-verify")["generators"]]
    want = [
        (x1**2 + x2**2) / 2,
        (9 * x1**8 + 28 * x1**6 * x2**2 + 70 * x1**4 * x2**4 + 28 * x1**2 * x2**6 + 9 * x2**8) / 32,
    ]
    assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0, 0]


def test_s3_generators_are_scaled_power_sums():
    x = _syms("x1 x2 x3")
    got = [_expr(g) for g in _payload("generators-s3_natural-verify")["generators"]]
    want = [sum(v**k for v in x) / 3 for k in (1, 2, 3)]
    assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0, 0, 0]


def _cubic_discriminant(a0, a1, a2, a3):
    X, Y = _syms("X Y")
    form = a0 * X**3 + a1 * X**2 * Y + a2 * X * Y**2 + a3 * Y**3
    return sympy.discriminant(form.subs(Y, 1), X)


def test_sl2_quadratic_discriminant():
    x1, x2, x3, y1, y2, y3 = _syms("x1 x2 x3 y1 y2 y3")
    X = _syms("X")
    disc = sympy.discriminant(x1 * X**2 + x2 * X + x3, X)
    (field_gen,) = _payload("field-sl2_binary_quadratics")["generators"]
    assert sympy.expand(_expr(field_gen) - disc) == 0
    (variety,) = _payload("separating-variety-sl2_binary_quadratics")["generators"]
    assert sympy.expand(_expr(variety) - (disc.subs({x1: y1, x2: y2, x3: y3}, simultaneous=True) - disc)) == 0


def test_sl2_cubic_discriminant():
    x = _syms("x1 x2 x3 x4")
    y = _syms("y1 y2 y3 y4")
    disc_x = _cubic_discriminant(*x)
    disc_y = _cubic_discriminant(*y)
    (gen,) = _payload("generators-derksen-sl2_cubics-verify")["generators"]
    assert _proportional(_expr(gen), disc_x)
    (ideal_gen,) = _payload("derksen-ideal-sl2_cubics")["generators"]
    assert _proportional(_expr(ideal_gen), disc_y - disc_x)
