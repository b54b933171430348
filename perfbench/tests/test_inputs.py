"""The generated inputs describe the objects their docstrings name."""

import json
import warnings
from math import comb

import inputs
import workloads as wl
from invar.fields import field_from_config
from invar.polynomials import PolynomialRing
from invar.specfile import fixture_path, load_spec_file, parse_group_config


def _ring(problem):
    return PolynomialRing(field_from_config(problem["field"]), problem["variables"])


def _parse_all(problem):
    ring = _ring(problem)
    return [ring.parse(p) for p in problem["polynomials"]]


def test_generated_group_orders():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, order in inputs.EXPECTED_ORDERS.items():
            assert parse_group_config(inputs.SPECS[name]()).order == order


def test_bundled_group_orders():
    for name in ("d8", "s3_natural", "cn_scalar_4", "cn_scalar_5", "c2_swap_gf2"):
        assert load_spec_file(fixture_path(name)).group.order == wl.GROUP_ORDERS[name]


def test_sl2_quadratics_match_bundled_spec():
    with open(fixture_path("sl2_binary_quadratics")) as fh:
        bundled = parse_group_config(json.load(fh))
    ours = parse_group_config(inputs.sl2_binary_forms(2))
    assert ours.action_matrix == bundled.action_matrix
    assert ours.ideal_gens == bundled.ideal_gens


def test_ga_quartics_is_unipotent():
    spec = parse_group_config(inputs.ga_binary_forms(4))
    t = spec.z_ring().variable(0)
    # X^(4-j) Y^j -> (X + t Y)^(4-j) Y^j: entry [i][j] = C(4-j, i-j) t^(i-j)
    for i in range(5):
        for j in range(5):
            entry = spec.action_matrix[i][j]
            if i < j:
                assert entry.is_zero()
            else:
                assert entry == t ** (i - j) * comb(4 - j, i - j)


def test_torus_weights():
    spec = parse_group_config(inputs.SPECS["torus_345"]())
    ring = spec.z_ring()
    z, u = ring.variable(0), ring.variable(1)
    assert [spec.action_matrix[i][i] for i in range(3)] == [z**3, z**4, u**5]


def test_cyclic3_and_katsura2():
    problem = inputs.cyclic(3, inputs.QQ)
    ring = _ring(problem)
    x1, x2, x3 = ring.variables()
    assert _parse_all(problem) == [x1 + x2 + x3, x1 * x2 + x2 * x3 + x3 * x1, x1 * x2 * x3 - 1]
    problem = inputs.katsura(2, inputs.QQ)
    ring = _ring(problem)
    x0, x1, x2 = ring.variables()
    assert _parse_all(problem) == [
        x0**2 + 2 * x1**2 + 2 * x2**2 - x0,
        2 * x0 * x1 + 2 * x1 * x2 - x1,
        x0 + 2 * x1 + 2 * x2 - 1,
    ]
