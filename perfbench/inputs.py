"""Input generators for the benchmark's workloads.

Every generated input is a spec or problem file in the JSON formats the
`invar` CLI reads, so the program under test sees only files.  Each
generator documents the mathematical object it describes.  The inputs do
not depend on the seed: the seed only picks the job order and the
`--seed` of the randomized commands.
"""

from __future__ import annotations

import json
import os
from math import comb

# Closure orders asserted at set-up, so that a wrong generator matrix
# fails loudly instead of silently changing the timed work.
EXPECTED_ORDERS = {"q8": 8, "c3xc3": 9, "c7": 7, "d12": 12, "s4": 24}


def _finite(label, field, generators):
    return {
        "label": label,
        "kind": "finite_matrix",
        "field": field,
        "dimension": len(generators[0]),
        "generators": generators,
    }


def _number_field(minimal_poly):
    return {"kind": "simple_extension", "minimal_poly": minimal_poly, "generator": "w"}


def _permutation_matrix(perm):
    """Matrix sending e_j to e_perm[j]."""
    n = len(perm)
    return [["1" if perm[j] == i else "0" for j in range(n)] for i in range(n)]


def q8():
    """Quaternion group Q8 over Q(i), i^2 = -1, generated by
    diag(i, -i) and [[0, 1], [-1, 0]]."""
    return _finite(
        "Q8 over Q(i)",
        _number_field("w^2 + 1"),
        [[["w", "0"], ["0", "-w"]], [["0", "1"], ["-1", "0"]]],
    )


def c3xc3():
    """C3 x C3 over Q(omega), omega^2 + omega + 1 = 0, generated by
    diag(omega, 1) and diag(1, omega)."""
    return _finite(
        "C3 x C3 over Q(omega)",
        _number_field("w^2 + w + 1"),
        [[["w", "0"], ["0", "1"]], [["1", "0"], ["0", "w"]]],
    )


def c7():
    """C7 over Q(zeta7), zeta7 a root of the 7th cyclotomic polynomial
    (degree 6, so invar warns that irreducibility is unverified),
    generated by diag(zeta7, zeta7^-1) = diag(w, w^6)."""
    return _finite(
        "C7 over Q(zeta7)",
        _number_field("w^6 + w^5 + w^4 + w^3 + w^2 + w + 1"),
        [[["w", "0"], ["0", "w^6"]]],
    )


def d12():
    """Dihedral group of order 12 (symmetries of the regular hexagon) over
    Q(sqrt 3), generated by the rotation by 60 degrees
    [[1/2, -sqrt3/2], [sqrt3/2, 1/2]] and the reflection diag(1, -1)."""
    return _finite(
        "D12 over Q(sqrt 3)",
        _number_field("w^2 - 3"),
        [[["1/2", "-w/2"], ["w/2", "1/2"]], [["1", "0"], ["0", "-1"]]],
    )


def s4():
    """Symmetric group S4 permuting four coordinates over Q, generated by
    the transposition (1 2) and the 4-cycle (1 2 3 4)."""
    return _finite(
        "S4 permuting four variables",
        {"kind": "rationals"},
        [_permutation_matrix([1, 0, 2, 3]), _permutation_matrix([1, 2, 3, 0])],
    )


def torus(weights, label):
    """Torus (Gm)^r acting diagonally on len(weights) coordinates:
    coordinate i is scaled by prod_k t_k^weights[i][k].  The group is the
    variety {z_k u_k = 1} with u_k = t_k^-1, so a negative exponent is a
    power of u_k."""
    r = len(weights[0])
    group_vars = [f"z{k + 1}" for k in range(r)] + [f"u{k + 1}" for k in range(r)]
    n = len(weights)
    rows = [["0"] * n for _ in range(n)]
    for i, w in enumerate(weights):
        factors = []
        for k, e in enumerate(w):
            if e:
                name = f"z{k + 1}" if e > 0 else f"u{k + 1}"
                factors.append(name if abs(e) == 1 else f"{name}^{abs(e)}")
        rows[i][i] = "*".join(factors) or "1"
    return {
        "label": label,
        "kind": "algebraic",
        "field": {"kind": "rationals"},
        "group_vars": group_vars,
        "ideal_gens": [f"z{k + 1}*u{k + 1} - 1" for k in range(r)],
        "dimension": n,
        "action_matrix": rows,
        "linear_reductive": True,
    }


def _power(var, exp):
    """var^exp as a factor of a term: "" for 1, None for 0."""
    if exp == 0 or var == "1":
        return ""
    if var == "0":
        return None
    return var if exp == 1 else f"{var}^{exp}"


def _binary_form_matrix(d, a, b, c, e):
    """Action of [[a, b], [c, e]] on binary forms of degree d:
    (X, Y) -> (a X + b Y, c X + e Y), in the basis X^(d-j) Y^j.  Entry
    [i][j] is the coefficient of X^(d-i) Y^i in
    (a X + b Y)^(d-j) (c X + e Y)^j; a, b, c, e are variable names or
    the constants "1" and "0"."""
    rows = [[[] for _ in range(d + 1)] for _ in range(d + 1)]
    for j in range(d + 1):
        for s1 in range(d - j + 1):  # power of Y taken from (a X + b Y)^(d-j)
            for s2 in range(j + 1):  # power of Y taken from (c X + e Y)^j
                factors = [_power(a, d - j - s1), _power(b, s1), _power(c, j - s2), _power(e, s2)]
                if None in factors:
                    continue
                coeff = comb(d - j, s1) * comb(j, s2)
                term = "*".join(([str(coeff)] if coeff != 1 else []) + [f for f in factors if f])
                rows[s1 + s2][j].append(term or "1")
    return [[" + ".join(cell) or "0" for cell in row] for row in rows]


def sl2_binary_forms(d):
    """SL2 = {z11 z22 - z12 z21 = 1} acting on binary forms of degree d by
    (X, Y) -> (z11 X + z12 Y, z21 X + z22 Y).  For d = 2 this is the
    bundled `sl2_binary_quadratics` spec; for d = 3 its invariant ring is
    generated by the discriminant of the cubic."""
    return {
        "label": f"SL2 acting on binary forms of degree {d}",
        "kind": "algebraic",
        "field": {"kind": "rationals"},
        "group_vars": ["z11", "z12", "z21", "z22"],
        "ideal_gens": ["z11*z22 - z12*z21 - 1"],
        "dimension": d + 1,
        "action_matrix": _binary_form_matrix(d, "z11", "z12", "z21", "z22"),
        "linear_reductive": True,
    }


def ga_binary_forms(d):
    """Additive group Ga (the affine line, no equations) acting on binary
    forms of degree d through the unipotent matrices [[1, t], [0, 1]]:
    (X, Y) -> (X + t Y, Y).  Not reductive; only the invariant field is
    asked for."""
    return {
        "label": f"Ga acting on binary forms of degree {d}",
        "kind": "algebraic",
        "field": {"kind": "rationals"},
        "group_vars": ["t"],
        "ideal_gens": [],
        "dimension": d + 1,
        "action_matrix": _binary_form_matrix(d, "1", "t", "0", "1"),
        "linear_reductive": False,
    }


def cyclic(n, field):
    """Cyclic n-roots: sum_i prod_{j<k} x_{(i+j) mod n} for k = 1..n-1,
    and x_1 ... x_n - 1."""
    xs = [f"x{i + 1}" for i in range(n)]
    polys = []
    for k in range(1, n):
        polys.append(" + ".join("*".join(xs[(i + j) % n] for j in range(k)) for i in range(n)))
    polys.append("*".join(xs) + " - 1")
    return {"field": field, "variables": xs, "polynomials": polys, "order": "grevlex"}


def katsura(n, field):
    """Katsura-n in x_0..x_n, with x_l = x_|l| and x_l = 0 for |l| > n:
    sum_{l=-n..n} x_l x_(m-l) - x_m = 0 for m = 0..n-1, and
    sum_{l=-n..n} x_l - 1 = 0."""
    xs = [f"x{i}" for i in range(n + 1)]

    def var(l):
        return xs[abs(l)] if abs(l) <= n else None

    polys = []
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            a, b = var(l), var(m - l)
            if a is not None and b is not None:
                terms.append(f"{a}*{b}")
        polys.append(" + ".join(terms) + f" - {xs[m]}")
    polys.append(" + ".join(var(l) for l in range(-n, n + 1)) + " - 1")
    return {"field": field, "variables": xs, "polynomials": polys, "order": "grevlex"}


QQ = {"kind": "rationals"}
GF32003 = {"kind": "prime", "p": 32003}

# Generated spec files, by the name the job lists use.
SPECS = {
    "q8": q8,
    "c3xc3": c3xc3,
    "c7": c7,
    "d12": d12,
    "s4": s4,
    "torus_123": lambda: torus([[1], [2], [3], [-1], [-2], [-3]], "Gm with weights (1,2,3,-1,-2,-3)"),
    "torus2_5": lambda: torus(
        [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]], "Gm^2 on 5 coordinates"
    ),
    "torus_345": lambda: torus([[3], [4], [-5]], "Gm with weights (3,4,-5)"),
    "sl2_cubics": lambda: sl2_binary_forms(3),
    "ga_quartics": lambda: ga_binary_forms(4),
}

# Generated Groebner problem files.
PROBLEMS = {
    "cyclic5_qq": lambda: cyclic(5, QQ),
    "cyclic5_gf": lambda: cyclic(5, GF32003),
    "katsura5_qq": lambda: katsura(5, QQ),
    "katsura5_gf": lambda: katsura(5, GF32003),
    "katsura6_gf": lambda: katsura(6, GF32003),
}


def write_inputs(directory):
    """Write every generated file into `directory`; return {name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, make in {**SPECS, **PROBLEMS}.items():
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "w") as fh:
            fh.write(json.dumps(make(), indent=1, sort_keys=True) + "\n")
    return paths
