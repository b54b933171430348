"""Deterministic command-line frontend.

Every command loads a group spec file, dispatches one computation, and
emits a report.  With ``--json`` the report is a single JSON object
with sorted keys and no timing information, so equal inputs and seeds
produce byte-identical output; the default human-readable report adds
wall time.  Domain errors exit with a documented code and print a
machine-readable error name on stderr:

    0 success, 2 parse error, 3 modular case, 4 closure cap exceeded,
    5 truncation/degree cap insufficient, 6 other domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import algebraic as alg
from . import groups as grp
from . import invariants as inv
from .errors import InvarError, ParseError, exit_code_for
from .fields import field_from_config
from .groebner import buchberger, ideal_dimension, reduce_basis
from .groups import DEFAULT_CLOSURE_CAP, FiniteMatrixGroup
from .polynomials import GREVLEX, PolynomialRing, order_by_name
from .specfile import _read_spec, load_spec_file


def _emit(args, command: str, loaded_digest: str, seed, payload, warnings, t0):
    report = {
        "command": command,
        "input_digest": loaded_digest,
        "seed": seed,
        "payload": payload,
        "warnings": warnings,
    }
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1))
        sys.stdout.write("\n")
    else:
        print(f"command: {command}")
        print(f"input digest: {loaded_digest}")
        if seed is not None:
            print(f"seed: {seed}")
        _print_human(payload)
        if warnings:
            for w in warnings:
                print(f"warning: {w}")
        print(f"wall time: {time.time() - t0:.3f}s")
    return 0


def _print_human(payload, indent=""):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, indent + "  ")
        elif isinstance(value, list) and value and not isinstance(value[0], (str, int, float, bool)):
            print(f"{indent}{key}: {json.dumps(value)}")
        else:
            print(f"{indent}{key}: {value}")


def _require_finite(loaded):
    if not isinstance(loaded.group, FiniteMatrixGroup):
        raise ParseError(f"command needs a finite_matrix spec, got {loaded.kind}")
    return loaded.group


def _require_algebraic(loaded):
    if isinstance(loaded.group, FiniteMatrixGroup):
        raise ParseError(f"command needs an algebraic spec, got {loaded.kind}")
    return loaded.group


def _poly_strs(polys, order=GREVLEX):
    return [p.format(order) for p in polys]


def cmd_generators(args, loaded, t0):
    warnings = []
    if args.algorithm == "king":
        group = _require_finite(loaded)
        order = order_by_name(args.order)
        result = inv.king_generators(group, order)
        if args.monic:
            result = result.monic(order)
        payload = {
            "algorithm": "king",
            "order": args.order,
            "monic": bool(args.monic),
            "generators": _poly_strs(result.generators, order),
            "degrees": result.degrees,
            "termination_degree": result.termination_degree,
            "minimal": result.minimal,
        }
        if args.verify:
            rep = inv.verify_noether_and_hilbert(group, result)
            payload["verify"] = {
                "max_degree_ok": rep.max_degree_ok,
                "hilbert_monomials_ok": rep.hilbert_monomials_ok,
                "subalgebra_ok": rep.subalgebra_ok,
                "all_ok": rep.all_ok,
            }
    else:
        spec = _require_algebraic(loaded)
        result = alg.derksen_generators(spec)
        payload = {
            "algorithm": "derksen",
            "generators": _poly_strs(result.generators),
            "degrees": result.degrees,
            "termination_degree": result.termination_degree,
            "minimal": result.minimal,
        }
        if args.verify:
            payload["verify"] = {"hilbert_ideal_consistent": _verify_derksen(spec, result)}
    return _emit(args, f"generators --algorithm {args.algorithm}", loaded.digest, None, payload, warnings, t0)


def _verify_derksen(spec, result) -> bool:
    """y=0 specializations and the returned generators span the same ideal."""
    from .groebner import ideal_membership

    hilbert = alg.hilbert_ideal_generators(spec)
    if not hilbert or not result.generators:
        return not hilbert and not result.generators
    b1 = reduce_basis(buchberger(hilbert, GREVLEX))
    b2 = reduce_basis(buchberger(result.generators, GREVLEX))
    return all(ideal_membership(g, b1) for g in result.generators) and all(
        ideal_membership(h, b2) for h in hilbert
    )


def cmd_separating(args, loaded, t0):
    group = _require_finite(loaded)
    if args.bound < 0:
        raise ParseError(f"--bound must be nonnegative, got {args.bound}")
    noether = inv.noether_separating_set(group)
    if args.method == "noether":
        result = noether
    else:
        result = inv.reduce_separating_set(noether.invariants, group.dimension)
    payload = {
        "method": args.method,
        "invariants": _poly_strs(result.invariants),
        "size": result.size,
        "homogeneous": result.homogeneous,
        "degrees": [p.total_degree() for p in result.invariants],
    }
    if result.provenance == "reduced":
        payload["alphas"] = [list(a) for a in result.alphas]
    if args.verify_samples:
        rep = inv.verify_separation_samples(
            result.invariants,
            group,
            pairs=args.verify_samples,
            coordinate_bound=args.bound,
            seed=args.seed,
        )
        payload["verification"] = {
            "passed": rep.passed,
            "same_orbit_checked": rep.same_orbit_checked,
            "distinct_orbit_checked": rep.distinct_orbit_checked,
            "counterexamples": rep.counterexamples,
            "note": rep.note,
        }
    return _emit(args, f"separating --method {args.method}", loaded.digest, args.seed, payload, [], t0)


def cmd_analyze(args, loaded, t0):
    group = _require_finite(loaded)
    sub = args.analysis
    if sub == "molien":
        series = grp.molien_series(group, args.degree)
        payload = {
            "degree": args.degree,
            "coefficients": [str(c) for c in series.coeffs],
        }
        seed = None
    elif sub == "classify":
        table = []
        for m in group.elements:
            c = grp.classify_element(m)
            table.append(
                {
                    "matrix": [[str(x) for x in row] for row in m.rows],
                    "codimension": c.codimension,
                    "label": c.label,
                }
            )
        payload = {
            "elements": table,
            "order": group.order,
            "reflection_generated": grp.is_reflection_group(group),
            "bireflection_generated": grp.is_bireflection_group(group),
            "cm_necessary_condition": grp.cohen_macaulay_necessary_condition(group),
        }
        seed = None
    elif sub == "primary":
        prim = inv.dade_primary_invariants(group, seed=args.seed)
        payload = {
            "invariants": _poly_strs(prim),
            "degrees": [p.total_degree() for p in prim],
            "hsop_verified": True,
        }
        seed = args.seed
    elif sub == "bounds":
        if args.degrees:
            try:
                degrees = [int(d) for d in args.degrees.split(",")]
            except ValueError:
                raise ParseError(
                    f"--degrees needs comma-separated integers, got {args.degrees!r}"
                ) from None
            seed = None
        else:
            degrees = [p.total_degree() for p in inv.dade_primary_invariants(group, seed=args.seed)]
            seed = args.seed
        rep = inv.degree_bound_report(group, degrees)
        payload = {
            "primary_degrees": degrees,
            "symonds_bound": rep.symonds_bound,
            "coarse_bound": rep.coarse_bound,
            "noether_bound": rep.noether_bound,
            "noether_applies": rep.noether_applies,
        }
    else:  # pragma: no cover
        raise ParseError(f"unknown analysis {sub!r}")
    return _emit(args, f"analyze {sub}", loaded.digest, seed, payload, [], t0)


def cmd_field(args, loaded, t0):
    spec = _require_algebraic(loaded)
    gens = alg.invariant_field_generators(spec)
    payload = {"generators": [str(c) for c in gens]}
    return _emit(args, "field", loaded.digest, None, payload, [], t0)


def cmd_derksen_ideal(args, loaded, t0):
    spec = _require_algebraic(loaded)
    result = alg.derksen_ideal(spec)
    payload = {
        "generators": _poly_strs(result.generators),
        "reduced": result.reduced,
    }
    return _emit(args, "derksen-ideal", loaded.digest, None, payload, [], t0)


def cmd_separating_variety(args, loaded, t0):
    spec = _require_algebraic(loaded)
    gens = alg.separating_variety(spec)
    payload = {"generators": _poly_strs(gens)}
    return _emit(args, "separating-variety", loaded.digest, None, payload, [], t0)


def _parse_groebner_problem(cfg):
    ring = PolynomialRing(field_from_config(cfg["field"]), tuple(cfg["variables"]))
    polys = [ring.parse(t) for t in cfg["polynomials"]]
    order = order_by_name(cfg.get("order", "grevlex"))
    return polys, order, cfg.get("truncate"), cfg.get("eliminate", [])


def cmd_groebner(args, t0):
    problem, digest = _read_spec(args.file, _parse_groebner_problem)
    polys, order, truncate, eliminate = problem
    if eliminate:
        from .groebner import elimination_ideal

        basis_polys = elimination_ideal(polys, eliminate)
        payload = {
            "eliminated": list(eliminate),
            "basis": _poly_strs(basis_polys),
        }
    else:
        basis = buchberger(polys, order, truncate=truncate)
        if truncate is None:
            basis = reduce_basis(basis)
            dim = ideal_dimension(basis)
            payload = {
                "basis": [p.format(order) for p in basis.generators],
                "reduced": True,
                "dimension": "empty" if dim is None else dim,
            }
        else:
            payload = {
                "basis": [p.format(order) for p in basis.generators],
                "reduced": False,
                "truncation_degree": truncate,
            }
    return _emit(args, "groebner", digest, None, payload, [], t0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invar",
        description="Exact invariant-theory computations for finite and "
        "algebraic groups.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("INVAR_THREADS", "1")),
        help="worker thread budget (accepted for interface compatibility; "
        "execution is sequential so output is reproducible)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("spec", help="group spec file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP,
                       help="closure cap for finite groups")
        if seeds:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generators", help="generating invariants")
    common(p)
    p.add_argument("--algorithm", choices=["king", "derksen"], default="king")
    p.add_argument("--order", choices=["grevlex", "lex", "gradedlex"], default="grevlex")
    p.add_argument("--monic", action="store_true", help="rescale generators monic")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("separating", help="separating invariants")
    common(p, seeds=True)
    p.add_argument("--method", choices=["noether", "reduce"], default="noether")
    p.add_argument("--verify-samples", dest="verify_samples", type=int, default=0)
    p.add_argument("--bound", type=int, default=10)
    p.set_defaults(func=cmd_separating)

    p = sub.add_parser("analyze", help="classification, series, and bounds")
    p.add_argument("analysis", choices=["molien", "classify", "primary", "bounds"])
    common(p, seeds=True)
    p.add_argument("--degree", type=int, default=10, help="truncation for molien")
    p.add_argument("--degrees", default="", help="primary degrees for bounds, e.g. 2,8")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("field", help="invariant field generators")
    common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("derksen-ideal", help="reduced ideal of the action graph")
    common(p)
    p.set_defaults(func=cmd_derksen_ideal)

    p = sub.add_parser("separating-variety", help="pairs inseparable by invariants")
    common(p)
    p.set_defaults(func=cmd_separating_variety)

    p = sub.add_parser("groebner", help="Groebner basis passthrough")
    p.add_argument("file", help="JSON problem file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_groebner)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        if args.command == "groebner":
            return args.func(args, t0)
        loaded = load_spec_file(args.spec, cap=args.cap)
        return args.func(args, loaded, t0)
    except InvarError as exc:
        code = exit_code_for(exc)
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
            + "\n"
        )
        return code
    except FileNotFoundError as exc:
        sys.stderr.write(
            json.dumps({"error": "FileNotFound", "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
