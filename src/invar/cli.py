"""Deterministic command-line frontend.

Every command loads its input file (a group spec, or a problem file for
``groebner``), runs one computation and returns the raw result values;
``main`` converts them once and writes the report.  With ``--json`` the report is a single JSON object
with sorted keys and no timing information, so equal inputs and seeds
produce byte-identical output; the default human-readable report adds
wall time.  Each warning and each domain error is one JSON line on
stderr, and domain errors exit with a documented code:

    0 success, 2 parse error, 3 modular case, 4 closure cap or exponent
    bound exceeded, 5 truncation/degree cap insufficient, 6 other domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings

from . import algebraic as alg
from . import groups as grp
from . import invariants as inv
from .errors import InvarError, ParseError, exit_code_for
from .fields import field_from_config
from .groebner import buchberger, elimination_ideal, ideal_dimension, ideal_membership, reduce_basis
from .groups import DEFAULT_CLOSURE_CAP
from .linalg import Matrix
from .polynomials import GREVLEX, Polynomial, PolynomialRing, order_by_name
from .specfile import _read_spec, json_value, load_spec_file


def _jsonable(value, order):
    """The report form of a result value: a polynomial as its text in
    `order`, a matrix as rows, a scalar as its text, containers entrywise."""
    if isinstance(value, Polynomial):
        return value.format(order)
    if isinstance(value, Matrix):
        return _jsonable(value.rows, order)
    if isinstance(value, dict):
        return {key: _jsonable(v, order) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, order) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    return str(value)


def _human_lines(payload, indent=""):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _human_lines(value, indent + "  ")
        elif isinstance(value, list) and value and not isinstance(value[0], (str, int, float, bool)):
            yield f"{indent}{key}: {json.dumps(value)}"
        else:
            yield f"{indent}{key}: {value}"


def _load(args, kind):
    """(group, input digest) of the spec file, which must be of `kind`."""
    if args.cap < 1:
        raise ParseError(f"--cap must be at least 1, got {args.cap}")
    loaded = load_spec_file(args.spec, cap=args.cap)
    if loaded.kind != kind:
        article = "an" if kind == "algebraic" else "a"
        raise ParseError(f"command needs {article} {kind} spec, got {loaded.kind}")
    return loaded.group, loaded.digest


def _nonnegative(option, value):
    if value < 0:
        raise ParseError(f"{option} must be nonnegative, got {value}")
    return value


def _fields(obj, *names):
    """The named attributes of a result, reported under their own names."""
    return {name: getattr(obj, name) for name in names}


# Every command takes the parsed arguments and returns
# (command, input digest, seed, payload, monomial order of its polynomials).

def cmd_generators(args):
    if args.algorithm == "king":
        group, digest = _load(args, "finite_matrix")
        order = order_by_name(args.order)
        result = inv.king_generators(group, order)
        if args.monic:
            result = result.monic(order)
        extra = {"order": args.order, "monic": bool(args.monic)}
        if args.verify:
            rep = inv.verify_noether_and_hilbert(group, result)
            extra["verify"] = _fields(
                rep, "max_degree_ok", "hilbert_monomials_ok", "subalgebra_ok", "all_ok"
            )
    else:
        if args.monic or args.order != "grevlex":
            raise ParseError(
                "--algorithm derksen takes neither --monic nor an --order other than grevlex"
            )
        spec, digest = _load(args, "algebraic")
        order = GREVLEX
        result = alg.derksen_generators(spec)
        extra = {}
        if args.verify:
            extra["verify"] = {"hilbert_ideal_consistent": _verify_derksen(spec, result)}
    payload = {"algorithm": args.algorithm, **extra,
               **_fields(result, "generators", "degrees", "termination_degree", "minimal")}
    return f"generators --algorithm {args.algorithm}", digest, None, payload, order


def _verify_derksen(spec, result) -> bool:
    """y=0 specializations and the returned generators span the same ideal."""
    hilbert = alg.hilbert_ideal_generators(spec)
    if not hilbert or not result.generators:
        return not hilbert and not result.generators
    b1 = buchberger(hilbert, GREVLEX)
    b2 = buchberger(result.generators, GREVLEX)
    return all(ideal_membership(g, b1) for g in result.generators) and all(
        ideal_membership(h, b2) for h in hilbert
    )


def cmd_separating(args):
    group, digest = _load(args, "finite_matrix")
    _nonnegative("--bound", args.bound)
    _nonnegative("--verify-samples", args.verify_samples)
    noether = inv.noether_separating_set(group)
    if args.method == "noether":
        result = noether
    else:
        result = inv.reduce_separating_set(noether.invariants)
    payload = {
        "method": args.method,
        **_fields(result, "invariants", "size", "homogeneous"),
        "degrees": [p.total_degree() for p in result.invariants],
    }
    if result.provenance == "reduced":
        payload["alphas"] = result.alphas
    if args.verify_samples:
        rep = inv.verify_separation_samples(
            result.invariants,
            group,
            pairs=args.verify_samples,
            coordinate_bound=args.bound,
            seed=args.seed,
        )
        payload["verification"] = _fields(
            rep, "passed", "same_orbit_checked", "distinct_orbit_checked", "counterexamples", "note"
        )
    return f"separating --method {args.method}", digest, args.seed, payload, GREVLEX


def cmd_analyze(args):
    group, digest = _load(args, "finite_matrix")
    sub, seed = args.analysis, None
    if sub == "molien":
        degree = _nonnegative("--degree", args.degree)
        payload = {"degree": degree, "coefficients": grp.molien_series(group, degree)}
    elif sub == "classify":
        payload = {
            "elements": [
                {"matrix": m, **_fields(grp.classify_element(m), "codimension", "label")}
                for m in group.elements
            ],
            "order": group.order,
            "reflection_generated": grp.is_reflection_group(group),
            "bireflection_generated": grp.is_bireflection_group(group),
            "cm_necessary_condition": grp.cohen_macaulay_necessary_condition(group),
        }
    elif sub == "primary":
        prim = inv.dade_primary_invariants(group, seed=args.seed)
        payload = {
            "invariants": prim,
            "degrees": [p.total_degree() for p in prim],
            "hsop_verified": True,
        }
        seed = args.seed
    else:
        if args.degrees:
            try:
                degrees = [int(d) for d in args.degrees.split(",")]
            except ValueError:
                degrees = []
            if len(degrees) != group.dimension or min(degrees) < 1:
                raise ParseError(f"--degrees needs {group.dimension} comma-separated "
                                 f"integers of at least 1, got {args.degrees!r}")
        else:
            degrees = [p.total_degree() for p in inv.dade_primary_invariants(group, seed=args.seed)]
            seed = args.seed
        rep = inv.degree_bound_report(group, degrees)
        payload = {
            "primary_degrees": degrees,
            **_fields(rep, "symonds_bound", "coarse_bound", "noether_bound", "noether_applies"),
        }
    return f"analyze {sub}", digest, seed, payload, GREVLEX


def cmd_field(args):
    spec, digest = _load(args, "algebraic")
    return "field", digest, None, {"generators": alg.invariant_field_generators(spec)}, GREVLEX


def cmd_derksen_ideal(args):
    spec, digest = _load(args, "algebraic")
    payload = _fields(alg.derksen_ideal(spec), "generators", "reduced")
    return "derksen-ideal", digest, None, payload, GREVLEX


def cmd_separating_variety(args):
    spec, digest = _load(args, "algebraic")
    return "separating-variety", digest, None, {"generators": alg.separating_variety(spec)}, GREVLEX


def _parse_groebner_problem(cfg):
    names = json_value(cfg, "variables", list, item=str)
    ring = PolynomialRing(field_from_config(cfg["field"]), tuple(names))
    # an empty list is the zero ideal, as ["0"] is
    polys = [ring.parse(t) for t in json_value(cfg, "polynomials", list, item=str)] or [ring.zero]
    order = order_by_name(cfg.get("order", "grevlex"))
    truncate = cfg.get("truncate")
    if truncate is not None and (type(truncate) is not int or truncate < 0):
        raise ParseError(f"truncate must be a non-negative integer or null, not {truncate!r}")
    return polys, order, truncate, json_value(cfg, "eliminate", list, [], str)


def cmd_groebner(args):
    (polys, order, truncate, eliminate), digest = _read_spec(args.file, _parse_groebner_problem)
    if eliminate:
        if truncate is not None or order != GREVLEX:
            raise ParseError("eliminate computes in a block order and reports in grevlex; "
                             "it takes neither truncate nor an order other than grevlex")
        payload = {"eliminated": eliminate, "basis": elimination_ideal(polys, eliminate)}
    elif truncate is None:
        basis = reduce_basis(buchberger(polys, order))
        dim = ideal_dimension(basis)
        payload = {
            "basis": basis.generators,
            "reduced": True,
            "dimension": "empty" if dim is None else dim,
        }
    else:
        basis = buchberger(polys, order, truncate=truncate)
        payload = {"basis": basis.generators, "reduced": False, "truncation_degree": truncate}
    return "groebner", digest, None, payload, order


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="invar",
        description="Exact invariant-theory computations for finite and "
        "algebraic groups.",
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
    args = build_parser().parse_args(argv)
    t0 = time.time()
    record = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            command, digest, seed, payload, order = args.func(args)
        except InvarError as exc:
            record, code = {"error": type(exc).__name__, "message": str(exc)}, exit_code_for(exc)
        except FileNotFoundError as exc:
            record, code = {"error": "FileNotFound", "message": str(exc)}, 2
    for w in caught:  # one JSON line each, in the style of the error record
        sys.stderr.write(json.dumps({"warning": w.category.__name__, "message": str(w.message)},
                                    sort_keys=True) + "\n")
    if record is None:
        report = {
            "command": command,
            "input_digest": digest,
            "seed": seed,
            "payload": _jsonable(payload, order),
            "warnings": [],
        }
        if args.json:
            sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1))
            sys.stdout.write("\n")
        else:
            print(f"command: {command}")
            print(f"input digest: {digest}")
            if seed is not None:
                print(f"seed: {seed}")
            for line in _human_lines(report["payload"]):
                print(line)
            print(f"wall time: {time.time() - t0:.3f}s")
        return 0
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
