"""Group specification files: one JSON document per group.

Finite matrix groups carry a field block, a dimension, and generator
matrices whose entries use the scalar grammar; algebraic groups carry
group variables, vanishing-ideal generators, an action matrix of
polynomials in the group variables, and the linear_reductive flag.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Union

from .algebraic import AlgebraicGroupSpec
from .errors import ParseError
from .fields import field_from_config
from .groups import DEFAULT_CLOSURE_CAP, FiniteMatrixGroup, close_group
from .linalg import Matrix
from .polynomials import PolynomialRing


@dataclass
class LoadedSpec:
    kind: str  # finite_matrix | algebraic
    label: str
    group: Union[FiniteMatrixGroup, AlgebraicGroupSpec]
    digest: str


def parse_group_config(cfg: dict, cap: int = DEFAULT_CLOSURE_CAP):
    kind = cfg.get("kind")
    if kind == "finite_matrix":
        return _parse_finite(cfg, cap)
    if kind == "algebraic":
        return _parse_algebraic(cfg)
    raise ParseError(f"unknown group kind {kind!r}")


def _parse_finite(cfg: dict, cap: int) -> FiniteMatrixGroup:
    field = field_from_config(cfg["field"])
    n = json_value(cfg, "dimension", int)
    _refuse_coordinate_generator(field, {f"x{i + 1}" for i in range(n)})
    gens = []
    for rows in cfg["generators"]:
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ParseError(f"generator matrix is not {n}x{n}")
        gens.append(Matrix(field, [[field.parse(e) for e in row] for row in rows]))
    return close_group(gens, cap=cap, label=cfg.get("label", ""))


def _refuse_coordinate_generator(field, coordinates: set):
    """Results print in a ring over the coordinates, where a field
    generator of the same name would read as the variable."""
    name = getattr(field, "generator_name", None)
    if name in coordinates:
        raise ParseError(f"field generator {name!r} is also a coordinate name")


def json_value(cfg: dict, key: str, kind: type, default=None, item: type = None):
    """cfg[key], or the default of an optional key: a JSON value of
    exactly this type, and for a list, entries of type `item`.  Nothing
    is converted: a bool is no int, and a bare string given for a list
    is refused, not split into characters."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if type(value) is not kind or item and not all(type(v) is item for v in value):
        of = f" of {item.__name__}" if item else ""
        raise ParseError(f"{key} must be a JSON {kind.__name__}{of}, not {value!r}")
    return value


def _parse_algebraic(cfg: dict) -> AlgebraicGroupSpec:
    field = field_from_config(cfg["field"])
    group_vars = tuple(json_value(cfg, "group_vars", list, [], str))
    n = json_value(cfg, "dimension", int)
    rows = cfg["action_matrix"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"action matrix is not {n}x{n}")
    # the graph ring adds y1..yn and x1..xn to the group variables
    coordinates = {f"{v}{i + 1}" for v in "xy" for i in range(n)}
    if len(set(group_vars)) != len(group_vars) or coordinates.intersection(group_vars):
        raise ParseError(f"group_vars {list(group_vars)} repeat a name or name a coordinate")
    _refuse_coordinate_generator(field, coordinates)
    zring = PolynomialRing(field, group_vars)
    ideal_gens = [zring.parse(t) for t in json_value(cfg, "ideal_gens", list, [], str)]
    action = [[zring.parse(e) for e in row] for row in rows]
    return AlgebraicGroupSpec(
        field=field,
        group_vars=group_vars,
        ideal_gens=ideal_gens,
        n=n,
        action_matrix=action,
        linear_reductive=json_value(cfg, "linear_reductive", bool, False),
        label=cfg.get("label", ""),
    )


def _read_spec(path: str, build):
    """Read a JSON file whose top level is an object and return
    (build(object), sha256 hex digest of the file's bytes).

    A directory, invalid JSON or JSON nested past the decoder's
    recursion limit, a top level that is not an object, and a
    missing or malformed entry (KeyError, TypeError or ValueError from
    `build`) raise ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except IsADirectoryError as exc:
        raise ParseError(f"{path} is a directory, not a JSON file") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = json.loads(raw)
    except ValueError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: top level must be a JSON object, not {type(cfg).__name__}")
    try:
        return build(cfg), digest
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_spec_file(path: str, cap: int = DEFAULT_CLOSURE_CAP) -> LoadedSpec:
    group, digest = _read_spec(path, lambda cfg: parse_group_config(cfg, cap=cap))
    kind = "finite_matrix" if isinstance(group, FiniteMatrixGroup) else "algebraic"
    return LoadedSpec(kind=kind, label=group.label, group=group, digest=digest)


def fixture_path(name: str) -> str:
    """Absolute path of a bundled example spec file, e.g. 'd8'."""
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("invar") / "fixtures" / name
    return str(ref)
