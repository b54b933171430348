"""Per-layer tracing of `invar`, applied from outside the package.

`Tracer.install()` replaces chosen functions and methods of the `invar`
modules with wrappers that record a span per call (name, start, end,
parent span, job id) and count calls.  A module-level function is
replaced in its defining module and in every `invar` module that
imported it by name (for example `reynolds` in `invariants`, or
`buchberger` in `cli`), because a call through such a name would
otherwise bypass the wrapper.  `Tracer.uninstall()` restores every
original.

Hot leaf functions (scalar arithmetic, monomial divisibility, sort keys)
feed the same call counts and self times but keep no span records, so the
trace stays small.  Self time is a span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, qualified attribute, metric prefix, keep span records)
# A dotted attribute "Class.method" is patched on the class.
TRACED = [
    ("cli", "main", "cli.main", True),
    ("specfile", "load_spec_file", "specfile.load_spec_file", True),
    ("fields", "Rationals._mul", "fields.mul.rationals", False),
    ("fields", "PrimeField._mul", "fields.mul.prime", False),
    ("fields", "NumberField._mul", "fields.mul.simple_extension", False),
    ("ratfunc", "RationalFunctionField._mul", "fields.mul.rational_function", False),
    ("fields", "Rationals._inv", "fields.inv.rationals", False),
    ("fields", "PrimeField._inv", "fields.inv.prime", False),
    ("fields", "NumberField._inv", "fields.inv.simple_extension", False),
    ("ratfunc", "RationalFunctionField._inv", "fields.inv.rational_function", False),
    ("fields", "Rationals._add", "fields.add", False),
    ("fields", "PrimeField._add", "fields.add", False),
    ("fields", "NumberField._add", "fields.add", False),
    ("ratfunc", "RationalFunctionField._add", "fields.add", False),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul", False),
    ("polynomials", "Polynomial.__rmul__", "polynomials.mul", False),
    ("polynomials", "Polynomial.substitute", "polynomials.substitute", False),
    ("polynomials", "Polynomial.apply_linear_map", "polynomials.apply_linear_map", False),
    ("polynomials", "Polynomial.format", "polynomials.format", False),
    ("polynomials", "mono_divides", "polynomials.mono_divides", False),
    ("polynomials", "_Lex.key", "polynomials.order_key", False),
    ("polynomials", "_GradedLex.key", "polynomials.order_key", False),
    ("polynomials", "_Grevlex.key", "polynomials.order_key", False),
    ("polynomials", "BlockElimination.key", "polynomials.order_key", False),
    ("linalg", "Matrix.__matmul__", "linalg.matmul", False),
    ("linalg", "Matrix.rank", "linalg.rank", False),
    ("linalg", "nullspace", "linalg.nullspace", False),
    ("groups", "close_group", "groups.close_group", True),
    ("groups", "apply_element", "groups.apply_element", False),
    ("groups", "reynolds", "groups.reynolds", True),
    ("groups", "molien_series", "groups.molien_series", True),
    ("groebner", "s_polynomial", "groebner.s_polynomial", False),
    ("groebner", "BuchbergerEngine.add_generator", "groebner.add_generator", False),
    ("groebner", "BuchbergerEngine.extend", "groebner.extend", True),
    ("groebner", "BuchbergerEngine.normal_form", "groebner.normal_form", False),
    ("groebner", "normal_form", "groebner.normal_form", False),
    ("groebner", "buchberger", "groebner.buchberger", True),
    ("groebner", "reduce_basis", "groebner.reduce_basis", True),
    ("groebner", "elimination_ideal", "groebner.elimination_ideal", True),
    ("groebner", "SubalgebraOracle.__init__", "groebner.subalgebra_oracle", True),
    ("groebner", "SubalgebraOracle.express", "groebner.subalgebra_oracle", True),
    ("invariants", "king_generators", "invariants.king_generators", True),
    ("invariants", "verify_noether_and_hilbert", "invariants.verify_noether_and_hilbert", True),
    ("invariants", "verify_separation_samples", "invariants.verify_separation_samples", True),
    ("invariants", "dade_primary_invariants", "invariants.dade_primary_invariants", True),
    ("invariants", "is_phsop", "invariants.is_phsop", False),
    ("invariants", "noether_separating_set", "invariants.noether_separating_set", True),
    ("invariants", "reduce_separating_set", "invariants.reduce_separating_set", True),
    ("algebraic", "derksen_ideal", "algebraic.derksen_ideal", True),
    ("algebraic", "algebraic_invariant_basis", "algebraic.algebraic_invariant_basis", True),
    ("algebraic", "separating_variety", "algebraic.separating_variety", True),
    ("algebraic", "invariant_field_generators", "algebraic.invariant_field_generators", True),
    ("ratfunc", "multivariate_gcd", "ratfunc.multivariate_gcd", True),
]

FIELD_PREFIXES = ("fields.mul.", "fields.inv.", "fields.add")

# Spans whose caller decides which ratio metric they feed.
_HOOKED = {"groebner.add_generator", "groups.reynolds", "invariants.is_phsop"}

# Per-layer metrics reported by a traced run, in output order, with units.
PER_LAYER = (
    [(f"fields.{op}.{kind}", "count") for op in ("mul", "inv")
     for kind in ("simple_extension", "rationals", "prime", "rational_function")]
    + [("fields.self_s", "s")]
    + [(f"polynomials.{f}.{m}", u) for f in ("mul", "substitute", "apply_linear_map")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("polynomials.mono_divides.calls", "count"),
        ("polynomials.order_key.calls", "count"),
        ("polynomials.format.self_s", "s"),
        ("linalg.rank.calls", "count"),
        ("linalg.rank.self_s", "s"),
        ("linalg.nullspace.calls", "count"),
        ("linalg.nullspace.self_s", "s"),
        ("linalg.matmul.calls", "count"),
        ("groups.apply_element.calls", "count"),
        ("groups.reynolds.calls", "count"),
        ("groups.reynolds.total_s", "s"),
        ("groups.molien_series.total_s", "s"),
        ("groups.close_group.total_s", "s"),
        ("groebner.normal_form.calls", "count"),
        ("groebner.normal_form.total_s", "s"),
        ("groebner.reduce_basis.calls", "count"),
        ("groebner.reduce_basis.total_s", "s"),
        ("groebner.elimination_ideal.calls", "count"),
        ("groebner.elimination_ideal.total_s", "s"),
        ("groebner.buchberger.calls", "count"),
        ("groebner.buchberger.total_s", "s"),
        ("groebner.s_pairs", "count"),
        ("groebner.generators_added", "count"),
        ("groebner.useful_pair_ratio", "ratio"),
        ("groebner.subalgebra_oracle.total_s", "s"),
        ("invariants.king_generators.total_s", "s"),
        ("invariants.king_useful_ratio", "ratio"),
        ("invariants.verify_noether_and_hilbert.total_s", "s"),
        ("invariants.verify_separation_samples.total_s", "s"),
        ("invariants.dade_primary_invariants.total_s", "s"),
        ("invariants.dade_accept_ratio", "ratio"),
        ("invariants.noether_separating_set.total_s", "s"),
        ("invariants.reduce_separating_set.total_s", "s"),
        ("algebraic.derksen_ideal.total_s", "s"),
        ("algebraic.algebraic_invariant_basis.total_s", "s"),
        ("algebraic.separating_variety.total_s", "s"),
        ("algebraic.invariant_field_generators.total_s", "s"),
        ("ratfunc.multivariate_gcd.calls", "count"),
        ("ratfunc.multivariate_gcd.total_s", "s"),
        ("specfile.load_spec_file.total_s", "s"),
        ("cli.main.total_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

WORKLOAD_NAMES = ("finite-groups", "separating-reduce", "groebner-systems", "algebraic-groups")

# What each per-layer metric should move and where it should (not) appear.
# A counter listed under "zero_in" must read exactly 0 there; one listed
# under "near_zero_in" is reached only by parsing the input files and must
# stay below 5% of its value on the "mostly_in" workloads.
PREDICTIONS = [
    {
        "metrics": ["fields.mul.simple_extension", "fields.inv.simple_extension"],
        "moves": "wall_s",
        "mostly_in": ["finite-groups", "separating-reduce"],
        "zero_in": ["groebner-systems", "algebraic-groups"],
    },
    {
        "metrics": ["fields.mul.rationals", "fields.mul.prime", "fields.inv.rationals", "fields.inv.prime"],
        "moves": "wall_s",
        "mostly_in": ["groebner-systems"],
        "zero_in": ["separating-reduce"],
    },
    {
        "metrics": ["fields.mul.rational_function", "fields.inv.rational_function"],
        "moves": "wall_s",
        "mostly_in": ["algebraic-groups"],
        "zero_in": ["separating-reduce"],
    },
    {
        "metrics": [
            "polynomials.mul.calls", "polynomials.mul.self_s",
            "polynomials.substitute.calls", "polynomials.substitute.self_s",
            "polynomials.apply_linear_map.calls", "polynomials.apply_linear_map.self_s",
            "linalg.rank.calls", "linalg.rank.self_s",
            "groups.apply_element.calls", "groups.reynolds.calls", "groups.reynolds.total_s",
        ],
        "moves": "wall_s",
        "mostly_in": ["finite-groups"],
        "zero_in": ["groebner-systems"],
        "near_zero_in": {"polynomials.mul.calls": ["groebner-systems"],
                         "polynomials.mul.self_s": ["groebner-systems"]},
    },
    {
        "metrics": [
            "polynomials.mono_divides.calls", "polynomials.order_key.calls",
            "groebner.normal_form.calls", "groebner.normal_form.total_s",
            "groebner.reduce_basis.calls", "groebner.reduce_basis.total_s",
            "groebner.elimination_ideal.calls", "groebner.elimination_ideal.total_s",
        ],
        "moves": "wall_s",
        "mostly_in": ["separating-reduce", "algebraic-groups"],
        "zero_in": [],
    },
    {
        "metrics": [
            "groebner.buchberger.calls", "groebner.buchberger.total_s",
            "groebner.s_pairs", "groebner.generators_added", "groebner.useful_pair_ratio",
        ],
        "moves": "wall_s",
        "mostly_in": ["groebner-systems"],
        "zero_in": [],
    },
    {
        "metrics": [
            "invariants.king_generators.total_s", "invariants.king_useful_ratio",
            "invariants.verify_noether_and_hilbert.total_s", "groebner.subalgebra_oracle.total_s",
            "invariants.verify_separation_samples.total_s", "invariants.dade_primary_invariants.total_s",
            "invariants.dade_accept_ratio", "groups.molien_series.total_s",
            "invariants.noether_separating_set.total_s",
        ],
        "moves": "wall_s",
        "mostly_in": ["finite-groups"],
        "zero_in": ["groebner-systems", "algebraic-groups"],
    },
    {
        "metrics": ["invariants.reduce_separating_set.total_s"],
        "moves": "wall_s",
        "mostly_in": ["separating-reduce"],
        "zero_in": ["finite-groups", "groebner-systems", "algebraic-groups"],
    },
    {
        "metrics": [
            "algebraic.derksen_ideal.total_s", "algebraic.algebraic_invariant_basis.total_s",
            "algebraic.separating_variety.total_s", "algebraic.invariant_field_generators.total_s",
            "ratfunc.multivariate_gcd.calls", "ratfunc.multivariate_gcd.total_s",
            "linalg.nullspace.calls", "linalg.nullspace.self_s",
        ],
        "moves": "wall_s",
        "mostly_in": ["algebraic-groups"],
        "zero_in": ["groebner-systems"],
    },
    {
        "metrics": ["specfile.load_spec_file.total_s", "groups.close_group.total_s", "linalg.matmul.calls"],
        "moves": "setup_s",
        "mostly_in": ["finite-groups"],
        "zero_in": [],
    },
    {
        # fields.self_s sums the self time of every field kind
        "metrics": ["fields.self_s", "polynomials.format.self_s", "cli.main.total_s", "trace.overhead_s"],
        "moves": "wall_s",
        "mostly_in": list(WORKLOAD_NAMES),
        "zero_in": [],
    },
]


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans and per-name call statistics for one traced pass."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # (name, start, end, parent index, job id)
        self.job = None
        # frames: [name, start, child time, span index]
        self._stack = []
        self._open = {}  # name -> nesting depth, so recursion counts once in total
        self._patched = []
        self.king_generators_found = 0
        self.king_reynolds_tried = 0
        self.s_pairs_useful = 0
        self.dade_tried = 0
        self.dade_accepted = 0

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _wrap(self, name, fn, keep_span):
        stat = self._stat(name)
        stack = self._stack
        open_names = self._open
        spans = self.spans
        hook = self._on_call if name in _HOOKED else None
        after = self._on_dade_result if name == "invariants.dade_primary_invariants" else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hook is not None:
                hook(name, parent)
            frame = [name, 0.0, 0.0, -1]
            if keep_span:
                frame[3] = len(spans)
                spans.append(None)
            depth = open_names.get(name, 0)
            open_names[name] = depth + 1
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names[name] = depth
                dur = end - start
                stat.calls += 1
                if depth == 0:
                    stat.total += dur
                stat.self_time += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if keep_span:
                    spans[frame[3]] = (
                        name, start, end,
                        parent[3] if parent is not None else -1,
                        self.job,
                    )
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _on_call(self, name, parent):
        """Count the outcomes that the ratio metrics need, by caller."""
        caller = parent[0] if parent is not None else None
        if name == "groebner.add_generator":
            if caller == "groebner.extend":
                self.s_pairs_useful += 1
            elif caller == "invariants.king_generators":
                self.king_generators_found += 1
        elif name == "groups.reynolds" and caller == "invariants.king_generators":
            self.king_reynolds_tried += 1
        elif name == "invariants.is_phsop" and caller == "invariants.dade_primary_invariants":
            self.dade_tried += 1

    def _on_dade_result(self, primaries):
        self.dade_accepted += len(primaries)

    def install(self):
        """Patch every traced name in the loaded `invar` modules."""
        for modname in {t[0] for t in TRACED}:
            importlib.import_module("invar." + modname)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "invar" or k.startswith("invar."))]
        for modname, attr, name, keep in TRACED:
            mod = sys.modules["invar." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, keep))
            else:
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original, keep)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, key, original))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def metrics(self):
        """Per-layer metric values, without trace.overhead_s."""
        get = lambda n: self.stats.get(n) or _Stat()  # noqa: E731
        s_pairs = get("groebner.s_polynomial").calls
        out = {
            "fields.self_s": sum(
                s.self_time for n, s in self.stats.items() if n.startswith(FIELD_PREFIXES)
            ),
            "groebner.s_pairs": s_pairs,
            "groebner.generators_added": get("groebner.add_generator").calls,
            "groebner.useful_pair_ratio": _ratio(self.s_pairs_useful, s_pairs),
            "invariants.king_useful_ratio": _ratio(self.king_generators_found, self.king_reynolds_tried),
            "invariants.dade_accept_ratio": _ratio(self.dade_accepted, self.dade_tried),
        }
        for metric, _unit in PER_LAYER:
            if metric in out or metric == "trace.overhead_s":
                continue
            if metric.startswith(("fields.mul.", "fields.inv.")):
                out[metric] = get(metric).calls
                continue
            base, _, what = metric.rpartition(".")
            s = get(base)
            out[metric] = {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}[what]
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def prediction_violations(by_workload):
    """Where traced per-layer metrics contradict PREDICTIONS.

    `by_workload` maps workload names to `Tracer.metrics()`; workloads
    left out are not checked.  `trace.overhead_s` needs an untraced pass
    as well and is not checked here."""
    problems = []
    for row in PREDICTIONS:
        near = row.get("near_zero_in", {})
        for metric in row["metrics"]:
            if metric == "trace.overhead_s":
                continue
            busy = [by_workload[w][metric] for w in row["mostly_in"] if w in by_workload]
            for w in row["mostly_in"]:
                if w in by_workload and not by_workload[w][metric] > 0:
                    problems.append(f"{metric} is 0 on {w}, where most of it should be")
            for w in row["zero_in"]:
                if w not in by_workload:
                    continue
                value = by_workload[w][metric]
                if w in near.get(metric, ()):
                    if busy and value > 0.05 * max(busy):
                        problems.append(f"{metric} = {value} on {w} is not below 5% of {max(busy)}")
                elif value != 0:
                    problems.append(f"{metric} = {value} on {w}, predicted 0")
    return problems
