"""Self-tests of the traced run: wrapping, determinism, predictions.

The workload tests run a traced pass of every workload (a few minutes).
"""

import sys

import pytest

import run
import tracing
import workloads as wl

SEED = 3


def _invar_modules():
    return [m for k, m in sys.modules.items() if k == "invar" or k.startswith("invar.")]


def test_wrapping_reaches_every_by_name_import():
    paths = run.prepare()
    import invar.cli  # noqa: F401  (every traced module must be loaded)

    originals = {}
    for modname, attr, _name, _keep in tracing.TRACED:
        if "." not in attr:
            originals[id(getattr(sys.modules["invar." + modname], attr))] = attr
    before = {(m.__name__, k): v for m in _invar_modules() for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = [f"{m.__name__}.{k}" for m in _invar_modules()
                for k, v in vars(m).items() if id(v) in originals]
        assert left == []
        # invariants calls reynolds and apply_element through by-name imports
        from invar.invariants import king_generators
        from invar.specfile import load_spec_file

        king_generators(load_spec_file(paths["c2_swap"]).group)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in _invar_modules() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.metrics()
    assert metrics["groups.reynolds.calls"] > 0
    assert metrics["groups.apply_element.calls"] > 0
    assert metrics["groebner.generators_added"] > 0


@pytest.fixture(scope="module")
def traced():
    paths = run.prepare()
    out = {}
    for workload, jobs in wl.WORKLOADS.items():
        tracer, traced_run = run.traced_pass(jobs, paths, SEED)
        assert [r["problem"] for r in traced_run["records"] if not r["ok"]] == []
        out[workload] = tracer.metrics()
    return out


def test_predictions_hold(traced):
    assert tracing.prediction_violations(traced) == []


def test_counts_repeat_for_the_same_seed(traced):
    paths = run.prepare()
    workload = "algebraic-groups"
    tracer, _ = run.traced_pass(wl.WORKLOADS[workload], paths, SEED)
    again = tracer.metrics()
    counts = [name for name, unit in tracing.PER_LAYER if unit in ("count", "ratio")]
    assert {n: again[n] for n in counts} == {n: traced[workload][n] for n in counts}
