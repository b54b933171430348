"""The benchmark's workloads: job lists and the check of every job's output.

A job is one `invar` CLI invocation, run in-process with `--json`.  An
argument written `@name` is the path of an input file: a generated one
from `inputs.py`, else a bundled fixture.  Jobs marked seeded also get
`--seed <run seed>`.

Outputs that do not depend on the seed are compared byte for byte with
`expected/<job id>.json`.  A seeded job is checked by properties, and a
seeded `separating` job also by its seed-independent part against the
stored seed-0 output.  Regenerate the stored outputs (only when an
output change is intended) with

    python3 perfbench/workloads.py --write-expected
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from inputs import EXPECTED_ORDERS

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# |G| of every finite group the jobs use.
GROUP_ORDERS = {
    "d8": 16, "s3_natural": 6, "cn_scalar_4": 4, "cn_scalar_5": 5, "c2_swap_gf2": 2,
    **EXPECTED_ORDERS,
}

SAMPLES = 100


class Job(NamedTuple):
    id: str
    argv: tuple
    seeded: bool = False


def _finite_groups():
    jobs = [Job(f"generators-{g}-verify", ("generators", f"@{g}", "--verify"))
            for g in ("d8", "s3_natural", "cn_scalar_4", "cn_scalar_5", "q8", "c3xc3", "c7", "d12")]
    # S4 with --verify takes minutes; its generators alone stay in budget.
    jobs.append(Job("generators-s4", ("generators", "@s4")))
    jobs += [Job(f"separating-{g}-samples", ("separating", f"@{g}", "--verify-samples", str(SAMPLES)), True)
             for g in ("d8", "s3_natural", "c2_swap_gf2", "c3xc3", "c7")]
    jobs += [Job(f"analyze-primary-{g}", ("analyze", "primary", f"@{g}"), True)
             for g in ("d8", "s3_natural", "q8", "d12")]
    jobs += [Job(f"analyze-molien-{g}", ("analyze", "molien", f"@{g}", "--degree", "10"))
             for g in ("d8", "q8", "c7", "d12")]
    jobs += [Job(f"analyze-classify-{g}", ("analyze", "classify", f"@{g}"))
             for g in ("q8", "d12", "s4")]
    return jobs


def _separating_reduce():
    return [Job("separating-reduce-cn_scalar_5", ("separating", "@cn_scalar_5", "--method", "reduce"))]


def _groebner_systems():
    return [Job(f"groebner-{p}", ("groebner", f"@{p}"))
            for p in ("cyclic5_qq", "cyclic5_gf", "katsura5_qq", "katsura5_gf", "katsura6_gf")]


def _algebraic_groups():
    jobs = [Job("derksen-ideal-sl2_cubics", ("derksen-ideal", "@sl2_cubics"))]
    jobs += [Job(f"generators-derksen-{s}-verify", ("generators", f"@{s}", "--algorithm", "derksen", "--verify"))
             for s in ("sl2_cubics", "torus_123", "torus2_5", "torus_345")]
    jobs += [Job(f"separating-variety-{s}", ("separating-variety", f"@{s}"))
             for s in ("torus_345", "sl2_binary_quadratics")]
    jobs += [Job(f"field-{s}", ("field", f"@{s}"))
             for s in ("ga_quartics", "sl2_binary_quadratics", "torus_123", "torus2_5", "torus_345")]
    return jobs


WORKLOADS = {
    "finite-groups": _finite_groups(),
    "separating-reduce": _separating_reduce(),
    "groebner-systems": _groebner_systems(),
    "algebraic-groups": _algebraic_groups(),
}


def spec_names(workload):
    """Group spec inputs of a workload (not Groebner problem files)."""
    names = []
    for job in WORKLOADS[workload]:
        if job.argv[0] == "groebner":
            continue
        for a in job.argv:
            if a.startswith("@") and a[1:] not in names:
                names.append(a[1:])
    return names


def argv_for(job, paths, seed):
    argv = [paths[a[1:]] if a.startswith("@") else a for a in job.argv]
    if job.seeded:
        argv += ["--seed", str(seed)]
    return argv + ["--json"]


def _expected_path(job):
    return os.path.join(EXPECTED_DIR, job.id + ".json")


def _group_of(job):
    return next(a[1:] for a in job.argv if a.startswith("@"))


def check_output(job, rc, stdout, seed):
    """None when the job's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if job.argv[:2] == ("analyze", "primary"):
        return _check_primary(job, stdout, seed)
    with open(_expected_path(job)) as fh:
        expected = fh.read()
    if not job.seeded:
        return None if stdout == expected else "output differs from expected"
    # seeded separating: sampled verification passed, invariants unchanged
    report = json.loads(stdout)
    ver = report["payload"].get("verification", {})
    if report.get("seed") != seed:
        return "seed not echoed"
    if not (ver.get("passed") is True and ver.get("counterexamples") == []
            and ver.get("same_orbit_checked") == SAMPLES
            and ver.get("distinct_orbit_checked") == SAMPLES):
        return "sampled separation check did not pass"
    return None if _seed_free(report) == _seed_free(json.loads(expected)) else "invariants differ"


def _seed_free(report):
    report = dict(report, payload=dict(report["payload"]))
    report.pop("seed", None)
    report["payload"].pop("verification", None)
    return report


def _check_primary(job, stdout, seed):
    report = json.loads(stdout)
    payload = report["payload"]
    order = GROUP_ORDERS[_group_of(job)]
    degrees = payload["degrees"]
    if report.get("seed") != seed or payload.get("hsop_verified") is not True:
        return "primary invariants not verified as an hsop"
    if len(degrees) != len(payload["invariants"]) or any(order % d for d in degrees):
        return f"primary degrees {degrees} are not orbit sizes dividing |G| = {order}"
    return None


def write_expected(paths):
    """Store the current `--json` output of every checked job (seed 0)."""
    from run import run_job  # noqa: PLC0415  (run.py imports this module)

    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job.argv[:2] == ("analyze", "primary"):
                continue
            rc, out, _err, _warn = run_job(argv_for(job, paths, 0))
            if rc != 0:
                raise SystemExit(f"{job.id}: exit code {rc}")
            with open(_expected_path(job), "w") as fh:
                fh.write(out)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write-expected"]:
        raise SystemExit("usage: python3 perfbench/workloads.py --write-expected")
    from run import prepare

    write_expected(prepare())
