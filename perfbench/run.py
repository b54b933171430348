"""Benchmark of the `invar` CLI: one closed-loop client, one job at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite-groups --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each job calls `invar.cli.main([..., "--json"])` in this process, with
its standard streams and Python warnings captured (a warning such as
`UnverifiedIrreducibilityWarning` for the degree-6 C7 field is recorded,
never counted as a failure).  A job fails on a nonzero exit code, an
exception, or an output that does not pass its check; a failure is
counted and never stops the run.

With `--trace 0` the run measures the set-up time in fresh interpreters,
then repeats whole passes over the workload's job list (in an order set
by the seed) while at least half of the next pass would fall within
`--seconds`, and reports end-to-end metrics: medians over the passes, and
over the interpreter starts for `setup_s`.  `wall_s`, `cpu_s` and
`setup_s` are normalised: each job's time is scaled by
`refwork.NOMINAL_S` over the mean time of a fixed reference slice taken
before, during (once a second) and after it (see `refwork.py`), which
removes most of the run-to-run spread caused by the drifting speed of a
shared host.  The raw seconds are printed too, as `raw_wall_s`,
`raw_cpu_s` and `raw_setup_s`.  With
`--trace 1` it runs one untraced pass and one traced pass and reports
the per-layer metrics of `tracing.py`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Lines before it give
every metric with its quartiles and sample count, `fail_frac`, per-job
wall times and run metadata, which are also written, with the spans of a
traced pass, under `perfbench/_work/`.  The program sees only the
generated spec and problem files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import inputs  # noqa: E402
import refwork  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_UNITS = {"raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s"}

_SETUP_CHILD = """
import sys, time, warnings
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import invar
from invar.specfile import load_spec_file
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for path in sys.argv[3:]:
        load_spec_file(path)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import refwork
print(repr(setup), repr(refwork.timed()[0]))
"""


def prepare():
    """Import `invar` from ./src, write the generated inputs, check the
    closure orders of the generated groups; return {input name: path}."""
    if not os.path.isfile(os.path.join(SRC, "invar", "__init__.py")):
        raise SystemExit(f"no invar sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import invar
    from invar.specfile import load_spec_file

    if os.path.dirname(os.path.abspath(invar.__file__)) != os.path.join(SRC, "invar"):
        raise SystemExit(f"imported invar from {invar.__file__}, not from {SRC}")
    paths = inputs.write_inputs(os.path.join(WORK, "inputs"))
    fixtures = os.path.join(SRC, "invar", "fixtures")
    for name in os.listdir(fixtures):
        if name.endswith(".json"):
            paths.setdefault(name[:-5], os.path.join(fixtures, name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, order in inputs.EXPECTED_ORDERS.items():
            got = load_spec_file(paths[name]).group.order
            if got != order:
                raise SystemExit(f"generated group {name} has order {got}, expected {order}")
    return paths


def run_job(argv):
    """Run one CLI call in-process: (exit code, stdout, stderr, warnings)."""
    from invar.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = -1
    return rc, out.getvalue(), err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def measure_setup(paths, specs):
    """Seconds, in fresh interpreters, to import invar and load every spec
    the workload uses: (raw, normalised) lists, one entry per start.  Each
    start also times a reference slice, which normalises its set-up time.
    The first start only warms the bytecode cache and is not counted."""
    cmd = [sys.executable, "-I", "-c", _SETUP_CHILD, SRC, HERE] + [paths[s] for s in specs]
    raw, norm = [], []
    for i in range(SETUP_REPEATS + 1):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if res.returncode != 0:
            raise SystemExit(f"set-up child failed:\n{res.stderr}")
        setup, ref = map(float, res.stdout.split())
        if i:
            raw.append(setup)
            norm.append(setup * refwork.NOMINAL_S / ref)
    return raw, norm


def run_pass(jobs, paths, seed, tracer=None):
    """One pass over the jobs.  The raw times sum the jobs' own times
    (without the reference slices that interrupted them); the normalised
    ones scale each job by refwork.NOMINAL_S over the mean time of the
    slices taken just before, during and just after it."""
    res = {"raw_wall_s": 0.0, "raw_cpu_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "records": []}
    pending = []  # (record, index of the last slice before it, index of the first after it)
    # no slices inside traced jobs, whose spans would count them
    with refwork.Probe(periodic=tracer is None) as probe:
        probe.sample()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job.id
            first = len(probe.slices) - 1
            spent_w, spent_c = probe.spent_wall, probe.spent_cpu
            w0, c0 = time.perf_counter(), time.process_time()
            rc, out, err, caught = run_job(wl.argv_for(job, paths, seed))
            dt = time.perf_counter() - w0 - (probe.spent_wall - spent_w)
            dc = time.process_time() - c0 - (probe.spent_cpu - spent_c)
            try:
                problem = wl.check_output(job, rc, out, seed) if rc != -1 else err.strip()
            except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
                problem = f"{type(exc).__name__}: {exc}"
            record = {"job": job.id, "wall_s": dt, "cpu_s": dc, "ok": problem is None,
                      "problem": problem, "warnings": caught}
            pending.append((record, first, len(probe.slices)))
            if i == len(jobs) - 1:
                probe.sample()
            while pending and len(probe.slices) > pending[0][2]:
                r, first, after = pending.pop(0)
                around = probe.slices[first:after + 1]
                res["raw_wall_s"] += r["wall_s"]
                res["raw_cpu_s"] += r["cpu_s"]
                res["wall_s"] += r["wall_s"] * refwork.NOMINAL_S * len(around) / sum(w for w, _ in around)
                res["cpu_s"] += r["cpu_s"] * refwork.NOMINAL_S * len(around) / sum(c for _, c in around)
                res["records"].append(r)
    res["refs"] = probe.slices
    return res


def traced_pass(jobs, paths, seed):
    """One pass with the tracer installed; returns (tracer, pass result)."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer, run_pass(jobs, paths, seed, tracer)
    finally:
        tracer.uninstall()


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def src_line_count():
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def measure(workload, seed, seconds, trace):
    paths = prepare()
    jobs = list(wl.WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    passes = []
    samples = {}
    if not trace:
        samples["raw_setup_s"], samples["setup_s"] = measure_setup(paths, wl.spec_names(workload))
        start = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, paths, seed))
            # another pass only if at least half of it would fall before the deadline
            elapsed = time.perf_counter() - start
            if elapsed + (elapsed / len(passes)) / 2 > seconds:
                break
        for name in ("raw_wall_s", "raw_cpu_s", "wall_s", "cpu_s"):
            samples[name] = [p[name] for p in passes]
        samples["refs"] = [p["refs"] for p in passes]
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        units = END_TO_END_UNITS
        metrics = {name: statistics.median(samples[name]) for name in units}
        spans = None
    else:
        from tracing import PER_LAYER

        passes.append(run_pass(jobs, paths, seed))
        tracer, traced = traced_pass(jobs, paths, seed)
        passes.append(traced)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = passes[1]["raw_wall_s"] - passes[0]["raw_wall_s"]
        units = dict(PER_LAYER)
        spans = tracer.spans
    records = [r for p in passes for r in p["records"]]
    return metrics, units, samples, records, spans


def report(workload, seed, seconds, trace):
    metrics, units, samples, records, spans = measure(workload, seed, seconds, trace)
    failed = sum(not r["ok"] for r in records)
    for name, unit in (units if trace else {**units, **RAW_UNITS}).items():
        vals = samples.get(name)
        if vals:
            q1, med, q3 = quartiles(vals)
            print(f"{workload} {name} = {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(vals)})")
        else:
            print(f"{workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{workload} fail_frac = {failed / len(records):.6g} ({failed} of {len(records)} jobs)")
    per_job = {}
    for r in records:
        per_job.setdefault(r["job"], []).append(r["wall_s"])
        if not r["ok"]:
            print(f"FAILED {r['job']}: {r['problem']}")
    for job, times in per_job.items():
        print(f"  job {job}: median {statistics.median(times):.4f} s over {len(times)}")
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "commit": git_commit(), "nproc": os.cpu_count(),
        "src_lines": src_line_count(), "samples": samples, "jobs": records,
    }
    print(f"meta: python {meta['python']}, commit {meta['commit']}, nproc {meta['nproc']}, "
          f"src lines {meta['src_lines']}")
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump([dict(zip(("name", "start", "end", "parent", "job"), s)) for s in spans], fh)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Every workload, each in its own process (so peak RSS is its own)."""
    summary = {}
    for workload in wl.WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            raise SystemExit(f"workload {workload} exited with code {res.returncode}")
        summary[workload] = json.loads(res.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        report(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
