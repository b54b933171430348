"""Byte-for-byte CLI snapshots.

`golden_cli.json` maps each case id to the recorded result of running
its argv twice: with --json (stdout, stderr, exit code) and with the
human-readable report (stdout without its wall-time line, stderr, exit
code).  The cases cover every command with default options on every
bundled fixture, the main option variants, and Groebner problem files.

Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

from invar.cli import main
from invar.specfile import fixture_path

GOLDEN = Path(__file__).with_name("golden_cli.json")

FIXTURES = [
    "c2_swap", "c2_swap_gf2", "c2_swap_variety", "cn_scalar_3", "cn_scalar_4",
    "cn_scalar_5", "d8", "gm_weights", "minus_identity", "s3_natural",
    "sl2_binary_quadratics", "trivial_2", "trivial_algebraic_2",
]
COMMANDS = {
    "generators": ["generators"],
    "generators-derksen": ["generators", "--algorithm", "derksen"],
    "separating": ["separating"],
    "analyze-molien": ["analyze", "molien"],
    "analyze-classify": ["analyze", "classify"],
    "analyze-primary": ["analyze", "primary"],
    "analyze-bounds": ["analyze", "bounds"],
    "field": ["field"],
    "derksen-ideal": ["derksen-ideal"],
    "separating-variety": ["separating-variety"],
}
VARIANTS = {
    "generators-verify-cn_scalar_4": (["generators"], "cn_scalar_4", ["--verify"]),
    "generators-monic-lex-cn_scalar_4": (["generators"], "cn_scalar_4",
                                         ["--monic", "--order", "lex"]),
    "generators-gradedlex-d8": (["generators"], "d8", ["--order", "gradedlex"]),
    "generators-derksen-verify-sl2": (["generators"], "sl2_binary_quadratics",
                                      ["--algorithm", "derksen", "--verify"]),
    "generators-derksen-verify-gm": (["generators"], "gm_weights",
                                     ["--algorithm", "derksen", "--verify"]),
    "generators-cap-d8": (["generators"], "d8", ["--cap", "5"]),
    "separating-reduce-cn_scalar_4": (["separating"], "cn_scalar_4", ["--method", "reduce"]),
    "separating-samples-c2_swap": (["separating"], "c2_swap", ["--verify-samples", "20"]),
    "separating-samples-s3": (["separating"], "s3_natural",
                              ["--verify-samples", "30", "--seed", "7"]),
    "separating-samples-d8": (["separating"], "d8", ["--verify-samples", "10", "--bound", "3"]),
    "separating-samples-gf2": (["separating"], "c2_swap_gf2", ["--verify-samples", "5"]),
    "separating-samples-bound0": (["separating"], "c2_swap",
                                  ["--verify-samples", "4", "--bound", "0"]),
    "analyze-molien-degree4-d8": (["analyze", "molien"], "d8", ["--degree", "4"]),
    "analyze-primary-seed3-s3": (["analyze", "primary"], "s3_natural", ["--seed", "3"]),
    "analyze-bounds-degrees-d8": (["analyze", "bounds"], "d8", ["--degrees", "2,4"]),
}
PROBLEMS = {
    "groebner-reduced": {"field": {"kind": "rationals"}, "variables": ["x", "y", "z"],
                         "polynomials": ["x^2 + y*z - 1", "x*y - z^2", "y^3 - x*z"]},
    "groebner-lex": {"field": {"kind": "prime", "p": 7}, "variables": ["x", "y"],
                     "polynomials": ["x^2 - y", "x*y - 1"], "order": "lex"},
    "groebner-truncated": {"field": {"kind": "rationals"}, "variables": ["x", "y"],
                           "polynomials": ["x^3 - y", "x*y - 1"], "truncate": 2},
    "groebner-eliminate": {"field": {"kind": "rationals"}, "variables": ["t", "x", "y"],
                           "polynomials": ["x - t^2", "y - t^3"], "eliminate": ["t"],
                           "order": "lex"},
    "groebner-eliminate-grevlex": {"field": {"kind": "rationals"}, "variables": ["t", "x", "y"],
                                   "polynomials": ["x - t^2", "y - t^3"], "eliminate": ["t"],
                                   "order": "grevlex"},
    "groebner-number-field": {"field": {"kind": "simple_extension", "minimal_poly": "w^2 - 2",
                                        "generator": "w"},
                              "variables": ["x", "y"], "polynomials": ["x^2 - w*y", "y^2 - 2"]},
    "groebner-empty": {"field": {"kind": "rationals"}, "variables": ["x"],
                       "polynomials": ["x", "x - 1"]},
}


CASES = {
    **{f"{label}-{name}": (command, name, []) for name in FIXTURES
       for label, command in COMMANDS.items()},
    **VARIANTS,
    **{label: (["groebner"], label, []) for label in PROBLEMS},
}


def argv_for(case, problem_dir):
    """The argv of a case: a fixture name becomes the bundled spec path,
    a problem label the path of its file in problem_dir."""
    command, name, options = CASES[case]
    if name in PROBLEMS:
        path = Path(problem_dir) / f"{name}.json"
        path.write_text(json.dumps(PROBLEMS[name]))
    else:
        path = fixture_path(name)
    return command + [str(path)] + options


def run(argv):
    """{"code", "out", "err"} of one in-process call; the human report's
    wall-time line is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(list(argv))
    lines = out.getvalue().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("wall time: "))
    return {"code": code, "out": kept, "err": err.getvalue()}


def record(argv):
    return {"json": run(argv + ["--json"]), "human": run(argv)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(tmp_path, golden, case):
    assert record(argv_for(case, tmp_path)) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        snapshots = {case: record(argv_for(case, tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n")
