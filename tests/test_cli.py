import json
import time
from pathlib import Path

import pytest

from invar import invariants
from invar.cli import build_parser, main
from invar.specfile import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_generators_king_d8(capsys):
    report = run_json(capsys, "generators", fixture_path("d8"), "--verify")
    payload = report["payload"]
    assert payload["degrees"] == [2, 8]
    assert payload["termination_degree"] == 9
    assert payload["verify"]["all_ok"]
    assert payload["generators"][1] == (
        "9/32*x1^8 + 7/8*x1^6*x2^2 + 35/16*x1^4*x2^4 + 7/8*x1^2*x2^6 + 9/32*x2^8"
    )


def test_generators_king_monic(capsys):
    report = run_json(capsys, "generators", fixture_path("d8"), "--monic")
    gens = report["payload"]["generators"]
    assert gens[0] == "x1^2 + x2^2"


def test_generators_derksen_gm(capsys):
    report = run_json(capsys, "generators", fixture_path("gm_weights"),
                      "--algorithm", "derksen", "--verify")
    payload = report["payload"]
    assert payload["generators"] == ["x1*x2"]
    assert payload["verify"]["hilbert_ideal_consistent"]


def test_separating_noether_cn4(capsys):
    report = run_json(capsys, "separating", fixture_path("cn_scalar_4"))
    payload = report["payload"]
    assert all(d <= 4 for d in payload["degrees"])
    assert payload["size"] == 5


def test_separating_reduce_cn4(capsys):
    report = run_json(capsys, "separating", fixture_path("cn_scalar_4"),
                      "--method", "reduce", "--verify-samples", "50")
    payload = report["payload"]
    assert payload["size"] <= 5
    assert payload["verification"]["passed"]


def test_separating_verified_c2(capsys):
    report = run_json(capsys, "separating", fixture_path("c2_swap"),
                      "--verify-samples", "100", "--seed", "0", "--bound", "10")
    assert report["payload"]["verification"]["passed"]
    assert report["seed"] == 0


def test_separating_counterexamples_reach_the_report_as_text(capsys, monkeypatch):
    # x1 is not invariant under the swap, so sampling must refute it
    def bad_set(group):
        return invariants.SeparatingSetResult([group.ring().variable(0)], True, "noether")

    monkeypatch.setattr(invariants, "noether_separating_set", bad_set)
    report = run_json(capsys, "separating", fixture_path("c2_swap"), "--verify-samples", "3")
    verification = report["payload"]["verification"]
    assert not verification["passed"]
    assert verification["counterexamples"] == [
        {"invariant": None, "kind": "distinct-orbit", "v": ["-6", "4"], "w": ["-6", "-1"]},
        {"invariant": "x1", "kind": "same-orbit", "v": ["4", "-6"], "w": ["-6", "4"]},
    ]


def test_analyze_molien(capsys):
    report = run_json(capsys, "analyze", "molien", fixture_path("d8"), "--degree", "8")
    assert report["payload"]["coefficients"] == ["1", "0", "1", "0", "1", "0", "1", "0", "2"]


def test_analyze_classify(capsys):
    report = run_json(capsys, "analyze", "classify", fixture_path("d8"))
    payload = report["payload"]
    assert payload["reflection_generated"]
    assert payload["cm_necessary_condition"]
    report = run_json(capsys, "analyze", "classify", fixture_path("minus_identity"))
    payload = report["payload"]
    assert not payload["reflection_generated"]
    assert payload["bireflection_generated"]


def test_analyze_primary(capsys):
    report = run_json(capsys, "analyze", "primary", fixture_path("d8"), "--seed", "0")
    assert report["payload"]["hsop_verified"]
    assert len(report["payload"]["invariants"]) == 2


def test_analyze_bounds(capsys):
    report = run_json(capsys, "analyze", "bounds", fixture_path("d8"), "--degrees", "2,8")
    payload = report["payload"]
    assert payload["symonds_bound"] == 8
    assert payload["coarse_bound"] == 30
    assert payload["noether_bound"] == 16


def test_field_command(capsys):
    report = run_json(capsys, "field", fixture_path("gm_weights"))
    assert report["payload"]["generators"] == ["x1*x2"]
    # the only bundled fixture with a nontrivial group ideal
    report = run_json(capsys, "field", fixture_path("sl2_binary_quadratics"))
    assert report["payload"]["generators"] == ["x2^2 - 4*x1*x3"]


def test_derksen_ideal_command(capsys):
    report = run_json(capsys, "derksen-ideal", fixture_path("gm_weights"))
    assert report["payload"]["generators"] == ["y1*y2 - x1*x2"]
    report = run_json(capsys, "derksen-ideal", fixture_path("trivial_algebraic_2"))
    assert set(report["payload"]["generators"]) == {"y1 - x1", "y2 - x2"}


def test_separating_variety_command(capsys):
    report = run_json(capsys, "separating-variety", fixture_path("gm_weights"))
    assert "y1*y2 - x1*x2" in report["payload"]["generators"]
    report = run_json(capsys, "separating-variety", fixture_path("sl2_binary_quadratics"))
    assert report["payload"]["generators"] == ["y2^2 - 4*y1*y3 - x2^2 + 4*x1*x3"]


def test_groebner_passthrough(capsys, tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "variables": ["x", "y"],
        "order": "lex",
        "polynomials": ["x^2 - y", "y"],
    }))
    report = run_json(capsys, "groebner", str(problem))
    assert report["payload"]["basis"] == ["y", "x^2"]
    assert report["payload"]["dimension"] == 0
    problem.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "variables": ["z", "x", "y"],
        "polynomials": ["z - x", "z - y"],
        "eliminate": ["z"],
    }))
    report = run_json(capsys, "groebner", str(problem))
    assert report["payload"]["basis"] == ["x - y"]
    problem.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "variables": ["x", "y"],
        "polynomials": ["x^3 - y", "x*y - 1"],
        "truncate": 2,
    }))
    report = run_json(capsys, "groebner", str(problem))
    assert report["payload"]["truncation_degree"] == 2
    assert not report["payload"]["reduced"]


@pytest.mark.parametrize("extra", [{}, {"truncate": 2}, {"eliminate": ["x"]}],
                         ids=["reduced", "truncated", "eliminate"])
def test_groebner_empty_list_is_the_zero_ideal(capsys, tmp_path, extra):
    problem = tmp_path / "problem.json"
    payloads = []
    for polys in ([], ["0"]):
        problem.write_text(json.dumps({"field": {"kind": "rationals"}, "variables": ["x", "y"],
                                       "polynomials": polys, **extra}))
        payloads.append(run_json(capsys, "groebner", str(problem))["payload"])
    assert payloads[0] == payloads[1]
    assert payloads[0]["basis"] == []
    if not extra:
        assert payloads[0]["dimension"] == 2


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "generators", fixture_path("c2_swap_gf2"))
    assert code == 3
    assert json.loads(err)["error"] == "ModularCase"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "generators", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"

    code, _, err = run_cli(capsys, "generators", fixture_path("d8"), "--cap", "5")
    assert code == 4
    assert json.loads(err)["error"] == "CapExceeded"

    code, _, err = run_cli(capsys, "analyze", "molien", fixture_path("c2_swap_gf2"))
    assert code == 6
    assert json.loads(err)["error"] == "PositiveCharacteristic"

    code, _, err = run_cli(capsys, "generators", str(tmp_path / "missing.json"))
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFound"

    code, out, err = run_cli(capsys, "generators", str(tmp_path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"

    # a strong pseudoprime to the bases 2 .. 37 (1287836182261 *
    # 2575672364521), which once passed as prime and then failed with a
    # traceback when inverting a multiple of its factor
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"field": {"kind": "prime", "p": 3317044064679887385961981},
                                   "variables": ["x", "y"],
                                   "polynomials": ["1287836182261*x + y", "x*y - 1"]}))
    code, out, err = run_cli(capsys, "groebner", str(problem), "--json")
    assert (code, out) == (2, "")
    (record,) = map(json.loads, err.splitlines())
    assert record["error"] == "InvalidFieldSpec" and "Traceback" not in err


@pytest.mark.parametrize("generator", [[["2"]], [["1/2"]], [["2", "1"], ["1", "1"]],
                                       [["1", "1"], ["0", "1"]], [["1", "1"], ["1", "0"]]],
                         ids=["two", "half", "integral-unit-determinant", "unipotent",
                              "golden-ratio"])
def test_infinite_order_rational_generator_exits_4_promptly(tmp_path, generator):
    # the closure would multiply ever-larger rationals up to the default cap;
    # a subprocess with a timeout turns a hang into a failure
    import subprocess
    import sys

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "finite_matrix", "field": {"kind": "rationals"},
                                "dimension": len(generator), "generators": [generator]}))
    proc = subprocess.run([sys.executable, "-m", "invar.cli", "analyze", "classify", str(spec),
                           "--json"], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (4, "")
    error = json.loads(proc.stderr)
    assert error["error"] == "CapExceeded"
    assert "infinite order" in error["message"]


_C2 = {"kind": "finite_matrix", "field": {"kind": "rationals"}, "dimension": 2,
       "generators": [[["0", "1"], ["1", "0"]]]}
_PROBLEM = {"field": {"kind": "rationals"}, "variables": ["x"], "polynomials": ["x"]}
_GM = json.loads(Path(fixture_path("gm_weights")).read_text())


@pytest.mark.parametrize("command,document", [
    ("generators", [_C2]),
    ("generators", {**_C2, "field": {"kind": "prime", "p": "x"}}),
    ("generators", {k: v for k, v in _C2.items() if k != "dimension"}),
    ("groebner", {k: v for k, v in _PROBLEM.items() if k != "polynomials"}),
    ("groebner", [_PROBLEM]),
    ("generators", {**_C2, "field": "rationals"}),
    ("generators", {**_C2, "generators": [[[0, 1], [1, 0]]]}),
    ("groebner", {**_PROBLEM, "polynomials": [3]}),
    ("groebner", {**_PROBLEM, "eliminate": ["x"], "truncate": 2}),
    ("groebner", {**_PROBLEM, "eliminate": ["x"], "order": "gradedlex"}),
    ("generators", {**_C2, "field": {"kind": "simple_extension", "generator": "w",
                                     "minimal_poly": [-2, 0, 1]}}),
    ("groebner", {**_PROBLEM, "truncate": "2"}),
    ("groebner", {**_PROBLEM, "truncate": 2.5}),
    ("groebner", {**_PROBLEM, "truncate": -1}),
    ("groebner", {**_PROBLEM, "truncate": True}),
    ("generators", {**_C2, "field": {"kind": "prime", "p": 2.9}}),
    ("generators", {**_C2, "field": {"kind": "prime", "p": True}}),
    # a string where a list of strings belongs is not split into characters
    ("groebner", {**_PROBLEM, "variables": "xy"}),
    ("groebner", {**_PROBLEM, "polynomials": "x"}),
    ("groebner", {**_PROBLEM, "eliminate": "x"}),
    ("field", {**_GM, "group_vars": "z1"}),
    ("field", {**_GM, "ideal_gens": "z1*z2 - 1"}),
    # JSON scalars of the wrong type are refused, not coerced
    ("generators", {**_C2, "dimension": 2.9}),
    ("generators", {**_C2, "dimension": True}),
    ("generators", {**_C2, "dimension": "2"}),
    ("field", {**_GM, "dimension": 2.0}),
    ("field", {**_GM, "linear_reductive": "false"}),
    ("field", {**_GM, "linear_reductive": 1}),
    # group variables may not repeat or take a coordinate's name
    ("field", {**_GM, "group_vars": ["t", "t"], "ideal_gens": ["t*t - 1"],
               "action_matrix": [["t", "0"], ["0", "t"]]}),
    ("field", {**_GM, "group_vars": ["x1", "y1"], "ideal_gens": ["x1*y1 - 1"],
               "action_matrix": [["x1", "0"], ["0", "y1"]]}),
    # a field generator may not share a name with a variable: every use would be ambiguous
    ("groebner", {**_PROBLEM, "field": {"kind": "simple_extension", "generator": "x",
                                        "minimal_poly": "x^2 - 2"}}),
    ("field", {**_GM, "field": {"kind": "simple_extension", "generator": "z1",
                                "minimal_poly": "z1^2 - 2"}}),
    # nor with a coordinate, in whose ring the results are printed
    ("generators", {**_C2, "field": {"kind": "simple_extension", "generator": "x1",
                                     "minimal_poly": "x1^2 - 2"},
                    "generators": [[["0", "x1"], ["x1/2", "0"]]]}),
    ("derksen-ideal", {**_GM, "field": {"kind": "simple_extension", "generator": "y1",
                                        "minimal_poly": "y1^2 - 2"},
                       "group_vars": ["t"], "ideal_gens": ["t*y1 - 1"],
                       "action_matrix": [["t", "0"], ["0", "t"]]}),
    # text nested past the parser's recursion depth
    ("groebner", {**_PROBLEM, "polynomials": ["(" * 400 + "x" + ")" * 400]}),
    ("generators", {**_C2, "generators": [[["-" * 2000 + "1", "0"], ["0", "1"]]]}),
    # JSON nested past the decoder's recursion depth, written as text
    ("generators", '{"kind": ' + "[" * 100000 + "]" * 100000 + "}"),
], ids=["top-level-list", "prime-not-int", "no-dimension", "no-polynomials",
        "groebner-list", "field-not-object", "entry-a-number", "polynomial-a-number",
        "eliminate-truncate", "eliminate-gradedlex", "minimal-poly-a-list",
        "truncate-a-string", "truncate-a-float", "truncate-negative", "truncate-a-bool",
        "prime-a-float", "prime-a-bool", "variables-a-string", "polynomials-a-string",
        "eliminate-a-string", "group-vars-a-string", "ideal-gens-a-string",
        "dimension-a-float", "dimension-a-bool", "dimension-a-string",
        "algebraic-dimension-a-float", "linear-reductive-a-string",
        "linear-reductive-a-number", "group-vars-repeated", "group-vars-name-coordinates",
        "generator-names-a-variable", "group-vars-name-the-generator",
        "generator-names-a-coordinate", "generator-names-a-graph-coordinate",
        "nested-parentheses", "leading-minus-signs", "nested-brackets"])
def test_malformed_input_is_a_parse_error(capsys, tmp_path, command, document):
    spec = tmp_path / "spec.json"
    spec.write_text(document if isinstance(document, str) else json.dumps(document))
    code, out, err = run_cli(capsys, command, str(spec), "--json")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("document", [
    {**_PROBLEM, "polynomials": ["(x + 1)^40000"]},
    {**_PROBLEM, "polynomials": ["(x^2)^16384"]},
    {**_PROBLEM, "field": {"kind": "simple_extension", "minimal_poly": "w^40000 - 2",
                           "generator": "w"}},
], ids=["linear-base", "quadratic-base", "minimal-poly"])
def test_power_past_the_packing_bound_exits_4_before_expanding(capsys, tmp_path, document):
    # expanding (x + 1)^40000 would take hours before Groebner refused its degree
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(document))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "groebner", str(problem), "--json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "CapExceeded"


@pytest.mark.parametrize("degree", [65, 400])
def test_minimal_polynomial_past_the_degree_bound_exits_4(capsys, tmp_path, degree):
    # building Q[w]/(w^400 - 2) took seconds before the degree bound
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({**_PROBLEM, "field": {
        "kind": "simple_extension", "minimal_poly": f"w^{degree} - 2", "generator": "w"}}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "groebner", str(problem), "--json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "CapExceeded" and "degree" in error["message"]


@pytest.mark.parametrize("minimal_poly,generator,code,record", [
    ("w^32767 - 2", "w", 4, {"error": "CapExceeded",
                             "message": "minimal polynomial of degree 32767 exceeds the bound 64"}),
    ("(w+1)^300 - 2", "w", 4, {"error": "CapExceeded",
                               "message": "minimal polynomial of degree 300 exceeds the bound 64"}),
    ("w^40000 - 2", "w", 4, {"error": "CapExceeded",
                             "message": "power of degree 40000 reaches the bound 32768"}),
    ("w^2/w", "w", 2, {"error": "ParseError", "message": "division by nonconstant polynomial"}),
    ("w^2/(w-w)", "w", 2, {"error": "ParseError", "message": "division by zero"}),
    ("3", "w", 2, {"error": "InvalidFieldSpec",
                   "message": "minimal polynomial must have degree >= 2"}),
    (["w^2"], "w", 2, {"error": "ParseError",
                       "message": "expected an expression string, got list ['w^2']"}),
    ("w^2 - 2", 5, 2, {"error": "InvalidFieldSpec", "message": "bad generator name 5"}),
    ("w^2 - 2", "1w", 2, {"error": "InvalidFieldSpec", "message": "bad generator name '1w'"}),
    ("w^2 - 2", "", 2, {"error": "InvalidFieldSpec", "message": "bad generator name ''"}),
], ids=["degree-32767", "binomial-power-300", "past-the-power-bound", "nonconstant-divisor",
        "zero-divisor", "a-constant", "a-list", "generator-a-number",
        "generator-not-an-identifier", "generator-empty"])
def test_malformed_minimal_polynomials_fail_fast(capsys, tmp_path, minimal_poly, generator,
                                                 code, record):
    # expanding w^32767 by repeated products took 38 s before the field refused its degree
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({**_PROBLEM, "field": {
        "kind": "simple_extension", "minimal_poly": minimal_poly, "generator": generator}}))
    start = time.perf_counter()
    result = run_cli(capsys, "groebner", str(problem), "--json")
    assert time.perf_counter() - start < 1
    assert result == (code, "", json.dumps(record, sort_keys=True) + "\n")


@pytest.mark.parametrize("argv", [
    ("analyze", "bounds", fixture_path("d8"), "--degrees", "2,x"),
    ("analyze", "bounds", fixture_path("d8"), "--degrees", ",,"),
    ("analyze", "bounds", fixture_path("d8"), "--degrees", "0,-3"),
    ("analyze", "bounds", fixture_path("d8"), "--degrees", "2"),
    ("separating", fixture_path("c2_swap"), "--verify-samples", "3", "--bound", "-1"),
    ("separating", fixture_path("c2_swap"), "--verify-samples", "-3"),
    ("analyze", "molien", fixture_path("d8"), "--degree", "-2"),
    ("generators", fixture_path("d8"), "--cap", "-5"),
    ("generators", fixture_path("d8"), "--cap", "0"),
], ids=["degrees-not-int", "degrees-empty", "degrees-nonpositive", "degrees-wrong-count",
        "negative-bound", "negative-samples",
        "negative-degree", "negative-cap", "zero-cap"])
def test_malformed_argument_is_a_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("options", [("--monic",), ("--order", "lex"), ("--order", "gradedlex")],
                         ids=["monic", "lex", "gradedlex"])
def test_derksen_generators_reject_king_only_options(capsys, options):
    # Derksen's generators come in grevlex and unscaled, so these options
    # would be ignored without a word
    argv = ("generators", fixture_path("sl2_binary_quadratics"), "--algorithm", "derksen")
    code, out, err = run_cli(capsys, *argv, *options, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"
    assert run_cli(capsys, *argv, "--order", "grevlex", "--json")[0] == 0


def test_failed_internal_check_exits_6(capsys, monkeypatch):
    # must fail loudly under python -O too, instead of printing a result
    with monkeypatch.context() as patch:
        patch.setattr(invariants, "elimination_ideal", lambda gens, eliminate: [])
        code, out, err = run_cli(capsys, "separating", fixture_path("s3_natural"),
                                 "--method", "reduce", "--json")
    assert (code, out) == (6, "")
    assert json.loads(err)["error"] == "VerificationFailed"
    # a rejected hsop test is never reported as hsop_verified
    monkeypatch.setattr(invariants, "is_phsop", lambda polys: False)
    code, out, err = run_cli(capsys, "analyze", "primary", fixture_path("c2_swap"), "--json")
    assert (code, out) == (6, "")
    assert json.loads(err)["error"] == "RetryLimitExceeded"


def test_one_argument_parser_serves_every_call(capsys):
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    for case, argv in [("analyze-molien-d8", ["analyze", "molien", fixture_path("d8")]),
                       ("generators-c2_swap", ["generators", fixture_path("c2_swap")]),
                       ("analyze-molien-d8", ["analyze", "molien", fixture_path("d8")])]:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert {"code": code, "out": out, "err": err} == golden[case]["json"]
    assert build_parser() is build_parser()


def test_wall_time_only_in_human_output(capsys):
    code, out, _ = run_cli(capsys, "field", fixture_path("gm_weights"))
    assert code == 0
    assert "wall time" in out
    report = run_json(capsys, "field", fixture_path("gm_weights"))
    assert "wall" not in json.dumps(report)


def test_json_determinism_across_processes():
    # different interpreter launches with different hash seeds must agree
    import os
    import subprocess
    import sys

    argv = [sys.executable, "-m", "invar.cli", "separating", fixture_path("s3_natural"),
            "--verify-samples", "30", "--json"]
    outputs = []
    for seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_warnings_are_json_lines_on_stderr(tmp_path):
    # a reducible minimal polynomial warns; stderr names no source location
    import subprocess
    import sys

    spec = tmp_path / "c2_swap_w2m1.json"
    spec.write_text(json.dumps({
        "kind": "finite_matrix", "dimension": 2, "generators": [[["0", "1"], ["1", "0"]]],
        "field": {"kind": "simple_extension", "minimal_poly": "w^2 - 1", "generator": "w"},
    }))
    proc = subprocess.run([sys.executable, "-m", "invar.cli", "analyze", "molien", str(spec),
                           "--degree", "3", "--json"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["warnings"] == []
    assert proc.stderr.splitlines() == [json.dumps({
        "message": "minimal polynomial has a rational root; the quotient is not a field",
        "warning": "ReducibleMinimalPolynomialWarning",
    })]
    assert ".py:" not in proc.stderr


def test_json_determinism(capsys):
    battery = [
        ("generators", fixture_path("d8")),
        ("separating", fixture_path("c2_swap"), "--verify-samples", "20"),
        ("analyze", "molien", fixture_path("s3_natural"), "--degree", "6"),
        ("analyze", "primary", fixture_path("c2_swap"), "--seed", "3"),
        ("field", fixture_path("gm_weights")),
    ]
    for argv in battery:
        first = run_cli(capsys, *argv, "--json")
        second = run_cli(capsys, *argv, "--json")
        assert first == second
