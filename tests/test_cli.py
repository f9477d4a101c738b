import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from occ.cli import MAX_VARIABLES, main
from occ.exprs import ExprError, evaluate
from occ.fgl import make_law


def write_task(tmp_path, obj, name="task.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj, indent=1))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- run: the worked examples ---------------------------------------------------------


def test_run_multiplicative_coefficient(tmp_path, capsys):
    task = {
        "law": "multiplicative",
        "truncation": 6,
        "actions": [{"op": "coefficient", "i": 1, "j": 1}],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    assert out == "-1\n"


def test_run_additive_p1_pushforward(tmp_path, capsys):
    task = {
        "law": "additive",
        "truncation": 6,
        "variables": ["u"],
        "bundles": {"E": ["u", "0"]},
        "actions": [{"op": "pushforward", "bundle": "E", "element": "1"}],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    assert out == "0\n"


def test_run_broken_custom_law_fails_axioms(tmp_path, capsys):
    task = {
        "law": {"coefficients": {"1,0": "1", "0,1": "1", "1,1": "1", "2,1": "1/2"}},
        "truncation": 5,
        "actions": [{"op": "check-axioms"}],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 1
    assert "FAIL" in out
    # the report names the first offending coefficient
    assert "x" in out and "y" in out


def test_run_valid_custom_law_passes(tmp_path, capsys):
    task = {
        "law": {"coefficients": {"1,0": "1", "0,1": "1", "1,1": "-1"}},
        "truncation": 5,
        "actions": [{"op": "check-axioms"}, {"op": "coefficient", "i": 1, "j": 1}],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    assert "-1" in out.splitlines()[-1]


def test_run_json_output_schema(tmp_path, capsys):
    task = {
        "law": "multiplicative",
        "truncation": 5,
        "variables": ["u"],
        "output": "json",
        "actions": [
            {"op": "expr", "expr": "u^2 - 2*u"},
            {"op": "check-axioms"},
        ],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    first, second = payload["results"]
    assert first["op"] == "expr"
    terms = first["series"]["terms"]
    assert {"monomial": {"u": 1}, "coeff": "-2"} in terms
    assert {"monomial": {"u": 2}, "coeff": "1"} in terms
    assert all(isinstance(t["coeff"], str) for t in terms)
    rep = second["report"]
    assert rep["passed"] is True
    assert all(set(i) >= {"item", "expected", "actual", "pass"} for i in rep["items"])


def test_run_chern_and_euler_actions(tmp_path, capsys):
    task = {
        "law": "additive",
        "truncation": 6,
        "variables": ["a", "b"],
        "bundles": {"E": ["a", "b"]},
        "actions": [
            {"op": "chern", "bundle": "E", "k": 2},
            {"op": "euler", "bundle": "E"},
            {"op": "total-chern", "bundle": "E"},
            {"op": "reduce", "bundle": "E", "element": "t^3"},
        ],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == lines[1] == "a*b"
    assert "a*b" in lines[2] and "1" in lines[2]


def test_run_inverse_and_n_series(tmp_path, capsys):
    task = {
        "law": "multiplicative",
        "truncation": 4,
        "actions": [{"op": "inverse"}, {"op": "n-series", "k": 2}],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    inverse, two_series = out.splitlines()
    # iota(x) = -x - x^2 - x^3 - ...; [2](x) = 2x - x^2
    assert inverse.replace(" ", "") == "-x-x^2-x^3-x^4"
    assert two_series.replace(" ", "") == "2*x-x^2"


@pytest.mark.parametrize(
    "coefficients",
    [
        {"1,0": "1", "0,1": "1", "2,0": "1"},  # x + y + x^2
        {"1,1": "1"},  # xy
        {"0,0": "1", "1,0": "1", "0,1": "1"},  # 1 + x + y
    ],
)
def test_run_non_group_law_has_one_message(tmp_path, capsys, coefficients):
    task = {
        "law": {"coefficients": coefficients},
        "truncation": 4,
        "actions": [{"op": "n-series", "k": 2}],
    }
    code, _, err = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 1
    assert "law has no logarithm at this truncation" in err


# -- run: validation and error handling ------------------------------------------------


def test_run_malformed_json_reports_position(tmp_path, capsys):
    path = write_task(tmp_path, '{"law": "additive",\n  "actions": [}\n')
    code, _, err = run_cli(capsys, ["run", path])
    assert code == 2
    assert "task parse error at line 2" in err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"truncation": ' + "7" * 5000 + ', "actions": []}', id="5000-digits"),
        pytest.param("[" * 100000, id="deep-nesting"),
    ],
)
def test_run_undecodable_json_is_usage_error(tmp_path, capsys, text):
    code, _, err = run_cli(capsys, ["run", write_task(tmp_path, text)])
    assert code == 2
    assert "task parse error" in err


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, ["run", "/no/such/task.json"])
    assert code == 2
    assert "cannot read task file" in err


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"actions": []}, "non-empty"),
        ({"actions": [{"op": "fly"}]}, "unknown op"),
        ({"actions": [{"op": "chern", "bundle": "E"}]}, "missing field"),
        ({"actions": [{"op": "euler", "bundle": "X"}]}, "unknown bundle"),
        ({"variables": ["t"]}, "bad variable name"),
        ({"variables": ["u", "u"]}, "distinct"),
        ({"truncation": 0}, "truncation"),
        ({"law": "elliptic"}, "unknown law"),
        ({"output": "yaml"}, "output"),
        ({"law": {"coefficients": {"a,b": "1"}}}, "bad law coefficient"),
        ({"bundles": {"E": []}}, "root expressions"),
        ({"actions": [{"op": "n-series", "k": "abc"}]}, "must be an integer"),
        ({"actions": [{"op": "n-series", "k": [1]}]}, "must be an integer"),
        ({"actions": [{"op": "chern", "bundle": "E", "k": 2.5}]}, "must be an integer"),
        ({"actions": [{"op": "coefficient", "i": "1", "j": 1}]}, "must be an integer"),
        ({"truncation": True}, "truncation"),
        ({"truncation": 11}, "truncation"),
        ({"bundles": {"E": ["u", "0", "u", "0", "u"]}}, "more than 4"),
        ({"law": "universal", "variables": ["m1"]}, "coefficient of the universal law"),
        ({"variables": [["u"]]}, "bad variable name"),
        ({"actions": [{"op": ["chern"]}]}, "unknown op"),
        ({"actions": [{"op": "euler", "bundle": ["E"]}]}, "must be a string"),
        ({"actions": [{"op": "expr", "expr": 5}]}, "must be a string"),
        ({"actions": [{"op": "n-series", "k": 10**300}]}, "more than 300 digits"),
        ({"actions": [{"op": "n-series", "k": -(10**300)}]}, "more than 300 digits"),
        ({"actions": [{"op": "chern", "bundle": "E", "k": 10**300}]}, "more than 300 digits"),
        ({"law": {"coefficients": {"1,1": "1/1" + "0" * 100}}}, "more than 100 digits"),
        ({"law": {"coefficients": {"1,1": "-1" + "0" * 100}}}, "more than 100 digits"),
        ({"law": {"coefficients": {"1,1": "1e999999999"}}}, "bad law coefficient"),
        ({"law": {"coefficients": {"1,1": "1e1_000"}}}, "bad law coefficient"),
        ({"law": {"coefficients": {"1,1": "1e999"}}}, "more than 100 digits"),
        ({"law": {"coefficients": {"1,1": "1e-101"}}}, "more than 100 digits"),
        ({"variables": [f"v{i}" for i in range(MAX_VARIABLES + 1)]}, "variables, more than"),
        ({"actions": [{"op": "chern", "bundle": "E", "k": -1}]}, "Chern index must be non-negative"),
    ],
)
def test_run_validation_failures(tmp_path, capsys, mutation, message):
    task = {
        "law": "additive",
        "truncation": 5,
        "variables": ["u"],
        "bundles": {"E": ["u"]},
        "actions": [{"op": "chern", "bundle": "E", "k": 1}],
    }
    task.update(mutation)
    code, _, err = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 2
    assert message in err


def test_run_bad_expression_positions(tmp_path, capsys):
    task = {
        "law": "additive",
        "truncation": 5,
        "variables": ["u"],
        "actions": [{"op": "expr", "expr": "u + (2*"}],
    }
    code, _, err = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 2
    assert "action 1 (expr)" in err
    assert "position" in err


def test_run_computation_error_exits_one(tmp_path, capsys):
    # a custom law cannot drive the rank-2 residue machinery
    task = {
        "law": {"coefficients": {"1,0": "1", "0,1": "1", "1,1": "-1"}},
        "truncation": 5,
        "variables": ["u"],
        "bundles": {"E": ["u", "0"]},
        "actions": [{"op": "pushforward", "bundle": "E", "element": "1"}],
    }
    code, _, err = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 1
    assert "action 1 (pushforward)" in err


def test_custom_law_reduces_but_cannot_push_forward_at_rank_two(tmp_path, capsys):
    # a rank >= 2 pushforward needs the law at a higher truncation, which a
    # custom law cannot give; reduce needs only the relation
    task = {
        "law": {"coefficients": {"1,0": "1", "0,1": "1", "1,1": "-1"}},
        "truncation": 4,
        "variables": ["u"],
        "bundles": {"E": ["u", "0"]},
        "actions": [{"op": "pushforward", "bundle": "E", "element": "1"}],
    }
    code, out, err = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert (code, out) == (1, "")
    assert err == (
        "error: action 1 (pushforward): cannot change the truncation of a custom law\n"
    )
    task["actions"] = [{"op": "reduce", "bundle": "E", "element": "t^3"}]
    assert run_cli(capsys, ["run", write_task(tmp_path, task)]) == (0, "u^2*t + 2*u^3*t\n", "")
    task["law"] = "multiplicative"
    assert run_cli(capsys, ["run", write_task(tmp_path, task)]) == (0, "u^2*t + 2*u^3*t\n", "")


# -- argparse level ---------------------------------------------------------------------


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pbf", "--trunc", "0"],
        ["check", "grr", "--trunc", "0"],
        ["cf", "--trunc", "0"],
        ["fglcheck", "--trunc", "-1"],
        ["tower", "--depth", "2", "--trunc", "0"],
        ["pbf", "--trunc", "0", "--roots", "u", "--element", "t", "--action", "reduce"],
        ["chi", "0", "3"],
        ["grr", "1", "3"],
        ["tower", "--depth", "-1"],
        ["tower", "--depth", "two"],
        ["check", "cf", "--trunc", "11"],
        ["cf", "--trunc", "11"],
        ["fglcheck", "--trunc", "11"],
        ["tower", "--depth", "2", "--trunc", "11"],
        ["tower", "--depth", "12"],
        ["pbf", "--trunc", "11", "--roots", "u", "--element", "t", "--action", "reduce"],
        ["chi", "11", "3"],
        ["grr", "11", "3"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("cmd", ["chi", "grr"])
def test_k_of_chi_and_grr_has_at_most_300_digits(cmd, capsys):
    # a 2000-digit k makes a result too long for Python to print, so it is
    # refused before any work; 300 digits still run
    with pytest.raises(SystemExit) as exc:
        main([cmd, "4", "7" * 2000])
    assert exc.value.code == 2
    assert "argument k: must have at most 300 digits" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, [cmd, "4", "-" + "9" * 300])
    assert code == 0 and "PASS" in out


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "everything"])
    assert exc.value.code == 2


# -- one-shot commands --------------------------------------------------------------------


def test_chi_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["chi", "3", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    item = payload["items"][0]
    assert item["expected"] == "6"
    assert item["actual"] == "6"
    assert item["pass"] is True


def test_grr_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, ["grr", "2", "3"])
    assert code == 0
    assert "OK (3/3 passed)" in out


def test_huge_k_n_series_and_grr_finish(tmp_path, capsys):
    k = 3000000
    task = {"law": "universal", "truncation": 4, "output": "json",
            "actions": [{"op": "n-series", "k": k}]}
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    terms = json.loads(out)["results"][0]["series"]["terms"]
    # m_i = 0 specializes to the additive law, [k](x) = k x; m_i = 1/(i+1)
    # to the multiplicative one, [k](x) = 1 - (1 - x)^k
    for value, want in (
        (lambda i: 0, {1: k}),
        (lambda i: Fraction(1, i + 1), {j: (-1) ** (j + 1) * comb(k, j) for j in range(1, 5)}),
    ):
        got = {}
        for term in terms:
            mono = dict(term["monomial"])
            c = Fraction(term["coeff"])
            for i in range(1, 4):
                c *= value(i) ** mono.get(f"m{i}", 0)
            got[mono["x"]] = got.get(mono["x"], 0) + c
        assert {e: c for e, c in got.items() if c} == want
    code, out, _ = run_cli(capsys, ["grr", "2", "100000"])
    assert code == 0
    assert "pushforward 100001, oracle 100001" in out
    assert "OK (3/3 passed)" in out


@pytest.mark.parametrize(
    "value, expected",
    [("1e3", "1000"), ("1E-05", "1/100000"), (0.00001, "1/100000"), (1e16, "10000000000000000"),
     ("2.5e-3", "1/400"), ("1_000", "1000"), (" -0.25 ", "-1/4")],
)
def test_law_coefficient_forms(tmp_path, capsys, value, expected):
    # every form Fraction reads, exponents included; JSON floats arrive as
    # their Python text, which for 0.00001 and 1e16 has an exponent
    task = {
        "law": {"coefficients": {"1,0": "1", "0,1": "1", "1,1": value}},
        "truncation": 3,
        "actions": [{"op": "coefficient", "i": 1, "j": 1}],
    }
    code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    assert out == expected + "\n"


def test_largest_numbers_allowed_print(tmp_path, capsys):
    # the worst case at the limits: a 100-digit coefficient of x + y + c*x*y
    # and a 300-digit k at N = 10; [k](x) = ((1 + c x)^k - 1)/c, so its x^10
    # coefficient is binomial(k, 10) c^9, of about 3900 digits
    c = Fraction(-(10**100 - 1), 10**100 - 3)
    k = 10**300 - 1
    law = {"coefficients": {"1,0": "1", "0,1": "1", "1,1": str(c)}}
    for n in (k, -k):
        task = {"law": law, "truncation": 10, "output": "json",
                "actions": [{"op": "inverse"}, {"op": "n-series", "k": n}]}
        code, out, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
        assert code == 0
        inverse, nseries = (r["series"]["terms"] for r in json.loads(out)["results"])
        top = {t["monomial"]["x"]: Fraction(t["coeff"]) for t in nseries}[10]
        assert top == Fraction(comb(n, 10) if n > 0 else comb(-n + 9, 10), 1) * c**9
        assert Fraction(inverse[-1]["coeff"]) == -((-c) ** 9)


def test_chern_classes_too_long_to_print_fail_their_action(tmp_path, capsys):
    # every root number has 300 digits, but the Chern classes of four roots
    # u/q1 + ... + u^7/q7 over 28 different q take their lcm: above Python's
    # limit for turning an int into text
    rng = random.Random(12)
    qs = [rng.randrange(10**299, 10**300) for _ in range(28)]
    roots = [" + ".join(f"u^{k}/{qs[7 * r + k - 1]}" for k in range(1, 8)) for r in range(4)]
    for op, extra in (("chern", {"k": 4}), ("euler", {}), ("total-chern", {})):
        for output in ("text", "json"):
            task = {"law": "additive", "truncation": 10, "variables": ["u"], "output": output,
                    "bundles": {"E": roots},
                    "actions": [{"op": "chern", "bundle": "E", "k": 1},
                                {"op": op, "bundle": "E", **extra}]}
            code, out, err = run_cli(capsys, ["run", write_task(tmp_path, task)])
            assert (code, out) == (1, "")
            assert err.startswith(f"error: action 2 ({op}): ") and err.count("\n") == 1
    # the pushforward of t^4 on the same bundle prints
    task["actions"] = [{"op": "pushforward", "bundle": "E", "element": "t^4"}]
    assert run_cli(capsys, ["run", write_task(tmp_path, task)])[0] == 0


def test_fglcheck_additive(capsys):
    code, out, _ = run_cli(capsys, ["fglcheck", "--law", "additive", "--trunc", "4"])
    assert code == 0
    assert out.startswith("== geometric-fgl[additive, N=4] ==")


def test_tower_text_and_json(capsys):
    code, out, _ = run_cli(
        capsys, ["tower", "--law", "multiplicative", "--depth", "3", "--trunc", "5"]
    )
    assert code == 0
    assert out.splitlines() == ["P0: 1", "P1: 1", "P2: 1", "P3: 1"]
    code, out, _ = run_cli(
        capsys,
        ["tower", "--law", "additive", "--depth", "2", "--trunc", "5", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"][0]["terms"] == [{"monomial": {}, "coeff": "1"}]
    assert payload["classes"][1]["terms"] == []


def test_pbf_reduce_and_pushforward(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pbf", "--law", "additive", "--roots", "u, 0", "--element", "1",
         "--action", "pushforward"],
    )
    assert code == 0
    assert out == "0\n"
    code, out, _ = run_cli(
        capsys,
        ["pbf", "--law", "additive", "--roots", "u, 0", "--element", "t^2",
         "--action", "reduce"],
    )
    assert code == 0
    assert out.replace(" ", "") == "-u*t\n"


def test_pbf_pushforward_keeps_top_weight(capsys):
    # t-degree >= rank: the weight-N term must survive
    code, out, _ = run_cli(
        capsys,
        ["pbf", "--law", "multiplicative", "--trunc", "4", "--roots", "2*v - v^2, 0",
         "--element", "t^2", "--action", "pushforward"],
    )
    assert code == 0
    assert out == "-2*v - 3*v^2 - 4*v^3 - 5*v^4\n"


def test_pbf_law_combinations_in_roots(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pbf", "--law", "multiplicative", "--trunc", "5",
         "--roots", "F(u1,u2), inv(u1), 0", "--element", "t^2",
         "--action", "pushforward"],
    )
    assert code == 0
    assert out.strip() != ""


def test_pbf_bad_element_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["pbf", "--law", "additive", "--roots", "u", "--element", "t +",
         "--action", "reduce"],
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("law", ["additive", "multiplicative", "universal"])
@pytest.mark.parametrize("action", ["reduce", "pushforward"])
def test_pbf_is_a_one_action_run(tmp_path, capsys, law, action):
    roots, element = "F(u,v), inv(u)", "t^3 - 2*u*t + v"
    argv = ["pbf", "--law", law, "--trunc", "4", "--roots", roots, "--element", element,
            "--action", action]
    task = {
        "law": law,
        "truncation": 4,
        "variables": ["u", "v"],
        "bundles": {"E": ["F(u,v)", "inv(u)"]},
        "actions": [{"op": action, "bundle": "E", "element": element}],
    }
    code, pbf_text, _ = run_cli(capsys, argv)
    assert code == 0
    code, run_text, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    assert pbf_text == run_text
    code, pbf_json, _ = run_cli(capsys, argv + ["--json"])
    assert code == 0
    task["output"] = "json"
    code, run_json, _ = run_cli(capsys, ["run", write_task(tmp_path, task)])
    assert code == 0
    assert json.loads(pbf_json) == json.loads(run_json)["results"][0]["series"]


TOO_MANY = [f"v{i}" for i in range(MAX_VARIABLES + 1)]  # one name too many


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--law", "universal", "--roots", "m1"], "coefficient of the universal law"),
        (["--roots", "u", "--vars", "u,u"], "distinct"),
        (["--roots", "u, v, u, v, u"], "more than 4"),
        pytest.param(["--roots", "u", "--element", "1" * 5000], "position 1", id="literal"),
        pytest.param(["--roots", "u", "--element", "(" * 3000 + "t" + ")" * 3000],
                     "position 51", id="parentheses"),
        (["--roots", "u", "--element", "2^1000000"], "position 3"),
        (["--roots", "v0", "--vars", ",".join(TOO_MANY)], "variables, more than"),
        (["--roots", "v0", "--element", "t*(" + "+".join(TOO_MANY) + ")"], "variables, more than"),
    ],
)
def test_pbf_bad_input_is_usage_error(capsys, extra, message):
    argv = ["pbf", "--element", "t", "--action", "reduce"] + extra
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert message in err


def test_check_small_suite_passes(capsys):
    code, out, _ = run_cli(capsys, ["check", "fgl-axioms", "--trunc", "4"])
    assert code == 0
    assert "OK" in out


@pytest.mark.parametrize("trunc", ["1", "2"])
def test_check_pbf_with_ranks_above_truncation_passes(capsys, trunc):
    # the rank-3 (and at N = 1 the rank-2) relation and Euler class are both zero
    code, out, _ = run_cli(capsys, ["check", "pbf", "--trunc", trunc])
    assert code == 0
    assert "FAIL" not in out


def test_reports_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["check", "pbf", "--trunc", "4", "--json"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["grr", "2", "1", "--json"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# -- the expression language --------------------------------------------------------------


@pytest.fixture
def expr_setting():
    law = make_law("multiplicative", 6)
    ctx = law.geometry_context(["x", "y"])
    env = {"x": ctx.var("x"), "y": ctx.var("y")}
    return law, ctx, env


def test_expr_precedence(expr_setting):
    law, ctx, env = expr_setting
    x, y = env["x"], env["y"]
    assert (evaluate("x + 2*y^2", env, law, ctx) - (x + 2 * y * y)).is_zero
    assert (evaluate("-x^2", env, law, ctx) + x * x).is_zero
    assert (evaluate("2^3", env, law, ctx) - 8).is_zero
    assert (evaluate("(x+y)^2", env, law, ctx) - (x + y) ** 2).is_zero
    assert (evaluate("1 - 2 - 3", env, law, ctx) + 4).is_zero


def test_expr_law_calls(expr_setting):
    law, ctx, env = expr_setting
    x, y = env["x"], env["y"]
    assert (evaluate("F(x,y)", env, law, ctx) - law.apply(x, y)).is_zero
    assert (evaluate("inv(x)", env, law, ctx) - law.inverse_at(x)).is_zero
    assert (evaluate("F(x, inv(x))", env, law, ctx)).is_zero


def test_expr_division(expr_setting):
    law, ctx, env = expr_setting
    x = env["x"]
    out = evaluate("x/(1-x)", env, law, ctx)
    assert (out * (1 - x) - x).is_zero
    with pytest.raises(ExprError, match="non-unit"):
        evaluate("1/x", env, law, ctx)


@pytest.mark.parametrize(
    "text",
    [
        "x +", "(x", "x^y", "z + 1", "x y", "F(x)", "^2", "x // y",
        pytest.param("9" * 5000, id="5000-digit-literal"),
        pytest.param("(" * 3000 + "x" + ")" * 3000, id="3000-parentheses"),
        pytest.param("-" * 3000 + "x", id="3000-signs"),
        pytest.param("F(x," * 60 + "y" + ")" * 60, id="60-calls"),
        "2^1000000",
        "10^200 * 10^200",
        "(1 - x)^998",
    ],
)
def test_expr_errors_carry_position(expr_setting, text):
    law, ctx, env = expr_setting
    with pytest.raises(ExprError) as exc:
        evaluate(text, env, law, ctx)
    assert "position" in str(exc.value)


def test_huge_power_is_refused_before_it_is_computed(expr_setting):
    law, ctx, env = expr_setting
    start = time.process_time()
    with pytest.raises(ExprError, match="position"):
        evaluate("((2^1000)^1000)^1000", env, law, ctx)
    assert time.process_time() - start < 1.0


def test_expr_numbers_up_to_the_limit_evaluate(expr_setting):
    law, ctx, env = expr_setting
    x = env["x"]
    assert (evaluate("10^299 * x", env, law, ctx) - 10**299 * x).is_zero
    assert (evaluate("(1 - x)^996", env, law, ctx) - (1 - x) ** 996).is_zero
    assert evaluate("x^1000000", env, law, ctx).is_zero


# -- one warm process -------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MIX_TASK = {
    "law": "universal",
    "truncation": 4,
    "variables": ["u", "v"],
    "bundles": {"E": ["u", "F(u, v)"]},
    "actions": [
        {"op": "inverse"},
        {"op": "n-series", "k": -3},
        {"op": "pushforward", "bundle": "E", "element": "t^3 + u*t"},
    ],
}
MIX = [
    ["check", "fgl-axioms", "--trunc", "3"],
    ["check", "pbf", "--trunc", "4", "--json"],
    ["pbf", "--law", "universal", "--trunc", "4", "--roots", "u, inv(v)",
     "--element", "t^2 + u*t", "--action", "pushforward"],
    ["pbf", "--law", "multiplicative", "--trunc", "5", "--roots", "u, v, 0",
     "--element", "t^4", "--action", "pushforward", "--json"],
    ["tower", "--law", "universal", "--depth", "5", "--trunc", "4"],
    ["tower", "--law", "multiplicative", "--depth", "3", "--trunc", "3", "--json"],
    ["chi", "3", "4"],
    ["run", "task.json"],
    ["check", "nosuch"],
    ["run", "bad.json"],
]
MIX_RUNNER = """
import contextlib, io, json, sys
from occ.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def python(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_one_process_answers_as_fresh_processes(tmp_path):
    # built-in laws, their caches and the parser are shared within a process;
    # no request may see what an earlier one left behind
    (tmp_path / "task.json").write_text(json.dumps(MIX_TASK))
    (tmp_path / "bad.json").write_text('{"law": "additive", "actions": [}')
    alone = [list(python(tmp_path, "-m", "occ", *argv)) for argv in MIX]
    assert [code for code, _ in alone] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 2]
    for order, want in ((MIX, alone), (MIX[::-1], alone[::-1])):
        code, out = python(tmp_path, "-c", MIX_RUNNER, json.dumps(order))
        assert code == 0
        assert json.loads(out) == want


def test_python_dash_m_occ_runs_the_cli(tmp_path, capsys):
    code, out = python(tmp_path, "-m", "occ", "chi", "3", "4", "--json")
    assert (code, out) == run_cli(capsys, ["chi", "3", "4", "--json"])[:2]
    assert python(tmp_path, "-m", "occ")[0] == 2
