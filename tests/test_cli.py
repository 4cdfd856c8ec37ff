"""Command-line behavior: exit codes, formats, reproducibility."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spinlrl import __version__, cli, clifford


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit code contract ----------------------------------------------------------


def test_verify_passes_with_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "d3", "--no-timing")
    assert code == 0 and "0 failed" in out


@pytest.mark.parametrize("argv", [("--d", "2"), ("--d", "4", "--format", "json")])
def test_verify_with_no_applicable_check_exits_two(capsys, argv):
    # no d3 check applies at d=2 or d=4: an empty report is no evidence of success
    code, out, err = run(capsys, "verify", "--suite", "d3", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: no check of suite 'd3' applies") and err.count("\n") == 1


def test_verify_core_d2(capsys):
    code, out, _ = run(capsys, "verify", "--d", "2", "--suite", "core", "--no-timing")
    assert code == 0
    assert "0 failed" in out


def test_oracle_failure_exits_one(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "2", "[x1,p1]", "0")
    assert code == 1
    assert "witness" in out


def test_oracle_confirmation_exits_zero(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "2", "[x1,p2]", "0", "--trials", "5")
    assert code == 0
    assert "confirmed" in out


@pytest.mark.xfail(
    strict=True,
    reason="at odd d the oracle acts through one irreducible representation, where g1 g2 g3 = i",
)
def test_oracle_sees_the_volume_element_at_odd_d(capsys):
    # g1 g2 g3 - i is nonzero in the algebra: reduce prints it, the oracle should reject it
    code, _, _ = run(capsys, "oracle", "--d", "3", "g1 g2 g3", "i")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2

    code, _, err = run(capsys, "verify", "--d", "9")
    assert code == 2 and "--big-d" in err

    code, _, err = run(capsys, "verify", "--d", "abc")
    assert code == 2

    code, _, err = run(capsys, "reduce", "--d", "2", "[x1")
    assert code == 2


def test_io_error_exits_three(capsys, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    target = blocker / "out.txt"
    code, _, err = run(capsys, "reduce", "--d", "2", "x1", "--output", str(target))
    assert code == 3
    assert "cannot write" in err


# -- reduce ------------------------------------------------------------------------


def test_reduce_identity_to_zero(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", "[A(1),M(1)] - i*T")
    assert code == 0 and out.strip() == "0"


def test_reduce_casimir_constant(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "3", "Q2")
    assert code == 0 and out.strip() == "-5/4"


def test_reduce_coupling_square(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "3", "(g1 x1 + g2 x2 + g3 x3)^2")
    assert code == 0 and out.strip() == "x1^2 + x2^2 + x3^2"


def test_reduce_adjoint_flag(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", "x1 p1", "--adjoint")
    assert code == 0 and out.strip() == "x1 p1 + (-i)"


def test_reduce_substitution(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", "(1-2E) x1", "--sub", "E=1/2")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "reduce", "--d", "2", "alpha^2", "--sub", "alpha=3")
    assert code == 0 and out.strip() == "9"


def test_reduce_substitution_rejects_non_scalar(capsys):
    code, _, err = run(capsys, "reduce", "--d", "2", "x1", "--sub", "alpha=x1")
    assert code == 2 and "scalar" in err


@pytest.mark.parametrize("name", ["HmE", "Y", "cLSY"])
def test_reduce_of_a_fused_factor_exits_two(capsys, name):
    # the registry's fused factors are rows of the operator table, not CLI names
    code, out, err = run(capsys, "reduce", "--d", "3", name)
    assert code == 2 and out == ""
    assert "unknown identifier" in err


# -- verify output formats ------------------------------------------------------------


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "d3", "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 3 and payload["summary"]["failed"] == 0


def test_verify_range_emits_sections(capsys):
    code, out, _ = run(capsys, "verify", "--d", "2..4", "--suite", "d3", "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and [p["d"] for p in payload] == [2, 3, 4]


def test_verify_output_reproducible(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, "verify", "--d", "3", "--suite", "d3", "--format", "json", "--no-timing", "--output", str(first))[0] == 0
    assert run(capsys, "verify", "--d", "3", "--suite", "d3", "--format", "json", "--no-timing", "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPINLRL_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "reduce", "--d", "2", "x1", "--output", "sub/result.txt")
    assert code == 0
    assert (tmp_path / "sub" / "result.txt").read_text().strip() == "x1"


# -- matrices ---------------------------------------------------------------------------


def test_matrices_d2(capsys):
    code, out, _ = run(capsys, "matrices", "--d", "2")
    assert code == 0
    assert out.startswith("gamma 2 1\n0 1\n1 0\n")
    assert "spin 2 1 2" in out


def test_matrices_match_golden_fixture(capsys):
    golden = Path(clifford.__file__).parent / "data" / "gamma_fixtures.txt"
    code, out, _ = run(capsys, "matrices", "--d", "2..5")
    assert code == 0
    assert out == golden.read_text()


def test_matrices_d6_allowed_without_flag(capsys):
    code, out, _ = run(capsys, "matrices", "--d", "6")
    assert code == 0
    assert out.startswith("gamma 6 1")


# -- list -------------------------------------------------------------------------------


def test_list_catalog(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "GAMMA-CLIFF" in out and "APP-C-14" in out


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--suite", "d3", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert {e["id"] for e in entries} >= {"JB-DOT", "JA-DOT"}


# -- oracle options ----------------------------------------------------------------------


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_oracle_rejects_trial_counts_below_one(capsys, trials):
    code, out, err = run(capsys, "oracle", "--d", "2", "x1", "x1", "--trials", trials)
    assert code == 2
    assert "--trials" in err and "confirmed" not in out


def test_oracle_seeded_deterministic(capsys):
    args = ("oracle", "--d", "3", "--trials", "5", "--seed", "7", "[J(1,2),H]", "0")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0


def test_oracle_json_witness(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "2", "[x1,p1]", "0", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["confirmed"] is False
    assert payload["oracleWitness"]["imageB"] == "0"


# -- byte-identity gate: outputs pinned to files made by the Fraction-based engine -------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_json_matches_golden(capsys, tmp_path, d):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--d", str(d), "--no-timing", "--format", "json", "--output", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / f"verify_d{d}.json").read_bytes()


def test_list_json_matches_golden(capsys):
    # ids, descriptions, refs, suites, dims and tiers of the whole catalog
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "list_all.json").read_text()


@pytest.mark.parametrize("case", json.loads((GOLDEN / "reduce_readme.json").read_text()), ids=lambda c: c["expression"])
def test_readme_reduce_examples_match_golden(capsys, case):
    code, out, _ = run(capsys, "reduce", "--d", str(case["d"]), case["expression"])
    assert code == 0
    assert out == case["output"]


def test_oracle_witness_json_matches_golden(capsys):
    code, out, _ = run(
        capsys, "oracle", "--d", "3", "--trials", "4", "--seed", "11", "--format", "json",
        "rinv2 x1 p1 / 2", "p1 x1 rinv2 / 2",
    )
    assert code == 1
    assert json.loads(out)["oracleWitness"] is not None
    assert out == (GOLDEN / "oracle_d3_seed11.json").read_text()


@pytest.mark.parametrize("case", json.loads((GOLDEN / "reduce_kernel.json").read_text()), ids=lambda c: f"d{c['d']}:{c['expression']}")
def test_reduce_kernel_matches_golden(capsys, case):
    # nonzero canonical outputs: r^-2 powers, unlike Gaussian denominators,
    # alpha and E powers, triple products up to d=5
    code, out, _ = run(capsys, "reduce", "--d", str(case["d"]), case["expression"])
    assert code == 0
    assert out == case["output"]


@pytest.mark.parametrize("case", json.loads((GOLDEN / "reduce_levels.json").read_text()), ids=lambda c: f"d{c['d']}:{c['expression']}")
def test_reduce_levels_match_golden(capsys, case):
    # results whose r^-2 level ends two or more levels below the top of the
    # products, and d = 4 triple products whose top level does not divide
    code, out, _ = run(capsys, "reduce", "--d", str(case["d"]), case["expression"])
    assert code == 0
    assert out == case["output"]


@pytest.mark.parametrize("case", json.loads((GOLDEN / "reduce_sub.json").read_text()), ids=lambda c: f"d{c['d']}:{c['sub']}:{c['expression']}")
def test_reduce_sub_matches_golden(capsys, case):
    # complex values, both parameters at once, powers of each, rinv2 and gamma
    # words; the two refusals of a value that is not a constant scalar; and
    # substitutions whose coefficients would pass the 4,300-digit limit
    code, out, err = run(capsys, "reduce", "--d", str(case["d"]), "--sub", case["sub"], case["expression"])
    if "error" in case:
        assert code == 2 and out == "" and err == case["error"]
    else:
        assert code == 0 and out == case["output"] and err == ""


# -- hostile input: clean results or exit 2, never a traceback --------------------------


def test_reduce_long_product(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", " ".join(["x1"] * 1200))
    assert code == 0 and out == "x1^1200\n"


def test_reduce_deep_nesting_exits_two(capsys):
    code, out, err = run(capsys, "reduce", "--d", "2", "(" * 400 + "x1" + ")" * 400)
    assert code == 2 and out == ""
    assert "nest deeper" in err


def test_reduce_at_the_exponent_limit(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "3", "x1^65535")
    assert code == 0 and out == "x1^65535\n"
    code, out, _ = run(capsys, "reduce", "--d", "3", "x2^32768 x3^32767 p1^65535")
    assert code == 0 and out == "x2^32768 x3^32767 p1^65535\n"
    # the sum brings x1^65533 to the common denominator r^-2: degree 65535
    code, out, _ = run(capsys, "reduce", "--d", "3", "x1^65533 + rinv2 x2")
    assert code == 0 and out == "rinv2 (x1^65535 + x1^65533 x2^2 + x1^65533 x3^2 + x2)\n"


# rinv2 x1^65535 is one canonical monomial; the sum brings it to r^-4: degree 65537
@pytest.mark.parametrize(
    "text", ["x1^65536", "x2^32768 x3^32768", "x1^65535 x1", "x1^65534 + rinv2 x2", "p1 rinv2 x1^65534", "p1^65535 p2", "rinv2 x1^65535 - rinv2^2 x1"]
)
def test_reduce_past_the_exponent_limit_exits_two(capsys, text):
    code, out, err = run(capsys, "reduce", "--d", "3", text)
    assert code == 2 and out == ""
    assert "exponent limit" in err


# literals and scalar powers past the interpreter's 4,300-digit limit: refused at their
# position before anything is computed (these hung, or failed when printed, with no position)
@pytest.mark.parametrize(
    "text",
    [
        "x1^" + "9" * 5000, "x" + "1" * 5000, "7^300000000 x1", "(3/2)^300000000", "x1 / 7^1000000", "x1 / 7^5200",
        # products and quotients of printable scalars (these failed when printed, or ran past 20 s)
        "7^3000 7^3000 x1", "(7^3000 + 1) (7^3000 + 1) x1", "x1 / 7^3000 / 7^3000", " ".join(["7^4000"] * 3000) + " x1",
        # a sum, and powers of a base with x or p (these failed when printed, or ran past 20 s)
        "9" * 4300 + " + " + "9" * 4300, "(x1 + 7^100)^100", "(x1 + 7^100)^1000",
        # a sum over r^-2 powers far apart: (r^2)^15000 has 15,001 monomials at d = 2, whose
        # binomial coefficients sum to 2^15000 (this ran past 15 s)
        "rinv2^15000 + 1", "1 + rinv2^15000",
    ],
)
def test_reduce_of_an_unprintably_large_scalar_exits_two(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--d", "2", text)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: 1:") and "limit of 4,300" in err and err.count("\n") == 1


# -- work budgets and division by zero: exit 2 with a one-line message -------------------

REPROS = [
    ("(x1 + x2)^40000", "product-term budget"),
    # r^2 divides x1^65535 + x2 only after more quotient steps than the budget allows
    ("rinv2 (x1^65535 + x2)", "division-step budget"),
    # (x1 + p1)^52 (x1 + p1)^64 has 793,881 term pairs but would form 9.8 million terms
    ("(x1 + p1)^500", "product-term budget"),
    # x1 over r^-60000 needs (r^2)^30000: C(30002, 2) = 450,045,001 monomials
    ("x1 + rinv2^30000", "product-term budget"),
    # moving p1^n past x1^n takes n passes over up to n + 1 terms: about n^2 / 2
    ("p1^2000 x1^2000", "product-term budget"),
    ("p1^4000 x1^4000", "product-term budget"),
]


@pytest.mark.parametrize("text, budget", REPROS)
def test_reduce_past_a_work_budget_exits_two(capsys, text, budget):
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--d", "3", text)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and budget in err and err.count("\n") == 1


@pytest.mark.parametrize("text, budget", REPROS)
def test_oracle_past_a_work_budget_exits_two(capsys, text, budget):
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--d", "3", text, "x1")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and budget in err


@pytest.mark.parametrize("text", ["p1^2000 x1^2000", "p1^4000 x1^4000"])
def test_reduce_adjoint_past_a_work_budget_exits_two(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--d", "3", "--adjoint", text)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "product-term budget" in err and err.count("\n") == 1


def test_reduce_within_the_expansion_budget(capsys):
    # p1^1000 x1^1000 forms 501,500 terms over its passes; its last term is (-i)^1000 1000!
    code, out, _ = run(capsys, "reduce", "--d", "3", "p1^1000 x1^1000")
    assert code == 0
    assert out.startswith("x1^1000 p1^1000 + (-1000000i) x1^999 p1^999 + ")
    assert out.endswith(f" + {math.factorial(1000)}\n")
    # its adjoint moves p1^j past x1^j for every j <= 1000: about 1000^3 / 6 terms
    code, out, err = run(capsys, "reduce", "--d", "3", "--adjoint", "p1^1000 x1^1000")
    assert code == 2 and out == ""
    assert "the adjoint of 1001 terms" in err and "product-term budget" in err


def test_reduce_and_oracle_do_not_build_the_registry():
    # verify builds its registry when imported; only verify and list need it
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from spinlrl import cli\n"
        "assert cli.main(['reduce', '--d', '3', 'p1 rinv2 x1']) == 0\n"
        "assert cli.main(['oracle', '--d', '2', 'p1 x1', 'x1 p1 - i', '--trials', '1']) == 0\n"
        "print('spinlrl.verify' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_python_m_spinlrl_runs_the_cli():
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "spinlrl", "--version"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == f"spinlrl {__version__}\n"


@pytest.mark.parametrize("case", json.loads((GOLDEN / "reduce_budget.json").read_text()), ids=lambda c: c["expression"])
def test_reduce_within_the_budgets_matches_golden(capsys, case):
    code, out, _ = run(capsys, "reduce", "--d", str(case["d"]), case["expression"])
    assert code == 0
    assert out == case["output"]


@pytest.mark.parametrize("command", [("reduce", "x1/0"), ("oracle", "x1/0", "x1")])
def test_division_by_zero_exits_two(capsys, command):
    code, out, err = run(capsys, command[0], "--d", "2", *command[1:])
    assert code == 2 and out == ""
    assert err == "error: 1:3: division by zero literal\n"
