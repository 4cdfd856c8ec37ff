"""Command-line interface: verification suites, expression reduction, matrix
dumps, and oracle runs, all scriptable with machine-readable output.

Exit codes: 0 all passed, 1 check or oracle failure, 2 usage or expression
error, 3 I/O error.  The SPINLRL_OUTPUT_DIR environment variable provides the
base directory for relative --output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import MAX_DIMENSION, SUITES, __version__, clifford, expr, ops, oracle, weyl

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_D = "3"
BIG_D_THRESHOLD = 6


class UsageError(Exception):
    pass


def _parse_d_range(text: str, allow_big: bool, cap: int = MAX_DIMENSION) -> List[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"cannot parse dimension specification {text!r} (expected N or N..M)")
    if lo > hi:
        raise UsageError(f"empty dimension range {text!r}")
    if lo < 2 or hi > cap:
        raise UsageError(f"dimensions must lie in 2..{cap}, got {text!r}")
    if hi > BIG_D_THRESHOLD and not allow_big:
        raise UsageError(f"d > {BIG_D_THRESHOLD} is expensive; pass --big-d to allow it")
    return list(range(lo, hi + 1))


def _resolve_output(path_text: Optional[str]) -> Optional[Path]:
    if path_text is None:
        return None
    path = Path(path_text)
    if not path.is_absolute():
        base = os.environ.get("SPINLRL_OUTPUT_DIR")
        if base:
            path = Path(base) / path
    return path


def _emit(text: str, output: Optional[Path]) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text)
    except OSError as err:
        print(f"error: cannot write {output}: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _parse_substitutions(text: Optional[str], d: int):
    alpha_value = e_value = None
    if not text:
        return alpha_value, e_value
    for piece in text.split(","):
        piece = piece.strip()
        if not piece or "=" not in piece:
            raise UsageError(f"bad substitution {piece!r}; expected alpha=VALUE or E=VALUE")
        name, value_text = piece.split("=", 1)
        name = name.strip()
        try:
            value_expr = expr.evaluate(value_text.strip(), d)
        except expr.ExprError as err:
            raise UsageError(f"bad substitution value for {name}: {err}")
        value = value_expr.constant_value()
        if value is None:
            raise UsageError(f"substitution value for {name} must be a scalar, got {value_text!r}")
        constant = value.constant_value()
        if constant is None:
            raise UsageError(f"substitution value for {name} must not contain alpha or E")
        if name == "alpha":
            alpha_value = constant
        elif name == "E":
            e_value = constant
        else:
            raise UsageError(f"unknown parameter {name!r}; only alpha and E can be substituted")
    return alpha_value, e_value


def _substitute(value: weyl.OperatorExpr, alpha_value, e_value) -> weyl.OperatorExpr:
    """``value`` with alpha and/or E replaced, refused before it is formed when
    its coefficients could pass ``expr.MAX_DIGITS``: the largest numerator
    part or denominator times each value's size to the highest power of its
    parameter."""
    largest = max((max(abs(re), abs(im)) for re, im in value.num.values()), default=0)
    digits = math.log10(max(value.den, largest))
    for power, constant in zip(value.max_param_powers(), (alpha_value, e_value)):
        if constant is not None and power:
            den, num = constant.int_form()
            digits += power * math.log10(max(den, sum(abs(re) + abs(im) for re, im in num.values())))
    if digits >= expr.MAX_DIGITS:
        raise UsageError(f"the substitution has about {int(digits) + 1:,} digits, more than the limit of {expr.MAX_DIGITS:,}")
    return value.substitute(alpha_value, e_value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify

    dims = _parse_d_range(args.d, args.big_d)
    checks = verify.list_checks(args.suite)
    if not any(check.applicable(d) for check in checks for d in dims):
        # an empty report would read as a pass that rests on no evidence
        low = min(check.dims[0] for check in checks)
        high = max(check.dims[1] for check in checks)
        raise UsageError(f"no check of suite {args.suite!r} applies at d={args.d}; its checks cover d={low}..{high}")
    reports = [verify.run_suite(args.suite, d) for d in dims]
    if args.format == "json":
        text = verify.report_to_json(reports, no_timing=args.no_timing)
    elif args.format == "markdown":
        text = verify.report_to_markdown(reports, no_timing=args.no_timing)
    else:
        text = verify.report_to_text(reports, no_timing=args.no_timing)
    status = _emit(text, _resolve_output(args.output))
    if status != EXIT_OK:
        return status
    if any(verify.has_blocking_failure(r, strict=args.strict) for r in reports):
        return EXIT_FAILURE
    return EXIT_OK


def cmd_list(args) -> int:
    from . import verify

    checks = verify.list_checks(args.suite)
    if args.format == "json":
        import json

        entries = [
            {
                "id": c.id,
                "suite": c.suite,
                "tier": c.tier,
                "dims": f"{c.dims[0]}..{c.dims[1]}",
                "paperRef": c.ref,
                "description": c.description,
            }
            for c in checks
        ]
        text = json.dumps(entries, indent=2) + "\n"
    else:
        lines = [f"{c.id:20s} {c.suite:12s} {c.tier:13s} d={c.dims[0]}..{c.dims[1]}  {c.description}" for c in checks]
        text = "\n".join(lines) + "\n"
    return _emit(text, _resolve_output(args.output))


def cmd_reduce(args) -> int:
    dims = _parse_d_range(args.d, args.big_d)
    if len(dims) != 1:
        raise UsageError("reduce expects a single dimension, not a range")
    d = dims[0]
    try:
        value = expr.evaluate(args.expression, d)
    except expr.ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    alpha_value, e_value = _parse_substitutions(args.sub, d)
    if alpha_value is not None or e_value is not None:
        value = _substitute(value, alpha_value, e_value)
    if args.adjoint:
        value = weyl.adjoint(value)
    return _emit(expr.format_expr(value) + "\n", _resolve_output(args.output))


def cmd_matrices(args) -> int:
    dims = _parse_d_range(args.d, allow_big=True, cap=clifford.GAMMA_DIM_CAP)
    text = "\n".join(clifford.render_fixture(d) for d in dims)
    return _emit(text, _resolve_output(args.output))


def cmd_oracle(args) -> int:
    dims = _parse_d_range(args.d, args.big_d)
    if len(dims) != 1:
        raise UsageError("oracle expects a single dimension, not a range")
    d = dims[0]
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    try:
        a = expr.evaluate(args.expression_a, d)
        b = expr.evaluate(args.expression_b, d)
    except expr.ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    result = oracle.crosscheck(a, b, trials=args.trials, seed=args.seed, max_degree=args.max_degree, min_k=args.min_k)
    if args.format == "json":
        import json

        payload = {
            "confirmed": result.ok,
            "trials": result.trials,
            "oracleWitness": None
            if result.ok
            else {
                "trial": result.witness_trial,
                "function": str(result.witness),
                "imageA": str(result.image_a),
                "imageB": str(result.image_b),
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif result.ok:
        text = f"confirmed: expressions agree on {result.trials} random functions\n"
    else:
        text = (
            f"mismatch at trial {result.witness_trial}\n"
            f"witness: {result.witness}\n"
            f"first image:  {result.image_a}\n"
            f"second image: {result.image_b}\n"
        )
    status = _emit(text, _resolve_output(args.output))
    if status != EXIT_OK:
        return status
    return EXIT_OK if result.ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlrl",
        description="Exact verification of the conserved-operator algebra of the spin-1/2 inverse-square Hamiltonian.",
    )
    parser.add_argument("--version", action="version", version=f"spinlrl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_big_d=True):
        p.add_argument("--d", default=DEFAULT_D, help="dimension N or range N..M (default 3)")
        p.add_argument("--output", help="write output to this path instead of stdout")
        if with_big_d:
            p.add_argument("--big-d", action="store_true", help="allow d = 7, 8 despite the cost")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", default="all", choices=SUITES, help="which checks to run")
    p_verify.add_argument("--format", default="text", choices=("text", "json", "markdown"))
    p_verify.add_argument("--strict", action="store_true", help="fail on transcription-tier mismatches too")
    p_verify.add_argument("--no-timing", action="store_true", help="zero out timing fields for reproducible output")
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list", help="list the check catalog")
    p_list.add_argument("--suite", default="all", choices=SUITES)
    p_list.add_argument("--format", default="text", choices=("text", "json"))
    p_list.add_argument("--output", help="write output to this path instead of stdout")
    p_list.set_defaults(func=cmd_list)

    p_reduce = sub.add_parser("reduce", help="normalize an operator expression")
    common(p_reduce)
    p_reduce.add_argument("expression", help="expression in the operator language")
    p_reduce.add_argument("--adjoint", action="store_true", help="take the formal adjoint after reduction")
    p_reduce.add_argument("--sub", help="substitute parameters, e.g. alpha=3,E=1/2")
    p_reduce.set_defaults(func=cmd_reduce)

    p_matrices = sub.add_parser("matrices", help="dump gamma and spin matrices in fixture format")
    common(p_matrices, with_big_d=False)
    p_matrices.set_defaults(func=cmd_matrices)

    p_oracle = sub.add_parser("oracle", help="compare two expressions on random test functions")
    common(p_oracle)
    p_oracle.add_argument("expression_a")
    p_oracle.add_argument("expression_b")
    p_oracle.add_argument("--trials", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--max-degree", type=int, default=4)
    p_oracle.add_argument("--min-k", type=int, default=-2)
    p_oracle.add_argument("--format", default="text", choices=("text", "json"))
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ops.IndexError_, weyl.DimensionMismatch, ValueError, KeyError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
