"""Expression language: grammar, diagnostics, round trips, fuzz totality."""

import random
import string
from fractions import Fraction

import pytest

from spinlrl import expr, ops, weyl
from spinlrl.coeff import P_E, P_I

I = P_I


# -- parsing and evaluation ----------------------------------------------------


def test_commutator_brackets():
    assert expr.evaluate("[x1, p1]", 2) == weyl.scalar(2, I)


def test_anticommutator_braces():
    assert expr.evaluate("{g1, g1}", 2) == weyl.scalar(2, 2)


def test_radial_operator_linear_combination():
    assert expr.evaluate("(1-2E)/2 * G0 + (1+2E)/2 * Gd1", 2) == ops.build(2, "K")


def test_builders_with_indices():
    assert expr.evaluate("LRL(1)", 3) == ops.build(3, "LRL", 1)
    assert expr.evaluate("J(1,2)", 3) == ops.build(3, "J", 1, 2)
    assert expr.evaluate("B1(2) + B2(2)", 3) == ops.build(3, "B", 2)


def test_power_and_juxtaposition():
    assert expr.evaluate("(g1 x1 + g2 x2)^2", 2) == weyl.r_squared(2)
    assert expr.evaluate("2 x1 p1", 2) == 2 * weyl.multiply(weyl.x(2, 1), weyl.p(2, 1))


def test_precedence_golden():
    # juxtaposition binds tighter than +
    a = expr.evaluate("x1 + x2 x1", 2)
    assert a == weyl.x(2, 1) + weyl.multiply(weyl.x(2, 2), weyl.x(2, 1))
    # power applies to the bracket as a whole
    b = expr.evaluate("[x1,p1]^2", 2)
    assert b == weyl.scalar(2, -1)
    # scalar division, power binds tighter
    assert expr.evaluate("3/4^2", 2) == weyl.scalar(2, Fraction(3, 16))


def test_unary_minus():
    assert expr.evaluate("-x1", 2) == -weyl.x(2, 1)
    assert expr.evaluate("x1 + -E", 2) == weyl.x(2, 1) - weyl.scalar(2, P_E)


def test_case_sensitivity():
    # g1 is a generator, G(1) the ladder operator built from it
    assert expr.evaluate("g1", 2) == weyl.gamma(2, 1)
    assert expr.evaluate("G(1)", 2) == ops.build(2, "G", 1)


def test_known_identities_reduce_to_zero():
    assert expr.evaluate("[T, G0] - i*Gd1", 2).is_zero()
    assert expr.evaluate("[A(1),M(1)] - i*T", 2).is_zero()
    assert expr.evaluate("x1*p1 - p1*x1 - i", 3).is_zero()


# -- diagnostics -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("J(1,4)", "outside 1..3"),
        ("x7", "outside 1..3"),
        ("frobnicate", "unknown identifier"),
        ("(x1", "expected ')'"),
        ("x1 +", "expected a term"),
        ("[x1 p1]", "expected ','"),
        ("J(1)", "takes 2 index(es)"),
        ("H(1)", "takes 0 index(es)"),
        ("x1 ^ p1", "expected 'int'"),
        ("$", "expected a token"),
        # token classes are ASCII: no int() of a superscript, no other digits read as 0-9
        ("x\u00b2", "expected a token, found '\u00b2'"),
        ("x\u0661", "expected a token, found '\u0661'"),
        ("\u0663", "expected a token, found '\u0663'"),
        ("x1 +\n  x\u00b2", "2:4: expected a token"),
        # literals past the interpreter's 4,300-digit conversion limit
        ("x1^" + "9" * 5000, "1:4: integer of 5,000 digits"),
        ("x" + "1" * 5000, "1:1: integer of 5,000 digits"),
        ("J(1," + "2" * 4301 + ")", "1:5: integer of 4,301 digits"),
        # scalar powers whose result could not be printed, refused before they are formed
        ("7^300000000 x1", "1:3: the power has about 253,529,413 digits"),
        ("(3/2)^300000000", "1:7: the power has about 143,136,377 digits"),
        ("x1 / 7^1000000", "1:8: the power has about 845,099 digits"),
        ("x1 / 7^5200", "1:8: the power has about 4,395 digits"),
        ("x1 +\n (alpha + 2 i)^10000", "2:16: the power has about 4,772 digits"),
        # no x or p: the same bound holds for gamma words and r^-2
        ("(2 g1)^300000000", "1:8: the power has about 90,308,999 digits"),
        ("(x1 - x1 + 7 rinv2)^300000000", "1:21: the power has about 253,529,413 digits"),
        # products and quotients of printable scalars, refused at the step that would pass the limit
        ("7^3000 7^3000 x1", "1:8: the product has about 5,071 digits"),
        ("(7^3000 + 1) (7^3000 + 1) x1", "1:14: the product has about 5,071 digits"),
        ("x1 7^3000 * 7^3000", "1:11: the product has about 5,071 digits"),
        ("x1 / 7^3000 / 7^3000", "1:13: the quotient has about 5,071 digits"),
        (" ".join(["7^4000"] * 3000) + " x1", "1:8: the product has about 6,761 digits"),
        ("x1 +\n [7^3000 p1, 7^3000 x1]", "2:2: the product has about 5,071 digits"),
        # the first failing step, reading left to right, is the one reported
        ("7^3000 7^3000 x1 )", "1:8: the product has about 5,071 digits"),
        # a sum, refused at the sign that would pass the limit
        ("9" * 4300 + " + " + "9" * 4300, "1:4302: the sum has about 4,301 digits"),
        # a part brought to a higher r^-2 power is multiplied by (r^2)^n, whose coefficients sum to d^n
        ("9" * 4000 + " + rinv2^1000", "1:4002: the sum has about 4,478 digits"),
        ("rinv2^1000 + " + "9" * 4000, "1:12: the sum has about 4,478 digits"),
        # powers of a base with x or p, estimated from its largest coefficient
        ("(x1 + 7^100)^100", "1:14: the power has about 8,451 digits"),
        ("(x1 + 7^100)^1000", "1:14: the power has about 84,510 digits"),
        ("(x1 + 7^100 / 2)^60", "1:18: the power has about 5,071 digits"),
        # an exponent past a float
        ("7^" + "9" * 400, "1:3: the power has more than 10^308 digits"),
        ("x1/0", "1:3: division by zero literal"),
        ("x1 + 2 / 0^3", "1:8: division by zero literal"),
    ],
)
def test_diagnostics_carry_position_and_expectation(text, fragment):
    with pytest.raises(expr.ExprError) as err:
        expr.evaluate(text, 3)
    message = str(err.value)
    assert fragment in message
    assert message.split(":")[0].isdigit() and message.split(":")[1].isdigit()


def test_division_by_zero_literal():
    with pytest.raises(expr.ExprError, match="^1:3: division by zero literal$"):
        expr.evaluate("x1/0", 2)


def test_parser_totality_fuzz():
    rng = random.Random(424242)
    alphabet = string.ascii_letters + string.digits + "+-*/^()[]{}, .\t" + "\u00b2\u0661\u0663\u00e9\u00a0"
    for _ in range(800):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            expr.evaluate(text, 3)
        except expr.ExprError:
            pass


# -- round trips -------------------------------------------------------------------


def rand_source(rng, d):
    atoms = [f"x{i}" for i in range(1, d + 1)] + [f"p{i}" for i in range(1, d + 1)]
    atoms += [f"g{i}" for i in range(1, d + 1)]
    atoms += ["rinv2", "i", "alpha", "E", "T", "GX", "H", "K", "3", "1/2", "-2", "J(1,2)"]
    return " + ".join(
        " ".join(rng.choice(atoms) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 4))
    )


def test_round_trip_random_expressions():
    rng = random.Random(99)
    for _ in range(400):
        d = rng.choice((2, 3))
        value = expr.evaluate(rand_source(rng, d), d)
        text = expr.format_expr(value)
        again = expr.evaluate(text, d)
        assert again == value, text
        assert expr.format_expr(again) == text  # idempotent


def test_format_basics():
    assert expr.format_expr(weyl.zero(2)) == "0"
    assert expr.format_expr(weyl.scalar(2, I)) == "i"
    assert expr.format_expr(weyl.scalar(3, Fraction(-5, 4))) == "-5/4"


def test_long_sum_reads_back():
    # a canonical text of over a thousand terms used to overflow the recursion limit
    text = " + ".join(f"x1^{k}" for k in range(1, 1200))
    value = expr.evaluate(text, 2)
    assert value.term_count() == 1199
    rendered = expr.format_expr(value)
    assert expr.format_expr(expr.evaluate(rendered, 2)) == rendered
    # terms over one 2,000-digit denominator: the sum's digit bound takes their
    # lcm, since their product (80,000 digits) would refuse the read-back
    den = "7" * 2000
    value = expr.evaluate(" + ".join(f"x1^{k} / {den}" for k in range(40, 0, -1)), 2)
    assert value.den == int(den) and value.term_count() == 40
    assert expr.evaluate(expr.format_expr(value), 2) == value


def test_mixed_sum_chain_keeps_each_sign():
    x1, p2, g1 = weyl.x(2, 1), weyl.p(2, 2), weyl.gamma(2, 1)
    expected = x1 - 2 * p2 + 3 * weyl.multiply(x1, p2) - g1
    assert expr.evaluate("x1 - 2 p2 + 3 x1 p2 - g1", 2) == expected


def test_long_product_evaluates():
    # 1,200 juxtaposed factors: folded in a loop, not one recursion per factor
    assert expr.evaluate(" ".join(["x1"] * 1200), 2) == weyl.x(2, 1) ** 1200
    assert expr.evaluate(" * ".join(["p1"] * 300) + " / 2 / 3", 2) == weyl.p(2, 1) ** 300 / 6


def test_nesting_cap():
    deep = "(" * expr.MAX_NESTING + "x1" + ")" * expr.MAX_NESTING
    assert expr.evaluate(deep, 2) == weyl.x(2, 1)
    # {a, 1/2} = a at every level
    braces = "{" * expr.MAX_NESTING + "x1" + ", 1/2}" * expr.MAX_NESTING
    assert expr.evaluate(braces, 2) == weyl.x(2, 1)
    with pytest.raises(expr.ExprError, match="nest deeper"):
        expr.evaluate("(" + deep + ")", 2)
    with pytest.raises(expr.ExprError, match="nest deeper"):
        expr.evaluate("{" * 400 + "x1" + ", p1}" * 400, 2)


def test_repeated_unary_minus():
    assert expr.evaluate("- - - x1", 2) == -weyl.x(2, 1)
    assert expr.evaluate("-" * 3000 + "x1", 2) == weyl.x(2, 1)
