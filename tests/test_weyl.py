"""Engine invariants: normal forms, products, localization, adjoints."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from spinlrl import cli, expr, ops, oracle, verify, weyl
from spinlrl.coeff import P_ALPHA, P_E, P_I, P_ONE, ParamPoly, merge_term
from spinlrl.weyl import (
    DimensionMismatch,
    OperatorExpr,
    adjoint,
    anticommutator,
    commutator,
    divide_xpoly_by_r2,
    linear_combine,
    multiply,
    normalize,
)

I = P_I


def gaussian(re, im=0):
    """The Gaussian rational re + im*i as a constant ParamPoly."""
    return ParamPoly.of(Fraction(re)) + P_I * Fraction(im)


def atoms(d):
    out = []
    for i in range(1, d + 1):
        out += [weyl.x(d, i), weyl.p(d, i), weyl.gamma(d, i)]
    out.append(weyl.rinv2(d))
    return out


def rand_operator(d, rng, factors=4, summands=2):
    pool = atoms(d)
    parts = []
    for _ in range(rng.randint(1, summands)):
        e = weyl.one(d)
        for _ in range(rng.randint(1, factors)):
            e = multiply(e, rng.choice(pool))
        coeff = ParamPoly({(rng.randint(0, 1), rng.randint(0, 1)): gaussian(rng.randint(-3, 3), rng.randint(-1, 1))})
        parts.append((coeff if coeff else P_ONE, e))
    return linear_combine(parts, d=d)


# -- normalization examples ---------------------------------------------------


def test_momentum_position_reorder():
    d = 2
    assert multiply(weyl.p(d, 1), weyl.x(d, 1)) == multiply(weyl.x(d, 1), weyl.p(d, 1)) - weyl.scalar(d, I)


def test_momentum_past_denominator():
    d = 2
    got = multiply(weyl.p(d, 1), weyl.rinv2(d))
    # left fraction r^-4 (r^2 p1 + 2i x1)
    assert got.denom_pow == 2
    rebuilt = multiply(multiply(weyl.rinv2(d), weyl.rinv2(d)), weyl.r_squared(d) * weyl.p(d, 1) + (2 * P_I) * weyl.x(d, 1))
    assert got == rebuilt
    # independent evidence: action on random functions agrees with composition
    for t in range(20):
        f = oracle.random_function(d, t)
        assert oracle.apply(got, f) == oracle.apply(weyl.p(d, 1), oracle.apply(weyl.rinv2(d), f))


def test_denominator_cancels_r2():
    d = 2
    assert multiply(weyl.rinv2(d), weyl.r_squared(d)) == weyl.one(d)


def test_gamma_dot_x_squares_to_r2():
    for d in (2, 3, 4):
        gx = linear_combine([(1, multiply(weyl.x(d, i), weyl.gamma(d, i))) for i in range(1, d + 1)])
        assert multiply(gx, gx) == weyl.r_squared(d)


def test_scaling_product_against_oracle():
    d = 3
    xp = linear_combine([(1, multiply(weyl.x(d, i), weyl.p(d, i))) for i in range(1, d + 1)])
    squared = multiply(xp, xp)
    for t in range(20):
        f = oracle.random_function(d, 1000 + t)
        assert oracle.apply(squared, f) == oracle.apply(xp, oracle.apply(xp, f))


# -- linear_combine ------------------------------------------------------------


def test_linear_combine_cancellation():
    d = 2
    a = rand_operator(d, random.Random(5))
    assert linear_combine([(1, a), (-1, a)]).is_zero()


def test_linear_combine_empty_needs_dimension():
    assert linear_combine([], d=3).is_zero()
    with pytest.raises(ValueError):
        linear_combine([])


# -- commutators and anticommutators --------------------------------------------


def test_canonical_commutators():
    d = 2
    assert commutator(weyl.x(d, 1), weyl.p(d, 1)) == weyl.scalar(d, I)
    assert commutator(weyl.x(d, 1), weyl.p(d, 2)).is_zero()


def test_clifford_anticommutators():
    d = 2
    assert anticommutator(weyl.gamma(d, 1), weyl.gamma(d, 2)).is_zero()
    assert anticommutator(weyl.gamma(d, 1), weyl.gamma(d, 1)) == weyl.scalar(d, 2)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        multiply(weyl.x(2, 1), weyl.x(3, 1))


# -- zero test -------------------------------------------------------------------


def test_is_zero():
    d = 2
    assert weyl.zero(d).is_zero()
    assert not commutator(weyl.x(d, 1), weyl.p(d, 1)).is_zero()


# -- division and minimality ------------------------------------------------------


def test_xpoly_division_cases():
    pack = weyl.pack
    d = 3
    r2 = {pack((2, 0, 0)): (1, 0), pack((0, 2, 0)): (1, 0), pack((0, 0, 2)): (1, 0)}
    quotient, remainder = divide_xpoly_by_r2(r2, d)
    assert quotient == {pack((0, 0, 0)): (1, 0)} and not remainder

    # x1^2 is not divisible: division writes it as 1*r^2 - x2^2
    only_x1 = {pack((2, 0)): (1, 0)}
    quotient, remainder = divide_xpoly_by_r2(only_x1, 2)
    assert remainder == {pack((0, 2)): (-1, 0)}
    assert quotient == {pack((0, 0)): (1, 0)}


def test_reduce_denominator_cases():
    d = 3
    z = (0,) * d
    # numerator sum x_i^2 at m=1 collapses to the identity
    r2_terms = {(tuple(2 if k == i else 0 for k in range(d)), z, ()): P_ONE for i in range(d)}
    assert weyl.reduce_denominator(d, r2_terms, 1) == weyl.one(d)
    # x1^2 alone is not divisible, so m stays
    stuck = weyl.reduce_denominator(2, {((2, 0), (0, 0), ()): P_ONE}, 1)
    assert stuck.denom_pow == 1
    # r^2 p1 at m=2 reduces exactly once
    r2p1 = {(tuple(2 if k == i else 0 for k in range(d)), tuple(1 if k == 0 else 0 for k in range(d)), ()): P_ONE for i in range(d)}
    reduced = weyl.reduce_denominator(d, r2p1, 2)
    assert reduced == multiply(weyl.rinv2(d), weyl.p(d, 1))
    assert reduced.denom_pow == 1
    with pytest.raises(ValueError):
        weyl.reduce_denominator(2, {}, -1)


def test_exact_factor_reduces_once():
    d = 2
    # r^-4 (r^2 p1) == r^-2 p1
    lhs = multiply(multiply(weyl.rinv2(d), weyl.rinv2(d)), weyl.r_squared(d) * weyl.p(d, 1))
    rhs = multiply(weyl.rinv2(d), weyl.p(d, 1))
    assert lhs == rhs
    assert lhs.denom_pow == 1


def test_minimality_invariant_random():
    rng = random.Random(42)
    for _ in range(150):
        d = rng.choice((2, 3))
        a = rand_operator(d, rng)
        b = rand_operator(d, rng)
        for result in (multiply(a, b), a + b, commutator(a, b)):
            if result.denom_pow > 0:
                assert weyl._try_divide_numerator(result.num, d) is None, result


# -- confluence and associativity ---------------------------------------------------


def random_association(factors, rng, d):
    exprs = list(factors)
    while len(exprs) > 1:
        i = rng.randrange(len(exprs) - 1)
        merged = multiply(exprs[i], exprs[i + 1])
        exprs[i : i + 2] = [merged]
    return exprs[0]


@pytest.mark.parametrize("d", (2, 3, 4))
def test_confluence_random_associations(d):
    # >= 500 randomized cases per dimension
    rng = random.Random(800 + d)
    pool = atoms(d)
    for _ in range(500):
        stream = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
        canonical = normalize(d, stream)
        assert random_association(stream, rng, d) == canonical


def test_confluence_sum_reordering():
    rng = random.Random(31)
    d = 2
    for _ in range(200):
        parts = [(1, rand_operator(d, rng)) for _ in range(rng.randint(2, 4))]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert linear_combine(parts) == linear_combine(shuffled)


def test_multiply_associative_random():
    rng = random.Random(12)
    for _ in range(200):
        d = rng.choice((2, 3))
        a, b, c = (rand_operator(d, rng, factors=3) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


# -- adjoint -------------------------------------------------------------------------


def test_adjoint_reorders_scaling_term():
    d = 2
    xp = multiply(weyl.x(d, 1), weyl.p(d, 1))
    # (x1 p1)+ = p1 x1 = x1 p1 - i
    assert adjoint(xp) == xp - weyl.scalar(d, I)


def test_adjoint_fixes_rotation_generator():
    d = 3
    j12 = ops.build(d, "J", 1, 2)
    assert adjoint(j12) == j12


def test_adjoint_involution_and_antiautomorphism():
    rng = random.Random(77)
    for _ in range(120):
        d = rng.choice((2, 3))
        a = rand_operator(d, rng)
        b = rand_operator(d, rng)
        assert adjoint(adjoint(a)) == a
        assert adjoint(multiply(a, b)) == multiply(adjoint(b), adjoint(a))


def test_adjoint_reads_level_terms(monkeypatch):
    # at d = 8 H stores 72 terms but has 16 level terms, none with a momentum
    # to move past a denominator: read as stored, the adjoint handed 189
    # terms to _finalize
    handed = []
    finalize = weyl._finalize

    def counting(d, acc):
        handed.append(sum(len(terms) for terms in acc.values()))
        return finalize(d, acc)

    H = ops.build(8, "H")
    monkeypatch.setattr(weyl, "_finalize", counting)
    assert adjoint(H) == H
    assert handed == [16]


def test_adjoint_conjugates_coefficients():
    d = 2
    a = P_I * weyl.one(d)
    assert adjoint(a) == -P_I * weyl.one(d)


# -- substitution and immutability -----------------------------------------------------


def test_substitution_renormalizes():
    d = 2
    e = (P_ONE - 2 * P_E) * weyl.x(d, 1)
    assert e.substitute(e_value=gaussian(Fraction(1, 2))).is_zero()


def test_operator_expr_not_mutable():
    e = weyl.x(2, 1)
    with pytest.raises(AttributeError):
        e.d = 3


# -- rendering order --------------------------------------------------------------------


def test_render_sorted_by_degrees():
    d = 2
    e = weyl.x(d, 1) + multiply(weyl.x(d, 1), weyl.p(d, 1)) + weyl.one(d)
    assert weyl.render(e) == "x1 p1 + x1 + 1"


def test_render_denominator_prefix():
    d = 2
    e = multiply(weyl.rinv2(d), weyl.gamma(d, 1) * weyl.x(d, 1))
    assert weyl.render(e) == "rinv2 (x1 g1)"


# -- packed integer storage -------------------------------------------------------------


def test_packed_order_is_graded_lex():
    rng = random.Random(9)
    for d in (2, 3, 5):
        vectors = {tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(300)}
        by_grlex = sorted(vectors, key=lambda v: (sum(v), v))
        assert sorted(vectors, key=weyl.pack) == by_grlex
        assert all(weyl.unpack(weyl.pack(v), d) == v for v in vectors)


def test_exponent_limit_never_carries():
    d = 2
    top = weyl.x(d, 1) ** weyl.EXPONENT_LIMIT
    assert top.terms == {((weyl.EXPONENT_LIMIT, 0), (0, 0), ()): P_ONE}
    with pytest.raises(ValueError):
        multiply(top, weyl.x(d, 2))
    with pytest.raises(ValueError):
        weyl.pack((weyl.EXPONENT_LIMIT, 1))
    with pytest.raises(ValueError):
        multiply(weyl.p(d, 1) ** weyl.EXPONENT_LIMIT, weyl.p(d, 2))


def test_power_by_squaring_matches_repeated_products():
    d = 2
    a = weyl.p(d, 1) + Fraction(1, 3) * multiply(weyl.rinv2(d), weyl.x(d, 2)) + P_ALPHA * weyl.gamma(d, 1)
    expected = weyl.one(d)
    for n in range(7):
        assert a ** n == expected
        expected = multiply(expected, a)


def test_equal_operators_through_different_denominators():
    d = 2
    x1p1 = multiply(weyl.x(d, 1), weyl.p(d, 1))
    thirds = Fraction(1, 6) * x1p1 + Fraction(1, 3) * x1p1
    halves = x1p1 / 2
    assert thirds == halves and hash(thirds) == hash(halves)
    assert halves.den == 2
    # (1/2 + i/2)(1 - i) = 1: the product's content cancels the denominator
    unit = (gaussian(Fraction(1, 2), Fraction(1, 2)) * weyl.x(d, 1)) * gaussian(1, -1)
    assert unit == weyl.x(d, 1) and hash(unit) == hash(weyl.x(d, 1)) and unit.den == 1
    # r^-2 (x1^2 + x2^2) / 3 times 3 is the identity
    third = multiply(weyl.rinv2(d), weyl.r_squared(d) / 3) * 3
    assert third == weyl.one(d) and hash(third) == hash(weyl.one(d))
    # the same element through products with different denominators
    a = multiply(weyl.p(d, 1) / 4, weyl.x(d, 1) * Fraction(2, 3))
    b = multiply(weyl.p(d, 1) / 6, weyl.x(d, 1))
    assert a == b and hash(a) == hash(b)


def test_division_takes_ints_and_fractions():
    d = 2
    x1 = weyl.x(d, 1)
    assert x1 / Fraction(2, 3) == Fraction(3, 2) * x1 and x1 / -4 == Fraction(-1, 4) * x1
    with pytest.raises(ZeroDivisionError):
        x1 / 0
    # a ParamPoly has no inverse here, not even a constant one
    with pytest.raises(TypeError):
        x1 / P_I


@pytest.mark.parametrize("n", [0, 1, -1, 7, -10**30])
def test_int_scalars_equal_the_param_poly_route(n):
    assert weyl._int_scalar(n) == weyl._int_scalar(ParamPoly.of(n))
    for d in (1, 3):
        a = weyl.scalar(d, n)
        assert a == weyl.scalar(d, ParamPoly.of(n)) and (a.den, a.num) == (1, {(0, 0, (), 0, 0): (n, 0)} if n else {})


@pytest.mark.parametrize("d", [2, 3, 4])
def test_int_division_equals_scaling_by_the_inverse(d):
    rng = random.Random(2300 + d)
    rinv2 = weyl.rinv2(d)
    operands = [weyl.zero(d), rinv2, rinv2 ** 2 * Fraction(3, 4)] + [rand_operator(d, rng) for _ in range(8)]
    assert any(a.denom_pow for a in operands[3:])
    for a in operands:
        for n in (1, -1, 3, -3, 2 ** 70):
            got = a / n
            assert got == a * Fraction(1, n) and hash(got) == hash(a * Fraction(1, n))
        with pytest.raises(ZeroDivisionError):
            a / 0
        # a bool is not taken for an int: it divides through a Fraction, as before
        assert a / True == a
        with pytest.raises(ZeroDivisionError):
            a / False


def test_cancellation_gives_canonical_zero():
    d = 3
    a = rand_operator(d, random.Random(4)) / 7
    for z in (a - a, linear_combine([(Fraction(1, 3), a), (Fraction(-1, 3), a)]), commutator(weyl.x(d, 1), weyl.x(d, 2) / 5)):
        assert z.is_zero() and z == weyl.zero(d) and hash(z) == hash(weyl.zero(d))
        assert (z.denom_pow, z.den, z.num) == (0, 1, {})
        assert weyl.render(z) == "0"


def test_stored_form_is_primitive():
    rng = random.Random(6)
    from math import gcd

    for _ in range(100):
        d = rng.choice((2, 3))
        e = rand_operator(d, rng) * gaussian(Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-2, 2))
        if e.is_zero():
            continue
        g = e.den
        for re, im in e.num.values():
            assert (re, im) != (0, 0)
            g = gcd(g, re, im)
        assert g == 1 and e.den > 0


# -- products of monomials, against the oracle and a closed form -------------------------


def rand_monomial(d, rng):
    """c r^-2k x^a p^b w: k <= 3, momentum degree up to 3, a word of length up
    to 2 and a coefficient in alpha and E."""
    factors = [weyl.rinv2(d)] * rng.randint(0, 3)
    factors += [weyl.x(d, rng.randint(1, d)) for _ in range(rng.randint(0, 2))]
    factors += [weyl.p(d, rng.randint(1, d)) for _ in range(rng.randint(0, 3))]
    factors += [weyl.gamma(d, i) for i in sorted(rng.sample(range(1, d + 1), rng.randint(0, 2)))]
    coeff = rng.choice((P_ONE, P_ALPHA, P_E, P_ALPHA * P_E, P_I * P_E + 2 * P_ALPHA))
    return normalize(d, factors + [coeff * gaussian(rng.choice((1, -2, 3)), rng.randint(-1, 1))])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_monomial_products_against_oracle(d):
    rng = random.Random(6100 + d)
    for trial in range(12):
        a, b = rand_monomial(d, rng), rand_monomial(d, rng)
        ab = multiply(a, b)
        f = oracle.random_function(d, 6200 + 10 * d + trial)
        assert oracle.apply(ab, f) == oracle.apply(a, oracle.apply(b, f))
        assert adjoint(ab) == multiply(adjoint(b), adjoint(a))


def _closed_form_p_past_x(beta, gamma):
    """p^beta x^gamma = sum_kappa (-i)^|kappa| kappa! C(beta, kappa) C(gamma, kappa) x^(gamma-kappa) p^(beta-kappa)."""
    units = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^n for n mod 4
    out = {}
    for kappa in itertools.product(*(range(min(b, g) + 1) for b, g in zip(beta, gamma))):
        mult = 1
        for k, b, g in zip(kappa, beta, gamma):
            mult *= math.factorial(k) * math.comb(b, k) * math.comb(g, k)
        re, im = units[sum(kappa) % 4]
        key = (weyl.pack([g - k for g, k in zip(gamma, kappa)]), weyl.pack([b - k for b, k in zip(beta, kappa)]))
        out[key] = (mult * re, mult * im)
    return out


def test_p_expansion_matches_closed_form():
    rng = random.Random(88)
    for _ in range(60):
        d = rng.randint(2, 4)
        beta = [rng.randint(0, 3) for _ in range(d)]
        gamma = [rng.randint(0, 3) for _ in range(d)]
        terms = weyl._p_expansion(weyl.pack(beta), 0, weyl.pack(gamma), d)
        assert all(k == 0 for k, *_ in terms)
        assert {(xk, pk): (re, im) for _, xk, pk, re, im in terms} == _closed_form_p_past_x(beta, gamma)


GOLDEN_PRODUCTS = json.loads((Path(__file__).parent / "golden" / "products.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_PRODUCTS, ids=lambda c: f"d{c['d']}:{c['a']}*{c['b']}")
def test_products_match_golden(case):
    d = case["d"]
    ab = multiply(expr.evaluate(case["a"], d), expr.evaluate(case["b"], d))
    assert weyl.render(ab) == case["product"]
    assert weyl.render(adjoint(ab)) == case["adjoint"]


# -- work budgets ---------------------------------------------------------------------------


def test_product_term_budget_is_checked_before_the_product(monkeypatch):
    d = 2
    two = weyl.x(d, 1) + weyl.p(d, 2)
    three = weyl.x(d, 2) + weyl.p(d, 1) + weyl.gamma(d, 1)
    expected = multiply(two, three)
    # x1 meets three terms; p2 x2 = x2 p2 - i forms two, p2 p1 and p2 g1 one each
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 7)
    assert multiply(two, three) == expected
    # + 1 adds x1 and p2: nine terms
    with pytest.raises(ValueError, match="product-term budget of 7"):
        multiply(two, three + weyl.one(d))


def test_p_expansion_has_at_most_three_terms_per_momentum():
    # _multiply_acc counts a product's terms only when term pairs * 3^|pk| could pass the budget
    rng = random.Random(89)
    for _ in range(200):
        d = rng.randint(2, 4)
        beta = [rng.randint(0, 3) for _ in range(d)]
        gamma = [rng.randint(0, 3) for _ in range(d)]
        terms = weyl._p_expansion(weyl.pack(beta), rng.randint(0, 3), weyl.pack(gamma), d)
        assert len(terms) <= 3 ** sum(beta)


def test_r2_power_is_refused_before_it_expands(monkeypatch):
    d = 3
    expand = weyl._r2_power_expansion.__wrapped__  # past the table, which may hold the entry
    # (r^2)^2 at d = 3 has C(4, 2) = 6 monomials
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 6)
    assert len(expand(0, 2, d)) == 6
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 5)
    with pytest.raises(ValueError, match="product-term budget of 5"):
        expand(weyl.pack((1, 0, 0)), 2, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_r2_power_expansion_is_repeated_multiplication_by_r2(d):
    expand = weyl._r2_power_expansion.__wrapped__
    steps = [2 * unit for unit in weyl.unit_keys(d)]
    xk = weyl.pack([i % 3 for i in range(d)])
    current = {xk: 1}
    for power in range(9):
        got = expand(xk, power, d)
        assert len(got) == len(dict(got)) and dict(got) == current
        assert sum(mult for _, mult in got) == d ** power
        nxt = {}
        for key, mult in current.items():
            for step in steps:
                nxt[key + step] = nxt.get(key + step, 0) + mult
        current = nxt
    if d == 2:
        # (r^2)^3000: its 3,001 binomial coefficients, formed in time proportional to them
        got = dict(expand(0, 3000, d))
        assert len(got) == 3001 and got[weyl.pack((2000, 4000))] == math.comb(3000, 1000)


def test_division_step_budget_counts_quotient_steps(monkeypatch):
    d = 3
    x1, x2 = weyl.x(d, 1), weyl.x(d, 2)
    # x1^4 x2 = r^2 (x1^2 x2 - x2 x3^2 - x2^3) + x2^5 + 2 x2^3 x3^2 + x2 x3^4: three quotient steps
    xpoly = {weyl.pack((4, 1, 0)): (1, 0)}
    quotient, remainder = divide_xpoly_by_r2(xpoly, d)
    assert len(quotient) == 3 and remainder
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", 3)
    assert divide_xpoly_by_r2(xpoly, d) == (quotient, remainder)
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", 2)
    with pytest.raises(ValueError, match="division-step budget of 2"):
        divide_xpoly_by_r2(xpoly, d)
    # a one-term numerator is never divided (no monomial is an r^2-multiple at d >= 2)
    assert str(multiply(weyl.rinv2(d), x1 ** 4 * x2)) == "rinv2 (x1^4 x2)"
    with pytest.raises(ValueError, match="division-step budget"):
        multiply(weyl.rinv2(d), x1 ** 4 * x2 + weyl.x(d, 3))


def _divide_every_group(num, d):
    """One left division of a numerator by r^2: every group divided, None at
    the first that leaves a remainder."""
    out = {}
    for (pk, word, a, e), xpoly in weyl._x_polynomials(num).items():
        quotient, remainder = divide_xpoly_by_r2(xpoly, d)
        if remainder:
            return None
        for xk, value in quotient.items():
            out[(xk, pk, word, a, e)] = value
    return out


def rand_divisible_xpoly(d, rng):
    """q r^2 for a random q of one to three terms of degree up to 3."""
    out = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * d
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(d)] += 1
        re, im = rng.randint(-3, 3), rng.randint(-2, 2)
        if not re and not im:
            re = 1
        for j in range(d):
            key = list(exps)
            key[j] += 2
            merge_term(out, weyl.pack(key), re, im)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_try_divide_numerator_equals_dividing_every_group(d):
    rng = random.Random(2330 + d)
    divided = undivided = 0
    for _ in range(200):
        num = {}
        count = rng.randint(1, 4)
        # half the numerators have one group that leaves a remainder
        spoiled = rng.randrange(-count, count)
        for n in range(count):
            group = (weyl.pack([rng.randint(0, 1) for _ in range(d)]), tuple(sorted(rng.sample(range(1, d + 1), rng.randint(0, min(d, 2))))), rng.randint(0, 1), rng.randint(0, 1))
            xpoly = rand_divisible_xpoly(d, rng)
            mode = rng.randrange(3) if n == spoiled else None
            if mode == 0:
                # a remainder term below the lead
                merge_term(xpoly, weyl.pack([rng.randint(0, 1) for _ in range(d)]), 1, 0)
            elif mode == 1:
                # x1^b xd^(5 - b) with b < 2, the lead unless q r^2 has degree 5
                b = rng.randint(0, 1)
                merge_term(xpoly, weyl.pack([b] + [0] * (d - 2) + [5 - b] if d > 1 else [1]), 0, 1)
            elif mode == 2:
                # a lead of x-degree 6 with x1^2: x1^2 xd^4, divisible only at d = 1
                merge_term(xpoly, weyl.pack([2] + [0] * (d - 2) + [4] if d > 1 else [6]), 2, 0)
            for xk, value in xpoly.items():
                num[(xk, *group)] = value
        want = _divide_every_group(num, d)
        assert weyl._try_divide_numerator(num, d) == want
        divided += want is not None
        undivided += want is None
    assert divided > 20 and undivided > 20
    if d == 1:
        # r^2 = x1^2 divides every monomial x1^k with k >= 2
        assert weyl._try_divide_numerator({(weyl.pack([5]), 0, (), 0, 0): (1, 0)}, 1) == {(weyl.pack([3]), 0, (), 0, 0): (1, 0)}


def test_try_divide_numerator_keeps_the_step_budget(monkeypatch):
    d = 3
    # x1^4 x2 takes three quotient steps; x2 cannot divide and is not divided
    heavy = (weyl.pack((4, 1, 0)), 0, (), 0, 0)
    light = (weyl.pack((0, 1, 0)), weyl.pack((1, 0, 0)), (), 0, 0)
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", 2)
    with pytest.raises(ValueError, match="division-step budget of 2"):
        weyl._try_divide_numerator({heavy: (1, 0), light: (1, 0)}, d)
    assert weyl._try_divide_numerator({light: (1, 0), heavy: (1, 0)}, d) is None


# -- top-down r^2 canonicalisation ----------------------------------------------------------


def _finalize_by_expansion(d, acc):
    """The expand-then-divide canonical form: every level brought to the top
    denominator, then the whole numerator divided by r^2 while it divides."""
    den, flat = weyl.common_denominator(acc) if acc else (1, {})
    if not flat:
        return weyl.zero(d)
    kmax = max(key[0] for key in flat)
    num = {}
    for (k, xk, pk, word, a, e), (re, im) in flat.items():
        for xk2, mult in weyl._r2_power_expansion(xk, kmax - k, d):
            weyl.merge_term(num, (xk2, pk, word, a, e), re * mult, im * mult)
    m = kmax
    while m > 0 and num:
        divided = weyl._try_divide_numerator(num, d)
        if divided is None:
            break
        num = divided
        m -= 1
    return weyl._make(d, m, den, num) if num else weyl.zero(d)


def rand_accumulator(d, rng, mode):
    """Terms at r^-2 levels 0..4 over one to three denominators.  A lifted
    term is also written at a level j higher as (r^2)^j times itself; in
    "cancel" mode that copy is subtracted, so the accumulator is zero."""
    acc = {}
    for _ in range(rng.randint(1, 3)):
        num = acc.setdefault(rng.choice((1, 2, 3, 6)), {})
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(0, 3)
            xk = weyl.pack([rng.randint(0, 2) for _ in range(d)])
            pk = weyl.pack([rng.randint(0, 1) for _ in range(d)])
            word = tuple(sorted(rng.sample(range(1, d + 1), rng.randint(0, 2))))
            a, e, re, im = rng.randint(0, 1), rng.randint(0, 1), rng.randint(-3, 3), rng.choice((-1, 1))
            how = mode if mode != "mixed" else rng.choice(("plain", "lift", "cancel"))
            if how != "lift":
                weyl.merge_term(num, (k, xk, pk, word, a, e), re, im)
            if how != "plain":
                j = rng.randint(1, 4 - k)
                sign = -1 if how == "cancel" else 1
                for xk2, mult in weyl._r2_power_expansion(xk, j, d):
                    weyl.merge_term(num, (k + j, xk2, pk, word, a, e), sign * re * mult, sign * im * mult)
    return acc


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_finalize_matches_expand_then_divide(d):
    rng = random.Random(9200 + d)
    zeros = deep = 0
    for mode in ("plain", "lift", "cancel", "mixed"):
        for _ in range(25):
            acc = rand_accumulator(d, rng, mode)
            kmax = max((key[0] for num in acc.values() for key in num), default=0)
            got = weyl._finalize(d, {den: dict(num) for den, num in acc.items()})
            assert got == _finalize_by_expansion(d, acc)
            zeros += got.is_zero()
            deep += not got.is_zero() and kmax - got.denom_pow >= 2
    assert zeros >= 25 and deep >= 5


# -- brackets without their cancelling leading terms --------------------------------------


def rand_bracket_operand(d, rng):
    """A sum of one to three monomials c r^-2k x^a p^b w with k <= 3, words of
    length up to 3 and coefficients in alpha and E."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        factors = [weyl.rinv2(d)] * rng.randint(0, 3)
        factors += [weyl.x(d, rng.randint(1, d)) for _ in range(rng.randint(0, 2))]
        factors += [weyl.p(d, rng.randint(1, d)) for _ in range(rng.randint(0, 2))]
        factors += [weyl.gamma(d, i) for i in sorted(rng.sample(range(1, d + 1), rng.randint(0, min(3, d))))]
        coeff = rng.choice((P_ONE, P_ALPHA, P_E, P_ALPHA * P_E, P_I * P_E + 2 * P_ALPHA))
        parts.append((coeff * gaussian(rng.choice((1, -2, 3)), rng.randint(-1, 1)), normalize(d, factors)))
    return linear_combine(parts, d=d)


def bracket_operands(d, seed, count):
    rng = random.Random(seed)
    for n in range(count):
        a = rand_bracket_operand(d, rng)
        yield a, (a if n % 5 == 0 else rand_bracket_operand(d, rng))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_brackets_equal_their_products(d):
    for a, b in bracket_operands(d, 9300 + d, 12):
        ab, ba = multiply(a, b), multiply(b, a)
        assert commutator(a, b) == ab - ba
        assert anticommutator(a, b) == ab + ba


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_combine_products_of_a_bracket_pair_equals_its_products(d):
    scales = (P_ONE, P_ALPHA, P_I * P_E + 2 * P_ALPHA)
    for n, (a, b) in enumerate(bracket_operands(d, 9400 + d, 12)):
        c = scales[n % 3]
        ab, ba = multiply(a, b), multiply(b, a)
        assert weyl.combine_products(d, verify.comm(a, b).terms) == ab - ba
        assert weyl.combine_products(d, verify.acomm(a, b).terms) == ab + ba
        assert weyl.combine_products(d, (-verify.comm(a, b)).terms) == ba - ab
        assert weyl.combine_products(d, [(c, (a, b)), (-c, (b, a))]) == c * ab - c * ba
        assert weyl.combine_products(d, [(c, (a, b)), (c, (b, a))]) == c * ab + c * ba
        # not a bracket: the second coefficient is neither c nor -c
        assert weyl.combine_products(d, [(c, (a, b)), (2 * c, (b, a))]) == c * ab + 2 * c * ba


def test_p_expansion_leads_with_the_unchanged_term():
    rng = random.Random(9500)
    for _ in range(200):
        d = rng.randint(2, 6)
        pk = weyl.pack([rng.randint(0, 2) for _ in range(d)])
        xk = weyl.pack([rng.randint(0, 2) for _ in range(d)])
        k = rng.randint(0, 3)
        assert weyl._p_expansion(pk, k, xk, d)[0] == (k, xk, pk, 1, 0)


def test_swap_sign_against_word_products():
    for d in (2, 3, 4):
        words = [w for n in range(d + 1) for w in itertools.combinations(range(1, d + 1), n)]
        for w in words:
            for v in words:
                wv, vw = weyl.word_mul(w, v, d), weyl.word_mul(v, w, d)
                assert wv[0] == vw[0] and wv[1] == weyl._swap_sign(w, v) * vw[1]


def test_p_expansion_work_bounds_every_pass():
    rng = random.Random(9600)
    for _ in range(150):
        d = rng.randint(2, 4)
        pk = weyl.pack([rng.randint(0, 3) for _ in range(d)])
        xk = weyl.pack([rng.randint(0, 3) for _ in range(d)])
        k = rng.randint(0, 2)
        cur = {(k, xk, 0): (1, 0)}
        formed = 0
        for i in range(d, 0, -1):
            for _ in range(weyl.exponent_of(pk, i, d)):
                cur = weyl._lmul_p(cur, i, d)
                formed += len(cur)
        assert formed <= weyl._p_expansion_work(pk, k, xk, d)


def test_p_expansion_budget_is_checked_before_expanding(monkeypatch):
    d = 3
    expand = weyl._p_expansion.__wrapped__  # past the table, which may hold the entry
    pk, xk = weyl.pack((30, 0, 0)), weyl.pack((30, 0, 0))
    # p1^30 x1^30 forms 2 + 3 + ... + 31 = 495 terms over its 30 passes
    assert weyl._p_expansion_work(pk, 0, xk, d) == 495
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 495)
    assert len(expand(pk, 0, xk, d)) == 31
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 494)
    with pytest.raises(ValueError, match="product-term budget of 494"):
        expand(pk, 0, xk, d)
    with pytest.raises(ValueError, match="product-term budget of 494"):
        adjoint(weyl.x(d, 1) ** 30 * weyl.p(d, 1) ** 30)


# -- rendering from the packed ints, against the decode-and-Fraction reference -----------


def _needs_parens(text):
    return text.startswith("-") or "+" in text or "-" in text[1:]


def _gaussian_text(coeff):
    """A constant ParamPoly's text from Fractions computed from its ints."""
    den, num = coeff.int_form()
    re, im = (Fraction(part, den) for part in num.get((0, 0), (0, 0)))
    if not im:
        return str(re)
    im_part = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    return im_part if not re else f"{re}{'+' if im > 0 else ''}{im_part}"


def _poly_text_by_fractions(poly):
    """A ParamPoly's text through the Fraction parts of its coefficients."""
    items = dict(poly.items())
    if not items:
        return "0"
    parts = []
    for (pa, pe) in sorted(items, reverse=True):
        coeff = items[(pa, pe)]
        atoms = []
        if pa:
            atoms.append("alpha" if pa == 1 else f"alpha^{pa}")
        if pe:
            atoms.append("E" if pe == 1 else f"E^{pe}")
        text = _gaussian_text(coeff)
        if atoms and coeff == 1:
            parts.append(" ".join(atoms))
        elif atoms and coeff == -1:
            parts.append("-" + " ".join(atoms))
        else:
            if (atoms or len(items) > 1) and _needs_parens(text):
                text = f"({text})"
            parts.append(" ".join([text] + atoms))
    return " + ".join(parts)


def _render_by_decoding(a):
    """The canonical text through the decoded ``terms`` view: each monomial
    unpacked to exponent tuples, each coefficient a ParamPoly."""
    if a.is_zero():
        return "0"
    value = a.constant_value()
    if value is not None:
        return _poly_text_by_fractions(value)
    parts = []
    order = sorted(a.terms.items(), key=lambda item: (sum(item[0][0]), sum(item[0][1]), len(item[0][2]), *item[0]), reverse=True)
    for (xe, pe, word), coeff in order:
        atoms = [f"{name}{i + 1}" if e == 1 else f"{name}{i + 1}^{e}" for name, exps in (("x", xe), ("p", pe)) for i, e in enumerate(exps) if e]
        atoms += [f"g{i}" for i in word]
        pieces = list(atoms)
        if not (atoms and coeff == P_ONE):
            text = _poly_text_by_fractions(coeff)
            pieces.insert(0, f"({text})" if _needs_parens(text) else text)
        parts.append(" ".join(pieces))
    body = " + ".join(parts)
    if a.denom_pow == 0:
        return body
    return f"{'rinv2' if a.denom_pow == 1 else f'rinv2^{a.denom_pow}'} ({body})"


HALF_MINUS_3_4_I = gaussian(Fraction(1, 2), Fraction(-3, 4))
RENDER_COEFFICIENTS = (
    P_ONE,
    P_I,
    -P_I,
    ParamPoly({(0, 0): HALF_MINUS_3_4_I}),
    -P_ALPHA,
    P_ALPHA * P_ALPHA * P_E,
    P_ALPHA + P_E,
    2 * P_ALPHA * P_E - Fraction(1, 3) * P_ALPHA + P_I * P_E * P_E - 1,
    Fraction(-5, 6) * P_ALPHA - P_I,
    P_E * HALF_MINUS_3_4_I + Fraction(7, 2),
)


def rand_render_operator(d, rng):
    pool = atoms(d)
    parts = []
    for _ in range(rng.randint(1, 4)):
        e = weyl.one(d)
        for _ in range(rng.randint(0, 4)):
            e = multiply(e, rng.choice(pool))
        parts.append((rng.choice(RENDER_COEFFICIENTS) * rng.choice((1, -1, Fraction(2, 3), 3)), e))
    return weyl.rinv2(d) ** rng.randint(0, 3) * linear_combine(parts, d=d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_render_matches_the_decoding_reference(d):
    rng = random.Random(9700 + d)
    seen = set()
    for _ in range(150):
        a = rand_render_operator(d, rng)
        text = weyl.render(a)
        assert text == _render_by_decoding(a)
        assert expr.evaluate(text, d) == a
        seen.add(a.denom_pow)
    for c in RENDER_COEFFICIENTS:
        for a in (weyl.scalar(d, c), c * weyl.x(d, 1), c * weyl.rinv2(d), c * weyl.rinv2(d) + weyl.p(d, d)):
            assert weyl.render(a) == _render_by_decoding(a)
    assert {0, 1, 2, 3} <= seen


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_render_of_shared_coefficients_is_independent_of_insertion_order(d):
    rng = random.Random(2340 + d)
    pool = [
        {(0, 0): (1, 0)},
        {(0, 0): (-1, 0)},
        {(0, 0): (0, 3)},
        {(1, 0): (1, 0)},
        {(1, 0): (2, -1), (0, 0): (0, 1)},
        {(1, 1): (-3, 0), (0, 1): (1, 1), (2, 0): (5, 0)},
        {(0, 1): (1, 1), (1, 1): (-3, 0), (2, 0): (5, 0)},
        {(2, 0): (-1, 0), (0, 0): (7, 0), (0, 2): (0, -1), (1, 0): (4, 4)},
    ]
    for _ in range(40):
        monomials = {(weyl.pack([rng.randint(0, 1) for _ in range(d)]), weyl.pack([rng.randint(0, 2) for _ in range(d)]), tuple(sorted(rng.sample(range(1, d + 1), rng.randint(0, 2))))) for _ in range(rng.randint(1, 30))}
        if rng.random() < 0.3:
            monomials.add((0, 0, ()))
        chosen = {mono: rng.choice(pool) for mono in monomials}
        m, den = rng.randint(0, 2), rng.choice((1, 2, 6, 7))
        texts = set()
        for _ in range(3):
            num = {}
            for mono in rng.sample(sorted(monomials), len(monomials)):
                group = list(chosen[mono].items())
                rng.shuffle(group)
                for (al, ae), value in group:
                    num[(*mono, al, ae)] = value
            # no x-monomial here has x1^2, so no numerator divides by r^2
            a = weyl._make(d, m, den, num)
            text = weyl.render(a)
            assert text == _render_by_decoding(a)
            assert expr.evaluate(text, d) == a
            texts.add(text)
        assert len(texts) == 1


def test_param_poly_text_matches_the_fraction_reference():
    rng = random.Random(9800)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(20)] + [0, 1, -1]
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 2))] = gaussian(rng.choice(values), rng.choice(values))
        poly = ParamPoly(terms)
        assert str(poly) == _poly_text_by_fractions(poly)
    for c in RENDER_COEFFICIENTS:
        assert str(c) == _poly_text_by_fractions(c)
    assert str(ParamPoly({(0, 0): HALF_MINUS_3_4_I})) == "1/2-3/4i"


# -- one-term products formed directly, against the kernel --------------------------------


def rand_one_term(d, rng):
    """c r^-2k x^a p^b w with one coefficient term: normal order, so one term."""
    factors = [weyl.rinv2(d)] * rng.choice((0, 0, 1, 2))
    factors += [weyl.x(d, rng.randint(1, d)) for _ in range(rng.randint(0, 3))]
    factors += [weyl.p(d, rng.randint(1, d)) for _ in range(rng.choice((0, 0, 1, 2)))]
    factors += [weyl.gamma(d, i) for i in sorted(rng.sample(range(1, d + 1), rng.randint(0, min(d, 3))))]
    coeff = rng.choice((P_ONE, -P_I, P_ALPHA, P_E * P_E, P_ALPHA * P_E)) * rng.choice((1, -2, Fraction(3, 4), gaussian(1, -1)))
    out = normalize(d, factors + [coeff])
    assert len(out.num) == 1
    return out


def _kernel_product(a, b):
    acc = {}
    weyl._multiply_acc(a, b, acc, {})
    return weyl._finalize(a.d, acc)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_monomial_products_match_the_kernel(d):
    rng = random.Random(9900 + d)
    direct = 0
    for _ in range(300):
        a, b = rand_one_term(d, rng), rand_one_term(d, rng)
        expected = _kernel_product(a, b)
        got = weyl._monomial_product(a, b)
        if got is not None:
            direct += 1
            assert got == expected
        assert multiply(a, b) == expected
    assert direct >= 60
    x1 = weyl.x(d, 1)
    assert multiply(weyl.rinv2(d), x1 * x1) == (weyl.one(d) if d == 1 else _kernel_product(weyl.rinv2(d), x1 * x1))
    assert multiply(weyl.gamma(d, d), weyl.gamma(d, 1)) == _kernel_product(weyl.gamma(d, d), weyl.gamma(d, 1))


def test_monomial_product_needs_no_reordering():
    d = 3
    p1, x1, r = weyl.p(d, 1), weyl.x(d, 1), weyl.rinv2(d)
    assert weyl._monomial_product(p1, x1) is None
    assert weyl._monomial_product(p1, r) is None
    assert weyl._monomial_product(x1, p1) == _kernel_product(x1, p1)
    assert weyl._monomial_product(r * x1, p1 * weyl.gamma(d, 2)) == _kernel_product(r * x1, p1 * weyl.gamma(d, 2))
    # at d = 1 r^2 = x1^2, so a denominator leaves the product to the kernel
    assert weyl._monomial_product(weyl.rinv2(1), weyl.x(1, 1) ** 2) is None
    assert multiply(weyl.rinv2(1), weyl.x(1, 1) ** 2) == weyl.one(1)


# -- chains that share a last factor ----------------------------------------------------------


def _combine_by_chains(d, terms):
    """combine_products multiplying every chain out on its own, the reference
    for summing the chains that share a last factor; adjacent bracket pairs
    keep their leading-term cut."""
    out = {}
    table = {}
    terms = list(terms)
    n = 0
    while n < len(terms):
        coeff, factors = terms[n]
        n += 1
        scale = weyl._int_scalar(coeff)
        if scale is None:
            continue
        if len(factors) < 2:
            weyl._acc_scaled(out, factors[0] if factors else weyl.one(d), scale)
            continue
        if len(factors) == 2 and n < len(terms):
            coeff2, factors2 = terms[n]
            if len(factors2) == 2 and factors2[0] is factors[1] and factors2[1] is factors[0]:
                scale2 = weyl._int_scalar(coeff2)
                swapped = weyl._scale_ratio(scale, scale2)
                if swapped:
                    weyl._multiply_acc(factors[0], factors[1], out, table, scale, swapped)
                    weyl._multiply_acc(factors[1], factors[0], out, table, scale2, swapped)
                    n += 1
                    continue
        prefix = factors[0]
        for factor in factors[1:-1]:
            prefix = multiply(prefix, factor)
        weyl._multiply_acc(prefix, factors[-1], out, table, scale)
    return weyl._finalize(d, out)


CHAIN_SCALES = (1, -1, 2, Fraction(1, 3), P_ALPHA, P_E, P_I, P_I * P_E + 2 * P_ALPHA, gaussian(Fraction(1, 2), Fraction(-3, 4)))


def rand_chain_sum(d, rng):
    """One to four factor chains drawn from a pool of six operators, so last
    factors repeat; its random operators may hold r^-2 up to r^-6.  A
    chain may be followed by its negative, whose prefix cancels it, by -c
    times the chain with its first two factors swapped, a bracket, or by the
    chain with its first factor replaced by r^-2, a prefix one level up."""
    pool = [rand_operator(d, rng, factors=3) for _ in range(3)]
    pool += [weyl.rinv2(d), weyl.x(d, 1), weyl.p(d, d) + weyl.gamma(d, 1)]
    terms = []
    for _ in range(rng.randint(2, 6)):
        c = rng.choice(CHAIN_SCALES)
        factors = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        terms.append((c, factors))
        how = rng.choice(("plain", "cancel", "bracket", "level"))
        if how == "cancel":
            terms.append((-c, factors))
        elif how == "bracket" and len(factors) > 1:
            terms.append((-c, (factors[1], factors[0]) + factors[2:]))
        elif how == "level" and len(factors) > 1:
            terms.append((c, (pool[3],) + factors[1:]))
    return terms


def term_pair_counter(monkeypatch, read=lambda a: a.num):
    """Record the term pairs of every ``_multiply_acc`` call in a list, each
    operand's terms as ``read`` gives them: stored, or ``weyl._level_terms``."""
    formed = []
    kernel = weyl._multiply_acc

    def counting(a, b, out, table, scale=weyl._UNIT, swapped=0):
        formed.append(len(read(a)) * len(scale[1]) * len(read(b)))
        kernel(a, b, out, table, scale, swapped)

    monkeypatch.setattr(weyl, "_multiply_acc", counting)
    return formed


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_shared_last_factors_match_chain_by_chain(d, monkeypatch):
    rng = random.Random(14000 + d)
    formed = term_pair_counter(monkeypatch)
    fewer = 0
    for _ in range(40):
        terms = rand_chain_sum(d, rng)
        formed.clear()
        expected = _combine_by_chains(d, terms)
        by_chains = sum(formed)
        formed.clear()
        got = weyl.combine_products(d, terms)
        assert got == expected
        fewer += sum(formed) < by_chains
    assert fewer >= 10


def test_bh_chain_forms_fewer_term_pairs_than_chain_by_chain(monkeypatch):
    # BH-CHAIN sums prefixes that reorder the same factors; APP-C-2's two sides
    # end in one H - E object, with prefixes at two r^-2 levels that nearly
    # cancel; B2-SQUARE's chains share one p_k object
    d = 3
    formed = term_pair_counter(monkeypatch)
    for check_id, factor in (("BH-CHAIN", 2), ("APP-C-2", 1), ("B2-SQUARE", 1)):
        pairs = verify.get_check(check_id).pairs(d)

        def term_pairs(combine):
            formed.clear()
            for _, lhs, rhs in pairs:
                assert combine(d, lhs.terms + (-rhs).terms).is_zero()
            return sum(formed)

        assert factor * term_pairs(weyl.combine_products) < term_pairs(_combine_by_chains), check_id


def test_registry_term_pairs_at_d3(monkeypatch):
    # the pairs of level terms the kernel reads over every pair of the
    # registry at d = 3, with the sides built first: 73,987 pairs of stored
    # terms, which the kernel formed before it read operands level by level,
    # and 74,851 when every chain had its own x_i and p_i objects and prefixes
    # at two r^-2 levels were never summed
    d = 3
    pairs = [pair for check in verify.list_checks() if check.applicable(d) for pair in check.pairs(d)]
    formed = term_pair_counter(monkeypatch, weyl._level_terms)
    for _, lhs, rhs in pairs:
        weyl.combine_products(d, lhs.terms + (-rhs).terms)
    assert sum(formed) == 61_813


def test_product_term_budget_holds_through_a_shared_last_factor(monkeypatch):
    d = 2
    x1 = weyl.x(d, 1)
    f = weyl.x(d, 2) + weyl.p(d, 1) + weyl.gamma(d, 1) + weyl.one(d)
    # the prefixes sum to 2 x1^2, one term, so f multiplies it once and forms four terms
    terms = [(1, (x1, x1, f)), (1, (x1, x1, f))]
    expected = 2 * multiply(x1 ** 2, f)
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 4)
    assert weyl.combine_products(d, terms) == expected
    monkeypatch.setattr(weyl, "PRODUCT_TERM_BUDGET", 3)
    with pytest.raises(ValueError, match="product-term budget of 3"):
        weyl.combine_products(d, terms)


# -- operands read level by level -------------------------------------------------------------


def _stored_read(a):
    """The kernel's read with no split: every stored term at level denom_pow."""
    m = a.denom_pow
    return [(m, xk, pk, word, al, ae, re, im) for (xk, pk, word, al, ae), (re, im) in a.num.items()]


def rand_level_operand(d, rng):
    """A sum of random operators times rinv2^k, k = 0..2, so its numerator
    carries lower levels multiplied up by powers of r^2; or rinv2 (x1^n + xd),
    whose split has more terms than its numerator."""
    r = weyl.rinv2(d)
    if rng.random() < 0.25:
        return multiply(r, weyl.x(d, 1) ** rng.randint(2, 6) + weyl.x(d, d))
    parts = [(rng.choice(CHAIN_SCALES), multiply(r ** rng.randint(0, 2), rand_operator(d, rng, factors=3))) for _ in range(rng.randint(2, 3))]
    return linear_combine(parts, d=d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_level_read_matches_the_stored_read(d, monkeypatch):
    rng = random.Random(19000 + d)
    operands = [rand_level_operand(d, rng) for _ in range(8)]
    operands.append(multiply(weyl.rinv2(d), weyl.x(d, 1) ** 5))
    pairs = [(rng.choice(operands), rng.choice(operands)) for _ in range(25)]
    sums = []
    for _ in range(6):
        chains = []
        for _ in range(rng.randint(2, 4)):
            c = rng.choice(CHAIN_SCALES)
            factors = tuple(rng.choice(operands) for _ in range(rng.randint(2, 3)))
            chains.append((c, factors))
            if rng.random() < 0.5:
                chains.append((rng.choice((c, -c)), (factors[1], factors[0]) + factors[2:]))
        sums.append(chains)

    def results():
        out = []
        for a, b in pairs:
            out += [multiply(a, b), commutator(a, b), anticommutator(a, b)]
        return out + [weyl.combine_products(d, terms) for terms in sums]

    split = [weyl._split_levels(a) for a in operands]
    # each split is the operand itself, at fewer terms
    for a, levels in zip(operands, split):
        if levels is not None:
            assert len(levels) < len(a.num)
            rebuilt = {a.den: {(j, xk, pk, word, al, ae): (re, im) for j, xk, pk, word, al, ae, re, im in levels}}
            assert weyl._finalize(d, rebuilt) == a
    paying = sum(levels is not None for levels in split)
    if d == 1:
        # r^2 = x1^2 is one monomial: a level holds as many terms as it took from N
        assert paying == 0
    else:
        assert 2 <= paying < len(operands)
    with_split = results()
    monkeypatch.setattr(weyl, "_level_terms", _stored_read)
    assert results() == with_split


# stdout, stderr and exit code as they were before the kernel read operands level by
# level, for operands whose numerators r^2 divides only after many quotient steps, or not at all
BUDGET = "error: dividing by r^2 exceeds the division-step budget of 100,000\n"
HOSTILE = [
    ("reduce --d 3", "p2 (rinv2 x1^300)", 0, "rinv2^2 (x1^302 p2 + x1^300 x2^2 p2 + x1^300 x3^2 p2 + 2i x1^300 x2)\n", ""),
    ("reduce --d 3", "p1 (rinv2 x1^2000)", 2, "", BUDGET),
    (
        "reduce --d 3",
        "[p1, rinv2^2 x1^200 + rinv2 x2]",
        0,
        "rinv2^3 ((-196i) x1^201 + (-200i) x1^199 x2^2 + (-200i) x1^199 x3^2 + 2i x1^3 x2 + 2i x1 x2^3 + 2i x1 x2 x3^2)\n",
        "",
    ),
    ("reduce --d 6", "p2 (rinv2 x1^300)", 2, "", BUDGET),
    ("reduce --d 6", "p1 (rinv2 x1^2000)", 2, "", BUDGET),
    ("reduce --d 6", "[p1, rinv2^2 x1^200 + rinv2 x2]", 2, "", BUDGET),
    ("reduce --d 3", "p1 rinv2 x1^65534", 2, "", "error: total degree 65536 exceeds the exponent limit 65535\n"),
    ("reduce --d 3", "rinv2 x1^65535 - rinv2^2 x1", 2, "", "error: total degree 65537 exceeds the exponent limit 65535\n"),
    ("oracle --d 3 x1", "x1 + rinv2^30000", 2, "", "error: (r^2)^30000 at d=3 has 450,045,001 terms, past the product-term budget of 1,000,000\n"),
]


@pytest.mark.parametrize("command, text, code, out, err", HOSTILE, ids=[f"{command}:{text}" for command, text, *_ in HOSTILE])
def test_hostile_operands_behave_as_before_the_level_read(capsys, command, text, code, out, err):
    name, *args = command.split()
    assert cli.main([name, text, *args]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "d, text",
    [
        # dividing x1^200 at d = 3 would take C(101, 2) = 5,050 quotient steps
        (3, "rinv2^2 x1^200 + rinv2 x2"),
        (3, "rinv2 (x1^400 + x2)"),
        (6, "rinv2 (x1^20 + x2)"),
        # the p1 group divides in one step, then x1^20 + x2 would take 55
        (3, "rinv2 (x1^2 p1 + x2^2 p1 + x3^2 p1 + x1^20 + x2)"),
    ],
)
def test_split_attempt_stops_within_its_step_cap(monkeypatch, d, text):
    a = expr.evaluate(text, d)
    steps = []
    divide = weyl.divide_xpoly_by_r2

    def counting(xpoly, d):
        quotient, remainder = divide(xpoly, d)
        steps.append(len(quotient))
        return quotient, remainder

    monkeypatch.setattr(weyl, "divide_xpoly_by_r2", counting)
    assert weyl._split_levels(a) is None
    assert sum(steps) <= len(a.num)
    assert weyl._level_terms(a) == _stored_read(a)
    assert a._split is None


def test_lrl_alg_level_read_term_pairs_at_d6(monkeypatch):
    # the term pairs the kernel reads over LRL-ALG at d = 6: 369,090 when every
    # operand was read as its stored numerator, whose lower r^-2 levels carry
    # powers of r^2 (at d = 8, H has 72 stored terms and 16 level-read ones)
    d = 6
    pairs = verify.get_check("LRL-ALG").pairs(d)
    formed = []
    kernel = weyl._multiply_acc

    def counting(a, b, out, table, scale=weyl._UNIT, swapped=0):
        formed.append(len(weyl._level_terms(a)) * len(scale[1]) * len(weyl._level_terms(b)))
        kernel(a, b, out, table, scale, swapped)

    monkeypatch.setattr(weyl, "_multiply_acc", counting)
    for _, lhs, rhs in pairs:
        assert weyl.combine_products(d, lhs.terms + (-rhs).terms).is_zero()
    assert sum(formed) == 28_490


# -- left multiples shared through one table --------------------------------------------------


def _twin(a):
    """An operator equal to a, built apart: a distinct object with no split read."""
    return OperatorExpr(a.d, a.denom_pow, a.den, dict(a.num))


def split_operand(d):
    """alpha x1 p2 g1 + r^-2 x2 g2, stored as r^-2 (alpha r^2 x1 p2 g1 + x2 g2):
    its split holds two level terms against d + 1 stored ones."""
    r, x1, x2 = weyl.rinv2(d), weyl.x(d, 1), weyl.x(d, 2)
    return linear_combine([(P_ALPHA, multiply(multiply(x1, weyl.p(d, 2)), weyl.gamma(d, 1))), (1, multiply(multiply(r, x2), weyl.gamma(d, 2)))])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_table_of_left_multiples_matches_fresh_tables(d):
    rng = random.Random(21000 + d)
    c = gaussian(Fraction(1, 2), -1) * P_ALPHA
    for n in range(10):
        a = rand_bracket_operand(d, rng) + weyl.gamma(d, 1) * weyl.p(d, d)
        b = split_operand(d) if n % 2 else rand_level_operand(d, rng) + weyl.gamma(d, 2)
        a2, b2 = _twin(a), _twin(b)
        # a product, a commutator and an anticommutator of one (a, b) read
        # the same right operands with each value of ``swapped``; the twins
        # read the entries their equal originals left
        sums = [
            [(P_ONE, (a, b))],
            verify.comm(a, b).terms,
            verify.acomm(a, b).terms,
            [(c, (a2, b2))],
            verify.comm(a2, b2).terms,
            verify.acomm(a2, b).terms,
            [(c, (a, b2, a2))],
            [(P_ONE, (b, a)), (P_I, (b2, a2, b))],
        ]
        table = {}
        shared = [weyl.combine_products(d, terms, table) for terms in sums]
        assert shared == [weyl.combine_products(d, terms) for terms in sums]
        ab, ba = multiply(a, b), multiply(b, a)
        assert shared[:3] == [ab, ab - ba, ab + ba]
        assert {key[3] for key in table[b][1]} == {-1, 0, 1}
        if n % 2:
            assert weyl._split_levels(b) is not None
            assert table[b][0] == weyl._split_levels(b)


def test_registry_left_multiple_terms_at_d3(monkeypatch):
    # the level terms of left multiples p^pk w b the kernel forms over every
    # pair of the registry at d = 3, the sides built first, with one table per
    # check as run_check keeps it: 31,371 when each product formed its own
    d = 3
    checks = [check.pairs(d) for check in verify.list_checks() if check.applicable(d)]
    formed = []
    left_multiple = weyl._left_multiple

    def counting(*args):
        pushed = left_multiple(*args)
        formed.append(len(pushed))
        return pushed

    monkeypatch.setattr(weyl, "_left_multiple", counting)
    for pairs in checks:
        table = {}
        for _, lhs, rhs in pairs:
            weyl.combine_products(d, lhs.terms + (-rhs).terms, table)
    assert sum(formed) == 20_099
