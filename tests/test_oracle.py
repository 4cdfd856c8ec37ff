"""Function-application oracle: exact actions, determinism, faithfulness."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest

from spinlrl import expr, ops, oracle, verify, weyl
from spinlrl.coeff import P_ALPHA, P_E, P_I, P_ONE, ParamPoly
from spinlrl.oracle import SpinorFunction
from spinlrl.weyl import DimensionMismatch, divide_xpoly_by_r2

I = P_I


def basis_function(d, k, xe, s, coeff=1):
    return SpinorFunction(d, {(k, tuple(xe), s): ParamPoly.of(coeff)})


# -- action examples -----------------------------------------------------------


def test_derivative_action():
    f = basis_function(2, 0, (1, 0), 1)
    out = oracle.apply(weyl.p(2, 1), f)
    assert out == basis_function(2, 0, (0, 0), 1, -P_I)


def test_hamiltonian_action_on_linear_function():
    # H (x1 e1) = alpha r^-2 (x1^2 + i x1 x2) e2 in two dimensions
    f = basis_function(2, 0, (1, 0), 1)
    got = oracle.apply(ops.build(2, "H"), f)
    expected = SpinorFunction(
        2,
        {
            (-1, (2, 0), 2): P_ALPHA,
            (-1, (1, 1), 2): P_ALPHA * I,
        },
    )
    assert got == expected


def test_coupling_square_acts_as_r2():
    gx = ops.build(2, "GX")
    r2 = weyl.r_squared(2)
    for t in range(10):
        f = oracle.random_function(2, t)
        assert oracle.apply(gx, oracle.apply(gx, f)) == oracle.apply(r2, f)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        oracle.apply(weyl.x(3, 1), oracle.random_function(2, 0))


# -- canonical form of functions --------------------------------------------------


def test_positive_radial_power_is_rejected():
    # r^2 e1 lies outside the test space; it used to be dropped silently,
    # leaving the zero function
    with pytest.raises(ValueError):
        SpinorFunction(2, {(1, (0, 0), 1): P_ONE})
    with pytest.raises(ValueError):
        SpinorFunction(3, {(0, (1, 0, 0), 1): P_ONE, (2, (0, 0, 0), 2): P_ALPHA})
    assert not SpinorFunction(2, {(0, (0, 0), 1): P_ONE}).is_zero()


def test_function_canonicalization_lifts_divisible_levels():
    d = 2
    # r^-2 (x1^2 + x2^2) e1 == e1
    f = SpinorFunction(d, {(-1, (2, 0), 1): P_ONE, (-1, (0, 2), 1): P_ONE})
    assert f == basis_function(d, 0, (0, 0), 1)


def test_function_canonical_invariant():
    for seed in range(30):
        f = oracle.random_function(3, seed)
        for (k, xe, s), coeff in f.terms.items():
            assert coeff
        by_level = {}
        for (k, xk, s, a, e), value in f.num.items():
            if k < 0:
                by_level.setdefault((k, s, a, e), {})[xk] = value
        for poly in by_level.values():
            _, remainder = divide_xpoly_by_r2(poly, 3)
            assert remainder, "negative level left divisible by r^2"


# -- random functions ---------------------------------------------------------------


def test_random_function_deterministic():
    a = oracle.random_function(3, 11)
    b = oracle.random_function(3, 11)
    assert a == b
    assert a != oracle.random_function(3, 12)


def test_random_function_trivial_settings():
    f = oracle.random_function(2, 0, max_degree=0, min_k=0)
    for (k, xe, s) in f.terms:
        assert k == 0 and sum(xe) == 0


def test_random_function_bad_settings():
    with pytest.raises(ValueError):
        oracle.random_function(2, 0, max_degree=-1)
    with pytest.raises(ValueError):
        oracle.random_function(2, 0, min_k=1)


# -- crosscheck -----------------------------------------------------------------------


def test_crosscheck_confirms_reordering():
    d = 2
    a = weyl.multiply(weyl.p(d, 1), weyl.x(d, 1))
    b = weyl.multiply(weyl.x(d, 1), weyl.p(d, 1)) - weyl.scalar(d, I)
    assert oracle.crosscheck(a, b).ok


def test_crosscheck_confirms_conserved_vector():
    residual = weyl.commutator(ops.build(3, "LRL", 1), ops.build(3, "H"))
    assert oracle.crosscheck(residual, weyl.zero(3)).ok


def test_crosscheck_finds_witness():
    result = oracle.crosscheck(weyl.commutator(weyl.x(2, 1), weyl.p(2, 1)), weyl.zero(2))
    assert not result.ok
    assert result.witness is not None
    assert result.image_b.is_zero()
    assert not result.image_a.is_zero()


@pytest.mark.parametrize("trials", [0, -3])
def test_crosscheck_rejects_trial_counts_below_one(trials):
    with pytest.raises(ValueError):
        oracle.crosscheck(weyl.x(2, 1), weyl.x(2, 1), trials=trials)


def test_crosscheck_seeded_reproducible():
    a = weyl.commutator(weyl.x(2, 1), weyl.p(2, 1))
    first = oracle.crosscheck(a, weyl.zero(2), trials=5, seed=7)
    second = oracle.crosscheck(a, weyl.zero(2), trials=5, seed=7)
    assert first.witness == second.witness and first.witness_trial == second.witness_trial


# -- structural laws ---------------------------------------------------------------------


def rand_op(d, rng):
    pool = []
    for i in range(1, d + 1):
        pool += [weyl.x(d, i), weyl.p(d, i), weyl.gamma(d, i)]
    pool.append(weyl.rinv2(d))
    out = weyl.one(d)
    for _ in range(rng.randint(1, 4)):
        out = weyl.multiply(out, rng.choice(pool))
    if rng.random() < 0.5:
        out = out + rng.choice(pool)
    return out


def test_apply_homomorphism():
    rng = random.Random(2024)
    for trial in range(60):
        d = rng.choice((2, 3))
        a, b = rand_op(d, rng), rand_op(d, rng)
        f = oracle.random_function(d, trial)
        assert oracle.apply(weyl.multiply(a, b), f) == oracle.apply(a, oracle.apply(b, f))


def test_apply_linearity():
    rng = random.Random(5)
    d = 2
    for trial in range(40):
        a, b = rand_op(d, rng), rand_op(d, rng)
        f = oracle.random_function(d, trial)
        combined = oracle.apply(a + b, f)
        fa, fb = oracle.apply(a, f), oracle.apply(b, f)
        merged = dict(fa.terms)
        for key, coeff in fb.terms.items():
            cur = merged.get(key)
            s = coeff if cur is None else cur + coeff
            if s:
                merged[key] = s
            else:
                del merged[key]
        assert combined == SpinorFunction(d, merged)


def test_faithfulness_on_nonzero_operators():
    # any nonzero operator of bounded degree must be caught by the witness search
    rng = random.Random(31337)
    for _ in range(25):
        d = rng.choice((2, 3))
        op = rand_op(d, rng)
        if op.is_zero():
            continue
        max_p = max(sum(pe) for (_, pe, _) in op.terms)
        res = oracle.crosscheck(op, weyl.zero(d), trials=20, max_degree=max(4, max_p), min_k=-2)
        assert not res.ok, weyl.render(op)


def test_function_remainders_follow_graded_lex_order():
    # at d=3 the leading term x1^2 is divided away: x1^2 = r^2 - x2^2 - x3^2
    f = SpinorFunction(3, {(-1, (2, 0, 0), 1): P_ONE})
    assert dict(f.terms) == {(0, (0, 0, 0), 1): P_ONE, (-1, (0, 2, 0), 1): -P_ONE, (-1, (0, 0, 2), 1): -P_ONE}
    # x2^2 and x3^2 lead with no x1: they are remainders already
    g = SpinorFunction(3, {(-1, (0, 2, 0), 1): P_ONE, (-1, (0, 0, 2), 2): P_ONE})
    assert set(g.terms) == {(-1, (0, 2, 0), 1), (-1, (0, 0, 2), 2)}
    # mixed degrees: r^-2 (x1^3 + x1 x2) at d=2 = x1 + r^-2 (x1 x2 - x1 x2^2)
    h = SpinorFunction(2, {(-1, (3, 0), 1): P_ONE, (-1, (1, 1), 1): P_ONE})
    assert dict(h.terms) == {(0, (1, 0), 1): P_ONE, (-1, (1, 1), 1): P_ONE, (-1, (1, 2), 1): -P_ONE}
    # two levels: r^-4 x1^4 at d=2 = 1 - 2 r^-2 x2^2 + r^-4 x2^4
    q = SpinorFunction(2, {(-2, (4, 0), 1): P_ONE})
    assert dict(q.terms) == {(0, (0, 0), 1): P_ONE, (-1, (0, 2), 1): ParamPoly.of(-2), (-2, (0, 4), 1): P_ONE}


def test_function_equal_through_different_denominators():
    half = SpinorFunction(2, {(0, (1, 0), 1): ParamPoly.of(Fraction(1, 2))})
    sixths = SpinorFunction(2, {(0, (1, 0), 1): ParamPoly.of(Fraction(1, 6))})
    thirds = SpinorFunction(2, {(0, (1, 0), 1): ParamPoly.of(Fraction(1, 3))})
    total = oracle.linear_combine(2, [(1, sixths), (1, thirds)])
    assert total == half and hash(total) == hash(half) and total.den == 2
    assert oracle.linear_combine(2, [(1, half), (-1, half)]) == SpinorFunction(2, {})


# -- the oracle's own reduction modulo r^2 -------------------------------------------


def test_own_reduction_matches_the_engine_division():
    # {r^2} is a Groebner basis, so quotient and remainder are unique
    rng = random.Random(1401)
    for _ in range(400):
        d = rng.randint(1, 5)
        poly = {}
        for _ in range(rng.randint(0, 8)):
            oracle.merge_term(poly, weyl.pack([rng.randint(0, 6) for _ in range(d)]), rng.randint(-3, 3), rng.choice((-1, 1)))
        assert oracle._reduce_level(poly, d) == divide_xpoly_by_r2(poly, d)


def test_own_reduction_has_a_step_budget(monkeypatch):
    d = 3
    # x1^4 x2 takes three quotient steps, as in the engine
    xpoly = {weyl.pack((4, 1, 0)): (1, 0)}
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", 3)
    assert len(oracle._reduce_level(xpoly, d)[0]) == 3
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", 2)
    with pytest.raises(ValueError, match="division-step budget of 2"):
        oracle._reduce_level(xpoly, d)


def test_oracle_catches_an_engine_division_that_drops_remainders(monkeypatch):
    d = 3
    # built before the mutation: with it, rinv2 x1 would already evaluate to 0
    a = weyl.multiply(weyl.rinv2(d), weyl.x(d, 1))
    b = weyl.multiply(weyl.rinv2(d), weyl.x(d, 2))
    unpatched = oracle.crosscheck(a, b)

    def drop_remainders(xpoly, d):
        quotient, _ = divide_xpoly_by_r2(xpoly, d)
        return quotient, {}

    # the engine's division, and the binding an oracle sharing it would hold
    monkeypatch.setattr(weyl, "divide_xpoly_by_r2", drop_remainders)
    monkeypatch.setattr(oracle, "divide_xpoly_by_r2", drop_remainders, raising=False)
    res = oracle.crosscheck(a, b)
    assert not res.ok and res.witness is not None
    # the oracle reduces on its own: the mutant changes none of its images
    assert (res.witness_trial, res.image_a, res.image_b) == (unpatched.witness_trial, unpatched.image_a, unpatched.image_b)


# -- operators read level by level, canonicalisation of what r^2 divides -------------


def _canonicalize_all_levels(d, raw):
    """The reduction before only r^2-divisible terms were sent into it: every
    level k < 0 of every (s, alpha, E) is reduced, lowest first.  Kept as the
    reference for ``oracle._canonicalize``."""
    by_level = {}
    for (k, xk, s, a, e), value in raw.items():
        by_level.setdefault((k, s, a, e), {})[xk] = value
    out = {}
    if not by_level:
        return out
    kmin = min(key[0] for key in by_level)
    for s, a, e in {key[1:] for key in by_level}:
        for k in range(kmin, 1):
            poly = by_level.get((k, s, a, e))
            if not poly:
                continue
            if k < 0:
                quotient, remainder = oracle._reduce_level(poly, d)
                for xk, value in remainder.items():
                    out[(k, xk, s, a, e)] = value
                upper = by_level.setdefault((k + 1, s, a, e), {})
                for xk, (re, im) in quotient.items():
                    oracle.merge_term(upper, xk, re, im)
            else:
                for xk, value in poly.items():
                    out[(0, xk, s, a, e)] = value
    return out


def _reference_function(d, acc):
    den, raw = oracle.common_denominator(acc)
    return oracle._new(d, den, _canonicalize_all_levels(d, raw))


def _apply_whole_operator(op, f):
    """``oracle.apply`` before operators were read level by level: every
    stored term of r^-2m N is applied at level m.  Kept as the reference."""
    d = op.d
    if not op.num or not f.num:
        return _reference_function(d, {})
    m = op.denom_pow
    out = {}
    for (xk, pk, word, al, ae), (ore, oim) in op.num.items():
        cols = oracle._gamma_columns(d, word)
        for (k, fx, s, fa, fe), (fr, fi) in f.num.items():
            t, er, ei = cols[s - 1]
            cr = fr * ore - fi * oim
            ci = fr * oim + fi * ore
            tr = cr * er - ci * ei
            ti = cr * ei + ci * er
            for k2, fx2, mr, mi in oracle._derivative_terms(d, pk, k, fx):
                oracle.merge_term(out, (k2 - m, fx2 + xk, t, al + fa, ae + fe), tr * mr - ti * mi, tr * mi + ti * mr)
    return _reference_function(d, {op.den * f.den: out})


COEFFICIENTS = (1, -1, Fraction(2, 3), Fraction(-5, 4), P_ALPHA, P_E * 2, I, P_E * I + P_ALPHA)


def level_test_operators(d, rng):
    """H, LRL_i, B_i, r^-4 x1^3 p2 and the momentum-free r^-2 GX + x1 g1 g2,
    alone and in seeded sums with scalar coefficients and extra r^-2
    factors: denom_pow 0..3."""
    i = rng.randint(1, d)
    pool = [
        ops.build(d, "H"),
        ops.build(d, "LRL", i),
        ops.build(d, "B", i),
        weyl.rinv2(d) ** 2 * weyl.x(d, 1) ** 3 * weyl.p(d, 2),
        expr.evaluate("rinv2 GX + x1 g1 g2", d),
    ]
    out = list(pool)
    for _ in range(8):
        total = weyl.zero(d)
        for op in rng.sample(pool, rng.randint(2, 3)):
            term = op * rng.choice(COEFFICIENTS)
            if rng.random() < 0.4:
                term = weyl.multiply(weyl.rinv2(d), term)
            total = total + term
        out.append(total)
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_level_by_level_apply_matches_the_whole_operator_reference(d):
    rng = random.Random(1500 + d)
    operators = level_test_operators(d, rng)
    assert {op.denom_pow for op in operators} == {0, 1, 2, 3}
    for n, op in enumerate(operators):
        for t in range(2):
            f = oracle.random_function(d, 100 * n + t, max_degree=4, min_k=rng.randint(-3, 0))
            assert oracle.apply(op, f) == _apply_whole_operator(op, f)


def test_level_split_keeps_only_remainders_above_level_zero():
    # H at d = 3 is 12 stored terms at r^-2; read by level it is 6
    d = 3
    terms = oracle._levels(ops.build(d, "H"))
    assert len(terms) == 6 and len(ops.build(d, "H").num) == 12
    for j, xk, *_ in terms:
        assert j == 0 or weyl.exponent_of(xk, 1, d) < 2


def random_raw_map(d, rng):
    raw = {}
    for _ in range(rng.randint(0, 12)):
        key = (rng.randint(-3, 0), weyl.pack([rng.randint(0, 5) for _ in range(d)]), rng.randint(1, 2), rng.randint(0, 1), rng.randint(0, 1))
        oracle.merge_term(raw, key, rng.randint(-3, 3), rng.randint(-1, 1))
    return raw


def test_canonicalize_matches_the_all_levels_reduction():
    rng = random.Random(1501)
    for _ in range(300):
        d = rng.randint(2, 5)
        raw = random_raw_map(d, rng)
        expected = _canonicalize_all_levels(d, dict(raw))
        assert oracle._canonicalize(d, raw) == expected


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reduction_table_matches_the_all_levels_reduction(d):
    # each entry is the canonical form of its one monomial r^(2k) x^a
    for tail in ((0,) * (d - 1), tuple(i % 3 for i in range(1, d))):
        for k in range(-4, 0):
            for n in range(7):
                xk = weyl.pack((n, *tail))
                _, terms = oracle._reduction(d, k, xk)
                got = {(level, x, 1, 0, 0): (c, 0) for level, x, c in terms}
                assert got == _canonicalize_all_levels(d, {(k, xk, 1, 0, 0): (1, 0)}), (k, n, tail)


def test_canonicalize_counts_the_table_steps_against_the_budget(monkeypatch):
    d = 3
    f = oracle.random_function(d, 11)
    lift = 2 * weyl.unit_keys(d)[0]
    # r^-4 x1^2 times a seeded function: r^2 divides a part of every term
    raw = {(k - 2, xk + lift, s, a, e): value for (k, xk, s, a, e), value in f.num.items()}
    expected = oracle._canonicalize(d, dict(raw))
    needed = sum(oracle._reduction(d, k, xk)[0] for k, xk, *_ in raw)
    assert needed > len(raw)
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", needed)
    assert oracle._canonicalize(d, dict(raw)) == expected
    # the steps an entry took count again each time it is read from the table
    monkeypatch.setattr(weyl, "DIVISION_STEP_BUDGET", needed - 1)
    with pytest.raises(ValueError, match="division-step budget"):
        oracle._canonicalize(d, dict(raw))
    oracle._reduction.cache_clear()
    with pytest.raises(ValueError, match="division-step budget"):
        oracle._canonicalize(d, dict(raw))


def test_linear_combine_of_canonical_functions_needs_no_reduction():
    rng = random.Random(1502)
    for trial in range(60):
        d = rng.randint(2, 4)
        fs = [oracle.random_function(d, 10 * trial + n, min_k=-3) for n in range(3)]
        parts = [(rng.choice(COEFFICIENTS), f) for f in fs]
        if trial % 3 == 0:
            # the last two cancel exactly
            parts.append((-parts[-1][0], parts[-1][1]))
        acc = {}
        for coeff, f in parts:
            sden, snum = ParamPoly.of(coeff).int_form()
            target = acc.setdefault(f.den * sden, {})
            for (k, xk, s, a, e), (re, im) in f.num.items():
                for (sa, se), (sr, si) in snum.items():
                    oracle.merge_term(target, (k, xk, s, a + sa, e + se), re * sr - im * si, re * si + im * sr)
        assert oracle.linear_combine(d, parts) == _reference_function(d, acc)
    f = oracle.random_function(3, 7, min_k=-3)
    assert oracle.linear_combine(3, [(Fraction(1, 3), f), (Fraction(-1, 3), f)]).is_zero()


@pytest.mark.parametrize("d", [2, 3])
def test_value_keyed_memo_matches_memo_free_evaluation(d):
    trials = 2
    functions = [oracle.random_function(d, oracle.trial_seed(0, t)) for t in range(trials)]
    checks = [c for suite in ("sturm", "schrodinger") for c in verify.list_checks(suite) if c.applicable(d)]
    assert checks
    for check in checks:
        expected = []
        for label, lhs, rhs in check.pairs(d):
            witness = next((f for f in functions if lhs.apply(f, oracle.apply) != rhs.apply(f, oracle.apply)), None)
            expected.append(verify.ConcordanceEntry(check.id, label, witness is None, witness))
        assert verify.crosscheck_check(check.id, d, trials=trials) == expected


def test_trial_by_trial_concordance_matches_pair_by_pair_evaluation(monkeypatch):
    d, trials = 2, 4
    check = verify.get_check("GX-SQUARE")
    label, lhs, rhs = check.pairs(d)[0]

    def trial_functions(seed):
        # min_k = 0: polynomial functions, which p1^3 kills unless x1^3 divides a term
        return [oracle.random_function(d, oracle.trial_seed(seed, t), 4, 0) for t in range(trials)]

    def x1_degree(f):
        return max(weyl.exponent_of(xk, 1, d) for _, xk, *_ in f.num)

    seed = next(s for s in range(100) if [x1_degree(f) >= 3 for f in trial_functions(s)][:2] == [False, True])
    functions = trial_functions(seed)
    pairs = [
        (label, lhs, rhs),
        ("late", lhs, rhs + verify.of_expr(weyl.p(d, 1) ** 3)),
        ("early", lhs, rhs + verify.of_expr(weyl.x(d, 1))),
    ]
    monkeypatch.setitem(verify._BY_ID, check.id, dataclasses.replace(check, pairs=lambda _: pairs))
    expected = []
    for name, a, b in pairs:
        witness = next((f for f in functions if a.apply(f) != b.apply(f)), None)
        expected.append(verify.ConcordanceEntry(check.id, name, witness is None, witness))
    got = verify.crosscheck_check(check.id, d, trials=trials, seed=seed, min_k=0)
    assert got == expected
    assert [(e.agreed, e.witness) for e in got] == [(True, None), (False, functions[1]), (False, functions[0])]


def test_concordance_memory_is_bounded_by_one_trial():
    # the memo holds one trial's functions, so more trials do not raise the
    # peak; with a memo kept for the whole check this ratio is about 6
    d = 3
    check_id = "LRL-AUX-3"
    verify.crosscheck_check(check_id, d, trials=4)

    def peak(trials):
        tracemalloc.start()
        try:
            verify.crosscheck_check(check_id, d, trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) <= 1.5 * peak(1)
