"""Function-application oracle: exact actions, determinism, faithfulness."""

import random
from fractions import Fraction

import pytest

from spinlrl import ops, oracle, weyl
from spinlrl.coeff import GaussianRational, P_ALPHA, P_ONE, ParamPoly
from spinlrl.oracle import SpinorFunction
from spinlrl.weyl import DimensionMismatch, divide_xpoly_by_r2

I = GaussianRational(0, 1)


def basis_function(d, k, xe, s, coeff=1):
    return SpinorFunction(d, {(k, tuple(xe), s): ParamPoly.of(coeff)})


# -- action examples -----------------------------------------------------------


def test_derivative_action():
    f = basis_function(2, 0, (1, 0), 1)
    out = oracle.apply(weyl.p(2, 1), f)
    assert out == basis_function(2, 0, (0, 0), 1, GaussianRational(0, -1))


def test_hamiltonian_action_on_linear_function():
    # H (x1 e1) = alpha r^-2 (x1^2 + i x1 x2) e2 in two dimensions
    f = basis_function(2, 0, (1, 0), 1)
    got = oracle.apply(ops.hamiltonian(2), f)
    expected = SpinorFunction(
        2,
        {
            (-1, (2, 0), 2): P_ALPHA,
            (-1, (1, 1), 2): P_ALPHA * I,
        },
    )
    assert got == expected


def test_coupling_square_acts_as_r2():
    gx = ops.gamma_dot_x(2)
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
    residual = weyl.commutator(ops.lrl(3, 1), ops.hamiltonian(3))
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
