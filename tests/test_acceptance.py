"""Acceptance gate: the exit criteria of the build, one line per criterion.

Every algebraic criterion is exact: a check passes only when the canonical
residual is empty.  Timing bounds are generous engineering budgets, not
tolerances.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from spinlrl import clifford, ops, oracle, verify, weyl
from spinlrl.coeff import merge_term

CORE_DIMS = (2, 3, 4, 5, 6)
APPENDIX_DIMS = (2, 3, 4, 5)


def _announce(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}  {title}{('  ' + detail) if detail else ''}")
    assert ok, f"criterion {number} failed: {title} {detail}"


def _run_ids(ids, dims):
    failures = []
    timings = {}
    for d in dims:
        start = time.perf_counter()
        for check_id in ids:
            check = verify.get_check(check_id)
            if not check.applicable(d):
                continue
            result = verify.run_check(check_id, d)
            if not result.passed:
                failures.append((check_id, d, result.failed_label))
        timings[d] = time.perf_counter() - start
    return failures, timings


def test_criterion_1_so_closure():
    ids = [
        "SO-COM-JJ", "SO-COM-JA", "SO-COM-JM", "SO-COM-JT",
        "SO-COM-AA", "SO-COM-MM", "SO-COM-AM", "SO-COM-AT", "SO-COM-MT",
    ]
    failures, timings = _run_ids(ids, CORE_DIMS)
    slow = {d: t for d, t in timings.items() if t >= 60.0}
    detail = "runtime " + ", ".join(f"d={d}:{t:.1f}s" for d, t in timings.items())
    _announce(1, "so(d+1,1) closure, d=2..6, zero residual", not failures and not slow, detail)


def test_criterion_2_casimir_constant():
    failures, _ = _run_ids(["CASIMIR-Q2"], CORE_DIMS)
    values_ok = ops.build(2, "Q2") == weyl.scalar(2, Fraction(-1, 2)) and ops.build(3, "Q2") == weyl.scalar(
        3, Fraction(-5, 4)
    )
    for d in CORE_DIMS:
        values_ok &= ops.build(d, "Q2") == weyl.scalar(d, Fraction(-(d - 1) * (d + 2), 8))
    _announce(2, "Casimir reduces to -(d-1)(d+2)/8, d=2..6", not failures and values_ok)


def test_criterion_3_ladder_sector():
    ids = [
        "SO-GAMMA-JGK", "SO-GAMMA-AGD1", "SO-GAMMA-MG0", "SO-GAMMA-TG0", "SO-GAMMA-TGD1",
        "SO-GAMMA-ZEROS-J", "SO-GAMMA-ZEROS-AMT",
        "NONCLOSE-G0GD1", "NONCLOSE-GIG0", "NONCLOSE-GIGD1", "NONCLOSE-GIGJ",
        "REL-GXGI", "REL-GXGP", "CAS-GAMMA",
    ]
    failures, _ = _run_ids(ids, CORE_DIMS)
    _announce(3, "ladder-operator sector exact, d=2..6", not failures, str(failures[:3]))


def test_criterion_4_radial_invariance():
    ids = ["STURM-INV", "JB-ALG", "B2-K2-J2"]
    failures, _ = _run_ids(ids, CORE_DIMS)
    _announce(4, "radial-picture invariance and B^2 = K^2 + 2E(J^2 + d(d-1)/8), symbolic E, d=2..6", not failures, str(failures[:3]))


def test_criterion_5_schrodinger_invariance():
    ids = ["JH-COM", "LRL-CONSERVED", "LRL-ALG", "LRL-SQUARE"]
    failures, _ = _run_ids(ids, CORE_DIMS)
    _announce(5, "conserved vector: commutes with H, closes on -2iH J, squares to 2H(J^2+d(d-1)/8)+alpha^2, d=2..6", not failures, str(failures[:3]))


def test_criterion_6_d3_pauli_specials():
    failures, _ = _run_ids(["JB-DOT-SIGMA", "JA-DOT"], (3,))
    _announce(6, "d=3 Pauli reductions J.B = -K/2 and J.LRL = alpha/2", not failures)


def test_criterion_7_appendix_identities():
    ids = [c.id for c in verify.list_checks("appendix")]
    failures, _ = _run_ids(ids, APPENDIX_DIMS)
    _announce(7, "every appendix identity exact at d=2..5 (transcription tier)", not failures, str(failures[:3]))


def test_criterion_8_matrix_fixtures():
    golden = Path(clifford.__file__).parent / "data" / "gamma_fixtures.txt"
    byte_match = clifford.render_reference_fixture() == golden.read_text()
    high_ok = True
    for d in (6, 7, 8):
        clifford.gamma_matrices(d)  # raises if the Clifford relation fails
        n = 2 ** (d // 2)
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                # sum_i {2 S_ij, 2 S_ik} = 2(d-1) delta_jk, entry by entry; S_ii = 0
                acc = {}
                for i in set(range(1, d + 1)) - {j, k}:
                    sij = clifford.spin_matrix(d, i, j)
                    sik = clifford.spin_matrix(d, i, k)
                    for perm, phase in (clifford.mono_mul(sij, sik), clifford.mono_mul(sik, sij)):
                        for col, (row, q) in enumerate(zip(perm, phase)):
                            merge_term(acc, (row, col), *clifford.UNITS[q])
                expected = {(s, s): (2 * (d - 1), 0) for s in range(n)} if j == k else {}
                high_ok &= acc == expected
    _announce(8, "gamma fixtures byte-match at d=2..5; matrix laws hold at d=6..8", byte_match and high_ok)


def test_criterion_9_oracle_concordance():
    start = time.perf_counter()
    entries = verify.crosscheck_suites(("core", "sturm", "schrodinger"), 3, trials=20, seed=0, max_degree=4, min_k=-2)
    elapsed = time.perf_counter() - start
    disagreements = [e for e in entries if not e.agreed]
    ok = not disagreements and elapsed < 300.0
    _announce(9, "oracle concordance over 20 seeded functions per pair at d=3", ok, f"{len(entries)} pairs in {elapsed:.0f}s")


def test_criterion_10_engine_self_consistency():
    rng = random.Random(1234)

    def atoms(d):
        pool = []
        for i in range(1, d + 1):
            pool += [weyl.x(d, i), weyl.p(d, i), weyl.gamma(d, i)]
        pool.append(weyl.rinv2(d))
        return pool

    def rand_op(d, rng, max_factors=4):
        out = weyl.one(d)
        for _ in range(rng.randint(1, max_factors)):
            out = weyl.multiply(out, rng.choice(atoms(d)))
        return out

    # confluence: >= 500 randomized association orders per dimension
    confluent = True
    for d in (2, 3, 4):
        pool = atoms(d)
        for _ in range(500):
            stream = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
            canonical = weyl.normalize(d, stream)
            exprs = list(stream)
            while len(exprs) > 1:
                i = rng.randrange(len(exprs) - 1)
                exprs[i : i + 2] = [weyl.multiply(exprs[i], exprs[i + 1])]
            confluent &= exprs[0] == canonical

    associative = all(
        weyl.multiply(weyl.multiply(a, b), c) == weyl.multiply(a, weyl.multiply(b, c))
        for _ in range(150)
        for d in (rng.choice((2, 3)),)
        for a, b, c in ((rand_op(d, rng), rand_op(d, rng), rand_op(d, rng)),)
    )

    antiauto = True
    for _ in range(100):
        d = rng.choice((2, 3))
        a, b = rand_op(d, rng), rand_op(d, rng)
        antiauto &= weyl.adjoint(weyl.multiply(a, b)) == weyl.multiply(weyl.adjoint(b), weyl.adjoint(a))

    homomorphic = True
    for trial in range(60):
        d = rng.choice((2, 3))
        a, b = rand_op(d, rng), rand_op(d, rng)
        f = oracle.random_function(d, trial)
        homomorphic &= oracle.apply(weyl.multiply(a, b), f) == oracle.apply(a, oracle.apply(b, f))

    ok = confluent and associative and antiauto and homomorphic
    _announce(10, "confluence (>=500/d), associativity, adjoint anti-automorphism, apply homomorphism", ok)
