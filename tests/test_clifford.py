"""Clifford words against the matrix representation, and the golden fixtures.

Matrices are monomials ``(perm, phase)``; the laws are checked on monomials
and on sums of a few of them, compared entry by entry through ``dense``.
"""

import itertools
from pathlib import Path

import pytest

from spinlrl import clifford as cl
from spinlrl.coeff import merge_term

GOLDEN = Path(__file__).resolve().parents[1] / "src" / "spinlrl" / "data" / "gamma_fixtures.txt"
ONE = (1, 0)


def words_up_to(d, max_len):
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.combinations(range(1, d + 1), length))
    return out


def dense(terms):
    """The matrix sum c * M over (c, M) pairs, with c = (re, im) a Gaussian
    integer and M a monomial, as {(row, column): (re, im)} over its nonzero
    entries."""
    out = {}
    for (cr, ci), (perm, phase) in terms:
        for col, (row, q) in enumerate(zip(perm, phase)):
            ur, ui = cl.UNITS[q]
            merge_term(out, (row, col), cr * ur - ci * ui, cr * ui + ci * ur)
    return out


def conj_transpose(matrix):
    return {(col, row): (re, -im) for (row, col), (re, im) in matrix.items()}


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def times(x, y):
    """The product of two sums of monomials."""
    return [(_gmul(c, e), cl.mono_mul(m, n)) for c, m in x for e, n in y]


def scaled(c, x):
    return [(_gmul(c, e), m) for e, m in x]


def spin2(d, i, j):
    """2 S_ij as a sum of monomials: empty for i == j, where S_ii = 0."""
    return [] if i == j else [(ONE, cl.spin_matrix(d, i, j))]


# -- word algebra ----------------------------------------------------------


def test_word_mul_examples():
    assert cl.word_mul((2,), (1,), 3) == ((1, 2), -1)
    assert cl.word_mul((1,), (1,), 3) == ((), 1)
    assert cl.word_mul((1, 2), (2, 3), 3) == ((1, 3), 1)


def test_word_mul_index_errors():
    with pytest.raises(cl.CliffordIndexError):
        cl.word_mul((4,), (), 3)
    with pytest.raises(cl.CliffordIndexError):
        cl.word_mul((2, 1), (), 3)


def test_word_adjoint_examples():
    assert cl.word_adjoint(()) == ((), 1)
    assert cl.word_adjoint((1, 2)) == ((1, 2), -1)
    assert cl.word_adjoint((1, 2, 3)) == ((1, 2, 3), -1)


def test_word_adjoint_matches_matrix_conjugate_transpose():
    for d in (2, 3, 4, 5):
        for word in words_up_to(d, 3):
            adj_word, sign = cl.word_adjoint(word)
            direct = conj_transpose(dense([(ONE, cl.word_matrix(d, word))]))
            assert direct == dense([((sign, 0), cl.word_matrix(d, adj_word))]), (d, word)


def test_word_mul_matches_matrix_oracle():
    for d in range(2, 9):
        for w1 in words_up_to(d, 3):
            for w2 in words_up_to(d, 3):
                word, sign = cl.word_mul(w1, w2, d)
                product = cl.mono_mul(cl.word_matrix(d, w1), cl.word_matrix(d, w2))
                # -1 = i^2
                assert product == cl.mono_phase(cl.word_matrix(d, word), 1 - sign), (d, w1, w2)


# -- gamma matrices ---------------------------------------------------------

PAULI = (
    {(0, 1): (1, 0), (1, 0): (1, 0)},
    {(0, 1): (0, -1), (1, 0): (0, 1)},
    {(0, 0): (1, 0), (1, 1): (-1, 0)},
)


def test_low_dimension_matrices_are_pauli():
    assert tuple(dense([(ONE, g)]) for g in cl.gamma_matrices(2)) == PAULI[:2]
    assert tuple(dense([(ONE, g)]) for g in cl.gamma_matrices(3)) == PAULI


def test_d5_fifth_matrix_is_diag_identity():
    g5 = cl.gamma_matrices(5)[4]
    assert dense([(ONE, g5)]) == {(0, 0): (1, 0), (1, 1): (1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0)}


def test_dimension_cap():
    with pytest.raises(ValueError):
        cl.gamma_matrices(1)
    with pytest.raises(ValueError):
        cl.gamma_matrices(11)


@pytest.mark.parametrize("d", range(2, 9))
def test_clifford_relation_all_pairs(d):
    gammas = [[(ONE, g)] for g in cl.gamma_matrices(d)]
    n = 2 ** (d // 2)
    assert len(cl.gamma_matrices(d)[0][0]) == n
    two_eye = {(s, s): (2, 0) for s in range(n)}
    for i in range(d):
        for j in range(i, d):
            anti = dense(times(gammas[i], gammas[j]) + times(gammas[j], gammas[i]))
            assert anti == (two_eye if i == j else {}), (d, i, j)


@pytest.mark.parametrize("d", range(2, 9))
def test_spin_matrices_satisfy_rotation_algebra(d):
    # [S_ij, S_kl] = i(d_ik S_jl + d_il S_kj + d_jk S_li + d_jl S_ik), times 4
    idx = range(1, d + 1)
    for i, j, k, l in itertools.product(idx, repeat=4):
        a, b = spin2(d, i, j), spin2(d, k, l)
        lhs = dense(times(a, b) + scaled((-1, 0), times(b, a)))
        rhs = []
        for delta, target in ((i == k, (j, l)), (i == l, (k, j)), (j == k, (l, i)), (j == l, (i, k))):
            if delta:
                rhs += scaled((0, 2), spin2(d, *target))
        assert lhs == dense(rhs), (d, i, j, k, l)


@pytest.mark.parametrize("d", range(2, 9))
def test_spin_contraction_constant(d):
    # sum_i {S_ij, S_ik} = (d-1)/2 delta_jk as matrices, times 4
    n = 2 ** (d // 2)
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            acc = []
            for i in range(1, d + 1):
                sij, sik = spin2(d, i, j), spin2(d, i, k)
                acc += times(sij, sik) + times(sik, sij)
            expected = {(s, s): (2 * (d - 1), 0) for s in range(n)} if j == k else {}
            assert dense(acc) == expected, (d, j, k)


@pytest.mark.parametrize("d", range(2, 9))
def test_spin_matrix_is_the_commutator(d):
    # 4 S_ij = -i (g_i g_j - g_j g_i), and -(i/4)[g_i, g_i] = 0 has no monomial
    gammas = cl.gamma_matrices(d)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            gi, gj = gammas[i - 1], gammas[j - 1]
            definition = dense([((0, -1), cl.mono_mul(gi, gj)), ((0, 1), cl.mono_mul(gj, gi))])
            assert definition == dense(scaled((2, 0), spin2(d, i, j))), (d, i, j)
    with pytest.raises(cl.CliffordIndexError):
        cl.spin_matrix(d, 1, 1)


def test_spin_matrix_examples():
    # 2 S_12 = diag(1, -1) at d=2, and 2 S_45 = [[0, i], [-i, 0]] in 2x2 blocks at d=5
    assert dense(spin2(2, 1, 2)) == {(0, 0): (1, 0), (1, 1): (-1, 0)}
    assert dense(spin2(3, 1, 1)) == {}
    assert dense(spin2(5, 4, 5)) == {(0, 2): (0, 1), (1, 3): (0, 1), (2, 0): (0, -1), (3, 1): (0, -1)}


def test_spin_antisymmetry_and_hermiticity():
    for d in range(2, 9):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                sij = dense(spin2(d, i, j))
                assert sij == dense(scaled((-1, 0), spin2(d, j, i)))
                assert sij == conj_transpose(sij)


# -- fixtures ----------------------------------------------------------------


def test_reference_fixture_byte_match():
    assert cl.render_reference_fixture() == GOLDEN.read_text()


def test_fixture_blocks_have_headers():
    text = cl.render_fixture(3)
    assert text.startswith("gamma 3 1\n")
    assert "spin 3 2 3" in text


# -- Pauli quotient -----------------------------------------------------------


def test_pauli_quotient_matches_matrices():
    for word in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        q, reduced = cl.pauli_reduce_word(word)
        assert cl.word_matrix(3, word) == cl.mono_phase(cl.word_matrix(3, reduced), q), word
