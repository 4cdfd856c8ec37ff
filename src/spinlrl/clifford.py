"""Clifford algebra Cl_d: abstract reduced words and concrete gamma matrices.

The abstract side works with reduced words (strictly increasing index tuples)
under the relations g_i g_j + g_j g_i = 2 delta_ij; it is the engine's source
of truth.  The concrete side builds exact matrix representations: Pauli
matrices for d <= 3, the standard 4x4 blocks for d = 4, 5, and a doubling
recursion above that.  Matrices back the golden fixtures and the
function-application oracle, giving a code path independent of the word
algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .coeff import G_I, G_ONE, G_ZERO, GaussianRational

CliffordWord = Tuple[int, ...]
Matrix = Tuple[Tuple[GaussianRational, ...], ...]

GAMMA_DIM_CAP = 10


class CliffordIndexError(ValueError):
    pass


def check_word(word: CliffordWord, d: int) -> None:
    prev = 0
    for idx in word:
        if not 1 <= idx <= d:
            raise CliffordIndexError(f"generator index {idx} outside 1..{d}")
        if idx <= prev:
            raise CliffordIndexError(f"word {word} is not strictly increasing")
        prev = idx


def word_mul(w1: CliffordWord, w2: CliffordWord, d: int) -> tuple:
    """Reduced product of two words: returns (word, sign) with sign in {+1,-1}.

    Each generator of w2 is merged into w1 from the left, anticommuting past
    larger indices and cancelling against an equal one (g_i^2 = 1).
    """
    check_word(w1, d)
    check_word(w2, d)
    result = list(w1)
    sign = 1
    for gen in w2:
        pos = len(result)
        while pos > 0 and result[pos - 1] > gen:
            pos -= 1
            sign = -sign
        if pos > 0 and result[pos - 1] == gen:
            del result[pos - 1]
        else:
            result.insert(pos, gen)
    return tuple(result), sign


def word_adjoint(word: CliffordWord) -> tuple:
    """Hermitian adjoint of a word: the word itself times a reversal sign.

    Generators are self-adjoint, so the adjoint reverses the factors; sorting
    the reversed word back costs k(k-1)/2 transpositions.
    """
    k = len(word)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    return word, sign


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


def mat_from_ints(rows) -> Matrix:
    return tuple(tuple(GaussianRational.of(v) if isinstance(v, (int, Fraction, GaussianRational)) else v for v in row) for row in rows)


def mat_eye(n: int) -> Matrix:
    return tuple(tuple(G_ONE if i == j else G_ZERO for j in range(n)) for i in range(n))


def mat_zero(n: int) -> Matrix:
    return tuple((G_ZERO,) * n for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: GaussianRational, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    m = len(b[0])
    out = []
    for i in range(n):
        row = [G_ZERO] * m
        for k, aik in enumerate(a[i]):
            if not aik:
                continue
            brow = b[k]
            for j in range(m):
                bkj = brow[j]
                if bkj:
                    row[j] = row[j] + aik * bkj
        out.append(tuple(row))
    return tuple(out)


def mat_conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a[0])))


def _block(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    top = tuple(ra + rb for ra, rb in zip(tl, tr))
    bottom = tuple(ra + rb for ra, rb in zip(bl, br))
    return top + bottom


_SIGMA1 = mat_from_ints([[0, 1], [1, 0]])
_SIGMA2 = ((G_ZERO, GaussianRational(0, -1)), (G_I, G_ZERO))
_SIGMA3 = mat_from_ints([[1, 0], [0, -1]])

PAULI = (_SIGMA1, _SIGMA2, _SIGMA3)


class GammaRep:
    """Concrete gamma matrices for one dimension, Clifford-checked at build."""

    __slots__ = ("d", "matrices")

    def __init__(self, d: int, matrices: Tuple[Matrix, ...]):
        self.d = d
        self.matrices = matrices
        self._check()

    def _check(self) -> None:
        n = len(self.matrices[0])
        eye2 = mat_scale(GaussianRational(2), mat_eye(n))
        for i, gi in enumerate(self.matrices):
            for j in range(i, self.d):
                gj = self.matrices[j]
                anti = mat_add(mat_mul(gi, gj), mat_mul(gj, gi))
                expected = eye2 if i == j else mat_zero(n)
                if anti != expected:
                    raise AssertionError(
                        f"gamma matrices for d={self.d} violate the Clifford relation at ({i + 1},{j + 1})"
                    )

    def size(self) -> int:
        return len(self.matrices[0])


def _double(prev: Tuple[Matrix, ...]) -> Tuple[Matrix, ...]:
    n = len(prev[0])
    zero = mat_zero(n)
    eye = mat_eye(n)
    neg_i = GaussianRational(0, -1)
    out = []
    for g in prev:
        out.append(_block(zero, mat_scale(G_I, g), mat_scale(neg_i, g), zero))
    out.append(_block(zero, eye, eye, zero))
    out.append(_block(eye, zero, zero, mat_scale(GaussianRational(-1), eye)))
    return tuple(out)


@lru_cache(maxsize=None)
def gamma_matrices(d: int) -> GammaRep:
    """Gamma matrices of size 2^floor(d/2): Pauli for d<=3, 4x4 blocks for
    d=4,5, and the doubling recursion on the representation two below for
    d>=6."""
    if not 2 <= d <= GAMMA_DIM_CAP:
        raise ValueError(f"dimension {d} outside supported range 2..{GAMMA_DIM_CAP}")
    if d == 2:
        return GammaRep(2, (_SIGMA1, _SIGMA2))
    if d == 3:
        return GammaRep(3, PAULI)
    if d == 4:
        return GammaRep(4, _double(PAULI)[:4])
    if d == 5:
        return GammaRep(5, _double(PAULI))
    prev = gamma_matrices(d - 2).matrices
    return GammaRep(d, _double(prev))


class SpinMatrix:
    """Rotation generator -(i/4)(g_i g_j - g_j g_i) in the matrix picture."""

    __slots__ = ("i", "j", "matrix")

    def __init__(self, i: int, j: int, matrix: Matrix):
        self.i = i
        self.j = j
        self.matrix = matrix
        if matrix != mat_conj_transpose(matrix):
            raise AssertionError(f"spin matrix ({i},{j}) is not Hermitian")


def spin_matrix(d: int, i: int, j: int) -> SpinMatrix:
    rep = gamma_matrices(d)
    if not (1 <= i <= d and 1 <= j <= d):
        raise CliffordIndexError(f"spin indices ({i},{j}) outside 1..{d}")
    gi = rep.matrices[i - 1]
    gj = rep.matrices[j - 1]
    comm = mat_sub(mat_mul(gi, gj), mat_mul(gj, gi))
    quarter = GaussianRational(0, Fraction(-1, 4))
    return SpinMatrix(i, j, mat_scale(quarter, comm))


@lru_cache(maxsize=None)
def word_matrix(d: int, word: CliffordWord) -> Matrix:
    """Matrix of a reduced word in the concrete representation."""
    check_word(word, d)
    rep = gamma_matrices(d)
    out = mat_eye(rep.size())
    for idx in word:
        out = mat_mul(out, rep.matrices[idx - 1])
    return out


# ---------------------------------------------------------------------------
# d=3 Pauli quotient
# ---------------------------------------------------------------------------

# In the 2x2 representation the volume element g1 g2 g3 equals i, so every
# word of length >= 2 collapses to a scalar multiple of a shorter one.
_PAULI_QUOTIENT = {
    (1, 2): (G_I, (3,)),
    (1, 3): (GaussianRational(0, -1), (2,)),
    (2, 3): (G_I, (1,)),
    (1, 2, 3): (G_I, ()),
}


def pauli_reduce_word(word: CliffordWord) -> tuple:
    """Reduce a d=3 word modulo the Pauli relation g1 g2 g3 = i.

    Returns (scalar, word) with the word of length <= 1.
    """
    if len(word) <= 1:
        return G_ONE, word
    return _PAULI_QUOTIENT[tuple(word)]


# ---------------------------------------------------------------------------
# fixture rendering
# ---------------------------------------------------------------------------


def render_matrix(matrix: Matrix) -> str:
    return "\n".join(" ".join(str(entry) for entry in row) for row in matrix)


def render_fixture(d: int) -> str:
    """Fixture-format dump of all gamma and spin matrices at one dimension."""
    rep = gamma_matrices(d)
    blocks = []
    for i in range(1, d + 1):
        blocks.append(f"gamma {d} {i}\n{render_matrix(rep.matrices[i - 1])}")
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            blocks.append(f"spin {d} {i} {j}\n{render_matrix(spin_matrix(d, i, j).matrix)}")
    return "\n\n".join(blocks) + "\n"


def render_reference_fixture() -> str:
    """The d=2..5 fixture content that must match the versioned golden file."""
    return "\n".join(render_fixture(d) for d in range(2, 6))
