"""Clifford algebra Cl_d: abstract reduced words and concrete gamma matrices.

The abstract side works with reduced words (strictly increasing index tuples)
under the relations g_i g_j + g_j g_i = 2 delta_ij; it is the engine's source
of truth.  The concrete side builds exact matrix representations: Pauli
matrices for d <= 3, and a doubling recursion above that (on the Pauli
matrices for d = 4, 5).  Matrices back the golden fixtures and the
function-application oracle, giving a code path independent of the word
algebra.

Every gamma matrix, and so every word matrix, is monomial: each column has
one nonzero entry, a unit i^q.  A matrix is stored as ``(perm, phase)``, two
tuples of plain ints: column s has its entry i^phase[s] in row perm[s].  A
product composes the permutations and adds the phases mod 4.  Dense entries
appear only in the rendered text of the fixtures, printed from the ints.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .coeff import format_ints

CliffordWord = Tuple[int, ...]
Monomial = Tuple[Tuple[int, ...], Tuple[int, ...]]

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
# monomial matrices
# ---------------------------------------------------------------------------

# i^q as a Gaussian integer (re, im), for a phase exponent q = 0..3
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product a b: column s of b has its entry in row t = perm_b[s],
    and a sends row t on to row perm_a[t], adding its phase."""
    pa, qa = a
    pb, qb = b
    return tuple(pa[t] for t in pb), tuple((qa[t] + q) & 3 for t, q in zip(pb, qb))


def mono_phase(a: Monomial, q: int) -> Monomial:
    """i^q times a."""
    perm, phase = a
    return perm, tuple((p + q) & 3 for p in phase)


def _identity(n: int) -> Monomial:
    return tuple(range(n)), (0,) * n


# sigma_1 = [[0, 1], [1, 0]], sigma_2 = [[0, -i], [i, 0]], sigma_3 = [[1, 0], [0, -1]]
_PAULI = (((1, 0), (0, 0)), ((1, 0), (1, 3)), ((0, 1), (0, 2)))


def _double(prev: Tuple[Monomial, ...]) -> Tuple[Monomial, ...]:
    """[[0, i g], [-i g, 0]] for each g, then [[0, 1], [1, 0]] and [[1, 0], [0, -1]]."""
    n = len(prev[0][0])
    low, high = tuple(range(n)), tuple(range(n, 2 * n))
    out = []
    for perm, phase in prev:
        # column s < n meets the lower-left block -i g, column n + s the upper-right i g
        out.append((tuple(n + t for t in perm) + perm, tuple((q + 3) & 3 for q in phase) + tuple((q + 1) & 3 for q in phase)))
    out.append((high + low, (0,) * (2 * n)))
    out.append((low + high, (0,) * n + (2,) * n))
    return tuple(out)


@lru_cache(maxsize=None)
def gamma_matrices(d: int) -> Tuple[Monomial, ...]:
    """Gamma matrices of size 2^floor(d/2), Clifford-checked at build: Pauli
    for d<=3, the doubling recursion on the Pauli matrices for d=4,5, and on
    the representation two below for d>=6."""
    if not 2 <= d <= GAMMA_DIM_CAP:
        raise ValueError(f"dimension {d} outside supported range 2..{GAMMA_DIM_CAP}")
    if d <= 3:
        gammas = _PAULI[:d]
    elif d <= 5:
        gammas = _double(_PAULI)[:d]
    else:
        gammas = _double(gamma_matrices(d - 2))
    # g_i^2 = 1, and g_i g_j = -g_j g_i for i != j
    eye = _identity(len(gammas[0][0]))
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas[i:], i):
            if mono_mul(gi, gj) != (eye if i == j else mono_phase(mono_mul(gj, gi), 2)):
                raise AssertionError(f"gamma matrices for d={d} violate the Clifford relation at ({i + 1},{j + 1})")
    return gammas


def spin_matrix(d: int, i: int, j: int) -> Monomial:
    """Twice the rotation generator S_ij = -(i/4)(g_i g_j - g_j g_i) for i != j:
    the generators anticommute, so 2 S_ij = -i g_i g_j, a monomial."""
    if not (1 <= i <= d and 1 <= j <= d) or i == j:
        raise CliffordIndexError(f"spin indices ({i},{j}) are not two distinct indices in 1..{d}")
    gammas = gamma_matrices(d)
    return mono_phase(mono_mul(gammas[i - 1], gammas[j - 1]), 3)


@lru_cache(maxsize=None)
def word_matrix(d: int, word: CliffordWord) -> Monomial:
    """Matrix of a reduced word in the concrete representation."""
    check_word(word, d)
    gammas = gamma_matrices(d)
    out = _identity(len(gammas[0][0]))
    for idx in word:
        out = mono_mul(out, gammas[idx - 1])
    return out


# ---------------------------------------------------------------------------
# d=3 Pauli quotient
# ---------------------------------------------------------------------------

# In the 2x2 representation the volume element g1 g2 g3 equals i, so every
# word of length >= 2 collapses to a scalar multiple of a shorter one.
_PAULI_QUOTIENT = {
    (1, 2): (1, (3,)),
    (1, 3): (3, (2,)),
    (2, 3): (1, (1,)),
    (1, 2, 3): (1, ()),
}


def pauli_reduce_word(word: CliffordWord) -> tuple:
    """Reduce a d=3 word modulo the Pauli relation g1 g2 g3 = i.

    Returns (q, word): the word of length <= 1 times the unit i^q.
    """
    if len(word) <= 1:
        return 0, word
    return _PAULI_QUOTIENT[tuple(word)]


# ---------------------------------------------------------------------------
# fixture rendering
# ---------------------------------------------------------------------------


def render_matrix(matrix: Monomial, den: int = 1) -> str:
    """The dense text of a monomial matrix divided by ``den``."""
    perm, phase = matrix
    entries = [format_ints(den, {(0, 0): unit}) for unit in UNITS]
    rows = [["0"] * len(perm) for _ in perm]
    for s, (t, q) in enumerate(zip(perm, phase)):
        rows[t][s] = entries[q]
    return "\n".join(" ".join(row) for row in rows)


def render_fixture(d: int) -> str:
    """Fixture-format dump of all gamma and spin matrices at one dimension."""
    gammas = gamma_matrices(d)
    blocks = []
    for i in range(1, d + 1):
        blocks.append(f"gamma {d} {i}\n{render_matrix(gammas[i - 1])}")
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            blocks.append(f"spin {d} {i} {j}\n{render_matrix(spin_matrix(d, i, j), 2)}")
    return "\n\n".join(blocks) + "\n"


def render_reference_fixture() -> str:
    """The d=2..5 fixture content that must match the versioned golden file."""
    return "\n".join(render_fixture(d) for d in range(2, 6))
