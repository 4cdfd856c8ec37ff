"""Builders for every named operator of the model at a fixed dimension.

All repeated-index sums are expanded at build time, so each builder returns a
concrete canonical OperatorExpr.  Builders are cached per (name, d, indices)
and therefore cheap to call repeatedly from the verification registry.

Conventions: the Hamiltonian couples through alpha/r^2 times (gamma . x); the
radial eigenproblem uses K = (gamma . x)(p^2/2 - E) with E kept symbolic; the
conserved vector in the Schroedinger picture is built both as B_i + x_i(H - E)
and from its closed form, which the suite checks to agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import weyl
from .coeff import P_ALPHA, P_E, P_I
from .weyl import OperatorExpr

HALF = Fraction(1, 2)
I = P_I


class IndexError_(ValueError):
    pass


def _check_index(d: int, *indices: int) -> None:
    for i in indices:
        if not 1 <= i <= d:
            raise IndexError_(f"operator index {i} outside 1..{d}")


# ---------------------------------------------------------------------------
# elementary contractions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def p_squared(d: int) -> OperatorExpr:
    return weyl.linear_combine([(1, weyl.p(d, i) ** 2) for i in range(1, d + 1)])


@lru_cache(maxsize=None)
def x_dot_p(d: int) -> OperatorExpr:
    return weyl.linear_combine([(1, weyl.multiply(weyl.x(d, i), weyl.p(d, i))) for i in range(1, d + 1)])


@lru_cache(maxsize=None)
def gamma_dot_x(d: int) -> OperatorExpr:
    return weyl.linear_combine([(1, weyl.multiply(weyl.x(d, i), weyl.gamma(d, i))) for i in range(1, d + 1)])


@lru_cache(maxsize=None)
def gamma_dot_p(d: int) -> OperatorExpr:
    return weyl.linear_combine([(1, weyl.multiply(weyl.p(d, i), weyl.gamma(d, i))) for i in range(1, d + 1)])


@lru_cache(maxsize=None)
def r_squared(d: int) -> OperatorExpr:
    return weyl.r_squared(d)


@lru_cache(maxsize=None)
def rinv2(d: int) -> OperatorExpr:
    return weyl.rinv2(d)


@lru_cache(maxsize=None)
def gx_over_r2(d: int) -> OperatorExpr:
    """(gamma . x) r^-2; position factors commute with the denominator."""
    return weyl.multiply(weyl.rinv2(d), gamma_dot_x(d))


# ---------------------------------------------------------------------------
# rotation generators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def angular(d: int, i: int, j: int) -> OperatorExpr:
    """Orbital rotation generator x_i p_j - x_j p_i."""
    _check_index(d, i, j)
    if i == j:
        return weyl.zero(d)
    return weyl.multiply(weyl.x(d, i), weyl.p(d, j)) - weyl.multiply(weyl.x(d, j), weyl.p(d, i))


@lru_cache(maxsize=None)
def spin(d: int, i: int, j: int) -> OperatorExpr:
    """Spin generator -(i/4)(g_i g_j - g_j g_i) as a Clifford-word operator."""
    _check_index(d, i, j)
    if i == j:
        return weyl.zero(d)
    gi, gj = weyl.gamma(d, i), weyl.gamma(d, j)
    quarter = P_I * Fraction(-1, 4)
    return quarter * (weyl.multiply(gi, gj) - weyl.multiply(gj, gi))


@lru_cache(maxsize=None)
def so_j(d: int, i: int, j: int) -> OperatorExpr:
    """Total rotation generator: orbital plus spin."""
    return angular(d, i, j) + spin(d, i, j)


@lru_cache(maxsize=None)
def dilation(d: int) -> OperatorExpr:
    """x . p - i(d-1)/2."""
    return x_dot_p(d) + weyl.scalar(d, P_I * Fraction(-(d - 1), 2))


@lru_cache(maxsize=None)
def boost_a(d: int, i: int) -> OperatorExpr:
    _check_index(d, i)
    xi = weyl.x(d, i)
    core = HALF * weyl.multiply(xi, p_squared(d)) - weyl.multiply(dilation(d), weyl.p(d, i)) + spin_dot_p(d, i)
    return core - HALF * xi


@lru_cache(maxsize=None)
def boost_m(d: int, i: int) -> OperatorExpr:
    _check_index(d, i)
    return boost_a(d, i) + weyl.x(d, i)


@lru_cache(maxsize=None)
def spin_dot_p(d: int, i: int) -> OperatorExpr:
    """Contraction sum_j S_ij p_j (the spin piece of the boosts)."""
    _check_index(d, i)
    parts = [(1, weyl.multiply(spin(d, i, j), weyl.p(d, j))) for j in range(1, d + 1) if j != i]
    return weyl.linear_combine(parts, d=d)


# ---------------------------------------------------------------------------
# Hamiltonian and radial operator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hamiltonian(d: int) -> OperatorExpr:
    """H = p^2/2 + alpha r^-2 (gamma . x)."""
    return HALF * p_squared(d) + P_ALPHA * gx_over_r2(d)


@lru_cache(maxsize=None)
def sturm_k(d: int) -> OperatorExpr:
    """K = (gamma . x)(p^2/2 - E) with symbolic E."""
    return weyl.multiply(gamma_dot_x(d), HALF * p_squared(d) - weyl.scalar(d, P_E))


# ---------------------------------------------------------------------------
# ladder sector
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gamma0(d: int) -> OperatorExpr:
    return HALF * weyl.multiply(gamma_dot_x(d), p_squared(d) + weyl.one(d))


@lru_cache(maxsize=None)
def gamma_d1(d: int) -> OperatorExpr:
    return HALF * weyl.multiply(gamma_dot_x(d), p_squared(d) - weyl.one(d))


@lru_cache(maxsize=None)
def gamma_i(d: int, i: int) -> OperatorExpr:
    _check_index(d, i)
    return weyl.multiply(gamma_dot_x(d), weyl.p(d, i))


# ---------------------------------------------------------------------------
# radial-picture invariants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def sturm_b(d: int, i: int) -> OperatorExpr:
    """B_i = x_i p^2/2 - (x.p - i(d-1)/2) p_i + S_ij p_j + E x_i."""
    _check_index(d, i)
    return sturm_b1(d, i) + sturm_b2(d, i)


@lru_cache(maxsize=None)
def sturm_b1(d: int, i: int) -> OperatorExpr:
    """Spin-independent part of B_i."""
    _check_index(d, i)
    xi = weyl.x(d, i)
    return HALF * weyl.multiply(xi, p_squared(d)) - weyl.multiply(dilation(d), weyl.p(d, i)) + P_E * xi


@lru_cache(maxsize=None)
def sturm_b2(d: int, i: int) -> OperatorExpr:
    """Spin part of B_i."""
    return spin_dot_p(d, i)


@lru_cache(maxsize=None)
def lrl(d: int, i: int) -> OperatorExpr:
    """Conserved vector in the Schroedinger picture: B_i + x_i (H - E)."""
    _check_index(d, i)
    return sturm_b(d, i) + weyl.multiply(weyl.x(d, i), hamiltonian(d) - weyl.scalar(d, P_E))


@lru_cache(maxsize=None)
def lrl_explicit(d: int, i: int) -> OperatorExpr:
    """Closed form: x_i p^2 - (x.p - i(d-1)/2) p_i + S_ij p_j + alpha x_i (gamma.x) r^-2."""
    _check_index(d, i)
    xi = weyl.x(d, i)
    return (
        weyl.multiply(xi, p_squared(d))
        - weyl.multiply(dilation(d), weyl.p(d, i))
        + spin_dot_p(d, i)
        + P_ALPHA * weyl.multiply(xi, gx_over_r2(d))
    )


# ---------------------------------------------------------------------------
# quadratic contractions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def j_squared(d: int) -> OperatorExpr:
    """J^2 = (1/2) J_ij J_ij summed over all index pairs."""
    parts = [(1, weyl.multiply(so_j(d, i, j), so_j(d, i, j))) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    return weyl.linear_combine(parts, d=d)


@lru_cache(maxsize=None)
def l_squared(d: int) -> OperatorExpr:
    parts = [(1, weyl.multiply(angular(d, i, j), angular(d, i, j))) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    return weyl.linear_combine(parts, d=d)


@lru_cache(maxsize=None)
def s_squared(d: int) -> OperatorExpr:
    parts = [(1, weyl.multiply(spin(d, i, j), spin(d, i, j))) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    return weyl.linear_combine(parts, d=d)


@lru_cache(maxsize=None)
def ls_contraction(d: int) -> OperatorExpr:
    """L_ij S_ij summed over all ordered pairs."""
    parts = [
        (1, weyl.multiply(angular(d, i, j), spin(d, i, j)))
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if i != j
    ]
    return weyl.linear_combine(parts, d=d)


@lru_cache(maxsize=None)
def casimir_q2(d: int) -> OperatorExpr:
    """Quadratic Casimir J^2 + A^2 - M^2 - T^2, built from the contractions."""
    a2 = weyl.linear_combine([(1, weyl.multiply(boost_a(d, i), boost_a(d, i))) for i in range(1, d + 1)])
    m2 = weyl.linear_combine([(1, weyl.multiply(boost_m(d, i), boost_m(d, i))) for i in range(1, d + 1)])
    t2 = weyl.multiply(dilation(d), dilation(d))
    return j_squared(d) + a2 - m2 - t2


# ---------------------------------------------------------------------------
# metric picture of the non-compact algebra
# ---------------------------------------------------------------------------


def metric_signature(d: int) -> tuple:
    """diag(1, ..., 1, -1) over the d+2 generator labels."""
    return (1,) * (d + 1) + (-1,)


@lru_cache(maxsize=None)
def lorentz_generator(d: int, a: int, b: int) -> OperatorExpr:
    """The antisymmetric generator family: rotations, both boosts, dilation.

    Labels run over 1..d+2 with (i, d+1) -> A_i, (i, d+2) -> M_i and
    (d+1, d+2) -> T.
    """
    if not (1 <= a <= d + 2 and 1 <= b <= d + 2):
        raise IndexError_(f"generator label ({a},{b}) outside 1..{d + 2}")
    if a == b:
        return weyl.zero(d)
    if a > b:
        return -lorentz_generator(d, b, a)
    if b <= d:
        return so_j(d, a, b)
    if b == d + 1:
        return boost_a(d, a)
    if a <= d:
        return boost_m(d, a)
    return dilation(d)


# ---------------------------------------------------------------------------
# three-dimensional vector forms
# ---------------------------------------------------------------------------

EPS3 = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}


def _require_d3(d: int) -> None:
    if d != 3:
        raise IndexError_("epsilon-contracted vector operators exist only at d=3")


def _vector_from(d: int, pair_builder, i: int) -> OperatorExpr:
    _require_d3(d)
    _check_index(d, i)
    parts = []
    for j in range(1, 4):
        for k in range(1, 4):
            sign = EPS3.get((i, j, k), 0)
            if sign:
                parts.append((Fraction(sign, 2), pair_builder(d, j, k)))
    return weyl.linear_combine(parts, d=d)


@lru_cache(maxsize=None)
def vector_j(d: int, i: int) -> OperatorExpr:
    return _vector_from(d, so_j, i)


@lru_cache(maxsize=None)
def vector_l(d: int, i: int) -> OperatorExpr:
    return _vector_from(d, angular, i)


@lru_cache(maxsize=None)
def vector_s(d: int, i: int) -> OperatorExpr:
    return _vector_from(d, spin, i)


@lru_cache(maxsize=None)
def x_dot_s(d: int) -> OperatorExpr:
    """sum_i x_i S_i at d=3."""
    _require_d3(d)
    return weyl.linear_combine([(1, weyl.multiply(weyl.x(d, i), vector_s(d, i))) for i in range(1, 4)])


@lru_cache(maxsize=None)
def p_dot_s(d: int) -> OperatorExpr:
    """sum_i p_i S_i at d=3."""
    _require_d3(d)
    return weyl.linear_combine([(1, weyl.multiply(weyl.p(d, i), vector_s(d, i))) for i in range(1, 4)])


# ---------------------------------------------------------------------------
# name dispatch (shared vocabulary with the expression language)
# ---------------------------------------------------------------------------

_NULLARY = {
    "H": hamiltonian,
    "K": sturm_k,
    "T": dilation,
    "G0": gamma0,
    "Gd1": gamma_d1,
    "Q2": casimir_q2,
    "J2": j_squared,
    "L2": l_squared,
    "S2": s_squared,
    "LS": ls_contraction,
    "XP": x_dot_p,
    "GX": gamma_dot_x,
    "GP": gamma_dot_p,
    "XS": x_dot_s,
    "PS": p_dot_s,
    "R2": r_squared,
    "P2": p_squared,
}

_UNARY = {
    "A": boost_a,
    "M": boost_m,
    "B": sturm_b,
    "B1": sturm_b1,
    "B2": sturm_b2,
    "G": gamma_i,
    "LRL": lrl,
    "Jvec": vector_j,
    "Lvec": vector_l,
    "Svec": vector_s,
}

_BINARY = {
    "J": so_j,
    "L": angular,
    "S": spin,
}

BUILDER_ARITY = {**{k: 0 for k in _NULLARY}, **{k: 1 for k in _UNARY}, **{k: 2 for k in _BINARY}}


def build(d: int, name: str, *indices: int) -> OperatorExpr:
    """Build a named operator; the name set doubles as the CLI vocabulary."""
    if name in _NULLARY:
        if indices:
            raise IndexError_(f"{name} takes no indices")
        return _NULLARY[name](d)
    if name in _UNARY:
        if len(indices) != 1:
            raise IndexError_(f"{name} takes exactly one index")
        return _UNARY[name](d, indices[0])
    if name in _BINARY:
        if len(indices) != 2:
            raise IndexError_(f"{name} takes exactly two indices")
        return _BINARY[name](d, *indices)
    raise KeyError(f"unknown operator name {name!r}")
