"""Registry of all verified operator identities, suite runner, and reports.

Every check states one identity (or family over free indices) as a list of
(label, lhs, rhs) pairs of formal operator sums.  The engine proves a pair by
normalizing lhs - rhs to the canonical zero; the oracle confirms it by acting
with the factor chains on random spinor functions.  The identity itself is
never used to simplify itself: left and right sides are built independently
from the named operators.

How a check is stated.  A law over free indices is written once, by one of
three combinators that the registry table calls with the operator builders:

* ``closure(name, X, index_pairs, metric=None)``: the closure law
  [X_ij, X_kl] = i(g_i d_ik X_jl + g_i d_il X_kj + g_j d_jk X_li + g_j d_jl X_ik)
  of S and J, and of the so(d+1,1) generators with g = diag(1..1, -1);
* ``covariant(name, V)``: the vector law [J_ij, V_k] = i(d_ik V_j - d_jk V_i)
  of A, M, G, B and the conserved vector;
* ``family(label, a, b, rhs, indices, bracket=comm)``: one bracket per index
  tuple against its right side, vanishing ones included.

The other checks (contractions, squares, the appendix chains) have one-off
``_pr_*`` builders, which write the repeated sums sum_i X_i Y_i and
sum_{i != j} X_ij X_ij / 2 through ``_dot`` and ``_half_square``.  Either way
lhs and rhs stay separate formal sums, and a bracket enters only through
``comm`` (``acomm`` for the Clifford relation) as its two factor chains.
The oracle applies every chain as written, factor by factor; the engine
multiplies chains out, and sums the chains that end in one factor before
that factor multiplies them (``weyl.combine_products``).  So the two form
different products, and each is evidence for the other.

Checks carry a severity tier.  "transcription" marks identities whose failure
would most likely indicate a typo in the transcribed source formula; they are
reported with the minimal canonical residual instead of failing the run
(unless strict mode is on).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import __version__, ops, oracle, weyl
from .coeff import P_ALPHA, P_E, P_I, P_ONE, ParamPoly
from .oracle import SpinorFunction
from .weyl import OperatorExpr

MAX_DIMENSION = 8

SUITES = ("core", "sturm", "schrodinger", "appendix", "d3", "all")


# ---------------------------------------------------------------------------
# formal operator sums: sum of coeff * (factor_1 ... factor_n)
# ---------------------------------------------------------------------------


class OpSum:
    """A formal sum of scalar-weighted operator products.

    Kept unexpanded so the oracle can act by composing the factors, while the
    engine multiplies them out; both views must agree.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Sequence[tuple]):
        object.__setattr__(self, "d", d)
        clean = []
        for coeff, factors in terms:
            poly = ParamPoly.of(coeff)
            if poly:
                clean.append((poly, tuple(factors)))
        object.__setattr__(self, "terms", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("OpSum is immutable")

    def __add__(self, other: "OpSum") -> "OpSum":
        return OpSum(self.d, self.terms + other.terms)

    def to_expr(self) -> OperatorExpr:
        return weyl.combine_products(self.d, self.terms)

    def __neg__(self) -> "OpSum":
        flipped = OpSum.__new__(OpSum)
        object.__setattr__(flipped, "d", self.d)
        object.__setattr__(flipped, "terms", tuple((-c, f) for c, f in self.terms))
        return flipped

    def apply(self, f: SpinorFunction, apply_one: Optional[Callable] = None) -> SpinorFunction:
        """The sum acting on f, each factor chain applied right to left by
        ``apply_one(operator, function)``, which defaults to ``oracle.apply``."""
        if apply_one is None:
            apply_one = oracle.apply
        parts = []
        for coeff, factors in self.terms:
            g = f
            for factor in reversed(factors):
                g = apply_one(factor, g)
            parts.append((coeff, g))
        return oracle.linear_combine(self.d, parts)


def osum(d: int, *terms: tuple) -> OpSum:
    return OpSum(d, terms)


def of_expr(e: OperatorExpr, coeff=1) -> OpSum:
    return OpSum(e.d, [(coeff, (e,))])


def comm(a: OperatorExpr, b: OperatorExpr) -> OpSum:
    return OpSum(a.d, [(1, (a, b)), (-1, (b, a))])


def acomm(a: OperatorExpr, b: OperatorExpr) -> OpSum:
    return OpSum(a.d, [(1, (a, b)), (1, (b, a))])


def zero_sum(d: int) -> OpSum:
    return OpSum(d, [])


# ---------------------------------------------------------------------------
# check and result records
# ---------------------------------------------------------------------------

Pairs = List[Tuple[str, OpSum, OpSum]]


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    ref: str
    suite: str
    dims: Tuple[int, int]  # inclusive (dmin, dmax)
    pairs: Callable[[int], Pairs]
    tier: str = "core"
    pauli_quotient: bool = False

    def applicable(self, d: int) -> bool:
        return self.dims[0] <= d <= self.dims[1]


@dataclass(frozen=True)
class CheckResult:
    id: str
    d: int
    passed: bool
    residual: OperatorExpr
    failed_label: Optional[str]
    elapsed_ms: float

    @property
    def term_count(self) -> int:
        return self.residual.term_count()


@dataclass(frozen=True)
class Report:
    suite: str
    d: int
    results: Tuple[CheckResult, ...]
    version: str = __version__

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.passed)


# ---------------------------------------------------------------------------
# index families: each law stated once
# ---------------------------------------------------------------------------

I_ = P_I


def _idx(d: int):
    return range(1, d + 1)


def family(label: str, a: Callable, b: Callable, rhs: Callable, indices: Iterable[tuple], bracket: Callable = comm) -> Pairs:
    """One pair per index tuple ix: ``bracket(a(*ix), b(*ix))`` against the
    sum of the ``(scalar, factors)`` terms ``rhs(*ix)``, labelled
    ``label.format(*ix)``.  Index tuples of one index come from
    ``product(_idx(d))``."""
    out = []
    for ix in indices:
        lhs = bracket(a(*ix), b(*ix))
        out.append((label.format(*ix), lhs, OpSum(lhs.d, rhs(*ix))))
    return out


def vanishes(*ix) -> tuple:
    """The right side of a bracket that is zero."""
    return ()


def covariant(name: str, V: Callable[[int], OperatorExpr]) -> Pairs:
    """[J_ij, V_k] = i(d_ik V_j - d_jk V_i) for i < j and every k: V is a
    vector under rotations."""
    d = V(1).d
    return family(
        f"[J{{}}{{}},{name}{{}}]",
        lambda i, j, k: ops.so_j(d, i, j),
        lambda i, j, k: V(k),
        lambda i, j, k: [(I_ * (i == k), (V(j),)), (-I_ * (j == k), (V(i),))],
        [(i, j, k) for i, j in combinations(_idx(d), 2) for k in _idx(d)],
    )


def closure(name: str, X: Callable[[int, int], OperatorExpr], index_pairs: Iterable[tuple], metric: Optional[Sequence[int]] = None) -> Pairs:
    """[X_ij, X_kl] = i(g_i d_ik X_jl + g_i d_il X_kj + g_j d_jk X_li + g_j d_jl X_ik)
    for every (i, j) and (k, l) of index_pairs, with g_i = metric[i - 1]
    (1 without a metric): the so(n) and so(n-1,1) closure laws."""
    index_pairs = list(index_pairs)

    def g(i: int) -> int:
        return 1 if metric is None else metric[i - 1]

    out = []
    for i, j in index_pairs:
        for k, l in index_pairs:
            lhs = comm(X(i, j), X(k, l))
            terms = (
                (g(i) * (i == k), (j, l)),
                (g(i) * (i == l), (k, j)),
                (g(j) * (j == k), (l, i)),
                (g(j) * (j == l), (i, k)),
            )
            rhs = OpSum(lhs.d, [(I_ * c, (X(*ab),)) for c, ab in terms if c])
            out.append((f"[{name}{i}{j},{name}{k}{l}]", lhs, rhs))
    return out


def _interleave(*families: Pairs) -> Pairs:
    """The first pair of every family, then the second of every family, ..."""
    return [pair for pairs in zip(*families) for pair in pairs]


def _dot(d: int, X: Callable, Y: Callable) -> OpSum:
    """sum_i X_i Y_i for builders X(d, i) and Y(d, i)."""
    return OpSum(d, [(1, (X(d, i), Y(d, i))) for i in _idx(d)])


def _half_square(d: int, X: Callable) -> OpSum:
    """sum_{i != j} X_ij X_ij / 2 for a builder X(d, i, j)."""
    return OpSum(d, [(Fraction(1, 2), (X(d, i, j), X(d, i, j))) for i, j in product(_idx(d), repeat=2) if i != j])


# ---------------------------------------------------------------------------
# pair builders, Clifford and defining relations
# ---------------------------------------------------------------------------


def _pr_gx_square(d: int) -> Pairs:
    gx = ops.gamma_dot_x(d)
    return [("(g.x)^2 = r^2", osum(d, (1, (gx, gx))), of_expr(ops.r_squared(d)))]


def _pr_k_h_rel(d: int) -> Pairs:
    H, K = ops.hamiltonian(d), ops.sturm_k(d)
    gx = ops.gamma_dot_x(d)
    hme = H - weyl.scalar(d, P_E)
    kpa = K + weyl.scalar(d, P_ALPHA)
    return [
        ("K = (g.x)(H-E) - alpha", of_expr(K), osum(d, (1, (gx, hme)), (-P_ALPHA, ()))),
        ("H = rinv2 (g.x)(K+alpha) + E", of_expr(H), osum(d, (1, (ops.gx_over_r2(d), kpa)), (P_E, ()))),
    ]


# ---------------------------------------------------------------------------
# pair builders, non-compact algebra
# ---------------------------------------------------------------------------


def _pr_casimir_q2(d: int) -> Pairs:
    structured = _half_square(d, ops.so_j) + _dot(d, ops.boost_a, ops.boost_a) + -_dot(d, ops.boost_m, ops.boost_m)
    structured += osum(d, (-1, (ops.dilation(d), ops.dilation(d))))
    constant = osum(d, (Fraction(-(d - 1) * (d + 2), 8), ()))
    return [
        ("Q2 definition matches contraction builder", of_expr(ops.casimir_q2(d)), structured),
        ("Q2 = -(d-1)(d+2)/8", structured, constant),
    ]


def _pr_nonclose_g0gd1(d: int) -> Pairs:
    lhs = comm(ops.gamma0(d), ops.gamma_d1(d))
    rhs = osum(
        d,
        (I_, (ops.dilation(d),)),
        (Fraction(-(d - 1), 2), ()),
        (-1, (ops.ls_contraction(d),)),
    )
    return [("[G0,Gd1]", lhs, rhs)]


def _nonclose_vector_rhs(d: int, i: int, spin_sign: int) -> list:
    """Common tail of the ladder-commutator right sides.

    spin_sign is the sign of the lone S_ij x_j term: -1 pairs with p^2+1,
    +1 with p^2-1.
    """
    terms = []
    P2 = ops.p_squared(d)
    for j in _idx(d):
        if j == i:
            continue
        S = ops.spin(d, i, j)
        xj = weyl.x(d, j)
        terms.append((-1, (S, xj, P2)))
        terms.append((spin_sign, (S, xj)))
        terms.append((I_, (S, weyl.p(d, j))))
    terms.append((Fraction(-(d - 1), 2), (weyl.p(d, i),)))
    terms.append((-1, (ops.ls_contraction(d), weyl.p(d, i))))
    return terms


def _pr_nonclose_gig0(d: int) -> Pairs:
    out = []
    for i in _idx(d):
        lhs = comm(ops.gamma_i(d, i), ops.gamma0(d))
        rhs = OpSum(d, [(-I_, (ops.boost_m(d, i),))] + _nonclose_vector_rhs(d, i, -1))
        out.append((f"[G{i},G0]", lhs, rhs))
    return out


def _pr_nonclose_gigd1(d: int) -> Pairs:
    out = []
    for i in _idx(d):
        lhs = comm(ops.gamma_i(d, i), ops.gamma_d1(d))
        rhs = OpSum(d, [(-I_, (ops.boost_a(d, i),))] + _nonclose_vector_rhs(d, i, +1))
        out.append((f"[G{i},Gd1]", lhs, rhs))
    return out


def _pr_nonclose_gigj(d: int) -> Pairs:
    out = []
    for (i, j) in combinations(_idx(d), 2):
        lhs = comm(ops.gamma_i(d, i), ops.gamma_i(d, j))
        terms = [(-I_, (ops.so_j(d, i, j),)), (I_, (ops.spin(d, i, j),))]
        for k in _idx(d):
            terms.append((-2, (weyl.x(d, k), ops.spin(d, i, k), weyl.p(d, j))))
            terms.append((2, (weyl.x(d, k), ops.spin(d, j, k), weyl.p(d, i))))
        out.append((f"[G{i},G{j}]", lhs, OpSum(d, terms)))
    return out


def _pr_rel_gxgi(d: int) -> Pairs:
    gx = ops.gamma_dot_x(d)
    out = []
    for i in _idx(d):
        lhs = osum(d, (1, (gx, weyl.gamma(d, i))))
        terms = [(1, (weyl.x(d, i),))]
        for j in _idx(d):
            if j != i:
                terms.append((-2 * I_, (ops.spin(d, i, j), weyl.x(d, j))))
        out.append((f"(g.x)g{i}", lhs, OpSum(d, terms)))
    return out


def _pr_rel_gxgp(d: int) -> Pairs:
    lhs = osum(d, (1, (ops.gamma_dot_x(d), ops.gamma_dot_p(d))))
    rhs = osum(d, (1, (ops.x_dot_p(d),)), (I_, (ops.ls_contraction(d),)))
    return [("(g.x)(g.p)", lhs, rhs)]


def _pr_cas_gamma(d: int) -> Pairs:
    lhs = osum(
        d,
        (1, (ops.gamma0(d), ops.gamma0(d))),
        (-1, (ops.gamma_d1(d), ops.gamma_d1(d))),
        (-1, (ops.dilation(d), ops.dilation(d))),
    )
    rhs = osum(d, (1, (ops.j_squared(d),)), (Fraction((d - 1) * (d - 2), 8), ()))
    return [("G0^2 - Gd1^2 - T^2", lhs, rhs)]


# ---------------------------------------------------------------------------
# pair builders, radial picture
# ---------------------------------------------------------------------------


def _pr_k_decomp(d: int) -> Pairs:
    one_minus = (P_ONE - 2 * P_E) * Fraction(1, 2)
    one_plus = (P_ONE + 2 * P_E) * Fraction(1, 2)
    rhs = osum(d, (one_minus, (ops.gamma0(d),)), (one_plus, (ops.gamma_d1(d),)))
    return [("K from ladder pair", of_expr(ops.sturm_k(d)), rhs)]


def _pr_b_explicit(d: int) -> Pairs:
    one_minus = (P_ONE - 2 * P_E) * Fraction(1, 2)
    one_plus = (P_ONE + 2 * P_E) * Fraction(1, 2)
    out = []
    for i in _idx(d):
        rhs = osum(d, (one_minus, (ops.boost_a(d, i),)), (one_plus, (ops.boost_m(d, i),)))
        out.append((f"B{i} from boosts", of_expr(ops.sturm_b(d, i)), rhs))
    return out


def _b_square_common_terms(d: int) -> list:
    R2, P2, XP = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d)
    return [
        (P_E, (R2, P2)),
        (-2 * P_E, (XP, XP)),
        (I_ * (2 * d - 3) * P_E, (XP,)),
        (P_E * Fraction(d * (d - 1), 2), ()),
        (P_E * P_E, (R2,)),
    ]


def _pr_b1_square(d: int) -> Pairs:
    R2, P2, T = ops.r_squared(d), ops.p_squared(d), ops.dilation(d)
    lhs = _dot(d, ops.sturm_b1, ops.sturm_b1)
    rhs = OpSum(d, [(Fraction(1, 4), (R2, P2, P2)), (I_ * Fraction(-1, 2), (T, P2))] + _b_square_common_terms(d))
    return [("(B1)^2", lhs, rhs)]


def _pr_b_cross(d: int) -> Pairs:
    lhs = _dot(d, ops.sturm_b1, ops.sturm_b2) + _dot(d, ops.sturm_b2, ops.sturm_b1)
    rhs = osum(d, (Fraction(1, 2), (ops.ls_contraction(d), ops.p_squared(d))), (P_E, (ops.ls_contraction(d),)))
    return [("B1.B2 + B2.B1", lhs, rhs)]


def _pr_b2_square(d: int) -> Pairs:
    lhs = _dot(d, ops.sturm_b2, ops.sturm_b2)
    contracted = OpSum(
        d,
        [
            (1, (ops.spin(d, i, j), ops.spin(d, i, k), weyl.p(d, j), weyl.p(d, k)))
            for i in _idx(d)
            for j in _idx(d)
            for k in _idx(d)
        ],
    )
    symmetrized = OpSum(
        d,
        [
            (Fraction(1, 2), (s1, s2, weyl.p(d, j), weyl.p(d, k)))
            for i in _idx(d)
            for j in _idx(d)
            for k in _idx(d)
            for (s1, s2) in ((ops.spin(d, i, j), ops.spin(d, i, k)), (ops.spin(d, i, k), ops.spin(d, i, j)))
        ],
    )
    constant = osum(d, (Fraction(d - 1, 4), (ops.p_squared(d),)))
    return [
        ("(B2)^2 = S_ij S_ik p_j p_k", lhs, contracted),
        ("(B2)^2 symmetrized", lhs, symmetrized),
        ("(B2)^2 = (d-1)p^2/4", lhs, constant),
    ]


def _pr_s_anticomm(d: int) -> Pairs:
    out = []
    for j in _idx(d):
        for k in _idx(d):
            terms = []
            for i in _idx(d):
                terms.append((1, (ops.spin(d, i, j), ops.spin(d, i, k))))
                terms.append((1, (ops.spin(d, i, k), ops.spin(d, i, j))))
            rhs = osum(d, (Fraction((d - 1) * (j == k), 2), ()))
            out.append((f"sum_i {{S_i{j},S_i{k}}}", OpSum(d, terms), rhs))
    return out


def _pr_b_square(d: int) -> Pairs:
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    lhs = _dot(d, ops.sturm_b, ops.sturm_b)
    rhs = OpSum(
        d,
        [
            (Fraction(1, 4), (R2, P2, P2)),
            (I_ * Fraction(-1, 2), (XP, P2)),
            (Fraction(1, 2), (LS, P2)),
            (P_E, (LS,)),
        ]
        + _b_square_common_terms(d),
    )
    return [("B^2 explicit", lhs, rhs)]


def _pr_k_square(d: int) -> Pairs:
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    K = ops.sturm_k(d)
    bracket = comm(P2, ops.gamma_dot_x(d))
    bracket_rhs = osum(d, (-2 * I_, (ops.gamma_dot_p(d),)))
    rhs = osum(
        d,
        (Fraction(1, 4), (R2, P2, P2)),
        (I_ * Fraction(-1, 2), (XP, P2)),
        (Fraction(1, 2), (LS, P2)),
        (-P_E, (R2, P2)),
        (I_ * P_E, (XP,)),
        (-P_E, (LS,)),
        (P_E * P_E, (R2,)),
    )
    return [
        ("[p^2, g.x] = -2i g.p (plus-sign reading)", bracket, bracket_rhs),
        ("K^2 explicit", osum(d, (1, (K, K))), rhs),
    ]


def _pr_b2_k2_j2(d: int) -> Pairs:
    lhs = _dot(d, ops.sturm_b, ops.sturm_b)
    rhs = osum(
        d,
        (1, (ops.sturm_k(d), ops.sturm_k(d))),
        (2 * P_E, (ops.j_squared(d),)),
        (P_E * Fraction(d * (d - 1), 4), ()),
    )
    return [("B^2 = K^2 + 2E(J^2 + d(d-1)/8)", lhs, rhs)]


# ---------------------------------------------------------------------------
# pair builders, Schroedinger picture
# ---------------------------------------------------------------------------


def _pr_xh_comm(d: int) -> Pairs:
    H = ops.hamiltonian(d)
    half_p2 = Fraction(1, 2) * ops.p_squared(d)
    out = []
    for i in _idx(d):
        rhs = osum(d, (I_, (weyl.p(d, i),)))
        out.append((f"[x{i},H]", comm(weyl.x(d, i), H), rhs))
        out.append((f"[x{i},p^2/2]", comm(weyl.x(d, i), half_p2), rhs))
    return out


def _pr_bh_chain(d: int) -> Pairs:
    H, K = ops.hamiltonian(d), ops.sturm_k(d)
    Y = ops.gx_over_r2(d)
    gx = ops.gamma_dot_x(d)
    kpa = K + weyl.scalar(d, P_ALPHA)
    hme = H - weyl.scalar(d, P_E)
    out = []
    for i in _idx(d):
        B = ops.sturm_b(d, i)
        comm_by_kpa = osum(d, (1, (B, Y, kpa)), (-1, (Y, B, kpa)))
        comm_by_gx_hme = osum(d, (1, (B, Y, gx, hme)), (-1, (Y, B, gx, hme)))
        out.append((f"[B{i},H] = [B{i},Y](K+alpha)", comm(B, H), comm_by_kpa))
        out.append((f"[B{i},Y](K+alpha) = [B{i},Y](g.x)(H-E)", comm_by_kpa, comm_by_gx_hme))
        out.append(
            (
                f"[B{i},Y](g.x) = -i p{i}",
                osum(d, (1, (B, Y, gx)), (-1, (Y, B, gx))),
                osum(d, (-I_, (weyl.p(d, i),))),
            )
        )
        out.append((f"[B{i},Y] = -i p{i} Y", comm(B, Y), osum(d, (-I_, (weyl.p(d, i), Y)))))
    return out


def _pr_lrl_explicit(d: int) -> Pairs:
    out = []
    for i in _idx(d):
        xi = weyl.x(d, i)
        rhs = osum(
            d,
            (1, (xi, ops.p_squared(d))),
            (-1, (ops.dilation(d), weyl.p(d, i))),
            (1, (ops.sturm_b2(d, i),)),
            (P_ALPHA, (xi, ops.gx_over_r2(d))),
        )
        out.append((f"LRL{i} closed form", of_expr(ops.lrl(d, i)), rhs))
        out.append((f"LRL{i} builder agreement", of_expr(ops.lrl(d, i)), of_expr(ops.lrl_explicit(d, i))))
    return out


def _pr_lrl_aux_1(d: int) -> Pairs:
    H = ops.hamiltonian(d)
    hme = H - weyl.scalar(d, P_E)
    out = []
    for (i, j) in combinations(_idx(d), 2):
        Bi, Bj = ops.sturm_b(d, i), ops.sturm_b(d, j)
        xi, xj = weyl.x(d, i), weyl.x(d, j)
        lhs = osum(
            d,
            (1, (Bi, xj, hme)),
            (-1, (xj, hme, Bi)),
            (-1, (Bj, xi, hme)),
            (1, (xi, hme, Bj)),
        )
        rhs = osum(d, (-2 * I_, (ops.so_j(d, i, j), hme)), (I_, (ops.angular(d, i, j), hme)))
        out.append((f"[B{i},x{j}(H-E)] antisymmetrized", lhs, rhs))
    return out


def _pr_lrl_aux_2(d: int) -> Pairs:
    hme = ops.hamiltonian(d) - weyl.scalar(d, P_E)
    out = []
    for (i, j) in combinations(_idx(d), 2):
        xi, xj = weyl.x(d, i), weyl.x(d, j)
        lhs = osum(d, (1, (xi, hme, xj, hme)), (-1, (xj, hme, xi, hme)))
        rhs = osum(d, (-I_, (ops.angular(d, i, j), hme)))
        out.append((f"[x{i}(H-E),x{j}(H-E)]", lhs, rhs))
    return out


def _pr_lrl_aux_3(d: int) -> Pairs:
    T = ops.dilation(d)
    out = []
    for i in _idx(d):
        for j in _idx(d):
            Bi = ops.sturm_b(d, i)
            lhs = comm(Bi, weyl.x(d, j))
            diff = ops.boost_m(d, j) - ops.boost_a(d, j)
            out.append((f"[B{i},x{j}] via boosts", lhs, comm(Bi, diff)))
            rhs = osum(d, (I_ * (i == j), (T,)), (-I_, (ops.so_j(d, i, j),)))
            out.append((f"[B{i},x{j}]", lhs, rhs))
    return out


def _pr_lrl_square(d: int) -> Pairs:
    lhs = _dot(d, ops.lrl, ops.lrl)
    rhs = osum(
        d,
        (2, (ops.hamiltonian(d), ops.j_squared(d))),
        (Fraction(d * (d - 1), 4), (ops.hamiltonian(d),)),
        (P_ALPHA * P_ALPHA, ()),
    )
    return [("LRL^2 = 2H(J^2 + d(d-1)/8) + alpha^2", lhs, rhs)]


# ---------------------------------------------------------------------------
# pair builders, d=3 vector identities
# ---------------------------------------------------------------------------


def _pr_d3_dots(d: int) -> Pairs:
    XS, PS, XP, P2 = ops.x_dot_s(3), ops.p_dot_s(3), ops.x_dot_p(3), ops.p_squared(3)
    return [
        ("L.B1 = 0", _dot(3, ops.vector_l, ops.sturm_b1), zero_sum(3)),
        ("L.B2", _dot(3, ops.vector_l, ops.sturm_b2), osum(3, (1, (XP, PS)), (-1, (XS, P2)))),
        ("S.B1", _dot(3, ops.vector_s, ops.sturm_b1), osum(3, (Fraction(1, 2), (XS, P2)), (-1, (XP, PS)), (I_, (PS,)), (P_E, (XS,)))),
        ("S.B2", _dot(3, ops.vector_s, ops.sturm_b2), osum(3, (-I_, (PS,)))),
    ]


def _pr_jb_dot(d: int) -> Pairs:
    rhs = osum(3, (Fraction(-1, 2), (ops.x_dot_s(3), ops.p_squared(3))), (P_E, (ops.x_dot_s(3),)))
    return [("J.B = -(x.S)(p^2/2 - E)", _dot(3, ops.vector_j, ops.sturm_b), rhs)]


def _pr_jb_dot_sigma(d: int) -> Pairs:
    rhs = osum(3, (Fraction(-1, 2), (ops.sturm_k(3),)))
    return [("J.B = -K/2 (Pauli)", _dot(3, ops.vector_j, ops.sturm_b), rhs)]


def _pr_ja_dot(d: int) -> Pairs:
    rhs = osum(3, (P_ALPHA * Fraction(1, 2), ()))
    return [("J.LRL = alpha/2 (Pauli)", _dot(3, ops.vector_j, ops.lrl), rhs)]


# ---------------------------------------------------------------------------
# pair builders, appendix A: Casimir reductions
# ---------------------------------------------------------------------------


def _pr_app_a_j2(d: int) -> Pairs:
    J2 = ops.j_squared(d)
    split_terms = []
    for i in _idx(d):
        for j in _idx(d):
            if i == j:
                continue
            L, S = ops.angular(d, i, j), ops.spin(d, i, j)
            split_terms += [(Fraction(1, 2), (L, L)), (1, (L, S)), (Fraction(1, 2), (S, S))]
    reduced = osum(
        d,
        (1, (ops.r_squared(d), ops.p_squared(d))),
        (-1, (ops.x_dot_p(d), ops.x_dot_p(d))),
        (I_ * (d - 2), (ops.x_dot_p(d),)),
        (1, (ops.ls_contraction(d),)),
        (Fraction(d * (d - 1), 8), ()),
    )
    return [
        ("J^2 = J_ij J_ij / 2", of_expr(J2), _half_square(d, ops.so_j)),
        ("J^2 split into L, LS, S", of_expr(J2), OpSum(d, split_terms)),
        ("J^2 reduced", of_expr(J2), reduced),
    ]


def _pr_app_a_ll(d: int) -> Pairs:
    rhs = osum(
        d,
        (1, (ops.r_squared(d), ops.p_squared(d))),
        (-1, (ops.x_dot_p(d), ops.x_dot_p(d))),
        (I_ * (d - 2), (ops.x_dot_p(d),)),
    )
    return [("L_ij L_ij / 2", _half_square(d, ops.angular), rhs)]


def _pr_app_a_ss(d: int) -> Pairs:
    return [("S_ij S_ij / 2 = d(d-1)/8", _half_square(d, ops.spin), osum(d, (Fraction(d * (d - 1), 8), ())))]


def _pr_app_a_am2(d: int) -> Pairs:
    lhs = _dot(d, ops.boost_a, ops.boost_a) + -_dot(d, ops.boost_m, ops.boost_m)
    anticomm_terms = []
    for i in _idx(d):
        core = ops.boost_a(d, i) + Fraction(1, 2) * weyl.x(d, i)  # the common boost core
        xi = weyl.x(d, i)
        anticomm_terms += [(-1, (core, xi)), (-1, (xi, core))]
    reduced = osum(
        d,
        (-1, (ops.r_squared(d), ops.p_squared(d))),
        (2, (ops.x_dot_p(d), ops.x_dot_p(d))),
        (I_ * -(2 * d - 3), (ops.x_dot_p(d),)),
        (-1, (ops.ls_contraction(d),)),
        (Fraction(-d * (d - 1), 2), ()),
    )
    return [
        ("A^2 - M^2 as anticommutator", lhs, OpSum(d, anticomm_terms)),
        ("A^2 - M^2 reduced", lhs, reduced),
    ]


def _pr_app_a_t2(d: int) -> Pairs:
    T = ops.dilation(d)
    rhs = osum(
        d,
        (1, (ops.x_dot_p(d), ops.x_dot_p(d))),
        (I_ * -(d - 1), (ops.x_dot_p(d),)),
        (Fraction(-(d - 1) * (d - 1), 4), ()),
    )
    return [("T^2 reduced", osum(d, (1, (T, T))), rhs)]


def _pr_app_a_g2(d: int) -> Pairs:
    G0, Gd1, T = ops.gamma0(d), ops.gamma_d1(d), ops.dilation(d)
    gdiff = osum(d, (1, (G0, G0)), (-1, (Gd1, Gd1)))
    with_gammas = osum(d, (1, (ops.gamma_dot_x(d), ops.gamma_dot_x(d), ops.p_squared(d))), (-I_, (ops.gamma_dot_x(d), ops.gamma_dot_p(d))))
    reduced = osum(d, (1, (ops.r_squared(d), ops.p_squared(d))), (-I_, (ops.x_dot_p(d),)), (1, (ops.ls_contraction(d),)))
    full = gdiff + osum(d, (-1, (T, T)))
    full_rhs = osum(
        d,
        (1, (ops.r_squared(d), ops.p_squared(d))),
        (-1, (ops.x_dot_p(d), ops.x_dot_p(d))),
        (I_ * (d - 2), (ops.x_dot_p(d),)),
        (1, (ops.ls_contraction(d),)),
        (Fraction((d - 1) * (d - 1), 4), ()),
    )
    return [
        ("G0^2 - Gd1^2 via (g.x)(g.p)", gdiff, with_gammas),
        ("G0^2 - Gd1^2 reduced", gdiff, reduced),
        ("G0^2 - Gd1^2 - T^2 reduced", full, full_rhs),
    ]


# ---------------------------------------------------------------------------
# pair builders, appendix B: commutators with (g.x)/r^2
# ---------------------------------------------------------------------------


def _pr_app_b1(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R = ops.rinv2(d)
    out = []
    for i in _idx(d):
        rhs = osum(d, (-I_, (R, weyl.gamma(d, i))), (2 * I_, (R, R, weyl.x(d, i), ops.gamma_dot_x(d))))
        out.append((f"[p{i}, Y]", comm(weyl.p(d, i), Y), rhs))
    return out


def _pr_app_b2(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R = ops.rinv2(d)
    rhs = osum(
        d,
        (-2 * I_, (R, ops.gamma_dot_p(d))),
        (4 * I_, (R, R, ops.gamma_dot_x(d), ops.x_dot_p(d))),
        (2 * (d - 2), (R, R, ops.gamma_dot_x(d))),
    )
    return [("[p^2, Y]", comm(ops.p_squared(d), Y), rhs)]


def _pr_app_b3(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    rhs = osum(d, (I_, (ops.rinv2(d), ops.gamma_dot_x(d))))
    return [("[x.p, Y]", comm(ops.x_dot_p(d), Y), rhs)]


def _pr_app_b4(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R = ops.rinv2(d)
    GX, XP = ops.gamma_dot_x(d), ops.x_dot_p(d)
    out = []
    for i in _idx(d):
        tp = weyl.multiply(ops.dilation(d), weyl.p(d, i))
        gi, xi = weyl.gamma(d, i), weyl.x(d, i)
        rhs = osum(
            d,
            (-I_, (R, gi, XP)),
            (Fraction(-(d - 5), 2), (R, gi)),
            (2 * I_, (R, R, xi, GX, XP)),
            (d - 5, (R, R, xi, GX)),
            (I_, (R, GX, weyl.p(d, i))),
        )
        out.append((f"[T p{i}, Y]", comm(tp, Y), rhs))
    return out


def _pr_app_b5(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R = ops.rinv2(d)
    GX, GP, XP = ops.gamma_dot_x(d), ops.gamma_dot_p(d), ops.x_dot_p(d)
    out = []
    for i in _idx(d):
        lhs = comm(ops.sturm_b2(d, i), Y)
        gi, xi = weyl.gamma(d, i), weyl.x(d, i)
        first_terms = []
        for j in _idx(d):
            if j == i:
                continue
            S = ops.spin(d, i, j)
            first_terms.append((-I_, (S, R, weyl.gamma(d, j))))
            first_terms.append((2 * I_, (S, R, R, weyl.x(d, j), GX)))
        first_terms.append((I_, (R, xi, GP)))
        first_terms.append((-I_, (R, gi, XP)))
        second = osum(
            d,
            (-I_, (R, gi, XP)),
            (Fraction(-(d - 3), 2), (R, gi)),
            (-1, (R, R, xi, GX)),
            (I_, (R, xi, GP)),
        )
        out.append((f"[S{i}j p_j, Y] expanded", lhs, OpSum(d, first_terms)))
        out.append((f"[S{i}j p_j, Y] reduced", lhs, second))
    return out


def _pr_app_b6(d: int) -> Pairs:
    GX = ops.gamma_dot_x(d)
    out = []
    for i in _idx(d):
        sg = OpSum(d, [(1, (ops.spin(d, i, j), weyl.gamma(d, j))) for j in _idx(d) if j != i])
        sg_rhs = osum(d, (I_ * Fraction(-(d - 1), 2), (weyl.gamma(d, i),)))
        out.append((f"S{i}j g_j", sg, sg_rhs))
        sx = OpSum(d, [(1, (ops.spin(d, i, j), weyl.x(d, j))) for j in _idx(d) if j != i])
        sx_rhs = osum(d, (I_ * Fraction(-1, 2), (weyl.gamma(d, i), GX)), (I_ * Fraction(1, 2), (weyl.x(d, i),)))
        out.append((f"S{i}j x_j", sx, sx_rhs))
    return out


def _pr_app_b7(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R = ops.rinv2(d)
    GX = ops.gamma_dot_x(d)
    out = []
    for i in _idx(d):
        rhs = osum(
            d,
            (2, (R, R, weyl.x(d, i), GX)),
            (-1, (R, weyl.gamma(d, i))),
            (-I_, (R, GX, weyl.p(d, i))),
        )
        out.append((f"[B{i}, Y]", comm(ops.sturm_b(d, i), Y), rhs))
    return out


# ---------------------------------------------------------------------------
# pair builders, appendix C: squared conserved vector
# ---------------------------------------------------------------------------


def _xhme_squared(d: int) -> OpSum:
    hme = ops.hamiltonian(d) - weyl.scalar(d, P_E)
    return OpSum(d, [(1, (weyl.x(d, i), hme, weyl.x(d, i), hme)) for i in _idx(d)])


def _pr_app_c2(d: int) -> Pairs:
    hme = ops.hamiltonian(d) - weyl.scalar(d, P_E)
    rhs = osum(d, (1, (ops.r_squared(d), hme, hme)), (-I_, (ops.x_dot_p(d), hme)))
    return [("x(H-E).x(H-E)", _xhme_squared(d), rhs)]


def _pr_app_c3(d: int) -> Pairs:
    hme = ops.hamiltonian(d) - weyl.scalar(d, P_E)
    Y, R = ops.gx_over_r2(d), ops.rinv2(d)
    P2, XP, LS = ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    rhs = osum(
        d,
        (Fraction(1, 4), (P2, P2)),
        (P_ALPHA, (Y, P2)),
        (I_ * P_ALPHA, (Y, R, XP)),
        (P_ALPHA * (d - 2), (Y, R)),
        (P_ALPHA, (Y, R, LS)),
        (P_ALPHA * P_ALPHA, (R,)),
        (-P_E, (P2,)),
        (-2 * P_E * P_ALPHA, (Y,)),
        (P_E * P_E, ()),
    )
    return [("(H-E)^2", osum(d, (1, (hme, hme))), rhs)]


def _pr_app_c4(d: int) -> Pairs:
    hme = ops.hamiltonian(d) - weyl.scalar(d, P_E)
    Y = ops.gx_over_r2(d)
    P2, XP = ops.p_squared(d), ops.x_dot_p(d)
    lhs = osum(d, (-I_, (XP, hme)))
    rhs = osum(
        d,
        (I_ * Fraction(-1, 2), (XP, P2)),
        (-I_ * P_ALPHA, (Y, XP)),
        (P_ALPHA, (Y,)),
        (I_ * P_E, (XP,)),
    )
    return [("-i x.p (H-E)", lhs, rhs)]


def _pr_app_c5(d: int) -> Pairs:
    R2, P2, XP, GX, R, LS = (
        ops.r_squared(d),
        ops.p_squared(d),
        ops.x_dot_p(d),
        ops.gamma_dot_x(d),
        ops.rinv2(d),
        ops.ls_contraction(d),
    )
    rhs = osum(
        d,
        (Fraction(1, 4), (R2, P2, P2)),
        (I_ * Fraction(-1, 2), (XP, P2)),
        (P_ALPHA, (GX, P2)),
        (P_ALPHA * (d - 1), (GX, R)),
        (P_ALPHA, (GX, R, LS)),
        (P_ALPHA * P_ALPHA, ()),
        (-P_E, (R2, P2)),
        (I_ * P_E, (XP,)),
        (-2 * P_E * P_ALPHA, (GX,)),
        (P_E * P_E, (R2,)),
    )
    return [("x(H-E).x(H-E) reduced", _xhme_squared(d), rhs)]


def _pr_app_c6(d: int) -> Pairs:
    lhs = osum(d, (-I_, (ops.gamma_dot_p(d),)))
    rhs = osum(d, (-I_, (ops.gx_over_r2(d), ops.x_dot_p(d))), (1, (ops.gx_over_r2(d), ops.ls_contraction(d))))
    return [("-i g.p via Y", lhs, rhs)]


def _c7_w_terms(d: int, tail: tuple) -> list:
    """W = r^2 p^2 - 2(x.p)^2 + 2i(d-1) x.p + LS + d(d-1)/2 + 2E r^2, times tail."""
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    return [
        (1, (R2, P2) + tail),
        (-2, (XP, XP) + tail),
        (I_ * 2 * (d - 1), (XP,) + tail),
        (1, (LS,) + tail),
        (Fraction(d * (d - 1), 2), tail),
        (2 * P_E, (R2,) + tail),
    ]


def _w_expr(d: int) -> OperatorExpr:
    return OpSum(d, _c7_w_terms(d, ())).to_expr()


def _mixed_terms(d: int) -> OpSum:
    """x(H-E).B + B.x(H-E): the first side of APP-C-7, the left side of APP-C-13."""
    hme = ops.hamiltonian(d) - weyl.scalar(d, P_E)
    terms = []
    for i in _idx(d):
        xi, Bi = weyl.x(d, i), ops.sturm_b(d, i)
        terms += [(1, (xi, hme, Bi)), (1, (Bi, xi, hme))]
    return OpSum(d, terms)


def _pr_app_c7(d: int) -> Pairs:
    H = ops.hamiltonian(d)
    hme = H - weyl.scalar(d, P_E)
    T, XP = ops.dilation(d), ops.x_dot_p(d)
    e2_terms = []
    for i in _idx(d):
        xi, Bi = weyl.x(d, i), ops.sturm_b(d, i)
        e2_terms += [(1, (xi, Bi, hme)), (1, (Bi, xi, hme))]
    e2_terms.append((I_, (XP, hme)))
    e2 = OpSum(d, e2_terms)
    e3_terms = [(2, (weyl.x(d, i), ops.sturm_b(d, i), hme)) for i in _idx(d)]
    e3_terms += [(I_ * d, (T, hme)), (I_, (XP, hme))]
    e3 = OpSum(d, e3_terms)
    e4 = OpSum(d, _c7_w_terms(d, (hme,)))
    return [
        ("x(H-E).B + B.x(H-E), step 1", _mixed_terms(d), e2),
        ("x(H-E).B + B.x(H-E), step 2", e2, e3),
        ("x(H-E).B + B.x(H-E), step 3", e3, e4),
    ]


def _w_kinetic(d: int) -> OpSum:
    """W p^2/2 reduced: the right side of APP-C-8."""
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    return osum(
        d,
        (Fraction(1, 2), (R2, P2, P2)),
        (-1, (XP, XP, P2)),
        (I_ * (d - 1), (XP, P2)),
        (Fraction(1, 2), (LS, P2)),
        (Fraction(d * (d - 1), 4), (P2,)),
        (P_E, (R2, P2)),
    )


def _pr_app_c8(d: int) -> Pairs:
    half_p2 = Fraction(1, 2) * ops.p_squared(d)
    return [("W p^2/2", osum(d, (1, (_w_expr(d), half_p2))), _w_kinetic(d))]


def _w_coupling(d: int) -> OpSum:
    """alpha W Y reduced: the last side of APP-C-9."""
    Y = ops.gx_over_r2(d)
    R2, P2, XP, LS, GX = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d), ops.gamma_dot_x(d)
    return osum(
        d,
        (P_ALPHA, (Y, R2, P2)),
        (-2 * P_ALPHA, (Y, XP, XP)),
        (I_ * 2 * (d - 2) * P_ALPHA, (Y, XP)),
        (P_ALPHA, (Y, LS)),
        (P_ALPHA * Fraction((d - 1) * (d - 2), 2), (Y,)),
        (2 * P_ALPHA * P_E, (GX,)),
    )


def _pr_app_c9(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    W = _w_expr(d)
    e1 = osum(d, (P_ALPHA, (W, Y)))
    e2 = osum(
        d,
        (P_ALPHA, (Y, W)),
        (P_ALPHA, (R2, weyl.commutator(P2, Y))),
        (-2 * P_ALPHA, (weyl.commutator(weyl.multiply(XP, XP), Y),)),
        (I_ * 2 * (d - 1) * P_ALPHA, (weyl.commutator(XP, Y),)),
        (P_ALPHA, (weyl.commutator(LS, Y),)),
    )
    return [("alpha W Y, step 1", e1, e2), ("alpha W Y, step 2", e2, _w_coupling(d))]


def _pr_app_c10(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    XP = ops.x_dot_p(d)
    lhs = comm(weyl.multiply(XP, XP), Y)
    rhs = osum(d, (2 * I_, (Y, XP)), (-1, (Y,)))
    return [("[(x.p)^2, Y]", lhs, rhs)]


def _pr_app_c11(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R = ops.rinv2(d)
    lhs = comm(ops.ls_contraction(d), Y)
    rhs = osum(
        d,
        (-2 * I_, (R, ops.gamma_dot_x(d), ops.x_dot_p(d))),
        (-(d - 1), (R, ops.gamma_dot_x(d))),
        (2 * I_, (R, ops.r_squared(d), ops.gamma_dot_p(d))),
    )
    return [("[LS, Y]", lhs, rhs)]


def _w_energy(d: int) -> OpSum:
    """-E W expanded: the right side of APP-C-12."""
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    return osum(
        d,
        (-P_E, (R2, P2)),
        (2 * P_E, (XP, XP)),
        (I_ * -2 * (d - 1) * P_E, (XP,)),
        (-P_E, (LS,)),
        (-P_E * Fraction(d * (d - 1), 2), ()),
        (-2 * P_E * P_E, (R2,)),
    )


def _pr_app_c12(d: int) -> Pairs:
    return [("-E W", osum(d, (-P_E, (_w_expr(d),))), _w_energy(d))]


def _pr_app_c13(d: int) -> Pairs:
    # W(H-E) = W p^2/2 + alpha W Y - E W; the +-E r^2 p^2 pair cancels
    return [("x(H-E).B + B.x(H-E) total", _mixed_terms(d), _w_kinetic(d) + _w_coupling(d) + _w_energy(d))]


def _pr_app_c14(d: int) -> Pairs:
    Y = ops.gx_over_r2(d)
    R2, P2, XP, LS = ops.r_squared(d), ops.p_squared(d), ops.x_dot_p(d), ops.ls_contraction(d)
    rhs = osum(
        d,
        (1, (R2, P2, P2)),
        (-1, (XP, XP, P2)),
        (I_ * (d - 2), (XP, P2)),
        (1, (LS, P2)),
        (Fraction(d * (d - 1), 4), (P2,)),
        (2 * P_ALPHA, (Y, R2, P2)),
        (-2 * P_ALPHA, (Y, XP, XP)),
        (I_ * 2 * (d - 2) * P_ALPHA, (Y, XP)),
        (2 * P_ALPHA, (Y, LS)),
        (P_ALPHA * Fraction(d * (d - 1), 2), (Y,)),
        (P_ALPHA * P_ALPHA, ()),
    )
    return [("LRL^2 fully reduced", _dot(d, ops.lrl, ops.lrl), rhs)]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_ALL = (2, MAX_DIMENSION)
_METRIC_DIMS = (2, 4)
_D3 = (3, 3)
_APPENDIX = (2, MAX_DIMENSION)


def _registry() -> Tuple[Check, ...]:
    c = Check
    checks = [
        # defining relations
        c("GAMMA-CLIFF", "Clifford generators anticommute to 2 delta", "{g_i, g_j} = 2 d_ij", "core", _ALL, lambda d: family("{{g{},g{}}}", lambda i, j: weyl.gamma(d, i), lambda i, j: weyl.gamma(d, j), lambda i, j: [(2 * (i == j), ())], combinations_with_replacement(_idx(d), 2), acomm)),
        c("S-SO(D)", "spin matrices close the rotation algebra", "[S_ij, S_kl] = i(d_ik S_jl + d_il S_kj + d_jk S_li + d_jl S_ik)", "core", _ALL, lambda d: closure("S", partial(ops.spin, d), product(_idx(d), repeat=2))),
        c("GX-SQUARE", "the coupling vector squares to r^2", "(g.x)^2 = r^2", "core", _ALL, _pr_gx_square),
        c("K-H-REL", "radial and Schroedinger operators interconvert", "K = (g.x)(H-E) - alpha; H = (g.x)/r^2 (K+alpha) + E", "core", _ALL, _pr_k_h_rel),
        # so(d+1,1) commutators
        c("SO-COM-JJ", "rotation-rotation commutators", "[J_ij, J_kl] = i(d_ik J_jl + d_il J_kj + d_jk J_li + d_jl J_ik)", "core", _ALL, lambda d: closure("J", partial(ops.so_j, d), combinations(_idx(d), 2))),
        c("SO-COM-JA", "rotations act on the first boost vector", "[J_ij, A_k] = i(d_ik A_j - d_jk A_i)", "core", _ALL, lambda d: covariant("A", partial(ops.boost_a, d))),
        c("SO-COM-JM", "rotations act on the second boost vector", "[J_ij, M_k] = i(d_ik M_j - d_jk M_i)", "core", _ALL, lambda d: covariant("M", partial(ops.boost_m, d))),
        c("SO-COM-JT", "rotations commute with the dilation", "[J_ij, T] = 0", "core", _ALL, lambda d: family("[J{}{},T]", partial(ops.so_j, d), lambda i, j: ops.dilation(d), vanishes, combinations(_idx(d), 2))),
        c("SO-COM-AA", "first boosts close on rotations", "[A_i, A_j] = i J_ij", "core", _ALL, lambda d: family("[A{},A{}]", lambda i, j: ops.boost_a(d, i), lambda i, j: ops.boost_a(d, j), lambda i, j: [(I_, (ops.so_j(d, i, j),))], combinations(_idx(d), 2))),
        c("SO-COM-MM", "second boosts close on rotations with a sign", "[M_i, M_j] = -i J_ij", "core", _ALL, lambda d: family("[M{},M{}]", lambda i, j: ops.boost_m(d, i), lambda i, j: ops.boost_m(d, j), lambda i, j: [(-I_, (ops.so_j(d, i, j),))], combinations(_idx(d), 2))),
        c("SO-COM-AM", "mixed boosts produce the dilation", "[A_i, M_j] = i d_ij T", "core", _ALL, lambda d: family("[A{},M{}]", lambda i, j: ops.boost_a(d, i), lambda i, j: ops.boost_m(d, j), lambda i, j: [(I_ * (i == j), (ops.dilation(d),))], product(_idx(d), repeat=2))),
        c("SO-COM-AT", "dilation rotates A into M", "[A_i, T] = -i M_i", "core", _ALL, lambda d: family("[A{},T]", partial(ops.boost_a, d), lambda i: ops.dilation(d), lambda i: [(-I_, (ops.boost_m(d, i),))], product(_idx(d)))),
        c("SO-COM-MT", "dilation rotates M into A", "[M_i, T] = -i A_i", "core", _ALL, lambda d: family("[M{},T]", partial(ops.boost_m, d), lambda i: ops.dilation(d), lambda i: [(-I_, (ops.boost_a(d, i),))], product(_idx(d)))),
        c("SO21-METRIC", "all generators satisfy the metric form of the algebra", "[L_ab, L_cd] = i(g_ac L_bd + g_ad L_cb + g_bc L_da + g_bd L_ac), g = diag(1..1,-1)", "core", _METRIC_DIMS, lambda d: closure("L", partial(ops.lorentz_generator, d), product(range(1, d + 3), repeat=2), ops.metric_signature(d))),
        c("CASIMIR-Q2", "quadratic Casimir reduces to a constant", "J^2 + A^2 - M^2 - T^2 = -(d-1)(d+2)/8", "core", _ALL, _pr_casimir_q2),
        # ladder operators
        c("SO-GAMMA-JGK", "rotations act on the ladder vector", "[J_ij, G_k] = i(d_ik G_j - d_jk G_i)", "core", _ALL, lambda d: covariant("G", partial(ops.gamma_i, d))),
        c("SO-GAMMA-AGD1", "first boost lowers the ladder pair", "[A_i, G_d+1] = -i G_i", "core", _ALL, lambda d: family("[A{},Gd1]", partial(ops.boost_a, d), lambda i: ops.gamma_d1(d), lambda i: [(-I_, (ops.gamma_i(d, i),))], product(_idx(d)))),
        c("SO-GAMMA-MG0", "second boost raises the ladder pair", "[M_i, G_0] = i G_i", "core", _ALL, lambda d: family("[M{},G0]", partial(ops.boost_m, d), lambda i: ops.gamma0(d), lambda i: [(I_, (ops.gamma_i(d, i),))], product(_idx(d)))),
        c("SO-GAMMA-TG0", "dilation maps G_0 to G_d+1", "[T, G_0] = i G_d+1", "core", _ALL, lambda d: family("[T,G0]", lambda: ops.dilation(d), lambda: ops.gamma0(d), lambda: [(I_, (ops.gamma_d1(d),))], [()])),
        c("SO-GAMMA-TGD1", "dilation maps G_d+1 to G_0", "[T, G_d+1] = i G_0", "core", _ALL, lambda d: family("[T,Gd1]", lambda: ops.dilation(d), lambda: ops.gamma_d1(d), lambda: [(I_, (ops.gamma0(d),))], [()])),
        c("SO-GAMMA-ZEROS-J", "rotations commute with both scalar ladders", "[J_ij, G_0] = [J_ij, G_d+1] = 0", "core", _ALL, lambda d: _interleave(
            family("[J{}{},G0]", partial(ops.so_j, d), lambda i, j: ops.gamma0(d), vanishes, combinations(_idx(d), 2)),
            family("[J{}{},Gd1]", partial(ops.so_j, d), lambda i, j: ops.gamma_d1(d), vanishes, combinations(_idx(d), 2)),
        )),
        c("SO-GAMMA-ZEROS-AMT", "vanishing boost and dilation actions", "[A_i, G_0] = [M_i, G_d+1] = [T, G_i] = 0", "core", _ALL, lambda d: _interleave(
            family("[A{},G0]", partial(ops.boost_a, d), lambda i: ops.gamma0(d), vanishes, product(_idx(d))),
            family("[M{},Gd1]", partial(ops.boost_m, d), lambda i: ops.gamma_d1(d), vanishes, product(_idx(d))),
            family("[T,G{}]", lambda i: ops.dilation(d), partial(ops.gamma_i, d), vanishes, product(_idx(d))),
        )),
        # non-closure of the extended set
        c("NONCLOSE-G0GD1", "scalar ladder commutator leaves the algebra", "[G_0, G_d+1] = i(T + i(d-1)/2 + i L_ij S_ij)", "core", _ALL, _pr_nonclose_g0gd1, tier="transcription"),
        c("NONCLOSE-GIG0", "vector-scalar ladder commutator, raising side", "[G_i, G_0] = -i M_i - S_ij x_j (p^2+1) - ((d-1)/2 + L_jk S_jk) p_i + i S_ij p_j", "core", _ALL, _pr_nonclose_gig0, tier="transcription"),
        c("NONCLOSE-GIGD1", "vector-scalar ladder commutator, lowering side; encoded with (p^2 - 1) on the spin-position term, the (p^2 + 1) variant fails by 2 S_ij x_j", "[G_i, G_d+1] = -i A_i - S_ij x_j (p^2-1) - ((d-1)/2 + L_jk S_jk) p_i + i S_ij p_j", "core", _ALL, _pr_nonclose_gigd1, tier="transcription"),
        c("NONCLOSE-GIGJ", "vector-vector ladder commutator", "[G_i, G_j] = -i J_ij + i S_ij - 2 x_k (S_ik p_j - S_jk p_i)", "core", _ALL, _pr_nonclose_gigj, tier="transcription"),
        c("REL-GXGI", "contraction of the coupling vector with one generator", "(g.x) g_i = x_i - 2i S_ij x_j", "core", _ALL, _pr_rel_gxgi),
        c("REL-GXGP", "product of coupling and momentum contractions", "(g.x)(g.p) = x.p + i L_ij S_ij", "core", _ALL, _pr_rel_gxgp),
        c("CAS-GAMMA", "ladder Casimir-like combination", "G_0^2 - G_d+1^2 - T^2 = J^2 + (d-1)(d-2)/8", "core", _ALL, _pr_cas_gamma),
        # radial picture
        c("K-DECOMP", "radial operator from the ladder pair", "K = (1-2E)/2 G_0 + (1+2E)/2 G_d+1", "sturm", _ALL, _pr_k_decomp),
        c("STURM-INV", "rotations and B are radial integrals of motion", "[J_ij, K] = [B_i, K] = 0", "sturm", _ALL, lambda d: family("[J{}{},K]", partial(ops.so_j, d), lambda i, j: ops.sturm_k(d), vanishes, combinations(_idx(d), 2)) + family("[B{},K]", partial(ops.sturm_b, d), lambda i: ops.sturm_k(d), vanishes, product(_idx(d)))),
        c("B-EXPLICIT", "B from boosts equals its closed form", "B_i = (1-2E)/2 A_i + (1+2E)/2 M_i", "sturm", _ALL, _pr_b_explicit),
        c("JB-ALG", "invariants close with an energy factor", "[J_ij, B_k] = i(d_ik B_j - d_jk B_i); [B_i, B_j] = -2iE J_ij", "sturm", _ALL, lambda d: covariant("B", partial(ops.sturm_b, d)) + family("[B{},B{}]", lambda i, j: ops.sturm_b(d, i), lambda i, j: ops.sturm_b(d, j), lambda i, j: [(-2 * I_ * P_E, (ops.so_j(d, i, j),))], combinations(_idx(d), 2))),
        c("B1-SQUARE", "spin-free part of B squared", "(B1)^2 = (r^2 p^4 - 2iT p^2 + 4E[...] + 4E^2 r^2)/4", "sturm", _ALL, _pr_b1_square),
        c("B-CROSS", "cross terms of the B split", "B1.B2 + B2.B1 = L_ij S_ij (p^2 + 2E)/2", "sturm", _ALL, _pr_b_cross),
        c("B2-SQUARE", "spin part of B squared", "(B2)^2 = S_ij S_ik p_j p_k = (d-1) p^2 / 4", "sturm", _ALL, _pr_b2_square),
        c("S-ANTICOMM", "contracted spin anticommutator", "sum_i {S_ij, S_ik} = (d-1) d_jk / 2", "sturm", _ALL, _pr_s_anticomm),
        c("B-SQUARE", "full B squared", "B^2 explicit expansion", "sturm", _ALL, _pr_b_square),
        c("K-SQUARE", "radial operator squared; companion bracket encoded as [p^2, g.x] = -2i g.p (not the -p^2 variant)", "K^2 explicit expansion", "sturm", _ALL, _pr_k_square),
        c("B2-K2-J2", "B, K, and J squares are linearly related", "B^2 = K^2 + 2E(J^2 + d(d-1)/8)", "sturm", _ALL, _pr_b2_k2_j2),
        # Schroedinger picture
        c("JH-COM", "rotations are integrals of motion", "[J_ij, H] = 0", "schrodinger", _ALL, lambda d: family("[J{}{},H]", partial(ops.so_j, d), lambda i, j: ops.hamiltonian(d), vanishes, combinations(_idx(d), 2))),
        c("LRL-CONSERVED", "the conserved vector commutes with H", "[LRL_i, H] = 0", "schrodinger", _ALL, lambda d: family("[LRL{},H]", partial(ops.lrl, d), lambda i: ops.hamiltonian(d), vanishes, product(_idx(d)))),
        c("XH-COM", "position commutator with H", "[x_i, H] = [x_i, p^2/2] = i p_i", "schrodinger", _ALL, _pr_xh_comm),
        c("BH-CHAIN", "proof chain for conservation of the vector", "[B_i, H] = [B_i, Y](K+alpha) = [B_i, Y](g.x)(H-E); [B_i,Y](g.x) = -i p_i; [B_i, Y] = -i p_i Y", "schrodinger", _ALL, _pr_bh_chain),
        c("LRL-EXPLICIT", "conserved vector closed form", "LRL_i = x_i p^2 - (x.p - i(d-1)/2) p_i + S_ij p_j + alpha x_i (g.x)/r^2", "schrodinger", _ALL, _pr_lrl_explicit),
        c("LRL-ALG", "conserved vector algebra", "[J_ij, LRL_k] = i(d_ik LRL_j - d_jk LRL_i); [LRL_i, LRL_j] = -2iH J_ij", "schrodinger", _ALL, lambda d: covariant("LRL", partial(ops.lrl, d)) + family("[LRL{},LRL{}]", lambda i, j: ops.lrl(d, i), lambda i, j: ops.lrl(d, j), lambda i, j: [(-2 * I_, (ops.hamiltonian(d), ops.so_j(d, i, j)))], combinations(_idx(d), 2))),
        c("LRL-AUX-1", "antisymmetrized mixed commutator", "[B_i, x_j(H-E)] - [B_j, x_i(H-E)] = (-2i J_ij + i L_ij)(H-E)", "schrodinger", _ALL, _pr_lrl_aux_1),
        c("LRL-AUX-2", "commutator of the position-weighted pieces", "[x_i(H-E), x_j(H-E)] = -i L_ij (H-E)", "schrodinger", _ALL, _pr_lrl_aux_2),
        c("LRL-AUX-3", "B against positions", "[B_i, x_j] = i d_ij T - i J_ij", "schrodinger", _ALL, _pr_lrl_aux_3),
        c("LRL-SQUARE", "squared conserved vector", "LRL^2 = 2H(J^2 + d(d-1)/8) + alpha^2", "schrodinger", _ALL, _pr_lrl_square),
        # three-dimensional vector identities
        c("D3-VEC-COM", "epsilon-contracted vectors close su(2)-style", "[J_i, J_j] = i e_ijk J_k (same for L, S)", "d3", _D3, lambda d: [pair for name, V in (("J", ops.vector_j), ("L", ops.vector_l), ("S", ops.vector_s)) for pair in family(
            f"[{name}{{}},{name}{{}}]",
            lambda i, j: V(d, i),
            lambda i, j: V(d, j),
            lambda i, j: [(I_ * ops.EPS3[i, j, k], (V(d, k),)) for k in _idx(d) if (i, j, k) in ops.EPS3],
            combinations(_idx(d), 2),
        )]),
        c("D3-DOTS", "dot products of the vector split", "L.B1 = 0; L.B2, S.B1, S.B2 explicit", "d3", _D3, _pr_d3_dots),
        c("JB-DOT", "total rotation dotted into B", "J.B = -(x.S)(p^2/2 - E)", "d3", _D3, _pr_jb_dot),
        c("JB-DOT-SIGMA", "Pauli-representation reduction of J.B", "J.B = -K/2 (in the g1 g2 g3 = i quotient)", "d3", _D3, _pr_jb_dot_sigma, pauli_quotient=True),
        c("JA-DOT", "Pauli-representation reduction of J.LRL", "J.LRL = alpha/2 (in the g1 g2 g3 = i quotient)", "d3", _D3, _pr_ja_dot, pauli_quotient=True),
        # appendix A: Casimir reductions
        c("APP-A-J2", "total rotation square reduced", "J^2 = r^2 p^2 - (x.p)^2 + i(d-2) x.p + L_ij S_ij + d(d-1)/8", "appendix", _APPENDIX, _pr_app_a_j2, tier="transcription"),
        c("APP-A-LL", "orbital square reduced", "L_ij L_ij / 2 = r^2 p^2 - (x.p)^2 + i(d-2) x.p", "appendix", _APPENDIX, _pr_app_a_ll, tier="transcription"),
        c("APP-A-SS", "spin square is a constant", "S_ij S_ij / 2 = d(d-1)/8", "appendix", _APPENDIX, _pr_app_a_ss, tier="transcription"),
        c("APP-A-AM2", "boost square difference reduced", "A^2 - M^2 = -r^2 p^2 + 2(x.p)^2 - i(2d-3) x.p - L_ij S_ij - d(d-1)/2", "appendix", _APPENDIX, _pr_app_a_am2, tier="transcription"),
        c("APP-A-T2", "dilation square reduced", "T^2 = (x.p)^2 - i(d-1) x.p - (d-1)^2/4", "appendix", _APPENDIX, _pr_app_a_t2, tier="transcription"),
        c("APP-A-G2", "ladder square difference reduced", "G_0^2 - G_d+1^2 = r^2 p^2 - i x.p + L_ij S_ij", "appendix", _APPENDIX, _pr_app_a_g2, tier="transcription"),
        # appendix B: commutators with (g.x)/r^2
        c("APP-B-1", "momentum against the localized coupling", "[p_i, Y] = -i g_i / r^2 + 2i x_i (g.x) / r^4", "appendix", _APPENDIX, _pr_app_b1, tier="transcription"),
        c("APP-B-2", "kinetic term against the localized coupling", "[p^2, Y] = -2i (g.p)/r^2 + 4i (g.x)(x.p - i(d-2)/2)/r^4", "appendix", _APPENDIX, _pr_app_b2, tier="transcription"),
        c("APP-B-3", "scaling term against the localized coupling", "[x.p, Y] = i (g.x)/r^2", "appendix", _APPENDIX, _pr_app_b3, tier="transcription"),
        c("APP-B-4", "dilation-momentum product against the coupling", "[(x.p - i(d-1)/2) p_i, Y] expansion", "appendix", _APPENDIX, _pr_app_b4, tier="transcription"),
        c("APP-B-5", "spin-momentum contraction against the coupling", "[S_ij p_j, Y] expansion and reduction", "appendix", _APPENDIX, _pr_app_b5, tier="transcription"),
        c("APP-B-6", "spin contractions with one generator and position", "S_ij g_j = -i(d-1)/2 g_i; S_ij x_j = -i(g_i (g.x) - x_i)/2", "appendix", _APPENDIX, _pr_app_b6, tier="transcription"),
        c("APP-B-7", "B against the localized coupling", "[B_i, Y] = 2 x_i (g.x)/r^4 - g_i/r^2 - i (g.x) p_i /r^2", "appendix", _APPENDIX, _pr_app_b7, tier="transcription"),
        # appendix C: squared conserved vector
        c("APP-C-2", "squared position-weighted piece", "x(H-E).x(H-E) = r^2 (H-E)^2 - i x.p (H-E)", "appendix", _APPENDIX, _pr_app_c2, tier="transcription"),
        c("APP-C-3", "shifted Hamiltonian squared", "(H-E)^2 expansion", "appendix", _APPENDIX, _pr_app_c3, tier="transcription"),
        c("APP-C-4", "scaling term times the shifted Hamiltonian", "-i x.p (H-E) expansion", "appendix", _APPENDIX, _pr_app_c4, tier="transcription"),
        c("APP-C-5", "squared position-weighted piece, reduced", "x(H-E).x(H-E) full expansion", "appendix", _APPENDIX, _pr_app_c5, tier="transcription"),
        c("APP-C-6", "momentum contraction through the localized coupling", "-i g.p = (g.x)/r^2 (-i x.p + L_ij S_ij)", "appendix", _APPENDIX, _pr_app_c6, tier="transcription"),
        c("APP-C-7", "mixed terms reduced in three steps", "x(H-E).B + B.x(H-E) = W (H-E)", "appendix", _APPENDIX, _pr_app_c7, tier="transcription"),
        c("APP-C-8", "kinetic third of the mixed terms", "W p^2/2 expansion", "appendix", _APPENDIX, _pr_app_c8, tier="transcription"),
        c("APP-C-9", "coupling third of the mixed terms", "alpha W (g.x)/r^2 reordered and reduced", "appendix", _APPENDIX, _pr_app_c9, tier="transcription"),
        c("APP-C-10", "scaling square against the coupling", "[(x.p)^2, Y] = Y (2i x.p - 1)", "appendix", _APPENDIX, _pr_app_c10, tier="transcription"),
        c("APP-C-11", "spin-orbit contraction against the coupling", "[L_ij S_ij, Y] = (-2i (g.x)(x.p - i(d-1)/2) + 2i r^2 (g.p))/r^2", "appendix", _APPENDIX, _pr_app_c11, tier="transcription"),
        c("APP-C-12", "energy third of the mixed terms", "-E W expansion", "appendix", _APPENDIX, _pr_app_c12, tier="transcription"),
        c("APP-C-13", "mixed terms fully reduced", "x(H-E).B + B.x(H-E) explicit", "appendix", _APPENDIX, _pr_app_c13, tier="transcription"),
        c("APP-C-14", "squared conserved vector fully reduced", "LRL^2 explicit expansion", "appendix", _APPENDIX, _pr_app_c14, tier="transcription"),
    ]
    ids = [check.id for check in checks]
    if len(ids) != len(set(ids)):
        raise AssertionError("duplicate check ids in registry")
    return tuple(checks)


_REGISTRY = _registry()
_BY_ID = {check.id: check for check in _REGISTRY}


def list_checks(suite: str = "all") -> Tuple[Check, ...]:
    """Catalog in stable registry order, optionally filtered by suite."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if suite == "all":
        return _REGISTRY
    return tuple(check for check in _REGISTRY if check.suite == suite)


def get_check(check_id: str) -> Check:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise KeyError(f"unknown check id {check_id!r}") from None


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_check(check_id: str, d: int) -> CheckResult:
    """Compute every residual of one check at dimension d."""
    check = get_check(check_id)
    if not check.applicable(d):
        raise ValueError(f"check {check_id} is not applicable at d={d} (dims {check.dims[0]}..{check.dims[1]})")
    start = time.perf_counter()
    residual = weyl.zero(d)
    failed_label = None
    for label, lhs, rhs in check.pairs(d):
        diff = weyl.combine_products(d, lhs.terms + (-rhs).terms)
        if check.pauli_quotient:
            diff = weyl.pauli_project(diff)
        if not diff.is_zero():
            residual = diff
            failed_label = label
            break
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(check_id, d, residual.is_zero(), residual, failed_label, elapsed)


def run_suite(suite: str, d: int) -> Report:
    """Run all checks of a suite applicable at d; failures are data."""
    results = []
    for check in list_checks(suite):
        if check.applicable(d):
            results.append(run_check(check.id, d))
    results.sort(key=lambda r: (r.id, r.d))
    return Report(suite=suite, d=d, results=tuple(results))


def has_blocking_failure(report: Report, strict: bool = False) -> bool:
    for result in report.results:
        if not result.passed:
            if strict or get_check(result.id).tier != "transcription":
                return True
    return False


# ---------------------------------------------------------------------------
# oracle concordance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcordanceEntry:
    check_id: str
    label: str
    agreed: bool
    witness: Optional[SpinorFunction]


def crosscheck_check(check_id: str, d: int, trials: int = 20, seed: int = 0, max_degree: int = 4, min_k: int = -2) -> List[ConcordanceEntry]:
    """Compare lhs and rhs of every pair by applying factor chains to random
    functions.  No operator product is formed, and the oracle reduces its
    functions modulo r^2 by its own rewriting, not by the engine's division;
    the factors it applies are the engine's canonical forms.

    Single applications are memoized per (operator, function) value: the
    same operators and the same seeded functions and intermediates recur
    across the index tuples of one check, often as distinct but equal
    objects, so this saves most of the work without changing results.
    """
    if trials < 1:
        raise ValueError(f"crosscheck needs at least one trial, got {trials}")
    check = get_check(check_id)
    pairs = check.pairs(d)
    functions = [oracle.random_function(d, oracle.trial_seed(seed, t), max_degree, min_k) for t in range(trials)]
    memo: dict = {}

    def apply_one(op: OperatorExpr, f: SpinorFunction) -> SpinorFunction:
        key = (op, f)
        result = memo.get(key)
        if result is None:
            result = memo[key] = oracle.apply(op, f)
        return result

    entries = []
    for label, lhs, rhs in pairs:
        agreed = True
        witness = None
        for t in range(trials):
            f = functions[t]
            if lhs.apply(f, apply_one) != rhs.apply(f, apply_one):
                agreed = False
                witness = f
                break
        entries.append(ConcordanceEntry(check_id, label, agreed, witness))
    return entries


def crosscheck_suites(suites: Sequence[str], d: int, trials: int = 20, seed: int = 0, max_degree: int = 4, min_k: int = -2) -> List[ConcordanceEntry]:
    if trials < 1:
        raise ValueError(f"crosscheck needs at least one trial, got {trials}")
    entries: List[ConcordanceEntry] = []
    for suite in suites:
        for check in list_checks(suite):
            if check.applicable(d):
                entries.extend(crosscheck_check(check.id, d, trials, seed, max_degree, min_k))
    return entries


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def report_to_dict(report: Report, no_timing: bool = False) -> dict:
    checks = []
    for result in report.results:
        check = get_check(result.id)
        entry = {
            "id": result.id,
            "paperRef": check.ref,
            "pass": result.passed,
            "residualTermCount": result.term_count,
            "residualText": weyl.render(result.residual),
            "elapsedMs": 0.0 if no_timing else round(result.elapsed_ms, 3),
        }
        checks.append(entry)
    return {
        "suite": report.suite,
        "version": report.version,
        "d": report.d,
        "checks": checks,
        "summary": {"passed": report.passed, "failed": report.failed},
    }


def report_to_json(reports: Sequence[Report], no_timing: bool = False) -> str:
    payload = [report_to_dict(r, no_timing) for r in reports]
    body = payload[0] if len(payload) == 1 else payload
    return json.dumps(body, indent=2) + "\n"


def report_to_markdown(reports: Sequence[Report], no_timing: bool = False) -> str:
    lines = []
    for report in reports:
        data = report_to_dict(report, no_timing)
        lines.append(f"# Suite `{data['suite']}` at d={data['d']} (engine {data['version']})")
        lines.append("")
        lines.append("| id | target | pass | residual terms | elapsed ms |")
        lines.append("|---|---|---|---|---|")
        for entry in data["checks"]:
            mark = "yes" if entry["pass"] else "**NO**"
            lines.append(
                f"| {entry['id']} | {entry['paperRef']} | {mark} | {entry['residualTermCount']} | {entry['elapsedMs']} |"
            )
        lines.append("")
        for entry in data["checks"]:
            if not entry["pass"]:
                lines.append(f"Residual of `{entry['id']}`: `{entry['residualText']}`")
                lines.append("")
        lines.append(f"Summary: {data['summary']['passed']} passed, {data['summary']['failed']} failed.")
        lines.append("")
    return "\n".join(lines)


def report_to_text(reports: Sequence[Report], no_timing: bool = False) -> str:
    lines = []
    for report in reports:
        lines.append(f"suite {report.suite}  d={report.d}  engine {report.version}")
        for result in report.results:
            status = "PASS" if result.passed else "FAIL"
            timing = "" if no_timing else f"  [{result.elapsed_ms:9.2f} ms]"
            lines.append(f"  {status}  {result.id}{timing}")
            if not result.passed:
                lines.append(f"        at {result.failed_label}: {weyl.render(result.residual)}")
        lines.append(f"  {report.passed} passed, {report.failed} failed")
    return "\n".join(lines) + "\n"
