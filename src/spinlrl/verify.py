"""Registry of all verified operator identities, suite runner, and reports.

Every check states one identity (or family over free indices) as a list of
(label, lhs, rhs) pairs of formal operator sums.  The engine proves a pair by
normalizing lhs - rhs to the canonical zero; the oracle confirms it by acting
with the factor chains on random spinor functions.  The identity itself is
never used to simplify itself: left and right sides are built independently
from the named operators.

How a check is stated.  A law over free indices is written once, by one of
three combinators that the registry table calls with ``ops.build``:

* ``closure(name, X, index_pairs, metric=None)``: the closure law
  [X_ij, X_kl] = i(g_i d_ik X_jl + g_i d_il X_kj + g_j d_jk X_li + g_j d_jl X_ik)
  of S and J, and of the so(d+1,1) generators with g = diag(1..1, -1);
* ``covariant(name, V)``: the vector law [J_ij, V_k] = i(d_ik V_j - d_jk V_i)
  of A, M, G, B and the conserved vector;
* ``family(label, a, b, rhs, indices, bracket=comm)``: one bracket per index
  tuple against its right side, vanishing ones included.

The other checks (contractions, squares, the appendix chains) write each
side in the paper's index notation, as ``(coefficient, chain)`` terms, the
notation of the ``ops`` table: ``"S_ij S_ik p_j p_k"``, ``"LRL_i LRL_i"``,
``"B_i Y KpA"``, ``""`` for a scalar.  A factor is any row of that table,
the fused factors (Y, W, HmE, ...) included, a generator x, p, g or rinv2,
or ``delta_ij``.  ``_stated(state, free)`` reads each side's ``ops._plan``
once and expands a pair with ``ops._expand`` once per tuple of its free
letters, which are substituted; every other letter is summed over 1..d.
Consecutive terms that sum over the same letters are expanded together,
one index tuple at a time, so L L / L S / S S of one (i, j) stay together
and {S_ij, S_ik} stays a bracket pair.  Every factor is ``ops.build``'s
cached object, so one name with one index tuple is one object in every
chain, and the chains ending in it are summed before it multiplies them.

Either way lhs and rhs stay separate formal sums, and a bracket enters as
its two factor chains (``comm``, or ``acomm`` for the Clifford relation).
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

from . import MAX_DIMENSION, SUITES, __version__, ops, oracle, weyl
from .coeff import P_ALPHA, P_E, P_I, P_ONE, ParamPoly, ScalarLike
from .oracle import SpinorFunction
from .weyl import OperatorExpr


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
            poly = coeff if type(coeff) is ParamPoly else _UNIT_COEFFS.get(coeff) or ParamPoly.of(coeff)
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
        object.__setattr__(flipped, "terms", tuple((_NEGATED.get(c) or -c, f) for c, f in self.terms))
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


# the unit coefficients, one shared scalar each instead of a new one per term
_MINUS_ONE = -P_ONE
_MINUS_I = -P_I
_UNIT_COEFFS = {1: P_ONE, -1: _MINUS_ONE}
_NEGATED = {P_ONE: _MINUS_ONE, _MINUS_ONE: P_ONE, P_I: _MINUS_I, _MINUS_I: P_I}


def of_expr(e: OperatorExpr, coeff=1) -> OpSum:
    return OpSum(e.d, [(coeff, (e,))])


def comm(a: OperatorExpr, b: OperatorExpr) -> OpSum:
    return OpSum(a.d, [(P_ONE, (a, b)), (_MINUS_ONE, (b, a))])


def acomm(a: OperatorExpr, b: OperatorExpr) -> OpSum:
    return OpSum(a.d, [(P_ONE, (a, b)), (P_ONE, (b, a))])


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
        lambda i, j, k: ops.build(d, "J", i, j),
        lambda i, j, k: V(k),
        lambda i, j, k: [(I_, (V(j),))] * (i == k) + [(_MINUS_I, (V(i),))] * (j == k),
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
            rhs = OpSum(lhs.d, [(I_ if c > 0 else _MINUS_I, (X(*ab),)) for c, ab in terms if c])
            out.append((f"[{name}{i}{j},{name}{k}{l}]", lhs, rhs))
    return out


def _interleave(*families: Pairs) -> Pairs:
    """The first pair of every family, then the second of every family, ..."""
    return [pair for pairs in zip(*families) for pair in pairs]


# ---------------------------------------------------------------------------
# one-off sides in index notation
# ---------------------------------------------------------------------------

Terms = Sequence[Tuple[ScalarLike, str]]
Stated = List[Tuple[str, Terms, Terms]]


def _stated(state: Callable[[int], Stated], free: str = "") -> Callable[[int], Pairs]:
    """A check's ``pairs(d)`` from ``state(d)``, its ``(label, lhs, rhs)``
    pairs with sides in the index notation: each pair once per tuple of the
    ``free`` letters, ``"i"`` or ``"ij"`` for every tuple and ``"i<j"`` for
    increasing ones, its label formatted with them.  ``state`` states the
    same chains at every d, only their coefficients depend on d, so each
    side is read once, here."""
    letters = tuple(free.replace("<", ""))
    plans = [[ops._plan([chain for _, chain in side], letters) for side in (lhs, rhs)] for _, lhs, rhs in state(2)]

    def pairs(d: int) -> Pairs:
        stated = state(d)
        tuples = combinations(_idx(d), len(letters)) if "<" in free else product(_idx(d), repeat=len(letters))
        out = []
        for ix in tuples:
            bound = dict(zip(letters, ix))
            for (label, lhs, rhs), (lhs_plan, rhs_plan) in zip(stated, plans):
                out.append((label.format(**bound), OpSum(d, ops._expand(d, lhs, lhs_plan, ix)), OpSum(d, ops._expand(d, rhs, rhs_plan, ix))))
        return out

    return pairs


# ---------------------------------------------------------------------------
# one-off pairs, core suite
# ---------------------------------------------------------------------------

# the weights of the ladder pair in K and of the boosts in B
_HALF_1M2E = (P_ONE - 2 * P_E) * Fraction(1, 2)
_HALF_1P2E = (P_ONE + 2 * P_E) * Fraction(1, 2)


def _pr_gx_square(d: int) -> Stated:
    return [("(g.x)^2 = r^2", [(1, "GX GX")], [(1, "R2")])]


def _pr_k_h_rel(d: int) -> Stated:
    return [
        ("K = (g.x)(H-E) - alpha", [(1, "K")], [(1, "GX HmE"), (-P_ALPHA, "")]),
        ("H = rinv2 (g.x)(K+alpha) + E", [(1, "H")], [(1, "Y KpA"), (P_E, "")]),
    ]


def _pr_casimir_q2(d: int) -> Stated:
    structured = [
        (Fraction(1, 2), "J_ij J_ij"),
        (1, "A_k A_k"),
        (-1, "M_l M_l"),
        (-1, "T T"),
    ]
    return [
        ("Q2 definition matches contraction builder", [(1, "Q2")], structured),
        ("Q2 = -(d-1)(d+2)/8", structured, [(Fraction(-(d - 1) * (d + 2), 8), "")]),
    ]


def _pr_nonclose_g0gd1(d: int) -> Stated:
    return [("[G0,Gd1]", [(1, "G0 Gd1"), (-1, "Gd1 G0")], [(I_, "T"), (Fraction(-(d - 1), 2), ""), (-1, "LS")])]


def _pr_nonclose_gig0(d: int) -> Stated:
    rhs = [
        (-I_, "M_i"),
        (-1, "S_ij x_j P2"),
        (-1, "S_ij x_j"),
        (I_, "S_ij p_j"),
        (Fraction(-(d - 1), 2), "p_i"),
        (-1, "LS p_i"),
    ]
    return [("[G{i},G0]", [(1, "G_i G0"), (-1, "G0 G_i")], rhs)]


def _pr_nonclose_gigd1(d: int) -> Stated:
    rhs = [
        (-I_, "A_i"),
        (-1, "S_ij x_j P2"),
        (1, "S_ij x_j"),
        (I_, "S_ij p_j"),
        (Fraction(-(d - 1), 2), "p_i"),
        (-1, "LS p_i"),
    ]
    return [("[G{i},Gd1]", [(1, "G_i Gd1"), (-1, "Gd1 G_i")], rhs)]


def _pr_nonclose_gigj(d: int) -> Stated:
    rhs = [
        (-I_, "J_ij"),
        (I_, "S_ij"),
        (-2, "x_k S_ik p_j"),
        (2, "x_k S_jk p_i"),
    ]
    return [("[G{i},G{j}]", [(1, "G_i G_j"), (-1, "G_j G_i")], rhs)]


def _pr_rel_gxgi(d: int) -> Stated:
    return [("(g.x)g{i}", [(1, "GX g_i")], [(1, "x_i"), (-2 * I_, "S_ij x_j")])]


def _pr_rel_gxgp(d: int) -> Stated:
    return [("(g.x)(g.p)", [(1, "GX GP")], [(1, "XP"), (I_, "LS")])]


def _pr_cas_gamma(d: int) -> Stated:
    return [("G0^2 - Gd1^2 - T^2", [(1, "G0 G0"), (-1, "Gd1 Gd1"), (-1, "T T")], [(1, "J2"), (Fraction((d - 1) * (d - 2), 8), "")])]


# ---------------------------------------------------------------------------
# one-off pairs, radial picture
# ---------------------------------------------------------------------------


def _pr_k_decomp(d: int) -> Stated:
    return [("K from ladder pair", [(1, "K")], [(_HALF_1M2E, "G0"), (_HALF_1P2E, "Gd1")])]


def _pr_b_explicit(d: int) -> Stated:
    return [("B{i} from boosts", [(1, "B_i")], [(_HALF_1M2E, "A_i"), (_HALF_1P2E, "M_i")])]


def _pr_b1_square(d: int) -> Stated:
    rhs = [
        (Fraction(1, 4), "R2 P2 P2"),
        (I_ * Fraction(-1, 2), "T P2"),
        (P_E, "R2 P2"),
        (-2 * P_E, "XP XP"),
        (I_ * (2 * d - 3) * P_E, "XP"),
        (P_E * Fraction(d * (d - 1), 2), ""),
        (P_E * P_E, "R2"),
    ]
    return [("(B1)^2", [(1, "B1_i B1_i")], rhs)]


def _pr_b_cross(d: int) -> Stated:
    return [("B1.B2 + B2.B1", [(1, "B1_i B2_i"), (1, "B2_j B1_j")], [(Fraction(1, 2), "LS P2"), (P_E, "LS")])]


def _pr_b2_square(d: int) -> Stated:
    lhs = [(1, "B2_i B2_i")]
    return [
        ("(B2)^2 = S_ij S_ik p_j p_k", lhs, [(1, "S_ij S_ik p_j p_k")]),
        ("(B2)^2 symmetrized", lhs, [(Fraction(1, 2), "S_ij S_ik p_j p_k"), (Fraction(1, 2), "S_ik S_ij p_j p_k")]),
        ("(B2)^2 = (d-1)p^2/4", lhs, [(Fraction(d - 1, 4), "P2")]),
    ]


def _pr_s_anticomm(d: int) -> Stated:
    return [("sum_i {{S_i{j},S_i{k}}}", [(1, "S_ij S_ik"), (1, "S_ik S_ij")], [(Fraction(d - 1, 2), "delta_jk")])]


def _pr_b_square(d: int) -> Stated:
    rhs = [
        (Fraction(1, 4), "R2 P2 P2"),
        (I_ * Fraction(-1, 2), "XP P2"),
        (Fraction(1, 2), "LS P2"),
        (P_E, "LS"),
        (P_E, "R2 P2"),
        (-2 * P_E, "XP XP"),
        (I_ * (2 * d - 3) * P_E, "XP"),
        (P_E * Fraction(d * (d - 1), 2), ""),
        (P_E * P_E, "R2"),
    ]
    return [("B^2 explicit", [(1, "B_i B_i")], rhs)]


def _pr_k_square(d: int) -> Stated:
    rhs = [
        (Fraction(1, 4), "R2 P2 P2"),
        (I_ * Fraction(-1, 2), "XP P2"),
        (Fraction(1, 2), "LS P2"),
        (-P_E, "R2 P2"),
        (I_ * P_E, "XP"),
        (-P_E, "LS"),
        (P_E * P_E, "R2"),
    ]
    return [
        ("[p^2, g.x] = -2i g.p (plus-sign reading)", [(1, "P2 GX"), (-1, "GX P2")], [(-2 * I_, "GP")]),
        ("K^2 explicit", [(1, "K K")], rhs),
    ]


def _pr_b2_k2_j2(d: int) -> Stated:
    return [("B^2 = K^2 + 2E(J^2 + d(d-1)/8)", [(1, "B_i B_i")], [(1, "K K"), (2 * P_E, "J2"), (P_E * Fraction(d * (d - 1), 4), "")])]


# ---------------------------------------------------------------------------
# one-off pairs, Schroedinger picture
# ---------------------------------------------------------------------------


def _pr_xh_comm(d: int) -> Stated:
    return [
        ("[x{i},H]", [(1, "x_i H"), (-1, "H x_i")], [(I_, "p_i")]),
        ("[x{i},p^2/2]", [(1, "x_i P2h"), (-1, "P2h x_i")], [(I_, "p_i")]),
    ]


def _pr_bh_chain(d: int) -> Stated:
    by_kpa = [(1, "B_i Y KpA"), (-1, "Y B_i KpA")]
    return [
        ("[B{i},H] = [B{i},Y](K+alpha)", [(1, "B_i H"), (-1, "H B_i")], by_kpa),
        ("[B{i},Y](K+alpha) = [B{i},Y](g.x)(H-E)", by_kpa, [(1, "B_i Y GX HmE"), (-1, "Y B_i GX HmE")]),
        ("[B{i},Y](g.x) = -i p{i}", [(1, "B_i Y GX"), (-1, "Y B_i GX")], [(-I_, "p_i")]),
        ("[B{i},Y] = -i p{i} Y", [(1, "B_i Y"), (-1, "Y B_i")], [(-I_, "p_i Y")]),
    ]


def _pr_lrl_explicit(d: int) -> Stated:
    rhs = [
        (1, "x_i P2"),
        (-1, "T p_i"),
        (1, "B2_i"),
        (P_ALPHA, "x_i Y"),
    ]
    return [
        ("LRL{i} closed form", [(1, "LRL_i")], rhs),
        ("LRL{i} builder agreement", [(1, "LRL_i")], [(1, "LRLX_i")]),
    ]


def _pr_lrl_aux_1(d: int) -> Stated:
    lhs = [
        (1, "B_i x_j HmE"),
        (-1, "x_j HmE B_i"),
        (-1, "B_j x_i HmE"),
        (1, "x_i HmE B_j"),
    ]
    return [("[B{i},x{j}(H-E)] antisymmetrized", lhs, [(-2 * I_, "J_ij HmE"), (I_, "L_ij HmE")])]


def _pr_lrl_aux_2(d: int) -> Stated:
    return [("[x{i}(H-E),x{j}(H-E)]", [(1, "x_i HmE x_j HmE"), (-1, "x_j HmE x_i HmE")], [(-I_, "L_ij HmE")])]


def _pr_lrl_aux_3(d: int) -> Stated:
    bracket = [(1, "B_i x_j"), (-1, "x_j B_i")]
    return [
        ("[B{i},x{j}] via boosts", bracket, [(1, "B_i MmA_j"), (-1, "MmA_j B_i")]),
        ("[B{i},x{j}]", bracket, [(I_, "delta_ij T"), (-I_, "J_ij")]),
    ]


def _pr_lrl_square(d: int) -> Stated:
    return [("LRL^2 = 2H(J^2 + d(d-1)/8) + alpha^2", [(1, "LRL_i LRL_i")], [(2, "H J2"), (Fraction(d * (d - 1), 4), "H"), (P_ALPHA * P_ALPHA, "")])]


# ---------------------------------------------------------------------------
# one-off pairs, d=3 vector identities
# ---------------------------------------------------------------------------


def _pr_d3_dots(d: int) -> Stated:
    s_b1 = [
        (Fraction(1, 2), "XS P2"),
        (-1, "XP PS"),
        (I_, "PS"),
        (P_E, "XS"),
    ]
    return [
        ("L.B1 = 0", [(1, "Lvec_i B1_i")], []),
        ("L.B2", [(1, "Lvec_i B2_i")], [(1, "XP PS"), (-1, "XS P2")]),
        ("S.B1", [(1, "Svec_i B1_i")], s_b1),
        ("S.B2", [(1, "Svec_i B2_i")], [(-I_, "PS")]),
    ]


def _pr_jb_dot(d: int) -> Stated:
    return [("J.B = -(x.S)(p^2/2 - E)", [(1, "Jvec_i B_i")], [(Fraction(-1, 2), "XS P2"), (P_E, "XS")])]


def _pr_jb_dot_sigma(d: int) -> Stated:
    return [("J.B = -K/2 (Pauli)", [(1, "Jvec_i B_i")], [(Fraction(-1, 2), "K")])]


def _pr_ja_dot(d: int) -> Stated:
    return [("J.LRL = alpha/2 (Pauli)", [(1, "Jvec_i LRL_i")], [(P_ALPHA * Fraction(1, 2), "")])]


# ---------------------------------------------------------------------------
# one-off pairs, appendix A: Casimir reductions, B: commutators with
# (g.x)/r^2, C: the squared conserved vector
# ---------------------------------------------------------------------------


def _pr_app_a_j2(d: int) -> Stated:
    reduced = [
        (1, "R2 P2"),
        (-1, "XP XP"),
        (I_ * (d - 2), "XP"),
        (1, "LS"),
        (Fraction(d * (d - 1), 8), ""),
    ]
    return [
        ("J^2 = J_ij J_ij / 2", [(1, "J2")], [(Fraction(1, 2), "J_ij J_ij")]),
        ("J^2 split into L, LS, S", [(1, "J2")], [(Fraction(1, 2), "L_ij L_ij"), (1, "L_ij S_ij"), (Fraction(1, 2), "S_ij S_ij")]),
        ("J^2 reduced", [(1, "J2")], reduced),
    ]


def _pr_app_a_ll(d: int) -> Stated:
    return [("L_ij L_ij / 2", [(Fraction(1, 2), "L_ij L_ij")], [(1, "R2 P2"), (-1, "XP XP"), (I_ * (d - 2), "XP")])]


def _pr_app_a_ss(d: int) -> Stated:
    return [("S_ij S_ij / 2 = d(d-1)/8", [(Fraction(1, 2), "S_ij S_ij")], [(Fraction(d * (d - 1), 8), "")])]


def _pr_app_a_am2(d: int) -> Stated:
    lhs = [(1, "A_i A_i"), (-1, "M_j M_j")]
    reduced = [
        (-1, "R2 P2"),
        (2, "XP XP"),
        (I_ * -(2 * d - 3), "XP"),
        (-1, "LS"),
        (Fraction(-d * (d - 1), 2), ""),
    ]
    return [
        ("A^2 - M^2 as anticommutator", lhs, [(-1, "Acore_i x_i"), (-1, "x_i Acore_i")]),
        ("A^2 - M^2 reduced", lhs, reduced),
    ]


def _pr_app_a_t2(d: int) -> Stated:
    return [("T^2 reduced", [(1, "T T")], [(1, "XP XP"), (I_ * -(d - 1), "XP"), (Fraction(-(d - 1) * (d - 1), 4), "")])]


def _pr_app_a_g2(d: int) -> Stated:
    gdiff = [(1, "G0 G0"), (-1, "Gd1 Gd1")]
    full_rhs = [
        (1, "R2 P2"),
        (-1, "XP XP"),
        (I_ * (d - 2), "XP"),
        (1, "LS"),
        (Fraction((d - 1) * (d - 1), 4), ""),
    ]
    return [
        ("G0^2 - Gd1^2 via (g.x)(g.p)", gdiff, [(1, "GX GX P2"), (-I_, "GX GP")]),
        ("G0^2 - Gd1^2 reduced", gdiff, [(1, "R2 P2"), (-I_, "XP"), (1, "LS")]),
        ("G0^2 - Gd1^2 - T^2 reduced", gdiff + [(-1, "T T")], full_rhs),
    ]


def _pr_app_b1(d: int) -> Stated:
    return [("[p{i}, Y]", [(1, "p_i Y"), (-1, "Y p_i")], [(-I_, "rinv2 g_i"), (2 * I_, "rinv2 rinv2 x_i GX")])]


def _pr_app_b2(d: int) -> Stated:
    rhs = [(-2 * I_, "rinv2 GP"), (4 * I_, "rinv2 rinv2 GX XP"), (2 * (d - 2), "rinv2 rinv2 GX")]
    return [("[p^2, Y]", [(1, "P2 Y"), (-1, "Y P2")], rhs)]


def _pr_app_b3(d: int) -> Stated:
    return [("[x.p, Y]", [(1, "XP Y"), (-1, "Y XP")], [(I_, "rinv2 GX")])]


def _pr_app_b4(d: int) -> Stated:
    rhs = [
        (-I_, "rinv2 g_i XP"),
        (Fraction(-(d - 5), 2), "rinv2 g_i"),
        (2 * I_, "rinv2 rinv2 x_i GX XP"),
        (d - 5, "rinv2 rinv2 x_i GX"),
        (I_, "rinv2 GX p_i"),
    ]
    return [("[T p{i}, Y]", [(1, "TP_i Y"), (-1, "Y TP_i")], rhs)]


def _pr_app_b5(d: int) -> Stated:
    bracket = [(1, "B2_i Y"), (-1, "Y B2_i")]
    expanded = [
        (-I_, "S_ij rinv2 g_j"),
        (2 * I_, "S_ij rinv2 rinv2 x_j GX"),
        (I_, "rinv2 x_i GP"),
        (-I_, "rinv2 g_i XP"),
    ]
    reduced = [
        (-I_, "rinv2 g_i XP"),
        (Fraction(-(d - 3), 2), "rinv2 g_i"),
        (-1, "rinv2 rinv2 x_i GX"),
        (I_, "rinv2 x_i GP"),
    ]
    return [
        ("[S{i}j p_j, Y] expanded", bracket, expanded),
        ("[S{i}j p_j, Y] reduced", bracket, reduced),
    ]


def _pr_app_b6(d: int) -> Stated:
    return [
        ("S{i}j g_j", [(1, "S_ij g_j")], [(I_ * Fraction(-(d - 1), 2), "g_i")]),
        ("S{i}j x_j", [(1, "S_ij x_j")], [(I_ * Fraction(-1, 2), "g_i GX"), (I_ * Fraction(1, 2), "x_i")]),
    ]


def _pr_app_b7(d: int) -> Stated:
    return [("[B{i}, Y]", [(1, "B_i Y"), (-1, "Y B_i")], [(2, "rinv2 rinv2 x_i GX"), (-1, "rinv2 g_i"), (-I_, "rinv2 GX p_i")])]


def _pr_app_c2(d: int) -> Stated:
    return [("x(H-E).x(H-E)", [(1, "x_i HmE x_i HmE")], [(1, "R2 HmE HmE"), (-I_, "XP HmE")])]


def _pr_app_c3(d: int) -> Stated:
    rhs = [
        (Fraction(1, 4), "P2 P2"),
        (P_ALPHA, "Y P2"),
        (I_ * P_ALPHA, "Y rinv2 XP"),
        (P_ALPHA * (d - 2), "Y rinv2"),
        (P_ALPHA, "Y rinv2 LS"),
        (P_ALPHA * P_ALPHA, "rinv2"),
        (-P_E, "P2"),
        (-2 * P_E * P_ALPHA, "Y"),
        (P_E * P_E, ""),
    ]
    return [("(H-E)^2", [(1, "HmE HmE")], rhs)]


def _pr_app_c4(d: int) -> Stated:
    rhs = [
        (I_ * Fraction(-1, 2), "XP P2"),
        (-I_ * P_ALPHA, "Y XP"),
        (P_ALPHA, "Y"),
        (I_ * P_E, "XP"),
    ]
    return [("-i x.p (H-E)", [(-I_, "XP HmE")], rhs)]


def _pr_app_c5(d: int) -> Stated:
    rhs = [
        (Fraction(1, 4), "R2 P2 P2"),
        (I_ * Fraction(-1, 2), "XP P2"),
        (P_ALPHA, "GX P2"),
        (P_ALPHA * (d - 1), "GX rinv2"),
        (P_ALPHA, "GX rinv2 LS"),
        (P_ALPHA * P_ALPHA, ""),
        (-P_E, "R2 P2"),
        (I_ * P_E, "XP"),
        (-2 * P_E * P_ALPHA, "GX"),
        (P_E * P_E, "R2"),
    ]
    return [("x(H-E).x(H-E) reduced", [(1, "x_i HmE x_i HmE")], rhs)]


def _pr_app_c6(d: int) -> Stated:
    return [("-i g.p via Y", [(-I_, "GP")], [(-I_, "Y XP"), (1, "Y LS")])]


def _pr_app_c7(d: int) -> Stated:
    e2 = [(1, "x_i B_i HmE"), (1, "B_i x_i HmE"), (I_, "XP HmE")]
    e3 = [(2, "x_i B_i HmE"), (I_ * d, "T HmE"), (I_, "XP HmE")]
    e4 = [
        (1, "R2 P2 HmE"),
        (-2, "XP XP HmE"),
        (I_ * 2 * (d - 1), "XP HmE"),
        (1, "LS HmE"),
        (Fraction(d * (d - 1), 2), "HmE"),
        (2 * P_E, "R2 HmE"),
    ]
    return [
        ("x(H-E).B + B.x(H-E), step 1", [(1, "x_i HmE B_i"), (1, "B_i x_i HmE")], e2),
        ("x(H-E).B + B.x(H-E), step 2", e2, e3),
        ("x(H-E).B + B.x(H-E), step 3", e3, e4),
    ]


def _w_kinetic(d: int) -> Terms:
    """W p^2/2 reduced: the right side of APP-C-8."""
    return [
        (Fraction(1, 2), "R2 P2 P2"),
        (-1, "XP XP P2"),
        (I_ * (d - 1), "XP P2"),
        (Fraction(1, 2), "LS P2"),
        (Fraction(d * (d - 1), 4), "P2"),
        (P_E, "R2 P2"),
    ]


def _pr_app_c8(d: int) -> Stated:
    return [("W p^2/2", [(1, "W P2h")], _w_kinetic(d))]


def _w_coupling(d: int) -> Terms:
    """alpha W Y reduced: the last side of APP-C-9."""
    return [
        (P_ALPHA, "Y R2 P2"),
        (-2 * P_ALPHA, "Y XP XP"),
        (I_ * 2 * (d - 2) * P_ALPHA, "Y XP"),
        (P_ALPHA, "Y LS"),
        (P_ALPHA * Fraction((d - 1) * (d - 2), 2), "Y"),
        (2 * P_ALPHA * P_E, "GX"),
    ]


def _pr_app_c9(d: int) -> Stated:
    e2 = [
        (P_ALPHA, "Y W"),
        (P_ALPHA, "R2 cP2Y"),
        (-2 * P_ALPHA, "cXPXPY"),
        (I_ * 2 * (d - 1) * P_ALPHA, "cXPY"),
        (P_ALPHA, "cLSY"),
    ]
    return [("alpha W Y, step 1", [(P_ALPHA, "W Y")], e2), ("alpha W Y, step 2", e2, _w_coupling(d))]


def _pr_app_c10(d: int) -> Stated:
    return [("[(x.p)^2, Y]", [(1, "XPXP Y"), (-1, "Y XPXP")], [(2 * I_, "Y XP"), (-1, "Y")])]


def _pr_app_c11(d: int) -> Stated:
    rhs = [(-2 * I_, "rinv2 GX XP"), (-(d - 1), "rinv2 GX"), (2 * I_, "rinv2 R2 GP")]
    return [("[LS, Y]", [(1, "LS Y"), (-1, "Y LS")], rhs)]


def _w_energy(d: int) -> Terms:
    """-E W expanded: the right side of APP-C-12."""
    return [
        (-P_E, "R2 P2"),
        (2 * P_E, "XP XP"),
        (I_ * -2 * (d - 1) * P_E, "XP"),
        (-P_E, "LS"),
        (-P_E * Fraction(d * (d - 1), 2), ""),
        (-2 * P_E * P_E, "R2"),
    ]


def _pr_app_c12(d: int) -> Stated:
    return [("-E W", [(-P_E, "W")], _w_energy(d))]


def _pr_app_c13(d: int) -> Stated:
    # W(H-E) = W p^2/2 + alpha W Y - E W; the +-E r^2 p^2 pair cancels
    return [("x(H-E).B + B.x(H-E) total", [(1, "x_i HmE B_i"), (1, "B_i x_i HmE")], _w_kinetic(d) + _w_coupling(d) + _w_energy(d))]


def _pr_app_c14(d: int) -> Stated:
    rhs = [
        (1, "R2 P2 P2"),
        (-1, "XP XP P2"),
        (I_ * (d - 2), "XP P2"),
        (1, "LS P2"),
        (Fraction(d * (d - 1), 4), "P2"),
        (2 * P_ALPHA, "Y R2 P2"),
        (-2 * P_ALPHA, "Y XP XP"),
        (I_ * 2 * (d - 2) * P_ALPHA, "Y XP"),
        (2 * P_ALPHA, "Y LS"),
        (P_ALPHA * Fraction(d * (d - 1), 2), "Y"),
        (P_ALPHA * P_ALPHA, ""),
    ]
    return [("LRL^2 fully reduced", [(1, "LRL_i LRL_i")], rhs)]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_ALL = (2, MAX_DIMENSION)
_METRIC_DIMS = (2, 4)
_D3 = (3, 3)


def _registry() -> Tuple[Check, ...]:
    c = Check
    checks = [
        # defining relations
        c("GAMMA-CLIFF", "Clifford generators anticommute to 2 delta", "{g_i, g_j} = 2 d_ij", "core", _ALL, lambda d: family("{{g{},g{}}}", lambda i, j: weyl.gamma(d, i), lambda i, j: weyl.gamma(d, j), lambda i, j: [(2 * (i == j), ())], combinations_with_replacement(_idx(d), 2), acomm)),
        c("S-SO(D)", "spin matrices close the rotation algebra", "[S_ij, S_kl] = i(d_ik S_jl + d_il S_kj + d_jk S_li + d_jl S_ik)", "core", _ALL, lambda d: closure("S", partial(ops.build, d, "S"), product(_idx(d), repeat=2))),
        c("GX-SQUARE", "the coupling vector squares to r^2", "(g.x)^2 = r^2", "core", _ALL, _stated(_pr_gx_square)),
        c("K-H-REL", "radial and Schroedinger operators interconvert", "K = (g.x)(H-E) - alpha; H = (g.x)/r^2 (K+alpha) + E", "core", _ALL, _stated(_pr_k_h_rel)),
        # so(d+1,1) commutators
        c("SO-COM-JJ", "rotation-rotation commutators", "[J_ij, J_kl] = i(d_ik J_jl + d_il J_kj + d_jk J_li + d_jl J_ik)", "core", _ALL, lambda d: closure("J", partial(ops.build, d, "J"), combinations(_idx(d), 2))),
        c("SO-COM-JA", "rotations act on the first boost vector", "[J_ij, A_k] = i(d_ik A_j - d_jk A_i)", "core", _ALL, lambda d: covariant("A", partial(ops.build, d, "A"))),
        c("SO-COM-JM", "rotations act on the second boost vector", "[J_ij, M_k] = i(d_ik M_j - d_jk M_i)", "core", _ALL, lambda d: covariant("M", partial(ops.build, d, "M"))),
        c("SO-COM-JT", "rotations commute with the dilation", "[J_ij, T] = 0", "core", _ALL, lambda d: family("[J{}{},T]", partial(ops.build, d, "J"), lambda i, j: ops.build(d, "T"), vanishes, combinations(_idx(d), 2))),
        c("SO-COM-AA", "first boosts close on rotations", "[A_i, A_j] = i J_ij", "core", _ALL, lambda d: family("[A{},A{}]", lambda i, j: ops.build(d, "A", i), lambda i, j: ops.build(d, "A", j), lambda i, j: [(I_, (ops.build(d, "J", i, j),))], combinations(_idx(d), 2))),
        c("SO-COM-MM", "second boosts close on rotations with a sign", "[M_i, M_j] = -i J_ij", "core", _ALL, lambda d: family("[M{},M{}]", lambda i, j: ops.build(d, "M", i), lambda i, j: ops.build(d, "M", j), lambda i, j: [(_MINUS_I, (ops.build(d, "J", i, j),))], combinations(_idx(d), 2))),
        c("SO-COM-AM", "mixed boosts produce the dilation", "[A_i, M_j] = i d_ij T", "core", _ALL, lambda d: family("[A{},M{}]", lambda i, j: ops.build(d, "A", i), lambda i, j: ops.build(d, "M", j), lambda i, j: [(I_, (ops.build(d, "T"),))] * (i == j), product(_idx(d), repeat=2))),
        c("SO-COM-AT", "dilation rotates A into M", "[A_i, T] = -i M_i", "core", _ALL, lambda d: family("[A{},T]", partial(ops.build, d, "A"), lambda i: ops.build(d, "T"), lambda i: [(_MINUS_I, (ops.build(d, "M", i),))], product(_idx(d)))),
        c("SO-COM-MT", "dilation rotates M into A", "[M_i, T] = -i A_i", "core", _ALL, lambda d: family("[M{},T]", partial(ops.build, d, "M"), lambda i: ops.build(d, "T"), lambda i: [(_MINUS_I, (ops.build(d, "A", i),))], product(_idx(d)))),
        c("SO21-METRIC", "all generators satisfy the metric form of the algebra", "[L_ab, L_cd] = i(g_ac L_bd + g_ad L_cb + g_bc L_da + g_bd L_ac), g = diag(1..1,-1)", "core", _METRIC_DIMS, lambda d: closure("L", partial(ops.lorentz_generator, d), product(range(1, d + 3), repeat=2), ops.metric_signature(d))),
        c("CASIMIR-Q2", "quadratic Casimir reduces to a constant", "J^2 + A^2 - M^2 - T^2 = -(d-1)(d+2)/8", "core", _ALL, _stated(_pr_casimir_q2)),
        # ladder operators
        c("SO-GAMMA-JGK", "rotations act on the ladder vector", "[J_ij, G_k] = i(d_ik G_j - d_jk G_i)", "core", _ALL, lambda d: covariant("G", partial(ops.build, d, "G"))),
        c("SO-GAMMA-AGD1", "first boost lowers the ladder pair", "[A_i, G_d+1] = -i G_i", "core", _ALL, lambda d: family("[A{},Gd1]", partial(ops.build, d, "A"), lambda i: ops.build(d, "Gd1"), lambda i: [(_MINUS_I, (ops.build(d, "G", i),))], product(_idx(d)))),
        c("SO-GAMMA-MG0", "second boost raises the ladder pair", "[M_i, G_0] = i G_i", "core", _ALL, lambda d: family("[M{},G0]", partial(ops.build, d, "M"), lambda i: ops.build(d, "G0"), lambda i: [(I_, (ops.build(d, "G", i),))], product(_idx(d)))),
        c("SO-GAMMA-TG0", "dilation maps G_0 to G_d+1", "[T, G_0] = i G_d+1", "core", _ALL, lambda d: family("[T,G0]", lambda: ops.build(d, "T"), lambda: ops.build(d, "G0"), lambda: [(I_, (ops.build(d, "Gd1"),))], [()])),
        c("SO-GAMMA-TGD1", "dilation maps G_d+1 to G_0", "[T, G_d+1] = i G_0", "core", _ALL, lambda d: family("[T,Gd1]", lambda: ops.build(d, "T"), lambda: ops.build(d, "Gd1"), lambda: [(I_, (ops.build(d, "G0"),))], [()])),
        c("SO-GAMMA-ZEROS-J", "rotations commute with both scalar ladders", "[J_ij, G_0] = [J_ij, G_d+1] = 0", "core", _ALL, lambda d: _interleave(
            family("[J{}{},G0]", partial(ops.build, d, "J"), lambda i, j: ops.build(d, "G0"), vanishes, combinations(_idx(d), 2)),
            family("[J{}{},Gd1]", partial(ops.build, d, "J"), lambda i, j: ops.build(d, "Gd1"), vanishes, combinations(_idx(d), 2)),
        )),
        c("SO-GAMMA-ZEROS-AMT", "vanishing boost and dilation actions", "[A_i, G_0] = [M_i, G_d+1] = [T, G_i] = 0", "core", _ALL, lambda d: _interleave(
            family("[A{},G0]", partial(ops.build, d, "A"), lambda i: ops.build(d, "G0"), vanishes, product(_idx(d))),
            family("[M{},Gd1]", partial(ops.build, d, "M"), lambda i: ops.build(d, "Gd1"), vanishes, product(_idx(d))),
            family("[T,G{}]", lambda i: ops.build(d, "T"), partial(ops.build, d, "G"), vanishes, product(_idx(d))),
        )),
        # non-closure of the extended set
        c("NONCLOSE-G0GD1", "scalar ladder commutator leaves the algebra", "[G_0, G_d+1] = i(T + i(d-1)/2 + i L_ij S_ij)", "core", _ALL, _stated(_pr_nonclose_g0gd1), tier="transcription"),
        c("NONCLOSE-GIG0", "vector-scalar ladder commutator, raising side", "[G_i, G_0] = -i M_i - S_ij x_j (p^2+1) - ((d-1)/2 + L_jk S_jk) p_i + i S_ij p_j", "core", _ALL, _stated(_pr_nonclose_gig0, "i"), tier="transcription"),
        c("NONCLOSE-GIGD1", "vector-scalar ladder commutator, lowering side; encoded with (p^2 - 1) on the spin-position term, the (p^2 + 1) variant fails by 2 S_ij x_j", "[G_i, G_d+1] = -i A_i - S_ij x_j (p^2-1) - ((d-1)/2 + L_jk S_jk) p_i + i S_ij p_j", "core", _ALL, _stated(_pr_nonclose_gigd1, "i"), tier="transcription"),
        c("NONCLOSE-GIGJ", "vector-vector ladder commutator", "[G_i, G_j] = -i J_ij + i S_ij - 2 x_k (S_ik p_j - S_jk p_i)", "core", _ALL, _stated(_pr_nonclose_gigj, "i<j"), tier="transcription"),
        c("REL-GXGI", "contraction of the coupling vector with one generator", "(g.x) g_i = x_i - 2i S_ij x_j", "core", _ALL, _stated(_pr_rel_gxgi, "i")),
        c("REL-GXGP", "product of coupling and momentum contractions", "(g.x)(g.p) = x.p + i L_ij S_ij", "core", _ALL, _stated(_pr_rel_gxgp)),
        c("CAS-GAMMA", "ladder Casimir-like combination", "G_0^2 - G_d+1^2 - T^2 = J^2 + (d-1)(d-2)/8", "core", _ALL, _stated(_pr_cas_gamma)),
        # radial picture
        c("K-DECOMP", "radial operator from the ladder pair", "K = (1-2E)/2 G_0 + (1+2E)/2 G_d+1", "sturm", _ALL, _stated(_pr_k_decomp)),
        c("STURM-INV", "rotations and B are radial integrals of motion", "[J_ij, K] = [B_i, K] = 0", "sturm", _ALL, lambda d: family("[J{}{},K]", partial(ops.build, d, "J"), lambda i, j: ops.build(d, "K"), vanishes, combinations(_idx(d), 2)) + family("[B{},K]", partial(ops.build, d, "B"), lambda i: ops.build(d, "K"), vanishes, product(_idx(d)))),
        c("B-EXPLICIT", "B from boosts equals its closed form", "B_i = (1-2E)/2 A_i + (1+2E)/2 M_i", "sturm", _ALL, _stated(_pr_b_explicit, "i")),
        c("JB-ALG", "invariants close with an energy factor", "[J_ij, B_k] = i(d_ik B_j - d_jk B_i); [B_i, B_j] = -2iE J_ij", "sturm", _ALL, lambda d: covariant("B", partial(ops.build, d, "B")) + family("[B{},B{}]", lambda i, j: ops.build(d, "B", i), lambda i, j: ops.build(d, "B", j), lambda i, j: [(-2 * I_ * P_E, (ops.build(d, "J", i, j),))], combinations(_idx(d), 2))),
        c("B1-SQUARE", "spin-free part of B squared", "(B1)^2 = (r^2 p^4 - 2iT p^2 + 4E[...] + 4E^2 r^2)/4", "sturm", _ALL, _stated(_pr_b1_square)),
        c("B-CROSS", "cross terms of the B split", "B1.B2 + B2.B1 = L_ij S_ij (p^2 + 2E)/2", "sturm", _ALL, _stated(_pr_b_cross)),
        c("B2-SQUARE", "spin part of B squared", "(B2)^2 = S_ij S_ik p_j p_k = (d-1) p^2 / 4", "sturm", _ALL, _stated(_pr_b2_square)),
        c("S-ANTICOMM", "contracted spin anticommutator", "sum_i {S_ij, S_ik} = (d-1) d_jk / 2", "sturm", _ALL, _stated(_pr_s_anticomm, "jk")),
        c("B-SQUARE", "full B squared", "B^2 explicit expansion", "sturm", _ALL, _stated(_pr_b_square)),
        c("K-SQUARE", "radial operator squared; companion bracket encoded as [p^2, g.x] = -2i g.p (not the -p^2 variant)", "K^2 explicit expansion", "sturm", _ALL, _stated(_pr_k_square)),
        c("B2-K2-J2", "B, K, and J squares are linearly related", "B^2 = K^2 + 2E(J^2 + d(d-1)/8)", "sturm", _ALL, _stated(_pr_b2_k2_j2)),
        # Schroedinger picture
        c("JH-COM", "rotations are integrals of motion", "[J_ij, H] = 0", "schrodinger", _ALL, lambda d: family("[J{}{},H]", partial(ops.build, d, "J"), lambda i, j: ops.build(d, "H"), vanishes, combinations(_idx(d), 2))),
        c("LRL-CONSERVED", "the conserved vector commutes with H", "[LRL_i, H] = 0", "schrodinger", _ALL, lambda d: family("[LRL{},H]", partial(ops.build, d, "LRL"), lambda i: ops.build(d, "H"), vanishes, product(_idx(d)))),
        c("XH-COM", "position commutator with H", "[x_i, H] = [x_i, p^2/2] = i p_i", "schrodinger", _ALL, _stated(_pr_xh_comm, "i")),
        c("BH-CHAIN", "proof chain for conservation of the vector", "[B_i, H] = [B_i, Y](K+alpha) = [B_i, Y](g.x)(H-E); [B_i,Y](g.x) = -i p_i; [B_i, Y] = -i p_i Y", "schrodinger", _ALL, _stated(_pr_bh_chain, "i")),
        c("LRL-EXPLICIT", "conserved vector closed form", "LRL_i = x_i p^2 - (x.p - i(d-1)/2) p_i + S_ij p_j + alpha x_i (g.x)/r^2", "schrodinger", _ALL, _stated(_pr_lrl_explicit, "i")),
        c("LRL-ALG", "conserved vector algebra", "[J_ij, LRL_k] = i(d_ik LRL_j - d_jk LRL_i); [LRL_i, LRL_j] = -2iH J_ij", "schrodinger", _ALL, lambda d: covariant("LRL", partial(ops.build, d, "LRL")) + family("[LRL{},LRL{}]", lambda i, j: ops.build(d, "LRL", i), lambda i, j: ops.build(d, "LRL", j), lambda i, j: [(-2 * I_, (ops.build(d, "H"), ops.build(d, "J", i, j)))], combinations(_idx(d), 2))),
        c("LRL-AUX-1", "antisymmetrized mixed commutator", "[B_i, x_j(H-E)] - [B_j, x_i(H-E)] = (-2i J_ij + i L_ij)(H-E)", "schrodinger", _ALL, _stated(_pr_lrl_aux_1, "i<j")),
        c("LRL-AUX-2", "commutator of the position-weighted pieces", "[x_i(H-E), x_j(H-E)] = -i L_ij (H-E)", "schrodinger", _ALL, _stated(_pr_lrl_aux_2, "i<j")),
        c("LRL-AUX-3", "B against positions", "[B_i, x_j] = i d_ij T - i J_ij", "schrodinger", _ALL, _stated(_pr_lrl_aux_3, "ij")),
        c("LRL-SQUARE", "squared conserved vector", "LRL^2 = 2H(J^2 + d(d-1)/8) + alpha^2", "schrodinger", _ALL, _stated(_pr_lrl_square)),
        # three-dimensional vector identities
        c("D3-VEC-COM", "epsilon-contracted vectors close su(2)-style", "[J_i, J_j] = i e_ijk J_k (same for L, S)", "d3", _D3, lambda d: [pair for name in ("J", "L", "S") for pair in family(
            f"[{name}{{}},{name}{{}}]",
            lambda i, j: ops.build(d, name + "vec", i),
            lambda i, j: ops.build(d, name + "vec", j),
            lambda i, j: [(I_ if ops.EPS3[i, j, k] > 0 else _MINUS_I, (ops.build(d, name + "vec", k),)) for k in _idx(d) if (i, j, k) in ops.EPS3],
            combinations(_idx(d), 2),
        )]),
        c("D3-DOTS", "dot products of the vector split", "L.B1 = 0; L.B2, S.B1, S.B2 explicit", "d3", _D3, _stated(_pr_d3_dots)),
        c("JB-DOT", "total rotation dotted into B", "J.B = -(x.S)(p^2/2 - E)", "d3", _D3, _stated(_pr_jb_dot)),
        c("JB-DOT-SIGMA", "Pauli-representation reduction of J.B", "J.B = -K/2 (in the g1 g2 g3 = i quotient)", "d3", _D3, _stated(_pr_jb_dot_sigma), pauli_quotient=True),
        c("JA-DOT", "Pauli-representation reduction of J.LRL", "J.LRL = alpha/2 (in the g1 g2 g3 = i quotient)", "d3", _D3, _stated(_pr_ja_dot), pauli_quotient=True),
        # appendix A: Casimir reductions
        c("APP-A-J2", "total rotation square reduced", "J^2 = r^2 p^2 - (x.p)^2 + i(d-2) x.p + L_ij S_ij + d(d-1)/8", "appendix", _ALL, _stated(_pr_app_a_j2), tier="transcription"),
        c("APP-A-LL", "orbital square reduced", "L_ij L_ij / 2 = r^2 p^2 - (x.p)^2 + i(d-2) x.p", "appendix", _ALL, _stated(_pr_app_a_ll), tier="transcription"),
        c("APP-A-SS", "spin square is a constant", "S_ij S_ij / 2 = d(d-1)/8", "appendix", _ALL, _stated(_pr_app_a_ss), tier="transcription"),
        c("APP-A-AM2", "boost square difference reduced", "A^2 - M^2 = -r^2 p^2 + 2(x.p)^2 - i(2d-3) x.p - L_ij S_ij - d(d-1)/2", "appendix", _ALL, _stated(_pr_app_a_am2), tier="transcription"),
        c("APP-A-T2", "dilation square reduced", "T^2 = (x.p)^2 - i(d-1) x.p - (d-1)^2/4", "appendix", _ALL, _stated(_pr_app_a_t2), tier="transcription"),
        c("APP-A-G2", "ladder square difference reduced", "G_0^2 - G_d+1^2 = r^2 p^2 - i x.p + L_ij S_ij", "appendix", _ALL, _stated(_pr_app_a_g2), tier="transcription"),
        # appendix B: commutators with (g.x)/r^2
        c("APP-B-1", "momentum against the localized coupling", "[p_i, Y] = -i g_i / r^2 + 2i x_i (g.x) / r^4", "appendix", _ALL, _stated(_pr_app_b1, "i"), tier="transcription"),
        c("APP-B-2", "kinetic term against the localized coupling", "[p^2, Y] = -2i (g.p)/r^2 + 4i (g.x)(x.p - i(d-2)/2)/r^4", "appendix", _ALL, _stated(_pr_app_b2), tier="transcription"),
        c("APP-B-3", "scaling term against the localized coupling", "[x.p, Y] = i (g.x)/r^2", "appendix", _ALL, _stated(_pr_app_b3), tier="transcription"),
        c("APP-B-4", "dilation-momentum product against the coupling", "[(x.p - i(d-1)/2) p_i, Y] expansion", "appendix", _ALL, _stated(_pr_app_b4, "i"), tier="transcription"),
        c("APP-B-5", "spin-momentum contraction against the coupling", "[S_ij p_j, Y] expansion and reduction", "appendix", _ALL, _stated(_pr_app_b5, "i"), tier="transcription"),
        c("APP-B-6", "spin contractions with one generator and position", "S_ij g_j = -i(d-1)/2 g_i; S_ij x_j = -i(g_i (g.x) - x_i)/2", "appendix", _ALL, _stated(_pr_app_b6, "i"), tier="transcription"),
        c("APP-B-7", "B against the localized coupling", "[B_i, Y] = 2 x_i (g.x)/r^4 - g_i/r^2 - i (g.x) p_i /r^2", "appendix", _ALL, _stated(_pr_app_b7, "i"), tier="transcription"),
        # appendix C: squared conserved vector
        c("APP-C-2", "squared position-weighted piece", "x(H-E).x(H-E) = r^2 (H-E)^2 - i x.p (H-E)", "appendix", _ALL, _stated(_pr_app_c2), tier="transcription"),
        c("APP-C-3", "shifted Hamiltonian squared", "(H-E)^2 expansion", "appendix", _ALL, _stated(_pr_app_c3), tier="transcription"),
        c("APP-C-4", "scaling term times the shifted Hamiltonian", "-i x.p (H-E) expansion", "appendix", _ALL, _stated(_pr_app_c4), tier="transcription"),
        c("APP-C-5", "squared position-weighted piece, reduced", "x(H-E).x(H-E) full expansion", "appendix", _ALL, _stated(_pr_app_c5), tier="transcription"),
        c("APP-C-6", "momentum contraction through the localized coupling", "-i g.p = (g.x)/r^2 (-i x.p + L_ij S_ij)", "appendix", _ALL, _stated(_pr_app_c6), tier="transcription"),
        c("APP-C-7", "mixed terms reduced in three steps", "x(H-E).B + B.x(H-E) = W (H-E)", "appendix", _ALL, _stated(_pr_app_c7), tier="transcription"),
        c("APP-C-8", "kinetic third of the mixed terms", "W p^2/2 expansion", "appendix", _ALL, _stated(_pr_app_c8), tier="transcription"),
        c("APP-C-9", "coupling third of the mixed terms", "alpha W (g.x)/r^2 reordered and reduced", "appendix", _ALL, _stated(_pr_app_c9), tier="transcription"),
        c("APP-C-10", "scaling square against the coupling", "[(x.p)^2, Y] = Y (2i x.p - 1)", "appendix", _ALL, _stated(_pr_app_c10), tier="transcription"),
        c("APP-C-11", "spin-orbit contraction against the coupling", "[L_ij S_ij, Y] = (-2i (g.x)(x.p - i(d-1)/2) + 2i r^2 (g.p))/r^2", "appendix", _ALL, _stated(_pr_app_c11), tier="transcription"),
        c("APP-C-12", "energy third of the mixed terms", "-E W expansion", "appendix", _ALL, _stated(_pr_app_c12), tier="transcription"),
        c("APP-C-13", "mixed terms fully reduced", "x(H-E).B + B.x(H-E) explicit", "appendix", _ALL, _stated(_pr_app_c13), tier="transcription"),
        c("APP-C-14", "squared conserved vector fully reduced", "LRL^2 explicit expansion", "appendix", _ALL, _stated(_pr_app_c14), tier="transcription"),
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
    # the check's pairs share factors, so one table of left multiples serves
    # them all; it goes when the check returns
    table: dict = {}
    for label, lhs, rhs in check.pairs(d):
        diff = weyl.combine_products(d, lhs.terms + (-rhs).terms, table)
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

    The check runs trial by trial: every pair on trial t's function, then
    trial t + 1 for the pairs that still agree.  A pair's witness is the
    first trial that separates its sides.  Within a trial, single
    applications are memoized per (operator, function) value: the same
    operators and intermediates recur across the index tuples of one check,
    often as distinct but equal objects, so this saves most of the work
    without changing results.  The memo is cleared between trials, so it
    holds one trial's functions at a time.
    """
    if trials < 1:
        raise ValueError(f"crosscheck needs at least one trial, got {trials}")
    check = get_check(check_id)
    pairs = list(check.pairs(d))
    witnesses: List[Optional[SpinorFunction]] = [None] * len(pairs)
    open_pairs = range(len(pairs))
    memo: dict = {}

    def apply_one(op: OperatorExpr, f: SpinorFunction) -> SpinorFunction:
        key = (op, f)
        result = memo.get(key)
        if result is None:
            result = memo[key] = oracle.apply(op, f)
        return result

    for t in range(trials):
        if not open_pairs:
            break
        memo.clear()
        f = oracle.random_function(d, oracle.trial_seed(seed, t), max_degree, min_k)
        agreeing = []
        for n in open_pairs:
            _, lhs, rhs = pairs[n]
            if lhs.apply(f, apply_one) != rhs.apply(f, apply_one):
                witnesses[n] = f
            else:
                agreeing.append(n)
        open_pairs = agreeing
    return [ConcordanceEntry(check_id, label, w is None, w) for (label, _, _), w in zip(pairs, witnesses)]


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
