"""Brute-force validator: operators acting on exact spinor-valued functions.

The test space is spanned by r^(2k) x^a (x) e_s with k <= 0, which is closed
under positions, momenta (exact differentiation), gamma matrices, and the
inverse square radius.  Gamma generators act through the concrete matrix
representation rather than the abstract word algebra, so agreement between an
engine identity and the action on random functions is evidence from a
genuinely different code path.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Tuple

from . import clifford, weyl
from .coeff import P_ONE, ParamPoly, gaussian_int
from .weyl import DimensionMismatch, OperatorExpr, divide_xpoly_by_r2

FuncKey = Tuple[int, Tuple[int, ...], int]  # (radial power k, x exponents, spinor index)


class SpinorFunction:
    """Exact function sum r^(2k) x^a (x) e_s with polynomial coefficients.

    Canonical form: for every k < 0 the x-polynomial at that radial level and
    spinor component leaves a nonzero remainder under division by sum x_i^2,
    mirroring the engine's minimal left fractions.
    """

    __slots__ = ("d", "spin_dim", "terms")

    def __init__(self, d: int, terms: Dict[FuncKey, ParamPoly]):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "spin_dim", 2 ** (d // 2))
        object.__setattr__(self, "terms", _canonicalize(d, terms))

    def __setattr__(self, name, value):
        raise AttributeError("SpinorFunction is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SpinorFunction):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (k, xe, s) in sorted(self.terms, key=lambda key: (key[2], -key[0], key[1])):
            coeff = self.terms[(k, xe, s)]
            atoms = []
            if k:
                atoms.append(f"r2^{k}")
            for i, e in enumerate(xe):
                if e == 1:
                    atoms.append(f"x{i + 1}")
                elif e:
                    atoms.append(f"x{i + 1}^{e}")
            atoms.append(f"e{s}")
            parts.append(f"({coeff}) " + " ".join(atoms))
        return " + ".join(parts)

    def __repr__(self):
        return f"<SpinorFunction d={self.d}: {self}>"


def _canonicalize(d: int, raw: Dict[FuncKey, ParamPoly]) -> Dict[FuncKey, ParamPoly]:
    """Push r^2-divisible content upward level by level; unique normal form."""
    by_level: Dict[Tuple[int, int], Dict[Tuple[int, ...], ParamPoly]] = {}
    for (k, xe, s), coeff in raw.items():
        if coeff:
            level = by_level.setdefault((k, s), {})
            cur = level.get(xe)
            merged = coeff if cur is None else cur + coeff
            if merged:
                level[xe] = merged
            else:
                del level[xe]
    out: Dict[FuncKey, ParamPoly] = {}
    if not by_level:
        return out
    kmin = min(k for k, _ in by_level)
    spinors = {s for _, s in by_level}
    for s in spinors:
        k = kmin
        while k <= 0:
            poly = by_level.get((k, s))
            if poly:
                if k < 0:
                    quotient, remainder = divide_xpoly_by_r2(poly, d)
                    for xe, coeff in remainder.items():
                        out[(k, xe, s)] = coeff
                    if quotient:
                        upper = by_level.setdefault((k + 1, s), {})
                        for xe, coeff in quotient.items():
                            cur = upper.get(xe)
                            merged = coeff if cur is None else cur + coeff
                            if merged:
                                upper[xe] = merged
                            else:
                                del upper[xe]
                else:
                    for xe, coeff in poly.items():
                        if coeff:
                            out[(0, xe, s)] = coeff
            k += 1
    return out


def function_from_terms(d: int, terms: Dict[FuncKey, ParamPoly]) -> SpinorFunction:
    return SpinorFunction(d, terms)


def zero_function(d: int) -> SpinorFunction:
    return SpinorFunction(d, {})


# ---------------------------------------------------------------------------
# operator action
# ---------------------------------------------------------------------------


def _gamma_columns(d: int, word: tuple) -> Dict[int, Tuple[Tuple[int, ParamPoly], ...]]:
    """Column s (1-based) of the word's matrix as (row, entry) pairs."""
    matrix = clifford.word_matrix(d, word)
    n = len(matrix)
    cols: Dict[int, tuple] = {}
    for s in range(1, n + 1):
        entries = []
        for t in range(n):
            entry = matrix[t][s - 1]
            if entry:
                entries.append((t + 1, ParamPoly.of(entry)))
        cols[s] = tuple(entries)
    return cols


def apply(op: OperatorExpr, f: SpinorFunction) -> SpinorFunction:
    """Exact action: x multiplies, p differentiates, gamma acts by matrix,
    r^-2 lowers the radial level."""
    if op.d != f.d:
        raise DimensionMismatch(f"operator at d={op.d} applied to function at d={f.d}")
    d = op.d
    out: Dict[FuncKey, ParamPoly] = {}
    columns: Dict[tuple, dict] = {}
    for (xe, pe, word), oc in op.terms.items():
        cols = columns.get(word)
        if cols is None:
            cols = _gamma_columns(d, word)
            columns[word] = cols
        for (k, fe, s), fc in f.terms.items():
            for (t, entry) in cols[s]:
                coeff = fc * oc * entry
                for (k2, fe2), mult in _derivative_terms(d, pe, k, fe):
                    key = (k2 - op.denom_pow, tuple(a + b for a, b in zip(fe2, xe)), t)
                    cur = out.get(key)
                    add = coeff * mult
                    merged = add if cur is None else cur + add
                    if merged:
                        out[key] = merged
                    else:
                        del out[key]
    return SpinorFunction(d, out)


@lru_cache(maxsize=65536)
def _derivative_terms(d: int, pe: tuple, k: int, fe: tuple) -> tuple:
    """Expand p^pe acting on r^(2k) x^fe into ((k', exponents), multiplier)."""
    current = {(k, fe): P_ONE}
    for i in range(d):
        for _ in range(pe[i]):
            nxt: Dict[tuple, ParamPoly] = {}
            for (kk, ee), mult in current.items():
                if kk:
                    up = list(ee)
                    up[i] += 1
                    key = (kk - 1, tuple(up))
                    extra = mult * gaussian_int(0, -2 * kk)
                    cur = nxt.get(key)
                    merged = extra if cur is None else cur + extra
                    if merged:
                        nxt[key] = merged
                    else:
                        del nxt[key]
                n = ee[i]
                if n:
                    down = list(ee)
                    down[i] -= 1
                    key = (kk, tuple(down))
                    extra = mult * gaussian_int(0, -n)
                    cur = nxt.get(key)
                    merged = extra if cur is None else cur + extra
                    if merged:
                        nxt[key] = merged
                    else:
                        del nxt[key]
            current = nxt
    return tuple(current.items())


# ---------------------------------------------------------------------------
# randomized functions and cross-checking
# ---------------------------------------------------------------------------


def random_function(d: int, seed: int, max_degree: int = 4, min_k: int = -2, terms: int = 6) -> SpinorFunction:
    """Deterministic pseudo-random test function; same seed, same function.

    Coefficients are small integers with occasional small imaginary parts, so
    witnesses stay readable.
    """
    if max_degree < 0 or min_k > 0:
        raise ValueError("need max_degree >= 0 and min_k <= 0")
    rng = random.Random(seed)
    spin_dim = 2 ** (d // 2)
    raw: Dict[FuncKey, ParamPoly] = {}
    for _ in range(terms):
        k = rng.randint(min_k, 0)
        degree = rng.randint(0, max_degree)
        exps = [0] * d
        for _ in range(degree):
            exps[rng.randrange(d)] += 1
        s = rng.randint(1, spin_dim)
        re = rng.randint(-3, 3)
        im = rng.randint(-1, 1)
        add = gaussian_int(re, im) or P_ONE
        key = (k, tuple(exps), s)
        cur = raw.get(key)
        raw[key] = add if cur is None else cur + add
    f = SpinorFunction(d, raw)
    if f.is_zero():
        return SpinorFunction(d, {(0, (0,) * d, 1): P_ONE})
    return f


class CrosscheckResult:
    """Outcome of comparing two operators on random functions."""

    __slots__ = ("ok", "trials", "witness_trial", "witness", "image_a", "image_b")

    def __init__(self, ok, trials, witness_trial=None, witness=None, image_a=None, image_b=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "witness_trial", witness_trial)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "image_a", image_a)
        object.__setattr__(self, "image_b", image_b)

    def __setattr__(self, name, value):
        raise AttributeError("CrosscheckResult is immutable")

    def __bool__(self):
        return self.ok


def trial_seed(seed: int, trial: int) -> int:
    # per-trial stream so concurrent evaluation cannot reorder results
    return seed * 1_000_003 + trial


def crosscheck(
    a: OperatorExpr,
    b: OperatorExpr,
    trials: int = 20,
    seed: int = 0,
    max_degree: int = 4,
    min_k: int = -2,
) -> CrosscheckResult:
    """True when a and b act identically on `trials` random functions."""
    if a.d != b.d:
        raise DimensionMismatch("crosscheck needs operators of one dimension")
    if trials < 1:
        raise ValueError(f"crosscheck needs at least one trial, got {trials}")
    for t in range(trials):
        f = random_function(a.d, trial_seed(seed, t), max_degree, min_k)
        fa = apply(a, f)
        fb = apply(b, f)
        if fa != fb:
            return CrosscheckResult(False, trials, t, f, fa, fb)
    return CrosscheckResult(True, trials)
