"""Brute-force validator: operators acting on exact spinor-valued functions.

The test space is spanned by r^(2k) x^a (x) e_s with k <= 0, which is closed
under positions, momenta (exact differentiation), gamma matrices, and the
inverse square radius.  Gamma generators act through the concrete matrix
representation rather than the abstract word algebra, so agreement between an
engine identity and the action on random functions is evidence from a
different code path.  Functions are reduced modulo r^2 by this module's own
``_reduce_level``, which rewrites x1^2 -> r^2 - (x2^2 + ... + xd^2) by
falling x1 exponent, with no heap; the engine divides by r^2 under a heap of
leading terms.  {r^2} is a Groebner basis of its ideal, so both reach the one
remainder with no monomial divisible by x1^2.  Not a wholly separate path
all the same: the operators applied are the engine's canonical forms.

Operators are read level by level: the engine's r^-2m N is applied as
sum_j r^-2j N_j, with N_j at j > 0 holding only what r^2 does not divide
(``_levels``, split by the same reduction, once per operator value).  The
x-part stands left of p in normal order, so the split is exact, and it
applies fewer terms.  Each level term keeps its gamma columns already
multiplied by its coefficient, and a term with no momenta is applied without
differentiating.  Canonicalisation touches only the terms r^2 divides, those
at k < 0 with x1 exponent at least 2, and reads each one's canonical form
from a table keyed by (d, k, x^a) (``_reduction``, built once per monomial
by ``_reduce_level``); a linear combination of canonical functions is
canonical already and is not reduced again.  ``verify.crosscheck_check``
memoizes applications by value within one trial and clears the memo before
the next, so its memory is that of one trial's functions.

Storage.  A ``SpinorFunction`` keeps one positive int denominator ``den`` and
a map ``num`` from ``(k, xk, s, alpha_power, e_power)`` to a Gaussian-integer
numerator ``(re, im)`` of plain ints, for the term
``r^(2k) x^xk e_s alpha^alpha_power E^e_power (re + im*i) / den``.  ``xk`` is
the x-exponent vector packed as in the engine (``weyl.pack``): d + 1 fields
of 16 bits, the total degree in the top field, then x1 down to xd in the
lowest, so plain int order is graded lex order.  A total degree above
``weyl.EXPONENT_LIMIT`` (2^16 - 1) raises ValueError before any field could
carry into the next.  Normalisation invariant: no numerator is ``(0, 0)`` and
the gcd of ``den`` and every numerator part is 1, so ``==`` and ``hash`` are
structural.  ``apply``, canonicalisation and ``linear_combine`` are int
arithmetic on these maps; ``ParamPoly`` appears only in the constructor and
in the read-only ``terms`` view.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Iterable, Tuple

from . import clifford, weyl
from .coeff import ParamPoly, common_denominator, merge_term, reduce_content
from .weyl import DimensionMismatch, OperatorExpr, PackedTerms

FuncKey = Tuple[int, Tuple[int, ...], int]  # (radial power k, x exponents, spinor index)


class SpinorFunction(PackedTerms):
    """Exact function sum r^(2k) x^a (x) e_s with polynomial coefficients.

    Canonical form: for every k < 0 the x-polynomial at that radial level and
    spinor component leaves a nonzero remainder under division by sum x_i^2,
    mirroring the engine's minimal left fractions.  The constructor takes
    ``{(k, x-exponents, s): ParamPoly}``, the form of the read-only ``terms``
    view, and raises ValueError for a radial power k > 0, which lies outside
    the test space; the stored form is described in the module docstring.
    """

    __slots__ = ("d", "spin_dim", "den", "num", "_hash", "_view")

    def __init__(self, d: int, terms: Dict[FuncKey, ParamPoly]):
        acc: Dict[int, dict] = {}
        for (k, xe, s), coeff in terms.items():
            if k > 0:
                raise ValueError(f"radial power r^(2k) with k = {k} > 0 is outside the test space (k <= 0)")
            den, num = ParamPoly.of(coeff).int_form()
            target = acc.setdefault(den, {})
            xk = weyl.pack(xe)
            for (a, e), (re, im) in num.items():
                merge_term(target, (k, xk, s, a, e), re, im)
        den, raw = common_denominator(acc)
        _init_function(self, d, den, _canonicalize(d, raw))

    def __setattr__(self, name, value):
        raise AttributeError("SpinorFunction is immutable")

    def _decode_monomial(self, key: tuple) -> tuple:
        return key[0], weyl.unpack(key[1], self.d), key[2]

    def __eq__(self, other):
        if not isinstance(other, SpinorFunction):
            return NotImplemented
        return self.d == other.d and self.den == other.den and self.num == other.num

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.d, self.den, frozenset(self.num.items())))
            _set_hash(self, h)
            return h

    def __str__(self):
        terms = self._decoded()
        if not terms:
            return "0"
        parts = []
        for (k, xe, s) in sorted(terms, key=lambda key: (key[2], -key[0], key[1])):
            coeff = terms[(k, xe, s)]
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


_set_d = SpinorFunction.d.__set__
_set_spin_dim = SpinorFunction.spin_dim.__set__
_set_den = SpinorFunction.den.__set__
_set_num = SpinorFunction.num.__set__
_set_hash = SpinorFunction._hash.__set__


def _init_function(f: SpinorFunction, d: int, den: int, num: Dict[tuple, tuple]) -> None:
    den, num = reduce_content(den, num)
    _set_d(f, d)
    _set_spin_dim(f, 2 ** (d // 2))
    _set_den(f, den)
    # a copy: merges and reductions leave deleted slots a dict never gives back
    _set_num(f, dict(num))


def _new(d: int, den: int, num: Dict[tuple, tuple]) -> SpinorFunction:
    """A function from canonical numerators over ``den``."""
    f = object.__new__(SpinorFunction)
    _init_function(f, d, den, num)
    return f


def _function(d: int, acc: Dict[int, dict]) -> SpinorFunction:
    """A canonical function from an accumulator ``{den: {key: (re, im)}}``."""
    den, raw = common_denominator(acc)
    return _new(d, den, _canonicalize(d, raw))


def _canonicalize(d: int, raw: Dict[tuple, tuple]) -> Dict[tuple, tuple]:
    """Unique normal form of ``raw``, which is updated in place and returned.

    Only a term at a level k < 0 whose x1 exponent is at least 2 has a part
    that r^2 divides; each such term is replaced by its coefficient times the
    canonical form of its monomial (``_reduction``).  Every other term is a
    remainder already and stays where it is.  Raises ValueError when the
    tables' quotient steps for one call pass ``weyl.DIVISION_STEP_BUDGET``.
    """
    shift = weyl.FIELD_BITS * (d - 1)
    x1_field = weyl.EXPONENT_LIMIT << shift
    two_x1 = 2 << shift
    divisible = [key for key in raw if key[0] < 0 and key[1] & x1_field >= two_x1]
    budget = weyl.DIVISION_STEP_BUDGET
    get = raw.get
    for key in divisible:
        k, xk, s, a, e = key
        re, im = raw.pop(key)
        steps, terms = _reduction(d, k, xk)
        budget -= steps
        if budget < 0:
            raise ValueError(f"dividing by r^2 exceeds the division-step budget of {weyl.DIVISION_STEP_BUDGET:,}")
        if not re and not im:
            # merging a zero toggles whether its key is stored, so a zero term
            # leaves its trace where its expansion is odd, as reducing the
            # whole level did
            terms = [term for term in terms if term[2] & 1]
        for k2, x2, c in terms:
            target = (k2, x2, s, a, e)
            cur = get(target)
            if cur is None:
                raw[target] = (re * c, im * c)
            else:
                r = cur[0] + re * c
                i = cur[1] + im * c
                if r or i:
                    raw[target] = (r, i)
                else:
                    del raw[target]
    return raw


@lru_cache(maxsize=65536)
def _reduction(d: int, k: int, xk: int) -> tuple:
    """``(steps, terms)``: the canonical form of r^(2k) x^xk as terms
    ``(level, packed x, integer coefficient)``, and the quotient steps
    ``_reduce_level`` took to reach it, level by level up to level 0."""
    poly = {xk: (1, 0)}
    steps = 0
    terms = []
    while poly and k < 0:
        quotient, remainder = _reduce_level(poly, d)
        steps += len(quotient)
        terms.extend((k, x, re) for x, (re, _) in remainder.items())
        poly = quotient
        k += 1
    terms.extend((0, x, re) for x, (re, _) in poly.items())
    return steps, tuple(terms)


def _reduce_level(poly: Dict[int, tuple], d: int) -> tuple:
    """(quotient, remainder) of a packed x-polynomial modulo r^2.

    Terms are taken by falling x1 exponent: a term x1^n m with n >= 2 is
    x1^(n-2) m r^2 - x1^(n-2) m (x2^2 + ... + xd^2), so its quotient term is
    x1^(n-2) m and the rest lands two x1-powers lower, where it is taken in
    turn.  What is left at x1 exponents 0 and 1 is the remainder.  Raises
    ValueError past ``weyl.DIVISION_STEP_BUDGET`` quotient terms.
    """
    units = weyl.unit_keys(d)
    two_x1 = 2 * units[0]
    swaps = [2 * unit - two_x1 for unit in units[1:]]
    by_x1: Dict[int, Dict[int, tuple]] = {}
    for xk, value in poly.items():
        by_x1.setdefault(weyl.exponent_of(xk, 1, d), {})[xk] = value
    quotient: Dict[int, tuple] = {}
    remainder: Dict[int, tuple] = {}
    budget = weyl.DIVISION_STEP_BUDGET
    for n in sorted(by_x1, reverse=True):
        terms = by_x1.pop(n, None)
        while n >= 2 and terms:
            budget -= len(terms)
            if budget < 0:
                raise ValueError(f"dividing by r^2 exceeds the division-step budget of {weyl.DIVISION_STEP_BUDGET:,}")
            lower = by_x1.pop(n - 2, {})
            for xk, (re, im) in terms.items():
                quotient[xk - two_x1] = (re, im)
                for swap in swaps:
                    merge_term(lower, xk + swap, -re, -im)
            n -= 2
            terms = lower
        if terms:
            remainder.update(terms)
    return quotient, remainder


def linear_combine(d: int, parts: Iterable[tuple]) -> SpinorFunction:
    """Sum of (scalar, function) pairs.  Reduced remainders form a vector
    space, so a combination of canonical functions is canonical as it is:
    only common terms and content are merged."""
    acc: Dict[int, dict] = {}
    for coeff, f in parts:
        sden, snum = ParamPoly.of(coeff).int_form()
        if not snum:
            continue
        den = f.den * sden
        target = acc.get(den)
        if target is None:
            acc[den] = target = {}
        if len(snum) == 1 and (0, 0) in snum:
            # no alpha or E: every key stays as it is
            ((sr, si),) = snum.values()
            get = target.get
            for key, (re, im) in f.num.items():
                pr = re * sr - im * si
                pi = re * si + im * sr
                c = get(key)
                if c is None:
                    target[key] = (pr, pi)
                else:
                    pr += c[0]
                    pi += c[1]
                    if pr or pi:
                        target[key] = (pr, pi)
                    else:
                        del target[key]
            continue
        for (k, xk, s, a, e), (re, im) in f.num.items():
            for (sa, se), (sr, si) in snum.items():
                merge_term(target, (k, xk, s, a + sa, e + se), re * sr - im * si, re * si + im * sr)
    return _new(d, *common_denominator(acc))


# ---------------------------------------------------------------------------
# operator action
# ---------------------------------------------------------------------------


def _gamma_columns(d: int, word: tuple) -> Tuple[Tuple[int, int, int], ...]:
    """Column s (1-based) of the word's matrix as its one entry (row, re, im)
    at index s - 1: word matrices are monomial, with unit entries."""
    perm, phase = clifford.word_matrix(d, word)
    return tuple((t + 1, *clifford.UNITS[q]) for t, q in zip(perm, phase))


def apply(op: OperatorExpr, f: SpinorFunction) -> SpinorFunction:
    """Exact action: x multiplies, p differentiates, gamma acts by matrix,
    r^-2 lowers the radial level."""
    if op.d != f.d:
        raise DimensionMismatch(f"operator at d={op.d} applied to function at d={f.d}")
    d = op.d
    if not op.num or not f.num:
        return _function(d, {})
    # differentiating r^(2k) raises an x-degree by one per momentum
    weyl.check_degree(weyl.degree(max(key[1] for key in f.num), d) + sum(op.max_degrees()))
    out: Dict[tuple, tuple] = {}
    get = out.get
    # (k, x, spinor index - 1, alpha power, E power, re, im), unpacked once
    f_terms = [(k, fx, s - 1, fa, fe, fr, fi) for (k, fx, s, fa, fe), (fr, fi) in f.num.items()]
    for j, xk, pk, cols, al, ae in _levels(op):
        for k, fx, s, fa, fe, fr, fi in f_terms:
            t, cr, ci = cols[s]
            tr = fr * cr - fi * ci
            ti = fr * ci + fi * cr
            if not pk:
                key = (k - j, fx + xk, t, al + fa, ae + fe)
                c = get(key)
                if c is None:
                    out[key] = (tr, ti)
                else:
                    re = c[0] + tr
                    im = c[1] + ti
                    if re or im:
                        out[key] = (re, im)
                    else:
                        del out[key]
                continue
            a = al + fa
            e = ae + fe
            for k2, fx2, mr, mi in _derivative_terms(d, pk, k, fx):
                key = (k2 - j, fx2 + xk, t, a, e)
                re = tr * mr - ti * mi
                im = tr * mi + ti * mr
                c = get(key)
                if c is None:
                    out[key] = (re, im)
                else:
                    re += c[0]
                    im += c[1]
                    if re or im:
                        out[key] = (re, im)
                    else:
                        del out[key]
    return _function(d, {op.den * f.den: out})


@lru_cache(maxsize=4096)
def _levels(op: OperatorExpr) -> tuple:
    """The operator r^-2m N as a sum of levels r^-2j N_j, j = m .. 0, each
    term as ``(j, x-exponents, p-exponents, scaled columns, alpha power,
    E power)`` over ``op.den``.  Scaled column s - 1 is ``(row, re, im)``:
    the one entry of column s of the word's matrix times the term's
    coefficient re + im*i.

    N's terms are grouped by (p-part, word, alpha, E).  Each group's
    x-polynomial is q r^2 + rem: rem stays at level j and q joins level
    j - 1.  The x-part stands left of p in normal order, so the split is
    exact, and N_j at j > 0 keeps only what r^2 does not divide.
    """
    d = op.d
    groups: Dict[tuple, Dict[int, tuple]] = {}
    for (xk, pk, word, al, ae), value in op.num.items():
        groups.setdefault((pk, word, al, ae), {})[xk] = value
    terms = []
    for (pk, word, al, ae), poly in groups.items():
        cols = _gamma_columns(d, word)
        j = op.denom_pow
        while poly:
            quotient, remainder = _reduce_level(poly, d) if j else ({}, poly)
            for xk, (re, im) in remainder.items():
                scaled = tuple((t, er * re - ei * im, er * im + ei * re) for t, er, ei in cols)
                terms.append((j, xk, pk, scaled, al, ae))
            poly = quotient
            j -= 1
    return tuple(terms)


@lru_cache(maxsize=65536)
def _derivative_terms(d: int, pk: int, k: int, fx: int) -> tuple:
    """Expand p^pk acting on r^(2k) x^fx into (k', packed exponents, re, im)
    tuples, where re + im*i is the multiplier."""
    current = {(k, fx): (1, 0)}
    units = weyl.unit_keys(d)
    for i in range(1, d + 1):
        unit = units[i - 1]
        for _ in range(weyl.exponent_of(pk, i, d)):
            nxt: Dict[tuple, tuple] = {}
            for (kk, ee), (mr, mi) in current.items():
                if kk:
                    # -i d/dx_i r^(2kk) = -2i kk x_i r^(2kk-2)
                    merge_term(nxt, (kk - 1, ee + unit), 2 * kk * mi, -2 * kk * mr)
                n = weyl.exponent_of(ee, i, d)
                if n:
                    merge_term(nxt, (kk, ee - unit), n * mi, -n * mr)
            current = nxt
    return tuple((kk, ee, mr, mi) for (kk, ee), (mr, mi) in current.items())


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
    raw: Dict[tuple, tuple] = {}
    for _ in range(terms):
        k = rng.randint(min_k, 0)
        degree = rng.randint(0, max_degree)
        exps = [0] * d
        for _ in range(degree):
            exps[rng.randrange(d)] += 1
        s = rng.randint(1, spin_dim)
        re = rng.randint(-3, 3)
        im = rng.randint(-1, 1)
        if not re and not im:
            re = 1
        merge_term(raw, (k, weyl.pack(exps), s, 0, 0), re, im)
    f = _function(d, {1: raw})
    if f.is_zero():
        return _function(d, {1: {(0, 0, 1, 0, 0): (1, 0)}})
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
