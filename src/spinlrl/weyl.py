"""Canonical arithmetic in the Weyl algebra tensored with Cl_d, localized at r^2.

An element is stored as a left fraction

    r^(-2m) * sum_t  x^a(t) p^b(t) w(t) c(t)

with m >= 0, monomials in normal order (positions, then momenta, then a
reduced Clifford word), and coefficients in Q(i)[alpha, E].  The numerator is
kept minimal: whenever m > 0 it is not left-divisible by r^2.  Products are
normalized with the rewrite rules

    p_i x_j   -> x_j p_i - i delta_ij
    p_i r^-2k -> r^-2k p_i + 2 i k x_i r^-(2k+2)

together with Clifford word reduction; positive powers of r^2 are always
expanded into sum x_i^2.  With these conventions equality of canonical forms
is equality in the localized algebra, so the zero test behind every
verification is simply "no terms left".

Storage.  Besides ``d`` and ``denom_pow`` (the m above) an element keeps one
positive int denominator ``den`` and a map ``num`` from
``(xk, pk, word, alpha_power, e_power)`` to a Gaussian-integer numerator
``(re, im)`` of plain ints; the key stands for the term
``x^xk p^pk word alpha^alpha_power E^e_power (re + im*i) / den``.
Normalisation invariant: no numerator is ``(0, 0)`` and the gcd of ``den`` and
every numerator part is 1, so each element has exactly one stored form and
``==`` and ``hash`` compare it directly.  ``terms`` is a read-only view of the
same element as ``{(x-exponents, p-exponents, word): ParamPoly}``.

Packed exponents.  ``xk`` and ``pk`` each pack an exponent vector into one
int of d + 1 fields of ``FIELD_BITS`` = 16 bits: the total degree in the top
field, then the exponent of x1 (p1) in the highest field below it, down to
xd (pd) in the lowest.  Plain int order of packed vectors is therefore graded
lex order (total degree first, then x1, x2, ... lexicographically), which is
the term order of the r^2 division, and multiplying monomials is adding
their packed ints.  The total degree of any x- or p-monomial, and with it
every single exponent, is limited to ``EXPONENT_LIMIT`` = 2^16 - 1.  An
operation whose result could pass the limit raises ValueError before it
builds a single key, so a field never carries into the next one.  All the
arithmetic of products, sums, canonicalisation and r^2 division is int
arithmetic on these keys and numerators; ``ParamPoly`` appears only at the
boundary.  A scalar input is an int, a Fraction or a ParamPoly, and
``constant_value``, ``substitute`` and ``terms`` hand back ParamPolys.

One-term products.  ``multiply`` forms a product of two one-term operands
directly when nothing has to be reordered: a has no momenta, or b has no
positions and no r^-2.  The result is one key, exponents and powers added,
words multiplied by ``_word_product`` below, and it is canonical when its
r^-2 power is 0 or d >= 2: there r^2 = x1^2 + ... + xd^2 divides no single
monomial.  Every other product goes through the kernel.

Products.  ``_multiply_acc`` reads each operand r^-2m N level by level, as
sum_j r^-2j N_j (``_level_terms``): N is divided by r^2 with
``divide_xpoly_by_r2``, the remainder stays at level j and the quotient
passes to level j - 1.  A stored numerator carries its lower levels
multiplied up by powers of r^2 (at d = 8, H stores 72 terms and has 16 level
terms), so where the split has fewer terms than N the product forms fewer
term pairs, and ``_finalize`` brings any mix of levels back to the one
minimal form.  The split is tried once per operand with a denominator and at
least two terms, and kept on it.  It stops, and N is read as stored, once its
divisions could take len(N) quotient steps or it has produced len(N) terms,
so it never raises and costs O(d len(N)).  ``adjoint`` reads its operand
by the same level terms, each moved past its own r^-2j.  The kernel groups the level terms
of a by their momenta, word and level, r^-2j x^xk p^pk w, and moves p^pk w
past b one level term of b at a time through two tables:
``_p_expansion(pk, k, xk, d)``, the normal-ordered expansion of p^pk r^-2k
x^xk by the rewrite rules above, and ``_word_product(w, v, d)``, the reduced
product of two Clifford words.  Each entry is a pure function of
a few packed ints and short tuples, whatever operand or check it came from,
so one entry serves every product that meets the same key; both are
``lru_cache`` tables of at most 65,536 entries, like ``_r2_power_expansion``.
Entry 0 of an expansion is its leading term r^-2k x^xk p^pk.  In a bracket
[a, b] or {a, b} the leading terms of a b and b a are equal up to the order
of their words, since both products read a and b by the same level terms.  So ``commutator``, ``anticommutator`` and
``combine_products``, for an adjacent pair (c, (a, b)), (-c, (b, a)) or
(c, (b, a)) as ``verify.comm`` and ``verify.acomm`` build them, skip entry 0
for each a-word w and b-word v with w v = v w in a commutator, or
w v = -v w in an anticommutator: there the two leading terms cancel.

Left multiples.  For each group the kernel forms the left multiple
r^-2j p^pk w b as a list of level terms, a's coefficients not yet applied,
and the same list serves every product that meets the same group and the
same b.  A table of left multiples keeps them: keyed by the right operand b
by value, so equal operands built apart share an entry, then by
(pk, w, j, swapped), since a bracket's list leaves out the leading terms
that cancel.  It also keeps b's level terms.  A list is kept when its key is
met a second time: a key met once, as most are at large d, costs only the
key, and a product holds one list that is not kept at a time.
``verify.run_check`` creates one table per check, whose pairs multiply the
same named operators again and again (SO21-METRIC brackets every pair of its
generators), and drops it when the check returns; ``combine_products`` uses
a fresh table per call unless it is handed one.  ``multiply`` alone forms
one product and the brackets two with different right operands, so they pass
none: a fresh table would keep nothing for them.  So no table outlives its
call and none is global.  A table cannot move the output: it is only read by
key, never iterated, and an entry is a pure function of its key and b's
value, so the accumulator receives the same terms in the same order as
without it, and canonical forms are unique.  The degree checks and the
product-term budget run before the table is read, on a hit as on a miss.

Shared last factors.  ``combine_products`` evaluates the chains of three or
more factors that end in the same factor object F Horner-style,
sum_c c X_c F = (sum_c c X_c) F: it forms each prefix X_c and, when the
prefixes can cancel, sums them and multiplies the sum by F once if it has no
more terms than the scaled prefixes together.  Prefixes can cancel when they
multiply the same factors in different orders, as a proof chain's do,
B Y - Y B = -i p Y, and then the large F multiplies a few terms; or when
they share a term, at one r^-2 level or at several: APP-C-2's x_i (H-E) x_i
and r^2 (H-E), which end in one H-E, sit at two levels and nearly cancel.
A sum that grows instead, as prefixes at lower levels brought to the top
one can, is not used; those prefixes, and every chain whose last factor is
not shared, are multiplied out on their own.

The work is bounded as well as the degrees: a product that would form more
than ``PRODUCT_TERM_BUDGET`` terms, an expansion or adjoint whose passes
would form more than that, a power of r^2 with more monomials than that, and
an r^2 division of more than ``DIVISION_STEP_BUDGET`` quotient steps raise
ValueError before they run long.

Canonicalisation.  ``_finalize`` turns an accumulator of terms at several
r^-2 levels into the minimal left fraction from the top down.  Brought to a
denominator r^-2m, every level below m is a multiple of r^2; {r^2} is a
Groebner basis of its ideal, so the division remainder is linear and zero on
those multiples, and the numerator divides by r^2 exactly when its top level
does.  So only the top level is divided; its quotient joins the level below,
and the division repeats until it leaves a remainder.  Only the levels still
below the final m are then expanded by powers of r^2, never to a denominator
that the division would take back.

Rendering.  ``render`` prints the canonical text straight from the packed
ints: terms grouped by monomial and sorted on the packed keys, whose top
field is the total degree, and each coefficient printed by
``coeff.format_ints`` from its numerators over ``den``.  The atom text of a
packed exponent vector comes from ``_exponent_text``, an ``lru_cache`` table
of at most 4,096 entries.
"""

from __future__ import annotations

import heapq

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .clifford import UNITS, CliffordIndexError, check_word, pauli_reduce_word, word_adjoint, word_mul
from .coeff import P_ZERO, ParamPoly, ScalarLike, common_denominator, format_ints, merge_term, needs_parens, poly_from_ints, reduce_content

Exponents = Tuple[int, ...]
Monomial = Tuple[Exponents, Exponents, Tuple[int, ...]]

FIELD_BITS = 16
EXPONENT_LIMIT = (1 << FIELD_BITS) - 1
_MASK = EXPONENT_LIMIT

# Work budgets: the exponent limit bounds degrees, these bound the work a
# single product, power of r^2 or r^2 division may do, so huge input fails in
# about a second instead of running for hours.  Over verify's whole registry
# at d = 8 the largest product forms 130,503 terms, the largest expansion of
# momenta past r^-2k x^xk may form 12 (``_p_expansion_work``), the largest
# power of r^2 expands to 330 monomials and the largest division takes 8
# steps; the budgets leave margins of about 7.7, 83,000, 3,000 and 12,500.
PRODUCT_TERM_BUDGET = 1_000_000
DIVISION_STEP_BUDGET = 100_000


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# packed exponent vectors
# ---------------------------------------------------------------------------


def check_degree(degree: int) -> None:
    if degree > EXPONENT_LIMIT:
        raise ValueError(f"total degree {degree} exceeds the exponent limit {EXPONENT_LIMIT}")


def pack(exps: Sequence[int]) -> int:
    """One int for an exponent vector: total degree on top, then x1 ... xd."""
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {tuple(exps)}")
    key = sum(exps)
    check_degree(key)
    for e in exps:
        key = (key << FIELD_BITS) | e
    return key


def unpack(key: int, d: int) -> Exponents:
    out = [0] * d
    for i in range(d - 1, -1, -1):
        out[i] = key & _MASK
        key >>= FIELD_BITS
    return tuple(out)


def degree(key: int, d: int) -> int:
    """Total degree of a packed exponent vector."""
    return key >> (FIELD_BITS * d)


@lru_cache(maxsize=None)
def unit_keys(d: int) -> Tuple[int, ...]:
    """Packed unit vectors; entry i - 1 is the one of variable i."""
    top = 1 << (FIELD_BITS * d)
    return tuple(top | (1 << (FIELD_BITS * (d - i))) for i in range(1, d + 1))


def exponent_of(key: int, i: int, d: int) -> int:
    """Exponent of variable i (1-based) in a packed vector."""
    return (key >> (FIELD_BITS * (d - i))) & _MASK


def _int_scalar(value: ScalarLike) -> Optional[tuple]:
    """A scalar as ``(den, ((alpha_power, e_power, re, im), ...))``, None for 0."""
    den, num = ParamPoly.of(value).int_form()
    if not num:
        return None
    return den, tuple((a, e, re, im) for (a, e), (re, im) in num.items())


_UNIT = (1, ((0, 0, 1, 0),))
_MINUS = (1, ((0, 0, -1, 0),))


# ---------------------------------------------------------------------------
# the element type
# ---------------------------------------------------------------------------


class TermView(Mapping):
    """Read-only decoded view of an element's terms, built on first use; its
    length is the number of distinct monomials and costs no decoding."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "PackedTerms"):
        self._owner = owner

    def __len__(self) -> int:
        return self._owner.term_count()

    def __getitem__(self, key):
        return self._owner._decoded()[key]

    def __iter__(self):
        return iter(self._owner._decoded())


class PackedTerms:
    """Queries shared by the packed integer element types (``OperatorExpr``
    here, ``oracle.SpinorFunction``): ``num`` maps keys whose first three
    entries name a monomial and whose last two are the alpha and E powers to
    Gaussian-integer numerators over the common denominator ``den``."""

    __slots__ = ()

    def _decode_monomial(self, key: tuple) -> tuple:
        raise NotImplementedError

    @property
    def terms(self) -> TermView:
        """``{monomial: ParamPoly}``, read-only."""
        return TermView(self)

    def _decoded(self) -> dict:
        try:
            return self._view
        except AttributeError:
            grouped: dict = {}
            for key, value in self.num.items():
                group = grouped.get(key[:3])
                if group is None:
                    grouped[key[:3]] = group = {}
                group[key[3:]] = value
            view = {self._decode_monomial(mono): poly_from_ints(self.den, group) for mono, group in grouped.items()}
            object.__setattr__(self, "_view", view)
            return view

    def term_count(self) -> int:
        """Number of distinct monomials."""
        return len({key[:3] for key in self.num})

    def is_zero(self) -> bool:
        return not self.num


class OperatorExpr(PackedTerms):
    """An element of the localized Weyl x Clifford algebra at fixed dimension.

    Immutable; always canonical.  Supports +, -, * (scalars and operators),
    ** with non-negative integer exponents, and exact equality.  ``terms`` is
    ``{(x-exponents, p-exponents, word): ParamPoly}``.
    """

    __slots__ = ("d", "denom_pow", "den", "num", "_hash", "_degrees", "_view", "_split")

    def __init__(self, d: int, denom_pow: int, den: int, num: Dict[tuple, tuple]):
        # internal constructor: callers must hand over canonical data
        _set_d(self, d)
        _set_denom_pow(self, denom_pow)
        _set_den(self, den)
        _set_num(self, num)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    # -- queries ---------------------------------------------------------

    def _decode_monomial(self, key: tuple) -> Monomial:
        return unpack(key[0], self.d), unpack(key[1], self.d), key[2]

    def max_degrees(self) -> tuple:
        """Largest total x-degree and p-degree of any term."""
        try:
            return self._degrees
        except AttributeError:
            d = self.d
            degs = (degree(max((k[0] for k in self.num), default=0), d), degree(max((k[1] for k in self.num), default=0), d))
            _set_degrees(self, degs)
            return degs

    def constant_value(self) -> Optional[ParamPoly]:
        """The scalar a purely scalar operator represents, else None."""
        if not self.num:
            return P_ZERO
        if self.denom_pow:
            return None
        params = {}
        for (xk, pk, word, a, e), value in self.num.items():
            if xk or pk or word:
                return None
            params[(a, e)] = value
        return poly_from_ints(self.den, params)

    def max_param_powers(self) -> tuple:
        pa = max((k[3] for k in self.num), default=0)
        pe = max((k[4] for k in self.num), default=0)
        return pa, pe

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, OperatorExpr):
            return _add(self, other)
        if isinstance(other, (int, Fraction, ParamPoly)):
            return _add(self, scalar(self.d, other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr(self.d, self.denom_pow, self.den, {key: (-re, -im) for key, (re, im) in self.num.items()})

    def __sub__(self, other):
        if isinstance(other, OperatorExpr):
            return _add(self, -other)
        if isinstance(other, (int, Fraction, ParamPoly)):
            return _add(self, -scalar(self.d, other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return multiply(self, other)
        if isinstance(other, (int, Fraction, ParamPoly)):
            return _scale(self, other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything, so left scaling is plain scaling
        if isinstance(other, (int, Fraction, ParamPoly)):
            return _scale(self, other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _scale(self, 1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be non-negative integers")
        # repeated squaring: about 2 log2(n) products instead of n
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else multiply(out, base)
            n >>= 1
            if n:
                base = multiply(base, base)
        return one(self.d) if out is None else out

    # -- structure ---------------------------------------------------------

    def adjoint(self) -> "OperatorExpr":
        return adjoint(self)

    def substitute(self, alpha_value=None, e_value=None) -> "OperatorExpr":
        subs = {mono: coeff.substitute(alpha_value, e_value) for mono, coeff in self.terms.items()}
        return reduce_denominator(self.d, subs, self.denom_pow)

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.d == other.d and self.denom_pow == other.denom_pow and self.den == other.den and self.num == other.num

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.d, self.denom_pow, self.den, frozenset(self.num.items())))
            _set_hash(self, h)
            return h

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<OperatorExpr d={self.d}: {render(self)}>"


_set_d = OperatorExpr.d.__set__
_set_denom_pow = OperatorExpr.denom_pow.__set__
_set_den = OperatorExpr.den.__set__
_set_num = OperatorExpr.num.__set__
_set_hash = OperatorExpr._hash.__set__
_set_degrees = OperatorExpr._degrees.__set__
_set_split = OperatorExpr._split.__set__


def _make(d: int, denom_pow: int, den: int, num: dict) -> OperatorExpr:
    """An element from a numerator that is canonical up to its content."""
    if not num:
        return zero(d)
    den, num = reduce_content(den, num)
    return OperatorExpr(d, denom_pow, den, num)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def zero(d: int) -> OperatorExpr:
    return OperatorExpr(d, 0, 1, {})


def one(d: int) -> OperatorExpr:
    return OperatorExpr(d, 0, 1, {(0, 0, (), 0, 0): (1, 0)})


def scalar(d: int, value: ScalarLike) -> OperatorExpr:
    den, num = ParamPoly.of(value).int_form()
    return OperatorExpr(d, 0, den, {(0, 0, (), a, e): v for (a, e), v in num.items()})


def _unit_key(d: int, i: int) -> int:
    if not 1 <= i <= d:
        raise CliffordIndexError(f"generator index {i} outside 1..{d}")
    return unit_keys(d)[i - 1]


def x(d: int, i: int) -> OperatorExpr:
    return OperatorExpr(d, 0, 1, {(_unit_key(d, i), 0, (), 0, 0): (1, 0)})


def p(d: int, i: int) -> OperatorExpr:
    return OperatorExpr(d, 0, 1, {(0, _unit_key(d, i), (), 0, 0): (1, 0)})


def gamma(d: int, i: int) -> OperatorExpr:
    check_word((i,), d)
    return OperatorExpr(d, 0, 1, {(0, 0, (i,), 0, 0): (1, 0)})


def rinv2(d: int) -> OperatorExpr:
    return OperatorExpr(d, 1, 1, {(0, 0, (), 0, 0): (1, 0)})


def r_squared(d: int) -> OperatorExpr:
    return OperatorExpr(d, 0, 1, {(2 * unit, 0, (), 0, 0): (1, 0) for unit in unit_keys(d)})


# ---------------------------------------------------------------------------
# accumulators
#
# An accumulator maps a denominator to a numerator map whose keys are
# (r^-2 power, xk, pk, word, alpha_power, e_power); products with different
# denominators go to different maps, merged once by _finalize.
# ---------------------------------------------------------------------------

Acc = Dict[int, Dict[tuple, tuple]]

# A table of left multiples (see the module docstring) maps a right operand b
# to (b's level terms, {(pk, word, level, swapped): p^pk word b}), where a
# key met only once maps to None.
LeftMultiples = Dict["OperatorExpr", tuple]


def _acc_scaled(out: Acc, a: OperatorExpr, scale: tuple) -> None:
    """Accumulate scale * a into out."""
    sden, sterms = scale
    den = a.den * sden
    target = out.get(den)
    if target is None:
        out[den] = target = {}
    m = a.denom_pow
    for (xk, pk, word, al, ae), (re, im) in a.num.items():
        for sa, se, sr, si in sterms:
            merge_term(target, (m, xk, pk, word, al + sa, ae + se), re * sr - im * si, re * si + im * sr)


def _lmul_p(terms: dict, i: int, d: int) -> dict:
    """p_i times ``{(k, xk, pk): (re, im)}``, standing for r^-2k x^xk p^pk."""
    shift = FIELD_BITS * (d - i)
    unit = unit_keys(d)[i - 1]
    # p_i moves right past every term; these keys are distinct from each other
    out = {(k, xk, pk + unit): value for (k, xk, pk), value in terms.items()}
    for (k, xk, pk), (re, im) in terms.items():
        n = (xk >> shift) & _MASK
        if n:
            # p_i x_i^n = x_i^n p_i - i n x_i^(n-1)
            merge_term(out, (k, xk - unit, pk), n * im, -n * re)
        if k:
            # p_i r^-2k = r^-2k p_i + 2 i k x_i r^-(2k+2)
            merge_term(out, (k + 1, xk + unit, pk), -2 * k * im, 2 * k * re)
    return out


def _p_expansion_work(pk: int, k: int, xk: int, d: int) -> int:
    """Bound on the terms ``_p_expansion(pk, k, xk, d)`` forms over all its passes.

    After t passes of p_i, a term is fixed by how many of them lowered x_i
    and how many raised k.  With k = 0 nothing raises k and at most
    min(t, x_i) lower x_i, so at most min(t, x_i) + 1 terms; with k > 0 at
    most (t + 1)(t + 2) / 2.  Passes run from p_d down to p_1, so each pass
    of p_i is bounded by that count times the final counts of the variables
    already passed.
    """
    work = 0
    passed = 1
    for i in range(d, 0, -1):
        b = exponent_of(pk, i, d)
        if not b:
            continue
        if k:
            # sum over t = 1..b of (t + 1)(t + 2) / 2
            work += passed * (comb(b + 3, 3) - 1)
            passed *= (b + 1) * (b + 2) // 2
        else:
            g = exponent_of(xk, i, d)
            # sum over t = 1..b of min(t, g) + 1
            low = min(b, g)
            work += passed * (low * (low + 3) // 2 + (b - low) * (g + 1))
            passed *= low + 1
    return work


@lru_cache(maxsize=65536)
def _p_expansion(pk: int, k: int, xk: int, d: int) -> tuple:
    """Normal-ordered p^pk r^-2k x^xk as ``(k', xk', pk', re, im)`` tuples,
    standing for the sum of (re + im*i) r^-2k' x^xk' p^pk'.

    Entry 0 is the leading term r^-2k x^xk p^pk with coefficient 1: p^pk
    passing everything unchanged.  Raises ValueError before expanding when
    ``_p_expansion_work`` passes ``PRODUCT_TERM_BUDGET``.
    """
    work = _p_expansion_work(pk, k, xk, d)
    if work > PRODUCT_TERM_BUDGET:
        raise ValueError(
            f"moving p^{degree(pk, d)} past x^{degree(xk, d)} may form {work:,} terms, "
            f"past the product-term budget of {PRODUCT_TERM_BUDGET:,}"
        )
    cur = {(k, xk, 0): (1, 0)}
    for i in range(d, 0, -1):
        for _ in range(exponent_of(pk, i, d)):
            cur = _lmul_p(cur, i, d)
    return tuple((k2, xk2, pk2, re, im) for (k2, xk2, pk2), (re, im) in cur.items())


@lru_cache(maxsize=65536)
def _word_product(w: Tuple[int, ...], v: Tuple[int, ...], d: int) -> tuple:
    """``word_mul(w, v, d)``, looked up in this module at each miss."""
    return word_mul(w, v, d)


@lru_cache(maxsize=65536)
def _swap_sign(w: Tuple[int, ...], v: Tuple[int, ...]) -> int:
    """The sign s with w v = s v w for reduced Clifford words: v moves past
    w by |w| |v| swaps of generators, and only unequal ones anticommute."""
    return -1 if (len(w) * len(v) - len(set(w).intersection(v))) & 1 else 1


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def divide_xpoly_by_r2(xpoly: Dict[int, tuple], d: int) -> tuple:
    """Divide a position polynomial by sum x_i^2 under graded lex order.

    ``xpoly`` maps packed exponent vectors to Gaussian-integer numerators
    ``(re, im)``.  Returns (quotient, remainder) in the same form; the input
    is divisible exactly when the remainder is empty.  The divisor's
    coefficients are all one, so the division stays in the integers and its
    result is unique over any coefficient ring.  Raises ValueError once the
    quotient would grow past ``DIVISION_STEP_BUDGET`` terms.
    """
    f = dict(xpoly)
    units = unit_keys(d)
    two_x1 = 2 * units[0]
    steps = [2 * unit - two_x1 for unit in units[1:]]
    x1_shift = FIELD_BITS * (d - 1)
    # packed int order is graded lex order: a max-heap of keys pops leading
    # terms; stale entries are skipped on pop
    heap = [-key for key in f]
    heapq.heapify(heap)
    quotient: Dict[int, tuple] = {}
    remainder: Dict[int, tuple] = {}
    budget = DIVISION_STEP_BUDGET
    while heap:
        lead = -heapq.heappop(heap)
        coeff = f.pop(lead, None)
        if coeff is None:
            continue
        if (lead >> x1_shift) & _MASK >= 2:
            # every new key is x1^-2 x_j^2 times the lead, so it sorts below
            # it and no lead comes back
            budget -= 1
            if budget < 0:
                raise ValueError(f"dividing by r^2 exceeds the division-step budget of {DIVISION_STEP_BUDGET:,}")
            quotient[lead - two_x1] = coeff
            re, im = coeff
            for step in steps:
                key = lead + step
                got = f.get(key)
                if got is None:
                    heapq.heappush(heap, -key)
                    f[key] = (-re, -im)
                else:
                    sr = got[0] - re
                    si = got[1] - im
                    if sr or si:
                        f[key] = (sr, si)
                    else:
                        del f[key]
        else:
            remainder[lead] = coeff
    return quotient, remainder


def _x_polynomials(num: Dict[tuple, tuple]) -> Dict[tuple, dict]:
    """A numerator's terms grouped by (p-part, word, alpha power, E power),
    each group the x-polynomial ``{xk: (re, im)}`` that stands left of them."""
    groups: Dict[tuple, dict] = {}
    for (xk, pk, word, a, e), value in num.items():
        group = groups.get((pk, word, a, e))
        if group is None:
            groups[(pk, word, a, e)] = group = {}
        group[xk] = value
    return groups


def _try_divide_numerator(num: Dict[tuple, tuple], d: int) -> Optional[Dict[tuple, tuple]]:
    """One left division of a numerator map by r^2, or None when impossible."""
    out: Dict[tuple, tuple] = {}
    for (pk, word, a, e), xpoly in _x_polynomials(num).items():
        quotient, remainder = divide_xpoly_by_r2(xpoly, d)
        if remainder:
            return None
        for xk, value in quotient.items():
            out[(xk, pk, word, a, e)] = value
    return out


def _finalize(d: int, acc: Acc) -> OperatorExpr:
    den, flat = common_denominator(acc) if acc else (1, {})
    if not flat:
        return zero(d)
    levels: Dict[int, dict] = {}
    for key, value in flat.items():
        level = levels.get(key[0])
        if level is None:
            levels[key[0]] = level = {}
        level[key[1:]] = value
    # Top down: below r^-2m every level is an r^2-multiple once it is brought
    # to that denominator, so the whole numerator divides by r^2 exactly when
    # its top level does, and the quotient joins the level below.
    m = max(levels)
    num = levels.pop(m)
    while m > 0:
        if not num and not levels:
            return zero(d)
        divided = _try_divide_numerator(num, d)
        if divided is None:
            break
        num = divided
        m -= 1
        lower = levels.pop(m, None)
        if lower:
            for key, (re, im) in lower.items():
                merge_term(num, key, re, im)
    # the levels still below r^-2m, brought to it: they cannot cancel the
    # top level's remainder, so the result stays minimal
    get = num.get
    for k, level in levels.items():
        for (xk, pk, word, a, e), (re, im) in level.items():
            for xk2, mult in _r2_power_expansion(xk, m - k, d):
                key = (xk2, pk, word, a, e)
                r = re * mult
                j = im * mult
                c = get(key)
                if c is not None:
                    r += c[0]
                    j += c[1]
                    if not r and not j:
                        del num[key]
                        continue
                num[key] = (r, j)
    if not num:
        return zero(d)
    return _make(d, m, den, num)


@lru_cache(maxsize=65536)
def _r2_power_expansion(xk: int, power: int, d: int) -> tuple:
    """Expand (sum x_j^2)^power * x^xk into (packed exponents, multiplicity)
    pairs: x^xk x_1^2k_1 ... x_d^2k_d with the multinomial coefficient
    power! / (k_1! ... k_d!), each formed from the one before it, so the
    work is at most d times the output."""
    check_degree(degree(xk, d) + 2 * power)
    size = comb(power + d - 1, d - 1)
    if size > PRODUCT_TERM_BUDGET:
        raise ValueError(f"(r^2)^{power} at d={d} has {size:,} terms, past the product-term budget of {PRODUCT_TERM_BUDGET:,}")
    *steps, last = [2 * unit for unit in unit_keys(d)]
    # (key, rest, mult): x^key with the powers of x_1^2 .. x_j^2 chosen, rest
    # factors of r^2 left for the others, and mult * C(rest, k + 1) formed
    # from mult * C(rest, k) as one more factor goes to x_j^2; a term with
    # none left is complete
    out = []
    partial = [(xk, power, 1)]
    for step in steps:
        grown = []
        for key, rest, mult in partial:
            for k in range(rest):
                grown.append((key, rest - k, mult))
                mult = mult * (rest - k) // (k + 1)
                key += step
            out.append((key, mult))
        partial = grown
    out += [(key + rest * last, mult) for key, rest, mult in partial]
    return tuple(out)


# ---------------------------------------------------------------------------
# products and sums
# ---------------------------------------------------------------------------


def _require_same_d(a: OperatorExpr, b: OperatorExpr) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"cannot combine operators at d={a.d} and d={b.d}")


def _quotient_steps_bound(xpoly: Dict[int, tuple], d: int, cap: int) -> int:
    """An upper bound on the quotient steps of ``divide_xpoly_by_r2(xpoly, d)``,
    summed only until it passes ``cap``.  Each step takes one lead with x1^2
    in it, and every lead that dividing x^a meets is x^a with some x1^2
    replaced by x_j^2 (j > 1), so x^a takes at most C(a1 // 2 + d - 2, d - 1)
    steps and a sum of monomials no more than its terms together."""
    shift = FIELD_BITS * (d - 1)
    total = 0
    for xk in xpoly:
        half = ((xk >> shift) & _MASK) >> 1
        if half:
            total += comb(half + d - 2, d - 1)
            if total > cap:
                break
    return total


def _split_levels(a: OperatorExpr) -> Optional[tuple]:
    """a = r^-2m N as a sum of levels r^-2j N_j, each term as ``(j, xk, pk,
    word, alpha power, E power, re, im)`` over ``a.den``; None unless that
    has fewer terms than N.

    N's terms are grouped by (p-part, word, alpha, E).  Each group's
    x-polynomial is q r^2 + rem by ``divide_xpoly_by_r2``: rem stays at level
    j and q passes to j - 1, down to level 0.  The x-part stands left of p in
    normal order, so the split is exact.  The attempt stops once its
    divisions could take len(N) quotient steps, as ``_quotient_steps_bound``
    counts them before each division, or once it has produced len(N) terms,
    so it never raises and costs O(d len(N)).
    """
    d = a.d
    size = len(a.num)
    steps_left = min(size, DIVISION_STEP_BUDGET)
    terms: list = []
    for (pk, word, al, ae), poly in _x_polynomials(a.num).items():
        j = a.denom_pow
        while j and poly:
            steps = _quotient_steps_bound(poly, d, steps_left)
            if steps > steps_left:
                return None
            quotient, remainder = divide_xpoly_by_r2(poly, d) if steps else ({}, poly)
            steps_left -= len(quotient)
            terms.extend((j, xk, pk, word, al, ae, re, im) for xk, (re, im) in remainder.items())
            poly = quotient
            j -= 1
        terms.extend((0, xk, pk, word, al, ae, re, im) for xk, (re, im) in poly.items())
        if len(terms) >= size:
            return None
    return tuple(terms)


def _level_terms(a: OperatorExpr) -> Sequence[tuple]:
    """The terms the product kernel reads, as ``(j, xk, pk, word, alpha
    power, E power, re, im)`` for r^-2j x^xk p^pk word: a's r^-2 levels
    when ``_split_levels`` finds fewer terms there, else its stored terms at
    level ``denom_pow``.  The split is tried once per operand, for one of at
    least two terms with a denominator, and kept in its ``_split`` slot
    (None when it does not pay)."""
    m = a.denom_pow
    if m and len(a.num) > 1:
        try:
            split = a._split
        except AttributeError:
            split = _split_levels(a)
            _set_split(a, split)
        if split is not None:
            return split
    return [(m, xk, pk, word, al, ae, re, im) for (xk, pk, word, al, ae), (re, im) in a.num.items()]


def _multiply_acc(a: OperatorExpr, b: OperatorExpr, out: Acc, table: Optional[LeftMultiples], scale: tuple = _UNIT, swapped: int = 0) -> None:
    """Accumulate scale * a * b into out without canonicalizing.

    ``table`` holds the left multiples of right operands; the caller creates
    it and passes it to every product that may share a right operand, or
    passes None for a product on its own, for which a fresh table would keep
    nothing.  ``scale`` is a scalar in the form of ``_int_scalar``.
    ``swapped`` is -1 when out also receives -scale * b * a, a commutator,
    and 1 when it receives scale * b * a, an anticommutator.  Then the
    leading term of each pair of an a-term with word w and a b-term with word
    v is not formed when the other product's leading term cancels it: when
    w v = -swapped v w.  The caller forms b * a with the same ``swapped``.
    Both operands are read by ``_level_terms``, the same way in both orders.
    """
    d = a.d
    if not a.num or not b.num:
        return
    ax, ap = a.max_degrees()
    bx, bp = b.max_degrees()
    # moving a's momenta past b raises an x-degree by at most one per
    # momentum, and only past a power of r^-2
    check_degree(ax + bx + (ap if b.denom_pow else 0))
    check_degree(ap + bp)
    sden, sterms = scale
    a_terms = _level_terms(a)
    if table is None:
        b_terms, multiples = _level_terms(b), None
    else:
        entry = table.get(b)
        if entry is None:
            table[b] = entry = (_level_terms(b), {})
        b_terms, multiples = entry
    # a's terms grouped by what b has to be pushed past: r^-2j x^xk p^pk w b
    # = r^-2j x^xk (p^pk w b), and p^pk w b is formed once per group, or
    # read from the table
    groups: Dict[tuple, list] = {}
    for j, xk, pk, word, al, ae, re, im in a_terms:
        factors = groups.get((pk, word, j))
        if factors is None:
            groups[(pk, word, j)] = factors = []
        for sa, se, sr, si in sterms:
            factors.append((xk, al + sa, ae + se, re * sr - im * si, re * si + im * sr))
    # p^pk moved past r^-2k x^xk gives at most 3^|pk| terms: each unit of p_i
    # passes, lowers x_i or raises k.  A product that this bound cannot keep
    # within the budget has the terms it forms counted before any is formed.
    if len(a_terms) * len(sterms) * len(b_terms) * 3 ** min(ap, 13) > PRODUCT_TERM_BUDGET:
        formed = 0
        sizes: Dict[int, int] = {}
        for (pk, word, j), factors in groups.items():
            size = sizes.get(pk)
            if size is None:
                sizes[pk] = size = sum(len(_p_expansion(pk, t[0], t[1], d)) for t in b_terms)
            formed += len(factors) * size
            if formed > PRODUCT_TERM_BUDGET:
                raise ValueError(f"a product of {len(a.num)} by {len(b.num)} terms exceeds the product-term budget of {PRODUCT_TERM_BUDGET:,}")
    den = a.den * b.den * sden
    target = out.get(den)
    if target is None:
        out[den] = target = {}
    get = target.get
    for (pk, word, shift), factors in groups.items():
        group = (pk, word, shift, swapped)
        pushed = None if multiples is None else multiples.get(group)
        if pushed is None:
            pushed = _left_multiple(pk, word, shift, swapped, b_terms, d)
            if multiples is not None:
                # kept when its key comes back; a key met once keeps no list
                multiples[group] = pushed if group in multiples else None
        for xk, al, ae, fr, fi in factors:
            for k, bxk, bpk, bw, ba, be, br, bi in pushed:
                key = (k, bxk + xk, bpk, bw, ba + al, be + ae)
                re = br * fr - bi * fi
                im = br * fi + bi * fr
                c = get(key)
                if c is None:
                    target[key] = (re, im)
                else:
                    re += c[0]
                    im += c[1]
                    if re or im:
                        target[key] = (re, im)
                    else:
                        del target[key]


def _left_multiple(pk: int, word: Tuple[int, ...], shift: int, swapped: int, b_terms: Sequence[tuple], d: int) -> list:
    """r^-2shift p^pk word b as level terms ``(k, xk, pk, word, alpha power,
    E power, re, im)`` over b's denominator, one level term of b at a time:
    p^pk passes r^-2bk x^bxk by the expansion table, word meets bw by the
    word table, and the term's own p^bpk is added to each expansion term's
    momenta.  With ``swapped`` the leading terms that cancel in the bracket
    are left out, as ``_multiply_acc`` says."""
    pushed = []
    for bk, bxk, bpk, bw, ba, be, br, bi in b_terms:
        v, sign = _word_product(word, bw, d)
        if sign < 0:
            br, bi = -br, -bi
        expansion = _p_expansion(pk, bk, bxk, d)
        if swapped and _swap_sign(word, bw) == -swapped:
            # both products lead with r^-2(ka+kb) x^(xa+xb) p^(pa+pb)
            # times the same coefficients, and their words cancel
            expansion = expansion[1:]
        for k, xk2, pk2, er, ei in expansion:
            pushed.append((k + shift, xk2, pk2 + bpk, v, ba, be, er * br - ei * bi, er * bi + ei * br))
    return pushed


def _monomial_product(a: OperatorExpr, b: OperatorExpr) -> Optional[OperatorExpr]:
    """a * b for one-term a and b when nothing has to be reordered, else None.

    With no momenta in a, or no positions and no r^-2 in b, the product is
    the single term with the exponents, r^-2 powers and parameter powers
    added, the words multiplied and the coefficients multiplied.  It is
    canonical at d >= 2, where one monomial is never a multiple of r^2; at
    d = 1 r^2 is x1^2, so a product with a denominator takes the kernel.
    """
    ((xa, pa, wa, aa, ea), (ar, ai)), = a.num.items()
    ((xb, pb, wb, ab, eb), (br, bi)), = b.num.items()
    m = a.denom_pow + b.denom_pow
    d = a.d
    if pa and (xb or b.denom_pow) or m and d < 2:
        return None
    check_degree(degree(xa, d) + degree(xb, d))
    check_degree(degree(pa, d) + degree(pb, d))
    word, sign = _word_product(wa, wb, d)
    if sign < 0:
        br, bi = -br, -bi
    return _make(d, m, a.den * b.den, {(xa + xb, pa + pb, word, aa + ab, ea + eb): (ar * br - ai * bi, ar * bi + ai * br)})


def multiply(a: OperatorExpr, b: OperatorExpr, table: Optional[LeftMultiples] = None) -> OperatorExpr:
    """Exact noncommutative product in canonical left-fraction form; one-term
    operands that need no reordering take ``_monomial_product``.  ``table``
    is a table of left multiples shared with other products, if any."""
    _require_same_d(a, b)
    if len(a.num) == 1 and len(b.num) == 1:
        product = _monomial_product(a, b)
        if product is not None:
            return product
    out: Acc = {}
    _multiply_acc(a, b, out, table)
    return _finalize(a.d, out)


def combine_products(d: int, terms: Iterable[tuple], table: Optional[LeftMultiples] = None) -> OperatorExpr:
    """Canonical form of sum coeff * (factor_1 ... factor_n).

    All products accumulate into one shared store before the single
    canonicalization pass, so cancellations between terms happen before any
    denominator merging.  Two adjacent terms (c, (a, b)), (-c, (b, a)) or
    (c, (a, b)), (c, (b, a)) are a bracket, as ``verify.comm`` and
    ``verify.acomm`` build them, and are formed without the leading terms
    that cancel between them.  Chains of three or more factors that end in
    the same factor object F are summed before F multiplies them, by
    ``_multiply_shared``.  Every product reads and fills ``table``, a table
    of left multiples that the caller may share between sums (``verify``
    shares one per check); a fresh one by default.
    """
    if table is None:
        table = {}
    out: Acc = {}
    terms = list(terms)
    # chains of three or more factors per last factor, counted when the
    # first of them is met: sums of shorter chains pay nothing for this
    last_counts: Optional[Dict[int, int]] = None
    shared: Dict[int, list] = {}
    n = 0
    while n < len(terms):
        coeff, factors = terms[n]
        n += 1
        scale = _int_scalar(coeff)
        if scale is None:
            continue
        if not factors:
            _acc_scaled(out, one(d), scale)
            continue
        if len(factors) == 1:
            _acc_scaled(out, factors[0], scale)
            continue
        if len(factors) == 2 and n < len(terms):
            coeff2, factors2 = terms[n]
            if len(factors2) == 2 and factors2[0] is factors[1] and factors2[1] is factors[0]:
                scale2 = _int_scalar(coeff2)
                swapped = _scale_ratio(scale, scale2)
                if swapped:
                    _multiply_acc(factors[0], factors[1], out, table, scale, swapped)
                    _multiply_acc(factors[1], factors[0], out, table, scale2, swapped)
                    n += 1
                    continue
        if len(factors) > 2:
            if last_counts is None:
                last_counts = {}
                for _, chain in terms[n - 1:]:
                    if len(chain) > 2:
                        key = id(chain[-1])
                        last_counts[key] = last_counts.get(key, 0) + 1
            if last_counts[id(factors[-1])] > 1:
                shared.setdefault(id(factors[-1]), []).append((scale, factors))
                continue
        _multiply_acc(_prefix_product(factors, table), factors[-1], out, table, scale)
    for chains in shared.values():
        _multiply_shared(d, chains, out, table)
    return _finalize(d, out)


def _prefix_product(factors: Sequence[OperatorExpr], table: LeftMultiples) -> OperatorExpr:
    """The product of every factor but the last, folded left to right."""
    prefix = factors[0]
    for factor in factors[1:-1]:
        prefix = multiply(prefix, factor, table)
    return prefix


def _multiply_shared(d: int, chains: list, out: Acc, table: LeftMultiples) -> None:
    """Accumulate sum scale * X * F over ``(scale, (X..., F))`` chains that
    end in one factor F, as (sum scale * X) * F when the prefixes X can
    cancel and their sum has no more terms than they have together, else
    chain by chain."""
    last = chains[0][1][-1]
    prefixes = [(scale, _prefix_product(factors, table)) for scale, factors in chains]
    if _prefixes_can_cancel(chains, prefixes):
        acc: Acc = {}
        for scale, prefix in prefixes:
            _acc_scaled(acc, prefix, scale)
        summed = _finalize(d, acc)
        if len(summed.num) <= sum(len(prefix.num) * len(scale[1]) for scale, prefix in prefixes):
            _multiply_acc(summed, last, out, table)
            return
    for scale, prefix in prefixes:
        _multiply_acc(prefix, last, out, table, scale)


def _prefixes_can_cancel(chains: list, prefixes: list) -> bool:
    """Whether summing the prefixes may leave fewer terms: they multiply the
    same factors in different orders (B Y - Y B = -i p Y), or they share a
    term, at one r^-2 level or at several.  Prefixes with no term in common
    merge nothing."""
    if len({tuple(sorted(map(id, factors[:-1]))) for _, factors in chains}) == 1:
        return True
    keys = [prefix.num.keys() for _, prefix in prefixes]
    return len(set().union(*keys)) < sum(map(len, keys))


def _scale_ratio(scale: tuple, other: Optional[tuple]) -> int:
    """1 if ``other`` equals ``scale``, -1 if it is its negative, else 0."""
    if other is None or other[0] != scale[0]:
        return 0
    mine = set(scale[1])
    theirs = set(other[1])
    if theirs == mine:
        return 1
    if theirs == {(a, e, -re, -im) for a, e, re, im in mine}:
        return -1
    return 0


def _add(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    _require_same_d(a, b)
    acc: Acc = {}
    _acc_scaled(acc, a, _UNIT)
    _acc_scaled(acc, b, _UNIT)
    return _finalize(a.d, acc)


def _scale(a: OperatorExpr, factor: ScalarLike) -> OperatorExpr:
    scale = _int_scalar(factor)
    if scale is None:
        return zero(a.d)
    if scale == _UNIT:
        return a
    # scaling by a nonzero polynomial cannot create r^2-divisibility, so the
    # left fraction stays minimal and no re-reduction is needed
    acc: Acc = {}
    _acc_scaled(acc, a, scale)
    ((den, flat),) = acc.items()
    return _make(a.d, a.denom_pow, den, {key[1:]: value for key, value in flat.items()})


def linear_combine(parts: Iterable[tuple], d: Optional[int] = None) -> OperatorExpr:
    """Canonical sum of (scalar, operator) pairs.

    The dimension is taken from the operators; an empty list yields the zero
    operator of the explicitly supplied dimension.
    """
    acc: Acc = {}
    for factor, expr in parts:
        if d is None:
            d = expr.d
        elif expr.d != d:
            raise DimensionMismatch("mixed dimensions in linear combination")
        scale = _int_scalar(factor)
        if scale is not None:
            _acc_scaled(acc, expr, scale)
    if d is None:
        raise ValueError("linear_combine needs at least one term or an explicit dimension")
    return _finalize(d, acc)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    _require_same_d(a, b)
    out: Acc = {}
    _multiply_acc(a, b, out, None, _UNIT, -1)
    _multiply_acc(b, a, out, None, _MINUS, -1)
    return _finalize(a.d, out)


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    _require_same_d(a, b)
    out: Acc = {}
    _multiply_acc(a, b, out, None, _UNIT, 1)
    _multiply_acc(b, a, out, None, _UNIT, 1)
    return _finalize(a.d, out)


def reduce_denominator(d: int, numerator: Dict[Monomial, ScalarLike], m: int) -> OperatorExpr:
    """Canonical element r^-2m * numerator with the left fraction minimized.

    Divides the numerator on the left by r^2 while possible (every graded
    piece must divide exactly) and decrements m accordingly.
    """
    if m < 0:
        raise ValueError("denominator power must be non-negative")
    acc: Acc = {}
    for (xe, pe, word), coeff in numerator.items():
        scale = _int_scalar(coeff)
        if scale is None:
            continue
        sden, sterms = scale
        target = acc.get(sden)
        if target is None:
            acc[sden] = target = {}
        xk, pk = pack(xe), pack(pe)
        for a, e, re, im in sterms:
            merge_term(target, (m, xk, pk, tuple(word), a, e), re, im)
    return _finalize(d, acc)


def normalize(d: int, factors: Sequence[Union[OperatorExpr, ScalarLike]]) -> OperatorExpr:
    """Canonical form of a formal product of generators and scalars.

    Accepts any mix of OperatorExpr atoms and scalars; an empty product is the
    identity.  Folding left-to-right and any other association produce the
    same canonical result (multiplication is associative), which the test
    suite exercises on randomized streams.
    """
    out = one(d)
    for factor in factors:
        if isinstance(factor, OperatorExpr):
            out = multiply(out, factor)
        else:
            out = _scale(out, factor)
    return out


def adjoint(a: OperatorExpr) -> OperatorExpr:
    """Formal Hermitian adjoint: conjugate coefficients, reverse factors.

    x_i, p_i, and r^-2 are each formally self-adjoint; Clifford words pick up
    the reversal sign.  The result is renormalized to canonical form, making
    the map an anti-automorphism: (ab)^+ = b^+ a^+.
    """
    d = a.d
    if not a.num:
        return zero(d)
    xdeg, pdeg = a.max_degrees()
    check_degree(xdeg + (pdeg if a.denom_pow else 0))
    # a is read as the product kernel reads it, level by level
    terms = _level_terms(a)
    # each term moves its momenta past its positions: sum_t 3^t <= 3^(|pk|+1)
    # bounds one expansion's work, and past the budget the expansions are
    # counted before any is built
    if len(terms) * 3 ** min(pdeg + 1, 14) > PRODUCT_TERM_BUDGET:
        work = sum(_p_expansion_work(pk, j, xk, d) for j, xk, pk, *_ in terms)
        if work > PRODUCT_TERM_BUDGET:
            raise ValueError(f"the adjoint of {len(a.num)} terms may form {work:,} terms, past the product-term budget of {PRODUCT_TERM_BUDGET:,}")
    out: Dict[tuple, tuple] = {}
    for j, xk, pk, word, al, ae, re, im in terms:
        # (r^-2j x^xk p^pk w)^+ = w^+ p^pk r^-2j x^xk, and w^+ = sign * w
        w_adj, sign = word_adjoint(word)
        fr, fi = (re, -im) if sign > 0 else (-re, im)
        for k, xk2, pk2, cr, ci in _p_expansion(pk, j, xk, d):
            merge_term(out, (k, xk2, pk2, w_adj, al, ae), cr * fr - ci * fi, cr * fi + ci * fr)
    return _finalize(d, {a.den: out})


def pauli_project(a: OperatorExpr) -> OperatorExpr:
    """Image of a d=3 element in the Pauli quotient (g1 g2 g3 = i).

    Words of length >= 2 collapse to scalar multiples of single generators,
    matching the concrete 2x2 representation.
    """
    if a.d != 3:
        raise DimensionMismatch("the Pauli quotient exists only at d=3")
    out: Dict[tuple, tuple] = {}
    m = a.denom_pow
    for (xk, pk, word, al, ae), (re, im) in a.num.items():
        q, new_word = pauli_reduce_word(word)
        ur, ui = UNITS[q]
        merge_term(out, (m, xk, pk, new_word, al, ae), re * ur - im * ui, re * ui + im * ur)
    return _finalize(3, {a.den: out})


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _exponent_text(name: str, key: int, d: int) -> str:
    """The atoms of a packed exponent vector, "x1^2 x3" for name "x"."""
    atoms = []
    for i in range(1, d + 1):
        e = (key >> (FIELD_BITS * (d - i))) & _MASK
        if e == 1:
            atoms.append(f"{name}{i}")
        elif e:
            atoms.append(f"{name}{i}^{e}")
    return " ".join(atoms)


def _monomial_text(xk: int, pk: int, word: Tuple[int, ...], d: int) -> str:
    """The atoms of x^xk p^pk word, "x1^2 p3 g1 g2"; empty for the unit."""
    atoms = [_exponent_text("x", xk, d)] if xk else []
    if pk:
        atoms.append(_exponent_text("p", pk, d))
    atoms.extend(f"g{i}" for i in word)
    return " ".join(atoms)


def render(a: OperatorExpr) -> str:
    """Canonical text form; parsing it back yields an equal operator."""
    if not a.num:
        return "0"
    d = a.d
    den = a.den
    groups: Dict[tuple, dict] = {}
    for (xk, pk, word, al, ae), value in a.num.items():
        group = groups.get((xk, pk, word))
        if group is None:
            groups[(xk, pk, word)] = group = {}
        group[(al, ae)] = value
    if a.denom_pow == 0 and len(groups) == 1 and (0, 0, ()) in groups:
        return format_ints(den, groups[(0, 0, ())])
    # the top field of a packed key is its total degree, so this is the order
    # of total x-degree, total p-degree, word length, then the exponents
    shift = FIELD_BITS * d
    order = sorted(groups, key=lambda m: (m[0] >> shift, m[1] >> shift, len(m[2]), m[0], m[1], m[2]), reverse=True)
    parts = []
    for mono in order:
        atoms = _monomial_text(mono[0], mono[1], mono[2], d)
        group = groups[mono]
        if atoms and len(group) == 1 and group.get((0, 0)) == (den, 0):
            parts.append(atoms)
            continue
        coeff = format_ints(den, group)
        if needs_parens(coeff):
            coeff = f"({coeff})"
        parts.append(f"{coeff} {atoms}" if atoms else coeff)
    body = " + ".join(parts)
    if a.denom_pow == 0:
        return body
    prefix = "rinv2" if a.denom_pow == 1 else f"rinv2^{a.denom_pow}"
    return f"{prefix} ({body})"
