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
"""

from __future__ import annotations

import heapq

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .clifford import CliffordIndexError, check_word, pauli_reduce_word, word_adjoint, word_mul
from .coeff import GaussianRational, P_ONE, P_ZERO, ParamPoly, gaussian_int

Exponents = Tuple[int, ...]
Monomial = Tuple[Exponents, Exponents, Tuple[int, ...]]
ScalarLike = Union[int, Fraction, GaussianRational, ParamPoly]


class DimensionMismatch(ValueError):
    pass


def _as_poly(value: ScalarLike) -> ParamPoly:
    return ParamPoly.of(value)


_MINUS_ONE = gaussian_int(-1)


class OperatorExpr:
    """An element of the localized Weyl x Clifford algebra at fixed dimension.

    Immutable; always canonical.  Supports +, -, * (scalars and operators),
    ** with non-negative integer exponents, and exact equality.
    """

    __slots__ = ("d", "denom_pow", "terms")

    def __init__(self, d: int, denom_pow: int, terms: Dict[Monomial, ParamPoly]):
        # internal constructor: callers must hand over canonical data
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "denom_pow", denom_pow)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def constant_value(self) -> Optional[ParamPoly]:
        """The scalar a purely scalar operator represents, else None."""
        if not self.terms:
            return P_ZERO
        if self.denom_pow == 0 and len(self.terms) == 1:
            trivial = _trivial_monomial(self.d)
            if trivial in self.terms:
                return self.terms[trivial]
        return None

    def max_param_powers(self) -> tuple:
        pa = pe = 0
        for coeff in self.terms.values():
            a, e = coeff.max_powers()
            pa = max(pa, a)
            pe = max(pe, e)
        return pa, pe

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, OperatorExpr):
            return _add(self, other)
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return _add(self, scalar(self.d, other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _scale(self, _MINUS_ONE)

    def __sub__(self, other):
        if isinstance(other, OperatorExpr):
            return _add(self, -other)
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return _add(self, scalar(self.d, -_as_poly(other)))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return multiply(self, other)
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return _scale(self, _as_poly(other))
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything, so left scaling is plain scaling
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return _scale(self, _as_poly(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            inv = GaussianRational.of(other).inverse()
            return _scale(self, ParamPoly.of(inv))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be non-negative integers")
        out = one(self.d)
        for _ in range(n):
            out = multiply(out, self)
        return out

    # -- structure ---------------------------------------------------------

    def adjoint(self) -> "OperatorExpr":
        return adjoint(self)

    def substitute(self, alpha_value=None, e_value=None) -> "OperatorExpr":
        acc: Dict[tuple, ParamPoly] = {}
        for mono, coeff in self.terms.items():
            sub = coeff.substitute(alpha_value, e_value)
            if sub:
                acc[(self.denom_pow, mono)] = sub
        return _finalize(self.d, acc)

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.d == other.d and self.denom_pow == other.denom_pow and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, self.denom_pow, frozenset(self.terms.items())))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<OperatorExpr d={self.d}: {render(self)}>"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _trivial_monomial(d: int) -> Monomial:
    z = (0,) * d
    return (z, z, ())


def zero(d: int) -> OperatorExpr:
    return OperatorExpr(d, 0, {})


def one(d: int) -> OperatorExpr:
    return OperatorExpr(d, 0, {_trivial_monomial(d): P_ONE})


def scalar(d: int, value: ScalarLike) -> OperatorExpr:
    coeff = _as_poly(value)
    if not coeff:
        return zero(d)
    return OperatorExpr(d, 0, {_trivial_monomial(d): coeff})


def _unit_exp(d: int, i: int) -> Exponents:
    if not 1 <= i <= d:
        raise CliffordIndexError(f"generator index {i} outside 1..{d}")
    return tuple(1 if k == i - 1 else 0 for k in range(d))


def x(d: int, i: int) -> OperatorExpr:
    z = (0,) * d
    return OperatorExpr(d, 0, {(_unit_exp(d, i), z, ()): P_ONE})


def p(d: int, i: int) -> OperatorExpr:
    z = (0,) * d
    return OperatorExpr(d, 0, {(z, _unit_exp(d, i), ()): P_ONE})


def gamma(d: int, i: int) -> OperatorExpr:
    check_word((i,), d)
    z = (0,) * d
    return OperatorExpr(d, 0, {(z, z, (i,)): P_ONE})


def rinv2(d: int) -> OperatorExpr:
    return OperatorExpr(d, 1, {_trivial_monomial(d): P_ONE})


def r_squared(d: int) -> OperatorExpr:
    z = (0,) * d
    terms = {}
    for i in range(1, d + 1):
        e = tuple(2 if k == i - 1 else 0 for k in range(d))
        terms[(e, z, ())] = P_ONE
    return OperatorExpr(d, 0, terms)


# ---------------------------------------------------------------------------
# accumulator helpers: dict[(denom_pow, monomial)] -> ParamPoly
# ---------------------------------------------------------------------------

Acc = Dict[tuple, ParamPoly]


def _acc_add(acc: Acc, key: tuple, coeff: ParamPoly) -> None:
    cur = acc.get(key)
    if cur is None:
        acc[key] = coeff
    else:
        s = cur + coeff
        if s:
            acc[key] = s
        else:
            del acc[key]


def _lmul_word(acc: Acc, w: Tuple[int, ...], d: int) -> Acc:
    out: Acc = {}
    for (k, (xe, pe, word)), coeff in acc.items():
        new_word, sign = word_mul(w, word, d)
        _acc_add(out, (k, (xe, pe, new_word)), -coeff if sign < 0 else coeff)
    return out


def _lmul_p(acc: Acc, i: int, d: int) -> Acc:
    ix = i - 1
    out: Acc = {}
    for (k, (xe, pe, word)), coeff in acc.items():
        pe_up = list(pe)
        pe_up[ix] += 1
        _acc_add(out, (k, (xe, tuple(pe_up), word)), coeff)
        n = xe[ix]
        if n:
            xe_dn = list(xe)
            xe_dn[ix] -= 1
            _acc_add(out, (k, (tuple(xe_dn), pe, word)), coeff * gaussian_int(0, -n))
        if k:
            xe_up = list(xe)
            xe_up[ix] += 1
            _acc_add(out, (k + 1, (tuple(xe_up), pe, word)), coeff * gaussian_int(0, 2 * k))
    return out


def _lmul_x_multi(acc: Acc, xexp: Exponents) -> Acc:
    out: Acc = {}
    for (k, (xe, pe, word)), coeff in acc.items():
        new_xe = tuple(a + b for a, b in zip(xe, xexp))
        _acc_add(out, (k, (new_xe, pe, word)), coeff)
    return out


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


def divide_xpoly_by_r2(xpoly: Dict[Exponents, ParamPoly], d: int) -> tuple:
    """Divide a position polynomial by sum x_i^2 under graded lex order.

    Returns (quotient, remainder) as exponent maps; the input is divisible
    exactly when the remainder is empty.  The divisor's coefficients are all
    one, so division with remainder is unique over any coefficient ring.
    """
    import heapq

    f = dict(xpoly)
    # lazy max-heap over graded-lex keys; stale entries are skipped on pop
    heap = [(-deg, _neg_exps(exps), exps) for exps, deg in ((e, sum(e)) for e in f)]
    heapq.heapify(heap)
    quotient: Dict[Exponents, ParamPoly] = {}
    remainder: Dict[Exponents, ParamPoly] = {}
    while heap:
        _, _, lead = heapq.heappop(heap)
        coeff = f.pop(lead, None)
        if coeff is None:
            continue
        if lead[0] >= 2:
            t = (lead[0] - 2,) + lead[1:]
            cur = quotient.get(t)
            quotient[t] = coeff if cur is None else cur + coeff
            for j in range(1, d):
                key = tuple(e + (2 if idx == j else 0) for idx, e in enumerate(t))
                got = f.get(key)
                s = -coeff if got is None else got - coeff
                if s:
                    if got is None:
                        heapq.heappush(heap, (-sum(key), _neg_exps(key), key))
                    f[key] = s
                else:
                    f.pop(key, None)
        else:
            remainder[lead] = coeff
    return quotient, remainder


def _neg_exps(exps: Exponents) -> tuple:
    return tuple(-e for e in exps)


def _try_divide_numerator(terms: Dict[Monomial, ParamPoly], d: int) -> Optional[Dict[Monomial, ParamPoly]]:
    """One left division of the numerator by r^2, or None when impossible."""
    groups: Dict[tuple, Dict[Exponents, ParamPoly]] = {}
    for (xe, pe, word), coeff in terms.items():
        groups.setdefault((pe, word), {})[xe] = coeff
    out: Dict[Monomial, ParamPoly] = {}
    for (pe, word), xpoly in groups.items():
        quotient, remainder = divide_xpoly_by_r2(xpoly, d)
        if remainder:
            return None
        for xe, coeff in quotient.items():
            out[(xe, pe, word)] = coeff
    return out


def _finalize(d: int, acc: Acc) -> OperatorExpr:
    if not acc:
        return zero(d)
    kmax = max(k for k, _ in acc)
    terms: Dict[Monomial, ParamPoly] = {}
    for (k, mono), coeff in acc.items():
        if k == kmax:
            _merge_term(terms, mono, coeff)
        else:
            for xe, mult in _r2_power_expansion(mono[0], kmax - k, d):
                _merge_term(terms, (xe, mono[1], mono[2]), coeff * mult)
    m = kmax
    while m > 0:
        if not terms:
            m = 0
            break
        divided = _try_divide_numerator(terms, d)
        if divided is None:
            break
        terms = divided
        m -= 1
    if not terms:
        return zero(d)
    return OperatorExpr(d, m, terms)


def _merge_term(terms: Dict[Monomial, ParamPoly], mono: Monomial, coeff: ParamPoly) -> None:
    cur = terms.get(mono)
    if cur is None:
        if coeff:
            terms[mono] = coeff
    else:
        s = cur + coeff
        if s:
            terms[mono] = s
        else:
            del terms[mono]


@lru_cache(maxsize=65536)
def _r2_power_expansion(xe: Exponents, power: int, d: int) -> tuple:
    """Expand (sum x_j^2)^power * x^xe into (exponents, multiplicity) pairs."""
    current = {xe: 1}
    for _ in range(power):
        nxt: Dict[Exponents, int] = {}
        for exps, mult in current.items():
            for j in range(d):
                key = tuple(e + (2 if idx == j else 0) for idx, e in enumerate(exps))
                nxt[key] = nxt.get(key, 0) + mult
        current = nxt
    return tuple((exps, ParamPoly.of(mult)) for exps, mult in current.items())


# ---------------------------------------------------------------------------
# products and sums
# ---------------------------------------------------------------------------


def _require_same_d(a: OperatorExpr, b: OperatorExpr) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"cannot combine operators at d={a.d} and d={b.d}")


def _multiply_acc(a: OperatorExpr, b: OperatorExpr, out: Acc, scale: ParamPoly) -> None:
    """Accumulate scale * a * b into out without canonicalizing."""
    d = a.d
    if not a.terms or not b.terms or not scale:
        return
    b_base: Acc = {(b.denom_pow, mono): coeff for mono, coeff in b.terms.items()}
    shift = a.denom_pow
    one_scale = scale is P_ONE
    pushed: Dict[tuple, Acc] = {}
    for (xe, pe, word), ca in a.terms.items():
        cur = pushed.get((pe, word))
        if cur is None:
            cur = b_base
            if word:
                cur = _lmul_word(cur, word, d)
            for i in range(d, 0, -1):
                for _ in range(pe[i - 1]):
                    cur = _lmul_p(cur, i, d)
            pushed[(pe, word)] = cur
        factor = ca if one_scale else ca * scale
        if any(xe):
            for (k, (bxe, bpe, bw)), coeff in cur.items():
                mono = (tuple(u + v for u, v in zip(bxe, xe)), bpe, bw)
                _acc_add(out, (k + shift, mono), coeff * factor)
        else:
            for (k, mono), coeff in cur.items():
                _acc_add(out, (k + shift, mono), coeff * factor)


def multiply(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """Exact noncommutative product in canonical left-fraction form."""
    _require_same_d(a, b)
    out: Acc = {}
    _multiply_acc(a, b, out, P_ONE)
    return _finalize(a.d, out)


def combine_products(d: int, terms: Iterable[tuple]) -> OperatorExpr:
    """Canonical form of sum coeff * (factor_1 ... factor_n).

    All products accumulate into one shared store before the single
    canonicalization pass, so cancellations between terms happen before any
    denominator merging.
    """
    out: Acc = {}
    trivial = _trivial_monomial(d)
    for coeff, factors in terms:
        poly = _as_poly(coeff)
        if not poly:
            continue
        if not factors:
            _acc_add(out, (0, trivial), poly)
            continue
        if len(factors) == 1:
            expr = factors[0]
            for mono, c in expr.terms.items():
                _acc_add(out, (expr.denom_pow, mono), c * poly)
            continue
        prefix = factors[0]
        for factor in factors[1:-1]:
            prefix = multiply(prefix, factor)
        _multiply_acc(prefix, factors[-1], out, poly)
    return _finalize(d, out)


def _add(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    _require_same_d(a, b)
    acc: Acc = {}
    for mono, coeff in a.terms.items():
        _acc_add(acc, (a.denom_pow, mono), coeff)
    for mono, coeff in b.terms.items():
        _acc_add(acc, (b.denom_pow, mono), coeff)
    return _finalize(a.d, acc)


def _scale(a: OperatorExpr, factor: ParamPoly) -> OperatorExpr:
    if not factor:
        return zero(a.d)
    if factor is P_ONE:
        return a
    # scaling by a nonzero polynomial cannot create r^2-divisibility, so the
    # left fraction stays minimal and no re-reduction is needed
    return OperatorExpr(a.d, a.denom_pow, {mono: coeff * factor for mono, coeff in a.terms.items()})


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
        poly = _as_poly(factor)
        if not poly:
            continue
        for mono, coeff in expr.terms.items():
            _acc_add(acc, (expr.denom_pow, mono), coeff * poly)
    if d is None:
        raise ValueError("linear_combine needs at least one term or an explicit dimension")
    return _finalize(d, acc)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    _require_same_d(a, b)
    out: Acc = {}
    _multiply_acc(a, b, out, P_ONE)
    _multiply_acc(b, a, out, _MINUS_ONE)
    return _finalize(a.d, out)


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    _require_same_d(a, b)
    out: Acc = {}
    _multiply_acc(a, b, out, P_ONE)
    _multiply_acc(b, a, out, P_ONE)
    return _finalize(a.d, out)


def reduce_denominator(d: int, numerator: Dict[Monomial, ParamPoly], m: int) -> OperatorExpr:
    """Canonical element r^-2m * numerator with the left fraction minimized.

    Divides the numerator on the left by r^2 while possible (every graded
    piece must divide exactly) and decrements m accordingly.
    """
    if m < 0:
        raise ValueError("denominator power must be non-negative")
    acc: Acc = {}
    for mono, coeff in numerator.items():
        _acc_add(acc, (m, mono), ParamPoly.of(coeff))
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
            out = _scale(out, _as_poly(factor))
    return out


def adjoint(a: OperatorExpr) -> OperatorExpr:
    """Formal Hermitian adjoint: conjugate coefficients, reverse factors.

    x_i, p_i, and r^-2 are each formally self-adjoint; Clifford words pick up
    the reversal sign.  The result is renormalized to canonical form, making
    the map an anti-automorphism: (ab)^+ = b^+ a^+.
    """
    d = a.d
    if not a.terms:
        return zero(d)
    m = a.denom_pow
    zero_exp = (0,) * d
    out: Acc = {}
    for (xe, pe, word), coeff in a.terms.items():
        w_adj, sign = word_adjoint(word)
        cur: Acc = {(m, (xe, zero_exp, ())): P_ONE}
        for i in range(d, 0, -1):
            for _ in range(pe[i - 1]):
                cur = _lmul_p(cur, i, d)
        if w_adj:
            cur = _lmul_word(cur, w_adj, d)
        factor = coeff.conjugate()
        if sign < 0:
            factor = -factor
        for (k, mono), c in cur.items():
            _acc_add(out, (k, mono), c * factor)
    return _finalize(d, out)


def pauli_project(a: OperatorExpr) -> OperatorExpr:
    """Image of a d=3 element in the Pauli quotient (g1 g2 g3 = i).

    Words of length >= 2 collapse to scalar multiples of single generators,
    matching the concrete 2x2 representation.
    """
    if a.d != 3:
        raise DimensionMismatch("the Pauli quotient exists only at d=3")
    acc: Acc = {}
    for (xe, pe, word), coeff in a.terms.items():
        scalar_part, new_word = pauli_reduce_word(word)
        _acc_add(acc, (a.denom_pow, (xe, pe, new_word)), coeff * scalar_part)
    return _finalize(3, acc)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _term_sort_key(item: tuple) -> tuple:
    (xe, pe, word), _ = item
    return (sum(xe), sum(pe), len(word), xe, pe, word)


def _poly_atom(coeff: ParamPoly, has_monomial: bool) -> str:
    if has_monomial and coeff == P_ONE:
        return ""
    text = str(coeff)
    if text.startswith("-") or "+" in text or "-" in text[1:]:
        return f"({text})"
    return text


def _monomial_atoms(mono: Monomial) -> List[str]:
    xe, pe, word = mono
    atoms = []
    for i, e in enumerate(xe):
        if e == 1:
            atoms.append(f"x{i + 1}")
        elif e:
            atoms.append(f"x{i + 1}^{e}")
    for i, e in enumerate(pe):
        if e == 1:
            atoms.append(f"p{i + 1}")
        elif e:
            atoms.append(f"p{i + 1}^{e}")
    for i in word:
        atoms.append(f"g{i}")
    return atoms


def render(a: OperatorExpr) -> str:
    """Canonical text form; parsing it back yields an equal operator."""
    if not a.terms:
        return "0"
    scalar_value = a.constant_value()
    if scalar_value is not None:
        return str(scalar_value)
    parts = []
    for mono, coeff in sorted(a.terms.items(), key=_term_sort_key, reverse=True):
        atoms = _monomial_atoms(mono)
        coeff_atom = _poly_atom(coeff, bool(atoms))
        pieces = ([coeff_atom] if coeff_atom else []) + atoms
        parts.append(" ".join(pieces) if pieces else "1")
    body = " + ".join(parts)
    if a.denom_pow == 0:
        return body
    prefix = "rinv2" if a.denom_pow == 1 else f"rinv2^{a.denom_pow}"
    return f"{prefix} ({body})"
