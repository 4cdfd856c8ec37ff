"""Exact scalar arithmetic: sparse polynomials in alpha and E over Q(i).

Every coefficient in the engine lives in Q(i)[alpha, E]: Gaussian-rational
numbers extended by the two symbolic parameters of the problem, the coupling
strength ``alpha`` and the energy ``E``.  All arithmetic is exact; there is no
floating-point mode.

``ParamPoly`` is the one scalar type: a scalar the engine takes is an int, a
``Fraction`` or a ``ParamPoly``, one it returns is a ``ParamPoly``, and a
number of Q(i) is a constant ``ParamPoly`` such as ``P_I * Fraction(-1, 4)``.
It keeps its value in content/primitive-part form: one positive integer
denominator shared by all terms, and a Gaussian-integer numerator ``(re, im)``
of plain Python ints per term.  The gcd of the denominator and every numerator
part is 1, so each value has exactly one stored form and equality stays
structural.  Products and sums are integer arithmetic plus, when the
denominator is not 1, one gcd.  Text is printed from the ints by
``format_ints``, the same text ``Fraction`` parts would print, for
``ParamPoly``, the operator renderer and the Clifford fixture matrices alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Union

ScalarLike = Union[int, Fraction, "ParamPoly"]


class ParamPoly:
    """Sparse polynomial in alpha and E with Gaussian-rational coefficients.

    Stored in content/primitive-part form: ``_den`` is a positive int and
    ``_num`` maps ``(alpha_power, e_power)`` to a Gaussian-integer numerator
    ``(re, im)`` of plain ints, so the coefficient of a key is
    ``(re + im*i) / _den``.  No numerator is ``(0, 0)``, the gcd of ``_den``
    and every numerator part is 1, and the zero polynomial has ``_den == 1``.
    The stored form of a value is therefore unique, and ``==`` and ``hash``
    compare it directly.  Instances are immutable and hashable.

    The constructor takes a map ``{(alpha_power, e_power): coefficient}`` of
    ints, Fractions or constant ParamPolys; ``items()`` gives the
    coefficients back as constant ParamPolys.
    """

    __slots__ = ("_den", "_num", "_hash")

    def __init__(self, terms: Optional[Mapping[tuple, ScalarLike]] = None):
        parts: dict = {}
        for key, coeff in (terms or {}).items():
            den, num = _constant(coeff).int_form()
            if num:
                parts.setdefault(den, {})[(int(key[0]), int(key[1]))] = num[(0, 0)]
        # each part is in lowest terms, so no factor is common to the lcm of
        # their denominators and every scaled numerator
        den, num = common_denominator(parts) if parts else (1, {})
        _set_den(self, den)
        _set_num(self, num)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @staticmethod
    def of(value: ScalarLike) -> "ParamPoly":
        """An int, Fraction or ParamPoly as a ParamPoly; TypeError otherwise."""
        if type(value) is ParamPoly:
            return value
        if isinstance(value, (int, Fraction)):
            return _raw_poly(value.denominator, {(0, 0): (value.numerator, 0)}) if value else P_ZERO
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def items(self) -> "_CoefficientItems":
        """``((alpha_power, e_power), constant ParamPoly)`` pairs, one per term."""
        return _CoefficientItems(self)

    def constant_value(self) -> Optional["ParamPoly"]:
        """The polynomial itself if it is constant, None if alpha/E appear."""
        num = self._num
        return self if not num or (len(num) == 1 and (0, 0) in num) else None

    def int_form(self) -> tuple:
        """``(den, {(alpha_power, e_power): (re, im)})``: the stored content
        form itself, for kernels that do their own integer arithmetic.  The
        map must not be modified."""
        return self._den, self._num

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not ParamPoly:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = ParamPoly.of(other)
        on = other._num
        if not on:
            return self
        sn = self._num
        if not sn:
            return other
        g = gcd(self._den, other._den)
        scale_s = other._den // g
        scale_o = self._den // g
        terms = {key: (re * scale_s, im * scale_s) for key, (re, im) in sn.items()}
        for key, (re, im) in on.items():
            merge_term(terms, key, re * scale_o, im * scale_o)
        return poly_from_ints(self._den * scale_s, terms)

    __radd__ = __add__

    def __neg__(self):
        return _raw_poly(self._den, {key: (-re, -im) for key, (re, im) in self._num.items()})

    def __sub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self + (-ParamPoly.of(other))

    def __rsub__(self, other):
        return ParamPoly.of(other) + (-self)

    def __mul__(self, other):
        if type(other) is not ParamPoly:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = ParamPoly.of(other)
        sn = self._num
        on = other._num
        if not sn or not on:
            return P_ZERO
        terms = {}
        for (a1, e1), (r1, i1) in sn.items():
            for (a2, e2), (r2, i2) in on.items():
                merge_term(terms, (a1 + a2, e1 + e2), r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        return poly_from_ints(self._den * other._den, terms)

    __rmul__ = __mul__

    def substitute(self, alpha_value: Optional[ScalarLike] = None, e_value: Optional[ScalarLike] = None) -> "ParamPoly":
        """Replace alpha and/or E by exact constants (ints, Fractions or
        constant ParamPolys); the result is canonical."""
        if alpha_value is None and e_value is None:
            return self
        alpha = P_ALPHA if alpha_value is None else _constant(alpha_value)
        e = P_E if e_value is None else _constant(e_value)
        out = P_ZERO
        for (pa, pe), coeff in self.items():
            for _ in range(pa):
                coeff = coeff * alpha
            for _ in range(pe):
                coeff = coeff * e
            out = out + coeff
        return out

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other):
        if type(other) is not ParamPoly:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = ParamPoly.of(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self._den, frozenset(self._num.items())))
            _set_hash(self, h)
            return h

    def __str__(self):
        return format_ints(self._den, self._num)

    def __repr__(self):
        return f"ParamPoly({self})"


class _CoefficientItems:
    """Sized view of a ParamPoly's terms; builds the constant coefficients
    only while iterating, so taking its length costs nothing."""

    __slots__ = ("_poly",)

    def __init__(self, poly: ParamPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._num)

    def __iter__(self):
        poly = self._poly
        return ((key, poly_from_ints(poly._den, {(0, 0): num})) for key, num in poly._num.items())


_SCALARS = (int, Fraction, ParamPoly)
_set_den = ParamPoly._den.__set__
_set_num = ParamPoly._num.__set__
_set_hash = ParamPoly._hash.__set__
_new = object.__new__


def _raw_poly(den: int, num: dict) -> ParamPoly:
    """A ParamPoly from data already in canonical form."""
    poly = _new(ParamPoly)
    _set_den(poly, den)
    _set_num(poly, num)
    return poly


def poly_from_ints(den: int, num: dict) -> ParamPoly:
    """The ParamPoly ``sum num[key] / den`` for a positive ``den`` and nonzero
    Gaussian-integer numerators; a factor common to all of them is divided
    out.  Takes ownership of ``num``."""
    if not num:
        return P_ZERO
    return _raw_poly(*reduce_content(den, num))


def common_denominator(parts: Mapping[int, dict]) -> tuple:
    """Merge ``{den: {key: (re, im)}}`` into ``(lcm of the dens, {key: (re, im)})``.

    Numerators are brought to the common denominator and added; sums that
    cancel are dropped.  The result may still share a factor with the
    denominator (see ``reduce_content``).
    """
    if len(parts) == 1:
        ((den, num),) = parts.items()
        return den, num
    common = lcm(*parts)
    out: dict = {}
    for den, num in parts.items():
        factor = common // den
        for key, (re, im) in num.items():
            merge_term(out, key, re * factor, im * factor)
    return common, out


def merge_term(acc: dict, key, re: int, im: int) -> None:
    """Add the Gaussian-integer numerator ``re + im*i`` to ``acc[key]``,
    dropping the key when the sum is zero."""
    cur = acc.get(key)
    if cur is not None:
        re += cur[0]
        im += cur[1]
        if not re and not im:
            del acc[key]
            return
    acc[key] = (re, im)


def reduce_content(den: int, num: dict) -> tuple:
    """``(den, num)`` divided by the gcd of ``den`` and every numerator part,
    so that the stored form of a value is unique."""
    g = den
    for re, im in num.values():
        if g == 1:
            return den, num
        g = gcd(g, re, im)
    if g == 1:
        return den, num
    return den // g, {key: (re // g, im // g) for key, (re, im) in num.items()}


def needs_parens(text: str) -> bool:
    """Whether a coefficient's text needs brackets before a factor."""
    return text.startswith("-") or "+" in text or "-" in text[1:]


def _format_part(n: int, den: int) -> str:
    """``n / den`` as ``fractions.Fraction`` prints it."""
    g = gcd(n, den)
    if g == den:
        return str(n // den)
    return f"{n // g}/{den // g}"


def _format_gaussian(den: int, re: int, im: int) -> str:
    """The text of ``(re + im*i) / den``, such as ``1/2-3/4i``: each part as
    ``Fraction`` prints it, and a unit imaginary part as ``i`` or ``-i``."""
    if not im:
        return _format_part(re, den)
    if im == den:
        im_part = "i"
    elif im == -den:
        im_part = "-i"
    else:
        im_part = _format_part(im, den) + "i"
    if not re:
        return im_part
    return _format_part(re, den) + ("+" if im > 0 else "") + im_part


def format_ints(den: int, num: Mapping[tuple, tuple]) -> str:
    """The text of ``sum num[(a, e)] alpha^a E^e / den`` for a positive ``den``
    and Gaussian-integer numerators ``(re, im)``, terms by descending powers;
    ``str(ParamPoly)`` for the same value, formed from the ints alone."""
    if not num:
        return "0"
    multi = len(num) > 1
    parts = []
    for key in sorted(num, reverse=True):
        pa, pe = key
        re, im = num[key]
        atoms = []
        if pa:
            atoms.append("alpha" if pa == 1 else f"alpha^{pa}")
        if pe:
            atoms.append("E" if pe == 1 else f"E^{pe}")
        if atoms and not im and (re == den or re == -den):
            parts.append(("" if re > 0 else "-") + " ".join(atoms))
            continue
        cs = _format_gaussian(den, re, im)
        if (atoms or multi) and needs_parens(cs):
            cs = f"({cs})"
        parts.append(" ".join([cs] + atoms))
    return " + ".join(parts)


P_ZERO = _raw_poly(1, {})
P_ONE = _raw_poly(1, {(0, 0): (1, 0)})
P_I = _raw_poly(1, {(0, 0): (0, 1)})
P_ALPHA = _raw_poly(1, {(1, 0): (1, 0)})
P_E = _raw_poly(1, {(0, 1): (1, 0)})


def poly(value: ScalarLike) -> ParamPoly:
    """Coerce an int, Fraction or ParamPoly into a ParamPoly."""
    return ParamPoly.of(value)


def _constant(value: ScalarLike) -> ParamPoly:
    """A scalar with no alpha or E as a ParamPoly; TypeError otherwise."""
    out = ParamPoly.of(value).constant_value()
    if out is None:
        raise TypeError(f"{value} is not a constant")
    return out
