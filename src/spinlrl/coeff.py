"""Exact scalar arithmetic: Gaussian rationals and sparse polynomials in alpha and E.

Every coefficient in the engine lives in Q(i)[alpha, E]: Gaussian-rational
numbers extended by the two symbolic parameters of the problem, the coupling
strength ``alpha`` and the energy ``E``.  All arithmetic is exact; there is no
floating-point mode.

``ParamPoly``, the coefficient type of the engine, keeps its value in
content/primitive-part form: one positive integer denominator shared by all
terms, and a Gaussian-integer numerator ``(re, im)`` of plain Python ints per
term.  The gcd of the denominator and every numerator part is 1, so each value
has exactly one stored form and equality stays structural.  Products and sums
are integer arithmetic plus, when the denominator is not 1, one gcd.
``GaussianRational`` (``fractions.Fraction`` parts) is the boundary type: it is
what ``ParamPoly.items()`` and ``constant_value()`` hand out and what parsing
and substitution use.  Text is printed from the ints by ``format_ints``, the
same text ``Fraction`` would print, for ``ParamPoly``, the operator renderer
and the Clifford fixture matrices alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Union

ScalarLike = Union[int, Fraction, "GaussianRational", "ParamPoly"]

_RATIONALS = (int, Fraction)


def _fraction(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


class GaussianRational:
    """A number a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _fraction(re))
        object.__setattr__(self, "im", _fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(value: Union[int, Fraction, "GaussianRational"]) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussianRational(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussianRational(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = GaussianRational(other)
        a, b = self.re, self.im
        c, e = other.re, other.im
        return GaussianRational(a * c - b * e, a * e + b * c)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return self * GaussianRational.of(other).inverse()

    def __eq__(self, other):
        if isinstance(other, _RATIONALS):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            im_part = "i"
        elif self.im == -1:
            im_part = "-i"
        else:
            im_part = f"{self.im}i"
        if not self.re:
            return im_part
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im_part}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


G_ZERO = GaussianRational(0)
G_ONE = GaussianRational(1)


def _coerce_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _RATIONALS):
        return GaussianRational(value)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


class ParamPoly:
    """Sparse polynomial in alpha and E with Gaussian-rational coefficients.

    Stored in content/primitive-part form: ``_den`` is a positive int and
    ``_num`` maps ``(alpha_power, e_power)`` to a Gaussian-integer numerator
    ``(re, im)`` of plain ints, so the coefficient of a key is
    ``(re + im*i) / _den``.  No numerator is ``(0, 0)``, the gcd of ``_den``
    and every numerator part is 1, and the zero polynomial has ``_den == 1``.
    The stored form of a value is therefore unique, and ``==`` and ``hash``
    compare it directly.  Instances are immutable and hashable.

    The constructor takes a map of Gaussian-rational (or int, Fraction)
    coefficients; ``items()`` gives them back in that form.
    """

    __slots__ = ("_den", "_num", "_hash")

    def __init__(self, terms: Optional[Mapping[tuple, GaussianRational]] = None):
        values = {}
        den = 1
        if terms:
            for key, coeff in terms.items():
                coeff = _coerce_gaussian(coeff)
                if coeff:
                    values[(int(key[0]), int(key[1]))] = coeff
                    den = lcm(den, coeff.re.denominator, coeff.im.denominator)
        # den is the lcm of every part's reduced denominator, so the scaled
        # numerators share no factor with it
        _set_den(self, den)
        _set_num(self, {key: (int(c.re * den), int(c.im * den)) for key, c in values.items()})

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def of(cls, value: ScalarLike) -> "ParamPoly":
        if type(value) is ParamPoly:
            return value
        if isinstance(value, int):
            return gaussian_int(value)
        if isinstance(value, Fraction):
            return _raw_poly(value.denominator, {(0, 0): (value.numerator, 0)}) if value else P_ZERO
        return cls({(0, 0): _coerce_gaussian(value)})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def _gaussian(self, num: tuple) -> GaussianRational:
        den = self._den
        return GaussianRational(Fraction(num[0], den), Fraction(num[1], den))

    def items(self) -> "_CoefficientItems":
        """``((alpha_power, e_power), GaussianRational)`` pairs, one per term."""
        return _CoefficientItems(self)

    def constant_value(self) -> Optional[GaussianRational]:
        """The value of a constant polynomial, or None if alpha/E appear."""
        num = self._num
        if not num:
            return G_ZERO
        if len(num) == 1 and (0, 0) in num:
            return self._gaussian(num[(0, 0)])
        return None

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

    def conjugate(self) -> "ParamPoly":
        """Complex conjugation; alpha and E are treated as real."""
        return _raw_poly(self._den, {key: (re, -im) for key, (re, im) in self._num.items()})

    def substitute(
        self,
        alpha_value: Optional[GaussianRational] = None,
        e_value: Optional[GaussianRational] = None,
    ) -> "ParamPoly":
        """Replace alpha and/or E by exact values; result is canonical."""
        if alpha_value is None and e_value is None:
            return self
        terms: dict = {}
        for (pa, pe), coeff in self.items():
            if alpha_value is not None:
                coeff = coeff * _pow_gaussian(_coerce_gaussian(alpha_value), pa)
                pa = 0
            if e_value is not None:
                coeff = coeff * _pow_gaussian(_coerce_gaussian(e_value), pe)
                pe = 0
            terms[(pa, pe)] = terms.get((pa, pe), G_ZERO) + coeff
        return ParamPoly(terms)

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other):
        if type(other) is not ParamPoly:
            if not isinstance(other, (*_RATIONALS, GaussianRational)):
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
    """Sized view of a ParamPoly's terms; converts to GaussianRational only
    while iterating, so taking its length costs nothing."""

    __slots__ = ("_poly",)

    def __init__(self, poly: ParamPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._num)

    def __iter__(self):
        poly = self._poly
        return ((key, poly._gaussian(num)) for key, num in poly._num.items())


_SCALARS = (int, Fraction, GaussianRational, ParamPoly)
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


def gaussian_int(re: int, im: int = 0) -> ParamPoly:
    """The constant polynomial re + im*i, built straight from ints."""
    if not re and not im:
        return P_ZERO
    return _raw_poly(1, {(0, 0): (re, im)})


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
    """``(re + im*i) / den`` as ``GaussianRational`` prints it."""
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


def _pow_gaussian(base: GaussianRational, n: int) -> GaussianRational:
    out = G_ONE
    for _ in range(n):
        out = out * base
    return out


P_ZERO = _raw_poly(1, {})
P_ONE = _raw_poly(1, {(0, 0): (1, 0)})
P_I = _raw_poly(1, {(0, 0): (0, 1)})
P_ALPHA = _raw_poly(1, {(1, 0): (1, 0)})
P_E = _raw_poly(1, {(0, 1): (1, 0)})


def poly(value: ScalarLike) -> ParamPoly:
    """Coerce an int, Fraction, or GaussianRational into a ParamPoly."""
    return ParamPoly.of(value)


def gauss(re=0, im=0) -> GaussianRational:
    return GaussianRational(re, im)
