"""Small expression language over the operator vocabulary.

Grammar (precedence low to high):

    sum      = ["-"] product (("+" | "-") product)*
    product  = power (power | "*" power | "/" INT)*      juxtaposition multiplies
    power    = atom ["^" INT]
    atom     = INT | "i" | "alpha" | "E"
             | "x<digits>" | "p<digits>" | "g<digits>" | "rinv2"
             | NAME [ "(" INT ("," INT)* ")" ]
             | "(" sum ")" | "[" sum "," sum "]" | "{" sum "," sum "}"

Brackets are the commutator, braces the anticommutator.  Division is only by
integer literals (operators have no general inverses here).  Identifiers are
case-sensitive: g1 is a Clifford generator, G(1) the ladder operator built
from it.  Tokens are ASCII, plain named tuples, and are read one at a time.

The text is read in one pass: each grammar rule returns the operator it has
read, so no syntax tree is built.  Every step is checked as it is read, at
its own token, so the first failing step, reading left to right, is the one
reported.  Every diagnostic carries line:col, worked out from the offset
only when it is raised, and what was expected.
"""

from __future__ import annotations

import math
import re

from typing import Iterator, NamedTuple, Optional, Tuple

from . import ops, weyl
from .coeff import P_ALPHA, P_E, P_I
from .weyl import OperatorExpr


class ExprError(ValueError):
    """A diagnostic with the line:col of the token it belongs to."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# Every token class is ASCII: "x²" or Arabic-Indic digits are refused instead
# of being read as other digits.  _TOKEN matches one token after optional
# whitespace: an int, an identifier or a punctuation mark, or the end of
# input (no group).  _BAD finds the first character of no class; the text is
# scanned for it before the first token, so a bad character is reported
# before any parse error, wherever it stands.
_TOKEN = re.compile(r"[ \t\n\r\f\v]*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()\[\]{},])|\Z)")
_BAD = re.compile(r"[^ \t\n\r\f\v0-9A-Za-z_+\-*/^()\[\]{},]")


class Token(NamedTuple):
    kind: str  # "int", "ident", punctuation, "eof"
    text: str
    pos: int  # offset into the source text


def _position(text: str, pos: int) -> Tuple[int, int]:
    """line:col (both 1-based) of an offset; computed only for a diagnostic."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> Iterator[Token]:
    """The tokens of ``text`` one at a time, ending with an "eof" token."""
    bad = _BAD.search(text)
    if bad:
        line, col = _position(text, bad.start())
        raise ExprError(line, col, f"expected a token, found {bad.group()!r}")
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        group = m.lastindex
        if group is None:
            yield Token("eof", "", len(text))
            return
        pos = m.end()
        token = m.group(group)
        yield Token(("int", "ident", token)[group - 1], token, m.start(group))


# ---------------------------------------------------------------------------
# one-pass reader
# ---------------------------------------------------------------------------

_BRACKETS = {"(": ")", "[": "]", "{": "}"}
_ATOM_STARTS = {"int", "ident", *_BRACKETS}
_GENERATORS = {"x": weyl.x, "p": weyl.p, "g": weyl.gamma}
_SCALAR_NAMES = {"i": P_I, "alpha": P_ALPHA, "E": P_E}

# Each level of brackets costs the recursive-descent reader several stack
# frames, so deeper input is refused with a diagnostic instead of running
# into the interpreter's recursion limit.
MAX_NESTING = 100

# CPython's default limit on int <-> str conversion: a longer literal cannot
# be read, and a longer numerator or denominator cannot be printed.  Every
# sum, product, division and power is refused before it is computed when its
# result could pass it (``_size``), so that neither the step nor the printing
# of its result runs into it.
MAX_DIGITS = 4300


class _Parser:
    """Recursive descent over the token stream with one token of lookahead;
    each rule returns the operator it reads."""

    def __init__(self, text: str, d: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.current = next(self.tokens)
        self.d = d
        self.depth = 0

    def error(self, tok: Token, message: str) -> ExprError:
        line, col = _position(self.text, tok.pos)
        return ExprError(line, col, message)

    def check(self, tok: Token, digits: float, what: str) -> None:
        """Refuse the step at ``tok`` whose result's estimate, ``digits`` + 1
        decimal digits, reaches past ``MAX_DIGITS``."""
        if digits >= MAX_DIGITS:
            about = f"about {int(digits) + 1:,}" if digits < math.inf else "more than 10^308"
            raise self.error(tok, f"the {what} has {about} digits, more than the limit of {MAX_DIGITS:,}")

    def check_product(self, tok: Token, a: OperatorExpr, b: OperatorExpr) -> None:
        (den_a, num_a), (den_b, num_b) = _size(a), _size(b)
        self.check(tok, math.log10(max(den_a * den_b, num_a * num_b)), "product")

    def peek(self) -> Token:
        return self.current

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.current = next(self.tokens)
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(tok, f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def integer(self, tok: Token, digits: str) -> int:
        """The value of a run of digits in ``tok``, refused past ``MAX_DIGITS``."""
        if len(digits) > MAX_DIGITS:
            raise self.error(tok, f"integer of {len(digits):,} digits, more than the limit of {MAX_DIGITS:,}")
        return int(digits)

    def expect_int(self) -> int:
        tok = self.expect("int")
        return self.integer(tok, tok.text)

    def parse(self) -> OperatorExpr:
        value = self.sum_()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(tok, f"expected end of input, found {tok.text!r}")
        return value

    def sum_(self) -> OperatorExpr:
        first = self.signed_product()
        if self.peek().kind not in ("+", "-"):
            return first  # the term as read, canonical already
        return weyl.linear_combine(self.terms(first), self.d)

    def terms(self, first: OperatorExpr) -> Iterator[Tuple[int, OperatorExpr]]:
        """The signed terms of a sum, read one at a time as they are added up.

        A loop, not one recursion per term, so canonical texts of thousands
        of terms stay off the recursion limit.  The sum's common denominator
        is kept exactly (an lcm, not a product, so long read-backs are not
        refused) with a bound on its numerators; each sign is refused when
        the sum so far could pass ``MAX_DIGITS``.  The sum is stored at its
        highest r^-2 power m, so a part at r^-2k is multiplied by
        (r^2)^(m-k), whose coefficients sum to d^(m-k); a power of r^2 with
        more monomials than ``weyl.PRODUCT_TERM_BUDGET`` is left to that
        budget, which refuses it before forming any.
        """
        yield 1, first
        den, num = _size(first)
        level = first.denom_pow
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            term = self.signed_product()
            term_den, term_num = _size(term)
            common = math.lcm(den, term_den)
            num, term_num = num * (common // den), term_num * (common // term_den)
            raised = abs(term.denom_pow - level)
            if raised and math.comb(raised + self.d - 1, self.d - 1) <= weyl.PRODUCT_TERM_BUDGET:
                # the part at the lower level is raised, estimated before it is formed
                low = num if term.denom_pow > level else term_num
                self.check(tok, math.log10(max(low, 1)) + raised * math.log10(self.d), "sum")
                if term.denom_pow > level:
                    num, level = num * self.d ** raised, term.denom_pow
                else:
                    term_num *= self.d ** raised
            num += term_num
            den = common
            self.check(tok, math.log10(max(den, num)), "sum")
            yield (1 if tok.kind == "+" else -1), term

    def signed_product(self) -> OperatorExpr:
        negations = 0
        while self.peek().kind == "-":
            self.advance()
            negations += 1
        value = self.product()
        return -value if negations % 2 else value

    def product(self) -> OperatorExpr:
        """Products and integer divisions, folded left to right in a loop, so
        long juxtaposed products stay off the recursion limit."""
        value = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "/":
                self.advance()
                value = self.divide(value, tok)
            elif tok.kind == "*" or tok.kind in _ATOM_STARTS:
                if tok.kind == "*":
                    self.advance()
                right = self.power()
                self.check_product(tok, value, right)
                value = weyl.multiply(value, right)
            else:
                return value

    def divide(self, value: OperatorExpr, tok: Token) -> OperatorExpr:
        # a literal or its power: denominator 1, numerator sum its value
        _, divisor = _size(self.power(weyl.scalar(self.d, self.expect_int())))
        if not divisor:
            raise self.error(tok, "division by zero literal")
        den, num = _size(value)
        self.check(tok, math.log10(max(den * divisor, num)), "quotient")
        return value / divisor

    def power(self, base: Optional[OperatorExpr] = None) -> OperatorExpr:
        """An atom, or the given one, with its exponent if it has one."""
        if base is None:
            base = self.atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        tok = self.peek()
        exponent = self.expect_int()
        self.check(tok, _power_digits(exponent, _power_base(base)), "power")
        return base ** exponent

    def atom(self) -> OperatorExpr:
        tok = self.advance()
        if tok.kind == "int":
            return weyl.scalar(self.d, self.integer(tok, tok.text))
        if tok.kind == "ident":
            return self.ident_atom(tok)
        if tok.kind in _BRACKETS:
            return self.bracket(tok)
        raise self.error(tok, f"expected a term, found {tok.text or 'end of input'!r}")

    def bracket(self, tok: Token) -> OperatorExpr:
        """A parenthesized sum, a commutator or an anticommutator, read one
        nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise self.error(tok, f"brackets nest deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = self.sum_()
        if tok.kind == "(":
            self.expect(")")
        else:
            self.expect(",")
            right = self.sum_()
            self.expect(_BRACKETS[tok.kind])
            self.check_product(tok, value, right)
            value = (weyl.commutator if tok.kind == "[" else weyl.anticommutator)(value, right)
        self.depth -= 1
        return value

    def ident_atom(self, tok: Token) -> OperatorExpr:
        name = tok.text
        if name in _SCALAR_NAMES:
            return weyl.scalar(self.d, _SCALAR_NAMES[name])
        if name == "rinv2":
            return weyl.rinv2(self.d)
        if name[0] in _GENERATORS and name[1:].isdigit():
            index = self.integer(tok, name[1:])
            if not 1 <= index <= self.d:
                raise self.error(tok, f"generator index {index} outside 1..{self.d}")
            return _GENERATORS[name[0]](self.d, index)
        if name in ops.BUILDER_ARITY:
            arity = ops.BUILDER_ARITY[name]
            indices = []
            if self.peek().kind == "(":
                self.advance()
                indices.append(self.expect_int())
                while self.peek().kind == ",":
                    self.advance()
                    indices.append(self.expect_int())
                self.expect(")")
            if len(indices) != arity:
                raise self.error(tok, f"{name} takes {arity} index(es), got {len(indices)}")
            for index in indices:
                if not 1 <= index <= self.d:
                    raise self.error(tok, f"index {index} outside 1..{self.d}")
            return ops.build(self.d, name, *indices)
        raise self.error(tok, f"unknown identifier {name!r}")


def _size(a: OperatorExpr) -> Tuple[int, int]:
    """a's denominator and the sum of its numerators' |re| + |im|: the size
    estimate behind every scalar-growing step.  Gamma words multiply with
    unit phases, so, while no momentum moves past a position, the
    denominator and every numerator of a product are at most the products
    of its factors' sizes, those of an nth power at most their nth powers,
    a division by n multiplies the denominator by n, and a sum's are at
    most its terms' over their common denominator."""
    num = 0
    for re, im in a.num.values():
        num += abs(re) + abs(im)
    return a.den, num


def _power_base(a: OperatorExpr) -> int:
    """The number whose nth power estimates a^n.  With no x or p in a, the
    larger of ``_size(a)``.  With x or p, the larger of a's denominator and
    its largest numerator part: the sum would refuse (x1 + x2)^n long
    before the work budgets, which bound such powers with a clearer message,
    while (x1 + 7^100)^n is still refused for its coefficients."""
    if any(xk or pk for xk, pk, _, _, _ in a.num):
        return max(a.den, max(max(abs(re), abs(im)) for re, im in a.num.values()))
    return max(_size(a))


def _power_digits(exponent: int, base: int) -> float:
    """log10(base^exponent), or inf when it is past a float."""
    if base == 1:
        return 0.0
    try:
        return exponent * math.log10(base)
    except OverflowError:
        return math.inf


def parse(text: str, d: int) -> OperatorExpr:
    """The operator ``text`` denotes, read in one pass; raises ExprError with
    line:col at the first step that fails."""
    return _Parser(text, d).parse()


def evaluate(text: str, d: int) -> OperatorExpr:
    """The operator ``text`` denotes: the public entry, which reads it with
    ``parse``."""
    return parse(text, d)


def format_expr(a: OperatorExpr) -> str:
    """Canonical rendering; evaluate(format_expr(a), a.d) == a."""
    return weyl.render(a)
