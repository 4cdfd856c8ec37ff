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
from it.  Tokens are ASCII and are read one at a time.  Every diagnostic
carries line:col, worked out from the offset only when it is raised, and
what was expected.
"""

from __future__ import annotations

import math
import re

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple, Union

from . import ops, weyl
from .coeff import P_ALPHA, P_E, P_I
from .weyl import OperatorExpr


class ExprError(ValueError):
    """Parse or evaluation diagnostic with position information."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lit:
    value: Fraction


@dataclass(frozen=True, slots=True)
class Imag:
    pass


@dataclass(frozen=True, slots=True)
class Param:
    name: str  # "alpha" or "E"


@dataclass(frozen=True, slots=True)
class Gen:
    kind: str  # "x", "p", "g"
    index: int


@dataclass(frozen=True, slots=True)
class RInv2:
    pass


@dataclass(frozen=True, slots=True)
class Builder:
    name: str
    indices: Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Ast"


@dataclass(frozen=True, slots=True)
class Add:
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "Ast"
    right: "Ast"


# ``pos`` is the offset of a step that can grow a scalar, for a diagnostic
# raised at evaluation: a product's "*" or right operand, a "/", a power's
# exponent, a bracket.  It is None for a product by, or a power of, an atom
# with one unit coefficient (see ``_grows_scalars``), which is not checked.


@dataclass(frozen=True, slots=True)
class Mul:
    left: "Ast"
    right: "Ast"
    pos: Optional[int]


@dataclass(frozen=True, slots=True)
class Div:
    left: "Ast"
    divisor: "Ast"  # an integer literal or a power of one
    pos: int


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Ast"
    exponent: int
    pos: Optional[int]


@dataclass(frozen=True, slots=True)
class Comm:
    left: "Ast"
    right: "Ast"
    pos: int


@dataclass(frozen=True, slots=True)
class AntiComm:
    left: "Ast"
    right: "Ast"
    pos: int


Ast = Union[Lit, Imag, Param, Gen, RInv2, Builder, Neg, Add, Sub, Mul, Div, Pow, Comm, AntiComm]


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


@dataclass(frozen=True, slots=True)
class Token:
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
# parser
# ---------------------------------------------------------------------------

_ATOM_STARTS = {"int", "ident", "(", "[", "{"}

# Each level of brackets costs the recursive-descent parser and the evaluator
# several stack frames, so deeper input is refused with a diagnostic instead
# of running into the interpreter's recursion limit.
MAX_NESTING = 100

# CPython's default limit on int <-> str conversion: a longer literal cannot
# be read, and a longer numerator or denominator cannot be printed.  Every
# product, division and scalar power is refused before it is computed when
# its result could pass it (``_size``), so that neither the step nor the
# printing of its result runs into it.
MAX_DIGITS = 4300


class _Parser:
    """Recursive descent over the token stream with one token of lookahead."""

    def __init__(self, text: str, d: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.current = next(self.tokens)
        self.d = d
        self.depth = 0

    def error(self, tok: Token, message: str) -> ExprError:
        line, col = _position(self.text, tok.pos)
        return ExprError(line, col, message)

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

    def parse(self) -> Ast:
        node = self.sum_()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(tok, f"expected end of input, found {tok.text!r}")
        return node

    def sum_(self) -> Ast:
        node = self.signed_product()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.signed_product()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def signed_product(self) -> Ast:
        negations = 0
        while self.peek().kind == "-":
            self.advance()
            negations += 1
        node = self.product()
        return Neg(node) if negations % 2 else node

    def nested(self, tok: Token, parse_inside: Callable[[], Ast]) -> Ast:
        """Parse a bracketed construct one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise self.error(tok, f"brackets nest deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse_inside()
        self.depth -= 1
        return node

    def product(self) -> Ast:
        node = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                node = self.times(node, tok)
            elif tok.kind == "/":
                self.advance()
                node = Div(node, self.power(Lit(Fraction(self.expect_int()))), tok.pos)
            elif tok.kind in _ATOM_STARTS:
                node = self.times(node, tok)
            else:
                return node

    def times(self, left: Ast, tok: Token) -> Mul:
        right = self.power()
        return Mul(left, right, tok.pos if _grows_scalars(right) else None)

    def power(self, node: Optional[Ast] = None) -> Ast:
        """An atom, or the given one, with its exponent if it has one."""
        if node is None:
            node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            pos = self.peek().pos if _grows_scalars(node) else None
            node = Pow(node, self.expect_int(), pos)
        return node

    def atom(self) -> Ast:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Lit(Fraction(self.integer(tok, tok.text)))
        if tok.kind == "(":
            self.advance()
            return self.nested(tok, self.parenthesized)
        if tok.kind == "[":
            self.advance()
            return self.nested(tok, lambda: Comm(*self.pair("]"), tok.pos))
        if tok.kind == "{":
            self.advance()
            return self.nested(tok, lambda: AntiComm(*self.pair("}"), tok.pos))
        if tok.kind == "ident":
            self.advance()
            return self.ident_atom(tok)
        raise self.error(tok, f"expected a term, found {tok.text or 'end of input'!r}")

    def parenthesized(self) -> Ast:
        node = self.sum_()
        self.expect(")")
        return node

    def pair(self, closing: str) -> Tuple[Ast, Ast]:
        left = self.sum_()
        self.expect(",")
        right = self.sum_()
        self.expect(closing)
        return left, right

    def ident_atom(self, tok: Token) -> Ast:
        name = tok.text
        if name == "i":
            return Imag()
        if name in ("alpha", "E"):
            return Param(name)
        if name == "rinv2":
            return RInv2()
        if name[0] in "xpg" and name[1:].isdigit():
            index = self.integer(tok, name[1:])
            if not 1 <= index <= self.d:
                raise self.error(tok, f"generator index {index} outside 1..{self.d}")
            return Gen(name[0], index)
        if name in ops.BUILDER_ARITY:
            arity = ops.BUILDER_ARITY[name]
            indices: Tuple[int, ...] = ()
            if self.peek().kind == "(":
                self.advance()
                idx = [self.expect_int()]
                while self.peek().kind == ",":
                    self.advance()
                    idx.append(self.expect_int())
                self.expect(")")
                indices = tuple(idx)
            if len(indices) != arity:
                raise self.error(tok, f"{name} takes {arity} index(es), got {len(indices)}")
            for index in indices:
                if not 1 <= index <= self.d:
                    raise self.error(tok, f"index {index} outside 1..{self.d}")
            return Builder(name, indices)
        raise self.error(tok, f"unknown identifier {name!r}")


def _grows_scalars(node: Ast) -> bool:
    """False for x, p, g, rinv2, i, alpha and E and for a power of one: each
    has one unit coefficient, so a product by it or a power of it leaves the
    size estimate (``_size``) as it was."""
    return not isinstance(node.base if isinstance(node, Pow) else node, (Gen, RInv2, Imag, Param))


def parse(text: str, d: int) -> Ast:
    """Parse an expression; raises ExprError with line:col on any problem."""
    return _Parser(text, d).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_ast(ast: Ast, d: int) -> OperatorExpr:
    if isinstance(ast, Lit):
        return weyl.scalar(d, ast.value)
    if isinstance(ast, Imag):
        return weyl.scalar(d, P_I)
    if isinstance(ast, Param):
        return weyl.scalar(d, P_ALPHA if ast.name == "alpha" else P_E)
    if isinstance(ast, Gen):
        if ast.kind == "x":
            return weyl.x(d, ast.index)
        if ast.kind == "p":
            return weyl.p(d, ast.index)
        return weyl.gamma(d, ast.index)
    if isinstance(ast, RInv2):
        return weyl.rinv2(d)
    if isinstance(ast, Builder):
        return ops.build(d, ast.name, *ast.indices)
    if isinstance(ast, Neg):
        return -evaluate_ast(ast.arg, d)
    if isinstance(ast, (Add, Sub)):
        return _evaluate_sum(ast, d)
    if isinstance(ast, (Mul, Div)):
        return _evaluate_product(ast, d)
    if isinstance(ast, Pow):
        base = evaluate_ast(ast.base, d)
        # powers of a base with x or p are bounded by the exponent limit and
        # the work budgets instead
        if ast.pos is not None and not any(xk or pk for xk, pk, _, _, _ in base.num):
            _check_digits(ast.exponent * math.log10(max(_size(base))), ast.pos, "power")
        return base ** ast.exponent
    if isinstance(ast, (Comm, AntiComm)):
        left, right = evaluate_ast(ast.left, d), evaluate_ast(ast.right, d)
        _check_product(left, right, ast.pos)
        return (weyl.commutator if isinstance(ast, Comm) else weyl.anticommutator)(left, right)
    raise TypeError(f"unknown AST node {ast!r}")


def _evaluate_sum(ast: Union[Add, Sub], d: int) -> OperatorExpr:
    """A left-nested chain of + and - as one linear combination.

    The parser builds a sum of N terms as N-1 nested nodes; walking the chain
    in a loop keeps long sums (canonical texts of thousands of terms) off the
    recursion limit and canonicalizes once instead of N-1 times.  Each term
    is accumulated as it is evaluated, so only one is held at a time.
    """
    signed = []
    node = ast
    while isinstance(node, (Add, Sub)):
        signed.append((1 if isinstance(node, Add) else -1, node.right))
        node = node.left
    signed.append((1, node))
    return weyl.linear_combine(((sign, evaluate_ast(term, d)) for sign, term in reversed(signed)), d)


def _evaluate_product(ast: Union[Mul, Div], d: int) -> OperatorExpr:
    """A left-nested chain of products and integer divisions, folded left to
    right in a loop, so long juxtaposed products stay off the recursion limit."""
    steps = []
    node = ast
    while isinstance(node, (Mul, Div)):
        steps.append(node)
        node = node.left
    out = evaluate_ast(node, d)
    for step in reversed(steps):
        if isinstance(step, Mul):
            right = evaluate_ast(step.right, d)
            if step.pos is not None:
                _check_product(out, right, step.pos)
            out = weyl.multiply(out, right)
        else:
            # a literal or its power: denominator 1, numerator sum its value
            _, divisor = _size(evaluate_ast(step.divisor, d))
            if not divisor:
                raise ZeroDivisionError("division by zero literal")
            den, num = _size(out)
            _check_digits(math.log10(max(den * divisor, num)), step.pos, "quotient")
            out = out / divisor
    return out


class _Oversized(ValueError):
    """A step past ``MAX_DIGITS``, found at evaluation; ``evaluate`` turns it
    into an ``ExprError`` at the step's position."""

    def __init__(self, pos: int, message: str):
        super().__init__(message)
        self.pos = pos


def _size(a: OperatorExpr) -> Tuple[int, int]:
    """a's denominator and the sum of its numerators' |re| + |im|: the one
    size estimate behind every scalar-growing step.  Gamma words multiply
    with unit phases, so, while no momentum moves past a position, the
    denominator and every numerator of a product are at most the products
    of its factors' sizes, those of an nth power at most their nth powers,
    and a division by n multiplies the denominator by n."""
    num = 0
    for re, im in a.num.values():
        num += abs(re) + abs(im)
    return a.den, num


def _check_digits(digits: float, pos: int, what: str) -> None:
    """Refuse a step whose result's estimate, ``digits`` + 1 decimal digits,
    reaches past ``MAX_DIGITS``."""
    if digits >= MAX_DIGITS:
        raise _Oversized(pos, f"the {what} has about {int(digits) + 1:,} digits, more than the limit of {MAX_DIGITS:,}")


def _check_product(a: OperatorExpr, b: OperatorExpr, pos: int) -> None:
    (den_a, num_a), (den_b, num_b) = _size(a), _size(b)
    _check_digits(math.log10(max(den_a * den_b, num_a * num_b)), pos, "product")


def evaluate(text: str, d: int) -> OperatorExpr:
    """Parse and evaluate in one step."""
    try:
        return evaluate_ast(parse(text, d), d)
    except _Oversized as err:
        line, col = _position(text, err.pos)
        raise ExprError(line, col, str(err)) from None


def format_expr(a: OperatorExpr) -> str:
    """Canonical rendering; evaluate(format_expr(a), a.d) == a."""
    return weyl.render(a)
