"""Recursive-descent parser for microdifferential operator expressions.

Grammar (whitespace-insensitive except inside numbers):

    expr    := term (('+' | '-') term)*
    term    := ('-')* factor+          juxtaposition composes
    factor  := atom ('^' exponent)?    power binds tighter than composition
    atom    := number | 't' | 'd' | '(' expr ')'
    number  := INT ('/' INT)?
    exponent:= ('-')? INT

't' and 'd' accept integer exponents (negative allowed); '*' is accepted
between factors as an explicit composition sign.  Printing a normal-form
operator and re-parsing it is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .psido import PsiDO, compose
from .series import DEFAULT_ORDER, TruncSeries


@dataclass(frozen=True)
class Token:
    kind: str  # 'int', 'name', 'op'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "td":
            out.append(Token("name", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "+-*/^()":
            out.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return out


class _Parser:
    def __init__(self, tokens: list[Token], order: int):
        self.tokens = tokens
        self.pos = 0
        self.order = order

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("op", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + 1)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    # -- grammar -------------------------------------------------------------

    def expr(self) -> PsiDO:
        acc = self.term()
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.take()
            rhs = self.term()
            acc = acc + rhs if tok.text == "+" else acc - rhs
        return acc

    def term(self) -> PsiDO:
        sign = 1
        while (tok := self.peek()) is not None and tok.text == "-":
            self.take()
            sign = -sign
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.text in "+-)":
                break
            if tok.text == "*":
                self.take()
                if self.peek() is None:
                    raise ParseError("dangling '*'", tok.line, tok.col)
            acc = compose(acc, self.factor())
        return acc * sign if sign < 0 else acc

    def factor(self) -> PsiDO:
        tok = self.take()
        if tok.kind == "int":
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt is not None and nxt.text == "/":
                self.take()
                den = self.take()
                if den.kind != "int":
                    raise ParseError("expected denominator", den.line, den.col)
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value = Fraction(int(tok.text), int(den.text))
            return PsiDO.from_series(
                TruncSeries.monomial(0, value, self.order)
            )
        if tok.kind == "name":
            k = 1
            nxt = self.peek()
            if nxt is not None and nxt.text == "^":
                self.take()
                k = self._exponent()
            if tok.text == "t":
                return PsiDO.from_series(TruncSeries.monomial(k, 1, self.order))
            return PsiDO({k: TruncSeries.one(self.order)})
        if tok.text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _exponent(self) -> int:
        tok = self.take()
        sign = 1
        if tok.text == "-":
            sign = -1
            tok = self.take()
        if tok.kind != "int":
            raise ParseError("expected integer exponent", tok.line, tok.col)
        return sign * int(tok.text)


def parse_operator(text: str, order: int = DEFAULT_ORDER) -> PsiDO:
    """Parse an operator expression into normal form (coefficients left)."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    p = _Parser(tokens, order)
    result = p.expr()
    if p.peek() is not None:
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return result


def print_operator(A: PsiDO) -> str:
    """Normal-form rendering accepted back by parse_operator."""
    if A.is_zero:
        return "0"
    bits: list[str] = []
    for i in sorted(A.terms, reverse=True):
        series = A.terms[i]
        for k, c in sorted(series.items()):
            piece = _print_monomial(c, k, i)
            if bits:
                if piece.startswith("-"):
                    bits.append("- " + piece[1:])
                else:
                    bits.append("+ " + piece)
            else:
                bits.append(piece)
    return " ".join(bits)


def _print_monomial(c: Fraction, k: int, i: int) -> str:
    parts = []
    neg = c < 0
    mag = -c if neg else c
    if mag != 1 or (k == 0 and i == 0):
        parts.append(str(mag))
    if k != 0:
        parts.append("t" if k == 1 else f"t^{k}")
    if i != 0:
        parts.append("d" if i == 1 else f"d^{i}")
    body = " ".join(parts) if parts else "1"
    return ("-" if neg else "") + body
