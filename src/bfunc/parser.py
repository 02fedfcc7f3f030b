"""Expression parser for polynomials and operators.

Grammar (no implicit multiplication, natural-number powers only):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' NAT)?
    base   := NAT ('/' NAT)? | NAME | '(' expr ')'

Atoms: integer and p/q rational literals, declared variable names, the
parameter s, and one derivation atom per variable spelled d<name>.  Parsing
an expression with derivation atoms in polynomial context is an error;
operator context lowers products through the noncommutative multiplication,
so for example dx*x parses to x*dx + 1.
"""

from dataclasses import dataclass

from .errors import InputError, ParseError
from .rationals import Rational
from .sympoly import SymbolPoly
from .weyl import DiffOp


@dataclass(frozen=True)
class Token:
    kind: str  # NAT, NAME, OP, END
    text: str
    line: int
    col: int


DIGITS = "0123456789"


def _tokenize(text):
    tokens = []
    line, col = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        # str.isdigit also accepts superscripts such as "²", which int() rejects
        if ch in DIGITS:
            j = i
            while j < len(text) and text[j] in DIGITS:
                j += 1
            tokens.append(Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


def check_names(names):
    """The variable names as a list; InputError for a duplicate, for s (the
    parameter), for a name that is not an identifier and for a name that is
    the derivation atom d<name> of another."""
    names = list(names)
    if len(set(names)) != len(names):
        raise InputError("duplicate variable names")
    for name in names:
        if name == "s":
            raise InputError("'s' is reserved for the parameter")
        if not name.isidentifier() or not (name[0].isalpha() or name[0] == "_"):
            raise InputError(f"bad variable name {name!r}")
        if name.startswith("d") and name[1:] in names:
            raise InputError(f"variable {name!r} collides with a derivation atom")
    return names


class _Parser:
    def __init__(self, text, names, operators):
        """names: variable list; operators: allow d-atoms and build DiffOps."""
        self.names = check_names(names)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.operators = operators
        self.cls = DiffOp if operators else SymbolPoly
        self.arity = 2 * len(self.names) + 1

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, text=None):
        tok = self.tokens[self.pos]
        if kind and tok.kind != kind or text and tok.text != text:
            raise ParseError(f"expected {text or kind}, found {tok.text or 'end of input'}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.take()
            return -self.factor()
        value = self.base()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.take()
            ptok = self.peek()
            if ptok.kind != "NAT":
                raise ParseError("exponent must be a natural number",
                                 ptok.line, ptok.col)
            self.take()
            value = value ** int(ptok.text)
        return value

    def base(self):
        tok = self.peek()
        if tok.kind == "NAT":
            self.take()
            num = int(tok.text)
            if self.peek().kind == "OP" and self.peek().text == "/":
                self.take()
                dtok = self.take("NAT")
                den = int(dtok.text)
                if den == 0:
                    raise ParseError("zero denominator", dtok.line, dtok.col)
                return self.cls.constant(Rational(num, den), self.arity)
            return self.cls.constant(num, self.arity)
        if tok.kind == "NAME":
            self.take()
            return self.atom(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.take()
            value = self.expr()
            self.take(text=")")
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def atom(self, tok):
        name = tok.text
        n = len(self.names)
        if name == "s":
            return self.cls.variable(n, self.arity)
        if name in self.names:
            return self.cls.variable(self.names.index(name), self.arity)
        if name.startswith("d") and name[1:] in self.names:
            if not self.operators:
                raise ParseError(f"derivation atom {name!r} is not allowed "
                                 "in polynomial context", tok.line, tok.col)
            return self.cls.variable(n + 1 + self.names.index(name[1:]),
                                     self.arity)
        raise ParseError(f"unknown name {name!r}", tok.line, tok.col)


def parse_poly(text, names):
    """Parse in polynomial context: variables and s, no derivation atoms."""
    return _Parser(text, names, operators=False).parse()


def parse_op(text, names):
    """Parse in operator context: products are operator compositions."""
    return _Parser(text, names, operators=True).parse()
