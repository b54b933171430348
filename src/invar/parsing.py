"""Shared expression parser for scalar and polynomial text.

One grammar serves all text input: identifiers, integer literals,
``+ - * / ^`` and parentheses, no implicit multiplication, whitespace
insignificant.  The parser is generic over the value domain and has one
caller, `PolynomialRing.parse`, which also parses matrix entries,
scalars (`Field.parse` takes the constant coefficient over a ring with
no variables) and minimal polynomials (`field_from_config` reads them
over Q in the generator).

The values do the arithmetic, so `Polynomial` holds its checks: a power
whose degree reaches `polynomials.DEGREE_BOUND` (2^15) raises
`CapExceeded` before it is expanded, and division by a nonconstant or
zero polynomial raises `ParseError`.  Text nested too deeply for the
recursive descent raises `ParseError`.
"""

from __future__ import annotations

from .errors import DivisionByZero, InvarError, ParseError


def _tokenize(text: str):
    text = text.replace("−", "-").replace("·", "*")
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols, make_int, mul):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols
        self.make_int = make_int
        self.mul = mul

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, ch):
        kind, val = self.take()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r}, got {val!r}")

    def parse(self):
        value = self.expression()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at token {val!r}")
        return value

    def expression(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.power()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.power()
                if val == "*":
                    value = self.mul(value, rhs)
                else:
                    try:
                        value = value / rhs
                    except (DivisionByZero, ZeroDivisionError) as exc:
                        raise ParseError(str(exc)) from exc
            else:
                return value

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            return base ** val
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.make_int(val)
        if kind == "ident":
            try:
                return self.symbols[val]
            except KeyError:
                raise ParseError(f"unknown identifier {val!r}") from None
        if kind == "op" and val == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        if kind == "op" and val == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {val!r}")


def parse_expression(text: str, symbols, make_int, mul):
    """Value of the text; `mul` forms the products of the ``*`` operator."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__} {text!r}")
    try:
        return _Parser(_tokenize(text), symbols, make_int, mul).parse()
    except InvarError:
        raise
    except (ZeroDivisionError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
