"""A tiny expression language for task files and command-line elements.

Supports names bound in an environment, integer and rational literals,
`+ - * / ^` with the usual precedence, parentheses, and the law-aware calls
`F(a, b)` (group-law sum) and `inv(a)` (formal inverse).  Division accepts a
unit series on the right.  Errors carry the 1-based character position.

Input is bounded, so that no expression exhausts the stack or makes a
result that cannot be printed.  Parentheses, calls and signs nest at most
MAX_NESTING deep.  Every number an expression makes (a literal, or a
coefficient of any intermediate value) has at most MAX_DIGITS digits in its
numerator and denominator; a term of a result coefficient multiplies at most
N + 1 <= 11 of them, which stays below Python's 4300-digit limit for turning
an int into text.  A power is refused before it is computed when a bound on
its numbers passes the limit.
"""

from __future__ import annotations

import re
from math import lcm, log10

from .series import CalculusError, NotAUnit, Series, invert_unit

MAX_DIGITS = 300
MAX_NESTING = 50
_BOUND = 10**MAX_DIGITS


class ExprError(CalculusError):
    """Malformed expression; `pos` is the 1-based character offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a name of an expression, task or command line
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|([()+\-*/^,]))")


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            pos = len(text) - len(stripped) + 1
            raise ExprError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1):
            if len(m.group(1)) > MAX_DIGITS:
                raise ExprError(f"integer of more than {MAX_DIGITS} digits", m.start(1) + 1)
            out.append(("int", m.group(1), m.start(1) + 1))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2) + 1))
        else:
            out.append(("op", m.group(3), m.start(3) + 1))
        i = m.end()
    out.append(("end", "", len(text) + 1))
    return out


class _Parser:
    def __init__(self, text, env, law, context):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.env = env
        self.law = law
        self.context = context

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)

    def sized(self, value, pos):
        """`value`, unless a coefficient has more than MAX_DIGITS digits."""
        for c in value.terms.values():
            height = abs(c) if type(c) is int else max(abs(c.numerator), c.denominator)
            if height >= _BOUND:
                raise ExprError(f"a number of more than {MAX_DIGITS} digits", pos)
        return value

    def raise_to(self, value, k, pos):
        """value ** k, refused before it is computed if its numbers may be too long.

        Over a common denominator d, value = V/d, and every coefficient of
        value ** k has numerator at most |V|_1 ** k and denominator d ** k.
        The bound decides without computing; `sized` then checks exactly.
        """
        weight = value.min_weight()
        if weight is None or weight * k > self.context.truncation:
            return self.context.one() if k == 0 else self.context.zero()
        coeffs = value.terms.values()
        d = lcm(*(1 if type(c) is int else c.denominator for c in coeffs))
        norm = sum(abs(int(c * d)) for c in coeffs)
        if k * log10(max(norm, d)) > MAX_DIGITS:
            raise ExprError(f"power whose numbers may exceed {MAX_DIGITS} digits", pos)
        return self.sized(value**k, pos)

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {val!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = self.sized(value + rhs if val == "+" else value - rhs, pos)
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "*":
                    value = self.sized(value * rhs, pos)
                else:
                    try:
                        inverse = invert_unit(rhs)
                    except NotAUnit:
                        raise ExprError("division by a non-unit", pos) from None
                    value = self.sized(value * inverse, pos)
            else:
                return value

    def unary(self):
        # every nested parenthesis, call argument and sign passes through here
        kind, val, pos = self.peek()
        if self.depth == MAX_NESTING:
            raise ExprError(f"nested more than {MAX_NESTING} deep", pos)
        self.depth += 1
        if kind == "op" and val == "-":
            self.take()
            value = -self.unary()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        value = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise ExprError("exponent must be an integer literal", pos)
            return self.raise_to(value, int(val), pos)
        return value

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.context.const(int(val))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                return self.call(val, pos)
            if val in self.env:
                return self.env[val]
            raise ExprError(f"unknown name {val!r}", pos)
        raise ExprError(f"unexpected {val!r}" if val else "unexpected end of input", pos)

    def call(self, name, pos):
        self.expect("(")
        args = [self.expr()]
        while True:
            kind, val, p = self.peek()
            if kind == "op" and val == ",":
                self.take()
                args.append(self.expr())
            else:
                break
        self.expect(")")
        if name == "F":
            if len(args) != 2:
                raise ExprError("F takes two arguments", pos)
            return self.sized(self.law.apply(args[0], args[1]), pos)
        if name == "inv":
            if len(args) != 1:
                raise ExprError("inv takes one argument", pos)
            return self.sized(self.law.inverse_at(args[0]), pos)
        raise ExprError(f"unknown function {name!r}", pos)


def evaluate(text, env, law, context) -> Series:
    """Evaluate `text` to a series over `context` with names bound by `env`."""
    return _Parser(text, env, law, context).parse()
