"""Compile metric-component expressions to functions of the coordinate jets.

Grammar (whitespace insignificant, ``^`` right-associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := NUMBER | 'u' | 'v' | 'pi' | FUNC '(' expr ')' | '(' expr ')' | '-' base
    FUNC   := sin | cos | tan | exp | log | sqrt | sinh | cosh

Note the grammar makes unary minus bind tighter than ``^``: ``-u^2``
parses as ``(-u)^2``.  Exponents must be integer literals unless the base
is positive at evaluation time.

``parse`` compiles the text once: each grammar rule returns a closure
``(u_seed, v_seed) -> Jet2``, and each ``+ -`` or ``* /`` chain folds left
to right in one loop.  It reports syntax errors with the byte offset of
the offending token, among them nesting deeper than ``MAX_DEPTH`` levels
(parentheses, calls, unary minus and exponents each count as one) and an
integer exponent beyond ``MAX_POWER`` in magnitude.  A compiled
expression reports domain errors (division by zero, log/sqrt out of
domain, non-integer power of a non-positive base) with the offset of
the responsible operator; ``eval_jet`` calls one at floats or arrays.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet2

FUNCTIONS: dict[str, Callable[[Jet2], Jet2]] = {
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "sinh": jets.sinh,
    "cosh": jets.cosh,
}
# function -> (argument values it rejects, message)
_DOMAINS = {
    "log": (lambda x: x <= 0.0, "log of a non-positive value"),
    "sqrt": (lambda x: x < 0.0, "sqrt of a negative value"),
}

VARIABLES = ("u", "v")
CONSTANTS = {"pi": math.pi}

MAX_DEPTH = 100
MAX_POWER = 1024

Expr = Callable[[Jet2, Jet2], Jet2]


class ExprError(ValueError):
    """Base class for expression errors; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class ExprDomainError(ExprError):
    pass


_TOKEN = re.compile(r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` triples; a symbol's kind is the symbol itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {tok!r}", pos)
        tokens.append((tok if kind == "sym" else kind, tok, pos))
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _divide(pos: int):
    def divide(a: Jet2, b: Jet2) -> Jet2:
        if np.any(np.asarray(b.val) == 0.0):
            raise ExprDomainError("division by zero", pos)
        return a / b
    return divide


class _Parser:
    """Each rule returns ``(closure, integer literal or None)``; the literal
    survives parentheses and negation so ``u^-(2)`` takes ``x ** n``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def close(self) -> None:
        kind, _, pos = self.take()
        if kind != ")":
            raise ExprSyntaxError("expected ')'", pos)

    def chain(self, operand, symbols: tuple[str, str], depth: int):
        first, literal = operand(depth)
        rest = []
        while self.peek()[0] in symbols:
            sym, _, pos = self.take()
            op = _divide(pos) if sym == "/" else _BINARY[sym]
            rest.append((op, operand(depth)[0]))
        if not rest:
            return first, literal

        def fold(u: Jet2, v: Jet2) -> Jet2:
            acc = first(u, v)
            for op, fn in rest:
                acc = op(acc, fn(u, v))
            return acc
        return fold, None

    def expr(self, depth: int):
        return self.chain(self.term, ("+", "-"), depth)

    def term(self, depth: int):
        return self.chain(self.factor, ("*", "/"), depth)

    def factor(self, depth: int):
        base, literal = self.base(depth)
        if self.peek()[0] != "^":
            return base, literal
        pos = self.take()[2]
        exponent, n = self.factor(_deeper(depth, pos))
        if n is not None and abs(n) > MAX_POWER:
            raise ExprSyntaxError(f"integer exponent beyond {MAX_POWER} in magnitude", pos)

        def power(u: Jet2, v: Jet2) -> Jet2:
            x = base(u, v)
            if n is not None:
                if n < 0 and np.any(np.asarray(x.val) == 0.0):
                    raise ExprDomainError("zero raised to a negative power", pos)
                return x ** n
            if np.any(np.asarray(x.val) <= 0.0):
                raise ExprDomainError("non-integer power requires a positive base", pos)
            return jets.exp(exponent(u, v) * jets.log(x))
        return power, None

    def base(self, depth: int):
        kind, text, pos = self.take()
        if kind == "num":
            value = float(text)
            const = Jet2(value)
            return (lambda u, v: const), int(value) if value.is_integer() else None
        if kind == "name":
            if text in VARIABLES:
                return ((lambda u, v: u) if text == "u" else (lambda u, v: v)), None
            if text in CONSTANTS:
                const = Jet2(CONSTANTS[text])
                return (lambda u, v: const), None
            if text in FUNCTIONS:
                opening = self.take()
                if opening[0] != "(":
                    raise ExprSyntaxError(f"expected '(' after {text!r}", opening[2])
                arg, _ = self.expr(_deeper(depth, pos))
                self.close()
                return _call(text, arg, pos), None
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            inner = self.expr(_deeper(depth, pos))
            self.close()
            return inner
        if kind == "-":
            arg, literal = self.base(_deeper(depth, pos))
            return (lambda u, v: -arg(u, v)), None if literal is None else -literal
        raise ExprSyntaxError("expected a number, name, '(' or '-'", pos)


def _deeper(depth: int, pos: int) -> int:
    if depth >= MAX_DEPTH:
        raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH}", pos)
    return depth + 1


def _call(name: str, arg: Expr, pos: int) -> Expr:
    func = FUNCTIONS[name]
    if name not in _DOMAINS:
        return lambda u, v: func(arg(u, v))
    rejects, message = _DOMAINS[name]

    def call(u: Jet2, v: Jet2) -> Jet2:
        x = arg(u, v)
        if np.any(rejects(np.asarray(x.val))):
            raise ExprDomainError(message, pos)
        return func(x)
    return call


def parse(text: str) -> Expr:
    """Compile ``text`` to a function ``(u_seed, v_seed) -> Jet2``."""
    parser = _Parser(text)
    if parser.peek()[0] == "end":
        raise ExprSyntaxError("empty expression", 0)
    expr, _ = parser.expr(0)
    kind, trailing, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected input {trailing!r}", pos)
    return expr


def eval_jet(expr: Expr, u, v) -> Jet2:
    """Evaluate a compiled expression and its derivatives at (u, v).

    ``u`` and ``v`` may be floats or numpy arrays of a common shape; jet
    channels of the result broadcast accordingly (an expression that never
    mentions ``u`` or ``v`` returns scalar channels).
    """
    return expr(jets.var_u(u), jets.var_v(v))
