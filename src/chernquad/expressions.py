"""Recursive-descent parser and jet evaluator for metric-component expressions.

Grammar (whitespace insignificant, ``^`` right-associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := NUMBER | 'u' | 'v' | 'pi' | FUNC '(' expr ')' | '(' expr ')' | '-' base
    FUNC   := sin | cos | tan | exp | log | sqrt | sinh | cosh

Note the grammar makes unary minus bind tighter than ``^``: ``-u^2``
parses as ``(-u)^2``.  Exponents must be integer literals unless the base
is positive at evaluation time.

``parse`` reports syntax errors with the byte offset of the offending
token; ``eval_jet`` reports domain errors (division by zero, log/sqrt out
of domain, non-integer power of a non-positive base) with the offset of
the responsible operator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

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

VARIABLES = ("u", "v")
CONSTANTS = {"pi": math.pi}


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


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    pos: int = field(default=0, compare=False)


ExprAst = Union[Num, Var, Const, Neg, BinOp, Call]


class _Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'op' | 'lparen' | 'rparen' | 'end'
    text: str
    pos: int


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            node = BinOp(op.text, node, self.term(), pos=op.pos)
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            node = BinOp(op.text, node, self.factor(), pos=op.pos)
        return node

    def factor(self) -> ExprAst:
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            op = self.take()
            node = BinOp("^", node, self.factor(), pos=op.pos)
        return node

    def base(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            self.take()
            if tok.text in VARIABLES:
                return Var(tok.text, pos=tok.pos)
            if tok.text in CONSTANTS:
                return Const(tok.text, pos=tok.pos)
            if tok.text in FUNCTIONS:
                opening = self.peek()
                if opening.kind != "lparen":
                    raise ExprSyntaxError(f"expected '(' after {tok.text!r}", opening.pos)
                self.take()
                arg = self.expr()
                closing = self.peek()
                if closing.kind != "rparen":
                    raise ExprSyntaxError("expected ')'", closing.pos)
                self.take()
                return Call(tok.text, arg, pos=tok.pos)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "lparen":
            self.take()
            node = self.expr()
            closing = self.peek()
            if closing.kind != "rparen":
                raise ExprSyntaxError("expected ')'", closing.pos)
            self.take()
            return node
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.base(), pos=tok.pos)
        raise ExprSyntaxError("expected a number, name, '(' or '-'", tok.pos)


def parse(text: str) -> ExprAst:
    parser = _Parser(text)
    if parser.peek().kind == "end":
        raise ExprSyntaxError("empty expression", 0)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected input {trailing.text!r}", trailing.pos)
    return node


def _int_literal(node: ExprAst):
    """Exponent node as an integer, or None when not an integer literal."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_literal(node.arg)
        if inner is not None:
            return -inner
    return None


def eval_jet(node: ExprAst, u, v) -> Jet2:
    """Evaluate an expression and its derivatives at (u, v).

    ``u`` and ``v`` may be floats or numpy arrays of a common shape; jet
    channels of the result broadcast accordingly (an expression that never
    mentions ``u`` or ``v`` returns scalar channels).
    """
    return _eval(node, jets.var_u(u), jets.var_v(v))


def _eval(node: ExprAst, u_seed: Jet2, v_seed: Jet2) -> Jet2:
    if isinstance(node, Num):
        return Jet2(node.value)
    if isinstance(node, Const):
        return Jet2(CONSTANTS[node.name])
    if isinstance(node, Var):
        return u_seed if node.name == "u" else v_seed
    if isinstance(node, Neg):
        return -_eval(node.arg, u_seed, v_seed)
    if isinstance(node, Call):
        arg = _eval(node.arg, u_seed, v_seed)
        if node.func == "log" and np.any(np.asarray(arg.val) <= 0.0):
            raise ExprDomainError("log of a non-positive value", node.pos)
        if node.func == "sqrt" and np.any(np.asarray(arg.val) < 0.0):
            raise ExprDomainError("sqrt of a negative value", node.pos)
        return FUNCTIONS[node.func](arg)
    if isinstance(node, BinOp):
        left = _eval(node.left, u_seed, v_seed)
        if node.op == "^":
            power = _int_literal(node.right)
            if power is not None:
                if power < 0 and np.any(np.asarray(left.val) == 0.0):
                    raise ExprDomainError("zero raised to a negative power", node.pos)
                return left ** power
            if np.any(np.asarray(left.val) <= 0.0):
                raise ExprDomainError(
                    "non-integer power requires a positive base", node.pos)
            return jets.exp(_eval(node.right, u_seed, v_seed) * jets.log(left))
        right = _eval(node.right, u_seed, v_seed)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(np.asarray(right.val) == 0.0):
            raise ExprDomainError("division by zero", node.pos)
        return left / right
    raise TypeError(f"not an expression node: {node!r}")
