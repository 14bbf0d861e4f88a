"""Second-order forward-mode jets in two chart variables.

A ``Jet2`` carries a value together with its first and second partial
derivatives with respect to the chart coordinates (u, v).  Arithmetic on
jets applies the product, quotient and chain rules through second order,
so any closed-form evaluation built from jets yields derivatives exact up
to floating-point rounding.  There is one mixed channel ``duv``; equality
of the two mixed-partial orders is built into the representation.

Channels may be python floats or numpy arrays of a common broadcastable
shape.  All operations are elementwise, which is what makes grid-sampled
curvature kernels cheap: the number of python-level operations does not
grow with the grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Number
from typing import Union

import numpy as np

Channel = Union[float, np.ndarray]


@dataclass(frozen=True)
class Jet2:
    """Value and partials (d/du, d/dv) of a scalar field through order two."""

    val: Channel
    du: Channel = 0.0
    dv: Channel = 0.0
    duu: Channel = 0.0
    duv: Channel = 0.0
    dvv: Channel = 0.0

    # keep numpy from absorbing jets into object arrays; ndarray <op> Jet2
    # must resolve through the reflected operators below
    __array_ufunc__ = None

    def __add__(self, other):
        o = _lift(other)
        return Jet2(self.val + o.val, self.du + o.du, self.dv + o.dv,
                    self.duu + o.duu, self.duv + o.duv, self.dvv + o.dvv)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        a, b = self, _lift(other)
        return Jet2(
            a.val * b.val,
            a.du * b.val + a.val * b.du,
            a.dv * b.val + a.val * b.dv,
            a.duu * b.val + 2.0 * a.du * b.du + a.val * b.duu,
            a.duv * b.val + a.du * b.dv + a.dv * b.du + a.val * b.duv,
            a.dvv * b.val + 2.0 * a.dv * b.dv + a.val * b.dvv,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * reciprocal(_lift(other))

    def __rtruediv__(self, other):
        return _lift(other) * reciprocal(self)

    def __pow__(self, power: int):
        # integer exponents only: expressions take x^y as exp(y log x)
        return _int_pow(self, operator.index(power))


def _lift(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (Number, np.ndarray)):
        return Jet2(x)
    raise TypeError(f"cannot lift {type(x).__name__} to a jet")


def var_u(value: Channel) -> Jet2:
    """Seed jet for the first chart coordinate."""
    return Jet2(value, du=1.0)


def var_v(value: Channel) -> Jet2:
    """Seed jet for the second chart coordinate."""
    return Jet2(value, dv=1.0)


def _chain(x: Jet2, f0: Channel, f1: Channel, f2: Channel) -> Jet2:
    # second-order chain rule for f(x) given f, f', f'' at x.val
    return Jet2(
        f0,
        f1 * x.du,
        f1 * x.dv,
        f2 * x.du * x.du + f1 * x.duu,
        f2 * x.du * x.dv + f1 * x.duv,
        f2 * x.dv * x.dv + f1 * x.dvv,
    )


def reciprocal(x: Jet2) -> Jet2:
    """1 / x, which ``x / y`` multiplies by."""
    v = x.val
    return _chain(x, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))


def _int_pow(x: Jet2, n: int) -> Jet2:
    if n < 0:
        return reciprocal(_int_pow(x, -n))
    if n == 0:
        return Jet2(x.val * 0.0 + 1.0)
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def sin(x) -> Jet2:
    x = _lift(x)
    s, c = np.sin(x.val), np.cos(x.val)
    return _chain(x, s, c, -s)


def cos(x) -> Jet2:
    x = _lift(x)
    s, c = np.sin(x.val), np.cos(x.val)
    return _chain(x, c, -s, -c)


def tan(x) -> Jet2:
    x = _lift(x)
    t = np.tan(x.val)
    sec2 = 1.0 + t * t
    return _chain(x, t, sec2, 2.0 * t * sec2)


def exp(x) -> Jet2:
    x = _lift(x)
    e = np.exp(x.val)
    return _chain(x, e, e, e)


def log(x) -> Jet2:
    x = _lift(x)
    v = x.val
    return _chain(x, np.log(v), 1.0 / v, -1.0 / (v * v))


def sqrt(x) -> Jet2:
    x = _lift(x)
    s = np.sqrt(x.val)
    return _chain(x, s, 0.5 / s, -0.25 / (s * x.val))


def sinh(x) -> Jet2:
    x = _lift(x)
    s, c = np.sinh(x.val), np.cosh(x.val)
    return _chain(x, s, c, s)


def cosh(x) -> Jet2:
    x = _lift(x)
    s, c = np.sinh(x.val), np.cosh(x.val)
    return _chain(x, c, s, c)


def partial_jet(j: Jet2, axis: str) -> Jet2:
    """First-order jet of a partial derivative of ``j``.

    The value and first channels of the result are exact; the second-order
    channels would need third derivatives of the underlying field, so they
    are zeroed and must not be read downstream.
    """
    if axis == "u":
        return Jet2(j.du, j.duu, j.duv)
    if axis == "v":
        return Jet2(j.dv, j.duv, j.dvv)
    raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
