"""Truncated complex power series with exact-to-truncation arithmetic.

A :class:`TaylorSeries` holds coefficients ``c_0 .. c_N`` of a function
analytic on the unit disk, together with a guard radius beyond which
evaluation is refused (the represented functions typically have radius-1
singularities, so the truncated polynomial is only trusted well inside).

All operations are pure and return new series; results of binary
operations are truncated to the smaller of the two orders, which keeps
every coefficient exact up to floating-point rounding.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

from .errors import DivisionBySingularSeries, NonFiniteValue, OutsideGuardRadius

DEFAULT_ORDER = 256
DEFAULT_GUARD_RADIUS = 0.95
# Headroom for the O(N) recursions at N = 256: constant terms smaller than
# this are treated as singular rather than divided by.
SINGULAR_EPS = 1e-12
# |r e^{i theta}| can round a few ulps above the grid radius r.
GUARD_SLACK = 1e-13


def _check_finite(values: Iterable[complex]) -> None:
    for c in values:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise NonFiniteValue(f"non-finite coefficient {c!r}")


class TaylorSeries:
    """Immutable truncated power series sum(c_n z^n, n=0..order)."""

    __slots__ = ("coeffs", "order", "guard_radius")

    def __init__(self, coeffs: Sequence[complex], guard_radius: float = DEFAULT_GUARD_RADIUS):
        coeffs = tuple(complex(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if not 0.0 < guard_radius < 1.0:
            raise ValueError(f"guard radius must lie in (0, 1), got {guard_radius}")
        _check_finite(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "guard_radius", guard_radius)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TaylorSeries is immutable")

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TaylorSeries([{head}{tail}], order={self.order}, guard={self.guard_radius})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[complex], order: int = DEFAULT_ORDER,
                        guard_radius: float = DEFAULT_GUARD_RADIUS) -> "TaylorSeries":
        """Lift polynomial coefficients to a series of the given order."""
        coeffs = list(coeffs) or [0.0]
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0.0] * (order + 1 - len(coeffs))
        return cls(coeffs[: order + 1], guard_radius)

    @classmethod
    def constant(cls, value: complex, order: int = DEFAULT_ORDER,
                 guard_radius: float = DEFAULT_GUARD_RADIUS) -> "TaylorSeries":
        return cls.from_polynomial([value], order, guard_radius)

    # -- helpers -----------------------------------------------------------

    def shift_up(self) -> "TaylorSeries":
        """Multiply by z (coefficients move up one slot, order preserved)."""
        return TaylorSeries((0.0,) + self.coeffs[:-1], self.guard_radius)

    def _common(self, other: "TaylorSeries") -> tuple[int, float]:
        return (min(self.order, other.order),
                min(self.guard_radius, other.guard_radius))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        n, g = self._common(other)
        a, b = self.coeffs, other.coeffs
        return TaylorSeries([a[k] + b[k] for k in range(n + 1)], g)

    def __sub__(self, other: "TaylorSeries") -> "TaylorSeries":
        n, g = self._common(other)
        a, b = self.coeffs, other.coeffs
        return TaylorSeries([a[k] - b[k] for k in range(n + 1)], g)

    def __neg__(self) -> "TaylorSeries":
        return TaylorSeries([-c for c in self.coeffs], self.guard_radius)

    def scale(self, factor: complex) -> "TaylorSeries":
        return TaylorSeries([factor * c for c in self.coeffs], self.guard_radius)

    def __mul__(self, other: "TaylorSeries") -> "TaylorSeries":
        n, g = self._common(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            s = 0j
            for j in range(k + 1):
                s += a[j] * b[k - j]
            out.append(s)
        return TaylorSeries(out, g)

    def __truediv__(self, other: "TaylorSeries") -> "TaylorSeries":
        n, g = self._common(other)
        b0 = other.coeffs[0]
        if abs(b0) <= SINGULAR_EPS:
            raise DivisionBySingularSeries(
                f"divisor constant term {b0!r} below {SINGULAR_EPS}")
        a, b = self.coeffs, other.coeffs
        out: list[complex] = []
        for k in range(n + 1):
            s = a[k]
            for j in range(k):
                s -= out[j] * b[k - j]
            out.append(s / b0)
        return TaylorSeries(out, g)

    # -- calculus ----------------------------------------------------------

    def diff(self) -> "TaylorSeries":
        """Termwise derivative; order drops by one."""
        if self.order == 0:
            return TaylorSeries([0.0], self.guard_radius)
        return TaylorSeries([k * self.coeffs[k] for k in range(1, self.order + 1)],
                            self.guard_radius)

    def integrate(self) -> "TaylorSeries":
        """Termwise antiderivative with zero constant term; order grows by one."""
        out = [0j]
        for k, c in enumerate(self.coeffs):
            out.append(c / (k + 1))
        return TaylorSeries(out, self.guard_radius)

    # -- transcendental ----------------------------------------------------

    def exp(self) -> "TaylorSeries":
        a = self.coeffs
        n = self.order
        out = [cmath.exp(a[0])]
        for k in range(1, n + 1):
            s = 0j
            for j in range(1, k + 1):
                s += j * a[j] * out[k - j]
            out.append(s / k)
        _check_finite(out)
        return TaylorSeries(out, self.guard_radius)

    def log(self) -> "TaylorSeries":
        """Principal-branch logarithm; needs a non-singular constant term."""
        a0 = self.coeffs[0]
        if abs(a0) <= SINGULAR_EPS:
            raise DivisionBySingularSeries(
                f"log of series with constant term {a0!r}")
        a = self.coeffs
        n = self.order
        out = [cmath.log(a0)]
        for k in range(1, n + 1):
            s = k * a[k]
            for j in range(1, k):
                s -= j * out[j] * a[k - j]
            out.append(s / (k * a0))
        _check_finite(out)
        return TaylorSeries(out, self.guard_radius)

    def pow(self, beta: complex) -> "TaylorSeries":
        """Principal-branch power: exp(beta * log(self))."""
        return self.log().scale(beta).exp()

    # -- evaluation --------------------------------------------------------

    def eval(self, z: complex) -> complex:
        value, _ = self.eval_with_tail(z)
        return value

    def eval_with_tail(self, z: complex) -> tuple[complex, float]:
        """Horner evaluation plus the |c_N||z|^N truncation-error indicator."""
        z = complex(z)
        r = abs(z)
        if r > self.guard_radius + GUARD_SLACK:
            raise OutsideGuardRadius(
                f"|z| = {r:.6g} exceeds guard radius {self.guard_radius}")
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
            raise NonFiniteValue(f"series evaluation overflowed at z = {z!r}")
        tail = abs(self.coeffs[-1]) * r ** self.order
        return acc, tail


# Spec-facing aliases; methods above are the idiomatic entry points.

def series_mul(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    return a * b


def series_div(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    return a / b


def series_diff(a: TaylorSeries) -> TaylorSeries:
    return a.diff()


def series_integrate(a: TaylorSeries) -> TaylorSeries:
    return a.integrate()


def series_exp(a: TaylorSeries) -> TaylorSeries:
    return a.exp()


def series_log(a: TaylorSeries) -> TaylorSeries:
    return a.log()


def series_pow(a: TaylorSeries, beta: complex) -> TaylorSeries:
    return a.pow(beta)


def series_eval(a: TaylorSeries, z: complex) -> complex:
    return a.eval(z)
