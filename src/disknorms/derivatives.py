"""Pointwise and series-level pre-Schwarzian and Schwarzian derivatives.

Two independent computation paths on purpose: pointwise values come from
the derivative stack via f'''/f' - (3/2)(f''/f')^2, series values from
P' - P^2/2 with P = f''/f' formed by series division.  The two routes act
as mutual oracles in the test suite.
"""

from __future__ import annotations

from .catalog import Alpha, AnalyticFn, DerivStack, SeriesFn
from .series import TaylorSeries


def pre_schwarzian_of(stack: DerivStack) -> complex:
    return stack.f2 / stack.f1


def schwarzian_of(stack: DerivStack) -> complex:
    p = stack.f2 / stack.f1
    return stack.f3 / stack.f1 - 1.5 * p * p


def pre_schwarzian_at(f: AnalyticFn, z: complex) -> complex:
    """f''(z) / f'(z)."""
    f1, f2, _ = f.deriv123(z)
    return f2 / f1


def schwarzian_at(f: AnalyticFn, z: complex) -> complex:
    """f'''/f' - (3/2)(f''/f')^2."""
    f1, f2, f3 = f.deriv123(z)
    p = f2 / f1
    return f3 / f1 - 1.5 * p * p


def schwarzian_extremal_closed(alpha: Alpha, z: complex) -> complex:
    """Closed-form Schwarzian of the sharpness family:
    2 cos(alpha) (1 + (1 - cos alpha) z^2) / (1 - z^2)^2.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"need |z| < 1, got {abs(z)}")
    c = alpha.cos
    g = 1.0 - z * z
    return 2 * c * (1.0 + (1.0 - c) * z * z) / (g * g)


def pre_schwarzian_series(f: SeriesFn) -> TaylorSeries:
    """Series of f''/f'; requires |f'(0)| = 1 (normalized input).  Cached on f."""
    return f.pre_schwarzian_series


def schwarzian_series(f: SeriesFn) -> TaylorSeries:
    """Series of P' - P^2/2 with P = f''/f'.  Cached on f."""
    return f.schwarzian_series


def pre_schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of f''/f'; series-backed functions use their cached
    quotient series (one Horner pass per point)."""
    if isinstance(f, SeriesFn):
        return pre_schwarzian_series(f).eval

    def ev(z: complex) -> complex:
        return pre_schwarzian_at(f, z)
    return ev


def schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of the Schwarzian; series-backed via cached series."""
    if isinstance(f, SeriesFn):
        return schwarzian_series(f).eval

    def ev(z: complex) -> complex:
        return schwarzian_at(f, z)
    return ev


def pre_schwarzian_ring(f: AnalyticFn):
    """Ring evaluator of f''/f' (TaylorSeries.eval_ring of the cached quotient
    series) for series-backed functions; None for closed forms."""
    if isinstance(f, SeriesFn):
        return pre_schwarzian_series(f).eval_ring
    return None


def schwarzian_ring(f: AnalyticFn):
    """Ring evaluator of the Schwarzian for series-backed functions; None for
    closed forms."""
    if isinstance(f, SeriesFn):
        return schwarzian_series(f).eval_ring
    return None
