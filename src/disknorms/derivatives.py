"""Pointwise and series-level pre-Schwarzian and Schwarzian derivatives.

Two independent computation paths on purpose: pointwise values come from
the derivative stack via f'''/f' - (3/2)(f''/f')^2, series values from
P' - P^2/2 with P = f''/f' formed by series division.  The two routes act
as mutual oracles in the test suite.

_field is the one place that picks, by function kind, how f''/f' and the
Schwarzian are evaluated.  Every scan of them goes through weighted_norm
(the weighted norms) or pre_schwarzian_inf_re (the infimum of a real-part
functional of f''/f').
"""

from __future__ import annotations

from .catalog import Alpha, AnalyticFn, DerivStack, SeriesFn
from .disksup import (MarginReport, NormEstimate, SamplingPlan, ring_points, weighted_inf_re,
                      weighted_sup)
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
    """Closed-form Schwarzian of RobertsonExtremal(alpha):
    2 cos(alpha) (1 + (1 - cos alpha) z^2) / (1 - z^2)^2.

    For alpha != 0 that function is not a class member (see its docstring),
    so this formula does not show a Schwarzian bound for the class sharp.
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


def _field(f: AnalyticFn, k: int):
    """(point, ring) evaluators of f''/f' (k = 1) or of the Schwarzian (k = 2).

    A series-backed f gives its cached quotient series' eval (one Horner pass
    per point) and eval_ring (one folded DFT per grid ring); a closed form
    gives the derivative-stack formula and no ring evaluator."""
    if isinstance(f, SeriesFn):
        s = pre_schwarzian_series(f) if k == 1 else schwarzian_series(f)
        return s.eval, s.eval_ring
    at = pre_schwarzian_at if k == 1 else schwarzian_at
    return (lambda z: at(f, z)), None


def pre_schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of f''/f'."""
    return _field(f, 1)[0]


def schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of the Schwarzian."""
    return _field(f, 2)[0]


def weighted_norm(f: AnalyticFn, k: int, plan: SamplingPlan) -> NormEstimate:
    """Estimate of the pre-Schwarzian (k = 1) or Schwarzian (k = 2) norm of f,
    sup of (1 - |z|^2)^k times the field's modulus, from below."""
    point, ring = _field(f, k)
    return weighted_sup(point, k, plan, r_limit=f.radius_limit, ring=ring)


def pre_schwarzian_inf_re(f: AnalyticFn, post, plan: SamplingPlan,
                          r_limit: float) -> MarginReport:
    """Sampled infimum over |z| < r_limit of Re post(z, u), u = f''(z)/f'(z)."""
    point, series_ring = _field(f, 1)
    ring = None
    if series_ring is not None:
        def ring(r: float, m: int) -> list[complex]:
            return list(map(post, ring_points(r, m), series_ring(r, m)))
    return weighted_inf_re(lambda z: post(z, point(z)), plan, r_limit=r_limit, ring=ring)
