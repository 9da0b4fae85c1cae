"""Pointwise and series-level pre-Schwarzian and Schwarzian derivatives.

Two independent computation paths on purpose: pointwise values come from
the one guarded jet, f.jet(z, 1, 3), via f'''/f' - (3/2)(f''/f')^2, series
values from P' - P^2/2 with P = f''/f' formed by series division.  The two
routes act as mutual oracles in the test suite, and they check the exact
rational fields of closed forms and generated members there too.

_field is the one place that picks, by what f provides, how f''/f' and the
Schwarzian are evaluated and up to which radius that is exact: its rational
fields on the open disk, else its quotient series to the guard radius, else
its guarded jet.  Every scan goes through weighted_norm (one weighted
norm), weighted_norms (both, from one grid pass where f has rational
fields) or pre_schwarzian_inf_re (the infimum of a real-part functional of
f''/f').
"""

from __future__ import annotations

from .catalog import (CLOSED_FORM_CEILING, Alpha, AnalyticFn, DerivStack, RobertsonExtremal,
                      SeriesFn)
from .disksup import (MarginReport, NormEstimate, SamplingPlan, circle_inf_re, weighted_inf_re,
                      weighted_sup, weighted_sups)
from .series import TaylorSeries


def pre_schwarzian_of(stack: DerivStack) -> complex:
    return stack.f2 / stack.f1


def schwarzian_of(stack: DerivStack) -> complex:
    p = stack.f2 / stack.f1
    return stack.f3 / stack.f1 - 1.5 * p * p


def pre_schwarzian_at(f: AnalyticFn, z: complex) -> complex:
    """f''(z) / f'(z)."""
    f1, f2 = f.jet(z, 1, 2)
    return f2 / f1


def schwarzian_at(f: AnalyticFn, z: complex) -> complex:
    """f'''/f' - (3/2)(f''/f')^2."""
    f1, f2, f3 = f.jet(z, 1, 3)
    p = f2 / f1
    return f3 / f1 - 1.5 * p * p


def schwarzian_extremal_closed(alpha: Alpha, z: complex) -> complex:
    """Closed-form Schwarzian of RobertsonExtremal(alpha), its schwarzian_field
    2 cos(alpha) (1 + (1 - cos alpha) z^2) / (1 - z^2)^2.

    For alpha != 0 that function is not a class member (see its docstring),
    so this formula does not show a Schwarzian bound for the class sharp.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"need |z| < 1, got {abs(z)}")
    return RobertsonExtremal(alpha).schwarzian_field(z)


def pre_schwarzian_series(f: SeriesFn) -> TaylorSeries:
    """Series of f''/f'; requires |f'(0)| = 1 (normalized input).  Cached on f."""
    return f.pre_schwarzian_series


def schwarzian_series(f: SeriesFn) -> TaylorSeries:
    """Series of P' - P^2/2 with P = f''/f'.  Cached on f."""
    return f.schwarzian_series


def _field(f: AnalyticFn, k: int):
    """(evaluator, r_limit) of f''/f' (k = 1) or of the Schwarzian (k = 2):
    the pointwise evaluator and the radius up to which it is exact.

    A function with rational fields gives them, up to CLOSED_FORM_CEILING;
    one with derivative series (a SeriesFn) gives its cached quotient series'
    eval, up to the series' guard radius; any other f (Polynomial, Moebius,
    ZTimesDerivative, where f' may vanish or a pole may lie in the disk)
    gives its formula over the guarded jet, up to its radius_limit."""
    field = f.pre_schwarzian_field if k == 1 else f.schwarzian_field
    if field is not None:
        return field, CLOSED_FORM_CEILING
    if hasattr(f, "derivative_series"):
        s = pre_schwarzian_series(f) if k == 1 else schwarzian_series(f)
        return s.eval, f.radius_limit
    at = pre_schwarzian_at if k == 1 else schwarzian_at
    return (lambda z: at(f, z)), f.radius_limit


def pre_schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of f''/f'."""
    return _field(f, 1)[0]


def schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of the Schwarzian."""
    return _field(f, 2)[0]


def weighted_norm(f: AnalyticFn, k: int, plan: SamplingPlan) -> NormEstimate:
    """Estimate of the pre-Schwarzian (k = 1) or Schwarzian (k = 2) norm of f,
    sup of (1 - |z|^2)^k times the field's modulus, from below, scanned up to
    the radius where the field stops being exact."""
    point, r_limit = _field(f, k)
    return weighted_sup(point, k, plan, r_limit=r_limit)


def weighted_norms(f: AnalyticFn, plan: SamplingPlan) -> tuple[NormEstimate, NormEstimate]:
    """(weighted_norm(f, 1, plan), weighted_norm(f, 2, plan)), bit for bit: rational
    fields u = P/Q and S = N/Q^2 share one grid pass, other f take two scans."""
    u, s = f.pre_schwarzian_field, f.schwarzian_field
    if u is None or s.den != u.den:
        return weighted_norm(f, 1, plan), weighted_norm(f, 2, plan)
    return tuple(weighted_sups([(u, 1), (s, 2)], plan, CLOSED_FORM_CEILING, u.ring_with(s)))


def analytic_pre_schwarzian(f: AnalyticFn) -> bool:
    """Whether _field(f, 1) evaluates f''/f' by a function analytic on every
    closed disk inside its r_limit.  A quotient series is a polynomial.  The
    closed forms' rational fields have their poles on the unit circle, and so
    has a generated member's 2b num/(den - z num) when its phi is a Blaschke
    product; a hand-built provenance with a zero off the open disk can put a
    pole inside.  The guarded jet's f''/f' has a pole wherever f' vanishes."""
    if f.pre_schwarzian_field is None:
        return hasattr(f, "derivative_series")
    prov = getattr(f, "provenance", None)
    return prov is None or prov.phi_is_blaschke


def pre_schwarzian_inf_re(f: AnalyticFn, post, plan: SamplingPlan,
                          on_circle: bool = False) -> MarginReport:
    """Sampled infimum of Re post(z, u), u = f''(z)/f'(z), scanned up to the
    radius where u stops being exact; a rational u gives the scan its values
    one ring per call.  The scan is the 2-D grid (weighted_inf_re), or with
    on_circle the circle |z| = min(r_limit, SCAN_CEILING) alone
    (circle_inf_re), which the caller picks only where Re post(z, u(z)) is
    harmonic on the closed disk inside that circle."""
    point, r_limit = _field(f, 1)

    def h(z: complex) -> complex:
        return post(z, point(z))
    ring = getattr(point, "ring", None)
    if ring is not None:
        h.ring = lambda points: list(map(post, points, ring(points)))
    return (circle_inf_re if on_circle else weighted_inf_re)(h, plan, r_limit=r_limit)
