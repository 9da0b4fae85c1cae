"""Pointwise and series-level pre-Schwarzian and Schwarzian derivatives.

Two independent computation paths on purpose: pointwise values come from
the one guarded jet, f.jet(z, 1, 3), via f'''/f' - (3/2)(f''/f')^2, series
values from P' - P^2/2 with P = f''/f' formed by series division.  The two
routes act as mutual oracles in the test suite, and they check the exact
rational fields of closed forms and generated members there too.

_field is the one place that picks, by what f provides, how f''/f' and the
Schwarzian are evaluated and up to which radius that is exact: its rational
fields on the open disk, else its quotient series to the guard radius.
Every scan of a function goes through one entry with one memo on f,
scan(f, plan, *objectives): the two weighted norms, the membership margin
and T41's two residuals, each a functional of f''/f'.
"""

from __future__ import annotations

from typing import Callable

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
    any other SeriesFn gives its cached quotient series' eval, up to the
    series' guard radius.  Any other f raises TypeError: its f''/f' over
    the guarded jet has a pole wherever f' vanishes, which no scan sees."""
    field = f.pre_schwarzian_field if k == 1 else f.schwarzian_field
    if field is not None:
        return field, CLOSED_FORM_CEILING
    if isinstance(f, SeriesFn):
        s = pre_schwarzian_series(f) if k == 1 else schwarzian_series(f)
        return s.eval, f.radius_limit
    raise TypeError(f"{f.name}: no rational field and no series of f''/f' to scan")


def pre_schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of f''/f'."""
    return _field(f, 1)[0]


def schwarzian_evaluator(f: AnalyticFn):
    """Point evaluator of the Schwarzian."""
    return _field(f, 2)[0]


def analytic_pre_schwarzian(f: AnalyticFn) -> bool:
    """Whether _field(f, 1) evaluates f''/f' by a function analytic on every
    closed disk inside its r_limit: a quotient series and a closed form's
    rational field always are, a member's 2b num/(den - z num) is when its
    phi is a Blaschke product (a hand-built zero off the open disk can put
    a pole inside)."""
    prov = getattr(f, "provenance", None)
    return prov is None or prov.phi_is_blaschke


def characterization_residuals_of(alpha: Alpha
                                  ) -> tuple[Callable[[complex, complex], float], ...]:
    """(res_ii, res_iii) of robertson.characterization_residuals, each a
    function of (z, u) with u = f''/f' at z, for a scan of each alone."""
    c = alpha.cos
    phase = alpha.phase

    def res_ii(z: complex, u: complex) -> float:
        w = (1.0 - abs(z)) * (1.0 + abs(z))
        return (1.0 + phase * z * u).real - (1.0 - c + w / (4.0 * c) * abs(u) ** 2)

    def res_iii(z: complex, u: complex) -> float:
        w = (1.0 - abs(z)) * (1.0 + abs(z))
        return 2.0 * c - abs(w * phase * u - 2.0 * c * z.conjugate())
    return res_ii, res_iii


def _inf_re(f: AnalyticFn, plan: SamplingPlan, kind: str, alpha: Alpha) -> MarginReport:
    """Sampled infimum of Re post(z, u), u = f''/f', post the margin
    e^{i alpha}(1 + z u), res_ii or res_iii as kind says; a u with a ring
    method gives the scan its values one ring per call."""
    phase = alpha.phase
    post = ((lambda z, u: phase * (1.0 + z * u)) if kind == "margin"
            else characterization_residuals_of(alpha)[("res_ii", "res_iii").index(kind)])
    point, r_limit = _field(f, 1)

    def h(z: complex) -> complex:
        return post(z, point(z))
    ring = getattr(point, "ring", None)
    if ring is not None:
        h.ring = lambda points: list(map(post, points, ring(points)))
    harmonic = kind == "margin" and analytic_pre_schwarzian(f)
    return (circle_inf_re if harmonic else weighted_inf_re)(h, plan, r_limit=r_limit)


def scan(f: AnalyticFn, plan: SamplingPlan, *objectives) -> list[NormEstimate | MarginReport]:
    """One report per objective, each scanned once per (plan, objective) on f.

    The objectives are 1 and 2, the pre-Schwarzian and Schwarzian norms
    (NormEstimates from below), and ("margin", alpha), ("res_ii", alpha) and
    ("res_iii", alpha) (_inf_re's MarginReports), each scanned up to where
    _field is exact.  Both norms asked in one call of an f whose rational
    fields u = P/Q and S = N/Q^2 share Q take one grid pass, bit for bit two
    single scans.  The margin takes the circle alone (circle_inf_re) where
    analytic_pre_schwarzian(f) makes it harmonic, by the minimum principle,
    and the 2-D grid elsewhere, as each residual does.  The memo lives in
    the instance dict of the immutable f.
    """
    memo = vars(f).setdefault("_scans", {})
    todo = [objective for objective in dict.fromkeys(objectives) if (plan, objective) not in memo]
    if 1 in todo and 2 in todo:
        u, s = f.pre_schwarzian_field, f.schwarzian_field
        if u is not None and s.den == u.den:
            memo[plan, 1], memo[plan, 2] = weighted_sups([(u, 1), (s, 2)], plan,
                                                         _field(f, 1)[1], u.ring_with(s))
    for objective in todo:
        if (plan, objective) in memo:
            continue
        if objective in (1, 2):
            point, r_limit = _field(f, objective)
            memo[plan, objective] = weighted_sup(point, objective, plan, r_limit=r_limit)
        else:
            memo[plan, objective] = _inf_re(f, plan, *objective)
    return [memo[plan, objective] for objective in objectives]
