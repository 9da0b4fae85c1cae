"""Adaptive composite Gauss-Legendre quadrature on sub-intervals of [0, 1).

15-point panels, bisected until the two-half refinement of a panel agrees
with the single-panel estimate to the requested tolerance.  Integrands may
be real- or complex-valued (the error metric is the modulus).  One pass
serves every upper limit of a table (quadrature_upto): its accepted panels
are summed up to each limit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from .errors import MaxSubdivisions

# Nodes/weights of 15-point Gauss-Legendre on [-1, 1].
_GL15_NODES = (
    -0.9879925180204854,
    -0.937273392400706,
    -0.8482065834104272,
    -0.7244177313601701,
    -0.5709721726085388,
    -0.3941513470775634,
    -0.20119409399743451,
    0.0,
    0.20119409399743451,
    0.3941513470775634,
    0.5709721726085388,
    0.7244177313601701,
    0.8482065834104272,
    0.937273392400706,
    0.9879925180204854,
)
_GL15_WEIGHTS = (
    0.030753241996118647,
    0.07036604748810807,
    0.10715922046717177,
    0.1395706779261539,
    0.16626920581699378,
    0.18616100001556188,
    0.19843148532711125,
    0.2025782419255609,
    0.19843148532711125,
    0.18616100001556188,
    0.16626920581699378,
    0.1395706779261539,
    0.10715922046717177,
    0.07036604748810807,
    0.030753241996118647,
)

MAX_PANELS = 10_000


def _panel(fn: Callable[[float], complex], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in zip(_GL15_NODES, _GL15_WEIGHTS):
        acc += w * fn(mid + half * x)
    return half * acc


def _accepted_panels(integrand: Callable[[float], complex], a: float, b: float,
                     tol: float) -> list[tuple[float, float, float, complex, complex]]:
    """Bisect [a, b] until every panel meets tol.  Each accepted panel
    [lo, hi] comes as (lo, mid, hi, left, right), the 15-point integrals of
    its two halves, in the order the work list accepts them; together the
    halves tile [a, b].

    A panel is accepted when its halves agree with its own 15-point
    integral to tol split in proportion to its width (at least 1e-3 of
    tol).
    """
    if a == b:
        return []
    accepted = []
    panels_done = 0
    stack = [(a, b, _panel(integrand, a, b))]
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(integrand, lo, mid)
        right = _panel(integrand, mid, hi)
        panels_done += 2
        if panels_done > MAX_PANELS:
            raise MaxSubdivisions(
                f"tolerance {tol} unreachable within {MAX_PANELS} panels")
        err = abs(left + right - whole)
        if err <= tol * max((hi - lo) / (b - a), 1e-3):
            accepted.append((lo, mid, hi, left, right))
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return accepted


def quadrature_complex(integrand: Callable[[float], complex], a: float, b: float,
                       tol: float = 1e-10) -> complex:
    """Generic engine: integrate a complex-valued integrand over [a, b] <= tol."""
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    total = 0j
    for _, _, _, left, right in _accepted_panels(integrand, a, b, tol):
        total += left + right
    return total


def quadrature(integrand: Callable[[float], float], a: float, b: float,
               tol: float = 1e-10) -> float:
    """Adaptive quadrature of a real integrand on [a, b] within [0, 1)."""
    if not 0.0 <= a <= b < 1.0:
        raise ValueError(f"need 0 <= a <= b < 1, got [{a}, {b}]")
    return quadrature_complex(lambda t: complex(integrand(t), 0.0), a, b, tol).real


def quadrature_upto(integrand: Callable[[float], float], a: float,
                    uppers: Sequence[float], tol: float = 1e-10) -> list[float]:
    """The integral of a real integrand over [a, r] for every r in uppers,
    within [0, 1), from one adaptive pass over [a, max(uppers)].

    The value at r sums, left to right, the 15-point panels of that pass
    (the halves of its accepted panels) that end at or below r, then adds
    one 15-point panel from the start of the panel that holds r up to r.
    Every bound is checked before the integrand is called.  At
    r = max(uppers) it is quadrature on [a, max(uppers)], summed in another
    order; at r = a it is 0.
    """
    for r in uppers:
        if not 0.0 <= a <= r < 1.0:
            raise ValueError(f"need 0 <= a <= r < 1, got [{a}, {r}]")
    if not uppers:
        return []
    panels = sorted((half for lo, mid, hi, left, right
                     in _accepted_panels(integrand, a, max(uppers), tol)
                     for half in ((lo, mid, left), (mid, hi, right))),
                    key=lambda p: p[0])
    ends = [hi for _, hi, _ in panels]
    sums = [0.0]
    for _, _, value in panels:
        sums.append(sums[-1] + value.real)
    out = []
    for r in uppers:
        k = bisect_right(ends, r)
        value = sums[k]
        if k < len(panels) and r > panels[k][0]:
            value += _panel(integrand, panels[k][0], r).real
        out.append(value)
    return out
