"""Weighted suprema and real-part infima over the unit disk.

The estimator scans a polar grid whose radial nodes cluster toward the
scan cap, refines locally around the best cell, and finally marches along
the best ray toward the boundary.  The march step size is controlled by a
three-radius Richardson fit of the weighted profile: marching stops once
the fitted limit says the remaining gain is below the plan's relative
tolerance.  Every reported value is an actually evaluated sample, so sup
estimates are lower bounds and inf estimates upper bounds of the extrema
over |z| <= min(r_limit, SCAN_CEILING).

Both scan kinds maximize weight(r) * part(value): (1 - r^2)^k |g| for a
sup, -1 * Re h for an inf, with g and h pointwise evaluators.  The caller
passes the radius r_limit up to which its evaluator is exact (the open disk
for closed forms and generated class members, the guard radius for other
series-backed functions).  The grid is scored one ring at a time: map, max
and index score the values at ring_points(r, m) and keep the first best cell
in scan order, never a NaN score; the ring at r = 0 is the one point 0j.
An evaluator with a ring method (a RationalField, or the real-part
functional that derivatives builds over one) gives its values there one
ring per call, bit for bit its pointwise values; any other callable is
evaluated point by point.  Objectives whose values one ring evaluator gives
share one grid pass (weighted_sups), then each refines and marches from its
own winner.  One sampler takes every other sample: it evaluates the point,
scores it, counts it and keeps the first best one.  It re-scores the grid's
first best cell in scan order uncounted, so the reported value is one that
the evaluator returned at _point(witness_r, witness_theta).

circle_inf_re scans the circle |z| = min(r_limit, SCAN_CEILING) alone, for
a real part that is harmonic inside it: by the minimum principle its
infimum over the closed disk is attained on that circle, so no interior
sample can win.  It scores one ring of CIRCLE_OVERSAMPLING times the plan's
angles, then narrows the best angle by a golden-section search, through
the same sampler.

The weight (1 - r^2) is always computed as (1 - r)(1 + r) from the grid
radius, which stays exact to one ulp arbitrarily close to the boundary; the
evaluated point _point(r, theta) is rounded, so its 1 - |z|^2 is off by a
few ulps of 1, which is why no scan goes past SCAN_CEILING.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .catalog import CLOSED_FORM_CEILING

# No scan samples past this radius: beyond it the rounding of _point moves
# 1 - |z|^2 by more than 1e-10 of the weight (module docstring).
SCAN_CEILING = 1.0 - 1e-6
MARCH_MAX_STEPS = 45
MARCH_MIN_GAP = 1e-12
# circle_inf_re scores this many times the plan's angles on its one ring,
# then narrows the angle to CIRCLE_ANGLE_TOL * (1 - R): a function whose
# singularities lie on or outside the unit circle varies along |z| = R on
# angular scales no finer than 1 - R, its distance to them
CIRCLE_OVERSAMPLING = 8
CIRCLE_ANGLE_TOL = 1e-5


@dataclass(frozen=True)
class SamplingPlan:
    """Polar-grid scan parameters."""

    radial_count: int = 64
    angular_count: int = 128
    r_cap: float = 0.995
    refine_depth: int = 6
    rel_tol: float = 1e-4

    def __post_init__(self):
        if self.radial_count < 8:
            raise ValueError("radial_count must be >= 8")
        if self.angular_count < 16:
            raise ValueError("angular_count must be >= 16")
        if not 0.0 < self.r_cap < 1.0:
            raise ValueError("r_cap must lie in (0, 1)")
        if self.refine_depth < 0:
            raise ValueError("refine_depth must be >= 0")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class NormEstimate:
    """Lower bound of the weighted supremum over |z| <= min(r_limit, SCAN_CEILING).

    ``value`` equals weight(witness_r)^k * |g(witness)| exactly as evaluated;
    the polar witness coordinates allow bit-exact re-evaluation.
    """

    value: float
    witness: complex
    witness_r: float
    witness_theta: float
    weight_exponent: int
    converged: bool
    depth_used: int


@dataclass(frozen=True)
class MarginReport:
    """Sampled infimum of a real-part functional: an upper bound of its
    infimum over |z| <= R, R = min(r_limit, SCAN_CEILING).

    weighted_inf_re samples the whole disk.  circle_inf_re samples only the
    circle |z| = R (witness_r == R): for a functional Re h with h analytic
    on the closed disk |z| <= R, Re h is harmonic there, and by the minimum
    principle its infimum over that disk equals its minimum on the circle.
    ``samples`` counts the evaluated points either way."""

    inf_value: float
    witness: complex
    witness_r: float
    witness_theta: float
    samples: int


def weight_factor(r: float, k: int) -> float:
    w = (1.0 - r) * (1.0 + r)
    return w if k == 1 else w * w


def _point(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), r * math.sin(theta))


@functools.lru_cache(maxsize=16)
def _ring_table(m: int) -> tuple[complex, ...]:
    """e^{i t} at the m grid angles t, built on first use of each m."""
    angles = (2.0 * math.pi * j / m for j in range(m))
    return tuple(complex(math.cos(t), math.sin(t)) for t in angles)


def ring_points(r: float, m: int) -> list[complex]:
    """The grid points _point(r, 2 pi j/m), j = 0..m-1, of one ring in scan order,
    for r > 0 (at r = 0, complex(r) * e flips some zeros' signs)."""
    return list(map(complex(r).__mul__, _ring_table(m)))


class _Best:
    """The sampler of one scan (module docstring)."""

    __slots__ = ("field", "weight", "part", "score", "r", "theta", "samples")

    def __init__(self, field: Callable[[complex], complex],
                 weight: Callable[[float], float], part: Callable[[complex], float]):
        self.field, self.weight, self.part = field, weight, part
        self.score = -math.inf
        self.r = self.theta = 0.0
        self.samples = 0

    def sample(self, r: float, theta: float) -> float:
        s = self.weight(r) * self.part(self.field(_point(r, theta)))
        self.samples += 1
        if s > self.score:  # strict improvement keeps the first sample on ties
            self.score, self.r, self.theta = s, r, theta
        return s


def _ring_max(scores: list[float]) -> float:
    """The largest score of one ring that is not a NaN, -inf if there is none."""
    s = max(scores)
    if s != s:  # max keeps a NaN first score, which no later score beats
        s = max(itertools.filterfalse(math.isnan, scores), default=-math.inf)
    return s


def _scan_radii(plan: SamplingPlan, cap: float) -> list[float]:
    """Grid radii with sine spacing, clustered toward the cap; the first is
    exactly 0, a ring that _optimize scores as the one point 0j."""
    n = plan.radial_count
    return [cap * math.sin(0.5 * math.pi * i / (n - 1)) for i in range(n)]


def _optimize(objectives: Sequence[tuple[Callable, Callable, Callable]], plan: SamplingPlan,
              r_limit: float, ring=None) -> list[tuple[_Best, bool, int]]:
    """Maximize weight(r) * part(field(z)) for each objective (field, weight, part)
    from one grid pass, where ring(points) gives every field's values at one
    ring's points (by default each field's own ring(points) where it has one,
    else one call per point); returns (best, converged, depth_used) for each."""
    r_limit = min(r_limit, SCAN_CEILING)
    cap = min(plan.r_cap, r_limit)
    radii = _scan_radii(plan, cap)
    m = plan.angular_count
    if ring is None:
        rings = [getattr(field, "ring", None) or functools.partial(map, field)
                 for field, _, _ in objectives]
        ring = lambda points: [field_ring(points) for field_ring in rings]
    # strict improvement keeps the first cell in scan order on ties
    tops = [(-math.inf, 0.0, 0)] * len(objectives)
    for r in radii:
        values = ring(ring_points(r, m) if r else [0j])
        for i, (_, weight, part) in enumerate(objectives):
            scores = list(map(functools.partial(operator.mul, weight(r)), map(part, values[i])))
            s = _ring_max(scores)
            if s > tops[i][0]:
                tops[i] = s, r, scores.index(s)
    return [_refine(_Best(*objective), r, 2.0 * math.pi * j / m, plan, r_limit, cap)
            for objective, (_, r, j) in zip(objectives, tops)]


def _refine(best: _Best, r0: float, t0: float, plan: SamplingPlan, r_limit: float,
            cap: float) -> tuple[_Best, bool, int]:
    """Refine around the grid winner (r0, t0), then march toward r_limit."""
    # the grid's cells are its samples; re-scoring the winner adds none
    best.sample(r0, t0)
    best.samples = (plan.radial_count - 1) * plan.angular_count + 1

    spacing0 = cap * math.sin(0.5 * math.pi / (plan.radial_count - 1))
    history = [best.score]
    converged = False
    depth_used = 0
    for depth in range(1, plan.refine_depth + 1):
        depth_used = depth
        dtheta = (2.0 * math.pi / plan.angular_count) / (2 ** depth)
        dr = spacing0 / (2 ** depth)
        r0, t0 = best.r, best.theta
        gap = r_limit - r0
        cand_r = [r0, r0 - dr, r0 + dr, r0 - 0.5 * dr, r0 + 0.5 * dr,
                  r0 + 0.5 * gap, r0 + 0.75 * gap, r_limit]
        for r in cand_r:
            r = min(max(r, 0.0), r_limit)
            for m in (-2, -1, 0, 1, 2):
                best.sample(r, t0 + m * dtheta)
        history.append(best.score)
        if len(history) >= 3:
            scale = max(abs(history[-1]), 1e-300)
            if (abs(history[-1] - history[-2]) < plan.rel_tol * scale
                    and abs(history[-2] - history[-3]) < plan.rel_tol * scale):
                converged = True
                break

    # Boundary march along the best ray.  The ridge of a weighted profile can
    # narrow like the remaining gap, so each rung re-centers the angle with a
    # three-point parabolic fit before stepping halfway to the limit; the
    # rung-to-rung Richardson fit of the profile decides when the remaining
    # gain is below the plan tolerance.
    r0 = best.r
    gap = r_limit - r0
    if gap > MARCH_MIN_GAP:
        theta = best.theta
        width = (2.0 * math.pi / plan.angular_count) / (2 ** max(depth_used, 1))
        trail = [(gap, best.score)]
        for k in range(1, MARCH_MAX_STEPS + 1):
            g = gap / (2 ** k)
            if g < MARCH_MIN_GAP:
                break
            r = r_limit - g
            v0 = best.sample(r, theta)
            vp = best.sample(r, theta + width)
            vm = best.sample(r, theta - width)
            curv = vp - 2.0 * v0 + vm
            if curv < -1e-300:
                shift = 0.5 * width * (vm - vp) / curv
                if abs(shift) <= width:
                    theta += shift
                    best.sample(r, theta)
            elif vp > v0 or vm > v0:
                theta = theta + width if vp >= vm else theta - width
            width *= 0.5
            trail.append((g, best.score))
            if len(trail) >= 3:
                w1, w2, w3 = trail[-3][1], trail[-2][1], trail[-1][1]
                fitted_limit = (8.0 * w3 - 6.0 * w2 + w1) / 3.0
                remaining = fitted_limit - best.score
                if remaining <= plan.rel_tol * max(abs(best.score), 1e-300):
                    break
    return best, converged, depth_used


def weighted_sup(g: Callable[[complex], complex], k: int, plan: SamplingPlan,
                 r_limit: float = CLOSED_FORM_CEILING, workers: int = 1) -> NormEstimate:
    """Lower bound of sup (1 - |z|^2)^k |g(z)| over |z| <= min(r_limit, SCAN_CEILING).

    The estimate bounds the sup of g itself only where g is exact, so
    r_limit is the radius up to which it is (module docstring).  A g with a
    ring method is evaluated one grid ring per call, any other g point by
    point.  ``workers`` is ignored: the scan runs serially."""
    return weighted_sups([(g, k)], plan, r_limit)[0]


def weighted_sups(fields: Sequence[tuple[Callable[[complex], complex], int]],
                  plan: SamplingPlan, r_limit: float = CLOSED_FORM_CEILING,
                  ring=None) -> list[NormEstimate]:
    """weighted_sup(g, k, plan, r_limit) for each (g, k) in fields, from one grid
    pass; ring(points) gives every g's values at one ring's points (by default
    each g's own ring, or its calls point by point)."""
    for _, k in fields:
        if k not in (1, 2):
            raise ValueError(f"weight exponent must be 1 or 2, got {k}")
    runs = _optimize([(g, functools.partial(weight_factor, k=k), abs) for g, k in fields],
                     plan, r_limit, ring)
    return [NormEstimate(best.score, _point(best.r, best.theta), best.r, best.theta, k,
                         converged, depth_used)
            for (_, k), (best, converged, depth_used) in zip(fields, runs)]


def weighted_inf_re(h: Callable[[complex], complex], plan: SamplingPlan,
                    r_limit: float = CLOSED_FORM_CEILING) -> MarginReport:
    """Sampled infimum of Re h over |z| <= min(r_limit, SCAN_CEILING), as -sup(-Re h).

    r_limit is the radius up to which h is exact (module docstring).  An h
    with a ring method is evaluated one grid ring per call, any other h point
    by point."""
    best = _optimize([(h, lambda r: -1.0, operator.attrgetter("real"))], plan, r_limit)[0][0]
    return MarginReport(-best.score, _point(best.r, best.theta), best.r, best.theta,
                        best.samples)


def circle_inf_re(h: Callable[[complex], complex], plan: SamplingPlan,
                  r_limit: float = CLOSED_FORM_CEILING) -> MarginReport:
    """Sampled infimum of Re h over the circle |z| = R, R = min(r_limit, SCAN_CEILING).

    For an h analytic on the closed disk |z| <= R, Re h is harmonic there,
    and by the minimum principle this is its infimum over that disk; the
    caller vouches for the analyticity.  One ring of CIRCLE_OVERSAMPLING *
    plan.angular_count angles is scored like a grid ring (through h's ring
    method where it has one), then a golden-section search narrows the angle
    within the two cells around the ring's first best angle until the
    bracket is below CIRCLE_ANGLE_TOL * (1 - R).  Every sample counts but
    the uncounted re-score of the ring winner, and the witness is
    _point(R, witness_theta), as in weighted_inf_re."""
    r = min(r_limit, SCAN_CEILING)
    m = CIRCLE_OVERSAMPLING * plan.angular_count
    ring = getattr(h, "ring", None) or functools.partial(map, h)
    scores = [-v.real for v in ring(ring_points(r, m))]
    s = _ring_max(scores)
    t = 2.0 * math.pi * (scores.index(s) if s > -math.inf else 0) / m
    best = _Best(h, lambda _: -1.0, operator.attrgetter("real"))
    best.sample(r, t)
    best.samples = m
    # golden-section search for the largest score -Re h on [a, b]
    shrink = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = t - 2.0 * math.pi / m, t + 2.0 * math.pi / m
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    sc, sd = best.sample(r, c), best.sample(r, d)
    while b - a > CIRCLE_ANGLE_TOL * (1.0 - r):
        if sc >= sd:
            b, d, sd = d, c, sc
            c = b - shrink * (b - a)
            sc = best.sample(r, c)
        else:
            a, c, sc = c, d, sd
            d = a + shrink * (b - a)
            sd = best.sample(r, d)
    return MarginReport(-best.score, _point(best.r, best.theta), best.r, best.theta,
                        best.samples)


def radial_profile(g: Callable[[complex], complex], k: int, theta: float,
                   radii: Sequence[float]) -> list[float]:
    """(1 - r^2)^k |g(r e^{i theta})| for each requested radius (< 1)."""
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise ValueError(f"radii must lie in [0, 1), got {r}")
    return [weight_factor(r, k) * abs(g(_point(r, theta))) for r in radii]


def random_disk_points(n: int, seed: int, radius: float = 0.9) -> list[complex]:
    """Deterministic area-uniform sample of n points with |z| <= radius."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        t = 2.0 * math.pi * rng.random()
        out.append(_point(r, t))
    return out
