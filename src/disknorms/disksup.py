"""Weighted suprema and real-part infima over the unit disk.

The estimator scans a polar grid whose radial nodes cluster toward the
scan cap, refines locally around the best cell, and finally marches along
the best ray toward the boundary.  The march step size is controlled by a
three-radius Richardson fit of the weighted profile: marching stops once
the fitted limit says the remaining gain is below the plan's relative
tolerance.  Every reported value is an actually evaluated sample, so sup
estimates are certified lower bounds and inf estimates certified upper
bounds of the true extrema.

Every scan scores its grid one ring at a time: ``ring(r, m)`` returns the
values at the m grid points of one ring (ring_points); a scan given no ring
evaluator maps its pointwise evaluator over them.  The grid phase keeps the
first best cell in scan order and re-scores it pointwise, so the reported
value is still one that the evaluator returned at the witness.  Refinement
and march always sample pointwise.

The weight (1 - r^2) is always computed as (1 - r)(1 + r) from the grid
radius, which stays exact to one ulp arbitrarily close to the boundary.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import CLOSED_FORM_CEILING

MARCH_MAX_STEPS = 45
MARCH_MIN_GAP = 1e-12

# ring(r, m) -> the values at ring_points(r, m)
RingEvaluator = Callable[[float, int], Sequence[complex]]


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
    """Certified lower bound for a weighted supremum.

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
    """Sampled infimum of a real-part functional (upper bound of the true inf)."""

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
def _ring_table(m: int) -> tuple[tuple[float, float], ...]:
    """(cos, sin) of the m grid angles, built on first use of each m."""
    return tuple((math.cos(t), math.sin(t)) for t in (2.0 * math.pi * j / m for j in range(m)))


def ring_points(r: float, m: int) -> list[complex]:
    """The grid points _point(r, 2 pi j/m), j = 0..m-1, of one ring in scan order."""
    return [complex(r * c, r * s) for c, s in _ring_table(m)]


def _pointwise_ring(g: Callable[[complex], complex]) -> RingEvaluator:
    return lambda r, m: list(map(g, ring_points(r, m)))


class _Best:
    __slots__ = ("score", "r", "theta", "z")

    def __init__(self):
        self.score = -math.inf
        self.r = 0.0
        self.theta = 0.0
        self.z = 0j

    def offer(self, score: float, r: float, theta: float, z: complex) -> None:
        # strict improvement keeps the first point in scan order on ties
        if score > self.score:
            self.score = score
            self.r = r
            self.theta = theta
            self.z = z


def _scan_radii(plan: SamplingPlan, cap: float) -> list[float]:
    n = plan.radial_count
    # sine spacing: nodes cluster toward the cap, first node exactly 0
    return [cap * math.sin(0.5 * math.pi * i / (n - 1)) for i in range(n)]


def _optimize(score: Callable[[float, float], float], plan: SamplingPlan,
              r_limit: float, ring_scores: Callable[[float, int], Sequence[float]]
              ) -> tuple[_Best, int, bool, int]:
    """Maximize score(r, theta); returns (best, samples, converged, depth_used).

    ring_scores(r, m) scores the m cells of a grid ring at once.
    """
    cap = min(plan.r_cap, r_limit)
    radii = _scan_radii(plan, cap)
    m = plan.angular_count

    best = _Best()
    # strict improvement keeps the first cell in scan order on ties
    top, top_r, top_j = -math.inf, 0.0, 0
    for r in radii:
        for j, s in enumerate(ring_scores(r, m)):
            if s > top:
                top, top_r, top_j = s, r, j
    t = 2.0 * math.pi * top_j / m
    best.offer(score(top_r, t), top_r, t, _point(top_r, t))
    samples = len(radii) * m

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
        cand_r = [min(max(r, 0.0), r_limit) for r in cand_r]
        for r in cand_r:
            for m in (-2, -1, 0, 1, 2):
                t = t0 + m * dtheta
                best.offer(score(r, t), r, t, _point(r, t))
                samples += 1
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
            v0 = score(r, theta)
            vp = score(r, theta + width)
            vm = score(r, theta - width)
            best.offer(v0, r, theta, _point(r, theta))
            best.offer(vp, r, theta + width, _point(r, theta + width))
            best.offer(vm, r, theta - width, _point(r, theta - width))
            samples += 3
            curv = vp - 2.0 * v0 + vm
            if curv < -1e-300:
                shift = 0.5 * width * (vm - vp) / curv
                if abs(shift) <= width:
                    theta_new = theta + shift
                    vn = score(r, theta_new)
                    best.offer(vn, r, theta_new, _point(r, theta_new))
                    samples += 1
                    theta = theta_new
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
    return best, samples, converged, depth_used


def weighted_sup(g: Callable[[complex], complex], k: int, plan: SamplingPlan,
                 r_limit: float = CLOSED_FORM_CEILING, workers: int = 1,
                 ring: Optional[RingEvaluator] = None) -> NormEstimate:
    """Estimate sup over the disk of (1 - |z|^2)^k |g(z)| from below.

    ``ring`` evaluates g on whole grid rings, by default pointwise (module
    docstring).  ``workers`` is ignored: the scan runs serially."""
    if k not in (1, 2):
        raise ValueError(f"weight exponent must be 1 or 2, got {k}")
    if ring is None:
        ring = _pointwise_ring(g)

    def score(r: float, theta: float) -> float:
        return weight_factor(r, k) * abs(g(_point(r, theta)))

    def ring_scores(r: float, m: int) -> list[float]:
        w = weight_factor(r, k)
        return [w * abs(v) for v in ring(r, m)]

    best, _, converged, depth_used = _optimize(score, plan, r_limit, ring_scores)
    return NormEstimate(best.score, best.z, best.r, best.theta, k, converged, depth_used)


def weighted_inf_re(h: Callable[[complex], complex], plan: SamplingPlan,
                    r_limit: float = CLOSED_FORM_CEILING, workers: int = 1,
                    ring: Optional[RingEvaluator] = None) -> MarginReport:
    """Sampled infimum of Re h over the disk.

    ``ring`` evaluates h on whole grid rings, by default pointwise (module
    docstring).  ``workers`` is ignored: the scan runs serially."""
    if ring is None:
        ring = _pointwise_ring(h)

    def score(r: float, theta: float) -> float:
        return -(h(_point(r, theta)).real)

    def ring_scores(r: float, m: int) -> list[float]:
        return [-(v.real) for v in ring(r, m)]

    best, samples, _, _ = _optimize(score, plan, r_limit, ring_scores)
    return MarginReport(-best.score, best.z, best.r, best.theta, samples)


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
