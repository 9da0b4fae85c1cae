"""Membership certification and characterization residuals for the class.

A normalized f belongs to the angle-alpha class when
Re{e^{i alpha}(1 + z f''/f')} > 0 on the disk.  membership_certificate
certifies that exactly, and membership_refutation refutes it exactly, for
a member built at alpha from stored Blaschke zeros; for every other
function only the sampled infimum of the functional (robertson_margin) is
available, an upper bound of the true infimum, which certifies nothing
but is the gate the verifiers apply.  The module also transfers the
functional to the spirallike form z g'/g for g = z f', extracts the
analytic self-map phi behind the subordination, and evaluates the two
equivalent pointwise characterizations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .catalog import Alpha, AnalyticFn, second_deriv_origin
from .derivatives import characterization_residuals_of, pre_schwarzian_evaluator, scan
from .disksup import MarginReport, SamplingPlan, weighted_inf_re
from .errors import PhiPoleEncountered, ZeroValueEncountered

TOL_MEMBERSHIP = 1e-6
PHI_POLE_EPS = 1e-14
ZERO_VALUE_EPS = 1e-14


def robertson_functional(f: AnalyticFn, alpha: Alpha) -> Callable[[complex], complex]:
    """Evaluator of e^{i alpha}(1 + z f''/f')."""
    phase = alpha.phase
    pre = pre_schwarzian_evaluator(f)

    def h(z: complex) -> complex:
        return phase * (1.0 + z * pre(z))
    return h


def membership_certificate(f: AnalyticFn, alpha: Alpha) -> bool:
    """True when f is a member of the angle-alpha class by construction;
    False means refuted (membership_refutation) or undecided.

    f is certified when it carries the provenance of a member built at this
    alpha whose stored Blaschke zeros all satisfy |a| < 1.  Then z phi is a
    finite Blaschke product, |z phi| < 1 on the open disk, and
    f''/f' = 2b phi/(1 - z phi), b = e^{-i alpha} cos alpha, gives
    Re{e^{i alpha}(1 + z f''/f')} = cos alpha (1 - |z phi|^2)/|1 - z phi|^2 > 0.
    """
    prov = getattr(f, "provenance", None)
    return prov is not None and prov.alpha == alpha and prov.phi_is_blaschke


def membership_refutation(f: AnalyticFn, alpha: Alpha) -> Optional[tuple[complex, float]]:
    """(p, margin at p) when f is not in the angle-alpha class by
    construction; None means undecided, or certified.

    f is refuted when it carries the provenance of a member built at this
    alpha with finite stored zeros, one of which, |a| > 1, puts a pole
    p = -1/conj(a) of phi in the disk that no stored factor cancels
    (|prod(p + b)| > PHI_POLE_EPS).  There f''/f' = 2b phi/(1 - z phi) is
    -2b/p, b = e^{-i alpha} cos alpha, so the margin is -cos alpha < 0.
    """
    prov = getattr(f, "provenance", None)
    if prov is None or prov.alpha != alpha or not all(map(cmath.isfinite, prov.blaschke_zeros)):
        return None
    zeros = prov.blaschke_zeros
    for a in zeros:
        if abs(a) > 1.0:
            p = -1.0 / a.conjugate()
            if abs(math.prod(p + b for b in zeros)) > PHI_POLE_EPS:
                return p, robertson_functional(f, alpha)(p).real
    return None


def robertson_margin(f: AnalyticFn, alpha: Alpha, plan: SamplingPlan,
                     workers: int = 1) -> MarginReport:
    """Sampled infimum of the defining real-part functional over
    |z| <= min(r_limit, SCAN_CEILING), derivatives.scan's ("margin", alpha)
    objective.  It bounds the true infimum from above only, so it certifies
    nothing, but the verifiers gate on it (is_certified_member).
    ``workers`` is ignored: the scan runs serially."""
    if not f.is_normalized:
        raise ValueError(f"{f.name}: membership test needs a normalized function")
    return scan(f, plan, ("margin", alpha))[0]


def is_certified_member(report: MarginReport, tol: float = TOL_MEMBERSHIP) -> bool:
    """Whether a sampled margin passes the verifiers' membership gate: its
    infimum stays above -tol, a slack for rounding and for the truncation
    error of series-backed f.  The gate applies it only to the functions
    that membership_certificate and membership_refutation leave undecided;
    passing it is evidence from samples, not a proof of membership: the
    sampled minimum may miss the true one, and the scan stops short of the
    unit circle."""
    return report.inf_value >= -tol


def spirallike_margin(g: AnalyticFn, alpha: Alpha, plan: SamplingPlan) -> MarginReport:
    """Sampled infimum of Re{e^{i alpha} z g'/g}.

    The functional extends to z = 0 with value e^{i alpha} by normalization.
    """
    if not g.is_normalized:
        raise ValueError(f"{g.name}: spirallike test needs a normalized function")
    phase = alpha.phase

    def h(z: complex) -> complex:
        if z == 0:
            return phase
        g0, g1 = g.jet(z, 0, 1)
        if abs(g0) <= ZERO_VALUE_EPS:
            raise ZeroValueEncountered(f"{g.name}: g({z!r}) is numerically zero")
        return phase * z * g1 / g0

    return weighted_inf_re(h, plan, r_limit=g.radius_limit)


def duality_check(f: AnalyticFn, alpha: Alpha, points: Sequence[complex]) -> float:
    """Max discrepancy between the class functional and z g'/g for g = z f'.

    The two expressions are algebraically identical, so the result bounds
    the arithmetic noise of the derivative pipeline, not a modeling error.
    """
    phase = alpha.phase
    worst = 0.0
    for z in points:
        if z == 0:
            continue
        f1, f2 = f.jet(z, 1, 2)
        lhs = phase * (1.0 + z * f2 / f1)
        g = z * f1
        g1 = f1 + z * f2
        rhs = phase * z * g1 / g
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class PhiTransform:
    """Analytic self-map extracted from f''/f'; |phi| <= 1 iff f is a member.

    gamma = |phi(0)| = |f''(0)| / (2 cos alpha).
    """

    evaluator: Callable[[complex], complex]
    gamma: float

    def __call__(self, z: complex) -> complex:
        return self.evaluator(z)


def phi_transform(f: AnalyticFn, alpha: Alpha) -> PhiTransform:
    if not f.is_normalized:
        raise ValueError(f"{f.name}: phi transform needs a normalized function")
    two_beta = 2.0 * cmath.exp(-1j * alpha.value) * alpha.cos
    pre = pre_schwarzian_evaluator(f)

    def phi(z: complex) -> complex:
        u = pre(z)
        den = two_beta + z * u
        if abs(den) <= PHI_POLE_EPS:
            raise PhiPoleEncountered(
                f"{f.name}: transform pole at z = {z!r} (non-membership signal)")
        return u / den

    gamma = abs(second_deriv_origin(f)) / (2.0 * alpha.cos)
    return PhiTransform(phi, gamma)


def characterization_residuals(f: AnalyticFn, alpha: Alpha,
                               z: complex) -> tuple[float, float]:
    """Slack of the two pointwise membership characterizations at z.

    res_ii = Re{1 + e^{i a} z f''/f'} - [1 - cos a + (1-|z|^2)/(4 cos a) |f''/f'|^2]
    res_iii = 2 cos a - |(1-|z|^2) e^{i a} f''/f' - 2 cos a conj(z)|

    Membership predicts both >= 0.  The e^{i alpha} factor in res_iii is
    required for the alpha = 0 reduction to the convex-class disk condition.

    With f''/f' = 2b phi/(1 - z phi), b = e^{-i a} cos a, for a member with
    self-map phi (a generated member's provenance.phi), the residuals are

        res_ii = cos a (1 - |phi|^2)/|1 - z phi|^2
        res_iii = 2 cos a (1 - |phi - conj(z)|/|1 - z phi|),

    both >= 0 wherever |phi| <= 1, since
    |1 - z phi|^2 - |phi - conj(z)|^2 = (1 - |z|^2)(1 - |phi|^2).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"need |z| < 1, got {abs(z)}")
    u = pre_schwarzian_evaluator(f)(z)
    return tuple(res(z, u) for res in characterization_residuals_of(alpha))


@lru_cache(maxsize=1)
def cubic_root() -> float:
    """Positive root of 16 x^3 + 16 x^2 + x - 1, by bisection to 1e-12."""

    def p(x: float) -> float:
        return ((16.0 * x + 16.0) * x + 1.0) * x - 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if p(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


LIBERA_ZEIGLER_THRESHOLD = 0.2564
CHICHRA_THRESHOLD = 0.2588
PFALTZGRAFF_THRESHOLD = 0.5
BECKER_THRESHOLD = 1.0
NEHARI_THRESHOLD = 2.0


@dataclass(frozen=True)
class CriterionRow:
    name: str
    applicable: bool
    guarantees_univalence: bool
    threshold_detail: str


@dataclass(frozen=True)
class UnivalenceVerdict:
    criteria: tuple

    @property
    def any_guarantee(self) -> bool:
        return any(row.guarantees_univalence for row in self.criteria)


def _norm_row(name: str, threshold: float, estimate) -> CriterionRow:
    if estimate is None or not estimate.converged:
        return CriterionRow(name, False, False,
                            "not applicable: no converged norm estimate supplied")
    v = estimate.value
    if v > threshold + 1e-9:
        return CriterionRow(
            name, True, False,
            f"hypothesis violated: certified lower bound {v:.6g} exceeds {threshold:g}")
    return CriterionRow(
        name, True, False,
        f"consistent, not certified: sampled lower bound {v:.6g} <= {threshold:g} "
        "cannot bound the true norm from above")


def _angle_row(name: str, threshold: float, alpha: Alpha) -> CriterionRow:
    c = alpha.cos
    if c <= threshold:
        return CriterionRow(
            name, True, True,
            f"cos(alpha) = {c:.6g} <= {threshold:g}: class members are univalent")
    return CriterionRow(
        name, True, False,
        f"cos(alpha) = {c:.6g} > {threshold:g}: criterion does not apply")


def univalence_criteria(alpha: Alpha, f_second_origin: complex,
                        pre_norm=None, schwarz_norm=None) -> UnivalenceVerdict:
    """Classify f against the known univalence thresholds for the class.

    Norm-based rows never certify from sampled lower bounds: a lower bound
    below the threshold is reported as consistent-but-uncertified, a lower
    bound above it as a violated hypothesis.
    """
    f2 = complex(f_second_origin)
    rows = (
        _norm_row("becker", BECKER_THRESHOLD, pre_norm),
        _norm_row("nehari", NEHARI_THRESHOLD, schwarz_norm),
        _angle_row("robertson", cubic_root(), alpha),
        _angle_row("libera-zeigler", LIBERA_ZEIGLER_THRESHOLD, alpha),
        _angle_row("chichra", CHICHRA_THRESHOLD, alpha),
        _angle_row("pfaltzgraff", PFALTZGRAFF_THRESHOLD, alpha),
        CriterionRow(
            "singh-chichra", True, abs(f2) <= 1e-12,
            f"|f''(0)| = {abs(f2):.6g}"
            + (": members are univalent for every alpha" if abs(f2) <= 1e-12
               else " != 0: criterion does not apply")),
    )
    return UnivalenceVerdict(rows)
