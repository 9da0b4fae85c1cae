"""One verifier per certified statement, each producing a TheoremReport.

Verifiers test exactly what the underlying proofs establish.  The
distortion, growth and norm-bound statements all rest on a Schwarz-lemma
step that needs phi(0) = 0, equivalently f''(0) = 0; the half-plane map
(a genuine member with f''(0) = 2 and pre-Schwarzian norm 4 > 2) shows the
hypothesis cannot be dropped, so verifiers refuse with precondition_unmet
instead of failing when f''(0) != 0 or when membership cannot be certified.
Norm estimates are still computed and reported in those cases.

Membership of a member built at alpha from stored Blaschke zeros is
certified or refuted exactly, by construction, with no scan; every other
function passes the gate only when its sampled margin (robertson_margin)
stays above -TOL_MEMBERSHIP, evidence from samples and not a proof.  T41
reports the sampled margin of every function it does not refuse.  Every
scan is a call of derivatives.scan, whose memo on f shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import Alpha, AnalyticFn
from .derivatives import scan
from .disksup import SamplingPlan
from .quadrature import quadrature_upto
from .robertson import (is_certified_member, membership_certificate, membership_refutation,
                        robertson_margin)

PASS = "pass"
FAIL = "fail"
PRECONDITION_UNMET = "precondition_unmet"

SECOND_DERIV_ZERO_EPS = 1e-10
_SCHWARZ_STEP = "the Schwarz-lemma step needs phi(0) = 0"
_HYPOTHESIS_NOT_MET = "hypothesis of the proof not met"
GROWTH_R_CAP = 0.999

BOUND_TOL = 1e-4
DISTORTION_TOL = 1e-8
GROWTH_TOL = 1e-7
RESIDUAL_TOL = 1e-6
SCHUR_TOL = 1e-9


@dataclass(frozen=True)
class TheoremReport:
    """Verdict of one verifier.

    For pass/fail verdicts, status is fail iff max_violation exceeds the
    tolerance recorded in details.  estimate/bound carry the side report
    (norm estimate vs. theorem bound) whenever one was computed, including
    precondition_unmet outcomes.
    """

    theorem_id: str
    status: str
    max_violation: float
    witness: Optional[complex]
    details: str
    estimate: Optional[float] = None
    bound: Optional[float] = None


@dataclass(frozen=True)
class GrowthBounds:
    r: float
    lower: float
    upper: float


def growth_bounds(r: float, alpha: Alpha) -> GrowthBounds:
    """Two-sided bounds for |f(z)| at |z| = r: integrals of (1 -+ xi^2)^(-cos a)
    over [0, r]; the one-radius case of growth_table."""
    return growth_table([r], alpha)[0]


def growth_table(radii: Sequence[float], alpha: Alpha) -> list[GrowthBounds]:
    """growth_bounds at every radius in radii, each integral taken from one
    adaptive pass over [0, max(radii)] (quadrature_upto).  Every radius is
    checked against [0, GROWTH_R_CAP] before any integral is taken."""
    for r in radii:
        if not 0.0 <= r <= GROWTH_R_CAP:
            raise ValueError(f"need 0 <= r <= {GROWTH_R_CAP}, got {r}")
    c = alpha.cos
    lower = quadrature_upto(lambda t: (1.0 + t * t) ** -c, 0.0, radii, 1e-10)
    upper = quadrature_upto(lambda t: (1.0 - t * t) ** -c, 0.0, radii, 1e-10)
    return [GrowthBounds(r, lo, up) for r, lo, up in zip(radii, lower, upper)]


def _margin_detail(report) -> str:
    return (f"sampled membership margin {report.inf_value:.6g} at "
            f"z = {report.witness!r}")


def _f2_zero_gate(f: AnalyticFn, consequence: str) -> Optional[str]:
    """None when f''(0) = 0, else why the f''(0) = 0 hypothesis refuses f."""
    f2 = abs(f.second_deriv_origin())
    if f2 <= SECOND_DERIV_ZERO_EPS:
        return None
    return f"|f''(0)| = {f2:.6g} != 0: {consequence}"


def _membership_gate(theorem_id: str, f: AnalyticFn, alpha: Alpha, plan: SamplingPlan,
                     note: str = "", side: str = "", estimate: Optional[float] = None,
                     bound: Optional[float] = None) -> Optional[TheoremReport]:
    """None when f passes the membership gate, else the precondition_unmet
    report that refuses it.  A membership_certificate passes f and a
    membership_refutation refuses it, with no scan; otherwise f passes when
    its sampled margin does (is_certified_member)."""
    if membership_certificate(f, alpha):
        return None
    refuted = membership_refutation(f, alpha)
    if refuted is not None:
        witness, value = refuted
        detail = (f"refuted by construction: membership margin {value:.6g} at "
                  f"z = {witness!r}, a pole of phi")
    else:
        margin = robertson_margin(f, alpha, plan)
        if is_certified_member(margin):
            return None
        witness, detail = margin.witness, _margin_detail(margin)
    return TheoremReport(
        theorem_id, PRECONDITION_UNMET, 0.0, witness,
        "not certified as a class member; " + note + detail + side,
        estimate=estimate, bound=bound)


def verify_T41(f: AnalyticFn, alpha: Alpha, plan: SamplingPlan,
               tol: float = RESIDUAL_TOL) -> TheoremReport:
    """Membership implies both pointwise characterizations (residuals >= 0).
    The details report the sampled margin, scanned for certified members too."""
    refusal = _membership_gate("T41", f, alpha, plan, note="the implications are vacuous: ")
    if refusal is not None:
        return refusal
    margin = robertson_margin(f, alpha, plan)
    inf_ii, inf_iii = scan(f, plan, ("res_ii", alpha), ("res_iii", alpha))
    worst = min(inf_ii.inf_value, inf_iii.inf_value)
    witness = inf_ii.witness if inf_ii.inf_value <= inf_iii.inf_value else inf_iii.witness
    status = PASS if worst >= -tol else FAIL
    return TheoremReport(
        "T41", status, max(0.0, -worst), witness,
        f"residual minima: ii = {inf_ii.inf_value:.6g}, iii = {inf_iii.inf_value:.6g}; "
        f"tolerance {tol:g}; " + _margin_detail(margin))


def _pointwise_bound_report(theorem_id: str, quantity: str, f: AnalyticFn, alpha: Alpha,
                            points: Sequence[complex], tol: float,
                            plan: Optional[SamplingPlan],
                            value: Callable[[complex], float],
                            bounds: Callable[[Sequence[complex]],
                                             Sequence[tuple[float, float]]]) -> TheoremReport:
    """Shared body of the pointwise verifiers: the f''(0) = 0 gate, the
    membership gate, then the worst two-sided violation of
    lower <= value(z) <= upper over points, where bounds(points) gives every
    (lower, upper) before any value is evaluated."""
    reason = _f2_zero_gate(f, _SCHWARZ_STEP)
    if reason is not None:
        return TheoremReport(theorem_id, PRECONDITION_UNMET, 0.0, None, reason)
    refusal = _membership_gate(theorem_id, f, alpha, plan or SamplingPlan())
    if refusal is not None:
        return refusal
    worst = 0.0
    witness = None
    for z, (lower, upper) in zip(points, bounds(points)):
        val = value(z)
        viol = max(lower - val, val - upper)
        if viol > worst:
            worst, witness = viol, z
    status = PASS if worst <= tol else FAIL
    return TheoremReport(
        theorem_id, status, worst, witness,
        f"max two-sided {quantity} violation {worst:.6g} over {len(points)} points; "
        f"tolerance {tol:g}")


def verify_T42_distortion(f: AnalyticFn, alpha: Alpha, points: Sequence[complex],
                          tol: float = DISTORTION_TOL,
                          plan: Optional[SamplingPlan] = None) -> TheoremReport:
    """(1+|z|^2)^(-cos a) <= |f'(z)| <= (1-|z|^2)^(-cos a) for certified members
    with f''(0) = 0."""
    c = alpha.cos

    def bounds(zs: Sequence[complex]) -> list[tuple[float, float]]:
        return [((1.0 + r2) ** -c, (1.0 - r2) ** -c) for r2 in (abs(z) ** 2 for z in zs)]

    return _pointwise_bound_report("T42d", "distortion", f, alpha, points, tol, plan,
                                   lambda z: abs(f.jet(z, 1, 1)[0]), bounds)


def verify_T42_growth(f: AnalyticFn, alpha: Alpha, points: Sequence[complex],
                      tol: float = GROWTH_TOL,
                      plan: Optional[SamplingPlan] = None) -> TheoremReport:
    """Growth integrals (growth_bounds) bound |f(z)| for certified members
    with f''(0) = 0.  Once both gates pass, the bounds at every |z| come from
    one growth_table, one adaptive pass per integral, which checks every
    radius before any integral or value is taken."""

    def bounds(zs: Sequence[complex]) -> list[tuple[float, float]]:
        return [(gb.lower, gb.upper) for gb in growth_table([abs(z) for z in zs], alpha)]

    return _pointwise_bound_report("T42g", "growth", f, alpha, points, tol, plan,
                                   lambda z: abs(f.value(z)), bounds)


def _norm_bound_report(theorem_id: str, f: AnalyticFn, alpha: Alpha,
                       plan: SamplingPlan, k: int, bound: float, tol: float,
                       extra_precondition: Optional[str]) -> TheoremReport:
    """Shared body of the norm-bound verifiers; always computes the estimate,
    from the pair of both norms that T43, T44 and T45 share."""
    est = scan(f, plan, 1, 2)[k - 1]
    side = f"norm estimate {est.value:.8g} vs bound {bound:.8g} (tolerance {tol:g})"
    if extra_precondition is not None:
        return TheoremReport(theorem_id, PRECONDITION_UNMET, 0.0, est.witness,
                             extra_precondition + "; side report: " + side,
                             estimate=est.value, bound=bound)
    refusal = _membership_gate(theorem_id, f, alpha, plan, side="; side report: " + side,
                               estimate=est.value, bound=bound)
    if refusal is not None:
        return refusal
    viol = max(0.0, est.value - bound)
    status = PASS if viol <= tol else FAIL
    return TheoremReport(theorem_id, status, viol, est.witness, side,
                         estimate=est.value, bound=bound)


def verify_T43(f: AnalyticFn, alpha: Alpha, plan: SamplingPlan,
               tol: float = BOUND_TOL, workers: int = 1) -> TheoremReport:
    """Pre-Schwarzian norm <= 2 cos alpha for members with f''(0) = 0.  Both
    norms are computed (scan), so T44 and T45 then reuse the scan.
    ``workers`` is ignored: scans run serially."""
    return _norm_bound_report("T43", f, alpha, plan, 1, 2.0 * alpha.cos, tol,
                              _f2_zero_gate(f, _HYPOTHESIS_NOT_MET))


def verify_T44(f: AnalyticFn, alpha: Alpha, plan: SamplingPlan,
               tol: float = BOUND_TOL, workers: int = 1) -> TheoremReport:
    """Schwarzian norm <= 2 cos alpha (2 - cos alpha) for members with f''(0) = 0.

    This is the bound as printed.  With f''/f' = 2b phi/(1 - z phi) and
    b = e^{-i alpha} cos alpha, S_f = 2b (phi' + (1 - b) phi^2)/(1 - z phi)^2,
    and the printed formula uses 1 - cos alpha where the proof needs
    |1 - b| = |sin alpha|.  It therefore fails for alpha != 0: the member
    f' = (1 - z^2)^(-b) has norm 2 cos alpha sqrt(4 - 3 cos^2 alpha)
    (tests/test_theorems.py::test_t44_printed_bound_falsified_by_power_member).
    Both norms are computed (scan), shared with T43 and T45.
    ``workers`` is ignored: scans run serially.
    """
    c = alpha.cos
    return _norm_bound_report("T44", f, alpha, plan, 2, 2.0 * c * (2.0 - c), tol,
                              _f2_zero_gate(f, _HYPOTHESIS_NOT_MET))


def t45_bound(alpha: Alpha, gamma: float) -> float:
    """2 cos a (1 + (1 - cos a)(1 + gamma)/(1 - gamma)); equals the gamma-free
    Schwarzian bound at gamma = 0.

    This is the formula as printed.  The proof needs |1 - e^{-ia} cos a| =
    |sin a| where it has 1 - cos a, so for alpha != 0 it is not a bound for
    the class; the proof does give 2 cos a (1 + |sin a|(1 + gamma)/(1 - gamma)).
    Counterexamples: tests/test_theorems.py::
    test_t45_printed_bound_falsified_for_some_members and the members that
    tests/test_acceptance.py::test_criterion_07_gamma_refined_bound names.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"need 0 <= gamma < 1, got {gamma}")
    c = alpha.cos
    return 2.0 * c * (1.0 + (1.0 - c) * (1.0 + gamma) / (1.0 - gamma))


def verify_T45(f: AnalyticFn, alpha: Alpha, plan: SamplingPlan,
               tol: float = BOUND_TOL, workers: int = 1) -> TheoremReport:
    """gamma-refined Schwarzian bound: needs membership and gamma < 1.

    Checks the printed formula t45_bound, which fails for some members when
    alpha != 0 because it uses 1 - cos a where the proof needs
    |1 - e^{-ia} cos a| = |sin a| (see t45_bound).  A fail verdict is then a
    genuine counterexample; test_criterion_07_gamma_refined_bound confirms
    each one against an exact evaluation at the witness.  ``workers`` is
    ignored: scans run serially.
    """
    gamma = abs(f.second_deriv_origin()) / (2.0 * alpha.cos)
    if gamma >= 1.0:
        return TheoremReport(
            "T45", PRECONDITION_UNMET, 0.0, None,
            f"gamma = {gamma:.6g} >= 1: bound undefined (and membership impossible)")
    return _norm_bound_report("T45", f, alpha, plan, 2, t45_bound(alpha, gamma), tol, None)


def lemma_schur_check(phi: Callable[[complex], complex], phi0_abs: float,
                      points: Sequence[complex], tol: float = SCHUR_TOL) -> TheoremReport:
    """Schur-class growth bound:
    |phi|^2/(1-|phi|^2) <= (|phi(0)|+|z|)^2 / ((1-|phi(0)|)^2 (1-|z|^2))."""
    if not 0.0 <= phi0_abs < 1.0:
        return TheoremReport("LemA", PRECONDITION_UNMET, 0.0, None,
                             f"|phi(0)| = {phi0_abs:.6g} must be < 1")
    worst = -math.inf
    witness = None
    for z in points:
        m = abs(phi(z))
        if m >= 1.0:
            return TheoremReport(
                "LemA", PRECONDITION_UNMET, 0.0, z,
                f"sampled |phi({z!r})| = {m:.6g} >= 1: not a self-map of the disk")
        r2 = abs(z) ** 2
        lhs = m * m / (1.0 - m * m)
        rhs = (phi0_abs + abs(z)) ** 2 / ((1.0 - phi0_abs) ** 2 * (1.0 - r2))
        viol = lhs - rhs
        if viol > worst:
            worst, witness = viol, z
    status = PASS if worst <= tol else FAIL
    return TheoremReport(
        "LemA", status, max(0.0, worst), witness,
        f"max inequality violation {worst:.6g} over {len(points)} points; "
        f"tolerance {tol:g}")
