"""Theorem verifiers: quadrature oracles, verdict logic, hypothesis gates.

Two deliberate falsification demonstrations ship here as honest outcomes:
the half-plane map shows the f''(0) = 0 hypothesis is necessary
(precondition_unmet with side estimate 4 > 2), and the genuine member with
f' = (1 - z^2)^(-e^{-i alpha} cos alpha) shows the printed Schwarzian bound
2 cos a (2 - cos a) is too small for alpha != 0 (status fail, with the
estimate cross-checked against an independent closed form).
"""

import cmath
import math

import pytest

from hypothesis import assume, example, given, settings, strategies as st

from disknorms import (Alpha, GeneratedMember, HalfPlane, Koebe, MemberProvenance,
                       RobertsonExtremal, SamplingPlan, SeriesFn, SpiralPower,
                       TaylorSeries, TheoremReport, growth_bounds, is_certified_member,
                       lemma_schur_check, membership_certificate, phi_transform,
                       quadrature, quadrature_complex, random_disk_points, random_member,
                       robertson_margin, t45_bound, verify_T41,
                       verify_T42_distortion, verify_T42_growth, verify_T43,
                       verify_T44, verify_T45)
from disknorms.derivatives import scan
from disknorms.errors import DiskNormsError, MaxSubdivisions
from disknorms.robertson import membership_refutation
from disknorms.quadrature import _GL15_NODES, _GL15_WEIGHTS, MAX_PANELS, quadrature_upto
from disknorms.theorems import GROWTH_R_CAP, growth_table
from test_catalog import catalog_entries, scannable

PLAN = SamplingPlan()
ATAN_HALF = 0.4636476090008061   # arctan(1/2)
ATANH_HALF = 0.5493061443340548  # (1/2) ln 3


# -- quadrature ---------------------------------------------------------------

def test_quadrature_empty_interval():
    assert quadrature(lambda t: 1e9, 0.3, 0.3) == 0.0


def test_quadrature_closed_form_oracles():
    got = quadrature(lambda t: 1.0 / (1.0 - t * t), 0.0, 0.5, 1e-12)
    assert abs(got - ATANH_HALF) < 1e-9
    got = quadrature(lambda t: 1.0 / (1.0 + t * t), 0.0, 0.5, 1e-12)
    assert abs(got - ATAN_HALF) < 1e-9


def test_quadrature_polynomial_exactness():
    # GL15 integrates degree-29 polynomials exactly; single panel suffices
    got = quadrature(lambda t: 13 * t ** 12 - 4 * t ** 3, 0.0, 0.9, 1e-12)
    assert abs(got - (0.9 ** 13 - 0.9 ** 4)) < 1e-13


def test_quadrature_domain_validation():
    with pytest.raises(ValueError):
        quadrature(lambda t: t, 0.0, 1.0)
    with pytest.raises(ValueError):
        quadrature(lambda t: t, 0.5, 0.2)


def test_quadrature_max_subdivisions():
    with pytest.raises(MaxSubdivisions):
        quadrature(lambda t: (1.0 - t) ** -0.999, 0.0, 0.9999999, 1e-15)


def _frozen_panel(fn, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in zip(_GL15_NODES, _GL15_WEIGHTS):
        acc += w * fn(mid + half * x)
    return half * acc


def _frozen_quadrature_complex(integrand, a, b, tol=1e-10):
    """The bisection engine as it stood before it handed back its accepted
    panels: one loop that sums each accepted panel as it accepts it."""
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0j
    total = 0j
    panels_done = 0
    stack = [(a, b, _frozen_panel(integrand, a, b))]
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _frozen_panel(integrand, lo, mid)
        right = _frozen_panel(integrand, mid, hi)
        panels_done += 2
        if panels_done > MAX_PANELS:
            raise MaxSubdivisions(
                f"tolerance {tol} unreachable within {MAX_PANELS} panels")
        err = abs(left + right - whole)
        if err <= tol * max((hi - lo) / (b - a), 1e-3):
            total += left + right
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total


def _run(engine, integrand, *args):
    """(result as float.hex of its parts, or the error raised; integrand calls)."""
    calls = []

    def counted(t):
        calls.append(t)
        return integrand(t)
    try:
        z = complex(engine(counted, *args))
        out = (z.real.hex(), z.imag.hex())
    except MaxSubdivisions as exc:
        out = str(exc)
    return out, len(calls)


def test_engine_bit_identical_to_the_summing_loop():
    """quadrature and quadrature_complex return the frozen engine's values to
    the bit, with the same integrand calls, on real and complex integrands,
    RobertsonExtremal's ray integrand, and the MaxSubdivisions case."""
    def frozen_real(g, a, b, tol=1e-10):
        return _frozen_quadrature_complex(lambda t: complex(g(t), 0.0), a, b, tol).real

    real_cases = [
        (lambda t: (1.0 - t * t) ** -0.7, 0.0, 0.95, 1e-10),
        (lambda t: (1.0 + t * t) ** -0.3, 0.0, 0.999, 1e-10),
        (lambda t: (1.0 - t * t) ** -1.0, 0.2, 0.9, 1e-12),
        (lambda t: 13 * t ** 12 - 4 * t ** 3, 0.0, 0.9, 1e-12),
        (lambda t: 1e9, 0.3, 0.3, 1e-10),
        (lambda t: (1.0 - t) ** -0.999, 0.0, 0.9999999, 1e-15),  # MaxSubdivisions
    ]
    for g, a, b, tol in real_cases:
        assert _run(quadrature, g, a, b, tol) == _run(frozen_real, g, a, b, tol)
    assert isinstance(_run(quadrature, *real_cases[-1])[0], str)

    complex_cases = [
        (lambda t: cmath.exp(5j * t) / (1.1 - t), 0.0, 0.9, 1e-10),
        (lambda t: cmath.exp(-0.4 * cmath.log(1.0 - (0.3 + 0.9j) ** 2 * t * t)),
         0.0, 1.0, 1e-12),
    ]
    for aval in (0.0, 0.9, -1.3):
        fn = RobertsonExtremal(Alpha(aval), cmath.exp(0.7j))
        for z in (0.5 + 0.3j, -0.85j, 0.93 + 0j):
            w = fn.zeta * z
            complex_cases.append((lambda t, fn=fn, w=w: fn._fprime_base(t * w), 0.0, 1.0, 1e-12))
            want = fn.zeta.conjugate() * w * _frozen_quadrature_complex(
                lambda t: fn._fprime_base(t * w), 0.0, 1.0, 1e-12)
            assert fn.value(z) == want
    for g, a, b, tol in complex_cases:
        assert _run(quadrature_complex, g, a, b, tol) == \
            _run(_frozen_quadrature_complex, g, a, b, tol)


# -- growth bounds -------------------------------------------------------------

def test_growth_bounds_at_zero():
    gb = growth_bounds(0.0, Alpha(0.7))
    assert gb.lower == 0.0 and gb.upper == 0.0


def test_growth_bounds_alpha0_closed_forms():
    gb = growth_bounds(0.5, Alpha(0.0))
    assert abs(gb.lower - ATAN_HALF) < 1e-9
    assert abs(gb.upper - ATANH_HALF) < 1e-9


def test_growth_bounds_monotone_in_cos_alpha():
    gb_hi = growth_bounds(0.9, Alpha(0.0))          # cos = 1
    gb_lo = growth_bounds(0.9, Alpha(math.pi / 3))  # cos = 1/2
    assert gb_lo.lower <= gb_lo.upper
    assert gb_lo.upper <= gb_hi.upper
    assert gb_lo.lower >= gb_hi.lower


def test_growth_bounds_domain():
    with pytest.raises(ValueError):
        growth_bounds(0.9995, Alpha(0.0))


@st.composite
def _radius_lists(draw):
    """Unsorted radius lists in [0, GROWTH_R_CAP] that hold 0, GROWTH_R_CAP
    and a duplicate."""
    drawn = draw(st.lists(st.floats(0.0, GROWTH_R_CAP), min_size=1, max_size=10))
    return draw(st.permutations(drawn + [0.0, GROWTH_R_CAP, drawn[0]]))


@settings(max_examples=40, deadline=None)
@given(aval=st.floats(-1.5, 1.5), radii=_radius_lists())
def test_growth_table_matches_per_radius_quadrature(aval, radii):
    """Every entry of the one-pass table is the single-interval quadrature on
    [0, r] to 1e-12, lower <= upper, and both are nondecreasing in r."""
    a = Alpha(aval)
    c = a.cos
    table = growth_table(radii, a)
    assert [gb.r for gb in table] == radii
    for gb in table:
        assert abs(gb.lower - quadrature(lambda t: (1.0 + t * t) ** -c, 0.0, gb.r)) <= 1e-12
        assert abs(gb.upper - quadrature(lambda t: (1.0 - t * t) ** -c, 0.0, gb.r)) <= 1e-12
        assert gb.lower <= gb.upper
    # nondecreasing up to rounding: adjacent floats r < r' can read 1 ulp apart
    ordered = sorted(table, key=lambda gb: gb.r)
    for lo, hi in zip(ordered, ordered[1:]):
        assert hi.lower >= lo.lower - 2 * math.ulp(lo.lower)
        assert hi.upper >= lo.upper - 2 * math.ulp(lo.upper)
    assert table[radii.index(0.0)] == growth_bounds(0.0, a)


@settings(max_examples=40, deadline=None)
@given(radii=_radius_lists())
def test_growth_table_closed_forms(radii):
    """No quadrature in the oracle: at cos a = 1 the integrals are atan r and
    atanh r, at cos a = 1/2 asinh r and asin r."""
    for a, lower, upper in ((Alpha(0.0), math.atan, math.atanh),
                            (Alpha(math.pi / 3), math.asinh, math.asin)):
        for gb in growth_table(radii, a):
            assert abs(gb.lower - lower(gb.r)) <= 1e-12
            assert abs(gb.upper - upper(gb.r)) <= 1e-12


def test_growth_table_checks_every_radius_first(monkeypatch):
    """A radius out of range raises before any integral, and in T42g before
    any value of f."""
    calls = []
    with pytest.raises(ValueError):
        quadrature_upto(lambda t: calls.append(t) or 1.0, 0.0, [0.5, 1.0])
    assert calls == []
    assert growth_table([], Alpha(0.2)) == []
    a = Alpha(0.2)
    m = random_member(a, seed=9, degree=2, zero_second_deriv=True)
    monkeypatch.setattr(m, "value", lambda z: calls.append(z))
    with pytest.raises(ValueError):
        verify_T42_growth(m, a, [0.3, 0.5j, 0.9995])
    assert calls == []


# -- T41 ------------------------------------------------------------------------

def test_t41_generated_member_passes():
    a = Alpha(0.5)
    rep = verify_T41(random_member(a, seed=7, degree=2), a, PLAN)
    assert rep.status == "pass"


def test_t41_equality_family_passes_with_zero_residual():
    a = Alpha(-0.9)
    rep = verify_T41(SpiralPower(a, zeta=1.0), a, PLAN)
    assert rep.status == "pass"
    assert rep.max_violation < 1e-9


def test_t41_koebe_precondition_unmet():
    rep = verify_T41(Koebe(), Alpha(0.0), PLAN)
    assert rep.status == "precondition_unmet"
    assert "vacuous" in rep.details


def test_t41_deterministic():
    a = Alpha(0.4)
    m = random_member(a, seed=3, degree=3)
    assert verify_T41(m, a, PLAN) == verify_T41(m, a, PLAN)


def test_norm_verifiers_deterministic():
    a = Alpha(-0.6)
    m = random_member(a, seed=2, degree=2, zero_second_deriv=True)
    assert verify_T44(m, a, PLAN) == verify_T44(m, a, PLAN)
    assert verify_T43(m, a, PLAN, workers=1) == verify_T43(m, a, PLAN, workers=4)
    for verify in (verify_T44, verify_T45):
        assert verify(m, a, PLAN, workers=1) == verify(m, a, PLAN, workers=3)


def test_norm_verifiers_build_no_member_series():
    """T43-T45 scan a member's exact fields and read f''(0) from its self-map,
    so its Taylor series is built only when a pointwise value asks for it."""
    a = Alpha(0.5)
    for zero_f2 in (False, True):
        m = random_member(a, seed=7, degree=3, zero_second_deriv=zero_f2)
        for verify in (verify_T43, verify_T44, verify_T45):
            verify(m, a, PLAN)
        assert "series" not in vars(m)
    m.jet(0.5j, 1, 3)
    assert "series" in vars(m)


def test_t43_scans_a_member_past_the_guard_circle():
    """Scanning the truncated series on |z| <= 0.95 gave 1.39121 here, with
    the witness on the guard circle; the exact field reaches the boundary
    ridge, and the estimate is the exact u at its witness."""
    a = Alpha(-0.4400355213402305)
    m = random_member(a, seed=1249907269, degree=1, zero_second_deriv=True)
    rep = verify_T43(m, a, PLAN)
    # a fresh member: scan's memo would return the estimate T43 took
    est = scan(random_member(a, seed=1249907269, degree=1, zero_second_deriv=True), PLAN, 1)[0]
    assert rep.estimate == est.value > 1.39121 + 0.05
    assert est.witness_r > 0.95
    w = est.witness
    phi = m.provenance.phi(w)
    b = cmath.exp(-1j * a.value) * a.cos
    exact = (1 - abs(w) ** 2) * abs(2 * b * phi / (1 - w * phi))
    assert abs(rep.estimate - exact) <= 1e-9


def test_t42d_extremal_alpha0_upper_bound_attained_on_real_axis():
    a = Alpha(0.0)
    fn = RobertsonExtremal(a)
    pts = random_disk_points(50, seed=31, radius=0.9)
    rep = verify_T42_distortion(fn, a, pts)
    assert rep.status == "pass"
    for r in (0.2, 0.5, 0.9):
        fp = abs(fn.derivatives(complex(r, 0)).f1)
        assert abs(fp - (1 - r * r) ** -a.cos) < 1e-8


def test_t42d_extremal_family_attains_upper_bound_all_alpha():
    """Equality |f'(r)| = (1-r^2)^(-cos a) holds for every alpha on the real
    axis (independent of the class-membership question)."""
    for aval in (0.0, math.pi / 6, -math.pi / 4, math.pi / 3):
        a = Alpha(aval)
        fn = RobertsonExtremal(a)
        for r in (0.3, 0.7, 0.95):
            fp = abs(fn.derivatives(complex(r, 0)).f1)
            assert abs(fp - (1 - r * r) ** -a.cos) < 1e-8


def test_t42d_at_origin_trivial():
    a = Alpha(0.3)
    m = random_member(a, seed=8, degree=2, zero_second_deriv=True)
    rep = verify_T42_distortion(m, a, [0j])
    assert rep.status == "pass"
    assert abs(m.derivatives(0j).f1) == 1.0


def test_t42d_halfplane_hypothesis_necessity():
    a = Alpha(0.0)
    rep = verify_T42_distortion(HalfPlane(), a, [0.5 + 0j])
    assert rep.status == "precondition_unmet"
    assert "f''(0)" in rep.details
    # the documented demonstration: |f'(r)| = (1-r)^-2 exceeds (1-r^2)^-1
    for r in (0.3, 0.6, 0.9):
        assert (1 - r) ** -2 > (1 - r * r) ** -1


def test_t42d_generated_members_pass():
    for seed in (11, 12, 13):
        a = Alpha(-1.0 + 0.6 * seed % 1.2)
        m = random_member(a, seed=seed, degree=1 + seed % 3, zero_second_deriv=True)
        pts = random_disk_points(50, seed=100 + seed, radius=0.9)
        assert verify_T42_distortion(m, a, pts).status == "pass"


# -- T42 growth -------------------------------------------------------------------

def test_t42g_extremal_real_axis_equals_upper_integral():
    for aval in (0.0, 0.9):
        a = Alpha(aval)
        fn = RobertsonExtremal(a)
        for r in (0.25, 0.6, 0.9):
            val = abs(fn.value(complex(r, 0)))
            assert abs(val - growth_bounds(r, a).upper) < 1e-8


def test_t42g_verifier_on_extremal_alpha0():
    a = Alpha(0.0)
    pts = random_disk_points(30, seed=32, radius=0.9)
    rep = verify_T42_growth(RobertsonExtremal(a), a, pts)
    assert rep.status == "pass"


def test_t42g_zero_point():
    a = Alpha(0.2)
    m = random_member(a, seed=9, degree=2, zero_second_deriv=True)
    rep = verify_T42_growth(m, a, [0j])
    assert rep.status == "pass"


def test_t42g_generated_member_passes():
    a = Alpha(0.7)
    m = random_member(a, seed=5, degree=2, zero_second_deriv=True)
    pts = random_disk_points(50, seed=33, radius=0.9)
    rep = verify_T42_growth(m, a, pts)
    assert rep.status == "pass"


def test_t42g_halfplane_precondition_unmet():
    rep = verify_T42_growth(HalfPlane(), Alpha(0.0), [0.5 + 0j])
    assert rep.status == "precondition_unmet"


# -- T43 -----------------------------------------------------------------------

def test_t43_extremal_alpha0_sharp():
    a = Alpha(0.0)
    rep = verify_T43(RobertsonExtremal(a), a, PLAN)
    assert rep.status == "pass"
    assert abs(rep.estimate - 2.0) < 1e-3


def test_t43_extremal_estimates_match_analytic_all_alpha():
    """The norm value 2 cos a is reproduced for every alpha; the verdict is
    precondition_unmet for alpha != 0 because the family leaves the class
    (its membership functional covers a rotated half-plane)."""
    for aval in (math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4,
                 math.pi / 3, -math.pi / 3, 1.4, -1.4):
        a = Alpha(aval)
        rep = verify_T43(RobertsonExtremal(a), a, PLAN)
        assert abs(rep.estimate - 2 * a.cos) < 1e-3
        assert rep.status == "precondition_unmet"
        assert "not certified" in rep.details


def test_t43_generated_members_pass():
    for seed in (1, 2, 3):
        a = Alpha(-1.2 + 0.7 * seed)
        m = random_member(a, seed=seed, degree=3, zero_second_deriv=True)
        rep = verify_T43(m, a, PLAN)
        assert rep.status == "pass", rep.details


def test_t43_halfplane_hypothesis_necessity():
    a = Alpha(0.0)
    rep = verify_T43(HalfPlane(), a, PLAN)
    assert rep.status == "precondition_unmet"
    assert abs(rep.estimate - 4.0) < 1e-3
    assert rep.bound == 2.0
    assert "side report" in rep.details


# -- T44 -----------------------------------------------------------------------

def test_t44_extremal_alpha0_sharp():
    a = Alpha(0.0)
    rep = verify_T44(RobertsonExtremal(a), a, PLAN)
    assert rep.status == "pass"
    assert abs(rep.estimate - 2.0) < 1e-3
    assert rep.bound == 2.0


def test_t44_extremal_estimates_match_analytic_all_alpha():
    for aval in (math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4,
                 math.pi / 3, -math.pi / 3, 1.4, -1.4):
        a = Alpha(aval)
        c = a.cos
        rep = verify_T44(RobertsonExtremal(a), a, PLAN)
        assert abs(rep.estimate - 2 * c * (2 - c)) < 1e-3


def test_t44_generated_member_passes():
    a = Alpha(0.5)
    m = random_member(a, seed=3, degree=3, zero_second_deriv=True)
    rep = verify_T44(m, a, PLAN)
    assert rep.status == "pass"


def test_t44_printed_bound_falsified_by_power_member():
    """f' = (1 - z^2)^(-e^{-i a} cos a) is a certified member with f''(0) = 0
    whose membership functional is exactly the subordination target at z^2,
    yet its Schwarzian norm is 2 cos a sqrt(4 - 3 cos^2 a), which exceeds
    2 cos a (2 - cos a) for alpha != 0.  The verifier must report that
    honestly as a failure of the printed bound."""
    a = Alpha(math.pi / 3)
    c = a.cos
    beta_hat = cmath.exp(-1j * a.value) * c
    fprime = TaylorSeries.from_polynomial([1.0, 0.0, -1.0], order=256).pow(-beta_hat)
    member = SeriesFn(fprime.integrate())

    margin = robertson_margin(member, a, PLAN)
    assert margin.inf_value >= -1e-6   # genuine member

    rep = verify_T44(member, a, PLAN)
    assert rep.status == "fail"
    true_norm = 2 * c * math.sqrt(4 - 3 * c * c)
    assert rep.estimate > rep.bound + 1e-3
    # the sampled lower bound cannot exceed the analytic supremum
    assert rep.estimate <= true_norm + 1e-9
    # and it should get close to it within the guard radius of the series:
    # along the real axis the weighted profile is 2c |1 + (1-beta) r^2|
    r = 0.95
    profile_at_guard = 2 * c * abs(1 + (1 - beta_hat) * r * r)
    assert rep.estimate >= profile_at_guard - 1e-4  # series truncation slack


# -- T45 -----------------------------------------------------------------------

def test_t45_gamma0_bound_coincides_with_t44_bound():
    for k in range(50):
        a = Alpha(-1.5 + 3.0 * k / 49)
        c = a.cos
        assert abs(t45_bound(a, 0.0) - 2 * c * (2 - c)) < 1e-12


def test_t45_bound_validation():
    with pytest.raises(ValueError):
        t45_bound(Alpha(0.0), 1.0)
    with pytest.raises(ValueError):
        t45_bound(Alpha(0.0), -0.1)


def test_t45_koebe_gamma_two_precondition_unmet():
    rep = verify_T45(Koebe(), Alpha(0.0), PLAN)
    assert rep.status == "precondition_unmet"
    assert "gamma" in rep.details


def test_t45_generated_member_passes():
    a = Alpha(0.3)
    m = random_member(a, seed=12, degree=2)
    assert 0 < m.provenance.gamma < 1
    rep = verify_T45(m, a, PLAN)
    assert rep.status == "pass", rep.details


def test_t45_printed_bound_falsified_for_some_members():
    """Same root cause as the T44 demonstration: the printed refined bound
    2c(1 + (1-c)(1+gamma)/(1-gamma)) undershoots genuine members for
    alpha != 0; pin one reproducible case as an honest failure."""
    a = Alpha(0.5)
    m = random_member(a, seed=4, degree=2)
    rep = verify_T45(m, a, PLAN)
    assert rep.status == "fail"
    assert rep.estimate > rep.bound + 1e-3


def _count_scans(monkeypatch) -> list:
    """The names of the disksup scan entries that derivatives.scan calls, in
    call order, from now on."""
    from disknorms import derivatives
    calls = []

    def counted(name, entry):
        def call(*args, **kwargs):
            calls.append(name)
            return entry(*args, **kwargs)
        return call
    for name in ("weighted_sup", "weighted_sups", "weighted_inf_re", "circle_inf_re"):
        monkeypatch.setattr(derivatives, name, counted(name, getattr(derivatives, name)))
    return calls


def test_margin_computed_once_per_member_alpha_and_plan(monkeypatch):
    """T41-T45 share one sampled membership margin per (f, alpha, plan) on a
    function with no membership certificate: a member's Taylor series, a
    plain SeriesFn.  Per plan, the only scans are one circle for the margin,
    T41's two residual grids and T43's two norm grids."""
    a = Alpha(0.5)
    coarse = SamplingPlan(radial_count=16, angular_count=32)
    coarser = SamplingPlan(radial_count=8, angular_count=16)
    pts = random_disk_points(10, seed=8, radius=0.9)
    runs = [(verify, plan) for plan in (coarse, coarser)
            for verify in (verify_T41, verify_T43, verify_T44, verify_T45,
                           lambda f, a, plan: verify_T42_distortion(f, a, pts, plan=plan))]

    def fresh():
        return random_member(a, seed=2, degree=2, zero_second_deriv=True).taylor()
    f = fresh()
    calls = _count_scans(monkeypatch)
    shared = [verify(f, a, plan) for verify, plan in runs]
    assert calls == ["circle_inf_re", "weighted_inf_re", "weighted_inf_re",
                     "weighted_sup", "weighted_sup"] * 2
    assert all(rep.status == "pass" for rep in shared)
    # a report from a shared margin is the one a fresh margin gives
    assert shared == [verify(fresh(), a, plan) for verify, plan in runs]


def test_norm_estimate_computed_once_per_member_order_and_plan(monkeypatch):
    """T43, T44 and T45 share one grid pass of both norms per (f, plan): the
    member's fields are evaluated once at each grid point, and the shared
    reports are those of fresh members."""
    from disknorms import disksup
    from disknorms.catalog import RationalField
    from disknorms.disksup import SCAN_CEILING, _scan_radii
    evaluated, rings = [], []
    ring_with, grid_ring = RationalField.ring_with, disksup.ring_points

    def counted_ring_with(u, square):
        ring = ring_with(u, square)

        def counted(points):
            evaluated.extend(points)
            return ring(points)
        return counted

    def counted_ring_points(r, m):
        rings.append(r)
        return grid_ring(r, m)
    monkeypatch.setattr(RationalField, "ring_with", counted_ring_with)
    monkeypatch.setattr(disksup, "ring_points", counted_ring_points)
    a = Alpha(-0.6)
    coarse = SamplingPlan(radial_count=16, angular_count=32)
    plans = (PLAN, coarse)
    runs = [(verify, plan) for plan in plans for verify in (verify_T43, verify_T44, verify_T45)]
    m = random_member(a, seed=5, degree=3, zero_second_deriv=True)
    shared = [verify(m, a, plan) for verify, plan in runs]
    radii = [_scan_radii(plan, min(plan.r_cap, SCAN_CEILING)) for plan in plans]
    # the r = 0 ring is the one point 0j, which takes no ring_points call
    grid = [z for plan, rs in zip(plans, radii)
            for r in rs for z in (grid_ring(r, plan.angular_count) if r else [0j])]
    assert [(z.real.hex(), z.imag.hex()) for z in evaluated] == [
        (z.real.hex(), z.imag.hex()) for z in grid]
    # one ring pass for both norms, and none for the membership margin, which
    # the member's certificate makes unnecessary
    assert rings == [r for rs in radii for r in rs[1:]]
    monkeypatch.undo()
    assert shared == [verify(random_member(a, seed=5, degree=3, zero_second_deriv=True), a, plan)
                      for verify, plan in runs]


def test_certified_members_scan_no_margin_outside_t41(monkeypatch):
    """A generated member at its own alpha passes the membership gate by its
    certificate: T42d, T42g, T43, T44 and T45 scan no margin, only T43's one
    pass of both norms, and give the reports of fresh members; T41 still
    reports the sampled margin, scanned once on the circle."""
    a = Alpha(-0.7)
    plan = SamplingPlan(radial_count=16, angular_count=32)
    pts = random_disk_points(15, seed=3, radius=0.9)
    runs = [lambda f: verify_T42_distortion(f, a, pts, plan=plan),
            lambda f: verify_T42_growth(f, a, pts, plan=plan),
            lambda f: verify_T43(f, a, plan), lambda f: verify_T44(f, a, plan),
            lambda f: verify_T45(f, a, plan)]
    builds = [lambda: random_member(a, seed=4, degree=3, zero_second_deriv=True),
              lambda: random_member(a, seed=9, degree=2)]
    expected = [[run(build()) for run in runs] for build in builds]
    t41 = [verify_T41(build(), a, plan) for build in builds]
    members = [build() for build in builds]
    calls = _count_scans(monkeypatch)
    assert [[run(m) for run in runs] for m in members] == expected
    assert calls == ["weighted_sups"] * len(members)
    assert [rep.status for rep in expected[0]] == ["pass"] * 5
    calls.clear()
    for m, want in zip(members, t41):
        assert [verify_T41(m, a, plan), verify_T41(m, a, plan)] == [want, want]
        assert "sampled membership margin" in want.details
    assert calls == ["circle_inf_re", "weighted_inf_re", "weighted_inf_re"] * len(members)


def _parent_gate(f, alpha, plan):
    """The membership gate as the sampled margin alone decides it."""
    margin = robertson_margin(f, alpha, plan)
    if is_certified_member(margin):
        return None
    return TheoremReport(
        "T43", "precondition_unmet", 0.0, margin.witness,
        f"not certified as a class member; sampled membership margin "
        f"{margin.inf_value:.6g} at z = {margin.witness!r}")


def _outcome(gate, f, alpha, plan):
    try:
        return gate(f, alpha, plan)
    except (DiskNormsError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=15, deadline=None)
@given(aval=st.floats(-1.4, 1.4), other=st.floats(-1.4, 1.4),
       seed=st.integers(0, 2 ** 31 - 1), degree=st.integers(1, 3), zero_f2=st.booleans(),
       slot=st.integers(0, 2), psi=st.floats(0.0, 2 * math.pi))
# the 16 x 32 sampled margin of this hand-built member reads +1.02e-6, and
# admitted it, where the 32 x 64 one reads -260.9
@example(aval=0.0, other=1.0, seed=455, degree=2, zero_f2=True, slot=1, psi=4.5625)
def test_gate_certifies_only_members_at_their_own_alpha(aval, other, seed, degree, zero_f2,
                                                         slot, psi):
    """No function outside the certificate's reach is certified.  A hand-built
    provenance with a zero a of modulus 1.25 is refuted by construction: the
    gate refuses it with the pole p = -1/conj(a) of phi as its witness, where
    the margin is -cos(alpha).  The gate refuses or passes every other
    function as its sampled margin alone does: a member built at another
    alpha, RobertsonExtremal(alpha != 0) and every catalog_entries() function,
    a polynomial by its series form."""
    from disknorms.theorems import _membership_gate
    assume(aval != other and aval != 0.9)  # catalog_entries() has a member at 0.9
    a = Alpha(aval)
    plan = SamplingPlan(radial_count=16, angular_count=32)
    prov = random_member(a, seed, degree, zero_f2).provenance
    zeros = list(prov.blaschke_zeros)
    zeros[slot % degree] = 1.25 * cmath.exp(1j * psi)
    hand = GeneratedMember(MemberProvenance(a, seed, degree, zero_f2, tuple(zeros), prov.gamma))
    fns = [hand, random_member(Alpha(other), seed, degree, zero_f2),
           *map(scannable, catalog_entries())]
    if aval != 0:
        fns.append(RobertsonExtremal(a))
    p = -1.0 / zeros[slot % degree].conjugate()
    witness, margin = membership_refutation(hand, a)
    assert witness == p and abs(margin + a.cos) <= 1e-12
    refusal = _membership_gate("T43", hand, a, plan)
    assert refusal.status == "precondition_unmet" and refusal.witness == p
    assert "refuted by construction" in refusal.details and "sampled" not in refusal.details
    for f in fns:
        assert not membership_certificate(f, a), f.name
    for f in fns[1:]:
        assert _outcome(lambda *args: _membership_gate("T43", *args), f, a, plan) == \
            _outcome(_parent_gate, f, a, plan), f.name


# -- Lemma (Schur-class growth) ---------------------------------------------------

def test_lemma_schur_identity_map_equality():
    pts = random_disk_points(50, seed=41, radius=0.9)
    rep = lemma_schur_check(lambda z: z, 0.0, pts)
    assert rep.status == "pass"
    z = pts[0]
    lhs = abs(z) ** 2 / (1 - abs(z) ** 2)
    rhs = abs(z) ** 2 / (1 - abs(z) ** 2)
    assert abs(lhs - rhs) < 1e-15


def test_lemma_schur_constant_half():
    rep = lemma_schur_check(lambda z: 0.5 + 0j, 0.5, [0.5 + 0j])
    assert rep.status == "pass"
    # direct numeric oracle: LHS = 1/3, RHS = 1/(0.25 * 0.75) = 16/3
    lhs = 0.25 / 0.75
    rhs = 1.0 / (0.25 * 0.75)
    assert lhs < rhs


def test_lemma_schur_specialization_phi0_zero():
    """For phi = z * Blaschke: LHS <= |z|^2/(1-|z|^2)."""
    a = Alpha(0.4)
    m = random_member(a, seed=6, degree=2, zero_second_deriv=True)
    phi = m.provenance.phi
    pts = random_disk_points(100, seed=42, radius=0.9)
    rep = lemma_schur_check(phi, 0.0, pts)
    assert rep.status == "pass"
    for z in pts:
        p = abs(phi(z))
        assert p * p / (1 - p * p) <= abs(z) ** 2 / (1 - abs(z) ** 2) + 1e-9


def test_lemma_schur_preconditions():
    pts = [0.5 + 0j]
    rep = lemma_schur_check(lambda z: 1.5 + 0j, 0.0, pts)
    assert rep.status == "precondition_unmet"
    rep = lemma_schur_check(lambda z: z, 1.0, pts)
    assert rep.status == "precondition_unmet"


# -- transform-based LemA wiring ---------------------------------------------------

def test_lemma_schur_via_phi_transform_of_member():
    a = Alpha(-0.6)
    m = random_member(a, seed=14, degree=3)
    phi = phi_transform(m, a)
    pts = random_disk_points(60, seed=43, radius=0.9)
    rep = lemma_schur_check(phi.evaluator, phi.gamma, pts)
    assert rep.status == "pass"
