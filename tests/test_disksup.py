"""Grid scan, refinement, boundary march: soundness and convergence checks."""

import cmath
import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from disknorms import (Alpha, HalfPlane, Identity, Koebe, RobertsonExtremal, SamplingPlan,
                       SpiralPower, radial_profile, random_disk_points, random_member,
                       robertson_margin, weighted_inf_re, weighted_sup)
from disknorms.derivatives import _field, pre_schwarzian_evaluator, scan, schwarzian_evaluator
from disknorms.disksup import SCAN_CEILING, _point, ring_points, weight_factor
from disknorms.robertson import robertson_functional
from disknorms.theorems import verify_T41, verify_T43, verify_T44, verify_T45
from test_catalog import catalog_entries

PLAN = SamplingPlan()
EPS = sys.float_info.epsilon


def test_constant_evaluator_peak_at_center():
    est = weighted_sup(lambda z: 3 - 4j, 1, PLAN)
    assert abs(est.value - 5.0) < 1e-12
    assert est.witness == 0
    assert est.witness_r == 0.0


def test_halfplane_pre_schwarzian_norm():
    hp = HalfPlane()
    est = weighted_sup(pre_schwarzian_evaluator(hp), 1, PLAN, r_limit=hp.radius_limit)
    assert abs(est.value - 4.0) < 1e-3
    assert est.value <= 4.0 + 1e-9       # certified lower bound
    assert abs(est.witness_theta) < 1e-12  # attained along the positive real axis


def test_extremal_alpha0_pre_norm_sharp_constant():
    fn = RobertsonExtremal(Alpha(0.0))
    est = weighted_sup(pre_schwarzian_evaluator(fn), 1, PLAN, r_limit=fn.radius_limit)
    assert abs(est.value - 2.0) < 1e-3
    assert est.value <= 2.0 + 1e-9


def test_koebe_schwarzian_norm():
    kb = Koebe()
    est = weighted_sup(schwarzian_evaluator(kb), 2, PLAN, r_limit=kb.radius_limit)
    assert abs(est.value - 6.0) < 1e-3
    assert est.value <= 6.0 + 1e-9


def test_norm_estimate_witness_invariant():
    kb = Koebe()
    g = schwarzian_evaluator(kb)
    est = weighted_sup(g, 2, PLAN, r_limit=kb.radius_limit)
    recomputed = weight_factor(est.witness_r, 2) * abs(g(est.witness))
    assert abs(recomputed - est.value) <= 1e-12 * max(1.0, est.value)


def test_margin_report_witness_invariant():
    hp = HalfPlane()
    alpha = Alpha(0.0)
    from disknorms.robertson import robertson_functional
    h = robertson_functional(hp, alpha)
    rep = weighted_inf_re(h, PLAN, r_limit=hp.radius_limit)
    assert abs(h(rep.witness).real - rep.inf_value) <= 1e-12 * max(1.0, abs(rep.inf_value))


def test_inf_constant():
    rep = weighted_inf_re(lambda z: 1.0 + 0j, PLAN)
    assert rep.inf_value == 1.0
    assert rep.witness == 0


def test_inf_halfplane_functional_approaches_zero_from_above():
    """Radial-limit oracle: Re (1+z)/(1-z) = (1-r)/(1+r) along z = -r, so the
    infimum over |z| <= SCAN_CEILING = R is (1-R)/(1+R), at z = -R."""
    hp = HalfPlane()
    exact = (1 - SCAN_CEILING) / (1 + SCAN_CEILING)
    vals = []
    for depth in (0, 2, 6):
        plan = SamplingPlan(refine_depth=depth)
        rep = weighted_inf_re(lambda z: (1 + z) / (1 - z), plan,
                              r_limit=hp.radius_limit)
        assert rep.inf_value >= 0.0
        vals.append(rep.inf_value)
        assert rep.witness.real < -0.9   # witness approaches the boundary near -1
    assert vals[2] <= vals[1] <= vals[0]
    assert abs(vals[2] - exact) <= 1e-12 * exact


def test_no_scan_samples_beyond_the_scan_ceiling():
    """Whatever r_limit a caller passes, every sup and inf scan keeps its
    witness on |z| <= SCAN_CEILING; the half-plane map's pre-Schwarzian and
    functional take their extrema there."""
    hp, a = HalfPlane(), Alpha(0.4)
    m = random_member(a, seed=3, degree=2)
    ev = pre_schwarzian_evaluator(hp)
    scans = scan(hp, PLAN, 1, 2) + scan(m, PLAN, 1, 2, ("margin", a), ("res_ii", a),
                                         ("res_iii", a))
    for r_limit in (1.0 - 1e-12, SCAN_CEILING, 0.5):
        scans += [weighted_sup(ev, 1, PLAN, r_limit=r_limit),
                  weighted_sup(ev, 2, PLAN, r_limit=r_limit),
                  weighted_inf_re(lambda z: (1 + z) / (1 - z), PLAN, r_limit=r_limit)]
    assert all(s.witness_r <= SCAN_CEILING for s in scans)
    assert sum(s.witness_r == SCAN_CEILING for s in scans) >= 4


def _margin_subject(kind, aval, other, zeta_arg, seed, degree, zero_f2):
    """(f, alpha) for one draw: a closed form with a rational field, or a
    generated member, checked at its own alpha or at another one."""
    a, b, zeta = Alpha(aval), Alpha(other), cmath.exp(1j * zeta_arg)
    return [(Identity(), a), (HalfPlane(), a), (Koebe(), a),
            (RobertsonExtremal(a, zeta), a), (RobertsonExtremal(b, zeta), a),
            (SpiralPower(a, zeta), a), (SpiralPower(b, zeta), a),
            (random_member(a, seed, degree, zero_f2), a),
            (random_member(b, seed, degree, zero_f2), a)][kind]


@settings(max_examples=40, deadline=None)
@given(kind=st.integers(0, 8), aval=st.floats(-1.5, 1.5), other=st.floats(-1.5, 1.5),
       zeta_arg=st.floats(-math.pi, math.pi), seed=st.integers(0, 2 ** 31 - 1),
       degree=st.integers(1, 3), zero_f2=st.booleans())
def test_circle_margin_at_most_the_grid_margin(kind, aval, other, zeta_arg, seed, degree,
                                               zero_f2):
    """The margin of a function with a rational field is scanned on the circle
    |z| = R = SCAN_CEILING alone, with its witness there, and is never above the
    2-D scan of the same functional over |z| <= R, which by the minimum
    principle cannot go below the circle's minimum.  The slack is the rounding
    of Re e^{ia}(1 + z u) where both scans reach that minimum."""
    f, a = _margin_subject(kind, aval, other, zeta_arg, seed, degree, zero_f2)
    circle = robertson_margin(f, a, PLAN)
    grid = weighted_inf_re(robertson_functional(f, a), PLAN, r_limit=_field(f, 1)[1])
    assert circle.witness_r == SCAN_CEILING
    assert abs(abs(circle.witness) - SCAN_CEILING) <= 4 * EPS
    assert circle.inf_value <= grid.inf_value + 8 * EPS * max(1.0, abs(grid.inf_value))


@settings(max_examples=40, deadline=None)
@given(aval=st.floats(-1.5, 1.5), zeta_arg=st.floats(-math.pi, math.pi))
def test_spiral_power_margin_is_exact_at_every_rotation(aval, zeta_arg):
    """SpiralPower(a, zeta) has z phi = zeta z, so its margin on |z| = r is
    cos a (1 - r^2)/|1 - zeta z|^2, least at zeta z = -r, where it is
    cos a (1 - r)/(1 + r), whatever zeta.  The circle scan finds it to 1e-9
    relative at r = 0.5 and 0.9, and robertson_margin at R = SCAN_CEILING,
    where the margin of about cos a * 5e-7 is the sum of terms of size cos a,
    so its rounding (a few eps cos a) is added to the 1e-9 relative."""
    from disknorms.disksup import circle_inf_re
    a = Alpha(aval)
    f = SpiralPower(a, cmath.exp(1j * zeta_arg))
    h = robertson_functional(f, a)
    for r in (0.5, 0.9):
        exact = a.cos * (1.0 - r) / (1.0 + r)
        assert abs(circle_inf_re(h, PLAN, r_limit=r).inf_value - exact) <= 1e-9 * exact
    R = SCAN_CEILING
    exact = a.cos * (1.0 - R) / (1.0 + R)
    rep = robertson_margin(f, a, PLAN)
    assert abs(rep.inf_value - exact) <= 1e-9 * exact + 8 * EPS * a.cos
    # the witness sits where zeta z = -R
    assert abs(cmath.phase(-rep.witness * cmath.exp(1j * zeta_arg))) < 1e-4


def test_member_margin_nonnegative():
    a = Alpha(0.8)
    m = random_member(a, seed=21, degree=3)
    rep = robertson_margin(m, a, PLAN)
    assert rep.inf_value >= -1e-6


def test_radial_profile_extremal():
    fn = RobertsonExtremal(Alpha(0.0))
    prof = radial_profile(pre_schwarzian_evaluator(fn), 1, 0.0, [0.5, 0.9, 0.99])
    # algebraic oracle: (1 - r^2) * 2r/(1 - r^2) = 2r
    for got, expected in zip(prof, [1.0, 1.8, 1.98]):
        assert abs(got - expected) < 1e-12


def test_radial_profile_at_zero_is_plain_modulus():
    prof = radial_profile(lambda z: 2j, 2, 1.0, [0.0])
    assert prof == [2.0]


def test_radial_profile_koebe_imaginary_axis_decreasing():
    kb = Koebe()
    radii = [0.1, 0.3, 0.5, 0.7, 0.9]
    prof = radial_profile(schwarzian_evaluator(kb), 2, math.pi / 2, radii)
    # substitute z = ir in -6/(1-z^2)^2: profile 6 (1-r^2)^2/(1+r^2)^2
    for got, r in zip(prof, radii):
        ref = 6 * (1 - r * r) ** 2 / (1 + r * r) ** 2
        assert abs(got - ref) < 1e-12
    assert all(a > b for a, b in zip(prof, prof[1:]))


def test_radial_profile_rejects_radius_one():
    with pytest.raises(ValueError):
        radial_profile(lambda z: z, 1, 0.0, [1.0])


def test_monotone_refinement_in_depth():
    hp = HalfPlane()
    ev = pre_schwarzian_evaluator(hp)
    values = []
    for depth in range(7):
        plan = SamplingPlan(refine_depth=depth)
        values.append(weighted_sup(ev, 1, plan, r_limit=hp.radius_limit).value)
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_nonconvergent_flag_without_refinement():
    hp = HalfPlane()
    est = weighted_sup(pre_schwarzian_evaluator(hp), 1,
                       SamplingPlan(refine_depth=0), r_limit=hp.radius_limit)
    assert est.converged is False   # stall flag, not an error
    assert est.depth_used == 0


def test_lower_bound_soundness_catalog():
    cases = []
    for aval in (0.0, math.pi / 6, -math.pi / 4, math.pi / 3):
        a = Alpha(aval)
        fn = RobertsonExtremal(a)
        cases.append((pre_schwarzian_evaluator(fn), 1, 2 * a.cos, fn.radius_limit))
        cases.append((schwarzian_evaluator(fn), 2, 2 * a.cos * (2 - a.cos), fn.radius_limit))
    hp, kb = HalfPlane(), Koebe()
    cases.append((pre_schwarzian_evaluator(hp), 1, 4.0, hp.radius_limit))
    cases.append((schwarzian_evaluator(kb), 2, 6.0, kb.radius_limit))
    for ev, k, truth, r_limit in cases:
        est = weighted_sup(ev, k, PLAN, r_limit=r_limit)
        assert est.value <= truth + 1e-9
        assert est.value >= truth - 1e-3


def test_rotation_covariance():
    kb = Koebe()
    ev = pre_schwarzian_evaluator(kb)
    base = weighted_sup(ev, 1, PLAN, r_limit=kb.radius_limit)
    for zeta in (cmath.exp(0.4j), cmath.exp(-2.2j), 1j):
        rotated = weighted_sup(lambda z: ev(zeta * z), 1, PLAN,
                               r_limit=kb.radius_limit)
        assert abs(rotated.value - base.value) <= PLAN.rel_tol * base.value


def test_workers_do_not_change_values():
    fn = RobertsonExtremal(Alpha(0.4))
    ev = schwarzian_evaluator(fn)
    est1 = weighted_sup(ev, 2, PLAN, r_limit=fn.radius_limit, workers=1)
    est4 = weighted_sup(ev, 2, PLAN, r_limit=fn.radius_limit, workers=4)
    assert est1 == est4
    a = Alpha(0.4)
    m = random_member(a, seed=3, degree=2)
    assert robertson_margin(m, a, PLAN, workers=1) == robertson_margin(m, a, PLAN, workers=3)


@pytest.mark.parametrize("m", [16, 24, 127, 128])
@pytest.mark.parametrize("r", [0.5, 0.995, 1.0 - 1e-12])
def test_ring_points_are_the_grid_points_bit_for_bit(m, r):
    def bits(zs):
        return [(z.real.hex(), z.imag.hex()) for z in zs]
    assert bits(ring_points(r, m)) == bits(_point(r, 2.0 * math.pi * j / m) for j in range(m))


@pytest.mark.parametrize("m", [16, 24, 127, 128])
def test_grid_scores_the_origin_once(m):
    """The r = 0 ring is the one point 0j, one counted sample; a witness at
    the origin stays at r = 0, theta = 0."""
    calls = []

    def g(z):
        calls.append(z)
        return 1.0 / (1.0 - z)
    rep = weighted_inf_re(g, SamplingPlan(angular_count=m), r_limit=1 - 1e-6)
    assert [(z.real.hex(), z.imag.hex()) for z in calls if z == 0] == [("0x0.0p+0",) * 2]
    assert rep.samples == len(calls) - 1
    est = scan(HalfPlane(), PLAN, 2)[0]
    assert (est.value, est.witness_r, est.witness_theta) == (0.0, 0.0, 0.0)
    assert (est.witness.real.hex(), est.witness.imag.hex()) == ("0x0.0p+0",) * 2


def test_nan_scores_never_win():
    """A NaN score wins no grid cell and blocks none after it, also as the
    first score of a ring, where a bare max() would keep it and lose the ring."""
    def g(z):  # NaN on the real axis past 0.3
        return math.nan if z.imag == 0.0 and z.real > 0.3 else 1.0 / (1.0 - z)

    def g0(z):  # NaN at the first point of every ring, and on all of the r = 0 ring
        return math.nan if z.imag == 0.0 and z.real >= 0.0 else 1.0 / (1.0 - z)
    for ev in (g, g0):
        est = weighted_sup(ev, 1, PLAN, r_limit=1 - 1e-6)
        assert (est.value, est.witness_theta) == (1.9832932687795668, 0.0007669903939428206)
        est = weighted_sup(ev, 2, PLAN, r_limit=1 - 1e-6)
        assert (est.value, est.witness_theta) == (1.1851810019266797, 0.0030679615757712823)
        rep = weighted_inf_re(ev, PLAN, r_limit=1 - 1e-6)
        assert (rep.inf_value, rep.witness_theta) == (0.500000250000125, math.pi)


# float.hex of (value, witness_r, witness_theta) of both norms at the default
# plan, scanned through the closed forms' exact rational fields
PINNED_NORMS = {
    ("robertson-extremal", 1): ("0x1.a68beef68a8d3p+0", "0x1.fff833ec20ff1p-1", "0x1.7eec8238d7e1ap+2"),
    ("robertson-extremal", 2): ("0x1.f0586bbf1a5b7p+0", "0x1.ffe131a769ed4p-1", "0x1.7eec821148625p+2"),
    ("spiral-power", 1): ("0x1.a68a7372d1c57p+1", "0x1.ffecc32b4d11ap-1", "0x1.7eec821107fc5p+2"),
    ("spiral-power", 2): ("0x1.dd2b33783bf31p+1", "0x1.fff650ceaee82p-1", "0x1.7eec82110babep+2"),
    ("koebe", 1): ("0x1.7ffff79c71f18p+2", "0x1.ffffde7210be9p-1", "0x0.0p+0"),
    ("koebe", 2): ("0x1.8000000000482p+2", "0x1.ffd6eac860568p-1", "0x0.0p+0"),
    ("halfplane", 1): ("0x1.ffffef39085f4p+1", "0x1.ffffde7210be9p-1", "0x0.0p+0"),
    ("halfplane", 2): ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}


def test_closed_form_estimates_pinned():
    """Closed forms scan their exact rational fields; the estimates, witnesses
    and the margin stay bit for bit those of that path.  The margin scans the
    circle |z| = SCAN_CEILING: 1024 ring samples, then 46 of the angle search."""
    a, zeta = Alpha(0.6), cmath.exp(0.3j)
    got = {}
    for fn in (RobertsonExtremal(a, zeta), SpiralPower(a, zeta), Koebe(), HalfPlane()):
        for ev, k in ((pre_schwarzian_evaluator(fn), 1), (schwarzian_evaluator(fn), 2)):
            est = weighted_sup(ev, k, PLAN, r_limit=fn.radius_limit)
            got[fn.name, k] = (est.value.hex(), est.witness_r.hex(), est.witness_theta.hex())
    assert got == PINNED_NORMS
    rep = robertson_margin(SpiralPower(a), a, PLAN)
    assert (rep.inf_value.hex(), rep.witness_r.hex(), rep.witness_theta.hex(), rep.samples) == (
        "0x1.bb1951e100000p-22", "0x1.ffffde7210be9p-1", "0x1.921fd86737da2p+1", 1070)


# float.hex of the margin's (inf_value, witness_r), of the T43/T44/T45
# estimates, and T41's details, at the default plan, for two generated
# members, whose scans evaluate their exact rational fields on the open disk;
# the margin is scanned on the circle |z| = SCAN_CEILING
PINNED_MEMBER_SCANS = {
    (0.5, 7, 3, False): (
        ("0x1.09785cf940000p-20", "0x1.ffffde7210be9p-1"),
        ("0x1.a7b2aa64a7c95p+0", "0x1.1a6487dabf81cp+1", "0x1.1a6487dabf81cp+1"),
        "residual minima: ii = 5.35371e-07, iii = 1.07048e-12; tolerance 1e-06; sampled "
        "membership margin 9.88953e-07 at z = (0.8728784501720785+0.48793566299891444j)"),
    (-0.9, 4, 2, True): (
        ("0x1.cf06029c80000p-21", "0x1.ffffde7210be9p-1"),
        ("0x1.a8bd2a8609162p-1", "0x1.785c9f31a2a28p+0", "0x1.785c9f31a2a28p+0"),
        "residual minima: ii = 5.51648e-07, iii = 1.10334e-12; tolerance 1e-06; sampled "
        "membership margin 8.62448e-07 at z = (0.7189536574184797+0.6950565721476141j)"),
}


def test_series_backed_scans_pinned():
    got = {}
    for key in PINNED_MEMBER_SCANS:
        aval, seed, degree, zero_f2 = key
        a = Alpha(aval)
        m = random_member(a, seed, degree, zero_second_deriv=zero_f2)
        rep = robertson_margin(m, a, PLAN)
        estimates = tuple(verify(m, a, PLAN).estimate.hex()
                          for verify in (verify_T43, verify_T44, verify_T45))
        got[key] = ((rep.inf_value.hex(), rep.witness_r.hex()), estimates,
                    verify_T41(m, a, PLAN).details)
    assert got == PINNED_MEMBER_SCANS


# (MarginReport.samples, pointwise calls) of the margin scan of each key below
PINNED_SAMPLE_COUNTS = {(0.5, 7, 3, False): (8185, 8186), (-0.9, 4, 2, True): (8313, 8314),
                        "1 + z": (8185, 8186)}


def test_scans_count_every_sample_but_the_grid_winner_rescore():
    """Every sample counts once, and the pointwise re-score of the grid
    winner does not count; each witness is _point of its polar coordinates,
    bit for bit."""
    def bits(z):
        return z.real.hex(), z.imag.hex()
    got = {}
    for key in PINNED_SAMPLE_COUNTS:
        calls = []
        if key == "1 + z":
            ev, r_limit = (lambda z: 1 + z), 1.0 - 1e-12
        else:
            aval, seed, degree, zero_f2 = key
            m = random_member(Alpha(aval), seed, degree, zero_second_deriv=zero_f2)
            ev, r_limit = _field(m, 1)

        def g(z):
            calls.append(z)
            return ev(z)
        rep = weighted_inf_re(g, PLAN, r_limit=r_limit)
        assert rep.samples == len(calls) - 1
        assert bits(rep.witness) == bits(_point(rep.witness_r, rep.witness_theta))
        got[key] = (rep.samples, len(calls))
        for k in (1, 2):
            est = weighted_sup(g, k, PLAN, r_limit=r_limit)
            assert bits(est.witness) == bits(_point(est.witness_r, est.witness_theta))
    assert got == PINNED_SAMPLE_COUNTS


def scan_path_subjects():
    """(f, alpha), built fresh, for every normalized catalog entry with
    rational fields and two more members; alpha is f's own where it has one,
    else 0.6."""
    members = [random_member(Alpha(-0.9), 4, 2, zero_second_deriv=True),
               random_member(Alpha(1.25), 13, 1)]
    fns = [fn for fn in catalog_entries()
           if fn.is_normalized and fn.pre_schwarzian_field is not None] + members
    return [(fn, fn.provenance.alpha if hasattr(fn, "provenance")
             else getattr(fn, "alpha", Alpha(0.6))) for fn in fns]


def _bits(report):
    """Every field of a scan report, floats and complex numbers by float.hex."""
    def bits(v):
        if isinstance(v, complex):
            return v.real.hex(), v.imag.hex()
        return v.hex() if isinstance(v, float) else v
    return tuple(bits(v) for v in dataclasses.astuple(report))


@pytest.mark.parametrize("i", range(len(scan_path_subjects())),
                         ids=[fn.name for fn, _ in scan_path_subjects()])
def test_ring_and_pointwise_scans_agree(i, monkeypatch):
    """Scanning rational fields one grid ring per call gives what scanning them
    point by point gives: the sups, the infimum, the margin and T41, sample
    counts included."""
    from disknorms.catalog import RationalField

    def scans(wrap):
        out = []
        for plan in (PLAN, SamplingPlan(radial_count=16, angular_count=32)):
            fn, a = scan_path_subjects()[i]
            u, s = fn.pre_schwarzian_field, fn.schwarzian_field
            reports = [weighted_sup(wrap(u), 1, plan), weighted_sup(wrap(s), 2, plan),
                       weighted_inf_re(wrap(u), plan), robertson_margin(fn, a, plan)]
            out += [_bits(rep) for rep in reports] + [verify_T41(fn, a, plan)]
        return out
    by_ring = scans(lambda field: field)
    # without RationalField.ring, every scan of these fields goes point by point
    monkeypatch.delattr(RationalField, "ring")
    assert scans(lambda field: (lambda z: field(z))) == by_ring


def test_rational_grids_take_no_pointwise_call(monkeypatch):
    """A closed form's sups evaluate every grid ring in one call:
    RationalField.__call__ first runs when refinement starts, and then once per
    counted sample and once for the uncounted re-score of the grid winner.  Its
    margin scans no grid but one circle ring, in one call, and then calls
    __call__ for the angle search and the ring winner's re-score alone."""
    from disknorms import disksup
    from disknorms.catalog import RationalField
    calls, rings, at_refine = [], [], []
    call, ring, refine = RationalField.__call__, RationalField.ring, disksup._refine

    def counted_call(self, z):
        calls.append(z)
        return call(self, z)

    def counted_ring(self, points):
        rings.append(len(points))
        return ring(self, points)

    def counted_refine(*args):
        at_refine.append(len(calls))
        return refine(*args)
    monkeypatch.setattr(RationalField, "__call__", counted_call)
    monkeypatch.setattr(RationalField, "ring", counted_ring)
    monkeypatch.setattr(disksup, "_refine", counted_refine)
    a = Alpha(0.6)
    fn = SpiralPower(a, cmath.exp(0.3j))
    for k, field in ((1, fn.pre_schwarzian_field), (2, fn.schwarzian_field)):
        calls.clear()
        weighted_sup(field, k, PLAN)
    assert at_refine == [0, 0]
    calls.clear()
    rings.clear()
    rep = robertson_margin(fn, a, PLAN)
    assert at_refine == [0, 0]
    m = disksup.CIRCLE_OVERSAMPLING * PLAN.angular_count
    assert rings == [m]
    assert len(calls) == rep.samples - m + 1
    assert rep.witness_r == SCAN_CEILING


def test_grid_ties_go_to_the_first_cell_in_scan_order():
    assert weighted_sup(lambda z: 1.0, 1, PLAN).witness_theta == 0.0
    assert weighted_inf_re(lambda z: 1.0, PLAN).witness_theta == 0.0


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(radial_count=4)
    with pytest.raises(ValueError):
        SamplingPlan(angular_count=8)
    with pytest.raises(ValueError):
        SamplingPlan(r_cap=1.0)
    with pytest.raises(ValueError):
        SamplingPlan(refine_depth=-1)
    with pytest.raises(ValueError):
        SamplingPlan(rel_tol=0.0)


def test_weight_exponent_validation():
    with pytest.raises(ValueError):
        weighted_sup(lambda z: z, 3, PLAN)


def test_random_disk_points_deterministic_and_in_radius():
    a = random_disk_points(50, seed=4, radius=0.9)
    b = random_disk_points(50, seed=4, radius=0.9)
    assert a == b
    assert all(abs(z) <= 0.9 for z in a)
    assert random_disk_points(5, seed=5) != random_disk_points(5, seed=6)
