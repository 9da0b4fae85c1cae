"""Pre-Schwarzian/Schwarzian values: closed forms, series route, exact
rational fields of closed forms and members, invariances."""

import cmath
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from disknorms import (Alpha, DerivStack, HalfPlane, Identity, Koebe, Moebius,
                       Polynomial, RobertsonExtremal, SamplingPlan, SeriesFn, SpiralPower,
                       pre_schwarzian_at, pre_schwarzian_series, random_disk_points,
                       random_member, robertson_margin, schwarzian_at,
                       schwarzian_extremal_closed, schwarzian_series)
from disknorms.catalog import CLOSED_FORM_CEILING, AnalyticFn, ZTimesDerivative
from disknorms.derivatives import _field, pre_schwarzian_of, scan, schwarzian_of
from disknorms.series import TaylorSeries
from disknorms.theorems import verify_T41


def test_pre_schwarzian_identity_zero():
    for z in random_disk_points(10, seed=1, radius=0.9):
        assert pre_schwarzian_at(Identity(), z) == 0


def test_pre_schwarzian_koebe():
    # symbolic oracle: P(z) = (4 + 2z)/(1 - z^2)
    assert abs(pre_schwarzian_at(Koebe(), 0j) - 4) < 1e-14
    for z in random_disk_points(25, seed=2, radius=0.9):
        ref = (4 + 2 * z) / (1 - z * z)
        assert abs(pre_schwarzian_at(Koebe(), z) - ref) < 1e-10 * abs(ref)


def test_pre_schwarzian_extremal_closed_form():
    for aval in (0.0, 0.7854, -1.1):
        a = Alpha(aval)
        fn = RobertsonExtremal(a)
        for z in random_disk_points(25, seed=3, radius=0.9):
            ref = 2 * a.cos * z / (1 - z * z)
            assert abs(pre_schwarzian_at(fn, z) - ref) < 1e-10 * max(1.0, abs(ref))


def test_schwarzian_annihilates_moebius():
    maps = [Moebius(1, 0.3, 0.2, 1), Moebius(2j, 1, 0.1 + 0.2j, 1),
            Moebius(1, 0, 0, 2), Moebius(0.5, -0.4j, -0.25, 1 + 1j)]
    pts = random_disk_points(100, seed=4, radius=0.9)
    for m in maps:
        for z in pts:
            assert abs(schwarzian_at(m, z)) < 1e-10


def test_schwarzian_koebe():
    # symbolic oracle: S(z) = -6/(1 - z^2)^2
    assert abs(schwarzian_at(Koebe(), 0j) + 6) < 1e-13
    for z in random_disk_points(25, seed=5, radius=0.9):
        ref = -6 / (1 - z * z) ** 2
        assert abs(schwarzian_at(Koebe(), z) - ref) < 1e-9 * abs(ref)


def test_schwarzian_extremal_at_origin():
    for aval in (0.0, math.pi / 3, -0.9):
        a = Alpha(aval)
        assert abs(schwarzian_at(RobertsonExtremal(a), 0j) - 2 * a.cos) < 1e-13


def test_schwarzian_extremal_closed_values():
    assert abs(schwarzian_extremal_closed(Alpha(0.0), 0j) - 2) < 1e-15
    assert abs(schwarzian_extremal_closed(Alpha(math.pi / 3), 0j) - 1) < 1e-15


def test_schwarzian_closed_vs_pointwise_cross_oracle():
    for aval in (0.0, 0.5, 1.2, -0.8):
        a = Alpha(aval)
        fn = RobertsonExtremal(a)
        for z in (0.3 + 0j, 0.2 - 0.4j, -0.55 + 0.1j):
            assert abs(schwarzian_at(fn, z) - schwarzian_extremal_closed(a, z)) < 1e-10


def test_series_routes_identity():
    f = Identity().taylor(order=32)
    assert all(abs(c) < 1e-15 for c in pre_schwarzian_series(f).coeffs)
    assert all(abs(c) < 1e-15 for c in schwarzian_series(f).coeffs)


def test_series_route_koebe_constant_term():
    f = Koebe().taylor(order=64)
    s = schwarzian_series(f)
    assert abs(s.coeffs[0] + 6) < 1e-12


def test_series_route_extremal_matches_closed_taylor():
    """Closed-form Taylor oracle: S = 2c sum_m (1 + m(2 - c)) z^{2m}."""
    a = Alpha(math.pi / 4)
    c = a.cos
    s = schwarzian_series(RobertsonExtremal(a).taylor(order=64))
    for k in range(32):
        expected = 2 * c * (1 + (k // 2) * (2 - c)) if k % 2 == 0 else 0.0
        assert abs(s.coeffs[k] - expected) < 1e-10


@pytest.mark.parametrize("fn_builder", [
    lambda: Identity(),
    lambda: HalfPlane(),
    lambda: Koebe(),
    lambda: RobertsonExtremal(Alpha(0.6)),
    lambda: RobertsonExtremal(Alpha(-1.2)),
    lambda: SpiralPower(Alpha(0.9), zeta=cmath.exp(0.5j)),
    lambda: Polynomial((0, 1, 0.1, 0.05j)),
], ids=["identity", "halfplane", "koebe", "extremal.6", "extremal-1.2",
        "spiral", "poly"])
def test_pointwise_vs_series_agreement(fn_builder):
    fn = fn_builder()
    sf = fn.taylor(order=256)
    for z in random_disk_points(20, seed=6, radius=0.5):
        p_point = pre_schwarzian_at(fn, z)
        p_series = pre_schwarzian_series(sf).eval(z)
        s_point = schwarzian_at(fn, z)
        s_series = schwarzian_series(sf).eval(z)
        assert abs(p_point - p_series) < 1e-10
        assert abs(s_point - s_series) < 1e-10


def _moebius_compose_stack(m: Moebius, d: DerivStack) -> DerivStack:
    """Chain rule for M o f from the stack of f, no finite differences."""
    det = m.a * m.d - m.b * m.c
    w = m.c * d.f + m.d
    m0 = (m.a * d.f + m.b) / w
    m1 = det / w ** 2
    m2 = -2 * m.c * det / w ** 3
    m3 = 6 * m.c ** 2 * det / w ** 4
    return DerivStack(
        m0,
        m1 * d.f1,
        m2 * d.f1 ** 2 + m1 * d.f2,
        m3 * d.f1 ** 3 + 3 * m2 * d.f1 * d.f2 + m1 * d.f3,
    )


def test_moebius_invariance_of_schwarzian():
    import random
    rng = random.Random(99)
    members = [random_member(Alpha(-0.9 + 0.45 * k), seed=40 + k, degree=1 + k % 3)
               for k in range(5)]
    pts = random_disk_points(8, seed=7, radius=0.5)
    checked = 0
    for _ in range(50):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        m = Moebius(a, b, c, 1.0)
        fn = members[checked % len(members)]
        for z in pts:
            d = fn.derivatives(z)
            if abs(m.c * d.f + 1.0) < 0.3:
                continue  # stay away from the composed pole
            composed = _moebius_compose_stack(m, d)
            assert abs(schwarzian_of(composed) - schwarzian_of(d)) < 1e-8
        checked += 1


def test_affine_invariance_of_pre_schwarzian():
    fn = Koebe()
    for z in random_disk_points(20, seed=8, radius=0.9):
        d = fn.derivatives(z)
        # power-of-two scaling is exact in floating point
        scaled = DerivStack(2 * d.f + 1j, 2 * d.f1, 2 * d.f2, 2 * d.f3)
        assert pre_schwarzian_of(scaled) == pre_schwarzian_of(d)
        general = DerivStack(0.7j * d.f - 3, 0.7j * d.f1, 0.7j * d.f2, 0.7j * d.f3)
        ref = pre_schwarzian_of(d)
        assert abs(pre_schwarzian_of(general) - ref) < 1e-13 * max(1.0, abs(ref))


# -- exact fields of generated members -------------------------------------------

@settings(max_examples=25, deadline=None)
@given(aval=st.floats(-1.3, 1.3), seed=st.integers(0, 2 ** 31 - 1),
       degree=st.integers(1, 3), zero_f2=st.booleans())
def test_member_fields_match_series_quotients(aval, seed, degree, zero_f2):
    """Two paths: the exact rational u = f''/f' and S_f of a member against
    the quotient series of its Taylor series, on |z| <= 0.9.  The agreement
    is relative to sum |c_n| |z|^n, the scale of the series' rounding and
    truncation error."""
    m = random_member(Alpha(aval), seed, degree, zero_f2)
    points = random_disk_points(16, seed=seed, radius=0.9)
    points += [cmath.rect(0.9, 2 * math.pi * j / 16) for j in range(16)]
    for k, series in ((1, pre_schwarzian_series(m)), (2, schwarzian_series(m))):
        field, r_limit = _field(m, k)
        assert r_limit == CLOSED_FORM_CEILING
        for z in points:
            scale = sum(abs(c) * abs(z) ** n for n, c in enumerate(series.coeffs))
            assert abs(field(z) - series.eval(z)) <= 1e-10 * scale


def test_plain_series_fn_scans_its_quotient_series_to_the_guard_radius():
    m = random_member(Alpha(0.5), 3, 2)
    plain = SeriesFn(m.series)
    for k, series in ((1, pre_schwarzian_series(plain)), (2, schwarzian_series(plain))):
        field, r_limit = _field(plain, k)
        assert r_limit == plain.radius_limit == 0.95
        assert field(0.3 - 0.4j) == series.eval(0.3 - 0.4j)


def test_member_taylor_is_its_series_scanned_to_the_guard_radius():
    """Like every other kind's, a member's series form is a SeriesFn whose
    scans stop at the guard radius, not the member with its exact fields."""
    m = random_member(Alpha(0.5), 3, 2)
    t = m.taylor()
    assert type(t) is SeriesFn
    assert t.series is m.series
    assert _field(t, 1)[1] == 0.95



def test_member_taylor_builds_the_requested_order_and_guard_radius():
    m = random_member(Alpha(0.5), 3, 2)
    t = m.taylor(order=32, guard_radius=0.5)
    assert (t.series.order, t.series.guard_radius) == (32, 0.5)
    for c, ref in zip(t.series.coeffs, m.series.coeffs):
        assert abs(c - ref) <= 1e-14 * max(1.0, abs(ref))


def _estimate_bits(est):
    """Every field of a NormEstimate, floats by float.hex."""
    return (est.value.hex(), est.witness.real.hex(), est.witness.imag.hex(), est.witness_r.hex(),
            est.witness_theta.hex(), est.weight_exponent, est.converged, est.depth_used)


def _both_norms(scan):
    """The bits of both estimates scan() returns (a list), or the type and
    message of the exception it raises (a tuple)."""
    try:
        return [_estimate_bits(e) for e in scan()]
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)


def _assert_one_pass_equals_two_scans(build, plan):
    """scan(f, plan, 1, 2) against two single-norm scans, each side on a fresh
    f = build(), since scan's memo would return the first side's reports."""
    assert (_both_norms(lambda: scan(build(), plan, 1, 2))
            == _both_norms(lambda: [scan(build(), plan, k)[0] for k in (1, 2)])), build().name


@settings(max_examples=15, deadline=None)
@given(aval=st.floats(-1.5, 1.5), theta=st.floats(-math.pi, math.pi))
@example(aval=0.6, theta=math.pi / 128)
def test_weighted_norms_of_rotated_closed_forms_equal_two_single_scans(aval, theta):
    for i in range(5):
        _assert_one_pass_equals_two_scans(
            lambda: _closed_forms(Alpha(aval), cmath.exp(1j * theta))[i], SamplingPlan())


@settings(max_examples=20, deadline=None)
@given(aval=st.floats(-1.3, 1.3), seed=st.integers(0, 2 ** 31 - 1),
       degree=st.integers(1, 3), zero_f2=st.booleans())
def test_weighted_norms_of_members_equal_two_single_scans(aval, seed, degree, zero_f2):
    _assert_one_pass_equals_two_scans(lambda: random_member(Alpha(aval), seed, degree, zero_f2),
                                      SamplingPlan())


def test_weighted_norms_without_rational_fields_are_two_single_scans():
    """Kinds without rational fields give the two scans' results, or raise
    their exception: f' = 0 at the first grid point, a pole there, and a
    series that is not normalized."""
    plan = SamplingPlan(radial_count=16, angular_count=32)
    builds = [lambda: Moebius(1.0, 0.3, 0.2, 1.0), lambda: Polynomial((0, 1, 0.2, -0.1j, 0.05)),
              lambda: ZTimesDerivative(Koebe()), lambda: Koebe().taylor(),
              lambda: Polynomial((0, 0, 1)), lambda: Moebius(1, 1, 1, 0),
              lambda: SeriesFn(TaylorSeries([0, 2, 1]), require_normalized=False)]
    for i, build in enumerate(builds):
        assert build().pre_schwarzian_field is None
        _assert_one_pass_equals_two_scans(build, plan)
        raises = type(_both_norms(lambda: scan(build(), plan, 1, 2))) is tuple
        assert raises == (i >= 4)


def _scan_subjects(a: Alpha):
    """Fresh functions of every field path: rational fields sharing one
    denominator, rational fields that do not (the half-plane map's zero
    Schwarzian), a quotient series and the guarded jet."""
    return [random_member(a, 5, 2), SpiralPower(a, cmath.exp(0.3j)), HalfPlane(),
            random_member(a, 5, 2).taylor(), Polynomial((0, 1, 0.2, -0.1j, 0.05))]


def test_repeated_scan_evaluates_nothing(monkeypatch):
    """Once scanned, every objective comes from the memo on f, in the order
    asked: a repeat takes no field and calls no disksup entry, and gives the
    very reports of the first call."""
    from disknorms import derivatives
    a, plan = Alpha(0.6), SamplingPlan(radial_count=16, angular_count=32)
    objectives = [1, 2, ("margin", a), ("res_ii", a), ("res_iii", a)]
    fns = _scan_subjects(a)
    first = [scan(fn, plan, *objectives) for fn in fns]

    def refuse(*args, **kwargs):
        raise AssertionError("a memoized objective was scanned again")
    for name in ("_field", "weighted_sup", "weighted_sups", "weighted_inf_re", "circle_inf_re"):
        monkeypatch.setattr(derivatives, name, refuse)
    for fn, reports in zip(fns, first):
        again = scan(fn, plan, *objectives[::-1])
        assert list(map(id, again)) == list(map(id, reports[::-1])), fn.name
        assert list(map(id, scan(fn, plan, ("margin", Alpha(0.6)), 2, 2))) == [
            id(reports[2]), id(reports[1]), id(reports[1])]


def test_scan_order_of_objectives_only_orders_the_reports():
    """scan(f, plan, 2, 1) is scan(f, plan, 1, 2) reversed, bit for bit, each
    on a fresh f, on every field path."""
    a, plan = Alpha(-0.4), SamplingPlan(radial_count=16, angular_count=32)
    for fn, other in zip(_scan_subjects(a), _scan_subjects(a)):
        assert ([_estimate_bits(e) for e in scan(fn, plan, 2, 1)]
                == [_estimate_bits(e) for e in scan(other, plan, 1, 2)[::-1]]), fn.name


# (alpha, seed, degree, f''(0) = 0) of members whose Schwarzian norm scans end
# 2.4e-8 from the circle, where Horner on the expanded square of den - z num
# was off by 0.25 and 0.031
NEAR_POLE_MEMBERS = ((-0.5473124079407211, 139590857, 1, False),
                     (0.9503431499919908, 1568547600, 2, True))


def test_member_fields_match_self_map_near_the_circle():
    """On |z| = 0.999999, beyond any series, and at the witnesses of the
    Schwarzian norm scans, most of them next to a pole on the circle, the
    exact fields agree with u = 2b phi/(1 - z phi) and with the weighted
    Schwarzian of test_acceptance.exact_weighted_schwarzian, both from the
    self-map."""
    from test_acceptance import exact_weighted_schwarzian
    r = 0.999999
    members = [(-1.2 + 0.2 * i, 200 + i, 1 + i % 3, bool(i % 2)) for i in range(12)]
    for aval, seed, degree, zero_f2 in members + list(NEAR_POLE_MEMBERS):
        a = Alpha(aval)
        b = cmath.exp(-1j * a.value) * a.cos
        m = random_member(a, seed, degree, zero_f2)
        est = scan(m, SamplingPlan(), 2)[0]
        exact = exact_weighted_schwarzian(m, a, est.witness)
        assert abs(est.value - exact) <= 1e-6 * max(1.0, exact)
        for j in range(256):
            z = cmath.rect(r, 2 * math.pi * j / 256)
            phi = m.provenance.phi(z)
            u = 2 * b * phi / (1 - z * phi)
            assert abs(m.pre_schwarzian_field(z) - u) <= 1e-9 * abs(u)
            exact = exact_weighted_schwarzian(m, a, z)
            weighted = ((1 - r) * (1 + r)) ** 2 * abs(m.schwarzian_field(z))
            assert abs(weighted - exact) <= 1e-9 * max(1.0, exact)


# -- exact fields of the closed forms --------------------------------------------

def _closed_forms(a: Alpha, zeta: complex):
    return (Identity(), HalfPlane(), Koebe(), RobertsonExtremal(a, zeta), SpiralPower(a, zeta))


@settings(max_examples=60, deadline=None)
@given(aval=st.floats(-1.5, 1.5), zeta_arg=st.floats(-math.pi, math.pi),
       r=st.floats(0.0, 0.99), theta=st.floats(-math.pi, math.pi))
def test_closed_form_fields_match_derivative_stacks(aval, zeta_arg, r, theta):
    """Two paths: each closed form's rational f''/f' and S_f against the
    derivative-stack formulas pre_schwarzian_at and schwarzian_at."""
    z = cmath.rect(r, theta)
    for fn in _closed_forms(Alpha(aval), cmath.exp(1j * zeta_arg)):
        for field, at in ((fn.pre_schwarzian_field, pre_schwarzian_at),
                          (fn.schwarzian_field, schwarzian_at)):
            value = at(fn, z)
            assert abs(field(z) - value) <= 1e-9 * max(1.0, abs(value))


@pytest.mark.parametrize("aval", [0.0, 0.3, -0.7, 1.2, -1.4])
def test_closed_form_norms_at_zeta_one_match_exact_values(aval):
    """The scans reach the exact norms from below: 2c and 2c(2-c) for the
    extremal, 4c and 8c|sin a| for the spiral power, 6 and 6 for Koebe,
    4 and 0 for the half-plane map (c = cos a)."""
    a = Alpha(aval)
    c, s = a.cos, abs(math.sin(aval))
    plan = SamplingPlan()
    for fn, exact_norms in ((RobertsonExtremal(a), (2 * c, 2 * c * (2 - c))),
                            (SpiralPower(a), (4 * c, 8 * c * s)),
                            (Koebe(), (6.0, 6.0)), (HalfPlane(), (4.0, 0.0))):
        for k, exact in zip((1, 2), exact_norms):
            value = scan(fn, plan, k)[0].value
            assert exact - 1e-3 <= value <= exact + 1e-9, (fn.name, k)


@settings(max_examples=15, deadline=None)
@given(aval=st.floats(-1.5, 1.5), theta=st.floats(-math.pi, math.pi))
@example(aval=0.6, theta=math.pi / 128)
def test_rotated_norm_estimates_never_exceed_the_exact_norms(aval, theta):
    """A rotation zeta = e^{i theta} leaves the norms 2c and 2c(2-c) of the
    extremal and 4c and 8c|sin a| of the spiral power unchanged, and every
    estimate is a lower bound of its norm; at theta = pi/128 the maxima lie
    half a grid step off the scan's rays."""
    a, zeta = Alpha(aval), cmath.exp(1j * theta)
    c, s = a.cos, abs(math.sin(aval))
    plan = SamplingPlan()
    for fn, exact_norms in ((RobertsonExtremal(a, zeta), (2 * c, 2 * c * (2 - c))),
                            (SpiralPower(a, zeta), (4 * c, 8 * c * s))):
        for k, exact in zip((1, 2), exact_norms):
            assert scan(fn, plan, k)[0].value <= exact + 1e-9, (fn.name, k)


def test_field_picks_the_path_by_what_f_provides():
    a, zeta = Alpha(0.6), cmath.exp(0.3j)
    for fn in _closed_forms(a, zeta):
        assert _field(fn, 1) == (fn.pre_schwarzian_field, CLOSED_FORM_CEILING)
        assert _field(fn, 2) == (fn.schwarzian_field, CLOSED_FORM_CEILING)
    z = 0.3 - 0.4j
    for fn in (Polynomial((0, 1, 0.1)), Moebius(1, 0, 0.2, 1),
               ZTimesDerivative(SpiralPower(a, zeta))):
        assert fn.pre_schwarzian_field is None and fn.schwarzian_field is None
        for k, at in ((1, pre_schwarzian_at), (2, schwarzian_at)):
            point, r_limit = _field(fn, k)
            assert r_limit == fn.radius_limit
            assert point(z) == at(fn, z)


def test_closed_form_scans_evaluate_no_derivative_stack(monkeypatch):
    """Norm scans (both in one pass, and one at a time), margin and T41
    residual scans of the closed forms evaluate their rational fields only,
    never jet."""
    def refuse(self, z, lo=0, hi=3):
        raise AssertionError(f"{self.name}: jet({z!r}, {lo}, {hi}) called")
    monkeypatch.setattr(AnalyticFn, "jet", refuse)
    with pytest.raises(AssertionError):
        pre_schwarzian_at(Koebe(), 0.5)
    a, plan = Alpha(0.6), SamplingPlan()
    for zeta in (1.0, cmath.exp(0.3j)):
        for fn, single in zip(_closed_forms(a, zeta), _closed_forms(a, zeta)):
            scan(fn, plan, 1, 2)
            scan(single, plan, 1)
            scan(single, plan, 2)
            robertson_margin(fn, a, plan)
            verify_T41(fn, a, plan)
