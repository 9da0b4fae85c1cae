"""Catalog evaluation: exact stacks, finite-difference cross-checks, generator."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from disknorms import (Alpha, AnalyticFn, HalfPlane, Identity, Koebe, Moebius, RationalField,
                       RobertsonExtremal, SeriesFn, SpiralPower, TaylorSeries,
                       NonFiniteValue, OutsideGuardRadius, VanishingDerivative, eval_derivatives,
                       SamplingPlan, quadrature_complex, random_disk_points, random_member,
                       second_deriv_origin)
from disknorms.derivatives import scan
from disknorms.disksup import ring_points
from fixtures import Polynomial, ZTimesDerivative

FD_STEP = 1e-5


def central_diff(fn, z, h=FD_STEP):
    return (fn(z + h) - fn(z - h)) / (2 * h)


def catalog_entries():
    return [
        Identity(),
        HalfPlane(),
        Koebe(),
        RobertsonExtremal(Alpha(0.6)),
        RobertsonExtremal(Alpha(-1.1), zeta=cmath.exp(0.4j)),
        SpiralPower(Alpha(-0.4), zeta=cmath.exp(0.7j)),
        Moebius(1.0, 0.3, 0.2, 1.0),
        Polynomial((0, 1, 0.2, -0.1j, 0.05)),
        random_member(Alpha(0.9), seed=11, degree=2),
    ]


def scannable(fn):
    """fn, or the series form of a test-only kind, which has neither a
    rational field nor a series of f''/f' for a scan to take."""
    return fn.taylor() if isinstance(fn, Polynomial) else fn


def test_identity_stack():
    d = eval_derivatives(Identity(), 0.3 + 0.1j)
    assert d.f == 0.3 + 0.1j
    assert d.f1 == 1
    assert d.f2 == 0
    assert d.f3 == 0


def test_koebe_stack_at_origin():
    d = eval_derivatives(Koebe(), 0j)
    assert d.f == 0
    assert d.f1 == 1
    assert abs(d.f2 - 4) < 1e-14
    assert abs(d.f3 - 18) < 1e-14


def test_extremal_normalization_at_origin():
    for aval in (0.0, 0.7, -1.2):
        d = eval_derivatives(RobertsonExtremal(Alpha(aval)), 0j)
        assert abs(d.f) < 1e-14
        assert abs(d.f1 - 1) < 1e-14
        assert abs(d.f2) < 1e-14


@pytest.mark.parametrize("fn", catalog_entries(), ids=lambda f: f.name)
def test_finite_difference_oracle(fn):
    """f', f'' to relative 1e-6 and f''' to 1e-4 against central differences."""
    pts = random_disk_points(100, seed=37, radius=0.9)
    for z in pts:
        d = fn.derivatives(z)
        fd1 = central_diff(lambda w: fn.derivatives(w).f, z)
        fd2 = central_diff(lambda w: fn.derivatives(w).f1, z)
        fd3 = central_diff(lambda w: fn.derivatives(w).f2, z)
        assert abs(fd1 - d.f1) <= 1e-6 * max(1.0, abs(d.f1))
        assert abs(fd2 - d.f2) <= 1e-6 * max(1.0, abs(d.f2))
        assert abs(fd3 - d.f3) <= 1e-4 * max(1.0, abs(d.f3))


@pytest.mark.parametrize("fn", catalog_entries(), ids=lambda f: f.name)
def test_fourth_derivative_oracle(fn):
    if isinstance(fn, Identity):
        return
    for z in random_disk_points(25, seed=11, radius=0.85):
        fd4 = central_diff(lambda w: fn.derivatives(w).f3, z)
        f4 = fn.jet(z, 4, 4)[0]
        assert abs(fd4 - f4) <= 1e-4 * max(1.0, abs(f4))


def test_jet_guards_every_order():
    """Outside the guard radius and at a pole, jet raises for every order
    instead of returning a value."""
    poly = Polynomial((0, 1, 0, 0, 0, 1))
    pole = Moebius(1, 0, -2, 1)
    for lo, hi in ((1, 3), (4, 4), (0, 0)):
        for fn, z in ((Identity(), 5), (poly, 2.0)):
            with pytest.raises(OutsideGuardRadius):
                fn.jet(z, lo, hi)
        with pytest.raises(NonFiniteValue):
            pole.jet(0.5, lo, hi)


def test_jet_reports_division_by_zero_and_overflow_as_non_finite():
    """A subclass gives only the unguarded _derivative; a division by zero or
    an overflow in it reaches the caller as NonFiniteValue, for every order."""
    class Pole(AnalyticFn):
        name = "pole"

        def _derivative(self, z, k):
            return (-1) ** k * math.factorial(k) / (z - 0.5) ** (k + 1)

    assert Pole().jet(0j, 0, 1) == (-2, -4)
    for lo, hi in ((0, 0), (1, 3), (4, 4)):
        with pytest.raises(NonFiniteValue):
            Pole().jet(0.5, lo, hi)
    with pytest.raises(NonFiniteValue):
        HalfPlane().jet(0.5, 200, 200)  # 200! does not fit a float


def test_rational_field_takes_power_one_or_two_only():
    """num/den^power is evaluated for power 1 and 2 only, so any other power
    is refused instead of being evaluated as 2."""
    assert RationalField([1], [1, -1])(0.5) == 2
    assert RationalField([1], [1, -1], power=2)(0.5) == 4
    for power in (0, 3, -1):
        with pytest.raises(ValueError, match="power"):
            RationalField([1], [1, -1], power=power)


def test_schwarzian_field_is_derived_from_the_pre_schwarzian_field_only():
    """AnalyticFn.schwarzian_field is RationalField.schwarzian of f''/f' = P/Q,
    (P'Q - PQ' - P^2/2)/Q^2; no kind writes its own.  Integer coefficients
    round nothing, so Koebe's is exactly -6/(1 - z^2)^2 and the half-plane
    map's is the zero field 0/1."""
    from disknorms.catalog import GeneratedMember
    for cls in (Identity, HalfPlane, Koebe, RobertsonExtremal, SpiralPower, Moebius,
                GeneratedMember):
        assert "schwarzian_field" not in vars(cls)
    kb = Koebe()
    assert kb.schwarzian_field is kb.schwarzian_field
    assert kb.schwarzian_field.num == (-6,)
    assert kb.schwarzian_field.den == kb.pre_schwarzian_field.den
    assert kb.schwarzian_field.power == 2
    for fn in (HalfPlane(), Identity()):
        assert (fn.schwarzian_field.num, fn.schwarzian_field.den) == ((0,), (1,))
    assert Polynomial((0, 1, 0.1)).schwarzian_field is None
    with pytest.raises(ValueError, match="P/Q"):
        RationalField([1], [1, -1], power=2).schwarzian()


def test_series_fourth_derivative_series_built_once():
    """jet(z, 4, 4) evaluates one cached series, bit for bit the rebuilt
    third-derivative series' diff(), and the spirallike margin of z f' is
    pinned."""
    from disknorms import SamplingPlan, spirallike_margin
    m = random_member(Alpha(0.4), 3, 2, True)
    for z in random_disk_points(25, seed=19, radius=0.95):
        (f4,), ref = m.jet(z, 4, 4), m._diff(3).diff().eval(z)
        assert (f4.real.hex(), f4.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    assert m._diff(4) is m._diff(4)
    rep = spirallike_margin(ZTimesDerivative(m), Alpha(0.4),
                            SamplingPlan(radial_count=16, angular_count=32))
    assert (rep.inf_value.hex(), rep.witness_r.hex(), rep.witness_theta.hex(), rep.samples) == (
        "0x1.10cb02713f4c1p-4", "0x1.e666666666666p-1", "0x1.02655ffa5cefap+2", 721)


def test_z_times_derivative_takes_one_base_jet_per_jet(monkeypatch):
    """ZTimesDerivative.jet(z, lo, hi) asks its base once, for the orders
    max(lo, 1)..hi + 1, and gives the values of g = z f' and
    g^(k) = k f^(k) + z f^(k+1) from one base order each, bit for bit; the
    base's f' guard applies exactly when g needs f' (lo <= 1)."""
    m = random_member(Alpha(0.4), 3, 2, True)
    g = ZTimesDerivative(m)
    z = 0.3 + 0.4j

    def per_order(k):
        if k == 0:
            return z * m.jet(z, 1, 1)[0]
        fk, fk1 = m.jet(z, k, k + 1)
        return k * fk + z * fk1
    orders = [(0, 3), (0, 0), (1, 2), (2, 2), (1, 3), (2, 4)]
    want = {(lo, hi): [per_order(k) for k in range(lo, hi + 1)] for lo, hi in orders}
    calls, jet = [], m.jet

    def counted(z, lo=0, hi=3):
        calls.append((lo, hi))
        return jet(z, lo, hi)
    monkeypatch.setattr(m, "jet", counted)
    for lo, hi in orders:
        calls.clear()
        got = g.jet(z, lo, hi)
        assert calls == [(max(lo, 1), hi + 1)]
        assert [(v.real.hex(), v.imag.hex()) for v in got] == [
            (v.real.hex(), v.imag.hex()) for v in want[lo, hi]]
    # f' = 1 - 2z vanishes at z = 1/2, where g' = 1 - 4z does not
    g = ZTimesDerivative(Polynomial((0, 1, -1)))
    for lo, hi in ((0, 0), (1, 1), (0, 3)):
        with pytest.raises(VanishingDerivative):
            g.jet(0.5, lo, hi)
    assert g.jet(0.5, 2, 3) == (-4, 0)


def _extremal_per_order(fn, z, k):
    """f^(k)(z), k >= 1, of RobertsonExtremal from its formula for that order alone."""
    zt, c = fn.zeta, fn.alpha.cos
    w = zt * z
    g = 1.0 - w * w
    fp = cmath.exp(-c * cmath.log(1.0 - w * w))
    return (fp, zt * 2 * c * w * fp / g,
            zt * zt * 2 * c * (1 + (2 * c + 1) * w * w) * fp / (g * g),
            zt ** 3 * 4 * c * (c + 1) * w * (3 + (2 * c + 1) * w * w) * fp / (g * g * g))[k - 1]


def _spiral_per_order(fn, z, k):
    """f^(k)(z) of SpiralPower from its formula for that order alone."""
    b, zt = fn.exponent, fn.zeta
    logw = cmath.log(1.0 - zt * z)
    if k == 0:
        return (cmath.exp((1 - b) * logw) - 1.0) / (zt * (b - 1))
    rising = 1
    for j in range(k - 1):
        rising *= b + j
    return rising * zt ** (k - 1) * cmath.exp(-(b + (k - 1)) * logw)


@settings(max_examples=40, deadline=None)
@given(aval=st.floats(-1.5, 1.5), theta=st.floats(-math.pi, math.pi),
       r=st.floats(0.0, 0.999), t=st.floats(-math.pi, math.pi))
def test_extremal_family_jets_match_per_order_formulas(aval, theta, r, t):
    """RobertsonExtremal and SpiralPower compute the factor their orders share
    once per jet; each order stays bit for bit its own formula's value."""
    a, zeta = Alpha(aval), cmath.exp(1j * theta)
    z = complex(r * math.cos(t), r * math.sin(t))
    for fn, per_order, first in ((RobertsonExtremal(a, zeta), _extremal_per_order, 1),
                                 (SpiralPower(a, zeta), _spiral_per_order, 0)):
        for lo in range(first, 5):
            for hi in range(lo, 5):
                assert _hex(fn.jet(z, lo, hi)) == _hex(
                    [per_order(fn, z, k) for k in range(lo, hi + 1)]), (fn.name, lo, hi)


def test_extremal_alpha0_matches_artanh():
    """f_0(z) = (1/2) log((1+z)/(1-z)); the quadrature value must agree."""
    fn = RobertsonExtremal(Alpha(0.0))
    for z in random_disk_points(25, seed=5, radius=0.9):
        ref = 0.5 * cmath.log((1 + z) / (1 - z))
        assert abs(fn.value(z) - ref) < 1e-9


def test_spiral_power_value_is_primitive_of_fprime():
    fn = SpiralPower(Alpha(0.8), zeta=cmath.exp(-0.3j))
    for z in random_disk_points(25, seed=6, radius=0.85):
        fd = central_diff(lambda w: fn.derivatives(w).f, z)
        assert abs(fd - fn.derivatives(z).f1) < 1e-6 * max(1.0, abs(fn.derivatives(z).f1))
    assert abs(fn.value(0)) == 0


def test_taylor_agrees_with_value_inside_half_disk():
    for fn in catalog_entries():
        if isinstance(fn, SeriesFn):
            continue
        series_fn = fn.taylor(order=128)
        for z in random_disk_points(20, seed=23, radius=0.5):
            assert abs(series_fn.value(z) - fn.value(z)) < 1e-10, fn.name


def _estimate_bits(est):
    """Every field of a NormEstimate, floats by float.hex."""
    return (est.value.hex(), est.witness.real.hex(), est.witness.imag.hex(), est.witness_r.hex(),
            est.witness_theta.hex(), est.weight_exponent, est.converged, est.depth_used)


@pytest.mark.parametrize("i", range(len(catalog_entries())),
                         ids=[fn.name for fn in catalog_entries()])
def test_weighted_norms_equal_two_single_scans(i):
    """The one grid pass of both norms gives each estimate bit for bit; each
    side scans a fresh function, since scan's memo would return the first
    side's reports.  A polynomial is scanned by its series form."""
    plan = SamplingPlan()
    assert ([_estimate_bits(e) for e in scan(scannable(catalog_entries()[i]), plan, 1, 2)]
            == [_estimate_bits(scan(scannable(catalog_entries()[i]), plan, k)[0])
                for k in (1, 2)])


def test_second_deriv_origin_examples():
    assert abs(second_deriv_origin(HalfPlane()) - 2) < 1e-14
    assert abs(second_deriv_origin(Koebe()) - 4) < 1e-14
    member = random_member(Alpha(0.4), seed=2, degree=3, zero_second_deriv=True)
    assert second_deriv_origin(member) == 0


def test_second_deriv_origin_requires_normalization():
    with pytest.raises(ValueError):
        second_deriv_origin(Moebius(1, 1, 0, 1))


def test_outside_guard_radius():
    member = random_member(Alpha(0.1), seed=0, degree=1)
    with pytest.raises(OutsideGuardRadius):
        member.derivatives(0.96)
    with pytest.raises(OutsideGuardRadius):
        Koebe().derivatives(1.0 + 1e-6)


def _hex(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


# the origin with each sign of each zero
SIGNED_ORIGINS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


def _assert_rings_match_calls(field: RationalField, r: float, m: int):
    """field.ring gives field(z) bit for bit on a grid ring, the r = 0 ring
    of the scans, and each signed origin."""
    for points in (ring_points(r, m), [0j], SIGNED_ORIGINS):
        assert _hex(field.ring(points)) == _hex(list(map(field, points))), (r, m, points)


@settings(max_examples=40, deadline=None)
@given(aval=st.floats(-1.5, 1.5), theta=st.floats(-math.pi, math.pi),
       r=st.floats(0.0, 1.0 - 1e-12), m=st.integers(16, 160))
def test_closed_form_field_rings_equal_their_calls(aval, theta, r, m):
    a, zeta = Alpha(aval), cmath.exp(1j * theta)
    for fn in (Identity(), HalfPlane(), Koebe(), RobertsonExtremal(a, zeta),
               SpiralPower(a, zeta)):
        for field in (fn.pre_schwarzian_field, fn.schwarzian_field):
            _assert_rings_match_calls(field, r, m)


@settings(max_examples=40, deadline=None)
@given(aval=st.floats(-1.5, 1.5), seed=st.integers(0, 2 ** 31 - 1), degree=st.integers(1, 3),
       zero_f2=st.booleans(), r=st.floats(0.0, 1.0 - 1e-12), m=st.integers(16, 160))
def test_member_field_rings_equal_their_calls(aval, seed, degree, zero_f2, r, m):
    fn = random_member(Alpha(aval), seed, degree, zero_second_deriv=zero_f2)
    for field in (fn.pre_schwarzian_field, fn.schwarzian_field):
        _assert_rings_match_calls(field, r, m)


def test_field_ring_raises_as_its_calls_do_at_a_pole():
    """The half-plane field 2/(1 - z) has its pole at z = 1; a ring through it
    raises the exception that the call there raises."""
    field = HalfPlane().pre_schwarzian_field
    points = [0.5 + 0j, 1.0 + 0j, -0.5j]
    with pytest.raises(ZeroDivisionError) as by_call:
        list(map(field, points))
    with pytest.raises(ZeroDivisionError) as by_ring:
        field.ring(points)
    assert str(by_ring.value) == str(by_call.value)


@pytest.mark.parametrize("fn", catalog_entries(), ids=lambda f: f.name)
def test_jet_slices_match_the_full_jet_exactly(fn):
    """jet(z, lo, hi) computes each order as jet(z, 0, 4) does, bit for bit."""
    for z in random_disk_points(10, seed=5, radius=0.9) + [0j]:
        full = fn.jet(z, 0, 4)
        for lo in range(5):
            for hi in range(lo, 5):
                assert _hex(fn.jet(z, lo, hi)) == _hex(full[lo:hi + 1]), (z, lo, hi)
        d = fn.derivatives(z)
        assert _hex((d.f, d.f1, d.f2, d.f3)) == _hex(full[:4])
        assert _hex([fn.value(z)]) == _hex(full[:1])


def test_jet_computes_only_the_orders_asked_for(monkeypatch):
    """The first three derivatives of the extremal family run no quadrature,
    and a member's f' builds the derivative series of order 1 only."""
    import disknorms.catalog as catalog

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature_complex called")
    fn = RobertsonExtremal(Alpha(0.6), zeta=cmath.exp(0.4j))
    with monkeypatch.context() as m:
        m.setattr(catalog, "quadrature_complex", refuse)
        for z in random_disk_points(5, seed=8, radius=0.9):
            fn.jet(z, 1, 3)
        with pytest.raises(AssertionError):
            fn.jet(0.5, 0, 0)
    member = random_member(Alpha(0.3), seed=4, degree=2)
    member.jet(0.5j, 1, 1)
    assert len(member._diffs) == 2
    member.jet(0.5j, 1, 3)
    assert len(member._diffs) == 4


def test_jet_guards_f_prime_only_when_it_returns_it():
    """f' = 1 - 2z vanishes at z = 1/2: an order range holding f' raises
    VanishingDerivative there, one without it returns its values."""
    bad = Polynomial((0, 1, -1))
    for lo, hi in ((0, 1), (1, 1), (1, 3)):
        with pytest.raises(VanishingDerivative):
            bad.jet(0.5, lo, hi)
    assert bad.jet(0.5, 2, 3) == (-2, 0)
    assert bad.value(0.5) == 0.25


def test_series_fprime_matches_jet_with_its_guards():
    member = random_member(Alpha(0.3), seed=4, degree=2)
    d1 = member._diff(1)
    for z in random_disk_points(20, seed=6, radius=0.95):
        assert member.jet(z, 1, 1)[0] == d1.eval(z)
    with pytest.raises(OutsideGuardRadius):
        member.jet(0.96, 1, 3)
    bad = Polynomial((0, 1, -1.0)).taylor()
    with pytest.raises(VanishingDerivative):
        bad.jet(0.5 + 0j, 1, 3)


@pytest.mark.parametrize("aval,seed,degree,zero_f2", [
    (-1.3, 702, 1, True), (0.5, 3, 3, True), (0.9, 11, 2, False), (-0.7, 25, 3, False)])
def test_member_values_match_ray_quadrature_of_the_self_map(aval, seed, degree, zero_f2):
    """f' and f of a member against a series-free evaluation from its
    generating self-map: u = 2b phi/(1 - z phi) is f''/f', so
    f'(z) = exp(int_0^1 u(tz) z dt) and f(z) = int_0^1 f'(tz) z dt."""
    a = Alpha(aval)
    m = random_member(a, seed, degree, zero_f2)
    two_b = 2 * cmath.exp(-1j * aval) * a.cos
    phi = m.provenance.phi

    def u(w):
        p = phi(w)
        return two_b * p / (1 - w * p)

    def fprime(z):
        return cmath.exp(quadrature_complex(lambda t: u(t * z) * z, 0.0, 1.0, 1e-14))

    for z in random_disk_points(5, seed=seed, radius=0.9) + [0.9 * cmath.exp(1j * seed)]:
        want = fprime(z)
        assert abs(m.jet(z, 1, 1)[0] - want) <= 1e-12 * abs(want)
        want = quadrature_complex(lambda t: fprime(t * z) * z, 0.0, 1.0, 1e-14)
        assert abs(m.value(z) - want) <= 1e-12 * max(1.0, abs(want))


def test_vanishing_derivative_detected():
    # f' = 1 - 2z vanishes at z = 1/2, well inside the disk
    bad = Polynomial((0, 1, -1.0))
    with pytest.raises(VanishingDerivative):
        bad.derivatives(0.5 + 0j)


def test_alpha_range_validation():
    with pytest.raises(ValueError):
        Alpha(math.pi / 2)
    with pytest.raises(ValueError):
        Alpha(-math.pi / 2)
    assert Alpha(0.5).cos == math.cos(0.5)


@pytest.mark.parametrize("cls", [RobertsonExtremal, SpiralPower])
@pytest.mark.parametrize("zeta", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                  complex(math.inf, 0.0), 1.5j])
def test_rotation_must_be_unimodular_and_finite(cls, zeta):
    with pytest.raises(ValueError, match="unimodular"):
        cls(Alpha(0.3), zeta)


def test_moebius_requires_nonzero_determinant():
    with pytest.raises(ValueError):
        Moebius(1, 2, 1, 2)


def test_random_member_determinism():
    a = Alpha(0.5)
    m1 = random_member(a, seed=7, degree=3)
    m2 = random_member(a, seed=7, degree=3)
    assert m1.series.coeffs == m2.series.coeffs
    m3 = random_member(a, seed=8, degree=3)
    assert m1.series.coeffs != m3.series.coeffs


def test_random_member_zero_second_deriv():
    m = random_member(Alpha(-0.7), seed=3, degree=2, zero_second_deriv=True)
    assert m.second_deriv_origin() == 0
    assert m.series.coeffs[2] == 0
    assert m.provenance.gamma == 0.0


def test_random_member_gamma_matches_phi_origin():
    for seed in range(6):
        a = Alpha(-1.0 + 0.4 * seed)
        m = random_member(a, seed=seed, degree=1 + seed % 3)
        prov = m.provenance
        gamma_from_f = abs(second_deriv_origin(m)) / (2 * a.cos)
        assert abs(prov.gamma - abs(prov.phi(0j))) < 1e-14
        assert abs(gamma_from_f - prov.gamma) < 1e-10


def test_random_member_is_normalized_series():
    m = random_member(Alpha(1.2), seed=9, degree=3)
    assert m.series.coeffs[0] == 0
    assert m.series.coeffs[1] == 1
    assert m.is_normalized


def test_random_member_degree_validation():
    with pytest.raises(ValueError):
        random_member(Alpha(0.0), seed=0, degree=0)
    with pytest.raises(ValueError):
        random_member(Alpha(0.0), seed=0, degree=4)


def test_series_fn_rejects_unnormalized():
    with pytest.raises(ValueError):
        SeriesFn(TaylorSeries.from_polynomial([0.5, 1.0], order=8))
