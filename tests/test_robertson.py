"""Membership margins, duality, self-map transform, residuals, thresholds."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from disknorms import (Alpha, GeneratedMember, HalfPlane, Identity, Koebe, MemberProvenance,
                       RobertsonExtremal, SamplingPlan, SpiralPower,
                       characterization_residuals, cubic_root, duality_check,
                       is_certified_member, membership_certificate, phi_transform,
                       random_disk_points,
                       random_member, robertson_margin, spirallike_margin,
                       univalence_criteria, verify_T41, weighted_inf_re, weighted_sup)
from disknorms.derivatives import _field, pre_schwarzian_evaluator
from disknorms.robertson import membership_refutation, robertson_functional
from disknorms.errors import PhiPoleEncountered
from fixtures import Polynomial, ZTimesDerivative

PLAN = SamplingPlan()


# -- robertson_margin --------------------------------------------------------

def test_margin_identity_is_cos_alpha():
    for aval in (0.0, 0.9, -1.3):
        a = Alpha(aval)
        rep = robertson_margin(Identity(), a, PLAN)
        assert abs(rep.inf_value - a.cos) < 1e-12


def test_margin_halfplane_boundary_sharp_member():
    a = Alpha(0.0)
    rep = robertson_margin(HalfPlane(), a, PLAN)
    assert 0.0 <= rep.inf_value < 1e-6
    assert is_certified_member(rep)
    assert abs(rep.witness) > 0.99


def test_margin_koebe_not_convex():
    """Hand oracle: at z = -1/2 the functional is (1 - 2 + 1/4)/(3/4) = -1."""
    a = Alpha(0.0)
    rep = robertson_margin(Koebe(), a, PLAN)
    assert rep.inf_value < -0.9
    assert not is_certified_member(rep)
    z = -0.5 + 0j
    val = (1 + 4 * z + z * z) / (1 - z * z)
    assert abs(val.real + 1.0) < 1e-14


def test_margin_extremal_family_alpha0_member_only():
    """The sharpness family lies in the class only at alpha = 0: for
    alpha != 0 its functional covers a rotated half-plane and goes negative."""
    a0 = Alpha(0.0)
    assert is_certified_member(robertson_margin(RobertsonExtremal(a0), a0, PLAN))
    ap = Alpha(math.pi / 4)
    rep = robertson_margin(RobertsonExtremal(ap), ap, PLAN)
    assert rep.inf_value < -1.0


def test_margin_generated_members():
    for seed in range(5):
        a = Alpha(-1.1 + 0.5 * seed)
        m = random_member(a, seed=seed, degree=1 + seed % 3,
                          zero_second_deriv=bool(seed % 2))
        rep = robertson_margin(m, a, PLAN)
        assert rep.inf_value >= -1e-6


@settings(max_examples=25, deadline=None)
@given(aval=st.floats(-1.5, 1.5), seed=st.integers(0, 2 ** 31 - 1),
       degree=st.integers(1, 3), zero_f2=st.booleans())
def test_member_margin_is_its_blaschke_identity(aval, seed, degree, zero_f2):
    """The identity behind membership_certificate: for a generated member,
    Re{e^{ia}(1 + z u)} with u its f''/f' field equals
    cos a (1 - |z phi|^2)/|1 - z phi|^2 with phi from the provenance, and is
    positive, up to |z| = 0.999."""
    a = Alpha(aval)
    m = random_member(a, seed, degree, zero_f2)
    assert membership_certificate(m, a)
    u, phi = m.pre_schwarzian_field, m.provenance.phi
    ring = [0.999 * cmath.exp(2j * math.pi * k / 64) for k in range(64)]
    for z in random_disk_points(64, seed=seed, radius=0.999) + ring:
        w = z * phi(z)
        exact = a.cos * (1.0 - abs(w)) * (1.0 + abs(w)) / abs(1.0 - w) ** 2
        assert exact > 0.0
        assert abs((a.phase * (1.0 + z * u(z))).real - exact) <= 1e-9 * exact, z


def test_analytic_fields_take_the_circle_scan_alone(monkeypatch):
    """With the 2-D scan disabled, the margins of the closed forms, of members
    at their own and at another alpha, and of a member's series form still
    come out, from the circle |z| = min(r_limit, SCAN_CEILING) alone."""
    from disknorms import derivatives, disksup, robertson
    from disknorms.disksup import SCAN_CEILING

    def refuse(*args, **kwargs):
        raise AssertionError("the 2-D grid was scanned")
    for module in (disksup, derivatives, robertson):
        monkeypatch.setattr(module, "weighted_inf_re", refuse)
    monkeypatch.setattr(disksup, "_optimize", refuse)
    a = Alpha(0.6)
    member = random_member(a, seed=7, degree=3)
    cases = [(fn, a) for fn in (Identity(), HalfPlane(), Koebe(), RobertsonExtremal(a),
                                SpiralPower(a, cmath.exp(0.3j)), member)]
    cases += [(member, Alpha(-1.2)), (member.taylor(), a)]
    for fn, alpha in cases:
        rep = robertson_margin(fn, alpha, PLAN)
        assert rep.witness_r == min(_field(fn, 1)[1], SCAN_CEILING), fn.name


# -- membership_refutation ---------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(aval=st.floats(-1.5, 1.5), other=st.floats(-1.5, 1.5),
       seed=st.integers(0, 2 ** 31 - 1), degree=st.integers(1, 3), zero_f2=st.booleans())
def test_no_generated_member_is_refuted(aval, other, seed, degree, zero_f2):
    """Every stored zero of a generated member has |a| <= 0.8, so phi has no
    pole in the disk: the member is refuted neither at its own alpha, where it
    is certified, nor at another one."""
    m = random_member(Alpha(aval), seed, degree, zero_f2)
    assert membership_certificate(m, Alpha(aval))
    assert membership_refutation(m, Alpha(aval)) is None
    assert membership_refutation(m, Alpha(other)) is None


def _hand_built(aval, zeros, zero_f2=False):
    return GeneratedMember(MemberProvenance(Alpha(aval), 0, len(zeros), zero_f2, tuple(zeros),
                                            0.0))


def test_refutation_witness_is_the_pole_of_phi():
    """A zero a with |a| > 1 puts a pole p = -1/conj(a) of phi in the disk,
    where f''/f' = -2b/p and the margin is exactly -cos(alpha); at another
    alpha the same function is undecided."""
    for aval, a, others, zero_f2 in ((0.4, 1.25 * cmath.exp(2.0j), [0.3 - 0.5j], False),
                                     (-1.1, 3.0 + 1.0j, [0.6j, -0.2], True)):
        f = _hand_built(aval, others + [a], zero_f2)
        p = -1.0 / a.conjugate()
        witness, margin = membership_refutation(f, Alpha(aval))
        assert witness == p and abs(p) < 1.0
        assert abs(margin + Alpha(aval).cos) <= 1e-12
        assert not membership_certificate(f, Alpha(aval))
        assert membership_refutation(f, Alpha(0.0)) is None


def test_cancelled_unimodular_and_non_finite_zeros_are_not_refuted():
    """A pair (a, 1/conj(a)) cancels the pole of phi (their product is the
    unimodular constant a/conj(a)), a zero with |a| = 1 puts it on the circle,
    and a non-finite zero leaves phi undefined: each stays undecided."""
    a = 1.25 * cmath.exp(0.7j)
    for zeros in ([a, 1.0 / a.conjugate()], [cmath.exp(2.5j), 0.4],
                  [complex(math.inf, 0.0), a], [complex(math.nan, 0.0), a]):
        f = _hand_built(0.5, zeros)
        assert membership_refutation(f, Alpha(0.5)) is None
        assert not membership_certificate(f, Alpha(0.5))


# -- spirallike_margin -------------------------------------------------------

def test_spirallike_identity():
    for aval in (0.0, 0.6, -1.2):
        a = Alpha(aval)
        rep = spirallike_margin(Identity(), a, PLAN)
        assert abs(rep.inf_value - a.cos) < 1e-12


def test_spirallike_koebe_is_starlike():
    rep = spirallike_margin(Koebe(), Alpha(0.0), PLAN)
    assert rep.inf_value >= -1e-9


def test_spirallike_zero_value_guard():
    from disknorms.errors import ZeroValueEncountered
    # g = z(1 - 2z) vanishes at z = 0.5, which the 8-node grid with
    # r_cap = 0.5 hits exactly (last sine node equals the cap)
    g = Polynomial((0, 1, -2))
    plan = SamplingPlan(radial_count=8, angular_count=16, r_cap=0.5,
                        refine_depth=0)
    with pytest.raises(ZeroValueEncountered):
        spirallike_margin(g, Alpha(0.0), plan)


def test_spirallike_transfer_equals_robertson_margin():
    """z g'/g for g = z f' coincides pointwise with 1 + z f''/f', so the
    two functionals' grid scans agree; membership itself transfers only where f is a member
    (alpha = 0 for the extremal family)."""
    a0 = Alpha(0.0)
    f0 = RobertsonExtremal(a0)
    rep = spirallike_margin(ZTimesDerivative(f0), a0, PLAN)
    assert rep.inf_value >= -1e-6
    ap = Alpha(0.7)
    fp = RobertsonExtremal(ap)
    sp = spirallike_margin(ZTimesDerivative(fp), ap, PLAN)
    # the same 2-D scan of the class functional, which robertson_margin now
    # takes on the circle alone
    rb = weighted_inf_re(robertson_functional(fp, ap), PLAN, r_limit=fp.radius_limit)
    assert abs(sp.inf_value - rb.inf_value) <= 1e-6 * max(1.0, abs(rb.inf_value))


# -- duality_check ------------------------------------------------------------

def test_duality_identity_catalog():
    pts = random_disk_points(100, seed=12, radius=0.9)
    for fn in (HalfPlane(), Koebe(), RobertsonExtremal(Alpha(0.5))):
        assert duality_check(fn, Alpha(0.3), pts) <= 1e-10


def test_duality_generated_members():
    pts = random_disk_points(100, seed=13, radius=0.9)
    for seed in range(4):
        a = Alpha(0.3 * seed - 0.5)
        m = random_member(a, seed=seed, degree=2)
        assert duality_check(m, a, pts) <= 1e-8


# -- phi_transform -------------------------------------------------------------

def test_phi_transform_extremal_alpha0_is_z():
    """Algebraic oracle: (2z/(1-z^2)) / (2 + 2z^2/(1-z^2)) = z."""
    a = Alpha(0.0)
    phi = phi_transform(RobertsonExtremal(a), a)
    assert phi.gamma == 0.0
    for z in random_disk_points(25, seed=14, radius=0.9):
        assert abs(phi(z) - z) < 1e-11


def test_phi_transform_zero_second_deriv_member():
    a = Alpha(0.6)
    m = random_member(a, seed=5, degree=2, zero_second_deriv=True)
    assert phi_transform(m, a).gamma == 0.0


def test_phi_transform_koebe():
    """Algebraic oracle: phi = (2+z)/(1+2z), gamma = 2 (membership impossible)."""
    a = Alpha(0.0)
    phi = phi_transform(Koebe(), a)
    assert abs(phi.gamma - 2.0) < 1e-12
    for z in random_disk_points(25, seed=15, radius=0.45):
        ref = (2 + z) / (1 + 2 * z)
        assert abs(phi(z) - ref) < 1e-11


def test_phi_pole_detected():
    a = Alpha(0.0)
    phi = phi_transform(Koebe(), a)
    with pytest.raises(PhiPoleEncountered):
        phi(-0.5 + 0j)  # denominator 2 + z(4+2z)/(1-z^2) vanishes at z = -1/2


def test_phi_transform_of_member_matches_provenance_at_guard_radius():
    """phi built from the quotient series f''/f' recovers the generating
    self-map on |z| = 0.95; built from separately truncated f'' and f'
    series it was 1.7e-2 away here."""
    a = Alpha(0.2352468531045333)
    m = random_member(a, seed=1316016691, degree=1)
    phi = phi_transform(m, a)
    for j in range(512):
        z = 0.95 * cmath.exp(2j * math.pi * j / 512)
        assert abs(phi(z) - m.provenance.phi(z)) <= 1e-4


def test_gamma_above_one_implies_negative_margin():
    a = Alpha(0.0)
    assert phi_transform(Koebe(), a).gamma > 1
    rep = robertson_margin(Koebe(), a, PLAN)
    assert rep.inf_value < 0


def test_generated_member_phi_is_self_map_and_gamma_consistent():
    for seed in range(5):
        a = Alpha(-0.8 + 0.4 * seed)
        m = random_member(a, seed=40 + seed, degree=1 + seed % 3)
        phi = phi_transform(m, a)
        prov = m.provenance
        assert abs(phi.gamma - prov.gamma) < 1e-8
        worst = 0.0
        for z in random_disk_points(100, seed=50 + seed, radius=0.9):
            worst = max(worst, abs(phi(z)))
            # transform recovers the generating self-map up to truncation
            assert abs(phi(z) - prov.phi(z)) < 1e-7
        assert worst <= 1.0 + 1e-6


# -- characterization residuals -------------------------------------------------

def test_residuals_identity():
    for aval in (0.0, 0.8, -1.0):
        a = Alpha(aval)
        r2, r3 = characterization_residuals(Identity(), a, 0j)
        assert abs(r2 - a.cos) < 1e-14
        assert abs(r3 - 2 * a.cos) < 1e-14
        r2, r3 = characterization_residuals(Identity(), a, 0.4 + 0.2j)
        assert abs(r2 - a.cos) < 1e-14
        assert abs(r3 - 2 * a.cos * (1 - abs(0.4 + 0.2j))) < 1e-12


def test_residual_ii_vanishes_on_equality_family():
    """The spiral-power family has phi constant unimodular: equality case."""
    import random
    rng = random.Random(77)
    for _ in range(10):
        a = Alpha(rng.uniform(-1.4, 1.4))
        zeta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        fn = SpiralPower(a, zeta)
        for z in random_disk_points(50, seed=rng.randrange(10**6), radius=0.9):
            r2, _ = characterization_residuals(fn, a, z)
            assert abs(r2) < 1e-9


def test_residual_iii_vanishes_on_equality_family():
    a = Alpha(0.9)
    fn = SpiralPower(a, cmath.exp(0.3j))
    for z in random_disk_points(25, seed=16, radius=0.9):
        _, r3 = characterization_residuals(fn, a, z)
        assert abs(r3) < 1e-9


def test_residual_iii_extremal_alpha0_on_real_axis():
    """Algebraic oracle: (1-r^2) 2r/(1-r^2) - 2r = 0, so res_iii = 2."""
    a = Alpha(0.0)
    fn = RobertsonExtremal(a)
    for r in (0.1, 0.5, 0.9):
        _, r3 = characterization_residuals(fn, a, complex(r, 0))
        assert abs(r3 - 2.0) < 1e-12


def test_residuals_nonnegative_for_members():
    for seed in range(4):
        a = Alpha(0.5 * seed - 0.9)
        m = random_member(a, seed=60 + seed, degree=1 + seed % 3)
        for z in random_disk_points(200, seed=70 + seed, radius=0.9):
            r2, r3 = characterization_residuals(m, a, z)
            assert r2 >= -1e-6
            assert r3 >= -1e-6


@settings(max_examples=25, deadline=None)
@given(aval=st.floats(-1.5, 1.5), seed=st.integers(0, 2 ** 31 - 1),
       degree=st.integers(1, 3), zero_f2=st.booleans())
def test_member_residuals_are_their_self_map_identities(aval, seed, degree, zero_f2):
    """For a generated member with self-map phi (provenance.phi),
    res_ii = c (1 - |phi|^2)/|1 - z phi|^2 and
    res_iii = 2c (1 - |phi - conj z|/|1 - z phi|), c = cos a, so both are
    >= 0 wherever |phi| <= 1.  The oracle writes res_iii without the
    cancellation, as 2c (1 - |z|^2)(1 - |phi|^2)/(B (A + B)) with
    A = |phi - conj z|, B = |1 - z phi| (B^2 - A^2 = (1 - |z|^2)(1 - |phi|^2)).
    Both identities hold to 1e-9 of max(value, cos a): res_iii is 2c less a
    modulus of up to 2c, so its rounding scales with c, not with the value
    it leaves near |z| = 0.999 (down to about 1e-7)."""
    a = Alpha(aval)
    c = a.cos
    m = random_member(a, seed, degree, zero_f2)
    phi = m.provenance.phi
    ring = [0.999 * cmath.exp(2j * math.pi * k / 64) for k in range(64)]
    for z in random_disk_points(64, seed=seed, radius=0.999) + ring:
        p = phi(z)
        w_z = (1.0 - abs(z)) * (1.0 + abs(z))
        w_p = (1.0 - abs(p)) * (1.0 + abs(p))
        big_a, big_b = abs(p - z.conjugate()), abs(1.0 - z * p)
        exact_ii = c * w_p / big_b ** 2
        exact_iii = 2.0 * c * w_z * w_p / (big_b * (big_a + big_b))
        r2, r3 = characterization_residuals(m, a, z)
        assert r2 >= 0.0 and r3 >= 0.0, z
        assert abs(r2 - exact_ii) <= 1e-9 * max(exact_ii, c), z
        assert abs(r3 - exact_iii) <= 1e-9 * max(exact_iii, c), z


def test_residuals_of_member_match_exact_at_guard_radius():
    """Series-free oracle on |z| = 0.95: a member has f''/f' = 2b phi/(1 - z phi)
    with b = e^{-ia} cos a and phi its generating self-map.  Residuals formed
    from separately truncated f'' and f' series were off by 8.7e-3 here and
    failed T41 for this certified member."""
    a = Alpha(0.2352468531045333)
    m = random_member(a, seed=1316016691, degree=1)
    c, phase = a.cos, a.phase
    b = cmath.exp(-1j * a.value) * c
    for j in range(512):
        z = 0.95 * cmath.exp(2j * math.pi * j / 512)
        phi = m.provenance.phi(z)
        u = 2 * b * phi / (1 - z * phi)
        w = (1 - abs(z)) * (1 + abs(z))
        exact_ii = (1 + phase * z * u).real - (1 - c + w / (4 * c) * abs(u) ** 2)
        exact_iii = 2 * c - abs(w * phase * u - 2 * c * z.conjugate())
        r2, r3 = characterization_residuals(m, a, z)
        assert abs(r2 - exact_ii) <= 2e-4
        assert abs(r3 - exact_iii) <= 2e-4
    assert verify_T41(m, a, PLAN).status == "pass"


# -- cubic root and univalence rows ---------------------------------------------

def test_cubic_root_value():
    x0 = cubic_root()
    assert abs(x0 - 0.2034) < 5e-5
    assert abs(((16 * x0 + 16) * x0 + 1) * x0 - 1) < 1e-10


def test_cubic_root_sign_bracket():
    p = lambda x: 16 * x ** 3 + 16 * x ** 2 + x - 1
    assert p(0.20) < 0 < p(0.21)


def test_univalence_pfaltzgraff_guarantee():
    a = Alpha(math.acos(0.4))
    verdict = univalence_criteria(a, 0.1)
    rows = {r.name: r for r in verdict.criteria}
    assert rows["pfaltzgraff"].guarantees_univalence
    assert not rows["robertson"].guarantees_univalence
    assert not rows["singh-chichra"].guarantees_univalence
    assert verdict.any_guarantee


def test_univalence_singh_chichra_guarantee():
    # f''(0) = 0 certifies for every alpha, including ones the angle rows miss
    verdict = univalence_criteria(Alpha(0.3), 0.0)
    rows = {r.name: r for r in verdict.criteria}
    assert rows["singh-chichra"].guarantees_univalence
    assert not rows["pfaltzgraff"].guarantees_univalence  # cos(0.3) ~ 0.955 > 0.5
    verdict_edge = univalence_criteria(Alpha(1.5), 0.0)
    rows_edge = {r.name: r for r in verdict_edge.criteria}
    assert rows_edge["pfaltzgraff"].guarantees_univalence  # cos(1.5) ~ 0.0707


def test_univalence_becker_fails_for_halfplane():
    a = Alpha(0.0)
    hp = HalfPlane()
    est = weighted_sup(pre_schwarzian_evaluator(hp), 1, PLAN, r_limit=hp.radius_limit)
    verdict = univalence_criteria(a, 2.0, pre_norm=est)
    rows = {r.name: r for r in verdict.criteria}
    assert rows["becker"].applicable
    assert not rows["becker"].guarantees_univalence
    assert "exceeds" in rows["becker"].threshold_detail


def test_univalence_norm_rows_not_applicable_without_estimates():
    verdict = univalence_criteria(Alpha(0.2), 1.0)
    rows = {r.name: r for r in verdict.criteria}
    assert not rows["becker"].applicable
    assert not rows["nehari"].applicable


def test_univalence_norm_rows_never_certify_from_lower_bounds():
    a = Alpha(0.0)
    fn = Identity()
    est = weighted_sup(pre_schwarzian_evaluator(fn), 1, PLAN, r_limit=fn.radius_limit)
    verdict = univalence_criteria(a, 0.0, pre_norm=est)
    rows = {r.name: r for r in verdict.criteria}
    assert rows["becker"].applicable
    assert not rows["becker"].guarantees_univalence
    assert "not certified" in rows["becker"].threshold_detail


def test_threshold_ladder():
    assert cubic_root() < 0.2564 < 0.2588 < 0.5
