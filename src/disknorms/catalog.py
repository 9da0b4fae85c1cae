"""Catalog of analytic functions on the unit disk behind one guarded jet.

Each entry gives its k-th derivative, unguarded, as _derivative(z, k), or
the orders lo..hi at once as _derivatives(z, lo, hi) where the orders share
work: closed-form entries (identity, half-plane map, Koebe, the extremal
power families, Moebius maps) by exact formulas, series-backed entries
from their termwise derivative series.  AnalyticFn.jet(z, lo, hi)
returns the orders lo..hi and nothing more, and it alone applies the radius,
finiteness and local-univalence guards.  A deterministic generator
produces genuine members of the angle-alpha convexity class by choosing an
analytic self-map phi = num/den of the disk as a Blaschke product.  Every
closed form and every generated member carries f''/f' as
pre_schwarzian_field, a RationalField exact on the whole open disk, from
which AnalyticFn derives schwarzian_field; a member's Taylor series, needed
only for pointwise values of f and its derivatives, is built on first use.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import NonFiniteValue, OutsideGuardRadius, VanishingDerivative
from .quadrature import quadrature_complex
from .series import DEFAULT_GUARD_RADIUS, DEFAULT_ORDER, GUARD_SLACK, TaylorSeries

VANISHING_DERIVATIVE_EPS = 1e-14
# Closed-form kinds are defined on the whole open disk; pointwise evaluation
# may approach the boundary up to this distance (scans stop at
# disksup.SCAN_CEILING).
CLOSED_FORM_CEILING = 1.0 - 1e-12
BLASCHKE_ZERO_CAP = 0.8


@dataclass(frozen=True)
class Alpha:
    """Rotation angle of the class, in radians, strictly inside (-pi/2, pi/2)."""

    value: float

    def __post_init__(self):
        if not -math.pi / 2 < self.value < math.pi / 2:
            raise ValueError(f"alpha must lie strictly in (-pi/2, pi/2), got {self.value}")

    @cached_property
    def cos(self) -> float:
        return math.cos(self.value)

    @property
    def phase(self) -> complex:
        """e^{i alpha}."""
        return cmath.exp(1j * self.value)


@dataclass(frozen=True)
class DerivStack:
    """Values of f, f', f'', f''' at one point."""

    f: complex
    f1: complex
    f2: complex
    f3: complex


class RationalField:
    """num(z) / den(z)^power for polynomials num and den.

    Each polynomial takes one Horner pass; a squared denominator is the
    square of its Horner value, since Horner on the expanded square loses
    digits near the roots of den on the unit circle.
    """

    __slots__ = ("num", "den", "power", "_horner")

    def __init__(self, num: Sequence[complex], den: Sequence[complex], power: int = 1):
        if power not in (1, 2):
            raise ValueError(f"RationalField power must be 1 or 2, got {power!r}")
        # coefficients come lowest degree first and are kept highest first
        self.num = tuple(complex(c) for c in reversed(num))
        self.den = tuple(complex(c) for c in reversed(den))
        self.power = power
        # Horner starts at each leading coefficient; split once, not on every call
        self._horner = self.num[0], self.num[1:], self.den[0], self.den[1:]

    def __call__(self, z: complex) -> complex:
        p, ps, q, qs = self._horner
        for c in ps:
            p = p * z + c
        for c in qs:
            q = q * z + c
        return p / q if self.power == 1 else p / (q * q)

    def ring(self, points: list[complex]) -> list[complex]:
        """[self(z) for z in points], bit for bit, from one call: num and den
        take one Horner pass each per point, inlined as in __call__."""
        p0, ps, q0, qs = self._horner
        square = self.power == 2
        out = []
        for z in points:
            p, q = p0, q0
            for c in ps:
                p = p * z + c
            for c in qs:
                q = q * z + c
            out.append(p / (q * q) if square else p / q)
        return out

    def ring_with(self, square: "RationalField"):
        """Evaluator of ([self(z) ...], [square(z) ...]) over a list of points,
        for this u = P/Q and a square = N/Q^2 over the same den: P, Q and N
        take one Horner pass each per point, with the calls' exact values."""
        p0, ps, q0, qs = self._horner
        n0, ns = square._horner[:2]

        def ring(points: list[complex]) -> tuple[list[complex], list[complex]]:
            us, ss = [], []
            for z in points:
                p, q, n = p0, q0, n0
                for c in ps:
                    p = p * z + c
                for c in qs:
                    q = q * z + c
                for c in ns:
                    n = n * z + c
                us.append(p / q)
                ss.append(n / (q * q))
            return us, ss
        return ring

    def schwarzian(self) -> "RationalField":
        """u' - u^2/2 = (P'Q - PQ' - P^2/2)/Q^2 for this field u = P/Q."""
        if self.power != 1:
            raise ValueError("the Schwarzian is derived from a field u = P/Q")
        p, q = self.num[::-1], self.den[::-1]
        top = _poly_sum((1.0, _poly_mul(_poly_diff(p), q)),
                        (-1.0, _poly_mul(p, _poly_diff(q))), (-0.5, _poly_mul(p, p)))
        while len(top) > 1 and top[-1] == 0:  # terms that cancel exactly, as Koebe's do
            top.pop()
        return RationalField(top, q if any(top) else [1], power=2)


def _poly_mul(p: Sequence[complex], q: Sequence[complex]) -> list[complex]:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_sum(*terms: tuple[complex, Sequence[complex]]) -> list[complex]:
    """Sum of c * p over the (c, p) terms."""
    out = [0j] * max(len(p) for _, p in terms)
    for c, p in terms:
        for k, a in enumerate(p):
            out[k] += c * a
    return out


def _poly_diff(p: Sequence[complex]) -> list[complex]:
    return [k * p[k] for k in range(1, len(p))]


def _unimodular(zeta: complex) -> complex:
    zeta = complex(zeta)
    r = abs(zeta)
    if not abs(r - 1.0) <= 1e-9:  # a nan modulus fails this test too
        raise ValueError(f"zeta must be unimodular, got |zeta| = {r}")
    return zeta / r


class AnalyticFn:
    """Base class: immutable analytic function behind one guarded jet.

    A subclass gives the unguarded k-th derivative as _derivative(z, k), or
    overrides _derivatives(z, lo, hi) to share work between the orders; jet
    applies every guard once, for every order it returns.
    """

    name = "analytic"
    is_normalized = True
    # the exact RationalField of f''/f', where f has one
    pre_schwarzian_field = None

    @cached_property
    def schwarzian_field(self):
        """The exact Schwarzian field, from pre_schwarzian_field (None without one)."""
        u = self.pre_schwarzian_field
        return None if u is None else u.schwarzian()

    @property
    def radius_limit(self) -> float:
        """Largest radius at which evaluation is allowed."""
        return CLOSED_FORM_CEILING

    def jet(self, z: complex, lo: int = 0, hi: int = 3) -> tuple[complex, ...]:
        """(f^(lo)(z), ..., f^(hi)(z)), computing only those orders.

        Raises OutsideGuardRadius beyond radius_limit, NonFiniteValue when a
        value is not finite (a division by zero or an overflow included), and
        VanishingDerivative when f' is among the orders and |f'(z)| is at most
        VANISHING_DERIVATIVE_EPS, which breaks local univalence.
        """
        z = complex(z)
        if abs(z) > self.radius_limit + GUARD_SLACK:
            raise OutsideGuardRadius(
                f"{self.name}: |z| = {abs(z):.6g} exceeds limit {self.radius_limit}")
        try:
            values = self._derivatives(z, lo, hi)
            finite = all(map(cmath.isfinite, values))
        except (ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise NonFiniteValue(f"{self.name}: non-finite derivative at {z!r}")
        if lo <= 1 <= hi and abs(values[1 - lo]) <= VANISHING_DERIVATIVE_EPS:
            raise VanishingDerivative(
                f"{self.name}: |f'({z!r})| = {abs(values[1 - lo]):.3g} breaks local univalence")
        return values

    def _derivatives(self, z: complex, lo: int, hi: int) -> tuple[complex, ...]:
        """(f^(lo)(z), ..., f^(hi)(z)), unguarded: one _derivative per order,
        unless a subclass shares work between orders."""
        return tuple(self._derivative(z, k) for k in range(lo, hi + 1))

    def _derivative(self, z: complex, k: int) -> complex:
        """f^(k)(z), unguarded."""
        raise NotImplementedError(f"{self.name}: no derivative of order {k} implemented")

    def derivatives(self, z: complex) -> DerivStack:
        return DerivStack(*self.jet(z))

    def value(self, z: complex) -> complex:
        return self.jet(z, 0, 0)[0]

    def second_deriv_origin(self) -> complex:
        return self.jet(0j, 2, 2)[0]

    def taylor(self, order: int = DEFAULT_ORDER,
               guard_radius: float = DEFAULT_GUARD_RADIUS) -> "SeriesFn":
        raise NotImplementedError(f"{self.name}: no series form implemented")


class Identity(AnalyticFn):
    name = "identity"
    pre_schwarzian_field = RationalField([0], [1])

    def _derivative(self, z, k):
        return (z, 1.0 + 0j)[k] if k < 2 else 0j

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        return SeriesFn(TaylorSeries.from_polynomial([0, 1], order, guard_radius))


class HalfPlane(AnalyticFn):
    """z / (1 - z): convex map of the disk onto a half-plane."""

    name = "halfplane"
    pre_schwarzian_field = RationalField([2], [1, -1])

    def _derivative(self, z, k):
        """f^(k) = k!/(1 - z)^(k+1) for k >= 1."""
        w = 1.0 - z
        return z / w if k == 0 else math.factorial(k) * w ** -(k + 1)

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        return SeriesFn(TaylorSeries([0.0] + [1.0] * order, guard_radius))


class Koebe(AnalyticFn):
    """z / (1 - z)^2: the rotation-free extremal of the univalent class."""

    name = "koebe"
    pre_schwarzian_field = RationalField([4, 2], [1, 0, -1])

    def _derivative(self, z, k):
        """f^(k) = k!(k + z)/(1 - z)^(k+2); the numerator is expanded to
        k k! + k! z so that it rounds as 4 + 2z, 18 + 6z, ... do."""
        fact = math.factorial(k)
        return (k * fact + fact * z) * (1.0 - z) ** -(k + 2)

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        return SeriesFn(TaylorSeries([float(n) for n in range(order + 1)], guard_radius))


@dataclass(frozen=True)
class RobertsonExtremal(AnalyticFn):
    """Integral of (1 - (zeta z)^2)^(-cos alpha): the printed extremal family.

    f(z) = conj(zeta) * F(zeta z) with F' = (1 - w^2)^(-cos alpha); the value
    of f itself comes from adaptive quadrature along the ray since there is
    no elementary primitive except at alpha = 0.

    Its norms are 2 cos alpha and 2 cos alpha (2 - cos alpha), but for
    alpha != 0 it is not a member of S_alpha (its margin is unbounded below
    near z = +-conj(zeta)), so attaining these values does not make them
    sharp bounds for the class.  The member with the same pre-Schwarzian
    norm is f' = (1 - z^2)^(-e^{-i alpha} cos alpha).
    """

    alpha: Alpha
    zeta: complex = 1.0 + 0j

    def __post_init__(self):
        object.__setattr__(self, "zeta", _unimodular(self.zeta))

    @property
    def name(self):
        return "robertson-extremal"

    def _fprime_base(self, w: complex) -> complex:
        # principal branch; 1 - w^2 has positive real part for |w| < 1
        return cmath.exp(-self.alpha.cos * cmath.log(1.0 - w * w))

    def _derivatives(self, z, lo, hi):
        """f by quadrature, then f^(k) for 1 <= k <= 4 from one g = 1 - w^2
        and one f' = F'(w), w = zeta z, which every order shares."""
        zt = self.zeta
        w = zt * z
        out = []
        if lo == 0:
            if z == 0:
                out.append(0j)
            else:
                integral = quadrature_complex(lambda t: self._fprime_base(t * w), 0.0, 1.0,
                                              1e-12)
                out.append(zt.conjugate() * w * integral)
        if hi < 1:
            return tuple(out)
        c = self.alpha.cos
        g = 1.0 - w * w
        fp = self._fprime_base(w)
        for k in range(max(lo, 1), hi + 1):
            if k == 1:
                out.append(fp)
            elif k == 2:
                out.append(zt * 2 * c * w * fp / g)
            elif k == 3:
                out.append(zt * zt * 2 * c * (1 + (2 * c + 1) * w * w) * fp / (g * g))
            elif k == 4:
                out.append(zt ** 3 * 4 * c * (c + 1) * w * (3 + (2 * c + 1) * w * w) * fp
                           / (g * g * g))
            else:
                super()._derivative(z, k)  # raises: no formula past order 4
        return tuple(out)

    @cached_property
    def pre_schwarzian_field(self) -> RationalField:
        """2c zeta^2 z/(1 - zeta^2 z^2), c = cos alpha."""
        c, z2 = self.alpha.cos, self.zeta * self.zeta
        return RationalField([0, 2 * c * z2], [1, 0, -z2])

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        z2 = TaylorSeries.from_polynomial([1.0, 0.0, -self.zeta ** 2], order, guard_radius)
        return SeriesFn(z2.pow(complex(-self.alpha.cos)).integrate())


@dataclass(frozen=True)
class SpiralPower(AnalyticFn):
    """f'(z) = (1 - z zeta)^(-2 e^{-i alpha} cos alpha): the equality family."""

    alpha: Alpha
    zeta: complex = 1.0 + 0j

    def __post_init__(self):
        object.__setattr__(self, "zeta", _unimodular(self.zeta))

    @property
    def name(self):
        return "spiral-power"

    @cached_property
    def exponent(self) -> complex:
        return 2 * cmath.exp(-1j * self.alpha.value) * self.alpha.cos

    def _derivatives(self, z, lo, hi):
        """f^(k) = B(B+1)...(B+k-2) zeta^(k-1) (1 - zeta z)^(-(B+k-1)) for k >= 1,
        B = exponent, and f = ((1 - zeta z)^(1-B) - 1)/(zeta (B - 1)), from one
        log(1 - zeta z) and one rising product, extended order by order."""
        b, zt = self.exponent, self.zeta
        logw = cmath.log(1.0 - zt * z)
        out = []
        if lo == 0:
            # exponent 1 - B never vanishes for |alpha| < pi/2
            out.append((cmath.exp((1 - b) * logw) - 1.0) / (zt * (b - 1)))
        rising = 1
        for k in range(1, hi + 1):
            if k >= lo:
                out.append(rising * zt ** (k - 1) * cmath.exp(-(b + (k - 1)) * logw))
            rising *= b + (k - 1)
        return tuple(out)

    @cached_property
    def pre_schwarzian_field(self) -> RationalField:
        """B zeta/(1 - zeta z), B = exponent."""
        return RationalField([self.exponent * self.zeta], [1, -self.zeta])

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        base = TaylorSeries.from_polynomial([1.0, -self.zeta], order, guard_radius)
        return SeriesFn(base.pow(-self.exponent).integrate())


@dataclass(frozen=True)
class Moebius(AnalyticFn):
    """(a z + b) / (c z + d) with ad - bc != 0; Schwarzian-annihilated."""

    a: complex
    b: complex
    c: complex
    d: complex

    is_normalized = False

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) <= 1e-14:
            raise ValueError("Moebius map needs ad - bc != 0")

    @property
    def name(self):
        return "moebius"

    def _derivative(self, z, k):
        """f^(k) = k! (-c)^(k-1) (ad - bc)/(c z + d)^(k+1) for k >= 1."""
        w = self.c * z + self.d
        if abs(w) <= 1e-14:
            raise NonFiniteValue(f"moebius: pole at z = {z!r}")
        if k == 0:
            return (self.a * z + self.b) / w
        det = self.a * self.d - self.b * self.c
        return math.factorial(k) * (-self.c) ** (k - 1) * det / w ** (k + 1)

    @cached_property
    def pre_schwarzian_field(self) -> RationalField:
        """-2c/(c z + d); raises NonFiniteValue, as jet does at the pole, when
        the pole -d/c lies in the open disk.  Its Schwarzian is exactly 0."""
        if abs(self.d) < abs(self.c):
            raise NonFiniteValue(f"moebius: pole at z = {-self.d / self.c!r} in the disk")
        return RationalField([-2 * self.c], [self.d, self.c])

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        num = TaylorSeries.from_polynomial([self.b, self.a], order, guard_radius)
        den = TaylorSeries.from_polynomial([self.d, self.c], order, guard_radius)
        return SeriesFn(num / den, require_normalized=False)


class SeriesFn(AnalyticFn):
    """Analytic function backed by a truncated Taylor series of f itself.

    The derivative series (termwise differentiation, exact to truncation)
    are built on first use, each order once, as far as jet asks; so are the
    pre-Schwarzian and Schwarzian series.
    """

    def __init__(self, series: TaylorSeries, require_normalized: bool = True):
        c0 = series.coeffs[0]
        c1 = series.coeffs[1] if series.order >= 1 else 0j
        if require_normalized and (abs(c0) > 1e-12 or abs(c1 - 1.0) > 1e-12):
            raise ValueError(
                f"normalized series needs c0 = 0, c1 = 1; got {c0!r}, {c1!r}")
        self.series = series
        self.is_normalized = require_normalized

    name = "series"

    @property
    def radius_limit(self) -> float:
        return self.series.guard_radius

    @cached_property
    def _diffs(self) -> list[TaylorSeries]:
        """[f, f', f'', ...] as series, grown by _diff."""
        return [self.series]

    def _diff(self, k: int) -> TaylorSeries:
        """Series of f^(k), built once."""
        diffs = self._diffs
        while len(diffs) <= k:
            diffs.append(diffs[-1].diff())
        return diffs[k]

    def _derivative(self, z, k):
        return self._diff(k).eval(z)

    @cached_property
    def pre_schwarzian_series(self) -> TaylorSeries:
        """Series of f''/f' by series division; requires |f'(0)| = 1."""
        d1 = self._diff(1)
        if abs(abs(d1.coeffs[0]) - 1.0) > 1e-9:
            raise ValueError("pre_schwarzian_series expects a normalized series")
        return self._diff(2) / d1

    @cached_property
    def schwarzian_series(self) -> TaylorSeries:
        """Series of P' - P^2/2 with P = f''/f'."""
        p = self.pre_schwarzian_series
        return p.diff() - (p * p).scale(0.5)

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        return self


def eval_derivatives(f: AnalyticFn, z: complex) -> DerivStack:
    """Evaluate (f, f', f'', f''') with radius and local-univalence guards."""
    return f.derivatives(z)


def second_deriv_origin(f: AnalyticFn) -> complex:
    if not f.is_normalized:
        raise ValueError(f"{f.name}: second_deriv_origin needs a normalized function")
    return f.second_deriv_origin()


@dataclass(frozen=True)
class MemberProvenance:
    """Construction record of a generated class member.

    ``phi`` reproduces the generating self-map exactly from the stored
    Blaschke zeros, independent of the series pipeline.
    """

    alpha: Alpha
    seed: int
    degree: int
    zero_second_deriv: bool
    blaschke_zeros: tuple
    gamma: float

    @property
    def phi_is_blaschke(self) -> bool:
        """Whether every stored zero has |a| < 1 (a non-finite one has not).
        Then z phi is a finite Blaschke product: |z phi| < 1 on the open disk,
        so den - z num, which is den (1 - z phi), has its roots on the circle."""
        return all(abs(a) < 1.0 for a in self.blaschke_zeros)

    def phi(self, z: complex) -> complex:
        acc = 1.0 + 0j
        for a in self.blaschke_zeros:
            acc *= (z + a) / (1.0 + a.conjugate() * z)
        if self.zero_second_deriv:
            acc *= z
        return acc


class GeneratedMember(SeriesFn):
    """Member of the class built from a Blaschke self-map phi = num/den.

    With b = e^{-i alpha} cos alpha, membership means f''/f' = 2b phi/(1 - z phi)
    = 2b num/(den - z num), a RationalField exact on the whole open disk, and
    so is the Schwarzian derived from it.  The Taylor series of f, which the
    pointwise values of f and its derivatives need, is built on first use by
    one linear recurrence from the ODE (den - z num) f'' = 2b num f' (_series)
    and trusted up to its guard radius (radius_limit).
    """

    def __init__(self, provenance: MemberProvenance):
        self.provenance = provenance
        alpha = provenance.alpha
        two_b = 2 * (cmath.exp(-1j * alpha.value) * alpha.cos)
        num, den = [1.0 + 0j], [1.0 + 0j]
        for a in provenance.blaschke_zeros:
            num = _poly_mul(num, [a, 1.0])
            den = _poly_mul(den, [1.0, a.conjugate()])
        if provenance.zero_second_deriv:
            num = [0j] + num
        # f''/f' = P/Q with P = 2b num and Q = den - z num, whose roots, all on
        # the unit circle, are the poles of both fields
        self._field_num = [two_b * c for c in num]
        self._pole_factor = _poly_sum((1.0, den), (-1.0, [0j] + num))

    @property
    def radius_limit(self) -> float:
        return DEFAULT_GUARD_RADIUS

    @cached_property
    def series(self) -> TaylorSeries:
        return self._series(DEFAULT_ORDER + 2, DEFAULT_GUARD_RADIUS)

    def _series(self, order: int, guard_radius: float) -> TaylorSeries:
        """f' = sum a_n z^n solves Q f'' = P f' with P = 2b num, Q = den - z num
        and Q_0 = 1, so a_0 = 1 and, term by term, (n+1) a_{n+1} =
        sum_i P_i a_{n-i} - sum_{i>=1} Q_i (n+1-i) a_{n+1-i}; f = integral of f'."""
        p, q = self._field_num, self._pole_factor
        a = [1.0 + 0j]
        for n in range(order - 1):
            s = 0j
            for i in range(min(n, len(p) - 1) + 1):
                s += p[i] * a[n - i]
            for i in range(1, min(n + 1, len(q) - 1) + 1):
                s -= q[i] * (n + 1 - i) * a[n + 1 - i]
            a.append(s / (n + 1))
        return TaylorSeries(a, guard_radius).integrate()

    @cached_property
    def pre_schwarzian_field(self) -> RationalField:
        return RationalField(self._field_num, self._pole_factor)

    def second_deriv_origin(self):
        """f''(0) = 2b phi(0) = 2b num(0), since den(0) = 1."""
        return self._field_num[0]

    def taylor(self, order=DEFAULT_ORDER + 2, guard_radius=DEFAULT_GUARD_RADIUS):
        """SeriesFn of f's series of the given order, trusted to guard_radius."""
        if (order, guard_radius) == (DEFAULT_ORDER + 2, DEFAULT_GUARD_RADIUS):
            return SeriesFn(self.series)
        return SeriesFn(self._series(order, guard_radius))


def random_member(alpha: Alpha, seed: int, degree: int = 3,
                  zero_second_deriv: bool = False) -> GeneratedMember:
    """Deterministic member of the class for the given angle.

    Draws 'degree' Blaschke factors (z + a)/(1 + conj(a) z) with |a| <= 0.8
    and multiplies by z when a vanishing second derivative at the origin is
    requested.  That self-map phi defines the member through
    f''/f' = 2 e^{-i alpha} cos(alpha) phi / (1 - z phi), so the defining
    real-part condition holds on the whole disk by construction, and the
    member's f''/f' and Schwarzian are exact rational functions
    (GeneratedMember).  Nothing else is computed until it is asked for.
    """
    if not 1 <= degree <= 3:
        raise ValueError(f"degree must be 1..3, got {degree}")
    rng = random.Random(seed)
    zeros = []
    for _ in range(degree):
        rho = BLASCHKE_ZERO_CAP * math.sqrt(rng.random())
        psi = 2.0 * math.pi * rng.random()
        zeros.append(rho * cmath.exp(1j * psi))
    zeros = tuple(zeros)
    gamma = 0.0 if zero_second_deriv else abs(complex(math.prod(zeros)))
    prov = MemberProvenance(alpha, seed, degree, zero_second_deriv, zeros, gamma)
    return GeneratedMember(prov)
