"""Series-free reference values for generated class members.

A member of the angle-alpha class satisfies f''/f' = 2b phi/(1 - z phi) with
b = e^{-i alpha} cos alpha and phi an analytic self-map of the disk.  The
generator records phi as a Blaschke product (its zeros, and a factor z when
f''(0) = 0), so every quantity the verifiers estimate has an exact
expression in phi that needs no truncated series:

    pre-Schwarzian   u = 2b phi / (1 - z phi)
    Schwarzian       S = 2b (phi' + (1 - b) phi^2) / (1 - z phi)^2
    log f'(z)        integral of u along the ray [0, z]
    f(z)             integral of f' along the ray [0, z]

Rays are integrated with this module's own composite Gauss-Legendre rule.
``self_check`` compares every oracle with closed forms and with the
package's pointwise derivatives near the origin, where series truncation
is negligible.
"""

from __future__ import annotations

import cmath
import math


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1], by Newton."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


GL_NODES, GL_WEIGHTS = _gauss_legendre(12)
RAY_PANELS = 8


def integrate(fn, a: float, b: float, panels: int = RAY_PANELS) -> complex:
    """Composite 12-point Gauss-Legendre integral of fn over [a, b]."""
    h = (b - a) / panels
    acc = 0j
    for p in range(panels):
        mid = a + (p + 0.5) * h
        for x, w in zip(GL_NODES, GL_WEIGHTS):
            acc += w * fn(mid + 0.5 * h * x)
    return 0.5 * h * acc


class SelfMap:
    """phi(z) = const * z^zero_factor * prod (z + a) / (1 + conj(a) z)."""

    def __init__(self, zeros, zero_factor: bool, const: complex = 1.0):
        self.zeros = tuple(complex(a) for a in zeros)
        self.zero_factor = bool(zero_factor)
        self.const = complex(const)

    @classmethod
    def of_member(cls, provenance) -> "SelfMap":
        return cls(provenance.blaschke_zeros, provenance.zero_second_deriv)

    def gamma(self) -> float:
        return abs(self.value(0j)[0])

    def value(self, z: complex) -> tuple[complex, complex]:
        """(phi(z), phi'(z)) by the product rule, factor by factor."""
        p, dp = self.const, 0j
        if self.zero_factor:
            p, dp = p * z, dp * z + p
        for a in self.zeros:
            den = 1.0 + a.conjugate() * z
            g = (z + a) / den
            dg = (1.0 - abs(a) ** 2) / (den * den)
            p, dp = p * g, dp * g + p * dg
        return p, dp


class MemberOracle:
    """Exact pointwise quantities of the member generated from ``phi``."""

    def __init__(self, phi: SelfMap, alpha: float):
        self.phi = phi
        self.c = math.cos(alpha)
        self.b = cmath.exp(-1j * alpha) * self.c

    def pre_schwarzian(self, z: complex) -> complex:
        p, _ = self.phi.value(z)
        return 2.0 * self.b * p / (1.0 - z * p)

    def schwarzian(self, z: complex) -> complex:
        p, dp = self.phi.value(z)
        b = self.b
        return 2.0 * b * (dp + (1.0 - b) * p * p) / (1.0 - z * p) ** 2

    def weighted_pre(self, z: complex) -> float:
        return (1.0 - abs(z) ** 2) * abs(self.pre_schwarzian(z))

    def weighted_schwarzian(self, z: complex) -> float:
        return (1.0 - abs(z) ** 2) ** 2 * abs(self.schwarzian(z))

    def log_fprime(self, z: complex) -> complex:
        return z * integrate(lambda t: self.pre_schwarzian(t * z), 0.0, 1.0)

    def abs_fprime(self, z: complex) -> float:
        return math.exp(self.log_fprime(z).real)

    def abs_f(self, z: complex) -> float:
        """|f(z)| with f(z) = z * int_0^1 f'(tz) dt; log f' is accumulated
        panel by panel so each outer node needs one short inner integral."""
        z = complex(z)
        h = 1.0 / RAY_PANELS
        log_start = 0j
        acc = 0j
        for p in range(RAY_PANELS):
            lo = p * h
            mid = lo + 0.5 * h
            for x, w in zip(GL_NODES, GL_WEIGHTS):
                t = mid + 0.5 * h * x
                inner = integrate(lambda s: self.pre_schwarzian(s * z), lo, t, 1)
                acc += w * cmath.exp(log_start + z * inner)
            log_start += z * integrate(lambda s: self.pre_schwarzian(s * z), lo, lo + h, 1)
        return abs(z * 0.5 * h * acc)

    def residuals(self, z: complex) -> tuple[float, float]:
        """The two characterization residuals, each >= 0 for |phi| < 1."""
        p, _ = self.phi.value(z)
        den = abs(1.0 - z * p)
        res_ii = self.c * (1.0 - abs(p) ** 2) / den ** 2
        res_iii = 2.0 * self.c * (1.0 - abs(p - z.conjugate()) / den)
        return res_ii, res_iii

    def schur_excess(self, z: complex) -> float:
        """|phi|^2/(1-|phi|^2) minus its Schur-class bound (<= 0 for self-maps)."""
        m = abs(self.phi.value(z)[0])
        g = self.phi.gamma()
        lhs = m * m / (1.0 - m * m)
        return lhs - (g + abs(z)) ** 2 / ((1.0 - g) ** 2 * (1.0 - abs(z) ** 2))


def growth_bounds(r: float, c: float) -> tuple[float, float]:
    """(int_0^r (1 + t^2)^-c dt, int_0^r (1 - t^2)^-c dt)."""
    lower = integrate(lambda t: (1.0 + t * t) ** -c, 0.0, r).real
    upper = integrate(lambda t: (1.0 - t * t) ** -c, 0.0, r).real
    return lower, upper


def distortion_bounds(r: float, c: float) -> tuple[float, float]:
    return (1.0 + r * r) ** -c, (1.0 - r * r) ** -c


def self_check(package) -> list[str]:
    """Compare the oracles with closed forms and with the package's pointwise
    derivatives at |z| <= 0.5; returns one message per disagreement."""
    errors = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            errors.append(f"oracle {name}: {got!r} != {want!r}")

    pts = [0.9 * cmath.exp(1j * k) * (k % 4 + 1) / 4 for k in range(12)]
    for alpha in (-1.3, -0.4, 0.0, 0.9, 1.3):
        b = cmath.exp(-1j * alpha) * math.cos(alpha)
        # phi = zeta: f' = (1 - zeta z)^(-2b), f = ((1 - zeta z)^(1-2b) - 1)/(zeta(2b-1))
        zeta = cmath.exp(0.7j + alpha)
        spiral = MemberOracle(SelfMap((), False, zeta), alpha)
        # phi = z: f' = (1 - z^2)^(-b)
        square = MemberOracle(SelfMap((), True), alpha)
        for z in pts:
            w = 1.0 - zeta * z
            expect("spiral u", spiral.pre_schwarzian(z), 2 * b * zeta / w, 1e-13)
            expect("spiral S", spiral.schwarzian(z),
                   2 * b * (1 - b) * zeta ** 2 / w ** 2, 1e-12)
            expect("spiral |f'|", spiral.abs_fprime(z), abs(cmath.exp(-2 * b * cmath.log(w))),
                   1e-11)
            f = (cmath.exp((1 - 2 * b) * cmath.log(w)) - 1.0) / (zeta * (2 * b - 1))
            expect("spiral |f|", spiral.abs_f(z), abs(f), 1e-11)
            g = 1.0 - z * z
            expect("square S", square.schwarzian(z), 2 * b * (1 + (1 - b) * z * z) / g ** 2,
                   1e-12)
            expect("square |f'|", square.abs_fprime(z), abs(cmath.exp(-b * cmath.log(g))), 1e-11)
        lo, hi = growth_bounds(0.8, math.cos(alpha))
        if alpha == 0.0:
            expect("growth lower", lo, math.atan(0.8), 1e-13)
            expect("growth upper", hi, math.atanh(0.8), 1e-13)

    near = [0.5 * cmath.exp(2.1j * k) * ((k % 5) + 1) / 5 for k in range(10)]
    for seed, alpha, degree, zero_f2 in ((11, 0.6, 3, True), (12, -1.2, 2, False),
                                         (13, 1.25, 1, False)):
        member = package.random_member(package.Alpha(alpha), seed, degree, zero_f2)
        oracle = MemberOracle(SelfMap.of_member(member.provenance), alpha)
        expect("gamma", oracle.phi.gamma(), member.provenance.gamma, 1e-14)
        for z in near:
            expect("member u", oracle.pre_schwarzian(z), package.pre_schwarzian_at(member, z),
                   1e-10)
            expect("member S", oracle.schwarzian(z), package.schwarzian_at(member, z), 1e-9)
            expect("member |f'|", oracle.abs_fprime(z), abs(member.derivatives(z).f1), 1e-11)
            expect("member |f|", oracle.abs_f(z), abs(member.value(z)), 1e-11)
            r_ii, r_iii = oracle.residuals(z)
            p_ii, p_iii = package.characterization_residuals(member, package.Alpha(alpha), z)
            expect("residual ii", r_ii, p_ii, 1e-9)
            expect("residual iii", r_iii, p_iii, 1e-9)
    return errors
