"""Function kinds that only the tests use.

Neither kind has a rational field or a series of f''/f', so no scan takes
them; the tests use them through their guarded jet: as non-members, for
the vanishing-f' guard, and for the duality transfer through
spirallike_margin.  Their series forms (Polynomial.taylor()) are scanned
like any other SeriesFn.
"""

from dataclasses import dataclass

from disknorms.catalog import AnalyticFn, SeriesFn
from disknorms.series import DEFAULT_GUARD_RADIUS, DEFAULT_ORDER, TaylorSeries


@dataclass(frozen=True)
class Polynomial(AnalyticFn):
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def name(self):
        return "polynomial"

    @property
    def is_normalized(self):
        cs = self.coeffs
        return abs(cs[0]) == 0 and len(cs) > 1 and cs[1] == 1

    def _derivative(self, z, k):
        acc = 0j
        for n in range(len(self.coeffs) - 1, k - 1, -1):
            fall = 1.0
            for j in range(k):
                fall *= n - j
            acc = acc * z + fall * self.coeffs[n]
        return acc

    def taylor(self, order=DEFAULT_ORDER, guard_radius=DEFAULT_GUARD_RADIUS):
        return SeriesFn(TaylorSeries.from_polynomial(list(self.coeffs), order, guard_radius),
                        require_normalized=self.is_normalized)


class ZTimesDerivative(AnalyticFn):
    """g(z) = z f'(z); normalized whenever f is.

    Used for the duality transfer between the convexity-type and
    spirallikeness-type margins: z g'/g = 1 + z f''/f' identically.  Each
    derivative g^(k) = k f^(k) + z f^(k+1) (g = z f' for k = 0) comes from
    one call of the base's guarded jet per jet of g, for the orders
    max(lo, 1)..hi + 1, so g needs neither the value of f nor any order of f
    twice.
    """

    def __init__(self, base: AnalyticFn):
        self.base = base
        self.is_normalized = base.is_normalized

    @property
    def name(self):
        return f"z-times-derivative({self.base.name})"

    @property
    def radius_limit(self):
        return self.base.radius_limit

    def _derivatives(self, z, lo, hi):
        first = max(lo, 1)
        fs = self.base.jet(z, first, hi + 1)  # fs[j] = f^(first + j)(z)
        return tuple(z * fs[0] if k == 0 else k * fs[k - first] + z * fs[k + 1 - first]
                     for k in range(lo, hi + 1))
