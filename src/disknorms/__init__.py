"""Weighted Schwarzian-type norms and class-membership checks on the unit disk."""

from .catalog import (Alpha, AnalyticFn, DerivStack, GeneratedMember, HalfPlane, Identity,
                      Koebe, MemberProvenance, Moebius, Polynomial, RationalField,
                      RobertsonExtremal, SeriesFn, SpiralPower, ZTimesDerivative,
                      eval_derivatives, random_member, second_deriv_origin)
from .derivatives import (pre_schwarzian_at, pre_schwarzian_series,
                          schwarzian_at, schwarzian_extremal_closed,
                          schwarzian_series)
from .disksup import (MarginReport, NormEstimate, SamplingPlan, radial_profile,
                      random_disk_points, weighted_inf_re, weighted_sup)
from .errors import (DiskNormsError, DivisionBySingularSeries, MaxSubdivisions,
                     NonFiniteValue, OutsideGuardRadius, PhiPoleEncountered,
                     VanishingDerivative, ZeroValueEncountered)
from .quadrature import quadrature, quadrature_complex
from .robertson import (CriterionRow, PhiTransform, UnivalenceVerdict,
                        characterization_residuals, cubic_root, duality_check,
                        is_certified_member, membership_certificate, phi_transform,
                        robertson_margin, spirallike_margin, univalence_criteria)
from .series import (TaylorSeries, series_diff, series_div, series_eval,
                     series_exp, series_integrate, series_log, series_mul,
                     series_pow)
from .theorems import (GrowthBounds, TheoremReport, growth_bounds,
                       lemma_schur_check, t45_bound, verify_T41,
                       verify_T42_distortion, verify_T42_growth, verify_T43,
                       verify_T44, verify_T45)

__version__ = "0.1.0"

__all__ = [
    "Alpha", "AnalyticFn", "DerivStack", "GeneratedMember", "HalfPlane", "Identity",
    "Koebe", "MemberProvenance", "Moebius", "Polynomial", "RationalField",
    "RobertsonExtremal", "SeriesFn", "SpiralPower", "ZTimesDerivative", "eval_derivatives",
    "random_member", "second_deriv_origin",
    "pre_schwarzian_at", "pre_schwarzian_series", "schwarzian_at",
    "schwarzian_extremal_closed", "schwarzian_series",
    "MarginReport", "NormEstimate", "SamplingPlan", "radial_profile",
    "random_disk_points", "weighted_inf_re", "weighted_sup",
    "DiskNormsError", "DivisionBySingularSeries", "MaxSubdivisions",
    "NonFiniteValue", "OutsideGuardRadius", "PhiPoleEncountered",
    "VanishingDerivative", "ZeroValueEncountered",
    "quadrature", "quadrature_complex",
    "CriterionRow", "PhiTransform", "UnivalenceVerdict",
    "characterization_residuals", "cubic_root", "duality_check",
    "is_certified_member", "membership_certificate", "phi_transform", "robertson_margin",
    "spirallike_margin", "univalence_criteria",
    "TaylorSeries", "series_diff", "series_div", "series_eval", "series_exp",
    "series_integrate", "series_log", "series_mul", "series_pow",
    "GrowthBounds", "TheoremReport", "growth_bounds", "lemma_schur_check",
    "t45_bound", "verify_T41", "verify_T42_distortion", "verify_T42_growth",
    "verify_T43", "verify_T44", "verify_T45",
    "__version__",
]
