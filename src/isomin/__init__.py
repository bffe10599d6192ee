"""Workbench for isotropic minimal surfaces and their sphere bundles.

Generators build minimal surfaces in R^(n+1) from complex polynomial data
through a two-step null recursion, plus unit tangent and unit normal bundle
charts over them; verifiers measure fundamental forms, curvature ellipses,
isotropy orders, relative nullity, and the splitting tensor of the nullity
line, so that every asserted property is checked numerically.
"""

from .errors import (AmbiguousKernel, DegeneratePoint, DegenerateValue,
                     DimensionMismatch, FlagCollapse, InvalidData,
                     IsominError, NotElliptic, NullityJump, OrderExceeded,
                     OrderOutOfRange, ShapeMismatch)
from .cpoly import (ComplexPoly, bilinear_dot, poly, poly_diff, poly_eval,
                    poly_from_json, poly_int, poly_mul, poly_to_json,
                    vec_diff, vec_eval, vec_from_json, vec_int, vec_to_json)
from .jet import (Jet, JetSpace, get_space, jet_constant, jet_cos,
                   jet_extract, jet_holomorphic_re, jet_mul, jet_recip,
                   jet_sin, jet_sqrt, jet_truncate, jet_variable)
from .geometry import (EllipseReport, EllipticityReport, FundamentalForms,
                       ImmersionChart, OsculatingFlag, christoffels,
                       curvature_ellipse, ellipticity, first_fundamental_form,
                       fundamental_forms, grid_axes, grid_points,
                       higher_fundamental_form, isotropy_order,
                       mean_curvature_vector, nicely_curved_certificate,
                       osculating_flag, point_report)
from .weierstrass import (MinimalSurfaceRep, WeierstrassData, generate_surface,
                          isotropic_step, null_residual, surface_chart)
from .catalog import (demo_weierstrass_data, make_fixture, make_geodesic_sphere,
                      make_graph, make_great_sphere, make_holomorphic_curve,
                      make_plane, make_veronese, random_weierstrass_data)
from .bundles import (BundleChart, NullityReport, SplittingReport,
                      bundle_point_report, relative_nullity,
                      splitting_tensor, totally_geodesic_classify,
                      unit_normal_chart, unit_tangent_chart)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousKernel", "BundleChart", "ComplexPoly", "DegeneratePoint",
    "DegenerateValue", "DimensionMismatch", "EllipseReport",
    "EllipticityReport", "FlagCollapse", "FundamentalForms", "ImmersionChart",
    "InvalidData", "IsominError", "Jet", "JetSpace", "MinimalSurfaceRep",
    "NotElliptic", "NullityJump", "NullityReport", "OrderExceeded",
    "OrderOutOfRange", "OsculatingFlag",
    "ShapeMismatch", "SplittingReport", "WeierstrassData", "bilinear_dot",
    "bundle_point_report", "christoffels", "curvature_ellipse",
    "demo_weierstrass_data", "ellipticity", "first_fundamental_form",
    "fundamental_forms", "generate_surface", "get_space", "grid_axes",
    "grid_points", "higher_fundamental_form", "isotropic_step",
    "isotropy_order", "jet_constant", "jet_cos", "jet_extract",
    "jet_holomorphic_re", "jet_mul",
    "jet_recip", "jet_sin", "jet_sqrt", "jet_truncate", "jet_variable",
    "make_fixture", "make_geodesic_sphere", "make_graph", "make_great_sphere",
    "make_holomorphic_curve", "make_plane", "make_veronese",
    "mean_curvature_vector", "nicely_curved_certificate",
    "null_residual", "osculating_flag", "point_report", "poly", "poly_diff",
    "poly_eval", "poly_from_json", "poly_int", "poly_mul", "poly_to_json",
    "random_weierstrass_data", "relative_nullity",
    "splitting_tensor", "surface_chart", "totally_geodesic_classify",
    "unit_normal_chart", "unit_tangent_chart", "vec_diff", "vec_eval",
    "vec_from_json", "vec_int", "vec_to_json",
]
