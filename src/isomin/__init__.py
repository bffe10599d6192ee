"""Workbench for isotropic minimal surfaces and their sphere bundles.

Generators build minimal surfaces in R^(n+1) from complex polynomial data
through a two-step null recursion, plus unit tangent and unit normal bundle
charts over them; verifiers measure fundamental forms, curvature ellipses,
isotropy orders, relative nullity, and the splitting tensor of the nullity
line, so that every asserted property is checked numerically.
"""

from . import bundles, catalog, cpoly, errors, geometry, jet, weierstrass

__version__ = "0.1.0"

__all__ = ["__version__", "bundles", "catalog", "cpoly", "errors",
           "geometry", "jet", "weierstrass"]
