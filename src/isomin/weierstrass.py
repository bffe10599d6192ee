"""Weierstrass-type recursion producing 1-isotropic minimal surfaces.

One recursion step maps a polynomial curve alpha in C^d and a nonzero
polynomial beta to the null curve

    beta * (1 - phi.phi, i (1 + phi.phi), 2 phi),   phi = integral of alpha,

in C^(d+2), where the dot is the unconjugated bilinear pairing. The output
is a null curve for every input (the middle identity (1-s)^2 - (1+s)^2 + 4s
= 0 needs nothing from alpha). Two steps starting from data in C^(n-4)
produce a null curve alpha_2 in C^n whose integral has 1-isotropic real
part: g = Re \\int alpha_2 dz is a minimal surface whose first curvature
ellipse is a circle at every immersed point. Taking the real part without
the final integration (final_integration=False) also yields a minimal
surface, but its first ellipse is a circle only when alpha_0.alpha_0 = 0;
that reading is kept available for comparison.

Curves are `cpoly` arrays: a curve in C^d is one complex (d, L) array, row
i its component i and column k the coefficient of z^k, zero-padded; a step
is one bilinear self-product and one product by beta over the whole array.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import cpoly as cp
from . import jet as J
from .errors import DimensionMismatch, InvalidData
from .geometry import ImmersionChart

NULL_TOL = 1e-12  # default bound of the relative null residuals


def isotropic_step(alpha: np.ndarray, beta: np.ndarray,
                   constants=0) -> np.ndarray:
    """One recursion step: a (d, L) curve in C^d -> null curve in C^(d+2)."""
    if not beta.any():
        raise InvalidData("beta must be a nonzero polynomial")
    phi = cp.poly_int(alpha, constants)
    s = cp.bilinear_dot(phi, phi)
    unit = np.zeros_like(s)
    unit[0] = 1
    curve = np.zeros((len(phi) + 2, len(s)), dtype=complex)
    # unit - s, not -s: -s writes a zero of s as -0.0 into the JSON
    curve[0], curve[1] = unit - s, 1j * (unit + s)
    curve[2:, :phi.shape[1]] = 2 * phi
    return cp.poly_mul(beta, curve)


def null_residual(v: np.ndarray) -> float:
    """Max |coefficient| of the bilinear self-product, relative to the
    squared scale of the largest input coefficient; NaN when a coefficient
    of v or of the product is not finite (an overflow, silently), so that
    no bound check passes."""
    if not np.isfinite(v).all():
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        dot = cp.bilinear_dot(v, v)
    if not np.isfinite(dot).all():
        return math.nan
    scale = max(1.0, float(np.abs(v).max(initial=0.0)))
    return float(np.abs(dot).max()) / scale / scale


@dataclasses.dataclass
class WeierstrassData:
    """Input data for the two-step recursion into C^n.

    alpha0 is a complex (n - 4, L) array (no rows for n = 4) and must be
    nonzero when n > 4; beta1 and beta2 are nonzero one-dimensional
    coefficient arrays (`cpoly`). Integration constants are per component,
    keyed by stage ("phi0", "phi1", "phi2"), default 0.
    """

    n: int
    alpha0: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    int_constants: dict[str, tuple[complex, ...]] = dataclasses.field(
        default_factory=dict)
    final_integration: bool = True

    def __post_init__(self):
        if self.n < 4:
            raise InvalidData(f"need n >= 4, got n = {self.n}")
        if len(self.alpha0) != self.n - 4:
            raise DimensionMismatch(
                f"alpha0 needs {self.n - 4} components for n = {self.n}, "
                f"got {len(self.alpha0)}")
        if self.n > 4 and not self.alpha0.any():
            raise InvalidData("alpha0 must be nonzero when n > 4")
        if not (self.beta1.any() and self.beta2.any()):
            raise InvalidData("beta1 and beta2 must be nonzero")
        for key, length in (("phi0", self.n - 4), ("phi1", self.n - 2),
                            ("phi2", self.n)):
            got = self.int_constants.get(key)
            if got is not None and len(got) != length:
                raise DimensionMismatch(
                    f"int_constants[{key!r}] needs {length} entries")

    def to_json(self) -> dict:
        out = {"n": self.n,
               "alpha0": cp.to_json(self.alpha0),
               "beta1": cp.to_json(self.beta1),
               "beta2": cp.to_json(self.beta2),
               "final_integration": self.final_integration}
        if self.int_constants:
            out["int_constants"] = {
                k: [[c.real, c.imag] for c in v]
                for k, v in self.int_constants.items()}
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "WeierstrassData":
        if not isinstance(doc, dict) or "n" not in doc:
            raise InvalidData("Weierstrass data must be an object with 'n'")
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidData(f"n must be an integer, got {n!r}")
        final = doc.get("final_integration", True)
        if not isinstance(final, bool):
            raise InvalidData(
                f"final_integration must be a boolean, got {final!r}")
        consts = doc.get("int_constants") or {}
        if not isinstance(consts, dict):
            raise InvalidData("int_constants must be an object")
        for key in consts:
            if key not in ("phi0", "phi1", "phi2"):
                raise InvalidData(f"unknown integration stage {key!r}")
        consts = {k: tuple(cp.complex_list_from_json(v).tolist())
                  for k, v in consts.items()}
        return cls(n=n,
                   alpha0=cp.from_json(doc.get("alpha0", [])),
                   beta1=cp.complex_list_from_json(
                       doc.get("beta1", [[1.0, 0.0]])),
                   beta2=cp.complex_list_from_json(
                       doc.get("beta2", [[1.0, 0.0]])),
                   int_constants=consts,
                   final_integration=final)


@dataclasses.dataclass
class MinimalSurfaceRep:
    """Result of the recursion: the intermediate null curves, the integrated
    curve (each a (d, L) array), the induced real chart g, and the
    null-identity residuals."""

    data: WeierstrassData
    alpha1: np.ndarray
    alpha2: np.ndarray
    phi2: np.ndarray
    chart: ImmersionChart
    residuals: dict[str, float]

    def to_json(self) -> dict:
        return {"n": self.data.n,
                "data": self.data.to_json(),
                "final_integration": self.data.final_integration,
                "alpha1": cp.to_json(self.alpha1),
                "alpha2": cp.to_json(self.alpha2),
                "phi2": cp.to_json(self.phi2),
                "residuals": dict(self.residuals)}


def surface_chart(components: np.ndarray, name: str = "",
                  domain: tuple = ((-1.0, 1.0), (-1.0, 1.0))) -> ImmersionChart:
    """Chart (u, v) -> Re Phi(u + iv) for a complex polynomial curve Phi,
    a (d, L) array.

    The derivatives of the components are computed once, here, up to the
    curve's degree (its last nonzero column), as one coefficient table: the
    coefficient of z^e in the k-th derivative is (e + k)! / e! times that
    of z^(e + k). Evaluation runs Horner's rule in z = u + iv on that table
    at every point of a batch, for all components and derivatives at once,
    and reads the vector jets off the values (`jet.jet_holomorphic_re`).
    Horner's rule is elementwise: unlike a matrix product, whose rounding
    depends on the batch size, it gives a point the same bits in any batch,
    and it needs no array larger than its result. A table of finite
    coefficients has a finite value at every point, so a value that is not
    finite there is an overflow, raised as a FloatingPointError; a table
    that is not finite gives values that are not finite. The chart keeps
    the trimmed curve as its `curve`."""
    # the padded columns past the curve's degree would add Horner steps that
    # only multiply zeros
    length = max(np.flatnonzero(components.any(axis=0)), default=0) + 1
    components = components[:, :length]
    d = len(components)
    e = np.arange(length)
    # steps[e, j] = e + j for j = 1..length - 1, zero past the degree, so
    # that the running products are (e + k)! / e!, zero past the degree
    steps = e[:, None] + e[1:]
    steps[steps >= length] = 0
    falling = np.cumprod(np.hstack([np.ones((length, 1)), steps]), axis=1)
    # table[e, i, k]: coefficient of z^e in the k-th derivative of component
    # i (an infinite coefficient times a zero factor is NaN, silently)
    with np.errstate(over="ignore", invalid="ignore"):
        table = components[:, np.minimum(e[:, None] + e, length - 1)] * falling
    table = table.transpose(1, 0, 2).reshape(length, -1)
    finite = np.isfinite(table).all()
    degree = length - 1

    def jet_fn(points, space):
        z = (points[:, 0] + 1j * points[:, 1])[:, None]
        derivs = np.repeat(table[-1:], len(z), axis=0)
        # with a finite table, only an overflow makes a value not finite
        with np.errstate(over="raise" if finite else "ignore",
                         invalid="ignore"):
            try:
                for row in table[-2::-1]:
                    derivs *= z
                    derivs += row
            except FloatingPointError:
                at = points[~np.isfinite(derivs).all(axis=1)][0]
                raise FloatingPointError(
                    f"{name or 'the surface chart'} overflows at "
                    f"{tuple(at.tolist())}") from None
        derivs = derivs.reshape(len(z), d, length)
        if space.order > degree:
            derivs = np.pad(derivs, ((0, 0), (0, 0),
                                     (0, space.order - degree)))
        return J.jet_holomorphic_re(space, derivs[..., :space.order + 1])

    return ImmersionChart(domain_dim=2, ambient_dim=d,
                          ambient="euclidean", jet_fn=jet_fn,
                          domain=tuple(domain), name=name, curve=components)


# IEEE arithmetic on the data: an overflow gives coefficients that are not
# finite, which null_residual reports as NaN, and no warning
@np.errstate(over="ignore", invalid="ignore")
def null_curves(data: WeierstrassData
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two recursion steps and the final integral: alpha1, alpha2 and
    phi2 = integral of alpha2."""
    consts = data.int_constants
    alpha1 = isotropic_step(data.alpha0, data.beta1, consts.get("phi0", 0))
    alpha2 = isotropic_step(alpha1, data.beta2, consts.get("phi1", 0))
    return alpha1, alpha2, cp.poly_int(alpha2, consts.get("phi2", 0))


def _real_chart(data: WeierstrassData, alpha2: np.ndarray,
                phi2: np.ndarray) -> ImmersionChart:
    curve = phi2 if data.final_integration else alpha2
    tag = "int" if data.final_integration else "noint"
    return surface_chart(curve, name=f"weierstrass-n{data.n}-{tag}")


def weierstrass_chart(data: WeierstrassData) -> ImmersionChart:
    """The real surface chart of the data alone, as generate_surface builds
    it, without the null-identity residuals."""
    _, alpha2, phi2 = null_curves(data)
    return _real_chart(data, alpha2, phi2)


@np.errstate(over="ignore", invalid="ignore")
def generate_surface(data: WeierstrassData) -> MinimalSurfaceRep:
    """Run the two-step recursion, check the null identities and build the
    real surface chart."""
    alpha1, alpha2, phi2 = null_curves(data)
    residuals = {
        "alpha1_null": null_residual(alpha1),
        "alpha2_null": null_residual(alpha2),
        "alpha2_derivative_null": null_residual(cp.poly_diff(alpha2)),
    }
    return MinimalSurfaceRep(data=data, alpha1=alpha1, alpha2=alpha2,
                             phi2=phi2, chart=_real_chart(data, alpha2, phi2),
                             residuals=residuals)
