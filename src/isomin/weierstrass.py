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
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Sequence

import numpy as np

from . import cpoly as cp
from . import jet as J
from .errors import DimensionMismatch, InvalidData
from .geometry import ImmersionChart


def isotropic_step(alpha: Sequence[cp.ComplexPoly],
                   beta: cp.ComplexPoly,
                   constants: Sequence[complex] | None = None) -> cp.PolyVec:
    """One recursion step: C^d curve -> null curve in C^(d+2)."""
    if beta.is_zero():
        raise InvalidData("beta must be a nonzero polynomial")
    phi = cp.vec_int(alpha, constants)
    s = cp.bilinear_dot(phi, phi)
    head = cp.poly_mul(beta, cp.ONE - s)
    mid = cp.poly_mul(beta, (cp.ONE + s) * 1j)
    tail = tuple(cp.poly_mul(beta, p) * 2 for p in phi)
    return (head, mid) + tail


def null_residual(v: Sequence[cp.ComplexPoly]) -> float:
    """Max |coefficient| of the bilinear self-product, relative to the
    squared scale of the largest input coefficient; NaN when a coefficient
    of v or of the product is not finite, so that no bound check passes."""
    dot = cp.bilinear_dot(v, v)
    if not all(cmath.isfinite(c) for p in (*v, dot) for c in p.coeffs):
        return math.nan
    scale = max(1.0, cp.vec_max_abs_coeff(v))
    return dot.max_abs_coeff() / scale / scale


@dataclasses.dataclass
class WeierstrassData:
    """Input data for the two-step recursion into C^n.

    alpha0 has n - 4 components (empty for n = 4) and must be nonzero when
    n > 4; beta1 and beta2 are nonzero polynomials. Integration constants
    are per component, keyed by stage ("phi0", "phi1", "phi2"), default 0.
    """

    n: int
    alpha0: cp.PolyVec
    beta1: cp.ComplexPoly
    beta2: cp.ComplexPoly
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
        if self.n > 4 and all(p.is_zero() for p in self.alpha0):
            raise InvalidData("alpha0 must be nonzero when n > 4")
        if self.beta1.is_zero() or self.beta2.is_zero():
            raise InvalidData("beta1 and beta2 must be nonzero")
        for key, length in (("phi0", self.n - 4), ("phi1", self.n - 2),
                            ("phi2", self.n)):
            got = self.int_constants.get(key)
            if got is not None and len(got) != length:
                raise DimensionMismatch(
                    f"int_constants[{key!r}] needs {length} entries")

    def constants(self, key: str, length: int) -> tuple[complex, ...]:
        got = self.int_constants.get(key)
        return tuple(got) if got is not None else (0j,) * length

    def to_json(self) -> dict:
        out = {"n": self.n,
               "alpha0": cp.vec_to_json(self.alpha0),
               "beta1": cp.poly_to_json(self.beta1),
               "beta2": cp.poly_to_json(self.beta2),
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
        consts = {k: cp.complex_list_from_json(v) for k, v in consts.items()}
        return cls(n=n,
                   alpha0=cp.vec_from_json(doc.get("alpha0", [])),
                   beta1=cp.poly_from_json(doc.get("beta1", [[1.0, 0.0]])),
                   beta2=cp.poly_from_json(doc.get("beta2", [[1.0, 0.0]])),
                   int_constants=consts,
                   final_integration=final)


@dataclasses.dataclass
class MinimalSurfaceRep:
    """Result of the recursion: the intermediate null curves, the integrated
    curve, the induced real chart g, and the null-identity residuals."""

    data: WeierstrassData
    alpha1: cp.PolyVec
    alpha2: cp.PolyVec
    phi2: cp.PolyVec
    chart: ImmersionChart
    residuals: dict[str, float]

    def to_json(self) -> dict:
        return {"n": self.data.n,
                "data": self.data.to_json(),
                "final_integration": self.data.final_integration,
                "alpha1": cp.vec_to_json(self.alpha1),
                "alpha2": cp.vec_to_json(self.alpha2),
                "phi2": cp.vec_to_json(self.phi2),
                "residuals": dict(self.residuals)}


def surface_chart(components: cp.PolyVec, name: str = "",
                  domain: tuple = ((-1.0, 1.0), (-1.0, 1.0))) -> ImmersionChart:
    """Chart (u, v) -> Re Phi(u + iv) for a complex polynomial curve Phi.

    The derivatives of each component are computed once, here, as one
    coefficient table; evaluation runs Horner's rule in z = u + iv on that
    table at every point of a batch, for all components and derivatives
    at once, and reads the vector jets off the values
    (`jet.jet_holomorphic_re`). Horner's rule is elementwise: unlike a
    matrix product, whose rounding depends on the batch size, it gives a
    point the same bits in any batch, and it needs no array larger than
    its result."""
    chains = []
    for p in components:
        chain = []
        while not p.is_zero():
            chain.append(p)
            p = cp.poly_diff(p)
        chains.append(chain)
    degree = max((len(c) - 1 for c in chains), default=0)
    # table[e, i, k]: coefficient of z^e in the k-th derivative of component
    # i (zero past the end of its chain)
    table = np.zeros((degree + 1, len(chains), degree + 1), dtype=complex)
    for i, chain in enumerate(chains):
        for k, p in enumerate(chain):
            table[:len(p.coeffs), i, k] = p.coeffs
    table = table.reshape(degree + 1, -1)

    def jet_fn(points, space):
        z = (points[:, 0] + 1j * points[:, 1])[:, None]
        derivs = np.repeat(table[-1:], len(z), axis=0)
        for row in table[-2::-1]:
            derivs *= z
            derivs += row
        derivs = derivs.reshape(len(z), len(chains), degree + 1)
        if space.order > degree:
            derivs = np.pad(derivs, ((0, 0), (0, 0),
                                     (0, space.order - degree)))
        return J.jet_holomorphic_re(space, derivs[..., :space.order + 1])

    return ImmersionChart(domain_dim=2, ambient_dim=len(chains),
                          ambient="euclidean", jet_fn=jet_fn,
                          domain=tuple(domain), name=name)


def null_curves(data: WeierstrassData
                ) -> tuple[cp.PolyVec, cp.PolyVec, cp.PolyVec]:
    """The two recursion steps and the final integral: alpha1, alpha2 and
    phi2 = integral of alpha2."""
    alpha1 = isotropic_step(data.alpha0, data.beta1,
                            data.constants("phi0", data.n - 4))
    alpha2 = isotropic_step(alpha1, data.beta2,
                            data.constants("phi1", data.n - 2))
    return alpha1, alpha2, cp.vec_int(alpha2, data.constants("phi2", data.n))


def _real_chart(data: WeierstrassData, alpha2: cp.PolyVec,
                phi2: cp.PolyVec) -> ImmersionChart:
    curve = phi2 if data.final_integration else alpha2
    tag = "int" if data.final_integration else "noint"
    return surface_chart(curve, name=f"weierstrass-n{data.n}-{tag}")


def weierstrass_chart(data: WeierstrassData) -> ImmersionChart:
    """The real surface chart of the data alone, as generate_surface builds
    it, without the null-identity residuals."""
    _, alpha2, phi2 = null_curves(data)
    return _real_chart(data, alpha2, phi2)


def generate_surface(data: WeierstrassData) -> MinimalSurfaceRep:
    """Run the two-step recursion, check the null identities and build the
    real surface chart."""
    alpha1, alpha2, phi2 = null_curves(data)
    residuals = {
        "alpha1_null": null_residual(alpha1),
        "alpha2_null": null_residual(alpha2),
        "alpha2_derivative_null": null_residual(cp.vec_diff(alpha2)),
    }
    return MinimalSurfaceRep(data=data, alpha1=alpha1, alpha2=alpha2,
                             phi2=phi2, chart=_real_chart(data, alpha2, phi2),
                             residuals=residuals)
