"""Reference charts with known geometry, plus demo recursion data.

Fixtures double as test oracles: each constructor documents the frozen
properties the rest of the package asserts against (flag dimensions,
isotropy orders, mean curvature values). Every chart evaluates a batch of
points at once: coordinate jets of shape (P,), stacked into (P, N).
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from . import cpoly as cp
from . import jet as J
from .errors import InvalidData
from .geometry import ImmersionChart
from .weierstrass import WeierstrassData, isotropic_step, surface_chart


def _require_integer(name: str, value, low: int):
    """InvalidData unless value is an integer >= low; booleans are not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise InvalidData(f"{name} must be an integer >= {low}, got {value!r}")


def make_holomorphic_curve(powers: tuple[int, ...], pad: int = 0,
                           domain=((-1.0, 1.0), (-1.0, 1.0))) -> ImmersionChart:
    """Real chart of z -> (z^p1, ..., z^pk), C^k = R^(2k), zero-padded to
    R^(2k + pad). Holomorphic curves are minimal and fully isotropic; with
    distinct positive powers the flag is nicely curved away from z = 0."""
    powers = tuple(int(p) for p in powers)
    if not powers or any(p < 1 for p in powers):
        raise InvalidData(f"powers must be positive integers, got {powers}")
    _require_integer("pad", pad, 0)

    rows = np.arange(len(powers))
    components = np.zeros((2 * len(powers) + pad, max(powers) + 1),
                          dtype=complex)
    components[2 * rows, powers] = 1
    components[2 * rows + 1, powers] = -1j
    name = "curve-" + "-".join(str(p) for p in powers)
    if pad:
        name += f"-pad{pad}"
    return surface_chart(components, name=name, domain=domain)


def make_plane(pad: int = 3) -> ImmersionChart:
    """Affine plane (u, v, 0, ...) = Re (z, -iz, 0, ...) in R^(2 + pad):
    totally geodesic, N_1 = 0.

    The default pad keeps the ambient dimension at 5 so the plane remains a
    legal (if everywhere degenerate) unit tangent bundle base."""
    _require_integer("pad", pad, 1)
    components = np.array([[0, 1], [0, -1j]] + [[0, 0]] * pad, dtype=complex)
    return surface_chart(components, name=f"plane-pad{pad}")


def _stereographic(points, space) -> J.Jet:
    """Inverse stereographic projection (u, v) -> S^2 at points of shape
    (P, 2), a jet of shape (3, P)."""
    u = J.jet_variable(space, 0, points[:, 0])
    v = J.jet_variable(space, 1, points[:, 1])
    u2 = J.jet_mul(u, u)
    v2 = J.jet_mul(v, v)
    inv = J.jet_compose("recip", u2 + v2 + 1.0)
    return J.jet_stack([2.0 * J.jet_mul(u, inv), 2.0 * J.jet_mul(v, inv),
                        J.jet_mul(1.0 - u2 - v2, inv)])


def make_veronese(domain=((-0.85, 0.85), (-0.85, 0.85))) -> ImmersionChart:
    """Veronese minimal surface in S^4, over a stereographic chart of S^2
    that excludes a cap around the far pole. Substantial with flag (2, 2),
    tau = 1, minimal (isotropy order 1)."""

    def jet_fn(points, space):
        x, y, zc = _stereographic(points, space)
        r3 = math.sqrt(3.0)
        return J.jet_stack([r3 * J.jet_mul(x, y),
                            r3 * J.jet_mul(x, zc),
                            r3 * J.jet_mul(y, zc),
                            (r3 / 2.0) * (J.jet_mul(x, x) - J.jet_mul(y, y)),
                            0.5 * (J.jet_mul(x, x) + J.jet_mul(y, y)
                                   - 2.0 * J.jet_mul(zc, zc))]).T

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=tuple(domain),
                          name="veronese")


def make_great_sphere() -> ImmersionChart:
    """Totally geodesic S^2 inside S^4 (stereographic chart): tau = 0."""

    def jet_fn(points, space):
        zero = J.jet_constant(space, np.zeros(len(points)))
        return J.jet_stack([*_stereographic(points, space), zero, zero]).T

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=((-0.85, 0.85), (-0.85, 0.85)),
                          name="great-sphere")


def make_geodesic_sphere(radius: float = math.pi / 4) -> ImmersionChart:
    """Geodesic distance sphere of the given radius in S^4, as a 3-chart.

    Nowhere minimal: the mean curvature norm is 3 cot(radius) and the
    relative nullity is 0. The chart stays away from the coordinate poles
    of the S^3 fiber parametrization."""
    if (isinstance(radius, bool) or not isinstance(radius, numbers.Real)
            or not 0.0 < radius < math.pi):
        raise InvalidData(f"radius must be a number in (0, pi), got {radius!r}")
    cr, sr = math.cos(radius), math.sin(radius)

    def jet_fn(points, space):
        t1, t2, t3 = (J.jet_variable(space, i, points[:, i]) for i in range(3))
        c1, s1 = J.jet_compose("cos", t1), J.jet_compose("sin", t1)
        c2, s2 = J.jet_compose("cos", t2), J.jet_compose("sin", t2)
        c3, s3 = J.jet_compose("cos", t3), J.jet_compose("sin", t3)
        return J.jet_stack([J.jet_constant(space, np.full(len(points), cr)),
                            sr * c1,
                            sr * J.jet_mul(s1, c2),
                            sr * J.jet_mul(s1, J.jet_mul(s2, c3)),
                            sr * J.jet_mul(s1, J.jet_mul(s2, s3))]).T

    return ImmersionChart(domain_dim=3, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn,
                          domain=((0.5, math.pi - 0.5),
                                  (0.5, math.pi - 0.5),
                                  (0.0, 2.0 * math.pi)),
                          periodic=(False, False, True),
                          name=f"geodesic-sphere-r{radius:.4g}")


def demo_weierstrass_data(n: int, final_integration: bool = True) -> WeierstrassData:
    """Frozen demo data sets for n in {4, 5, 6, 7, 8}.

    n = 4 integrates to a chart congruent to the (z, z^2) curve; n = 5 and
    n = 6 are generic (alpha0 . alpha0 != 0), n = 7 uses alpha0 produced by
    one recursion step, so the result is 2-isotropic."""
    one = np.ones(1, dtype=complex)
    if n == 4:
        alpha0 = np.zeros((0, 0), dtype=complex)
    elif n == 5:
        alpha0 = np.array([[1]], dtype=complex)
    elif n == 6:
        alpha0 = np.array([[1, 0], [0, 1]], dtype=complex)
    elif n == 7:
        alpha0 = isotropic_step(np.array([[1]], dtype=complex), one)
    elif n == 8:
        alpha0 = np.array([[1, 0, 0], [0, 1, 0], [1, 0, -1], [0.5, 0.25, 0]],
                          dtype=complex)
    else:
        raise InvalidData(f"no demo data for n = {n}")
    return WeierstrassData(n=n, alpha0=alpha0, beta1=one, beta2=one,
                           final_integration=final_integration)


def random_weierstrass_data(rng: np.random.Generator, n: int,
                            max_degree: int = 4) -> WeierstrassData:
    """Seeded random data: coefficients uniform in the unit square, betas
    with constant term bounded away from zero."""
    if n < 4:
        raise InvalidData(f"need n >= 4, got n = {n}")

    def rand_poly(deg: int, floor: float = 0.0) -> np.ndarray:
        coeffs = rng.uniform(-1.0, 1.0, size=(deg + 1, 2)).view(complex)[:, 0]
        if floor:
            head = complex(coeffs[0])
            mag = max(abs(head), 1e-3)
            coeffs[0] = head / mag * (floor + abs(head))
        return coeffs

    alpha0 = cp.stack([rand_poly(int(rng.integers(0, max_degree + 1)))
                       for _ in range(n - 4)])
    if n > 4 and not alpha0.any():
        alpha0[0, 0] = 1
    beta1 = rand_poly(int(rng.integers(0, max_degree + 1)), floor=0.5)
    beta2 = rand_poly(int(rng.integers(0, max_degree + 1)), floor=0.5)
    return WeierstrassData(n=n, alpha0=alpha0, beta1=beta1, beta2=beta2)


def make_fixture(name: str, **params) -> ImmersionChart:
    """Registry addressed by the CLI: 'veronese', 'plane' (param pad),
    'great-sphere', 'geodesic-sphere' (param radius) or
    'curve-<p1>-<p2>-...[-pad<k>]' (param pad; the name's pad wins). Any
    other param raises InvalidData, as does a bad value."""
    makers = {"veronese": make_veronese, "plane": make_plane,
              "great-sphere": make_great_sphere,
              "geodesic-sphere": make_geodesic_sphere}
    kind = "curve" if name.startswith("curve-") else name
    if kind != "curve" and kind not in makers:
        raise InvalidData(f"unknown fixture {name!r}")
    accepted = {"plane": "pad", "curve": "pad",
                "geodesic-sphere": "radius"}.get(kind)
    for key in params:
        if key != accepted:
            raise InvalidData(f"fixture {name} has no param {key!r} "
                              f"(params: {accepted or 'none'})")
    if kind != "curve":
        return makers[name](**params)
    tokens = name.split("-")[1:]
    pad = params.get("pad", 0)
    _require_integer("pad", pad, 0)
    if tokens and tokens[-1].startswith("pad"):
        tail, tokens = tokens[-1], tokens[:-1]
        try:
            pad = int(tail[3:])
        except ValueError:
            raise InvalidData(f"bad curve fixture name {name!r}")
    try:
        powers = tuple(int(p) for p in tokens)
    except ValueError:
        raise InvalidData(f"bad curve fixture name {name!r}")
    return make_holomorphic_curve(powers, pad=pad)
