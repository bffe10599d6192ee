"""Bundle charts over surface charts, and their 3-manifold geometry.

The unit tangent bundle chart sends (u, v, theta) to cos(theta) E1 +
sin(theta) E2, where (E1, E2) is the Gram-Schmidt frame of the coordinate
tangent vectors of a surface in R^(n+1); the image lies in S^n. The unit
normal bundle chart does the same with a frame of the LAST normal space of
a surface in a sphere. Both are honest immersion charts evaluated through
jets, so every per-point quantity (mean curvature, relative nullity,
splitting tensor of the nullity distribution) comes from the same geometry
code path as any other chart.

A bundle chart evaluates a batch of points at once. The frame does not
depend on theta, so it is built once per distinct base point (u, v) and
broadcast over the fiber angles. Frame fields are built by pivoted
orthogonalization in a fixed candidate order, which keeps the frame
deterministic and continuous on chart domains whose flag has constant
dimensions. Points where a pivot degenerates are masked per point, never
composed with sqrt or recip, and come out of the chart as NaN rows, which
the geometry files as singular. Relative nullity is batched the same way:
one evaluation and one stacked pass give every row of a sweep.
Metric-orthonormal frames (the nullity pass, the horizontal plane of the
splitting tensor) are Gram-Schmidt of given vectors in order, by one
Cholesky factorization (`geometry._metric_frame`).
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Sequence

import numpy as np

from . import jet as J
from .errors import (DegeneratePoint, DegenerateValue, FlagCollapse,
                     InvalidData, NotElliptic, NullityJump, ShapeMismatch)
from . import geometry as geo
from .geometry import ImmersionChart


def _jet_orthonormalize(cand: J.Jet, basis: list[J.Jet], eps_rank: float
                        ) -> tuple[J.Jet, np.ndarray]:
    """Orthogonalize stacked vector jets (shape (Q, N)) against unit or zero
    vector jets, row by row; return the normalized residual and the mask of
    rows where it is accepted. A residual is rejected when it is below the
    rank threshold (relative to the candidate's own value scale), or, with
    eps_rank 0, when its squared norm is within the sqrt guard; rejected
    rows come back as zero jets, so they drop out of later projections."""
    scale2 = J.jet_dot(cand, cand).value
    v = cand
    for b in basis:
        v = v - J.jet_dot(v, b)[..., None] * b
    n2 = J.jet_dot(v, v)
    if eps_rank > 0.0:
        thr = eps_rank * np.maximum(1.0, np.sqrt(np.maximum(scale2, 0.0)))
        ok = n2.value > thr * thr
    else:
        ok = n2.value > J.EPS_DEG
    # rejected rows never reach the composition; accepted ones are vetted
    n2 = J.Jet(n2.space, np.where(ok[..., None], n2.coeffs,
                                  J.jet_constant(n2.space, 1.0).coeffs))
    inv = J.jet_recip(J.jet_sqrt(n2, eps=0.0), eps=0.0)
    return v * (inv * ok)[..., None], ok


@dataclasses.dataclass
class BundleChart:
    """A 3-chart (u, v, theta) into a sphere, remembering its base."""

    kind: str  # "unit_tangent" or "unit_normal"
    base: ImmersionChart
    chart: ImmersionChart
    tau: int | None = None


def _circle_chart(base: ImmersionChart, frame, name: str) -> ImmersionChart:
    """The 3-chart (u, v, theta) -> cos(theta) E1 + sin(theta) E2 into the
    unit sphere, where frame(uv, space) gives, at base points uv of shape
    (Q, 2), the orthonormal pair of vector jets (E1, E2) of shape (Q, N) in
    the 3-variable space and the mask of points where the frame is defined.
    The frame is built once per distinct (u, v); rows where it is not
    defined are NaN."""

    def jet_fn(points, space):
        if space.nvars != 3:
            raise ShapeMismatch("bundle charts evaluate in 3-variable spaces")
        uv, at = np.unique(points[:, :2], axis=0, return_inverse=True)
        at = at.reshape(-1)
        e1, e2, ok = frame(uv, space)
        th = J.jet_variable(space, 2, points[:, 2])
        out = J.jet_cos(th)[:, None] * e1[at] + J.jet_sin(th)[:, None] * e2[at]
        out.coeffs[~ok[at]] = np.nan
        return out

    return ImmersionChart(domain_dim=3, ambient_dim=base.ambient_dim,
                          ambient="sphere", jet_fn=jet_fn,
                          domain=base.domain + ((0.0, 2.0 * math.pi),),
                          periodic=(False, False, True), name=name)


def unit_tangent_chart(base: ImmersionChart,
                       pivot_order: tuple[int, int] = (0, 1)) -> BundleChart:
    """Chart of the unit tangent bundle of a surface in R^(n+1), n + 1 >= 5.

    pivot_order picks which coordinate tangent vector seeds the frame; the
    resulting chart differs by a fiber rotation only, which gauge-invariance
    tests exploit."""
    if base.domain_dim != 2:
        raise ShapeMismatch("unit tangent charts need a surface base")
    if base.ambient != "euclidean":
        raise InvalidData("unit tangent charts take a Euclidean base")
    if base.ambient_dim < 5:
        raise InvalidData(
            f"base must be substantial in R^5 or higher, got R^{base.ambient_dim}"
            " (zero-pad the base to raise the ambient dimension)")
    if sorted(pivot_order) != [0, 1]:
        raise InvalidData("pivot_order must be a permutation of (0, 1)")

    def frame(uv, space):
        bjets = base.jet_fn(uv, J.get_space(3, space.order + 1))
        e1, ok1 = _jet_orthonormalize(bjets.derivative(pivot_order[0]), [],
                                      eps_rank=0.0)
        e2, ok2 = _jet_orthonormalize(bjets.derivative(pivot_order[1]), [e1],
                                      eps_rank=0.0)
        return e1, e2, ok1 & ok2

    chart = _circle_chart(base, frame, f"unit-tangent({base.name})")
    return BundleChart(kind="unit_tangent", base=base, chart=chart)


def unit_normal_chart(base: ImmersionChart,
                      counts: Sequence[int] = (9, 9),
                      circle_tol: float = geo.CIRCLE_TOL,
                      eps_rank: float = geo.EPS_RANK,
                      eps_deg: float = geo.EPS_DEG) -> BundleChart:
    """Chart of the unit sphere bundle of the LAST normal space of a surface
    in a sphere. Requires the flag to be nicely curved over the domain with
    a rank-2 last normal space (FlagCollapse otherwise); the top curvature
    ellipse below the last space should be a circle (warning otherwise)."""
    if base.domain_dim != 2:
        raise ShapeMismatch("unit normal charts need a surface base")
    if base.ambient != "sphere":
        raise InvalidData("unit normal charts take a spherical base")
    center = tuple((lo + hi) / 2.0 for lo, hi in base.domain)
    probe = geo._point_row(base, center, circle_tol, eps_rank, None, eps_deg)
    tau = probe["tau"]
    if tau < 1:
        raise FlagCollapse("base has no first normal space (totally geodesic)")
    if probe["dims"][-1] != 2:
        raise FlagCollapse(
            f"last normal space has rank {probe['dims'][-1]}, need a plane")
    cert = geo.nicely_curved_certificate(base, counts=counts, max_order=tau,
                                         eps_rank=eps_rank, eps_deg=eps_deg)
    if not cert["nicely_curved"]:
        raise FlagCollapse(f"flag dimensions vary over the domain: {cert}")
    if not probe["elliptic"]:
        raise NotElliptic(f"no elliptic direction at {center}")
    top = probe["ellipses"][tau - 1]["residual"]
    if top > circle_tol:
        warnings.warn(
            f"curvature ellipse of order {tau - 1} is not a circle "
            f"(residual {top:.3g}); the normal bundle chart need "
            "not be minimal", stacklevel=2)

    def frame(uv, space):
        bjets = base.jet_fn(uv, J.get_space(3, space.order + tau + 1))
        tgt = space.order
        position, ok = _jet_orthonormalize(J.jet_truncate(bjets, tgt), [],
                                           eps_rank=0.0)
        basis = [position]
        level = [bjets]  # level[k] = d_u^(s-k) d_v^k of the base
        for s in range(1, tau + 2):
            level = ([level[0].derivative(0)]
                     + [d.derivative(1) for d in level])
            last = []  # the directions of order s, zero where rejected
            accepted = []
            for d in level:
                got, acc = _jet_orthonormalize(J.jet_truncate(d, tgt), basis,
                                               eps_rank=eps_rank)
                basis.append(got)
                last.append(got)
                accepted.append(acc)
        # per point, the first two accepted directions of the last order;
        # the last normal space must be a plane
        accepted = np.stack(accepted)
        first = np.argsort(~accepted, axis=0, kind="stable")
        last, rows = J.jet_stack(last), np.arange(len(uv))
        return (last[first[0], rows], last[first[1], rows],
                ok & (accepted.sum(axis=0) == 2))

    chart = _circle_chart(base, frame, f"unit-normal({base.name})")
    return BundleChart(kind="unit_normal", base=base, chart=chart, tau=tau)


@dataclasses.dataclass
class NullityReport:
    """Relative nullity data of a 3-chart at a point: the singular values of
    X -> alpha(X, .) in a metric-orthonormal frame, the kernel (coordinate
    components), and the mean curvature norm.

    A report on P points carries a leading point axis on every field, with
    one kernel array per point, and marks the singular points in
    `singular`; there nu is 0, the numbers are NaN and the kernel empty."""

    point: tuple[float, ...] | np.ndarray
    nu: int | np.ndarray
    singular_values: tuple[float, ...] | np.ndarray
    kernel: np.ndarray | tuple[np.ndarray, ...]
    mean_curvature_norm: float | np.ndarray
    totally_geodesic: bool | np.ndarray
    singular: bool | np.ndarray = False


def relative_nullity(chart: ImmersionChart, points,
                     eps_rank: float = geo.EPS_RANK,
                     eps_deg: float = geo.EPS_DEG) -> NullityReport:
    """Relative nullity at points of shape (P, m), one report with a leading
    point axis, from one chart evaluation. A single point of shape (m,) is
    the P = 1 case and gives that point's report; it raises DegeneratePoint
    where the point is singular."""
    pts = np.asarray(points, dtype=float)
    batch = pts.reshape(-1, chart.domain_dim)
    rep = _nullity(chart, batch, chart.eval_jets(batch, 2), eps_rank, eps_deg)
    return rep if pts.ndim == 2 else _single(rep)


def _nullity(chart: ImmersionChart, points: np.ndarray, jets: J.Jet,
             eps_rank: float, eps_deg: float) -> NullityReport:
    """The report at every row of a chart jet of shape (P, N), order >= 2:
    the metric check and the second form projected off position and
    tangent space, then the stacked metric frame and SVD over the regular
    rows."""
    P, m = points.shape
    regular, G, Q = geo._tangent_stage(chart, jets, eps_deg)
    A = geo._form_table(jets[regular], 2, Q)          # (R, m, m, N)
    E = geo._metric_frame(G, np.eye(m))
    aorth = np.einsum("rki,rlj,rkla->rija", E, E, A)
    U, sv, _ = np.linalg.svd(aorth.reshape(len(G), m, m * chart.ambient_dim),
                             full_matrices=False)
    thr = eps_rank * np.maximum(1.0, sv[:, 0])
    nu = np.zeros(P, dtype=int)
    nu[regular] = np.sum(sv < thr[:, None], axis=1)
    EU = np.zeros((P, m, m))
    EU[regular] = E @ U
    kernel = tuple(EU[i][:, m - nu[i]:] for i in range(P))
    H = np.full(P, np.nan)
    H[regular] = np.linalg.norm(np.trace(aorth, axis1=1, axis2=2), axis=-1)
    svs = np.full((P, m), np.nan)
    svs[regular] = sv
    return NullityReport(point=points, nu=nu, singular_values=svs,
                         kernel=kernel, mean_curvature_norm=H,
                         totally_geodesic=regular & (nu == m),
                         singular=~regular)


def _single(rep: NullityReport) -> NullityReport:
    """The only point of a one-point report; DegeneratePoint if singular."""
    point = tuple(float(x) for x in rep.point[0])
    if rep.singular[0]:
        raise DegeneratePoint(f"singular point {point}")
    return NullityReport(point=point, nu=int(rep.nu[0]),
                         singular_values=tuple(float(x) for x in
                                               rep.singular_values[0]),
                         kernel=rep.kernel[0],
                         mean_curvature_norm=float(rep.mean_curvature_norm[0]),
                         totally_geodesic=bool(rep.totally_geodesic[0]))


@dataclasses.dataclass
class SplittingReport:
    """Splitting tensor of the nullity line at a point of a 3-chart.

    C is the matrix of X -> -(nabla_X T)^h on the horizontal plane in an
    oriented orthonormal frame; the fitted scalars satisfy
    C = v I - u J with J the quarter turn, and the residuals are
    |e3(v) - (v^2 - u^2 + 1)|, |e3(u) - 2 u v|, |e1(u) - e2(v)|,
    |e2(u) + e1(v)| for the frame (e1, e2, e3 = T)."""

    point: tuple[float, ...]
    C: np.ndarray
    u: float
    v: float
    span_residual: float
    ode_residuals: dict[str, float]
    fiber_alignment: float


def _cross(a: J.Jet, b: J.Jet) -> J.Jet:
    """Cross product of 3-vector jets along their last leading axis."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def _nullity_field(c: ImmersionChart, jets: J.Jet, eps_rank: float
                   ) -> tuple[J.Jet, J.Jet, J.Jet]:
    """Unit nullity field T (shape (3,)), metric G (shape (3, 3)) and det G,
    as order-2 jets, from an order-4 jet of a 3-chart f.

    The normal parts of the second partials, scaled by det G to stay
    polynomial, are n_ij = det G (H_ij - <H_ij, f> f) - sum F_m adj(G)_mn
    <F_n, H_ij> (no f term in Euclidean space). The nullity line is the
    kernel of S_ik = sum_j <n_ij, n_kj>, which has rank 2 where the nullity
    is 1, so every adjugate column of S spans it; T normalizes the one whose
    value is longest."""
    d1 = J.jet_stack([jets.derivative(i) for i in range(3)])     # (3, N)
    H = J.jet_stack([d1.derivative(j) for j in range(3)])        # (3, 3, N)
    F = J.jet_truncate(d1, 2)
    G = J.jet_dot(F[:, None], F)
    adj = _cross(G[[1, 2, 0]], G[[2, 0, 1]])
    det = J.jet_dot(G[0], adj[0])
    n = det * H
    if c.ambient == "sphere":
        f = J.jet_truncate(jets, 2)
        n = n - (det * J.jet_dot(f, H))[..., None] * f
    # coef[i, j, m] = sum_n adj(G)_mn <F_n, H_ij>
    coef = J.jet_dot(adj, J.jet_dot(H[:, :, None], F)[:, :, None])
    for m in range(3):
        n = n - coef[..., m, None] * F[m]
    K = n.reshape(3, -1)
    S = J.jet_dot(K[:, None], K)
    S0 = S.value
    norms = [float(np.linalg.norm(np.cross(S0[(k + 1) % 3], S0[(k + 2) % 3])))
             for k in range(3)]
    k = int(np.argmax(norms))
    # |adj S| ~ s1 s2 against |S|^2 ~ s1^2: the second singular value of
    # X -> alpha(X, .) relative to the first is below eps_rank
    if not norms[k] > eps_rank ** 2 * float(np.sum(S0 * S0)):
        raise NullityJump("nullity line undetermined: the adjugate of "
                          "alpha alpha^T vanishes")
    t = _cross(S[(k + 1) % 3], S[(k + 2) % 3]) * (1.0 / norms[k])
    inv = J.jet_recip(J.jet_sqrt(J.jet_dot(t, J.jet_dot(G, t))))
    return t * inv, G, det


def splitting_tensor(chart: ImmersionChart, point: Sequence[float],
                     eps_rank: float = geo.EPS_RANK,
                     eps_deg: float = geo.EPS_DEG) -> SplittingReport:
    """Measure the splitting tensor of the nullity distribution at a point
    where the relative nullity is 1, exactly, from one order-4 jet of the
    chart.

    With T the unit nullity field as an order-2 jet, the covariant
    derivative (nabla_k T)_m = g_ml d_k T^l + Gamma_(m,kl) T^l, the scalars
    v = -div(T) / 2 and u = |eps^(kmi) T_i (nabla_k T)_m| / 2 are order-1
    jets, so their derivatives along the frame are exact. The sign of u is
    fixed at the point; T's orientation is arbitrary, which flips v. The
    nu = 1 check reads the second fundamental form off the same jet, so
    the point costs one chart evaluation."""
    if chart.domain_dim != 3:
        raise ShapeMismatch("splitting tensor applies to 3-charts")
    jets = chart.eval_jets(point, 4)
    rep = _single(_nullity(chart, np.asarray(point, dtype=float)[None],
                           jets[None], eps_rank, eps_deg))
    if rep.nu != 1:
        raise NullityJump(f"nullity {rep.nu} != 1 at {tuple(point)}",
                          nu=rep.nu)
    try:
        T, G, det = _nullity_field(chart, jets, eps_rank)
        # the metric is vetted by the flag, so det G > 0
        det1 = J.jet_truncate(det, 1)
        inv_det = J.jet_recip(det1, eps=0.0)
        inv_vol = J.jet_recip(J.jet_sqrt(det1, eps=0.0), eps=0.0)
    except DegenerateValue as exc:
        raise DegeneratePoint(f"nullity field degenerates at "
                              f"{tuple(point)}: {exc}")
    T1, g = J.jet_truncate(T, 1), J.jet_truncate(G, 1)
    dG = J.jet_stack([G.derivative(k) for k in range(3)])   # [k, l, m]
    dT = J.jet_stack([T.derivative(k) for k in range(3)])   # [k, l]
    # Gamma_(m,kl) T^l = (dg_T[k, m] + T_dg[k, m] - dg_T[m, k]) / 2, with
    # dg_T[k, m] = d_k g_ml T^l and T_dg[k, m] = T^l d_l g_km (symmetric)
    dg_T, T_dg = J.jet_dot(dG, T1), J.jet_dot(dG.T, T1)
    cov = J.jet_dot(g, dT[:, None]) + 0.5 * (dg_T + T_dg - dg_T.T)
    ddet = J.jet_stack([det.derivative(k) for k in range(3)])
    div = (dT[0, 0] + dT[1, 1] + dT[2, 2]
           + 0.5 * J.jet_mul(J.jet_dot(T1, ddet), inv_det))
    v = -0.5 * div
    curl = cov[[1, 2, 0], [2, 0, 1]] - cov[[2, 0, 1], [1, 2, 0]]
    u = 0.5 * J.jet_mul(J.jet_dot(J.jet_dot(g, T1), curl), inv_vol)
    if u.value < 0:
        u = -u

    G0, T0, A = G.value, T.value, cov.value
    # rows X1, X2: metric-orthonormal and orthogonal to T, by Gram-Schmidt
    # on T and the two coordinate axes least aligned with it
    scores = np.abs(G0 @ T0) / np.sqrt(np.diagonal(G0))
    axes = np.eye(3)[:, np.argsort(scores)[:2]]
    X = geo._metric_frame(G0, np.column_stack([T0, axes]))[:, 1:].T
    C = -X @ A.T @ X.T  # C[b, a] = -<X_b, nabla_(X_a) T>
    if C[0, 1] < C[1, 0]:  # orient the frame so that u >= 0
        X[1] = -X[1]
        C = -X @ A.T @ X.T
    u0, v0 = u.value, v.value
    Jq = np.array([[0.0, -1.0], [1.0, 0.0]])
    span_residual = float(np.linalg.norm(C - (v0 * np.eye(2) - u0 * Jq)))
    # derivatives of u and v along the frame (X1, X2, T)
    uv = J.jet_stack([u, v])
    grad = J.jet_stack([uv.derivative(k) for k in range(3)]).value
    d_u, d_v = (np.stack([X[0], X[1], T0]) @ grad).T
    ode_residuals = {
        "e3_v": abs(d_v[2] - (v0 * v0 - u0 * u0 + 1.0)),
        "e3_u": abs(d_u[2] - 2.0 * u0 * v0),
        "e1_u_minus_e2_v": abs(d_u[0] - d_v[1]),
        "e2_u_plus_e1_v": abs(d_u[1] + d_v[0]),
    }
    fiber_alignment = abs(float(T0 @ G0[:, 2])) / math.sqrt(float(G0[2, 2]))
    return SplittingReport(point=tuple(float(x) for x in point), C=C,
                           u=float(u0), v=float(v0),
                           span_residual=span_residual,
                           ode_residuals=ode_residuals,
                           fiber_alignment=fiber_alignment)


def bundle_rows(chart: ImmersionChart, points,
                eps_rank: float = geo.EPS_RANK,
                eps_deg: float = geo.EPS_DEG) -> list[dict]:
    """JSON rows of a bundle sweep at points of shape (P, 3), from one
    batched relative nullity call."""
    rep = relative_nullity(chart, np.reshape(points, (-1, chart.domain_dim)),
                           eps_rank=eps_rank, eps_deg=eps_deg)
    rows = []
    for i, pt in enumerate(rep.point.tolist()):
        if rep.singular[i]:
            rows.append({"point": pt, "singular": True, "H": None,
                         "nu": None, "sv": None, "tg": None})
        else:
            rows.append({"point": pt, "singular": False,
                         "H": float(rep.mean_curvature_norm[i]),
                         "nu": int(rep.nu[i]),
                         "sv": rep.singular_values[i].tolist(),
                         "tg": bool(rep.totally_geodesic[i])})
    return rows


def bundle_point_report(chart: ImmersionChart, point: Sequence[float],
                        eps_rank: float = geo.EPS_RANK,
                        eps_deg: float = geo.EPS_DEG) -> dict:
    """Per-point JSON row for bundle sweeps: the one-point bundle_rows."""
    return bundle_rows(chart, [point], eps_rank=eps_rank, eps_deg=eps_deg)[0]
