"""Bundle charts over surface charts, and their 3-manifold geometry.

The unit tangent bundle chart sends (u, v, theta) to cos(theta) E1 +
sin(theta) E2, where (E1, E2) is the Gram-Schmidt frame of the coordinate
tangent vectors of a surface in R^(n+1); the image lies in S^n. The unit
normal bundle chart does the same with a frame of the LAST normal space of
a surface in a sphere. Both are honest immersion charts evaluated through
jets, so every per-point quantity (mean curvature, relative nullity,
splitting tensor of the nullity distribution) comes from the same geometry
code path as any other chart.

Frame fields are built by pivoted orthogonalization in a fixed candidate
order, which keeps the frame deterministic and continuous on chart domains
whose flag has constant dimensions; points where a pivot degenerates
surface as DegeneratePoint.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Sequence

import numpy as np

from . import jet as J
from .errors import (DegeneratePoint, DegenerateValue, FlagCollapse,
                     InvalidData, NullityJump, ShapeMismatch)
from . import geometry as geo
from .geometry import ImmersionChart


def _jet_dot(a: Sequence[J.Jet], b: Sequence[J.Jet]) -> J.Jet:
    acc = None
    for x, y in zip(a, b):
        t = J.jet_mul(x, y)
        acc = t if acc is None else acc + t
    return acc


def _jet_orthonormalize(cand: Sequence[J.Jet],
                        basis: list[list[J.Jet]],
                        eps_rank: float) -> list[J.Jet] | None:
    """Orthogonalize a jet vector against accepted unit jet vectors; return
    the normalized residual, or None when the residual is below the rank
    threshold (relative to the candidate's own value scale)."""
    scale2 = _jet_dot(cand, cand).value
    v = list(cand)
    for b in basis:
        coef = _jet_dot(v, b)
        v = [x - J.jet_mul(coef, y) for x, y in zip(v, b)]
    n2 = _jet_dot(v, v)
    if eps_rank > 0.0:
        thr = eps_rank * max(1.0, math.sqrt(max(scale2, 0.0)))
        if n2.value <= thr * thr:
            return None
        # already vetted against the rank threshold; bypass the sqrt guard
        inv = J.jet_recip(J.jet_sqrt(n2, eps=0.0), eps=0.0)
    else:
        inv = J.jet_recip(J.jet_sqrt(n2))
    return [J.jet_mul(x, inv) for x in v]


def _derive(jet: J.Jet, du: int, dv: int) -> J.Jet:
    for _ in range(du):
        jet = jet.derivative(0)
    for _ in range(dv):
        jet = jet.derivative(1)
    return jet


@dataclasses.dataclass
class BundleChart:
    """A 3-chart (u, v, theta) into a sphere, remembering its base."""

    kind: str  # "unit_tangent" or "unit_normal"
    base: ImmersionChart
    chart: ImmersionChart
    tau: int | None = None


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

    def jet_fn(point, space):
        if space.nvars != 3:
            raise ShapeMismatch("bundle charts evaluate in 3-variable spaces")
        hi = J.get_space(3, space.order + 1)
        bjets = base.jet_fn(point[:2], hi)
        first = [b.derivative(pivot_order[0]) for b in bjets]
        second = [b.derivative(pivot_order[1]) for b in bjets]
        try:
            e1 = _jet_orthonormalize(first, [], eps_rank=0.0)
            e2 = _jet_orthonormalize(second, [e1], eps_rank=0.0)
        except DegenerateValue:
            raise DegeneratePoint(
                f"base not immersed under the frame at {tuple(point[:2])}")
        th = J.jet_variable(space, 2, point[2])
        c, s = J.jet_cos(th), J.jet_sin(th)
        return [J.jet_mul(c, a) + J.jet_mul(s, b) for a, b in zip(e1, e2)]

    chart = ImmersionChart(domain_dim=3, ambient_dim=base.ambient_dim,
                           ambient="sphere", jet_fn=jet_fn,
                           domain=base.domain + ((0.0, 2.0 * math.pi),),
                           periodic=(False, False, True),
                           name=f"unit-tangent({base.name})")
    return BundleChart(kind="unit_tangent", base=base, chart=chart)


def unit_normal_chart(base: ImmersionChart,
                      counts: Sequence[int] = (9, 9),
                      circle_tol: float = geo.CIRCLE_TOL,
                      eps_rank: float = geo.EPS_RANK) -> BundleChart:
    """Chart of the unit sphere bundle of the LAST normal space of a surface
    in a sphere. Requires the flag to be nicely curved over the domain with
    a rank-2 last normal space (FlagCollapse otherwise); the top curvature
    ellipse below the last space should be a circle (warning otherwise)."""
    if base.domain_dim != 2:
        raise ShapeMismatch("unit normal charts need a surface base")
    if base.ambient != "sphere":
        raise InvalidData("unit normal charts take a spherical base")
    center = tuple((lo + hi) / 2.0 for lo, hi in base.domain)
    probe = geo.osculating_flag(base, center, eps_rank=eps_rank)
    tau = probe.tau
    if tau < 1:
        raise FlagCollapse("base has no first normal space (totally geodesic)")
    if probe.dims[-1] != 2:
        raise FlagCollapse(
            f"last normal space has rank {probe.dims[-1]}, need a plane")
    cert = geo.nicely_curved_certificate(base, counts=counts, max_order=tau,
                                         eps_rank=eps_rank)
    if not cert["nicely_curved"]:
        raise FlagCollapse(f"flag dimensions vary over the domain: {cert}")
    top = geo.curvature_ellipse(base, center, tau - 1, eps_rank=eps_rank)
    if top.residual > circle_tol:
        warnings.warn(
            f"curvature ellipse of order {tau - 1} is not a circle "
            f"(residual {top.residual:.3g}); the normal bundle chart need "
            "not be minimal", stacklevel=2)

    def jet_fn(point, space):
        if space.nvars != 3:
            raise ShapeMismatch("bundle charts evaluate in 3-variable spaces")
        hi = J.get_space(3, space.order + tau + 1)
        bjets = base.jet_fn(point[:2], hi)
        tgt = space.order

        def trunc(vec):
            return [J.jet_truncate(x, tgt) for x in vec]

        try:
            basis = [_jet_orthonormalize(trunc(bjets), [], eps_rank=0.0)]
            groups: list[list[list[J.Jet]]] = []
            for s in range(1, tau + 2):
                accepted = []
                for k in range(s + 1):
                    cand = trunc([_derive(b, s - k, k) for b in bjets])
                    got = _jet_orthonormalize(cand, basis, eps_rank=eps_rank)
                    if got is not None:
                        basis.append(got)
                        accepted.append(got)
                groups.append(accepted)
        except DegenerateValue:
            raise DegeneratePoint(
                f"normal frame degenerates at {tuple(point[:2])}")
        frame = groups[-1]
        if len(frame) != 2:
            raise DegeneratePoint(
                f"last normal space has rank {len(frame)} at {tuple(point[:2])}")
        th = J.jet_variable(space, 2, point[2])
        c, s = J.jet_cos(th), J.jet_sin(th)
        return [J.jet_mul(c, a) + J.jet_mul(s, b)
                for a, b in zip(frame[0], frame[1])]

    chart = ImmersionChart(domain_dim=3, ambient_dim=base.ambient_dim,
                           ambient="sphere", jet_fn=jet_fn,
                           domain=base.domain + ((0.0, 2.0 * math.pi),),
                           periodic=(False, False, True),
                           name=f"unit-normal({base.name})")
    return BundleChart(kind="unit_normal", base=base, chart=chart, tau=tau)


@dataclasses.dataclass
class NullityReport:
    """Relative nullity data of a 3-chart at a point: the singular values of
    X -> alpha(X, .) in a metric-orthonormal frame, the kernel (coordinate
    components), and the mean curvature norm."""

    point: tuple[float, ...]
    nu: int
    singular_values: tuple[float, ...]
    kernel: np.ndarray
    mean_curvature_norm: float
    totally_geodesic: bool


def relative_nullity(chart: ImmersionChart, point: Sequence[float],
                     eps_rank: float = geo.EPS_RANK) -> NullityReport:
    forms = geo.fundamental_forms(chart, point, max_s=2, eps_rank=eps_rank)
    return _nullity(forms, eps_rank)


def _nullity(forms: geo.FundamentalForms, eps_rank: float) -> NullityReport:
    m = forms.metric.shape[0]
    lam, V = np.linalg.eigh(forms.metric)
    W = V @ np.diag(1.0 / np.sqrt(lam)) @ V.T  # columns of W = orthonormal frame
    aorth = np.einsum("ki,lj,kla->ija", W, W, forms.tables[2])
    M = aorth.reshape(m, -1)
    U, sv, _ = np.linalg.svd(M, full_matrices=True)
    thr = eps_rank * max(1.0, float(sv[0]) if sv.size else 0.0)
    nu = int(np.sum(sv < thr)) + (m - sv.size)
    kernel_orth = U[:, m - nu:] if nu else np.zeros((m, 0))
    kernel = W @ kernel_orth
    H = aorth.trace(axis1=0, axis2=1)
    return NullityReport(point=forms.point, nu=nu,
                         singular_values=tuple(float(s) for s in sv),
                         kernel=kernel,
                         mean_curvature_norm=float(np.linalg.norm(H)),
                         totally_geodesic=bool(nu == m))


def totally_geodesic_classify(base: ImmersionChart, point: Sequence[float],
                              eps_rank: float = geo.EPS_RANK) -> bool:
    """Flag-based test: the unit tangent chart over a neighborhood is
    totally geodesic exactly when the base has no second normal space."""
    flag = geo.osculating_flag(base, point, max_order=2, eps_rank=eps_rank)
    return flag.tau < 2


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


def _cross(a: Sequence[J.Jet], b: Sequence[J.Jet]) -> list[J.Jet]:
    return [J.jet_mul(a[1], b[2]) - J.jet_mul(a[2], b[1]),
            J.jet_mul(a[2], b[0]) - J.jet_mul(a[0], b[2]),
            J.jet_mul(a[0], b[1]) - J.jet_mul(a[1], b[0])]


def _nullity_field(c: ImmersionChart, jets: list[J.Jet], eps_rank: float
                   ) -> tuple[list[J.Jet], list[list[J.Jet]], J.Jet]:
    """Unit nullity field T, metric G and det G, as order-2 jets, from an
    order-4 jet of a 3-chart f.

    The normal parts of the second partials, scaled by det G to stay
    polynomial, are n_ij = det G (H_ij - <H_ij, f> f) - sum F_m adj(G)_mn
    <F_n, H_ij> (no f term in Euclidean space). The nullity line is the
    kernel of S_ik = sum_j <n_ij, n_kj>, which has rank 2 where the nullity
    is 1, so every adjugate column of S spans it; T normalizes the one whose
    value is longest."""
    d1 = [[x.derivative(i) for x in jets] for i in range(3)]
    F = [[J.jet_truncate(x, 2) for x in row] for row in d1]
    G = [[_jet_dot(F[i], F[j]) for j in range(3)] for i in range(3)]
    adj = [_cross(G[1], G[2]), _cross(G[2], G[0]), _cross(G[0], G[1])]
    det = _jet_dot(G[0], adj[0])
    f = [J.jet_truncate(x, 2) for x in jets]
    normal = {}
    for i in range(3):
        for j in range(i, 3):
            H = [x.derivative(j) for x in d1[i]]
            tangent = [_jet_dot(F[k], H) for k in range(3)]
            n = [J.jet_mul(det, x) for x in H]
            if c.ambient == "sphere":
                radial = J.jet_mul(det, _jet_dot(f, H))
                n = [x - J.jet_mul(radial, y) for x, y in zip(n, f)]
            for m in range(3):
                coef = _jet_dot(adj[m], tangent)
                n = [x - J.jet_mul(coef, y) for x, y in zip(n, F[m])]
            normal[i, j] = normal[j, i] = n
    K = [[x for j in range(3) for x in normal[i, j]] for i in range(3)]
    S = [[_jet_dot(K[i], K[k]) for k in range(3)] for i in range(3)]
    S0 = np.array([[x.value for x in row] for row in S])
    norms = [float(np.linalg.norm(np.cross(S0[(k + 1) % 3], S0[(k + 2) % 3])))
             for k in range(3)]
    k = int(np.argmax(norms))
    # |adj S| ~ s1 s2 against |S|^2 ~ s1^2: the second singular value of
    # X -> alpha(X, .) relative to the first is below eps_rank
    if not norms[k] > eps_rank ** 2 * float(np.sum(S0 * S0)):
        raise NullityJump("nullity line undetermined: the adjugate of "
                          "alpha alpha^T vanishes")
    t = [x * (1.0 / norms[k]) for x in _cross(S[(k + 1) % 3], S[(k + 2) % 3])]
    norm2 = _jet_dot(t, [_jet_dot(row, t) for row in G])
    inv = J.jet_recip(J.jet_sqrt(norm2))
    return [J.jet_mul(x, inv) for x in t], G, det


def _horizontal_frame(G: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Rows X1, X2: metric-orthonormal, orthogonal to T, by Gram-Schmidt on
    the two coordinate axes least aligned with T."""
    scores = [abs(float(G[k] @ T)) / math.sqrt(float(G[k, k]))
              for k in range(3)]
    frame = []
    for k in np.argsort(scores)[:2]:
        x = np.zeros(3)
        x[k] = 1.0
        x = x - float(x @ G @ T) * T
        for w in frame:
            x = x - float(x @ G @ w) * w
        n2 = float(x @ G @ x)
        if n2 <= 0:
            raise DegeneratePoint("horizontal frame degenerates")
        frame.append(x / math.sqrt(n2))
    return np.stack(frame)


def splitting_tensor(chart: ImmersionChart, point: Sequence[float],
                     eps_rank: float = geo.EPS_RANK) -> SplittingReport:
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
    flag = geo._flag_from_jets(chart, point, jets, 1, eps_rank, geo.EPS_DEG)
    rep = _nullity(geo._forms_from_jets(chart, point, jets, flag, 2), eps_rank)
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
    T1 = [J.jet_truncate(x, 1) for x in T]
    g = [[J.jet_truncate(x, 1) for x in row] for row in G]
    dG = [[[x.derivative(k) for x in row] for row in G] for k in range(3)]
    dT = [[x.derivative(k) for x in T] for k in range(3)]
    cov = [[_jet_dot(g[m], dT[k])
            + 0.5 * _jet_dot([dG[k][l][m] + dG[l][k][m] - dG[m][k][l]
                              for l in range(3)], T1)
            for m in range(3)] for k in range(3)]
    div = (dT[0][0] + dT[1][1] + dT[2][2]
           + 0.5 * J.jet_mul(_jet_dot(T1, [det.derivative(k)
                                           for k in range(3)]), inv_det))
    v = -0.5 * div
    lowered = [_jet_dot(row, T1) for row in g]
    curl = [cov[1][2] - cov[2][1], cov[2][0] - cov[0][2],
            cov[0][1] - cov[1][0]]
    u = 0.5 * J.jet_mul(_jet_dot(lowered, curl), inv_vol)
    if u.value < 0:
        u = -u

    G0 = np.array([[x.value for x in row] for row in G])
    T0 = np.array([x.value for x in T])
    A = np.array([[x.value for x in row] for row in cov])
    X = _horizontal_frame(G0, T0)
    C = -X @ A.T @ X.T  # C[b, a] = -<X_b, nabla_(X_a) T>
    if C[0, 1] < C[1, 0]:  # orient the frame so that u >= 0
        X[1] = -X[1]
        C = -X @ A.T @ X.T
    u0, v0 = u.value, v.value
    Jq = np.array([[0.0, -1.0], [1.0, 0.0]])
    span_residual = float(np.linalg.norm(C - (v0 * np.eye(2) - u0 * Jq)))
    grad_u, grad_v = (np.array([w.derivative(k).value for k in range(3)])
                      for w in (u, v))
    frame = (X[0], X[1], T0)
    d_u = [float(e @ grad_u) for e in frame]
    d_v = [float(e @ grad_v) for e in frame]
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


def bundle_point_report(chart: ImmersionChart, point: Sequence[float],
                        eps_rank: float = geo.EPS_RANK,
                        splitting: bool = False) -> dict:
    """Per-point JSON row for bundle sweeps."""
    pt = [float(x) for x in point]
    try:
        rep = relative_nullity(chart, point, eps_rank=eps_rank)
    except DegeneratePoint:
        return {"point": pt, "singular": True, "H": None, "nu": None,
                "sv": None, "tg": None, "C": None, "uv": None,
                "residuals": None}
    row = {"point": pt, "singular": False,
           "H": rep.mean_curvature_norm, "nu": int(rep.nu),
           "sv": [float(s) for s in rep.singular_values],
           "tg": bool(rep.totally_geodesic),
           "C": None, "uv": None, "residuals": None}
    if splitting and rep.nu == 1:
        sp = splitting_tensor(chart, point, eps_rank=eps_rank)
        row["C"] = [[float(x) for x in r] for r in sp.C]
        row["uv"] = [sp.u, sp.v]
        row["residuals"] = {k: float(val)
                            for k, val in sp.ode_residuals.items()}
        row["residuals"]["span"] = sp.span_residual
        row["residuals"]["fiber_alignment"] = sp.fiber_alignment
    return row
