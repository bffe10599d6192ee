"""Bundle charts over surface charts, and their 3-manifold geometry.

The unit tangent bundle chart sends (u, v, theta) to cos(theta) E1 +
sin(theta) E2, where (E1, E2) is the Gram-Schmidt frame of the coordinate
tangent vectors of a surface in R^(n+1); the image lies in S^n. The unit
normal bundle chart does the same with a frame of the LAST normal space of
a surface in a sphere. Both are honest immersion charts evaluated through
jets, so every per-point quantity (mean curvature, relative nullity,
splitting tensor of the nullity distribution) comes from the stacked
passes of `geometry`, the one geometry path of the package.

The unit tangent chart checks its base exactly, over the whole chart,
from the polynomial curve F of a base Re F (`ImmersionChart.curve`): with
phi = F', the base is 1-isotropic when the rungs <phi, phi> and <phi',
phi'> vanish, each as a relative residual (`weierstrass.null_residual`),
and the base chart is not evaluated. The unit normal chart checks its
base by the flag stage of `point_rows` over a 9 x 9 grid of the domain and
its row stage at the centre alone. A base on which the chart does not
exist raises; a condition of the paper that fails or cannot be decided,
where the chart still exists, is a note in `BundleChart.notes`.

A bundle chart evaluates a batch of points at once. The frame does not
depend on theta, so it is built once per distinct base point (u, v), as
jets in the base's own two variables at the order of the evaluation, and
the fiber is closed-form: the coefficient of u^a v^b theta^j is E1[a, b]
c_j + E2[a, b] s_j, with c_j and s_j the exact Taylor coefficients of cos
and sin at theta. Both frames come from one builder, `_pivoted_frame`: a
pivoted Gram-Schmidt over levels of candidate vector jets, all read off
the base by `jet.jet_partials`, in a fixed candidate order, which keeps
the frame deterministic and continuous on chart domains whose flag has
constant dimensions. The unit tangent frame has one level, the first
partials in `pivot_order`; the unit normal frame has the position, then
the partials of each order s = 1 .. tau + 1, one read each, in the order
d_u^(s-k) d_v^k, k = 0..s, and takes the first two candidates of the
last order that are independent of all lower ones. Each normalization is
one composition with x^(-1/2) (`jet.jet_compose("rsqrt", ...)`). The
nullity field and the splitting tensor read their partials the same
way, placed on the leading axis they need.
Points where the first level degenerates or the last one does not give a
plane are masked per point, never composed, and come out of the chart as
NaN rows, which the geometry files as singular. The splitting pass reads
its connection and horizontal frame off the chart's first partials, the
frame by the nullity pass's route: the R factor of a QR of ambient
vectors (`geometry._triangular_frame`).

`sweep_and_split` is the one bundle entry point: a `bundle` command is one
evaluation of the 3-chart at the sweep points and the splitting points
together (order 4 when there are splitting points, else 2), one nullity
pass on its order-2 cut, and one splitting pass over the splitting points
where the nullity is 1. Order-4 jets cut to order 2 are the order-2 jets
bit for bit, so a sweep row does not depend on the splitting points next
to it. Both passes write JSON rows: a sweep row reads nu, the singular
values and |H|, never the kernel (the splitting pass finds the nullity
line from its own jets), and a splitting row reads the tensor, or the
reason the point is skipped, or the error where the nullity line is
undetermined. A row does not depend on its batch.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import cpoly as cp
from . import jet as J
from . import weierstrass as W
from .errors import (DegeneratePoint, FlagCollapse, InvalidData,
                     NotElliptic, ShapeMismatch)
from . import geometry as geo
from .geometry import ImmersionChart


def _vetted(a: J.Jet, ok: np.ndarray) -> J.Jet:
    """The jet with every element outside the mask replaced by the constant
    1, so that a composition guarded per element never sees it."""
    return J.Jet(a.space, np.where(ok[..., None], a.coeffs,
                                   J.jet_constant(a.space, 1.0).coeffs))


def _project(v: J.Jet, basis: list[J.Jet]) -> J.Jet:
    """Vector jets minus their components along unit or zero vector jets,
    one basis jet after the other (modified Gram-Schmidt); a leading axis
    of v that the basis jets lack stacks candidates."""
    for b in basis:
        v = v - J.jet_dot(v, b)[..., None] * b
    return v


def _pivoted_frame(levels: list[J.Jet], eps_rank: float
                   ) -> tuple[J.Jet, J.Jet, np.ndarray]:
    """Pivoted Gram-Schmidt over levels of stacked candidate vector jets,
    each of shape (c, Q, N): the first two accepted directions of the last
    level at each of the Q points, and the mask of points where the first
    level is accepted whole and the last level spans a plane.

    Each level is projected off the accepted directions of all lower levels
    in one stacked step (rejected ones are zero jets, which drop out); then
    each candidate in turn off the accepted directions of its own level,
    and normalized by one composition with x^(-1/2). A candidate of the
    first level is accepted where its squared norm is beyond the sqrt
    guard; one of a later level where its residual is above eps_rank
    relative to the candidate's own value."""
    basis: list[J.Jet] = []
    for s, cands in enumerate(levels):
        eps = eps_rank if s else 0.0
        if eps > 0.0:  # each candidate's floor, relative to its own value
            thr = eps * np.maximum(1.0, np.sqrt(np.maximum(
                J.jet_dot(cands, cands).value, 0.0)))
            floors = thr * thr
        else:
            floors = [J.EPS_DEG] * len(cands)
        own, accepted = [], []
        for cand, floor in zip(_project(cands, basis), floors):
            v = _project(cand, own)
            n2 = J.jet_dot(v, v)
            ok = n2.value > floor
            inv = J.jet_compose("rsqrt", _vetted(n2, ok), eps=0.0)
            own.append(v * (inv * ok)[..., None])
            accepted.append(ok)
        if not s:
            whole = np.logical_and.reduce(accepted)
        basis += own
    # per point, the first accepted candidate and the one whose acceptance
    # makes the count two, gathered in one step
    accepted = np.array(accepted)
    count = accepted.cumsum(axis=0)
    ok = whole & (count[-1] == 2)
    pick = np.array([accepted.argmax(axis=0), (count == 2).argmax(axis=0)])
    e1, e2 = np.array([v.coeffs for v in own])[pick, np.arange(len(ok))]
    return J.Jet(own[0].space, e1), J.Jet(own[0].space, e2), ok


@dataclasses.dataclass
class BundleChart:
    """A 3-chart (u, v, theta) into a sphere, remembering its base and the
    notes of its base check: conditions of the paper that the base does
    not meet, or that could not be verified, where the chart still
    exists. The rows of a `bundle` command come from
    `sweep_and_split(bc.chart, ...)`."""

    kind: str  # "unit_tangent" or "unit_normal"
    base: ImmersionChart
    chart: ImmersionChart
    tau: int | None = None
    notes: list[str] = dataclasses.field(default_factory=list)


@functools.lru_cache(maxsize=None)
def _fiber_map(order: int) -> tuple[np.ndarray, np.ndarray]:
    """For each multi-index (a, b, j) of the 3-variable space of the order,
    the position of (a, b) in the 2-variable space and the power j."""
    low = J.get_space(2, order).pos
    src, power = np.array([(low[m[:2]], m[2])
                           for m in J.get_space(3, order).indices]).T
    return src, power


def _circle_chart(base: ImmersionChart, frame, name: str) -> ImmersionChart:
    """The 3-chart (u, v, theta) -> cos(theta) E1 + sin(theta) E2 into the
    unit sphere, where frame(uv, order) gives, at base points uv of shape
    (Q, 2), the orthonormal pair of vector jets (E1, E2) of shape (Q, N) in
    the 2-variable space of the order and the mask of points where the
    frame is defined. Its jet_fn builds the frame once per distinct (u, v)
    of the points, at the space's order; rows where it is not defined are
    NaN.

    The frame does not depend on theta and cos, sin do not depend on
    (u, v), so each coefficient of the product is one product: at (a, b, j)
    it is E1[a, b] c_j + E2[a, b] s_j, with c_j, s_j the exact Taylor
    coefficients cos^(j)(theta) / j!, sin^(j)(theta) / j!."""

    def jet_fn(points, space):
        if space.nvars != 3:
            raise ShapeMismatch("bundle charts evaluate in 3-variable spaces")
        order = space.order
        # (u, v) read as one complex key u + iv, sorted as the pairs are
        key = np.ascontiguousarray(points[:, :2]).view(complex)[:, 0]
        key, at = np.unique(key, return_inverse=True)
        uv = key.view(float).reshape(-1, 2)
        e1, e2, ok = frame(uv, order)
        theta = points[:, 2]
        sin, cos = np.sin(theta), np.cos(theta)
        cycle = np.stack([sin, cos, -sin, -cos])  # sin^(j) = cycle[j % 4]
        j = np.arange(order + 1)
        fact = np.array([math.factorial(k) for k in j], dtype=float)
        src, power = _fiber_map(order)
        c = (cycle[(j + 1) % 4] / fact[:, None]).T[:, None, power]
        s = (cycle[j % 4] / fact[:, None]).T[:, None, power]
        out = e1.coeffs[..., src][at] * c + e2.coeffs[..., src][at] * s
        out[~ok[at]] = np.nan
        return J.Jet(space, out)

    return ImmersionChart(domain_dim=3, ambient_dim=base.ambient_dim,
                          ambient="sphere", jet_fn=jet_fn,
                          domain=base.domain + ((0.0, 2.0 * math.pi),),
                          periodic=(False, False, True), name=name)


def _isotropy_notes(curve: np.ndarray | None, null_tol: float) -> list[str]:
    """The note of a base Re F that is not 1-isotropic, from its curve F:
    the first rung <phi^(a), phi^(a)> = 0, phi = F', a = 0, 1, whose
    relative residual is above null_tol or not finite, with the isotropy
    order it leaves (a - 1), or order 0 where phi' is the zero polynomial
    (a totally geodesic base: no first normal space); a base without a
    curve cannot be checked."""
    if curve is None:
        return ["could not verify base isotropy: the base chart has no "
                "polynomial curve"]
    tail = "; the unit tangent chart need not be minimal"
    phi = cp.poly_diff(curve)
    dphi = cp.poly_diff(phi)
    for rung, v in enumerate((phi, dphi)):
        # a zero polynomial passes its rung (poly_mul needs a column)
        res = W.null_residual(v) if v.any() else 0.0
        if not res <= null_tol:
            prime = "'" * rung
            return [f"base isotropy order {rung - 1} < 1: <phi{prime}, "
                    f"phi{prime}> has relative residual {res:.3g}, bound "
                    f"{null_tol:g}" + tail]
    if not dphi.any():
        return ["base isotropy order 0 < 1: phi' = 0, the base is totally "
                "geodesic" + tail]
    return []


def unit_tangent_chart(base: ImmersionChart,
                       pivot_order: tuple[int, int] = (0, 1),
                       null_tol: float = W.NULL_TOL,
                       eps_rank: float = geo.EPS_RANK) -> BundleChart:
    """Chart of the unit tangent bundle of a surface in R^(n+1), n + 1 >= 5.

    The chart is minimal where the base is 1-isotropic. For a base Re F
    with phi = F' (`ImmersionChart.curve`) that holds exactly when the
    polynomials <phi, phi> and <phi', phi'> vanish; their relative
    residuals (`weierstrass.null_residual`) are bounded by null_tol, over
    the whole chart and without evaluating it. A base that fails, whose
    phi' is zero (totally geodesic), or that has no curve gives a note.
    pivot_order picks which coordinate tangent vector seeds the frame; the
    resulting chart differs by a fiber rotation only, which
    gauge-invariance tests exploit."""
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
    notes = _isotropy_notes(base.curve, null_tol)

    def frame(uv, order):
        grad = J.jet_partials(base.jet_fn(uv, J.get_space(2, order + 1)))
        return _pivoted_frame([grad[list(pivot_order)]], eps_rank)

    chart = _circle_chart(base, frame, f"unit-tangent({base.name})")
    return BundleChart(kind="unit_tangent", base=base, chart=chart,
                       notes=notes)


def unit_normal_chart(base: ImmersionChart,
                      circle_tol: float = geo.CIRCLE_TOL,
                      eps_rank: float = geo.EPS_RANK,
                      eps_deg: float = geo.EPS_DEG) -> BundleChart:
    """Chart of the unit sphere bundle of the LAST normal space of a surface
    in a sphere. Requires the flag to be nicely curved over the domain with
    a rank-2 last normal space (FlagCollapse otherwise); the top curvature
    ellipse below the last space should be a circle (a note otherwise).

    The base is checked by the flag stage of `point_rows` over the 9 x 9
    grid of its domain at its whole flag's depth (`geometry._flag_depth`,
    its codimension in the sphere): the centre's flag is the probe, all
    dims the certificate; then the row stage runs at the centre alone."""
    if base.domain_dim != 2:
        raise ShapeMismatch("unit normal charts need a surface base")
    if base.ambient != "sphere":
        raise InvalidData("unit normal charts take a spherical base")
    pts, dims, (E, forms, unresolved) = geo._flag_stage(
        base, geo.grid_points(geo.grid_axes(base, (9, 9))),
        geo._flag_depth(base), eps_rank, eps_deg)
    mid = len(pts) // 2
    center = tuple(pts[mid].tolist())
    if dims[mid] is None:
        raise DegeneratePoint(f"metric degenerate at {center}")
    tau = len(dims[mid]) - 1
    if tau < 1:
        raise FlagCollapse("base has no first normal space (totally geodesic)")
    if dims[mid][-1] != 2:
        raise FlagCollapse(
            f"last normal space has rank {dims[mid][-1]}, need a plane")
    cert = geo.flag_certificate(dims)
    if not cert["nicely_curved"]:
        raise FlagCollapse(f"flag dimensions vary over the domain: {cert}")
    i = [sum(d is not None for d in dims[:mid])]  # the centre's regular row
    [probe] = geo._row_stage(pts[[mid]], [dims[mid]],
                             (E[i], {s: f[i] for s, f in forms.items()},
                              unresolved[i]),
                             circle_tol, eps_rank)
    if not probe["elliptic"]:
        raise NotElliptic(f"no elliptic direction at {center}")
    top = probe["ellipses"][tau - 1]["residual"]
    top = math.nan if top is None else top  # a row writes NaN as None
    notes = []
    if not top <= circle_tol:
        notes.append(f"curvature ellipse of order {tau - 1} is not a circle "
                     f"(residual {top:.3g}); the normal bundle chart need "
                     "not be minimal")

    def frame(uv, order):
        # level s holds d_u^(s-k) d_v^k of the base, k = 0..s
        f = base.jet_fn(uv, J.get_space(2, order + tau + 1))
        return _pivoted_frame([J.jet_truncate(f[None], order)] + [
            J.jet_truncate(J.jet_partials(f, s), order)
            for s in range(1, tau + 2)], eps_rank)

    chart = _circle_chart(base, frame, f"unit-normal({base.name})")
    return BundleChart(kind="unit_normal", base=base, chart=chart, tau=tau,
                       notes=notes)


def _form_singular_values(aorth: np.ndarray) -> np.ndarray:
    """The singular values, descending, of stacked m x mc matrices of X ->
    alpha(X, .) in a metric-orthonormal frame. With c = 1 the matrix is the
    symmetric shape operator of a hypersurface of the sphere, whose
    singular values are its |eigenvalues|, from one `eigvalsh` (which reads
    the lower triangle); else one SVD."""
    if aorth.shape[-1] != aorth.shape[-2]:
        return np.linalg.svd(aorth, compute_uv=False)
    return -np.sort(-np.abs(np.linalg.eigvalsh(aorth)), axis=-1)


def _nullity(chart: ImmersionChart, jets: J.Jet, eps_rank: float,
             eps_deg: float) -> tuple[np.ndarray, ...]:
    """Relative nullity at every row of a chart jet of shape (P, N), order
    >= 2: nu (P,), the singular values (P, m) of X -> alpha(X, .) in a
    metric-orthonormal frame, the mean curvature norm |H| (P,) and the mask
    of regular rows. nu counts the singular values below eps_rank relative
    to the largest; on a singular row it is 0 and the numbers are NaN. The
    kernel is not computed, since no report reads it.

    The metric check, the frame E and the complement Z of position and
    tangent space come from `geometry._tangent_stage`; the second form is
    A = Z^T H, one `jet.jet_partials` read H, m (m + 1) / 2 entries in the
    order of the pairs i <= j, gathered into m x m. The frame change
    aorth_ij = sum_kl E_ki E_lj A_kl is two stacked matrix products, each
    contracting one slot of the symmetric form, so aorth comes out with
    (i, j) swapped, which is the same form. Its singular values are those
    of the m x mc matrix, c the width of Z (`_form_singular_values`). Every
    bundle over an S^4 base has c = 1: the 3-chart is a hypersurface of its
    sphere, aorth is its symmetric shape operator, and the singular values
    are its |eigenvalues| in descending order, with no SVD."""
    P, m = len(jets), chart.domain_dim
    regular, _, E, Z = geo._tangent_stage(chart, jets, eps_deg)
    R, c = len(E), Z.shape[-1]
    # the second form in the complement of position and tangent: (R, m, m, c)
    i, j = np.triu_indices(m)
    pair = np.empty((m, m), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    A = np.moveaxis((Z.mT @ J.jet_partials(jets[regular], 2, axis=-1).value
                     )[..., pair], 1, -1)
    half = (E.mT @ A.reshape(R, m, m * c)).reshape(R, m, m, c)
    aorth = E.mT @ half.swapaxes(1, 2).reshape(R, m, m * c)  # m x mc
    sv = _form_singular_values(aorth)
    thr = eps_rank * np.maximum(1.0, sv[:, 0])
    nu = np.zeros(P, dtype=int)
    nu[regular] = np.sum(sv < thr[:, None], axis=1)
    H = np.full(P, np.nan)
    H[regular] = np.linalg.norm(
        np.trace(aorth.reshape(R, m, m, c), axis1=1, axis2=2), axis=-1)
    svs = np.full((P, m), np.nan)
    svs[regular] = sv
    return nu, svs, H, regular


def _cross(a, b):
    """Cross product of 3-vectors along their last axis: of arrays, or of
    jets along their last leading axis."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def _nullity_field(c: ImmersionChart, jets: J.Jet, eps_rank: float):
    """Unit nullity field T (shape (P, 3)), first partials F (P, 3, N) and
    det G (P,), G = F F^T, as order-2 jets, from an order-4 jet of a
    3-chart f of shape (P, N), with the masks of the rows where the nullity
    line is determined and where T has a unit length; T is garbage elsewhere.

    The normal parts of the second partials, scaled by det G to stay
    polynomial, are n_ij = det G (H_ij - <H_ij, f> f) - sum F_m adj(G)_mn
    <F_n, H_ij> (no f term in Euclidean space). The nullity line is the
    kernel of S_ik = sum_j <n_ij, n_kj>, which has rank 2 where the nullity
    is 1, so every adjugate column of S spans it; T normalizes, per row,
    the one whose value is longest."""
    P = len(jets)
    d1 = J.jet_partials(jets, axis=1)     # (P, 3, N)
    H = J.jet_partials(d1, axis=1)        # (P, 3, 3, N)
    F = J.jet_truncate(d1, 2)
    G = J.jet_dot(F[:, :, None], F[:, None])
    adj = _cross(G[:, [1, 2, 0]], G[:, [2, 0, 1]])
    det = J.jet_dot(G[:, 0], adj[:, 0])
    n = det[:, None, None, None] * H
    if c.ambient == "sphere":
        f = J.jet_truncate(jets, 2)
        n = n - ((det[:, None, None] * J.jet_dot(f[:, None, None], H))
                 [..., None] * f[:, None, None])
    # coef[p, i, j, m] = sum_n adj(G)_mn <F_n, H_ij>
    coef = J.jet_dot(adj[:, None, None],
                     J.jet_dot(H[:, :, :, None],
                               F[:, None, None])[:, :, :, None])
    for m in range(3):
        n = n - coef[..., m, None] * F[:, m, None, None]
    K = n.reshape(P, 3, -1)
    S = J.jet_dot(K[:, :, None], K[:, None])
    S0 = S.value
    norms = np.linalg.norm(_cross(S0[:, [1, 2, 0]], S0[:, [2, 0, 1]]),
                           axis=-1)
    k = np.argmax(norms, axis=-1)
    rows = np.arange(P)
    top = norms[rows, k]
    # |adj S| ~ s1 s2 against |S|^2 ~ s1^2: the second singular value of
    # X -> alpha(X, .) relative to the first is below eps_rank
    determined = top > eps_rank ** 2 * np.sum(S0 * S0, axis=(1, 2))
    t = (_cross(S[rows, (k + 1) % 3], S[rows, (k + 2) % 3])
         * (1.0 / np.where(determined, top, 1.0))[:, None])
    t2 = J.jet_dot(t, J.jet_dot(G, t[:, None]))
    unit = determined & ~(t2.value <= J.EPS_DEG)
    T = t * J.jet_compose("rsqrt", _vetted(t2, unit))[:, None]
    return T, F, det, determined, unit


def _splitting_scalars(T: J.Jet, F: J.Jet, det: J.Jet, det1: J.Jet
                       ) -> tuple[dict, np.ndarray]:
    """The splitting tensor of the nullity line at R points, from the unit
    nullity field T (R, 3), the first partials F (R, 3, N) of the chart and
    det G (R,) as order-2 jets (`_nullity_field`), det1 its order-1 part,
    positive: the report fields as arrays with a leading point axis, and
    the mask of points where the horizontal frame is defined.

    C is the matrix of X -> -(nabla_X T)^h on the horizontal plane in an
    oriented orthonormal frame; the fitted scalars satisfy C = v I - u J
    with J the quarter turn, and the residuals are |e3(v) - (v^2 - u^2 +
    1)|, |e3(u) - 2 u v|, |e1(u) - e2(v)|, |e2(u) + e1(v)| for the frame
    (e1, e2, e3 = T). nabla is the tangent part of the ambient derivative:
    (nabla_k T)_m = <d_k (T^l F_l), F_m>, and T_m = <T^l F_l, F_m>; the
    scalars v = -div(T) / 2 and u = |eps^(kmi) T_i (nabla_k T)_m| / 2 are
    order-1 jets, so their derivatives along the frame are exact. The sign
    of u is fixed at the point; T's orientation is arbitrary, which flips
    v."""
    inv_det = J.jet_compose("recip", det1, eps=0.0)
    inv_vol = J.jet_compose("rsqrt", det1, eps=0.0)
    T1, F1 = J.jet_truncate(T, 1), J.jet_truncate(F, 1)
    # the ambient field T^l F_l, order 2, and its partials [p, k, .]
    t = J.jet_dot(T[:, None], J.Jet(F.space, F.coeffs.swapaxes(1, 2)))
    dt = J.jet_partials(t, axis=1)
    cov = J.jet_dot(dt[:, :, None], F1[:, None])  # [p, k, m]
    T_low = J.jet_dot(J.jet_truncate(t, 1)[:, None], F1)
    dT = J.jet_partials(T, axis=1)   # [p, k, l]
    ddet = J.jet_partials(det, axis=1)
    div = (dT[:, 0, 0] + dT[:, 1, 1] + dT[:, 2, 2]
           + 0.5 * J.jet_mul(J.jet_dot(T1, ddet), inv_det))
    v = -0.5 * div
    curl = (cov[:, [1, 2, 0], [2, 0, 1]] - cov[:, [2, 0, 1], [1, 2, 0]])
    u = 0.5 * J.jet_mul(J.jet_dot(T_low, curl), inv_vol)
    u = J.Jet(u.space, np.where(u.value[:, None] < 0, -u.coeffs, u.coeffs))

    # rows X1, X2: metric-orthonormal and orthogonal to T, by Gram-Schmidt
    # on T and the two coordinate axes least aligned with it, read off the
    # QR of their ambient images
    F0, T0, A = F.value, T.value, cov.value
    scores = np.abs(T_low.value) / np.linalg.norm(F0, axis=-1)
    axes = np.eye(3)[np.argsort(scores, axis=-1)[:, :2]].mT
    B = np.concatenate([T0[..., None], axes], axis=-1)
    E, framed = geo._triangular_frame(np.linalg.qr(F0.mT @ B, mode="r"))
    X = (B @ E)[..., 1:].mT
    C = -X @ A.mT @ X.mT  # C[b, a] = -<X_b, nabla_(X_a) T>
    flip = C[:, 0, 1] < C[:, 1, 0]  # orient the frame so that u >= 0
    X[flip, 1] = -X[flip, 1]
    C[flip] *= np.array([[1.0, -1.0], [-1.0, 1.0]])  # -X2: C off its diagonal
    u0, v0 = u.value, v.value
    Jq = np.array([[0.0, -1.0], [1.0, 0.0]])
    span = np.linalg.norm(C - (v0[:, None, None] * np.eye(2)
                               - u0[:, None, None] * Jq), axis=(1, 2))
    # derivatives of u and v along the frame (X1, X2, T)
    grad = J.jet_partials(J.jet_stack([u, v]).T, axis=1).value  # [p, k, .]
    d = np.concatenate([X, T0[:, None]], axis=1) @ grad
    d_u, d_v = d[..., 0], d[..., 1]
    ode = {"e3_v": np.abs(d_v[:, 2] - (v0 * v0 - u0 * u0 + 1.0)),
           "e3_u": np.abs(d_u[:, 2] - 2.0 * u0 * v0),
           "e1_u_minus_e2_v": np.abs(d_u[:, 0] - d_v[:, 1]),
           "e2_u_plus_e1_v": np.abs(d_u[:, 1] + d_v[:, 0])}
    return ({"C": C, "u": u0, "v": v0, "span_residual": span,
             "ode_residuals": ode, "fiber_alignment": scores[:, 2]}, framed)


def _splitting_pass(chart: ImmersionChart, points: np.ndarray, jets: J.Jet,
                    nu: np.ndarray, regular: np.ndarray, eps_rank: float
                    ) -> list[dict]:
    """JSON rows of the splitting points of shape (S, 3), S >= 1, of a
    3-chart, from its order-4 jet there (shape (S, N)) and the relative
    nullity of each point (`_nullity`, which reads only the order-2 part):
    one stacked pass over the points where the nullity is 1. A row holds
    the measured tensor (`_splitting_scalars`, numbers that are not finite
    written as None), or the reason the point is skipped ("singular" where
    the point is singular or the nullity field or horizontal frame
    degenerates, "nullity k != 1"), or the error where the nullity line is
    undetermined."""
    rows = [{"point": p, "skipped": None, "error": None}
            for p in geo._json_ready(points)]
    regular = regular & np.isfinite(jets.coeffs.reshape(len(jets), -1)
                                    ).all(axis=1)
    for row, ok, k in zip(rows, regular.tolist(), nu.tolist()):
        if not ok or k != 1:
            row["skipped"] = "singular" if not ok else f"nullity {k} != 1"
    live = np.flatnonzero(regular & (nu == 1))
    if not len(live):
        return rows
    T, F, det, determined, unit = _nullity_field(chart, jets[live], eps_rank)
    # the nullity pass vets the metric, so det G > 0 but for rounding, which
    # the compositions guard
    det1 = J.jet_truncate(det, 1)
    ok = determined & unit & ~(det1.value <= 0.0)
    for i, determined_i, ok_i in zip(live.tolist(), determined.tolist(),
                                     ok.tolist()):
        if not determined_i:
            rows[i]["error"] = ("nullity line undetermined: the adjugate of "
                                "alpha alpha^T vanishes")
        elif not ok_i:
            rows[i]["skipped"] = "singular"
    live = live[ok]
    if not len(live):
        return rows
    fields, framed = _splitting_scalars(T[ok], F[ok], det[ok], det1[ok])
    ode = {k: geo._json_ready(x)
           for k, x in fields.pop("ode_residuals").items()}
    fields = {k: geo._json_ready(x) for k, x in fields.items()}
    for r, (i, framed_r) in enumerate(zip(live.tolist(), framed.tolist())):
        if framed_r:
            rows[i].update({k: x[r] for k, x in fields.items()},
                           ode_residuals={k: x[r] for k, x in ode.items()})
        else:
            rows[i]["skipped"] = "singular"
    return rows


def sweep_and_split(chart: ImmersionChart, points, split_points,
                    eps_rank: float = geo.EPS_RANK,
                    eps_deg: float = geo.EPS_DEG
                    ) -> tuple[list[dict], list[dict]]:
    """The JSON rows of a `bundle` command on a 3-chart: the sweep rows at
    points of shape (P, 3) and the splitting rows at split_points of shape
    (S, 3), from one chart evaluation at both (order 4 when S > 0, else
    2), one nullity pass over both, on the order-2 cut, and one splitting
    pass (`_splitting_pass`) when S > 0. A sweep row holds nu, the singular
    values, |H| and whether the point is totally geodesic; a singular
    point's row holds None; a number that is not finite is None."""
    if chart.domain_dim != 3:
        raise ShapeMismatch("bundle rows are defined for 3-charts")
    pts = np.reshape(np.asarray(points, dtype=float), (-1, 3))
    split = np.reshape(np.asarray(split_points, dtype=float), (-1, 3))
    P = len(pts)
    jets = chart.eval_jets(np.concatenate([pts, split]),
                           4 if len(split) else 2)
    nu, sv, H, regular = _nullity(chart, J.jet_truncate(jets, 2), eps_rank,
                                  eps_deg)
    rows = []
    for p, ok, h, k, s in zip(geo._json_ready(pts), regular[:P].tolist(),
                              geo._json_ready(H[:P]), nu[:P].tolist(),
                              geo._json_ready(sv[:P])):
        rows.append({"point": p, "singular": False, "H": h, "nu": k,
                     "sv": s, "tg": k == 3} if ok else
                    {"point": p, "singular": True, "H": None, "nu": None,
                     "sv": None, "tg": None})
    if not len(split):
        return rows, []
    return rows, _splitting_pass(chart, split, jets[P:], nu[P:], regular[P:],
                                 eps_rank)
