"""Independent numerical oracles for the test suite, and the test-side
readers of the package's stacked geometry passes.

The metric and second form oracles work on chart values alone, with
central finite differences (5-point, 4th order), so they share no
derivative code with the jet-based forms. The relative nullity oracle
reads the singular values of X -> alpha(X, .) and |H| off those two, in
the metric-orthonormal frame G^(-1/2) from an eigendecomposition, where
the nullity pass uses the Gram-Schmidt frame it reads off the tangent
stage's QR; the two frames differ by a rotation, which changes neither.
The splitting tensor oracle differentiates the unit kernel field of
`nullity_at` by nested stencils, and builds the Christoffel symbols by
stencils over the metric; it shares with the jet-based splitting pass of
`sweep_and_split` only the nullity pass with the second form it reads,
and the chart's order-1 jets, which give the metric (the first
partials). The splitting scalars from the metric
(`splitting_scalars_from_metric`) are the jet route that reading the
connection off the embedding replaced: the Christoffel symbols summed
from the partials of G = F F^T and the horizontal frame by a Cholesky
factorization of B^T G B (`metric_frame`), where the package takes
<d_k (T^l F_l), F_m> and the QR of the ambient vectors F^T B. The
sampled curvature ellipse takes the fundamental forms and the ellipse
directions Z, JZ from the stacked passes (`stacked_at`) and replaces only
the closed-form Fourier step: it samples the form on Z_theta, T(X^s) =
sum_k C(s, k) X_u^(s-k) X_v^k D_k on the form's entries D_k, where the
package expands T((a conj(w) + b w)^s) in (a, b), and takes an SVD. The
per-point flag is the loop that the stacked flag pass replaced, one
order at a time on one point's jet, with its own read of the s-th
partials: a slice of the coefficients in the space's index order, where
the package gathers them by `jet.jet_partials` in the reverse order. It
builds its own orthonormal basis of position and tangent space and
projects each order's partials off the flag so far, twice, where the
package reads each order in the complement that one complete QR leaves
and narrows that complement level by level. The
holomorphic chart oracle evaluates polynomials by Horner's rule in
complex jet arithmetic, where `surface_chart` reads the jet off complex
derivatives in closed form. The three-variable bundle chart is the
construction that the closed-form fiber replaced: the frame
orthonormalized in the 3-variable space, times cos theta and sin theta
composed by Horner's rule. Its frame comes from
`pivoted_frame_one_at_a_time`, the pivoted Gram-Schmidt of
`bundles._pivoted_frame` taken one candidate at a time against every
direction before it, with the first two directions taken picked point by
point, where the package projects a level off the lower ones in one
stacked step and picks by two argmax reads of the accepted mask; its
candidate partials are chains of first partials, where the package
reads each order in one gather. The
nested x^(-1/2) is recip of sqrt, the two compositions that rsqrt
replaced. The constant-jet composition is the Horner loop that added a
whole constant jet at each step, where `jet.jet_compose` adds the series
coefficient to the constant term in place. The index-gather forms of the
jet core are its earlier arithmetic, which the package must match bit for
bit: products gathered by an Ellipsis fancy index (`jet_mul_fancy`,
`jet_dot_fancy`), partials placed by `np.moveaxis`
(`jet_partials_moveaxis`) and the composition on a - a0
(`jet_compose_offset`); `poly_json_trim_zeros` is the JSON form of
`cpoly.to_json` by one `np.trim_zeros` per polynomial. The full-grid
polar base check finishes every row of its 9x9 grid through `point_rows`, where
`unit_normal_chart` finishes the centre row alone, and only once the
flag checks pass. The isotropy probe is the one-point check of a bipolar
base that the exact check off the base's curve replaced: a `point_rows`
row at flag depth 2, whose isotropy order the curve's two rungs must
predict. The curve flag rule (`holomorphic_curve_flag`) gives the dims
and isotropy order of the `curve-...` fixtures in closed form, from the
Wronskian of distinct powers, where the package reads them off jets; the
per-point flag reads through the codimension by its own count, with no
degree bound. The LAPACK kernels are the per-matrix calls that the
package's 3x3 kernels replaced: the metric floor by the least eigenvalue
of `eigvalsh` (`metric_floor_eigvalsh`), where `geometry._above_floor`
reads the pivots of an LDL^T; the triangular frame by `np.linalg.inv`
(`triangular_frame_inv`), where `geometry._triangular_frame` back
substitutes; and the singular values of X -> alpha(X, .) by an SVD
(`form_singular_values_svd`), where `bundles._form_singular_values`
reads the |eigenvalues| of a square (c = 1) form.

`point_row`, `stacked_at` and `nullity_at` are not oracles: they read
the package's stacked passes at one point, the way the tests use them;
nor is `assert_rows_alone_match`, which checks that a kernel gives a row
the same bits alone as in its batch.
The package's nullity pass computes singular values only, so
`nullity_at` computes the kernel itself, by an SVD of the second form in
the metric frame, projected off its own position and tangent basis.
The quadratic graph chart (`make_graph`) is a test fixture with
closed-form ellipticity.
"""
import math
from types import SimpleNamespace

import numpy as np

import isomin.geometry as geo
import isomin.jet as J
from isomin.bundles import _nullity
from isomin.errors import (DegeneratePoint, FlagCollapse, IsominError,
                           NotElliptic, ShapeMismatch)

STEP = 1e-4


def make_graph(coeff_uu, coeff_uv, coeff_vv, extra=None):
    """Graph chart (u, v, q1(u, v)[, q2(u, v)]) of quadratic heights
    q(u, v) = a u^2 + b uv + c v^2, with (a, b, c) the three coefficients
    of q1 and `extra` those of q2."""

    def jet_fn(points, space):
        u = J.jet_variable(space, 0, points[:, 0])
        v = J.jet_variable(space, 1, points[:, 1])
        out = [u, v,
               coeff_uu * J.jet_mul(u, u) + coeff_uv * J.jet_mul(u, v)
               + coeff_vv * J.jet_mul(v, v)]
        if extra is not None:
            a, b, c = extra
            out.append(a * J.jet_mul(u, u) + b * J.jet_mul(u, v)
                       + c * J.jet_mul(v, v))
        return J.jet_stack(out).T

    return geo.ImmersionChart(
        domain_dim=2, ambient_dim=3 + (extra is not None), ambient="euclidean",
        jet_fn=jet_fn, domain=((-1.0, 1.0), (-1.0, 1.0)), name="graph")


def point_row(chart, point, **kw):
    """The `point_rows` row of one point of shape (2,): a batch of one."""
    return geo.point_rows(chart, [point], **kw)[0]


def stacked_at(chart, point, max_s=2, eps_rank=geo.EPS_RANK,
               eps_deg=geo.EPS_DEG):
    """The stacked passes of `point_rows` at one point, from one chart
    evaluation at order max_s >= 2, as a dict of that point's arrays: the
    metric "G", the metric-orthonormal frame "E" of the coordinate axes,
    the complement "Z" (N, c0) of position and tangent space
    (`_tangent_stage`) and the forms "forms" of the orders the flag reads
    (`_flag_pass` at depth max_s - 1), each with one column per
    multi-index of degree s in `jet.jet_partials` order. The second form
    is mapped back to ambient coordinates, Z Z^T being the projector off
    position and tangent space, so "forms"[2] is (N, 3) on a surface;
    each deeper form stays in the coordinates of its level's complement.
    On a surface chart also the ellipticity pass ("elliptic", "tg",
    "coeffs", "J") and, where elliptic, the ellipses of orders 0..s - 1
    ("centers", in the coordinates of each form, "semiaxes",
    "residuals"), s the last order the flag reads, all run on those
    forms. DegeneratePoint where the point is singular."""
    jets = chart.eval_jets(np.asarray(point, dtype=float)[None], max_s)
    regular, E, _, forms, _ = geo._flag_pass(chart, jets, max_s - 1,
                                             eps_rank, eps_deg)
    if not regular[0]:
        raise DegeneratePoint(f"metric degenerate at {tuple(point)}")
    Z = geo._tangent_stage(chart, jets, eps_deg)[3]
    forms[2] = Z @ forms[2]
    P1 = forms[1][0]
    at = {"G": P1.T @ P1, "E": E[0], "Z": Z[0],
          "forms": {s: f[0] for s, f in forms.items()}}
    if chart.domain_dim == 2:
        exists, tg, coeffs, Jm = geo._ellipticity_pass(E, forms[2], eps_rank)
        at.update(elliptic=bool(exists[0]), tg=bool(tg[0]), coeffs=coeffs[0],
                  J=Jm[0])
        if exists[0]:
            centers, semiaxes, residuals = geo._ellipse_pass(
                E, Jm, forms, max(forms) - 1)
            at.update(centers=[c[0] for c in centers], semiaxes=semiaxes[0],
                      residuals=residuals[0])
    return at


def form_table(form, m):
    """The symmetric second-form table (m, m, N) of a point's order-2 form
    (N, m (m + 1) / 2), whose columns are the pairs i <= j in order."""
    i, j = np.triu_indices(m)
    table = np.empty((m, m, form.shape[0]))
    table[i, j] = table[j, i] = form.T
    return table


def _project_out(Q, V):
    """Columns of V minus their components along the orthonormal columns of
    Q, applied twice for numerical orthogonality."""
    for _ in range(2):
        V = V - Q @ (Q.T @ V)
    return V


def position_and_tangent(chart, jets):
    """An orthonormal basis (N, k) of position (sphere charts, first) and
    tangent space at the one row of a chart jet of shape (1, N): the first
    partials projected off the unit position twice, then a reduced QR."""
    P1 = J.jet_partials(jets, axis=-1).value[0]
    if chart.ambient != "sphere":
        return np.linalg.qr(P1)[0]
    value = jets.value[0]
    position = (value / np.linalg.norm(value))[:, None]
    return np.concatenate(
        [position, np.linalg.qr(_project_out(position, P1))[0]], axis=1)


def nullity_at(chart, point, eps_rank=geo.EPS_RANK, eps_deg=geo.EPS_DEG):
    """The relative nullity at one point of shape (m,): the arrays of the
    nullity pass at that point, as Python numbers and tuples, plus the
    kernel, an (m, nu) array of coordinate components: the left singular
    vectors of the second form in the metric frame E for its nu smallest
    singular values, mapped back by E. DegeneratePoint where the point is
    singular."""
    pts = np.asarray(point, dtype=float)[None]
    jets = chart.eval_jets(pts, 2)
    nu, sv, H, regular = _nullity(chart, jets, eps_rank, eps_deg)
    where = tuple(float(x) for x in pts[0])
    if not regular[0]:
        raise DegeneratePoint(f"singular point {where}")
    m, nu = chart.domain_dim, int(nu[0])
    Q = position_and_tangent(chart, jets)
    P1 = J.jet_partials(jets, axis=-1).value[0]
    E = np.linalg.inv(np.linalg.cholesky(P1.T @ P1)).T
    form = _project_out(Q, J.jet_partials(jets, 2, axis=-1).value[0])
    aorth = np.einsum("ki,lj,kln->ijn", E, E, form_table(form, m))
    U = np.linalg.svd(aorth.reshape(m, -1))[0]
    return SimpleNamespace(
        point=where, nu=nu,
        singular_values=tuple(float(x) for x in sv[0]),
        kernel=E @ U[:, m - nu:], mean_curvature_norm=float(H[0]),
        totally_geodesic=nu == m)


_OFF1 = (-2.0, -1.0, 1.0, 2.0)
_W1 = (1.0, -8.0, 8.0, -1.0)
_OFF2 = (-2.0, -1.0, 0.0, 1.0, 2.0)
_W2 = (-1.0, 16.0, -30.0, 16.0, -1.0)


def fd1(f, x, i, h=STEP):
    """4th-order first partial of a vector function along axis i."""
    acc = 0.0
    for off, w in zip(_OFF1, _W1):
        q = np.array(x, dtype=float)
        q[i] += off * h
        acc = acc + w * np.asarray(f(q))
    return acc / (12.0 * h)


def fd2(f, x, i, j, h=STEP):
    """4th-order second partial along axes i, j (nested stencil off the
    diagonal)."""
    if i == j:
        acc = 0.0
        for off, w in zip(_OFF2, _W2):
            q = np.array(x, dtype=float)
            q[i] += off * h
            acc = acc + w * np.asarray(f(q))
        return acc / (12.0 * h * h)
    return fd1(lambda q: fd1(f, q, j, h), x, i, h)


def chart_partials(chart, point, h=STEP):
    """(P1, P2): first and second partial vectors of the chart map."""
    m = chart.domain_dim
    f = chart.value
    P1 = np.stack([fd1(f, point, i, h) for i in range(m)])
    P2 = np.stack([np.stack([fd2(f, point, i, j, h) for j in range(m)])
                   for i in range(m)])
    return P1, P2


def metric_fd(chart, point, h=STEP):
    P1, _ = chart_partials(chart, point, h)
    return P1 @ P1.T


def second_form_fd(chart, point, h=STEP):
    """Second partials projected orthogonally to the tangent space (and the
    position vector for sphere charts), via a QR factorization."""
    P1, P2 = chart_partials(chart, point, h)
    cols = [P1.T]
    if chart.ambient == "sphere":
        pos = np.asarray(chart.value(point))
        cols.insert(0, pos[:, None])
    Q, _ = np.linalg.qr(np.concatenate(cols, axis=1))
    m, N = P1.shape
    flat = P2.reshape(-1, N)
    flat = flat - (flat @ Q) @ Q.T
    return flat.reshape(m, m, N)


def nullity_fd(chart, point, h=STEP):
    """(singular values of X -> alpha(X, .), |H|) at a point, from the
    stencil metric and second form in the frame W = G^(-1/2)."""
    G = metric_fd(chart, point, h)
    A = second_form_fd(chart, point, h)
    lam, V = np.linalg.eigh(G)
    W = (V / np.sqrt(lam)) @ V.T
    aorth = np.einsum("ki,lj,kla->ija", W, W, A)
    sv = np.linalg.svd(aorth.reshape(len(G), -1), compute_uv=False)
    return sv, float(np.linalg.norm(np.trace(aorth)))


def curvature_ellipse_sampled(chart, point, ell, samples=64,
                              eps_rank=geo.EPS_RANK):
    """Curvature ellipse of order ell <= tau at an elliptic point, from
    `samples` values of the (ell + 1)-th form (the first partials for
    ell = 0) on Z_theta, T(X^s) = sum_k C(s, k) X_u^(s-k) X_v^k D_k with
    D_k the form's entries: the semiaxes are the top two singular values of
    the centred sample matrix, scaled by sqrt(samples / 2) to lengths."""
    s = ell + 1
    at = stacked_at(chart, point, max_s=max(s, 2), eps_rank=eps_rank)
    w = geo._ellipse_directions(at["E"][None], at["J"][None])[0]
    Z, JZ = w.real, w.imag
    theta = 2.0 * math.pi * np.arange(samples) / samples
    X = np.cos(theta)[:, None] * Z + np.sin(theta)[:, None] * JZ
    W = np.stack([math.comb(s, k) * X[:, 0] ** (s - k) * X[:, 1] ** k
                  for k in range(s + 1)], axis=1)
    P = W @ at["forms"][s].T
    center = P.mean(axis=0)
    sv = np.linalg.svd(P - center, compute_uv=False) / math.sqrt(samples / 2.0)
    s1, s2 = float(sv[0]), float(sv[1])
    residual = 1.0 if s1 == 0.0 else 1.0 - s2 / s1
    return SimpleNamespace(order=ell, center=center, semiaxes=(s1, s2),
                           residual=residual)


def _metric(chart, point):
    """Induced metric from the first partials of an order-1 chart jet."""
    jets = chart.eval_jets(point, 1)
    P1 = J.jet_partials(jets).value
    return P1 @ P1.T


def _christoffels(chart, point):
    """Gamma[k, i, j] = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2, with the
    metric derivatives by stencils."""
    dG = np.stack([fd1(lambda q: _metric(chart, q), point, k)
                   for k in range(chart.domain_dim)])   # dG[k, i, j]
    T = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(_metric(chart, point)),
                           T)


def _horizontal_frame(G, T, hand):
    """Two metric-orthonormal vectors spanning the complement of T, with
    fixed coordinate handedness times `hand`."""
    scores = [abs(float(G[k] @ T)) / math.sqrt(float(G[k, k]))
              for k in range(3)]
    frame = []
    for k in np.argsort(scores)[:2]:
        v = np.zeros(3)
        v[k] = 1.0
        v = v - float(v @ G @ T) * T
        for w in frame:
            v = v - float(v @ G @ w) * w
        n2 = float(v @ G @ v)
        if n2 <= 0:
            raise DegeneratePoint("horizontal frame degenerates")
        frame.append(v / math.sqrt(n2))
    X1, X2 = frame
    if float(np.linalg.det(np.stack([X1, X2, T], axis=1))) * hand < 0:
        X2 = -X2
    return X1, X2


def splitting_fd(chart, point, step=1e-3):
    """Splitting tensor of the nullity line of a 3-chart at a point where
    the relative nullity is 1, by finite differences: the unit kernel field is
    differentiated by 5-point stencils of width `step`, and (u, v) again by
    stencils over that. About 370 chart evaluations per point. The fields
    are those of a splitting row; ValueError where the nullity is not 1 or
    the kernel direction is ambiguous."""
    p0 = np.array([float(x) for x in point])

    def unit_kernel(q, ref=None):
        rep = nullity_at(chart, q)
        if rep.nu != 1:
            raise ValueError(f"nullity {rep.nu} != 1 at {tuple(q)}")
        G = _metric(chart, q)
        T = rep.kernel[:, 0]
        T = T / math.sqrt(float(T @ G @ T))
        if ref is not None:
            d = float(T @ ref)
            if abs(d) < 0.2:
                raise ValueError(
                    f"kernel field direction ambiguous at {tuple(q)}")
            if d < 0:
                T = -T
        return T

    def grad(fn, q):
        return np.stack([fd1(fn, q, k, step) for k in range(3)])

    T0 = unit_kernel(p0)

    def uv_at(q, hand):
        T = unit_kernel(q, T0)
        G = _metric(chart, q)
        Gam = _christoffels(chart, q)
        dT = grad(lambda r: unit_kernel(r, T), q)  # dT[k, j]
        covD = dT + np.einsum("jkl,l->kj", Gam, T)
        X1, X2 = _horizontal_frame(G, T, hand)
        C = np.zeros((2, 2))
        for a, Xa in enumerate((X1, X2)):
            W = Xa @ covD                      # (nabla_Xa T)^j
            W = W - float(W @ G @ T) * T       # horizontal part
            for b, Xb in enumerate((X1, X2)):
                C[b, a] = -float(Xb @ G @ W)
        u = 0.5 * (C[0, 1] - C[1, 0])
        v = 0.5 * (C[0, 0] + C[1, 1])
        return u, v, C, X1, X2, T, G

    hand = +1.0
    u0, v0, C0, X1, X2, Tc, G0 = uv_at(p0, hand)
    if u0 < 0:
        hand = -1.0
        u0, v0, C0, X1, X2, Tc, G0 = uv_at(p0, hand)

    Jq = np.array([[0.0, -1.0], [1.0, 0.0]])
    span_residual = float(np.linalg.norm(C0 - (v0 * np.eye(2) - u0 * Jq)))
    grad_uv = grad(lambda r: np.array(uv_at(r, hand)[:2]), p0)
    frame_vecs = (X1, X2, Tc)
    d_u = [float(X @ grad_uv[:, 0]) for X in frame_vecs]
    d_v = [float(X @ grad_uv[:, 1]) for X in frame_vecs]
    ode_residuals = {
        "e3_v": abs(d_v[2] - (v0 * v0 - u0 * u0 + 1.0)),
        "e3_u": abs(d_u[2] - 2.0 * u0 * v0),
        "e1_u_minus_e2_v": abs(d_u[0] - d_v[1]),
        "e2_u_plus_e1_v": abs(d_u[1] + d_v[0]),
    }
    fiber_alignment = abs(float(Tc @ G0[:, 2])) / math.sqrt(float(G0[2, 2]))
    return SimpleNamespace(point=tuple(float(x) for x in point), C=C0,
                           u=float(u0), v=float(v0),
                           span_residual=span_residual,
                           ode_residuals=ode_residuals,
                           fiber_alignment=fiber_alignment)


def metric_frame(G, B):
    """Gram-Schmidt of the columns of B in the metric G, in order, stacked
    over leading axes: B L^-T with L = chol(B^T G B), since the Cholesky
    factor is unique. Returns the frames and the mask of rows where
    B^T G B is positive definite; the frame of any other row is NaN, and
    no row depends on the others."""
    M = B.mT @ G @ B
    ok = np.ones(M.shape[:-2], dtype=bool)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # rare: find the rows without a factor, one at a time
        for i in np.ndindex(ok.shape):
            try:
                np.linalg.cholesky(M[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        L = np.linalg.cholesky(np.where(ok[..., None, None], M,
                                        np.eye(M.shape[-1])))
    F = B @ np.linalg.inv(L).mT
    F[~ok] = np.nan
    return F, ok


def metric_floor_eigvalsh(G, eps_deg):
    """The mask of stacked symmetric G (..., m, m) whose least eigenvalue,
    by `eigvalsh`, is not below eps_deg."""
    return ~(np.linalg.eigvalsh(G)[..., 0] < eps_deg)


def triangular_frame_inv(R):
    """The inverse of stacked upper-triangular R signed to a positive
    diagonal, by `np.linalg.inv`, and the mask of rows whose diagonal is
    finite and nonzero; the inverse of any other row is NaN."""
    d = np.diagonal(R, axis1=-2, axis2=-1)
    ok = ((d != 0.0) & np.isfinite(d)).all(axis=-1)
    E = np.linalg.inv(np.where(ok[..., None, None], R * np.sign(d)[..., None],
                               np.eye(R.shape[-1])))
    E[~ok] = np.nan
    return E, ok


def form_singular_values_svd(aorth):
    """The singular values, descending, of stacked matrices, by an SVD."""
    return np.linalg.svd(aorth, compute_uv=False)


def assert_rows_alone_match(kernel, stack, out):
    """Each row of a kernel's output (an array or a tuple of arrays) on a
    stack has the bits of the kernel on that row alone, as a stack of
    one."""
    outs = out if isinstance(out, tuple) else (out,)
    for i in range(len(stack)):
        alone = kernel(stack[i:i + 1])
        for got, ref in zip(outs, alone if isinstance(alone, tuple)
                            else (alone,)):
            assert got[i:i + 1].tobytes() == ref.tobytes()


def splitting_scalars_from_metric(T, G, det, det1):
    """The fields of `bundles._splitting_scalars` and its frame mask, from
    the metric G (R, 3, 3) as an order-2 jet in place of the first
    partials: the covariant derivative (nabla_k T)_m = g_ml d_k T^l +
    Gamma_(m,kl) T^l with the Christoffel symbols summed from the partials
    of G, T lowered by G, and the horizontal frame by `metric_frame`."""
    inv_det = J.jet_compose("recip", det1, eps=0.0)
    inv_vol = J.jet_compose("rsqrt", det1, eps=0.0)
    T1, g = J.jet_truncate(T, 1), J.jet_truncate(G, 1)
    dT = J.jet_partials(T, axis=1)   # [p, k, l]
    # Gamma_(m,kl) T^l = (dg_T[k, m] + T_dg[k, m] - dg_T[m, k]) / 2, with
    # dg_T[k, m] = d_k g_ml T^l and T_dg[k, m] = T^l d_l g_mk (symmetric):
    # the partials of G, and of G with its two axes swapped, last
    dg_T = J.jet_dot(J.jet_partials(G, axis=1), T1[:, None, None])
    G_t = J.Jet(G.space, G.coeffs.swapaxes(1, 2))
    T_dg = J.jet_dot(J.jet_partials(G_t, axis=-1), T1[:, None, None])
    cov = (J.jet_dot(g[:, None], dT[:, :, None])
           + 0.5 * (dg_T + T_dg - J.Jet(dg_T.space,
                                        dg_T.coeffs.swapaxes(1, 2))))
    ddet = J.jet_partials(det, axis=1)
    div = (dT[:, 0, 0] + dT[:, 1, 1] + dT[:, 2, 2]
           + 0.5 * J.jet_mul(J.jet_dot(T1, ddet), inv_det))
    v = -0.5 * div
    curl = (cov[:, [1, 2, 0], [2, 0, 1]] - cov[:, [2, 0, 1], [1, 2, 0]])
    u = 0.5 * J.jet_mul(J.jet_dot(J.jet_dot(g, T1[:, None]), curl), inv_vol)
    u = J.Jet(u.space, np.where(u.value[:, None] < 0, -u.coeffs, u.coeffs))

    # rows X1, X2: metric-orthonormal and orthogonal to T, by Gram-Schmidt
    # on T and the two coordinate axes least aligned with it
    G0, T0, A = G.value, T.value, cov.value
    scores = (np.abs((G0 @ T0[..., None])[..., 0])
              / np.sqrt(np.diagonal(G0, axis1=1, axis2=2)))
    axes = np.eye(3)[np.argsort(scores, axis=-1)[:, :2]].mT
    X, framed = metric_frame(G0, np.concatenate([T0[..., None], axes],
                                                axis=-1))
    X = X[..., 1:].mT
    C = -X @ A.mT @ X.mT  # C[b, a] = -<X_b, nabla_(X_a) T>
    flip = C[:, 0, 1] < C[:, 1, 0]  # orient the frame so that u >= 0
    X[flip, 1] = -X[flip, 1]
    C = -X @ A.mT @ X.mT
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
    align = np.abs(np.sum(T0 * G0[..., 2], axis=-1)) / np.sqrt(G0[:, 2, 2])
    return ({"C": C, "u": u0, "v": v0, "span_residual": span,
             "ode_residuals": ode, "fiber_alignment": align}, framed)


def flag_levels_per_point(chart, point, max_order=None,
                          eps_rank=geo.EPS_RANK, eps_deg=geo.EPS_DEG):
    """The osculating flag at one point by the per-point loop that the
    stacked flag pass replaced: its own orthonormal basis of position and
    tangent space (`position_and_tangent`), then one order at a time, the
    s-th partials projected twice off the flag so far, whose directions
    with singular value above eps_rank max(scale, 1) join the flag; it
    stops at the first order of rank 0 or once the flag spans the ambient
    space. Returns the dims and, by order s, the singular values of the
    projected partials and their scale (the largest column norm of the
    raw partials). Raises DegeneratePoint at a singular point. By default
    it reads through the codimension (inside the sphere, for sphere
    charts), counted here, with no degree bound: each normal space has
    rank at least 1, so no flag is deeper."""
    if max_order is None:
        sphere = 1 if chart.ambient == "sphere" else 0
        max_order = max(chart.ambient_dim - chart.domain_dim - sphere, 1)
    jets = chart.eval_jets(np.asarray(point, dtype=float)[None], max_order + 1)
    if not geo._tangent_stage(chart, jets, eps_deg)[0][0]:
        raise DegeneratePoint(f"metric degenerate at {tuple(point)}")
    Q, dims, svs, scales = (position_and_tangent(chart, jets),
                            [chart.domain_dim], {}, {})
    for s in range(2, max_order + 2):
        # its own read of the s-th partials: the degree-s block of the
        # coefficients (index order by degree first) times the factorials
        lo, hi = (math.comb(k + chart.domain_dim, chart.domain_dim)
                  for k in (s - 1, s))
        C = jets[0].coeffs[:, lo:hi] * jets.space.factorial[lo:hi]
        scales[s] = float(np.linalg.norm(C, axis=0).max())
        U, svs[s], _ = np.linalg.svd(_project_out(Q, C), full_matrices=False)
        rank = int(np.sum(svs[s] > eps_rank * max(scales[s], 1.0)))
        if rank == 0:
            break
        dims.append(rank)
        Q = np.concatenate([Q, U[:, :rank]], axis=1)
        if Q.shape[1] >= chart.ambient_dim:
            break
    return tuple(dims), svs, scales


def flag_per_point(chart, point, max_order=None, eps_rank=geo.EPS_RANK,
                   eps_deg=geo.EPS_DEG):
    """(dims, tau) of the osculating flag at one point, by the per-point
    loop of `flag_levels_per_point`."""
    dims = flag_levels_per_point(chart, point, max_order, eps_rank,
                                 eps_deg)[0]
    return dims, len(dims) - 1


def holomorphic_curve_flag(powers):
    """(dims, order) of the curve fixture z -> (z^p1, ..., z^pk), distinct
    positive powers, padded with zero components or not, at every point
    off z = 0. With q_i = p_i - 1 distinct, the derivatives F', ..., F^(k)
    are the Wronskian matrix of z^q1, ..., z^qk up to the factors p_i, with
    determinant prod_(i<j) (q_j - q_i) z^(sum q - k(k-1)/2) times prod p_i,
    nonzero off z = 0. So the s-th partials, Re and Im of i^b F^(s), add one
    complex line, a real plane, for s = 1..k: dims [2] * k and tau k - 1;
    zero components add nothing. The chart is Re Phi with Phi = (z^p1,
    -i z^p1, ..., 0, ...), and <Phi^(a), Phi^(b)> = 0 in the unconjugated
    dot for all a, b >= 1, since each pair gives 1 + (-i)^2 = 0: the curve
    is fully isotropic, each ellipse through tau is a circle and the order
    is tau."""
    k = len(set(powers))
    return (2,) * k, k - 1


def holomorphic_jets_horner(components, point, space):
    """Jets of Re Phi for each polynomial component of Phi (a row of
    coefficients by power of z) at z = x0 + i x1, by Horner's rule on z as
    a (re, im) pair of real jets."""
    zr = J.jet_variable(space, 0, float(point[0]))
    zi = J.jet_variable(space, 1, float(point[1]))
    out = []
    for p in components:
        re = J.jet_constant(space, 0.0)
        im = J.jet_constant(space, 0.0)
        for c in p[::-1]:
            re, im = (J.jet_mul(re, zr) - J.jet_mul(im, zi) + c.real,
                      J.jet_mul(re, zi) + J.jet_mul(im, zr) + c.imag)
        out.append(re)
    return out


def pivoted_frame_one_at_a_time(levels, eps_rank):
    """The pivoted Gram-Schmidt of `bundles._pivoted_frame`, one candidate
    at a time: each candidate of each level (stacked jets of shape (c, Q,
    N)) in turn, against every direction taken before it, taken where its
    squared norm is above EPS_DEG (first level) or (eps_rank max(1,
    |candidate|))^2 (later levels), zero where it is not; then, point by
    point, the first two directions taken in the last level (zero where
    there are fewer), and the mask of points where the first level is
    taken whole and the last level gives two directions."""
    basis = []
    for s, level in enumerate(levels):
        taken = []
        for cand in level:
            v = cand
            for b in basis:
                v = v - J.jet_dot(v, b)[..., None] * b
            n2 = J.jet_dot(v, v)
            if s:
                thr = eps_rank * np.maximum(
                    1.0, np.sqrt(J.jet_dot(cand, cand).value))
                ok = n2.value > thr * thr
            else:
                ok = n2.value > J.EPS_DEG
            safe = J.Jet(n2.space, np.where(ok[..., None], n2.coeffs, 1.0))
            unit = v * J.jet_compose("rsqrt", safe, eps=0.0)[..., None]
            basis.append(J.Jet(v.space, np.where(ok[..., None, None],
                                                 unit.coeffs, 0.0)))
            taken.append(ok)
        if not s:
            whole = np.all(taken, axis=0)
    last, taken = basis[-len(taken):], np.array(taken)
    e = np.zeros((2,) + last[0].coeffs.shape)
    for q in range(taken.shape[1]):
        for i, k in enumerate(np.flatnonzero(taken[:, q])[:2]):
            e[i, q] = last[k].coeffs[q]
    space = last[0].space
    return (J.Jet(space, e[0]), J.Jet(space, e[1]),
            whole & (taken.sum(axis=0) == 2))


def bundle_jets_three_variable(bc, points, order):
    """Jets of a bundle chart (default pivot order and rank threshold) at
    points of shape (P, 3): the frame of every point built in the
    3-variable space, where it does not depend on theta, by
    `pivoted_frame_one_at_a_time`, then cos(theta) E1 + sin(theta) E2 by
    jet products; NaN where the frame is undefined."""
    points = np.asarray(points, dtype=float)
    space, uv = J.get_space(3, order), points[:, :2]
    if bc.kind == "unit_tangent":
        bjets = bc.base.jet_fn(uv, J.get_space(3, order + 1))
        levels = [J.jet_partials(bjets)[:2]]
    else:
        # level s holds d_u^(s-k) d_v^k of the base, k = 0..s
        level = [bc.base.jet_fn(uv, J.get_space(3, order + bc.tau + 1))]
        levels = [J.jet_stack([J.jet_truncate(level[0], order)])]
        for _ in range(bc.tau + 1):
            level = ([J.jet_partials(level[0])[0]]
                     + [J.jet_partials(d)[1] for d in level])
            levels.append(J.jet_stack([J.jet_truncate(d, order)
                                       for d in level]))
    e1, e2, ok = pivoted_frame_one_at_a_time(levels, geo.EPS_RANK)
    th = J.jet_variable(space, 2, points[:, 2])
    out = (J.jet_compose("cos", th)[:, None] * e1
           + J.jet_compose("sin", th)[:, None] * e2)
    out.coeffs[~ok] = np.nan
    return out


def rsqrt_nested(a, eps=J.EPS_DEG):
    """a^(-1/2) as the reciprocal of the square root, two compositions."""
    return J.jet_compose("recip", J.jet_compose("sqrt", a, eps), eps)


def jet_mul_fancy(a, b):
    """The product of `jet.jet_mul` with its operands gathered by an
    Ellipsis fancy index, where the package gathers them by `take`."""
    sp = a.space
    ia, ib, starts = sp._mul_table
    return J.Jet(sp, np.add.reduceat(a.coeffs[..., ia] * b.coeffs[..., ib],
                                     starts, axis=-1))


def jet_dot_fancy(a, b):
    """`jet.jet_dot` through `jet_mul_fancy` and `ndarray.sum`."""
    p = jet_mul_fancy(a, b)
    if not p.shape:
        raise ShapeMismatch("jet_dot needs vector jets")
    return J.Jet(p.space, p.coeffs.sum(axis=-2))


def jet_partials_moveaxis(a, s=1, axis=0):
    """`jet.jet_partials` with its new axis placed by `np.moveaxis`, where
    the package transposes by a permutation; no argument checks."""
    sp = a.space
    src, fac = J._partial_map(sp.nvars, sp.order, s)
    return J.Jet(J.get_space(sp.nvars, sp.order - s),
                 np.moveaxis(a.coeffs[..., src] * fac, -2,
                             axis if axis >= 0 else axis - 1))


def jet_compose_offset(kind, a, eps=J.EPS_DEG):
    """The Horner loop of `jet.jet_compose` on the offset jet a - a0 (a
    constant jet subtracted) with products by `jet_mul_fancy`, where the
    package zeroes the offset's constant term on a copy of the
    coefficients."""
    a0 = a.coeffs[..., 0]
    series = J._outer_series(kind, a0, a.space.order, eps)
    if a.space.order == 0:
        return J.jet_constant(a.space, series[0])
    offset = a - a0
    acc = offset * series[-1]
    acc.coeffs[..., 0] += series[-2]
    for c in reversed(series[:-2]):
        acc = jet_mul_fancy(acc, offset)
        acc.coeffs[..., 0] += c
    acc.coeffs[..., 1:] += 0.0
    return acc


def poly_json_trim_zeros(a):
    """The JSON form of `cpoly.to_json` by one `np.trim_zeros` per
    polynomial, where the package cuts every polynomial by one mask over
    the whole array."""
    if a.ndim > 1:
        return [poly_json_trim_zeros(p) for p in a]
    kept = np.trim_zeros(a, trim="b")
    return np.column_stack((kept.real, kept.imag)).tolist()


def jet_compose_constant_jets(kind, a, eps=J.EPS_DEG):
    """The Horner loop of `jet.jet_compose` that adds a whole constant jet
    of the series coefficient at every step."""
    a0 = a.coeffs[..., 0]
    series = J._outer_series(kind, a0, a.space.order, eps)
    offset = a - a0
    acc = J.jet_constant(a.space, series[-1])
    for c in reversed(series[:-1]):
        acc = J.jet_mul(acc, offset) + c
    return acc


def unit_normal_check_full(base, circle_tol=geo.CIRCLE_TOL,
                           eps_rank=geo.EPS_RANK, eps_deg=geo.EPS_DEG):
    """The base check of `unit_normal_chart` by one `point_rows` pass that
    finishes all 81 rows of the 9x9 grid: (tau, notes), or the class and
    message of the error it raises."""
    try:
        rows = geo.point_rows(
            base, geo.grid_points(geo.grid_axes(base, (9, 9))), circle_tol,
            eps_rank, max(base.ambient_dim - 3, 1), eps_deg)
        probe = rows[len(rows) // 2]
        center = tuple(probe["point"])
        if probe["singular"]:
            raise DegeneratePoint(f"metric degenerate at {center}")
        tau = probe["tau"]
        if tau < 1:
            raise FlagCollapse(
                "base has no first normal space (totally geodesic)")
        if probe["dims"][-1] != 2:
            raise FlagCollapse(f"last normal space has rank "
                               f"{probe['dims'][-1]}, need a plane")
        cert = geo.flag_certificate([r["dims"] for r in rows])
        if not cert["nicely_curved"]:
            raise FlagCollapse(
                f"flag dimensions vary over the domain: {cert}")
        if not probe["elliptic"]:
            raise NotElliptic(f"no elliptic direction at {center}")
    except IsominError as exc:
        return type(exc), str(exc)
    top = probe["ellipses"][tau - 1]["residual"]
    top = math.nan if top is None else top
    notes = []
    if not top <= circle_tol:
        notes.append(f"curvature ellipse of order {tau - 1} is not a circle "
                     f"(residual {top:.3g}); the normal bundle chart need "
                     "not be minimal")
    return tau, notes


def isotropy_probe(base, point=None, circle_tol=geo.CIRCLE_TOL,
                   eps_rank=geo.EPS_RANK, eps_deg=geo.EPS_DEG):
    """The base check that `unit_tangent_chart` ran before it read the
    base's curve: one `point_rows` row at flag depth 2 (the ellipses of
    orders 0 and 1) at the point, the domain centre by default, and the
    note it gave where the row is singular, not elliptic or of isotropy
    order < 1: (row, notes)."""
    if point is None:
        point = tuple((lo + hi) / 2.0 for lo, hi in base.domain)
    [row] = geo.point_rows(base, [point], circle_tol, eps_rank, 2, eps_deg)
    point = tuple(point)
    if row["singular"]:
        notes = ["could not verify base isotropy: metric degenerate at "
                 f"{point}"]
    elif not row["elliptic"]:
        notes = ["could not verify base isotropy: no elliptic direction at "
                 f"{point}"]
    elif row["order"] < 1:
        notes = [f"base isotropy order {row['order']} < 1 at {point}; the "
                 "unit tangent chart need not be minimal"]
    else:
        notes = []
    return row, notes
