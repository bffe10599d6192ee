"""Independent numerical oracles for the test suite.

The metric and second form oracles work on chart values alone, with
central finite differences (5-point, 4th order), so they share no
derivative code with the jet-based forms. The relative nullity oracle
reads the singular values of X -> alpha(X, .) and |H| off those two, in
the metric-orthonormal frame G^(-1/2) from an eigendecomposition, where
`relative_nullity` uses a Cholesky (Gram-Schmidt) frame; the two frames
differ by a rotation, which changes neither. The splitting tensor oracle
differentiates the unit kernel field of `relative_nullity` by nested
stencils, and builds the Christoffel symbols by stencils over the metric;
it shares with the jet-based `splitting_tensor` only `relative_nullity` and
the chart's order-1 jets, which give the metric (the first partials). The
sampled curvature ellipse takes the fundamental forms and the ellipse
directions Z, JZ from the package (`fundamental_forms`, `ellipticity`) and
replaces only the closed-form Fourier step: it samples the form on Z_theta
and takes an SVD. The holomorphic chart oracle evaluates polynomials by
Horner's rule in complex jet arithmetic, where `surface_chart` reads the
jet off complex derivatives in closed form.
"""
import math

import numpy as np

import isomin.geometry as geo
import isomin.jet as J
from isomin.bundles import SplittingReport, relative_nullity
from isomin.errors import DegeneratePoint, NullityJump, OrderOutOfRange

STEP = 1e-4

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
    """Curvature ellipse of order ell from `samples` values of the
    (ell + 1)-th form (the first partials for ell = 0) on Z_theta: the
    semiaxes are the top two singular values of the centred sample matrix,
    scaled by sqrt(samples / 2) to lengths."""
    s = ell + 1
    forms = geo.fundamental_forms(chart, point, max_s=max(s, 2),
                                  eps_rank=eps_rank)
    if forms.flag.tau < ell:
        raise OrderOutOfRange(
            f"ellipse order {ell} exceeds flag tau {forms.flag.tau}")
    ellip = geo.ellipticity(chart, point, eps_rank=eps_rank, forms=forms)
    Z, JZ = geo._ellipse_directions(ellip)
    basis = []
    for k in range(s + 1):
        T = forms.tables[s]
        for _ in range(s - k):
            T = np.tensordot(Z, T, axes=(0, 0))
        for _ in range(k):
            T = np.tensordot(JZ, T, axes=(0, 0))
        basis.append(T)
    theta = 2.0 * math.pi * np.arange(samples) / samples
    W = np.stack([math.comb(s, k)
                  * np.cos(theta) ** (s - k) * np.sin(theta) ** k
                  for k in range(s + 1)], axis=1)
    P = W @ np.stack(basis, axis=0)
    center = P.mean(axis=0)
    sv = np.linalg.svd(P - center, compute_uv=False) / math.sqrt(samples / 2.0)
    s1, s2 = float(sv[0]), float(sv[1])
    residual = 1.0 if s1 == 0.0 else 1.0 - s2 / s1
    return geo.EllipseReport(order=ell, center=center, semiaxes=(s1, s2),
                             residual=residual)


def _metric(chart, point):
    """Induced metric from the first partials of an order-1 chart jet."""
    jets = chart.eval_jets(point, 1)
    P1 = np.stack([jets.derivative(i).value for i in range(chart.domain_dim)])
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
    stencils over that. About 370 chart evaluations per point."""
    p0 = np.array([float(x) for x in point])

    def unit_kernel(q, ref=None):
        rep = relative_nullity(chart, q)
        if rep.nu != 1:
            raise NullityJump(f"nullity {rep.nu} != 1 at {tuple(q)}")
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
    return SplittingReport(point=tuple(float(x) for x in point), C=C0,
                           u=float(u0), v=float(v0),
                           span_residual=span_residual,
                           ode_residuals=ode_residuals,
                           fiber_alignment=fiber_alignment)


def holomorphic_jets_horner(components, point, space):
    """Jets of Re Phi for each polynomial component of Phi at z = x0 + i x1,
    by Horner's rule on z as a (re, im) pair of real jets."""
    zr = J.jet_variable(space, 0, float(point[0]))
    zi = J.jet_variable(space, 1, float(point[1]))
    out = []
    for p in components:
        re = J.jet_constant(space, 0.0)
        im = J.jet_constant(space, 0.0)
        for c in reversed(p.coeffs):
            re, im = (J.jet_mul(re, zr) - J.jet_mul(im, zi) + c.real,
                      J.jet_mul(re, zi) + J.jet_mul(im, zr) + c.imag)
        out.append(re)
    return out
