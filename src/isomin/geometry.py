"""Per-point differential geometry of immersion charts.

A chart is a smooth map from a box in R^m (m = 2 or 3) into R^N, optionally
constrained to the unit sphere S^(N-1), evaluated through jets at a batch
of points at once. Every quantity is computed by stacked passes over the
regular rows of one batch, and this is the package's only geometry path:
the osculating flag of higher normal spaces, read to its end at the depth
the chart sets (`_flag_depth`), together with the higher fundamental
forms, its projected partials (`_flag_pass`), ellipticity of the second
form (`_ellipticity_pass`), curvature ellipses (`_ellipse_pass`) and the
isotropy order, assembled into report rows by `point_rows` in a flag
stage and a row stage; one point's row is a batch of one, and
`flag_certificate` reads the constancy of the flag off the rows' dims.
The flag is carried as its orthogonal complement, from one complete QR
per point, each order read in the complement of the flag below, one
column narrower per order whatever a point's ranks, so no shape depends
on them. Conventions that the rest of the package relies on:

* A point is singular when its jets are not finite (a chart writes NaN
  where it is not defined, such as a bundle frame that degenerates), the
  least metric eigenvalue is not above eps_deg (a pivot of the unpivoted
  LDL^T of G - eps_deg I that is not positive, `_above_floor`), or the
  metric has no Cholesky factor (a zero on the QR's tangent diagonal);
  each point of a batch is judged on its own: the floor and the frame
  work elementwise over the stack, so a row's bits do not depend on its
  batch.
* Metric-orthonormal frames are Gram-Schmidt in the induced metric, read
  off the R factor of a QR of ambient vectors by `_triangular_frame`: of
  the coordinate axes the tangent block of the QR of `_tangent_stage`, of
  other coordinate vectors B the QR of their ambient images P1 B.
* Report rows hold only JSON values (`_json_ready`): Python numbers,
  bools, None, lists and dicts, with None for a number that is not finite.
* Every partial is read by `jet.jet_partials`, once per order; this
  module knows nothing of the coefficient layout. The flag reads the s-th
  partials in one read, one column per multi-index of degree s
  (descending lexicographic), as Y = Z^T C with Z an orthonormal basis of
  the complement of position (sphere charts), tangent space and lower
  normal spaces: the s-th fundamental form on coordinate directions, by
  its s + 1 entries D_k = T(e_u^(s-k), e_v^k) on a surface, in the
  coordinates of Z. Its values span the (s-1)-th normal space, where a
  direction is accepted when its singular value exceeds eps_rank
  relative to the raw derivative scale.
  A row with a singular value, or a residual that its order reads, within
  a factor DECISION_MARGIN of its threshold (a flag conditioned beyond the
  tolerances, as deep on a high-degree curve) carries a note.
* A form is evaluated on directions x, y as the binary form
  T((a x + b y)^s) in (a, b) (`_on_lines`), whose coefficients the
  ellipticity and the ellipses read.
* Curvature ellipses are read off Fourier coefficients: with Z unit,
  <Z, JZ> = 0 and w = Z + i JZ, Z_theta = cos(theta) Z + sin(theta) JZ =
  Re(exp(-i theta) w), so the s-th form on Z_theta is a trigonometric
  polynomial in theta with coefficient c_j = 2^-s C(s, j) T(w^j,
  conj(w)^(s-j)) = 2^-s [a^(s-j) b^j] T((a conj(w) + b w)^s) at frequency
  s - 2j. By Parseval the semiaxes (the top two singular values of the
  curve of values about its mean) are those of the real matrix
  2 [Re c_j; Im c_j] over 2j > s, and the centre is c_(s/2) (0 for odd
  s). Circularity residual = 1 - sigma_2 / sigma_1.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from . import jet as J
from .errors import InvalidData, ShapeMismatch

EPS_DEG = J.EPS_DEG           # admissibility floor for metric eigenvalues
EPS_RANK = 1e-8               # relative rank threshold for flag decisions
CIRCLE_TOL = 1e-8             # default circularity residual tolerance
SPHERE_NORM_TOL = 1e-10       # |f| - 1 bound for sphere charts
DECISION_MARGIN = 100.0       # least factor off a threshold to decide
UNRESOLVED = ("a rank or circularity decision lies within a factor "
              f"{DECISION_MARGIN:g} of its threshold: dims and order depend "
              "on eps_rank and circle")


@dataclasses.dataclass
class ImmersionChart:
    """A parametrized piece of submanifold, evaluated through jets.

    jet_fn(points, space) takes points of shape (P, domain_dim) and returns
    one jet of shape (P, ambient_dim): the chart map expanded at each point,
    in the given jet space, with NaN coefficients in the rows of points
    where the chart is not defined. The first domain_dim variables of the
    space are the chart coordinates; charts may be evaluated inside larger
    spaces as long as the extra variables are left untouched (the bundle
    charts evaluate their base in its own two variables).

    curve is the (d, L) polynomial curve F of a chart Re F built by
    `weierstrass.surface_chart`, trimmed to its degree (`cpoly`), and None
    for every other chart; the unit tangent chart reads its base's
    isotropy off it, and `_flag_depth` its degree.
    """

    domain_dim: int
    ambient_dim: int
    ambient: str  # "euclidean" or "sphere"
    jet_fn: Callable[[Sequence[float], J.JetSpace], J.Jet]
    domain: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...] = ()
    name: str = ""
    curve: np.ndarray | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        if self.ambient not in ("euclidean", "sphere"):
            raise InvalidData(f"unknown ambient {self.ambient!r}")
        if self.domain_dim not in (2, 3):
            raise ShapeMismatch(
                f"charts have 2- or 3-dimensional domains, got {self.domain_dim}")
        if len(self.domain) != self.domain_dim:
            raise ShapeMismatch("domain box does not match domain_dim")
        if not self.periodic:
            self.periodic = (False,) * self.domain_dim

    def eval_jets(self, points, order: int) -> J.Jet:
        """Jets at points of shape (P, domain_dim), one jet of shape
        (P, ambient_dim); a single point of shape (domain_dim,) is the P = 1
        case and gives shape (ambient_dim,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.domain_dim:
            raise ShapeMismatch(f"points have shape {pts.shape}, chart needs "
                                f"(P, {self.domain_dim}) or ({self.domain_dim},)")
        batch = pts.reshape(-1, self.domain_dim)
        out = self.jet_fn(batch, J.get_space(self.domain_dim, order))
        if (not isinstance(out, J.Jet)
                or out.shape != (len(batch), self.ambient_dim)):
            raise ShapeMismatch("chart evaluator must return one jet of "
                                f"shape ({len(batch)}, {self.ambient_dim})")
        return out if pts.ndim == 2 else out[0]

    def value(self, points) -> np.ndarray:
        return self.eval_jets(points, 0).value


def grid_axes(chart: ImmersionChart,
              counts: Sequence[int],
              ranges: Sequence[tuple[float, float]] | None = None) -> list[np.ndarray]:
    """Sample axes over the chart domain. Periodic axes (the fiber circle of
    bundle charts) are sampled endpoint-exclusive so a full-circle range does
    not duplicate the seam point."""
    if len(counts) != chart.domain_dim:
        raise ShapeMismatch("one sample count per domain coordinate")
    if ranges is None:
        ranges = chart.domain
    axes = []
    for (lo, hi), n, per in zip(ranges, counts, chart.periodic):
        n = int(n)
        if n < 1:
            raise InvalidData("grid counts must be positive")
        if per:
            axes.append(lo + (hi - lo) * np.arange(n) / n)
        else:
            axes.append(np.linspace(lo, hi, n))
    return axes


def grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """All grid points in row-major order, shape (prod(counts), m)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def _json_ready(a) -> list | float | None:
    """a.tolist() with None for every number that is not finite: a float
    array as strict JSON values, so that a report row needs no further
    walk before it is written."""
    a = np.asarray(a, dtype=float)
    finite = np.isfinite(a)
    if finite.all():
        return a.tolist()
    out = a.astype(object)
    out[~finite] = None
    return out.tolist()


def _triangular_frame(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of upper-triangular R signed to a positive diagonal,
    stacked over leading axes, and the mask of rows whose diagonal is finite
    and nonzero; the inverse of any other row is NaN. With R from a QR of
    the ambient images of vectors B, B^T G B = R^T R, so B times the
    inverse is the Gram-Schmidt of the columns of B in the metric G.

    The inverse X of the signed R is read by back substitution, column by
    column: X_jj = 1 / R_jj and, for i < j, X_ij = (0 - R_ij X_jj -
    R_i,j-1 X_j-1,j - ... - R_i,i+1 X_i+1,j) X_ii, subtracted in that
    order (a zero reads +0). Every step is elementwise over the stack, so
    a row's bits do not depend on its batch."""
    d = np.diagonal(R, axis1=-2, axis2=-1)
    ok = ((d != 0.0) & np.isfinite(d)).all(axis=-1)
    U = np.where(ok[..., None, None], R * np.sign(d)[..., None],
                 np.eye(R.shape[-1]))
    E = np.zeros_like(U)
    m = U.shape[-1]
    recip = 1.0 / np.diagonal(U, axis1=-2, axis2=-1)
    for j in range(m):
        E[..., j, j] = recip[..., j]
        for i in range(j - 1, -1, -1):
            acc = 0.0 - U[..., i, j] * E[..., j, j]
            for k in range(j - 1, i, -1):
                acc = acc - U[..., i, k] * E[..., k, j]
            E[..., i, j] = acc * recip[..., i]
    E[~ok] = np.nan
    return E, ok


def _above_floor(G: np.ndarray, eps_deg: float) -> np.ndarray:
    """The mask of stacked symmetric matrices G (..., m, m) whose least
    eigenvalue is above eps_deg: G - eps_deg I is positive definite, so
    every pivot of its unpivoted LDL^T is positive. The pivots are read off
    the lower triangle, one entry array at a time, by m Schur-complement
    steps; every step is elementwise over the stack, and a row whose pivot
    is not positive (NaN included) is out from there on."""
    m = G.shape[-1]
    a = {(i, j): G[..., i, j] - (eps_deg if i == j else 0.0)
         for i in range(m) for j in range(i + 1)}
    ok = np.ones(G.shape[:-2], dtype=bool)
    for k in range(m):
        ok &= a[k, k] > 0.0
        pivot = np.where(ok, a[k, k], 1.0)
        ratio = {j: a[j, k] / pivot for j in range(k + 1, m)}
        for i in range(k + 1, m):
            for j in range(k + 1, i + 1):
                a[i, j] = a[i, j] - a[i, k] * ratio[j]
    return ok


def _tangent_stage(chart: ImmersionChart, jets: J.Jet, eps_deg: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first stage of the flag at every row of a chart jet of shape
    (P, N): the mask of regular rows (P,), and on the regular rows only the
    first partials P1 (R, N, m), the metric-orthonormal frame of the axes
    (R, m, m) and the complement Z (R, N, N - k) of position (sphere
    charts) and tangent space, from one stacked complete QR of the k
    columns [position | P1]: Z is the last N - k columns of Q, orthonormal
    however ill-conditioned the metric is, and with R_t the tangent block
    of R, G = R_t^T R_t, so R_t^-1 (`_triangular_frame`, by back
    substitution) is the frame; a zero on the diagonal of R_t makes a row
    singular. Before the QR, a row whose metric G = P1^T P1 has its least
    eigenvalue not above eps_deg is singular: `_above_floor` reads that off
    the pivots of the unpivoted LDL^T of G - eps_deg I, for m = 2 or 3.
    Raises InvalidData where a finite row of a sphere chart is off the
    sphere."""
    finite = np.isfinite(jets.coeffs).all(axis=(1, 2))
    jets = J.jet_truncate(jets, 1)[finite]
    X = P1 = J.jet_partials(jets, axis=-1).value  # (R, N, m), coordinate order
    if chart.ambient == "sphere":
        norm = np.linalg.norm(jets.value, axis=-1)
        off = np.abs(norm - 1.0) > SPHERE_NORM_TOL
        if off.any():
            raise InvalidData(f"sphere chart value has norm {norm[off][0]!r}, "
                              f"not 1 within {SPHERE_NORM_TOL}")
        X = np.concatenate([(jets.value / norm[:, None])[..., None], P1],
                           axis=-1)
    (N, k), m = X.shape[-2:], chart.domain_dim
    if N < k:  # no room for position and tangent space: no row is regular
        return (np.zeros_like(finite), P1[:0], np.empty((0, m, m)),
                np.empty((0, N, 0)))
    keep = _above_floor(P1.mT @ P1, eps_deg)
    Q, Rx = np.linalg.qr(X[keep], mode="complete")
    E, framed = _triangular_frame(Rx[:, k - m:k, k - m:])
    keep[keep] = framed
    regular = finite.copy()
    regular[finite] = keep
    return regular, P1[keep], E[framed], Q[framed, :, k:]


def _flag_depth(chart: ImmersionChart) -> int:
    """The depth of a chart's whole flag, at least 1: its codimension (in
    the sphere, for sphere charts), as each normal space has rank >= 1, and
    at most deg F - 1 for a chart Re F, whose partials above deg F vanish."""
    depth = chart.ambient_dim - chart.domain_dim - (chart.ambient == "sphere")
    if chart.curve is not None:
        depth = min(depth, chart.curve.shape[-1] - 2)
    return max(depth, 1)


def _flag_pass(chart: ImmersionChart, jets: J.Jet, max_order: int,
               eps_rank: float, eps_deg: float):
    """The osculating flag at every row of a chart jet of shape (P, N) and
    order max_order + 1: the mask of regular rows (P,) and, on the regular
    rows, the metric-orthonormal frame (R, m, m) (`_tangent_stage`), the
    dims (R, max_order + 1), the forms and the mask of unresolved rows
    (R,), with a singular value within a factor DECISION_MARGIN of the
    threshold at some order they read. The forms map each order s read
    (through the first with rank 0 at every row) to the s-th partials C in
    `jet_partials` order, raw at s = 1 and else Y = Z^T C (R, c0 - s + 2,
    s + 1), Z the complement of the flag through order s - 1 (c0 columns
    at s = 2). Then Z becomes Z U[:, rank:rank + c - 1], U the left
    singular vectors of Y, zero-padded, as a row not done accepts at least
    1. Z^T Z stays an orthogonal projector, so Y has the singular values
    of C projected off the flag. A row is done at rank 0 or once Z is used
    up. The threshold is eps_rank max(scale, 1), scale the largest column
    norm of the row's s-th partials."""
    regular, P1, E, Z = _tangent_stage(chart, jets, eps_deg)
    forms, c0 = {1: P1}, Z.shape[-1]
    dims = np.zeros((len(E), max_order + 1), dtype=int)
    dims[:, 0] = chart.domain_dim
    done, unresolved = np.zeros((2, len(E)), dtype=bool)
    for s in range(2, max_order + 2):
        C = J.jet_partials(J.jet_truncate(jets, s), s, axis=-1).value[regular]
        scale = np.linalg.norm(C, axis=-2).max(axis=-1)
        forms[s] = Z.mT @ C
        U, sv, _ = np.linalg.svd(forms[s])
        thr = eps_rank * np.maximum(scale, 1.0)[:, None]
        rank = np.sum(sv > thr, axis=-1)
        rank[done] = 0
        near = (sv * DECISION_MARGIN > thr) & (sv < thr * DECISION_MARGIN)
        unresolved |= ~done & near.any(axis=-1)
        dims[:, s - 1] = rank
        done |= (rank == 0) | (dims[:, 1:s].sum(axis=1) >= c0)
        if done.all():
            break
        c = Z.shape[-1]
        pick = rank[:, None, None] + np.arange(c - 1)
        Z = Z @ (np.take_along_axis(U, np.minimum(pick, c - 1), axis=-1)
                 * (pick < c))
    return regular, E, dims, forms, unresolved


def _on_lines(D: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T((a x + b y)^s) in (a, b), (R, s + 1, N) with row j the coefficient
    of a^(s-j) b^j, for stacked symmetric s-tensors in two variables by
    their entries D (R, N, s + 1), D_k = T(e_u^(s-k), e_v^k), and stacked
    vectors x, y (R, 2): W D^T, column k of W the coefficients of C(s, k)
    (a x_u + b y_u)^(s-k) (a x_v + b y_v)^k, by s linear-factor products."""
    s = D.shape[-1] - 1
    k = np.arange(s + 1)
    # step t multiplies column k by the factor of u while t < s - k, then v
    pick = (np.arange(s)[:, None] >= s - k).astype(np.intp)
    a, b = x[:, pick], y[:, pick]  # (R, s, s + 1)
    W = np.zeros((len(D), s + 1, s + 1), dtype=np.result_type(x, y))
    W[:, 0] = [math.comb(s, i) for i in k]
    for t in range(s):
        W[:, 1:] = W[:, 1:] * a[:, None, t] + W[:, :-1] * b[:, None, t]
        W[:, 0] *= a[:, t]
    return W @ D.mT


# the discriminant (a, b, c) -> ac - b^2 as a symmetric bilinear form
_DISC = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])


def _ellipticity_pass(E: np.ndarray, A2: np.ndarray, eps_rank: float):
    """Ellipticity on stacked rows of metric-orthonormal tangent frame E
    (R, 2, 2) and second form A2 (R, N, 3) (entries uu, uv, vv): the masks
    of elliptic and of totally geodesic rows (R,), and the coefficients
    (R, 3) and J (R, 2, 2), NaN where a row is not elliptic. The kernel of
    (a, b, c) -> a alpha(X,X) + 2b alpha(X,Y) + c alpha(Y,Y), the
    coefficients of alpha((a X + b Y)^2), is read off one stacked SVD; a
    kernel element with positive discriminant (the top eigenvector of the
    discriminant on a 2-dimensional kernel) makes the row elliptic. The
    coefficients are scaled so the largest entry is 1 with a >= 0, so
    minimal points read exactly (1, 0, 1); J is the induced complex
    structure in the frame {X, Y}, with J^2 = -I. Totally geodesic rows
    take (1, 0, 1) and the quarter turn."""
    M = _on_lines(A2, E[..., 0], E[..., 1]).mT
    _, sv, Vt = np.linalg.svd(M, full_matrices=True)
    sv = np.concatenate([sv, np.zeros((len(sv), 3 - sv.shape[-1]))], axis=-1)
    tg = sv[:, 0] <= eps_rank  # alpha^2 = 0: every (a, b, c) annihilates it
    # sv is descending, so the kernel is the last kdim rows of Vt
    kdim = np.sum(sv < eps_rank * np.maximum(sv[:, :1], 1.0), axis=-1)
    K = Vt[:, 1:].mT  # columns k1, k2
    S = K.mT @ _DISC @ K
    w, vecs = np.linalg.eigh(S)
    coeffs = np.where((kdim == 1)[:, None], K[..., 1],
                      (K @ vecs[..., -1:])[..., 0])
    ok = ~tg & np.where(kdim == 1, S[:, 1, 1] > eps_rank,
                        (kdim == 2) & (w[:, -1] > eps_rank))
    coeffs = coeffs / np.abs(coeffs).max(axis=-1, keepdims=True)
    coeffs = np.where(coeffs[:, :1] < 0, -coeffs, coeffs)
    disc = np.sum(coeffs @ _DISC * coeffs, axis=-1)
    a, b, c = coeffs.T
    Jm = (np.stack([b, -a, c, -b], axis=-1).reshape(-1, 2, 2)
          / np.sqrt(np.where(ok, disc, 1.0))[:, None, None])
    coeffs[tg], Jm[tg] = (1.0, 0.0, 1.0), [[0.0, -1.0], [1.0, 0.0]]
    exists = tg | ok
    coeffs[~exists], Jm[~exists] = np.nan, np.nan
    return exists, tg, coeffs, Jm


def _ellipse_directions(E: np.ndarray, Jm: np.ndarray) -> np.ndarray:
    """w = Z + i JZ with Z unit and <Z, JZ> = 0, in coordinate components
    (R, 2), from stacked tangent frames E and J (R, 2, 2)."""
    phi = np.arctan2((Jm[:, 0, 1] + Jm[:, 1, 0]) / 2.0,
                     (Jm[:, 0, 0] - Jm[:, 1, 1]) / 2.0)
    t = (phi + math.pi / 2.0) / 2.0
    zf = np.stack([np.cos(t), np.sin(t)], axis=-1)[..., None]
    return (E @ zf)[..., 0] + 1j * (E @ (Jm @ zf))[..., 0]


def _ellipse_pass(E: np.ndarray, Jm: np.ndarray,
                  forms: dict[int, np.ndarray], top: int):
    """Curvature ellipses of orders 0..top on stacked elliptic rows, from
    the tangent frames E and J (R, 2, 2) and the forms of orders 1..top + 1
    (`_flag_pass`): the centres, one array per order in the coordinates of
    its form, the semiaxes (R, top + 1, 2) and residuals (R, top + 1),
    singular values that no coordinates change. The ellipse of order ell
    holds the values of the (ell + 1)-th form on Z_theta (ell = 0: the
    tangent circle); in a rank-1 last normal space it is a segment."""
    w = _ellipse_directions(E, Jm)
    R, centers = len(w), []
    semiaxes, residuals = np.empty((R, top + 1, 2)), np.empty((R, top + 1))
    for s in range(1, top + 2):
        # c[j] = 2^-s C(s, j) T(w^j, conj(w)^(s-j)), the coefficient of
        # exp(i (s - 2j) theta) in T(Z_theta, ..., Z_theta)
        c = _on_lines(forms[s], w.conj(), w) / 2.0 ** s
        hi = c[:, s // 2 + 1:]
        M = 2.0 * np.concatenate([hi.real, hi.imag], axis=1)
        if M.shape[-1] < 2:  # a form one row wide: the second semiaxis 0
            M = np.pad(M, ((0, 0), (0, 0), (0, 2 - M.shape[-1])))
        sv = np.linalg.svd(M, compute_uv=False)
        centers.append(c[:, s // 2].real if s % 2 == 0
                       else np.zeros_like(c[:, 0].real))
        semiaxes[:, s - 1] = sv[:, :2]
        # sigma_1 = 0 forces sigma_2 = 0, and the residual 1
        residuals[:, s - 1] = 1.0 - sv[:, 1] / np.where(sv[:, 0] == 0.0, 1.0,
                                                         sv[:, 0])
    return centers, semiaxes, residuals


def _flag_stage(chart: ImmersionChart, points, max_order: int,
                eps_rank: float, eps_deg: float) -> tuple:
    """Stage one of `point_rows`: the chart evaluated once, at order
    max_order + 1, at points of shape (P, 2) or one point of shape (2,),
    and `_flag_pass`. Returns the points (P, 2), each point's dims through
    its tau (None where singular) and, on the regular rows, the tangent
    frames, the forms and the mask of unresolved rows."""
    pts = np.asarray(points, dtype=float)
    jets = chart.eval_jets(pts, max_order + 1)  # checks the shape
    if pts.ndim == 1:
        pts, jets = pts[None], jets[None]
    regular, E, dims, forms, unresolved = _flag_pass(
        chart, jets, max_order, eps_rank, eps_deg)
    tau = np.count_nonzero(dims[:, 1:], axis=1)
    cut = iter([d[:t + 1] for d, t in zip(dims.tolist(), tau.tolist())])
    return (pts, [next(cut) if ok else None for ok in regular.tolist()],
            (E, forms, unresolved))


def _row_stage(pts: np.ndarray, dims: list, flag: tuple, tol: float,
               eps_rank: float) -> list[dict]:
    """Stage two of `point_rows`: the JSON rows of points from their stage
    one (`_flag_stage`), with the ellipticity and the ellipses of each order
    on the regular rows, from the forms through order max(tau) + 1, and
    the note of a row unresolved in the flag or in a residual it reads."""
    E, forms, unresolved = flag
    tau = np.array([len(d) - 1 for d in dims if d is not None], dtype=int)
    top = int(tau.max(initial=0))
    exists, _, coeffs, Jm = _ellipticity_pass(E, forms[2], eps_rank)
    # every order through the top tau on every elliptic row; a row reads
    # the orders through its own tau
    _, semiaxes, residuals = _ellipse_pass(
        E[exists], Jm[exists], {s: f[exists] for s, f in forms.items()}, top)
    # the isotropy order: the circular orders 0, 1, ... in a row, through
    # its tau; a residual that is not finite is not circular
    circular = (residuals < tol) & (np.arange(top + 1) <= tau[exists, None])
    order = np.cumprod(circular, axis=1).sum(axis=1) - 1
    # a row is also unresolved where a residual that the order compares
    # with tol (through the first that is not circular) lies near tol
    read = np.arange(top + 1) <= np.minimum(order + 1, tau[exists])[:, None]
    noted = unresolved.copy()
    noted[exists] |= (read & (residuals * DECISION_MARGIN > tol)
                      & (residuals < tol * DECISION_MARGIN)).any(axis=1)

    rows = []
    regular_rows = zip(exists.tolist(), _json_ready(coeffs), noted.tolist())
    elliptic_rows = zip(_json_ready(semiaxes), _json_ready(residuals),
                        order.tolist())
    for p, d in zip(_json_ready(pts), dims):
        if d is None:
            rows.append({"point": p, "singular": True, "dims": None,
                         "tau": None, "ellipses": [], "elliptic": None,
                         "coeffs": None, "order": None})
            continue
        elliptic, c, note = next(regular_rows)
        row = {"point": p, "singular": False, "dims": d, "tau": len(d) - 1,
               "elliptic": elliptic, "coeffs": c if elliptic else None,
               "ellipses": [], "order": None}
        if elliptic:
            semi, res, row["order"] = next(elliptic_rows)
            row["ellipses"] = [{"order": ell, "semiaxes": semi[ell],
                                "residual": res[ell]} for ell in range(len(d))]
        if note:
            row["note"] = UNRESOLVED
        rows.append(row)
    return rows


def point_rows(chart: ImmersionChart, points,
               tol: float = CIRCLE_TOL,
               eps_rank: float = EPS_RANK,
               max_order: int | None = None,
               eps_deg: float = EPS_DEG) -> list[dict]:
    """JSON rows of a surface sweep at points of shape (P, 2) or (2,): flag
    dims, curvature ellipses, ellipticity and isotropy order of each point.

    The chart is evaluated once, at order max_order + 1 (by default its
    whole flag's depth, `_flag_depth`), at all points; stacked passes over
    the regular rows give the flag, the forms through order max(tau) + 1,
    the ellipticity and the ellipses of each order. A singular point gives
    a row with "singular": true, and a row that is not elliptic has no
    ellipses and order None. The isotropy order is the largest ell <= tau
    with circular ellipses (not segments) at every order 0..ell: 0 means
    the chart is minimal at the point, -1 that even the order-0 ellipse
    fails (elliptic but not minimal). Only a row with a decision within a
    factor DECISION_MARGIN of its threshold has the key "note"."""
    if chart.domain_dim != 2:
        raise ShapeMismatch("point reports are defined for surface charts")
    if max_order is not None and max_order < 1:
        raise InvalidData("flag depth must be at least 1")
    depth = _flag_depth(chart) if max_order is None else max_order
    return _row_stage(*_flag_stage(chart, points, depth, eps_rank, eps_deg),
                      tol, eps_rank)


def flag_certificate(dims: Sequence[Sequence[int] | None]) -> dict:
    """Constancy certificate of the flag dimensions measured at a set of
    points; None marks a singular point."""
    seen = {tuple(int(x) for x in d) for d in dims if d is not None}
    singular = sum(1 for d in dims if d is None)
    only = next(iter(seen)) if len(seen) == 1 else None
    return {"nicely_curved": only is not None and singular == 0,
            "dims": None if only is None else list(only),
            "variants": sorted(list(d) for d in seen),
            "singular_points": singular,
            "points_checked": len(dims)}
