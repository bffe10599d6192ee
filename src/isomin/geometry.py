"""Per-point differential geometry of immersion charts.

A chart is a smooth map from a box in R^m (m = 2 or 3) into R^N, optionally
constrained to the unit sphere S^(N-1), evaluated through jets at a batch
of points at once. The first stage of the flag (the metric check and the
tangent space) and the projected second form work on every point of a
batch; the rest is computed from the jets of one point: the osculating
flag of higher normal spaces, higher fundamental forms (projected higher
partials), ellipticity of the second form, curvature ellipses, and the
isotropy order. Conventions that the rest of the package relies on:

* A point is singular when its jets are not finite (a chart writes NaN
  where it is not defined, such as a bundle frame that degenerates) or
  the least metric eigenvalue is below eps_deg.

* The osculating flag at a point is built by successive orthogonal
  complements: the span of the s-th partial derivatives, projected
  orthogonally to the position vector (sphere charts), the tangent space,
  and all lower normal spaces, is the (s-1)-th normal space. A direction is
  accepted when its projected singular value exceeds eps_rank relative to
  the raw derivative scale.
* The s-th fundamental form on coordinate directions equals the s-th
  partial derivative projected orthogonally to the flag through order s-2;
  its values span the (s-1)-th normal space.
* Curvature ellipses are read off Fourier coefficients: with Z unit,
  <Z, JZ> = 0 and w = Z + i JZ, Z_theta = cos(theta) Z + sin(theta) JZ =
  Re(exp(-i theta) w), so the s-th form on Z_theta is a trigonometric
  polynomial in theta with coefficient c_j = 2^-s C(s, j) T(w^j, conj(w)^(s-j))
  at frequency s - 2j. By Parseval the semiaxes (the top two singular values
  of the curve of values about its mean) are those of the real matrix
  2 [Re c_j; Im c_j] over 2j > s, and the centre is c_(s/2) (0 for odd s).
  Circularity residual = 1 - sigma_2 / sigma_1.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from . import jet as J
from .errors import (DegeneratePoint, AmbiguousKernel, InvalidData,
                     NotElliptic, OrderOutOfRange, ShapeMismatch)

EPS_DEG = J.EPS_DEG           # admissibility floor for metric eigenvalues
EPS_RANK = 1e-8               # relative rank threshold for flag decisions
CIRCLE_TOL = 1e-8             # default circularity residual tolerance
SPHERE_NORM_TOL = 1e-10       # |f| - 1 bound for sphere charts
DEFAULT_JET_ORDER = 4


@dataclasses.dataclass
class ImmersionChart:
    """A parametrized piece of submanifold, evaluated through jets.

    jet_fn(points, space) takes points of shape (P, domain_dim) and returns
    one jet of shape (P, ambient_dim): the chart map expanded at each point,
    in the given jet space, with NaN coefficients in the rows of points
    where the chart is not defined. The first domain_dim variables of the
    space are the chart coordinates; charts may be evaluated inside larger
    spaces (the bundle constructions do this) as long as the extra
    variables are left untouched.
    """

    domain_dim: int
    ambient_dim: int
    ambient: str  # "euclidean" or "sphere"
    jet_fn: Callable[[Sequence[float], J.JetSpace], J.Jet]
    domain: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...] = ()
    name: str = ""

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


def _partials(jets: J.Jet, s: int) -> np.ndarray:
    """s-th partial derivatives of every component, shape (..., N, k): one
    column per multi-index of degree s, in the space's index order. That
    order is by degree first, so the columns are one slice of the
    coefficients."""
    space = jets.space
    m = space.nvars
    lo, hi = math.comb(s - 1 + m, m), math.comb(s + m, m)
    return jets.coeffs[..., lo:hi] * space.factorial[lo:hi]


@functools.lru_cache(maxsize=None)
def _table_columns(m: int, s: int) -> np.ndarray:
    """Column of _partials(jets, s) for each coordinate s-tuple, shape (m,)*s."""
    pos, lo = J.get_space(m, s).pos, math.comb(s - 1 + m, m)
    cols = np.empty((m,) * s, dtype=np.intp)
    for combo in itertools.product(range(m), repeat=s):
        cols[combo] = pos[tuple(combo.count(i) for i in range(m))] - lo
    return cols


def _form_table(jets: J.Jet, s: int, Q: np.ndarray | None) -> np.ndarray:
    """s-th partials on coordinate s-tuples, projected orthogonally to the
    orthonormal columns of Q: shape (..., m, ..., m, N) with s axes of m."""
    C = _project_out(Q, _partials(jets, s))
    return C.mT[..., _table_columns(jets.space.nvars, s), :]


def _project_out(Q: np.ndarray | None, V: np.ndarray) -> np.ndarray:
    """Columns of V minus their components along the orthonormal columns of Q
    (applied twice for numerical orthogonality); stacked over leading axes."""
    if Q is None or Q.shape[-1] == 0:
        return V
    for _ in range(2):
        V = V - Q @ (Q.mT @ V)
    return V


def _tangent_stage(chart: ImmersionChart, jets: J.Jet, eps_deg: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first stage of the flag at every row of a chart jet of shape
    (P, N): the mask of regular rows (P,), and on the regular rows only the
    metric (R, m, m) and the orthonormal columns of position (sphere charts)
    plus tangent space (R, N, k). Raises InvalidData when a finite row of a
    sphere chart is off the unit sphere."""
    m = chart.domain_dim
    finite = np.isfinite(jets.coeffs.reshape(len(jets), -1)).all(axis=1)
    c = jets.coeffs[finite]
    position = None
    if chart.ambient == "sphere":
        norm = np.linalg.norm(c[..., 0], axis=-1)
        off = np.abs(norm - 1.0) > SPHERE_NORM_TOL
        if off.any():
            raise InvalidData(f"sphere chart value has norm {norm[off][0]!r}, "
                              f"not 1 within {SPHERE_NORM_TOL}")
        position = c[..., :1] / norm[:, None, None]
    # first partials in coordinate order: degree-1 coefficients, factorial 1
    P1 = c[..., 1 + _table_columns(m, 1)]
    G = P1.mT @ P1
    keep = ~(np.linalg.eigvalsh(G)[:, 0] < eps_deg)
    regular = finite.copy()
    regular[finite] = keep
    if position is not None:
        position = position[keep]
    U = np.linalg.svd(_project_out(position, P1[keep]),
                      full_matrices=False)[0][..., :m]
    Q = U if position is None else np.concatenate([position, U], axis=-1)
    return regular, G[keep], Q


def _flag_depth(max_order: int | None) -> int:
    if max_order is None:
        return DEFAULT_JET_ORDER - 1
    if max_order < 1:
        raise OrderOutOfRange("flag depth must be at least 1")
    return max_order


@dataclasses.dataclass
class OsculatingFlag:
    """Tangent space plus the chain of higher normal spaces at one point.

    bases[0] spans the tangent space, bases[ell] the (ell)-th normal space;
    dims are their dimensions; tau is the number of nonvanishing normal
    spaces. tau_o is the top order with a full curvature circle structure:
    tau when the codimension (inside the sphere, for sphere charts) is even,
    tau - 1 when odd. Position (for sphere charts) is kept separate.
    """

    point: tuple[float, ...]
    dims: tuple[int, ...]
    tau: int
    tau_o: int
    bases: list[np.ndarray]
    position: np.ndarray | None
    complete: bool  # flag spans the full ambient (no censoring at max_order)

    def stack(self, through: int | None = None) -> np.ndarray:
        """Orthonormal columns of position + tangent + N_1..N_through."""
        upto = self.tau if through is None else through
        cols = [] if self.position is None else [self.position[:, None]]
        cols += [self.bases[i] for i in range(0, upto + 1)]
        return np.concatenate(cols, axis=1)


def _flag_from_jets(chart: ImmersionChart, point, jets: J.Jet,
                    max_order: int, eps_rank: float, eps_deg: float) -> OsculatingFlag:
    m, N = chart.domain_dim, chart.ambient_dim
    regular, _, Q = _tangent_stage(chart, jets[None], eps_deg)
    if not regular[0]:
        raise DegeneratePoint(f"metric degenerate at {tuple(point)}")
    Q = Q[0]
    position = Q[:, 0] if chart.ambient == "sphere" else None
    bases = [Q[:, -m:]]
    dims = [m]

    for s in range(2, max_order + 2):
        C = _partials(jets, s)
        scale = float(np.linalg.norm(C, axis=0).max()) if C.size else 0.0
        Rk = _project_out(Q, C)
        U, sv, _ = np.linalg.svd(Rk, full_matrices=False)
        rank = int(np.sum(sv > eps_rank * max(scale, 1.0)))
        if rank == 0:
            break
        bases.append(U[:, :rank])
        dims.append(rank)
        Q = np.concatenate([Q, U[:, :rank]], axis=1)
        if Q.shape[1] >= N:
            break

    tau = len(dims) - 1
    codim = N - m - (1 if chart.ambient == "sphere" else 0)
    tau_o = tau - (1 if codim % 2 else 0)
    complete = Q.shape[1] >= N or (tau < max_order)
    return OsculatingFlag(point=tuple(float(x) for x in point),
                          dims=tuple(dims), tau=tau, tau_o=tau_o,
                          bases=bases, position=position, complete=complete)


def osculating_flag(chart: ImmersionChart, point: Sequence[float],
                    max_order: int | None = None,
                    eps_rank: float = EPS_RANK,
                    eps_deg: float = EPS_DEG) -> OsculatingFlag:
    """Flag of normal spaces at a point, from partials up to max_order + 1."""
    max_order = _flag_depth(max_order)
    jets = chart.eval_jets(point, max_order + 1)
    return _flag_from_jets(chart, point, jets, max_order, eps_rank, eps_deg)


@dataclasses.dataclass
class FundamentalForms:
    """Metric plus the fundamental forms of orders 2..max_s at one point.

    tables[1] has shape (m, N): the raw first partials, so that metric =
    tables[1] @ tables[1].T. For s >= 2, tables[s] has shape (m,)*s + (N,):
    the value of the s-th fundamental form on coordinate directions, i.e.
    the s-th partial projected orthogonally to the flag through the
    (s-2)-th normal space.
    """

    point: tuple[float, ...]
    metric: np.ndarray
    tables: dict[int, np.ndarray]
    flag: OsculatingFlag


def _forms_from_jets(chart: ImmersionChart, point, jets: J.Jet,
                     flag: OsculatingFlag, max_s: int) -> FundamentalForms:
    # symmetric tables of s-th partials, shape (m,)*s + (N,)
    tables = {s: _form_table(jets, s, None if s == 1 else
                             flag.stack(through=min(s - 2, flag.tau)))
              for s in range(1, max_s + 1)}
    return FundamentalForms(point=tuple(float(x) for x in point),
                            metric=tables[1] @ tables[1].T, tables=tables,
                            flag=flag)


def fundamental_forms(chart: ImmersionChart, point: Sequence[float],
                      max_s: int = 2,
                      eps_rank: float = EPS_RANK,
                      eps_deg: float = EPS_DEG) -> FundamentalForms:
    """Forms of orders 2..max_s from one chart evaluation at order max_s:
    the flag through the (max_s - 1)-th normal space and the forms are
    read off the same jets."""
    if max_s < 2:
        raise OrderOutOfRange("fundamental forms start at order 2")
    jets = chart.eval_jets(point, max_s)
    flag = _flag_from_jets(chart, point, jets, max_s - 1, eps_rank, eps_deg)
    return _forms_from_jets(chart, point, jets, flag, max_s)


@dataclasses.dataclass
class EllipticityReport:
    """Solution of a alpha(X,X) + 2b alpha(X,Y) + c alpha(Y,Y) = 0 with
    ac - b^2 > 0, for the orthonormal tangent frame {X, Y} stored in
    `frame` (columns = coordinate components). J is the induced complex
    structure in that frame, normalized so J^2 = -I. Totally geodesic
    points take the (1, 0, 1) convention with the quarter-turn J."""

    exists: bool
    coeffs: tuple[float, float, float] | None
    J_matrix: np.ndarray | None
    frame: np.ndarray
    totally_geodesic: bool


def _orthonormal_frame(metric: np.ndarray) -> np.ndarray:
    """Columns = coordinate components of a metric-orthonormal frame, built
    by Gram-Schmidt from the coordinate basis."""
    m = metric.shape[0]
    cols = []
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        for w in cols:
            v = v - (w @ metric @ v) * w
        n2 = float(v @ metric @ v)
        if n2 <= 0:
            raise DegeneratePoint("metric not positive definite")
        cols.append(v / math.sqrt(n2))
    return np.stack(cols, axis=1)


def _disc_pair(p: np.ndarray, q: np.ndarray) -> float:
    # polarization of (a, b, c) -> ac - b^2
    return 0.5 * (p[0] * q[2] + q[0] * p[2]) - p[1] * q[1]


def ellipticity(chart: ImmersionChart, point: Sequence[float],
                eps_rank: float = EPS_RANK,
                geodesic_convention: bool = True,
                forms: FundamentalForms | None = None) -> EllipticityReport:
    """Find the elliptic direction of the second fundamental form.

    The kernel of (a, b, c) -> a alpha(X,X) + 2b alpha(X,Y) + c alpha(Y,Y)
    is computed by SVD; a kernel element with positive discriminant makes
    the point elliptic. Coefficients are scaled so the largest entry is 1
    with a >= 0 (minimal points then report exactly (1, 0, 1))."""
    if chart.domain_dim != 2:
        raise ShapeMismatch("ellipticity is defined for surface charts")
    if forms is None:
        forms = fundamental_forms(chart, point, max_s=2)
    E = _orthonormal_frame(forms.metric)
    A = np.einsum("ia,jb,ijn->abn", E, E, forms.tables[2])
    M = np.stack([A[0, 0], 2.0 * A[0, 1], A[1, 1]], axis=1)  # (N, 3)
    U, sv, Vt = np.linalg.svd(M, full_matrices=True)
    smax = float(sv[0]) if sv.size else 0.0

    if smax <= eps_rank:
        # alpha^2 = 0: every (a, b, c) annihilates it
        if not geodesic_convention:
            raise AmbiguousKernel("vanishing second fundamental form")
        Jm = np.array([[0.0, -1.0], [1.0, 0.0]])
        return EllipticityReport(True, (1.0, 0.0, 1.0), Jm, E, True)

    thr = eps_rank * max(smax, 1.0)
    kernel = [Vt[i] for i in range(3) if (i >= sv.size or sv[i] < thr)]
    kdim = len(kernel)
    coeffs = None
    if kdim == 1:
        v = kernel[0]
        if _disc_pair(v, v) > eps_rank:
            coeffs = v
    elif kdim == 2:
        k1, k2 = kernel
        S = np.array([[_disc_pair(k1, k1), _disc_pair(k1, k2)],
                      [_disc_pair(k1, k2), _disc_pair(k2, k2)]])
        w, vecs = np.linalg.eigh(S)
        if w[-1] > eps_rank:
            x, y = vecs[:, -1]
            coeffs = x * k1 + y * k2

    if coeffs is None:
        return EllipticityReport(False, None, None, E, False)

    coeffs = coeffs / np.abs(coeffs).max()
    if coeffs[0] < 0:
        coeffs = -coeffs
    disc = _disc_pair(coeffs, coeffs)
    a, b, c = (float(x) for x in coeffs)
    Jm = np.array([[b, -a], [c, -b]]) / math.sqrt(disc)
    return EllipticityReport(True, (a, b, c), Jm, E, False)


@dataclasses.dataclass
class EllipseReport:
    order: int
    center: np.ndarray
    semiaxes: tuple[float, float]
    residual: float


def _ellipse_directions(rep: EllipticityReport) -> tuple[np.ndarray, np.ndarray]:
    """Unit Z with <Z, JZ> = 0, and JZ, in coordinate components."""
    Jm = rep.J_matrix
    Asym = float(Jm[0, 0])
    Csym = float(Jm[1, 1])
    B = float(Jm[0, 1] + Jm[1, 0])
    phi = math.atan2(B / 2.0, (Asym - Csym) / 2.0)
    t = (phi + math.pi / 2.0) / 2.0
    zf = np.array([math.cos(t), math.sin(t)])
    return rep.frame @ zf, rep.frame @ (Jm @ zf)


@functools.lru_cache(maxsize=None)
def _word_groups(s: int) -> np.ndarray:
    """0/1 matrix (s + 1, 2^s): row j picks the words of length s over
    (w, conj w) with j letters w, in the row order of the Kronecker power
    of [w; conj w] (first factor most significant, bit 0 = w)."""
    ones = np.array([bin(r).count("1") for r in range(2 ** s)])
    return (s - ones == np.arange(s + 1)[:, None]).astype(float)


def curvature_ellipse(chart: ImmersionChart, point: Sequence[float], ell: int,
                      eps_rank: float = EPS_RANK,
                      forms: FundamentalForms | None = None,
                      ellip: EllipticityReport | None = None) -> EllipseReport:
    """Curvature ellipse of order ell: the values of the s-th form, s =
    ell + 1, on Z_theta (ell = 0 is the tangent circle, read off the first
    partials). The order must not exceed the flag's tau; the ellipse in a
    rank-1 last normal space degenerates to a segment and reports residual
    near 1."""
    if ell < 0:
        raise OrderOutOfRange("ellipse order must be nonnegative")
    s = ell + 1
    if forms is None or s not in forms.tables:
        forms = fundamental_forms(chart, point, max_s=max(s, 2),
                                  eps_rank=eps_rank)
    if forms.flag.tau < ell:
        raise OrderOutOfRange(
            f"ellipse order {ell} exceeds flag tau {forms.flag.tau}")
    if ellip is None:
        ellip = ellipticity(chart, point, eps_rank=eps_rank, forms=forms)
    if not ellip.exists:
        raise NotElliptic(f"no elliptic direction at {tuple(point)}")

    Z, JZ = _ellipse_directions(ellip)
    w = np.stack([Z + 1j * JZ, Z - 1j * JZ])
    T = forms.tables[s]
    kron = functools.reduce(np.kron, [w] * s)
    # c[j] = 2^-s C(s, j) T(w^j, conj(w)^(s-j)), the coefficient of
    # exp(i (s - 2j) theta) in T(Z_theta, ..., Z_theta)
    c = (_word_groups(s) @ kron) @ T.reshape(-1, T.shape[-1]) / 2.0 ** s
    top = c[s // 2 + 1:]
    sv = np.linalg.svd(2.0 * np.concatenate([top.real, top.imag]),
                       compute_uv=False)
    s1, s2 = float(sv[0]), float(sv[1])
    center = c[s // 2].real if s % 2 == 0 else np.zeros(T.shape[-1])
    residual = 1.0 if s1 == 0.0 else 1.0 - s2 / s1
    return EllipseReport(order=ell, center=center,
                         semiaxes=(s1, s2), residual=residual)


def isotropy_order(chart: ImmersionChart, point: Sequence[float],
                   tol: float = CIRCLE_TOL,
                   eps_rank: float = EPS_RANK,
                   max_order: int | None = None,
                   eps_deg: float = EPS_DEG) -> int:
    """Largest ell <= tau_o with circular ellipses at every order 0..ell.

    Order 0 passing means the chart is minimal at the point. Returns -1 when
    even the order-0 ellipse fails (elliptic but not minimal). This is the
    `order` of the point's `point_report` row, from the same single chart
    evaluation; raises DegeneratePoint at a singular point and NotElliptic
    where the second form has no elliptic direction."""
    row = _point_row(chart, point, tol, eps_rank, max_order, eps_deg)
    if not row["elliptic"]:
        raise NotElliptic(f"no elliptic direction at {tuple(point)}")
    return row["order"]


def _point_row(chart: ImmersionChart, point: Sequence[float], tol: float,
               eps_rank: float, max_order: int | None, eps_deg: float) -> dict:
    """point_report's row at a regular point; raises DegeneratePoint."""
    max_order = _flag_depth(max_order)
    jets = chart.eval_jets(point, max_order + 1)
    flag = _flag_from_jets(chart, point, jets, max_order, eps_rank, eps_deg)
    forms = _forms_from_jets(chart, point, jets, flag, max(flag.tau + 1, 2))
    ellip = ellipticity(chart, point, eps_rank=eps_rank, forms=forms)
    row = {"point": [float(x) for x in point], "singular": False,
           "dims": [int(d) for d in flag.dims], "tau": int(flag.tau),
           "elliptic": bool(ellip.exists),
           "coeffs": None if ellip.coeffs is None
           else [float(c) for c in ellip.coeffs],
           "ellipses": [], "order": None}
    if ellip.exists:
        for ell in range(flag.tau + 1):
            rep = curvature_ellipse(chart, point, ell, eps_rank=eps_rank,
                                    forms=forms, ellip=ellip)
            row["ellipses"].append({"order": ell,
                                    "semiaxes": [rep.semiaxes[0], rep.semiaxes[1]],
                                    "residual": rep.residual})
        order = -1
        for ell in range(min(max(0, flag.tau_o), flag.tau) + 1):
            if row["ellipses"][ell]["residual"] < tol:
                order = ell
            else:
                break
        row["order"] = order
    return row


def point_report(chart: ImmersionChart, point: Sequence[float],
                 tol: float = CIRCLE_TOL,
                 eps_rank: float = EPS_RANK,
                 max_order: int | None = None,
                 eps_deg: float = EPS_DEG) -> dict:
    """Per-point JSON row: flag dims, curvature ellipses, ellipticity, order.

    The chart is evaluated once, at order max_order + 1; the flag, the
    forms through order tau + 1, the ellipticity and every ellipse are read
    off those jets. A singular point gives a row with "singular": true."""
    try:
        return _point_row(chart, point, tol, eps_rank, max_order, eps_deg)
    except DegeneratePoint:
        return {"point": [float(x) for x in point], "singular": True,
                "dims": None, "tau": None, "ellipses": [], "elliptic": None,
                "coeffs": None, "order": None}


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


def nicely_curved_certificate(chart: ImmersionChart,
                              counts: Sequence[int] | None = None,
                              max_order: int | None = None,
                              eps_rank: float = EPS_RANK,
                              eps_deg: float = EPS_DEG) -> dict:
    """Check that flag dimensions are constant across a sample grid; the
    grid is read off one batched chart evaluation."""
    if counts is None:
        counts = (9,) * chart.domain_dim
    max_order = _flag_depth(max_order)
    points = grid_points(grid_axes(chart, counts))
    dims = []
    for p, jets in zip(points, chart.eval_jets(points, max_order + 1)):
        try:
            dims.append(_flag_from_jets(chart, p, jets, max_order, eps_rank,
                                        eps_deg).dims)
        except DegeneratePoint:
            dims.append(None)
    return flag_certificate(dims)
