"""Information-theoretic quantities and quantization for ME-distributed
signals: numeric differential entropy, mutual information of the additive
ME channel, Lloyd-Max quantizer design with closed-form centroids, the
high-rate (Panter-Dite) distortion approximation, and the generalized
Gaussian-like / Rayleigh-like matrix densities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import algebra, matfun
from .medist import ConstructionError, MEDist, _count

__all__ = [
    "LloydMaxResult",
    "Type1Dist",
    "Type2Dist",
    "Type3Dist",
    "entropy_numeric",
    "lloyd_max",
    "mi_additive_channel",
    "panter_dite_mse",
]

_FLOOR = 1e-300


def entropy_numeric(dist: MEDist) -> float:
    """Differential entropy -int f ln f dt by adaptive quadrature, with the
    density clipped below 1e-300 (no closed form exists for ME densities)."""
    t_hi = dist.t_max()

    def integrand(t):
        f = np.maximum(dist.pdf(t), _FLOOR)
        return -f * np.log(f)

    val, _ = matfun.quad(integrand, 0.0, t_hi, tol=1e-9, limit=1000)
    return val


def mi_additive_channel(dx: MEDist, dw: MEDist) -> float:
    """Mutual information of the additive nonnegative channel y = x + w
    with independent ME-distributed input and noise.

    The sum is again ME-distributed (convolution closure), so
    I = h(y) - h(w) evaluates through unit-mean entropies as

        I = ln(S_y / S_w) + h(y_um) - h(w_um),   S_y = S_x + S_w,

    an exact scaling identity.  Positivity of I and h(y) >= max(h(x), h(w))
    are asserted as sanity bounds.
    """
    Sx, Sw = dx.mean, dw.mean
    if Sx <= 0 or Sw <= 0:
        raise ValueError("means must be positive")
    y = algebra.convolve(dx, dw)
    Sy = y.mean
    h_y_um = entropy_numeric(y.to_unit_mean())
    h_w_um = entropy_numeric(dw.to_unit_mean())
    I = math.log(Sy / Sw) + h_y_um - h_w_um
    h_y = h_y_um + math.log(Sy)
    h_x = entropy_numeric(dx.to_unit_mean()) + math.log(Sx)
    h_w = h_w_um + math.log(Sw)
    # tolerance covers quadrature noise on stiff two-scale sums
    if I < -1e-4 or h_y < max(h_x, h_w) - 1e-4:
        warnings.warn(
            f"mutual information sanity bounds violated (I={I}, h_y={h_y})",
            matfun.AccuracyWarning, stacklevel=2)
    return I


# -- Lloyd-Max quantization ----------------------------------------------------

# a cell with less probability mass than this is empty
_EMPTY = 1e-14


class _PartialMoments:
    """Antiderivatives of (f, t f, t^2 f) for an ME density, and f itself:

        int f        = x e^{tY} Y^{-1} z
        int t f      = x e^{tY} (t Y^{-1} - Y^{-2}) z
        int t^2 f    = x e^{tY} (t^2 Y^{-1} - 2t Y^{-2} + 2 Y^{-3}) z
        f            = x e^{tY} z

    ``at(t)`` returns all four (last axis) from the rows x e^{tY} of one
    stacked exponential, for a scalar or a 1-D array of finite t;
    ``between`` differences the three antiderivatives (zero at t = inf)."""

    def __init__(self, dist: MEDist):
        self.dist = dist
        Yi = np.linalg.inv(dist.Y)
        Yi1z = Yi @ dist.z
        Yi2z = Yi @ Yi1z
        self._V = np.column_stack([Yi1z, Yi2z, Yi @ Yi2z, dist.z])

    def at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        E = matfun.expm(t[..., None, None] * self.dist.Y)
        e1, e2, e3, f = np.moveaxis(self.dist.x @ E @ self._V, -1, 0)
        return np.stack([e1, t * e1 - e2,
                         t * t * e1 - 2.0 * t * e2 + 2.0 * e3, f], axis=-1)

    def between(self, a: float, b: float) -> np.ndarray:
        hi = np.zeros(4) if math.isinf(b) else self.at(b)
        return (hi - self.at(a))[:3]


@dataclass(frozen=True)
class _Cells:
    """One evaluation of the quantizer with centroids ``u`` and thresholds
    at their midpoints: distortion D, its gradient and tridiagonal
    Hessian, the stationarity map F = c(u) - u (c the cell means) with its
    Jacobian, and the relative residual max |F_q| / |u_q|.  ``F`` and
    ``J`` are None and ``resid`` is inf when a cell is empty."""

    u: np.ndarray
    mse: float
    grad: np.ndarray
    hess: np.ndarray
    F: np.ndarray | None
    J: np.ndarray | None
    resid: float


def _cells(pm: _PartialMoments, u: np.ndarray) -> _Cells:
    """Closed-form cell moments at increasing centroids ``u`` with
    u_0 + u_1 > 0.  The derivatives move each threshold with its two
    centroids (dl_q/du_{q-1} = dl_q/du_q = 1/2), so they need only the
    densities f(l_q) at the thresholds.  One stacked exponential covers
    0 and every threshold."""
    l = 0.5 * (u[:-1] + u[1:])
    anti = np.vstack([pm.at(np.append(0.0, l)), np.zeros(4)])
    m0, m1, m2 = np.diff(anti[:, :3], axis=0).T
    f = anti[1:-1, 3]
    mse = float(np.sum(m2 - 2.0 * u * m1 + u * u * m0))
    grad = 2.0 * (u * m0 - m1)
    # threshold l_{q+1} couples u_q and u_{q+1} by
    # w_q = f(l_{q+1}) (u_{q+1} - u_q) / 2
    w = 0.5 * f * np.diff(u)
    hess = (np.diag(2.0 * m0 - np.append(w, 0.0) - np.append(0.0, w))
            - np.diag(w, 1) - np.diag(w, -1))
    if np.any(m0 <= _EMPTY):
        return _Cells(u, mse, grad, hess, None, None, math.inf)
    c = m1 / m0
    F = c - u
    # dc_q/du_j = (dm1_q/du_j - c_q dm0_q/du_j) / m0_q: a from the upper
    # threshold of cell q, b from the lower threshold of cell q + 1
    a = 0.5 * f * (l - c[:-1]) / m0[:-1]
    b = -0.5 * f * (l - c[1:]) / m0[1:]
    J = (np.diag(np.append(a, 0.0) + np.append(0.0, b) - 1.0)
         + np.diag(a, 1) + np.diag(b, -1))
    resid = float(np.max(np.abs(F) / np.maximum(np.abs(u), 1e-30)))
    return _Cells(u, mse, grad, hess, F, J, resid)


class _Stop(Exception):
    """Ends both solver stages: converged, or out of evaluations."""


class _Search:
    """Evaluates cells for the solvers, at most ``max_iter`` times, keeping
    the last evaluation (the solvers ask for value, gradient and Hessian at
    one point in turn) and the evaluation nearest stationarity.  Centroids
    whose thresholds do not increase from 0 give None and cost nothing.
    Raises :class:`_Stop` once the residual is below ``tol`` or the budget
    is spent."""

    def __init__(self, pm: _PartialMoments, tol: float, max_iter: int):
        self.pm, self.tol, self.max_iter = pm, tol, max_iter
        self.evaluations = 0
        self.last = self.best = None

    def __call__(self, u) -> _Cells | None:
        u = np.array(u, dtype=float)
        if not (u[0] + u[1] > 0.0 and np.all(np.diff(u) > 0.0)):
            return None
        if self.last is not None and np.array_equal(self.last[0], u):
            return self.last[1]
        if self.evaluations == self.max_iter:
            raise _Stop
        self.evaluations += 1
        cells = _cells(self.pm, u)
        self.last = (u, cells)
        if self.best is None or cells.resid < self.best.resid:
            self.best = cells
        if cells.resid < self.tol:
            raise _Stop
        return cells


_START_GRID = 4096


def _quantile_start(dist: MEDist, M: int) -> np.ndarray:
    """Cdf quantiles at (q + 1/2)/M, interpolated on one stepped cdf grid."""
    ts, F = dist.cdf_grid(_START_GRID)
    return np.interp((np.arange(M) + 0.5) / M, np.maximum.accumulate(F), ts)


@dataclass(frozen=True)
class LloydMaxResult:
    thresholds: np.ndarray  # l_1 .. l_{M-1}
    centroids: np.ndarray   # u_0 .. u_{M-1}
    mse: float
    iterations: int         # cell-moment evaluations
    notes: tuple[str, ...] = ()


def lloyd_max(dist: MEDist, M: int, tol: float = 1e-10,
              max_iter: int = 10_000, initial_centroids=None) -> LloydMaxResult:
    """Minimum-MSE scalar quantizer for an ME density with ``M`` levels.

    The thresholds sit at the centroid midpoints, so the distortion D is a
    function of the centroids u alone, with closed-form cell moments.  Two
    scipy stages find its stationary point, where each centroid is its
    cell's mean c_q(u):

    1. descent: ``minimize(method="trust-exact")`` on D with the exact
       gradient 2 (u_q m0_q - m1_q) and tridiagonal Hessian.  It stalls
       once steps are too small for D to resolve;
    2. polish: ``root(method="hybr")`` on c(u) - u with its tridiagonal
       Jacobian, from the descent's best point.

    Converged means the relative stationarity max |c_q - u_q| / |u_q| is
    below ``tol``.  ``max_iter`` caps the cell-moment evaluations (one
    stacked exponential over the M - 1 thresholds each) across both
    stages and ``iterations`` reports how many were used.  The result is
    the evaluation nearest stationarity; without convergence it carries a
    note and an :class:`AccuracyWarning`.

    Initial centroids default to cdf quantiles at (q + 1/2)/M, which avoids
    empty cells for heavy-tailed densities; a supplied start with an empty
    cell is re-seeded to them with a note.
    """
    M, max_iter = _count(M, "M"), _count(max_iter, "max_iter")
    pm = _PartialMoments(dist)
    if M == 1:
        u = np.array([dist.mean])
        m = pm.between(0.0, math.inf)
        mse = m[2] - 2.0 * u[0] * m[1] + u[0] ** 2 * m[0]
        return LloydMaxResult(np.array([]), u, mse, 0)
    from scipy.optimize import minimize, root

    notes = []
    if initial_centroids is not None:
        start = np.sort(np.asarray(initial_centroids, dtype=float))
        if start.shape != (M,):
            raise ValueError(f"initial_centroids must have length {M}")
    search = _Search(pm, tol, max_iter)
    try:
        if initial_centroids is None:
            start = _quantile_start(dist, M)
        else:
            cells = search(start)
            if cells is None or cells.F is None:
                notes.append("re-seeded empty cells of the initial centroids "
                             "to cdf quantiles")
                start = _quantile_start(dist, M)

        def value(u):
            cells = search(u)
            return math.inf if cells is None else cells.mse

        def grad(u):
            cells = search(u)
            return np.zeros(M) if cells is None else cells.grad

        def hess(u):
            cells = search(u)
            return np.eye(M) if cells is None else cells.hess

        def stationarity(u):
            cells = search(u)
            if cells is None or cells.F is None:
                raise _Stop
            return cells.F, cells.J

        # radii scale with the mean, so the search does not depend on the
        # unit of t
        S = dist.mean
        minimize(value, start, method="trust-exact", jac=grad, hess=hess,
                 options={"gtol": 0.0, "initial_trust_radius": S,
                          "max_trust_radius": 1e3 * S})
        root(stationarity, search.best.u, jac=True, method="hybr",
             options={"xtol": np.finfo(float).eps})
    except _Stop:
        pass
    best = search.best
    if best.resid >= tol:
        stop = (f"stopped at max_iter={max_iter}"
                if search.evaluations == max_iter else "solver stalled")
        msg = (f"{stop} before converging (relative stationarity "
               f"{best.resid:.3e} >= tol {tol:.1e})")
        notes.append(msg)
        warnings.warn(msg, matfun.AccuracyWarning, stacklevel=2)
    u = best.u
    return LloydMaxResult(0.5 * (u[:-1] + u[1:]), u, best.mse,
                          search.evaluations, tuple(notes))


def panter_dite_mse(dist: MEDist, M: int) -> float:
    """High-rate quantizer distortion (1/(12 M^2)) (int f^{1/3} dt)^3.

    The cube-root integral has no general closed form and is evaluated by
    quadrature.  Accurate for large M.
    """
    M = _count(M, "M")
    # the cube root decays three times slower than the density itself
    t_hi = 3.0 * dist.t_max()
    I, _ = matfun.quad(
        lambda t: np.maximum(dist.pdf(t), 0.0) ** (1.0 / 3.0),
        0.0, t_hi, tol=1e-9, limit=1000)
    return I ** 3 / (12.0 * M * M)


# -- generalized matrix densities ----------------------------------------------


def _neg_power(Y, p):
    """(-Y)^p with the principal branch."""
    return matfun.mat_frac_power(-np.atleast_2d(Y), p)


def _coerce(x, Y, z):
    x = np.atleast_1d(np.asarray(x, float)).ravel()
    Y = np.atleast_2d(np.asarray(Y, float))
    z = np.atleast_1d(np.asarray(z, float)).ravel()
    if Y.shape[0] != Y.shape[1] or x.size != Y.shape[0] or z.size != Y.shape[0]:
        raise ConstructionError("x, Y, z dimensions disagree")
    return x, Y, z


def _gamma(a: float, order) -> float:
    """Gamma(a) for a moment; refuses a pole or an overflow by order."""
    try:
        return math.gamma(a)
    except (ValueError, OverflowError):
        raise ValueError(f"moment order {order} puts Gamma({a}) at a pole "
                         "or beyond the double range") from None


@dataclass(frozen=True)
class Type1Dist:
    """Gaussian-like density c x e^{t^2 Y} z on the whole real line, with
    c = 1/(sqrt(pi) x (-Y)^{-1/2} z).  Degenerates to N(0, 1/2) in the
    scalar unit case."""

    x: np.ndarray
    Y: np.ndarray
    z: np.ndarray
    c: float = 0.0

    def __init__(self, x, Y, z):
        x, Y, z = _coerce(x, Y, z)
        mass = math.sqrt(math.pi) * float(x @ _neg_power(Y, -0.5) @ z)
        if not (math.isfinite(mass) and mass > 0):
            raise ConstructionError(f"non-normalizable parameters (mass {mass})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "c", 1.0 / mass)

    def pdf(self, t: float) -> float:
        return self.c * float(matfun.expm_row(self.x, t * t * self.Y) @ self.z)

    def moment(self, n: int) -> float:
        """E{T^n} for an integer n >= 0; odd orders vanish by symmetry."""
        if n % 2 == 1:
            return 0.0
        return self.c * _gamma((n + 1) / 2.0, n) * float(
            self.x @ _neg_power(self.Y, -(n + 1) / 2.0) @ self.z)


@dataclass(frozen=True)
class Type2Dist:
    """Bivariate Gaussian-like density (1/pi) x e^{(u^2+v^2) Y} z; requires
    a mass-one ME triple (x (-Y)^{-1} z = 1)."""

    x: np.ndarray
    Y: np.ndarray
    z: np.ndarray

    def __init__(self, x, Y, z):
        x, Y, z = _coerce(x, Y, z)
        mass = float(x @ _neg_power(Y, -1.0) @ z)
        if abs(mass - 1.0) > 1e-8:
            raise ConstructionError(
                f"triple must have unit mass, got {mass}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "z", z)

    def pdf(self, u: float, v: float) -> float:
        return float(matfun.expm_row(self.x, (u * u + v * v) * self.Y)
                     @ self.z) / math.pi

    def moment(self, n: int, m: int) -> float:
        """E{U^n V^m} for integers n, m >= 0; odd orders vanish by
        symmetry."""
        if n != int(n) or m != int(m):
            raise ValueError(f"moment orders must be integers, got {n}, {m}")
        if n % 2 == 1 or m % 2 == 1:
            return 0.0
        return (_gamma((n + 1) / 2.0, n) * _gamma((m + 1) / 2.0, m) / math.pi
                * float(self.x @ _neg_power(self.Y, -(n + m + 2) / 2.0) @ self.z))

    def marginal_pdf(self, u: float) -> float:
        """Marginal (1/sqrt(pi)) x e^{u^2 Y} (-Y)^{-1/2} z."""
        return float(matfun.expm_row(self.x, u * u * self.Y)
                     @ _neg_power(self.Y, -0.5) @ self.z) / math.sqrt(math.pi)


@dataclass(frozen=True)
class Type3Dist:
    """Rayleigh-like density 2 t x e^{t^2 Y} z on t > 0; requires a
    mass-one ME triple."""

    x: np.ndarray
    Y: np.ndarray
    z: np.ndarray

    def __init__(self, x, Y, z):
        x, Y, z = _coerce(x, Y, z)
        mass = float(x @ _neg_power(Y, -1.0) @ z)
        if abs(mass - 1.0) > 1e-8:
            raise ConstructionError(f"triple must have unit mass, got {mass}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "z", z)

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        return 2.0 * t * float(matfun.expm_row(self.x, t * t * self.Y) @ self.z)

    def moment(self, n: int) -> float:
        """E{T^n} = Gamma((n+2)/2) x (-Y)^{-(n+2)/2} z for an integer
        n >= 0."""
        return _gamma((n + 2) / 2.0, n) * float(
            self.x @ _neg_power(self.Y, -(n + 2) / 2.0) @ self.z)
