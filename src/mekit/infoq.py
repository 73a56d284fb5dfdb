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
from scipy.special import gamma as gamma_fn

from . import algebra, matfun
from .medist import ConstructionError, MEDist

__all__ = [
    "LloydMaxResult",
    "Type1Dist",
    "Type2Dist",
    "Type3Dist",
    "entropy_numeric",
    "entropy_theta_limit",
    "lloyd_max",
    "mi_additive_channel",
    "panter_dite_mse",
]

_FLOOR = 1e-300


def entropy_numeric(dist: MEDist, tol: float = 1e-9) -> float:
    """Differential entropy -int f ln f dt by adaptive quadrature, with the
    density clipped below 1e-300 (no closed form exists for ME densities)."""
    t_hi = dist.t_max()

    def integrand(t):
        f = max(dist.pdf(t), _FLOOR)
        return -f * math.log(f)

    val, _ = matfun.quad(integrand, 0.0, t_hi, tol=tol, limit=1000)
    return val


def entropy_theta_limit(dist: MEDist, theta: float = 1e-4) -> float:
    """Entropy through the small-theta representation
    (1/theta) ln int f^{1-theta} dt (cross-check of the direct integral)."""
    t_hi = dist.t_max()
    val, _ = matfun.quad(lambda t: max(dist.pdf(t), 0.0) ** (1.0 - theta),
                         0.0, t_hi, tol=1e-10, limit=1000)
    return math.log(val) / theta


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


class _PartialMoments:
    """Antiderivatives of (f, t f, t^2 f) for an ME density:

        int f        = x e^{tY} Y^{-1} z
        int t f      = x e^{tY} (t Y^{-1} - Y^{-2}) z
        int t^2 f    = x e^{tY} (t^2 Y^{-1} - 2t Y^{-2} + 2 Y^{-3}) z

    ``at(t)`` evaluates all three (zero at t = inf); ``between`` differences
    two evaluations."""

    def __init__(self, dist: MEDist):
        self.dist = dist
        Yi = np.linalg.inv(dist.Y)
        self.Yi1z = Yi @ dist.z
        self.Yi2z = Yi @ self.Yi1z
        self.Yi3z = Yi @ self.Yi2z

    def at(self, t: float) -> np.ndarray:
        if math.isinf(t):
            return np.zeros(3)
        E = self.dist.x @ matfun.expm(t * self.dist.Y)
        m0 = E @ self.Yi1z
        m1 = t * m0 - E @ self.Yi2z
        m2 = t * t * m0 - 2.0 * t * (E @ self.Yi2z) + 2.0 * (E @ self.Yi3z)
        return np.array([m0, m1, m2])

    def between(self, a: float, b: float) -> np.ndarray:
        return self.at(b) - self.at(a)


def _partial_moments(dist: MEDist, a: float, b: float):
    """Cell mass, first and second partial moments of the density over
    (a, b); b = inf drops the upper boundary term."""
    return _PartialMoments(dist).between(a, b)


@dataclass(frozen=True)
class LloydMaxResult:
    thresholds: np.ndarray  # l_1 .. l_{M-1}
    centroids: np.ndarray   # u_0 .. u_{M-1}
    mse: float
    iterations: int
    notes: tuple[str, ...] = ()


def lloyd_max(dist: MEDist, M: int, tol: float = 1e-10,
              max_iter: int = 10_000, initial_centroids=None) -> LloydMaxResult:
    """Minimum-MSE scalar quantizer for an ME density with ``M`` levels.

    Fixed-point iteration of the optimality conditions: thresholds at
    centroid midpoints, centroids from the closed-form partial moments.
    Initial centroids default to equispaced cdf quantiles, which avoids
    empty cells for heavy-tailed densities; an empty cell during iteration
    is re-seeded with a diagnostic note.  Stopping at ``max_iter`` before
    the relative centroid move falls below ``tol`` adds a note and raises
    an :class:`AccuracyWarning`.
    """
    if M < 1 or M != int(M):
        raise ValueError("M must be a positive integer")
    M = int(M)
    notes = []
    if initial_centroids is not None:
        centroids = np.sort(np.asarray(initial_centroids, dtype=float))
        if centroids.shape != (M,):
            raise ValueError(f"initial_centroids must have length {M}")
    else:
        from .oracle import _inverse_cdf_grid
        probs = (np.arange(M) + 0.5) / M
        centroids = _inverse_cdf_grid(dist, probs)
    pm = _PartialMoments(dist)
    if M == 1:
        u = np.array([dist.mean])
        m = pm.between(0.0, math.inf)
        mse = m[2] - 2.0 * u[0] * m[1] + u[0] ** 2 * m[0]
        return LloydMaxResult(np.array([]), u, mse, 0)
    it = 0
    move = math.inf
    for it in range(1, max_iter + 1):
        edges = np.concatenate([[0.0],
                                0.5 * (centroids[:-1] + centroids[1:]),
                                [math.inf]])
        anti = [pm.at(e) for e in edges]
        new = np.empty(M)
        for q in range(M):
            m0, m1, _ = anti[q + 1] - anti[q]
            if m0 <= 1e-14:
                lo = edges[q]
                hi = edges[q + 1] if math.isfinite(edges[q + 1]) else lo + 1.0
                new[q] = 0.5 * (lo + hi)
                notes.append(f"re-seeded empty cell {q} at iteration {it}")
                continue
            new[q] = m1 / m0
        move = np.max(np.abs(new - centroids) / np.maximum(np.abs(new), 1e-30))
        centroids = new
        if move < tol:
            break
    else:
        msg = (f"stopped at max_iter={max_iter} before converging "
               f"(last relative move {move:.3e} >= tol {tol:.1e})")
        notes.append(msg)
        warnings.warn(msg, matfun.AccuracyWarning, stacklevel=2)
    edges = np.concatenate([[0.0], 0.5 * (centroids[:-1] + centroids[1:]),
                            [math.inf]])
    anti = [pm.at(e) for e in edges]
    mse = 0.0
    for q in range(M):
        m0, m1, m2 = anti[q + 1] - anti[q]
        mse += m2 - 2.0 * centroids[q] * m1 + centroids[q] ** 2 * m0
    return LloydMaxResult(edges[1:-1], centroids, mse, it, tuple(notes))


def panter_dite_mse(dist: MEDist, M: int, decomposition=None) -> float:
    """High-rate quantizer distortion (1/(12 M^2)) (int f^{1/3} dt)^3.

    The cube-root integral has no general closed form and is evaluated by
    quadrature; when a triple-Kronecker ``decomposition`` (x, Y, z) with
    f = (x e^{tY} z)^3 is supplied, the exact value -x Y^{-1} z is used and
    cross-checked against quadrature.  Accurate for large M.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    # the cube root decays three times slower than the density itself
    t_hi = 3.0 * dist.t_max()
    I_quad, _ = matfun.quad(lambda t: max(dist.pdf(t), 0.0) ** (1.0 / 3.0),
                            0.0, t_hi, tol=1e-9, limit=1000)
    if decomposition is not None:
        xb, Yb, zb = decomposition
        xb = np.atleast_1d(np.asarray(xb, float)).ravel()
        Yb = np.atleast_2d(np.asarray(Yb, float))
        zb = np.atleast_1d(np.asarray(zb, float)).ravel()
        I = float(-xb @ np.linalg.solve(Yb, zb))
        if abs(I - I_quad) > 1e-8 * max(abs(I), 1.0):
            warnings.warn(
                f"decomposed cube-root integral {I} disagrees with "
                f"quadrature {I_quad}", matfun.AccuracyWarning, stacklevel=2)
    else:
        I = I_quad
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
        return self.c * float(self.x @ matfun.expm(t * t * self.Y) @ self.z)

    def moment(self, n: int) -> float:
        """E{T^n}; odd orders vanish by symmetry."""
        if n % 2 == 1:
            return 0.0
        return self.c * gamma_fn((n + 1) / 2.0) * float(
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
        return float(self.x @ matfun.expm((u * u + v * v) * self.Y) @ self.z) / math.pi

    def moment(self, n: int, m: int) -> float:
        """E{U^n V^m}; odd orders vanish by symmetry."""
        if n % 2 == 1 or m % 2 == 1:
            return 0.0
        return (gamma_fn((n + 1) / 2.0) * gamma_fn((m + 1) / 2.0) / math.pi
                * float(self.x @ _neg_power(self.Y, -(n + m + 2) / 2.0) @ self.z))

    def marginal_pdf(self, u: float) -> float:
        """Marginal (1/sqrt(pi)) x e^{u^2 Y} (-Y)^{-1/2} z."""
        return float(self.x @ matfun.expm(u * u * self.Y)
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
        return 2.0 * t * float(self.x @ matfun.expm(t * t * self.Y) @ self.z)

    def moment(self, n: int) -> float:
        """E{T^n} = Gamma((n+2)/2) x (-Y)^{-(n+2)/2} z."""
        return gamma_fn((n + 2) / 2.0) * float(
            self.x @ _neg_power(self.Y, -(n + 2) / 2.0) @ self.z)
