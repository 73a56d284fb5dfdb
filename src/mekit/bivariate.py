"""Bivariate ME distributions and interference-limited ARQ analysis.

The joint density is ``p1 e^{z1 Q1} P12 e^{z2 Q2} r2`` on the quadrant
(optionally restricted to the ordered wedge 0 <= z1 <= z2).  The
bivariate integrals that drive the throughput expressions are Sylvester
solves; an independent signal and interferer also have a Kronecker closed
form.  A product-density integral is the Sylvester integral with the
rank-one coupling X12 = z1 x2^T.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, matfun
from .medist import (ConstructionError, MEDist, _positive, _threshold,
                     _threshold_of_rate)
from .metrics import MetricResult, _result, theta_absolute

__all__ = [
    "BivME",
    "InterferenceScenario",
    "arq_interference_throughput",
    "integral_sylvester",
    "interference_g_theta",
    "sm_mimo_2x2_outage",
    "wishart2x2_bivme",
]


@dataclass(frozen=True)
class BivME:
    """Bivariate ME density p1 e^{z1 Q1} P12 e^{z2 Q2} r2.

    ``ordered`` restricts the support to 0 <= z1 <= z2 (the normalization
    and validation integrals respect the wedge).  The coupling matrix P12
    has rank one exactly when the two variables are independent.
    """

    p1: np.ndarray
    Q1: np.ndarray
    P12: np.ndarray
    Q2: np.ndarray
    r2: np.ndarray
    ordered: bool = False

    def __post_init__(self):
        p1 = np.atleast_1d(np.asarray(self.p1, float)).ravel()
        r2 = np.atleast_1d(np.asarray(self.r2, float)).ravel()
        Q1 = np.atleast_2d(np.asarray(self.Q1, float))
        Q2 = np.atleast_2d(np.asarray(self.Q2, float))
        P12 = np.atleast_2d(np.asarray(self.P12, float))
        if Q1.shape[0] != Q1.shape[1] or Q2.shape[0] != Q2.shape[1]:
            raise ConstructionError("Q1 and Q2 must be square")
        if P12.shape != (Q1.shape[0], Q2.shape[0]):
            raise ConstructionError(
                f"P12 must be {Q1.shape[0]} x {Q2.shape[0]}, got {P12.shape}")
        if p1.shape[0] != Q1.shape[0] or r2.shape[0] != Q2.shape[0]:
            raise ConstructionError("p1 / r2 dimensions disagree with Q1 / Q2")
        for name, arr in (("p1", p1), ("Q1", Q1), ("P12", P12),
                          ("Q2", Q2), ("r2", r2)):
            if not np.all(np.isfinite(arr)):
                raise ConstructionError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "Q1", Q1)
        object.__setattr__(self, "P12", P12)
        object.__setattr__(self, "Q2", Q2)
        object.__setattr__(self, "r2", r2)

    @property
    def d1(self) -> int:
        return self.Q1.shape[0]

    @property
    def d2(self) -> int:
        return self.Q2.shape[0]

    def pdf(self, z1: float, z2: float) -> float:
        if z1 < 0 or z2 < 0:
            raise ValueError("support is the nonnegative quadrant")
        if self.ordered and z1 > z2:
            return 0.0
        row = matfun.expm_row(self.p1, z1 * self.Q1) @ self.P12
        return float(matfun.expm_row(row, z2 * self.Q2) @ self.r2)

    def lt(self, s1, s2) -> complex:
        """Joint transform p1 (s1 I - Q1)^{-1} P12 (s2 I - Q2)^{-1} r2
        (quadrant support)."""
        A1 = s1 * np.eye(self.d1) - self.Q1
        A2 = s2 * np.eye(self.d2) - self.Q2
        val = complex(self.p1 @ np.linalg.solve(
            A1, self.P12 @ np.linalg.solve(A2, self.r2.astype(complex))))
        return val

    def normalization(self) -> float:
        """Total mass over the support (wedge mass when ordered)."""
        if not self.ordered:
            return float(self.p1 @ np.linalg.solve(
                self.Q1, self.P12 @ np.linalg.solve(self.Q2, self.r2)))
        # integral over z2 in (z1, inf) closes to -Q2^{-1} e^{z1 Q2};
        # the remaining z1 integral is a Sylvester solve.
        X12 = -self.P12 @ np.linalg.inv(self.Q2)
        X = matfun.solve_sylvester(self.Q1, self.Q2, -X12)
        return float(self.p1 @ X @ self.r2)

    def marginal(self, which: int = 1) -> MEDist:
        """Closed-form marginal of the quadrant-supported density as an ME
        triple; the inner integral closes analytically."""
        if self.ordered:
            raise ValueError(
                "ordered-support marginals are not ME on this form; "
                "use marginal_pdf")
        if which == 1:
            # (int_0^inf e^{tQ2} r2 dt)^T, as a row integral over Q2^T
            z = self.P12 @ _integral_to_inf(self.r2, self.Q2.T)
            return MEDist(self.p1, self.Q1, z)
        if which == 2:
            x = _integral_to_inf(self.p1, self.Q1)
            return MEDist(x @ self.P12, self.Q2, self.r2)
        raise ValueError("which must be 1 or 2")

    def marginal_pdf(self, which: int, z: float) -> float:
        """Marginal density value, valid for both quadrant and ordered
        support."""
        if z < 0:
            raise ValueError("z must be nonnegative")
        if not self.ordered:
            return self.marginal(which).pdf(z)
        # p1 e^{z Q1} and e^{z Q2} r2, the latter as a row of e^{z Q2^T}
        row1 = matfun.expm_row(self.p1, z * self.Q1)
        col2 = matfun.expm_row(self.r2, z * self.Q2.T)
        if which == 1:
            # integrate z2 over (z, inf)
            col = -np.linalg.solve(self.Q2, col2)
            return float(row1 @ self.P12 @ col)
        # integrate z1 over (0, z)
        row = np.linalg.solve(self.Q1.T, row1 - self.p1)
        return float(row @ self.P12 @ col2)

    def to_json(self) -> str:
        return json.dumps({"p1": self.p1.tolist(), "Q1": self.Q1.tolist(),
                           "P12": self.P12.tolist(), "Q2": self.Q2.tolist(),
                           "r2": self.r2.tolist(), "ordered": self.ordered})

    @classmethod
    def from_json(cls, text: str) -> "BivME":
        o = json.loads(text)
        return cls(np.asarray(o["p1"], float), np.asarray(o["Q1"], float),
                   np.asarray(o["P12"], float), np.asarray(o["Q2"], float),
                   np.asarray(o["r2"], float), bool(o.get("ordered", False)))

    def validate(self) -> dict:
        """Grid nonnegativity and normalization report (necessary
        conditions only; no constructive validity test exists)."""
        t1 = 40.0 / np.abs(np.linalg.eigvals(self.Q1).real).min()
        t2 = 40.0 / np.abs(np.linalg.eigvals(self.Q2).real).min()
        g1 = np.linspace(0, t1, 32)
        g2 = np.linspace(0, t2, 32)
        # density on the grid as L (e^{g2 Q2} r2), L = p1 e^{g1 Q1} P12,
        # from the stepped rows L and r2 e^{g2 Q2^T} L^T
        L = matfun.row_powers(self.p1, matfun.expm1(g1[1] * self.Q1), 32,
                              self.P12)[0]
        V = matfun.row_powers(self.r2, matfun.expm1(g2[1] * self.Q2).T, 32,
                              L.T)[0].T
        if self.ordered:
            V[g1[:, None] > g2[None, :]] = 0.0
        worst = min(0.0, float(V.min()))
        mass = self.normalization()
        return {"nonneg_on_grid": worst >= -1e-9,
                "min_density": worst,
                "mass": mass,
                "mass_is_one": abs(mass - 1.0) <= 1e-6}


def _integral_to_inf(x, Q):
    """int_0^inf x e^{tQ} dt = -x Q^{-1}; for singular Q the integral is
    cut at 40 over the slowest nonzero decay rate, and diverges (raises
    ``LinAlgError``) unless x e^{tQ} has decayed there."""
    try:
        return -np.linalg.solve(Q.T, x)
    except np.linalg.LinAlgError:
        rates = np.abs(np.linalg.eigvals(Q).real)
        rates = rates[rates > 1e-12]
        b = 40.0 / rates.min() if rates.size else 40.0
        # rows e_0 and [0, x] of e^{bA}: the integral and x e^{bQ}
        rows = np.eye(2, x.size + 1)
        rows[1, 1:] = x
        E = matfun.expm_row(rows, b * matfun.augmented(x, Q))
        if np.max(np.abs(E[1, 1:])) > 1e-12 * np.max(np.abs(x)):
            raise np.linalg.LinAlgError(
                "integral diverges: x e^{tQ} has not decayed") from None
        return E[0, 1:]


def independent_bivme(d1: MEDist, d2: MEDist) -> BivME:
    """Rank-one coupling r1 p2: the joint density of independent factors."""
    return BivME(d1.x, d1.Y, np.outer(d1.z, d2.x), d2.Y, d2.z)


# -- bivariate integrals -----------------------------------------------------


def integral_sylvester(a, b, x1, Y1, X12, Y2, z2):
    """int_a^b x1 e^{tY1} X12 e^{tY2} z2 dt via a Sylvester solve.

    Returns ``(value, X)`` with Y1 X + X Y2 equal to the boundary
    difference e^{bY1} X12 e^{bY2} - e^{aY1} X12 e^{aY2}; b may be ``inf``
    for stable Y1, Y2 (the upper boundary term vanishes).
    """
    Y1 = np.atleast_2d(np.asarray(Y1, float))
    Y2 = np.atleast_2d(np.asarray(Y2, float))
    X12 = np.atleast_2d(np.asarray(X12, float))
    x1 = np.atleast_1d(np.asarray(x1, float)).ravel()
    z2 = np.atleast_1d(np.asarray(z2, float)).ravel()
    a = _threshold(a, "a")
    if math.isinf(b):
        if matfun.spectral_abscissa(Y1) >= 0 or matfun.spectral_abscissa(Y2) >= 0:
            raise ValueError("infinite upper limit requires stable Y1, Y2")
        upper = np.zeros_like(X12)
    else:
        upper = matfun.expm(b * Y1) @ X12 @ matfun.expm(b * Y2)
    lower = matfun.expm(a * Y1) @ X12 @ matfun.expm(a * Y2)
    X = matfun.solve_sylvester(Y1, Y2, upper - lower)
    return float(x1 @ X @ z2), X


# -- interference-limited ARQ -------------------------------------------------


@dataclass(frozen=True)
class InterferenceScenario:
    """Signal-of-interest plus interference, either as an independent
    signal + interferer list (summed into one ME interferer) or as a general
    joint density with the interference as the first coordinate.  Each
    channel is kept as its triple (:func:`~mekit.algebra._triple`)."""

    signal: MEDist | None = None
    interferers: tuple = ()
    joint: BivME | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.joint is None and (self.signal is None or not self.interferers):
            raise ConstructionError(
                "provide signal + interferers, or a joint density")
        if self.theta is not None:
            _threshold(self.theta)
        if self.signal is not None:
            object.__setattr__(self, "signal", algebra._triple(self.signal))
        object.__setattr__(self, "interferers",
                           tuple(map(algebra._triple, self.interferers)))

    @property
    def independent(self) -> bool:
        return self.joint is None

    def interference(self) -> MEDist:
        return algebra.convolve(*self.interferers)

    def as_joint(self) -> BivME:
        if self.joint is not None:
            return self.joint
        zi = self.interference()
        return independent_bivme(zi, self.signal)


def _boundary_term(joint: BivME, theta: float):
    """-P12 Q^{-1} e^{theta Q}: the closed inner integral of the success
    probability P(Z > theta (1 + Z_I)), the right side of its Sylvester
    system."""
    return -joint.P12 @ np.linalg.solve(joint.Q2, matfun.expm(theta * joint.Q2))


def arq_interference_throughput(scn: InterferenceScenario, R: float,
                                path: str = "auto") -> MetricResult:
    """ARQ throughput R P with P = P(ln(1 + Z/(1+Z_I)) > R).

    Paths, both exact: ``kron`` (independent scenarios only) and
    ``sylvester`` (any joint); ``auto`` takes ``kron`` when it applies.
    A spectral collision of Q_I and -theta Q raises
    :class:`~mekit.matfun.SpectralCollisionError`.  The decoding threshold
    is ``scn.theta`` when set, else e^R - 1.
    """
    R = _positive(R, "R")
    theta = scn.theta if scn.theta is not None else theta_absolute(R)
    if path == "auto":
        path = "kron" if scn.independent else "sylvester"
    if path == "kron":
        if not scn.independent:
            raise ValueError("the Kronecker path requires independence")
        zi = scn.interference()
        sig = scn.signal
        # P = (x_I (x) x) (A B)^{-1} (z_I (x) z), B = I (x) Y e^{-theta Y};
        # B^{-1} turns x into the decaying row x e^{theta Y} Y^{-1}, where
        # e^{-theta Y} itself would overflow
        w = np.linalg.solve(sig.Y.T, matfun.expm_row(sig.x, theta * sig.Y))
        A = matfun.kron_sum(zi.Y, theta * sig.Y)
        P = (np.outer(zi.x, w).ravel()
             @ np.linalg.solve(A, np.outer(zi.z, sig.z).ravel()))
        return _result(R * float(P), "kron")
    if path == "sylvester":
        joint = scn.as_joint()
        X = matfun.solve_sylvester(joint.Q1, theta * joint.Q2,
                                   -_boundary_term(joint, theta))
        return _result(R * float(joint.p1 @ X @ joint.r2), "sylvester")
    raise ValueError(f"unknown path {path!r}")


def interference_g_theta(scn: InterferenceScenario, theta: float):
    """Auxiliary optimization ratio g = f/(theta f') for the interference
    throughput T = R P, f = 1/P, under the unit-mean-signal convention
    theta = (e^R - 1)/S.

    P' is obtained from the derivative Sylvester system
    Q_I X' + X' theta Q = -(Pb + X) Q; returns ``(g, P)``.
    """
    theta = _positive(theta, "theta")
    joint = scn.as_joint()
    if scn.independent and abs(scn.signal.mean - 1.0) > 1e-8:
        raise ValueError("optimization requires a unit-mean signal")
    QI, Q = joint.Q1, joint.Q2
    Pb = _boundary_term(joint, theta)
    X = matfun.solve_sylvester(QI, theta * Q, -Pb)
    Xp = matfun.solve_sylvester(QI, theta * Q, -(Pb + X) @ Q)
    P = float(joint.p1 @ X @ joint.r2)
    Pprime = float(joint.p1 @ Xp @ joint.r2)
    return -P / (theta * Pprime), P


# -- Wishart eigenvalues and 2x2 spatially-multiplexed MIMO outage ------------


def wishart2x2_bivme() -> BivME:
    """Ordered-eigenvalue density e^{-z1-z2}(z1-z2)^2 of the 2x2
    unit-variance Wishart matrix, as a degree-(3,3) bivariate ME form."""
    Q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    return BivME(p1=[1.0, 0.0, 0.0], Q1=Q, P12=2.0 * np.diag([1.0, -1.0, 1.0]),
                 Q2=Q.copy(), r2=[0.0, 0.0, 1.0], ordered=True)


def sm_mimo_2x2_outage(R: float) -> MetricResult:
    """Outage P(ln det(I + S H^H H / 2) <= R) at the high-SNR Wishart
    eigenvalue level: P(ln(1+z1) + ln(1+z2) <= R) over the ordered wedge.

    Substituting t_i = 1 + z_i maps the region to t1 t2 <= e^R, t_i >= 1;
    the inner integral closes analytically, leaving a closed boundary term
    plus one residual quadrature over t1 in (1, e^R).
    """
    R = _positive(R, "R")
    _threshold_of_rate(R)
    w = wishart2x2_bivme()
    p1, Q1, P12, Q2, r2 = w.p1, w.Q1, w.P12, w.Q2, w.r2
    TH = math.exp(R)
    Q1i = np.linalg.inv(Q1)
    Q2i = np.linalg.inv(Q2)
    closed = 1.0 - 0.5 * float(
        p1 @ matfun.expm((TH - 1.0) * Q1) @ Q1i @ P12 @ Q2i @ r2)
    mid = matfun.expm(-Q1) @ P12 @ matfun.expm(-Q2) @ Q2i

    def integrand(t1):
        left = p1 @ matfun.expm(t1[:, None, None] * Q1) @ mid
        right = matfun.expm((TH / t1)[:, None, None] * Q2) @ r2
        return 0.5 * np.sum(left * right, axis=1)

    resid, err = matfun.quad(integrand, 1.0, TH, tol=1e-12)
    return _result(closed + resid, "quadrature", quad_error=err)
