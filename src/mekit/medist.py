"""Matrix-exponential (ME) distribution value type.

A nonnegative random variable T is ME-distributed when its pdf can be
written ``f(t) = x e^{tY} z`` for a row vector x, square matrix Y and column
vector z; equivalently its Laplace transform is a proper rational function
p(s)/q(s).  This module provides construction from rational transforms
(companion and product-polynomial forms), evaluation (pdf/cdf/LT/moments),
mean scaling, validity checking, and JSON serialization.

Coefficient convention: polynomials are stored ascending, constant term
first; denominators are monic with the leading coefficient implicit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import matfun

__all__ = [
    "ChannelSpec",
    "ConstructionError",
    "MEDist",
    "PointMassAtZeroError",
    "RationalLT",
    "ValidationReport",
    "erlang",
    "exponential",
    "from_product_form",
    "from_rational_lt",
    "to_rational_lt",
]


class ConstructionError(ValueError):
    """The requested parameters do not define a usable ME distribution."""


class PointMassAtZeroError(ConstructionError):
    """Numerator and denominator constant terms differ (total mass != 1)."""


def _poly_eval(coeffs, s):
    """Evaluate sum_k coeffs[k] s^k (ascending order) at complex s."""
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * s + c
    return out


@dataclass(frozen=True)
class RationalLT:
    """Proper rational Laplace transform p(s)/q(s) of an ME density.

    ``p`` holds the numerator coefficients and ``q`` the denominator
    coefficients below the implicit monic leading term, both ascending.
    The degree of the transform is ``len(q)``.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]

    def __init__(self, p, q):
        object.__setattr__(self, "p", tuple(float(c) for c in p))
        object.__setattr__(self, "q", tuple(float(c) for c in q))
        if len(self.q) == 0:
            raise ConstructionError("denominator must have degree >= 1")
        if len(self.p) == 0:
            raise ConstructionError("numerator must not be empty")

    @property
    def degree(self) -> int:
        return len(self.q)

    def num_degree(self) -> int:
        """Degree of the numerator polynomial (-inf treated as 0 length)."""
        for k in range(len(self.p) - 1, -1, -1):
            if self.p[k] != 0.0:
                return k
        return 0

    def __call__(self, s):
        num = _poly_eval(self.p, s)
        den = _poly_eval(tuple(self.q) + (1.0,), s)
        return num / den

    def check(self) -> list[str]:
        """Necessary-condition violations (empty list when none)."""
        problems = []
        if not np.all(np.isfinite(self.p + self.q)):
            problems.append("non-finite coefficients")
        if len(self.p) > len(self.q) or self.num_degree() >= self.degree:
            problems.append("deg(p) >= deg(q)")
        scale = max(abs(self.q[0]), abs(self.p[0]), 1e-300)
        if abs(self.p[0] - self.q[0]) > 1e-12 * scale:
            problems.append(f"p1 != q1 ({self.p[0]!r} vs {self.q[0]!r})")
        return problems


@dataclass(frozen=True)
class MEDist:
    """ME distribution with pdf ``x e^{tY} z`` on t >= 0."""

    x: np.ndarray
    Y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float)).ravel()
        z = np.atleast_1d(np.asarray(self.z, dtype=float)).ravel()
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if Y.shape[0] != Y.shape[1]:
            raise ConstructionError(f"Y must be square, got {Y.shape}")
        if x.shape[0] != Y.shape[0] or z.shape[0] != Y.shape[0]:
            raise ConstructionError("x, Y, z dimensions disagree")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(Y))
                and np.all(np.isfinite(z))):
            raise ConstructionError("non-finite entries in (x, Y, z)")
        x.setflags(write=False)
        Y.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "z", z)

    @property
    def d(self) -> int:
        """Degree (matrix order) of the representation."""
        return self.Y.shape[0]

    # -- evaluation ----------------------------------------------------

    def pdf(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"pdf requires t >= 0, got {t}")
        val = self.x @ matfun.expm(t * self.Y) @ self.z
        return matfun.assert_real(val, scale=max(1.0, abs(val)),
                                  rtol=1e-10, context="pdf")

    def cdf(self, t: float, method: str = "augmented") -> float:
        """Cumulative distribution at t.

        ``augmented`` (default) evaluates one matrix exponential of the
        augmented generator and works for singular Y.  ``classic`` uses
        ``1 + x e^{tY} Y^{-1} z`` and requires Y nonsingular.
        """
        if t < 0:
            raise ValueError(f"cdf requires t >= 0, got {t}")
        if method == "augmented":
            return float(matfun.expm_integral(self.x, self.Y, t) @ self.z)
        if method == "classic":
            try:
                Yinv_z = np.linalg.solve(self.Y, self.z)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    "Y is singular; use the augmented cdf path") from exc
            return float(1.0 + self.x @ matfun.expm(t * self.Y) @ Yinv_z)
        raise ValueError(f"unknown cdf method {method!r}")

    def sf(self, t: float) -> float:
        """Survival function 1 - cdf(t)."""
        return 1.0 - self.cdf(t)

    def lt(self, s) -> complex:
        """Laplace transform x (sI - Y)^{-1} z of the pdf."""
        A = s * np.eye(self.d) - self.Y
        try:
            w = np.linalg.solve(A, self.z.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"s={s} is an eigenvalue of Y") from exc
        val = complex(self.x @ w)
        return val if np.iscomplexobj(np.asarray(s)) or isinstance(s, complex) else val.real

    def moment(self, k: int) -> float:
        """k-th moment (-1)^{k+1} k! x Y^{-(k+1)} z (Y nonsingular)."""
        if k < 1 or k != int(k):
            raise ValueError("moment order must be a positive integer")
        Yinv = np.linalg.inv(self.Y)
        return float((-1) ** (k + 1) * math.factorial(k)
                     * self.x @ np.linalg.matrix_power(Yinv, k + 1) @ self.z)

    @property
    def mean(self) -> float:
        return self.moment(1)

    # -- scaling -------------------------------------------------------

    def scale_mean(self, S: float) -> "MEDist":
        """Scale a unit-mean distribution to mean ``S`` by variable
        substitution: (x/S, Y/S, z)."""
        if S <= 0:
            raise ValueError("S must be positive")
        if abs(self.mean - 1.0) > 1e-8:
            raise ValueError(
                f"scale_mean requires a unit-mean input (mean={self.mean!r})")
        return MEDist(self.x / S, self.Y / S, self.z)

    def to_unit_mean(self) -> "MEDist":
        """Rescale to unit mean (inverse of :meth:`scale_mean`)."""
        m = self.mean
        if m <= 0:
            raise ValueError(f"mean must be positive, got {m}")
        return MEDist(self.x * m, self.Y * m, self.z)

    # -- grids and validation -------------------------------------------

    def t_max(self) -> float:
        """Horizon T where the state has decayed: T starts at
        40 / min |Re lambda| and doubles, at most 60 times, until
        T max|x e^{TY}| max|z| <= 1e-12 (a repeated eigenvalue decays
        like t^k e^{-rt}, slower than its rate alone says)."""
        rates = np.abs(np.linalg.eigvals(self.Y).real)
        slowest = float(np.min(rates))
        if slowest <= 0:
            raise ValueError("Y must be a stable matrix (Re lambda < 0)")
        T = 40.0 / slowest
        zmax = np.max(np.abs(self.z))
        for _ in range(60):
            if T * np.max(np.abs(self.x @ matfun.expm(T * self.Y))) * zmax <= 1e-12:
                break
            T *= 2.0
        return T

    def _stepped(self, w, A, n, t_max):
        """(t, w e^{tA} dotted with z in its last d entries) on ``n``
        uniform points of [0, t_max], computed with one step exponential
        and repeated multiplication."""
        ts = np.linspace(0.0, self.t_max() if t_max is None else t_max, n)
        E = matfun.expm((ts[1] - ts[0]) * A)
        vals = np.empty(n)
        for k in range(n):
            vals[k] = w[-self.d:] @ self.z
            w = w @ E
        return ts, vals

    def pdf_grid(self, n: int = 512, t_max: float | None = None):
        """(t, pdf) sampled on ``n`` uniform points of [0, t_max]."""
        return self._stepped(self.x, self.Y, n, t_max)

    def cdf_grid(self, n: int = 512, t_max: float | None = None):
        """(t, cdf) on the same grid, stepping the augmented row."""
        return self._stepped(np.eye(1, self.d + 1)[0],
                             matfun.augmented(self.x, self.Y), n, t_max)

    def validate(self, n_grid: int = 512) -> "ValidationReport":
        """Necessary-condition report; the ME class has no decidable
        sufficiency test, so this is empirical evidence only."""
        failures = []
        try:
            lt0 = self.lt(0.0)
            lt_ok = abs(lt0 - 1.0) <= 1e-8
            if not lt_ok:
                failures.append(f"lt(0) = {lt0!r} != 1")
        except np.linalg.LinAlgError:
            lt_ok = False
            failures.append("lt(0) undefined (singular Y)")
        ts, pv = self.pdf_grid(n_grid)
        neg = pv < -1e-9
        nonneg_ok = not bool(np.any(neg))
        if not nonneg_ok:
            i = int(np.argmin(pv))
            failures.append(f"pdf({ts[i]:.6g}) = {pv[i]:.3e} < -1e-9")
        cdf_end = self.cdf(ts[-1])
        cdf_ok = abs(cdf_end - 1.0) <= 1e-6
        if not cdf_ok:
            failures.append(f"cdf({ts[-1]:.6g}) = {cdf_end!r} != 1")
        # p1/q1 = L(0) when Y is nonsingular, so the lt(0) test decides it
        return ValidationReport(lt_at_zero_is_one=lt_ok,
                                nonneg_on_grid=nonneg_ok,
                                cdf_limit_one=cdf_ok,
                                p1_eq_q1=lt_ok,
                                failures=tuple(failures))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"x": self.x.tolist(),
                           "Y": self.Y.tolist(),
                           "z": self.z.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "MEDist":
        obj = json.loads(text)
        return cls(np.asarray(obj["x"], dtype=float),
                   np.asarray(obj["Y"], dtype=float),
                   np.asarray(obj["z"], dtype=float))


@dataclass(frozen=True)
class ValidationReport:
    lt_at_zero_is_one: bool
    nonneg_on_grid: bool
    cdf_limit_one: bool
    p1_eq_q1: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (self.lt_at_zero_is_one and self.nonneg_on_grid
                and self.cdf_limit_one and self.p1_eq_q1)


def _companion(q):
    """Companion matrix S - z q for a monic denominator with ascending
    sub-leading coefficients ``q``; returns (Y, z)."""
    d = len(q)
    Y = np.diag(np.ones(d - 1), 1)
    Y[-1, :] -= np.asarray(q, dtype=float)
    z = np.zeros(d)
    z[-1] = 1.0
    return Y, z


def from_rational_lt(lt: RationalLT) -> MEDist:
    """Companion-form ME distribution for a proper rational transform.

    The degree-d denominator maps to the d x d companion matrix, the
    numerator coefficients to the x row, and z is the last basis vector.
    """
    problems = lt.check()
    for msg in problems:
        if msg.startswith("deg"):
            raise ConstructionError(
                "numerator degree must be below denominator degree")
        if msg.startswith("p1"):
            raise PointMassAtZeroError(
                "constant terms p1 and q1 differ; transform carries a "
                "point mass at zero or total mass != 1")
    d = lt.degree
    x = np.zeros(d)
    x[:len(lt.p)] = lt.p
    Y, z = _companion(lt.q)
    return MEDist(x, Y, z)


def from_product_form(factors) -> MEDist:
    """Block upper-bidiagonal ME distribution for a product of rational
    transforms prod_j p_j(s)/q_j(s).

    Each factor contributes its companion block; consecutive blocks are
    coupled through rank-one blocks carrying the next numerator.
    """
    factors = list(factors)
    if not factors:
        raise ConstructionError("factor list must not be empty")
    dims = [f.degree for f in factors]
    d = sum(dims)
    Y = np.zeros((d, d))
    x = np.zeros(d)
    offs = np.cumsum([0] + dims)
    for j, f in enumerate(factors):
        dj = dims[j]
        Qj, rj = _companion(f.q)
        Y[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = Qj
        pj = np.zeros(dj)
        pj[:len(f.p)] = f.p
        if f.num_degree() >= f.degree:
            raise ConstructionError(
                f"factor {j}: numerator degree must be below denominator degree")
        if j == 0:
            x[:dj] = pj
        else:
            rprev = np.zeros(dims[j - 1])
            rprev[-1] = 1.0
            Y[offs[j - 1]:offs[j], offs[j]:offs[j + 1]] = np.outer(rprev, pj)
    z = np.zeros(d)
    z[-1] = 1.0
    return MEDist(x, Y, z)


def to_rational_lt(dist: MEDist) -> RationalLT:
    """Recover p(s)/q(s) from a triple via the Faddeev-LeVerrier
    resolvent recursion (q is the characteristic polynomial of Y)."""
    Y = dist.Y
    d = dist.d
    I = np.eye(d)
    M = I.copy()
    c = np.zeros(d + 1)
    c[d] = 1.0  # coefficient of s^d
    num = np.zeros(d)  # numerator coefficients, ascending
    for k in range(1, d + 1):
        num[d - k] = dist.x @ M @ dist.z
        YM = Y @ M
        ck = -np.trace(YM) / k
        c[d - k] = ck
        M = YM + ck * I
    return RationalLT(p=num, q=c[:d])


def exponential(S: float) -> MEDist:
    """Exponential distribution with mean ``S`` (rate 1/S)."""
    if S <= 0:
        raise ConstructionError("mean must be positive")
    return from_rational_lt(RationalLT(p=[1.0 / S], q=[1.0 / S]))


def erlang(k: int, mean: float = 1.0) -> MEDist:
    """Erlang distribution: sum of ``k`` iid exponentials with total mean
    ``mean`` (gamma with integer shape k)."""
    if k < 1 or k != int(k):
        raise ConstructionError("shape k must be a positive integer")
    rate = k / mean
    return from_product_form([RationalLT(p=[rate], q=[rate])] * int(k))


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of an unprocessed or effective channel.

    Serialized as ``{"kind": ..., "params": {...}}``.  Composite kinds
    (``mrc_list``, ``sum_interference``) nest component specs under
    ``params["components"]``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    KINDS = ("rational_lt", "product_form", "rayleigh", "nakagami", "sdc",
             "ostbc_mrc", "zf_mimo", "mrc_list", "sum_interference",
             "oscillatory_ex2")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConstructionError(
                f"unknown channel kind {self.kind!r}; expected one of {self.KINDS}")
        for key in ("S",):
            if key in self.params and not self.params[key] > 0:
                raise ConstructionError(f"parameter {key} must be positive")
        for key in ("m", "N", "N_tx", "N_rx", "K"):
            if key in self.params:
                v = self.params[key]
                if v != int(v) or v < 1:
                    raise ConstructionError(
                        f"parameter {key} must be a positive integer, got {v!r}")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "params": self.params})

    @classmethod
    def from_json(cls, text: str) -> "ChannelSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConstructionError("channel spec JSON must carry a 'kind' field")
        return cls(kind=obj["kind"], params=obj.get("params", {}))
