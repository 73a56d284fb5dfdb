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

import collections
import functools
import itertools
import json
import math
import numbers
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


# The scalar domain of every public entry point: each refuses an argument
# outside it by name, through one of the checks below, before any kernel
# runs.  An array has no meaning as one of these scalars yet.


def _threshold(t, name="theta"):
    """``t`` as a float, refused unless a finite real scalar >= 0."""
    # a float skips np.ndim, which would build an array from it at a cost
    # that shows in the root-finding loops over cdf
    scalar = isinstance(t, float) or np.ndim(t) == 0
    if not (scalar and 0.0 <= t < math.inf):
        raise ValueError(
            f"{name} must be a finite nonnegative scalar, got {t!r}")
    return float(t)


def _positive(v, name):
    """``v`` as a float, refused unless a finite real scalar > 0."""
    scalar = isinstance(v, float) or np.ndim(v) == 0
    if not (scalar and 0.0 < v < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return float(v)


def _probability(p, name):
    """``p`` as a float, refused unless a finite real scalar in (0, 1)."""
    if not (np.ndim(p) == 0 and 0.0 < p < 1.0):
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {p!r}")
    return float(p)


def _count(v, name):
    """``v`` as an int, refused unless a positive integer; an
    integer-valued float such as 3.0 is one."""
    if not (isinstance(v, numbers.Real) and v >= 1 and v % 1 == 0):
        raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return int(v)


def _threshold_of_rate(R, S=None) -> float:
    """e^R - 1, over S when given.  A rate R that is not a finite real
    >= 0, a mean SNR S that is not positive and finite, or a threshold that
    overflows a double (e^R does past R = 709.78) is refused by name."""
    if not (np.ndim(R) == 0 and 0.0 <= R < math.inf):
        raise ValueError(f"R = {R!r} is not a finite rate >= 0")
    if S is not None and not (np.ndim(S) == 0 and 0.0 < S < math.inf):
        raise ValueError(f"S = {S!r}: the mean SNR must be positive and finite")
    try:
        theta = math.expm1(R) if S is None else math.expm1(R) / S
    except OverflowError:
        theta = math.inf
    if math.isinf(theta):
        what = "e^R - 1" if S is None else f"(e^R - 1)/S at S = {S!r}"
        raise ValueError(f"R = {R!r}: the threshold {what} overflows a double")
    return theta


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

    @property
    def numerator(self) -> tuple[float, ...]:
        """``p`` without its trailing zeros, the constant term kept: the
        coefficients that :meth:`check` and the companion form read."""
        k = len(self.p)
        while k > 1 and self.p[k - 1] == 0.0:
            k -= 1
        return self.p[:k]

    def num_degree(self) -> int:
        """Degree of the numerator polynomial (0 for a zero numerator)."""
        return len(self.numerator) - 1

    def __call__(self, s):
        num = _poly_eval(self.p, s)
        den = _poly_eval(tuple(self.q) + (1.0,), s)
        return num / den

    def check(self) -> list[str]:
        """Necessary-condition violations (empty list when none)."""
        problems = []
        if not np.all(np.isfinite(self.p + self.q)):
            problems.append("non-finite coefficients")
        if self.num_degree() >= self.degree:
            problems.append("deg(p) >= deg(q)")
        scale = max(abs(self.q[0]), abs(self.p[0]), 1e-300)
        if abs(self.p[0] - self.q[0]) > 1e-12 * scale:
            problems.append(f"p1 != q1 ({self.p[0]!r} vs {self.q[0]!r})")
        return problems


@dataclass(frozen=True)
class MEDist:
    """ME distribution with pdf ``x e^{tY} z`` on t >= 0.

    The triple is read-only.  A channel caches what its reads derive from
    it, each built on first use and never at construction: the sign test
    ``phase_type``, the jump law ``_law`` grown as cdf and pdf reads need
    more terms, the horizon :meth:`t_max` and :meth:`to_unit_mean`.  A
    channel may be shared across threads.
    """

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

    def pdf(self, t):
        """Density x e^{tY} z at t >= 0, a scalar or a 1-D array.  Where
        the cached jump law :attr:`_law` takes the read (at the largest t,
        counting the points), a sum of nonnegative terms that keeps its
        relative accuracy in both tails; otherwise one stacked
        exponential."""
        t = np.asarray(t, dtype=float)
        if (t < 0).any():
            raise ValueError(f"pdf requires t >= 0, got {t}")
        if t.size and (law := self._law) and law.takes(t.max(), N=t.size):
            return law.density(t)
        val = self.x @ matfun.expm(t[..., None, None] * self.Y) @ self.z
        return float(val) if t.ndim == 0 else val

    @functools.cached_property
    def phase_type(self) -> bool:
        """Whether the triple is phase-type: x >= 0, z >= 0 and Y >= 0 off
        its diagonal, by exact sign tests."""
        off = self.Y[~np.eye(self.d, dtype=bool)]
        return bool((self.x >= 0).all() and (self.z >= 0).all()
                    and (off >= 0).all())

    @functools.cached_property
    def _law(self):
        """The :class:`matfun._JumpLaw` of this triple, built on first ask
        and extended by later reads, which ask it whether it takes them;
        ``None`` for a triple that is not phase-type or has max|y_ii| = 0,
        which has no such law."""
        if self.phase_type and np.diagonal(self.Y).any():
            return matfun._JumpLaw(self.x, self.Y, self.z)
        return None

    def _partial_cdfs(self, t, K=1):
        """P(Z_1 + ... + Z_k <= t) for k = 1..K, Z_i iid with this law: the
        one owner of the route rule of :meth:`cdf`,
        :meth:`~mekit.algebra.KFoldConvolution.partial_cdfs` and truncated
        HARQ.  Where this triple's cached jump law :attr:`_law` takes the
        read, its uniformized sum, of nonnegative terms that keep their
        relative accuracy in the lower tail, with no block built; otherwise
        row 1 of one exponential of the augmented K-fold block
        :func:`_chain` of K copies (valid for singular Y), dotted with z in
        each block.  ``t`` is checked by the caller."""
        if (law := self._law) and law.takes(t, K):
            return law.partial_cdfs(t, K)
        x, Y, _ = _chain([self] * K)
        return matfun.expm_integral(x, Y, t).reshape(K, self.d) @ self.z

    def _cdf_pdf(self, t):
        """(F(t), f(t)) from one read, for Newton's method on F: where the
        cached law takes the read, one Fox-Glynn pass over it
        (:meth:`matfun._JumpLaw.cdf_pdf`); otherwise the rows e_0 and
        [0, x] of one exponential of the augmented generator
        (:func:`_row_pairs`).  ``t`` is checked by the caller."""
        if (law := self._law) and law.takes(t):
            return law.cdf_pdf(t)
        return tuple(next(_row_pairs(self.x, self.Y, self.z, (t,))))

    def cdf(self, t: float) -> float:
        """Cumulative distribution at t, by :meth:`_partial_cdfs`."""
        return float(self._partial_cdfs(_threshold(t, "t"))[0])

    def sf(self, t: float) -> float:
        """Survival function 1 - cdf(t)."""
        return 1.0 - self.cdf(t)

    def lt(self, s):
        """Laplace transform x (sI - Y)^{-1} z of the pdf at a scalar or a
        1-D array of points s (one stacked solve), in real arithmetic for
        real s."""
        s = np.asarray(s)
        A = s[..., None, None] * np.eye(self.d) - self.Y
        try:
            w = np.linalg.solve(A, self.z)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"s={s} is an eigenvalue of Y") from exc
        val = w @ self.x
        return val.item() if s.ndim == 0 else val

    def moment(self, k: int) -> float:
        """k-th moment (-1)^{k+1} k! x Y^{-(k+1)} z (Y nonsingular)."""
        k = _count(k, "k")
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
        S = _positive(S, "S")
        if abs(self.mean - 1.0) > 1e-8:
            raise ValueError(
                f"scale_mean requires a unit-mean input (mean={self.mean!r})")
        return MEDist(self.x / S, self.Y / S, self.z)

    def to_unit_mean(self) -> "MEDist":
        """Rescale to unit mean (inverse of :meth:`scale_mean`), once."""
        return self._unit_mean

    @functools.cached_property
    def _unit_mean(self) -> "MEDist":
        m = self.mean
        if m <= 0:
            raise ValueError(f"mean must be positive, got {m}")
        return MEDist(self.x * m, self.Y * m, self.z)

    # -- grids and validation -------------------------------------------

    def t_max(self) -> float:
        """Horizon T where the state has decayed, computed once per triple:
        T starts at 40 / min |Re lambda| and doubles, at most 60 times,
        until T max|x e^{TY}| max|z| <= 1e-12 (a repeated eigenvalue decays
        like t^k e^{-rt}, slower than its rate alone says)."""
        return self._horizon

    @functools.cached_property
    def _horizon(self) -> float:
        rates = np.abs(np.linalg.eigvals(self.Y).real)
        slowest = float(np.min(rates))
        if slowest <= 0:
            raise ValueError("Y must be a stable matrix (Re lambda < 0)")
        T = 40.0 / slowest
        zmax = np.max(np.abs(self.z))
        for _ in range(60):
            row = matfun.expm_row(self.x, T * self.Y)
            if T * np.max(np.abs(row)) * zmax <= 1e-12:
                break
            T *= 2.0
        return T

    def _table(self, edges, steps):
        """(t, F, f) on the segments [edges[i], edges[i+1]] of steps[i]
        uniform steps: the rows e_0 and [0, x] of e^{tA}, A the
        :func:`matfun.augmented` generator, stepped by one
        :func:`matfun.row_powers` per segment and dotted with [0; z], give
        F = int_0^t x e^{sY} z ds and f = x e^{tY} z, neither by cancelling."""
        A = matfun.augmented(self.x, self.Y)
        Z = np.append(0.0, self.z)
        rows = np.vstack([np.eye(1, self.d + 1), A[:1]])
        ts, V = [edges[:1]], [(rows @ Z)[None]]
        for a, b, n in zip(edges[:-1], edges[1:], steps):
            Vi, rows = matfun.row_powers(
                rows, matfun.expm1((b - a) / n * A), n + 1, Z)
            ts.append(np.linspace(a, b, n + 1)[1:])
            V.append(Vi[1:])
        V = np.concatenate(V)
        return np.concatenate(ts), V[:, 0], V[:, 1]

    def _grid(self, n, t_max):
        """:meth:`_table` on ``n`` uniform points of [0, t_max], t_max
        :meth:`t_max` when ``None``; n below 2 and a t_max that is not
        positive and finite are refused by name."""
        n = _count(n, "n")
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n!r}")
        T = self.t_max() if t_max is None else _positive(t_max, "t_max")
        return self._table((0.0, T), (n - 1,))

    def pdf_grid(self, n: int = 512, t_max: float | None = None):
        """(t, pdf) sampled on ``n`` uniform points of [0, t_max]."""
        ts, _, f = self._grid(n, t_max)
        return ts, f

    def cdf_grid(self, n: int = 512, t_max: float | None = None):
        """(t, cdf) on the same grid, from the same table."""
        ts, F, _ = self._grid(n, t_max)
        return ts, F

    def validate(self) -> "ValidationReport":
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
        ts, F, pv = self._table((0.0, self.t_max()), (511,))
        nonneg_ok = not bool(np.any(pv < -1e-9))
        if not nonneg_ok:
            i = int(np.argmin(pv))
            failures.append(f"pdf({ts[i]:.6g}) = {pv[i]:.3e} < -1e-9")
        cdf_end = float(F[-1])
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


# a bare (x, Y, z) that :func:`_chain` reads as it reads an MEDist
_Triple = collections.namedtuple("_Triple", "x Y z")


def _companion_form(lt: RationalLT) -> _Triple:
    """Companion triple of one rational transform: p padded into x, the
    companion matrix S - z q of the monic denominator, z the last basis
    vector.  deg(p) >= deg(q) is refused; p is read without its trailing
    zeros, as :meth:`RationalLT.check` reads it."""
    d, p = lt.degree, lt.numerator
    if len(p) > d:
        raise ConstructionError(
            "numerator degree must be below denominator degree")
    x, z = np.zeros(d), np.zeros(d)
    x[:len(p)], z[-1] = p, 1.0
    Y = np.diag(np.ones(d - 1), 1)
    Y[-1, :] -= lt.q
    return _Triple(x, Y, z)


def from_rational_lt(lt: RationalLT) -> MEDist:
    """Companion-form ME distribution for a proper rational transform.

    The degree-d denominator maps to the d x d companion matrix, the
    numerator coefficients to the x row, and z is the last basis vector.
    """
    x, Y, z = _companion_form(lt)
    if any(msg.startswith("p1") for msg in lt.check()):
        raise PointMassAtZeroError(
            "constant terms p1 and q1 differ; transform carries a "
            "point mass at zero or total mass != 1")
    return MEDist(x, Y, z)


def _chain(parts):
    """Triple (x, Y, z) of the sum of the independent ME variables
    ``parts``, whose transform is the product of theirs: block upper
    bidiagonal, the summand generators on the diagonal, each coupled to the
    next by the rank-one block z_i x_{i+1}, x = [x_1 0 ... 0] and
    z = [0 ... 0 z_K].  The one assembler of sums, product forms, K-fold
    and renewal blocks.  A run of one repeated pair shares one coupling;
    pairs are matched by ``is``, as an MEDist's ``==`` compares arrays.
    One part is returned as its own triple."""
    if len(parts) == 1:
        return parts[0].x, parts[0].Y, parts[0].z
    offs = list(itertools.accumulate([len(a.x) for a in parts], initial=0))
    Y = np.zeros((offs[-1], offs[-1]))
    pa = pb = None
    for a, b, lo, hi, end in zip(parts, parts[1:], offs, offs[1:], offs[2:]):
        if a is not pa or b is not pb:
            pa, pb, C = a, b, np.outer(a.z, b.x)
        Y[lo:hi, lo:hi] = a.Y
        Y[lo:hi, hi:end] = C
    Y[offs[-2]:, offs[-2]:] = parts[-1].Y
    x = np.zeros(offs[-1])
    x[:offs[1]] = parts[0].x
    z = np.zeros(offs[-1])
    z[offs[-2]:] = parts[-1].z
    return x, Y, z


def _row_pairs(x, Y, z, thetas):
    """(int_0^theta x e^{tY} z dt, x e^{theta Y} z) for each theta: rows
    e_0 and [0, x] of e^{theta A}, A the :func:`matfun.augmented`
    generator, dotted with [0; z]."""
    A = matfun.augmented(x, Y)
    rows = np.eye(2, A.shape[0])
    rows[1, 1:] = x
    for th in thetas:
        yield matfun.expm_row(rows, th * A)[:, 1:] @ z


def from_product_form(factors) -> MEDist:
    """Block upper-bidiagonal ME distribution for a product of rational
    transforms prod_j p_j(s)/q_j(s): the :func:`_chain` of the factors'
    companion triples."""
    factors = list(factors)
    if not factors:
        raise ConstructionError("factor list must not be empty")
    return MEDist(*_chain([_companion_form(f) for f in factors]))


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


def _erlang(k: int, rate: float) -> MEDist:
    """``k`` exponential stages of rate ``rate``: x = rate e_1, Y = -rate
    on the diagonal and rate above it, z = e_k; entry for entry the
    :func:`from_product_form` of k factors rate / (s + rate)."""
    k, rate = int(k), float(rate)
    Y = np.diag(np.full(k, -rate)) + np.diag(np.full(k - 1, rate), 1)
    x = np.zeros(k)
    x[0] = rate
    z = np.zeros(k)
    z[-1] = 1.0
    return MEDist(x, Y, z)


def _finite_mean(m) -> float:
    """``m`` as a float, refused with a :class:`ConstructionError` unless a
    finite real > 0: an infinite mean would give the zero generator."""
    if not (np.ndim(m) == 0 and 0.0 < m < math.inf):
        raise ConstructionError(f"mean must be positive and finite, got {m!r}")
    return float(m)


def exponential(S: float) -> MEDist:
    """Exponential distribution with mean ``S`` (rate 1/S)."""
    return _erlang(1, 1.0 / _finite_mean(S))


def erlang(k: int, mean: float = 1.0) -> MEDist:
    """Erlang distribution: sum of ``k`` iid exponentials with total mean
    ``mean`` (gamma with integer shape k)."""
    if k < 1 or k != int(k):
        raise ConstructionError("shape k must be a positive integer")
    return _erlang(k, k / _finite_mean(mean))


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of an unprocessed or effective channel.

    Serialized as ``{"kind": ..., "params": {...}}``.  Composite kinds
    (``mrc_list``, ``sum_interference``) nest component specs under
    ``params["components"]``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    # each kind and the parameters it requires
    KINDS = {"rational_lt": ("p", "q"), "product_form": ("factors",),
             "rayleigh": ("S",), "nakagami": ("m", "S"), "sdc": ("N", "S"),
             "ostbc_mrc": ("N_tx", "N_rx", "S"),
             "zf_mimo": ("N_rx", "N_tx", "S"), "mrc_list": ("components",),
             "sum_interference": ("components",), "oscillatory_ex2": ()}

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConstructionError(
                f"unknown channel kind {self.kind!r}; expected one of "
                f"{tuple(self.KINDS)}")
        if not isinstance(self.params, dict):
            raise ConstructionError(f"{self.kind} params must be an object")
        for key in self.KINDS[self.kind]:
            if key not in self.params:
                raise ConstructionError(
                    f"{self.kind} requires parameter {key!r}")
        for key in ("S", "m", "N", "N_tx", "N_rx", "K"):
            v = self.params.get(key, 1)
            if not (isinstance(v, numbers.Real) and 0 < v < math.inf
                    and (key == "S" or v % 1 == 0)):
                what = "finite number" if key == "S" else "integer"
                raise ConstructionError(
                    f"parameter {key} must be a positive {what}, got {v!r}")
        for c in self.params.get("components", ()):
            if not (isinstance(c, dict) and "kind" in c):
                raise ConstructionError(
                    f"every {self.kind} component requires a 'kind', got {c!r}")
        polys = [self.params] if self.kind == "rational_lt" else []
        if self.kind == "product_form":
            polys = self.params["factors"]
            if not (isinstance(polys, (list, tuple))
                    and all(isinstance(f, dict) for f in polys)):
                raise ConstructionError(
                    f"parameter 'factors' must be a list of objects, got {polys!r}")
        for poly in polys:
            for key in ("p", "q"):
                v = poly.get(key)
                if not (isinstance(v, (list, tuple))
                        and all(isinstance(c, numbers.Real) for c in v)):
                    raise ConstructionError(
                        f"{self.kind} parameter {key!r} must be a list of "
                        f"numbers, got {v!r}")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "params": self.params})

    @classmethod
    def from_json(cls, text: str) -> "ChannelSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConstructionError("channel spec JSON must carry a 'kind' field")
        return cls(kind=obj["kind"], params=obj.get("params", {}))
