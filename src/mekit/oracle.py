"""Independent verification: reproducible sampling from ME distributions
and Monte Carlo simulation of every closed-form metric.  Everything here
is deliberately simple and independent of the closed-form paths it
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medist import (MEDist, _count, _positive, _threshold,
                     _threshold_of_rate)

__all__ = [
    "MCEstimate",
    "RngConfig",
    "mc_metric",
    "sample",
]


@dataclass(frozen=True)
class RngConfig:
    """Seeded sampling configuration; identical seeds give bit-identical
    streams.  ``generator(worker)`` derives independent sub-streams."""

    seed: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n"))

    def generator(self, worker: int | None = None) -> np.random.Generator:
        if worker is None:
            return np.random.default_rng(np.random.SeedSequence(self.seed))
        return np.random.default_rng(np.random.SeedSequence([self.seed, worker]))


def _dist(channel) -> MEDist:
    dist = getattr(channel, "dist", channel)
    if not isinstance(dist, MEDist):
        raise TypeError(f"expected a distribution, got {type(channel)!r}")
    return dist


# -- inverse cdf ---------------------------------------------------------------------


# a mode e^{lam t} is dead once |Re lam| t >= 40 (e^{-40} ~ 4e-18); while
# it lives, each table step keeps h |lam| <= 0.01
_MODE_LIFE = 40.0
_STEP_PHASE = 0.01


def _cdf_table(dist: MEDist):
    """(t, F, f) on a table of [0, t_max] (:meth:`MEDist._table`), uniform
    within segments: from each segment start on, the step is
    0.01 / max |lam| over the eigenvalues of Y still alive there, and
    adjacent segments whose steps differ by less than 2x share the
    smaller one."""
    T = dist.t_max()
    lam = np.linalg.eigvals(dist.Y)
    rates = np.abs(lam.real)
    starts = np.unique(np.concatenate(
        [[0.0], _MODE_LIFE / rates[rates * T > _MODE_LIFE]]))
    steps = []
    for a in starts:
        alive = rates * a < _MODE_LIFE
        if not alive.any():
            alive = rates == rates.min()
        steps.append(_STEP_PHASE / np.max(np.abs(lam[alive])))
    edges, h = [0.0], [steps[0]]
    for a, step in zip(starts[1:], steps[1:]):
        if step >= 2.0 * h[-1]:
            edges.append(a)
            h.append(step)
    edges.append(T)
    return dist._table(edges, [max(1, math.ceil((b - a) / step))
                               for a, b, step in zip(edges, edges[1:], h)])


# the sorted probabilities are solved in blocks whose ~20 working arrays
# (64 KB each) stay in cache and, below the allocator's mmap threshold,
# are reused from the heap instead of page-faulted fresh on every call
_NEWTON_BLOCK = 1 << 13


def _checked_table(dist: MEDist):
    """The :func:`_cdf_table` of ``dist`` and the running maximum of its
    F, once the table is checked to be invertible: raises when the
    density goes below -1e-6 on the table or F at the horizon differs from
    1 by more than 1e-9."""
    ts, F, f = _cdf_table(dist)
    if np.min(f) < -1e-6:
        raise ValueError(
            "density goes negative; the cdf is non-monotone and cannot "
            "be inverted (invalid distribution)")
    # 1e-9 headroom absorbs roundoff accumulated along the table
    if not abs(F[-1] - 1.0) <= 1e-9:
        raise ValueError("cdf does not approach 1; distribution looks invalid")
    return ts, F, f, np.maximum.accumulate(F)


def _inverse_cdf_grid(dist: MEDist, probs, tol: float = 1e-10, table=None):
    """Inverse cdf at the given probabilities.  Each probability is
    bracketed once in the :func:`_cdf_table` and solved by Newton steps
    on the cubic Hermite interpolant of its cell (nodal F and f), with
    bisection whenever a step leaves the shrinking bracket or the slope
    is not positive; each pass evaluates only the probabilities not yet
    within |F - p| <= tol / 10.  The probabilities are sorted once and
    solved in blocks.  ``table`` is a :func:`_checked_table` of ``dist``
    to reuse.  Raises when the table fails its checks or a root misses
    ``tol``."""
    ts, F, f, Fm = _checked_table(dist) if table is None else table
    # quantiles beyond the representable tail clamp to the horizon, and
    # those below F(0) to 0, so every bracket is valid
    p = np.clip(np.asarray(probs, dtype=float), F[0], F[-1] - 1e-12)
    order = np.argsort(p)
    t = np.empty_like(p)
    for s in range(0, p.size, _NEWTON_BLOCK):
        b = order[s:s + _NEWTON_BLOCK]
        t[b] = _solve_cells(ts, F, f, Fm, p[b], tol)
    return t


def _solve_cells(ts, F, f, Fm, p, tol):
    """Roots of the cubic Hermite interpolant H = p for the probabilities
    ``p``, each in the table cell [t_{k-1}, t_k] where the running maximum
    ``Fm`` of F first reaches it (F_{k-1} < p <= F_k there)."""
    k = np.clip(np.searchsorted(Fm, p), 1, ts.size - 1)
    t0, h = ts[k - 1], ts[k] - ts[k - 1]
    # H(s) - p = c0 + s (c1 + s (c2 + s c3)) on s = (t - t0) / h in [0, 1]
    F0, dF, g0, g1 = F[k - 1], F[k] - F[k - 1], h * f[k - 1], h * f[k]
    c0, c1 = F0 - p, g0
    c2 = 3.0 * dF - 2.0 * g0 - g1
    c3 = g0 + g1 - 2.0 * dF
    x = np.divide(-c0, dF, out=np.zeros_like(p), where=dF > 0.0)
    lo, hi = np.zeros_like(p), np.ones_like(p)
    s = np.empty_like(p)
    resid = np.empty_like(p)
    idx = np.arange(p.size)
    # bisection alone shrinks a cell to roundoff within 60 passes
    for _ in range(60):
        r = c0 + x * (c1 + x * (c2 + x * c3))
        err = np.abs(r)
        s[idx], resid[idx] = x, err
        keep = err > 0.1 * tol
        if not keep.any():
            break
        idx, x, r = idx[keep], x[keep], r[keep]
        c0, c1, c2, c3 = c0[keep], c1[keep], c2[keep], c3[keep]
        slope = c1 + x * (2.0 * c2 + 3.0 * x * c3)
        below = r < 0.0
        lo = np.where(below, x, lo[keep])
        hi = np.where(below, hi[keep], x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = x - r / slope
        x = np.where((slope > 0.0) & (step > lo) & (step < hi), step,
                     0.5 * (lo + hi))
    # a nan residual (no finite cdf value) fails the negated test
    if not np.all(resid <= max(tol, 1e-9)):
        raise ValueError(
            f"inverse cdf failed to converge (residual {float(np.max(resid)):.2e}); "
            "cdf may be non-monotone (invalid distribution)")
    return t0 + h * s


def _jump_law(dist: MEDist):
    """(a, q) with Z = Gamma(J + 1, 1/q), P(J = j) = a_j (Jensen 1953), for a
    phase-type triple with u = -Y^{-1} z > 0, else ``None``: w <- w P from
    w = x D, D = diag(u), P = I + D^{-1} Y D / q, q = max|y_ii|, records
    a_j = w D^{-1} z / q until w 1 <= 1e-17.  Raises if |x u - 1| > 1e-9."""
    try:
        u = -np.linalg.solve(dist.Y, dist.z)
    except np.linalg.LinAlgError:
        return None
    if not (dist.phase_type and (u > 0.0).all()):
        return None
    if not abs(dist.x @ u - 1.0) <= 1e-9:
        raise ValueError("cdf does not approach 1; distribution looks invalid")
    q = float(np.max(np.abs(np.diagonal(dist.Y))))
    # u_i / u_i is exactly 1, so the diagonal of P is 1 + y_ii / q exactly
    P = dist.Y * (u / u[:, None]) / q + np.eye(dist.d)
    w, exits, a = dist.x * u, dist.z / u / q, []
    while w.sum() > 1e-17:
        a.append(w @ exits)
        w = w @ P
    return np.array(a), q


def _sampler(dist: MEDist):
    """``draw(rng, n)`` for ``dist``: its :func:`_jump_law`, else its table."""
    law = _jump_law(dist)
    if law is None:
        table = _checked_table(dist)
        return lambda rng, n: _inverse_cdf_grid(dist, rng.random(n), table=table)
    a, q = law
    if np.count_nonzero(a) == 1:
        k = int(np.flatnonzero(a)[0]) + 1
        return lambda rng, n: rng.gamma(shape=k, scale=1.0 / q, size=n)
    cum = np.cumsum(a)
    return lambda rng, n: rng.gamma(1.0 + np.minimum(np.searchsorted(
        cum, cum[-1] * rng.random(n), side="right"), cum.size - 1), 1.0 / q)


def sample(channel, cfg: RngConfig, worker: int | None = None) -> np.ndarray:
    """Draw ``cfg.n`` iid samples: a phase-type channel exactly, from the
    Erlang mixture of :func:`_jump_law`; any other by inverse-cdf root
    finding on a table of its cdf (to ~1e-10 in probability), raising when
    that cdf is non-monotone or either route's mass is not 1 within 1e-9."""
    return _sampler(_dist(channel))(cfg.generator(worker), cfg.n)


# -- Monte Carlo metrics ---------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    n: int

    def z_score(self, reference: float) -> float:
        return (self.value - reference) / max(self.stderr, 1e-300)


def _bernoulli(mask, n, scale=1.0):
    p = float(np.mean(mask))
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return MCEstimate(scale * p, scale * se, n)


def _partial_sum_transmissions(dist, theta, K, cfg, worker=0):
    """Simulate accumulation renewals: per packet, transmissions until the
    running sum exceeds theta, truncated at K (math.inf for persistent).
    Each transmission draws one SNR per packet still unfinished, all from
    one stream.  Returns (transmissions, success)."""
    draw = _sampler(dist)
    rng = cfg.generator(worker)
    tx = np.zeros(cfg.n, dtype=np.int64)
    live = np.arange(cfg.n)
    acc = np.zeros(cfg.n)
    k = 0
    while live.size and k < K:
        k += 1
        if k > 80_000:
            raise RuntimeError("persistent HARQ simulation did not finish")
        tx[live] = k
        acc += draw(rng, live.size)
        keep = np.flatnonzero(acc <= theta)
        live, acc = live.take(keep), acc.take(keep)
    success = np.ones(cfg.n, dtype=bool)
    success[live] = False
    return tx, success


def _ratio_estimate(numer, denom, n, scale=1.0):
    """Ratio-of-means estimator with the linearized standard error."""
    nb = np.mean(numer)
    db = np.mean(denom)
    r = nb / db
    resid = numer - r * denom
    se = math.sqrt(np.mean(resid ** 2) / n) / db
    return MCEstimate(scale * r, scale * se, n)


def mc_metric(kind: str, scenario: dict, cfg: RngConfig) -> MCEstimate:
    """Unbiased Monte Carlo estimate (with standard error) of a metric.

    Kinds and scenario keys:
      outage            dist, theta
      arq               dist, R, theta
      harq_truncated    dist, R, theta, K
      harq_persistent   dist, R, theta
      ncbr              links (dict 13/32/23/31), R12, R21
      arq_interference  signal, interferers, R [, theta]
      ber               dist, a, detection ("noncoherent"|"coherent")

    Each scalar is refused by name outside the domain of the closed form
    it estimates: a threshold theta finite and >= 0 (for arq_interference
    the scenario theta of :func:`~mekit.bivariate.arq_interference_throughput`,
    where theta = 0 gives P = 1), a rate R (or a) finite and > 0, R12 and
    R21 finite and >= 0.
    """
    n = cfg.n
    if kind == "outage":
        theta = _threshold(scenario["theta"])
        return _bernoulli(sample(scenario["dist"], cfg) <= theta, n)
    if kind == "arq":
        R, theta = _positive(scenario["R"], "R"), _threshold(scenario["theta"])
        z = sample(scenario["dist"], cfg)
        return _bernoulli(z > theta, n, scale=R)
    if kind in ("harq_truncated", "harq_persistent"):
        R, theta = _positive(scenario["R"], "R"), _threshold(scenario["theta"])
        K = scenario.get("K") if kind == "harq_truncated" else None
        K = math.inf if K is None else _count(K, "K")
        tx, success = _partial_sum_transmissions(
            _dist(scenario["dist"]), theta, K, cfg)
        return _ratio_estimate(success.astype(float), tx.astype(float), n,
                               scale=R)
    if kind == "ncbr":
        links = scenario["links"]
        R12 = _threshold(scenario["R12"], "R12")
        R21 = _threshold(scenario["R21"], "R21")
        th12, th21 = _threshold_of_rate(R12), _threshold_of_rate(R21)
        zs = {key: sample(links[key], cfg, worker=i)
              for i, key in enumerate(("13", "32", "23", "31"))}
        s12 = (zs["13"] > th12) & (zs["32"] > th12)
        s21 = (zs["23"] > th21) & (zs["31"] > th21)
        v = (R12 * s12 + R21 * s21) / 3.0
        return MCEstimate(float(np.mean(v)),
                          float(np.std(v, ddof=1) / math.sqrt(n)), n)
    if kind == "arq_interference":
        R = _positive(scenario["R"], "R")
        theta = (_threshold(scenario["theta"]) if "theta" in scenario
                 else _threshold_of_rate(R))
        z = sample(scenario["signal"], cfg, worker=0)
        zi = np.zeros(n)
        for i, interferer in enumerate(scenario["interferers"]):
            zi += sample(interferer, cfg, worker=i + 1)
        return _bernoulli(z > theta * (1.0 + zi), n, scale=R)
    if kind == "ber":
        a = _positive(scenario["a"], "a")
        z = sample(scenario["dist"], cfg, worker=0)
        if scenario.get("detection", "noncoherent") == "noncoherent":
            p = 0.5 * np.exp(-a * z)
        else:
            from scipy.special import erfc
            p = 0.5 * erfc(np.sqrt(a * z))
        u = cfg.generator(worker=99).random(n)
        return _bernoulli(u < p, n)
    raise ValueError(f"unknown Monte Carlo metric kind {kind!r}")
