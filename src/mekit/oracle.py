"""Independent verification: reproducible sampling from ME distributions,
Monte Carlo simulation of every closed-form metric, and numeric reference
integrals.  Everything here is deliberately simple and independent of the
closed-form paths it cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from . import matfun
from .medist import MEDist

__all__ = [
    "MCEstimate",
    "RngConfig",
    "mc_metric",
    "numeric_convolve",
    "pdf_on_grid",
    "sample",
    "wishart_region_outage_quad",
]


@dataclass(frozen=True)
class RngConfig:
    """Seeded sampling configuration; identical seeds give bit-identical
    streams.  ``generator(worker)`` derives independent sub-streams."""

    seed: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample count must be >= 1")

    def generator(self, worker: int | None = None) -> np.random.Generator:
        if worker is None:
            return np.random.default_rng(np.random.SeedSequence(self.seed))
        return np.random.default_rng(np.random.SeedSequence([self.seed, worker]))


def _dist(channel) -> MEDist:
    dist = getattr(channel, "dist", channel)
    if not isinstance(dist, MEDist):
        raise TypeError(f"expected a distribution, got {type(channel)!r}")
    return dist


# -- fast cdf machinery ---------------------------------------------------------


def _spectral_cdf(dist: MEDist):
    """Vectorized cdf through the eigendecomposition of the augmented
    generator; ``None`` when the generator is defective or badly
    conditioned."""
    dec = matfun.eig_decomp(matfun.augmented(dist.x, dist.Y))
    if not dec.diagonalizable or dec.condition > 1e10:
        return None
    V = dec.vectors
    zvec = np.concatenate([[0.0], dist.z]).astype(complex)
    w = V[0, :] * np.linalg.solve(V, zvec)
    lam = dec.eigenvalues

    def cdf(ts):
        ts = np.asarray(ts, dtype=float)
        return np.real(np.exp(ts[..., None] * lam) @ w)

    return cdf


def _upper_bracket(dist: MEDist, cdf_vec):
    # 1e-9 headroom absorbs accumulated roundoff in the grid surrogate
    T = dist.t_max()
    for _ in range(60):
        if float(cdf_vec(np.array([T]))[0]) > 1.0 - 1e-9:
            return T
        T *= 2.0
    raise ValueError("cdf does not approach 1; distribution looks invalid")


def _pchip_cdf(dist: MEDist, n: int = 1 << 16):
    """Monotone-interpolated cdf surrogate on a fine uniform grid, for
    generators whose eigendecomposition is defective or ill-conditioned.
    Interpolation error is O(h^4), ~1e-11 at this resolution."""
    from scipy.interpolate import PchipInterpolator
    ts, vals = dist.cdf_grid(n)
    vals = np.minimum.accumulate(np.clip(vals, 0.0, 1.0)[::-1])[::-1]
    vals = np.maximum.accumulate(vals)
    interp = PchipInterpolator(ts, vals, extrapolate=False)
    top = vals[-1]
    T = ts[-1]

    def cdf(x):
        out = interp(np.clip(x, 0.0, T))
        return np.where(np.asarray(x) >= T, top, out)

    return cdf


# find_root keeps several work arrays per element; solving in fixed chunks
# bounds its memory for the 10^5-10^6 probabilities of one sample call
_ROOT_CHUNK = 1 << 16


def _inverse_cdf_grid(dist: MEDist, probs, tol: float = 1e-10):
    """Inverse cdf at the given probabilities: each probability is
    bracketed on a 4096-point table of the cdf and solved by
    ``scipy.optimize.elementwise.find_root`` (Chandrupatla's bracketing
    method) to |F(t) - p| <= tol / 10, against the spectral cdf when the
    augmented generator is diagonalizable and a monotone interpolant
    otherwise.  Raises when a root is missing or misses ``tol``
    (non-monotone cdf)."""
    from scipy.optimize.elementwise import find_root
    probs = np.asarray(probs, dtype=float)
    cdf_vec = _spectral_cdf(dist) or _pchip_cdf(dist)
    T = _upper_bracket(dist, cdf_vec)
    grid = np.linspace(0.0, T, 4096)
    Fg = np.maximum.accumulate(cdf_vec(grid))
    # quantiles beyond the representable tail clamp to the horizon, and
    # those below the roundoff of F(0) to 0, so every bracket is valid
    probs = np.clip(probs, Fg[0], float(cdf_vec(np.array([T]))[0]) - 1e-12)
    k = np.clip(np.searchsorted(Fg, probs), 1, grid.size - 1)
    t = np.empty_like(probs)
    resid = np.empty_like(probs)
    for s in range(0, probs.size, _ROOT_CHUNK):
        c = slice(s, s + _ROOT_CHUNK)
        res = find_root(lambda ts, p: cdf_vec(ts) - p,
                        (grid[k[c] - 1], grid[k[c]]), args=(probs[c],),
                        tolerances={"fatol": 0.1 * tol})
        t[c], resid[c] = res.x, np.abs(res.f_x)
    # an invalid bracket gives nan, which the negated test catches
    if not np.all(resid <= max(tol, 1e-9)):
        raise ValueError(
            f"inverse cdf failed to converge (residual {float(np.max(resid)):.2e}); "
            "cdf may be non-monotone (invalid distribution)")
    return t


def _recognize_exponential(dist: MEDist):
    if dist.d != 1:
        return None
    rate = -float(dist.Y[0, 0])
    if rate <= 0:
        return None
    if abs(float(dist.x[0] * dist.z[0]) - rate) > 1e-9 * rate:
        return None
    return rate


def _recognize_erlang(dist: MEDist):
    lam = np.linalg.eigvals(dist.Y)
    if np.max(np.abs(lam.imag)) > 1e-10 * np.max(np.abs(lam)):
        return None
    rate = -float(np.mean(lam.real))
    if rate <= 0 or np.max(np.abs(lam.real + rate)) > 1e-9 * rate:
        return None
    for s in (0.5 * rate, rate, 2.7 * rate):
        if abs(dist.lt(s) - (rate / (rate + s)) ** dist.d) > 1e-10:
            return None
    return rate


def sample(channel, cfg: RngConfig, worker: int | None = None) -> np.ndarray:
    """Draw ``cfg.n`` iid samples.

    Exponential and integer-shape gamma forms are recognized and drawn
    directly; anything else goes through inverse-cdf root finding on the
    augmented cdf (to ~1e-10 in probability), which raises when the cdf is
    numerically non-monotone.
    """
    dist = _dist(channel)
    rng = cfg.generator(worker)
    rate = _recognize_exponential(dist)
    if rate is not None:
        return rng.exponential(scale=1.0 / rate, size=cfg.n)
    rate = _recognize_erlang(dist)
    if rate is not None:
        return rng.gamma(shape=dist.d, scale=1.0 / rate, size=cfg.n)
    _, pv = dist.pdf_grid(256)
    if np.min(pv) < -1e-6:
        raise ValueError(
            "density goes negative; the cdf is non-monotone and cannot "
            "be inverted (invalid distribution)")
    u = rng.random(cfg.n)
    return _inverse_cdf_grid(dist, u)


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
    Returns (transmissions, success)."""
    n = cfg.n
    rng_worker = worker
    # persistent runs extend rare unfinished packets below, so a small
    # initial block wastes fewer draws than provisioning for the tail
    block = 8 if math.isinf(K) else int(K)
    acc = sample(dist, RngConfig(cfg.seed, n * block), worker=rng_worker)
    acc = acc.reshape(n, block).cumsum(axis=1)
    tx = np.full(n, block, dtype=np.int64)
    done = acc[:, -1] > theta
    first = np.argmax(acc > theta, axis=1)
    tx[done] = first[done] + 1
    if math.isinf(K):
        # extend the rare unfinished packets until they succeed
        unfinished = np.flatnonzero(~done)
        total = acc[:, -1]
        extra_round = 1
        while unfinished.size:
            more = sample(dist, RngConfig(cfg.seed, unfinished.size * block),
                          worker=rng_worker + 1000 + extra_round)
            more = more.reshape(unfinished.size, block).cumsum(axis=1)
            rows = total[unfinished, None] + more
            now_done = rows[:, -1] > theta
            first = np.argmax(rows > theta, axis=1)
            tx[unfinished[now_done]] += first[now_done] + 1
            tx[unfinished[~now_done]] += block
            total[unfinished] = rows[:, -1]
            unfinished = unfinished[~now_done]
            extra_round += 1
            if extra_round > 10_000:
                raise RuntimeError("persistent HARQ simulation did not finish")
        success = np.ones(n, dtype=bool)
    else:
        success = done
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
    """
    n = cfg.n
    if kind == "outage":
        z = sample(scenario["dist"], cfg)
        return _bernoulli(z <= scenario["theta"], n)
    if kind == "arq":
        z = sample(scenario["dist"], cfg)
        return _bernoulli(z > scenario["theta"], n, scale=scenario["R"])
    if kind in ("harq_truncated", "harq_persistent"):
        K = scenario.get("K", math.inf) if kind == "harq_truncated" else math.inf
        tx, success = _partial_sum_transmissions(
            _dist(scenario["dist"]), scenario["theta"], K, cfg)
        return _ratio_estimate(success.astype(float), tx.astype(float), n,
                               scale=scenario["R"])
    if kind == "ncbr":
        links = scenario["links"]
        R12, R21 = scenario["R12"], scenario["R21"]
        th12, th21 = math.expm1(R12), math.expm1(R21)
        zs = {key: sample(links[key], cfg, worker=i)
              for i, key in enumerate(("13", "32", "23", "31"))}
        s12 = (zs["13"] > th12) & (zs["32"] > th12)
        s21 = (zs["23"] > th21) & (zs["31"] > th21)
        v = (R12 * s12 + R21 * s21) / 3.0
        return MCEstimate(float(np.mean(v)),
                          float(np.std(v, ddof=1) / math.sqrt(n)), n)
    if kind == "arq_interference":
        R = scenario["R"]
        theta = scenario.get("theta", math.expm1(R))
        z = sample(scenario["signal"], cfg, worker=0)
        zi = np.zeros(n)
        for i, interferer in enumerate(scenario["interferers"]):
            zi += sample(interferer, cfg, worker=i + 1)
        return _bernoulli(z > theta * (1.0 + zi), n, scale=R)
    if kind == "ber":
        z = sample(scenario["dist"], cfg, worker=0)
        a = scenario["a"]
        if scenario.get("detection", "noncoherent") == "noncoherent":
            p = 0.5 * np.exp(-a * z)
        else:
            p = 0.5 * erfc(np.sqrt(a * z))
        u = cfg.generator(worker=99).random(n)
        return _bernoulli(u < p, n)
    raise ValueError(f"unknown Monte Carlo metric kind {kind!r}")


# -- numeric reference integrals --------------------------------------------------


def pdf_on_grid(dist: MEDist, ts: np.ndarray) -> np.ndarray:
    """Density on a uniform ascending grid starting at 0
    (:meth:`MEDist.pdf_grid`)."""
    ts = np.asarray(ts, dtype=float)
    h = ts[1] - ts[0]
    if ts[0] != 0.0 or np.max(np.abs(np.diff(ts) - h)) > 1e-9 * h:
        raise ValueError("grid must be uniform and start at 0")
    return dist.pdf_grid(ts.size, ts[-1])[1]


def numeric_convolve(d1, d2, ts: np.ndarray) -> np.ndarray:
    """Trapezoid-rule convolution of two densities on a uniform grid:
    an oracle for the block-matrix convolution closure."""
    f1 = pdf_on_grid(_dist(d1), ts)
    f2 = pdf_on_grid(_dist(d2), ts)
    h = ts[1] - ts[0]
    full = np.convolve(f1, f2)[:ts.size]
    corr = 0.5 * (f1[0] * f2 + f2[0] * f1)
    return h * (full - corr)


def wishart_region_outage_quad(R: float, tol: float = 1e-12) -> float:
    """2-D quadrature of e^{-z1-z2}(z1-z2)^2 over the outage region
    {0 <= z1 <= z2, (1+z1)(1+z2) <= e^R}: the independent oracle for the
    2x2 spatial-multiplexing outage."""
    TH = math.exp(R)

    def inner(z1):
        hi = TH / (1.0 + z1) - 1.0
        if hi <= z1:
            return 0.0
        val, _ = matfun.quad(
            lambda z2: math.exp(-z1 - z2) * (z1 - z2) ** 2, z1, hi, tol=tol)
        return val

    val, _ = matfun.quad(inner, 0.0, math.sqrt(TH) - 1.0, tol=tol)
    return val
