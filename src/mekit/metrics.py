"""Closed-form performance metrics over ME-distributed effective channels:
outage probability and capacity, ARQ / truncated-HARQ / persistent-HARQ
throughput, bidirectional-relaying sum-throughput, effective capacity,
BER/PEP for the standard binary modulations, diversity gain, and parametric
rate optimization.

Threshold conventions: every entry point takes an explicit decoding
threshold.  Use :func:`theta_absolute` (``e^R - 1``, channel as-is) or
:func:`theta_unit_mean` (``(e^R - 1)/S`` against the unit-mean channel);
mixing them up silently is the classic factor-of-S bug, hence no implicit
derivation anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, matfun
from .algebra import _Node, _triple
from .medist import (MEDist, _chain, _count, _positive, _probability,
                     _threshold, _threshold_of_rate)

__all__ = [
    "MetricResult",
    "Optimum",
    "arq_throughput",
    "ber_coherent",
    "ber_noncoherent",
    "diversity_gain",
    "diversity_gain_numeric",
    "eff_capacity_me_rate",
    "eff_capacity_shannon",
    "ergodic_capacity",
    "harq_persistent_throughput",
    "harq_truncated_throughput",
    "mimo_high_snr_outage",
    "ncbr_throughput",
    "optimize_rate",
    "outage",
    "outage_capacity",
    "pep",
    "theta_absolute",
    "theta_unit_mean",
]


def theta_absolute(R: float) -> float:
    """Decoding threshold e^R - 1 for a channel used at its natural scale."""
    return _threshold_of_rate(R)


def theta_unit_mean(R: float, S: float) -> float:
    """Decoding threshold (e^R - 1)/S for the unit-mean channel convention."""
    return _threshold_of_rate(R, S)


@dataclass(frozen=True)
class MetricResult:
    """Metric value plus the evaluation path and numeric diagnostics."""

    value: float
    path: str
    imag_residual: float = 0.0
    quad_error: float | None = None
    notes: tuple[str, ...] = ()

    def __float__(self):
        return self.value


def _result(value, path, quad_error=None):
    value = complex(value)
    resid = abs(value.imag)
    if resid > 1e-8 * max(abs(value), 1e-12):
        raise ValueError(
            f"{path}: imaginary residual {resid:.3e} too large for value {value}")
    return MetricResult(value=value.real, path=path, imag_residual=resid,
                        quad_error=quad_error)


# -- outage ----------------------------------------------------------------


def outage(channel, theta: float) -> MetricResult:
    """Outage probability P(Z <= theta): the channel's cdf, by the route
    rule of :meth:`~mekit.medist.MEDist._partial_cdfs` (valid for singular
    generators); on an unclosed max or min node, the product form of its
    parts' cdfs."""
    d = channel if isinstance(channel, _Node) else _triple(channel)
    return _result(d.cdf(_threshold(theta)), "closed_form")


def outage_capacity(channel, q_target: float) -> MetricResult:
    """Rate C with P(ln(1 + Z) < C) = q_target: safeguarded Newton on
    ln F(e^C - 1) = ln q_target in ln C, where a cdf that rises like a
    power of C near 0 is nearly linear; each step reads (F, f) from one
    :meth:`~mekit.medist.MEDist._cdf_pdf` (on an unclosed max or min node,
    the product rule over its parts' pairs).  C = 1, 2, 4, ... brackets the
    root (a target still out of reach at C = 512, a threshold of 1e222, is
    refused), Newton starts from the end of the bracket nearer to it in
    ln F, and a step that leaves the bracket bisects it instead.  The steps
    stop at one of at most 4 eps C (the tolerance brentq had), once the
    bracket is that narrow, or where the next step is sure to be that
    small or to follow the rounding of F."""
    d = channel if isinstance(channel, _Node) else _triple(channel)
    q_target = _probability(q_target, "q_target")
    lo, C = 0.0, 1.0
    F, f = d._cdf_pdf(math.expm1(C))
    below = None
    while F < q_target:
        if C >= 512.0:
            raise ValueError("outage capacity target unattainable")
        lo, below = C, (F, f)
        C *= 2.0
        F, f = d._cdf_pdf(math.expm1(C))
    hi, last = C, math.inf
    if below and below[0] > 0.0 and (math.log(q_target / below[0])
                                     < math.log(F / q_target)):
        C, (F, f) = lo, below
    for _ in range(100):
        if F == q_target:
            return _result(C, "closed_form")
        if F < q_target:
            lo = C
        else:
            hi = C
        # d ln F / d ln C = C e^C f / F; with no slope to read, bisect
        slope = C * math.exp(C) * f / F if F > 0.0 else 0.0
        nxt = (C * math.exp(min(math.log(q_target / F) / slope, 700.0))
               if slope > 0.0 else math.nan)
        step = abs(nxt - C)
        # done at a step within the bracket of at most 4 eps C, or where the
        # last two shrink quadratically to a next one below eps C, or where
        # they follow the rounding of F (no longer halving, below 1e-12 C)
        if lo <= nxt <= hi and (
                step <= 4.0 * matfun._EPS * nxt
                or step ** 3 <= matfun._EPS * nxt * min(last, nxt) ** 2
                or step <= 1e-12 * nxt and 2.0 * step >= last):
            return _result(nxt, "closed_form")
        if not lo < nxt < hi:
            if hi - lo <= 4.0 * matfun._EPS * hi:
                return _result(C, "closed_form")
            nxt, step = 0.5 * (lo + hi), math.inf
        C, last = nxt, step
        F, f = d._cdf_pdf(math.expm1(C))
    raise ValueError(
        f"outage capacity: no convergence in 100 steps near C = {C!r}")


# -- ARQ / HARQ ------------------------------------------------------------


def arq_throughput(channel, R: float, theta: float) -> MetricResult:
    """ARQ throughput R (1 - P(Z <= theta)), the outage read by
    :func:`outage`."""
    R = _positive(R, "R")
    return _result(R * (1.0 - outage(channel, theta).value),
                   "closed_form")


def harq_truncated_throughput(channel, R: float, K: int,
                              theta: float) -> MetricResult:
    """Truncated-HARQ throughput with at most K transmissions and mutual-
    information accumulation:

        R (1 - F_K(theta)) / (1 + sum_{k<K} F_k(theta)),

    with all partial-sum cdfs F_k by the route rule of
    :meth:`~mekit.medist.MEDist._partial_cdfs`; the uniformized route
    builds no K-fold block.
    """
    R, d = _positive(R, "R"), _triple(channel)
    F = d._partial_cdfs(_threshold(theta), algebra._fold_count(d, K))
    denom = 1.0 + float(np.sum(F[:-1]))
    return _result(R * (1.0 - F[-1]) / denom, "closed_form")


def _renewal_generator(channel, N: int):
    """Renewal triple (x_N, G, z_N) of the N-fold sum of ``channel``.

    The N-fold chain (x_N, Y_N, z_N), z_N the base z in the last block,
    gains the rank-one corner z_N x_N: G = Y_N + z_N x_N.  The renewal
    density of ME(x, Y, z) is x e^{t(Y + z x)} z (Asmussen & Bladt 1996),
    so the mean transmission count at theta is
    1 + int_0^theta x_N e^{tG} z_N dt.
    """
    d = _triple(channel)
    x, Y, z = _chain([d] * algebra._fold_count(d, N))
    return x, Y + np.outer(z, x), z


def harq_persistent_throughput(channel, R: float, theta: float,
                               diversity: int = 1,
                               method: str = "companion") -> MetricResult:
    """Persistent-HARQ (no retransmission limit) throughput R / N(theta),
    N(theta) the mean transmission count.

    ``channel`` is any channel form that stands for a triple
    (:func:`~mekit.algebra._triple`); with ``diversity`` N > 1 each
    transmission sees the N-fold sum.  Both methods take the integral row
    of :func:`matfun.expm_integral`.  ``companion`` integrates the renewal
    density of the N-fold block generator G (see
    :func:`_renewal_generator`); ``roots_of_unity`` splits
    the block-circulant G by the block DFT into the blocks Y + w^n z x,
    w = e^{2 pi i/N}, exponentiates their complex block-diagonal with rows
    w^n x / N, and must give a real result.
    """
    R, theta = _positive(R, "R"), _threshold(theta)
    N = _count(diversity, "diversity")
    if method == "companion":
        x, G, z = _renewal_generator(channel, N)
        mean_tx = 1.0 + matfun.expm_integral(x, G, theta)[0] @ z
        return _result(R / mean_tx, "closed_form")
    if method == "roots_of_unity":
        d, n = _triple(channel), np.arange(N)
        w = np.exp(2j * np.pi * n / N)
        B = np.zeros((N, d.d, N, d.d), dtype=complex)
        B[n, :, n, :] = d.Y + w[:, None, None] * d.z[:, None] * d.x
        row = matfun.expm_integral((w[:, None] * d.x).ravel() / N,
                                   B.reshape(N * d.d, -1), theta)[0]
        E = np.sum(row.reshape(N, -1) @ d.z)
        return _result(R / (1.0 + E), "roots_of_unity")
    raise ValueError(f"unknown method {method!r}")


def ncbr_throughput(links: dict, R12: float, R21: float) -> MetricResult:
    """End-to-end sum-throughput of 3-phase network-coded bidirectional
    relaying.  ``links`` maps the hop keys "13", "32", "23", "31" to
    effective-channel distributions; each direction succeeds when both its
    hops clear the threshold e^R - 1."""
    need = {"13", "32", "23", "31"}
    if set(links) != need:
        raise ValueError(f"links must have keys {sorted(need)}")
    th12 = theta_absolute(R12)
    th21 = theta_absolute(R21)
    E13 = outage(links["13"], th12).value
    E32 = outage(links["32"], th12).value
    E23 = outage(links["23"], th21).value
    E31 = outage(links["31"], th21).value
    T = (R12 * ((1.0 - E13) * (1.0 - E32))
         + R21 * ((1.0 - E23) * (1.0 - E31))) / 3.0
    return _result(T, "closed_form")


# -- effective capacity ------------------------------------------------------


def eff_capacity_me_rate(channel, theta: float) -> MetricResult:
    """Effective capacity -(1/theta) ln E{e^{-theta zeta}} for an
    ME-distributed service rate zeta: the log-transform at s = theta.  ln L
    is read from L = L(theta) where L <= 1/2, and elsewhere, where it would
    cancel, as log1p(-T): T = 1 - L = theta x (theta I - Y)^{-1} u with
    u = -Y^{-1} z the channel's ``_u``, as x u = L(0) = 1."""
    theta, d = _positive(theta, "theta"), _triple(channel)
    L = d.lt(theta)
    if L <= 0.5:
        return _result(-math.log(L) / theta, "closed_form")
    T = theta * (d.x @ np.linalg.solve(theta * np.eye(d.d) - d.Y, d._u))
    return _result(-math.log1p(-T) / theta, "closed_form")


# Euler's gamma, then zeta(2), ..., zeta(8): ln Gamma(1 + t) is the sum of
# (-1)^k c_k t^k / k over these
_ZETA = (0.5772156649015329, 1.6449340668482264, 1.2020569031595942,
         1.0823232337111381, 1.03692775514337, 1.0173430619844492,
         1.008349277381923, 1.0040773561979444)


def _shannon_expectation_quad(d: MEDist, theta: float, tol=1e-12):
    """-ln E{(1+Z)^{-theta}} via the gamma-kernel integral
    E = int u^{theta-1} e^{-u} F(u) du / Gamma(theta).

    The kernel's u^{theta-1} endpoint singularity is peeled off
    analytically (it integrates to 1/theta against h(0) = 1), which keeps
    the evaluation stable down to theta ~ 1e-5 where the raw integral
    suffers catastrophic cancellation.  The rest of [0, 1] is integrated
    as int_0^inf e^{-theta y} (h(e^{-y}) - 1) dy (u = e^{-y}), whose
    integrand decays like e^{-(1+theta) y} with no endpoint singularity
    for any theta; the outer kernel on [1, inf) is taken in logs.  Then
    -ln E = ln Gamma(1 + theta) - log1p(theta (inner + outer)), with
    ln Gamma(1 + theta) from its series -gamma theta + sum_{k=2..8}
    (-1)^k zeta(k) theta^k / k below theta = 0.01, where 1 + theta would
    round.  A theta at which Gamma(theta + 1) overflows a double is refused.
    """
    if not theta <= 170.62437695630272:
        raise ValueError(f"theta = {theta} overflows Gamma(theta + 1)")
    lgam = (math.lgamma(1.0 + theta) if theta >= 0.01 else sum(
        (-1) ** k * c * theta ** k / k for k, c in enumerate(_ZETA, 1)))

    def h(u):
        return np.exp(-u) * d.lt(u)

    inner, e1 = matfun.quad(
        lambda y: np.exp(-theta * y) * (h(np.exp(-y)) - 1.0),
        0.0, np.inf, tol=tol)
    outer, e2 = matfun.quad(
        lambda u: np.exp((theta - 1.0) * np.log(u) - u) * d.lt(u),
        1.0, np.inf, tol=tol)
    return lgam - math.log1p(theta * (inner + outer)), e1 + e2


def eff_capacity_shannon(channel, theta: float) -> MetricResult:
    """Effective capacity -(1/theta) ln E{(1+Z)^{-theta}} of the Shannon
    service rate ln(1 + Z), Z the ME-distributed SNR, by the gamma-kernel
    integral of :func:`_shannon_expectation_quad`."""
    theta = _positive(theta, "theta")
    neg_log_E, err = _shannon_expectation_quad(_triple(channel), theta)
    return _result(neg_log_E / theta, "quadrature", quad_error=err)


def ergodic_capacity(channel) -> MetricResult:
    """Ergodic capacity E{ln(1+Z)} as one transform integral.

    Frullani's ln(1+z) = int_0^inf (e^{-u} - e^{-u(1+z)})/u du gives
    E{ln(1+Z)} = int_0^inf e^{-u} (1 - L(u))/u du with L(u) = E{e^{-uZ}}
    the Laplace transform, with (1 - L(u))/u read as x (uI - Y)^{-1} w,
    w = -Y^{-1} z (the channel's ``_u``): no cancelling where uZ is small,
    the mean at u = 0, and its row x (uI - Y)^{-1}, formed first, does not
    underflow on a tiny mean.  As E{ln(1+Z)} <= E{Z}, the quadrature's
    absolute floor is 1e-10 min(1, mean); ``quad_error`` is its estimate.
    """
    d = _triple(channel)

    def f(u):
        A = u[:, None, None] * np.eye(d.d) - d.Y
        return np.exp(-u) * (np.linalg.solve(A.mT, d.x) @ d._u)

    mean = f(np.zeros(1))[0]
    val, err = matfun.quad(f, 0.0, np.inf, tol=1e-10 * min(1.0, mean))
    return _result(val, "quadrature", quad_error=err)


# -- BER / PEP ---------------------------------------------------------------


def ber_noncoherent(channel, a: float) -> MetricResult:
    """BER for DBPSK (a=1) / noncoherent FSK (a=1/2) under symbol-rate
    fading: (1/2) x (aI - Y)^{-1} z = F(a)/2."""
    return _result(0.5 * _triple(channel).lt(_positive(a, "a")), "closed_form")


def _craig_product(branches, t):
    s2 = np.sin(t) ** 2
    out = np.ones_like(t)
    for d, a in branches:
        out *= d.lt(a / s2)
    return out


def ber_coherent(channel, a: float) -> MetricResult:
    """BER for coherent BPSK (a=1) / FSK (a=1/2) under symbol-rate fading,
    x [S (I + S)]^{-1} z / (2a) with S = (I - Y/a)^{1/2}.

    This is (1/2)(1 + x Y^{-1} S^{-1} z) rewritten with 1 = -x Y^{-1} z
    and S^{-1} - I = S^{-1} (Y/a) (I + S)^{-1}, so no O(1) terms cancel and
    the tail keeps its relative accuracy.  A real eigenvalue of Y at or
    above a raises :class:`~mekit.matfun.BranchCutError`.  :func:`pep` of
    the single branch ``[(channel, a)]`` is the same BER by Craig
    quadrature.
    """
    a, d = _positive(a, "a"), _triple(channel)
    S = matfun.mat_frac_power(np.eye(d.d) - d.Y / a, 0.5)
    val = d.x @ np.linalg.solve(S + S @ S, d.z) / (2.0 * a)
    return _result(val, "closed_form")


def pep(branches) -> MetricResult:
    """Pairwise error probability Q(sqrt(2 sum a_n Z_n)) averaged over
    independent ME-distributed branch SNRs, by the Craig representation:

        (1/pi) int_0^{pi/2} prod_n F_n(a_n / sin^2 t) dt.
    """
    branches = [(_triple(d), float(a)) for d, a in branches]
    if not branches:
        raise ValueError("branch list must not be empty")
    val, err = matfun.quad(lambda t: _craig_product(branches, t),
                           0.0, math.pi / 2.0)
    return _result(val / math.pi, "quadrature", quad_error=err)


def diversity_gain(channel) -> int:
    """High-SNR BER slope r, the order of the first nonzero Markov
    parameter x Y^(r-1) z.

    For a phase-type triple (:attr:`MEDist.phase_type`) r is 1 plus the
    shortest path from supp(x) to supp(z) along the nonzero off-diagonal
    entries of Y, found breadth first: shorter walks do not reach supp(z),
    and those of that length take only off-diagonal steps, all positive,
    so their sum cannot cancel.  Any other triple returns its order d, the
    denominator degree of the transform when the representation is
    minimal."""
    d = _triple(channel)
    if not d.phase_type:
        return d.d
    step = (d.Y > 0) & ~np.eye(d.d, dtype=bool)
    reached = d.x > 0
    for r in range(1, d.d + 1):
        if (reached & (d.z > 0)).any():
            return r
        reached = reached | step[reached].any(axis=0)
    return d.d


def diversity_gain_numeric(channel_um) -> float:
    """Numeric -ln BER / ln S slope of the DBPSK BER between S = 1e3 and
    1e5 for a unit-mean channel (cross-check of :func:`diversity_gain`)."""
    d = _triple(channel_um)
    b_lo = ber_noncoherent(d.scale_mean(1e3), 1.0).value
    b_hi = ber_noncoherent(d.scale_mean(1e5), 1.0).value
    return (math.log(b_lo) - math.log(b_hi)) / math.log(100.0)


# -- parametric rate optimization -------------------------------------------


@dataclass(frozen=True)
class Optimum:
    """One point of the parametric optimal-rate curve."""

    theta: float
    g: float
    R_opt: float
    T_opt: float
    S: float
    boundary: bool
    notes: tuple[str, ...] = ()


def _optimum_from_g(theta, g, f_value):
    """Map the auxiliary ratio g = f/(theta f') to the optimal rate R*, the
    positive root of R = g (1 - e^{-R}); g <= 1 has no interior optimum
    (R* = 0).  Newton's steps on the convex R + g expm1(-R) from
    min(g, 2(g - 1)), right of the root, fall monotonically; they stop once
    a step no longer lowers R.  An R* whose mean SNR (e^R* - 1)/theta
    overflows a double is refused by name."""
    if g <= 1.0 + 1e-12:
        return Optimum(theta, g, 0.0, 0.0, 0.0, boundary=True,
                       notes=("no interior optimum (g <= 1)",))
    R = min(g, 2.0 * (g - 1.0))
    for _ in range(64):
        step = (R + g * math.expm1(-R)) / (1.0 - g * math.exp(-R))
        if not R - step < R:
            break
        R -= step
    try:
        S = math.expm1(R) / theta
    except OverflowError:
        S = math.inf
    if math.isinf(S):
        raise ValueError(
            f"Theta = {float(theta):.17g}: the optimal rate "
            f"R* = {float(R):.17g} needs a mean SNR (e^R* - 1)/Theta that "
            f"overflows a double")
    return Optimum(theta, g, R, R / f_value, S, boundary=False)


def optimize_rate(metric: str, channel, thetas) -> list[Optimum]:
    """Parametric throughput optimization over the auxiliary threshold
    parameter, for a unit-mean channel with theta = (e^R - 1)/S.

    Supported metrics: ``arq`` (channel: any unit-mean channel form; each
    theta reads (F, f) by :meth:`~mekit.medist.MEDist._cdf_pdf`, the route
    :func:`outage_capacity` takes), ``harq_persistent`` (channel: any
    unit-mean channel form; each theta reads the mean retransmission count
    and the renewal density as the pair of :func:`matfun.expm_integral`
    over the renewal triple of :func:`_renewal_generator`) and
    ``arq_interference`` (channel: interference scenario with unit-mean
    signal; handled in the bivariate module and dispatched here).
    Rows where the auxiliary ratio g <= 1 are flagged as boundary points.
    Every theta must be positive: g has theta in its denominator.
    """
    thetas = [_positive(th, "theta") for th in thetas]
    if metric == "arq":
        # T = R (1 - F(theta)), F' the density
        d = _triple(channel)
        if abs(d.mean - 1.0) > 1e-8:
            raise ValueError("optimize_rate expects a unit-mean channel")
        return [_optimum_from_g(th, (1.0 - F) / (th * f), 1.0 / (1.0 - F))
                for th, (F, f) in zip(thetas, map(d._cdf_pdf, thetas))]
    if metric == "harq_persistent":
        # T = R / (1 + n(theta)), n the mean retransmission count and n'
        # the renewal density
        x, G, z = _renewal_generator(channel, 1)
        pairs = (matfun.expm_integral(x, G, th) @ z for th in thetas)
        return [_optimum_from_g(th, (1.0 + n) / (th * f), 1.0 + n)
                for th, (n, f) in zip(thetas, pairs)]
    if metric == "arq_interference":
        from . import bivariate
        out = []
        for th in thetas:
            g, P = bivariate.interference_g_theta(channel, th)
            out.append(_optimum_from_g(th, g, 1.0 / P))
        return out
    raise ValueError(f"unknown optimization metric {metric!r}")


# -- high-SNR MIMO outage asymptote ------------------------------------------


def mimo_high_snr_outage(N: int, R: float, t: float) -> MetricResult:
    """High-SNR outage asymptote for an N x N MIMO channel capacity.

    The asymptotic capacity transform is rational with positive poles:
    t^{-N^2} prod_{n<N} n! * prod_{n=1..N} (s-n)^{-n}
    prod_{n=N+1..2N-1} (s-n)^{-(2N-n)}; the outage is its integral over
    (0, R), one augmented exponential of the upper-bidiagonal pole matrix.
    The SNR t must be positive and finite.  This is an asymptote in t, not
    a probability: it is not clipped, and at small t it exceeds 1 (2.2e11
    at N = 2, t = 1e-3).  A t at which it overflows a double is refused.
    """
    N, R, t = _count(N, "N"), _threshold(R, "R"), _positive(t, "t")
    if N < 2:
        raise ValueError("N must be at least 2")
    scale = 1.0
    for n in range(N):
        scale *= math.factorial(n)
    row = matfun.expm_row(None, R * mimo_asymptote_generator(N))
    try:
        val = t ** (-N * N) * scale * float(row[-1])
    except OverflowError:
        val = math.inf
    if val == math.inf:
        raise ValueError(f"t = {t!r}: at N = {N} the asymptote, which grows "
                         "like t^(-N^2), overflows a double")
    return _result(val, "closed_form")


def mimo_asymptote_generator(N: int) -> np.ndarray:
    """The augmented pole matrix used by :func:`mimo_high_snr_outage`."""
    N = int(N)
    poles = []
    for n in range(1, N + 1):
        poles.extend([float(n)] * n)
    for n in range(N + 1, 2 * N):
        poles.extend([float(n)] * (2 * N - n))
    m = len(poles)  # == N^2
    e1 = np.zeros(m)
    e1[0] = 1.0
    return matfun.augmented(e1, np.diag(poles) + np.diag(np.ones(m - 1), 1))
