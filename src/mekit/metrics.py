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
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, lambertw

from . import algebra, matfun
from .medist import MEDist, RationalLT, from_rational_lt

__all__ = [
    "LinkParams",
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
    "harq_persistent_erlang_shifted",
    "harq_truncated_throughput",
    "lambert_w0",
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
    return math.expm1(R)


def theta_unit_mean(R: float, S: float) -> float:
    """Decoding threshold (e^R - 1)/S for the unit-mean channel convention."""
    return math.expm1(R) / S


@dataclass(frozen=True)
class LinkParams:
    """Link-level parameters shared by the metric entry points."""

    R: float = 1.0
    S: float = 1.0
    K: int = 1
    theta: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if self.R <= 0 or self.S <= 0 or self.theta <= 0:
            raise ValueError("R, S and theta must be positive")
        if self.K < 1 or self.K != int(self.K):
            raise ValueError("K must be a positive integer")

    def theta_abs(self) -> float:
        return theta_absolute(self.R)

    def theta_um(self) -> float:
        return theta_unit_mean(self.R, self.S)


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


def _result(value, path, quad_error=None, rtol=1e-8):
    value = complex(value)
    resid = abs(value.imag)
    if resid > rtol * max(abs(value), 1e-12):
        raise ValueError(
            f"{path}: imaginary residual {resid:.3e} too large for value {value}")
    return MetricResult(value=value.real, path=path, imag_residual=resid,
                        quad_error=quad_error)


def _dist(channel) -> MEDist:
    if isinstance(channel, algebra.EffectiveChannel):
        return channel.dist
    if isinstance(channel, RationalLT):
        return from_rational_lt(channel)
    return channel


# -- outage ----------------------------------------------------------------


def outage(channel, theta: float) -> MetricResult:
    """Outage probability P(Z <= theta): the augmented cdf (valid for
    singular generators)."""
    d = _dist(channel)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return _result(d.cdf(theta), "closed_form")


def outage_capacity(channel, q_target: float) -> MetricResult:
    """Rate C with P(ln(1 + Z) < C) = q_target: Brent's method on the
    closed-form outage over a doubling bracket, stopped by brentq's own
    relative tolerance (4 eps)."""
    from scipy.optimize import brentq

    d = _dist(channel)
    if not 0.0 < q_target < 1.0:
        raise ValueError("q_target must lie strictly between 0 and 1")
    f = lambda C: outage(d, math.expm1(C)).value - q_target
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("outage capacity target unattainable")
    return _result(brentq(f, 0.0, hi, xtol=1e-300), "closed_form")


# -- ARQ / HARQ ------------------------------------------------------------


def arq_throughput(channel, R: float, theta: float) -> MetricResult:
    """ARQ throughput R (1 - P(Z <= theta)), sharing the outage
    exponential."""
    d = _dist(channel)
    if R <= 0:
        raise ValueError("R must be positive")
    return _result(R * (1.0 - outage(d, theta).value), "closed_form")


def harq_truncated_throughput(channel, R: float, K: int,
                              theta: float) -> MetricResult:
    """Truncated-HARQ throughput with at most K transmissions and mutual-
    information accumulation:

        R (1 - F_K(theta)) / (1 + sum_{k<K} F_k(theta)),

    with all partial-sum cdfs F_k taken from one block exponential.
    """
    d = _dist(channel)
    if R <= 0:
        raise ValueError("R must be positive")
    block = algebra.kfold_block(d, K)
    F = block.partial_cdfs(theta)
    denom = 1.0 + float(np.sum(F[:-1]))
    return _result(R * (1.0 - F[-1]) / denom, "closed_form")


def _renewal_generator(channel, N: int):
    """Renewal triple (x_N, G, z_N) of the N-fold sum of ``channel``.

    The N-fold block (x_N, Q_block, z_N), z_N the base z in the last
    block, gains the rank-one corner z_N x_N: G = Q_block + z_N x_N.  The
    renewal density of ME(x, Y, z) is x e^{t(Y + z x)} z (Asmussen & Bladt
    1996), so the mean transmission count at theta is
    1 + int_0^theta x_N e^{tG} z_N dt.
    """
    block = algebra.kfold_block(_dist(channel), N)
    z = np.zeros(block.p_block.size)
    z[-block.base.d:] = block.base.z
    return block.p_block, block.Q_block + np.outer(z, block.p_block), z


def harq_persistent_throughput(channel, R: float, theta: float,
                               diversity: int = 1,
                               method: str = "companion") -> MetricResult:
    """Persistent-HARQ (no retransmission limit) throughput R / N(theta),
    N(theta) the mean transmission count.

    ``channel`` is a distribution or a rational transform; with
    ``diversity`` N > 1 each transmission sees the N-fold sum.
    ``companion`` integrates the renewal density of the N-fold block
    generator G (see :func:`_renewal_generator`); ``roots_of_unity`` splits
    the block-circulant G by the block DFT into the blocks Y + w^n z x,
    w = e^{2 pi i/N}, exponentiates their complex block-diagonal with rows
    w^n x / N, and must give a real result.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    N = int(diversity)
    if N < 1:
        raise ValueError("diversity must be a positive integer")
    if method == "companion":
        x, G, z = _renewal_generator(channel, N)
        mean_tx = 1.0 + matfun.expm_integral(x, G, theta) @ z
        return _result(R / mean_tx, "closed_form")
    if method == "roots_of_unity":
        d, n = _dist(channel), np.arange(N)
        w = np.exp(2j * np.pi * n / N)
        B = np.zeros((N, d.d, N, d.d), dtype=complex)
        B[n, :, n, :] = d.Y + w[:, None, None] * d.z[:, None] * d.x
        row = matfun.expm_integral((w[:, None] * d.x).ravel() / N,
                                   B.reshape(N * d.d, -1), theta)
        E = np.sum(row.reshape(N, -1) @ d.z)
        mean_tx = matfun.assert_real(1.0 + E, context="roots-of-unity path")
        return MetricResult(R / mean_tx, "eigen", imag_residual=abs(E.imag))
    raise ValueError(f"unknown method {method!r}")


def harq_persistent_erlang_shifted(N: int, R: float, theta: float) -> MetricResult:
    """Persistent-HARQ throughput for the transform 1/(1+s)^N via the
    frequency-shift reduction: the mean transmission count is the last
    diagonal entry of e^{theta (Y - I)} with Y the companion matrix of
    s^{N+1} - s^N - s + 1."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = N + 1
    q = np.zeros(d)
    q[0] = 1.0
    q[1] += -1.0
    q[-1] += -1.0
    Y = np.diag(np.ones(d - 1), 1)
    Y[-1, :] -= q
    E = matfun.expm(theta * (Y - np.eye(d)))
    return _result(R / E[-1, -1], "closed_form")


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
    Q12 = 1.0 - (1.0 - E13) * (1.0 - E32)
    Q21 = 1.0 - (1.0 - E23) * (1.0 - E31)
    T = (R12 * (1.0 - Q12) + R21 * (1.0 - Q21)) / 3.0
    return _result(T, "closed_form")


# -- effective capacity ------------------------------------------------------


def eff_capacity_me_rate(channel, theta: float) -> MetricResult:
    """Effective capacity -(1/theta) ln E{e^{-theta zeta}} for an
    ME-distributed service rate zeta: the log-transform at s = theta."""
    d = _dist(channel)
    if theta <= 0:
        raise ValueError("theta must be positive")
    val = d.lt(theta)
    return _result(-math.log(val) / theta, "closed_form")


def _shannon_expectation_quad(d: MEDist, theta: float, tol=1e-12):
    """E{(1+Z)^{-theta}} via the gamma-kernel integral
    int u^{theta-1} e^{-u} F(u) du / Gamma(theta).

    The kernel's u^{theta-1} endpoint singularity is peeled off
    analytically (it integrates to 1/theta against h(0) = 1), which keeps
    the evaluation stable down to theta ~ 1e-5 where the raw integral
    suffers catastrophic cancellation.
    """
    def h(u):
        return np.exp(-u) * d.lt(u)

    inner, e1 = matfun.quad(lambda u: u ** (theta - 1.0) * (h(u) - 1.0),
                            0.0, 1.0, tol=tol)
    outer, e2 = matfun.quad(lambda u: u ** (theta - 1.0) * h(u),
                            1.0, np.inf, tol=tol)
    E = 1.0 / gamma_fn(theta + 1.0) + (inner + outer) / gamma_fn(theta)
    return E, e1 + e2


def eff_capacity_shannon(channel, theta: float,
                         method: str = "quadrature") -> MetricResult:
    """Effective capacity when the service rate is the Shannon rate
    ln(1 + Z) of an ME-distributed SNR Z.

    ``quadrature`` (default) integrates the gamma-kernel form.  ``eigen``
    uses the spectral closed form xi_j = (-l_j)^{theta-1} e^{-l_j}
    Gamma(1-theta, -l_j) and requires a diagonalizable generator with real
    negative eigenvalues, decay rates below 700 and 0 < theta < 1;
    otherwise it falls back to quadrature with a note naming each unmet
    condition.
    """
    d = _dist(channel)
    if theta <= 0:
        raise ValueError("theta must be positive")
    if method == "eigen":
        dec = matfun.eig_decomp(d.Y)
        lam = dec.eigenvalues
        rate = np.max(-lam.real)
        # rates beyond ~700 overflow the e^{-lambda} factor in double
        # precision before the incomplete-gamma factor can compensate
        blockers = [why for why, hit in (
            ("defective", not dec.diagonalizable),
            ("complex", np.any(np.abs(lam.imag) > 1e-12 * np.max(np.abs(lam)))),
            ("eigenvalue with real part >= 0", np.any(lam.real >= 0)),
            (f"decay rate {rate:.3g} >= 700", rate >= 700.0),
            ("theta outside (0, 1)", not 0.0 < theta < 1.0)) if hit]
        if blockers:
            res = eff_capacity_shannon(d, theta, method="quadrature")
            return MetricResult(res.value, "quadrature", res.imag_residual,
                                res.quad_error,
                                res.notes + ("eigen path unavailable ("
                                             + ", ".join(blockers) + ")",))
        lr = lam.real
        xi = (-lr) ** (theta - 1.0) * np.exp(-lr) \
            * gammaincc(1.0 - theta, -lr) * gamma_fn(1.0 - theta)
        V = dec.vectors
        E = complex(d.x @ (V @ np.diag(xi.astype(complex)) @ np.linalg.inv(V)) @ d.z)
        val = matfun.assert_real(E, context="eff_capacity_shannon eigen")
        return _result(-math.log(val) / theta, "eigen")
    if method == "quadrature":
        E, err = _shannon_expectation_quad(d, theta)
        return _result(-math.log(E) / theta, "quadrature", quad_error=err)
    raise ValueError(f"unknown method {method!r}")


def ergodic_capacity(channel) -> MetricResult:
    """Ergodic capacity E{ln(1+Z)} as one transform integral.

    Frullani's ln(1+z) = int_0^inf (e^{-u} - e^{-u(1+z)})/u du gives
    E{ln(1+Z)} = int_0^inf e^{-u} (1 - L(u))/u du with L(u) = E{e^{-uZ}}
    the Laplace transform; ``quad_error`` is the quadrature's estimate.
    """
    d = _dist(channel)
    val, err = matfun.quad(lambda u: np.exp(-u) * (1.0 - d.lt(u)) / u,
                           0.0, np.inf)
    return _result(val, "quadrature", quad_error=err)


# -- BER / PEP ---------------------------------------------------------------


def ber_noncoherent(channel, a: float) -> MetricResult:
    """BER for DBPSK (a=1) / noncoherent FSK (a=1/2) under symbol-rate
    fading: (1/2) x (aI - Y)^{-1} z = F(a)/2."""
    d = _dist(channel)
    if a <= 0:
        raise ValueError("a must be positive")
    return _result(0.5 * d.lt(a), "closed_form")


def _craig_product(branches, t):
    s2 = np.sin(t) ** 2
    out = np.ones_like(t)
    for d, a in branches:
        out *= d.lt(a / s2)
    return out


def ber_coherent(channel, a: float) -> MetricResult:
    """BER for coherent BPSK (a=1) / FSK (a=1/2) under symbol-rate fading:

        (1/2) (1 + x Y^{-1} (I - Y/a)^{-1/2} z).

    For a stable Y every eigenvalue of I - Y/a has real part above 1, so
    the principal inverse square root exists; a real eigenvalue of Y at or
    above a raises :class:`~mekit.matfun.BranchCutError`.  :func:`pep` of
    the single branch ``[(channel, a)]`` is the same BER by Craig
    quadrature.
    """
    d = _dist(channel)
    if a <= 0:
        raise ValueError("a must be positive")
    W = matfun.mat_frac_power(np.eye(d.d) - d.Y / a, -0.5)
    val = 0.5 * (1.0 + d.x @ np.linalg.solve(d.Y, W @ d.z))
    return _result(val, "closed_form")


def pep(branches) -> MetricResult:
    """Pairwise error probability Q(sqrt(2 sum a_n Z_n)) averaged over
    independent ME-distributed branch SNRs, by the Craig representation:

        (1/pi) int_0^{pi/2} prod_n F_n(a_n / sin^2 t) dt.
    """
    branches = [( _dist(d), float(a)) for d, a in branches]
    if not branches:
        raise ValueError("branch list must not be empty")
    val, err = matfun.quad(lambda t: _craig_product(branches, t),
                           0.0, math.pi / 2.0)
    return _result(val / math.pi, "quadrature", quad_error=err)


def diversity_gain(channel) -> int:
    """High-SNR BER slope: the denominator degree of the effective-channel
    transform (assumes a minimal representation)."""
    return _dist(channel).d


def diversity_gain_numeric(channel_um, detection: str = "noncoherent",
                           a: float = 1.0,
                           S_lo: float = 1e3, S_hi: float = 1e5) -> float:
    """Numeric -ln BER / ln S slope between two high SNR points for a
    unit-mean channel (cross-check of :func:`diversity_gain`)."""
    d = _dist(channel_um)
    f = {"noncoherent": ber_noncoherent, "coherent": ber_coherent}[detection]
    b_lo = f(d.scale_mean(S_lo), a).value
    b_hi = f(d.scale_mean(S_hi), a).value
    return (math.log(b_lo) - math.log(b_hi)) / (math.log(S_hi) - math.log(S_lo))


# -- parametric rate optimization -------------------------------------------


def lambert_w0(v: float) -> float:
    """Principal-branch Lambert W (``scipy.special.lambertw``); requires
    v >= -1/e."""
    if v < -math.exp(-1.0) - 1e-15:
        raise ValueError(f"lambert_w0 requires v >= -1/e, got {v}")
    if v < -math.exp(-1.0) + 1e-15:
        return -1.0
    return float(lambertw(v).real)


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
    """Map the auxiliary ratio g = f/(theta f') to the optimal rate
    R* = g + W0(-g e^{-g}); g <= 1 has no interior optimum (R* = 0)."""
    if g <= 1.0 + 1e-12:
        return Optimum(theta, g, 0.0, 0.0, 0.0, boundary=True,
                       notes=("no interior optimum (g <= 1)",))
    R = g + lambert_w0(-g * math.exp(-g))
    S = math.expm1(R) / theta
    return Optimum(theta, g, R, R / f_value, S, boundary=False)


def optimize_rate(metric: str, channel, thetas, **kwargs) -> list[Optimum]:
    """Parametric throughput optimization over the auxiliary threshold
    parameter, for a unit-mean channel with theta = (e^R - 1)/S.

    Supported metrics: ``arq`` (channel: unit-mean distribution),
    ``harq_persistent`` (channel: unit-mean distribution or rational
    transform; ``diversity`` kwarg),
    ``arq_interference`` (channel: interference scenario with unit-mean
    signal; handled in the bivariate module and dispatched here).
    Rows where the auxiliary ratio g <= 1 are flagged as boundary points.
    """
    out = []
    if metric == "arq":
        d = _dist(channel)
        if abs(d.mean - 1.0) > 1e-8:
            raise ValueError("optimize_rate expects a unit-mean channel")
        for th in thetas:
            E = outage(d, th).value
            fprime_density = d.pdf(th)
            f = 1.0 / (1.0 - E)
            g = (1.0 - E) / (th * fprime_density)
            out.append(_optimum_from_g(th, g, f))
        return out
    if metric == "harq_persistent":
        x, G, z = _renewal_generator(channel, int(kwargs.get("diversity", 1)))
        A = matfun.augmented(x, G)
        for th in thetas:
            # first row: the mean count; lower block: f' = x e^{th G} z,
            # the renewal density at th
            E = matfun.expm(th * A)
            mean_tx = 1.0 + E[0, 1:] @ z
            g = mean_tx / (th * (x @ E[1:, 1:] @ z))
            out.append(_optimum_from_g(th, g, mean_tx))
        return out
    if metric == "arq_interference":
        from . import bivariate
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
    """
    N = int(N)
    if N < 2:
        raise ValueError("N must be at least 2")
    if R < 0:
        raise ValueError("R must be nonnegative")
    scale = 1.0
    for n in range(N):
        scale *= math.factorial(n)
    E = matfun.expm(R * mimo_asymptote_generator(N))
    return _result(t ** (-N * N) * scale * E[0, -1], "closed_form")


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
