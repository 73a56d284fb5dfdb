import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import mekit
from mekit import ChannelSpec, MEDist, RationalLT, erlang, exponential
from mekit import from_rational_lt, matfun, standard_channel
from mekit.algebra import convolve
from mekit.medist import _companion_form


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter importing this mekit;
    a nonzero exit or a run past 120 s fails the calling test."""
    src = str(Path(mekit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def random_stable_matrix(rng, n, margin=0.5):
    """Random real matrix with spectral abscissa at most -margin."""
    A = rng.normal(size=(n, n))
    shift = max(np.linalg.eigvals(A).real) + margin
    return A - shift * np.eye(n)


def quadpack(f, a, b, tol=1e-10, limit=200):
    """QUADPACK (``scipy.integrate.quad``) on a scalar integrand with
    epsabs = epsrel = ``tol``: the tests' reference quadrature, independent
    of ``matfun.quad``.  An unconverged result with an error estimate above
    10 tol max(1, |value|) raises an :class:`AccuracyWarning`."""
    out = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=tol,
                               limit=limit, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3 and err > 10.0 * tol * max(1.0, abs(value)):
        warnings.warn(
            f"quadrature accuracy warning (estimate {err:.2e}): {out[3]}",
            matfun.AccuracyWarning, stacklevel=2)
    return value, err


def classic_cdf(d, t):
    """1 + x e^{tY} Y^{-1} z with ``scipy.linalg.expm``: the tests' reference
    cdf for nonsingular Y, independent of mekit's augmented row and of its
    Pade kernel."""
    return float(1.0 + d.x @ scipy.linalg.expm(t * d.Y)
                 @ np.linalg.solve(d.Y, d.z))


def classic_pdf(d, t):
    """x e^{tY} z with ``scipy.linalg.expm``: the tests' reference density,
    independent of mekit's Pade kernel."""
    return float(d.x @ scipy.linalg.expm(t * d.Y) @ d.z)


def pdf_on_grid(dist, ts):
    """Density on a uniform ascending grid starting at 0
    (:meth:`MEDist.pdf_grid`)."""
    ts = np.asarray(ts, dtype=float)
    h = ts[1] - ts[0]
    if ts[0] != 0.0 or np.max(np.abs(np.diff(ts) - h)) > 1e-9 * h:
        raise ValueError("grid must be uniform and start at 0")
    return dist.pdf_grid(ts.size, ts[-1])[1]


def numeric_convolve(d1, d2, ts):
    """Trapezoid-rule convolution of two densities on a uniform grid:
    the tests' reference for the block-matrix convolution closure."""
    f1 = pdf_on_grid(getattr(d1, "dist", d1), ts)
    f2 = pdf_on_grid(getattr(d2, "dist", d2), ts)
    h = ts[1] - ts[0]
    full = np.convolve(f1, f2)[:ts.size]
    corr = 0.5 * (f1[0] * f2 + f2[0] * f1)
    return h * (full - corr)


def wishart_region_outage_quad(R, tol=1e-12):
    """2-D :func:`quadpack` quadrature of e^{-z1-z2}(z1-z2)^2 over the
    outage region {0 <= z1 <= z2, (1+z1)(1+z2) <= e^R}: the tests'
    reference for the 2x2 spatial-multiplexing outage."""
    TH = math.exp(R)

    def inner(z1):
        hi = TH / (1.0 + z1) - 1.0
        if hi <= z1:
            return 0.0
        return quadpack(lambda z2: math.exp(-z1 - z2) * (z1 - z2) ** 2,
                        z1, hi, tol=tol)[0]

    return quadpack(inner, 0.0, math.sqrt(TH) - 1.0, tol=tol)[0]


def harq_persistent_erlang_shifted(N, R, theta):
    """Persistent-HARQ throughput for the transform 1/(1+s)^N via the
    frequency-shift reduction: the mean transmission count is the last
    diagonal entry of e^{theta (Y - I)} with Y the companion matrix of
    s^{N+1} - s^N - s + 1."""
    q = np.zeros(N + 1)
    q[0] = 1.0
    q[1] += -1.0
    q[-1] += -1.0
    Y = _companion_form(RationalLT([1.0], q)).Y
    E = matfun.expm(theta * (Y - np.eye(N + 1)))
    return R / E[-1, -1]


def vectorized_integral(x1, Y1, X12, Y2, z2):
    """int_0^inf x1 e^{tY1} X12 e^{tY2} z2 dt for stable Y1, Y2 by one dense
    solve, -(z2^T (x) x1)(Y2^T (+) Y1)^{-1} vec(X12), with the Kronecker sum
    written out here: the tests' reference for the Sylvester integral."""
    Y1, Y2 = np.atleast_2d(Y1), np.atleast_2d(Y2)
    K = (np.kron(Y2.T, np.eye(Y1.shape[0]))
         + np.kron(np.eye(Y2.shape[0]), Y1))
    vec = np.atleast_2d(X12).flatten(order="F")
    return float(-np.kron(z2, x1) @ np.linalg.solve(K, vec))


def product_integral_ref(d1, d2):
    """int_0^inf f1 f2 dt: :func:`vectorized_integral` on the rank-one
    coupling z1 x2^T of a product of densities."""
    return vectorized_integral(d1.x, d1.Y, np.outer(d1.z, d2.x), d2.Y, d2.z)


def sdc_eff_capacity_mpmath(N, S, theta):
    """-(1/theta) ln E{(1+Z)^{-theta}} for selection diversity over N iid
    exponential branches of mean S, by mpmath at 30 digits on the closed-form
    density (N/S) e^{-z/S} (1 - e^{-z/S})^{N-1}."""
    with mpmath.workdps(30):
        S, th = mpmath.mpf(S), mpmath.mpf(theta)
        f = lambda z: (N / S * mpmath.exp(-z / S)
                       * (1 - mpmath.exp(-z / S)) ** (N - 1))
        E = mpmath.quad(lambda z: (1 + z) ** -th * f(z),
                        [0, S, 4 * S, 16 * S, mpmath.inf])
        return float(-mpmath.log(E) / th)


def rate_optimum_error(g, R):
    """Relative error of R against the optimal rate R* = g + W0(-g e^{-g}),
    the root of R = g (1 - e^{-R}) at the double g, by mpmath at 50
    digits, in units of max(4, 1/(g - 1)) eps: the root's condition number
    grows like 1/(g - 1) as g -> 1."""
    with mpmath.workdps(50):
        G = mpmath.mpf(g)
        ref = G + mpmath.lambertw(-G * mpmath.exp(-G)).real
        err = float(abs((R - ref) / ref))
    return err / (max(4.0, 1.0 / (g - 1.0)) * np.finfo(float).eps)


def example2():
    """Oscillatory degree-3 density (1 + 1/49)(1 - cos 7t) e^{-t}."""
    return from_rational_lt(RationalLT(p=[50.0], q=[50.0, 52.0, 3.0]))


def example2_pdf(t, lib=np):
    """Closed form of the :func:`example2` density; ``lib`` is numpy or
    ``mpmath.mp``."""
    return (1.0 + 7.0 ** -2) * (1.0 - lib.cos(7.0 * t)) * lib.exp(-t)


def example2_entropy_mpmath():
    """-int f ln f of :func:`example2` by mpmath at 30 digits from the closed
    form, split at the zeros 2 pi k / 7 of the density up to t = 50 (the
    tail beyond adds below 1e-19)."""
    with mpmath.workdps(30):
        def g(t):
            f = example2_pdf(t, mpmath.mp)
            return -f * mpmath.log(f) if f > 0 else mpmath.mpf(0)

        zeros = [2 * mpmath.pi * k / 7 for k in range(57)]
        return float(mpmath.quad(g, zeros))


def sdc(N, S=1.0):
    return standard_channel(ChannelSpec("sdc", {"N": N, "S": S})).dist


def nakagami(m, S=1.0):
    return standard_channel(ChannelSpec("nakagami", {"m": m, "S": S})).dist


def standard_five():
    """The five reference channels used across the closure tests."""
    return {
        "exponential": exponential(1.0),
        "erlang2": erlang(2, mean=2.0),
        "nakagami3": nakagami(3),
        "example2": example2(),
        "sdc3": sdc(3),
    }


def random_valid_dist(rng, allow_oscillatory=True) -> MEDist:
    """Random distribution guaranteed valid: closure combinations of
    exponential / Erlang / selection-diversity / oscillatory pieces."""
    choices = ["exp", "erlang", "sdc"]
    if allow_oscillatory:
        choices.append("osc")

    def piece():
        kind = rng.choice(choices)
        if kind == "exp":
            return exponential(float(rng.uniform(0.3, 3.0)))
        if kind == "erlang":
            return erlang(int(rng.integers(2, 4)), mean=float(rng.uniform(0.5, 2.0)))
        if kind == "sdc":
            return sdc(int(rng.integers(2, 4)), S=float(rng.uniform(0.5, 2.0)))
        return example2()

    d = piece()
    if rng.random() < 0.5:
        d = convolve(d, piece())
    return d


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_collection_modifyitems(config, items):
    """Turn an AccuracyWarning into an error in every test under tests/, so
    a solver that stops short fails the test; a test that expects one
    catches it with ``pytest.warns``."""
    here = Path(__file__).parent
    mark = pytest.mark.filterwarnings("error::mekit.matfun.AccuracyWarning")
    for item in items:
        if here in item.path.parents:
            item.add_marker(mark)
