"""Matrix-function kernel: matrix exponential (of one matrix or a stack),
Kronecker sum, Sylvester solver, integer and half-integer matrix powers,
eigendecomposition and adaptive quadrature of array-valued integrands.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "AccuracyWarning",
    "BranchCutError",
    "EigDecomp",
    "SpectralCollisionError",
    "assert_real",
    "augmented",
    "eig_decomp",
    "expm",
    "expm_integral",
    "kron_sum",
    "mat_frac_power",
    "quad",
    "solve_sylvester",
    "spectral_abscissa",
]


class SpectralCollisionError(np.linalg.LinAlgError):
    """A and -B share an eigenvalue; the Sylvester system is singular."""


class BranchCutError(ValueError):
    """Matrix has an eigenvalue on the closed negative real axis."""


class AccuracyWarning(UserWarning):
    """A numerical routine could not reach the requested accuracy."""


def _as_square(M, name="M", stacked=False):
    M = np.asarray(M)
    if (M.ndim < 2 or (M.ndim > 2 and not stacked)
            or M.shape[-2] != M.shape[-1]):
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


# Coefficients of the degree-13 diagonal Pade approximant to exp(x).
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _pade13(A):
    """Degree-13 Pade approximant to e^A for ||A||_1 <= theta_13; A is one
    matrix or a stack."""
    I = np.eye(A.shape[-1], dtype=A.dtype)
    b = _PADE13_B
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    return np.linalg.solve(V - U, V + U)


def expm(M):
    """Matrix exponential via Pade-13 scaling and squaring.

    ``M`` is one square matrix or a stack (..., n, n).  Each matrix of a
    stack gets its own scaling exponent and the same arithmetic as a lone
    call on it.  Block upper-triangular structure of the input is preserved
    exactly (elimination multipliers below a zero block are exactly zero,
    and squaring keeps the zero block).
    """
    M = _as_square(M, stacked=True)
    A = M.astype(complex if np.iscomplexobj(M) else float)
    norm = np.abs(A).sum(axis=-2).max(axis=-1) / _PADE13_THETA
    # a lone matrix skips the stack bookkeeping, which would cost as much
    # as the exponential itself at small orders
    if A.ndim == 2:
        s = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
        A /= 2.0 ** s
        R = _pade13(A)
        for _ in range(s):
            R = R @ R
        return R
    n = A.shape[-1]
    s = np.ceil(np.log2(np.maximum(norm, 1.0))).astype(int).ravel()
    A = A.reshape(-1, n, n)
    A /= (2.0 ** s)[:, None, None]
    R = _pade13(A)
    # square in order of decreasing s, so the matrices still being squared
    # are always a leading block
    order = np.argsort(-s, kind="stable")
    R = R[order]
    for k in range(1, s.max(initial=0) + 1):
        c = np.count_nonzero(s >= k)
        R[:c] = R[:c] @ R[:c]
    out = np.empty_like(R)
    out[order] = R
    return out.reshape(M.shape)


def augmented(x, Y):
    """(d+1) x (d+1) block matrix [[0, x], [0, Y]] (Van Loan 1978).

    The first row of e^{bA} is [1, int_0^b x e^{tY} dt], so the integral
    needs no inverse of Y.  Real or complex input.
    """
    Y = _as_square(Y, "Y")
    x = np.ravel(x)
    if x.shape[0] != Y.shape[0]:
        raise ValueError(
            f"x has length {x.shape[0]}, Y has order {Y.shape[0]}")
    A = np.zeros((Y.shape[0] + 1,) * 2, dtype=np.result_type(x, Y, float))
    A[0, 1:] = x
    A[1:, 1:] = Y
    return A


def expm_integral(x, Y, b):
    """Row int_0^b x e^{tY} dt from one exponential of :func:`augmented`;
    Y may be singular."""
    return expm(b * augmented(x, Y))[0, 1:]


def kron_sum(A, B):
    """Kronecker sum A (+) B = A (x) I_n + I_m (x) B."""
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    return np.kron(A, np.eye(B.shape[0])) + np.kron(np.eye(A.shape[0]), B)


def spectral_abscissa(M):
    """Largest real part among the eigenvalues of M."""
    return float(np.max(np.linalg.eigvals(M).real))


def _check_spectra_disjoint(A, B, rtol=1e-12):
    """Raise if some eigenvalue of A coincides with one of -B."""
    la = np.linalg.eigvals(A)
    lb = -np.linalg.eigvals(B)
    scale = max(np.max(np.abs(la), initial=0.0), np.max(np.abs(lb), initial=0.0), 1.0)
    gap = np.min(np.abs(la[:, None] - lb[None, :]))
    if gap <= rtol * scale:
        raise SpectralCollisionError(
            f"spectra of A and -B nearly collide (gap {gap:.3e}, scale {scale:.3e})")
    return gap


def solve_sylvester(A, B, C):
    """Solve A X + X B = C by the Schur (Bartels-Stewart) method.

    Requires the spectra of A and -B to be disjoint; a residual above
    1e-10 of the scale raises an :class:`AccuracyWarning`.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    C = np.asarray(C)
    _check_spectra_disjoint(A, B)
    X = scipy.linalg.solve_sylvester(A, B, C)
    res = np.max(np.abs(A @ X + X @ B - C))
    scale = (np.linalg.norm(A) + np.linalg.norm(B)) * max(np.max(np.abs(X)), 1e-300)
    if res > 1e-10 * scale:
        warnings.warn(
            f"Sylvester residual {res:.3e} exceeds 1e-10 * scale {scale:.3e}",
            AccuracyWarning, stacklevel=2)
    return X


def mat_frac_power(M, p):
    """Principal matrix power M^p for an integer or half-integer p.

    An integer p is a matrix power of M or of its inverse.  A half-integer
    p is the integer power 2p of the principal square root from
    ``scipy.linalg.sqrtm`` (blocked Schur method, Deadman, Higham & Ralha
    2013); an eigenvalue of M on the closed negative real axis raises
    :class:`BranchCutError`.  Any other p raises ``ValueError``.
    """
    M = _as_square(M)
    if p == round(p):
        return np.linalg.matrix_power(M, int(round(p)))  # p < 0 inverts M
    if 2 * p != round(2 * p):
        raise ValueError(
            f"matrix power {p} is neither an integer nor a half-integer")
    lam = np.linalg.eigvals(M)
    scale = np.max(np.abs(lam))
    on_cut = (lam.real <= 0) & (np.abs(lam.imag) <= 1e-14 * scale)
    if np.any(on_cut):
        raise BranchCutError(
            "matrix has an eigenvalue on the closed negative real axis; "
            f"principal power {p} is undefined")
    F = mat_frac_power(scipy.linalg.sqrtm(M), 2 * p)
    if not np.iscomplexobj(M) and np.max(np.abs(F.imag)) <= 1e-12 * max(np.max(np.abs(F.real)), 1e-300):
        F = F.real
    return F


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition with a reconstruction-based diagonalizability flag."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    condition: float
    diagonalizable: bool


def eig_decomp(M, rtol=1e-9):
    """Eigendecomposition of M; ``diagonalizable`` requires the
    reconstruction V diag(lam) V^{-1} to match M to ``rtol`` in max norm."""
    M = _as_square(M)
    lam, V = np.linalg.eig(M)
    cond = float(np.linalg.cond(V))
    scale = max(np.max(np.abs(M)), 1e-300)
    try:
        rec = V @ np.diag(lam) @ np.linalg.inv(V)
        ok = bool(np.max(np.abs(rec - M)) <= rtol * scale)
    except np.linalg.LinAlgError:
        ok = False
    return EigDecomp(lam, V, cond, ok)


# QUADPACK qk21: abscissae of the 21-point Kronrod rule on [-1, 1] (the
# odd-indexed ones, 0.9739..., 0.8650..., ..., 0.1488..., are the 10-point
# Gauss nodes) with the Kronrod and Gauss weights, from 0.9956... down to 0
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208015259477, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]
_X21 = np.concatenate([-_XGK, _XGK[-2::-1]])
_WK21 = np.concatenate([_WGK, _WGK[-2::-1]])
_WG21 = np.concatenate([_WG, _WG[-2::-1]])
_EPS = np.finfo(float).eps


def _gk21(f, lo, hi):
    """QUADPACK qk21 on each interval [lo_i, hi_i], all 21 * len(lo)
    nodes in one call of ``f``: (Kronrod values, error estimates)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _X21
    fx = f(x.ravel()).reshape(x.shape)
    resk = fx @ _WK21
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _WK21 * np.abs(h)
    resabs = np.abs(fx) @ _WK21 * np.abs(h)
    err = np.abs((resk - fx @ _WG21) * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, err)
    return resk * h, np.maximum(err, 50.0 * _EPS * resabs)


def quad(f, a, b, tol=1e-10, limit=200):
    """Globally adaptive Gauss-Kronrod quadrature of ``f`` over (a, b);
    either limit may be infinite.

    ``f`` is array-valued: it takes a 1-D array of nodes and returns the
    integrand at each.  Every pass bisects each subinterval whose error
    estimate exceeds its equal share of the tolerance max(tol, tol |value|)
    and evaluates the 21-point Kronrod nodes of all new subintervals in one
    call of ``f``; QUADPACK's qk21 rule and error estimate are used on
    each.  Infinite ranges map onto finite ones (u = a + (1 - x)/x on
    [a, inf)).  Returns ``(value, error_estimate)``.  Failure to converge
    within ``limit`` subintervals raises an :class:`AccuracyWarning` (never
    silent) but still returns the best estimate.
    """
    if math.isinf(a) and math.isinf(b):
        def g(x):
            fx = f(np.concatenate([x, -x]))
            return fx[:x.size] + fx[x.size:]
        return quad(g, 0.0, math.inf, tol, limit)
    if math.isinf(a):
        return quad(lambda x: f(-x), -b, math.inf, tol, limit)
    if math.isinf(b):
        def g(x):
            return f(a + (1.0 - x) / x) / (x * x)
        return quad(g, 0.0, 1.0, tol, limit)
    lo, hi = np.array([float(a)]), np.array([float(b)])
    res, err = _gk21(f, lo, hi)
    while True:
        value, error = float(np.sum(res)), float(np.sum(err))
        bound = max(tol, tol * abs(value))
        if error <= bound or lo.size == limit:
            break
        split = np.flatnonzero(err > bound / lo.size)
        if lo.size + split.size > limit:
            split = split[np.argsort(err[split])[lo.size - limit:]]
        keep = np.ones(lo.size, bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_res, new_err = _gk21(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        res = np.concatenate([res[keep], new_res])
        err = np.concatenate([err[keep], new_err])
    if error > 10.0 * tol * max(1.0, abs(value)):
        warnings.warn(
            f"quadrature accuracy warning (estimate {error:.2e} over "
            f"{lo.size} subintervals, limit {limit})",
            AccuracyWarning, stacklevel=2)
    return value, error


def assert_real(value, scale=None, rtol=1e-8, context="value"):
    """Return the real part of ``value``, requiring the imaginary residual
    to be below ``rtol`` times the scale."""
    value = complex(value)
    if scale is None:
        scale = abs(value)
    resid = abs(value.imag)
    if resid > rtol * max(scale, 1e-300):
        raise ValueError(
            f"{context}: imaginary residual {resid:.3e} exceeds "
            f"{rtol:.1e} * {scale:.3e}")
    return value.real
