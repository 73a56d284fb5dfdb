"""Matrix-function kernel: matrix exponential, Kronecker algebra, Sylvester
solver, fractional matrix powers, eigendecomposition and adaptive scalar
quadrature.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
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
    "kron",
    "kron_sum",
    "mat_frac_power",
    "quad",
    "solve_sylvester",
    "solve_sylvester_vec",
    "spectral_abscissa",
]


class SpectralCollisionError(np.linalg.LinAlgError):
    """A and -B share an eigenvalue; the Sylvester system is singular."""


class BranchCutError(ValueError):
    """Matrix has an eigenvalue on the closed negative real axis."""


class AccuracyWarning(UserWarning):
    """A numerical routine could not reach the requested accuracy."""


def _as_square(M, name="M"):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
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


def expm(M):
    """Matrix exponential via Pade-13 scaling and squaring.

    Block upper-triangular structure of the input is preserved exactly
    (elimination multipliers below a zero block are exactly zero, and
    squaring keeps the zero block).
    """
    M = _as_square(M)
    n = M.shape[0]
    dtype = complex if np.iscomplexobj(M) else float
    A = M.astype(dtype)
    norm = np.linalg.norm(A, 1)
    s = 0
    if norm > _PADE13_THETA:
        s = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        A = A / (2.0 ** s)
    I = np.eye(n, dtype=dtype)
    b = _PADE13_B
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


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


def kron(A, B):
    return np.kron(np.atleast_2d(A), np.atleast_2d(B))


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


def solve_sylvester(A, B, C, check_residual=True):
    """Solve A X + X B = C by the Schur (Bartels-Stewart) method.

    Requires the spectra of A and -B to be disjoint.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    C = np.asarray(C)
    _check_spectra_disjoint(A, B)
    X = scipy.linalg.solve_sylvester(A, B, C)
    if check_residual:
        res = np.max(np.abs(A @ X + X @ B - C))
        scale = (np.linalg.norm(A) + np.linalg.norm(B)) * max(np.max(np.abs(X)), 1e-300)
        if res > 1e-10 * scale:
            warnings.warn(
                f"Sylvester residual {res:.3e} exceeds 1e-10 * scale {scale:.3e}",
                AccuracyWarning, stacklevel=2)
    return X


def solve_sylvester_vec(A, B, C):
    """Reference Sylvester solve: vec(X) = (B^T (+) A)^{-1} vec(C).

    O(n^6) Kronecker path, used as an independent cross-check of the
    Schur-based solver.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    C = np.asarray(C)
    _check_spectra_disjoint(A, B)
    K = kron_sum(B.T, A)
    x = np.linalg.solve(K, C.flatten(order="F"))
    return x.reshape(C.shape, order="F")


def mat_frac_power(M, p, cond_limit=1e12):
    """Principal matrix power M^p for rational (possibly negative) exponents.

    Integer exponents reduce to matrix powers/inverses.  Non-integer
    exponents use the principal branch through an eigendecomposition when it
    is well conditioned, and a Schur-based method otherwise; eigenvalues on
    the closed negative real axis are rejected.
    """
    M = _as_square(M)
    if p == round(p):
        p = int(round(p))
        if p >= 0:
            return np.linalg.matrix_power(M, p)
        return np.linalg.matrix_power(np.linalg.inv(M), -p)
    lam = np.linalg.eigvals(M)
    scale = np.max(np.abs(lam))
    on_cut = (lam.real <= 0) & (np.abs(lam.imag) <= 1e-14 * scale)
    if np.any(on_cut):
        raise BranchCutError(
            "matrix has an eigenvalue on the closed negative real axis; "
            f"principal power {p} is undefined")
    dec = eig_decomp(M)
    if dec.diagonalizable and dec.condition < cond_limit:
        F = dec.vectors @ np.diag(dec.eigenvalues ** p) @ np.linalg.inv(dec.vectors)
    else:
        F = scipy.linalg.fractional_matrix_power(M, p)
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


def quad(f, a, b, tol=1e-10, limit=200):
    """Adaptive quadrature of ``f`` over (a, b); b may be ``inf``.

    Returns ``(value, error_estimate)``.  Semi-infinite ranges are handled
    by QUADPACK's variable transform.  Failure to converge raises an
    :class:`AccuracyWarning` (never silent) but still returns the best
    estimate.
    """
    out = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=tol,
                               limit=limit, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3 and err > 10.0 * tol * max(1.0, abs(value)):
        warnings.warn(
            f"quadrature accuracy warning (estimate {err:.2e}): {out[3]}",
            AccuracyWarning, stacklevel=2)
    return value, err


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
