"""Matrix-function kernel: matrix exponential (of one matrix or a stack),
rows of it and e^M - I, stepped rows of matrix powers, the uniformized
jump law of a phase-type triple (kept and extended on demand, stepped on
the nonzeros of the jump matrix where it is sparse, and the owner of the
rule for which reads it serves), Kronecker sum, Sylvester solver, integer
and half-integer matrix powers, eigendecomposition and adaptive quadrature
of array-valued integrands.

Every function is pure over its inputs, which it does not change.  The
one object with state, the jump law that a channel keeps, grows its cache
by publishing new arrays in one attribute assignment, so it too may be
read from several threads at once.  All of the module is safe to call
concurrently.
"""

from __future__ import annotations

import collections
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AccuracyWarning",
    "BranchCutError",
    "EigDecomp",
    "SpectralCollisionError",
    "augmented",
    "eig_decomp",
    "expm",
    "expm1",
    "expm_integral",
    "expm_row",
    "kron_sum",
    "mat_frac_power",
    "quad",
    "row_powers",
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


def _pade13(A, minus_one=False):
    """Degree-13 Pade approximant to e^A for ||A||_1 <= theta_13; A is one
    matrix or a stack.  With ``minus_one`` it is the approximant minus I,
    2 (V - U)^{-1} U, which keeps its digits when A is small."""
    I = np.eye(A.shape[-1], dtype=A.dtype)
    b = _PADE13_B
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    return np.linalg.solve(V - U, 2.0 * U if minus_one else V + U)


def _scaled_pade13(M, minus_one=False):
    """(R, s) for one matrix: s is the least exponent with
    ||M / 2^s||_1 <= theta_13 and R the Pade-13 approximant to e^{M/2^s}
    (minus I with ``minus_one``), so e^M = R^(2^s)."""
    A = M.astype(complex if np.iscomplexobj(M) else float)
    norm = np.abs(A).sum(axis=0).max() / _PADE13_THETA
    s = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    A /= 2.0 ** s
    return _pade13(A, minus_one), s


def expm(M):
    """Matrix exponential via Pade-13 scaling and squaring.

    ``M`` is one square matrix or a stack (..., n, n).  Each matrix of a
    stack gets its own scaling exponent and the same arithmetic as a lone
    call on it.  Block upper-triangular structure of the input is preserved
    exactly (elimination multipliers below a zero block are exactly zero,
    and squaring keeps the zero block).  For a row of e^M use
    :func:`expm_row`.
    """
    M = _as_square(M, stacked=True)
    # a lone matrix skips the stack bookkeeping, which would cost as much
    # as the exponential itself at small orders
    if M.ndim == 2:
        R, s = _scaled_pade13(M)
        for _ in range(s):
            R = R @ R
        return R
    A = M.astype(complex if np.iscomplexobj(M) else float)
    norm = np.abs(A).sum(axis=-2).max(axis=-1) / _PADE13_THETA
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


def expm_row(r, M):
    """Row r e^M for one square matrix M: ``r`` is a 1-D row or a block of
    rows (m, n), real or complex, or ``None`` for the first unit row.

    The approximant R and exponent s are those of :func:`expm`, so
    e^M = R^(2^s).  The first s - k squarings run as in :func:`expm`; the
    last k become 2^k row products r <- r R, with k = min(s, floor(log2 n)
    - 2).  In flops a row product is 1/n of a squaring (a fixed call
    overhead brings the two closer at small n), and 2^k <= n/4 keeps the
    products below the squarings they replace.  Below n = 8, k = 0 and
    the result is a row of :func:`expm`, computed by the same calls.
    """
    M = _as_square(M)
    R, s = _scaled_pade13(M)
    k = min(s, max(0, M.shape[0].bit_length() - 3))
    for _ in range(s - k):
        R = R @ R
    r = R[0] if r is None else r @ R
    for _ in range(2 ** k - 1):
        r = r @ R
    return r


def expm1(M):
    """e^M - I for one square matrix, without the cancellation of forming
    e^M first: the approximant of :func:`expm` minus I, then each squaring
    maps E to 2E + E^2."""
    E, s = _scaled_pade13(_as_square(M), minus_one=True)
    for _ in range(s):
        E = 2.0 * E + E @ E
    return E


def row_powers(w, E, n, Z):
    """(w P^k Z for k < n, w P^(n-1)) with P = I + E, for a row or a block
    of rows w (m, N); the first result is (n, m) + Z.shape[1:], m dropped
    for a lone row.  Blocked doubling: steps [B, 2B) step from steps
    [0, B) by P^B, squared while 2B <= n / N; later blocks step by P^B.
    While P^B is near I (entries of E within 1/2) it is kept as E, squared
    as 2E + E^2 and applied as W + W E, so a step of :func:`expm1` keeps
    the slow modes over any number of steps.  Only the rows that the next
    block steps from are kept."""
    N = E.shape[0]
    W = np.reshape(w, (-1, N))
    m = W.shape[0]
    V = np.empty((n * m,) + np.shape(Z)[1:], np.result_type(w, E, Z))
    V[:m] = W @ Z
    P = None
    k = B = 1
    while k < n:
        if P is None and np.abs(E).max() > 0.5:
            P = np.eye(N) + E
        c = min(B, n - k)
        nxt = W[:c * m] + W[:c * m] @ E if P is None else W[:c * m] @ P
        V[k * m:(k + c) * m] = nxt @ Z
        k += c
        if k == 2 * B and 2 * B * N <= n:
            W, B = np.concatenate([W, nxt]), 2 * B
            if P is None:
                E = 2.0 * E + E @ E
            else:
                P = P @ P
        else:
            W = nxt
    return (V.reshape((n,) + np.shape(w)[:-1] + np.shape(Z)[1:]),
            W[-m:].reshape(np.shape(w)))


def _poisson_tails(lam, n):
    """P(N > j) for j = 0, 1, ..., max(n, lam) + s, N ~ Poisson(lam) and
    s = 10 sqrt(lam) + 10: the pmf weights relative to the one s below the
    mode, stepped by their ratios lam/j and normalized by their sum (Fox &
    Glynn 1988), so no factor e^{-lam} underflows.  The weights below that
    one, and above the last index by more than s + 30, are left out; each
    group sums to below 1e-20 of what it is added to.  Every tail is a sum
    of nonnegative weights."""
    m, s = int(lam), int(10.0 * math.sqrt(lam)) + 10
    lo, hi = max(0, m - s), max(n, m) + s
    # relative to the weight at lo, the mode's is below e^200
    w = np.cumprod(np.concatenate(
        [[1.0], lam / np.arange(lo + 1, hi + s + 31)]))
    above = np.cumsum(w[::-1])[::-1]
    tails = np.ones(hi + 1)
    tails[lo:] = above[1:hi + 2 - lo] / above[0]
    return tails


# ln j! for j below its size, grown on demand and published in one
# assignment
_LOG_FACTORIALS = np.zeros(1)
# the least weight _poisson_pmf computes, e^-700 (1e-304): numpy's exp
# runs about 10x slower from -708 on, where its results near the
# subnormal range
_PMF_MIN = math.exp(-700.0)
# (point, term) weights of one block of a density read
_BLOCK = 1 << 15


def _poisson_pmf(lam, cols):
    """P(N_i = j) for N_i ~ Poisson(lam_i) and j in ``cols`` (ascending
    integers), a (lam.size, cols.size) array: exp(j ln lam - lam - ln j!)
    entry by entry, so each weight keeps its relative accuracy however
    small it is (about eps (j |ln lam| + lam + ln j!)), with no common
    factor e^{-lam} to underflow; lam = 0 gives the unit mass at 0.  A
    weight below e^-700 is read as e^-700 (_PMF_MIN, 1e-304), so a sum
    over a law keeps its relative accuracy down to about 1e-288 and is
    never off by more than 1e-304 sum_j a_j."""
    global _LOG_FACTORIALS
    lf = _LOG_FACTORIALS
    if cols.size and lf.size <= cols[-1]:
        lf = _LOG_FACTORIALS = np.array(
            [math.lgamma(j + 1.0) for j in range(max(cols[-1] + 1,
                                                     2 * lf.size))])
    W = np.multiply.outer(np.log(np.maximum(lam, _TINY)), cols)
    W -= lam[:, None]
    W -= lf[cols]
    np.maximum(W, -700.0, out=W)
    np.exp(W, out=W)
    if not lam.all():
        W[lam == 0.0] = cols == 0
    return W


def _ph_terms(lam):
    """Terms of a uniformized sum at q theta = lam that leave a Poisson
    mass below about 1e-17 in the bulk, the size that
    :meth:`_JumpLaw.takes` weighs against the Pade row."""
    return lam + 9.0 * math.sqrt(lam) + 16.0


# the measured crossover of the two steps of a _JumpLaw (one BLAS thread):
# on closures with about 3d nonzeros they tie at orders 32-48 and the
# sparse step is 1.6-1.9x faster from 56 on; at orders 128-512 it breaks
# even near one nonzero entry of P in 20-25
_SPARSE_ORDER, _SPARSE_FILL = 64, 32

# the density's route for N > 1 points at orders d <= 32 (where the law
# takes the dense step): the law is read up to _ORDER_TERMS (d + 1) +
# _CALL_TERMS / N terms.  Measured (one BLAS thread, d = 2-32, N = 5-168, a
# cached law with every a_j > 0): a read costs about 30 us + 6 ns per point
# and term, the stacked Pade 70 us + 1.2 / 2.0 / 4.7 us per point at
# d = 2 / 4 / 8, so they tie near 67 (d + 1) + 6700 / N terms at d <= 8
# and the law is ahead past it at d >= 16.  At the bound (dense PH triples,
# d = 2-32, N = 2-168) a read of a built law took 60-1,200 us against
# 80-15,000 us for the Pade; a first read, which builds the law, took
# 200-1,500 us: 1.5-3.3 Pade stacks at N <= 5, 0.8-2.1 from N = 21 at
# d <= 8 and 0.1-1.0 from N = 21 at d >= 16.  The law is built once per
# triple and serves every later read.
_ORDER_TERMS, _CALL_TERMS = 64, 8192

_REFUSAL = ("a jump law needs finite x and z, max|y_ii| > 0 and "
            "theta >= 0")


# One published state of a _JumpLaw: the stepped terms a, the vector to
# step on from (the last row x P^(L-1) of row_powers, or [x P^i, P^i z/q] at
# i = L // 2 on the sparse step), the index r of the first nonzero a_r (None
# while every a_j is 0), and the convolution powers a^(k), k = 1..K, for the
# largest K read over the longest length read (None before a K-fold read).
_LawState = collections.namedtuple("_LawState", "a resume r powers")


class _JumpLaw:
    """The jump law a_j = x P^j z / q of a phase-type triple (x >= 0,
    z >= 0 and Y >= 0 off its diagonal), with q = max|y_ii| and
    P = I + Y/q nonnegative, stepped on demand and kept; the one owner of
    the uniformized route, whose rule :meth:`takes` says which reads it
    serves.

    Uniformization (Jensen 1953; Grassmann 1977): a_j is the law of the
    jump count, less one, of the uniformized chain up to absorption.  A sum
    of k variables makes the sum of k such counts, so its law is the
    unit-shifted convolution power a^(k), built without the Kd x Kd block.
    Then P(Z_1 + ... + Z_k <= theta) = sum_j P(N > j) a^(k)_j with
    N ~ Poisson(q theta): every term is nonnegative, so nothing cancels and
    the lower tail keeps its relative accuracy.  The law is stepped by
    :func:`row_powers` on P or, from order 64 on where P holds at most one
    entry in 32 nonzero (the measured crossover), on the nonzeros of P
    alone, with no pass over all of Y.

    A read that needs n terms from a law of L < n steps it on from where it
    stopped: to n if L is 0, else to max(n, 2L) with L the length the read
    found, so a sweep over thresholds extends it O(log n) times and a first
    read steps exactly the terms it needs.  One table of K-fold convolution
    powers is kept, for the largest K read over the longest length read: row
    k is a^(k) whatever K the table was built for, so it serves every read
    of K or fewer over that length or less, and a read past it rebuilds the
    table over both maxima.  Then a read is one vector of Poisson tails and
    one (K x n) product with it.

    Every extension builds new arrays and publishes them with one attribute
    assignment, so a law may be shared across threads: a read works on the
    state it took, which is never changed after it is published.  Two
    threads that extend one state at once each publish a valid state; one
    extension is lost and redone by a later read.
    """

    def __init__(self, x, Y, z):
        x, z = np.asarray(x, float), np.asarray(z, float)
        Y = _as_square(Y, "Y")
        q = float(np.abs(np.diagonal(Y)).max())
        if not (q > 0 and np.isfinite(x).all() and np.isfinite(z).all()):
            raise ValueError(_REFUSAL)
        self.q, self._Y, self._jumps = q, Y, None
        self._x, self._zq = x, z / q
        d = x.size
        if d >= _SPARSE_ORDER:
            # the stacked vector is [x P^i, P^i z/q]: entry (r, c, p) of P
            # moves u[r] p to c and u[d + c] p to d + r, so a step is one
            # np.bincount(dst, u[src] * w, minlength=2d)
            P = Y / q
            P[np.diag_indices(d)] += 1.0
            r, c = np.nonzero(P)
            if _SPARSE_FILL * r.size <= d * d:
                w = P[r, c]
                self._jumps = (np.concatenate([r, d + c]),
                               np.concatenate([c, d + r]),
                               np.concatenate([w, w]))
        u0 = x if self._jumps is None else np.concatenate([x, self._zq])
        self._state = _LawState(np.empty(0), u0, None, None)

    def takes(self, theta, K=1, N=1):
        """Whether a read at ``theta`` of the K-fold sum (of the density at
        N points, theta the largest) belongs on this law rather than on the
        Pade route: where its uniformized sum needs at most about twice the
        order Kd + 1 of the Pade row; at K = 1 on the sparse step up to the
        measured order 288, (d + 1)^2 / 16, where a cold read costs ~2 rows.
        A density read of N > 1 points at order 32 or less reads up to
        64 (d + 1) + 8192 / N terms, where a read of the built law measured
        no slower than the stacked exponential.  The rule reads the order
        and the rate, never the length the law has reached."""
        n, d = _ph_terms(self.q * theta), self._x.size
        bound = 2 * (K * d + 1)
        if N > 1 and d <= 32:
            bound = max(bound, _ORDER_TERMS * (d + 1) + _CALL_TERMS / N)
        return n <= bound or (K == 1 and d <= 288 and n <= (d + 1) ** 2 / 16
                              and self._jumps is not None)

    def _extend(self, state, n):
        """``state`` stepped on to n terms, published; ``state`` itself
        when it holds as many.  By :func:`row_powers` on P, or on the
        sparse step by the stacked step on the nonzeros of P: from
        [x, z/q] it makes u_i = [x P^i, P^i z/q], and
        a_j = (x P^ceil(j/2)) . (P^floor(j/2) z/q), so n terms take n // 2
        steps in all and every product is of nonnegative numbers."""
        L = state.a.size
        if n <= L:
            return state
        if self._jumps is None:
            # a resumed row is x P^(L-1), whose term a_(L-1) is held
            k = 1 if L else 0
            V, resume = row_powers(state.resume, self._Y / self.q,
                                   n - L + k, self._zq)
            new = V[k:]
        else:
            src, dst, w = self._jumps
            d = self._x.size
            i0 = L // 2
            U = np.empty((n // 2 - i0 + 1, 2 * d))
            u = U[0] = state.resume
            for i in range(1, U.shape[0]):
                u = U[i] = np.bincount(dst, u[src] * w, minlength=2 * d)
            rows, cols = U[:, :d], U[:, d:]
            a = np.empty(2 * U.shape[0])
            a[0::2] = np.einsum("ij,ij->i", rows, cols)
            a[1:-1:2] = np.einsum("ij,ij->i", rows[1:], cols[:-1])
            new, resume = a[L - 2 * i0:n - 2 * i0], u
        r = state.r
        if r is None:
            nz = np.flatnonzero(new)
            r = L + int(nz[0]) if nz.size else None
        a = np.concatenate([state.a, new]) if L else new
        self._state = state = _LawState(a, resume, r, state.powers)
        return state

    def _terms(self, theta, K):
        """(state, n, tails) of a read at ``theta`` of the K-fold sum: the
        state stepped on to at least n terms and the Poisson tails of
        :func:`_poisson_tails` at q theta; n is 0 (and tails ``None``) when
        every a_j is 0.

        With r the first index of a nonzero a_r, F_K >= P(N > K(r + 1) - 1)
        a_r^K, and n terms are kept once P(N > n) is at most eps times that
        bound.  As sum_j a^(k)_j <= 1 the terms left out sum to at most
        P(N > n), within eps of every F_k >= F_K."""
        if not theta >= 0:
            raise ValueError(_REFUSAL)
        lam = self.q * theta
        s = self._state
        d, L0 = self._x.size, s.a.size
        # a sum of K variables makes at least K(r + 1) <= Kd jumps: twice
        # that on the base order costs little and leaves room past it
        n = int(max(_ph_terms(lam), 2 * K * d + 16 if K > 1 else 0))
        while True:
            if n > s.a.size:
                s = self._extend(s, max(n, 2 * L0))
            if s.r is None:
                if s.a.size >= d:
                    # x P^j z = 0 for j < d, hence for every j
                    # (Cayley-Hamilton)
                    return s, 0, None
                n = d
                continue
            # F_K >= P(N > j0) a_r^K with j0 = K(r + 1) - 1, the one way to
            # make K(r + 1) jumps; n terms do once P(N > n) <= eps of that
            j0 = K * (s.r + 1) - 1
            tails = _poisson_tails(lam, max(n, j0))
            done = tails <= _EPS * tails[j0] * s.a[s.r] ** K
            n = int(np.argmax(done)) if done[-1] else tails.size
            if done[-1] and n <= s.a.size:
                return s, n, tails

    def partial_cdfs(self, theta, K=1):
        """P(Z_1 + ... + Z_k <= theta) for k = 1..K, the Z_i iid with pdf
        x e^{tY} z: F_k = sum_j P(N > j) a^(k)_j with N ~ Poisson(q theta),
        from the n terms of :meth:`_terms`, stepped on where the law holds
        fewer.  Each F_k is at most 1, as sum_j a^(k)_j <= 1, and a sum that
        rounds above 1 is clipped to it.
        """
        s, n, tails = self._terms(theta, K)
        if not n:
            return np.zeros(K)
        C = s.a[None] if K == 1 else s.powers
        if C is None or C.shape[0] < K or C.shape[1] < n:
            Km, m = K, n
            if C is not None:
                Km, m = max(K, C.shape[0]), max(n, C.shape[1])
                # the old table is let go before the new one is built, whose
                # arrays then reuse its memory instead of faulting in pages
                s = self._state = s._replace(powers=None)
                del C
            C = _convolution_powers(s.a[:m], s.r, Km)
            self._state = s._replace(powers=C)
        return np.minimum(C[:K, :n] @ tails[:n], 1.0)

    def cdf_pdf(self, theta):
        """(F, f) at ``theta`` from one read of n terms: F as the one-fold
        :meth:`partial_cdfs` and f = q sum_j P(N = j) a_j over the same
        terms, with the weights of :meth:`density`; the pair that Newton's
        method on F reads."""
        s, n, tails = self._terms(theta, 1)
        if not n:
            return 0.0, 0.0
        a = s.a[:n]
        cols = s.r + np.flatnonzero(a[s.r:])
        f = _poisson_pmf(np.array([self.q * theta]), cols)[0] @ a[cols]
        return min(float(a @ tails[:n]), 1.0), self.q * float(f)

    def density(self, theta, u):
        """The density x e^{theta Y} z = q sum_j P(N = j) a_j, N ~
        Poisson(q theta), at a scalar or an array of theta >= 0; ``u`` is
        the survival vector that :meth:`_mass_past` reads, or ``None``.

        The weights are :func:`_poisson_pmf`, taken over the nonzero a_j
        from r on.  The points are read from the largest q theta down, in
        blocks of at most about 2^15 weights each: a block starts from the
        n terms of :func:`_ph_terms` at its largest point (and past r), and
        adds n/4 more at a time (at least 16) until the terms left out are
        at most eps f/q at every point.  They sum to at most
        max_{j >= n} P(N = j) M_n, M_n the mass of the law past n (see
        :meth:`_mass_past`), and for n + 1 > q theta that maximum is
        P(N = n), within P(N = n)(n + 1)/(n + 1 - q theta); a point whose
        P(N = n) is below the least weight, e^-700, is done too.  So f
        keeps its relative accuracy in both tails, down to about 1e-288 q,
        and a law that ends (an Erlang one) ends the read."""
        th = np.asarray(theta, float)
        if not (th >= 0).all():
            raise ValueError(_REFUSAL)
        lam = self.q * th.ravel()
        f = np.zeros(lam.size)
        s = self._state
        d, L0 = self._x.size, s.a.size
        top = lam.max(initial=0.0)
        # one block needs no order
        order = (np.argsort(-lam, kind="stable")
                 if lam.size * _ph_terms(top) > _BLOCK else None)
        i = 0
        while i < lam.size:
            top = top if order is None else lam[order[i]]
            n = int(_ph_terms(top))
            if n > s.a.size or s.r is None:
                s = self._extend(s, max(n, d, 2 * L0))
            if s.r is None:
                break  # every a_j is 0, as in _terms
            n = max(n, s.r + 1)
            idx = (slice(None) if order is None
                   else order[i:i + max(1, _BLOCK // n)])
            l, lo, acc = lam[idx], s.r, f[idx]
            while True:
                if n > s.a.size:
                    s = self._extend(s, max(n, 2 * L0))
                cols = lo + np.flatnonzero(s.a[lo:n])
                W = _poisson_pmf(l, np.append(cols, n))
                acc += W[:, :-1] @ s.a[cols]
                M, tail = self._mass_past(s, n, u), W[:, -1]
                if M == 0.0 or n + 1 > top and np.all(
                        (tail <= _PMF_MIN)
                        | (tail * ((n + 1) * M / _EPS) <= (n + 1 - l) * acc)):
                    break
                lo, n = n, n + max(16, n // 4)
            f[idx] = acc
            i += acc.size
        f *= self.q
        return float(f[0]) if th.ndim == 0 else f.reshape(th.shape)

    def _mass_past(self, s, n, u):
        """A bound on M_n = sum_{j >= n} a_j for n <= L, the length of
        state ``s``, by nonnegative sums only: sum_{j >= m} a_j =
        x P^m (I - P)^{-1} z / q = x P^m u with u = (-Y)^{-1} z the
        channel's survival vector (``MEDist._u``), so M_n <= a_n + ... +
        a_(L-1) + x P^m u for the row x P^m that ``s`` resumes from
        (m = L - 1, or L // 2 on the sparse step).  1, the bound
        sum_j a_j <= 1, where u is ``None`` (-Y singular)."""
        if u is None:
            return 1.0
        return float(s.a[n:].sum() + s.resume[:self._x.size] @ u)


def _convolution_powers(a, r, K):
    """Rows a^(k), k = 1..K, of the unit-shifted convolution powers
    a^(k)_j = sum_i a^(k-1)_i a_{j-1-i} over the length of ``a``, whose
    first nonzero is a_r, built by doubling: rows [B, 2B) from rows
    [0, B) times the Toeplitz matrix of a^(B), zero below its diagonal;
    a^(k) is zero below k(r + 1) - 1.  The Kd x Kd block is never
    formed."""
    n = a.size
    out = np.zeros((K, n))
    out[0] = a
    B = 1
    while B < K:
        c = min(B, K - B)
        g = np.concatenate([np.zeros(n), out[B - 1, :n - 1]])
        # T[i, j] = g[n - 1 - i + j], a window view of g
        T = np.ndarray((n, n), float, g, 0, g.strides * 2)[::-1]
        s = (B + 1) * (r + 1) - 1
        out[B:B + c, s:] = out[:c, r:] @ T[r:, s:]
        B += c
    return out


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
    """The pair [int_0^b x e^{tY} dt; x e^{bY}], shape (2, d): rows e_0 and
    [0, x] of e^{b A}, A the :func:`augmented` generator, by one
    :func:`expm_row`; Y may be singular.  The one reader of e^{b A}."""
    A = augmented(x, Y)
    rows = np.zeros((2, len(A)), A.dtype)
    rows[0, 0], rows[1] = 1.0, A[0]
    return expm_row(rows, b * A)[:, 1:]


def kron_sum(A, B):
    """Kronecker sum A (+) B = A (x) I_n + I_m (x) B, no identity formed."""
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    m, n = A.shape[0], B.shape[0]
    K = np.zeros((m, n, m, n), np.result_type(A, B, float))
    K[:, np.arange(n), :, np.arange(n)] = A
    K[np.arange(m), :, np.arange(m), :] += B
    return K.reshape(m * n, m * n)


def spectral_abscissa(M):
    """Largest real part among the eigenvalues of M."""
    return float(np.max(np.linalg.eigvals(M).real))


def _check_spectra_disjoint(A, B):
    """Raise if some eigenvalue of A coincides with one of -B."""
    la = np.linalg.eigvals(A)
    lb = -np.linalg.eigvals(B)
    scale = max(np.max(np.abs(la), initial=0.0), np.max(np.abs(lb), initial=0.0), 1.0)
    gap = np.min(np.abs(la[:, None] - lb[None, :]))
    if gap <= 1e-12 * scale:
        raise SpectralCollisionError(
            f"spectra of A and -B nearly collide (gap {gap:.3e}, scale {scale:.3e})")
    return gap


def solve_sylvester(A, B, C):
    """Solve A X + X B = C by the Schur (Bartels-Stewart) method.

    Requires the spectra of A and -B to be disjoint; a residual above
    1e-10 of the scale raises an :class:`AccuracyWarning`.
    """
    import scipy.linalg
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
    import scipy.linalg
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


def eig_decomp(M):
    """Eigendecomposition of M; ``diagonalizable`` requires the
    reconstruction V diag(lam) V^{-1} to match M to 1e-9 of its largest
    entry."""
    M = _as_square(M)
    lam, V = np.linalg.eig(M)
    cond = float(np.linalg.cond(V))
    scale = max(np.max(np.abs(M)), 1e-300)
    try:
        rec = V @ np.diag(lam) @ np.linalg.inv(V)
        ok = bool(np.max(np.abs(rec - M)) <= 1e-9 * scale)
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
_TINY = np.finfo(float).tiny


def _gk21(f, lo, hi):
    """QUADPACK qk21 on each interval [lo_i, hi_i], all 21 * len(lo)
    nodes in one call of ``f``: (Kronrod values, error estimates)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _X21
    fx = f(x.ravel()).reshape(x.shape)
    if not np.isfinite(fx).all():
        bad = x[~np.isfinite(fx)][0]
        raise ValueError(f"quadrature integrand is not finite at {bad:.17g}")
    # sums of finite values near the double limit may overflow; quad
    # refuses the non-finite error estimate by name
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        resk = fx @ _WK21
        resasc = np.abs(fx - 0.5 * resk[:, None]) @ _WK21 * np.abs(h)
        resabs = np.abs(fx) @ _WK21 * np.abs(h)
        err = np.abs((resk - fx @ _WG21) * h)
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
    silent) but still returns the best estimate; a non-finite integrand
    value or error estimate raises ``ValueError``.
    """
    # fold (-inf, inf) or reflect (-inf, b], then map [a, inf) onto (0, 1]
    if math.isinf(a) and math.isinf(b):
        def f(x, f=f):
            fx = f(np.concatenate([x, -x]))
            return fx[:x.size] + fx[x.size:]
        a = 0.0
    elif math.isinf(a):
        f, a, b = (lambda x, f=f: f(-x)), -b, math.inf
    if math.isinf(b):
        def f(x, f=f, a=a):
            return f(a + (1.0 - x) / x) / (x * x)
        a, b = 0.0, 1.0
    lo, hi = np.array([float(a)]), np.array([float(b)])
    res, err = _gk21(f, lo, hi)
    while True:
        value, error = float(np.sum(res)), float(np.sum(err))
        if not math.isfinite(error):
            raise ValueError("quadrature error estimate is not finite")
        bound = max(tol, tol * abs(value))
        if error <= bound or lo.size == limit:
            break
        split = np.flatnonzero(err > bound / lo.size)
        if not split.size:
            break
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
