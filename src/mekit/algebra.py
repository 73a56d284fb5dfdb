"""Effective-channel algebra: closure operations (convolution, k-fold
convolution blocks, max, min) and constructors for the standard wireless
channel models, all producing ME-distributed effective channels.
Sums, product forms, K-fold blocks and renewal blocks are convolution
chains built by one assembler, :func:`~mekit.medist._chain`.

Operations refuse to grow the representation past degree 4096, because
matrix-exponential cost is cubic in degree; the check runs before the
oversized matrix is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matfun
from .medist import (ChannelSpec, ConstructionError, MEDist, RationalLT,
                     _chain, _count, _erlang, _threshold, exponential,
                     from_product_form, from_rational_lt)

__all__ = [
    "EffectiveChannel",
    "KFoldConvolution",
    "MaxOfTwo",
    "MinOfTwo",
    "convolve",
    "kfold_block",
    "max_dist",
    "min_dist",
    "standard_channel",
]

_MAX_DEGREE = 4096


def _guard_degree(d):
    if d > _MAX_DEGREE:
        raise ConstructionError(
            f"resulting degree {d} exceeds the guard {_MAX_DEGREE}")


@dataclass(frozen=True)
class EffectiveChannel:
    """ME-distributed effective channel plus the expression tree that
    produced it (for diagnostics and CLI explainability)."""

    dist: MEDist
    provenance: dict = field(default_factory=dict)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        op = self.provenance.get("op", "dist")
        args = {k: v for k, v in self.provenance.items()
                if k not in ("op", "children")}
        line = f"{pad}{op} {args}" if args else f"{pad}{op}"
        lines = [line]
        for child in self.provenance.get("children", ()):
            lines.append(EffectiveChannel(self.dist, child).describe(indent + 1))
        return "\n".join(lines)


def _triple(obj) -> MEDist:
    """The triple that stands for a channel: a distribution as it is, an
    effective channel's ``dist``, a rational transform's companion form, or
    the closure of an unclosed max or min node, kept on the node."""
    if isinstance(obj, MEDist):
        return obj
    if isinstance(obj, EffectiveChannel):
        return obj.dist
    if isinstance(obj, RationalLT):
        return from_rational_lt(obj)
    if isinstance(obj, _Node):
        return obj._closed
    raise TypeError(f"channel must be a distribution, an effective channel, a "
                    f"rational transform or a max/min node, not "
                    f"{type(obj).__name__}")


def convolve(*parts):
    """Distribution of the sum of independent ME variables: the
    block-bidiagonal :func:`~mekit.medist._chain` of the summands, entry
    for entry the pairwise chain's triple.  For two summands this is
    Y = [[Y1, z1 x2], [0, Y2]].  One summand is returned as it is.
    """
    if not parts:
        raise ConstructionError("convolve requires at least one summand")
    if len(parts) == 1:
        return parts[0]
    dists = [_triple(p) for p in parts]
    _guard_degree(sum(a.d for a in dists))
    out = MEDist(*_chain(dists))
    if any(isinstance(p, EffectiveChannel) for p in parts):
        return EffectiveChannel(out, {"op": "convolve", "children": [
            p.provenance if isinstance(p, EffectiveChannel)
            else {"op": "dist", "d": a.d} for p, a in zip(parts, dists)]})
    return out


def _fold_count(base: MEDist, K) -> int:
    """K as an int; a K that is not a positive integer, or a K-fold block
    past the degree guard, is refused."""
    K = _count(K, "K")
    _guard_degree(base.d * K + 1)
    return K


@dataclass(frozen=True)
class KFoldConvolution:
    """Stacked upper block-triangular representation whose single matrix
    exponential yields the cdfs of all partial sums Z_1 + ... + Z_k,
    k = 1..K, at once."""

    base: MEDist
    K: int
    p_block: np.ndarray
    Q_block: np.ndarray

    def partial_cdfs(self, theta: float) -> np.ndarray:
        """P(Z_1 + ... + Z_k <= theta) for k = 1..K, by the route rule of
        :meth:`MEDist._partial_cdfs`."""
        return self.base._partial_cdfs(_threshold(theta), self.K)


def kfold_block(dist, K: int) -> KFoldConvolution:
    """Build the K-fold convolution block structure for ``dist``: the
    :func:`~mekit.medist._chain` of K copies, whose k-th block ends the
    k-th partial sum, so block-triangular exponentiation produces every
    partial-convolution cdf simultaneously.
    """
    base = _triple(dist)
    K = _fold_count(base, K)
    p, Q, _ = _chain([base] * K)
    return KFoldConvolution(base=base, K=K, p_block=p, Q_block=Q)


@dataclass(frozen=True)
class _Node:
    """An unclosed max or min node: a cdf reads the product form of its
    parts, and every read that needs a triple its closure, built once."""

    d1: MEDist
    d2: MEDist

    @functools.cached_property
    def _closed(self) -> MEDist:
        return self.closure()


class MaxOfTwo(_Node):
    """Maximum of two independent ME variables.

    ``cdf`` evaluates the functional form, the product of the two cdfs;
    ``closure`` builds the explicit ME triple on demand.
    """

    def cdf(self, t: float) -> float:
        return self.d1.cdf(t) * self.d2.cdf(t)

    def _cdf_pdf(self, t):
        """(F, f) = (F1 F2, f1 F2 + F1 f2) from the parts' pairs."""
        (F1, f1), (F2, f2) = self.d1._cdf_pdf(t), self.d2._cdf_pdf(t)
        return F1 * F2, f1 * F2 + F1 * f2

    def closure(self) -> MEDist:
        a, b = self.d1, self.d2
        _guard_degree(a.d * b.d + a.d + b.d)
        # the first to finish hands the survivor's phase on (Assaf & Levikson
        # 1982): density f1 F2 + F1 f2 with no inverse and no cancelling tail
        n = a.d * b.d
        x = np.concatenate([np.outer(a.x, b.x).ravel(), np.zeros(a.d + b.d)])
        Y = np.zeros((n + a.d + b.d, n + a.d + b.d))
        Y[:n, :n] = matfun.kron_sum(a.Y, b.Y)
        r = np.arange(n)
        Y[r, n + r // b.d] = np.tile(b.z, a.d)
        Y[r, n + a.d + r % b.d] = np.repeat(a.z, b.d)
        Y[n:n + a.d, n:n + a.d] = a.Y
        Y[n + a.d:, n + a.d:] = b.Y
        z = np.concatenate([np.zeros(n), a.z, b.z])
        return MEDist(x, Y, z)


class MinOfTwo(_Node):
    """Minimum of two independent ME variables (survival product form)."""

    def cdf(self, t: float) -> float:
        # 1 - (1 - F1)(1 - F2) without the cancellation in the lower tail
        F1 = self.d1.cdf(t)
        return F1 + self.d2.cdf(t) * (1.0 - F1)

    def _cdf_pdf(self, t):
        """(F, f) = (F1 + F2 (1 - F1), f1 (1 - F2) + f2 (1 - F1)) from the
        parts' pairs."""
        (F1, f1), (F2, f2) = self.d1._cdf_pdf(t), self.d2._cdf_pdf(t)
        return F1 + F2 * (1.0 - F1), f1 * (1.0 - F2) + f2 * (1.0 - F1)

    def closure(self) -> MEDist:
        a, b = self.d1, self.d2
        _guard_degree(a.d * b.d)
        # z = -(Y1^-1 (+) Y2^-1)(z1 (x) z2) = s1 (x) z2 + z1 (x) s2 with
        # s_i = -Y_i^-1 z_i: two solves, no inverse, no second Kronecker sum
        s1 = -np.linalg.solve(a.Y, a.z)
        s2 = -np.linalg.solve(b.Y, b.z)
        x = np.outer(a.x, b.x).ravel()
        Y = matfun.kron_sum(a.Y, b.Y)
        z = np.outer(s1, b.z).ravel() + np.outer(a.z, s2).ravel()
        return MEDist(x, Y, z)


def max_dist(d1, d2) -> MaxOfTwo:
    return MaxOfTwo(_triple(d1), _triple(d2))


def min_dist(d1, d2) -> MinOfTwo:
    return MinOfTwo(_triple(d1), _triple(d2))


# -- standard channel constructions -------------------------------------


def _sdc(N: int, S: float) -> MEDist:
    """Selection diversity over N iid exponential branches with mean S.

    Hypoexponential form: the maximum is a sum of exponential stages with
    rates n/S, n = 1..N, so x = e_1, Y = diag(-n/S) + superdiag(n/S) and
    z = (N/S) e_N; the transform is N! / prod_n (n + s S).  Every entry is
    O(N/S), so the form stays well scaled for large N.
    """
    N = int(N)
    rates = np.arange(1.0, N + 1) / S
    Y = np.diag(-rates) + np.diag(rates[:-1], 1)
    x = np.zeros(N)
    x[0] = 1.0
    z = np.zeros(N)
    z[-1] = rates[-1]
    return MEDist(x, Y, z)


def _zf_mimo(N_rx: int, N_tx: int, S: float, exponent=None) -> MEDist:
    """Zero-forcing MIMO per-stream SNR with transform 1/(1+sS)^exponent.

    The exponent must be given explicitly: the gamma degrees-of-freedom
    reading gives N_rx - N_tx + 1 while the transform as printed in the
    source material carries N_rx - N_tx; the two readings disagree and this
    constructor refuses to guess.
    """
    if N_rx < N_tx:
        raise ConstructionError("zf_mimo requires N_rx >= N_tx")
    if exponent is None:
        raise ConstructionError(
            "zf_mimo requires an explicit 'exponent' parameter "
            f"(degrees-of-freedom reading: {N_rx - N_tx + 1}; "
            f"printed-transform reading: {N_rx - N_tx})")
    exponent = int(exponent)
    if exponent < 1:
        raise ConstructionError("zf_mimo exponent must be >= 1")
    return _erlang(exponent, 1.0 / S)


def _oscillatory_ex2() -> MEDist:
    """Degree-3 oscillatory-decay density with transform
    50 / (s^3 + 3 s^2 + 52 s + 50); pdf (1 + 1/49)(1 - cos 7t) e^{-t}."""
    return from_rational_lt(RationalLT(p=[50.0], q=[50.0, 52.0, 3.0]))


def _spec_order(spec: ChannelSpec) -> int:
    """Order of the triple that :func:`standard_channel` builds for
    ``spec``, read from its parameters alone."""
    P, kind = spec.params, spec.kind
    if kind == "rational_lt":
        return len(P["q"])
    if kind == "product_form":
        return sum(len(f["q"]) for f in P["factors"])
    if kind in ("mrc_list", "sum_interference"):
        return sum(_spec_order(ChannelSpec(c["kind"], c.get("params", {})))
                   for c in P["components"])
    if kind == "nakagami":
        return int(P["m"])
    if kind == "sdc":
        return int(P["N"])
    if kind == "ostbc_mrc":
        return int(P["N_tx"]) * int(P["N_rx"])
    if kind == "zf_mimo":
        # a missing exponent is refused by _zf_mimo
        return int(P.get("exponent") or 0)
    return {"rayleigh": 1, "oscillatory_ex2": 3}[kind]


def standard_channel(spec: ChannelSpec) -> EffectiveChannel:
    """Build the effective channel named by a :class:`ChannelSpec`; a spec
    of order above the guard is refused before anything is built."""
    _guard_degree(_spec_order(spec))
    P = spec.params
    prov = {"op": spec.kind, **{k: v for k, v in P.items() if k != "components"}}
    if spec.kind == "rational_lt":
        dist = from_rational_lt(RationalLT(p=P["p"], q=P["q"]))
    elif spec.kind == "product_form":
        dist = from_product_form(
            [RationalLT(p=f["p"], q=f["q"]) for f in P["factors"]])
    elif spec.kind == "rayleigh":
        dist = exponential(P["S"])
    elif spec.kind == "nakagami":
        dist = _erlang(P["m"], P["m"] / P["S"])
    elif spec.kind == "sdc":
        dist = _sdc(P["N"], P["S"])
    elif spec.kind == "ostbc_mrc":
        dist = _erlang(int(P["N_tx"]) * int(P["N_rx"]),
                       P.get("R_stc", 1.0) * P["N_tx"] / P["S"])
    elif spec.kind == "zf_mimo":
        dist = _zf_mimo(P["N_rx"], P["N_tx"], P["S"], P.get("exponent"))
    elif spec.kind in ("mrc_list", "sum_interference"):
        # each distinct component (equal as dicts) is built once, then repeated
        comps = P["components"]
        built = [standard_channel(ChannelSpec(c["kind"], c.get("params", {})))
                 if comps.index(c) == i else None for i, c in enumerate(comps)]
        parts = [built[comps.index(c)] for c in comps]
        if not parts:
            raise ConstructionError(f"{spec.kind} requires components")
        dist = convolve(*(p.dist for p in parts))
        prov["children"] = [p.provenance for p in parts]
    elif spec.kind == "oscillatory_ex2":
        dist = _oscillatory_ex2()
    return EffectiveChannel(dist, prov)
