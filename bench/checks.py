"""Check families: how a benchmark output is compared with its reference.

Tolerances come from the accuracy each method documents, not from the
errors seen today:

* ``CLOSED`` -- matrix-exponential, resolvent, Sylvester and companion
  closed forms.  mekit's acceptance suite holds closed forms to 1e-8 and
  its oscillatory round trip to 1e-10 absolute; a check passes within
  ``1e-8 * |ref| + 1e-10 * scale`` (``scale`` is R for throughputs, 1 for
  probabilities).
* ``QUAD`` -- results that go through ``matfun.quad`` (default tolerance
  1e-10) or the three-point extrapolation of ``ergodic_capacity``; mekit's
  own cross-check of the effective-capacity paths is 1e-7.
* ``ENTROPY`` -- ``entropy_numeric`` runs at tolerance 1e-9; mekit's
  acceptance bound on entropy is 1e-6.
* ``LLOYD`` -- ``lloyd_max`` stops when the relative centroid move is below
  ``tol`` (1e-10); after a linear fixed-point iteration the remaining
  distance to the optimum is ``tol / (1 - rate)``, and 1e-8 allows a
  contraction rate of up to 0.99.
* Monte Carlo -- ``|z| < 4`` against the reference, as ``mekit verify``;
  its digits score is that of the relative standard error.
"""

from __future__ import annotations

import math

CLOSED = (1e-8, 1e-10)
QUAD = (1e-7, 1e-10)
ENTROPY = (1e-6, 1e-9)
LLOYD = (1e-8, 0.0)
Z_LIMIT = 4.0

# a relative error of 1e-16 or less scores the cap
DIGITS_CAP = 16.0


class CheckFailed(AssertionError):
    """An output disagrees with its reference beyond the family tolerance."""


def rel_error(got, want):
    got, want = float(got), float(want)
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def digits(err):
    """-log10 of a relative error, capped at 16."""
    return DIGITS_CAP if err <= 10 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def close(got, want, family, scale=1.0, what="value"):
    """Compare one value; return its relative error or raise CheckFailed."""
    rtol, atol = family
    got = float(got)
    if not math.isfinite(got) or abs(got - want) > rtol * abs(want) + atol * scale:
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")
    return rel_error(got, want)


def z_test(estimate, stderr, want, what="estimate"):
    """Monte Carlo estimate against the reference.  Returns the relative
    standard error, which stands in for the relative error when scoring
    digits: the realized error is the standard error times a unit normal
    draw, and scoring it would measure that draw."""
    z = (float(estimate) - want) / max(float(stderr), 1e-300)
    if not abs(z) < Z_LIMIT:
        raise CheckFailed(f"{what}: z = {z:.2f} against reference {want!r}")
    return float(stderr) / abs(want)
