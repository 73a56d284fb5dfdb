from pathlib import Path

import numpy as np
import pytest

from mekit import ChannelSpec, MEDist, RationalLT, erlang, exponential
from mekit import from_rational_lt, standard_channel
from mekit.algebra import convolve


def random_stable_matrix(rng, n, margin=0.5):
    """Random real matrix with spectral abscissa at most -margin."""
    A = rng.normal(size=(n, n))
    shift = max(np.linalg.eigvals(A).real) + margin
    return A - shift * np.eye(n)


def example2():
    """Oscillatory degree-3 density (1 + 1/49)(1 - cos 7t) e^{-t}."""
    return from_rational_lt(RationalLT(p=[50.0], q=[50.0, 52.0, 3.0]))


def example2_pdf(t):
    return (1.0 + 7.0 ** -2) * (1.0 - np.cos(7.0 * t)) * np.exp(-t)


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
