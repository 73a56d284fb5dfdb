"""Property test of the stepped (cdf, pdf) table on drawn channels: the
sampler's table (:func:`mekit.oracle._cdf_table`, built by
:meth:`MEDist._table`) against independent references.

The density has two, because neither keeps 1e-12 relative everywhere:
``MEDist.pdf`` (squaring a Pade approximant) drifts by ~1e-12 in the slow
tail of a stiff channel, where ``conftest.classic_pdf``
(``scipy.linalg.expm``) stays near 1e-14; at the first nodes of a
high-order closure, where f ~ t^(d-1), ``classic_pdf`` loses all relative
digits and ``MEDist.pdf`` keeps them.  The table must match one of them."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mekit import ChannelSpec, standard_channel
from mekit.algebra import max_dist, min_dist
from mekit.oracle import _cdf_table
from conftest import classic_cdf, classic_pdf

mean_snr = st.floats(0.1, 100.0)
rayleigh = st.builds(lambda S: {"kind": "rayleigh", "params": {"S": S}},
                     mean_snr)
nakagami = st.builds(lambda m, S: {"kind": "nakagami",
                                   "params": {"m": m, "S": S}},
                     st.integers(1, 4), mean_snr)
sdc = st.builds(lambda N, S: {"kind": "sdc", "params": {"N": N, "S": S}},
                st.integers(1, 4), mean_snr)
mrc = st.builds(lambda c: {"kind": "mrc_list", "params": {"components": c}},
                st.lists(st.one_of(rayleigh, nakagami), min_size=2,
                         max_size=3))
leaf = st.one_of(rayleigh, nakagami, sdc, mrc).map(
    lambda s: standard_channel(ChannelSpec(s["kind"], s["params"])).dist)
channel = st.one_of(
    leaf,
    st.builds(lambda a, b: max_dist(a, b).closure(), leaf, leaf),
    st.builds(lambda a, b: min_dist(a, b).closure(), leaf, leaf))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(channel, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_table_against_references(dist, where):
    ts, F, f = _cdf_table(dist)
    i = (np.asarray(where) * (ts.size - 1)).astype(int)
    for k in i:
        assert abs(F[k] - classic_cdf(dist, ts[k])) <= 1e-10
        refs = np.array([dist.pdf(ts[k]), classic_pdf(dist, ts[k])])
        assert (refs.max() <= 1e-300
                or np.any(np.abs(f[k] - refs) <= 1e-12 * refs))
    # nondecreasing on every cell whose end densities are nonnegative
    cell = (f[:-1] >= 0.0) & (f[1:] >= 0.0)
    assert np.all(np.diff(F)[cell] >= -1e-14)
