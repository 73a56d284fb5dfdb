"""mekit: matrix-exponential distribution algebra for wireless performance
analysis.

The package models channel SNR with the ME distribution (rational Laplace
transform), provides the closure operations that map an unprocessed channel
through signal processing into an effective channel, and evaluates the
standard performance metrics (outage, ARQ/HARQ throughput, effective
capacity, BER/PEP, ...) in closed matrix form, each cross-validated against
Monte Carlo and quadrature oracles.

Submodules load on first use: ``mekit.outage`` (or ``mekit.metrics``)
imports ``mekit.metrics`` and binds all of its names below at once.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {mod: tuple(names.split()) for mod, names in {
    "algebra": "EffectiveChannel convolve kfold_block max_dist min_dist "
               "standard_channel",
    "bivariate": "BivME InterferenceScenario arq_interference_throughput "
                 "sm_mimo_2x2_outage wishart2x2_bivme",
    "cli": "",
    "infoq": "Type1Dist Type2Dist Type3Dist entropy_numeric lloyd_max "
             "mi_additive_channel panter_dite_mse",
    "matfun": "expm kron_sum mat_frac_power quad solve_sylvester",
    "medist": "ChannelSpec MEDist RationalLT erlang exponential "
              "from_product_form from_rational_lt to_rational_lt",
    "metrics": "MetricResult arq_throughput ber_coherent ber_noncoherent "
               "diversity_gain eff_capacity_me_rate eff_capacity_shannon "
               "ergodic_capacity harq_persistent_throughput "
               "harq_truncated_throughput mimo_high_snr_outage "
               "ncbr_throughput optimize_rate outage outage_capacity pep "
               "theta_absolute theta_unit_mean",
    "oracle": "MCEstimate RngConfig mc_metric sample",
}.items()}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    mod = name if name in _EXPORTS else _OWNER.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{mod}")
    for n in _EXPORTS[mod]:
        globals()[n] = getattr(module, n)
    return module if name == mod else globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
