"""mekit: matrix-exponential distribution algebra for wireless performance
analysis.

The package models channel SNR with the ME distribution (rational Laplace
transform), provides the closure operations that map an unprocessed channel
through signal processing into an effective channel, and evaluates the
standard performance metrics (outage, ARQ/HARQ throughput, effective
capacity, BER/PEP, ...) in closed matrix form, each cross-validated against
Monte Carlo and quadrature oracles.
"""

from .algebra import (EffectiveChannel, convolve, kfold_block, max_dist,
                      min_dist, standard_channel)
from .bivariate import (BivME, InterferenceScenario,
                        arq_interference_throughput, sm_mimo_2x2_outage,
                        wishart2x2_bivme)
from .infoq import (Type1Dist, Type2Dist, Type3Dist, entropy_numeric,
                    lloyd_max, mi_additive_channel, panter_dite_mse)
from .matfun import expm, kron_sum, mat_frac_power, quad, solve_sylvester
from .medist import (ChannelSpec, MEDist, RationalLT, erlang, exponential,
                     from_product_form, from_rational_lt, to_rational_lt)
from .metrics import (MetricResult, arq_throughput, ber_coherent,
                      ber_noncoherent, diversity_gain, eff_capacity_me_rate,
                      eff_capacity_shannon, ergodic_capacity,
                      harq_persistent_throughput, harq_truncated_throughput,
                      lambert_w0, mimo_high_snr_outage, ncbr_throughput,
                      optimize_rate, outage, outage_capacity, pep,
                      theta_absolute, theta_unit_mean)
from .oracle import MCEstimate, RngConfig, mc_metric, sample

__version__ = "0.1.0"

__all__ = [
    "BivME", "ChannelSpec", "EffectiveChannel", "InterferenceScenario",
    "MCEstimate", "MEDist", "MetricResult", "RationalLT",
    "RngConfig", "Type1Dist", "Type2Dist", "Type3Dist",
    "arq_interference_throughput", "arq_throughput", "ber_coherent",
    "ber_noncoherent", "convolve", "diversity_gain", "eff_capacity_me_rate",
    "eff_capacity_shannon", "entropy_numeric", "ergodic_capacity", "erlang",
    "expm", "exponential", "from_product_form", "from_rational_lt",
    "harq_persistent_throughput", "harq_truncated_throughput", "kfold_block",
    "kron_sum", "lambert_w0", "lloyd_max", "mat_frac_power",
    "max_dist", "mc_metric", "mi_additive_channel", "mimo_high_snr_outage",
    "min_dist", "ncbr_throughput", "optimize_rate",
    "outage", "outage_capacity", "panter_dite_mse", "pep", "quad", "sample",
    "sm_mimo_2x2_outage", "solve_sylvester", "standard_channel",
    "theta_absolute", "theta_unit_mean", "to_rational_lt",
    "wishart2x2_bivme",
]
