"""qmedian: deterministic simulator and estimation toolkit for
amplitude-amplified median/imbalance estimation.

The package simulates an n-bit register whose basis states carry dataset
values, amplifies the below-threshold amplitude with a diffusion loop,
and inverts the measured below fraction into a signed imbalance estimate
with confidence intervals; a threshold search on top of that estimates
the median.  Everything is deterministic given a seed.
"""

from .adaptive import median_search_counted
from .baseline import classical_estimate
from .checks import CheckResult, run_checks
from .dataset import (
    Dataset,
    ThresholdOracle,
    dataset_from_values,
    dataset_to_text,
    load_dataset,
    make_oracle,
    oracle_from_mask,
    rank_below,
    read_dataset,
    synth_dataset,
)
from .driver import (
    ExperimentResult,
    RunPlan,
    amplification_loop,
    choose_alpha,
    choose_beta,
    prepare,
    run_experiment,
)
from .errors import (
    DataError,
    DatasetParseError,
    DatasetSizeError,
    NumericalError,
    ParameterError,
    QmedianError,
)
from .estimator import EstimateRecord, eps_est
from .model import (
    TwoAmpState,
    conserved_quantity,
    k_closed_form,
    k_small_eps_approx,
    l_closed_form,
    loop_step,
    post_shift,
    predicted_fraction,
)
from .rng import RandomStream, bulk_uniforms, derive_seed, mix64
from .statevector import (
    StateVector,
    conditional_phase,
    diffusion,
    probability_of,
    shift,
    uniform_state,
    walsh_hadamard,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QmedianError", "ParameterError", "DataError", "DatasetParseError",
    "DatasetSizeError", "NumericalError",
    # rng
    "mix64", "RandomStream", "derive_seed", "bulk_uniforms",
    # register
    "StateVector", "uniform_state", "walsh_hadamard", "conditional_phase",
    "diffusion", "shift", "probability_of",
    # datasets
    "Dataset", "ThresholdOracle", "dataset_from_values", "load_dataset",
    "read_dataset", "dataset_to_text", "make_oracle", "oracle_from_mask",
    "rank_below", "synth_dataset",
    # analytic model
    "TwoAmpState", "post_shift", "loop_step",
    "conserved_quantity", "k_closed_form", "l_closed_form",
    "k_small_eps_approx", "predicted_fraction",
    # driver
    "RunPlan", "ExperimentResult", "prepare", "amplification_loop",
    "run_experiment", "choose_alpha", "choose_beta",
    # estimation
    "EstimateRecord", "eps_est",
    # adaptive drivers
    "median_search_counted",
    # classical baseline
    "classical_estimate",
    # verification suite
    "CheckResult", "run_checks",
]
