"""QAOA-based maximum-likelihood detection of BPSK symbols in simulated MIMO channels."""

from .bayesopt import (
    BoHistory,
    GpPosterior,
    SquaredExponentialKernel,
    bayes_opt,
    gp_fit,
    gp_predict,
    maximize_acquisition,
)
from .closed_form import depth1_expectation, depth1_moments
from .errors import ObjectiveEvaluationError, ResourceLimitError
from .instances import (
    ChannelInstance,
    brute_force_detect,
    generate_instance,
    ml_objective,
    read_instances,
    write_instances,
)
from .ising import (
    IsingModel,
    build_ising,
    index_to_bitstring,
    index_to_spins,
    ising_energy,
    spins_to_bits,
    spins_to_index,
)
from .localopt import OptTrace, minimize
from .simulator import (
    DEFAULT_QUBIT_CAP,
    QaoaParams,
    Statevector,
    expectation,
    hamiltonian_diagonal,
    qaoa_state,
    success_probability,
)
from .warmstart import (
    InitParams,
    angle_bounds,
    meta_objective,
    read_init_params,
    train_init,
    write_init_params,
)

__version__ = "0.1.0"

__all__ = [
    "BoHistory",
    "ChannelInstance",
    "DEFAULT_QUBIT_CAP",
    "GpPosterior",
    "InitParams",
    "IsingModel",
    "ObjectiveEvaluationError",
    "OptTrace",
    "QaoaParams",
    "ResourceLimitError",
    "SquaredExponentialKernel",
    "Statevector",
    "angle_bounds",
    "bayes_opt",
    "brute_force_detect",
    "build_ising",
    "depth1_expectation",
    "depth1_moments",
    "expectation",
    "generate_instance",
    "gp_fit",
    "gp_predict",
    "hamiltonian_diagonal",
    "index_to_bitstring",
    "index_to_spins",
    "ising_energy",
    "maximize_acquisition",
    "meta_objective",
    "minimize",
    "ml_objective",
    "qaoa_state",
    "read_init_params",
    "read_instances",
    "spins_to_bits",
    "spins_to_index",
    "success_probability",
    "train_init",
    "write_init_params",
    "write_instances",
]
