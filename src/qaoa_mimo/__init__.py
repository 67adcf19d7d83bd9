"""QAOA-based maximum-likelihood detection of BPSK symbols in simulated MIMO channels."""

from .closed_form import depth1_expectation, depth1_moments
from .instances import brute_force_detect, generate_instance
from .ising import build_ising
from .localopt import minimize
from .simulator import expectation, qaoa_state, success_probability
from .warmstart import angle_bounds, train_init

__version__ = "0.1.0"
