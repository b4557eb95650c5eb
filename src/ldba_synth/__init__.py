"""Policy synthesis for Buchi-automaton tasks on labeled stochastic grids.

The package couples a limit-deterministic Buchi automaton with a
slippery-grid MDP on the fly, shapes rewards through an accepting
frontier, learns a policy with tabular Q-learning, and checks the
outcome against an exact probabilistic model checker.
"""

from .automaton import (SINK_STATE, LdbaRuntime, LdbaSpec, LdbaSpecError, load_ldba_file,
                        parse_ldba_spec)
from .envs import (EnvSpecError, GridEnv, LabelRegion, load_env_file, parse_env_spec,
                   resolve_spec_path)
from .evaluation import TestConfig, robustness_sweep, run_test
from .learner import GreedyPolicy, Hyperparams, train
from .oracle import ProductSizeError, build_explicit_product, max_sat_probability, mec_decompose
from .product import ProductRun

__version__ = "0.1.0"

__all__ = [
    "EnvSpecError", "GreedyPolicy", "GridEnv", "Hyperparams", "LabelRegion", "LdbaRuntime",
    "LdbaSpec", "LdbaSpecError", "ProductRun", "ProductSizeError", "SINK_STATE", "TestConfig",
    "build_explicit_product", "load_env_file", "load_ldba_file",
    "max_sat_probability", "mec_decompose", "parse_env_spec", "parse_ldba_spec",
    "resolve_spec_path", "robustness_sweep", "run_test", "train",
]
