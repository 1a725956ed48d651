"""Round-synchronous simulation of parallel Gibbs samplers on Markov random
fields, with exact small-instance verification.

The package splits into a mathematical substrate (graphs, instances,
weights, conditionals), two parallel chains plus a sequential baseline
driven by counter-based addressable randomness (each chain one batched
round function over an (n_runs, n) array), an exhaustive oracle that
verifies their one-round laws and stationarity on tiny instances, and
diagnostics for influence, mixing, coupling decay, and correlation decay.
"""

from .chains import (ChainSpec, SchedulerSpec, check_filter_positivity,
                     chromatic_classes, local_metropolis, luby_glauber,
                     sequential_glauber)
from .config import (ConfigError, ExperimentConfig, build_chain, build_graph,
                     build_instance, load_config, parse_config_text,
                     validate_config)
from .diagnostics import (DecayCurve, GammaReport, InfluenceMatrix,
                          MixingCurve, correlation_length, coupling_decay,
                          crossing_round, dobrushin_alpha_coloring,
                          influence_matrix_numeric, luby_gamma_estimate,
                          mixing_scan)
from .engine import initial_config, run_batch
from .graphs import (EndpointOutOfRange, GenerationFailed, Graph, ParseError,
                     complete, cycle, grid, load_edge_list, path,
                     random_regular, save_edge_list)
from .models import EmptyList, coloring, hardcore, ising, list_coloring, potts
from .mrf import (DegenerateActivity, MrfInstance, ZeroMarginal,
                  feasible_batch, is_feasible, marginal,
                  validate_configuration, weight, weight_batch)
from .oracle import (BalanceReport, Distribution, StateSpaceTooLarge,
                     TransitionMatrix, UnsupportedScheduler,
                     ZeroPartitionFunction, ZeroProbabilityCondition,
                     check_detailed_balance, enumerate_gibbs,
                     exact_conditional_marginal, exact_transition_matrix,
                     forest_conditional_marginal, tv_distance)
from .randomness import RandomTape

__version__ = "0.1.0"
