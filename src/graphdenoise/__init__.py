"""Noise-robust node representations via policy-driven neighbor selection.

The library jointly trains a reinforcement-learning policy that keeps only
the informative ("signal") neighbors of each node and a mean-aggregator
classifier over the kept neighborhoods, and ships a set-function oracle
suite that verifies the reward's monotonicity, diminishing returns and the
(1 - 1/e) greedy guarantee empirically.
"""

from .graph import (Graph, GraphError, NoiseSpec, build_graph, corrupt_features,
                    generate_planted_partition, inject_edge_noise, load_graph,
                    save_graph_json, validate_graph, write_edge_list)
from .policy import PolicyParams, PPOConfig, discounted_returns, kl_bernoulli, ppo_update
from .representation import (AggregatorParams, ClassifierParams, f_c_score, micro_f1,
                             train_representation)
from .submodular import (CheckReport, CoverageFunction, SelectionRewardFunction, SetFunction,
                         brute_force_optimal, check_monotone, check_submodular,
                         greedy_maximize)
from .trainer import (SelectionReport, TrainConfig, TrainResult, evaluate,
                      export_denoised_graph, selection_report, train)

__version__ = "0.1.0"
