"""Root-state reconstruction for Markov chains on edge-weighted trees.

Trees, their truncations and nested families; finite-state chain
machinery; simulated leaves and pruned leaf likelihoods; root estimators
with the frequency-test family; closed-form error bounds; and an indel
sequence process (TKF91) drawn down trees beside the finite chains.
"""

from .bounds import (BoundInputs, clamp, prop54_uniform_bound, prop54_valid,
                     recon_lower, recon_upper, thm2_general_bound,
                     thm2_valid, wilson_interval)
from .ctmc import (CtmcError, Distribution, RateMatrix, jukes_cantor,
                   load_rate_matrix, row_distribution, total_variation,
                   transition_matrix, two_state_symmetric)
from .estimators import (EstimatorError, RowTable, StretchPlan,
                         exclusivity_stats, frequency_tests, lambda_epsilon,
                         majority_estimates, map_estimates, stretch_plan,
                         uniform_chain_tests)
from .tree import (NestedFamily, Tree, TreeError, TreePoint, chosen_leaves,
                   generate_family, parse_newick, truncate)
from .treechain import (BLOCK, TrialBlock, block_leaf_likelihoods,
                        simulated_trials)

__version__ = "0.1.0"

# TKF91's names load its module on first use (PEP 562), so that importing
# the package, or running a finite chain, never runs tkf91.py
_TKF91 = frozenset({"Tkf91Params", "evolve_lanes", "mc_rows",
                    "stationary_pmf", "stationary_sample", "top_states"})


def __getattr__(name):
    if name in _TKF91:
        from . import tkf91
        return getattr(tkf91, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
