"""Root-state reconstruction for Markov chains on edge-weighted trees.

Trees and their truncations, restrictions, and spreads; finite-state
chain machinery; simulated leaves and pruned leaf likelihoods; root
estimators with the frequency-test family; closed-form error bounds; and
an indel sequence process (TKF91) drawn down trees beside the finite
chains.
"""

from .bounds import (BoundInputs, chebyshev_star_bound, clamp,
                     pinched_star_hoeffding_bound,
                     pinched_star_majority_error, prop54_uniform_bound,
                     prop54_valid, recon_lower, recon_upper,
                     thm2_general_bound, thm2_valid, variance_bound,
                     wilson_interval)
from .ctmc import (CtmcError, Distribution, RateMatrix,
                   identifiability_margin, jukes_cantor, load_rate_matrix,
                   row_distribution, star_norm, star_norm_diff,
                   total_variation, transition_matrix, two_state_symmetric)
from .estimators import (EstimatorError, RowTable, StretchPlan,
                         exclusivity_stats, frequency_tests, lambda_epsilon,
                         majority_estimate, map_estimate, map_estimates,
                         stretch_plan, uniform_chain_tests)
from .tree import (NestedFamily, Tree, TreeError, TreePoint,
                   big_bang_profile, chosen_leaves,
                   extract_well_spread_restriction, generate_family,
                   parse_newick, restrict, spread, stretch_to_height,
                   to_newick, truncate)
from .treechain import (BLOCK, TrialBlock, block_leaf_likelihoods,
                        leaf_likelihoods, simulate, simulated_trials)

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
