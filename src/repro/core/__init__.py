"""Core of the basic network creation game.

Everything the paper defines about the game itself lives here: usage costs,
the swap move, equilibrium notions (sum / max / deletion-critical /
insertion-stable / k-insertion), best responses, and the dynamics engine
that discovers equilibria empirically.
"""

from .best_response import BestResponse, best_swap, first_improving_swap
from .census import CensusRecord, census_experiment, seed_graph
from .costmodel import (
    BudgetCost,
    CostModel,
    InterestCost,
    MaxCost,
    SumCost,
    cost_model_spec,
    interest_sets,
    parse_cost_spec,
    resolve_cost_model,
)
from .costs import (
    INT_INF,
    ensure_lifted,
    lift_distances,
    local_diameter,
    local_diameter_vector,
    sum_cost,
    sum_cost_vector,
)
from .dynamics import DynamicsResult, SwapDynamics
from .engine import DistanceEngine
from .equilibrium import (
    Violation,
    find_deletion_criticality_violation,
    find_insertion_violation,
    find_max_swap_violation,
    find_sum_violation,
    find_swap_violation,
    is_deletion_critical,
    is_equilibrium,
    is_insertion_stable,
    is_k_insertion_stable,
    is_max_equilibrium,
    is_sum_equilibrium,
    k_insertion_witness,
    sum_equilibrium_gap,
)
from .kswap import is_k_swap_stable, k_swap_witness
from .moves import Swap, legal_add_targets, swapped_graph
from .swap_eval import (
    all_swap_costs_for_drop,
    removal_distance_matrix,
    swap_cost_after,
    swap_delta,
)
from .trajcensus import TrajectoryRecord, trajectory_experiment

__all__ = [
    "BestResponse",
    "BudgetCost",
    "CensusRecord",
    "CostModel",
    "DistanceEngine",
    "DynamicsResult",
    "INT_INF",
    "InterestCost",
    "MaxCost",
    "SumCost",
    "Swap",
    "SwapDynamics",
    "TrajectoryRecord",
    "Violation",
    "all_swap_costs_for_drop",
    "best_swap",
    "census_experiment",
    "cost_model_spec",
    "ensure_lifted",
    "find_deletion_criticality_violation",
    "find_insertion_violation",
    "find_max_swap_violation",
    "find_sum_violation",
    "find_swap_violation",
    "first_improving_swap",
    "interest_sets",
    "is_deletion_critical",
    "is_equilibrium",
    "is_insertion_stable",
    "is_k_insertion_stable",
    "is_k_swap_stable",
    "is_max_equilibrium",
    "is_sum_equilibrium",
    "k_insertion_witness",
    "k_swap_witness",
    "legal_add_targets",
    "lift_distances",
    "local_diameter",
    "local_diameter_vector",
    "parse_cost_spec",
    "removal_distance_matrix",
    "resolve_cost_model",
    "seed_graph",
    "sum_cost",
    "sum_cost_vector",
    "sum_equilibrium_gap",
    "swap_cost_after",
    "swap_delta",
    "swapped_graph",
    "trajectory_experiment",
]
