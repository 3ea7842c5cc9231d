"""repro — a reproduction of *Basic Network Creation Games* (SPAA 2010).

The library implements the paper's parameter-free network creation game
(edge-swap moves, sum/max usage costs), every construction appearing in the
paper, executable versions of its lemmas and theorems, the classical
α-parameterized games it generalizes, and the benchmark harness that
regenerates each figure- and theorem-level experiment.

Quickstart
----------
>>> from repro import star_graph, is_sum_equilibrium, SwapDynamics, random_tree
>>> is_sum_equilibrium(star_graph(8))          # Theorem 1: stars are equilibria
True
>>> result = SwapDynamics(objective="sum", seed=0).run(random_tree(16, seed=1))
>>> result.converged
True

Package layout
--------------
``repro.graphs``
    CSR graphs, vectorized BFS/APSP kernels, generators, structural
    properties (the game-agnostic substrate).
``repro.core``
    Usage costs, swaps, equilibrium auditors, best responses, dynamics.
``repro.constructions``
    The paper's graphs: stars/double stars, the Figure-3 diameter-3 sum
    equilibrium, the Theorem-12 torus family, projective-plane polarity
    graphs, Abelian Cayley graphs, the Conjecture-14 spider.
``repro.analysis``
    Distance uniformity, skew triples, the Theorem-13 power-graph pipeline,
    sumset growth, closed-form bound curves.
``repro.theory``
    Executable lemma/theorem checks and the prime tooling of Theorem 13.
``repro.games``
    The α-parameterized (Fabrikant et al.) game: Nash checks, social
    optimum, price of anarchy, and the swap-equilibrium transfer.
``repro.parallel``
    The deterministic, fault-tolerant process pool fleets run on.
``repro.experiments``
    Fleets as declarative ``Experiment`` grids, run by ``run_fleet``.
``repro.bench``
    The experiment registry behind ``benchmarks/`` and the CLI.
"""

from ._version import __version__
from .core import (
    BestResponse,
    CostModel,
    DynamicsResult,
    Swap,
    SwapDynamics,
    Violation,
    best_swap,
    census_experiment,
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
    local_diameter,
    resolve_cost_model,
    sum_cost,
    sum_equilibrium_gap,
)
from .experiments import run_fleet
from .graphs import (
    CSRGraph,
    bfs_distances,
    complete_graph,
    cycle_graph,
    diameter,
    distance_matrix,
    eccentricities,
    is_connected,
    path_graph,
    random_connected_gnm,
    random_tree,
    star_graph,
    total_pairwise_distance,
)

__all__ = [
    "BestResponse",
    "CSRGraph",
    "CostModel",
    "DynamicsResult",
    "Swap",
    "SwapDynamics",
    "Violation",
    "__version__",
    "best_swap",
    "bfs_distances",
    "census_experiment",
    "complete_graph",
    "cycle_graph",
    "diameter",
    "distance_matrix",
    "eccentricities",
    "find_deletion_criticality_violation",
    "find_insertion_violation",
    "find_max_swap_violation",
    "find_sum_violation",
    "find_swap_violation",
    "is_connected",
    "is_deletion_critical",
    "is_equilibrium",
    "is_insertion_stable",
    "is_k_insertion_stable",
    "is_max_equilibrium",
    "is_sum_equilibrium",
    "local_diameter",
    "path_graph",
    "random_connected_gnm",
    "random_tree",
    "resolve_cost_model",
    "run_fleet",
    "star_graph",
    "sum_cost",
    "sum_equilibrium_gap",
    "total_pairwise_distance",
]
