"""Graph substrate: CSR storage, BFS kernels, distances, generators.

This subpackage is game-agnostic — it knows nothing about swaps or equilibria
and can be used as a small standalone unweighted-graph toolkit.  The game
layer (:mod:`repro.core`) is built entirely on top of it.
"""

from .bfs import UNREACHABLE, bfs_aggregates, bfs_distances, bfs_tree_parents
from .convert import (
    from_networkx,
    read_edge_list,
    relabel_to_integers,
    to_networkx,
    write_edge_list,
)
from .csr import CSRGraph
from .graph6 import from_graph6, to_graph6
from .distances import (
    average_distance,
    ball_sizes,
    diameter,
    diameter_or_inf,
    distance_histogram,
    distance_matrix,
    eccentricities,
    is_connected,
    radius,
    sphere_sizes,
    sum_distances_from,
    total_pairwise_distance,
)
from .generators import (
    all_trees,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    path_graph,
    prufer_to_tree,
    random_connected_gnm,
    random_tree,
    star_graph,
)
from .power import power_distance_matrix, power_graph
from .repair import (
    INT_INF_DISTANCE,
    batched_removal_rows_multi,
    predecessor_counts,
    removal_affected_sources,
    removal_matrix_repair,
)
from .properties import (
    connected_components,
    cut_vertices,
    degree_sequence,
    distance_profiles_identical,
    girth,
    is_bipartite,
    is_vertex_transitive,
    neighborhoods_are_independent,
)

__all__ = [
    "CSRGraph",
    "INT_INF_DISTANCE",
    "UNREACHABLE",
    "all_trees",
    "average_distance",
    "ball_sizes",
    "batched_removal_rows_multi",
    "bfs_aggregates",
    "bfs_distances",
    "bfs_tree_parents",
    "complete_bipartite_graph",
    "complete_graph",
    "connected_components",
    "cut_vertices",
    "cycle_graph",
    "degree_sequence",
    "diameter",
    "diameter_or_inf",
    "distance_histogram",
    "distance_matrix",
    "distance_profiles_identical",
    "eccentricities",
    "empty_graph",
    "from_graph6",
    "from_networkx",
    "girth",
    "grid_graph",
    "is_bipartite",
    "is_connected",
    "is_vertex_transitive",
    "neighborhoods_are_independent",
    "path_graph",
    "power_distance_matrix",
    "power_graph",
    "predecessor_counts",
    "prufer_to_tree",
    "radius",
    "random_connected_gnm",
    "random_tree",
    "read_edge_list",
    "relabel_to_integers",
    "removal_affected_sources",
    "removal_matrix_repair",
    "sphere_sizes",
    "star_graph",
    "sum_distances_from",
    "to_graph6",
    "to_networkx",
    "total_pairwise_distance",
    "write_edge_list",
]
