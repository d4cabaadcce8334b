"""Graph-driven upper and lower bounds for the probability of a union of
events, with exact polynomial network-reliability reporting."""

from .bounds import (
    BoundReport,
    chordal_lower,
    chordal_upper,
    classical_bonferroni,
    clique_sieve_sum,
    generalized_lower,
    hunter_lower_tree,
    hunter_upper_tree,
    kwerel2_lower,
    kwerel_lower,
    kwerel_upper,
    path_lower,
    seneta_lower,
    seneta_upper,
)
from .errors import DomainError, ResourceLimitError
from .events import (
    EventSystem,
    ProductSystem,
    alpha_prime,
    atom_prob,
    bernoulli_product,
    from_outcomes,
    intersection_prob,
    union_prob_exact,
)
from .graphs import (
    Graph,
    build_graph,
    clique_complex,
    complete_graph,
    connected_components,
    counterexample_family,
    counterexample_graph,
    cycle_graph,
    edgeless_graph,
    independence_number,
    is_chordal,
    is_perfect_elimination_order,
    join_graphs,
    mcs_order,
    path_graph,
    tree_graph,
    truncated_euler_sum,
)
from .optimize import (
    best_path,
    best_tree,
    exhaustive_tree_oracle,
    pairwise_weights,
    path_weight,
    tree_weight,
)
from .poly import P, Polynomial
from .reliability import (
    Network,
    bound_polynomials,
    bound_values,
    bridge_network,
    build_network,
    enumerate_st_paths,
    exact_reliability,
    path_event_system,
    sweep,
)
from .values import POLYNOMIAL, RATIONAL, REAL, Backend

__version__ = "0.1.0"
