"""Scheduling of transmission directions for interfering two-way TDD links.

The package models networks of two-way links whose per-frame transmission
order ("spin") determines which nodes interfere with which, and provides
exact and heuristic optimizers for the spin configuration plus a seeded
Monte-Carlo harness for rate statistics.
"""

from .channel import (
    ASYMMETRIC,
    DEFAULT_INR_EDGE_THRESHOLD,
    SYMMETRIC,
    FadingDraw,
    LinkInstance,
    ScenarioConfig,
    draw_fading,
    generate_instance,
)
from .evaluation import (
    ALGORITHMS,
    AlgorithmStats,
    EvalReport,
    ExperimentConfig,
    run_experiment,
    sweep,
)
from .optimizer import (
    OptimizationResult,
    exhaustive_search,
    mst_dp,
    random_spins,
)
from .sinr import (
    UtilityKind,
    link_utility,
    network_utility,
    two_way_rates,
)
from .topology import (
    RootedTree,
    TopologyGraph,
    build_graph,
    maximum_spanning_tree,
    relative_from_spins,
)

__all__ = [
    "ALGORITHMS",
    "ASYMMETRIC",
    "DEFAULT_INR_EDGE_THRESHOLD",
    "SYMMETRIC",
    "AlgorithmStats",
    "EvalReport",
    "ExperimentConfig",
    "FadingDraw",
    "LinkInstance",
    "OptimizationResult",
    "RootedTree",
    "ScenarioConfig",
    "TopologyGraph",
    "UtilityKind",
    "build_graph",
    "draw_fading",
    "exhaustive_search",
    "generate_instance",
    "link_utility",
    "maximum_spanning_tree",
    "mst_dp",
    "network_utility",
    "random_spins",
    "relative_from_spins",
    "run_experiment",
    "sweep",
    "two_way_rates",
]

__version__ = "0.1.0"
