"""Deterministic simulator and analysis toolkit for hierarchical beacon
routing on dynamic wireless connectivity graphs.

The package splits into six layers, re-exported here for convenience:

- :mod:`beaconsim.geometry`: torus domains, seeded placement, squarelet grids
- :mod:`beaconsim.graph`: connectivity graphs, BFS, covers, growth estimates
- :mod:`beaconsim.mobility`: movement models and hop-distance smoothness
- :mod:`beaconsim.topology`: walls, holes, combs, and the sparse regime
- :mod:`beaconsim.protocol`: beacon hierarchy maintenance and forwarding
- :mod:`beaconsim.harness`: the simulation driver, experiments, and CSV output

``beaconsim.acceptance`` runs the full-scale end-to-end checks and the
``beaconsim`` console script exposes the driver and experiments.
"""

from .errors import (
    BeaconSimError,
    ConnectivityError,
    DeliveryError,
    DomainError,
    HorizonError,
    ParameterError,
    ProtocolInvariantError,
)
from .geometry import (
    DomainSpec,
    OccupancyReport,
    Position,
    SquareletGrid,
    occupancy_report,
    positions_as_array,
    sample_uniform_positions,
    squarelet_of,
)
from .graph import (
    ConnectivityGraph,
    DiameterResult,
    DoublingEstimate,
    SinrParams,
    ball,
    bfs_distances,
    build_geometric_graph,
    build_sinr_graph,
    diameter,
    estimate_doubling_dimension,
    greedy_cover,
)
from .harness import (
    BaselineResult,
    MetricsSeries,
    OverheadRow,
    RegimeRow,
    SimConfig,
    StepMetrics,
    WallDemo,
    experiment_doubling_regimes,
    experiment_overhead_scaling,
    experiment_stretch_cdf,
    greedy_georoute_baseline,
    load_config,
    log_fit_r2,
    radius_for,
    run_simulation,
    wall_demonstration,
)
from .mobility import (
    Lockstep,
    RandomWalk,
    RandomWaypoint,
    SmoothnessReport,
    SmoothnessSample,
    measure_smoothness,
    scaled_gap_kappa,
    step,
    theoretical_kappa,
)
from .protocol import (
    ForwardReceipt,
    Membership,
    ProtocolEngine,
    ProtocolParams,
    RoundReport,
)
from .topology import (
    CombTopology,
    Hole,
    HoleReport,
    WallTopology,
    comb_udg,
    hole_report,
    remove_squarelets,
    subcritical_positions,
    wall_graph,
    wall_topology,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "BeaconSimError",
    "CombTopology",
    "ConnectivityError",
    "ConnectivityGraph",
    "DeliveryError",
    "DiameterResult",
    "DomainError",
    "DomainSpec",
    "DoublingEstimate",
    "ForwardReceipt",
    "Hole",
    "HoleReport",
    "HorizonError",
    "Lockstep",
    "Membership",
    "MetricsSeries",
    "OccupancyReport",
    "OverheadRow",
    "ParameterError",
    "Position",
    "ProtocolEngine",
    "ProtocolInvariantError",
    "ProtocolParams",
    "RandomWalk",
    "RandomWaypoint",
    "RegimeRow",
    "RoundReport",
    "SimConfig",
    "SinrParams",
    "SmoothnessReport",
    "SmoothnessSample",
    "SquareletGrid",
    "StepMetrics",
    "WallDemo",
    "WallTopology",
    "ball",
    "bfs_distances",
    "build_geometric_graph",
    "build_sinr_graph",
    "comb_udg",
    "diameter",
    "estimate_doubling_dimension",
    "experiment_doubling_regimes",
    "experiment_overhead_scaling",
    "experiment_stretch_cdf",
    "greedy_cover",
    "greedy_georoute_baseline",
    "hole_report",
    "load_config",
    "log_fit_r2",
    "measure_smoothness",
    "occupancy_report",
    "positions_as_array",
    "radius_for",
    "remove_squarelets",
    "run_simulation",
    "sample_uniform_positions",
    "scaled_gap_kappa",
    "squarelet_of",
    "step",
    "subcritical_positions",
    "theoretical_kappa",
    "wall_demonstration",
    "wall_graph",
    "wall_topology",
    "__version__",
]
