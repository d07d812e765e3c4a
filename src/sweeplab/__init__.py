"""Numerical laboratory for periodic polyhedral sweeping processes."""

from .errors import (
    ConfigError,
    DegenerateGaitError,
    EnumerationCapError,
    GridAlignmentError,
    InadmissibleStateError,
    InfeasibleSetError,
    LicqError,
    MembershipError,
    NormalConeError,
    PatternSearchError,
    SweepLabError,
)
from .signals import PeriodicSignal, combine, eval_signal, lipschitz_constant, triangle_wave
from .polyhedra import (
    DEFAULT_TOL,
    FrozenPolyhedron,
    MovingPolyhedron,
    active_set,
    check_licq,
    contains,
    decompose_normal,
    enumerate_faces,
    freeze,
    gamma_constant,
    project,
    vertices,
)
from .sweeping import (
    Classification,
    ConvergenceReport,
    SweepingProblem,
    Trajectory,
    convergence_report,
    lambda_convergence,
    read_trajectory_csv,
    simulate,
    validate_trajectory,
    write_trajectory_csv,
)
from .crawler import (
    Gait,
    Motion,
    admissible,
    assemble_positions,
    build_moving_set,
    energy_gradient,
    estimate_velocity,
    incremental_oracle,
    pi_y,
    pi_z,
    recover_translation,
    running_periodic_decomposition,
    simulate_reduced,
)
from .scenarios import (
    Scenario,
    catalog,
    edge_map,
    ncell_scenario,
    triangle_scenario,
    wedge_poincare,
    wedge_scenario,
)

__version__ = "0.1.0"
