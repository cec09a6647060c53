"""Balanced truncation for bilinear control systems.

Gramians from generalized Lyapunov equations and a control-bounded
Riccati-type inequality, square-root balancing, truncation with certified
output error constants, trajectory simulation under bounded controls, and an
empirical verification campaign for the bounds.
"""

from .balancing import (
    BalancedRealization,
    BalancingError,
    ReducedModel,
    order_selector,
    square_root_balance,
    truncate,
)
from .gramians import (
    GramianPair,
    mixed_pair_from_P2,
    mixed_pair_Q1_P2,
    stochastic_type2_P2,
    transform_gramians,
    type1_gramians,
    type2_gramians,
)
from .kronecker import KroneckerCapError
from .matrix_equations import (
    ConvergenceError,
    FeasibilityReport,
    LyapunovOperator,
    MatrixEquationError,
    MeanSquareInstabilityError,
    RiccatiInequalityProblem,
    RiccatiInfeasibleError,
    SolveDiagnostics,
    check_lmi_feasibility,
    solve_type2_riccati,
)
from .simulation import (
    ControlSignal,
    SimulationBlowUpError,
    Trajectory,
    bounded_control_suite,
    simulate,
    simulate_groups,
)
from .system import (
    BilinearSystem,
    StabilityReport,
    ValidationResult,
    load_system,
    rescale,
    save_system,
    stability_report,
    transform,
    validate,
)
from .verification import (
    BoundCheckReport,
    CampaignConfig,
    CampaignResult,
    CampaignWorkerError,
    PreconditionViolation,
    benchmark_campaign,
    campaign_to_csv,
    campaign_to_json,
    check_error_bound,
    check_gronwall_P2,
    check_mixed_side_conditions,
    check_observ_energy,
    check_reach_energy,
    duplicate_system,
    linear_stable_system,
    random_ms_stable_system,
    worked_2x2,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
