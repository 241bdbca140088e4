"""Finite transition-system abstractions for interconnected single integrators.

The library turns a uniform grid decomposition of the workspace plus a bound
on the coupled dynamics into, per agent, a finite transition system whose
transitions are realized by a hybrid feedback built from three parts: cancel
the live neighbor coupling, home in on a reference cell point, and compensate
the drift of the frozen-neighbor field. Admissibility of a (cell diameter,
period) pair guarantees every transition is well posed and the feedback stays
within the input bound.
"""

from .abstraction import (BoundCertificate, CompositionViolation, EnumerationCap,
                          Transition, TransitionCheck, TransitionSystem,
                          WellPosednessViolation, Window, agent_transition,
                          build_transition_system, certify_window_input_bound,
                          compose_plan, from_json, to_dot, to_json, verify_transition)
from .admissibility import (DiscretizationParams, FeasibilityError,
                            admissible_period_interval, check_discretization,
                            coupling_constants, diameter_upper_bound,
                            period_lower_bound)
from .config import ConfigError, RunConfig, load_config
from .controller import (DEFAULT_SUBSTEPS, ControllerBank, sample_feedback_bound,
                         sample_inflated_cell)
from .dynamics import (AgentNetwork, ConstantsViolation, DynamicsModel,
                       ValidationReport, project_configuration,
                       saturated_consensus, smooth_consensus, validate_constants)
from .geometry import (DISTANCE_ATOL, Box, CellConfiguration, CellIndex,
                       GridDecomposition, box_distance)
from .integrate import DenseTrajectory, rk4_path
from .simulate import (InputBoundViolation, IntegrationError, MonitorReport,
                       Trajectory, check_input_bound, check_linear_interpolation,
                       integrate_closed_loop, integrate_closed_loop_batch)

__version__ = "0.1.0"

__all__ = [
    "AgentNetwork",
    "BoundCertificate",
    "Box",
    "CellConfiguration",
    "CellIndex",
    "CompositionViolation",
    "ConfigError",
    "ConstantsViolation",
    "ControllerBank",
    "DEFAULT_SUBSTEPS",
    "DISTANCE_ATOL",
    "DenseTrajectory",
    "DiscretizationParams",
    "DynamicsModel",
    "EnumerationCap",
    "FeasibilityError",
    "GridDecomposition",
    "InputBoundViolation",
    "IntegrationError",
    "MonitorReport",
    "RunConfig",
    "Trajectory",
    "Transition",
    "TransitionCheck",
    "TransitionSystem",
    "ValidationReport",
    "WellPosednessViolation",
    "Window",
    "admissible_period_interval",
    "agent_transition",
    "box_distance",
    "build_transition_system",
    "certify_window_input_bound",
    "check_discretization",
    "check_input_bound",
    "check_linear_interpolation",
    "compose_plan",
    "coupling_constants",
    "diameter_upper_bound",
    "from_json",
    "integrate_closed_loop",
    "integrate_closed_loop_batch",
    "load_config",
    "period_lower_bound",
    "project_configuration",
    "rk4_path",
    "sample_feedback_bound",
    "sample_inflated_cell",
    "saturated_consensus",
    "smooth_consensus",
    "to_dot",
    "to_json",
    "validate_constants",
    "verify_transition",
]
