"""Simulator and algorithms for uniform circle formation by unit-disc robots."""

from .geometry import (
    Circle,
    MotionSegment,
    Point,
    compute_target_points,
    is_free_path,
    is_vacant_target,
    min_separation_during_motion,
    smallest_enclosing_circle,
    smallest_enclosing_circle_bruteforce,
)
from .global_form import (
    GlobalParams,
    compute_radius,
    detect_symmetry,
    form_ucircle,
    global_step,
    sec_expansion,
)
from .harness import (
    ConfigError,
    RunSummary,
    ScenarioConfig,
    compute_metrics,
    generate_scenario,
    parse_config,
    run_scenario,
)
from .local_form import (
    LocalParams,
    classify_psi,
    compute_destination,
    compute_robot_position,
    eligible_to_move,
    local_step,
)
from .simcore import (
    Action,
    Robot,
    Schedule,
    Snapshot,
    Trace,
    TraceEvent,
    WorldState,
    execute_cycle,
    next_activation,
    run,
    take_snapshot,
)

__version__ = "0.1.0"
