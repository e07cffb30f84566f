from .dsl import Case, parse_case, parse_poly, render_case
from .verify import (
    CheckOutcome,
    ComponentData,
    Report,
    ambient_degree,
    compute_components,
    verify_case,
)
from .suite import SuiteResult, run_suite

__all__ = [
    "Case",
    "CheckOutcome",
    "ComponentData",
    "Report",
    "SuiteResult",
    "ambient_degree",
    "compute_components",
    "parse_case",
    "parse_poly",
    "render_case",
    "run_suite",
    "verify_case",
]
