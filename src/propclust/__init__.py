"""Proportional clustering rules and exact fairness auditors."""

from .algorithms import (
    Trace,
    TraceEvent,
    expanding_approvals,
    fair_greedy_capture,
    greedy_capture,
    restricted_solve,
)
from .audit_multi import q_core_min_alpha, q_if_min_beta, q_tc_min_alpha
from .audit_rank import (
    Caps,
    dprf_check,
    rank_jr_check,
    rank_pjr_check,
    rank_pjr_plus_check,
    thresholds,
    uprf_check,
)
from .audit_single import if_min_beta, pf_min_alpha, tc_min_alpha
from .instance import Instance, Outcome, quota, validate
from .metric import MetricSpace
from .reports import AuditReport, RankViolation, Witness

__all__ = [
    "AuditReport",
    "Caps",
    "Instance",
    "MetricSpace",
    "Outcome",
    "RankViolation",
    "Trace",
    "TraceEvent",
    "Witness",
    "dprf_check",
    "expanding_approvals",
    "fair_greedy_capture",
    "greedy_capture",
    "if_min_beta",
    "pf_min_alpha",
    "q_core_min_alpha",
    "q_if_min_beta",
    "q_tc_min_alpha",
    "quota",
    "rank_jr_check",
    "rank_pjr_check",
    "rank_pjr_plus_check",
    "restricted_solve",
    "tc_min_alpha",
    "thresholds",
    "uprf_check",
    "validate",
]

__version__ = "0.1.0"
