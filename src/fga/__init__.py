"""Fairness/goodness trust scoring for weighted signed networks, with an attack toolkit."""

from .attacks import (
    AttackMove,
    AttackOutcome,
    AttackProblem,
    SelectionCriteria,
    direct_attack,
    indirect_attack_greedy,
    indirect_attack_scaled,
    mixed_attack,
    select_attackers,
    select_targets,
    solve_exhaustive,
)
from .bounds import (
    BoundReport,
    MinKNeighbourCert,
    check_min_k_neighbour,
    direct_flip_budget,
    direct_sybil_bound,
    indirect_sybil_bound,
    stabiliser_lower_bound,
)
from .dataio import export_scores_csv
from .engine import (
    DEFAULT_CONFIG,
    HIGH_PRECISION,
    FgaConfig,
    FgaScores,
    compute_fga,
    predict_weight,
    recompute_after,
)
from .graph import NodeId, RatingScale, Wsn

__all__ = [
    "AttackMove",
    "AttackOutcome",
    "AttackProblem",
    "BoundReport",
    "DEFAULT_CONFIG",
    "FgaConfig",
    "FgaScores",
    "HIGH_PRECISION",
    "MinKNeighbourCert",
    "NodeId",
    "RatingScale",
    "SelectionCriteria",
    "Wsn",
    "check_min_k_neighbour",
    "compute_fga",
    "direct_attack",
    "direct_flip_budget",
    "direct_sybil_bound",
    "export_scores_csv",
    "indirect_attack_greedy",
    "indirect_attack_scaled",
    "indirect_sybil_bound",
    "mixed_attack",
    "predict_weight",
    "recompute_after",
    "select_attackers",
    "select_targets",
    "solve_exhaustive",
    "stabiliser_lower_bound",
]
