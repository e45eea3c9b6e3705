"""Gradient-based adaptive attacks: PRBCD structure attacks and node injection."""

from .config import (
    AttackConfig,
    PerturbationResult,
    allowed_pairs,
    budget_from_fraction,
)
from .injection import (
    CandidateSet,
    build_candidate_set,
    is_tree,
    mst_projection,
    nia_augment,
    node_probability,
)
from .losses import attack_loss
from .projection import project_budget
from .runner import AttackRun, random_baseline, run_attack, run_cell, transfer_attack
from .structure import BlockState, init_block, prbcd_step, resample_block, sample_discrete

__all__ = [
    "AttackConfig",
    "PerturbationResult",
    "AttackRun",
    "BlockState",
    "CandidateSet",
    "allowed_pairs",
    "attack_loss",
    "budget_from_fraction",
    "build_candidate_set",
    "init_block",
    "is_tree",
    "mst_projection",
    "nia_augment",
    "node_probability",
    "project_budget",
    "prbcd_step",
    "random_baseline",
    "resample_block",
    "run_attack",
    "run_cell",
    "sample_discrete",
    "transfer_attack",
]
