"""Attack configuration, the allowed pair space, and result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..graphs import (
    Count,
    Fraction,
    Graph,
    Index,
    Positive,
    check_value,
    read_json,
    upper_triangle_pairs,
    write_json,
)
from ..models import RelaxToggles

__all__ = [
    "AttackConfig",
    "PerturbationResult",
    "allowed_pairs",
    "budget_from_fraction",
]


@dataclass
class AttackConfig:
    """Everything a single attack run needs besides model and graph.

    ``base_lr`` scales the ascent step as base_lr * budget / block_size
    (constant schedule).  Defaults follow the evaluation protocol: 125
    steps, 20 discrete samples, resampling half the block every 10 steps.
    """

    budget_fraction: Fraction = 0.01
    steps: Count = 125
    block_size: Count = 20000
    n_discrete_samples: Index = 20
    loss_kind: Literal["tanh_margin", "raw_score"] = "tanh_margin"
    toggles: RelaxToggles = field(default_factory=RelaxToggles)
    constraint: Literal["none", "protect_labeled", "tree_only"] = "none"
    mode: Literal["structure", "injection"] = "structure"
    base_lr: Positive = 500.0
    resample_every: Count = 10
    max_candidates: Count | None = 128
    seed: Index = 0

    def __post_init__(self):
        check_value(self, AttackConfig, "")
        if self.constraint == "tree_only" and self.mode != "injection":
            raise ValueError("tree_only constrains injection attacks only")


def budget_from_fraction(fraction: float, num_edges: int) -> int:
    """Delta = round(fraction * clean edge count)."""
    return int(round(fraction * num_edges))


def allowed_pairs(graph: Graph, config: AttackConfig, n_aug: int | None = None) -> np.ndarray:
    """All samplable index pairs (i < j), row-major, under the run's mode and
    constraint.  Structure attacks sample any pair of the graph; injection
    attacks sample only pairs that join an original node to a candidate, the
    candidates being nodes ``graph.n`` to ``n_aug - 1`` (``n_aug`` counts
    original nodes plus candidates).
    ``protect_labeled`` forbids pairs touching a labeled original node;
    ``tree_only`` (an injection constraint) samples every such pair."""
    n, kind = graph.n, config.constraint
    if config.mode == "injection":
        if n_aug is None:
            raise ValueError("injection requires n_aug, the original nodes plus candidates")
        pairs = np.empty((n, n_aug - n, 2), dtype=np.int64)
        pairs[..., 0] = np.arange(n)[:, None]
        pairs[..., 1] = np.arange(n, n_aug)
        pairs = pairs.reshape(-1, 2)
    else:
        pairs = upper_triangle_pairs(n)
    if kind == "protect_labeled":
        if graph.labeled_mask is None:
            raise ValueError("protect_labeled requires a labeled_mask on the graph")
        pairs = pairs[~np.isin(pairs, np.flatnonzero(graph.labeled_mask)).any(axis=1)]
    return pairs


@dataclass
class PerturbationResult:
    """Outcome of one attack run on one graph."""

    graph_id: int
    budget: int
    budget_fraction: float
    flips: list[list[int]]
    clean_metric: float
    attacked_metric: float
    loss_trace: list[float]
    seed: int
    toggles: dict
    mode: str
    constraint: str
    attack_kind: str = "adaptive"  # adaptive | random

    def to_doc(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_doc(cls, doc: dict) -> "PerturbationResult":
        return cls(**doc)

    def save(self, path: str) -> None:
        write_json(path, self.to_doc())

    @classmethod
    def load(cls, path: str) -> "PerturbationResult":
        return cls.from_doc(read_json(path))
