"""Attack configuration, the allowed pair space, and result records."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..graphs import Graph, upper_triangle_pairs
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

    budget_fraction: float = 0.01
    steps: int = 125
    block_size: int = 20000
    n_discrete_samples: int = 20
    loss_kind: str = "tanh_margin"  # tanh_margin | raw_score
    toggles: RelaxToggles = field(default_factory=RelaxToggles)
    constraint: str = "none"  # none | protect_labeled | tree_only
    mode: str = "structure"  # structure | injection
    base_lr: float = 500.0
    resample_every: int = 10
    max_candidates: int | None = 128
    seed: int = 0

    def __post_init__(self):
        if self.budget_fraction <= 0:
            raise ValueError("budget_fraction must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.loss_kind not in ("tanh_margin", "raw_score"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.constraint not in ("none", "protect_labeled", "tree_only"):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.mode not in ("structure", "injection"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("block_size", "resample_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_discrete_samples < 0:
            raise ValueError(f"n_discrete_samples must be >= 0, got {self.n_discrete_samples}")
        if not (np.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError(f"max_candidates must be None or >= 1, got {self.max_candidates}")


def budget_from_fraction(fraction: float, num_edges: int) -> int:
    """Delta = round(fraction * clean edge count)."""
    return int(round(fraction * num_edges))


def allowed_pairs(graph: Graph, config: AttackConfig, n_aug: int | None = None) -> np.ndarray:
    """All samplable index pairs (i < j), row-major, under the run's mode and
    constraint.  Structure attacks sample any pair of the graph; injection
    attacks (augmented size ``n_aug``) sample only pairs that join an original
    node to a candidate, region E of :func:`~gtattack.attack.injection.nia_augment`.
    ``protect_labeled`` forbids pairs touching a labeled original node;
    ``tree_only`` constrains injection attacks and samples every E pair."""
    n, kind = graph.n, config.constraint
    if config.mode == "injection":
        if n_aug is None:
            raise ValueError("injection requires the augmented size n_aug")
        pairs = np.empty((n, n_aug - n, 2), dtype=np.int64)
        pairs[..., 0] = np.arange(n)[:, None]
        pairs[..., 1] = np.arange(n, n_aug)
        pairs = pairs.reshape(-1, 2)
    elif kind == "tree_only":
        raise ValueError("tree_only constrains injection attacks only")
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
    attack_kind: str = "adaptive"  # adaptive | random | transfer

    def to_doc(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_doc(cls, doc: dict) -> "PerturbationResult":
        return cls(**doc)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_doc(), sort_keys=True))

    @classmethod
    def load(cls, path: str) -> "PerturbationResult":
        with open(path) as fh:
            return cls.from_doc(json.load(fh))
