"""Block-coordinate attack state: sampling, gradient steps that move only a
block's values (its pairs change only at a resample), discretization."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..autodiff import Tape, Tensor, backward
from .projection import project_budget

__all__ = ["BlockState", "init_block", "resample_block", "prbcd_step", "sample_discrete"]


@dataclass
class BlockState:
    """A sampled set of candidate edge flips with continuous values."""

    n: int
    pairs: np.ndarray  # (k, 2), i < j, unique
    values: np.ndarray  # (k,) in [0, 1]

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.pairs) != len(self.values):
            raise ValueError("pairs/values length mismatch")
        if len(self.pairs):
            if not np.all(self.pairs[:, 0] < self.pairs[:, 1]):
                raise ValueError("block pairs must satisfy i < j")
            keys = self.pairs[:, 0] * self.n + self.pairs[:, 1]
            if len(np.unique(keys)) != len(keys):
                raise ValueError("block pairs must be unique")

    def value_of(self, pairs: np.ndarray) -> np.ndarray:
        """Value of each (i, j) pair in the block, 1.0 for pairs outside it."""
        at, values = self._position, self.values
        return np.array([values[at[p]] if p in at else 1.0 for p in map(tuple, pairs.tolist())])

    @cached_property
    def _position(self) -> dict:
        """Row of each (i, j) pair of ``pairs``, built on the first lookup."""
        return {pair: k for k, pair in enumerate(map(tuple, self.pairs.tolist()))}


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    return pairs[:, 0] * n + pairs[:, 1]


def init_block(n: int, allowed: np.ndarray, block_size: int, rng: np.random.Generator,
               fresh_value: float = 0.0) -> BlockState:
    """Uniform sample of candidate pairs from the allowed set.

    ``fresh_value`` is 0 for structure attacks; injection attacks seed a
    tiny positive value so candidate edges survive pruning and gradients
    can reach them.
    """
    k = min(block_size, len(allowed))
    pick = np.sort(rng.choice(len(allowed), size=k, replace=False))
    return BlockState(n=n, pairs=allowed[pick], values=np.full(k, fresh_value))


def resample_block(block: BlockState, keep_fraction: float, rng: np.random.Generator,
                   allowed: np.ndarray, fresh_value: float = 0.0) -> BlockState:
    """Keep the highest-valued entries, resample the rest uniformly.

    Kept entries retain their values; fresh entries start at ``fresh_value``
    (0 for structure attacks).  No pair outside the allowed set can ever
    enter the block.
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in [0, 1]")
    size = len(block.pairs)
    n_keep = int(round(keep_fraction * size))
    order = np.argsort(-block.values, kind="stable")
    kept_idx = np.sort(order[:n_keep])
    kept_pairs = block.pairs[kept_idx]
    kept_vals = block.values[kept_idx]

    kept_keys = set(_pair_keys(kept_pairs, block.n).tolist())
    pool_mask = ~np.isin(_pair_keys(allowed, block.n), list(kept_keys))
    pool = allowed[pool_mask]
    n_new = min(size - n_keep, len(pool))
    if n_new > 0:
        pick = np.sort(rng.choice(len(pool), size=n_new, replace=False))
        new_pairs = pool[pick]
        pairs = np.vstack([kept_pairs, new_pairs])
        values = np.concatenate([kept_vals, np.full(n_new, fresh_value)])
    else:
        pairs, values = kept_pairs, kept_vals
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return BlockState(n=block.n, pairs=pairs[order], values=values[order])


def prbcd_step(objective: Callable[[Tensor], Tensor], block: BlockState, budget: int,
               lr: float) -> float:
    """One projected gradient-ascent step on the attacker objective.

    ``objective`` maps the block-value tensor to the scalar attack loss
    (minimized), built through the relaxed model; the step descends it and
    projects ``block.values``, in place, back onto the budget polytope.
    Returns the attacker objective value (negated loss, so it rises as the
    attack strengthens).
    """
    values = Tensor(block.values, requires_grad=True, name="block_values")
    with Tape():
        loss = objective(values)
        loss_val = loss.item()
        grads = backward(loss)
        g = grads.get(values)
    garr = np.zeros_like(block.values) if g is None else g.data
    if not np.all(np.isfinite(garr)):
        bad = np.flatnonzero(~np.isfinite(garr))[:3]
        raise RuntimeError(f"prbcd_step: non-finite gradient in block_values at {bad.tolist()}")
    if not np.isfinite(loss_val):
        raise RuntimeError("prbcd_step: non-finite attack loss")
    block.values = project_budget(block.values - lr * garr, budget)
    return -loss_val


def sample_discrete(block: BlockState, budget: int, n_samples: int,
                    rng: np.random.Generator, max_retries: int = 50) -> list[np.ndarray]:
    """Draw discrete flip sets (k, 2) from the continuous block.

    The first set is the deterministic top-budget rounding; each of the
    ``n_samples`` draws after it takes independent Bernoulli(value) flips,
    retrying up to ``max_retries`` times if the budget is exceeded and
    falling back to top-budget rounding.  Scoring the sets on the true model
    and keeping the strongest is left to the caller
    (:func:`~gtattack.attack.runner.run_cell`).
    """
    positive = block.values > 0.0

    def top_budget() -> np.ndarray:
        if budget <= 0 or not positive.any():
            return np.zeros((0, 2), dtype=np.int64)
        order = np.argsort(-block.values, kind="stable")
        order = order[positive[order]][:budget]
        return block.pairs[np.sort(order)]

    candidates = [top_budget()]
    for _ in range(n_samples):
        chosen = None
        for _ in range(max_retries):
            draw = rng.random(len(block.values)) < block.values
            if budget <= 0:
                chosen = np.zeros((0, 2), dtype=np.int64)
                break
            if draw.sum() <= budget:
                chosen = block.pairs[draw]
                break
        if chosen is None:
            chosen = top_budget()
        candidates.append(chosen)
    return candidates
