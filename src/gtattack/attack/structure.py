"""Block-coordinate attack state: sampling, gradient steps that move only a
block's values (its pairs change only at a resample), discretization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..autodiff import Tape, Tensor, backward
from .projection import project_budget

__all__ = ["BlockState", "init_block", "resample_block", "prbcd_step", "sample_discrete"]

# Bernoulli draws of a sample before it falls back to top-budget rounding
MAX_RETRIES = 50
KEEP_FRACTION = 0.5  # share of a block, its highest values, that a resample keeps


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


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    return pairs[:, 0] * n + pairs[:, 1]


def init_block(n: int, allowed: np.ndarray, block_size: int,
               rng: np.random.Generator) -> BlockState:
    """Uniform sample of candidate pairs from the allowed set, each at value 0."""
    k = min(block_size, len(allowed))
    pick = np.sort(rng.choice(len(allowed), size=k, replace=False))
    return BlockState(n=n, pairs=allowed[pick], values=np.zeros(k))


def resample_block(block: BlockState, rng: np.random.Generator,
                   allowed: np.ndarray) -> BlockState:
    """Keep the KEEP_FRACTION highest-valued entries, resample the rest uniformly.

    Kept entries retain their values; fresh entries start at 0.  No pair
    outside the allowed set can ever enter the block.
    """
    size = len(block.pairs)
    n_keep = int(round(KEEP_FRACTION * size))
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
        values = np.concatenate([kept_vals, np.zeros(n_new)])
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
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Draw discrete flip sets from the continuous block, each as the
    ascending rows of ``block`` it flips.

    The first set is the deterministic top-budget rounding; each of the
    ``n_samples`` draws after it takes independent Bernoulli(value) flips,
    retrying up to ``MAX_RETRIES`` times if the budget is exceeded and
    falling back to top-budget rounding.  Taking the pairs (and, for the
    tree projection, the values) of the rows, scoring the sets on the true
    model and keeping the strongest is left to the caller
    (:func:`~gtattack.attack.runner.run_cell`, only at a budget of 1 or more).
    """
    positive = block.values > 0.0
    order = np.argsort(-block.values, kind="stable")
    top = np.sort(order[positive[order]][:budget])
    candidates = [top]
    for _ in range(n_samples):
        for _ in range(MAX_RETRIES):
            draw = rng.random(len(block.values)) < block.values
            if draw.sum() <= budget:
                candidates.append(np.flatnonzero(draw))
                break
        else:
            candidates.append(top)
    return candidates
