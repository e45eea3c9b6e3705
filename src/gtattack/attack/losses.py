"""Attack losses (the attacker minimizes these)."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor

__all__ = ["attack_loss"]


def attack_loss(logits: Tensor, labels, kind: str, task: str) -> Tensor:
    """Attack loss of (..., n, c) logits, one value per leading index, to be
    minimized by the attacker; ``labels`` are shared by every leading index.

    tanh_margin (node tasks): mean over nodes of tanh(z_true - best_other);
    saturates on already-misclassified nodes so budget is not wasted there.
    raw_score (binary graph tasks): the raw logit for label 1, its negation
    for label 0, so minimizing pushes the score across the boundary.
    """
    lead, (n, c) = logits.shape[:-2], logits.shape[-2:]
    if kind == "tanh_margin":
        if task != "node":
            raise ValueError("tanh_margin loss requires a node-classification task")
        labels = np.broadcast_to(np.asarray(labels, dtype=np.int64), lead + (n,)).reshape(-1)
        flat = ad.reshape(logits, (-1, c))
        rows = np.arange(len(labels))
        masked = flat.data.copy()
        masked[rows, labels] = -np.inf
        margin = ad.sub(ad.take_pairs(flat, rows, labels),
                        ad.take_pairs(flat, rows, np.argmax(masked, axis=1)))
        return ad.tmean(ad.ttanh(ad.reshape(margin, lead + (n,))), axis=-1)
    if kind == "raw_score":
        if task != "graph":
            raise ValueError("raw_score loss requires a binary graph-classification task")
        score = ad.tsum(ad.reshape(logits, lead + (n * c,)), axis=-1)
        return score if int(labels) == 1 else ad.neg(score)
    raise ValueError(f"unknown attack loss kind {kind!r}")
