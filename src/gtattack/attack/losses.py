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

    Either kind records one autodiff node, whose values and gradients are
    those of the primitive chain in ``tests/oracles.py`` bit for bit.
    """
    logits = ad.as_tensor(logits)
    lead, (n, c) = logits.shape[:-2], logits.shape[-2:]
    if kind == "tanh_margin":
        if task != "node":
            raise ValueError("tanh_margin loss requires a node-classification task")
        labels = np.broadcast_to(np.asarray(labels, dtype=np.int64), lead + (n,)).reshape(-1)
        flat = logits.data.reshape(-1, c)
        rows = np.arange(len(labels))
        masked = flat.copy()
        masked[rows, labels] = -np.inf
        other = np.argmax(masked, axis=1)
        y = np.tanh((flat[rows, labels] - flat[rows, other]).reshape(lead + (n,)))

        def vjp(g):
            gm = ((g.reshape(lead + (1,)) / n) * (1.0 - y * y)).reshape(-1)
            # the chain sums a zero array scattered with -gm at the runner-up
            # and one scattered with gm at the label, in that order
            grad = np.zeros((len(rows), c))
            grad[rows, other] -= gm
            grad[rows, labels] += gm
            return grad.reshape(logits.shape)

        out = ad._wrap(np.add.reduce(y, axis=-1) / n)  # the bits of y.mean(axis=-1)
    elif kind == "raw_score":
        if task != "graph":
            raise ValueError("raw_score loss requires a binary graph-classification task")
        positive = int(labels) == 1
        score = np.add.reduce(logits.data.reshape(lead + (n * c,)), axis=-1)

        def vjp(g):
            grad = np.empty(logits.shape)
            grad[...] = (g if positive else np.negative(g)).reshape(lead + (1, 1))
            return grad

        out = ad._wrap(score if positive else -score)
    else:
        raise ValueError(f"unknown attack loss kind {kind!r}")
    return ad._record("attack_loss", out, (logits,), (vjp,)) if ad._live(logits) else out
