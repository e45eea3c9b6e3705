"""Training loop: Adam on per-graph losses with validation-based selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .graphs import Dataset, Graph, laplacian_sym
from .models import GraphModel
from .models.common import UNRELAXED
from .optim import AdamState, adam_step
from .spectral import eig_sym

# cap on B * n * n for one stacked true-model forward of B graphs of n nodes.
# On a 61-node cluster graph (147 random evaluations, 2-core x86_64) a GRIT
# cell peaks at 42 MB RSS with 8192 and at 47 MB with 16384 (one graph at a
# time: 39 MB), at equal time.  A no-grad GRIT forward peaks at about 58
# floats (0.46 KB) per adjacency entry under tracemalloc: 1.6 MiB for one
# 60-node graph, 12.7 MiB for a stack of 8.
EVAL_STACK_ENTRIES = 8192

__all__ = [
    "TrainConfig",
    "node_ce_loss",
    "graph_bce_loss",
    "score",
    "discrete_logits",
    "evaluate_accuracy",
    "train_model",
]


@dataclass
class TrainConfig:
    epochs: int = 8
    lr: float = 3e-3
    seed: int = 0


def node_ce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over nodes (max-shifted log-softmax)."""
    n = logits.shape[0]
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = ad.sub(logits, shift)
    lse = ad.tlog(ad.tsum(ad.texp(z), axis=1, keepdims=True))
    logp = ad.sub(z, lse)
    picked = ad.take_pairs(logp, np.arange(n), np.asarray(labels))
    return ad.neg(ad.tmean(picked))


def graph_bce_loss(logit: Tensor, label: int) -> Tensor:
    """Binary cross-entropy with logits, numerically stable softplus form."""
    z = ad.reshape(logit, (1,))
    t = ad.mul(z, float(1 - 2 * label))  # softplus((1-2y) z)
    pos = t.data > 0.0
    abs_t = ad.where(pos, t, ad.neg(t))
    linear_part = ad.where(pos, t, Tensor(np.zeros(1)))
    soft = ad.add(linear_part, ad.tlog(ad.add(ad.texp(ad.neg(abs_t)), Tensor(np.ones(1)))))
    return ad.tsum(soft)


def score(logits: np.ndarray, labels, task: str) -> np.ndarray:
    """Accuracy (%) of true-model logits (..., n, c) of graphs that share
    ``labels``, one value per leading index: the share of correct nodes for
    node tasks, 100 or 0 for the sign of the (n = c = 1) score otherwise."""
    if task == "node":
        return np.mean(np.argmax(logits, axis=-1) == labels, axis=-1) * 100.0
    return np.where((logits[..., 0, 0] > 0.0) == bool(labels), 100.0, 0.0)


def discrete_logits(model: GraphModel,
                    graphs: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """No-grad true-model logits of discrete (adjacency, features) pairs, in
    input order.

    Pairs of equal node count are stacked in input order, at most
    ``EVAL_STACK_ENTRIES`` adjacency entries per stack, and each stack is
    one forward.  ``graphs`` is consumed lazily and a stack is evaluated as
    soon as it is full, so at most one partial stack per node count is held.
    """
    results: list = []
    pending: dict[int, list] = {}

    def flush(stack: list) -> None:
        out = model.forward_discrete(np.stack([g[1] for g in stack]),
                                     np.stack([g[2] for g in stack])).data
        for (i, _, _), logits in zip(stack, out):
            results[i] = logits

    with ad.no_grad():
        for i, (adj, feats) in enumerate(graphs):
            results.append(None)
            n = adj.shape[0]
            stack = pending.setdefault(n, [])
            stack.append((i, adj, feats))
            if len(stack) >= max(1, EVAL_STACK_ENTRIES // (n * n)):
                flush(pending.pop(n))
        for stack in pending.values():
            flush(stack)
    return results


def evaluate_accuracy(model: GraphModel, graphs: list[Graph]) -> float:
    """Mean accuracy over graphs: per-node for node tasks, per-graph otherwise."""
    logits = discrete_logits(model, ((g.adjacency, g.features) for g in graphs))
    scores = [score(out, g.node_labels if model.task == "node" else g.graph_label, model.task)
              for out, g in zip(logits, graphs)]
    return float(np.mean(scores)) if scores else 0.0


def train_model(model: GraphModel, dataset: Dataset, config: TrainConfig) -> dict:
    """Adam training with the best-validation-accuracy snapshot restored.

    Returns a history dict with per-epoch train loss and val accuracy.
    Raises on NaN loss (divergence), and ``ValueError`` when there are
    epochs to run but no validation graph to select a snapshot by.
    Parameters require gradients only while this runs.
    """
    rng = np.random.default_rng(config.seed)
    train_graphs = dataset.part("train")
    val_graphs = dataset.part("val")
    if config.epochs > 0 and not val_graphs:
        raise ValueError("train_model: the validation split is empty, no epoch to select")
    # SAN's Laplacian eigenpairs of each training graph, reused every epoch
    decomps = ([eig_sym(laplacian_sym(g.adjacency)) for g in train_graphs]
               if model.arch == "san" else None)

    state = AdamState()
    history: dict = {"train_loss": [], "val_acc": [], "best_epoch": -1}
    best_acc = -1.0
    best_params = {k: v.data.copy() for k, v in model.params.items()}

    for t in model.params.values():
        t.requires_grad = True
    try:
        for epoch in range(config.epochs):
            order = rng.permutation(len(train_graphs))
            losses = []
            for gi in order:
                g = train_graphs[gi]
                kw = {"decomp": decomps[gi]} if decomps else {}
                with Tape():
                    logits = model.forward(Tensor(g.adjacency), g.features, UNRELAXED, **kw)
                    if model.task == "node":
                        loss = node_ce_loss(logits, g.node_labels)
                    else:
                        loss = graph_bce_loss(logits, g.graph_label)
                    lval = loss.item()
                    if not np.isfinite(lval):
                        raise RuntimeError(f"training diverged: loss={lval} at epoch {epoch}")
                    grads = backward(loss)
                gmap = {name: grads[t].data for name, t in model.params.items() if t in grads}
                adam_step(model.params, gmap, state, config.lr)
                losses.append(lval)
            val_acc = evaluate_accuracy(model, val_graphs)
            history["train_loss"].append(float(np.mean(losses)))
            history["val_acc"].append(val_acc)
            if val_acc > best_acc:
                best_acc = val_acc
                best_params = {k: v.data.copy() for k, v in model.params.items()}
                history["best_epoch"] = epoch
    finally:
        for t in model.params.values():
            t.requires_grad = False

    for k, t in model.params.items():
        t.data = best_params[k]
    history["best_val_acc"] = best_acc if config.epochs > 0 else None
    return history
