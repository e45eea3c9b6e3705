"""End-to-end attack runs: adaptive PRBCD, random baseline, transfer replay."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import EdgeFlipMatrix, Graph, apply_flips, connected_components, is_connected
from ..models import GraphModel, SpectralReference
from ..train import graph_score_correct, node_accuracy
from .config import AttackConfig, PerturbationResult, allowed_pairs, budget_from_fraction
from .injection import (
    CandidateSet,
    mst_projection,
    nia_augment,
    node_probability,
    prune_disconnected,
)
from .losses import attack_loss
from .structure import BlockState, init_block, prbcd_step, resample_block, sample_discrete

__all__ = ["AttackRun", "run_attack", "random_baseline", "transfer_attack"]

# injection-mode floor for block values: above the pruning epsilon, so every
# sampled candidate edge stays in the pruned graph and keeps its gradient
BLOCK_KEEP_EPS = 1e-7

# cap on B * n * n for one stacked true-model forward of B graphs of n nodes.
# On a 61-node cluster graph (147 random evaluations, 2-core x86_64) a GRIT
# cell peaks at 42 MB RSS with 8192 and at 47 MB with 16384 (one graph at a
# time: 39 MB), at equal time.  A no-grad GRIT forward peaks at about 81
# floats (0.65 KB) per adjacency entry under tracemalloc: 2.2 MB for one
# 60-node graph, 17.8 MB for a stack of 8.
EVAL_STACK_ENTRIES = 8192

NO_FLIPS = np.zeros((0, 2), dtype=np.int64)


class AttackRun:
    """Shared state for one (model, graph, config) attack: budgets, masks,
    the relaxed objective, and true-model evaluation of discrete flips."""

    def __init__(self, model: GraphModel, graph: Graph, config: AttackConfig,
                 candidates: CandidateSet | None = None, graph_id: int = 0):
        self.model = model
        self.graph = graph
        self.config = config
        self.graph_id = graph_id
        if config.mode == "injection":
            if candidates is None:
                raise ValueError("injection mode needs a candidate set")
            if not is_connected(graph.adjacency):
                raise ValueError("injection attacks require a connected original graph")
            self.base_adj, self.base_feats, self.n_orig = nia_augment(graph, candidates)
        else:
            self.base_adj = graph.adjacency
            self.base_feats = graph.features
            self.n_orig = graph.n
        self.n_aug = self.base_adj.shape[0]
        self.delta = budget_from_fraction(config.budget_fraction, graph.num_edges)
        self.allowed = allowed_pairs(graph, config, n_aug=self.n_aug)
        self.block_size = min(config.block_size, len(self.allowed))
        if self.delta > self.block_size:
            raise ValueError(f"budget {self.delta} exceeds block size {self.block_size}")
        self.labels = graph.node_labels if model.task == "node" else graph.graph_label
        self.spectral_ref = None
        if model.arch == "san" and config.mode == "structure" and config.toggles.san_lap_pert:
            self.spectral_ref = SpectralReference.of(graph.adjacency)
        self.lr = config.base_lr * max(self.delta, 1) / max(self.block_size, 1)

    # -- relaxed objective ----------------------------------------------------
    def objective(self, block: BlockState):
        """Closure mapping block values (leaf tensor) to the attack loss."""

        def fn(values: Tensor) -> Tensor:
            flips = EdgeFlipMatrix(self.n_aug, block.pairs, values)
            atilde = apply_flips(self.base_adj, flips)
            toggles = self.config.toggles
            if self.config.mode == "structure":
                kw = {"spectral_ref": self.spectral_ref} if self.model.arch == "san" else {}
                logits = self.model.forward(atilde, self.base_feats, toggles, **kw)
                return attack_loss(logits, self.labels, self.config.loss_kind, self.model.task)
            sub, kept = prune_disconnected(atilde, self.n_orig)
            probs = node_probability(sub)
            kw = {}
            if self.model.arch == "san":
                base_sub = self.base_adj[np.ix_(kept, kept)]
                if toggles.san_lap_pert:
                    kw["spectral_ref"] = SpectralReference.of(base_sub)
            logits = self.model.forward(sub, self.base_feats[kept], toggles,
                                        node_probs=probs, **kw)
            if self.model.task == "node":
                logits = ad.gather_rows(logits, np.arange(self.n_orig))
            return attack_loss(logits, self.labels, self.config.loss_kind, self.model.task)

        return fn

    # -- discrete evaluation ----------------------------------------------------
    def _flip_discrete(self, flips: np.ndarray) -> np.ndarray:
        adj = self.base_adj.copy()
        for i, j in flips:
            adj[i, j] = 1.0 - adj[i, j]
            adj[j, i] = adj[i, j]
        return adj

    def _discrete_graph(self, flips: np.ndarray,
                        edge_value: dict | None) -> tuple[np.ndarray, np.ndarray, list]:
        """Adjacency, features and effective flips of the graph a flip set gives."""
        adj = self._flip_discrete(flips)
        if self.config.mode == "structure":
            return adj, self.base_feats, [list(map(int, f)) for f in flips]

        comp = connected_components(adj)
        comp_kept = np.flatnonzero(comp == comp[0])
        sub = adj[np.ix_(comp_kept, comp_kept)]
        kept = set(comp_kept.tolist())
        kept_flips = [(i, j) for i, j in flips if i in kept and j in kept]
        # the component of node 0 is connected, so it is a tree iff it has n - 1 edges
        if (self.config.constraint == "tree_only"
                and np.count_nonzero(np.triu(sub, k=1)) != len(comp_kept) - 1):
            weights = sub.copy()
            pos = {(int(i), int(j)): (edge_value or {}).get((int(i), int(j)), 1.0)
                   for i, j in kept_flips}
            back = {v: k for k, v in enumerate(comp_kept)}
            for (i, j), val in pos.items():
                ki, kj = back[i], back[j]
                weights[ki, kj] = weights[kj, ki] = val
            sub = mst_projection(weights)
            kept_flips = [
                (int(comp_kept[a]), int(comp_kept[b]))
                for a, b in zip(*np.nonzero(np.triu(sub, k=1)))
                if self.base_adj[comp_kept[a], comp_kept[b]] == 0.0
            ]
        return sub, self.base_feats[comp_kept], [list(map(int, f)) for f in kept_flips]

    def evaluate_discrete(self, flip_sets: list,
                          edge_value: dict | None = None) -> list[tuple[float, float, list]]:
        """True-model evaluation of discrete flip sets.

        Returns one (attack loss, metric, effective flips) per flip set, in
        input order.  In injection mode each graph keeps the component of
        the original nodes; in tree-only mode non-tree samples are projected
        to the maximum-probability spanning tree first, using ``edge_value``
        as the probability of flipped edges (1.0 when absent, e.g. for the
        random baseline).  Graphs with equal node counts are stacked in
        input order, at most ``EVAL_STACK_ENTRIES`` adjacency entries per
        stack, and each stack is one no-grad forward; a stack is evaluated
        as soon as it is full, so at most one partial stack per node count
        is held.
        """
        results: list = [None] * len(flip_sets)
        pending: dict[int, list] = {}
        with ad.no_grad():
            for i, flips in enumerate(flip_sets):
                flips = np.asarray(flips, dtype=np.int64).reshape(-1, 2)
                adj, feats, effective = self._discrete_graph(flips, edge_value)
                n = adj.shape[0]
                stack = pending.setdefault(n, [])
                stack.append((i, adj, feats, effective))
                if len(stack) >= max(1, EVAL_STACK_ENTRIES // (n * n)):
                    self._evaluate_stack(pending.pop(n), results)
            for stack in pending.values():
                self._evaluate_stack(stack, results)
        return results

    def _evaluate_stack(self, stack: list, results: list) -> None:
        logits = self.model.forward_discrete(np.stack([g[1] for g in stack]),
                                             np.stack([g[2] for g in stack])).data
        for (i, _, _, effective), out in zip(stack, logits):
            results[i] = (*self._score(out[: self.n_orig]), effective)

    def _score(self, logits: np.ndarray) -> tuple[float, float]:
        loss = attack_loss(Tensor(logits), self.labels, self.config.loss_kind,
                           self.model.task).item()
        if self.model.task == "node":
            metric = node_accuracy(logits, self.labels)
        else:
            metric = graph_score_correct(float(logits.reshape(-1)[0]), self.labels)
        return loss, metric


def run_attack(model: GraphModel, graph: Graph, config: AttackConfig,
               candidates: CandidateSet | None = None, graph_id: int = 0) -> PerturbationResult:
    """Full adaptive attack: PRBCD over a sampled block, then discretization.

    Deterministic given ``config.seed``.
    """
    run = AttackRun(model, graph, config, candidates, graph_id)
    rng = np.random.default_rng(config.seed)

    if run.delta == 0 or len(run.allowed) == 0:
        [(_, clean_metric, _)] = run.evaluate_discrete([NO_FLIPS])
        return PerturbationResult(
            graph_id=graph_id, budget=0, budget_fraction=config.budget_fraction,
            flips=[], clean_metric=clean_metric, attacked_metric=clean_metric,
            loss_trace=[], seed=config.seed, toggles=config.toggles.to_dict(),
            mode=config.mode, constraint=config.constraint, attack_kind="adaptive",
        )

    fresh = BLOCK_KEEP_EPS if config.mode == "injection" else 0.0
    block = init_block(run.n_aug, run.allowed, run.block_size, rng, fresh_value=fresh)
    trace: list[float] = []
    for step in range(config.steps):
        block, objective_value = prbcd_step(run.objective(block), block, run.delta, run.lr)
        if fresh:
            np.maximum(block.values, fresh, out=block.values)
        trace.append(objective_value)
        if (step + 1) % config.resample_every == 0 and step < config.steps - 1:
            block = resample_block(block, 0.5, rng, run.allowed, fresh_value=fresh)

    edge_value = None
    if config.constraint == "tree_only":  # only the tree projection reads it
        pos = block.values > 0.0
        edge_value = dict(zip(map(tuple, block.pairs[pos].tolist()), block.values[pos].tolist()))
    evaluated: list = []

    def evaluate(flip_sets: list) -> list:
        # the clean graph rides along in the same stacked evaluation
        evaluated.extend(run.evaluate_discrete([NO_FLIPS, *flip_sets], edge_value))
        return evaluated[1:]

    _, _, metric, effective = sample_discrete(block, run.delta, config.n_discrete_samples,
                                              evaluate, rng)
    return PerturbationResult(
        graph_id=graph_id, budget=run.delta, budget_fraction=config.budget_fraction,
        flips=effective, clean_metric=evaluated[0][1], attacked_metric=metric,
        loss_trace=trace, seed=config.seed, toggles=config.toggles.to_dict(),
        mode=config.mode, constraint=config.constraint, attack_kind="adaptive",
    )


def random_baseline(model: GraphModel, graph: Graph, config: AttackConfig,
                    candidates: CandidateSet | None = None, graph_id: int = 0) -> PerturbationResult:
    """Budget-matched random attack with the adaptive run's evaluation count.

    Evaluates steps + 1 + n_discrete_samples random budget-sized flip sets
    on the true model, together with the clean graph, and keeps the
    strongest (the first of equal losses).
    """
    run = AttackRun(model, graph, config, candidates, graph_id)
    rng = np.random.default_rng(config.seed)
    n_evals = config.steps + 1 + config.n_discrete_samples
    k = min(run.delta, len(run.allowed))
    picks = [] if k == 0 else [
        run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))]
        for _ in range(n_evals)
    ]
    (_, clean_metric, _), *results = run.evaluate_discrete([NO_FLIPS, *picks])
    best = None
    for res in results:
        if best is None or res[0] < best[0]:
            best = res
    _, metric, flips = best or (np.inf, clean_metric, [])
    return PerturbationResult(
        graph_id=graph_id, budget=run.delta, budget_fraction=config.budget_fraction,
        flips=flips, clean_metric=clean_metric, attacked_metric=metric,
        loss_trace=[], seed=config.seed, toggles=config.toggles.to_dict(),
        mode=config.mode, constraint=config.constraint, attack_kind="random",
    )


def transfer_attack(source: PerturbationResult, model: GraphModel, graph: Graph,
                    candidates: CandidateSet | None = None) -> float:
    """Evaluate a stored perturbation against a different (true) model.

    Returns the attacked metric for ``model`` on the same graph identity.
    """
    config = AttackConfig(
        budget_fraction=source.budget_fraction or 1e-9,
        loss_kind="tanh_margin" if model.task == "node" else "raw_score",
        mode=source.mode, constraint=source.constraint, seed=source.seed,
    )
    run = AttackRun(model, graph, config, candidates, source.graph_id)
    [(_, metric, _)] = run.evaluate_discrete([source.flips])
    return metric
