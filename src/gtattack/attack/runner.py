"""End-to-end attack runs: adaptive PRBCD, random baseline, transfer replay."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import Graph, apply_flips, connected_components, is_connected
from ..models import GraphModel, SpectralReference
from ..train import discrete_logits, score
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
        self.lr = config.base_lr * max(self.delta, 1) / max(self.block_size, 1)

    @cached_property
    def spectral_ref(self) -> SpectralReference:
        """SAN's clean base point for perturbed eigenpairs (structure mode),
        built on the relaxed objective's first use only."""
        return SpectralReference.of(self.graph.adjacency)

    # -- relaxed objective ----------------------------------------------------
    def objective(self, block: BlockState):
        """Closure mapping block values (leaf tensor) to the attack loss."""
        toggles = self.config.toggles
        lap_pert = self.model.arch == "san" and toggles.san_lap_pert

        def fn(values: Tensor) -> Tensor:
            atilde = apply_flips(self.base_adj, block.pairs, values)
            if self.config.mode == "structure":
                kw = {"spectral_ref": self.spectral_ref} if lap_pert else {}
                logits = self.model.forward(atilde, self.base_feats, toggles, **kw)
                return attack_loss(logits, self.labels, self.config.loss_kind, self.model.task)
            sub, kept = prune_disconnected(atilde, self.n_orig)
            probs = node_probability(sub)
            kw = {}
            if lap_pert:
                kw["spectral_ref"] = SpectralReference.of(self.base_adj[np.ix_(kept, kept)])
            logits = self.model.forward(sub, self.base_feats[kept], toggles,
                                        node_probs=probs, **kw)
            if self.model.task == "node":
                logits = ad.gather_rows(logits, np.arange(self.n_orig))
            return attack_loss(logits, self.labels, self.config.loss_kind, self.model.task)

        return fn

    # -- discrete evaluation ----------------------------------------------------
    def _discrete_graph(self, flips: np.ndarray,
                        block: BlockState | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency, features and effective flips of the graph a flip set gives."""
        adj = self.base_adj.copy()
        i, j = flips.T
        adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
        if self.config.mode == "structure":
            return adj, self.base_feats, flips

        comp = connected_components(adj)
        comp_kept = np.flatnonzero(comp == comp[0])
        sub = adj[np.ix_(comp_kept, comp_kept)]
        kept_flips = flips[(comp[flips] == comp[0]).all(axis=1)]
        # the component of node 0 is connected, so it is a tree iff it has n - 1 edges
        if (self.config.constraint == "tree_only"
                and np.count_nonzero(np.triu(sub, k=1)) != len(comp_kept) - 1):
            weights = sub.copy()
            ki, kj = np.searchsorted(comp_kept, kept_flips).T
            weights[ki, kj] = weights[kj, ki] = (np.ones(len(kept_flips)) if block is None
                                                 else block.value_of(kept_flips))
            sub = mst_projection(weights)
            a, b = comp_kept[np.array(np.nonzero(np.triu(sub, k=1)))]
            added = self.base_adj[a, b] == 0.0
            kept_flips = np.stack([a[added], b[added]], axis=1)
        return sub, self.base_feats[comp_kept], kept_flips

    def evaluate_discrete(self, flip_sets: list,
                          block: BlockState | None = None) -> list[tuple[float, float, list]]:
        """True-model evaluation of discrete flip sets.

        Returns one (attack loss, metric, effective flips) per flip set, in
        input order.  In injection mode each graph keeps the component of
        the original nodes; in tree-only mode non-tree samples are projected
        to the maximum-probability spanning tree first, weighting flipped
        edges by their ``block`` value (1.0 without a block, e.g. for the
        random baseline).  The graphs are built one at a time as
        :func:`~gtattack.train.discrete_logits` stacks and scores them.
        """
        effective: list = []

        def graphs():
            for flips in flip_sets:
                flips = np.asarray(flips, dtype=np.int64).reshape(-1, 2)
                adj, feats, eff = self._discrete_graph(flips, block)
                effective.append(eff.tolist())
                yield adj, feats

        task = self.model.task
        results = []
        for out, eff in zip(discrete_logits(self.model, graphs()), effective):
            out = out[: self.n_orig]
            loss = attack_loss(Tensor(out), self.labels, self.config.loss_kind, task).item()
            results.append((loss, score(out, self.labels, task), eff))
        return results

    def strongest(self, flip_sets: list,
                  block: BlockState | None = None) -> tuple[float, float, list]:
        """Score ``[clean graph, *flip_sets]`` together and keep the strongest.

        Returns (clean metric, metric, effective flips) of the first flip
        set of lowest attack loss; with no flip sets, the clean metric twice
        and no flips.
        """
        (_, clean_metric, _), *results = self.evaluate_discrete([NO_FLIPS, *flip_sets], block)
        _, metric, flips = min(results, key=lambda r: r[0], default=(np.inf, clean_metric, []))
        return clean_metric, metric, flips

    def result(self, attack_kind: str, clean_metric: float, attacked_metric: float,
               flips: list, loss_trace: list[float]) -> PerturbationResult:
        """The record of one attack of ``attack_kind`` in this run."""
        config = self.config
        return PerturbationResult(
            graph_id=self.graph_id, budget=self.delta, budget_fraction=config.budget_fraction,
            flips=flips, clean_metric=clean_metric, attacked_metric=attacked_metric,
            loss_trace=loss_trace, seed=config.seed, toggles=config.toggles.to_dict(),
            mode=config.mode, constraint=config.constraint, attack_kind=attack_kind,
        )


def run_attack(model: GraphModel, graph: Graph, config: AttackConfig,
               candidates: CandidateSet | None = None, graph_id: int = 0) -> PerturbationResult:
    """Full adaptive attack: PRBCD over a sampled block, then discretization.

    Deterministic given ``config.seed``.
    """
    run = AttackRun(model, graph, config, candidates, graph_id)
    rng = np.random.default_rng(config.seed)
    block, flip_sets, trace = None, [], []
    if run.delta:
        fresh = BLOCK_KEEP_EPS if config.mode == "injection" else 0.0
        block = init_block(run.n_aug, run.allowed, run.block_size, rng, fresh_value=fresh)
        for step in range(config.steps):
            block, objective_value = prbcd_step(run.objective(block), block, run.delta, run.lr)
            if fresh:
                np.maximum(block.values, fresh, out=block.values)
            trace.append(objective_value)
            if (step + 1) % config.resample_every == 0 and step < config.steps - 1:
                block = resample_block(block, 0.5, rng, run.allowed, fresh_value=fresh)
        flip_sets = sample_discrete(block, run.delta, config.n_discrete_samples, rng)
    return run.result("adaptive", *run.strongest(flip_sets, block), trace)


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
    picks = [] if run.delta == 0 else [
        run.allowed[np.sort(rng.choice(len(run.allowed), size=run.delta, replace=False))]
        for _ in range(n_evals)
    ]
    return run.result("random", *run.strongest(picks), [])


def transfer_attack(source: PerturbationResult, model: GraphModel, graph: Graph,
                    candidates: CandidateSet | None = None) -> float:
    """Evaluate a stored perturbation against a different (true) model.

    Returns the attacked metric for ``model`` on the same graph identity.
    """
    config = AttackConfig(
        budget_fraction=source.budget_fraction,
        loss_kind="tanh_margin" if model.task == "node" else "raw_score",
        mode=source.mode, constraint=source.constraint, seed=source.seed,
    )
    run = AttackRun(model, graph, config, candidates, source.graph_id)
    [(_, metric, _)] = run.evaluate_discrete([source.flips])
    return metric
