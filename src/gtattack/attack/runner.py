"""End-to-end attack runs: adaptive PRBCD, random baseline, transfer replay."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import Graph, apply_flips, is_connected
from ..models import GraphModel, SpectralReference
from ..train import discrete_logits, score
from .config import AttackConfig, PerturbationResult, allowed_pairs, budget_from_fraction
from .injection import CandidateSet, is_tree, mst_projection, nia_augment, node_probability
from .losses import attack_loss
from .structure import BlockState, init_block, prbcd_step, resample_block, sample_discrete

__all__ = ["AttackRun", "run_cell", "run_attack", "random_baseline", "transfer_attack"]

# injection-mode floor for block values: it keeps every block edge present,
# above EDGE_EPS for the shortest-path kernels, so that it carries a gradient
BLOCK_KEEP_EPS = 1e-7


def _injection_nodes(pairs: np.ndarray, n_orig: int) -> tuple[np.ndarray, list]:
    """Nodes of the injection graph that ``pairs`` give, and the pairs renumbered
    onto them.

    The nodes are the original ones, then the candidates that the pairs join
    to them, in augmented order.  A pair that does not join an original node
    (below ``n_orig``) to a candidate raises ``ValueError``.  Flip sets hold a
    budget of pairs, so plain Python beats numpy calls here.
    """
    n, pairs = n_orig, pairs.tolist()
    if not all(i < n <= j for i, j in pairs):
        raise ValueError("injection flips must join an original node to a candidate")
    added = sorted({j for _, j in pairs})
    at = dict(zip(added, range(n, n + len(added))))
    return np.array([*range(n), *added]), [(i, at[j]) for i, j in pairs]


class AttackRun:
    """Shared state for one (model, graph, config) attack: budgets, masks,
    the relaxed objective, and true-model evaluation of discrete flips."""

    def __init__(self, model: GraphModel, graph: Graph, config: AttackConfig,
                 candidates: CandidateSet | None = None):
        self.model = model
        self.config = config
        if config.mode == "injection":
            if candidates is None:
                raise ValueError("injection mode needs a candidate set")
            # a tree is connected, so a tree_only set-up searches components once
            tree = config.constraint == "tree_only" and is_tree(graph.adjacency)
            if not (tree or is_connected(graph.adjacency)):
                raise ValueError("injection attacks require a connected original graph")
            if config.constraint == "tree_only" and not tree:
                raise ValueError("tree_only injection requires a tree as the original graph")
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
        self._ref_kept = self._ref = None

    def spectral_ref(self, kept: np.ndarray) -> SpectralReference:
        """SAN's clean base point on the ``kept`` nodes, rebuilt only when
        they differ from the last call's (once per run in structure mode)."""
        if not np.array_equal(self._ref_kept, kept):
            self._ref_kept = kept
            self._ref = SpectralReference.of(self.base_adj[np.ix_(kept, kept)])
        return self._ref

    # -- relaxed objective ----------------------------------------------------
    def objective(self, block: BlockState):
        """Closure mapping the values of ``block`` (leaf tensor) to the attack
        loss.  Structure mode keeps every node.  Injection mode fixes the
        graph's nodes once per block, from the block's pairs
        (:func:`_injection_nodes`), whatever the values; each step then flips
        the compact base and adds node probabilities."""
        toggles, task = self.config.toggles, self.model.task
        injection = self.config.mode == "injection"
        base, feats, pairs, kw = self.base_adj, self.base_feats, block.pairs, {}
        nodes = np.arange(self.n_aug)
        if injection:
            nodes, local = _injection_nodes(block.pairs, self.n_orig)
            base, feats = base[np.ix_(nodes, nodes)], feats.take(nodes, axis=0)
            pairs = np.array(local, dtype=np.int64).reshape(-1, 2)
        if self.model.arch == "san" and toggles.san_lap_pert:
            kw["spectral_ref"] = self.spectral_ref(nodes)

        def fn(values: Tensor) -> Tensor:
            atilde = apply_flips(base, pairs, values)
            probs = {"node_probs": node_probability(atilde)} if injection else {}
            logits = self.model.forward(atilde, feats, toggles, **kw, **probs)
            if injection and task == "node":
                logits = ad.gather_rows(logits, np.arange(self.n_orig))
            return attack_loss(logits, self.labels, self.config.loss_kind, task)

        return fn

    # -- discrete evaluation ----------------------------------------------------
    def _discrete_graph(self, flips: np.ndarray,
                        block: BlockState | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency, features and effective flips of the graph a flip set gives.
        Injection graphs hold the original nodes plus the candidates the flips
        join to them; a flip that does not join an original node to a
        candidate raises ``ValueError``."""
        if self.config.constraint == "tree_only":
            weights = np.ones(len(flips)) if block is None else block.value_of(flips)
            flips = mst_projection(flips, weights, self.n_orig)
        if self.config.mode == "structure":
            adj = self.base_adj.copy()
            i, j = flips.T
            adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
            return adj, self.base_feats, flips

        n = self.n_orig
        nodes, pairs = _injection_nodes(flips, n)
        adj = np.zeros((len(nodes), len(nodes)))
        adj[:n, :n] = self.base_adj[:n, :n]
        for i, j in pairs:
            adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
        return adj, self.base_feats.take(nodes, axis=0), flips

    def evaluate_discrete(self, flip_sets: list,
                          blocks: list | None = None) -> list[tuple[float, float, list]]:
        """True-model evaluation of discrete flip sets.

        Returns one (attack loss, metric, effective flips) per flip set, in
        input order.  In tree-only mode each flip set is first projected to
        the flips of the maximum-probability spanning tree
        (:func:`~gtattack.attack.injection.mst_projection`), weighting each
        flip by its value in that flip set's entry of ``blocks`` (1.0 for
        an entry of None, e.g. a random pick; without ``blocks``, for every
        set).  In injection mode each graph holds the original nodes plus the
        candidates its flips join to them.  All sets are scored in one
        :func:`~gtattack.train.discrete_logits` call.
        """
        blocks = [None] * len(flip_sets) if blocks is None else blocks
        return _score(self.model, [(self, flips, block)
                                   for flips, block in zip(flip_sets, blocks, strict=True)])


def _score(model: GraphModel, items: list) -> list[tuple[float, float, list]]:
    """:meth:`AttackRun.evaluate_discrete` of (run, flips, block) items that
    may come from several runs on ``model``; the graphs are built one at a
    time as the stacks fill, and the outputs of one run and size are scored
    in one :func:`attack_loss` and one :func:`~gtattack.train.score` call."""
    effective: list = []

    def graphs():
        for run, flips, block in items:
            flips = np.asarray(flips, dtype=np.int64).reshape(-1, 2)
            adj, feats, eff = run._discrete_graph(flips, block)
            effective.append(eff.tolist())
            yield adj, feats

    groups: dict = {}
    for i, ((run, _, _), out) in enumerate(zip(items, discrete_logits(model, graphs()))):
        out = out[: run.n_orig]
        groups.setdefault((run, out.shape), []).append((i, out))
    results: list = [None] * len(items)
    with ad.no_grad():
        for (run, _), group in groups.items():
            stack = np.stack([out for _, out in group])
            losses = attack_loss(Tensor(stack), run.labels, run.config.loss_kind, model.task).data
            for (i, _), loss, metric in zip(group, losses, score(stack, run.labels, model.task)):
                results[i] = (float(loss), float(metric), effective[i])
    return results


def _adaptive_draws(run: AttackRun) -> tuple[list, BlockState, list[float]]:
    """PRBCD over a sampled block, one relaxed objective per block, then
    discrete samples of the final block; returns (flip sets, block, trace)."""
    config = run.config
    rng = np.random.default_rng(config.seed)
    fresh = BLOCK_KEEP_EPS if config.mode == "injection" else 0.0
    block = init_block(run.n_aug, run.allowed, run.block_size, rng, fresh_value=fresh)
    objective = run.objective(block)
    trace = []
    for step in range(config.steps):
        trace.append(prbcd_step(objective, block, run.delta, run.lr))
        if fresh:
            np.maximum(block.values, fresh, out=block.values)
        if (step + 1) % config.resample_every == 0 and step < config.steps - 1:
            block = resample_block(block, 0.5, rng, run.allowed, fresh_value=fresh)
            objective = run.objective(block)
    return sample_discrete(block, run.delta, config.n_discrete_samples, rng), block, trace


def _random_draws(run: AttackRun) -> tuple[list, None, list[float]]:
    """The adaptive run's evaluation count, steps + 1 + n_discrete_samples,
    of random budget-sized flip sets from the allowed pairs."""
    config = run.config
    rng = np.random.default_rng(config.seed)
    n_evals = config.steps + 1 + config.n_discrete_samples
    return [run.allowed[np.sort(rng.choice(len(run.allowed), size=run.delta, replace=False))]
            for _ in range(n_evals)], None, []


_DRAWS = {"adaptive": _adaptive_draws, "random": _random_draws}


def run_cell(model: GraphModel, graph: Graph, config: AttackConfig,
             candidates: CandidateSet | None = None, graph_id: int = 0,
             kinds: tuple[str, ...] = ("adaptive", "random")) -> tuple[PerturbationResult, ...]:
    """The attacks named in ``kinds`` on one graph, one result each, in order.

    Each kind draws its flip sets from its own
    ``np.random.default_rng(config.seed)``, so a kind's result does not
    depend on the other kinds in the cell.  The clean graph and every
    kind's flip sets are scored in one :meth:`AttackRun.evaluate_discrete`
    call, and each kind keeps the first of its flip sets of lowest attack
    loss (no flip sets: the clean metric and no flips).
    """
    run = AttackRun(model, graph, config, candidates)
    draws = [_DRAWS[kind](run) if run.delta else ([], None, []) for kind in kinds]
    flip_sets = [flips for sets, _, _ in draws for flips in sets]
    blocks = [block for sets, block, _ in draws for _ in sets]
    (_, clean_metric, _), *scored = run.evaluate_discrete([[], *flip_sets], [None, *blocks])
    results = []
    for kind, (sets, _, trace) in zip(kinds, draws):
        mine, scored = scored[: len(sets)], scored[len(sets):]
        _, metric, flips = min(mine, key=lambda r: r[0], default=(np.inf, clean_metric, []))
        results.append(PerturbationResult(
            graph_id=graph_id, budget=run.delta, budget_fraction=config.budget_fraction,
            flips=flips, clean_metric=clean_metric, attacked_metric=metric, loss_trace=trace,
            seed=config.seed, toggles=config.toggles.to_dict(), mode=config.mode,
            constraint=config.constraint, attack_kind=kind,
        ))
    return tuple(results)


def run_attack(model: GraphModel, graph: Graph, config: AttackConfig,
               candidates: CandidateSet | None = None, graph_id: int = 0) -> PerturbationResult:
    """Full adaptive attack: PRBCD over a sampled block, then discretization.

    Deterministic given ``config.seed``.
    """
    return run_cell(model, graph, config, candidates, graph_id, ("adaptive",))[0]


def random_baseline(model: GraphModel, graph: Graph, config: AttackConfig,
                    candidates: CandidateSet | None = None, graph_id: int = 0) -> PerturbationResult:
    """Budget-matched random attack with the adaptive run's evaluation count.

    Evaluates steps + 1 + n_discrete_samples random budget-sized flip sets
    on the true model, together with the clean graph, and keeps the
    strongest (the first of equal losses).
    """
    return run_cell(model, graph, config, candidates, graph_id, ("random",))[0]


def transfer_attack(sources: list[PerturbationResult], model: GraphModel, graphs,
                    candidates=None) -> list[float]:
    """Evaluate stored perturbations against a different (true) model.

    ``graphs`` and, in injection mode, ``candidates`` are indexed by each
    source's ``graph_id``.  Returns the attacked metric of each source for
    ``model``, in input order.  Sources on one graph share one
    :class:`AttackRun`, and all sources are scored in one stacked call.
    """
    runs: dict[tuple, AttackRun] = {}
    items = []
    for src in sources:
        key = (src.graph_id, src.mode, src.constraint)
        if key not in runs:
            config = AttackConfig(
                budget_fraction=src.budget_fraction,
                loss_kind="tanh_margin" if model.task == "node" else "raw_score",
                mode=src.mode, constraint=src.constraint, seed=src.seed,
            )
            cands = None if candidates is None else candidates[src.graph_id]
            runs[key] = AttackRun(model, graphs[src.graph_id], config, cands)
        items.append((runs[key], src.flips, None))
    return [metric for _, metric, _ in _score(model, items)]
