"""End-to-end attack runs: adaptive PRBCD, random baseline, transfer replay."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import Graph, apply_flips, is_connected
from ..models import GraphModel, SpectralReference
from ..train import discrete_logits, score
from .config import AttackConfig, PerturbationResult, allowed_pairs, budget_from_fraction
from .injection import CandidateSet, is_tree, mst_projection, node_probability
from .losses import attack_loss
from .structure import BlockState, init_block, prbcd_step, resample_block, sample_discrete

__all__ = ["AttackRun", "run_cell", "run_attack", "random_baseline", "transfer_attack"]

# injection-mode floor for block values, which _adaptive_draws applies before and
# after each step (so no step, resample or sample reads less): it keeps every block
# edge present, above EDGE_EPS for the shortest-path kernels, so it carries a gradient
BLOCK_KEEP_EPS = 1e-7


class AttackRun:
    """Shared state for one (model, graph, config) attack: budgets, masks,
    the relaxed objective, and true-model evaluation of discrete flips.

    It keeps the original adjacency and the feature rows of the original
    nodes and, in injection mode, of the candidates after them; candidate
    ``k`` is node ``n_orig + k`` of the pairs.  :meth:`graph` builds the
    clean graph that a block or a flip set touches from these."""

    def __init__(self, model: GraphModel, graph: Graph, config: AttackConfig,
                 candidates: CandidateSet | None = None):
        self.model = model
        self.config = config
        self.adjacency, self.features, self.n_orig = graph.adjacency, graph.features, graph.n
        if config.mode == "injection":
            if candidates is None:
                raise ValueError("injection mode needs a candidate set")
            if model.task == "node":
                raise ValueError("injection attacks need a graph-task model")
            # a tree is connected, so a tree_only set-up searches components once
            tree = config.constraint == "tree_only" and is_tree(graph.adjacency)
            if not (tree or is_connected(graph.adjacency)):
                raise ValueError("injection attacks require a connected original graph")
            if config.constraint == "tree_only" and not tree:
                raise ValueError("tree_only injection requires a tree as the original graph")
            if candidates.size:
                if candidates.features.shape[1] != graph.feature_dim:
                    raise ValueError(f"candidate feature dim {candidates.features.shape[1]} "
                                     f"!= graph dim {graph.feature_dim}")
                self.features = np.vstack([graph.features, candidates.features])
        self.n_aug = len(self.features)
        self.delta = budget_from_fraction(config.budget_fraction, graph.num_edges)
        self.allowed = allowed_pairs(graph, config, n_aug=self.n_aug)
        self.block_size = min(config.block_size, len(self.allowed))
        flips = f"the {self.delta} flips of budget {config.budget_fraction:g}"
        if self.delta > config.block_size:
            raise ValueError(f"attack.block_size {config.block_size} is below {flips}")
        if self.delta > len(self.allowed):
            raise ValueError(f"attack.constraint {config.constraint!r} leaves "
                             f"{len(self.allowed)} pairs to flip, below {flips}")
        self.labels = graph.node_labels if model.task == "node" else graph.graph_label
        if model.task == "node" and self.labels is not None:
            beyond = self.labels[(self.labels < 0) | (self.labels >= model.n_classes)]
            if beyond.size:
                raise ValueError(f"node label {beyond[0]} is outside the model's "
                                 f"{model.n_classes} classes")
        self.lr = config.base_lr * max(self.delta, 1) / max(self.block_size, 1)
        self._ref_adj = self._ref = None

    def graph(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clean adjacency, features and renumbered pairs of the graph that
        ``pairs`` (a block's or a flip set's) touch.

        Structure mode keeps every node.  In injection mode the nodes are
        the original ones, then the candidates that the pairs join to them,
        in candidate order, with no edge yet; a pair that does not join an
        original node (below ``n_orig``) to a candidate raises
        ``ValueError``.  Flip sets hold a budget of pairs, so plain Python
        beats numpy calls here.
        """
        if self.config.mode == "structure":
            return self.adjacency, self.features, pairs
        n, pairs = self.n_orig, pairs.tolist()
        if not all(i < n <= j for i, j in pairs):
            raise ValueError("injection flips must join an original node to a candidate")
        added = sorted({j for _, j in pairs})
        at = dict(zip(added, range(n, n + len(added))))
        adj = np.zeros((n + len(added), n + len(added)))
        adj[:n, :n] = self.adjacency
        local = np.array([(i, at[j]) for i, j in pairs], dtype=np.int64).reshape(-1, 2)
        return adj, self.features.take([*range(n), *added], axis=0), local

    # -- relaxed objective ----------------------------------------------------
    def objective(self, block: BlockState):
        """Closure mapping the values of ``block`` (leaf tensor) to the attack
        loss, on the clean graph that the block's pairs touch (:meth:`graph`),
        whatever the values.  Each step flips that graph and, in injection
        mode, adds node probabilities.  SAN's reference is rebuilt only when
        that graph differs from the last block's: once per run in structure
        mode, and in injection mode when the block joins another number of
        candidates."""
        toggles, injection = self.config.toggles, self.config.mode == "injection"
        base, feats, pairs = self.graph(block.pairs)
        kw = {}
        if self.model.arch == "san" and toggles.san_lap_pert:
            if not np.array_equal(self._ref_adj, base):
                self._ref_adj, self._ref = base, SpectralReference.of(base)
            kw["spectral_ref"] = self._ref

        def fn(values: Tensor) -> Tensor:
            atilde = apply_flips(base, pairs, values)
            probs = {"node_probs": node_probability(atilde)} if injection else {}
            logits = self.model.forward(atilde, feats, toggles, **kw, **probs)
            return attack_loss(logits, self.labels, self.config.loss_kind, self.model.task)

        return fn

    # -- discrete evaluation ----------------------------------------------------
    def _discrete_graph(self, flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency and features of the graph a flip set gives: :meth:`graph`
        of the flips, with the flips applied.  Under ``tree_only`` a set that
        joins a candidate more than once is not a tree and raises
        ``ValueError``."""
        adj, feats, pairs = self.graph(flips)
        if self.config.constraint == "tree_only" and len(feats) - self.n_orig < len(pairs):
            raise ValueError("tree_only flip sets join each candidate at most once")
        adj = adj.copy()
        i, j = pairs.T
        adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
        return adj, feats

    def evaluate_discrete(self, flip_sets: list) -> list[tuple[float, float]]:
        """True-model evaluation of discrete flip sets, as they are.

        Returns one (attack loss, metric) per flip set, in input order.  In
        injection mode each graph holds the original nodes plus the
        candidates its flips join to them.  Under ``tree_only`` every set
        must already be a tree, each candidate joined at most once (the draws
        project theirs with :func:`~gtattack.attack.injection.mst_projection`);
        another raises ``ValueError``.  All sets are scored in one
        :func:`~gtattack.train.discrete_logits` call.
        """
        return _score(self.model, [(self, flips) for flips in flip_sets])


def _score(model: GraphModel, items: list) -> list[tuple[float, float]]:
    """:meth:`AttackRun.evaluate_discrete` of (run, flips) items that may
    come from several runs on ``model``; the graphs are built one at a time
    as the stacks fill, and the outputs of one run and size are scored in
    one :func:`attack_loss` and one :func:`~gtattack.train.score` call."""
    graphs = (run._discrete_graph(np.asarray(flips, dtype=np.int64).reshape(-1, 2))
              for run, flips in items)

    groups: dict = {}
    for i, ((run, _), out) in enumerate(zip(items, discrete_logits(model, graphs))):
        groups.setdefault((run, out.shape), []).append((i, out))
    results: list = [None] * len(items)
    with ad.no_grad():
        for (run, _), group in groups.items():
            stack = np.stack([out for _, out in group])
            losses = attack_loss(Tensor(stack), run.labels, run.config.loss_kind, model.task).data
            for (i, _), loss, metric in zip(group, losses, score(stack, run.labels, model.task)):
                results[i] = (float(loss), float(metric))
    return results


def _adaptive_draws(run: AttackRun) -> tuple[list, list[float]]:
    """PRBCD over a sampled block, one relaxed objective per block, then
    discrete samples of the final block; returns (flip sets, trace).  Under
    ``tree_only`` each sample is projected onto its maximum spanning tree,
    each flip weighing its block value, so the sets are final as drawn."""
    config = run.config
    rng = np.random.default_rng(config.seed)
    floor = BLOCK_KEEP_EPS if config.mode == "injection" else 0.0
    block = init_block(run.n_aug, run.allowed, run.block_size, rng)
    objective = run.objective(block)
    trace = []
    for step in range(config.steps):
        if floor:
            np.maximum(block.values, floor, out=block.values)
        trace.append(prbcd_step(objective, block, run.delta, run.lr))
        if floor:
            np.maximum(block.values, floor, out=block.values)
        if (step + 1) % config.resample_every == 0 and step < config.steps - 1:
            block = resample_block(block, rng, run.allowed)
            objective = run.objective(block)
    samples = sample_discrete(block, run.delta, config.n_discrete_samples, rng)
    if config.constraint == "tree_only":
        return [mst_projection(block.pairs[rows], block.values[rows], run.n_orig)
                for rows in samples], trace
    return [block.pairs[rows] for rows in samples], trace


def _random_draws(run: AttackRun) -> tuple[list, list[float]]:
    """The adaptive run's evaluation count, steps + 1 + n_discrete_samples,
    of random budget-sized flip sets from the allowed pairs.  Under
    ``tree_only`` each pick is projected onto its maximum spanning tree,
    every flip weighing 1.0."""
    config = run.config
    rng = np.random.default_rng(config.seed)
    n_evals = config.steps + 1 + config.n_discrete_samples
    picks = [run.allowed[np.sort(rng.choice(len(run.allowed), size=run.delta, replace=False))]
             for _ in range(n_evals)]
    if config.constraint == "tree_only":
        picks = [mst_projection(pick, np.ones(len(pick)), run.n_orig) for pick in picks]
    return picks, []


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
    loss, as drawn (no flip sets: the clean metric and no flips).
    """
    run = AttackRun(model, graph, config, candidates)
    draws = [_DRAWS[kind](run) if run.delta else ([], []) for kind in kinds]
    (_, clean_metric), *scored = run.evaluate_discrete(
        [[], *(flips for sets, _ in draws for flips in sets)])
    results = []
    for kind, (sets, trace) in zip(kinds, draws):
        mine, scored = scored[: len(sets)], scored[len(sets):]
        (_, metric), flips = min(zip(mine, sets), key=lambda r: r[0][0],
                                 default=((np.inf, clean_metric), np.zeros((0, 2), np.int64)))
        results.append(PerturbationResult(
            graph_id=graph_id, budget=run.delta, budget_fraction=config.budget_fraction,
            flips=flips.tolist(), clean_metric=clean_metric, attacked_metric=metric,
            loss_trace=trace, seed=config.seed, toggles=config.toggles.to_dict(),
            mode=config.mode, constraint=config.constraint, attack_kind=kind,
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
        items.append((runs[key], src.flips))
    return [metric for _, metric in _score(model, items)]
