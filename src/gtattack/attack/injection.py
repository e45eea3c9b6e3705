"""Node-injection machinery: candidate sets, node probabilities, MST."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import EDGE_EPS, Dataset, is_connected

__all__ = [
    "CandidateSet",
    "build_candidate_set",
    "node_probability",
    "mst_projection",
    "is_tree",
]


@dataclass
class CandidateSet:
    """Injection candidates: fixed real features from other graphs."""

    features: np.ndarray  # (n_cs, d)
    provenance: list[tuple[int, int]]  # (graph index, node index)

    @property
    def size(self) -> int:
        return self.features.shape[0]


def build_candidate_set(dataset: Dataset, attacked_graph_id: int,
                        exclude_roots: bool = True,
                        max_candidates: int | None = None,
                        seed: int = 0) -> CandidateSet:
    """Union of the nodes of all other graphs, optionally without roots and
    subsampled (deterministically) to a manageable size."""
    feats = []
    prov = []
    for gi, g in enumerate(dataset.graphs):
        if gi == attacked_graph_id:
            continue
        start = 1 if exclude_roots else 0
        for ni in range(start, g.n):
            feats.append(g.features[ni])
            prov.append((gi, ni))
    features = np.asarray(feats)
    if max_candidates is not None and len(prov) > max_candidates:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(len(prov), size=max_candidates, replace=False))
        features = features[pick]
        prov = [prov[i] for i in pick]
    return CandidateSet(features=features, provenance=prov)


NODE_PROB_ITERATIONS = 3


def node_probability(atilde) -> Tensor:
    """p_i <- 1 - prod_j (1 - A_ij p_j), NODE_PROB_ITERATIONS rounds from p = 1,
    as one recorded op.

    Nodes joined by weight-1 edges to probability-1 neighbors stay at 1
    exactly (the product hits a zero factor).  Each product runs over the
    nonzero entries of A only: every other factor is exactly 1, so the values
    equal the dense products bit for bit.  The gradient in A is dense, with
    the exact-zero rule of a product: a row with one zero factor sends its
    whole gradient to that entry, a row with two or more sends none.  ``A``
    is listed once per round, the last round first, so that its gradient
    accumulates in the order of the per-round composed chain.
    """
    atilde = ad.as_tensor(atilde)
    a = atilde.data
    n = a.shape[0]
    rows, cols = np.nonzero(a)  # row-major, each row's factors in column order
    weights = a[rows, cols]
    counts = np.bincount(rows, minlength=n)
    busy = counts > 0
    starts = (np.cumsum(counts) - counts)[busy]

    def row_products(factors):
        prod = np.ones(n)
        if len(factors):
            prod[busy] = np.multiply.reduceat(factors, starts)
        return prod

    p = np.ones(n)
    rounds = []  # (input probabilities, factors) per round
    for _ in range(NODE_PROB_ITERATIONS):
        factors = 1.0 - weights * p[cols]
        rounds.append((p, factors))
        p = 1.0 - row_products(factors)
    out = ad._wrap(p)
    if not ad._live(atilde):
        return out

    def round_grads(g):
        """Gradients in A of each round, the last first, for the gradient g of p."""
        grads = []
        for r, (p_in, factors) in reversed(list(enumerate(rounds))):
            zero = factors == 0.0
            safe = np.where(zero, 1.0, factors)
            others = row_products(safe)  # per row, the product of its nonzero factors
            nzero = np.bincount(rows[zero], minlength=n)
            free = nzero == 0
            # per entry, the product of the row's other factors
            part = np.where(free[rows], others[rows] / safe,
                            np.where(zero & (nzero[rows] == 1), others[rows], 0.0))
            gp = g[rows] * part
            ga = np.outer(g * np.where(free, others, 0.0), p_in)  # entries with A_ij = 0
            ga[rows, cols] = gp * p_in[cols]
            grads.append(ga)
            if r:
                g = np.bincount(cols, weights=gp * weights, minlength=n)
        return grads

    grads_for = ad._once(round_grads)
    return ad._record("node_probability", out, (atilde,) * NODE_PROB_ITERATIONS,
                      tuple(lambda g, r=r: grads_for(g)[r] for r in range(NODE_PROB_ITERATIONS)))


def is_tree(adjacency: np.ndarray) -> bool:
    """Whether the entries > EDGE_EPS form a spanning tree."""
    n = adjacency.shape[0]
    m = int(np.count_nonzero(np.triu(adjacency > EDGE_EPS, k=1)))
    return m == n - 1 and is_connected(adjacency)


def mst_projection(flips: np.ndarray, weights: np.ndarray, n_orig: int) -> np.ndarray:
    """The flips of the maximum spanning tree of a tree plus weighted flips.

    Every flip (i, j) joins an original node i < ``n_orig`` to an injected
    node j, and the original nodes form a tree whose edges weigh 1.0, at
    least as much as any flip.  The maximum spanning tree is then the
    original tree plus each flipped injected node's heaviest flip, the one
    of lowest original endpoint among equal weights (Kruskal's own tie
    order).  One pass over the flips finds them, with no sort: flip sets
    hold at most a budget of flips.  Returns the kept flips in input order.
    """
    flips = np.asarray(flips, dtype=np.int64).reshape(-1, 2)
    best: dict = {}  # injected node -> (weight, original node, row) of its heaviest flip
    for row, ((i, j), w) in enumerate(zip(flips.tolist(), weights, strict=True)):
        if not i < n_orig <= j:
            raise ValueError(
                "mst_projection: each flip must join an original node to an injected one")
        kept = best.get(j)
        if kept is None or w > kept[0] or (w == kept[0] and i < kept[1]):
            best[j] = (w, i, row)
    if len(best) == len(flips):
        return flips
    return flips[sorted(row for _, _, row in best.values())]
