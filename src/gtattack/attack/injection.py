"""Node-injection machinery: augmentation, node probabilities, MST."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import Dataset, Graph, is_connected
from ..paths import EDGE_EPS

__all__ = [
    "CandidateSet",
    "build_candidate_set",
    "nia_augment",
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


def nia_augment(graph: Graph, candidates: CandidateSet) -> tuple[np.ndarray, np.ndarray, int]:
    """Original graph plus the candidate set as isolated nodes.

    Returns (augmented adjacency, augmented features, n_original); index
    pairs with both ends < n_original are region B, one end in the
    candidate range is E, both in it is F.  Injection attacks flip E pairs
    only: original edges stay as they are, and candidates join the graph
    through original nodes, never through each other.
    """
    if candidates.size and candidates.features.shape[1] != graph.feature_dim:
        raise ValueError(
            f"candidate feature dim {candidates.features.shape[1]} != graph dim {graph.feature_dim}"
        )
    n = graph.n
    total = n + candidates.size
    adj = np.zeros((total, total))
    adj[:n, :n] = graph.adjacency
    feats = np.vstack([graph.features, candidates.features]) if candidates.size else graph.features.copy()
    return adj, feats, n


def node_probability(atilde: Tensor, iterations: int = 3) -> Tensor:
    """p_i <- 1 - prod_j (1 - A_ij p_j), starting from p = 1.

    Nodes joined by weight-1 edges to probability-1 neighbors stay at 1
    exactly (the product hits a zero factor).  Differentiable in A.
    """
    if iterations < 1:
        raise ValueError("node_probability needs iterations >= 1")
    n = atilde.shape[0]
    p = Tensor(np.ones(n))
    ones = Tensor(np.ones((n, n)))
    for _ in range(iterations):
        factors = ad.sub(ones, ad.mul(atilde, ad.reshape(p, (1, n))))
        p = ad.sub(Tensor(np.ones(n)), ad.prod_lastdim(factors))
    return p


def is_tree(adjacency: np.ndarray) -> bool:
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
