"""Node-injection machinery: augmentation, pruning, node probabilities, MST."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import Dataset, Graph, connected_components, is_connected
from ..paths import EDGE_EPS

__all__ = [
    "CandidateSet",
    "build_candidate_set",
    "nia_augment",
    "prune_disconnected",
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
    candidate range is E, both in it is F.
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


def prune_disconnected(atilde: Tensor, n_orig: int) -> tuple[Tensor, np.ndarray]:
    """Keep the connected component containing the original nodes.

    With zero perturbation this reverts the augmentation exactly.  The
    selection is a differentiable submatrix gather, so gradients still
    reach the surviving entries.
    """
    comp = connected_components(atilde.data, EDGE_EPS)
    if comp[:n_orig].any():  # node 0's component has id 0
        raise ValueError("prune_disconnected: original graph is disconnected")
    kept = np.flatnonzero(comp == 0)
    if len(kept) == atilde.shape[0]:
        return atilde, kept
    return ad.submatrix(atilde, kept), kept


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


def mst_projection(weights: np.ndarray) -> np.ndarray:
    """Maximum-probability spanning tree of a weighted graph (Kruskal).

    Ties break on the index pair, so the result is deterministic.  Raises
    if the positive-weight support is disconnected.  The output adjacency
    is discrete (entries 0/1), acyclic, and connected.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    mask = w[iu, ju] > EDGE_EPS
    ei, ej, ew = iu[mask], ju[mask], w[iu, ju][mask]
    order = np.lexsort((ej, ei, -ew))  # weight desc, then (i, j) asc

    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = np.zeros((n, n))
    added = 0
    for idx in order:
        a, b = int(ei[idx]), int(ej[idx])
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        out[a, b] = out[b, a] = 1.0
        added += 1
        if added == n - 1:
            break
    if added != n - 1:
        raise ValueError("mst_projection: support graph is disconnected")
    return out
