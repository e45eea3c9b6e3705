"""Synthetic dataset generators.

Two families, matching the structure of the evaluation tasks:

* ``generate_sbm_cluster`` — stochastic-block-model community graphs where
  exactly one node per cluster reveals its cluster id through a one-hot
  feature channel; the node task is to recover every node's cluster.
* ``generate_retweet_tree`` — label-rooted random trees whose root feature
  distribution depends on the binary graph label, with a smaller
  label-dependent shift on the non-root (user) features.

Generators are pure functions of their seed.  The settings that no
experiment varies are constants: the SBM edge probabilities ``P_INTRA``
and ``P_INTER``, the ``FEATURE_DIM`` feature channels of both families, the
``NOISE_SCALE`` of the cluster graphs' noise channels, and the trees'
label shifts ``ROOT_SHIFT`` and ``USER_SHIFT`` and power users
(``POWER_FRAC`` of them, at ``POWER_SCALE``).
"""

from __future__ import annotations

import numpy as np

from .graphs import Dataset, Graph, is_connected

__all__ = [
    "generate_sbm_cluster",
    "generate_retweet_tree",
    "make_cluster_dataset",
    "make_tree_dataset",
]

MAX_CONNECTIVITY_RETRIES = 200
P_INTRA, P_INTER = 0.4, 0.05  # edge probability within a cluster, and across two
FEATURE_DIM = 8
NOISE_SCALE = 0.1
ROOT_SHIFT, USER_SHIFT = 0.2, 0.07
POWER_FRAC, POWER_SCALE = 0.03, 3.0


def _sbm_once(rng: np.random.Generator, n_clusters: int,
              nodes_per_cluster_range: tuple[int, int]) -> Graph:
    lo, hi = nodes_per_cluster_range
    sizes = rng.integers(lo, hi + 1, size=n_clusters)
    labels = np.repeat(np.arange(n_clusters), sizes)
    n = int(sizes.sum())
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, P_INTRA, P_INTER)
    u = rng.random((n, n))
    u = np.triu(u, k=1)
    a = np.zeros((n, n))
    a[np.triu_indices(n, k=1)] = (u < probs)[np.triu_indices(n, k=1)].astype(float)
    a = a + a.T

    feats = np.zeros((n, FEATURE_DIM))
    noise_dims = FEATURE_DIM - n_clusters
    if noise_dims > 0:
        feats[:, n_clusters:] = NOISE_SCALE * rng.standard_normal((n, noise_dims))
    mask = np.zeros(n, dtype=bool)
    offset = 0
    for c, size in enumerate(sizes):
        pick = offset + int(rng.integers(0, size))
        feats[pick, c] = 1.0
        mask[pick] = True
        offset += size
    return Graph(adjacency=a, features=feats, node_labels=labels, labeled_mask=mask)


def generate_sbm_cluster(
    seed: int,
    n_clusters: int = 6,
    nodes_per_cluster_range: tuple[int, int] = (15, 25),
) -> Graph:
    """Connected SBM graph with one labeled node per cluster.

    Regenerates (bounded retries) until the sampled graph is connected.
    """
    if n_clusters > FEATURE_DIM:
        raise ValueError(f"n_clusters must be <= FEATURE_DIM = {FEATURE_DIM} (one one-hot "
                         f"label channel each), got {n_clusters}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        g = _sbm_once(rng, n_clusters, nodes_per_cluster_range)
        if is_connected(g.adjacency):
            return g
    raise ValueError(
        f"generate_sbm_cluster: no connected sample in {MAX_CONNECTIVITY_RETRIES} retries"
    )


def generate_retweet_tree(
    seed: int,
    n_nodes_range: tuple[int, int] = (24, 48),
    label: int = 0,
) -> Graph:
    """Random recursive tree rooted at node 0 with label-dependent features.

    The topology depends only on the seed (not the label), so the same seed
    with a different label yields the same tree with shifted features.  The
    per-node shifts are deliberately small: the label is only readable from
    the root plus the aggregated user features, so classifiers keep modest
    margins and injected nodes carry meaningful counter-evidence.  A small
    fraction of "power users" carry the same signal at ``POWER_SCALE``
    amplitude (user features are heavy-tailed in the wild), which makes
    them both informative during training and high-leverage injection
    candidates.
    """
    lo, hi = n_nodes_range
    if lo < 2:
        raise ValueError("trees need at least 2 nodes")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi + 1))
    a = np.zeros((n, n))
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        a[v, parent] = 1.0
        a[parent, v] = 1.0
    sign = 1.0 if label == 1 else -1.0
    feats = rng.standard_normal((n, FEATURE_DIM))
    feats[0] += sign * ROOT_SHIFT
    feats[1:] += sign * USER_SHIFT
    power = 1 + np.flatnonzero(rng.random(n - 1) < POWER_FRAC)
    feats[power] *= POWER_SCALE
    return Graph(adjacency=a, features=feats, graph_label=int(label))


def _seeded_dataset(seed: int, n_train: int, n_val: int, n_test: int, generate,
                    task: str) -> Dataset:
    """``generate(i, s)`` for the i-th child seed s of ``seed``: the first
    ``n_train`` graphs train, the next ``n_val`` validate, the rest test."""
    total = n_train + n_val + n_test
    child_seeds = np.random.SeedSequence(seed).generate_state(total)
    graphs = [generate(i, int(s)) for i, s in enumerate(child_seeds)]
    split = {
        "train": list(range(n_train)),
        "val": list(range(n_train, n_train + n_val)),
        "test": list(range(n_train + n_val, total)),
    }
    return Dataset(graphs=graphs, split=split, task=task)


def make_cluster_dataset(
    seed: int,
    n_train: int = 600,
    n_val: int = 60,
    n_test: int = 60,
    n_clusters: int = 6,
    nodes_per_cluster_range: tuple[int, int] = (15, 25),
) -> Dataset:
    """Node-classification dataset of independent SBM cluster graphs."""
    return _seeded_dataset(seed, n_train, n_val, n_test, lambda i, s: generate_sbm_cluster(
        s, n_clusters, nodes_per_cluster_range), "node-classification")


def make_tree_dataset(
    seed: int,
    n_train: int = 200,
    n_val: int = 40,
    n_test: int = 60,
    n_nodes_range: tuple[int, int] = (24, 48),
) -> Dataset:
    """Binary graph-classification dataset of label-balanced retweet trees."""
    return _seeded_dataset(seed, n_train, n_val, n_test, lambda i, s: generate_retweet_tree(
        s, n_nodes_range, label=i % 2), "binary-graph-classification")
