"""Numerical inner loops for the shortest-path machinery, in numpy.

Each Python loop steps one index (the Floyd-Warshall pivot, the next-hop
target, the tree level of the backward push, the BFS depth) over O(n^2)
array operations, so temporaries stay O(n^2).
"""

from __future__ import annotations

import numpy as np


def shortest_paths_kernel(r: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs distances and next hops on a non-negative weight matrix.

    ``r[u, v] = inf`` means no edge.  Distances come from Floyd-Warshall.
    ``nxt[u, j]`` is the smallest-index neighbor v of u with
    r[u, v] + dist[v, j] <= dist[u, j] + tol, or, where rounding leaves no
    neighbor inside ``tol`` (path lengths near 1/EDGE_EPS), the neighbor of
    least r[u, v] + dist[v, j]; -1 if unreachable, u itself when u == j.
    Greedily following nxt yields the lexicographically smallest shortest
    path.
    """
    n = r.shape[0]
    dist = r.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    nxt = np.full((n, n), -1, dtype=np.int64)
    for j in range(n):
        col = dist[:, j]
        on_path = r + col[None, :] <= col[:, None] + tol
        nxt[:, j] = np.where(np.isfinite(col), np.argmax(on_path, axis=1), -1)
        nxt[j, j] = j
    # a row with no neighbor inside tol, where argmax picked node 0, takes the
    # neighbor of least length instead
    cols = np.arange(n)
    hop = np.maximum(nxt, 0)
    stray = (nxt >= 0) & ~(r[cols[:, None], hop] + dist[hop, cols] <= dist + tol)
    np.fill_diagonal(stray, False)
    for u, j in zip(*np.nonzero(stray)):
        nxt[u, j] = np.argmin(r[u] + dist[:, j])
    return dist, nxt


def rspd_grad_kernel(g: np.ndarray, nxt: np.ndarray, atilde: np.ndarray) -> np.ndarray:
    """Pull an upstream gradient on the rspd matrix back onto the adjacency.

    Uses the fact that, per target j, the chosen next hops form a tree
    rooted at j.  Pairs are grouped by hop depth in their tree; from the
    deepest level up, each pair (u, j) pushes its accumulated mass onto
    (nxt[u, j], j), and each used edge (u, v) receives
    mass * d(1/a)/da = -mass/a^2.
    """
    n = g.shape[0]
    cols = np.arange(n)[None, :]
    hop = np.where(nxt >= 0, nxt, cols)
    depth = np.where(nxt >= 0, -1, 0)
    np.fill_diagonal(depth, 0)
    level = 0
    while True:
        new = (depth < 0) & (depth[hop, cols] == level)
        if not new.any():
            break
        level += 1
        depth[new] = level
    mass = np.array(g, dtype=np.float64)
    grad_a = np.zeros((n, n))
    for lvl in range(level, 0, -1):
        us, js = np.nonzero(depth == lvl)
        vs = nxt[us, js]
        m = mass[us, js]
        a = atilde[us, vs]
        np.add.at(grad_a, (us, vs), -m / (a * a))
        np.add.at(mass, (vs, js), m)
    return grad_a


def bfs_hops(adj: np.ndarray, edge_eps: float = 1e-9) -> np.ndarray:
    """All-pairs hop distances on the support of ``adj``, or of each matrix
    in a (..., n, n) stack (vectorized BFS)."""
    conn = (adj > edge_eps).astype(np.float64)  # float matmul runs on BLAS
    n = adj.shape[-1]
    dist = np.full(adj.shape, np.inf)
    frontier = np.broadcast_to(np.eye(n, dtype=bool), adj.shape).copy()
    visited = frontier.copy()
    d = 0
    dist[frontier] = 0.0
    while frontier.any():
        d += 1
        frontier = ((frontier @ conn) > 0.0) & ~visited
        dist[frontier] = d
        visited |= frontier
    return dist
