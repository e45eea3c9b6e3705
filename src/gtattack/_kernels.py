"""Numerical inner loops for the shortest-path machinery, in numpy.

Each Python loop steps one index (the Floyd-Warshall pivot, the next-hop
target of a dense graph, the tree level of the backward push, the BFS
depth) over O(n^2) array operations, so temporaries stay O(n^2).  A graph
with at most n^2 / 4 edges (finite weights) takes its next hops in one
pass over the m edges against all n targets instead, an O(n m) temporary.
"""

from __future__ import annotations

import numpy as np

from .graphs import EDGE_EPS

_TIE_TOL = 1e-9  # a neighbor is on a shortest path when within this of the distance


def shortest_paths_kernel(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs distances and next hops on a non-negative weight matrix.

    ``r[u, v] = inf`` means no edge.  Distances come from Floyd-Warshall.
    ``nxt[u, j]`` is the smallest-index neighbor v of u with
    r[u, v] + dist[v, j] <= dist[u, j] + _TIE_TOL, or, where rounding leaves
    no neighbor inside it (path lengths near 1/EDGE_EPS), the neighbor of
    least r[u, v] + dist[v, j]; -1 if unreachable, u itself when u == j.
    Greedily following nxt yields the lexicographically smallest shortest
    path.
    """
    n = r.shape[0]
    dist = r.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    # per pair (u, j), the first neighbor v of u with
    # r[u, v] + dist[v, j] <= dist[u, j] + _TIE_TOL; n where none is
    eu, ev = np.nonzero(np.isfinite(r))
    if 4 * eu.size <= n * n:  # sparse: one pass over the edges, each row a run of them
        on_path = r[eu, ev][:, None] + dist[ev] <= (dist + _TIE_TOL)[eu]
        starts = np.flatnonzero(np.diff(eu, prepend=-1))
        nxt = np.full((n, n), n, dtype=np.int64)
        if eu.size:
            nxt[eu[starts]] = np.minimum.reduceat(np.where(on_path, ev[:, None], n), starts, axis=0)
    else:  # dense: one (n, n) test per target, which beats the edges' (m, n) temporaries
        nxt = np.empty((n, n), dtype=np.int64)
        for j in range(n):
            col = dist[:, j]
            nxt[:, j] = np.argmax(r + col[None, :] <= col[:, None] + _TIE_TOL, axis=1)
        cols = np.arange(n)  # argmax took node 0 where no neighbor passes
        nxt[~(r[cols[:, None], nxt] + dist[nxt, cols] <= dist + _TIE_TOL)] = n
    nxt[~np.isfinite(dist)] = -1
    np.fill_diagonal(nxt, np.arange(n))
    # where rounding leaves no neighbor inside _TIE_TOL, the neighbor of least length
    us, js = np.nonzero(nxt == n)
    nxt[us, js] = np.argmin(r[us] + dist[:, js].T, axis=1)
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


def bfs_hops(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances over the entries > EDGE_EPS of ``adj``, or of
    each matrix in a (..., n, n) stack (vectorized BFS)."""
    conn = (adj > EDGE_EPS).astype(np.float64)  # float matmul runs on BLAS
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
