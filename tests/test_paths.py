import heapq
from collections import deque

import numpy as np
import pytest

from gtattack import autodiff as ad
from gtattack._kernels import _TIE_TOL, bfs_hops, shortest_paths_kernel
from gtattack.autodiff import Tensor, backward
from gtattack.paths import (
    interp_table,
    reciprocal_weights,
    rspd_matrix,
    spd_bias,
)
from oracles import all_pairs_shortest, finite_difference, path_sum_proxy, per_target_next_hops


def sym(a):
    a = np.asarray(a, dtype=float)
    return a + a.T


def random_adjacency(rng, n, p=0.35, weighted=False):
    a = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    if weighted:
        a *= rng.uniform(0.1, 1.0, size=(n, n))
    return a + a.T


def bfs_hops_oracle(a):
    """Independent hop-count oracle (deque BFS per source)."""
    n = a.shape[0]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v in np.flatnonzero(a[u] > 0):
                if dist[s, v] == np.inf:
                    dist[s, v] = dist[s, u] + 1
                    dq.append(int(v))
    return dist


def dijkstra_oracle(r):
    """Independent weighted-distance oracle (heap Dijkstra per source)."""
    n = r.shape[0]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d >= dist[s, u]:
                continue
            dist[s, u] = d
            for v in np.flatnonzero(np.isfinite(r[u])):
                if v != u:
                    heapq.heappush(heap, (d + r[u, v], int(v)))
    return dist


PATH3 = sym([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


# ---------------------------------------------------------------------------
# reciprocal weights


def test_reciprocal_of_one_is_one():
    r = reciprocal_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert r[0, 1] == 1.0


def test_reciprocal_of_half_is_two():
    r = reciprocal_weights(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert r[0, 1] == 2.0


def test_reciprocal_of_zero_is_unreachable():
    r = reciprocal_weights(np.zeros((2, 2)))
    assert r[0, 1] == np.inf


# ---------------------------------------------------------------------------
# all-pairs shortest paths


def test_discrete_path_graph():
    res = all_pairs_shortest(reciprocal_weights(PATH3))
    assert res.rspd[0, 2] == 2.0


def test_weakened_edge_lengthens_path():
    a = PATH3.copy()
    a[0, 1] = a[1, 0] = 0.5
    res = all_pairs_shortest(reciprocal_weights(a))
    assert res.rspd[0, 2] == pytest.approx(3.0)


def test_disconnected_pair_is_inf():
    res = all_pairs_shortest(reciprocal_weights(np.zeros((2, 2))))
    assert res.rspd[0, 1] == np.inf


def test_rejects_weights_below_one():
    r = np.array([[np.inf, 0.5], [0.5, np.inf]])
    with pytest.raises(ValueError, match=">= 1"):
        all_pairs_shortest(r)


def test_matches_bfs_oracle_on_discrete_graphs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a = random_adjacency(rng, n, p=0.2)
        res = all_pairs_shortest(reciprocal_weights(a))
        np.testing.assert_array_equal(res.rspd, bfs_hops_oracle(a))


def test_bfs_hops_matches_oracle_on_stacks():
    rng = np.random.default_rng(13)
    for n, weighted in [(1, False), (6, False), (9, True), (17, True)]:
        stack = np.stack([random_adjacency(rng, n, p=0.15, weighted=weighted)
                          for _ in range(6)]).reshape(2, 3, n, n)
        got = bfs_hops(stack)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(got[idx], bfs_hops_oracle(stack[idx]))
        if n > 1:
            assert np.isinf(got).any()  # unreachable pairs
        np.testing.assert_array_equal(bfs_hops(stack[1, 2]), got[1, 2])


def test_matches_dijkstra_oracle_on_relaxed_graphs():
    # Floyd-Warshall adds path segments in another order than Dijkstra, so
    # a path of up to n edges may differ by about n roundings
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        r = reciprocal_weights(random_adjacency(rng, n, p=0.25, weighted=True))
        want = dijkstra_oracle(r)
        got = all_pairs_shortest(r).rspd
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        np.testing.assert_allclose(got, want, rtol=n * np.finfo(float).eps, atol=0.0)


def test_monotone_in_edge_weights():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        a = random_adjacency(rng, n, p=0.4, weighted=True)
        base = all_pairs_shortest(reciprocal_weights(a)).rspd
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        bumped = a.copy()
        bumped[i, j] = bumped[j, i] = min(1.0, a[i, j] + rng.uniform(0.05, 0.5))
        after = all_pairs_shortest(reciprocal_weights(bumped)).rspd
        assert np.all(after <= base + 1e-9)


def test_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(4)
    a = random_adjacency(rng, 10, p=0.4, weighted=True)
    d = all_pairs_shortest(reciprocal_weights(a)).rspd
    np.testing.assert_allclose(d, d.T, atol=1e-9)
    np.testing.assert_array_equal(np.diag(d), np.zeros(10))
    finite = np.isfinite(d)
    for k in range(10):
        lhs = d
        rhs = d[:, k : k + 1] + d[k : k + 1, :]
        both = finite & np.isfinite(rhs)
        assert np.all(lhs[both] <= rhs[both] + 1e-9)


def test_lexicographic_tie_break():
    # two shortest 0->3 paths: [0, 1, 3] and [0, 2, 3]; lex smaller wins
    a = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 3), (0, 2), (2, 3)]:
        a[i, j] = a[j, i] = 1.0
    res = all_pairs_shortest(reciprocal_weights(a))
    assert res.path(0, 3) == [0, 1, 3]

    # relaxed exact tie: the weight-0.5 edge 0-3 costs 2 like the unit hops
    # 0-1-3, so 0 goes via 1 and 3 goes straight to 0; node 4 is isolated
    a = np.zeros((5, 5))
    for i, j, w in [(0, 1, 1.0), (1, 3, 1.0), (0, 3, 0.5), (2, 3, 1.0)]:
        a[i, j] = a[j, i] = w
    res = all_pairs_shortest(reciprocal_weights(a))
    assert res.rspd[0, 3] == res.rspd[3, 0] == 2.0
    assert res.path(0, 3) == [0, 1, 3]
    assert res.path(3, 0) == [3, 0]
    assert res.path(2, 0) == [2, 3, 0]
    assert res.rspd[0, 4] == np.inf and res.next_hop[0, 4] == -1
    assert res.next_hop[4, 4] == 4


# ---------------------------------------------------------------------------
# path-sum gradient proxy


def test_proxy_value_and_gradient_discrete():
    at = Tensor(PATH3, requires_grad=True)
    res = all_pairs_shortest(reciprocal_weights(at))
    loss = path_sum_proxy(at, res, 0, 2)
    assert loss.item() == pytest.approx(2.0)
    g = backward(loss)[at].data
    assert g[0, 1] == pytest.approx(-1.0)
    assert g[1, 2] == pytest.approx(-1.0)


def test_proxy_single_weak_edge():
    a = sym([[0, 0.5], [0, 0]])
    at = Tensor(a, requires_grad=True)
    res = all_pairs_shortest(reciprocal_weights(at))
    loss = path_sum_proxy(at, res, 0, 1)
    assert loss.item() == pytest.approx(2.0)
    assert backward(loss)[at].data[0, 1] == pytest.approx(-4.0)


def test_proxy_self_pair_is_zero():
    at = Tensor(PATH3, requires_grad=True)
    res = all_pairs_shortest(reciprocal_weights(at))
    loss = path_sum_proxy(at, res, 1, 1)
    assert loss.item() == 0.0
    assert at not in backward(loss)


def test_proxy_unreachable_raises():
    at = Tensor(np.zeros((2, 2)))
    res = all_pairs_shortest(reciprocal_weights(at))
    with pytest.raises(ValueError, match="unreachable"):
        path_sum_proxy(at, res, 0, 1)


def test_proxy_gradient_matches_finite_differences_on_frozen_path():
    rng = np.random.default_rng(8)
    a = random_adjacency(rng, 8, p=0.5, weighted=True)
    res = all_pairs_shortest(reciprocal_weights(a))
    finite_pairs = [(i, j) for i in range(8) for j in range(8) if i < j and np.isfinite(res.rspd[i, j])]
    i, j = finite_pairs[0]
    nodes = res.path(i, j)
    edges = list(zip(nodes[:-1], nodes[1:]))

    def loss_np(flat):
        at = Tensor(flat.reshape(8, 8))
        return path_sum_proxy(at, res, i, j).item()

    at = Tensor(a.copy(), requires_grad=True)
    got = backward(path_sum_proxy(at, res, i, j))[at].data
    want = finite_difference(loss_np, a.reshape(-1), 1e-6).reshape(8, 8)
    for u, v in edges:
        rel = abs(got[u, v] - want[u, v]) / max(abs(want[u, v]), 1.0)
        assert rel <= 1e-4


def test_rspd_matrix_matches_all_pairs_and_proxy_gradients():
    rng = np.random.default_rng(9)
    # two components; in {0..4} the weight-0.5 edge 0-3 ties 0-1-3 exactly
    tied = np.zeros((8, 8))
    for i, j, w in [(0, 1, 1.0), (1, 3, 1.0), (0, 3, 0.5), (0, 2, 1.0), (2, 4, 0.8),
                    (3, 4, 1.0), (5, 6, 0.6), (6, 7, 1.0), (5, 7, 0.3)]:
        tied[i, j] = tied[j, i] = w
    for a in (random_adjacency(rng, 7, p=0.5, weighted=True), tied):
        n = a.shape[0]
        at = Tensor(a.copy(), requires_grad=True)
        d = rspd_matrix(at)
        res = all_pairs_shortest(reciprocal_weights(a))
        np.testing.assert_array_equal(d.data, res.rspd)

        unreachable = ~np.isfinite(res.rspd)
        w = rng.standard_normal((n, n))
        w[unreachable] = 0.0
        loss = ad.tsum(ad.mul(ad.masked_fill(d, unreachable, 0.0), Tensor(w)))
        got = backward(loss)[at].data

        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j or w[i, j] == 0.0:
                    continue
                leaf = Tensor(a.copy(), requires_grad=True)
                p = path_sum_proxy(leaf, res, i, j)
                want += w[i, j] * backward(p)[leaf].data
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rspd_matrix_records_a_node_only_for_a_live_input():
    a = sym([[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])  # the path 0 - 1 - 2
    res = all_pairs_shortest(reciprocal_weights(a))
    with ad.no_grad():
        d = rspd_matrix(Tensor(a.copy(), requires_grad=True))
    assert d.node is None and not d.requires_grad
    np.testing.assert_array_equal(d.data, res.rspd)
    with ad.Tape() as tape:
        d = rspd_matrix(Tensor(a.copy()))
        assert d.node is None and not d.requires_grad and tape.nodes == []
        at = Tensor(a.copy(), requires_grad=True)
        d = rspd_matrix(at)
        assert [node.op for node in tape.nodes] == ["rspd_matrix"]
        got = backward(ad.tsum(d))[at].data
    want = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                leaf = Tensor(a.copy(), requires_grad=True)
                want += backward(path_sum_proxy(leaf, res, i, j))[leaf].data
    np.testing.assert_allclose(got, want, atol=1e-12)


# lengths near 1/EDGE_EPS: Floyd-Warshall's sum and the next-hop test's sum
# round one ulp apart, so row 7 has no neighbor inside the tie tolerance
# towards 8 (the stray fallback)
FAR_EDGES = [(0, 1, 0.5010316326795472), (0, 3, 0.9410611850727133), (0, 4, 0.7669501458869961),
             (1, 2, 0.901185997394909), (1, 7, 1e-07), (2, 8, 1e-07), (3, 5, 0.9696144268593088),
             (4, 6, 1e-07), (4, 7, 1.3607994611415765e-07), (5, 6, 1e-07), (5, 8, 1e-07)]


def test_next_hops_are_edges_at_lengths_near_one_over_edge_eps():
    # row 7 has no neighbor inside the tie tolerance towards 8 (FAR_EDGES);
    # its hop must still be an edge
    a = np.zeros((9, 9))
    for i, j, w in FAR_EDGES:
        a[i, j] = a[j, i] = w
    res = all_pairs_shortest(reciprocal_weights(a))
    for u in range(9):
        for j in range(9):
            if u != j:
                assert a[u, res.next_hop[u, j]] > 0.0, (u, j)
                path = res.path(u, j)
                assert sum(1.0 / a[x, y] for x, y in zip(path, path[1:])) == pytest.approx(
                    res.rspd[u, j], rel=1e-12)
    at = Tensor(a, requires_grad=True)
    with np.errstate(all="raise"):
        g = backward(ad.tsum(rspd_matrix(at)))[at].data
    assert np.all(np.isfinite(g))


def test_next_hops_equal_the_per_target_loop():
    """Random relaxed graphs, sparse (the edge pass) and dense (the
    per-target tests), with isolated nodes and unreachable pairs; weights 1
    and 0.5 that tie path lengths exactly; the stray fallback."""
    rng = np.random.default_rng(14)
    graphs = []
    for _ in range(80):
        n = int(rng.integers(1, 24))
        a = random_adjacency(rng, n, p=rng.uniform(0.05, 0.9), weighted=True)
        tied = np.triu(rng.choice([0.5, 1.0], size=(n, n)), k=1)
        graphs.append(np.where(a > 0.0, tied + tied.T, 0.0) if rng.random() < 0.5 else a)
    for n in (9, 12):  # the stray graph alone (dense), then with isolated nodes (sparse)
        far = np.zeros((n, n))
        for i, j, w in FAR_EDGES:
            far[i, j] = far[j, i] = w
        graphs.append(far)
    seen = {"sparse": 0, "dense": 0, "isolated": 0, "unreachable": 0, "tie": 0, "stray": 0}
    for a in graphs:
        r = reciprocal_weights(a)
        dense = 4 * np.isfinite(r).sum() > r.size
        seen["dense"] += int(dense)
        seen["sparse"] += int(not dense)
        dist, nxt = shortest_paths_kernel(r)
        np.testing.assert_array_equal(nxt, per_target_next_hops(r, dist))
        on_path = r[:, :, None] + dist[None, :, :] <= (dist + _TIE_TOL)[:, None, :]
        hops = on_path.sum(axis=1)  # (u, j): neighbors of u on a shortest path to j
        finite = np.isfinite(dist) & ~np.eye(len(a), dtype=bool)
        seen["isolated"] += int((~np.isfinite(r)).all(axis=1).any())
        seen["unreachable"] += int(np.isinf(dist).any())
        seen["tie"] += int((hops[finite] > 1).any())
        seen["stray"] += int((hops[finite] == 0).any())
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# bias interpolation


def table():
    return Tensor(np.arange(10, dtype=float).reshape(10, 1) ** 2, requires_grad=True)


def test_bias_integer_distance_hits_table_exactly():
    out = spd_bias(Tensor(np.array(2.0)), table(), Tensor(np.array([-5.0])))
    assert out.data[0] == 4.0


def test_bias_interpolates():
    out = spd_bias(Tensor(np.array(2.25)), table(), Tensor(np.array([-5.0])))
    assert out.data[0] == pytest.approx(0.25 * 9 + 0.75 * 4)


def test_bias_unreachable():
    out = spd_bias(Tensor(np.array(np.inf)), table(), Tensor(np.array([-5.0])))
    assert out.data[0] == -5.0


def test_bias_clamps_above_table():
    out = spd_bias(Tensor(np.array(42.0)), table(), Tensor(np.array([-5.0])))
    assert out.data[0] == 81.0


def test_bias_gradient_is_table_slope():
    x = Tensor(np.array(2.25), requires_grad=True)
    out = spd_bias(x, table(), Tensor(np.array([-5.0])))
    g = backward(ad.tsum(out))[x].data
    assert g == pytest.approx(9 - 4)


def test_bias_gradient_zero_when_clamped():
    x = Tensor(np.array(42.0), requires_grad=True)
    out = spd_bias(x, table(), Tensor(np.array([-5.0])))
    assert x not in backward(ad.tsum(out)) or backward(ad.tsum(out))[x].data == 0.0


def test_interp_table_matrix_shape():
    t = Tensor(np.arange(8, dtype=float).reshape(4, 2))
    x = Tensor(np.array([0.0, 1.5, 3.0]))
    out = interp_table(t, x)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out.data[1], [3.0, 4.0])
