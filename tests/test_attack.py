import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtattack import autodiff as ad
from gtattack.attack import (
    AttackConfig,
    CandidateSet,
    PerturbationResult,
    allowed_pairs,
    attack_loss,
    budget_from_fraction,
    build_candidate_set,
    init_block,
    is_tree,
    mst_projection,
    nia_augment,
    node_probability,
    project_budget,
    random_baseline,
    resample_block,
    run_attack,
    run_cell,
    sample_discrete,
    transfer_attack,
)
from gtattack.attack.structure import BlockState, prbcd_step
from gtattack.autodiff import Tensor, backward
from gtattack.generators import generate_retweet_tree, make_cluster_dataset, make_tree_dataset
from gtattack.graphs import Graph, apply_flips, connected_components, upper_triangle_pairs
from gtattack.models import build_model
from gtattack.paths import EDGE_EPS


def make_graph(a, d_feat=3, **kw):
    a = np.asarray(a, dtype=float)
    return Graph(adjacency=a, features=np.zeros((a.shape[0], d_feat)), **kw)


# ---------------------------------------------------------------------------
# attack losses


def test_tanh_margin_confident_correct_is_near_one():
    logits = Tensor(np.array([[10.0, -10.0], [12.0, -12.0]]))
    loss = attack_loss(logits, [0, 0], "tanh_margin", "node")
    assert loss.item() == pytest.approx(1.0, abs=1e-6)


def test_tanh_margin_boundary_is_zero():
    logits = Tensor(np.array([[2.0, 2.0, 0.0]]))
    loss = attack_loss(logits, [0], "tanh_margin", "node")
    assert loss.item() == pytest.approx(0.0)


def test_raw_score_sign_for_label_zero():
    # label 0, raw score -3: loss = +3, so minimizing pushes the score up
    loss = attack_loss(Tensor(np.array([[-3.0]])), 0, "raw_score", "graph")
    assert loss.item() == pytest.approx(3.0)
    loss1 = attack_loss(Tensor(np.array([[-3.0]])), 1, "raw_score", "graph")
    assert loss1.item() == pytest.approx(-3.0)


def test_loss_task_mismatch_rejected():
    with pytest.raises(ValueError):
        attack_loss(Tensor(np.zeros((2, 2))), [0, 1], "tanh_margin", "graph")
    with pytest.raises(ValueError):
        attack_loss(Tensor(np.zeros((1, 1))), 0, "raw_score", "node")


# ---------------------------------------------------------------------------
# budget projection


def sort_projection_oracle(values, budget):
    """Exact projection via breakpoint search on the piecewise-linear sum."""
    values = np.asarray(values, dtype=float)
    if np.clip(values, 0.0, 1.0).sum() <= budget:
        return np.clip(values, 0.0, 1.0)
    # sum(clamp(v - mu, 0, 1)) is piecewise linear in mu with breakpoints
    # at v_i and v_i - 1; scan segments for the exact crossing
    bps = np.unique(np.concatenate([values, values - 1.0]))
    best = None
    for lo, hi in zip(bps[:-1], bps[1:]):
        s_lo = np.clip(values - lo, 0.0, 1.0).sum()
        s_hi = np.clip(values - hi, 0.0, 1.0).sum()
        if s_hi <= budget <= s_lo:
            if s_lo == s_hi:
                mu = lo
            else:
                mu = lo + (s_lo - budget) * (hi - lo) / (s_lo - s_hi)
            best = np.clip(values - mu, 0.0, 1.0)
            break
    assert best is not None
    return best


def test_projection_exact_example():
    np.testing.assert_allclose(project_budget(np.array([0.8, 0.8]), 1.0), [0.5, 0.5], atol=1e-8)


def test_projection_feasible_untouched():
    np.testing.assert_allclose(project_budget(np.array([0.2, 0.1]), 1.0), [0.2, 0.1])


def test_projection_box_clamp_only():
    np.testing.assert_allclose(project_budget(np.array([2.0, -1.0]), 1.0), [1.0, 0.0])


def test_projection_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(1, 30))
        values = rng.uniform(-1.5, 2.5, size=k)
        budget = float(rng.uniform(0.0, k * 0.7))
        got = project_budget(values, budget)
        want = sort_projection_oracle(values, budget)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("values, budget", [
    ([0.3, 0.9, 1.4], 0.0),  # budget 0
    ([1.7], 0.4),  # a single value
    ([1.2, 3.0, 1.5], 2.0),  # all values above 1
    ([1.2, 3.0, 1.5], 0.5),
    ([0.5, 1.5, 2.5, -0.5], 1.0),  # values exactly 1 apart: coinciding breakpoints
    ([0.8, 0.8, 0.8, 0.2], 1.0),  # repeated values
    ([0.7, 0.7, 0.7], 2.0),
])
def test_projection_edge_cases_match_sort_oracle(values, budget):
    got = project_budget(np.array(values), budget)
    assert np.max(np.abs(got - sort_projection_oracle(values, budget))) <= 1e-12
    assert abs(got.sum() - budget) <= 1e-12


def test_projection_clamped_sum_just_above_budget_is_projected():
    # the clamped sum exceeds the budget by 5e-9: projected to the budget,
    # each value lowered by half the excess
    values = np.array([0.6, 0.4 + 5e-9, 1.5, -0.2])
    got = project_budget(values, 2.0)
    assert abs(got.sum() - 2.0) <= 1e-15
    np.testing.assert_allclose(got[:2], [0.6 - 2.5e-9, 0.4 + 2.5e-9], rtol=0, atol=1e-15)
    assert got[2] == 1.0 and got[3] == 0.0
    assert np.max(np.abs(got - sort_projection_oracle(values, 2.0))) <= 1e-12


def test_projection_rejects_negative_budget_and_non_finite_values():
    with pytest.raises(ValueError):
        project_budget(np.array([0.5]), -0.1)
    with pytest.raises(ValueError):
        project_budget(np.array([0.5, np.nan]), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2, 3), min_size=1, max_size=12), st.floats(0, 6))
def test_projection_feasible_output(vals, budget):
    out = project_budget(np.array(vals), budget)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert out.sum() <= budget + 1e-6 or np.clip(np.array(vals), 0, 1).sum() <= budget


# ---------------------------------------------------------------------------
# block ops


def test_init_block_unique_and_allowed():
    rng = np.random.default_rng(1)
    allowed = upper_triangle_pairs(10)
    block = init_block(10, allowed, 20, rng)
    assert len(block.pairs) == 20
    assert np.all(block.values == 0.0)


def test_resample_keep_all_is_identity():
    rng = np.random.default_rng(2)
    allowed = upper_triangle_pairs(8)
    block = init_block(8, allowed, 10, rng)
    block.values[:] = np.linspace(0, 1, 10)
    out = resample_block(block, 1.0, rng, allowed)
    np.testing.assert_array_equal(np.sort(out.values), np.sort(block.values))


def test_resample_keep_none_resets_values():
    rng = np.random.default_rng(3)
    allowed = upper_triangle_pairs(8)
    block = init_block(8, allowed, 10, rng)
    block.values[:] = 0.5
    out = resample_block(block, 0.0, rng, allowed)
    assert np.all(out.values == 0.0)
    assert len(out.pairs) == 10


def test_resample_respects_mask_fuzz():
    rng = np.random.default_rng(4)
    pairs = upper_triangle_pairs(12)
    allowed = pairs[(pairs[:, 0] != 0) & (pairs[:, 1] != 0)]  # node 0 forbidden
    block = init_block(12, allowed, 15, rng)
    for _ in range(50):
        block.values[:] = rng.random(len(block.values))
        block = resample_block(block, 0.5, rng, allowed)
        assert not np.any(block.pairs == 0)


def test_value_of_looks_pairs_up_and_defaults_to_one():
    block = BlockState(n=6, pairs=np.array([[0, 3], [1, 4], [2, 5]]),
                       values=np.array([0.25, 0.5, 0.75]))
    np.testing.assert_array_equal(block.value_of(np.array([[2, 5], [0, 4], [0, 3]])),
                                  [0.75, 1.0, 0.25])
    block.values = np.array([0.1, 0.2, 0.3])  # a step replaces the values, not the pairs
    np.testing.assert_array_equal(block.value_of(np.array([[1, 4]])), [0.2])
    assert block.value_of(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_value_of_empty_block_is_one_per_pair():
    block = BlockState(n=5, pairs=np.zeros((0, 2), dtype=np.int64), values=np.zeros(0))
    np.testing.assert_array_equal(block.value_of(np.array([[0, 3]])), [1.0])
    np.testing.assert_array_equal(block.value_of(np.array([[0, 3], [1, 4]])), [1.0, 1.0])


def test_prbcd_step_zero_gradient_keeps_values():
    block = BlockState(4, np.array([[0, 1], [1, 2]]), np.array([0.2, 0.1]))
    pairs = block.pairs
    obj = prbcd_step(lambda v: ad.tsum(ad.mul(v, 0.0)), block, budget=2, lr=0.5)
    np.testing.assert_allclose(block.values, [0.2, 0.1])
    assert block.pairs is pairs
    assert obj == 0.0


def test_prbcd_step_ascends_until_budget_binds():
    block = BlockState(3, np.array([[0, 1]]), np.array([0.0]))
    # attack loss = -value: descending it raises the value
    obj = lambda v: ad.neg(ad.tsum(v))
    for _ in range(5):
        prbcd_step(obj, block, budget=1, lr=0.3)
    assert block.values[0] == pytest.approx(1.0)


def test_prbcd_trace_trend_monotone_for_smooth_objective():
    rng = np.random.default_rng(5)
    block = BlockState(6, upper_triangle_pairs(6)[:8], np.zeros(8))
    w = rng.uniform(0.5, 1.5, size=8)
    obj = lambda v: ad.neg(ad.tsum(ad.mul(v, Tensor(w))))  # loss falls as values rise
    trace = [prbcd_step(obj, block, budget=3, lr=0.1) for _ in range(12)]
    assert trace[-1] >= trace[0]
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_prbcd_nonfinite_gradient_reported():
    block = BlockState(3, np.array([[0, 1]]), np.array([0.0]))

    def bad(v):
        return ad.tsum(ad.tlog(v))  # log(0) with live gradient -> inf

    with pytest.raises(RuntimeError, match="block_values"):
        prbcd_step(bad, block, budget=1, lr=0.1)
    assert block.values.tolist() == [0.0]  # the failed step moved nothing


# ---------------------------------------------------------------------------
# discretization


def draw(values, budget, n_samples=6, seed=0):
    block = BlockState(10, upper_triangle_pairs(10)[:len(values)], np.asarray(values, dtype=float))
    return block, sample_discrete(block, budget, n_samples, np.random.default_rng(seed))


def test_sample_discrete_first_set_is_top_budget_rounding():
    block, sets = draw([0.2, 0.9, 0.0, 0.6, 0.9], budget=2)
    assert len(sets) == 7
    np.testing.assert_array_equal(sets[0], block.pairs[[1, 4]])


def test_sample_discrete_binary_values_deterministic():
    block, sets = draw([1.0, 0.0, 1.0, 0.0], budget=2)
    for flips in sets:  # exactly the two value-1 pairs
        np.testing.assert_array_equal(flips, block.pairs[[0, 2]])


def test_sample_discrete_all_zero_gives_empty():
    _, sets = draw([0.0, 0.0, 0.0], budget=2)
    assert all(flips.shape == (0, 2) for flips in sets)


def test_sample_discrete_never_exceeds_budget():
    rng = np.random.default_rng(6)
    for _ in range(20):
        block, sets = draw(rng.random(8) * 0.9, budget=3, seed=int(rng.integers(1e6)))
        for flips in sets:
            assert len(flips) <= 3
            assert np.isin(flips[:, 0] * 10 + flips[:, 1],
                           block.pairs[:, 0] * 10 + block.pairs[:, 1]).all()


# ---------------------------------------------------------------------------
# injection machinery


def test_nia_augment_shapes():
    g = make_graph([[0, 1], [1, 0]])
    cands = CandidateSet(features=np.ones((3, 3)), provenance=[(1, 0), (1, 1), (2, 0)])
    adj, feats, n0 = nia_augment(g, cands)
    assert adj.shape == (5, 5) and feats.shape == (5, 3) and n0 == 2
    np.testing.assert_array_equal(adj[:2, :2], g.adjacency)
    assert adj[2:].sum() == 0.0


def test_nia_augment_zero_candidates():
    g = make_graph([[0, 1], [1, 0]])
    adj, feats, n0 = nia_augment(g, CandidateSet(np.zeros((0, 3)), []))
    np.testing.assert_array_equal(adj, g.adjacency)


def test_nia_augment_dim_mismatch():
    g = make_graph([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="dim"):
        nia_augment(g, CandidateSet(np.ones((2, 7)), [(1, 0), (1, 1)]))


def submatrix(a, idx):
    """Reference op: the rows and columns ``idx`` of a square tensor, recorded
    with its own gradient closure."""
    out = Tensor(a.data[np.ix_(idx, idx)])
    if not ad._live(a):
        return out

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[np.ix_(idx, idx)] = g
        return ga

    return ad._record("submatrix", out, (a,), (vjp,))


def prune_disconnected(atilde, n_orig):
    """Reference kept set of a relaxed injection graph: node 0's component,
    found by a component search, as a differentiable submatrix."""
    comp = connected_components(atilde.data, EDGE_EPS)
    assert not comp[:n_orig].any(), "original graph is disconnected"
    kept = np.flatnonzero(comp == 0)
    if len(kept) == atilde.shape[0]:
        return atilde, kept
    return submatrix(atilde, kept), kept


def two_node_injection_run(n_candidates, constraint="none", **kw):
    from gtattack.attack.runner import AttackRun

    g = make_graph([[0, 1], [1, 0]], graph_label=0, **kw)
    cands = CandidateSet(np.ones((n_candidates, 3)), [(1, k) for k in range(n_candidates)])
    model = build_model("gcn", "graph", 3, 1, seed=0)
    return AttackRun(model, g, tree_config(constraint=constraint), cands)


def test_prune_reverts_augmentation_without_flips(monkeypatch):
    # zero values keep the original graph; the block's candidates stay as
    # isolated nodes of probability 0
    run = two_node_injection_run(3)
    block = BlockState(run.n_aug, run.allowed, np.zeros(len(run.allowed)))
    adj, kept, probs = relaxed_inputs(run, block, block.values, monkeypatch)
    np.testing.assert_array_equal(adj, run.base_adj)
    np.testing.assert_array_equal(kept, [0, 1, 2, 3, 4])
    np.testing.assert_array_equal(probs, [1, 1, 0, 0, 0])


def test_prune_keeps_attached_candidate(monkeypatch):
    # every candidate of the block is a node, whatever its values
    run = two_node_injection_run(2)
    block = BlockState(run.n_aug, [[0, 2], [1, 3]], [0.3, EDGE_EPS])
    adj, kept, _ = relaxed_inputs(run, block, block.values, monkeypatch)
    assert list(kept) == [0, 1, 2, 3]
    assert adj.shape == (4, 4) and adj[0, 2] == 0.3 and adj[1, 3] == EDGE_EPS


def test_prune_drops_candidate_only_pairs():
    # candidates join the graph only through original nodes: no constraint
    # samples a pair of two candidates, and scoring rejects one
    for constraint in ("none", "protect_labeled", "tree_only"):
        run = two_node_injection_run(2, constraint, labeled_mask=[False, False])
        assert run.allowed.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]
        with pytest.raises(ValueError, match="join an original node"):
            run.evaluate_discrete([np.array([[2, 3]])])


def test_prune_gradient_reaches_zero_valued_candidate():
    # candidate 3, joined only at value 0, is a node of probability 0 whose
    # pair still gets a gradient
    run = two_node_injection_run(2)
    block = BlockState(run.n_aug, [[0, 2], [1, 3]], [0.4, 0.0])
    values = Tensor(block.values, requires_grad=True)
    with ad.Tape():
        g = backward(run.objective(block)(values))[values].data
    assert g[0] != 0.0 and g[1] != 0.0


def test_candidate_set_excludes_attacked_graph_and_roots():
    ds = make_tree_dataset(seed=0, n_train=4, n_val=1, n_test=1, n_nodes_range=(4, 6))
    cs = build_candidate_set(ds, attacked_graph_id=2, exclude_roots=True)
    assert all(gi != 2 for gi, _ in cs.provenance)
    assert all(ni != 0 for _, ni in cs.provenance)


def test_candidate_set_subsample_deterministic():
    ds = make_tree_dataset(seed=0, n_train=4, n_val=1, n_test=1, n_nodes_range=(4, 6))
    a = build_candidate_set(ds, 0, max_candidates=5, seed=3)
    b = build_candidate_set(ds, 0, max_candidates=5, seed=3)
    assert a.provenance == b.provenance


# ---------------------------------------------------------------------------
# node probability


def node_prob_oracle(a, iters):
    """Independent literal implementation of the recurrence."""
    n = a.shape[0]
    p = np.ones(n)
    for _ in range(iters):
        nxt = np.zeros(n)
        for i in range(n):
            prod = 1.0
            for j in range(n):
                prod *= 1.0 - a[i, j] * p[j]
            nxt[i] = 1.0 - prod
        p = nxt
    return p


def test_node_probability_discrete_connected_stays_one():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    for t in (1, 2, 5):
        np.testing.assert_array_equal(node_probability(Tensor(a), t).data, np.ones(3))


def test_node_probability_single_weak_edge():
    a = np.array([[0, 0.5], [0.5, 0]])
    p = node_probability(Tensor(a), 1).data
    np.testing.assert_allclose(p, [0.5, 0.5])


def test_node_probability_chain_hand_values():
    # discrete 2-node core pins itself at 1; b attaches at 0.5, c at 0.8
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 0.5
    a[2, 3] = a[3, 2] = 0.8
    p = node_probability(Tensor(a), 2).data
    assert p[2] == pytest.approx(0.82)
    assert p[3] == pytest.approx(0.72)


def test_node_probability_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), k=1)
        a = a + a.T
        for t in (1, 3):
            got = node_probability(Tensor(a), t).data
            np.testing.assert_allclose(got, node_prob_oracle(a, t), atol=1e-12)
            assert np.all(got >= 0.0) and np.all(got <= 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_node_probability_monotone_in_edge_weight(seed):
    rng = np.random.default_rng(seed)
    n = 5
    a = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), k=1)
    a = a + a.T
    base = node_probability(Tensor(a), 3).data
    i, j = 0, 1
    bumped = a.copy()
    bumped[i, j] = bumped[j, i] = min(1.0, a[i, j] + 0.3)
    after = node_probability(Tensor(bumped), 3).data
    assert np.all(after >= base - 1e-12)


def test_node_probability_gradient_flows():
    a = Tensor(np.array([[0, 0.5], [0.5, 0]]), requires_grad=True)
    p = node_probability(a, 1)
    g = backward(ad.tsum(p))[a].data
    assert g[0, 1] == pytest.approx(1.0)  # d(1 - (1 - a))/da


# ---------------------------------------------------------------------------
# maximum spanning tree projection


def spanning_tree_oracle(w):
    """Brute-force best spanning tree by weight (n <= 7)."""
    import itertools

    n = w.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if w[i, j] > 0]
    best, best_w = None, -np.inf
    for combo in itertools.combinations(edges, n - 1):
        adj = np.zeros((n, n))
        for i, j in combo:
            adj[i, j] = adj[j, i] = 1.0
        from gtattack.graphs import is_connected

        if not is_connected(adj):
            continue
        total = sum(w[i, j] for i, j in combo)
        if total > best_w:
            best_w, best = total, adj
    return best, best_w


def random_tree(rng, n):
    """A random tree whose node numbers are shuffled, so that a parent need
    not precede its child."""
    a = np.zeros((n, n))
    perm = rng.permutation(n)
    for k in range(1, n):
        parent, child = perm[rng.integers(0, k)], perm[k]
        a[parent, child] = a[child, parent] = 1.0
    return a


def test_mst_returns_discrete_tree_unchanged():
    # one flip per candidate already gives a tree
    flips = np.array([[0, 6], [2, 7], [5, 8]])
    np.testing.assert_array_equal(mst_projection(flips, np.array([0.2, 1.0, 0.7]), 6), flips)
    assert mst_projection(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 6).shape == (0, 2)


def test_mst_triangle_drops_weakest():
    # candidate 2 flipped to both ends of the edge (0, 1): the cycle loses its
    # weakest edge, and ties go to the lowest original endpoint
    flips = np.array([[0, 2], [1, 2]])
    np.testing.assert_array_equal(mst_projection(flips, np.array([0.1, 0.8]), 2), [[1, 2]])
    np.testing.assert_array_equal(mst_projection(flips, np.array([1.0, 1.0]), 2), [[0, 2]])


def test_mst_tie_rule_ignores_input_order():
    # equal weights keep the lowest original endpoint, wherever it comes in
    # the flip set; unequal ones keep the heaviest flip
    flips = np.array([[3, 5], [1, 5], [2, 6], [0, 5]])
    np.testing.assert_array_equal(mst_projection(flips, np.array([0.5, 0.5, 0.2, 0.5]), 4),
                                  [[2, 6], [0, 5]])
    np.testing.assert_array_equal(mst_projection(flips, np.array([0.5, 0.9, 0.2, 0.5]), 4),
                                  [[1, 5], [2, 6]])


def test_mst_edge_count():
    # every original node flipped to every candidate: the projection keeps one
    # flip per candidate, so with the original edges the tree has n - 1 edges
    rng = np.random.default_rng(8)
    for _ in range(10):
        n_orig, n_inj = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        n = n_orig + n_inj
        flips = np.array([(i, j) for i in range(n_orig) for j in range(n_orig, n)])
        kept = mst_projection(flips, rng.uniform(0.1, 1.0, len(flips)), n_orig)
        out = np.zeros((n, n))
        out[:n_orig, :n_orig] = random_tree(rng, n_orig)
        out[kept[:, 0], kept[:, 1]] = out[kept[:, 1], kept[:, 0]] = 1.0
        assert np.count_nonzero(np.triu(out, 1)) == n - 1
        assert is_tree(out)


def test_mst_matches_bruteforce_weight():
    # trees of any node numbering, random candidate flips, ties at 1.0
    rng = np.random.default_rng(9)
    for _ in range(60):
        n_orig, n_inj = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        n = n_orig + n_inj
        tree = random_tree(rng, n_orig)
        pairs = np.array([(i, j) for i in range(n_orig) for j in range(n_orig, n)])
        flips = pairs[np.sort(rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)),
                                         replace=False))]
        weights = np.where(rng.random(len(flips)) < 0.5, 1.0, rng.uniform(0.05, 1.0, len(flips)))
        kept = mst_projection(flips, weights, n_orig)
        # each flipped candidate keeps one flip, and with every original edge
        # they form a tree of maximum weight
        assert sorted(kept[:, 1].tolist()) == sorted(set(flips[:, 1].tolist()))
        w = np.zeros((n, n))
        w[:n_orig, :n_orig] = tree
        w[flips[:, 0], flips[:, 1]] = w[flips[:, 1], flips[:, 0]] = weights
        present = np.r_[np.arange(n_orig), np.unique(flips[:, 1])]
        w = w[np.ix_(present, present)]
        projected = np.zeros((n, n))
        projected[:n_orig, :n_orig] = tree
        projected[kept[:, 0], kept[:, 1]] = projected[kept[:, 1], kept[:, 0]] = 1.0
        assert is_tree(projected[np.ix_(present, present)])
        _, best_w = spanning_tree_oracle(w)
        key = {tuple(f): v for f, v in zip(flips.tolist(), weights)}
        got_w = n_orig - 1 + sum(key[tuple(f)] for f in kept.tolist())
        assert got_w == pytest.approx(best_w, abs=1e-12)


def test_mst_keeps_original_edges_of_any_numbering(tree_setup):
    # on the path 0-2-3-1, a candidate flipped to both ends at value 1.0 ties
    # with the original edges; the projection keeps (2, 3) and the first flip
    from gtattack.attack.runner import AttackRun

    path = np.zeros((4, 4))
    for i, j in ((0, 2), (2, 3), (3, 1)):
        path[i, j] = path[j, i] = 1.0
    g = make_graph(path, d_feat=tree_setup[1].feature_dim)
    cands = CandidateSet(features=np.zeros((1, g.feature_dim)), provenance=[(1, 1)])
    run = AttackRun(tree_setup[4], g, tree_config(budget_fraction=0.5), cands)
    adj, _, eff = run._discrete_graph(np.array([[0, 4], [1, 4]]), None)
    assert eff.tolist() == [[0, 4]]
    want = np.zeros((5, 5))
    want[:4, :4] = path
    want[0, 4] = want[4, 0] = 1.0
    np.testing.assert_array_equal(adj, want)


def test_mst_rejects_flips_off_tree_to_candidate():
    for flip in ([0, 1], [4, 5], [4, 1]):  # inside the tree, between candidates, reversed
        with pytest.raises(ValueError, match="original node to an injected one"):
            mst_projection(np.array([[0, 4], flip]), np.ones(2), 4)


def test_tree_only_needs_a_tree(tree_setup):
    from gtattack.attack.runner import AttackRun
    from gtattack.paths import EDGE_EPS

    d, model, cands = tree_setup[1].feature_dim, tree_setup[4], tree_setup[3]
    cycle = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(ValueError, match="requires a tree"):
        AttackRun(model, make_graph(cycle, d_feat=d), tree_config(), cands)
    # disconnected graphs, with n - 2 edges or (triangle plus a lone node) n - 1
    split = np.zeros((4, 4))
    split[0, 1] = split[1, 0] = split[2, 3] = split[3, 2] = 1.0
    lone = np.zeros((4, 4))
    lone[:3, :3] = cycle
    for adj in (split, lone):
        for constraint in ("tree_only", "none"):
            with pytest.raises(ValueError, match="require a connected original graph"):
                AttackRun(model, make_graph(adj, d_feat=d), tree_config(constraint=constraint),
                          cands)
    # an extra entry in (0, EDGE_EPS] is no edge, so a tree with one is still a tree
    path = np.zeros((4, 4))
    for i in range(3):
        path[i, i + 1] = path[i + 1, i] = 1.0
    for tiny in (EDGE_EPS / 10, EDGE_EPS):
        adj = path.copy()
        adj[0, 3] = adj[3, 0] = tiny
        assert is_tree(adj)
        run = AttackRun(model, make_graph(adj, d_feat=d), tree_config(), cands)
        assert run.n_orig == 4


# ---------------------------------------------------------------------------
# constraints


def test_protect_labeled_excludes_incident_pairs():
    ds = make_cluster_dataset(seed=1, n_train=1, n_val=0, n_test=0,
                              nodes_per_cluster_range=(4, 5))
    g = ds.graphs[0]
    allowed = {tuple(p) for p in allowed_pairs(g, AttackConfig(constraint="protect_labeled"))
               .tolist()}
    pairs = upper_triangle_pairs(g.n).tolist()
    labeled = set(np.flatnonzero(g.labeled_mask))
    for i, j in pairs:
        assert ((i, j) in allowed) == (i not in labeled and j not in labeled)
    # count: every pair touching one of the 6 labeled nodes is excluded
    n, L = g.n, len(labeled)
    expected_excluded = L * (n - 1) - L * (L - 1) // 2
    assert len(pairs) - len(allowed) == expected_excluded


def test_protect_labeled_injection_masks_original_endpoints():
    # only original nodes carry labels: candidates stay samplable next to
    # unlabeled original nodes, and pairs touching a labeled one are excluded
    g = make_graph(np.zeros((4, 4)), labeled_mask=[True, False, False, True])
    cfg = AttackConfig(mode="injection", constraint="protect_labeled")
    want = [(i, j) for i in (1, 2) for j in range(4, 7)]
    assert [tuple(p) for p in allowed_pairs(g, cfg, n_aug=7).tolist()] == want
    with pytest.raises(ValueError, match="n_aug"):
        allowed_pairs(g, cfg)


def test_protect_labeled_requires_mask():
    g = make_graph(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="labeled_mask"):
        allowed_pairs(g, AttackConfig(constraint="protect_labeled"))


def test_tree_only_forbids_original_block():
    g = make_graph([[0, 1], [1, 0]])
    cfg = AttackConfig(mode="injection", constraint="tree_only")
    allowed = {tuple(p) for p in allowed_pairs(g, cfg, n_aug=5).tolist()}
    for i, j in upper_triangle_pairs(5).tolist():
        in_b = i < 2 and j < 2
        in_f = i >= 2 and j >= 2
        assert ((i, j) in allowed) == (not in_b and not in_f)
    with pytest.raises(ValueError, match="n_aug"):
        allowed_pairs(g, cfg)


def test_constraint_none_allows_everything():
    g = make_graph(np.zeros((4, 4)))
    np.testing.assert_array_equal(allowed_pairs(g, AttackConfig()), upper_triangle_pairs(4))
    # injection samples only pairs of an original node and a candidate (the
    # E block), row-major: never two original nodes (B) or two candidates (F)
    injection = allowed_pairs(g, AttackConfig(mode="injection"), n_aug=6)
    np.testing.assert_array_equal(injection, [[i, j] for i in range(4) for j in (4, 5)])
    with pytest.raises(ValueError, match="n_aug"):
        allowed_pairs(g, AttackConfig(mode="injection"))


# ---------------------------------------------------------------------------
# full runs


@pytest.fixture(scope="module")
def cluster_setup():
    ds = make_cluster_dataset(seed=11, n_train=2, n_val=1, n_test=2,
                              nodes_per_cluster_range=(5, 6))
    g = ds.part("test")[0]
    model = build_model("gcn", "node", g.feature_dim, 6, seed=0)
    return ds, g, model


def quick_config(**kw):
    base = dict(budget_fraction=0.05, steps=10, block_size=300, n_discrete_samples=4,
                base_lr=500.0, seed=0)
    base.update(kw)
    return AttackConfig(**base)


def test_run_attack_zero_budget_is_clean(cluster_setup):
    _, g, model = cluster_setup
    res = run_attack(model, g, quick_config(budget_fraction=1e-6))
    assert res.budget == 0
    assert res.flips == []
    assert res.attacked_metric == res.clean_metric


def test_run_attack_respects_budget_and_symmetric_pairs(cluster_setup):
    _, g, model = cluster_setup
    res = run_attack(model, g, quick_config())
    assert len(res.flips) <= res.budget
    for i, j in res.flips:
        assert i < j


def test_run_attack_deterministic(cluster_setup):
    _, g, model = cluster_setup
    r1 = run_attack(model, g, quick_config(seed=5))
    r2 = run_attack(model, g, quick_config(seed=5))
    assert r1.to_doc() == r2.to_doc()


def test_random_baseline_matches_eval_budget(cluster_setup):
    _, g, model = cluster_setup
    cfg = quick_config()
    res = random_baseline(model, g, cfg)
    assert len(res.flips) <= res.budget
    assert res.attacked_metric <= res.clean_metric + 1e-9


def test_random_baseline_respects_protect_labeled(cluster_setup):
    _, g, model = cluster_setup
    cfg = quick_config(constraint="protect_labeled")
    res = random_baseline(model, g, cfg)
    labeled = set(np.flatnonzero(g.labeled_mask))
    for i, j in res.flips:
        assert i not in labeled and j not in labeled


def test_strongest_keeps_first_of_equal_lowest_losses(cluster_setup, monkeypatch):
    from gtattack.attack.runner import AttackRun

    _, g, model = cluster_setup
    # clean graph, 1 + 2 adaptive samples, steps + 1 + 2 = 4 random picks
    scripted = [(0.5, 90.0, []),
                (0.3, 70.0, [[0, 1]]), (0.1, 60.0, [[0, 2]]), (0.1, 50.0, [[0, 3]]),
                (0.2, 40.0, [[0, 4]]), (0.0, 30.0, [[0, 5]]), (0.0, 20.0, [[0, 6]]),
                (0.4, 10.0, [[0, 7]])]
    seen = []

    def scripted_evaluate(run, flip_sets, blocks=None):
        seen.append(blocks)
        return scripted[: len(flip_sets)]

    monkeypatch.setattr(AttackRun, "evaluate_discrete", scripted_evaluate)
    adaptive, rand = run_cell(model, g, quick_config(steps=1, n_discrete_samples=2))
    # each kind keeps the first of its own lowest losses; the clean metric is shared
    assert (adaptive.clean_metric, adaptive.attacked_metric, adaptive.flips) == (90.0, 60.0,
                                                                                 [[0, 2]])
    assert (rand.clean_metric, rand.attacked_metric, rand.flips) == (90.0, 30.0, [[0, 5]])
    [blocks] = seen
    assert isinstance(blocks[1], BlockState) and blocks[1] is blocks[2] is blocks[3]
    assert blocks[:1] + blocks[4:] == [None] * 5  # clean graph and random picks
    # no flip sets: the clean metric twice and no flips
    for res in run_cell(model, g, quick_config(budget_fraction=1e-6)):
        assert (res.clean_metric, res.attacked_metric, res.flips) == (90.0, 90.0, [])


def test_san_spectral_reference_built_only_for_relaxed_objective(cluster_setup, tree_setup,
                                                                 monkeypatch):
    from gtattack.models import SpectralReference

    _, g, _ = cluster_setup
    model = build_model("san", "node", g.feature_dim, 6, seed=0)
    calls = []
    of = SpectralReference.of.__func__
    monkeypatch.setattr(SpectralReference, "of",
                        classmethod(lambda cls, a: calls.append(a.shape) or of(cls, a)))
    cfg = quick_config(steps=2)
    res = random_baseline(model, g, cfg)
    transfer_attack([res], model, [g])
    assert calls == []
    run_attack(model, g, cfg)
    assert calls == [g.adjacency.shape]  # structure mode: once per run
    # tree-only injection: once per kept node set, i.e. once per block (a
    # block small enough that each resample brings in other candidates)
    _, tree, gid, cands, _ = tree_setup
    model = build_model("san", "graph", tree.feature_dim, 1, seed=0)
    calls.clear()
    run_attack(model, tree, tree_config(steps=5, resample_every=2, block_size=12), cands, gid)
    assert len(calls) == 3
    assert all(tree.n < n < tree.n + cands.size for n, _ in calls)


def test_transfer_empty_perturbation_is_clean(cluster_setup):
    _, g, model = cluster_setup
    res = PerturbationResult(graph_id=0, budget=0, budget_fraction=0.01, flips=[],
                             clean_metric=0.0, attacked_metric=0.0, loss_trace=[],
                             seed=0, toggles={}, mode="structure", constraint="none")
    other = build_model("graphormer", "node", g.feature_dim, 6, seed=0,
                        hidden=8, max_spd=10)
    from gtattack.train import evaluate_accuracy

    assert transfer_attack([res], other, [g]) == [pytest.approx(evaluate_accuracy(other, [g]))]


def test_self_transfer_equals_adaptive(cluster_setup):
    _, g, model = cluster_setup
    res = run_attack(model, g, quick_config(seed=2))
    assert transfer_attack([res], model, [g]) == [pytest.approx(res.attacked_metric)]


@pytest.fixture(scope="module")
def tree_setup():
    ds = make_tree_dataset(seed=12, n_train=6, n_val=2, n_test=2, n_nodes_range=(7, 10))
    gid = ds.split["test"][0]
    g = ds.graphs[gid]
    cands = build_candidate_set(ds, gid, max_candidates=24, seed=gid)
    model = build_model("graphormer", "graph", g.feature_dim, 1, seed=0,
                        hidden=8, max_spd=10)
    return ds, g, gid, cands, model


def tree_config(**kw):
    base = dict(budget_fraction=0.3, steps=8, block_size=150, n_discrete_samples=4,
                loss_kind="raw_score", mode="injection", constraint="tree_only",
                base_lr=500.0, seed=0)
    base.update(kw)
    return AttackConfig(**base)


def test_injection_zero_flip_pipeline_is_clean(tree_setup):
    ds, g, gid, cands, model = tree_setup
    from gtattack.attack.runner import AttackRun

    run = AttackRun(model, g, tree_config(), cands)
    [(_, metric, eff)] = run.evaluate_discrete([np.zeros((0, 2), dtype=np.int64)])
    with ad.no_grad():
        direct = model.forward_discrete(g.adjacency, g.features).data
    from gtattack.train import score

    assert metric == score(direct, g.graph_label, "graph")
    assert eff == []


@pytest.mark.parametrize("stack_entries", [8192, 150])
def test_evaluate_discrete_batch_equals_single_calls(tree_setup, stack_entries, monkeypatch):
    from gtattack import train
    from gtattack.attack.runner import AttackRun

    ds, g, gid, cands, model = tree_setup
    monkeypatch.setattr(train, "EVAL_STACK_ENTRIES", stack_entries)
    run = AttackRun(model, g, tree_config(), cands)
    rng = np.random.default_rng(3)
    flip_sets = [np.zeros((0, 2), dtype=np.int64)] + [
        run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))]
        for k in (1, 2, 3, 3, 2, 1, 3, 3)
    ]
    block = BlockState(run.n_aug, run.allowed, np.full(len(run.allowed), 0.5))
    together = run.evaluate_discrete(flip_sets, [block] * len(flip_sets))
    alone = [run.evaluate_discrete([f], [block])[0] for f in flip_sets]
    assert together == alone
    assert len({g.n + len(eff) for _, _, eff in together}) >= 3  # mixed node counts


def assert_scores_equal_per_graph_calls(model, items, scored):
    """Each (loss, metric, flips) of ``scored`` equals ``attack_loss`` and
    ``train.score`` of its (run, flips, block) item's graph alone, bit for bit."""
    from gtattack import train

    for (run, flips, block), (loss, metric, eff) in zip(items, scored, strict=True):
        adj, feats, want_eff = run._discrete_graph(np.asarray(flips).reshape(-1, 2), block)
        with ad.no_grad():
            logits = model.forward_discrete(adj, feats).data[: run.n_orig]
        want = attack_loss(Tensor(logits), run.labels, run.config.loss_kind, model.task).item()
        assert loss == want and type(loss) is float
        assert metric == float(train.score(logits, run.labels, model.task))
        assert eff == want_eff.tolist()


def test_scoring_equals_per_graph_calls_tree_raw_score(tree_setup):
    from gtattack.attack.runner import AttackRun

    ds, g, gid, cands, model = tree_setup
    run = AttackRun(model, g, tree_config(), cands)
    rng = np.random.default_rng(4)
    block = BlockState(run.n_aug, run.allowed, rng.random(len(run.allowed)))
    flip_sets = [np.zeros((0, 2), dtype=np.int64)] + [
        run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))]
        for k in (1, 3, 2, 3, 1, 3)
    ]
    scored = run.evaluate_discrete(flip_sets, [block] * len(flip_sets))
    assert len({g.n + len(eff) for _, _, eff in scored}) >= 3  # mixed node counts
    assert_scores_equal_per_graph_calls(model, [(run, f, block) for f in flip_sets], scored)


def test_scoring_equals_per_graph_calls_cluster_tanh_margin(cluster_setup):
    # items of three runs, interleaved as in transfer_attack: two on graphs
    # of one size but other labels, one on a smaller graph
    from gtattack.attack.runner import AttackRun, _score

    ds, _, model = cluster_setup
    graphs = [ds.graphs[i] for i in (1, 4, 2)]
    assert graphs[0].n == graphs[1].n > graphs[2].n
    assert not np.array_equal(graphs[0].node_labels, graphs[1].node_labels)
    runs = [AttackRun(model, gr, quick_config(budget_fraction=0.1)) for gr in graphs]
    rng = np.random.default_rng(6)
    items = [(run, run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))],
              None) for k in (0, 1, 2, 3) for run in runs]
    assert_scores_equal_per_graph_calls(model, items, _score(model, items))


def reference_discrete_graph(run, flips, value):
    """Per-flip loop form of ``AttackRun._discrete_graph`` in injection mode;
    ``value`` maps a flipped pair to its tree-projection weight.  Under
    ``tree_only`` each candidate keeps its first flip of highest value;
    flips come sorted, so that is the one of lowest original endpoint."""
    flips = [(int(i), int(j)) for i, j in flips]
    projected = False
    if run.config.constraint == "tree_only":
        best = {}
        for i, j in flips:
            if j not in best or value(i, j) > value(*best[j]):
                best[j] = (i, j)
        projected = len(best) < len(flips)
        flips = [f for f in flips if best[f[1]] == f]
    adj = run.base_adj.copy()
    for i, j in flips:
        adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
    comp = connected_components(adj)
    kept = np.flatnonzero(comp == comp[0])
    kept_flips = [(i, j) for i, j in flips if comp[0] in (comp[i], comp[j])]
    return adj[np.ix_(kept, kept)], kept_flips, projected


@pytest.mark.parametrize("constraint", ["tree_only", "none"])
def test_discrete_graph_equals_loop_reference(tree_setup, constraint):
    from gtattack.attack.runner import AttackRun

    ds, g, gid, cands, model = tree_setup
    run = AttackRun(model, g, tree_config(constraint=constraint), cands)
    rng = np.random.default_rng(5)
    block = BlockState(run.n_aug, run.allowed, rng.random(len(run.allowed)))
    lookup = {tuple(p): v for p, v in zip(block.pairs.tolist(), block.values)}
    projected = dropped = 0
    for k in (0, 1, 2, 3, 4, 6, 6, 8) * 4:
        flips = run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))]
        for blk, value in ((block, lambda i, j: lookup[(i, j)]), (None, lambda i, j: 1.0)):
            adj, _, eff = run._discrete_graph(flips, blk)
            want_adj, want_eff, was_projected = reference_discrete_graph(run, flips, value)
            assert np.array_equal(adj, want_adj)
            assert eff.tolist() == [list(f) for f in want_eff]
            projected += was_projected
            dropped += not was_projected and len(eff) < len(flips)
    # tree-only samples that are not trees go through the projection; with
    # no constraint every flip joins the graph, so none is dropped
    assert projected if constraint == "tree_only" else not dropped
    with pytest.raises(ValueError, match="join an original node"):
        run._discrete_graph(np.array([[0, 1]]), None)


def augmented_discrete_graph(run, flips, block):
    """``AttackRun._discrete_graph`` in injection mode built on a copy of
    the whole augmented matrix: project, flip, keep node 0's component and
    the flips with an end in it."""
    if run.config.constraint == "tree_only":
        weights = np.ones(len(flips)) if block is None else block.value_of(flips)
        flips = mst_projection(flips, weights, run.n_orig)
    adj = run.base_adj.copy()
    i, j = flips.T
    adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
    comp = connected_components(adj)
    kept = np.flatnonzero(comp == comp[0])
    kept_flips = flips[(comp[flips] == comp[0]).any(axis=1)]
    return adj[np.ix_(kept, kept)], run.base_feats[kept], kept_flips


@pytest.mark.parametrize("constraint", ["tree_only", "none"])
def test_discrete_graph_equals_augmented_copy(tree_setup, constraint):
    from gtattack.attack.runner import AttackRun

    ds, g, gid, cands, model = tree_setup
    run = AttackRun(model, g, tree_config(constraint=constraint), cands)
    n, c = run.n_orig, run.n_orig + np.arange(3)
    rng = np.random.default_rng(7)
    block = BlockState(run.n_aug, run.allowed, rng.random(len(run.allowed)))
    many_to_one = [[0, c[0]], [1, c[0]], [n - 1, c[0]], [2, c[1]]]
    cases = [np.zeros((0, 2), dtype=np.int64), np.array(many_to_one)] + [
        run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))]
        for k in (1, 2, 3, 5, 8) * 6
    ]
    for flips in cases:
        for blk in (block, None):
            got = run._discrete_graph(flips, blk)
            want = augmented_discrete_graph(run, flips, blk)
            for x, y in zip(got, want, strict=True):
                assert x.shape == y.shape and np.array_equal(x, y)
            if constraint == "none":
                assert np.array_equal(got[2], flips)  # no flip is dropped
    # a flip inside the original graph raises, alone or among joining flips
    for flips in ([[0, 1]], [[0, c[0]], [1, 2]]):
        with pytest.raises(ValueError, match="join an original node"):
            run._discrete_graph(np.array(flips), None)


@pytest.mark.parametrize("constraint", ["tree_only", "none"])
def test_stored_flips_rebuild_scored_graph(tree_setup, constraint):
    # the effective flips of every scored set, and of every result of a cell,
    # rebuild the graph that was scored: same adjacency, features and metric
    from gtattack.attack.runner import AttackRun

    ds, _, _, _, model = tree_setup
    for gid in ds.split["val"] + ds.split["test"]:
        g = ds.graphs[gid]
        cands = build_candidate_set(ds, gid, max_candidates=24, seed=gid)
        cfg = tree_config(constraint=constraint, budget_fraction=0.5, steps=3)
        run = AttackRun(model, g, cfg, cands)
        rng = np.random.default_rng(gid)
        block = BlockState(run.n_aug, run.allowed, rng.random(len(run.allowed)))
        flip_sets = [run.allowed[np.sort(rng.choice(len(run.allowed), size=k, replace=False))]
                     for k in (1, 2, 3, 4) * 5]
        scored = run.evaluate_discrete(flip_sets, [block] * len(flip_sets))
        replayed = run.evaluate_discrete([eff for _, _, eff in scored])
        assert replayed == scored
        for flips, (_, _, eff) in zip(flip_sets, scored):
            adj, feats, _ = run._discrete_graph(flips, block)
            again, feats_again, eff_again = run._discrete_graph(np.array(eff).reshape(-1, 2),
                                                                None)
            assert np.array_equal(adj, again) and np.array_equal(feats, feats_again)
            assert eff_again.tolist() == eff
            assert len(adj) == g.n + len({j for _, j in eff})  # every original node kept
            if constraint == "none":
                assert eff == flips.tolist()
        results = run_cell(model, g, cfg, cands, gid)
        assert transfer_attack(results, model, ds.graphs, {gid: cands}) == [
            res.attacked_metric for res in results]


@pytest.mark.parametrize("stack_entries", [8192, 150])
def test_evaluate_accuracy_stacked_equals_per_graph_forward(tree_setup, stack_entries,
                                                            monkeypatch):
    from gtattack import train

    ds, _, _, _, model = tree_setup
    monkeypatch.setattr(train, "EVAL_STACK_ENTRIES", stack_entries)
    assert len({g.n for g in ds.graphs}) >= 3  # mixed node counts
    with ad.no_grad():
        alone = [model.forward_discrete(g.adjacency, g.features).data for g in ds.graphs]
    together = train.discrete_logits(model, ((g.adjacency, g.features) for g in ds.graphs))
    for a, b in zip(together, alone, strict=True):
        assert np.array_equal(a, b)
    scores = [train.score(out, g.graph_label, "graph")
              for out, g in zip(alone, ds.graphs)]
    assert train.evaluate_accuracy(model, ds.graphs) == np.mean(scores)


def test_injection_emits_valid_trees(tree_setup):
    ds, g, gid, cands, model = tree_setup
    res = run_attack(model, g, tree_config(), candidates=cands, graph_id=gid)
    assert len(res.flips) <= res.budget
    # rebuild the emitted graph and check it is a tree containing the original
    adj, _, n0 = nia_augment(g, cands)
    for i, j in res.flips:
        adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
        assert not (i < n0 and j < n0), "tree_only must not touch original edges"
    comp = connected_components(adj)
    kept = np.flatnonzero(comp == comp[0])
    sub = adj[np.ix_(kept, kept)]
    assert is_tree(sub)


def test_injection_attack_deterministic(tree_setup):
    ds, g, gid, cands, model = tree_setup
    r1 = run_attack(model, g, tree_config(seed=9), candidates=cands, graph_id=gid)
    r2 = run_attack(model, g, tree_config(seed=9), candidates=cands, graph_id=gid)
    assert r1.to_doc() == r2.to_doc()


def test_injection_random_baseline_valid(tree_setup):
    ds, g, gid, cands, model = tree_setup
    res = random_baseline(model, g, tree_config(seed=4), candidates=cands, graph_id=gid)
    assert len(res.flips) <= res.budget
    for i, j in res.flips:
        assert j >= g.n or i >= g.n  # E/F regions only


@pytest.mark.parametrize("mode", ["structure", "injection"])
@pytest.mark.parametrize("arch", ["gcn", "grit", "graphormer", "san"])
def test_run_cell_equals_single_kind_calls(cluster_setup, tree_setup, arch, mode):
    if mode == "structure":
        _, g, _ = cluster_setup
        gid, cands, cfg = 0, None, quick_config(steps=3, seed=1)
        model = build_model(arch, "node", g.feature_dim, 6, seed=0)
    else:
        _, g, gid, cands, _ = tree_setup
        cfg = tree_config(steps=3, seed=1)
        model = build_model(arch, "graph", g.feature_dim, 1, seed=0)
    alone = [run_attack(model, g, cfg, cands, gid), random_baseline(model, g, cfg, cands, gid)]
    together = run_cell(model, g, cfg, cands, gid, ("adaptive", "random"))
    assert [r.to_doc() for r in together] == [r.to_doc() for r in alone]
    reversed_kinds = run_cell(model, g, cfg, cands, gid, ("random", "adaptive"))
    assert [r.to_doc() for r in reversed_kinds] == [r.to_doc() for r in alone[::-1]]


def per_step_adaptive_draws(run):
    """Reference PRBCD loop: a new objective closure, a new BlockState and,
    in injection mode, a new SAN SpectralReference on every step."""
    from gtattack.attack.runner import BLOCK_KEEP_EPS
    from gtattack.graphs import apply_flips
    from gtattack.models import SpectralReference

    config, model, toggles = run.config, run.model, run.config.toggles
    lap_pert = model.arch == "san" and toggles.san_lap_pert
    structure_ref = SpectralReference.of(run.base_adj) if lap_pert else None

    def objective(block):
        def fn(values):
            atilde = apply_flips(run.base_adj, block.pairs, values)
            if config.mode == "structure":
                kw = {"spectral_ref": structure_ref} if lap_pert else {}
                logits = model.forward(atilde, run.base_feats, toggles, **kw)
                return attack_loss(logits, run.labels, config.loss_kind, model.task)
            sub, kept = prune_disconnected(atilde, run.n_orig)
            kw = {"node_probs": node_probability(sub)}
            if lap_pert:
                kw["spectral_ref"] = SpectralReference.of(run.base_adj[np.ix_(kept, kept)])
            logits = model.forward(sub, run.base_feats[kept], toggles, **kw)
            return attack_loss(logits, run.labels, config.loss_kind, model.task)

        return fn

    def step(objective, block):
        values = Tensor(block.values.copy(), requires_grad=True)
        with ad.Tape():
            loss = objective(values)
            g = backward(loss).get(values)
        grad = np.zeros_like(block.values) if g is None else g.data
        values = project_budget(block.values - run.lr * grad, run.delta)
        return BlockState(block.n, block.pairs, values), -loss.item()

    rng = np.random.default_rng(config.seed)
    fresh = BLOCK_KEEP_EPS if config.mode == "injection" else 0.0
    block = init_block(run.n_aug, run.allowed, run.block_size, rng, fresh_value=fresh)
    trace = []
    for k in range(config.steps):
        block, value = step(objective(block), block)
        block.values = np.maximum(block.values, fresh)
        trace.append(value)
        if (k + 1) % config.resample_every == 0 and k < config.steps - 1:
            block = resample_block(block, 0.5, rng, run.allowed, fresh_value=fresh)
    return sample_discrete(block, run.delta, config.n_discrete_samples, rng), block, trace


@pytest.mark.parametrize("mode", ["structure", "injection", "injection_none"])
@pytest.mark.parametrize("arch", ["gcn", "grit", "graphormer", "san"])
def test_adaptive_run_equals_per_step_reference(cluster_setup, tree_setup, arch, mode,
                                                monkeypatch):
    from gtattack.attack import runner

    # 6 steps, resampled after steps 2 and 4
    if mode == "structure":
        _, g, _ = cluster_setup
        gid, cands, cfg = 0, None, quick_config(steps=6, resample_every=2, seed=1)
        model = build_model(arch, "node", g.feature_dim, 6, seed=0)
    else:
        _, g, gid, cands, _ = tree_setup
        constraint = "tree_only" if mode == "injection" else "none"
        cfg = tree_config(steps=6, resample_every=2, block_size=12, constraint=constraint,
                          seed=1)
        model = build_model(arch, "graph", g.feature_dim, 1, seed=0)
    got = run_attack(model, g, cfg, cands, gid)
    monkeypatch.setitem(runner._DRAWS, "adaptive", per_step_adaptive_draws)
    want = run_attack(model, g, cfg, cands, gid)
    assert got.to_doc() == want.to_doc()
    assert len(set(got.loss_trace)) > 1


def relaxed_inputs(run, block, values, monkeypatch):
    """Adjacency, kept nodes and node probabilities that ``run``'s relaxed
    objective for ``block`` hands the model at ``values``.  The run's
    features are replaced by node numbers, so the kept nodes can be read
    off the features the model receives."""
    seen = {}
    forward = run.model.forward

    def spy(atilde, feats, toggles, **kw):
        seen.update(adj=atilde.data.copy(), kept=feats[:, 0].astype(np.int64),
                    probs=kw["node_probs"].data.copy())
        return forward(atilde, feats, toggles, **kw)

    monkeypatch.setattr(run.model, "forward", spy)
    d = run.base_feats.shape[1]
    run.base_feats = np.repeat(np.arange(run.n_aug, dtype=float)[:, None], d, axis=1)
    run.objective(block)(Tensor(values))
    return seen["adj"], seen["kept"], seen["probs"]


def pruned_reference(run, block, values):
    sub, kept = prune_disconnected(apply_flips(run.base_adj, block.pairs, values), run.n_orig)
    return sub.data, kept, node_probability(sub).data


@pytest.mark.parametrize("constraint", ["tree_only", "none"])
def test_relaxed_kept_set_equals_prune_disconnected(tree_setup, constraint, monkeypatch):
    # injection blocks take their nodes from the block's pairs: the original
    # nodes, then every candidate of the block.  Where every value is above
    # EDGE_EPS (as in every run, above BLOCK_KEEP_EPS), that is bit for bit
    # what the reference component search keeps; a candidate joined only at
    # or below EDGE_EPS stays as a node of small or zero probability
    from gtattack.attack import runner

    ds, g, gid, cands, _ = tree_setup
    model = build_model("gcn", "graph", g.feature_dim, 1, seed=0)
    run = runner.AttackRun(model, g, tree_config(constraint=constraint), cands)
    n, rng = run.n_orig, np.random.default_rng(11)
    levels = np.array([0.0, EDGE_EPS / 2, EDGE_EPS, np.nextafter(EDGE_EPS, 1.0), 1e-7, 0.4, 1.0])
    blocks = [BlockState(run.n_aug, pairs, levels[rng.integers(0, len(levels), len(pairs))])
              for pairs in (run.allowed[np.sort(rng.choice(len(run.allowed), size=k,
                                                           replace=False))]
                            for k in (1, 5, 20, 60) * 3)]
    # every candidate joined, every value above EDGE_EPS
    every = np.array([[int(rng.integers(0, n)), j] for j in range(n, run.n_aug)])
    blocks.append(BlockState(run.n_aug, every, levels[rng.integers(3, len(levels), len(every))]))
    sizes, searched, low = set(), 0, 0
    for block in blocks:
        nodes = np.union1d(np.arange(n), block.pairs[:, 1])
        full = apply_flips(run.base_adj, block.pairs, Tensor(block.values))
        sub = full.data[np.ix_(nodes, nodes)]
        got = relaxed_inputs(run, block, block.values, monkeypatch)
        for x, y in zip(got, (sub, nodes, node_probability(Tensor(sub)).data), strict=True):
            assert x.shape == y.shape and np.array_equal(x, y)
        if (block.values > EDGE_EPS).all():
            searched += 1
            for x, y in zip(got, pruned_reference(run, block, Tensor(block.values)), strict=True):
                assert x.shape == y.shape and np.array_equal(x, y)
        # the reference search drops a candidate joined only at 0 or at
        # EDGE_EPS / 2; the block keeps it, with probability 1 - (1 - value)^k
        # for its k pairs
        for row, j in enumerate(nodes[n:], start=n):
            values = block.values[block.pairs[:, 1] == j]
            for level in (0.0, EDGE_EPS / 2):
                if (values == level).all():
                    low += 1
                    want = 1.0 - (1.0 - level) ** len(values)
                    assert got[2][row] == pytest.approx(want, rel=1e-6, abs=0.0)
        sizes.add(len(nodes))
    assert searched > 1 and low and run.n_aug in sizes and len(sizes) > 2


def test_relaxed_nodes_do_not_depend_on_block_values(tree_setup, monkeypatch):
    # one block: the same nodes (read off the node-numbered features the
    # model receives) and adjacency shape at every value
    from gtattack.attack import runner

    ds, g, gid, cands, _ = tree_setup
    model = build_model("gcn", "graph", g.feature_dim, 1, seed=0)
    run = runner.AttackRun(model, g, tree_config(constraint="none"), cands)
    rng = np.random.default_rng(4)
    pairs = run.allowed[np.sort(rng.choice(len(run.allowed), size=20, replace=False))]
    block = BlockState(run.n_aug, pairs, np.zeros(len(pairs)))
    seen = []
    for value in (0.0, EDGE_EPS / 2, 1e-7, 0.4):
        adj, kept, _ = relaxed_inputs(run, block, np.full(len(pairs), value), monkeypatch)
        seen.append((kept.tolist(), adj.shape))
    want = np.union1d(np.arange(run.n_orig), pairs[:, 1])
    assert len(want) > run.n_orig
    assert seen == [(want.tolist(), (len(want), len(want)))] * 4


@pytest.mark.parametrize("arch", ["gcn", "grit", "graphormer", "san"])
@pytest.mark.parametrize("constraint", ["tree_only", "none"])
def test_injection_cell_searches_no_components(tree_setup, constraint, arch, monkeypatch):
    # set-up checks once that the original graph is connected (under
    # tree_only, through is_tree); no relaxed step and no scored flip set
    # searches components
    import sys

    from gtattack import graphs

    calls = []
    search = graphs.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gtattack") and getattr(module, "connected_components", None) is search:
            monkeypatch.setattr(module, "connected_components", counted)
    ds, g, gid, cands, _ = tree_setup
    model = build_model(arch, "graph", g.feature_dim, 1, seed=0)
    cfg = tree_config(steps=4, resample_every=2, block_size=20, constraint=constraint, seed=2)
    results = run_cell(model, g, cfg, cands, gid)
    assert calls == [1]
    assert [r.attack_kind for r in results] == ["adaptive", "random"]
    assert all(r.flips for r in results)


def test_injection_without_constraint_never_cuts_the_tree():
    # without a constraint, injection flips only tree-to-candidate pairs, so
    # no step can weaken a tree edge; on this cell, blocks holding pairs
    # inside the tree cut it apart and the run raised ValueError
    import warnings

    from gtattack.train import TrainConfig, train_model

    ds = make_tree_dataset(seed=3, n_train=8, n_val=2, n_test=8, n_nodes_range=(12, 16))
    g = ds.graphs[17]
    model = build_model("graphormer", "graph", g.feature_dim, 1, seed=0)
    train_model(model, ds, TrainConfig(epochs=2, lr=3e-3, seed=0))
    cands = build_candidate_set(ds, 17, exclude_roots=True, max_candidates=12, seed=17)
    cfg = AttackConfig(budget_fraction=0.1, steps=20, block_size=40, n_discrete_samples=3,
                       loss_kind="raw_score", mode="injection", constraint="none", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_cell(model, g, cfg, cands, 17)
    assert any(r.flips for r in results)
    for res in results:
        assert all(i < g.n <= j for i, j in res.flips)


def test_run_cell_scores_in_one_call(tree_setup, monkeypatch):
    from gtattack.attack import runner

    ds, g, gid, cands, model = tree_setup
    calls, runs = [], []
    discrete_logits, init = runner.discrete_logits, runner.AttackRun.__init__

    def counted_logits(model, graphs):
        graphs = list(graphs)
        calls.append(len(graphs))
        return discrete_logits(model, graphs)

    def counted_init(self, *args, **kwargs):
        runs.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(runner, "discrete_logits", counted_logits)
    monkeypatch.setattr(runner.AttackRun, "__init__", counted_init)
    cfg = tree_config(steps=3, n_discrete_samples=2)
    run_cell(model, g, cfg, cands, gid)
    # the clean graph, 1 + 2 adaptive samples and steps + 1 + 2 random picks
    assert calls == [1 + 3 + 6]
    assert len(runs) == 1


# the small caps split stacks: two graphs of the cluster sizes, one or two trees
@pytest.mark.parametrize("mode,stack_entries", [("structure", 8192), ("structure", 2600),
                                                ("injection", 8192), ("injection", 150)])
def test_transfer_attack_batch_equals_per_source(cluster_setup, tree_setup, mode,
                                                 stack_entries, monkeypatch):
    from gtattack import train
    from gtattack.attack.runner import AttackRun

    if mode == "structure":
        ds, _, source = cluster_setup
        task, n_classes, budgets, make_config = "node", 6, (0.05, 0.2), quick_config
    else:
        ds, _, _, _, source = tree_setup
        task, n_classes, budgets, make_config = "graph", 1, (0.2, 0.4), tree_config
    gids = ds.split["val"] + ds.split["test"]
    cands = {gid: None if mode == "structure" else
             build_candidate_set(ds, gid, max_candidates=24, seed=gid) for gid in gids}
    sources = [attack(source, ds.graphs[gid], make_config(budget_fraction=b, steps=2),
                      cands[gid], gid)
               for b in budgets for attack in (run_attack, random_baseline) for gid in gids]
    target = build_model("grit", task, ds.graphs[0].feature_dim, n_classes, seed=3)
    monkeypatch.setattr(train, "EVAL_STACK_ENTRIES", stack_entries)
    batched = transfer_attack(sources, target, ds.graphs, cands)
    alone = []
    for src in sources:
        run = AttackRun(target, ds.graphs[src.graph_id],
                        make_config(budget_fraction=src.budget_fraction), cands[src.graph_id])
        [(_, metric, _)] = run.evaluate_discrete([src.flips])
        alone.append(metric)
    assert batched == alone
    assert len({ds.graphs[gid].n for gid in gids}) >= 2  # mixed node counts
    assert len({len(src.flips) for src in sources}) >= 3


@pytest.mark.parametrize("arch", ["gcn", "grit", "graphormer", "san"])
def test_prbcd_step_ignores_parameter_gradients(tree_setup, arch):
    from gtattack.attack.runner import AttackRun

    ds, g, gid, cands, _ = tree_setup
    model = build_model(arch, "graph", g.feature_dim, 1, seed=0)
    run = AttackRun(model, g, tree_config(), cands)
    block = init_block(run.n_aug, run.allowed, run.block_size, np.random.default_rng(1),
                       fresh_value=0.3)
    steps = []
    for trainable in (False, True):
        for t in model.params.values():
            t.requires_grad = trainable
        stepped = BlockState(block.n, block.pairs, block.values.copy())
        steps.append((stepped, prbcd_step(run.objective(stepped), stepped, run.delta, run.lr)))
    (plain, obj_plain), (tracked, obj_tracked) = steps
    np.testing.assert_array_equal(plain.values, tracked.values)
    assert obj_plain == obj_tracked
    assert not np.array_equal(plain.values, block.values)


def test_budget_from_fraction_rounding():
    assert budget_from_fraction(0.01, 761) == 8
    assert budget_from_fraction(0.01, 40) == 0
    assert budget_from_fraction(0.1, 19) == 2


def test_perturbation_result_roundtrip(tmp_path, cluster_setup):
    _, g, model = cluster_setup
    res = run_attack(model, g, quick_config(seed=3))
    path = str(tmp_path / "res.json")
    res.save(path)
    loaded = PerturbationResult.load(path)
    assert loaded.to_doc() == res.to_doc()
