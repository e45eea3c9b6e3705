import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gtattack import autodiff as ad
from gtattack import generators, paths
from gtattack._kernels import bfs_hops
from gtattack.attack import is_tree, node_probability
from gtattack.autodiff import Tensor, backward
from gtattack.generators import (
    _sbm_once,
    generate_retweet_tree,
    generate_sbm_cluster,
    make_cluster_dataset,
)
from gtattack.graphs import (
    EDGE_EPS,
    Dataset,
    Graph,
    GraphParseError,
    GraphValidationError,
    apply_flips,
    connected_components,
    is_connected,
    laplacian_sym,
    load_graph,
    read_json,
    save_graph,
    sym_normalize,
    upper_triangle_pairs,
    write_json,
)
from gtattack.spectral import eig_sym
from oracles import (
    composed_apply_flips,
    composed_node_probability,
    composed_sym_normalize,
    finite_difference,
    per_step_apply_flips,
)


def make_graph(a, d_feat=2, **kw):
    a = np.asarray(a, dtype=float)
    return Graph(adjacency=a, features=np.zeros((a.shape[0], d_feat)), **kw)


TRIANGLE = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_single_edge():
    lap = laplacian_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(lap, [[1, -1], [-1, 1]], atol=1e-15)


def test_laplacian_empty_graph_is_identity():
    np.testing.assert_allclose(laplacian_sym(np.zeros((2, 2))), np.eye(2))


def test_laplacian_triangle():
    # D = 2I so L = I - A/2: unit diagonal, -0.5 off-diagonal
    lap = laplacian_sym(TRIANGLE)
    np.testing.assert_allclose(lap, np.eye(3) - TRIANGLE / 2.0, atol=1e-15)


def test_laplacian_eigenvalues_in_0_2():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        a = (rng.random((n, n)) < 0.4).astype(float) * rng.random((n, n))
        a = np.triu(a, k=1)
        a = a + a.T
        eigs = eig_sym(laplacian_sym(a)).eigenvalues
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# apply_flips


def flip(a, pairs, values):
    a = np.asarray(a, dtype=float)
    return apply_flips(a, np.array(pairs))(np.array(values))


def test_flip_removes_edge():
    out = flip([[0, 1], [1, 0]], [[0, 1]], [1.0])
    assert out.data[0, 1] == 0.0


def test_flip_partial_add():
    out = flip([[0, 0], [0, 0]], [[0, 1]], [0.3])
    assert out.data[0, 1] == pytest.approx(0.3)


def test_flip_partial_remove():
    out = flip([[0, 1], [1, 0]], [[0, 1]], [0.3])
    assert out.data[0, 1] == pytest.approx(0.7)


def test_flip_gradient_reaches_values():
    vals = Tensor(np.array([0.3, 0.2]), requires_grad=True)
    out = apply_flips(TRIANGLE, np.array([[0, 1], [1, 2]]))(vals)
    grads = backward(ad.tsum(out))
    # each pair appears at (i, j) and (j, i); flipping an existing edge has slope -1
    np.testing.assert_allclose(grads[vals].data, [-2.0, -2.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_flip_involution_on_discrete(n, seed):
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
    a = a + a.T
    pairs = upper_triangle_pairs(n)
    vals = (rng.random(len(pairs)) < 0.3).astype(float)
    once = apply_flips(a, pairs)(vals).data
    twice = apply_flips(once, pairs)(vals).data
    np.testing.assert_array_equal(twice, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_flip_output_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
    a = a + a.T
    pairs = upper_triangle_pairs(n)
    vals = rng.random(len(pairs))
    out = apply_flips(a, pairs)(vals).data
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_flip_empty_block_is_identity():
    out = flip(TRIANGLE, np.zeros((0, 2), dtype=int), np.zeros(0))
    np.testing.assert_array_equal(out.data, TRIANGLE)


# ---------------------------------------------------------------------------
# the relaxed-graph front end (apply_flips, node_probability, sym_normalize)
# against the composed chains it replaced: one recorded node each, the
# chain's values bit for bit, its gradients within rtol 1e-12, and finite
# differences

# a pair's weight: absent; 1, a zero factor of node_probability next to a
# probability-1 node; a weak edge; or anything in [0, 1]
PAIR_WEIGHTS = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-9, 1e-3), st.floats(0.0, 1.0))
FRONT_END = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def weighted_graphs(draw, n=None):
    n = draw(st.integers(1, 8)) if n is None else n
    m = n * (n - 1) // 2
    a = np.zeros((n, n))
    a[np.triu_indices(n, k=1)] = draw(st.lists(PAIR_WEIGHTS, min_size=m, max_size=m))
    return a + a.T


def _star_with_strays():
    # node 0 has three weight-1 edges (two or more zero factors), each leaf
    # one; node 4 is isolated (degree 0); node 5 hangs on a weak edge
    a = np.zeros((6, 6))
    a[0, 1:4] = a[1:4, 0] = 1.0
    a[1, 5] = a[5, 1] = 1e-7
    return a


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, np.ascontiguousarray(a).reshape(-1).view(np.uint64).tolist()


def _weights(shape):
    return np.linspace(-1.0, 2.0, num=int(np.prod(shape))).reshape(shape)


def _forward_backward(fn, x0):
    """fn's value at x0, the gradient of a mixed sum of it, and the number
    of nodes that fn records."""
    x = Tensor(x0.copy(), requires_grad=True)
    with ad.Tape() as tape:
        out = fn(x)
        n_nodes = len(tape.nodes)
        grad = backward(ad.tsum(ad.mul(out, Tensor(_weights(out.shape)))))[x].data
    return out.data, grad, n_nodes


def check_against_chain(op, chain, x0):
    got, grad, n_nodes = _forward_backward(op, x0)
    want, want_grad, _ = _forward_backward(chain, x0)
    assert n_nodes == 1
    assert _bits(got) == _bits(want)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=0.0)
    return grad


def check_finite_differences(op, x0, grad):
    weights = _weights(op(Tensor(x0)).shape)
    fd = finite_difference(lambda x: float((op(Tensor(x)).data * weights).sum()), x0.copy(),
                           epsilon=1e-6)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


@st.composite
def flip_cases(draw):
    """A weighted graph, some of its pairs, and a value for each."""
    a = draw(weighted_graphs())
    pairs = upper_triangle_pairs(len(a))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = pairs[np.array(keep, dtype=bool)]
    return a, pairs, np.array(draw(st.lists(PAIR_WEIGHTS, min_size=len(pairs),
                                            max_size=len(pairs))))


@FRONT_END
@given(flip_cases())
@example((_star_with_strays(), upper_triangle_pairs(6), np.linspace(0.0, 1.0, 15)))
def test_apply_flips_equals_composed_chain(case):
    a, pairs, values = case
    assume(len(pairs))
    grad = check_against_chain(apply_flips(a, pairs),
                               lambda v: composed_apply_flips(a, pairs, v), values)
    check_finite_differences(apply_flips(a, pairs), values, grad)


@FRONT_END
@given(flip_cases(), st.integers(0, 2**32 - 1))
def test_apply_flips_built_once_equals_per_step_flip(case, seed):
    # a block builds its flip op once and each step only writes values: every
    # step's values and value gradients equal a flip that works out its
    # indices again, and a later step leaves an earlier step's result alone
    a, pairs, values = case
    assume(len(pairs))
    op, rng = apply_flips(a, pairs), np.random.default_rng(seed)
    first = None
    for _ in range(4):
        got, grad, _ = _forward_backward(op, values)
        want, want_grad, _ = _forward_backward(
            lambda v: per_step_apply_flips(a, pairs, v), values)
        assert _bits(got) == _bits(want)
        assert _bits(grad) == _bits(want_grad)
        if first is None:
            first, kept = got, got.copy()
        values = rng.random(len(values)).round(1)
    assert _bits(first) == _bits(kept)


@FRONT_END
@given(weighted_graphs())
@example(_star_with_strays())
@example(np.zeros((1, 1)))
def test_node_probability_equals_composed_chain(a):
    grad = check_against_chain(node_probability, composed_node_probability, a)
    check_finite_differences(node_probability, a, grad)


@FRONT_END
@given(st.one_of(weighted_graphs(),
                 st.integers(1, 6).flatmap(lambda n: st.lists(weighted_graphs(n), min_size=2,
                                                              max_size=3).map(np.stack))))
@example(_star_with_strays())
def test_sym_normalize_equals_composed_chain(a):
    grad = check_against_chain(sym_normalize, composed_sym_normalize, a)
    # away from degree 0, where x^-1/2 is smooth: GCN's self-loops
    loops = a + np.eye(a.shape[-1])
    grad = check_against_chain(sym_normalize, composed_sym_normalize, loops)
    check_finite_differences(sym_normalize, loops, grad)


# ---------------------------------------------------------------------------
# validation


def test_asymmetric_adjacency_rejected():
    a = np.array([[0, 1], [0, 0]], dtype=float)
    with pytest.raises(GraphValidationError, match="symmetric"):
        Graph(adjacency=a, features=np.zeros((2, 1)))


def test_nonzero_diagonal_rejected():
    with pytest.raises(GraphValidationError, match="diagonal"):
        Graph(adjacency=np.eye(2), features=np.zeros((2, 1)))


def test_dataset_split_overlap_rejected():
    g = make_graph(TRIANGLE)
    with pytest.raises(GraphValidationError, match="overlap"):
        Dataset(graphs=[g, g], split={"train": [0], "val": [0], "test": [1]}, task="node-classification")


# ---------------------------------------------------------------------------
# generators


def test_sbm_contract():
    g = generate_sbm_cluster(seed=5)
    assert 90 <= g.n <= 150
    assert g.labeled_mask.sum() == 6
    assert is_connected(g.adjacency)
    # the labeled node of cluster c carries the one-hot channel c
    for node in np.flatnonzero(g.labeled_mask):
        c = g.node_labels[node]
        assert g.features[node, c] == 1.0
    unlabeled = ~g.labeled_mask
    assert np.all(g.features[unlabeled][:, :6] == 0.0)


def test_sbm_no_inter_edges_keeps_clusters_separate(monkeypatch):
    monkeypatch.setattr(generators, "P_INTRA", 0.9)
    monkeypatch.setattr(generators, "P_INTER", 0.0)
    rng = np.random.default_rng(3)
    g = _sbm_once(rng, 4, (8, 10))
    comp = connected_components(g.adjacency)
    # components never span two clusters
    for cid in np.unique(comp):
        assert len(np.unique(g.node_labels[comp == cid])) == 1


def test_connected_components_numbered_by_smallest_node():
    # components {0, 3, 5}, {1, 4}, {2}, {6}, {7, 8}; 3 reaches 0 only via 5;
    # the 0.5 edge counts, the 1e-12 entry between 2 and 6 does not
    a = np.zeros((9, 9))
    for i, j, w in [(3, 5, 1.0), (0, 5, 0.5), (4, 1, 1.0), (8, 7, 1.0), (2, 6, 1e-12)]:
        a[i, j] = a[j, i] = w
    comp = connected_components(a)
    assert comp.dtype == np.int64
    np.testing.assert_array_equal(comp, [0, 1, 2, 0, 1, 0, 3, 4, 4])


@pytest.mark.parametrize("weight,edge", [(EDGE_EPS, False), (np.nextafter(EDGE_EPS, 1.0), True)],
                         ids=["at_eps", "above_eps"])
def test_every_edge_test_shares_one_threshold(weight, edge):
    # the path 0-1-2 plus the entry (2, 3): a spanning tree exactly when it is an edge
    a = np.zeros((4, 4))
    for i, j, w in [(0, 1, 1.0), (1, 2, 1.0), (2, 3, weight)]:
        a[i, j] = a[j, i] = w
    assert paths.EDGE_EPS is EDGE_EPS
    assert bool(connected_components(a).max() == 0) is edge
    assert bool(np.isfinite(bfs_hops(a)[0, 3])) is edge
    assert bool(np.isfinite(paths.reciprocal_weights(a)[2, 3])) is edge
    assert is_tree(a) is edge


def test_sbm_deterministic():
    g1 = generate_sbm_cluster(seed=42)
    g2 = generate_sbm_cluster(seed=42)
    np.testing.assert_array_equal(g1.adjacency, g2.adjacency)
    np.testing.assert_array_equal(g1.features, g2.features)


def test_sbm_rejects_more_clusters_than_features():
    # each cluster's labeled node reveals it through a one-hot feature channel
    generate_sbm_cluster(seed=0, n_clusters=generators.FEATURE_DIM, nodes_per_cluster_range=(2, 3))
    with pytest.raises(ValueError, match="n_clusters must be <= FEATURE_DIM = 8"):
        generate_sbm_cluster(seed=0, n_clusters=generators.FEATURE_DIM + 1)


def test_tree_is_tree():
    g = generate_retweet_tree(seed=1, n_nodes_range=(5, 5))
    assert g.n == 5
    assert g.num_edges == 4
    assert is_connected(g.adjacency)
    assert np.all(g.adjacency.sum(axis=1) >= 1)


def test_tree_label_changes_features_not_topology():
    g0 = generate_retweet_tree(seed=9, label=0)
    g1 = generate_retweet_tree(seed=9, label=1)
    np.testing.assert_array_equal(g0.adjacency, g1.adjacency)
    assert g1.features[0].mean() > g0.features[0].mean()


def test_cluster_dataset_counts():
    ds = make_cluster_dataset(seed=0, n_train=4, n_val=2, n_test=2, nodes_per_cluster_range=(5, 7))
    assert len(ds.graphs) == 8
    assert ds.split["test"] == [6, 7]
    assert ds.task == "node-classification"


# ---------------------------------------------------------------------------
# io


def test_graph_roundtrip(tmp_path):
    g = generate_sbm_cluster(seed=2, n_clusters=3, nodes_per_cluster_range=(4, 6))
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    g2 = load_graph(str(path))
    np.testing.assert_array_equal(g.adjacency, g2.adjacency)
    np.testing.assert_array_equal(g.features, g2.features)
    np.testing.assert_array_equal(g.node_labels, g2.node_labels)
    np.testing.assert_array_equal(g.labeled_mask, g2.labeled_mask)


def test_truncated_file_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 1.0')
    with pytest.raises(GraphParseError, match="line"):
        load_graph(str(path))


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ('{"n": 3, "edges": [[0, 1', "line 1, col"),
    ("[1]", "top-level value must be an object"),
], ids=["missing", "truncated", "not_an_object"])
def test_read_json_raises_parse_error_naming_the_file(tmp_path, text, message):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(GraphParseError, match=message) as exc:
        read_json(str(path))
    assert str(exc.value).startswith(f"{path}: ")


def test_write_json_writes_compact_json_with_sorted_keys(tmp_path):
    doc = {"b": [1, 2.5, None, float("inf")], "a": {"y": True, "x": "s"}}
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    assert path.read_text() == json.dumps(doc, sort_keys=True)
    assert read_json(str(path)) == doc


def test_lower_triangle_edge_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[1, 0, 1.0]], "features": [[0.0], [0.0]]}')
    with pytest.raises(GraphParseError, match="upper triangle"):
        load_graph(str(path))


def test_out_of_range_weight_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[0, 1, 3.0]], "features": [[0.0], [0.0]]}')
    with pytest.raises(GraphParseError, match=r"\[0, 1\]"):
        load_graph(str(path))


# each id names the field, the value and the rule that the value breaks
@pytest.mark.parametrize("field, value, message", [
    pytest.param("edges", [[0.0, 1, 1.0]], r"edges\[0\]\[0\] must be int, got 0\.0",
                 id=r"edges-value0-edges\[0\] indices must be ints"),
    pytest.param("edges", [["0", 1, 1.0]], r"edges\[0\]\[0\] must be int, got '0'",
                 id=r"edges-value1-edges\[0\] indices must be ints"),
    pytest.param("edges", [[0, 1, "1.0"]], r"edges\[0\]\[2\] must be float, got '1\.0'",
                 id=r"edges-value2-edges\[0\] weight must be a number"),
    pytest.param("n", True, "n must be int, got True", id="n-True-'n' must be a non-negative int"),
    pytest.param("edges", 5, r"edges must be list\[tuple\[int, int, float\]\], got 5",
                 id="edges-5-'edges' must be a list"),
    pytest.param("features", [[0.0], ["x"]], r"features\[1\]\[0\] must be float, got 'x'",
                 id="features-value5-features must be numbers"),
    pytest.param("edges", [[0, 1, float("nan")]], r"edges\[0\]\[2\] must be finite, got nan",
                 id="edges-value6-must be finite"),
    pytest.param("node_labels", ["a", "b"], r"node_labels\[0\] must be int, got 'a'",
                 id="node_labels-value7-node_labels must be a list of non-negative ints"),
    pytest.param("node_labels", [0.5, 1], r"node_labels\[0\] must be int, got 0\.5",
                 id="node_labels-value8-node_labels must be a list of non-negative ints"),
    pytest.param("node_labels", [-1, 0], r"node_labels\[0\] must be >= 0, got -1",
                 id="node_labels-value9-node_labels must be a list of non-negative ints"),
    pytest.param("node_labels", 1, r"node_labels must be list\[int\] \| None, got 1",
                 id="node_labels-1-node_labels must be a list of non-negative ints"),
    pytest.param("graph_label", "x", r"graph_label must be 0 \| 1 \| None, got 'x'",
                 id="graph_label-x-graph_label must be 0 or 1"),
    pytest.param("graph_label", 2.7, r"graph_label must be 0 \| 1 \| None, got 2\.7",
                 id="graph_label-2.7-graph_label must be 0 or 1"),
    pytest.param("graph_label", True, r"graph_label must be 0 \| 1 \| None, got True",
                 id="graph_label-True-graph_label must be 0 or 1"),
    pytest.param("graph_label", 2, r"graph_label must be 0 \| 1 \| None, got 2",
                 id="graph_label-2-graph_label must be 0 or 1"),
    pytest.param("labeled_mask", [2, 0],
                 r"labeled_mask\[0\] must be 0 \| 1 \| False \| True, got 2",
                 id="labeled_mask-value15-labeled_mask must be a list of booleans or 0/1"),
    pytest.param("labeled_mask", ["x", "y"],
                 r"labeled_mask\[0\] must be 0 \| 1 \| False \| True, got 'x'",
                 id="labeled_mask-value16-labeled_mask must be a list of booleans or 0/1"),
    pytest.param("labeled_mask", [1.0, 0.0],
                 r"labeled_mask\[0\] must be 0 \| 1 \| False \| True, got 1\.0",
                 id="labeled_mask-value17-labeled_mask must be a list of booleans or 0/1"),
])
def test_malformed_graph_field_is_parse_error(tmp_path, field, value, message):
    doc = {"n": 2, "edges": [[0, 1, 1.0]], "features": [[0.0], [0.0]], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphParseError, match=message) as exc:
        load_graph(str(path))
    assert str(exc.value).startswith(f"{path}: {field}")


def test_label_fields_of_every_allowed_form_load(tmp_path):
    doc = {"n": 2, "edges": [[0, 1, 1.0]], "features": [[0.0], [0.0]],
           "node_labels": [0, 3], "graph_label": 1, "labeled_mask": [True, 0]}
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    g = load_graph(str(path))
    assert g.node_labels.tolist() == [0, 3] and g.graph_label == 1
    assert g.labeled_mask.tolist() == [True, False]
    for label in (0, None):
        path.write_text(json.dumps({**doc, "graph_label": label}))
        assert load_graph(str(path)).graph_label == label
