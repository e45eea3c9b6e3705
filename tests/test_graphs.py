import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtattack import autodiff as ad
from gtattack.autodiff import Tensor, backward
from gtattack.generators import (
    _sbm_once,
    generate_retweet_tree,
    generate_sbm_cluster,
    make_cluster_dataset,
)
from gtattack.graphs import (
    Dataset,
    Graph,
    GraphParseError,
    GraphValidationError,
    apply_flips,
    connected_components,
    is_connected,
    laplacian_sym,
    load_graph,
    save_graph,
    upper_triangle_pairs,
)
from gtattack.spectral import eig_sym


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
    return apply_flips(a, np.array(pairs), np.array(values))


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
    out = apply_flips(TRIANGLE, np.array([[0, 1], [1, 2]]), vals)
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
    once = apply_flips(a, pairs, vals).data
    twice = apply_flips(once, pairs, vals).data
    np.testing.assert_array_equal(twice, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_flip_output_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
    a = a + a.T
    pairs = upper_triangle_pairs(n)
    vals = rng.random(len(pairs))
    out = apply_flips(a, pairs, vals).data
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_flip_empty_block_is_identity():
    out = flip(TRIANGLE, np.zeros((0, 2), dtype=int), np.zeros(0))
    np.testing.assert_array_equal(out.data, TRIANGLE)


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


def test_sbm_no_inter_edges_keeps_clusters_separate():
    rng = np.random.default_rng(3)
    g = _sbm_once(rng, 4, (8, 10), 0.9, 0.0, 6, 0.1)
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


def test_sbm_deterministic():
    g1 = generate_sbm_cluster(seed=42)
    g2 = generate_sbm_cluster(seed=42)
    np.testing.assert_array_equal(g1.adjacency, g2.adjacency)
    np.testing.assert_array_equal(g1.features, g2.features)


def test_sbm_validates_probs():
    with pytest.raises(ValueError):
        generate_sbm_cluster(seed=0, p_intra=0.1, p_inter=0.2)


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
    g = generate_sbm_cluster(seed=2, n_clusters=3, nodes_per_cluster_range=(4, 6), feature_dim=5)
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


@pytest.mark.parametrize("field, value, message", [
    ("edges", [[0.0, 1, 1.0]], r"edges\[0\] indices must be ints"),
    ("edges", [["0", 1, 1.0]], r"edges\[0\] indices must be ints"),
    ("edges", [[0, 1, "1.0"]], r"edges\[0\] weight must be a number"),
    ("n", True, "'n' must be a non-negative int"),
    ("edges", 5, "'edges' must be a list"),
    ("features", [[0.0], ["x"]], "features must be numbers"),
    ("edges", [[0, 1, float("nan")]], "must be finite"),
    ("node_labels", ["a", "b"], "node_labels must be a list of non-negative ints"),
    ("node_labels", [0.5, 1], "node_labels must be a list of non-negative ints"),
    ("node_labels", [-1, 0], "node_labels must be a list of non-negative ints"),
    ("node_labels", 1, "node_labels must be a list of non-negative ints"),
    ("graph_label", "x", "graph_label must be 0 or 1"),
    ("graph_label", 2.7, "graph_label must be 0 or 1"),
    ("graph_label", True, "graph_label must be 0 or 1"),
    ("graph_label", 2, "graph_label must be 0 or 1"),
    ("labeled_mask", [2, 0], "labeled_mask must be a list of booleans or 0/1"),
    ("labeled_mask", ["x", "y"], "labeled_mask must be a list of booleans or 0/1"),
    ("labeled_mask", [1.0, 0.0], "labeled_mask must be a list of booleans or 0/1"),
])
def test_malformed_graph_field_is_parse_error(tmp_path, field, value, message):
    doc = {"n": 2, "edges": [[0, 1, 1.0]], "features": [[0.0], [0.0]], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphParseError, match=message) as exc:
        load_graph(str(path))
    assert str(exc.value).startswith(f"{path}: ")


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
