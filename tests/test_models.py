from pathlib import Path

import numpy as np
import pytest

from gtattack import autodiff as ad
from gtattack.autodiff import Tape, Tensor, backward, finite_difference
from gtattack.attack.losses import attack_loss
from gtattack.models import (
    RelaxToggles,
    SpectralReference,
    attention_nodeprob_bias,
    build_model,
    degree_pe,
    load_checkpoint,
    pool_weighted,
    rrwp,
    save_checkpoint,
)
from gtattack.models.common import log_prob_row
from gtattack.generators import make_cluster_dataset
from gtattack.paths import all_pairs_shortest, reciprocal_weights, rspd_matrix
from gtattack.train import TrainConfig, train_model

ARCHS = ["gcn", "grit", "graphormer", "san"]


def random_discrete(rng, n, p=0.35, d_feat=5):
    a = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    a = a + a.T
    feats = rng.standard_normal((n, d_feat))
    return a, feats


def interior_adjacency(rng, n):
    a = np.triu(rng.uniform(0.1, 0.9, size=(n, n)), k=1)
    return a + a.T


def model_kwargs(arch, a):
    return {"spectral_ref": SpectralReference.of(a)} if arch == "san" else {}


SMALL = {"gcn": {}, "grit": {"walk_length": 4, "hidden": 8, "pair_dim": 4},
         "graphormer": {"hidden": 8, "max_spd": 10}, "san": {"hidden": 12, "pe_dim": 4, "eigenpairs": 4}}


# ---------------------------------------------------------------------------
# Principle I: relaxed == unrelaxed on discrete inputs


@pytest.mark.parametrize("arch", ARCHS)
def test_relaxed_equals_discrete_forward(arch):
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(6, 14))
        a, feats = random_discrete(rng, n)
        m = build_model(arch, "node", feats.shape[1], 4, seed=trial, **SMALL[arch])
        with ad.no_grad():
            ref = m.forward_discrete(a, feats).data
            out = m.forward(Tensor(a), feats, RelaxToggles(),
                            node_probs=Tensor(np.ones(n)), **model_kwargs(arch, a)).data
        assert np.max(np.abs(ref - out)) <= 1e-8


@pytest.mark.parametrize("arch", ARCHS)
def test_toggle_combinations_do_not_change_discrete_forward(arch):
    rng = np.random.default_rng(1)
    a, feats = random_discrete(rng, 9)
    m = build_model(arch, "node", feats.shape[1], 4, seed=0, **SMALL[arch])
    with ad.no_grad():
        ref = m.forward_discrete(a, feats).data
        for toggles in (RelaxToggles(), RelaxToggles.none(),
                        RelaxToggles(graphormer_spd=False, san_lap_pert=False)):
            out = m.forward(Tensor(a), feats, toggles, **model_kwargs(arch, a)).data
            assert np.max(np.abs(ref - out)) <= 1e-8, toggles


@pytest.mark.parametrize("arch", ARCHS)
def test_gradient_wrt_adjacency_nonzero(arch):
    rng = np.random.default_rng(2)
    a = interior_adjacency(rng, 8)
    feats = rng.standard_normal((8, 5))
    m = build_model(arch, "node", 5, 4, seed=0, **SMALL[arch])
    at = Tensor(a, requires_grad=True)
    out = m.forward(at, feats, RelaxToggles(), **model_kwargs(arch, a))
    g = backward(ad.tsum(ad.mul(out, out))).get(at)
    assert g is not None and np.abs(g.data).max() > 0


# ---------------------------------------------------------------------------
# stacked discrete forward: one call over (B, n, n) equals B single calls


def _stack_cases(rng):
    """(adjacencies, features) stacks: B=1 of one node, B=1 of five nodes,
    and B=5 of eleven nodes including an isolated node and two components."""
    one = random_discrete(rng, 5)
    graphs = [random_discrete(rng, 11) for _ in range(5)]
    graphs[1][0][3, :] = graphs[1][0][:, 3] = 0.0
    split = np.zeros((11, 11))
    split[:6, :6] = graphs[2][0][:6, :6]
    split[6:, 6:] = graphs[2][0][6:, 6:]
    graphs[2] = (split, graphs[2][1])
    return [
        (np.zeros((1, 1, 1)), rng.standard_normal((1, 1, 5))),
        (one[0][None], one[1][None]),
        (np.stack([a for a, _ in graphs]), np.stack([f for _, f in graphs])),
    ]


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("arch", ARCHS)
def test_stacked_discrete_forward_equals_per_graph(arch, task):
    from gtattack._kernels import bfs_hops

    rng = np.random.default_rng(11)
    n_classes = 3 if task == "node" else 1
    m = build_model(arch, task, 5, n_classes, seed=0)
    cases = _stack_cases(rng)
    assert np.isinf(bfs_hops(cases[2][0][1:3])).any(axis=(1, 2)).all()  # unreachable pairs
    for adjs, feats in cases:
        b, n = adjs.shape[:2]
        with ad.no_grad():
            stacked = m.forward_discrete(adjs, feats).data
            singles = [m.forward_discrete(adjs[i], feats[i]).data for i in range(b)]
        assert stacked.shape == (b, n if task == "node" else 1, n_classes)
        for i in range(b):
            assert np.array_equal(stacked[i], singles[i]), (arch, task, n, i)


# ---------------------------------------------------------------------------
# permutation equivariance


@pytest.mark.parametrize("arch", ARCHS)
def test_permutation_equivariance(arch):
    rng = np.random.default_rng(3)
    a, feats = random_discrete(rng, 10)
    m = build_model(arch, "node", feats.shape[1], 4, seed=0, **SMALL[arch])
    perm = rng.permutation(10)
    pa = a[np.ix_(perm, perm)]
    pf = feats[perm]
    with ad.no_grad():
        out = m.forward_discrete(a, feats).data
        pout = m.forward_discrete(pa, pf).data
    np.testing.assert_allclose(pout, out[perm], atol=1e-8)


# ---------------------------------------------------------------------------
# Principle II: continuity along an edge segment


@pytest.mark.parametrize("arch", ARCHS)
def test_continuity_along_single_edge_segment(arch):
    rng = np.random.default_rng(4)
    a, feats = random_discrete(rng, 10, p=0.4)
    i, j = 0, 5
    m = build_model(arch, "node", feats.shape[1], 4, seed=0, **SMALL[arch])
    kw = model_kwargs(arch, a)
    ts = np.linspace(0.0, 1.0, 1001)
    vals = []
    with ad.no_grad():
        for t in ts:
            at = a.copy()
            at[i, j] = at[j, i] = (1.0 - a[i, j]) * t + a[i, j] * (1.0 - t)
            vals.append(m.forward(Tensor(at), feats, RelaxToggles(), **kw).data.ravel())
    vals = np.asarray(vals)
    jumps = np.abs(np.diff(vals, axis=0)).max(axis=1)
    total_variation = jumps.sum()
    assert jumps.max() <= max(1e-2 * total_variation, 1e-9)


# ---------------------------------------------------------------------------
# gradient fidelity vs finite differences at interior points


@pytest.mark.parametrize("arch", ARCHS)
def test_model_gradients_match_finite_differences(arch, monkeypatch):
    from gtattack.models import graphormer

    rng = np.random.default_rng(5)
    n = 8
    a = interior_adjacency(rng, n)
    feats = rng.standard_normal((n, 5))
    labels = rng.integers(0, 4, size=n)
    m = build_model(arch, "node", 5, 4, seed=0, **SMALL[arch])
    kw = model_kwargs(arch, a)

    at = Tensor(a.copy(), requires_grad=True)
    logits = m.forward(at, feats, RelaxToggles(), **kw)
    got = backward(attack_loss(logits, labels, "tanh_margin", "node"))[at].data

    # finite differences hold Graphormer's shortest paths fixed, as its
    # gradient does: each distance is re-summed along the clean shortest path
    frozen = all_pairs_shortest(reciprocal_weights(a))

    def frozen_spd(at):
        arr = at.data
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j or not np.isfinite(frozen.rspd[i, j]):
                    d[i, j] = frozen.rspd[i, j]
                    continue
                nodes = frozen.path(i, j)
                d[i, j] = sum(1.0 / arr[u, v] for u, v in zip(nodes[:-1], nodes[1:]))
        return Tensor(d)

    monkeypatch.setattr(graphormer, "rspd_matrix", frozen_spd)

    def loss_at(arr):
        logits = m.forward(Tensor(arr), feats, RelaxToggles(), **kw)
        return attack_loss(logits, labels, "tanh_margin", "node").item()

    coords = [(int(i), int(j)) for i, j in
              zip(rng.integers(0, n, 6), rng.integers(0, n, 6)) if i != j][:4]
    for i, j in coords:
        arr = a.copy()
        eps = 1e-5
        arr[i, j] = a[i, j] + eps
        hi = loss_at(arr)
        arr[i, j] = a[i, j] - eps
        lo = loss_at(arr)
        fd = (hi - lo) / (2 * eps)
        rel = abs(got[i, j] - fd) / max(abs(fd), 1e-3)
        assert rel <= 1e-3, (arch, i, j, got[i, j], fd)


@pytest.mark.parametrize("arch", ARCHS)
def test_unknown_forward_keyword_raises(arch):
    rng = np.random.default_rng(6)
    a, feats = random_discrete(rng, 6)
    m = build_model(arch, "graph", feats.shape[1], 1, seed=0, **SMALL[arch])
    probs = Tensor(np.ones(6))
    with pytest.raises(TypeError, match="node_prob"):
        m.forward(Tensor(a), feats, RelaxToggles(), node_prob=probs)
    with pytest.raises(TypeError, match="node_prob"):
        m.forward_discrete(a, feats, node_prob=probs)


# ---------------------------------------------------------------------------
# rrwp


def test_rrwp_single_edge():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = rrwp(a, 2).data
    np.testing.assert_array_equal(p[:, :, 0], np.eye(2))
    np.testing.assert_array_equal(p[:, :, 1], a)


def test_rrwp_triangle_m2_diagonal():
    a = np.ones((3, 3)) - np.eye(3)
    p = rrwp(a, 3).data
    np.testing.assert_allclose(np.diag(p[:, :, 2]), [0.5, 0.5, 0.5])


def test_rrwp_isolated_node_row_zero():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    p = rrwp(a, 3).data
    np.testing.assert_array_equal(p[2, :, 1], np.zeros(3))
    np.testing.assert_array_equal(p[2, :, 2], np.zeros(3))


def test_rrwp_requires_k_at_least_two():
    with pytest.raises(ValueError):
        rrwp(np.zeros((2, 2)), 1)


# ---------------------------------------------------------------------------
# degree PE interpolation


def z_table():
    return Tensor(np.arange(20, dtype=float).reshape(10, 2), requires_grad=True)


def test_degree_pe_integer_exact():
    out = degree_pe(Tensor(np.array([3.0])), z_table(), relaxed=True)
    np.testing.assert_array_equal(out.data, [[6.0, 7.0]])


def test_degree_pe_interpolates():
    out = degree_pe(Tensor(np.array([2.3])), z_table(), relaxed=True)
    np.testing.assert_allclose(out.data, [[0.7 * 4 + 0.3 * 6, 0.7 * 5 + 0.3 * 7]])


def test_degree_pe_clamps():
    out = degree_pe(Tensor(np.array([9.5])), z_table(), relaxed=True)
    np.testing.assert_array_equal(out.data, [[18.0, 19.0]])


def test_degree_pe_unrelaxed_rounds_without_gradient():
    deg = Tensor(np.array([2.3]), requires_grad=True)
    out = degree_pe(deg, z_table(), relaxed=False)
    np.testing.assert_array_equal(out.data, [[4.0, 5.0]])
    assert deg not in backward(ad.tsum(out))


# ---------------------------------------------------------------------------
# SAN attention branches


def san_attention_row(atilde_row, gamma=1.0):
    """Relaxed dual attention weights for one row with zero score matrices."""
    n = len(atilde_row)
    a = Tensor(np.array([atilde_row]))
    real = ad.softmax(ad.tlog(a))
    fake = ad.softmax(ad.tlog(ad.sub(1.0, a)))
    return (1.0 / (1.0 + gamma)) * real.data + (gamma / (1.0 + gamma)) * fake.data


def test_san_all_real_row_kills_fake_branch():
    alpha = san_attention_row([1.0, 1.0, 1.0])
    np.testing.assert_allclose(alpha.sum(), 0.5)  # only the real branch, weight 1/(1+gamma)
    np.testing.assert_allclose(alpha.ravel(), [1 / 6] * 3, atol=1e-12)


def test_san_half_edges_row_sums_to_one():
    alpha = san_attention_row([0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-12)


def test_san_gamma_limit_weights_fake():
    a = [0.0, 0.0]
    big = san_attention_row(a, gamma=1e6)
    np.testing.assert_allclose(big.sum(), 1e6 / (1 + 1e6), atol=1e-9)


def test_san_lpe_zero_perturbation_matches_exact():
    rng = np.random.default_rng(6)
    a, feats = random_discrete(rng, 7)
    m = build_model("san", "node", feats.shape[1], 3, seed=0, **SMALL["san"])
    ref = SpectralReference.of(a)
    with ad.no_grad():
        exact = m.forward(Tensor(a), feats, RelaxToggles(san_lap_pert=False)).data
        pert = m.forward(Tensor(a), feats, RelaxToggles(), spectral_ref=ref).data
    np.testing.assert_allclose(pert, exact, atol=1e-10)


def test_san_lpe_pads_when_k_exceeds_n():
    rng = np.random.default_rng(7)
    a, feats = random_discrete(rng, 3, p=0.9)
    m = build_model("san", "node", feats.shape[1], 3, seed=0,
                    hidden=12, pe_dim=4, eigenpairs=6)
    with ad.no_grad():
        out = m.forward_discrete(a, feats)
    assert out.shape == (3, 3)
    assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# node-probability attention bias and pooling


def test_nodeprob_bias_all_ones_is_plain_softmax():
    w = Tensor(np.array([[0.3, -0.7, 1.1]]))
    out = attention_nodeprob_bias(w, log_prob_row(Tensor(np.ones(3))))
    np.testing.assert_allclose(out.data, ad.softmax(w).data, atol=1e-15)
    np.testing.assert_array_equal(attention_nodeprob_bias(w, None).data, ad.softmax(w).data)


def test_nodeprob_bias_zero_prob_excludes_node():
    w = Tensor(np.zeros((1, 3)))
    out = attention_nodeprob_bias(w, log_prob_row(Tensor(np.array([1.0, 0.0, 1.0]))))
    assert out.data[0, 1] == 0.0
    np.testing.assert_allclose(out.data.sum(), 1.0)


def test_nodeprob_bias_exact_rewrite():
    w = Tensor(np.zeros((1, 2)))
    out = attention_nodeprob_bias(w, log_prob_row(Tensor(np.array([1.0, 0.5]))))
    np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]])


def test_nodeprob_bias_rejects_all_zero():
    with pytest.raises(ValueError, match="zero"):
        log_prob_row(Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        log_prob_row(Tensor(np.array([1.0, 1.5])))


def test_pool_weighted_ones_is_plain():
    h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(pool_weighted(h, None, "mean").data, [2.0, 3.0])
    np.testing.assert_allclose(pool_weighted(h, None, "sum").data, [4.0, 6.0])


def test_pool_weighted_zero_prob_drops_node():
    h = Tensor(np.array([[1.0, 2.0], [30.0, 40.0], [3.0, 4.0]]))
    p = Tensor(np.array([1.0, 0.0, 1.0]))
    np.testing.assert_allclose(pool_weighted(h, p, "mean").data, [2.0, 3.0])


def test_pool_weighted_mean_of_equal_reps():
    h = Tensor(np.array([[2.0, 5.0], [2.0, 5.0]]))
    p = Tensor(np.array([1.0, 0.5]))
    np.testing.assert_allclose(pool_weighted(h, p, "mean").data, [2.0, 5.0])


def test_pool_weighted_zero_mass_mean_rejected():
    h = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError, match="zero total"):
        pool_weighted(h, Tensor(np.zeros(2)), "mean")


# ---------------------------------------------------------------------------
# GRIT gradient toggles


def test_grit_toggles_cut_gradients_but_not_values():
    rng = np.random.default_rng(8)
    a = interior_adjacency(rng, 7)
    feats = rng.standard_normal((7, 5))
    m = build_model("grit", "node", 5, 3, seed=0, **SMALL["grit"])

    outs = {}
    grads = {}
    for name, tg in [
        ("on", RelaxToggles()),
        ("no_rrwp", RelaxToggles(grit_rrwp_grad=False)),
        ("no_deg", RelaxToggles(grit_deg_grad=False)),
        ("off", RelaxToggles(grit_rrwp_grad=False, grit_deg_grad=False)),
    ]:
        at = Tensor(a, requires_grad=True)
        out = m.forward(at, feats, tg)
        outs[name] = out.data
        g = backward(ad.tsum(ad.mul(out, out))).get(at)
        grads[name] = None if g is None else g.data
    for name in ("no_rrwp", "no_deg", "off"):
        np.testing.assert_allclose(outs[name], outs["on"], atol=1e-12)
    assert not np.allclose(grads["on"], grads["no_rrwp"])
    assert not np.allclose(grads["on"], grads["no_deg"])


def test_grit_pair_aggregation_matches_elementwise_formula(monkeypatch):
    from gtattack.models import grit

    def elementwise(alpha, ev):  # sum_j alpha_ij * ev_ij as mul + sum
        return ad.tsum(ad.mul(ad.reshape(alpha, alpha.shape + (1,)), ev), axis=-2)

    rng = np.random.default_rng(21)
    a = interior_adjacency(rng, 9)
    feats = rng.standard_normal((9, 5))
    probs = rng.uniform(0.2, 1.0, size=9)
    stack = np.stack([random_discrete(rng, 9)[0] for _ in range(3)])
    m = build_model("grit", "node", 5, 3, seed=0)
    for t in m.params.values():
        t.requires_grad = True
    results = []
    for aggregate in (grit._pair_aggregate, elementwise):
        monkeypatch.setattr(grit, "_pair_aggregate", aggregate)
        at = Tensor(a, requires_grad=True)
        out = m.forward(at, feats, RelaxToggles(), node_probs=Tensor(probs))
        grads = backward(ad.tsum(ad.mul(out, out)))
        with ad.no_grad():
            discrete = m.forward_discrete(stack, np.stack([feats] * 3)).data
        results.append([out.data, discrete, grads[at].data]
                       + [grads[t].data for t in m.params.values() if t in grads])
    assert len(results[0]) == len(results[1])
    for new, old in zip(*results):
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)


def test_grit_last_layer_skips_pair_update():
    rng = np.random.default_rng(22)
    a = interior_adjacency(rng, 7)
    m = build_model("grit", "node", 5, 3, seed=0, **SMALL["grit"])
    eback = m.p(f"l{m.hparams['layers'] - 1}.eback")
    with Tape() as tape:
        m.forward(Tensor(a, requires_grad=True), rng.standard_normal((7, 5)), RelaxToggles())
        assert tape.nodes
        readers = [node.op for node in tape.nodes if any(t is eback for t in node.inputs)]
    assert readers == []


# ---------------------------------------------------------------------------
# Graphormer structure


def test_graphormer_unreachable_uses_dedicated_bias():
    feats = np.zeros((4, 3))
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    m = build_model("graphormer", "node", 3, 2, seed=0, **SMALL["graphormer"])
    # make the unreachable bias huge: cross-component attention collapses
    m.params["spd.h0.unreachable"].data[:] = -1e3
    m.params["spd.h1.unreachable"].data[:] = -1e3
    with ad.no_grad():
        out = m.forward_discrete(a, feats)
    assert np.isfinite(out.data).all()


def test_graphormer_virtual_node_reads_out_graph():
    rng = np.random.default_rng(9)
    a, feats = random_discrete(rng, 6)
    m = build_model("graphormer", "graph", feats.shape[1], 1, seed=0, **SMALL["graphormer"])
    with ad.no_grad():
        out = m.forward_discrete(a, feats)
    assert out.shape == (1, 1)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    a, feats = random_discrete(rng, 6)
    m = build_model("graphormer", "node", feats.shape[1], 4, seed=2, **SMALL["graphormer"])
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(m, path)
    m2 = load_checkpoint(path)
    with ad.no_grad():
        np.testing.assert_array_equal(
            m.forward_discrete(a, feats).data, m2.forward_discrete(a, feats).data
        )


def test_checkpoint_bytes_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(build_model("gcn", "node", 4, 3, seed=5), p1)
    save_checkpoint(build_model("gcn", "node", 4, 3, seed=5), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


# ---------------------------------------------------------------------------
# parameters are constants outside training


def _trainable(m):
    return [name for name, t in m.params.items() if t.requires_grad]


@pytest.mark.parametrize("arch", ARCHS)
def test_parameters_require_grad_only_inside_training(arch, tmp_path):
    ds = make_cluster_dataset(3, n_train=2, n_val=1, n_test=0, nodes_per_cluster_range=(3, 4))
    m = build_model(arch, "node", ds.graphs[0].feature_dim, 6, seed=0, **SMALL[arch])
    assert _trainable(m) == []
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(m, path)
    assert _trainable(load_checkpoint(path)) == []

    before = {k: t.data.copy() for k, t in m.params.items()}
    history = train_model(m, ds, TrainConfig(epochs=2, lr=1e-2))
    assert _trainable(m) == []
    assert history["best_epoch"] >= 0
    assert any(not np.array_equal(before[k], t.data) for k, t in m.params.items())

    m.params["out.b"].data[:] = np.nan
    with pytest.raises(RuntimeError, match="diverged"):
        train_model(m, ds, TrainConfig(epochs=1))
    assert _trainable(m) == []
