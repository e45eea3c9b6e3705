from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gtattack import autodiff as ad
from gtattack.autodiff import Tape, Tensor, backward
from gtattack.attack.losses import attack_loss
from gtattack.models import (
    RelaxToggles,
    SpectralReference,
    build_model,
    degree_pe,
    load_checkpoint,
    model_from_doc,
    pool_weighted,
    rrwp,
    save_checkpoint,
)
from gtattack.models import grit, san
from gtattack.models.common import ScoreBias, attention, layer_tail, log_prob_row
from gtattack.generators import make_cluster_dataset
from gtattack.paths import interp_table, reciprocal_weights, rspd_matrix, spd_bias
from gtattack.train import TrainConfig, train_model
from oracles import (
    all_pairs_shortest,
    attention_nodeprob_bias,
    composed_graphormer_forward,
    composed_layer_tail,
    composed_san_forward,
    finite_difference,
    rsqrt_safe,
)

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


@pytest.mark.parametrize("value", ["false", 0, None])
def test_toggles_from_dict_takes_booleans_only(value):
    with pytest.raises(ValueError, match=f"toggles.san_attention must be bool, got {value!r}"):
        RelaxToggles.from_dict({"san_attention": value})


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


@pytest.mark.parametrize("b", [2, 4])
def test_graphormer_relaxed_paths_reject_a_stack_by_name(b):
    # the relaxed shortest paths take one graph; a stack of b = n or b != n
    # graphs failed inside numpy, in an unpacking or in fill_diagonal
    rng = np.random.default_rng(12)
    m = build_model("graphormer", "node", 5, 3, seed=0, **SMALL["graphormer"])
    adjs, feats = (np.stack(x) for x in zip(*(random_discrete(rng, 4) for _ in range(b))))
    with pytest.raises(ad.ShapeError, match=r"rspd_matrix takes one graph's \(n, n\) adjacency"):
        m.forward(Tensor(adjs), feats, RelaxToggles())


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

    def frozen_spd(at, cap):
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


def test_san_rejects_negative_gamma_at_build_and_load():
    with pytest.raises(ValueError, match="gamma must be >= 0, got -1.0"):
        build_model("san", "node", 3, 2, gamma=-1.0)
    doc = build_model("san", "node", 3, 2).to_doc()
    doc["hparams"]["gamma"] = -0.5
    with pytest.raises(ValueError, match="gamma must be >= 0, got -0.5"):
        model_from_doc(doc)
    assert build_model("san", "node", 3, 2, gamma=0.0).hparams["gamma"] == 0.0


def test_grit_rejects_walk_length_below_two_at_build_and_load():
    with pytest.raises(ValueError, match="walk_length must be >= 2, got 1"):
        build_model("grit", "node", 3, 2, walk_length=1)
    doc = build_model("grit", "node", 3, 2).to_doc()
    doc["hparams"]["walk_length"] = 1
    with pytest.raises(ValueError, match="walk_length must be >= 2, got 1"):
        model_from_doc(doc)


def composed_rrwp(atilde, k):
    """rrwp as a composition of autodiff primitives: the oracle for the
    recorded op (M = A * (rsqrt(d) * rsqrt(d)), powers by matmul, concat)."""
    a = ad.as_tensor(atilde)
    n = a.shape[-1]
    lead = a.shape[:-2]
    d = ad.tsum(a, axis=-1)
    inv = ad.mul(rsqrt_safe(d), rsqrt_safe(d))
    m = ad.mul(a, ad.reshape(inv, lead + (n, 1)))
    eye = np.zeros(a.shape)
    eye[..., np.arange(n), np.arange(n)] = 1.0
    slices = [Tensor(eye), m]
    for _ in range(k - 2):
        slices.append(ad.matmul(slices[-1], m))
    return ad.concat([ad.reshape(s, a.shape + (1,)) for s in slices], axis=-1)


def rrwp_loss_and_grad(fn, a, weights):
    at = Tensor(a, requires_grad=True)
    loss = ad.tsum(ad.mul(fn(at, weights.shape[-1]), Tensor(weights)))
    return loss.item(), backward(loss)[at].data


@pytest.mark.parametrize("lead", [(), (3,)])
def test_rrwp_gradient_matches_finite_differences(lead):
    """A degree-0 row, alone and in a stack of 3.  That row's own entries
    get gradient 0, the safe-division convention (a finite difference there
    would step across d = 0); every other entry matches central differences."""
    rng = np.random.default_rng(31)
    n, k = 5, 4
    a = rng.uniform(0.1, 0.9, size=lead + (n, n))
    a[..., 2, :] = 0.0
    weights = rng.standard_normal(lead + (n, n, k))
    _, got = rrwp_loss_and_grad(rrwp, a, weights)
    np.testing.assert_array_equal(got[..., 2, :], 0.0)
    want = finite_difference(lambda x: rrwp_loss_and_grad(rrwp, x, weights)[0], a.copy(), 1e-6)
    rows = np.arange(n) != 2
    np.testing.assert_allclose(got[..., rows, :], want[..., rows, :], rtol=1e-6, atol=1e-8)
    _, composed = rrwp_loss_and_grad(composed_rrwp, a, weights)
    np.testing.assert_allclose(got, composed, rtol=1e-12, atol=1e-15)


def test_stacked_rrwp_slices_equal_single_graph_bits():
    rng = np.random.default_rng(32)
    a = np.stack([interior_adjacency(rng, 7) for _ in range(3)])
    a[1, 4, :] = a[1, :, 4] = 0.0
    weights = rng.standard_normal((3, 7, 7, 8))
    stacked = rrwp(a, 8).data
    _, stacked_grad = rrwp_loss_and_grad(rrwp, a, weights)
    for i in range(3):
        assert np.array_equal(stacked[i], rrwp(a[i], 8).data)
        assert np.array_equal(stacked_grad[i], rrwp_loss_and_grad(rrwp, a[i], weights[i])[1])


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
    np.testing.assert_allclose(pool_weighted(h, None).data, [2.0, 3.0])


def test_pool_weighted_zero_prob_drops_node():
    h = Tensor(np.array([[1.0, 2.0], [30.0, 40.0], [3.0, 4.0]]))
    p = Tensor(np.array([1.0, 0.0, 1.0]))
    np.testing.assert_allclose(pool_weighted(h, p).data, [2.0, 3.0])


def test_pool_weighted_mean_of_equal_reps():
    h = Tensor(np.array([[2.0, 5.0], [2.0, 5.0]]))
    p = Tensor(np.array([1.0, 0.5]))
    np.testing.assert_allclose(pool_weighted(h, p).data, [2.0, 5.0])


def test_pool_weighted_zero_mass_mean_rejected():
    h = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError, match="zero total"):
        pool_weighted(h, Tensor(np.zeros(2)))


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


def grit_op_inputs(lead):
    """Inputs of one GRIT layer's two ops on 5 nodes, stacked over ``lead``:
    pair states from the random-walk stack of a graph whose node 2 has
    degree 0, and a log-probability bias whose node 4 has probability 0."""
    rng = np.random.default_rng(41)
    n, d, de, k = 5, 4, 3, 3
    a = rng.uniform(0.1, 0.9, size=lead + (n, n))
    a = a + a.swapaxes(-1, -2)
    a[..., 2, :] = a[..., :, 2] = 0.0
    e2d = rrwp(a, k).data.reshape(lead + (n * n, k)) @ rng.standard_normal((k, de)) + 0.3
    probs = rng.uniform(0.2, 1.0, size=lead + (1, n))
    probs[..., 4] = 0.0
    with np.errstate(divide="ignore"):
        lp = np.log(probs)
    h = rng.standard_normal(lead + (n, d))
    act = [rng.standard_normal(s) for s in ((d, de), (d, de), (de, de), (de, de))]
    heads = [rng.standard_normal(s) for _ in range(2) for s in ((d, 2), (de, 1), (de, 2))]
    return h, e2d, lp, act, heads, rng.standard_normal((d, d))


def run_pair_attention(h, pair, lp, *rest):
    *heads, wo = rest
    return grit.pair_attention(h, pair, lp, [heads[i:i + 3] for i in range(0, len(heads), 3)], wo)


def check_op_gradients(op, inputs, weights):
    """Every input's gradient of sum(op(*inputs) * weights) against central
    differences; returns the gradients."""
    def loss(values):
        with ad.no_grad():
            return float((op(*values).data * weights).sum())

    tensors = [Tensor(x, requires_grad=True) for x in inputs]
    grads = backward(ad.tsum(ad.mul(op(*tensors), Tensor(weights))))
    got = [grads[t].data for t in tensors]
    for i, x in enumerate(inputs):
        def moved(point, i=i):
            return loss(inputs[:i] + [point] + inputs[i + 1:])

        want = finite_difference(moved, x.copy(), 1e-6)
        np.testing.assert_allclose(got[i], want, rtol=1e-6, atol=1e-8, err_msg=f"input {i}")
    return got


@pytest.mark.parametrize("lead", [(), (2,)])
def test_pair_activation_gradients_match_finite_differences(lead):
    h, e2d, _, act, _, _ = grit_op_inputs(lead)
    out = grit.pair_activation(h, e2d, *act).data
    assert out.shape == lead + (5, 5, 3)
    assert (out == 0.0).any() and (out > 0.0).any()  # both sides of the relu
    weights = np.random.default_rng(42).standard_normal(out.shape)
    check_op_gradients(grit.pair_activation, [h, e2d] + act, weights)


@pytest.mark.parametrize("lead", [(), (2,)])
def test_pair_attention_gradients_match_finite_differences(lead):
    """Node 4 has probability 0: its column of attention is exactly 0, so
    the output ignores its value and pair column, and its bias gets a
    finite zero gradient."""
    h, e2d, lp, act, heads, wo = grit_op_inputs(lead)
    pair = grit.pair_activation(h, e2d, *act).data
    out = run_pair_attention(h, pair, lp, *heads, wo).data
    moved_h, moved_pair = h.copy(), pair.copy()
    moved_h[..., 4, :] += 1.0
    moved_pair[..., 4, :] += 1.0
    np.testing.assert_array_equal(run_pair_attention(moved_h, moved_pair, lp, *heads, wo).data, out)
    weights = np.random.default_rng(43).standard_normal(out.shape)
    gh, gpair, glp = check_op_gradients(run_pair_attention, [h, pair, lp] + heads + [wo],
                                        weights)[:3]
    np.testing.assert_array_equal(gh[..., 4, :], 0.0)
    np.testing.assert_array_equal(gpair[..., 4, :], 0.0)
    assert np.isfinite(glp).all() and (glp[..., 4] == 0.0).all()


def test_relaxed_grit_pass_records_two_attention_nodes_per_layer():
    rng = np.random.default_rng(44)
    a = interior_adjacency(rng, 7)
    for layers in (1, 2, 3):
        m = build_model("grit", "node", 5, 3, seed=0, layers=layers, **SMALL["grit"])
        with Tape() as tape:
            at = Tensor(a, requires_grad=True)
            out = m.forward(at, rng.standard_normal((7, 5)), RelaxToggles(),
                            node_probs=Tensor(rng.uniform(0.2, 1.0, size=7), requires_grad=True))
            backward(ad.tsum(ad.mul(out, out)))
            ops = Counter(node.op for node in tape.nodes)
        assert ops["pair_activation"] == ops["pair_attention"] == layers
        assert ops["softmax"] == 0


def test_grit_pair_aggregation_matches_elementwise_formula(monkeypatch):
    def elementwise(h, pair, lp, heads, wo):  # sum_j alpha_ij * pair_ij as mul + sum
        n, de = pair.shape[-2], pair.shape[-1]
        pair2d = ad.reshape(pair, pair.shape[:-3] + (n * n, de))
        outs = []
        for wv, score, ev in heads:
            w = ad.reshape(ad.matmul(pair2d, score), pair.shape[:-1])
            alpha = attention_nodeprob_bias(w, lp)
            agg = ad.tsum(ad.mul(ad.reshape(alpha, alpha.shape + (1,)), pair), axis=-2)
            outs.append(ad.add(ad.matmul(alpha, ad.matmul(h, wv)), ad.matmul(agg, ev)))
        return ad.matmul(ad.concat(outs, axis=-1), wo)

    rng = np.random.default_rng(21)
    a = interior_adjacency(rng, 9)
    feats = rng.standard_normal((9, 5))
    probs = rng.uniform(0.2, 1.0, size=9)
    stack = np.stack([random_discrete(rng, 9)[0] for _ in range(3)])
    m = build_model("grit", "node", 5, 3, seed=0)
    for t in m.params.values():
        t.requires_grad = True
    results = []
    for attention in (grit.pair_attention, elementwise):
        monkeypatch.setattr(grit, "pair_attention", attention)
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
    for layers in (1, 2, 3):
        m = build_model("grit", "node", 5, 3, seed=0, layers=layers, **SMALL["grit"])
        ebacks = sorted(name for name in m.params if name.endswith(".eback"))
        assert ebacks == [f"l{l}.eback" for l in range(layers - 1)]


def composed_grit_forward(m, atilde, features, toggles=RelaxToggles(), node_probs=None):
    """GRIT's forward as a chain of autodiff primitives: a composed rrwp,
    and per head a softmax, the value projection applied to every pair, and
    sum_j alpha_ij ev_ij as mul + sum.  The oracle for ``GRIT.forward``."""
    from gtattack.models.common import linear

    a = ad.as_tensor(atilde)
    n = a.shape[-1]
    lead = a.shape[:-2]
    k, de = m.hparams["walk_length"], m.hparams["pair_dim"]
    p = composed_rrwp(a, k)
    if not toggles.grit_rrwp_grad:
        p = ad.stop_gradient(p)
    p2d = ad.reshape(p, lead + (n * n, k))
    node_pe = ad.matmul(ad.gather_rows(p2d, np.arange(n) * (n + 1)), m.p("pe_node.w"))
    h = ad.add(linear(ad.as_tensor(features), m.p("x.w"), m.p("x.b")), node_pe)
    e2d = linear(p2d, m.p("pe_pair.w"), m.p("pe_pair.b"))
    deg = ad.tsum(a, axis=-1)
    if not toggles.grit_deg_grad:
        deg = ad.stop_gradient(deg)
    log_deg = ad.reshape(ad.tlog(ad.add(deg, Tensor(np.ones(n)))), lead + (n, 1))
    lp = log_prob_row(node_probs) if node_probs is not None and toggles.node_prob_bias else None
    layers = m.hparams["layers"]
    for l in range(layers):
        q, kk = ad.matmul(h, m.p(f"l{l}.wq")), ad.matmul(h, m.p(f"l{l}.wk"))
        dq = q.shape[-1]
        qk = ad.add(ad.reshape(q, lead + (n, 1, dq)), ad.reshape(kk, lead + (1, n, dq)))
        ew = ad.reshape(ad.matmul(e2d, m.p(f"l{l}.ew")), lead + (n, n, de))
        eb = ad.reshape(ad.matmul(e2d, m.p(f"l{l}.eb")), lead + (n, n, de))
        pair2d = ad.reshape(ad.relu(ad.add(ad.mul(qk, ew), eb)), lead + (n * n, de))
        outs = []
        for hh in range(m.hparams["heads"]):
            w = ad.reshape(ad.matmul(pair2d, m.p(f"l{l}.h{hh}.score")), lead + (n, n))
            alpha = attention_nodeprob_bias(w, lp)
            v_h = ad.matmul(h, m.p(f"l{l}.h{hh}.wv"))
            ev_h = ad.reshape(ad.matmul(pair2d, m.p(f"l{l}.h{hh}.ev")), lead + (n, n, -1))
            agg = ad.tsum(ad.mul(ad.reshape(alpha, alpha.shape + (1,)), ev_h), axis=-2)
            outs.append(ad.add(ad.matmul(alpha, v_h), agg))
        attn = ad.matmul(ad.concat(outs, axis=-1), m.p(f"l{l}.wo"))
        scaled = ad.add(ad.mul(attn, m.p(f"l{l}.theta1")),
                        ad.mul(log_deg, ad.mul(attn, m.p(f"l{l}.theta2"))))
        h = composed_layer_tail(m, h, scaled, l)
        if l < layers - 1:
            e2d = ad.add(e2d, ad.matmul(pair2d, m.p(f"l{l}.eback")))
    return m._readout(h, node_probs)


@pytest.mark.parametrize("rrwp_grad", [True, False])
def test_grit_forward_equals_composed_oracle(rrwp_grad):
    """Relaxed outputs, stacked discrete outputs and every gradient (the
    adjacency's and each parameter's) agree with the composed oracle to
    1e-12 relative.  Entries that are sums which cancel (a parameter
    gradient of 1e-4 beside entries of 10) carry rounding of the array's
    scale, so the absolute floor is 1e-12 of each array's largest entry."""
    rng = np.random.default_rng(23)
    a = interior_adjacency(rng, 9)
    feats = rng.standard_normal((9, 5))
    probs = rng.uniform(0.2, 1.0, size=9)
    stack = np.stack([random_discrete(rng, 9)[0] for _ in range(3)])
    toggles = RelaxToggles(grit_rrwp_grad=rrwp_grad)
    m = build_model("grit", "node", 5, 3, seed=0)
    for t in m.params.values():
        t.requires_grad = True
    results = []
    for forward in (m.forward, lambda *args, **kw: composed_grit_forward(m, *args, **kw)):
        at = Tensor(a, requires_grad=True)
        out = forward(at, feats, toggles, node_probs=Tensor(probs))
        grads = backward(ad.tsum(ad.mul(out, out)))
        with ad.no_grad():
            discrete = forward(Tensor(stack), np.stack([feats] * 3), RelaxToggles.none()).data
        results.append([out.data, discrete, grads[at].data]
                       + [grads[t].data for t in m.params.values()])
    for new, old in zip(*results):
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12 * np.abs(old).max())


# ---------------------------------------------------------------------------
# the attention and layer-tail ops against their composed chains


def oracle_forward(m):
    """``m.forward`` with its recorded ops replaced by the chains of
    primitives they replaced: SAN's and Graphormer's composed forwards, and
    GRIT's own forward with the composed layer tail."""
    if m.arch != "grit":
        return partial({"san": composed_san_forward,
                        "graphormer": composed_graphormer_forward}[m.arch], m)

    def forward(*args, **kw):
        m._block = partial(composed_layer_tail, m)  # shadows the method
        try:
            return m.forward(*args, **kw)
        finally:
            del m._block

    return forward


def relaxed_attack_input(rng, n):
    """A discrete graph with a third of its entries moved into (0, 1), as
    an attack step sees it: exact 0s and 1s remain, so log A and log(1 - A)
    hold -inf."""
    clean, feats = random_discrete(rng, n, p=0.4)
    move = np.triu(rng.random((n, n)) < 0.33, k=1)
    a = np.triu(np.where(move, np.abs(clean - rng.uniform(0.1, 0.9, (n, n))), clean), k=1)
    return a + a.T, clean, feats


def forward_bits(m, forward, adjacency, feats, toggles, probs=None, **kw):
    """Bytes of the output and of every gradient of a weighted sum of it:
    the adjacency's, the node probabilities' and each parameter's."""
    at = Tensor(adjacency, requires_grad=True)
    pt = None if probs is None else Tensor(probs, requires_grad=True)
    out = forward(at, feats, toggles, node_probs=pt, **kw)
    weights = np.linspace(-1.0, 2.0, out.size).reshape(out.shape)
    grads = backward(ad.tsum(ad.mul(out, Tensor(weights))))
    tracked = {"adjacency": at, "node_probs": pt, **m.params}
    return {"out": out.data.tobytes(),
            **{k: grads[t].data.tobytes() for k, t in tracked.items() if t in grads}}


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("arch", ["grit", "graphormer", "san"])
def test_ops_equal_composed_chains_bit_for_bit(arch, task):
    """A relaxed single graph under every ablation toggle set of the mode
    the task is attacked in, then a discrete stack: outputs and every
    gradient (adjacency, node probabilities, each parameter) equal the
    composed chains bit for bit.  First on 9 nodes, then on 6 in two
    components: fewer nodes than SAN's 8 eigenpairs (zero padding),
    unreachable pairs, and Graphormer distances above its max_spd of 2."""
    from gtattack.experiment import ablation_grid

    rng = np.random.default_rng(51)
    for n, split in ((9, False), (6, True)):
        a, clean, feats = relaxed_attack_input(rng, n)
        if split:
            for x in (a, clean):
                x[:3, 3:] = x[3:, :3] = 0.0
        hparams = {"max_spd": 2} if split and arch == "graphormer" else {}
        m = build_model(arch, task, 5, 3 if task == "node" else 1, seed=2, **hparams)
        for t in m.params.values():
            t.requires_grad = True
        mode = "structure" if task == "node" else "injection"
        probs = None if task == "node" else rng.uniform(0.2, 1.0, size=n)
        kw = {"spectral_ref": SpectralReference.of(clean)} if arch == "san" else {}
        grid = ablation_grid(arch, mode)
        for toggles in grid:
            got = forward_bits(m, m.forward, a, feats, toggles, probs, **kw)
            want = forward_bits(m, oracle_forward(m), a, feats, toggles, probs, **kw)
            assert got == want, (n, toggles)
            if toggles == grid[0]:  # every relaxation on: the adjacency has a gradient
                assert "adjacency" in got and len(got) >= len(m.params)
        if split and arch == "graphormer":
            spd = rspd_matrix(Tensor(a)).data
            assert np.isinf(spd).any() and (spd[np.isfinite(spd)] > 2).any()
        stack, stack_feats = (np.stack(x)
                              for x in zip(*(random_discrete(rng, n) for _ in range(3))))
        stack[1, 4, :] = stack[1, :, 4] = 0.0  # an isolated node: an all -inf real-branch row
        assert (forward_bits(m, m.forward, stack, stack_feats, RelaxToggles.none())
                == forward_bits(m, oracle_forward(m), stack, stack_feats, RelaxToggles.none()))


@pytest.mark.parametrize("arch", ["grit", "graphormer", "san"])
def test_relaxed_pass_records_one_attention_and_one_tail_node_per_layer(arch):
    rng = np.random.default_rng(52)
    a, clean, feats = relaxed_attack_input(rng, 8)
    for layers in (1, 3):
        m = build_model(arch, "graph", 5, 1, seed=0, layers=layers, **SMALL[arch])
        kw = {"spectral_ref": SpectralReference.of(clean)} if arch == "san" else {}
        with Tape() as tape:
            out = m.forward(Tensor(a, requires_grad=True), feats, RelaxToggles(),
                            node_probs=Tensor(rng.uniform(0.2, 1.0, 8), requires_grad=True), **kw)
            backward(ad.tsum(ad.mul(out, out)))
            ops = Counter(node.op for node in tape.nodes)
        assert ops["layer_tail"] == layers and ops["layer_norm"] == 0
        assert ops["attention" if arch != "grit" else "pair_attention"] == layers
        assert ops["softmax"] == 0
        assert ops["lpe"] == (arch == "san") and ops["spd_bias"] == 2 * (arch == "graphormer")


def attention_case(kind, lead=()):
    """Inputs of a two-head attention op on 5 nodes, stacked over ``lead``,
    and a function of them that calls the op: Graphormer's one branch per
    head with a tensor bias, SAN's real and fake branches with log A and
    log(1 - A) biases, or SAN's hard branches as constant 0 / -inf biases.
    The log-probability row has one probability near 0."""
    rng = np.random.default_rng(53)
    n, d, dh = 5, 4, 2
    h = rng.standard_normal(lead + (n, d))
    probs = rng.uniform(0.3, 1.0, size=(1, n))
    probs[0, 3] = 1e-3
    lp = np.log(probs)
    n_br = 1 if kind == "graphormer" else 2
    params = [rng.standard_normal(s) for _ in range(2)
              for s in ((d, dh),) * (2 * n_br) + ((d, dh),)] + [rng.standard_normal((d, d))]
    if kind == "graphormer":
        source = rng.standard_normal(lead + (n, n))
    else:  # interior everywhere, so that finite differences stay inside (0, 1)
        source = rng.uniform(0.1, 0.9, size=lead + (n, n))
    real = source > 0.5

    def op(h, lp, *rest):
        if kind == "masked":
            biases = [ScoreBias(np.where(real, 0.0, -np.inf)),
                      ScoreBias(np.where(real, -np.inf, 0.0))]
        else:
            source, *rest = rest
            source = ad.as_tensor(source)
            biases = ([ScoreBias(source.data, source=source, vjp=lambda g: g)]
                      if kind == "graphormer"
                      else [san._log_bias(source), san._log_bias(source, complement=True)])
        *heads, wo = rest
        per_head = 2 * n_br + 1
        return attention(h, [(hp[-1], [(hp[2 * b], hp[2 * b + 1], biases[b]) for b in range(n_br)])
                             for hp in (heads[i:i + per_head]
                                        for i in range(0, len(heads), per_head))],
                         wo, lp, (1.0,) if kind == "graphormer" else (0.4, 0.6))

    return [h, lp] + ([] if kind == "masked" else [source]) + params, op


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("kind", ["graphormer", "san", "masked"])
def test_attention_gradients_match_finite_differences(kind, lead):
    inputs, op = attention_case(kind, lead)
    out = op(*inputs).data
    assert out.shape == lead + (5, 4)
    if kind == "masked":  # the masks switch entries off: both branches' weights are 0 there
        moved = inputs[0].copy()
        moved[..., 1, :] += 1.0
        assert not np.array_equal(op(moved, *inputs[1:]).data, out)
    check_op_gradients(op, inputs, np.random.default_rng(54).standard_normal(out.shape))


@pytest.mark.parametrize("lead", [(), (2,)])
def test_layer_tail_gradients_match_finite_differences(lead):
    rng = np.random.default_rng(55)
    n, d = 5, 4
    shapes = [(d,), (d,), (d, 2 * d), (2 * d,), (2 * d, d), (d,), (d,), (d,)]
    inputs = [rng.standard_normal(lead + (n, d)) for _ in range(2)]
    inputs += [rng.standard_normal(s) for s in shapes]
    out = layer_tail(*inputs).data
    assert out.shape == lead + (n, d)
    check_op_gradients(layer_tail, inputs, rng.standard_normal(out.shape))


@pytest.mark.parametrize("lead", [(), (2,)])
def test_interp_table_gradients_match_finite_differences(lead):
    """Indices below the table, inside it and above it, none at a kink."""
    rng = np.random.default_rng(56)
    table = rng.standard_normal((5, 3))
    x = rng.integers(-2, 7, size=lead + (6,)) + rng.uniform(0.1, 0.9, size=lead + (6,))
    out = interp_table(table, x).data
    assert out.shape == lead + (6, 3)
    grads = check_op_gradients(lambda t, x: interp_table(t, x), [table, x],
                               rng.standard_normal(out.shape))
    assert (grads[1] == 0.0).any() and (grads[1] != 0.0).any()  # clamped and interior


@pytest.mark.parametrize("virtual", [False, True])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_spd_bias_gradients_match_finite_differences(lead, virtual):
    """A width-2 table of 4 rows; distances inside it, above it and
    unreachable, none at a kink; with and without the virtual node."""
    rng = np.random.default_rng(57)
    n = 4
    rspd = rng.integers(0, 6, size=lead + (n, n)) + rng.uniform(0.1, 0.9, size=lead + (n, n))
    rspd[..., 0, 3] = rspd[..., 2, 1] = np.inf
    inputs = [rspd, rng.standard_normal((4, 2)), rng.standard_normal(2)]
    if virtual:
        inputs.append(rng.standard_normal(2))
    out = spd_bias(*inputs).data
    assert out.shape == lead + (n + virtual, n + virtual, 2)
    check_op_gradients(spd_bias, inputs, rng.standard_normal(out.shape))


@pytest.mark.parametrize("n,lead", [(5, ()), (3, ()), (3, (2,))])
def test_lpe_gradients_match_finite_differences(n, lead):
    """SAN's eigen-token encoder with 4 eigenpairs: every input, with n
    below 4 (zero padding) and not."""
    rng = np.random.default_rng(58)
    m = build_model("san", "node", 5, 3, seed=1, **SMALL["san"])
    names = [f"lpe.{name}" for name in san.LPE_PARAMS]

    def op(lam, u, *params):
        saved = {k: m.params[k] for k in names}
        m.params.update(zip(names, map(ad.as_tensor, params)))
        try:
            return m.lpe(lam, u)
        finally:
            m.params.update(saved)

    inputs = [rng.uniform(0.0, 2.0, size=lead + (n,)), rng.standard_normal(lead + (n, n))]
    inputs += [m.p(k).data + rng.standard_normal(m.p(k).shape) for k in names]
    out = op(*inputs).data
    assert out.shape == lead + (n, 4)
    check_op_gradients(op, inputs, rng.standard_normal(out.shape))


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


def test_train_model_rejects_an_empty_validation_split():
    # with no validation graph every epoch scored 0.0 and tied, so training
    # handed back the epoch-0 weights; now it refuses before any epoch
    ds = make_cluster_dataset(1, n_train=6, n_val=0, n_test=2, n_clusters=3,
                              nodes_per_cluster_range=(7, 7))
    m = build_model("gcn", "node", ds.graphs[0].feature_dim, 3, seed=0)
    before = {k: t.data.copy() for k, t in m.params.items()}
    with pytest.raises(ValueError, match="validation split is empty"):
        train_model(m, ds, TrainConfig(epochs=5, lr=1e-2))
    assert all(np.array_equal(before[k], t.data) for k, t in m.params.items())
    assert _trainable(m) == []
    assert train_model(m, ds, TrainConfig(epochs=0))["best_val_acc"] is None


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
