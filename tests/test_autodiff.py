import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtattack
from gtattack import autodiff as ad
from gtattack.autodiff import Tensor, backward, finite_difference
from gtattack.models import RelaxToggles, SpectralReference, build_model
from gtattack.optim import AdamState, adam_step


def grad_of(loss, leaf):
    return backward(loss)[leaf].data


# ---------------------------------------------------------------------------
# forward examples


def test_softmax_symmetric():
    y = ad.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(y.data, [0.5, 0.5], atol=1e-15)


def test_log_one():
    assert ad.tlog(Tensor(1.0)).item() == 0.0


def test_matmul_shape():
    out = ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 1))))
    assert out.shape == (2, 1)


def test_matmul_shape_mismatch_names_primitive():
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 1\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))


@pytest.mark.parametrize("sa,sb", [((2, 2, 3), (3, 3, 4)), ((3,), (3, 2)), ((2, 3), (3,))])
def test_matmul_batch_mismatch_and_vector_operands_name_primitive(sa, sb):
    with pytest.raises(ad.ShapeError, match=re.escape(f"matmul: incompatible shapes {sa} and {sb}")):
        ad.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_elementwise_shape_mismatch_names_primitive(op):
    with pytest.raises(ad.ShapeError, match=re.escape(f"{op}: incompatible shapes (2, 3) and (2, 2)")):
        getattr(ad, op)(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_matmul_broadcasts_leading_axes():
    out = ad.matmul(Tensor(np.ones((5, 2, 3))), Tensor(np.ones((3, 4))))
    assert out.shape == (5, 2, 4)
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 4))))


def test_log_negative_rejected():
    with pytest.raises(ValueError, match="log"):
        ad.tlog(Tensor(-0.5))


def test_softmax_all_neg_inf_row_is_zero():
    x = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    y = ad.softmax(Tensor(x))
    assert np.isfinite(y.data).all()
    np.testing.assert_allclose(y.data[1], [0.0, 0.0])
    np.testing.assert_allclose(y.data[0].sum(), 1.0)


def test_exp_of_neg_inf_is_zero():
    assert ad.texp(Tensor(-np.inf)).item() == 0.0


# ---------------------------------------------------------------------------
# backward examples


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    loss = ad.mul(x, x)
    assert grad_of(loss, x) == pytest.approx(6.0)


def test_softmax_sum_gradient_is_zero():
    x = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    loss = ad.tsum(ad.softmax(x))
    np.testing.assert_allclose(grad_of(loss, x), np.zeros(3), atol=1e-12)


def test_log_gradient():
    x = Tensor(2.0, requires_grad=True)
    assert grad_of(ad.tlog(x), x) == pytest.approx(0.5)


def test_non_scalar_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ad.ShapeError, match="scalar"):
        backward(ad.mul(x, x))


def test_unreachable_leaf_absent_from_map():
    x = Tensor(1.0, requires_grad=True)
    y = Tensor(1.0, requires_grad=True)
    gmap = backward(ad.mul(x, x))
    assert y not in gmap


def test_0d_tensor_collects_three_gradient_contributions():
    # y feeds the loss three times; for 0-d operands acc + gi is a numpy
    # scalar, which the next in-place accumulation cannot write into
    x = Tensor(2.0, requires_grad=True)
    y = ad.mul(x, 3.0)
    g = backward(ad.add(ad.add(ad.mul(y, y), y), y))[x].data
    assert type(g) is np.ndarray and g.shape == () and g == 3.0 * (2.0 * 6.0 + 2.0)


def test_log_zero_with_zero_upstream_gradient_is_zero():
    # log(0) = -inf feeding a softmax that ignores the coordinate: the
    # gradient must come back zero, not NaN.
    a = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    y = ad.softmax(ad.tlog(a))
    loss = ad.tsum(ad.mul(y, Tensor(np.array([1.0, 3.0]))))
    g = grad_of(loss, a)
    assert np.isfinite(g).all()


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_fd_square():
    g = finite_difference(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-4)
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_fd_constant():
    g = finite_difference(lambda x: 1.5, np.array([0.3, -2.0]), 1e-4)
    np.testing.assert_allclose(g, np.zeros(2))


def test_fd_tanh_at_zero():
    g = finite_difference(lambda x: float(np.tanh(x[0])), np.array([0.0]), 1e-5)
    assert g[0] == pytest.approx(1.0, abs=1e-8)


def test_fd_epsilon_validation():
    with pytest.raises(ValueError):
        finite_difference(lambda x: 0.0, np.array([1.0]), 0.0)


# ---------------------------------------------------------------------------
# gradcheck of every differentiable primitive against the oracle

RNG = np.random.default_rng(7)


def _gradcheck(build, x0, rel=1e-4, eps=1e-5):
    """Compare reverse-mode gradient with central differences at x0."""
    x0 = np.asarray(x0, dtype=np.float64)

    def loss_np(arr):
        leaf = Tensor(arr.copy(), requires_grad=True)
        return build(leaf).item()

    leaf = Tensor(x0.copy(), requires_grad=True)
    got = grad_of(build(leaf), leaf)
    want = finite_difference(loss_np, x0, eps)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= rel, (got, want)


def _rand(shape, low=-2.0, high=2.0):
    return RNG.uniform(low, high, size=shape)


def _mix(t):
    # deterministic weights so the loss mixes all coordinates
    w = np.linspace(0.5, 1.5, num=int(np.prod(t.shape)) or 1).reshape(t.shape)
    return ad.tsum(ad.mul(t, Tensor(w)))


# constants are frozen via default args so each loss is deterministic
PRIMITIVE_CASES = [
    ("add", lambda x, c=Tensor(_rand((3, 4))): _mix(ad.add(x, c)), (3, 4)),
    ("add_bcast", lambda x, c=Tensor(_rand((1, 4))): _mix(ad.add(x, c)), (3, 4)),
    ("sub", lambda x, c=Tensor(_rand((3, 4))): _mix(ad.sub(c, x)), (3, 4)),
    ("mul", lambda x, c=Tensor(_rand((3, 4))): _mix(ad.mul(x, c)), (3, 4)),
    ("div", lambda x, c=Tensor(_rand((3, 4))): _mix(ad.div(c, ad.add(x, Tensor(np.full((3, 4), 3.0))))), (3, 4)),
    ("neg", lambda x: _mix(ad.neg(x)), (5,)),
    ("matmul", lambda x, c=Tensor(_rand((4, 2))): _mix(ad.matmul(x, c)), (3, 4)),
    ("matmul_3d", lambda x, c=Tensor(_rand((2, 4, 3))): _mix(ad.matmul(x, c)), (2, 3, 4)),
    # a (k, m) weight shared by a (B, n, k) stack: its gradient sums over B
    ("matmul_bcast_weight", lambda x, c=Tensor(_rand((2, 3, 4))): _mix(ad.matmul(c, x)), (4, 2)),
    ("matmul_bcast_input", lambda x, c=Tensor(_rand((4, 2))): _mix(ad.matmul(x, c)), (2, 3, 4)),
    ("transpose", lambda x: _mix(ad.transpose(x)), (3, 4)),
    ("reshape", lambda x: _mix(ad.reshape(x, (4, 3))), (3, 4)),
    ("concat", lambda x, c=Tensor(_rand((2, 4))): _mix(ad.concat([x, c], axis=0)), (3, 4)),
    ("sum_axis", lambda x: _mix(ad.tsum(x, axis=1)), (3, 4)),
    ("mean", lambda x: _mix(ad.tmean(x, axis=0)), (3, 4)),
    ("exp", lambda x: _mix(ad.texp(x)), (3, 4)),
    ("log", lambda x: _mix(ad.tlog(ad.add(x, Tensor(np.full((3, 4), 4.0))))), (3, 4)),
    ("tanh", lambda x: _mix(ad.ttanh(x)), (3, 4)),
    ("softmax", lambda x: _mix(ad.softmax(x)), (3, 4)),
    ("rsqrt_safe", lambda x: _mix(ad.rsqrt_safe(ad.add(x, Tensor(np.full((6,), 4.0))))), (6,)),
    ("prod_lastdim", lambda x: _mix(ad.prod_lastdim(x)), (3, 4)),
    ("gather_rows", lambda x: _mix(ad.gather_rows(x, np.array([0, 2, 2]))), (3, 4)),
    ("gather_rows_3d", lambda x: _mix(ad.gather_rows(x, np.array([0, 2, 2]))), (2, 3, 4)),
    ("take_pairs", lambda x: _mix(ad.take_pairs(x, np.array([0, 1, 2]), np.array([1, 1, 3]))), (3, 4)),
    ("scatter_pairs", lambda x: _mix(ad.scatter_pairs(x, (4, 4), np.array([0, 1, 2]), np.array([1, 2, 3]))), (3,)),
    ("where", lambda x, m=_rand((3, 4)) > 0: _mix(ad.where(m, x, ad.mul(x, x))), (3, 4)),
    ("masked_fill", lambda x, m=_rand((3, 4)) > 0.5: _mix(ad.masked_fill(x, m, 2.5)), (3, 4)),
    ("outer_add", lambda x, c=Tensor(_rand((5, 4))): _mix(ad.outer_add(x, c)), (3, 4)),
    ("outer_add_3d", lambda x, c=Tensor(_rand((2, 5, 4))): _mix(ad.outer_add(c, x)), (2, 3, 4)),
]


@pytest.mark.parametrize("name,build,shape", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, build, shape):
    for _ in range(4):
        _gradcheck(build, _rand(shape))


def test_relu_gradient_away_from_kink():
    # sample |x| > 1e-2 to stay clear of the kink
    for _ in range(100):
        x0 = RNG.uniform(0.02, 2.0, size=(8,)) * RNG.choice([-1.0, 1.0], size=8)
        _gradcheck(lambda x: _mix(ad.relu(x)), x0)


def test_relu_kink_uses_left_derivative():
    x = Tensor(np.array([0.0]), requires_grad=True)
    assert grad_of(ad.tsum(ad.relu(x)), x)[0] == 0.0


def test_stop_gradient_blocks_backward():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.tsum(ad.mul(ad.stop_gradient(x), x))
    assert grad_of(y, x)[0] == pytest.approx(2.0)  # only the live branch


# ---------------------------------------------------------------------------
# softmax properties


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8),
    st.floats(min_value=-10, max_value=10),
)
def test_softmax_rows_sum_to_one_and_shift_invariant(row, shift):
    x = np.array(row)
    y1 = ad.softmax(Tensor(x)).data
    y2 = ad.softmax(Tensor(x + shift)).data
    assert abs(y1.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(y1 - y2)) <= 1e-12


# ---------------------------------------------------------------------------
# tape determinism and clearing


def _run_tape_pass(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    h = ad.relu(ad.matmul(x, w))
    loss = ad.tsum(ad.mul(ad.softmax(h), h))
    g = backward(loss)
    return loss.item(), g[x].data.copy(), g[w].data.copy()


def test_replay_is_bit_identical():
    l1, gx1, gw1 = _run_tape_pass(123)
    l2, gx2, gw2 = _run_tape_pass(123)
    assert l1 == l2
    assert (gx1 == gx2).all()
    assert (gw1 == gw2).all()


def test_tape_clear_invalidates_gradients():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ad.Tape():
        loss = ad.tsum(ad.mul(x, x))
    with pytest.raises(RuntimeError, match="cleared"):
        backward(loss)


def test_tape_scope_does_not_leak_outer_graph():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    outer = ad.tsum(ad.mul(x, x))
    with ad.Tape():
        ad.tsum(ad.mul(x, x))
    assert backward(outer)[x].data[1] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# adam


def _params(vals):
    return {k: Tensor(np.array(v), requires_grad=True) for k, v in vals.items()}


def test_adam_zero_grad_leaves_params_unchanged():
    p = _params({"w": [1.0, -2.0]})
    before = p["w"].data.copy()
    adam_step(p, {"w": np.zeros(2)}, AdamState(), lr=0.1)
    np.testing.assert_allclose(p["w"].data, before)


def test_adam_first_step_is_signed_lr():
    p = _params({"w": [0.0, 0.0]})
    adam_step(p, {"w": np.array([0.5, -3.0])}, AdamState(), lr=0.01)
    np.testing.assert_allclose(p["w"].data, [-0.01, 0.01], atol=1e-8)


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        p = _params({"w": [1.0, 2.0, 3.0]})
        st_ = AdamState()
        for t in range(5):
            adam_step(p, {"w": np.array([0.1, -0.2, 0.3]) * (t + 1)}, st_, lr=0.05)
        runs.append(p["w"].data.copy())
    assert (runs[0] == runs[1]).all()


def test_adam_missing_grad_treated_as_zero():
    p = _params({"w": [1.0], "b": [2.0]})
    adam_step(p, {"w": np.array([1.0])}, AdamState(), lr=0.1)
    np.testing.assert_allclose(p["b"].data, [2.0])


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: the per-tensor Adam update, moments keyed by name."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, p in params.items():
        g = grads.get(name)
        garr = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=np.float64)
        m = state["m"].setdefault(name, np.zeros_like(p.data))
        v = state["v"].setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * garr
        v *= beta2
        v += (1.0 - beta2) * garr * garr
        mhat = m / bc1
        vhat = v / bc2
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def test_flat_adam_equals_per_tensor_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    init = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3), "s": rng.normal(size=()),
            "u": rng.normal(size=(2, 2, 2))}
    flat, ref = _params(init), _params(init)
    flat_state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    for step in range(5):
        grads = {k: rng.normal(size=v.shape) * 10.0 ** (step - 2) for k, v in init.items()}
        del grads[list(init)[step % len(init)]]  # a missing gradient counts as zero
        adam_step(flat, grads, flat_state, lr=0.01)
        reference_adam_step(ref, grads, ref_state, lr=0.01)
        for k in init:
            np.testing.assert_array_equal(flat[k].data, ref[k].data)
        for moment in ("m", "v"):
            np.testing.assert_array_equal(
                getattr(flat_state, moment),
                np.concatenate([ref_state[moment][k].ravel() for k in init]))


def test_adam_rejects_parameters_unlike_state():
    state = AdamState()
    adam_step(_params({"w": [1.0, 2.0]}), {}, state, lr=0.1)
    with pytest.raises(ValueError, match="sizes"):
        adam_step(_params({"w": [1.0, 2.0, 3.0]}), {}, state, lr=0.1)
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(_params({"w": [1.0, 2.0]}), {"w": np.ones(3)}, state, lr=0.1)


# ---------------------------------------------------------------------------
# fused layer norm


def composed_layer_norm(x, gamma, beta, eps=1e-5):
    """Reference: layer norm as a chain of primitives, one node each."""
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.rsqrt_safe(ad.add(var, Tensor(np.full(var.shape, eps))))
    return ad.add(ad.mul(ad.mul(centered, inv), gamma), beta)


@pytest.mark.parametrize("shape", [(7, 6), (3, 5, 6), (2, 2, 4, 1)])
def test_layer_norm_equals_composed_chain_bit_for_bit(shape):
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[:-1] + (1,))
    x0[..., 0, :] = 1.5  # a constant row: zero variance
    g0, b0 = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    upstream = Tensor(rng.normal(size=shape))
    results = []
    for fn in (ad.layer_norm, composed_layer_norm):
        x, gamma, beta = (Tensor(v.copy(), requires_grad=True) for v in (x0, g0, b0))
        out = fn(x, gamma, beta)
        grads = backward(ad.tsum(ad.mul(out, upstream)))
        results.append([out.data] + [grads[t].data for t in (x, gamma, beta)])
    for fused, composed in zip(*results):
        np.testing.assert_array_equal(fused, composed)


# ---------------------------------------------------------------------------
# softmax edge rows and backward against the engine's earlier sweep


def reference_softmax(x):
    """Reference: softmax forward through np.max and a masked np.divide."""
    hi = np.max(x, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    e = np.exp(x - shift)
    s = e.sum(axis=-1, keepdims=True)
    return np.divide(e, s, out=np.zeros_like(e), where=s > 0.0)


def test_softmax_edge_rows_equal_reference_bit_for_bit():
    x = np.random.default_rng(2).normal(size=(2, 6, 5)) * 30.0
    x[0, 0] = -np.inf  # all -inf: zeros
    x[0, 1, :3] = -np.inf
    x[0, 2] = np.nan  # all NaN: zeros
    x[0, 3, 2] = np.nan  # one NaN: zeros
    x[1, 4, [1, 3]] = [-np.inf, np.nan]
    y = ad.softmax(Tensor(x)).data
    np.testing.assert_array_equal(y, reference_softmax(x))
    assert not y[0, [0, 2, 3]].any() and not y[1, 4].any()


def reference_backward(loss):
    """Reference: the sweep that visits constants too and sorts every
    reachable tensor by creation order."""
    def tracked(t):
        return t.requires_grad or t.node is not None

    seen, tensors, stack = set(), [], [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        tensors.append(t)
        if t.node is not None:
            stack.extend(t.node.inputs)
    tensors.sort(key=lambda t: -1 if t.node is None else t.node.order)
    grads = {id(loss): np.ones((), dtype=np.float64)}
    owned, leaf_grads = set(), {}
    for t in reversed(tensors):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.node is None:
            if t.requires_grad:
                leaf_grads[t] = Tensor(np.array(g, dtype=np.float64).reshape(t.shape))
            continue
        for inp, vjp in zip(t.node.inputs, t.node.vjps):
            if not tracked(inp):
                continue
            gi = vjp(g)
            acc = grads.get(id(inp))
            if acc is None:
                grads[id(inp)] = np.asarray(gi, dtype=np.float64)
            elif id(inp) in owned:
                np.add(acc, gi, out=acc)
            else:
                grads[id(inp)] = acc + gi
                owned.add(id(inp))
    return leaf_grads


@pytest.mark.parametrize("track_params", [False, True])
@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("arch", ["gcn", "grit", "graphormer", "san"])
def test_backward_equals_reference_through_relaxed_models(arch, task, track_params):
    rng = np.random.default_rng(3)
    n = 8
    a = np.triu(rng.uniform(0.1, 0.9, size=(n, n)), k=1)
    a = a + a.T
    feats = rng.normal(size=(n, 5))
    model = build_model(arch, task, 5, 3 if task == "node" else 1, seed=1)
    for p in model.params.values():
        p.requires_grad = track_params
    atilde = Tensor(a, requires_grad=True)
    probs = Tensor(rng.uniform(0.5, 1.0, size=n), requires_grad=True)
    kw = {"spectral_ref": SpectralReference.of(a)} if arch == "san" else {}
    out = model.forward(atilde, feats, RelaxToggles(), node_probs=probs, **kw)
    loss = ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape))))
    got, want = backward(loss), reference_backward(loss)
    assert list(got) == list(want)
    assert atilde in got
    assert any(p in got for p in model.params.values()) == track_params
    for t in want:
        np.testing.assert_array_equal(got[t].data, want[t].data)


# ---------------------------------------------------------------------------
# primitive invariants: output type, recording rule, gradient arrays

RANK_SHAPES = {"0d": (), "1d": (4,), "stacked": (4, 4, 4)}
ANY_RANK, VECTOR, STACK = ("0d", "1d", "stacked"), ("1d", "stacked"), ("stacked",)


def _square(x):
    side = int(round(np.sqrt(x.size)))
    return ad.reshape(x, (side, side))


# (name, ranks, fn): fn(x, y) with x of the rank's shape and y of x's last
# axis (0-d for a 0-d x); values lie in [0.5, 1.5], so log, div and
# rsqrt_safe stay regular
INVARIANT_CASES = [
    ("add", ANY_RANK, lambda x, y: ad.add(x, y)),
    ("sub", ANY_RANK, lambda x, y: ad.sub(y, x)),
    ("mul", ANY_RANK, lambda x, y: ad.mul(x, y)),
    ("div", ANY_RANK, lambda x, y: ad.div(y, x)),
    ("neg", ANY_RANK, lambda x, y: ad.neg(x)),
    ("matmul", STACK, lambda x, y: ad.matmul(x, ad.reshape(y, (4, 1)))),
    ("transpose", STACK, lambda x, y: ad.transpose(x)),
    ("reshape", ANY_RANK, lambda x, y: ad.reshape(x, (-1,))),
    ("concat", VECTOR, lambda x, y: ad.concat([x, x], axis=-1)),
    ("sum", ANY_RANK, lambda x, y: ad.tsum(x)),
    ("sum_axis", VECTOR, lambda x, y: ad.tsum(x, axis=-1)),
    ("sum_keepdims", VECTOR, lambda x, y: ad.tsum(x, axis=0, keepdims=True)),
    ("mean", ANY_RANK, lambda x, y: ad.tmean(x)),
    ("mean_axis", VECTOR, lambda x, y: ad.tmean(x, axis=0)),
    ("prod_lastdim", VECTOR, lambda x, y: ad.prod_lastdim(x)),
    ("exp", ANY_RANK, lambda x, y: ad.texp(x)),
    ("log", ANY_RANK, lambda x, y: ad.tlog(x)),
    ("tanh", ANY_RANK, lambda x, y: ad.ttanh(x)),
    ("relu", ANY_RANK, lambda x, y: ad.relu(ad.sub(x, 1.0))),
    ("rsqrt_safe", ANY_RANK, lambda x, y: ad.rsqrt_safe(x)),
    ("softmax", VECTOR, lambda x, y: ad.softmax(x)),
    ("layer_norm", VECTOR, lambda x, y: ad.layer_norm(x, y, y)),
    ("gather_rows", STACK, lambda x, y: ad.gather_rows(x, [0, 2, 2])),
    ("take_pairs", VECTOR, lambda x, y: ad.take_pairs(_square(x), [0, 1, 1], [1, 0, 1])),
    ("scatter_pairs", VECTOR,
     lambda x, y: ad.scatter_pairs(ad.reshape(x, (-1,)), (3, 5), np.arange(x.size) % 3,
                                   np.arange(x.size) % 5)),
    ("where", ANY_RANK, lambda x, y: ad.where(x.data > 1.0, x, y)),
    ("masked_fill", ANY_RANK, lambda x, y: ad.masked_fill(x, x.data > 1.0, 2.5)),
    ("stop_gradient", ANY_RANK, lambda x, y: ad.stop_gradient(x)),
    ("outer_add", STACK, lambda x, y: ad.outer_add(x, x)),
]
INVARIANT_PARAMS = [(name, rank, fn) for name, ranks, fn in INVARIANT_CASES for rank in ranks]


def _invariant_leaves(rank, requires_grad):
    rng = np.random.default_rng(5)
    shape = RANK_SHAPES[rank]
    return (Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=requires_grad),
            Tensor(rng.uniform(0.5, 1.5, size=shape[-1:]), requires_grad=requires_grad))


def _assert_float64_array(t):
    assert type(t.data) is np.ndarray and t.data.dtype == np.float64


@pytest.mark.parametrize("name,rank,fn", INVARIANT_PARAMS,
                         ids=[f"{name}-{rank}" for name, rank, _ in INVARIANT_PARAMS])
def test_primitive_invariants(name, rank, fn):
    x, y = _invariant_leaves(rank, requires_grad=False)
    out = fn(x, y)
    _assert_float64_array(out)
    assert out.node is None and not out.requires_grad  # constant inputs

    x, y = _invariant_leaves(rank, requires_grad=True)
    with ad.no_grad():
        quiet = fn(x, y)
    _assert_float64_array(quiet)
    assert quiet.node is None and not quiet.requires_grad
    np.testing.assert_array_equal(quiet.data, out.data)

    out = fn(x, y)
    _assert_float64_array(out)
    np.testing.assert_array_equal(out.data, quiet.data)
    if name == "stop_gradient":
        assert out.node is None
        return
    assert out.node is not None and out.requires_grad
    weights = Tensor(np.linspace(0.5, 1.5, num=out.size).reshape(out.shape))
    grads = backward(ad.tsum(ad.mul(out, weights)))
    assert x in grads
    for leaf, g in grads.items():
        _assert_float64_array(g)
        assert g.shape == leaf.shape and g.data.flags.writeable
    arrays = [g.data for g in grads.values()]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


# ---------------------------------------------------------------------------
# fast paths against the masked forms they replace: the engine's softmax,
# layer_norm and rsqrt_safe before their plain paths, copied as oracles


def oracle_unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def oracle_softmax(x):
    hi = x.max(axis=-1, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    e = np.exp(x - shift)
    s = e.sum(axis=-1, keepdims=True)
    pos = s > 0.0
    y = np.where(pos, e, 0.0) / np.where(pos, s, 1.0)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - inner)

    return y, (vjp,)


def oracle_rsqrt_safe(a):
    pos = a > 0.0
    x = np.where(pos, a, 1.0)
    y = np.where(pos, 1.0 / np.sqrt(x), 0.0)
    return y, (lambda g: np.where(pos, -0.5 * g * y / x, 0.0),)


def oracle_layer_norm(x, gamma, beta, eps=1e-5):
    d = x.shape[-1]
    c = x - x.sum(axis=-1, keepdims=True) / d
    v = (c * c).sum(axis=-1, keepdims=True) / d + eps
    pos = v > 0.0
    v_safe = np.where(pos, v, 1.0)
    inv = np.where(pos, 1.0 / np.sqrt(v_safe), 0.0)
    normed = c * inv

    def vjp_x(g):
        g_normed = g * gamma
        g_inv = oracle_unbroadcast(g_normed * c, inv.shape)
        g_sq = np.broadcast_to(np.where(pos, -0.5 * g_inv * inv / v_safe, 0.0) / d, c.shape)
        gc = g_normed * inv
        gc = gc + g_sq * c
        gc += g_sq * c
        return gc + np.broadcast_to(oracle_unbroadcast(-gc, inv.shape) / d, x.shape)

    return normed * gamma + beta, (vjp_x, lambda g: oracle_unbroadcast(g * normed, gamma.shape),
                                   lambda g: oracle_unbroadcast(g, beta.shape))


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, np.ascontiguousarray(a).reshape(-1).view(np.uint64).tolist()


def _check_against_oracle(fn, oracle, arrays, seed=0):
    want, vjps = oracle(*arrays)
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    assert _bits(out.data) == _bits(want)
    upstream = np.random.default_rng(seed).normal(size=want.shape)
    grads = backward(ad.tsum(ad.mul(out, Tensor(upstream))))
    for leaf, vjp in zip(leaves, vjps):
        assert _bits(grads[leaf].data) == _bits(vjp(upstream))


def _check_edge_rows(fn, oracle, arrays):
    # NaN and inf rows warn in both forms (inf - inf, NaN compared with 0);
    # regular inputs are checked outside this, where a warning is an error
    with np.errstate(invalid="ignore"):
        _check_against_oracle(fn, oracle, arrays)


def _regular_and_edge_rows(shape, edge_rows, seed):
    """A regular stack (times 30) and a copy whose leading rows are edge_rows."""
    x = np.random.default_rng(seed).normal(size=shape) * 30.0
    mixed = x.copy()
    flat = mixed.reshape(-1, shape[-1])
    flat[:len(edge_rows)] = edge_rows
    return x, mixed


@pytest.mark.parametrize("shape", [(6,), (5, 6), (2, 4, 6)])
def test_softmax_fast_path_equals_masked_form(shape):
    inf, nan = np.inf, np.nan
    edge = [[-inf] * 6, [-inf, 0.0, -inf, 1.0, -inf, 2.0], [nan] * 6, [0.0, nan, 1.0, 2.0, 3.0, 4.0],
            [inf, 0.0, 1.0, 2.0, 3.0, 4.0]]
    regular, mixed = _regular_and_edge_rows(shape, edge[:int(np.prod(shape[:-1]))], seed=1)
    _check_against_oracle(ad.softmax, oracle_softmax, [regular])
    _check_edge_rows(ad.softmax, oracle_softmax, [mixed])


@pytest.mark.parametrize("shape", [(), (7,), (3, 7)])
def test_rsqrt_safe_fast_path_equals_masked_form(shape):
    deg = np.random.default_rng(2).uniform(0.1, 9.0, size=shape)
    _check_against_oracle(ad.rsqrt_safe, oracle_rsqrt_safe, [deg])
    edge = deg.copy().reshape(-1)
    edge[::3] = 0.0  # zero degree
    edge[1::5] = np.nan
    _check_edge_rows(ad.rsqrt_safe, oracle_rsqrt_safe, [edge.reshape(shape)])


@pytest.mark.parametrize("shape", [(6,), (5, 6), (2, 4, 6), (3, 1)])
def test_layer_norm_fast_path_equals_masked_form(shape):
    d = shape[-1]
    edge = [[np.nan] * d, [1.5] * d, [np.inf] + [0.0] * (d - 1)]  # NaN, zero variance, inf
    regular, mixed = _regular_and_edge_rows(shape, edge[:int(np.prod(shape[:-1]))], seed=3)
    rng = np.random.default_rng(4)
    gamma, beta = rng.normal(size=d), rng.normal(size=d)
    _check_against_oracle(ad.layer_norm, oracle_layer_norm, [regular, gamma, beta])
    _check_edge_rows(ad.layer_norm, oracle_layer_norm, [mixed, gamma, beta])


# ---------------------------------------------------------------------------
# allocator policy: a warm relaxed step reuses the heap the last one freed

FAULT_PROBE = """
import resource

from gtattack import autodiff as ad
from gtattack.autodiff import Tape, Tensor, backward
from gtattack.generators import generate_sbm_cluster
from gtattack.models import RelaxToggles, build_model

g = generate_sbm_cluster(0, nodes_per_cluster_range=(10, 10))
assert g.n == 60
model = build_model("grit", "node", g.features.shape[1], 6, seed=0)


def relaxed_step():
    a = Tensor(g.adjacency, requires_grad=True)
    with Tape():
        backward(ad.tsum(model.forward(a, g.features, RelaxToggles())))


for _ in range(2):
    relaxed_step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    relaxed_step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only")
def test_warm_relaxed_grit_steps_take_no_page_faults():
    # a fresh interpreter: earlier tests' large frees raise glibc's dynamic
    # mmap threshold in this one, which would hide a policy that is not set
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtattack.__file__)))
    path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert int(run.stdout) < 50
