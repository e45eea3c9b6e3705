"""Shared model machinery: toggles, parameter store, the attention and
layer-tail ops, pooling helpers."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import Count, check_value

__all__ = [
    "RelaxToggles",
    "UNRELAXED",
    "GraphModel",
    "ScoreBias",
    "attention",
    "layer_tail",
    "linear",
    "pool_weighted",
    "log_prob_row",
]


@dataclass(frozen=True)
class RelaxToggles:
    """Which continuous relaxations are active (ablation axes).

    The GRIT toggles gate gradient flow only; all others change how the
    relaxed forward treats a continuous adjacency.  Discrete inputs give
    the same forward values for every combination.
    """

    graphormer_deg: bool = True
    graphormer_spd: bool = True
    san_attention: bool = True
    san_lap_pert: bool = True
    grit_rrwp_grad: bool = True
    grit_deg_grad: bool = True
    node_prob_bias: bool = True

    @classmethod
    def none(cls) -> "RelaxToggles":
        return cls(**{f.name: False for f in fields(cls)})

    def to_dict(self) -> dict[str, bool]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "RelaxToggles":
        """Toggles from a name -> bool mapping; names left out stay on."""
        check_value(d, cls, "toggles")
        return cls(**d)


UNRELAXED = RelaxToggles.none()


class GraphModel:
    """Base class: a named parameter dict plus checkpoint (de)serialization.

    Subclasses implement ``_build`` (parameter creation) and ``forward``
    (the relaxed path over a continuous adjacency).  The true model on
    discrete graphs is ``forward`` with every relaxation off, which
    ``forward_discrete`` names.  ``forward`` takes a stack of equal-size
    graphs, adjacency ``(..., n, n)`` and features ``(..., n, f)`` with the
    same leading axes, and returns logits ``(..., n, c)`` (node task) or
    ``(..., 1, c)`` (graph task); a single graph is the same call without
    leading axes.  Each slice of a stacked result equals the single-graph
    result bit for bit; only Graphormer's relaxed shortest paths
    (``graphormer_spd``) take one graph, and raise ``ShapeError`` on a stack.

    Parameters are constants (``requires_grad`` off), so attack gradients
    skip them; ``train_model`` switches them on while it trains.
    """

    arch = "base"

    def __init__(self, task: str, feature_dim: int, n_classes: int, seed: int = 0, **hparams):
        check_value(task, Literal["node", "graph"], "task")
        self.task = task
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self.seed = seed
        self.hparams = dict(self.default_hparams())
        unknown = set(hparams) - set(self.hparams)
        if unknown:
            raise ValueError(f"{self.arch}: unknown hparams {sorted(unknown)}")
        for name, value in hparams.items():  # the type of the default: int sizes, or floats
            check_value(value, Count if type(self.hparams[name]) is int else float,
                        f"hparams.{name}")
        self.hparams.update(hparams)
        self.params: dict[str, Tensor] = {}
        self._build(np.random.default_rng(seed))

    # -- subclass hooks -----------------------------------------------------
    def default_hparams(self) -> dict:
        return {}

    def _build(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def forward(self, atilde, features, toggles=RelaxToggles(), node_probs=None) -> Tensor:
        raise NotImplementedError

    def forward_discrete(self, adjacency: np.ndarray, features: np.ndarray) -> Tensor:
        """Unrelaxed logits of (stacked) discrete graphs; see the class docstring."""
        return self.forward(Tensor(adjacency), features, UNRELAXED)

    # -- shared layer tail and readout ----------------------------------------
    def _build_block(self, l: int, d: int, rng) -> None:
        """Parameters of layer ``l``'s residual LayerNorms and feed-forward net."""
        self._param(f"l{l}.ln1.g", (d,), rng, "ones")
        self._param(f"l{l}.ln1.b", (d,), rng, "zeros")
        self._param(f"l{l}.ln2.g", (d,), rng, "ones")
        self._param(f"l{l}.ln2.b", (d,), rng, "zeros")
        self._param(f"l{l}.ffn.w1", (d, 2 * d), rng)
        self._param(f"l{l}.ffn.b1", (2 * d,), rng, "zeros")
        self._param(f"l{l}.ffn.w2", (2 * d, d), rng)
        self._param(f"l{l}.ffn.b2", (d,), rng, "zeros")

    def _block(self, h: Tensor, update: Tensor, l: int) -> Tensor:
        """Post-norm tail of layer ``l``: h = LN(h + update), then LN(h + FFN(h))."""
        return layer_tail(h, update, *(self.p(f"l{l}.{name}") for name in TAIL_PARAMS))

    def _readout(self, h: Tensor, node_probs: Tensor | None) -> Tensor:
        """Output head over (..., n, d) node states: per-node logits, or the
        probability-weighted mean over nodes as one (..., 1, c) row."""
        if self.task == "graph":
            pooled = pool_weighted(h, node_probs)
            h = ad.reshape(pooled, h.shape[:-2] + (1, h.shape[-1]))
        return linear(h, self.p("out.w"), self.p("out.b"))

    # -- parameters ----------------------------------------------------------
    def _param(self, name: str, shape: tuple[int, ...], rng, kind: str = "glorot") -> Tensor:
        if kind == "glorot":
            fan_in = shape[0]
            fan_out = shape[-1]
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            data = rng.normal(0.0, scale, size=shape)
        elif kind == "zeros":
            data = np.zeros(shape)
        elif kind == "ones":
            data = np.ones(shape)
        elif kind == "small":
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            raise ValueError(kind)
        t = Tensor(data, name=name)
        self.params[name] = t
        return t

    def p(self, name: str) -> Tensor:
        return self.params[name]

    # -- checkpoints ----------------------------------------------------------
    def to_doc(self) -> dict:
        return {
            "arch": self.arch,
            "task": self.task,
            "feature_dim": self.feature_dim,
            "n_classes": self.n_classes,
            "seed": self.seed,
            "hparams": self.hparams,
            "params": {k: v.data.reshape(-1).tolist() for k, v in self.params.items()},
            "shapes": {k: list(v.shape) for k, v in self.params.items()},
        }

    def load_doc(self, doc: dict) -> None:
        """Parameter values from a ``to_doc`` document.  ValueError, naming
        the parameter, at the first one this model has and the document
        lacks or holds in another shape, then at the first one the document
        has and this model lacks; no parameter changes then."""
        params, shapes = doc["params"], doc["shapes"]
        loaded = {}
        for k, t in self.params.items():
            if k not in params or k not in shapes:
                raise ValueError(f"checkpoint lacks parameter {k!r}")
            flat = np.asarray(params[k], dtype=np.float64)
            if list(shapes[k]) != list(t.shape) or flat.shape != (t.size,):
                raise ValueError(f"checkpoint parameter {k!r} has shape {list(shapes[k])} and "
                                 f"{flat.size} values; {self.arch} expects {list(t.shape)}")
            loaded[k] = flat.reshape(t.shape)
        unexpected = [k for k in params if k not in self.params]
        if unexpected:
            raise ValueError(f"checkpoint has parameter {unexpected[0]!r}, which {self.arch} lacks")
        for k, data in loaded.items():
            self.params[k].data = data


# ---------------------------------------------------------------------------
# helpers


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = ad.matmul(x, w)
    return out if b is None else ad.add(out, b)


def pool_weighted(node_reps: Tensor, node_probs: Tensor | None) -> Tensor:
    """Probability-weighted mean of (..., n, d) node representations over
    the node axis; probs of 1 (or None) give the plain mean."""
    nodes = node_reps.shape[:-1]
    if node_probs is None:
        node_probs = Tensor(np.ones(nodes))
    pvals = node_probs.data
    if (pvals < 0.0).any() or (pvals > 1.0).any():
        raise ValueError("node probabilities must lie in [0, 1]")
    weighted = ad.mul(node_reps, ad.reshape(node_probs, nodes + (1,)))
    total = ad.tsum(weighted, axis=-2)
    mass = ad.tsum(node_probs, axis=-1, keepdims=True)
    if (mass.data == 0.0).any():
        raise ValueError("pool_weighted: zero total probability")
    return ad.div(total, mass)


def log_prob_row(node_probs: Tensor) -> Tensor:
    """log p as a (1, n) row for biasing attention scores columnwise."""
    pvals = node_probs.data
    if (pvals < 0.0).any() or (pvals > 1.0).any():
        raise ValueError("node probabilities must lie in [0, 1]")
    if not (pvals > 0.0).any():
        raise ValueError("log_prob_row: all node probabilities are zero")
    n = node_probs.shape[0]
    return ad.reshape(ad.tlog(node_probs), (1, n))


# ---------------------------------------------------------------------------
# recorded ops: attention and the layer tail
#
# Both forwards repeat the numpy expressions of the composed chains of
# primitives they replace, so their values equal them bit for bit.  Each op
# lists an input once per consumer in that chain, in reverse creation order,
# so that its gradient accumulates in the chain's order and keeps its bits.


class ScoreBias(NamedTuple):
    """What one attention branch adds to its scaled scores w: ``values``,
    which broadcast to w.  ``vjp`` maps the gradient of the biased scores
    to the gradient of ``source``, the tensor the values come from; a
    constant bias, such as the 0 / -inf of a hard branch, has neither."""

    values: np.ndarray
    source: Tensor | None = None
    vjp: Callable | None = None


def attention(h, heads: Sequence, wo, lp, mix: Sequence[float]) -> Tensor:
    """Multi-head attention over node states h (..., n, d) as one recorded
    op: concat_h(alpha_h (h W_v,h)) @ W_o.

    ``heads`` holds per head a pair (W_v, branches), and each branch a
    triple (W_q, W_k, ScoreBias); every head has the same number of
    branches.  Branch b of a head has scores w_b = (h W_q)(h W_k)^T / sqrt(d_head)
    with its bias applied, and weights softmax(w_b + lp) over the last axis,
    ``lp`` a log-probability row (see ``log_prob_row``) or None, and
    alpha_h = sum_b mix_b softmax(w_b + lp).  Heads and branches are
    batched on a leading axis, with their parameters stacked per call.

    Values repeat the composed chain (per head: per branch two matmuls,
    then the value matmul; transpose, matmul, mul, bias, add, softmax, mul
    and add per branch; matmul; then concat and matmul by W_o).  Each head's
    consumers of h are its value projection, then per branch, the last
    first, its key and query projections.
    """
    h, wo = ad.as_tensor(h), ad.as_tensor(wo)
    lp = None if lp is None else ad.as_tensor(lp)
    wvs = [ad.as_tensor(wv) for wv, _ in heads]
    branches = [(ad.as_tensor(wq), ad.as_tensor(wk), bias)
                for _, head in heads for wq, wk, bias in head]
    n_heads = len(heads)
    n_br = len(branches) // n_heads
    x = h.data
    lead, n = x.shape[:-2], x.shape[-2]

    def stacked(ws):  # (k, 1.., d, d_head): broadcasts against x's leading axes
        w = np.array([w.data for w in ws])
        return w.reshape((len(ws),) + (1,) * len(lead) + w.shape[1:]) if lead else w

    wq = stacked([b[0] for b in branches])
    wk = stacked([b[1] for b in branches])
    wv = stacked(wvs)
    q, k, v = x @ wq, x @ wk, x @ wv
    scale = 1.0 / np.sqrt(wq.shape[-1])
    w = q @ k.swapaxes(-1, -2)
    w *= scale
    for wb, (_, _, bias) in zip(w, branches):
        wb += bias.values
    if lp is not None:
        w += lp.data
    y, softmax_vjp = ad.softmax_parts(w)
    yb = y.reshape((n_heads, n_br) + y.shape[1:])
    alpha = yb[:, 0] * mix[0]
    for b in range(1, n_br):
        alpha = alpha + yb[:, b] * mix[b]
    o = alpha @ v
    dh = o.shape[-1]
    cat = np.concatenate(o, axis=-1)  # the heads' outputs side by side
    out = ad._wrap(cat @ wo.data)
    bias_srcs = [(j, bias) for j, (_, _, bias) in enumerate(branches) if bias.source is not None]
    params = [t for b in branches for t in b[:2]] + wvs + [wo]
    sources = [b.source for _, b in bias_srcs] + ([] if lp is None else [lp])
    if not ad._live(h, *sources, *params):
        return out

    def chain(g):
        """Per head and branch: the gradients of the biased scores ("w"), of
        the projections q, k and v, and h's gradient through each of them."""
        # each head's slice of the concat's gradient, as a view
        g_cat = (g @ wo.data.swapaxes(-1, -2)).reshape(lead + (n, n_heads, dh))
        g_heads = g_cat.transpose((g_cat.ndim - 2,) + tuple(range(g_cat.ndim - 2)) + (g_cat.ndim - 1,))
        g_alpha = g_heads @ v.swapaxes(-1, -2)
        g_v = alpha.swapaxes(-1, -2) @ g_heads
        weights = np.reshape(mix, (1, n_br) + (1,) * (g_alpha.ndim - 1))
        g_w = softmax_vjp((g_alpha[:, None] * weights).reshape(y.shape))
        g_s = g_w * scale
        g_q = g_s @ k
        g_k = (q.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
        return {"w": g_w, "q": g_q, "k": g_k, "v": g_v, "h_q": g_q @ wq.swapaxes(-1, -2),
                "h_k": g_k @ wk.swapaxes(-1, -2), "h_v": g_v @ wv.swapaxes(-1, -2)}

    chain = ad._once(chain)
    inputs, vjps = [], []
    for i in reversed(range(n_heads)):
        inputs.append(h)
        vjps.append(lambda g, i=i: chain(g)["h_v"][i])
        for j in reversed(range(i * n_br, (i + 1) * n_br)):
            inputs += [h, h]
            vjps += [lambda g, j=j: chain(g)["h_k"][j], lambda g, j=j: chain(g)["h_q"][j]]
    for j, bias in reversed(bias_srcs):
        inputs.append(bias.source)
        vjps.append(lambda g, j=j, f=bias.vjp: f(chain(g)["w"][j]))
    if lp is not None:
        for j in reversed(range(len(branches))):
            inputs.append(lp)
            vjps.append(lambda g, j=j: ad._unbroadcast(chain(g)["w"][j], lp.shape))
    for j, (wq_j, wk_j, _) in enumerate(branches):
        inputs += [wq_j, wk_j]
        vjps += [lambda g, j=j, s=wq_j.shape: ad._right_grad(x, chain(g)["q"][j], s),
                 lambda g, j=j, s=wk_j.shape: ad._right_grad(x, chain(g)["k"][j], s)]
    for i, wv_i in enumerate(wvs):
        inputs.append(wv_i)
        vjps.append(lambda g, i=i, s=wv_i.shape: ad._right_grad(x, chain(g)["v"][i], s))
    inputs.append(wo)
    vjps.append(lambda g: ad._right_grad(cat, g, wo.shape))
    return ad._record("attention", out, tuple(inputs), tuple(vjps))


TAIL_PARAMS = ("ln1.g", "ln1.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.g", "ln2.b")


def layer_tail(h, update, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b) -> Tensor:
    """Post-norm layer tail over node states h (..., n, d) as one recorded
    op: x = LN1(h + update), then LN2(x + relu(x W1 + b1) W2 + b2).

    Values and gradients repeat the composed chain (add, layer_norm,
    matmul, add, relu, matmul, add, add, layer_norm) expression for
    expression; x's gradient sums the residual's before the FFN's, as that
    chain accumulates it.
    """
    ts = tuple(map(ad.as_tensor, (h, update, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b)))
    h, update, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = ts
    x, ln1 = ad.layer_norm_parts(h.data + update.data, ln1_g.data, ln1_b.data)
    pre = x @ w1.data + b1.data
    act = np.maximum(pre, 0.0)
    y, ln2 = ad.layer_norm_parts(x + (act @ w2.data + b2.data), ln2_g.data, ln2_b.data)
    out = ad._wrap(y)
    if not ad._live(*ts):
        return out
    (ln1_x, ln1_g_vjp, ln1_b_vjp), (ln2_x, ln2_g_vjp, ln2_b_vjp) = ln1, ln2

    def chain(g):
        """The gradients of LN2's input (also the FFN output's), of the
        FFN's pre-activation, of x, and of LN1's input."""
        g_res = ln2_x(g)
        g_pre = (g_res @ w2.data.swapaxes(-1, -2)) * (pre > 0.0)
        g_x = g_res + g_pre @ w1.data.swapaxes(-1, -2)
        return g_res, g_pre, g_x, ln1_x(g_x)

    chain = ad._once(chain)
    return ad._record("layer_tail", out, ts, (
        lambda g: ad._unbroadcast(chain(g)[3], h.shape),
        lambda g: ad._unbroadcast(chain(g)[3], update.shape),
        lambda g: ln1_g_vjp(chain(g)[2]),
        lambda g: ln1_b_vjp(chain(g)[2]),
        lambda g: ad._right_grad(x, chain(g)[1], w1.shape),
        lambda g: ad._unbroadcast(chain(g)[1], b1.shape),
        lambda g: ad._right_grad(act, chain(g)[0], w2.shape),
        lambda g: ad._unbroadcast(chain(g)[0], b2.shape),
        ln2_g_vjp,
        ln2_b_vjp))
