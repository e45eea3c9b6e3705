"""Random-walk transformer with pair representations and a degree scaler.

Positional information enters through stacked random-walk probability
slices P = [I, M, M^2, ...] with M = D^-1 A, which are continuous in the
adjacency, so no forward relaxation is needed; the two toggles only sever
gradient flow (through P, and through the log(1+deg) scaler) while leaving
forward values untouched.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from .common import GraphModel, RelaxToggles, linear, log_prob_row

__all__ = ["GRIT", "rrwp", "pair_activation", "pair_attention"]


def rrwp(atilde: Tensor | np.ndarray, k: int) -> Tensor:
    """Random-walk probability stack, shape (..., n, n, k) for an adjacency
    of shape (..., n, n), as one differentiable op.

    Slice 0 is the identity, slice t is M^t with M = D^-1 A; rows of
    degree-0 nodes are all zero (safe division).  Backward walks the power
    chain back to dM, then through the row scaling M = A * (1/d) to dA.
    """
    if k < 2:
        raise ValueError("rrwp needs k >= 2")
    a = ad.as_tensor(atilde)
    n = a.shape[-1]
    d = a.data.sum(axis=-1, keepdims=True)
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
    m = a.data * inv
    out = np.zeros(a.shape + (k,))
    out[..., np.arange(n), np.arange(n), 0] = 1.0
    out[..., 1] = m
    powers = [m]  # M^1 .. M^(k-1)
    for t in range(2, k):
        powers.append(powers[-1] @ m)
        out[..., t] = powers[-1]
    out = Tensor(out)
    if not ad._live(a):
        return out

    def vjp(g):
        gs = np.moveaxis(g, -1, 0).copy()  # gs[t] = dL/d(M^t), contiguous for BLAS
        mt = m.swapaxes(-1, -2)
        carry = gs[k - 1]  # dL/d(M^t) through every later power, t = k-1 down to 1
        gm = np.zeros_like(m)
        for t in range(k - 1, 1, -1):  # M^t = M^(t-1) @ M
            gm += powers[t - 2].swapaxes(-1, -2) @ carry
            carry = gs[t - 1] + carry @ mt
        gm += carry
        return inv * (gm - (gm * m).sum(axis=-1, keepdims=True))

    return ad._record("rrwp", out, (a,), (vjp,))


def _param_grad(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Gradient of a parameter w in y = x @ w, summed over x's leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ gy.reshape(-1, gy.shape[-1])


def pair_activation(h, e2d, wq, wk, ew, eb) -> Tensor:
    """relu((q_i + k_j) * (e_ij W_ew) + e_ij W_eb) with q = h Wq, k = h Wk,
    for node states h (..., n, d) and pair states e2d (..., n*n, de), as
    one differentiable op of shape (..., n, n, de).

    The forward repeats the composed chain (matmul, broadcast add, mul, add,
    relu) expression for expression, so its values equal it bit for bit.
    """
    h, e2d, wq, wk, ew, eb = map(ad.as_tensor, (h, e2d, wq, wk, ew, eb))
    n = h.shape[-2]
    pair_shape = h.shape[:-2] + (n, n, ew.shape[-1])
    # q_i + k_j, with q repeated row by row: the adds of the broadcast sum
    # q[..., :, None, :] + k[..., None, :, :], over longer inner loops
    qk = np.repeat(h.data @ wq.data, n, axis=-2).reshape(pair_shape)
    qk += (h.data @ wk.data)[..., None, :, :]
    ewv = (e2d.data @ ew.data).reshape(pair_shape)
    act = qk * ewv
    act += (e2d.data @ eb.data).reshape(pair_shape)
    act = np.maximum(act, 0.0, out=act)
    out = Tensor(act)
    if not ad._live(h, e2d, wq, wk, ew, eb):
        return out
    flat = e2d.shape[:-1] + (-1,)
    gate = ad._once(lambda g: g * (act > 0.0))  # relu's VJP: act > 0 exactly where its input is
    grad_ew = ad._once(lambda g: (gate(g) * qk).reshape(flat))

    def grad_qk(g):  # gradients of q (a sum over j, as a matmul) and of k
        gqk = gate(g) * ewv
        return np.ones(n) @ gqk, gqk.sum(axis=-3)

    grad_qk = ad._once(grad_qk)

    def vjp_h(g):
        gq, gk = grad_qk(g)
        return gq @ wq.data.T + gk @ wk.data.T

    def vjp_e2d(g):
        return grad_ew(g) @ ew.data.T + gate(g).reshape(flat) @ eb.data.T

    return ad._record("pair_activation", out, (h, e2d, wq, wk, ew, eb), (
        vjp_h, vjp_e2d,
        lambda g: _param_grad(h.data, grad_qk(g)[0]),
        lambda g: _param_grad(h.data, grad_qk(g)[1]),
        lambda g: _param_grad(e2d.data, grad_ew(g)),
        lambda g: _param_grad(e2d.data, gate(g))))


def pair_attention(h, pair, lp, heads, wo) -> Tensor:
    """concat_h(alpha_h (h W_v,h) + (sum_j alpha_h,ij pair_ij) W_ev,h) @ W_o
    with alpha_h = softmax(pair @ score_h + lp) over j, for node states h
    (..., n, d), pair activations (..., n, n, de), a log-probability bias
    ``lp`` broadcasting to (..., n, n) or None, and ``heads`` a sequence of
    (W_v, score, W_ev) parameter triples; one differentiable op of h's shape.

    Each head aggregates its pair activations before the value projection,
    which equals sum_j alpha_ij (pair_ij W_ev) by linearity.  The forward
    repeats the composed chain (matmul, add, softmax, a (1, n) @ (n, de)
    matmul per row, matmul, add, concat, matmul) expression for expression,
    so its values equal it bit for bit.
    """
    h, pair, wo = ad.as_tensor(h), ad.as_tensor(pair), ad.as_tensor(wo)
    lp = None if lp is None else ad.as_tensor(lp)
    heads = [tuple(map(ad.as_tensor, head)) for head in heads]
    lead = h.shape[:-2]
    n = h.shape[-2]
    pair2d = pair.data.reshape(lead + (n * n, pair.shape[-1]))
    alphas, softmax_vjps, values, aggs, outs = [], [], [], [], []
    for wv, score, ev in heads:
        w = (pair2d @ score.data).reshape(lead + (n, n))
        alpha, softmax_vjp = ad.softmax_parts(w if lp is None else w + lp.data)
        v = h.data @ wv.data
        agg = (alpha.reshape(lead + (n, 1, n)) @ pair.data).reshape(lead + (n, -1))
        outs.append(alpha @ v + agg @ ev.data)
        alphas.append(alpha)
        softmax_vjps.append(softmax_vjp)
        values.append(v)
        aggs.append(agg)
    cat = np.concatenate(outs, axis=-1)
    out = Tensor(cat @ wo.data)
    bias = () if lp is None else (lp,)
    params = [t for head in heads for t in head]
    if not ad._live(h, pair, *bias, *params, wo):
        return out
    bounds = np.cumsum([0] + [o.shape[-1] for o in outs])

    def head_grads(g):
        """Per head, the gradients of its output slice, of its aggregate and
        of its scores before the softmax."""
        gcat = g @ wo.data.T
        gos = [gcat[..., lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        gaggs = [go @ ev.data.T for go, (_, _, ev) in zip(gos, heads)]
        # every head's sum_c pair_ijc gagg_ic as one batched matmul
        through_agg = pair.data @ np.stack(gaggs, axis=-1)
        gscores = [vjp(go @ v.swapaxes(-1, -2) + through_agg[..., i])
                   for i, (go, vjp, v) in enumerate(zip(gos, softmax_vjps, values))]
        return gos, gaggs, gscores

    head_grads = ad._once(head_grads)
    grad_values = ad._once(lambda g: [alpha.swapaxes(-1, -2) @ go
                                      for alpha, go in zip(alphas, head_grads(g)[0])])

    def vjp_h(g):
        return sum(gv @ wv.data.T for gv, (wv, _, _) in zip(grad_values(g), heads))

    def vjp_pair(g):
        # sum_h alpha_h,ij gagg_h,i + gscore_h,ij score_h, one (2H) @ (2H, de) per row
        _, gaggs, gscores = head_grads(g)
        weights = np.stack(alphas + gscores, axis=-1)
        rows = np.stack(gaggs, axis=-2)
        scores = np.broadcast_to(np.concatenate([s.data.T for _, s, _ in heads]),
                                 rows.shape[:-2] + (len(heads), rows.shape[-1]))
        return weights @ np.concatenate((rows, scores), axis=-2)

    def vjp_lp(g):
        return ad._unbroadcast(sum(head_grads(g)[2]), lp.shape)

    def head_vjps(i):
        return (lambda g: _param_grad(h.data, grad_values(g)[i]),
                lambda g: _param_grad(pair.data, head_grads(g)[2][i][..., None]),
                lambda g: _param_grad(aggs[i], head_grads(g)[0][i]))

    vjps = [vjp_h, vjp_pair] + ([vjp_lp] if bias else [])
    vjps += [vjp for i in range(len(heads)) for vjp in head_vjps(i)]
    vjps.append(lambda g: _param_grad(cat, g))
    return ad._record("pair_attention", out, (h, pair, *bias, *params, wo), tuple(vjps))


class GRIT(GraphModel):
    arch = "grit"

    def default_hparams(self) -> dict:
        return {"hidden": 24, "pair_dim": 8, "heads": 2, "layers": 2, "walk_length": 8}

    def _build(self, rng) -> None:
        d = self.hparams["hidden"]
        de = self.hparams["pair_dim"]
        k = self.hparams["walk_length"]
        heads = self.hparams["heads"]
        if d % heads:
            raise ValueError("hidden must be divisible by heads")
        if k < 2:  # rrwp stacks the identity and at least one walk step
            raise ValueError(f"walk_length must be >= 2, got {k}")
        dh = d // heads
        self._param("x.w", (self.feature_dim, d), rng)
        self._param("x.b", (d,), rng, "zeros")
        self._param("pe_node.w", (k, d), rng)
        self._param("pe_pair.w", (k, de), rng)
        self._param("pe_pair.b", (de,), rng, "zeros")
        for l in range(self.hparams["layers"]):
            self._param(f"l{l}.wq", (d, de), rng)
            self._param(f"l{l}.wk", (d, de), rng)
            self._param(f"l{l}.ew", (de, de), rng)
            self._param(f"l{l}.eb", (de, de), rng)
            if l < self.hparams["layers"] - 1:
                self._param(f"l{l}.eback", (de, de), rng)
            else:  # the last layer's pair update has no reader: draw, keep no parameter
                rng.normal(size=(de, de))
            for hh in range(heads):
                self._param(f"l{l}.h{hh}.wv", (d, dh), rng)
                self._param(f"l{l}.h{hh}.score", (de, 1), rng)
                self._param(f"l{l}.h{hh}.ev", (de, dh), rng)
            self._param(f"l{l}.wo", (d, d), rng)
            self._param(f"l{l}.theta1", (d,), rng, "ones")
            self._param(f"l{l}.theta2", (d,), rng, "small")
            self._build_block(l, d, rng)
        self._param("out.w", (d, self.n_classes), rng)
        self._param("out.b", (self.n_classes,), rng, "zeros")

    def forward(self, atilde, features, toggles=RelaxToggles(), node_probs=None) -> Tensor:
        a = ad.as_tensor(atilde)
        n = a.shape[-1]
        lead = a.shape[:-2]
        layers = self.hparams["layers"]
        heads = self.hparams["heads"]
        k = self.hparams["walk_length"]

        p = rrwp(a if toggles.grit_rrwp_grad else ad.stop_gradient(a), k)
        p2d = ad.reshape(p, lead + (n * n, k))
        diag_idx = np.arange(n) * n + np.arange(n)
        node_pe = ad.matmul(ad.gather_rows(p2d, diag_idx), self.p("pe_node.w"))
        h = ad.add(linear(ad.as_tensor(features), self.p("x.w"), self.p("x.b")), node_pe)
        e2d = linear(p2d, self.p("pe_pair.w"), self.p("pe_pair.b"))

        deg = ad.tsum(a, axis=-1)
        if not toggles.grit_deg_grad:
            deg = ad.stop_gradient(deg)
        log_deg = ad.reshape(ad.tlog(ad.add(deg, Tensor(np.ones(n)))), lead + (n, 1))

        lp = None
        if node_probs is not None and toggles.node_prob_bias:
            lp = log_prob_row(node_probs)

        for l in range(layers):
            pair = pair_activation(h, e2d, *(self.p(f"l{l}.{w}") for w in ("wq", "wk", "ew", "eb")))
            attn = pair_attention(h, pair, lp, [
                tuple(self.p(f"l{l}.h{hh}.{w}") for w in ("wv", "score", "ev"))
                for hh in range(heads)], self.p(f"l{l}.wo"))
            scaled = ad.add(
                ad.mul(attn, self.p(f"l{l}.theta1")),
                ad.mul(log_deg, ad.mul(attn, self.p(f"l{l}.theta2"))),
            )
            h = self._block(h, scaled, l)
            if l < layers - 1:
                e2d = ad.add(e2d, ad.matmul(ad.reshape(pair, e2d.shape), self.p(f"l{l}.eback")))
        return self._readout(h, node_probs)
