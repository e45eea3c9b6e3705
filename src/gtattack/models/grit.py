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
from .common import GraphModel, RelaxToggles, attention_nodeprob_bias, linear, log_prob_row

__all__ = ["GRIT", "rrwp"]


def rrwp(atilde: Tensor | np.ndarray, k: int) -> Tensor:
    """Random-walk probability stack, shape (..., n, n, k) for an adjacency
    of shape (..., n, n).

    Slice 0 is the identity, slice t is M^t with M = D^-1 A; rows of
    degree-0 nodes are all zero (safe division).
    """
    if k < 2:
        raise ValueError("rrwp needs k >= 2")
    a = ad.as_tensor(atilde)
    n = a.shape[-1]
    lead = a.shape[:-2]
    d = ad.tsum(a, axis=-1)
    inv = ad.mul(ad.rsqrt_safe(d), ad.rsqrt_safe(d))  # 1/d where d > 0 else 0
    m = ad.mul(a, ad.reshape(inv, lead + (n, 1)))
    eye = np.zeros(a.shape)
    eye[..., np.arange(n), np.arange(n)] = 1.0
    slices = [Tensor(eye), m]
    power = m
    for _ in range(k - 2):
        power = ad.matmul(power, m)
        slices.append(power)
    return ad.concat([ad.reshape(s, a.shape + (1,)) for s in slices], axis=-1)


def _pair_aggregate(alpha: Tensor, ev: Tensor) -> Tensor:
    """out[..., i, :] = sum_j alpha[..., i, j] * ev[..., i, j, :] for
    attention (..., n, n) and pair values (..., n, n, d): one batched
    (1, n) @ (n, d) matmul per row."""
    rows = alpha.shape[:-1]
    out = ad.matmul(ad.reshape(alpha, rows + (1, alpha.shape[-1])), ev)
    return ad.reshape(out, rows + (ev.shape[-1],))


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
            self._param(f"l{l}.eback", (de, de), rng)
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
        de = self.hparams["pair_dim"]

        p = rrwp(a, k)
        if not toggles.grit_rrwp_grad:
            p = ad.stop_gradient(p)
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
            # pair-conditioned activation: relu((q_i + k_j) * (W e_ij) + W' e_ij)
            q = ad.matmul(h, self.p(f"l{l}.wq"))
            kk = ad.matmul(h, self.p(f"l{l}.wk"))
            qk = ad.outer_add(q, kk)
            ew = ad.reshape(ad.matmul(e2d, self.p(f"l{l}.ew")), lead + (n, n, de))
            eb = ad.reshape(ad.matmul(e2d, self.p(f"l{l}.eb")), lead + (n, n, de))
            pairact = ad.relu(ad.add(ad.mul(qk, ew), eb))
            pair2d = ad.reshape(pairact, lead + (n * n, de))
            outs = []
            for hh in range(heads):
                w = ad.reshape(ad.matmul(pair2d, self.p(f"l{l}.h{hh}.score")), lead + (n, n))
                alpha = attention_nodeprob_bias(w, lp)
                v_h = ad.matmul(h, self.p(f"l{l}.h{hh}.wv"))
                ev_h = ad.reshape(ad.matmul(pair2d, self.p(f"l{l}.h{hh}.ev")), lead + (n, n, -1))
                outs.append(ad.add(ad.matmul(alpha, v_h), _pair_aggregate(alpha, ev_h)))
            attn = ad.matmul(ad.concat(outs, axis=-1), self.p(f"l{l}.wo"))
            scaled = ad.add(
                ad.mul(attn, self.p(f"l{l}.theta1")),
                ad.mul(log_deg, ad.mul(attn, self.p(f"l{l}.theta2"))),
            )
            h = self._block(h, scaled, l)
            if l < layers - 1:  # the last layer's pair update has no reader
                e2d = ad.add(e2d, ad.matmul(pair2d, self.p(f"l{l}.eback")))
        return self._readout(h, node_probs)
