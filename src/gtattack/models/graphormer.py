"""Distance-bias transformer: degree embeddings + shortest-path attention bias.

Both positional components are lookup tables indexed by integers, so the
relaxed path linearly interpolates them: degrees interpolate between the
two nearest embedding rows, and shortest-path distances are measured on
reciprocal edge weights (see :mod:`gtattack.paths`) before interpolating
the per-head bias table.  Graph-level tasks add a virtual node that
attends everywhere through its own learnable bias and serves as the
readout.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from .._kernels import bfs_hops
from ..autodiff import Tensor
from ..paths import interp_table, rspd_matrix, spd_bias
from .common import GraphModel, RelaxToggles, attention_nodeprob_bias, linear, log_prob_row

__all__ = ["Graphormer", "degree_pe"]


def degree_pe(deg: Tensor, table: Tensor, relaxed: bool) -> Tensor:
    """Degree positional embeddings.

    Relaxed: linear interpolation between the rows of the two nearest
    integer degrees (exact rows at integer degrees, clamping at the top).
    Unrelaxed: rounded integer lookup with no gradient to the degree, for
    degrees of any shape (leading axes stack graphs).
    """
    if relaxed:
        return interp_table(table, deg)
    idx = np.clip(np.rint(deg.data), 0, table.shape[0] - 1).astype(np.int64)
    rows = ad.gather_rows(table, idx.reshape(-1))
    return ad.reshape(rows, idx.shape + (table.shape[1],))


class Graphormer(GraphModel):
    arch = "graphormer"

    def default_hparams(self) -> dict:
        return {"hidden": 32, "heads": 2, "layers": 2, "max_degree": 64, "max_spd": 20}

    def _build(self, rng) -> None:
        d = self.hparams["hidden"]
        heads = self.hparams["heads"]
        if d % heads:
            raise ValueError("hidden must be divisible by heads")
        self._param("x.w", (self.feature_dim, d), rng)
        self._param("x.b", (d,), rng, "zeros")
        self._param("deg_table", (self.hparams["max_degree"] + 1, d), rng, "small")
        for hh in range(heads):
            self._param(f"spd.h{hh}.table", (self.hparams["max_spd"] + 1, 1), rng, "small")
            self._param(f"spd.h{hh}.unreachable", (1,), rng, "small")
            self._param(f"spd.h{hh}.virtual", (1,), rng, "small")
        if self.task == "graph":
            self._param("virtual_emb", (1, d), rng, "small")
        for l in range(self.hparams["layers"]):
            for hh in range(heads):
                dh = d // heads
                self._param(f"l{l}.h{hh}.wq", (d, dh), rng)
                self._param(f"l{l}.h{hh}.wk", (d, dh), rng)
                self._param(f"l{l}.h{hh}.wv", (d, dh), rng)
            self._param(f"l{l}.wo", (d, d), rng)
            self._build_block(l, d, rng)
        self._param("out.w", (d, self.n_classes), rng)
        self._param("out.b", (self.n_classes,), rng, "zeros")

    def _head_bias(self, spd: Tensor, hh: int) -> Tensor:
        n = spd.shape[-1]
        lead = spd.shape[:-2]
        bias = spd_bias(spd, self.p(f"spd.h{hh}.table"), self.p(f"spd.h{hh}.unreachable"))
        bias = ad.reshape(bias, spd.shape)
        if self.task != "graph":
            return bias
        # append the virtual node: its incident biases are a learned scalar
        bv = self.p(f"spd.h{hh}.virtual")
        col = ad.mul(Tensor(np.ones(lead + (n, 1))), ad.reshape(bv, (1, 1)))
        row = ad.mul(Tensor(np.ones(lead + (1, n + 1))), ad.reshape(bv, (1, 1)))
        return ad.concat([ad.concat([bias, col], axis=-1), row], axis=-2)

    def forward(self, atilde, features, toggles=RelaxToggles(), node_probs=None) -> Tensor:
        a = ad.as_tensor(atilde)
        if toggles.graphormer_spd:
            spd = rspd_matrix(a)
        else:
            spd = Tensor(bfs_hops(np.rint(a.data)))
        lead = a.shape[:-2]
        heads = self.hparams["heads"]
        deg = ad.tsum(a, axis=-1)
        h = ad.add(linear(ad.as_tensor(features), self.p("x.w"), self.p("x.b")),
                   degree_pe(deg, self.p("deg_table"), toggles.graphormer_deg))
        if self.task == "graph":
            virtual = ad.mul(Tensor(np.ones(lead + (1, 1))), self.p("virtual_emb"))
            h = ad.concat([h, virtual], axis=-2)

        lp = None
        if node_probs is not None and toggles.node_prob_bias:
            p_full = node_probs
            if self.task == "graph":
                p_full = ad.concat([node_probs, Tensor(np.ones(1))], axis=0)
            lp = log_prob_row(p_full)

        biases = [self._head_bias(spd, hh) for hh in range(heads)]
        scale = 1.0 / np.sqrt(self.hparams["hidden"] // heads)
        for l in range(self.hparams["layers"]):
            outs = []
            for hh in range(heads):
                q = ad.matmul(h, self.p(f"l{l}.h{hh}.wq"))
                k = ad.matmul(h, self.p(f"l{l}.h{hh}.wk"))
                v = ad.matmul(h, self.p(f"l{l}.h{hh}.wv"))
                w = ad.add(ad.mul(ad.matmul(q, ad.transpose(k)), scale), biases[hh])
                outs.append(ad.matmul(attention_nodeprob_bias(w, lp), v))
            h = self._block(h, ad.matmul(ad.concat(outs, axis=-1), self.p(f"l{l}.wo")), l)

        if self.task == "graph":  # the virtual node reads out the graph
            h = ad.gather_rows(h, np.array([h.shape[-2] - 1]))
        return linear(h, self.p("out.w"), self.p("out.b"))
