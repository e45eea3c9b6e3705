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
from .common import GraphModel, RelaxToggles, ScoreBias, attention, linear, log_prob_row

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

    def _head_bias(self, spd: Tensor, hh: int) -> ScoreBias:
        """Head ``hh``'s distance bias on the attention scores; graph tasks
        add the virtual node's learned scalar on its row and column."""
        virtual = self.p(f"spd.h{hh}.virtual") if self.task == "graph" else None
        bias = spd_bias(spd, self.p(f"spd.h{hh}.table"), self.p(f"spd.h{hh}.unreachable"), virtual)
        return ScoreBias(bias.data[..., 0], source=bias, vjp=lambda g: g[..., None])

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
        for l in range(self.hparams["layers"]):
            heads_l = [(self.p(f"l{l}.h{hh}.wv"),
                        [(self.p(f"l{l}.h{hh}.wq"), self.p(f"l{l}.h{hh}.wk"), biases[hh])])
                       for hh in range(heads)]
            h = self._block(h, attention(h, heads_l, self.p(f"l{l}.wo"), lp, (1.0,)), l)

        if self.task == "graph":  # the virtual node reads out the graph
            h = ad.gather_rows(h, np.array([h.shape[-2] - 1]))
        return linear(h, self.p("out.w"), self.p("out.b"))
