"""Graph convolutional network baseline (symmetric normalization, self-loops).

Message passing is already a continuous function of the adjacency, so the
relaxed and target forward passes share one code path.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from .common import GraphModel, RelaxToggles, linear

__all__ = ["GCN"]


class GCN(GraphModel):
    arch = "gcn"

    def default_hparams(self) -> dict:
        return {"hidden": 32, "layers": 3}

    def _build(self, rng) -> None:
        h = self.hparams["hidden"]
        dims = [self.feature_dim] + [h] * self.hparams["layers"]
        for i in range(self.hparams["layers"]):
            self._param(f"conv{i}.w", (dims[i], dims[i + 1]), rng)
            self._param(f"conv{i}.b", (dims[i + 1],), rng, "zeros")
        self._param("out.w", (h, self.n_classes), rng)
        self._param("out.b", (self.n_classes,), rng, "zeros")

    @staticmethod
    def _propagation(atilde: Tensor) -> Tensor:
        n = atilde.shape[-1]
        lead = atilde.shape[:-2]
        with_loops = ad.masked_fill(atilde, np.eye(n, dtype=bool), 1.0)
        d = ad.tsum(with_loops, axis=-1)
        s = ad.rsqrt_safe(d)
        scale = ad.mul(ad.reshape(s, lead + (n, 1)), ad.reshape(s, lead + (1, n)))
        return ad.mul(with_loops, scale)

    def forward(self, atilde, features, toggles=RelaxToggles(), node_probs=None) -> Tensor:
        prop = self._propagation(ad.as_tensor(atilde))
        h = ad.as_tensor(features)
        for i in range(self.hparams["layers"]):
            h = ad.relu(linear(ad.matmul(prop, h), self.p(f"conv{i}.w"), self.p(f"conv{i}.b")))
        return self._readout(h, node_probs)
