"""Spectral-PE transformer with separate real/fake-edge attention branches.

Node positional encodings come from the k smallest Laplacian eigenpairs,
processed by a small transformer encoder.  During attacks the
eigendecomposition is approximated to first order around a clean
``SpectralReference`` (see :mod:`gtattack.spectral`); the dual attention
relaxes the binary real/fake edge decision by pushing log(A) / log(1-A)
biases into the two branch softmaxes, which reproduces the hard branches
exactly on discrete inputs.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..graphs import laplacian_sym, laplacian_sym_tensor
from ..spectral import EigenDecomposition, SpectralReference, eig_sym, perturbed_eigenpairs
from .common import GraphModel, RelaxToggles, ScoreBias, attention, linear, log_prob_row

__all__ = ["SAN"]


def _cols(t: Tensor, idx: np.ndarray) -> Tensor:
    return ad.transpose(ad.gather_rows(ad.transpose(t), idx))


def _log_bias(a: Tensor, complement: bool = False) -> ScoreBias:
    """log A (the real-edge branch) or log(1 - A) (the fake-edge branch) as
    an attention score bias, with the gradient in A that ``tlog(a)`` or
    ``tlog(sub(1.0, a))`` gives."""
    values, vjp = ad.log_parts(1.0 - a.data if complement else a.data)
    return ScoreBias(values, source=a, vjp=(lambda g: np.negative(vjp(g))) if complement else vjp)


class SAN(GraphModel):
    arch = "san"

    def default_hparams(self) -> dict:
        return {
            "hidden": 32,
            "pe_dim": 8,
            "eigenpairs": 8,
            "heads": 2,
            "layers": 2,
            "gamma": 1.0,
        }

    def _build(self, rng) -> None:
        d = self.hparams["hidden"]
        dp = self.hparams["pe_dim"]
        heads = self.hparams["heads"]
        if d % heads:
            raise ValueError("hidden must be divisible by heads")
        if d <= dp:
            raise ValueError("hidden must exceed pe_dim")
        if self.hparams["gamma"] < 0.0:  # the fake branch's weight gamma / (1 + gamma)
            raise ValueError(f"gamma must be >= 0, got {self.hparams['gamma']}")
        self._param("x.w", (self.feature_dim, d - dp), rng)
        self._param("x.b", (d - dp,), rng, "zeros")
        # eigen-token encoder (1-layer transformer over k tokens per node)
        self._param("lpe.tok.w", (2, dp), rng)
        self._param("lpe.tok.b", (dp,), rng, "zeros")
        for name in ("wq", "wk", "wv"):
            self._param(f"lpe.{name}", (dp, dp), rng)
        self._param("lpe.ffn.w1", (dp, 2 * dp), rng)
        self._param("lpe.ffn.b1", (2 * dp,), rng, "zeros")
        self._param("lpe.ffn.w2", (2 * dp, dp), rng)
        self._param("lpe.ffn.b2", (dp,), rng, "zeros")
        dh = d // heads
        for l in range(self.hparams["layers"]):
            for hh in range(heads):
                for name in ("wq_real", "wk_real", "wq_fake", "wk_fake", "wv"):
                    self._param(f"l{l}.h{hh}.{name}", (d, dh), rng)
            self._param(f"l{l}.wo", (d, d), rng)
            self._build_block(l, d, rng)
        self._param("out.w", (d, self.n_classes), rng)
        self._param("out.b", (self.n_classes,), rng, "zeros")

    # -- positional encodings -------------------------------------------------
    def lpe(self, eigenvalues: Tensor, eigenvectors: Tensor) -> Tensor:
        """Per-node PE from the k smallest eigenpairs (zero-padded if k > n);
        eigenvalues (..., n) and eigenvectors (..., n, n) give (..., n, pe_dim)."""
        n = eigenvectors.shape[-1]
        lead = eigenvectors.shape[:-2]
        k = self.hparams["eigenpairs"]
        dp = self.hparams["pe_dim"]
        keep = min(k, n)
        lam_k = ad.gather_rows(ad.reshape(eigenvalues, lead + (n, 1)), np.arange(keep))
        u_k = _cols(eigenvectors, np.arange(keep))
        if keep < k:
            lam_k = ad.concat([lam_k, Tensor(np.zeros(lead + (k - keep, 1)))], axis=-2)
            u_k = ad.concat([u_k, Tensor(np.zeros(lead + (n, k - keep)))], axis=-1)
        # tokens: (..., n, k, 2) rows of (lambda_t, U_{i,t})
        lam_grid = ad.add(Tensor(np.zeros(lead + (n, k))), ad.reshape(lam_k, lead + (1, k)))
        tokens = ad.concat(
            [ad.reshape(lam_grid, lead + (n, k, 1)), ad.reshape(u_k, lead + (n, k, 1))], axis=-1
        )
        t2d = linear(ad.reshape(tokens, lead + (n * k, 2)), self.p("lpe.tok.w"), self.p("lpe.tok.b"))
        t3d = ad.reshape(t2d, lead + (n, k, dp))
        q = ad.reshape(ad.matmul(t2d, self.p("lpe.wq")), lead + (n, k, dp))
        kk = ad.reshape(ad.matmul(t2d, self.p("lpe.wk")), lead + (n, k, dp))
        v = ad.reshape(ad.matmul(t2d, self.p("lpe.wv")), lead + (n, k, dp))
        scores = ad.mul(ad.matmul(q, ad.transpose(kk)), 1.0 / np.sqrt(dp))
        mixed = ad.add(t3d, ad.matmul(ad.softmax(scores), v))
        m2d = ad.reshape(mixed, lead + (n * k, dp))
        ffn = linear(ad.relu(linear(m2d, self.p("lpe.ffn.w1"), self.p("lpe.ffn.b1"))),
                     self.p("lpe.ffn.w2"), self.p("lpe.ffn.b2"))
        return ad.tmean(ad.reshape(ad.add(m2d, ffn), lead + (n, k, dp)), axis=-2)

    # -- entry point ---------------------------------------------------------------
    def forward(self, atilde, features, toggles=RelaxToggles(), node_probs=None,
                spectral_ref: SpectralReference | None = None,
                decomp: EigenDecomposition | None = None) -> Tensor:
        """``spectral_ref`` is the base point of the perturbed eigenpairs
        (``san_lap_pert``); without it, or with the toggle off, ``decomp``
        holds the Laplacian eigenpairs of the same stack when the caller has
        them already."""
        a = ad.as_tensor(atilde)
        if toggles.san_lap_pert and spectral_ref is not None:
            lam, u = perturbed_eigenpairs(
                spectral_ref, ad.sub(laplacian_sym_tensor(a), Tensor(spectral_ref.lap)))
        else:
            if decomp is None:
                decomp = eig_sym(laplacian_sym(a.data))
            lam, u = Tensor(decomp.eigenvalues), Tensor(decomp.eigenvectors)
        pe = self.lpe(lam, u)
        h = ad.concat([linear(ad.as_tensor(features), self.p("x.w"), self.p("x.b")), pe], axis=-1)
        lp = None
        if node_probs is not None and toggles.node_prob_bias:
            lp = log_prob_row(node_probs)
        # each head mixes a real-edge and a fake-edge branch
        if toggles.san_attention:
            biases = (_log_bias(a), _log_bias(a, complement=True))
        else:
            real = a.data > 0.5
            biases = (ScoreBias.masked(~real), ScoreBias.masked(real))
        gamma = self.hparams["gamma"]
        mix = (1.0 / (1.0 + gamma), gamma / (1.0 + gamma))
        for l in range(self.hparams["layers"]):
            heads = [(self.p(f"l{l}.h{hh}.wv"),
                      [(self.p(f"l{l}.h{hh}.wq_{kind}"), self.p(f"l{l}.h{hh}.wk_{kind}"), bias)
                       for kind, bias in zip(("real", "fake"), biases)])
                     for hh in range(self.hparams["heads"])]
            h = self._block(h, attention(h, heads, self.p(f"l{l}.wo"), lp, mix), l)
        return self._readout(h, node_probs)
