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

# the eigen-token encoder's parameters, as ``SAN.lpe`` lists them
LPE_PARAMS = ("tok.w", "tok.b", "wq", "wk", "wv", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


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
        """Per-node PE from the k smallest eigenpairs (zero-padded if k > n),
        as one recorded op; eigenvalues (..., n) and eigenvectors (..., n, n)
        give (..., n, pe_dim).

        Each node has k tokens (lambda_t, U_it), embedded linearly, mixed by
        one softmax attention over its tokens with a residual, passed
        through a residual two-layer FFN and averaged.  Values repeat the
        composed chain; the token embedding's gradient sums its consumers
        in that chain's order: the value, key and query projections, then
        the residual.
        """
        lam, u = ad.as_tensor(eigenvalues), ad.as_tensor(eigenvectors)
        params = [self.p(f"lpe.{name}") for name in LPE_PARAMS]
        tok_w, tok_b, wq, wk, wv, w1, b1, w2, b2 = (t.data for t in params)
        n = u.shape[-1]
        lead = u.shape[:-2]
        k = self.hparams["eigenpairs"]
        dp = self.hparams["pe_dim"]
        keep = np.arange(min(k, n))
        pad = k - keep.size
        lam_col = lam.data.reshape(lead + (n, 1))
        lam_k = lam_col[..., keep, :]
        u_t = u.data.swapaxes(-1, -2)
        u_k = u_t[..., keep, :].swapaxes(-1, -2)
        if pad:
            lam_k = np.concatenate([lam_k, np.zeros(lead + (pad, 1))], axis=-2)
            u_k = np.concatenate([u_k, np.zeros(lead + (n, pad))], axis=-1)
        # tokens: (..., n, k, 2) rows of (lambda_t, U_{i,t})
        lam_grid = np.zeros(lead + (n, k)) + lam_k.reshape(lead + (1, k))
        tokens = np.concatenate(
            [lam_grid.reshape(lead + (n, k, 1)), u_k.reshape(lead + (n, k, 1))], axis=-1
        ).reshape(lead + (n * k, 2))
        t2d = tokens @ tok_w + tok_b
        q = (t2d @ wq).reshape(lead + (n, k, dp))
        kk = (t2d @ wk).reshape(lead + (n, k, dp))
        v = (t2d @ wv).reshape(lead + (n, k, dp))
        scale = 1.0 / np.sqrt(dp)
        att, att_vjp = ad.softmax_parts((q @ kk.swapaxes(-1, -2)) * scale)
        m2d = (t2d.reshape(lead + (n, k, dp)) + att @ v).reshape(lead + (n * k, dp))
        pre = m2d @ w1 + b1
        act = np.maximum(pre, 0.0)
        out = ad._wrap((m2d + (act @ w2 + b2)).reshape(lead + (n, k, dp)).mean(axis=-2))
        if not ad._live(lam, u, *params):
            return out

        def chain(g):
            """The gradients of the FFN's output ("res") and pre-activation,
            of the projections v, k and q, of the token embedding t2d and of
            the tokens."""
            g_res = np.empty(lead + (n, k, dp))
            g_res[...] = g.reshape(lead + (n, 1, dp)) / k
            g_res = g_res.reshape(lead + (n * k, dp))
            g_pre = (g_res @ w2.swapaxes(-1, -2)) * (pre > 0.0)
            g_mixed = (g_res + g_pre @ w1.swapaxes(-1, -2)).reshape(lead + (n, k, dp))
            g_att = g_mixed @ v.swapaxes(-1, -2)
            g_v = att.swapaxes(-1, -2) @ g_mixed
            g_s = att_vjp(g_att) * scale
            g_q = g_s @ kk
            g_k = (q.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
            g_q, g_k, g_v = (x.reshape(lead + (n * k, dp)) for x in (g_q, g_k, g_v))
            g_t2d = g_v @ wv.swapaxes(-1, -2) + g_k @ wk.swapaxes(-1, -2)
            g_t2d += g_q @ wq.swapaxes(-1, -2)
            g_t2d += g_mixed.reshape(lead + (n * k, dp))
            g_tok = (g_t2d @ tok_w.swapaxes(-1, -2)).reshape(lead + (n, k, 2))
            return {"res": g_res, "pre": g_pre, "v": g_v, "k": g_k, "q": g_q, "t2d": g_t2d,
                    "lam": g_tok[..., 0:1].reshape(lead + (n, k)),
                    "u": g_tok[..., 1:2].reshape(lead + (n, k))}

        chain = ad._once(chain)

        def lam_vjp(g):
            g_lam = ad._unbroadcast(chain(g)["lam"], lead + (1, k)).reshape(lead + (k, 1))
            ga = np.zeros_like(lam_col)
            np.add.at(ga, (Ellipsis, keep, slice(None)), g_lam[..., :keep.size, :])
            return ga.reshape(lam.shape)

        def u_vjp(g):
            ga = np.zeros_like(u_t)
            g_u = chain(g)["u"][..., :keep.size].swapaxes(-1, -2)
            np.add.at(ga, (Ellipsis, keep, slice(None)), g_u)
            return ga.swapaxes(-1, -2)

        return ad._record("lpe", out, (lam, u, *params), (
            lam_vjp,
            u_vjp,
            lambda g: ad._right_grad(tokens, chain(g)["t2d"], tok_w.shape),
            lambda g: ad._unbroadcast(chain(g)["t2d"], tok_b.shape),
            lambda g: ad._right_grad(t2d, chain(g)["q"], wq.shape),
            lambda g: ad._right_grad(t2d, chain(g)["k"], wk.shape),
            lambda g: ad._right_grad(t2d, chain(g)["v"], wv.shape),
            lambda g: ad._right_grad(m2d, chain(g)["pre"], w1.shape),
            lambda g: ad._unbroadcast(chain(g)["pre"], b1.shape),
            lambda g: ad._right_grad(act, chain(g)["res"], w2.shape),
            lambda g: ad._unbroadcast(chain(g)["res"], b2.shape)))

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
        # each head mixes a real-edge and a fake-edge branch; the hard
        # branches are constant 0 / -inf biases
        if toggles.san_attention:
            biases = (_log_bias(a), _log_bias(a, complement=True))
        else:
            real = a.data > 0.5
            biases = (ScoreBias(np.where(real, 0.0, -np.inf)),
                      ScoreBias(np.where(real, -np.inf, 0.0)))
        gamma = self.hparams["gamma"]
        mix = (1.0 / (1.0 + gamma), gamma / (1.0 + gamma))
        for l in range(self.hparams["layers"]):
            heads = [(self.p(f"l{l}.h{hh}.wv"),
                      [(self.p(f"l{l}.h{hh}.wq_{kind}"), self.p(f"l{l}.h{hh}.wk_{kind}"), bias)
                       for kind, bias in zip(("real", "fake"), biases)])
                     for hh in range(self.hparams["heads"])]
            h = self._block(h, attention(h, heads, self.p(f"l{l}.wo"), lp, mix), l)
        return self._readout(h, node_probs)
