"""Shared model machinery: toggles, parameter store, attention/pooling helpers."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, layer_norm

__all__ = [
    "RelaxToggles",
    "UNRELAXED",
    "GraphModel",
    "linear",
    "layer_norm",
    "pool_weighted",
    "attention_nodeprob_bias",
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RelaxToggles":
        """Toggles from a name -> bool mapping; names left out stay on."""
        if not isinstance(d, Mapping):
            raise TypeError(f"toggles must be an object of name: bool, got {type(d).__name__}")
        names = [f.name for f in fields(cls)]
        if set(d) - set(names):
            raise ValueError(f"unknown toggles {sorted(set(d) - set(names))}; valid: {names}")
        return cls(**{name: bool(d.get(name, True)) for name in names})


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
    result bit for bit.

    Parameters are constants (``requires_grad`` off), so attack gradients
    skip them; ``train_model`` switches them on while it trains.
    """

    arch = "base"

    def __init__(self, task: str, feature_dim: int, n_classes: int, seed: int = 0, **hparams):
        if task not in ("node", "graph"):
            raise ValueError(f"task must be 'node' or 'graph', got {task!r}")
        self.task = task
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self.seed = seed
        self.hparams = dict(self.default_hparams())
        unknown = set(hparams) - set(self.hparams)
        if unknown:
            raise ValueError(f"{self.arch}: unknown hparams {sorted(unknown)}")
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

    def forward_discrete(self, adjacency: np.ndarray, features: np.ndarray, **kw) -> Tensor:
        """Unrelaxed logits of (stacked) discrete graphs; see the class
        docstring.  Keywords go to ``forward``, which names every one it takes."""
        return self.forward(Tensor(adjacency), features, UNRELAXED, **kw)

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
        h = layer_norm(ad.add(h, update), self.p(f"l{l}.ln1.g"), self.p(f"l{l}.ln1.b"))
        ffn = linear(ad.relu(linear(h, self.p(f"l{l}.ffn.w1"), self.p(f"l{l}.ffn.b1"))),
                     self.p(f"l{l}.ffn.w2"), self.p(f"l{l}.ffn.b2"))
        return layer_norm(ad.add(h, ffn), self.p(f"l{l}.ln2.g"), self.p(f"l{l}.ln2.b"))

    def _readout(self, h: Tensor, node_probs: Tensor | None) -> Tensor:
        """Output head over (..., n, d) node states: per-node logits, or the
        probability-weighted mean over nodes as one (..., 1, c) row."""
        if self.task == "graph":
            pooled = pool_weighted(h, node_probs, "mean")
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
        for k, t in self.params.items():
            flat = np.asarray(doc["params"][k], dtype=np.float64)
            t.data = flat.reshape(tuple(doc["shapes"][k]))


# ---------------------------------------------------------------------------
# helpers


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = ad.matmul(x, w)
    return out if b is None else ad.add(out, b)


def pool_weighted(node_reps: Tensor, node_probs: Tensor | None, mode: str) -> Tensor:
    """Probability-weighted sum/mean pooling of (..., n, d) node
    representations over the node axis; probs of 1 reduce to plain pooling."""
    if mode not in ("sum", "mean"):
        raise ValueError(f"pool mode must be 'sum' or 'mean', got {mode!r}")
    nodes = node_reps.shape[:-1]
    if node_probs is None:
        node_probs = Tensor(np.ones(nodes))
    pvals = node_probs.data
    if (pvals < 0.0).any() or (pvals > 1.0).any():
        raise ValueError("node probabilities must lie in [0, 1]")
    weighted = ad.mul(node_reps, ad.reshape(node_probs, nodes + (1,)))
    total = ad.tsum(weighted, axis=-2)
    if mode == "sum":
        return total
    mass = ad.tsum(node_probs, axis=-1, keepdims=True)
    if (mass.data == 0.0).any():
        raise ValueError("pool_weighted: mean pooling with zero total probability")
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


def attention_nodeprob_bias(w: Tensor, lp: Tensor | None) -> Tensor:
    """softmax(w + log p) == p_j e^{w_ij} / sum_k p_k e^{w_ik}, rowwise, for
    ``lp = log_prob_row(p)``; plain softmax(w) when ``lp`` is None.

    Nodes with probability 0 are excluded exactly.
    """
    return ad.softmax(w if lp is None else ad.add(w, lp))
