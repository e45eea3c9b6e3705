"""Model zoo: GCN baseline plus three graph transformers.

Checkpoint format (JSON, sorted keys): ``{"arch", "task", "feature_dim",
"n_classes", "seed", "hparams", "params": {name: flat values},
"shapes": {name: shape}}``, plus the ``"stamp"`` that ``gtattack train``
writes (see ``experiment``).
"""

from __future__ import annotations

import json

from ..spectral import SpectralReference
from .common import GraphModel, RelaxToggles, attention_nodeprob_bias, pool_weighted
from .gcn import GCN
from .graphormer import Graphormer, degree_pe
from .grit import GRIT, rrwp
from .san import SAN

__all__ = [
    "ARCHS",
    "GraphModel",
    "RelaxToggles",
    "GCN",
    "GRIT",
    "Graphormer",
    "SAN",
    "SpectralReference",
    "attention_nodeprob_bias",
    "pool_weighted",
    "rrwp",
    "degree_pe",
    "build_model",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_doc",
]

ARCHS: dict[str, type[GraphModel]] = {
    "gcn": GCN,
    "grit": GRIT,
    "graphormer": Graphormer,
    "san": SAN,
}


def build_model(arch: str, task: str, feature_dim: int, n_classes: int,
                seed: int = 0, **hparams) -> GraphModel:
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}; choose from {sorted(ARCHS)}")
    return ARCHS[arch](task=task, feature_dim=feature_dim, n_classes=n_classes,
                       seed=seed, **hparams)


def save_checkpoint(model: GraphModel, path: str, stamp: str | None = None) -> None:
    """The model's document, plus ``stamp`` when given."""
    doc = model.to_doc() if stamp is None else {**model.to_doc(), "stamp": stamp}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str) -> GraphModel:
    with open(path) as fh:
        return model_from_doc(json.load(fh))


def model_from_doc(doc: dict) -> GraphModel:
    """The model a checkpoint document describes."""
    model = build_model(doc["arch"], doc["task"], doc["feature_dim"], doc["n_classes"],
                        seed=doc["seed"], **doc["hparams"])
    model.load_doc(doc)
    return model
