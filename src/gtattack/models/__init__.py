"""Model zoo: GCN baseline plus three graph transformers.

Checkpoint format (JSON, sorted keys): ``{"arch", "task", "feature_dim",
"n_classes", "seed", "hparams", "params": {name: flat values},
"shapes": {name: shape}}``, plus the ``"stamp"`` that ``gtattack train``
writes (see ``experiment``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..graphs import Count, Index, check_value, read_json, write_json
from ..spectral import SpectralReference
from .common import GraphModel, RelaxToggles, pool_weighted
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
Arch = Literal[tuple(ARCHS)]


def build_model(arch: str, task: str, feature_dim: int, n_classes: int,
                seed: int = 0, **hparams) -> GraphModel:
    return ARCHS[arch](task=task, feature_dim=feature_dim, n_classes=n_classes,
                       seed=seed, **hparams)


def save_checkpoint(model: GraphModel, path: str, stamp: str | None = None) -> None:
    """The model's document, plus ``stamp`` when given."""
    doc = model.to_doc() if stamp is None else {**model.to_doc(), "stamp": stamp}
    write_json(path, doc)


def load_checkpoint(path: str) -> GraphModel:
    return model_from_doc(read_json(path))


@dataclass
class _Checkpoint:
    """The keys of a checkpoint document; ``GraphModel`` checks ``hparams``."""

    arch: Arch
    task: str
    feature_dim: Count
    n_classes: Count
    seed: Index
    hparams: dict
    params: dict[str, list[float]]
    shapes: dict[str, list[Index]]
    stamp: str | None = None


def model_from_doc(doc: dict) -> GraphModel:
    """The model a checkpoint document describes."""
    check_value(doc, _Checkpoint, "checkpoint")
    model = build_model(doc["arch"], doc["task"], doc["feature_dim"], doc["n_classes"],
                        seed=doc["seed"], **doc["hparams"])
    model.load_doc(doc)
    return model
