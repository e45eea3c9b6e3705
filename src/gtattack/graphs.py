"""Graph data model, normalized Laplacian, edge-flip application, I/O.

Adjacency matrices are dense, symmetric, zero-diagonal, with entries in
[0, 1]; every edge test of the package reads an entry <= EDGE_EPS as no
edge.  A graph is *discrete* when every entry is exactly 0 or 1; the
relaxed attack machinery produces continuous adjacencies as
:class:`~gtattack.autodiff.Tensor` objects so gradients can flow back to
the edge-flip values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "EDGE_EPS",
    "Graph",
    "Dataset",
    "GraphValidationError",
    "GraphParseError",
    "laplacian_sym",
    "laplacian_sym_tensor",
    "apply_flips",
    "save_graph",
    "load_graph",
    "save_dataset",
    "load_dataset",
    "write_json",
    "read_json",
    "require_keys",
    "upper_triangle_pairs",
    "connected_components",
    "is_connected",
]

SYMMETRY_TOL = 1e-12

# no edge at or below this: 1/A stays finite, and sampling cannot tell it from 0
EDGE_EPS = 1e-9


class GraphValidationError(ValueError):
    """A graph violated a structural invariant (symmetry, range, diagonal)."""


class GraphParseError(ValueError):
    """A JSON artifact (config, graph, split, checkpoint, results) cannot be read,
    is not an object, lacks a key its reader needs, or holds a malformed graph
    field; the message names the file."""


@dataclass
class Graph:
    """Undirected attributed graph.

    ``labeled_mask`` marks the feature-revealed nodes of the cluster task
    (the nodes the constrained attack protects).
    """

    adjacency: np.ndarray
    features: np.ndarray
    node_labels: np.ndarray | None = None
    graph_label: int | None = None
    labeled_mask: np.ndarray | None = None

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphValidationError(f"adjacency must be square, got {a.shape}")
        if self.features.shape[0] != a.shape[0]:
            raise GraphValidationError(
                f"features rows {self.features.shape[0]} != node count {a.shape[0]}"
            )
        if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOL:
            raise GraphValidationError("adjacency is not symmetric")
        if np.any(np.diag(a) != 0.0):
            raise GraphValidationError("adjacency diagonal must be exactly zero")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(self.features))):
            raise GraphValidationError("adjacency and features must be finite")
        if np.any(a < 0.0) or np.any(a > 1.0):
            raise GraphValidationError("adjacency entries must lie in [0, 1]")
        if self.node_labels is not None:
            self.node_labels = np.asarray(self.node_labels, dtype=np.int64)
            if self.node_labels.shape != (a.shape[0],):
                raise GraphValidationError("node_labels length mismatch")
        if self.labeled_mask is not None:
            self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)
            if self.labeled_mask.shape != (a.shape[0],):
                raise GraphValidationError("labeled_mask length mismatch")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Dataset:
    graphs: list[Graph]
    split: dict[str, list[int]]
    task: str  # "node-classification" | "binary-graph-classification"

    def __post_init__(self):
        if self.task not in ("node-classification", "binary-graph-classification"):
            raise GraphValidationError(f"unknown task {self.task!r}")
        seen: set[int] = set()
        for part in ("train", "val", "test"):
            idxs = self.split.get(part, [])
            if seen & set(idxs):
                raise GraphValidationError("dataset splits overlap")
            seen |= set(idxs)
        dims = {g.feature_dim for g in self.graphs}
        if len(dims) > 1:
            raise GraphValidationError(f"non-uniform feature dims {sorted(dims)}")

    def part(self, name: str) -> list[Graph]:
        return [self.graphs[i] for i in self.split[name]]


# ---------------------------------------------------------------------------
# derivations


def laplacian_sym(a: np.ndarray) -> np.ndarray:
    """:func:`laplacian_sym_tensor` of a plain array (or (..., n, n) stack)."""
    return laplacian_sym_tensor(Tensor(a)).data


def laplacian_sym_tensor(a: Tensor) -> Tensor:
    """Normalized symmetric Laplacian I - D^-1/2 A D^-1/2 of each matrix in a
    (..., n, n) stack, differentiable in a continuous adjacency.

    Degree-0 rows use scaling factor 0, which leaves them as identity rows,
    so graphs with isolated nodes still have a well-defined spectrum.
    """
    n = a.shape[-1]
    s = ad.rsqrt_safe(ad.tsum(a, axis=-1))
    scale = ad.mul(ad.reshape(s, (*s.shape, 1)), ad.reshape(s, (*s.shape[:-1], 1, n)))
    return ad.masked_fill(ad.neg(ad.mul(a, scale)), np.eye(n, dtype=bool), 1.0)


def apply_flips(adjacency: np.ndarray, pairs: np.ndarray, values: np.ndarray | Tensor) -> Tensor:
    """Continuous adjacency from flipping: A + (1 - 2A) * B, symmetric.

    B holds ``values`` at the unique index pairs ``pairs`` (k, 2), i < j,
    and at their mirrors.  B entries of 0 leave A untouched; 1 flips the
    edge; fractional values interpolate.  When ``values`` is a Tensor,
    gradients flow from the result back to it.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if len(pairs) == 0:
        return Tensor(a.copy())
    values = ad.as_tensor(values)
    n = a.shape[0]
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    both = ad.concat([values, values], axis=0)
    dense_b = ad.scatter_pairs(both, (n, n), rows, cols)
    delta = ad.mul(Tensor(1.0 - 2.0 * a), dense_b)
    return ad.add(Tensor(a), delta)


def upper_triangle_pairs(n: int) -> np.ndarray:
    """All index pairs (i, j), i < j < n, row-major."""
    iu = np.triu_indices(n, k=1)
    return np.stack(iu, axis=1).astype(np.int64)


def connected_components(a: np.ndarray) -> np.ndarray:
    """Component id per node, edges being entries > EDGE_EPS.

    Ids are numbered in the order of each component's smallest node.  Each
    node carries a label, a node of its own component no larger than
    itself.  Every sweep advances all labels one hop at once (the smallest
    label among a node and its neighbors), then replaces each label by that
    node's label; at the fixed point every label is its component's minimum.
    """
    n = a.shape[0]
    adj = a > EDGE_EPS
    label = np.arange(n)
    while True:
        new = np.minimum(label, np.where(adj, label[None, :], n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # each component's minimum is labelled by itself; its id is its rank among the minima
    return (np.cumsum(label == np.arange(n), dtype=np.int64) - 1)[label]


def is_connected(a: np.ndarray) -> bool:
    return a.shape[0] <= 1 or int(connected_components(a).max()) == 0


# ---------------------------------------------------------------------------
# file I/O (JSON; edges stored as upper triangle only)


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` to ``path`` as compact JSON with sorted keys."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))


def read_json(path: str) -> dict:
    """The JSON object in ``path``; GraphParseError naming the file when it
    cannot be read, is not JSON or its top level is not an object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GraphParseError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GraphParseError(f"{path}: top-level value must be an object")
    return doc


def require_keys(doc: dict, keys, path: str, where: str = "") -> None:
    """GraphParseError naming ``path`` (and ``where`` in it) at the first of
    ``keys`` that the object ``doc`` lacks."""
    for key in keys:
        if key not in doc:
            raise GraphParseError(f"{path}: {where}lacks key {key!r}")


def _graph_to_doc(g: Graph) -> dict:
    iu, ju = np.triu_indices(g.n, k=1)
    mask = g.adjacency[iu, ju] != 0.0
    edges = [[int(i), int(j), float(g.adjacency[i, j])] for i, j in zip(iu[mask], ju[mask])]
    return {
        "n": g.n,
        "edges": edges,
        "features": g.features.tolist(),
        "node_labels": None if g.node_labels is None else g.node_labels.tolist(),
        "graph_label": None if g.graph_label is None else int(g.graph_label),
        "labeled_mask": None if g.labeled_mask is None else g.labeled_mask.astype(int).tolist(),
    }


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _graph_from_doc(doc: dict, context: str) -> Graph:
    for key in ("n", "edges", "features"):
        if key not in doc:
            raise GraphParseError(f"{context}: missing field {key!r}")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise GraphParseError(f"{context}: field 'n' must be a non-negative int")
    if not isinstance(doc["edges"], list):
        raise GraphParseError(f"{context}: field 'edges' must be a list")
    a = np.zeros((n, n), dtype=np.float64)
    for k, e in enumerate(doc["edges"]):
        if not (isinstance(e, list) and len(e) == 3):
            raise GraphParseError(f"{context}: edges[{k}] must be [i, j, weight]")
        i, j, w = e
        if not (_is_int(i) and _is_int(j)):
            raise GraphParseError(f"{context}: edges[{k}] indices must be ints")
        if not (_is_int(w) or isinstance(w, float)):
            raise GraphParseError(f"{context}: edges[{k}] weight must be a number")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphParseError(f"{context}: edges[{k}] index out of range")
        if i >= j:
            raise GraphParseError(f"{context}: edges[{k}] must have i < j (upper triangle)")
        a[i, j] = w
        a[j, i] = w
    try:
        feats = np.asarray(doc["features"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphParseError(f"{context}: features must be numbers: {exc}") from exc
    if feats.ndim != 2 or feats.shape[0] != n:
        raise GraphParseError(f"{context}: features must be an n x d matrix")
    for key, ok, what in (("node_labels", lambda v: _is_int(v) and v >= 0, "non-negative ints"),
                          ("labeled_mask", lambda v: isinstance(v, int) and v in (0, 1),
                           "booleans or 0/1")):
        if doc.get(key) is not None and not (isinstance(doc[key], list) and all(map(ok, doc[key]))):
            raise GraphParseError(f"{context}: {key} must be a list of {what}")
    label = doc.get("graph_label")
    if label is not None and not (_is_int(label) and label in (0, 1)):
        raise GraphParseError(f"{context}: graph_label must be 0 or 1")
    try:
        return Graph(
            adjacency=a,
            features=feats,
            node_labels=doc.get("node_labels"),
            graph_label=doc.get("graph_label"),
            labeled_mask=doc.get("labeled_mask"),
        )
    except GraphValidationError as exc:
        raise GraphParseError(f"{context}: {exc}") from exc


def save_graph(g: Graph, path: str) -> None:
    write_json(path, _graph_to_doc(g))


def load_graph(path: str) -> Graph:
    return _graph_from_doc(read_json(path), path)


def _graph_files(directory: str) -> list[str]:
    return sorted(f for f in os.listdir(directory)
                  if f.startswith("graph_") and f.endswith(".json"))


def save_dataset(ds: Dataset, directory: str, stamp: str | None = None) -> None:
    """One JSON file per graph plus split.json, which records ``stamp`` when
    given; graph files of an earlier, larger dataset there are removed."""
    os.makedirs(directory, exist_ok=True)
    names = [f"graph_{i:05d}.json" for i in range(len(ds.graphs))]
    for name in set(_graph_files(directory)) - set(names):
        os.remove(os.path.join(directory, name))
    for name, g in zip(names, ds.graphs):
        save_graph(g, os.path.join(directory, name))
    doc = {"task": ds.task, **ds.split}
    if stamp is not None:
        doc["stamp"] = stamp
    write_json(os.path.join(directory, "split.json"), doc)


def load_dataset(directory: str) -> Dataset:
    split_path = os.path.join(directory, "split.json")
    split_doc = read_json(split_path)
    require_keys(split_doc, ("train", "val", "test", "task"), split_path)
    graphs = [load_graph(os.path.join(directory, f)) for f in _graph_files(directory)]
    split = {k: split_doc[k] for k in ("train", "val", "test")}
    return Dataset(graphs=graphs, split=split, task=split_doc["task"])
