"""Graph data model, normalized Laplacian, edge-flip application, I/O.

Adjacency matrices are dense, symmetric, zero-diagonal, with entries in
[0, 1]; every edge test of the package reads an entry <= EDGE_EPS as no
edge.  A graph is *discrete* when every entry is exactly 0 or 1; the
relaxed attack machinery produces continuous adjacencies as
:class:`~gtattack.autodiff.Tensor` objects so gradients can flow back to
the edge-flip values.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import types
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Annotated, Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "EDGE_EPS",
    "Graph",
    "Dataset",
    "ConfigError",
    "GraphValidationError",
    "GraphParseError",
    "laplacian_sym",
    "laplacian_sym_tensor",
    "sym_normalize",
    "apply_flips",
    "save_graph",
    "load_graph",
    "save_dataset",
    "load_dataset",
    "write_json",
    "read_json",
    "Bound",
    "NON_EMPTY",
    "Count",
    "Index",
    "Positive",
    "Fraction",
    "check_value",
    "upper_triangle_pairs",
    "connected_components",
    "is_connected",
]

SYMMETRY_TOL = 1e-12

# no edge at or below this: 1/A stays finite, and sampling cannot tell it from 0
EDGE_EPS = 1e-9


class GraphValidationError(ValueError):
    """A graph violated a structural invariant (symmetry, range, diagonal)."""


class ConfigError(ValueError):
    """Invalid input to an experiment stage: a config, or an artifact the
    stage reads (the CLI exits with code 2)."""


class GraphParseError(ConfigError):
    """A JSON document (config, graph, split, checkpoint, results) cannot be
    read, or breaks the declared type of one of its keys (see
    ``check_value``); the message names the file or the key."""


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


Task = Literal["node-classification", "binary-graph-classification"]


@dataclass
class Dataset:
    graphs: list[Graph]
    split: dict[str, list[int]]
    task: Task

    def __post_init__(self):
        check_value(self.task, Task, "task")
        seen: set[int] = set()
        for part in ("train", "val", "test"):
            idxs = self.split.get(part, [])
            outside = [i for i in idxs if not 0 <= i < len(self.graphs)]
            if outside:
                raise GraphValidationError(f"split {part} holds index {outside[0]}, outside "
                                           f"range({len(self.graphs)})")
            if seen & set(idxs):
                raise GraphValidationError("dataset splits overlap")
            seen |= set(idxs)
        dims = {g.feature_dim for g in self.graphs}
        if len(dims) > 1:
            raise GraphValidationError(f"non-uniform feature dims {sorted(dims)}")
        key = "node_labels" if self.task == "node-classification" else "graph_label"
        unlabeled = [i for i, g in enumerate(self.graphs) if getattr(g, key) is None]
        if unlabeled:
            raise GraphValidationError(f"graph {unlabeled[0]} has no {key}, which every "
                                       f"graph of a {self.task} dataset carries")

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
    return ad.masked_fill(ad.neg(sym_normalize(a)), np.eye(n, dtype=bool), 1.0)


def sym_normalize(a) -> Tensor:
    """D^-1/2 A D^-1/2 of each matrix in a (..., n, n) stack, D holding the
    row sums; a row whose sum is not positive gets factor 0.  One recorded op.

    Values and gradients repeat, operation by operation, the composed chain
    (row sum, x -> x^-1/2 with 0 at x <= 0, two reshapes, the outer product
    s_i s_j, then A times it), and ``a`` is listed once per consumer in that
    chain, the product and then the row sum, so that its gradient also
    accumulates in the chain's order.
    """
    a = ad.as_tensor(a)
    x = a.data
    d = x.sum(axis=-1)
    pos = d > 0.0
    plain = pos.all()  # every degree > 0, where the masked form gives the same bits
    d_safe = d if plain else np.where(pos, d, 1.0)
    s = 1.0 / np.sqrt(d) if plain else np.where(pos, 1.0 / np.sqrt(d_safe), 0.0)
    col, row = s[..., :, None], s[..., None, :]
    scale = col * row
    out = ad._wrap(x * scale)
    if not ad._live(a):
        return out

    def vjp_degree(g):
        gw = g * x
        gd = -0.5 * ((gw * col).sum(axis=-2) + (gw * row).sum(axis=-1)) * s / d_safe
        res = np.empty(x.shape)
        res[...] = (gd if plain else np.where(pos, gd, 0.0))[..., None]
        return res

    return ad._record("sym_normalize", out, (a, a), (lambda g: g * scale, vjp_degree))


def apply_flips(adjacency: np.ndarray,
                pairs: np.ndarray) -> Callable[[np.ndarray | Tensor], Tensor]:
    """The flip op of ``pairs`` on ``adjacency``: a function from values to
    the continuous adjacency A + (1 - 2A) * B, symmetric.

    B holds the values at the unique index pairs ``pairs`` (k, 2), i < j,
    and at their mirrors.  B entries of 0 leave A untouched; 1 flips the
    edge; fractional values interpolate.  Indices, entries of A and their
    coefficients are worked out once per op, so a block builds its op once
    and each step only writes values.  Gradients reach Tensor values through
    one recorded op: each gathers the two mirrored entries of its pair.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    k = len(pairs)
    if k == 0:
        return lambda values: Tensor(a.copy())
    # flat indices of the pairs, then of their mirrors
    at = np.concatenate([pairs[:, 0] * a.shape[1] + pairs[:, 1],
                         pairs[:, 1] * a.shape[1] + pairs[:, 0]])
    base = a.take(at)
    coef = 1.0 - 2.0 * base

    def vjp(g):
        gm = g.take(at) * coef
        return gm[:k] + gm[k:]

    def flip(values: np.ndarray | Tensor) -> Tensor:
        values = ad.as_tensor(values)
        flipped = a.copy()
        flipped.put(at, base + coef * np.concatenate([values.data, values.data]))
        out = ad._wrap(flipped)
        return ad._record("apply_flips", out, (values,), (vjp,)) if ad._live(values) else out

    return flip


@functools.lru_cache(maxsize=64)
def upper_triangle_pairs(n: int) -> np.ndarray:
    """All index pairs (i, j), i < j < n, row-major; one read-only array per
    ``n``, shared by its callers."""
    pairs = np.stack(np.triu_indices(n, k=1), axis=1).astype(np.int64)
    pairs.flags.writeable = False
    return pairs


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


class Bound(NamedTuple):
    """``Annotated[int, Bound(">=", 1)]``: a number, or the length of a list,
    that compares so with ``limit``."""

    op: str  # ">=", ">" or "<="
    limit: float


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
_UNIONS = (Union, types.UnionType)
# the declared types that configs and artifacts share
NON_EMPTY = Bound(">=", 1)
Count = Annotated[int, Bound(">=", 1)]
Index = Annotated[int, Bound(">=", 0)]
Positive = Annotated[float, Bound(">", 0)]
Fraction = Annotated[float, Bound(">", 0), Bound("<=", 1)]


class _Mismatch(Exception):
    """A value breaks its declared type; ``path`` holds its keys, innermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list = []


def check_value(value, hint, where: str) -> None:
    """GraphParseError at the first part of ``value`` that breaks ``hint``, a
    JSON type: ``int`` (not a bool), ``float`` (finite; an int is one),
    ``str``, ``bool``, ``None``, ``dict``, ``Literal``, a union, ``list``,
    ``tuple`` (a list of its length), ``dict[str, ...]``, or a dataclass (an
    object or instance holding each field without a default, and no other
    key).  ``Annotated`` adds ``Bound``s, or a dataclass a dict's keys follow.
    Messages name ``where`` (the value, ``"<file>:"`` or nothing) and the
    path: ``"<file>: rows[0].seed must be int, got 'x'"``."""
    try:
        _checker(hint)(value)
    except _Mismatch as exc:
        for key in reversed(exc.path):
            if isinstance(key, int):
                where += f"[{key}]"
            else:
                where += (" " if where.endswith(":") else "." if where else "") + key
        raise GraphParseError(f"{where} {exc}".lstrip()) from None


@functools.cache
def _checker(hint) -> Callable[[object], None]:
    """The check of ``hint``, built once per hint (a dataclass's type hints
    resolve here): a function raising _Mismatch where a value breaks it.  It
    carries ``name``, how messages name the hint (``int | None``,
    ``list[int]``, ``object``), and ``is_type``, whether a value has the
    hint's JSON type, bounds and entries aside, which picks a union's member."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:  # the base check, then each mark: a Bound, or a
        # dataclass whose fields the keys of a dict are
        base = _checker(args[0])
        schemas = [_checker(mark) for mark in args[1:] if not isinstance(mark, Bound)]
        bounds = [(_COMPARE[mark.op], mark) for mark in args[1:] if isinstance(mark, Bound)]

        def check(value):
            base(value)
            for schema in schemas:
                schema(value)
            for compare, bound in bounds:
                if not compare(len(value) if isinstance(value, list) else value, bound.limit):
                    what = "have length" if isinstance(value, list) else "be"
                    raise _Mismatch(f"must {what} {bound.op} {bound.limit:g}, got {value!r}")
        check.name, check.is_type = base.name, base.is_type
        return check
    parts = [] if origin is Literal else [_checker(h) for h in args]
    inner, is_type, kinds = None, None, origin or hint
    if origin in _UNIONS:  # the member of the value's type decides
        name = " | ".join(part.name for part in parts)

        def is_type(value):
            return any(part.is_type(value) for part in parts)

        def inner(value):
            next(part for part in parts if part.is_type(value))(value)
    elif origin is Literal:
        name = " | ".join(map(repr, args))

        def is_type(value):
            return any(type(value) is type(a) and value == a for a in args)
    elif origin in (list, tuple, dict):  # a tuple's parts per position; list and dict values: last
        name = "object" if origin is dict else \
            f"{origin.__name__}[{', '.join(part.name for part in parts)}]"
        floats = origin is list and args == (float,)  # features, parameters: one fast pass
        if origin is tuple:  # a list of its length
            def is_type(value):
                return isinstance(value, list) and len(value) == len(parts)

        def inner(value):
            if floats and all(type(v) is float and math.isfinite(v) for v in value):
                return
            _each(value.items() if origin is dict else enumerate(value),
                  parts.__getitem__ if origin is tuple else lambda key: parts[-1])
    elif hint is int or hint is float:  # a bool is not an int, an int is a float
        name, kinds = hint.__name__, (int, hint)

        def is_type(value):
            return isinstance(value, kinds) and not isinstance(value, bool)
        if hint is float:
            def inner(value):
                if not math.isfinite(value):
                    raise _Mismatch(f"must be finite, got {value!r}")
    elif is_dataclass(hint):  # an object, or an instance
        name, kinds = "object", (dict, hint)
        hints = get_type_hints(hint, include_extras=True)
        entries = {f.name: _checker(hints[f.name]) for f in fields(hint)}
        required = [f.name for f in fields(hint)
                    if f.default is MISSING and f.default_factory is MISSING]

        def inner(value):
            doc = value if isinstance(value, dict) else vars(value)
            unknown = [key for key in doc if key not in entries]
            missing = [key for key in required if key not in doc]
            if unknown or missing:
                raise _Mismatch(f"has unknown key {unknown[0]!r}" if unknown else
                                f"lacks key {missing[0]!r}")
            _each(doc.items(), entries.__getitem__)
    else:  # str, bool, None or a bare dict
        name = "object" if hint is dict else "None" if hint is type(None) else hint.__name__
    if is_type is None:
        def is_type(value):
            return isinstance(value, kinds)

    def check(value):
        if not is_type(value):
            raise _Mismatch(f"must be {name}, got {value!r}")
        if inner is not None:
            inner(value)
    check.name, check.is_type = name, is_type
    return check


def _each(pairs, check_of: Callable) -> None:
    """``check_of(key)(item)`` for each (key, item), naming the key of a mismatch."""
    for key, item in pairs:
        try:
            check_of(key)(item)
        except _Mismatch as exc:
            exc.path.append(key)
            raise


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


@dataclass
class _GraphDoc:
    """A graph file: ``n`` nodes, each edge [i, j, weight] with i < j, one
    feature row per node."""

    n: Index
    edges: list[tuple[int, int, float]]
    features: list[list[float]]
    node_labels: list[Index] | None = None
    graph_label: Literal[0, 1] | None = None
    labeled_mask: list[Literal[0, 1, False, True]] | None = None


def _graph_from_doc(doc: dict, context: str) -> Graph:
    check_value(doc, _GraphDoc, f"{context}:")
    n = doc["n"]
    try:
        feats = np.asarray(doc["features"], dtype=np.float64)
    except ValueError:  # rows of different lengths
        feats = None
    if feats is None or feats.ndim != 2 or feats.shape[0] != n:  # before an n x n allocation
        raise GraphParseError(f"{context}: features must be an n x d matrix")
    a = np.zeros((n, n), dtype=np.float64)
    for k, (i, j, w) in enumerate(doc["edges"]):
        if not (0 <= i < n and 0 <= j < n):
            raise GraphParseError(f"{context}: edges[{k}] index out of range")
        if i >= j:
            raise GraphParseError(f"{context}: edges[{k}] must have i < j (upper triangle)")
        a[i, j] = w
        a[j, i] = w
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


@dataclass
class _SplitDoc:
    """split.json: the graph ids of each part, the task, and the stamp
    ``save_dataset`` records."""

    task: Task
    train: list[Index]
    val: list[Index]
    test: list[Index]
    stamp: str | None = None


def load_dataset(directory: str) -> Dataset:
    split_path = os.path.join(directory, "split.json")
    split_doc = read_json(split_path)
    check_value(split_doc, _SplitDoc, f"{split_path}:")
    graphs = [load_graph(os.path.join(directory, f)) for f in _graph_files(directory)]
    split = {k: split_doc[k] for k in ("train", "val", "test")}
    try:
        return Dataset(graphs=graphs, split=split, task=split_doc["task"])
    except GraphValidationError as exc:
        raise GraphParseError(f"{split_path}: {exc}") from exc
