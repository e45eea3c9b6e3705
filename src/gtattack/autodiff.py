"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: every value is a numpy float64 array
wrapped in a :class:`Tensor`, and every differentiable operation records a
node holding vector-Jacobian closures for its inputs.  Nodes carry a global
creation counter, so creation order is a topological order of the graph and
``backward`` can replay it in reverse deterministically (bit-identical
gradients for identical inputs).

A node is recorded only when grad is on (outside :class:`no_grad`) and an
input is tracked (requires a gradient or was recorded); otherwise an op
builds no closures, and ``backward`` visits tracked tensors only.  Op
results are float64 arrays wrapped without ``Tensor()``'s conversion, and
each VJP is chosen by shape when its node is recorded.  Binary primitives,
``where`` and ``masked_fill`` leave shapes to numpy's broadcast rule and
re-raise its error as :class:`ShapeError`.

Conventions baked in here and relied on elsewhere:

* ``-inf`` is representable and ``exp(-inf) == 0``; ``log(0)`` is the only
  operation allowed to produce ``-inf`` and softmax is its only consumer.
* relu and floor-style kinks use the left-derivative convention (gradient 0
  at the kink; interpolation indices are treated as constants).
* softmax rows that are entirely ``-inf`` produce an all-zero row instead
  of NaN; this is what lets log-probability attention biases switch a
  branch off completely.

Importing this module sets the C allocator's policy for the process, where
the C library exports ``mallopt`` (glibc; elsewhere nothing happens): heap
blocks up to 32 MiB are never given their own mapping, and the heap top is
returned to the kernel only past 64 MiB.  Each relaxed step frees all its
activations at once when its :class:`Tape` closes; under glibc's default
policy that heap went back to the kernel and the next step page-faulted it
in again: about 7700 minor faults in one relaxed GRIT forward+backward at
119 nodes, which then took 30-40 ms against 20-25 ms.  With the policy a
warmed-up step takes no faults, and peak RSS moves by less than 1%; the
price is that up to 64 MiB of freed heap stays resident between steps.
It acts on this whole process (any program that imports the package) and
cannot be switched off.
"""

from __future__ import annotations

import ctypes
import itertools
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "backward",
    "as_tensor",
]


# The allocator policy set at import (see the module docstring): glibc's
# mallopt parameter numbers and their values.  32 MiB is glibc's largest
# mmap threshold on 64-bit; setting it also stops glibc from adjusting the
# threshold itself, which it does only after a large block is freed.  The
# trim threshold is the heap a freed step may keep: a relaxed GRIT step on
# the largest target graphs of scripts/*_config.json frees between 32 and
# 48 MiB at once (warm steps still fault at 32 MiB, none do at 48 MiB), so
# 64 MiB keeps those steps' heap with some margin.
_MALLOPT_POLICY = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD
    (-1, 64 << 20),  # M_TRIM_THRESHOLD
)


def _set_allocator_policy() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    for param, value in _MALLOPT_POLICY:
        mallopt(param, value)


_set_allocator_policy()


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""


_COUNTER = itertools.count()

# When a Tape is active, freshly recorded nodes register here so the tape
# can sever them in clear(); gradients themselves never consult this list.
_ACTIVE_TAPES: list["Tape"] = []

_GRAD_ENABLED = True


class no_grad:
    """Context that skips recording entirely (pure-evaluation forwards)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class _Node:
    __slots__ = ("op", "inputs", "vjps", "order", "cleared")

    def __init__(self, op: str, inputs: tuple["Tensor", ...], vjps: tuple):
        self.op = op
        self.inputs = inputs
        self.vjps = vjps
        self.order = next(_COUNTER)
        self.cleared = False


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "requires_grad", "node", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node: _Node | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


class Tape:
    """Optional recording scope: collects nodes so they can be dropped in bulk.

    Exiting the scope clears the tape, which severs the recorded graph and
    invalidates gradients through it (the attack/training loops rely on this
    to keep memory flat).  Tensors created outside any tape still form a
    backward graph; the tape is bookkeeping, not a requirement.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPES.pop()
        self.clear()
        return False

    def clear(self) -> None:
        for node in self.nodes:
            node.cleared = True
            node.inputs = ()
            node.vjps = ()
        self.nodes.clear()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap(data) -> Tensor:
    """An untracked Tensor around an op's float64 result, trusted as is; a
    numpy scalar (what arithmetic on 0-d arrays returns) becomes a 0-d array."""
    t = object.__new__(Tensor)
    t.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    t.requires_grad = False
    t.node = t.name = None
    return t


def _live(*inputs: Tensor) -> bool:
    """Whether an op is recorded: grad is on and an input is tracked."""
    if _GRAD_ENABLED:
        for t in inputs:
            if t.requires_grad or t.node is not None:
                return True
    return False


def _record(op: str, out: Tensor, inputs: tuple[Tensor, ...], vjps: tuple) -> Tensor:
    out.node = node = _Node(op, inputs, vjps)
    out.requires_grad = True
    if _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1].nodes.append(node)
    return out


def _shape_error(op: str, *shapes) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


def _shape_check(op: str, ok: bool, *shapes):
    if not ok:
        raise _shape_error(op, *shapes)


def _apply(op: str, fn: Callable, a: Tensor, b: Tensor) -> Tensor:
    """``fn(a.data, b.data)``; numpy's broadcast error is re-raised as ShapeError."""
    try:
        return _wrap(fn(a.data, b.data))
    except ValueError:
        raise _shape_error(op, a.shape, b.shape) from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _identity(g):
    return g


def _fit(vjp: Callable, shape: tuple[int, ...], full: tuple[int, ...]) -> Callable:
    """``vjp``, whose gradients have shape ``full``, for an input of ``shape``:
    itself when the two agree, else followed by ``_unbroadcast``."""
    return vjp if shape == full else lambda g: _unbroadcast(vjp(g), shape)


def _once(fn: Callable) -> Callable:
    """``fn(g)``, computed once per upstream gradient.

    ``backward`` calls a node's input VJPs in turn with one gradient array,
    so the terms several inputs' gradients share are computed by the first
    VJP that needs them; the memo holds that array, so the identity check
    cannot match a recycled one.
    """
    memo = [None, None]

    def get(g):
        if memo[0] is not g:
            memo[:] = g, fn(g)
        return memo[1]

    return get


def _right_grad(x: np.ndarray, gy: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of w in y = x @ w, summed back to w's ``shape`` as ``matmul`` does."""
    return _unbroadcast(x.swapaxes(-1, -2) @ gy, shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(op: str, out: Tensor, a: Tensor, b: Tensor, vjp_a: Callable, vjp_b: Callable):
    """Record a broadcasting binary op whose VJPs return the output's shape."""
    s = out.shape
    return _record(op, out, (a, b), (_fit(vjp_a, a.shape, s), _fit(vjp_b, b.shape, s)))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _apply("add", np.add, a, b)
    return _binary("add", out, a, b, _identity, _identity) if _live(a, b) else out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _apply("sub", np.subtract, a, b)
    return _binary("sub", out, a, b, _identity, np.negative) if _live(a, b) else out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _apply("mul", np.multiply, a, b)
    if not _live(a, b):
        return out
    return _binary("mul", out, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _apply("div", np.divide, a, b)
    if not _live(a, b):
        return out
    return _binary("div", out, a, b, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = _wrap(-a.data)
    return _record("neg", out, (a,), (np.negative,)) if _live(a) else out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes:
    (..., n, k) @ (..., k, m) -> (..., n, m).  Each gradient is summed back
    to its input's shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise _shape_error("matmul", a.shape, b.shape)
    out = _apply("matmul", np.matmul, a, b)
    if not _live(a, b):
        return out
    lead = out.shape[:-2]
    return _record("matmul", out, (a, b), (
        _fit(lambda g: g @ b.data.swapaxes(-1, -2), a.shape, lead + a.shape[-2:]),
        _fit(lambda g: a.data.swapaxes(-1, -2) @ g, b.shape, lead + b.shape[-2:])))


def transpose(a) -> Tensor:
    """Swap the last two axes (plain transpose for 2-D)."""
    a = as_tensor(a)
    _shape_check("transpose", a.ndim >= 2, a.shape)
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    out = _wrap(a.data.transpose(axes))
    return _record("transpose", out, (a,), (lambda g: g.transpose(axes),)) if _live(a) else out


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = _wrap(a.data.reshape(tuple(shape)))
    return _record("reshape", out, (a,), (lambda g: g.reshape(a.shape),)) if _live(a) else out


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    _shape_check("concat", len(ts) > 0)
    out = _wrap(np.concatenate([t.data for t in ts], axis=axis))
    if not _live(*ts):
        return out
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def make_vjp(i):
        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(sl)]

        return vjp

    return _record("concat", out, tuple(ts), tuple(make_vjp(i) for i in range(len(ts))))


# ---------------------------------------------------------------------------
# reductions


def _spread(shape: tuple[int, ...], axis: int | None, denom=None) -> Callable:
    """VJP of a sum over ``axis`` of an input of ``shape`` (of a mean when
    ``denom`` is given): the output gradient, divided by ``denom``, copied
    back along the reduced axes into a fresh array."""
    kept = (1,) * len(shape) if axis is None else shape[:axis] + (1,) + shape[axis:][1:]

    def vjp(g):
        res = np.empty(shape)
        res[...] = g.reshape(kept) if denom is None else g.reshape(kept) / denom
        return res

    return vjp


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = _wrap(a.data.sum(axis=axis, keepdims=keepdims))
    return _record("sum", out, (a,), (_spread(a.shape, axis),)) if _live(a) else out


def tmean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = _wrap(a.data.mean(axis=axis, keepdims=keepdims))
    if not _live(a):
        return out
    denom = a.size if axis is None else a.shape[axis]
    return _record("mean", out, (a,), (_spread(a.shape, axis, denom),))


# ---------------------------------------------------------------------------
# nonlinearities


def texp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = _wrap(y)
    return _record("exp", out, (a,), (lambda g: g * y,)) if _live(a) else out


def tlog(a) -> Tensor:
    a = as_tensor(a)
    y, vjp = log_parts(a.data)
    out = _wrap(y)
    return _record("log", out, (a,), (vjp,)) if _live(a) else out


def log_parts(x: np.ndarray):
    """``tlog``'s values on an array, and its VJP; for ops that contain a log."""
    if (x < 0.0).any():
        raise ValueError("log: negative input")
    with np.errstate(divide="ignore"):
        y = np.log(x)

    def vjp(g):
        # skip coordinates with zero upstream gradient so log(0) = -inf does
        # not poison the chain (0 * inf); a live gradient at x == 0 still
        # yields inf and is caught by the caller's finiteness check.
        res = np.zeros_like(g)
        live = g != 0.0
        with np.errstate(divide="ignore"):
            np.divide(g, x, out=res, where=live)
        return res

    return y, vjp


def ttanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = _wrap(y)
    return _record("tanh", out, (a,), (lambda g: g * (1.0 - y * y),)) if _live(a) else out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = _wrap(np.maximum(a.data, 0.0))
    return _record("relu", out, (a,), (lambda g: g * (a.data > 0.0),)) if _live(a) else out


def softmax(a) -> Tensor:
    """Softmax along the last axis; rows of all ``-inf`` give all zeros."""
    a = as_tensor(a)
    y, vjp = softmax_parts(a.data)
    out = _wrap(y)
    return _record("softmax", out, (a,), (vjp,)) if _live(a) else out


def softmax_parts(x: np.ndarray):
    """``softmax``'s values on an array, and its VJP; for ops that contain a
    softmax.  A ``-inf`` entry has weight exactly 0, so its gradient is a
    signed zero."""
    hi = x.max(axis=-1, keepdims=True)
    finite = np.isfinite(hi)
    if finite.all():
        # every row's maximum is finite, so its sum is at least 1: the plain
        # form, which gives the masked one's bits here
        e = np.exp(x - hi)
        y = e / e.sum(axis=-1, keepdims=True)
    else:
        # a finite shift keeps exp(-inf - shift) = 0 without producing NaN
        e = np.exp(x - np.where(finite, hi, 0.0))
        s = e.sum(axis=-1, keepdims=True)
        # rows whose sum is not positive (all -inf, or NaN) give zeros
        pos = s > 0.0
        y = np.where(pos, e, 0.0) / np.where(pos, s, 1.0)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - inner)

    return y, vjp


LN_EPS = 1e-5  # added to layer_norm's variance


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gamma`` and shift by ``beta`` (which broadcast to ``x``'s shape); one
    node for the whole chain.

    Forward values and gradients repeat, operation by operation, what the
    composed chain mean, sub, mul, mean, add, x -> x^-1/2 (0 at x <= 0),
    mul, mul, add computes, so they equal it bit for bit.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    out, vjps = layer_norm_parts(x.data, gamma.data, beta.data)
    out = _wrap(out)
    return _record("layer_norm", out, (x, gamma, beta), vjps) if _live(x, gamma, beta) else out


def layer_norm_parts(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """``layer_norm``'s values on arrays, and its VJPs for x, gamma and
    beta; for ops that contain a layer norm."""
    d = x.shape[-1]
    # sum / d is the arithmetic of ndarray.mean, without its Python wrapper
    c = x - x.sum(axis=-1, keepdims=True) / d
    v = (c * c).sum(axis=-1, keepdims=True) / d + LN_EPS
    pos = v > 0.0
    regular = pos.all()  # no NaN variance: the unmasked form gives the same bits
    v_safe = v if regular else np.where(pos, v, 1.0)
    inv = 1.0 / np.sqrt(v) if regular else np.where(pos, 1.0 / np.sqrt(v_safe), 0.0)
    normed = c * inv
    out = normed * gamma + beta
    # the gradient of a per-row value: _unbroadcast to inv's shape, a no-op if d == 1
    rowsum = _identity if d == 1 else lambda m: m.sum(axis=-1, keepdims=True)

    def vjp_x(g):
        g_normed = g * gamma
        g_sq = -0.5 * rowsum(g_normed * c) * inv / v_safe
        if not regular:
            g_sq = np.where(pos, g_sq, 0.0)
        g_sq /= d
        # c feeds normed, then c * c twice; accumulate in that order
        gc = g_normed * inv
        g_sq = g_sq * c
        gc += g_sq
        gc += g_sq
        return gc + rowsum(-gc) / d

    s = out.shape
    return out, (vjp_x, _fit(lambda g: g * normed, gamma.shape, s), _fit(_identity, beta.shape, s))


# ---------------------------------------------------------------------------
# indexing / structural ops


def gather_rows(a, idx) -> Tensor:
    """Select rows, the second-to-last axis: out[..., k, :] = a[..., idx[k], :]."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    _shape_check("gather_rows", a.ndim >= 2, a.shape)
    out = _wrap(a.data[..., idx, :])
    if not _live(a):
        return out

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (Ellipsis, idx, slice(None)), g)
        return ga

    return _record("gather_rows", out, (a,), (vjp,))


def take_pairs(a, rows, cols) -> Tensor:
    """Gather a vector of matrix entries: out[k] = a[rows[k], cols[k]]."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    _shape_check("take_pairs", a.ndim == 2, a.shape)
    out = _wrap(a.data[rows, cols])
    if not _live(a):
        return out

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        return ga

    return _record("take_pairs", out, (a,), (vjp,))


def where(mask, a, b) -> Tensor:
    """Elementwise select by a constant boolean mask (no gradient to mask)."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(mask, dtype=bool)
    try:
        out = _wrap(np.where(mask, a.data, b.data))
    except ValueError:
        raise _shape_error("where", mask.shape, a.shape, b.shape) from None
    if not _live(a, b):
        return out
    return _binary("where", out, a, b, lambda g: np.where(mask, g, 0.0),
                   lambda g: np.where(mask, 0.0, g))


def masked_fill(a, mask, value: float) -> Tensor:
    """Set entries where mask is True to a constant (e.g. -inf attention mask)."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    try:
        out = _wrap(np.where(mask, value, a.data))
    except ValueError:
        raise _shape_error("masked_fill", a.shape, mask.shape) from None
    if out.shape != a.shape:  # a mask that broadcasts a to a larger shape: so would its gradient
        raise _shape_error("masked_fill", a.shape, mask.shape)
    if not _live(a):
        return out
    return _record("masked_fill", out, (a,), (lambda g: np.where(mask, 0.0, g),))


def stop_gradient(a) -> Tensor:
    """Identity in the forward pass; blocks the backward pass entirely."""
    return _wrap(as_tensor(a).data)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-mode sweep from a scalar loss.

    Returns a map from every reachable ``requires_grad`` leaf to its
    gradient; leaves passed around but not reachable are simply absent (the
    caller treats missing entries as zero).
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    # Collect the tracked tensors reachable from the loss (constants carry
    # no gradient and are never visited); creation order is topological.
    seen: set[Tensor] = set()
    nodes: list[Tensor] = []
    leaves: list[Tensor] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        node = t.node
        if node is None:
            leaves.append(t)
            continue
        if node.cleared:
            raise RuntimeError("backward: tape was cleared; gradients are invalid")
        nodes.append(t)
        for inp in node.inputs:
            if inp.requires_grad or inp.node is not None:
                stack.append(inp)
    nodes.sort(key=attrgetter("node.order"))

    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    owned: set[Tensor] = set()  # accumulators we allocated and may write in place
    for t in reversed(nodes):
        g = grads.pop(t, None)
        if g is None:
            continue
        node = t.node
        for inp, vjp in zip(node.inputs, node.vjps):
            if not (inp.requires_grad or inp.node is not None):
                continue
            gi = vjp(g)  # of the input's shape; a numpy scalar for a 0-d input
            acc = grads.get(inp)
            if acc is None:
                grads[inp] = gi
            elif inp in owned:
                acc += gi
            else:  # an array even where acc + gi would be a numpy scalar
                grads[inp] = np.add(acc, gi, out=np.empty_like(acc))
                owned.add(inp)
    # copies: an accumulator may be a view, or shared with another tensor
    return {t: _wrap(np.array(grads[t]))
            for t in reversed(leaves) if t.requires_grad and t in grads}
