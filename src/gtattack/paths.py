"""Shortest-path machinery for the relaxed distance-bias transformer.

Continuous adjacency entries act as edge probabilities; paths are measured
on the reciprocal weights R = 1/A so that low-probability edges lengthen a
path only marginally and weight-1 edges contribute exactly 1 (discrete
graphs therefore reproduce hop distances exactly).  Distances are not
differentiable everywhere; within one attack step the chosen shortest path
is frozen and the sum of reciprocals over it acts as the gradient proxy.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from ._kernels import rspd_grad_kernel, shortest_paths_kernel
from .autodiff import Tensor
from .graphs import EDGE_EPS

__all__ = [
    "EDGE_EPS",
    "reciprocal_weights",
    "rspd_matrix",
    "interp_table",
    "spd_bias",
]


def reciprocal_weights(atilde: Tensor | np.ndarray) -> np.ndarray:
    """R_ij = 1/A_ij for A_ij > EDGE_EPS (so weight-1 edges cost 1); absent -> inf."""
    a = atilde.data if isinstance(atilde, Tensor) else np.asarray(atilde, dtype=np.float64)
    r = np.full_like(a, np.inf)
    present = a > EDGE_EPS
    np.divide(1.0, a, out=r, where=present)
    np.fill_diagonal(r, np.inf)
    return r


def rspd_matrix(atilde: Tensor) -> Tensor:
    """All-pairs relaxed shortest-path distances as one differentiable op.

    Forward runs Floyd-Warshall on the reciprocal weights; backward pushes
    the upstream gradient onto the adjacency along each pair's frozen path
    (level by level through the next-hop trees of all targets at once), the
    path whose sum of reciprocal entries equals the distance.
    """
    r = reciprocal_weights(atilde.data)
    dist, nxt = shortest_paths_kernel(r)
    out = Tensor(dist)
    if not ad._live(atilde):
        return out
    a_data = atilde.data

    def vjp(g):
        return rspd_grad_kernel(g, nxt, a_data)

    return ad._record("rspd_matrix", out, (atilde,), (vjp,))


def interp_parts(table: np.ndarray, x: np.ndarray):
    """``interp_table``'s values on arrays, of shape ``x.shape + (w,)``, and
    its VJPs: x's, then the table's through the upper rows, then through the
    lower rows; for ops that contain the interpolation."""
    rows = table.shape[0]
    lo = np.floor(np.clip(x, 0.0, float(rows - 1))).astype(np.int64)
    hi = np.minimum(lo + 1, rows - 1)
    # above the top row hi == lo, so (high - low) == 0 kills both the mixing
    # term and the gradient; only the lower clamp needs masking
    lower = x >= 0.0
    eta = (np.where(lower, x, 0.0) - lo)[..., None]
    low = table[lo]
    diff = table[hi] - low

    def rows_vjp(idx, g):
        ga = np.zeros_like(table)
        np.add.at(ga, (Ellipsis, idx, slice(None)), g)
        return ga

    return low + eta * diff, (
        lambda g: np.where(lower, ad._unbroadcast(g * diff, eta.shape).reshape(x.shape), 0.0),
        lambda g: rows_vjp(hi, g * eta),
        lambda g: rows_vjp(lo, g - g * eta))


def interp_table(table: Tensor, x: Tensor) -> Tensor:
    """Linear interpolation of 2-D table rows at continuous indices, as one
    recorded op: shape ``x.shape + (w,)``.

    Indices clamp to [0, rows-1]; integer inputs return the exact row (the
    floor index is treated as a constant, so the gradient w.r.t. ``x`` is
    the forward slope ``row[floor+1] - row[floor]``, zero once clamped).
    """
    table, x = ad.as_tensor(table), ad.as_tensor(x)
    values, (vjp_x, vjp_high, vjp_low) = interp_parts(table.data, x.data)
    out = ad._wrap(values)
    if not ad._live(x, table):
        return out
    return ad._record("interp_table", out, (x, table, table), (vjp_x, vjp_high, vjp_low))


def spd_bias(rspd: Tensor, bias_table: Tensor, unreachable_bias: Tensor,
             virtual: Tensor | None = None) -> Tensor:
    """Interpolated distance bias with a dedicated value for unreachable
    pairs, as one recorded op.

    ``bias_table`` has shape (S_max + 1, w); distances >= S_max clamp to the
    last row; infinite distances map to ``unreachable_bias`` (shape (w,)).
    Integer distances hit table rows exactly.  The result has shape
    ``rspd.shape + (w,)``; with ``virtual`` (shape (w,)), rspd (..., n, n)
    gains a last row and column, a virtual node's, all of that value:
    (..., n + 1, n + 1, w).

    Values repeat the composed chain (masked_fill, the interpolation,
    where; then two concats for the virtual node), and each input's
    gradient accumulates as there: the virtual value's row before its
    column, the table's upper rows before its lower ones.
    """
    rspd, bias_table, unreachable_bias = map(ad.as_tensor, (rspd, bias_table, unreachable_bias))
    shape = rspd.shape
    width = bias_table.shape[1]
    inf_mask = ~np.isfinite(rspd.data)
    mixed, (vjp_x, vjp_high, vjp_low) = interp_parts(
        bias_table.data, np.where(inf_mask, 0.0, rspd.data))
    unreach = unreachable_bias.data.reshape((1,) * len(shape) + (width,))
    wide_mask = np.broadcast_to(inf_mask[..., None], shape + (width,))
    values = np.where(wide_mask, unreach, mixed)
    entries = [rspd, bias_table, bias_table, unreachable_bias]
    if virtual is not None:
        virtual = ad.as_tensor(virtual)
        entries += [virtual, virtual]
        n = shape[-1]
        values = np.concatenate(
            [values, np.broadcast_to(virtual.data, shape[:-1] + (1, width))], axis=-2)
        values = np.concatenate(
            [values, np.broadcast_to(virtual.data, shape[:-2] + (1, n + 1, width))], axis=-3)
    out = ad._wrap(values)
    if not ad._live(*entries):
        return out

    def pairs_grad(g):
        """The gradient of the pairs' entries, without the virtual node's."""
        return g if virtual is None else g[..., :n, :n, :]

    def mixed_grad(g):
        return np.where(wide_mask, 0.0, pairs_grad(g))

    vjps = [lambda g: np.where(inf_mask, 0.0, vjp_x(mixed_grad(g))),
            lambda g: vjp_high(mixed_grad(g)),
            lambda g: vjp_low(mixed_grad(g)),
            lambda g: ad._unbroadcast(np.where(wide_mask, pairs_grad(g), 0.0),
                                      unreach.shape).reshape(unreachable_bias.shape)]
    if virtual is not None:
        vshape = (1, 1, width)
        vjps += [lambda g: ad._unbroadcast(g[..., n:, :, :], vshape).reshape(virtual.shape),
                 lambda g: ad._unbroadcast(g[..., :n, n:, :], vshape).reshape(virtual.shape)]
    return ad._record("spd_bias", out, tuple(entries), tuple(vjps))
