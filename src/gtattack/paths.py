"""Shortest-path machinery for the relaxed distance-bias transformer.

Continuous adjacency entries act as edge probabilities; paths are measured
on the reciprocal weights R = 1/A so that low-probability edges lengthen a
path only marginally and weight-1 edges contribute exactly 1 (discrete
graphs therefore reproduce hop distances exactly).  Distances are not
differentiable everywhere; within one attack step the chosen shortest path
is frozen and the sum of reciprocals over it acts as the gradient proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._kernels import rspd_grad_kernel, shortest_paths_kernel
from .autodiff import Tensor

__all__ = [
    "EDGE_EPS",
    "ShortestPathResult",
    "reciprocal_weights",
    "all_pairs_shortest",
    "path_sum_proxy",
    "rspd_matrix",
    "interp_table",
    "spd_bias",
]

# adjacency entries at or below this are treated as absent edges so the
# reciprocal cannot overflow; indistinguishable from 0 at sampling time
EDGE_EPS = 1e-9

_TIE_TOL = 1e-9


@dataclass
class ShortestPathResult:
    """Distance matrix plus per-pair next hops.

    ``next_hop[u, j]`` is the first node after ``u`` on the chosen path
    from ``u`` to ``j`` (lexicographically smallest among shortest paths),
    ``-1`` when unreachable, ``u`` itself when ``u == j``.  Following the
    hops reconstructs one shortest path per pair.
    """

    rspd: np.ndarray
    next_hop: np.ndarray

    def path(self, i: int, j: int) -> list[int]:
        if self.rspd[i, j] == np.inf:
            raise ValueError(f"no path between {i} and {j}")
        nodes = [i]
        guard = self.rspd.shape[0] + 1
        u = i
        while u != j:
            u = int(self.next_hop[u, j])
            nodes.append(u)
            if len(nodes) > guard:
                raise RuntimeError("path reconstruction did not terminate")
        return nodes


def reciprocal_weights(atilde: Tensor | np.ndarray) -> np.ndarray:
    """R_ij = 1/A_ij for A_ij > 0 (so weight-1 edges cost 1); absent -> inf."""
    a = atilde.data if isinstance(atilde, Tensor) else np.asarray(atilde, dtype=np.float64)
    r = np.full_like(a, np.inf)
    present = a > EDGE_EPS
    np.divide(1.0, a, out=r, where=present)
    np.fill_diagonal(r, np.inf)
    return r


def all_pairs_shortest(r: np.ndarray) -> ShortestPathResult:
    """Floyd-Warshall over all pairs with deterministic lexicographic tie-break."""
    r = np.asarray(r, dtype=np.float64)
    off = r[~np.eye(r.shape[0], dtype=bool)]
    if off.size and np.min(off) < 1.0 - 1e-12:
        raise ValueError("all_pairs_shortest: off-diagonal weights must be >= 1 or inf")
    dist, nxt = shortest_paths_kernel(r, _TIE_TOL)
    return ShortestPathResult(rspd=dist, next_hop=nxt)


def path_sum_proxy(atilde: Tensor, result: ShortestPathResult, i: int, j: int) -> Tensor:
    """Sum of reciprocal adjacency entries over the frozen path from i to j.

    Equals rspd(i, j) in value and carries gradients back to the on-path
    adjacency entries (d(1/a)/da = -1/a^2).
    """
    if result.rspd[i, j] == np.inf:
        raise ValueError(f"path_sum_proxy: ({i}, {j}) unreachable; use the unreachable bias")
    nodes = result.path(i, j)
    if len(nodes) == 1:
        return Tensor(0.0)
    us = np.array(nodes[:-1], dtype=np.int64)
    vs = np.array(nodes[1:], dtype=np.int64)
    vals = ad.take_pairs(atilde, us, vs)
    return ad.tsum(ad.div(Tensor(np.ones(len(us))), vals))


def rspd_matrix(atilde: Tensor) -> Tensor:
    """All-pairs relaxed shortest-path distances as one differentiable op.

    Forward runs Floyd-Warshall on the reciprocal weights; backward pushes
    the upstream gradient onto the adjacency along each pair's frozen path
    (level by level through the next-hop trees of all targets at once,
    matching :func:`path_sum_proxy` edge by edge).
    """
    r = reciprocal_weights(atilde.data)
    dist, nxt = shortest_paths_kernel(r, _TIE_TOL)
    out = Tensor(dist)
    a_data = atilde.data

    def vjp(g):
        return rspd_grad_kernel(g, nxt, a_data)

    return ad._record("rspd_matrix", out, (atilde,), (vjp,))


def interp_table(table: Tensor, x: Tensor) -> Tensor:
    """Linear interpolation of 2-D table rows at continuous indices.

    Indices clamp to [0, rows-1]; integer inputs return the exact row (the
    floor index is treated as a constant, so the gradient w.r.t. ``x`` is
    the forward slope ``row[floor+1] - row[floor]``, zero once clamped).
    """
    rows = table.shape[0]
    xd = np.clip(x.data, 0.0, float(rows - 1))
    lo = np.floor(xd).astype(np.int64)
    hi = np.minimum(lo + 1, rows - 1)
    # above the top row hi == lo, so (high - low) == 0 kills both the mixing
    # term and the gradient; only the lower clamp needs masking
    eta = ad.sub(ad.where(x.data >= 0.0, x, Tensor(np.zeros(x.shape))), Tensor(lo.astype(np.float64)))
    low = ad.gather_rows(table, lo)
    high = ad.gather_rows(table, hi)
    return ad.add(low, ad.mul(ad.reshape(eta, (x.size, 1)), ad.sub(high, low)))


def spd_bias(rspd: Tensor, bias_table: Tensor, unreachable_bias: Tensor) -> Tensor:
    """Interpolated distance bias with a dedicated value for unreachable pairs.

    ``bias_table`` has shape (S_max + 1, w); distances >= S_max clamp to the
    last row; infinite distances map to ``unreachable_bias`` (shape (w,)).
    Integer distances hit table rows exactly.
    """
    shape = rspd.shape
    width = bias_table.shape[1]
    inf_mask = ~np.isfinite(rspd.data)
    finite = ad.masked_fill(rspd, inf_mask, 0.0)
    flat = ad.reshape(finite, (int(np.prod(shape)),)) if shape else finite
    mixed = interp_table(bias_table, flat)
    out_shape = tuple(shape) + (width,)
    mixed = ad.reshape(mixed, out_shape)
    unreach = ad.reshape(unreachable_bias, (1,) * len(shape) + (width,))
    return ad.where(np.broadcast_to(inf_mask[..., None], out_shape), unreach, mixed)
