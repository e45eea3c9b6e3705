"""Reference implementations that the tests hold recorded ops against.

The composed chains are the primitive compositions that the one-node ops
``layer_norm``, ``apply_flips``, ``attack_loss``, ``node_probability``,
``sym_normalize``, ``paths.interp_table``, ``paths.spd_bias``, ``SAN.lpe``,
``models.common.attention`` and ``models.common.layer_tail`` replaced; each
records one autodiff node per primitive.  The primitives below them have
no caller outside these chains, so they live here rather than in the
engine.  Central finite differences check every gradient, the per-pair
shortest paths with their frozen-path sums are the reference for
``paths.rspd_matrix``, and the per-target next-hop loop is the one
``shortest_paths_kernel`` replaced.  The per-step flip op is the one the
per-block ``apply_flips`` replaced, and the set-based block resampling the
one ``resample_block`` replaced.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gtattack import autodiff as ad
from gtattack._kernels import _TIE_TOL, bfs_hops, shortest_paths_kernel
from gtattack.attack.structure import KEEP_FRACTION, BlockState
from gtattack.autodiff import Tensor, as_tensor
from gtattack.graphs import laplacian_sym, laplacian_sym_tensor
from gtattack.models.common import RelaxToggles, linear, log_prob_row
from gtattack.paths import rspd_matrix
from gtattack.spectral import eig_sym, perturbed_eigenpairs

# ---------------------------------------------------------------------------
# primitives only the chains use


def rsqrt_safe(a) -> Tensor:
    """x -> x**-0.5 where x > 0, else 0 (degree-0 Laplacian convention)."""
    a = as_tensor(a)
    pos = a.data > 0.0
    plain = pos.all()  # every x > 0, where the masked form gives the same bits
    x = a.data if plain else np.where(pos, a.data, 1.0)
    y = 1.0 / np.sqrt(x) if plain else np.where(pos, 1.0 / np.sqrt(x), 0.0)
    out = ad._wrap(y)
    if not ad._live(a):
        return out

    def vjp(g):
        gx = -0.5 * g * y / x
        return gx if plain else np.where(pos, gx, 0.0)

    return ad._record("rsqrt_safe", out, (a,), (vjp,))


def prod_lastdim(a) -> Tensor:
    """Product along the last axis, with a backward that is exact at zeros.

    grad wrt x_j is prod_{k != j} x_k: rows with one zero route all gradient
    to that entry, rows with two or more zeros get zero gradient everywhere.
    """
    a = as_tensor(a)
    x = a.data
    out = ad._wrap(x.prod(axis=-1))
    if not ad._live(a):
        return out

    def vjp(g):
        zeros = x == 0.0
        nzero = zeros.sum(axis=-1, keepdims=True)
        xs = np.where(zeros, 1.0, x)
        prod_nz = xs.prod(axis=-1, keepdims=True)
        # generic entry: product of the other coordinates
        part = np.where(
            nzero == 0,
            prod_nz / xs,
            np.where(nzero == 1, np.where(zeros, prod_nz, 0.0), 0.0),
        )
        return np.expand_dims(g, -1) * part

    return ad._record("prod_lastdim", out, (a,), (vjp,))


def scatter_pairs(values, shape: tuple[int, int], rows, cols) -> Tensor:
    """Dense matrix with values[k] placed at (rows[k], cols[k]), zeros elsewhere."""
    values = as_tensor(values)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    ad._shape_check("scatter_pairs", values.ndim == 1 and len(rows) == values.size,
                    values.shape)
    data = np.zeros(shape, dtype=np.float64)
    np.add.at(data, (rows, cols), values.data)
    out = ad._wrap(data)
    if not ad._live(values):
        return out
    return ad._record("scatter_pairs", out, (values,), (lambda g: g[rows, cols],))


# ---------------------------------------------------------------------------
# composed chains


def composed_layer_norm(x, gamma, beta, eps=1e-5):
    """Layer norm as a chain of primitives, one node each."""
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = rsqrt_safe(ad.add(var, Tensor(np.full(var.shape, eps))))
    return ad.add(ad.mul(ad.mul(centered, inv), gamma), beta)


def composed_apply_flips(adjacency, pairs, values):
    """A + (1 - 2A) * B with B scattered from the values and their mirrors."""
    a = np.asarray(adjacency, dtype=np.float64)
    if len(pairs) == 0:
        return Tensor(a.copy())
    values = ad.as_tensor(values)
    n = a.shape[0]
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    both = ad.concat([values, values], axis=0)
    dense_b = scatter_pairs(both, (n, n), rows, cols)
    delta = ad.mul(Tensor(1.0 - 2.0 * a), dense_b)
    return ad.add(Tensor(a), delta)


def per_step_apply_flips(adjacency, pairs, values):
    """One flip of ``values`` at ``pairs``, its indices, base entries and
    coefficients worked out again on every call."""
    a = np.asarray(adjacency, dtype=np.float64)
    if len(pairs) == 0:
        return Tensor(a.copy())
    values = ad.as_tensor(values)
    k = len(pairs)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    base = a[rows, cols]
    coef = 1.0 - 2.0 * base
    flipped = a.copy()
    flipped[rows, cols] = base + coef * np.concatenate([values.data, values.data])
    out = ad._wrap(flipped)
    if not ad._live(values):
        return out

    def vjp(g):
        gm = g[rows, cols] * coef
        return gm[:k] + gm[k:]

    return ad._record("apply_flips", out, (values,), (vjp,))


def composed_attack_loss(logits, labels, kind, task):
    """``attack_loss`` as a chain: gathered margins through tanh and a mean
    (tanh_margin), or a sum with its sign (raw_score)."""
    lead, (n, c) = logits.shape[:-2], logits.shape[-2:]
    if kind == "tanh_margin":
        assert task == "node"
        labels = np.broadcast_to(np.asarray(labels, dtype=np.int64), lead + (n,)).reshape(-1)
        flat = ad.reshape(logits, (-1, c))
        rows = np.arange(len(labels))
        masked = flat.data.copy()
        masked[rows, labels] = -np.inf
        margin = ad.sub(ad.take_pairs(flat, rows, labels),
                        ad.take_pairs(flat, rows, np.argmax(masked, axis=1)))
        return ad.tmean(ad.ttanh(ad.reshape(margin, lead + (n,))), axis=-1)
    assert kind == "raw_score" and task == "graph"
    score = ad.tsum(ad.reshape(logits, lead + (n * c,)), axis=-1)
    return score if int(labels) == 1 else ad.neg(score)


def composed_node_probability(atilde, rounds=3):
    """p_i <- 1 - prod_j (1 - A_ij p_j) from p = 1, over the dense matrix."""
    n = atilde.shape[0]
    p = Tensor(np.ones(n))
    ones = Tensor(np.ones((n, n)))
    for _ in range(rounds):
        factors = ad.sub(ones, ad.mul(atilde, ad.reshape(p, (1, n))))
        p = ad.sub(Tensor(np.ones(n)), prod_lastdim(factors))
    return p


def composed_sym_normalize(a):
    """D^-1/2 A D^-1/2 of a (..., n, n) stack, as GCN composed it."""
    n = a.shape[-1]
    lead = a.shape[:-2]
    s = rsqrt_safe(ad.tsum(a, axis=-1))
    scale = ad.mul(ad.reshape(s, lead + (n, 1)), ad.reshape(s, lead + (1, n)))
    return ad.mul(a, scale)


def attention_nodeprob_bias(w, lp):
    """softmax(w + log p) == p_j e^{w_ij} / sum_k p_k e^{w_ik}, rowwise, for
    ``lp = log_prob_row(p)``; plain softmax(w) when ``lp`` is None.

    Nodes with probability 0 are excluded exactly.
    """
    return ad.softmax(w if lp is None else ad.add(w, lp))


def composed_layer_tail(m, h, update, l):
    """Layer ``l``'s post-norm tail of model ``m``: h = LN(h + update), then
    LN(h + FFN(h)), one node per primitive."""
    h = ad.layer_norm(ad.add(h, update), m.p(f"l{l}.ln1.g"), m.p(f"l{l}.ln1.b"))
    ffn = linear(ad.relu(linear(h, m.p(f"l{l}.ffn.w1"), m.p(f"l{l}.ffn.b1"))),
                 m.p(f"l{l}.ffn.w2"), m.p(f"l{l}.ffn.b2"))
    return ad.layer_norm(ad.add(h, ffn), m.p(f"l{l}.ln2.g"), m.p(f"l{l}.ln2.b"))


def _san_dual_attention(m, h, a, l, hh, relaxed, lp):
    """One SAN head: real- and fake-edge branches mixed 1/(1+gamma) : gamma/(1+gamma)."""
    gamma = m.hparams["gamma"]
    scale = 1.0 / np.sqrt(m.hparams["hidden"] // m.hparams["heads"])
    qr = ad.matmul(h, m.p(f"l{l}.h{hh}.wq_real"))
    kr = ad.matmul(h, m.p(f"l{l}.h{hh}.wk_real"))
    qf = ad.matmul(h, m.p(f"l{l}.h{hh}.wq_fake"))
    kf = ad.matmul(h, m.p(f"l{l}.h{hh}.wk_fake"))
    v = ad.matmul(h, m.p(f"l{l}.h{hh}.wv"))
    w_real = ad.mul(ad.matmul(qr, ad.transpose(kr)), scale)
    w_fake = ad.mul(ad.matmul(qf, ad.transpose(kf)), scale)
    if relaxed:
        w_real = ad.add(w_real, ad.tlog(a))
        w_fake = ad.add(w_fake, ad.tlog(ad.sub(1.0, a)))
    else:
        real_support = a.data > 0.5
        w_real = ad.masked_fill(w_real, ~real_support, -np.inf)
        w_fake = ad.masked_fill(w_fake, real_support, -np.inf)
    alpha = ad.add(
        ad.mul(attention_nodeprob_bias(w_real, lp), 1.0 / (1.0 + gamma)),
        ad.mul(attention_nodeprob_bias(w_fake, lp), gamma / (1.0 + gamma)),
    )
    return ad.matmul(alpha, v)


def composed_interp_table(table, x):
    """Linear interpolation of table rows at continuous indices x (1-D or
    0-d): (x.size, w) rows."""
    rows = table.shape[0]
    xd = np.clip(x.data, 0.0, float(rows - 1))
    lo = np.floor(xd).astype(np.int64)
    hi = np.minimum(lo + 1, rows - 1)
    eta = ad.sub(ad.where(x.data >= 0.0, x, Tensor(np.zeros(x.shape))), Tensor(lo.astype(np.float64)))
    low = ad.gather_rows(table, lo)
    high = ad.gather_rows(table, hi)
    return ad.add(low, ad.mul(ad.reshape(eta, (x.size, 1)), ad.sub(high, low)))


def composed_spd_bias(rspd, bias_table, unreachable_bias):
    """The interpolated distance bias, ``unreachable_bias`` at infinite
    distances: rspd.shape + (w,)."""
    shape = rspd.shape
    width = bias_table.shape[1]
    inf_mask = ~np.isfinite(rspd.data)
    finite = ad.masked_fill(rspd, inf_mask, 0.0)
    flat = ad.reshape(finite, (int(np.prod(shape)),)) if shape else finite
    mixed = composed_interp_table(bias_table, flat)
    out_shape = tuple(shape) + (width,)
    mixed = ad.reshape(mixed, out_shape)
    unreach = ad.reshape(unreachable_bias, (1,) * len(shape) + (width,))
    return ad.where(np.broadcast_to(inf_mask[..., None], out_shape), unreach, mixed)


def composed_head_bias(m, spd, hh):
    """Graphormer head ``hh``'s (..., n', n') score bias; graph tasks append
    the virtual node's row and column."""
    n = spd.shape[-1]
    lead = spd.shape[:-2]
    bias = composed_spd_bias(spd, m.p(f"spd.h{hh}.table"), m.p(f"spd.h{hh}.unreachable"))
    bias = ad.reshape(bias, spd.shape)
    if m.task != "graph":
        return bias
    bv = m.p(f"spd.h{hh}.virtual")
    col = ad.mul(Tensor(np.ones(lead + (n, 1))), ad.reshape(bv, (1, 1)))
    row = ad.mul(Tensor(np.ones(lead + (1, n + 1))), ad.reshape(bv, (1, 1)))
    return ad.concat([ad.concat([bias, col], axis=-1), row], axis=-2)


def composed_degree_pe(deg, table, relaxed):
    """``degree_pe`` with the relaxed interpolation as a chain."""
    if relaxed:
        return composed_interp_table(table, deg)
    idx = np.clip(np.rint(deg.data), 0, table.shape[0] - 1).astype(np.int64)
    rows = ad.gather_rows(table, idx.reshape(-1))
    return ad.reshape(rows, idx.shape + (table.shape[1],))


def composed_lpe(m, eigenvalues, eigenvectors):
    """SAN's eigen-token encoder as a chain of primitives."""
    n = eigenvectors.shape[-1]
    lead = eigenvectors.shape[:-2]
    k = m.hparams["eigenpairs"]
    dp = m.hparams["pe_dim"]
    keep = min(k, n)
    lam_k = ad.gather_rows(ad.reshape(eigenvalues, lead + (n, 1)), np.arange(keep))
    u_k = ad.transpose(ad.gather_rows(ad.transpose(eigenvectors), np.arange(keep)))
    if keep < k:
        lam_k = ad.concat([lam_k, Tensor(np.zeros(lead + (k - keep, 1)))], axis=-2)
        u_k = ad.concat([u_k, Tensor(np.zeros(lead + (n, k - keep)))], axis=-1)
    # tokens: (..., n, k, 2) rows of (lambda_t, U_{i,t})
    lam_grid = ad.add(Tensor(np.zeros(lead + (n, k))), ad.reshape(lam_k, lead + (1, k)))
    tokens = ad.concat(
        [ad.reshape(lam_grid, lead + (n, k, 1)), ad.reshape(u_k, lead + (n, k, 1))], axis=-1
    )
    t2d = linear(ad.reshape(tokens, lead + (n * k, 2)), m.p("lpe.tok.w"), m.p("lpe.tok.b"))
    t3d = ad.reshape(t2d, lead + (n, k, dp))
    q = ad.reshape(ad.matmul(t2d, m.p("lpe.wq")), lead + (n, k, dp))
    kk = ad.reshape(ad.matmul(t2d, m.p("lpe.wk")), lead + (n, k, dp))
    v = ad.reshape(ad.matmul(t2d, m.p("lpe.wv")), lead + (n, k, dp))
    scores = ad.mul(ad.matmul(q, ad.transpose(kk)), 1.0 / np.sqrt(dp))
    mixed = ad.add(t3d, ad.matmul(ad.softmax(scores), v))
    m2d = ad.reshape(mixed, lead + (n * k, dp))
    ffn = linear(ad.relu(linear(m2d, m.p("lpe.ffn.w1"), m.p("lpe.ffn.b1"))),
                 m.p("lpe.ffn.w2"), m.p("lpe.ffn.b2"))
    return ad.tmean(ad.reshape(ad.add(m2d, ffn), lead + (n, k, dp)), axis=-2)


def composed_san_forward(m, atilde, features, toggles=RelaxToggles(), node_probs=None,
                         spectral_ref=None, decomp=None):
    """``SAN.forward`` with per-head attention and the layer tail as chains
    of primitives: the oracle for the two ops in SAN."""
    a = ad.as_tensor(atilde)
    if toggles.san_lap_pert and spectral_ref is not None:
        lam, u = perturbed_eigenpairs(
            spectral_ref, ad.sub(laplacian_sym_tensor(a), Tensor(spectral_ref.lap)))
    else:
        if decomp is None:
            decomp = eig_sym(laplacian_sym(a.data))
        lam, u = Tensor(decomp.eigenvalues), Tensor(decomp.eigenvectors)
    pe = composed_lpe(m, lam, u)
    h = ad.concat([linear(ad.as_tensor(features), m.p("x.w"), m.p("x.b")), pe], axis=-1)
    lp = None
    if node_probs is not None and toggles.node_prob_bias:
        lp = log_prob_row(node_probs)
    for l in range(m.hparams["layers"]):
        outs = [_san_dual_attention(m, h, a, l, hh, toggles.san_attention, lp)
                for hh in range(m.hparams["heads"])]
        h = composed_layer_tail(m, h, ad.matmul(ad.concat(outs, axis=-1), m.p(f"l{l}.wo")), l)
    return m._readout(h, node_probs)


def composed_graphormer_forward(m, atilde, features, toggles=RelaxToggles(), node_probs=None):
    """``Graphormer.forward`` with per-head attention and the layer tail as
    chains of primitives: the oracle for the two ops in Graphormer."""
    a = ad.as_tensor(atilde)
    spd = (rspd_matrix(a, m.hparams["max_spd"]) if toggles.graphormer_spd
           else Tensor(bfs_hops(np.rint(a.data))))
    lead = a.shape[:-2]
    heads = m.hparams["heads"]
    deg = ad.tsum(a, axis=-1)
    h = ad.add(linear(ad.as_tensor(features), m.p("x.w"), m.p("x.b")),
               composed_degree_pe(deg, m.p("deg_table"), toggles.graphormer_deg))
    if m.task == "graph":
        h = ad.concat([h, ad.mul(Tensor(np.ones(lead + (1, 1))), m.p("virtual_emb"))], axis=-2)
    lp = None
    if node_probs is not None and toggles.node_prob_bias:
        p_full = node_probs
        if m.task == "graph":
            p_full = ad.concat([node_probs, Tensor(np.ones(1))], axis=0)
        lp = log_prob_row(p_full)
    biases = [composed_head_bias(m, spd, hh) for hh in range(heads)]
    scale = 1.0 / np.sqrt(m.hparams["hidden"] // heads)
    for l in range(m.hparams["layers"]):
        outs = []
        for hh in range(heads):
            q = ad.matmul(h, m.p(f"l{l}.h{hh}.wq"))
            k = ad.matmul(h, m.p(f"l{l}.h{hh}.wk"))
            v = ad.matmul(h, m.p(f"l{l}.h{hh}.wv"))
            w = ad.add(ad.mul(ad.matmul(q, ad.transpose(k)), scale), biases[hh])
            outs.append(ad.matmul(attention_nodeprob_bias(w, lp), v))
        h = composed_layer_tail(m, h, ad.matmul(ad.concat(outs, axis=-1), m.p(f"l{l}.wo")), l)
    if m.task == "graph":  # the virtual node reads out the graph
        h = ad.gather_rows(h, np.array([h.shape[-2] - 1]))
    return linear(h, m.p("out.w"), m.p("out.b"))


# ---------------------------------------------------------------------------
# block resampling


def set_based_resample_block(block, rng, allowed):
    """``resample_block`` with the kept pairs as a Python set, membership by
    ``np.isin`` of a list, and the new block ordered by ``np.lexsort``."""
    size = len(block.pairs)
    n_keep = int(round(KEEP_FRACTION * size))
    order = np.argsort(-block.values, kind="stable")
    kept_idx = np.sort(order[:n_keep])
    kept_pairs = block.pairs[kept_idx]
    kept_vals = block.values[kept_idx]
    kept_keys = set((kept_pairs[:, 0] * block.n + kept_pairs[:, 1]).tolist())
    pool_mask = ~np.isin(allowed[:, 0] * block.n + allowed[:, 1], list(kept_keys))
    pool = allowed[pool_mask]
    n_new = min(size - n_keep, len(pool))
    if n_new > 0:
        pick = np.sort(rng.choice(len(pool), size=n_new, replace=False))
        pairs = np.vstack([kept_pairs, pool[pick]])
        values = np.concatenate([kept_vals, np.zeros(n_new)])
    else:
        pairs, values = kept_pairs, kept_vals
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return BlockState(n=block.n, pairs=pairs[order], values=values[order])


# ---------------------------------------------------------------------------
# finite differences


def finite_difference(
    loss_fn: Callable[[np.ndarray], float],
    point: np.ndarray,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function."""
    if epsilon <= 0:
        raise ValueError("finite_difference: epsilon must be positive")
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    flat = point.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        hi = loss_fn(point)
        flat[i] = orig - epsilon
        lo = loss_fn(point)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * epsilon)
    return grad


# ---------------------------------------------------------------------------
# per-pair shortest paths


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


def per_target_next_hops(r: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """``shortest_paths_kernel``'s next hops from its distances, one target
    j at a time: an (n, n) test of every neighbor of every node towards j,
    then the stray fallback pair by pair."""
    n = r.shape[0]
    nxt = np.full((n, n), -1, dtype=np.int64)
    for j in range(n):
        col = dist[:, j]
        on_path = r + col[None, :] <= col[:, None] + _TIE_TOL
        nxt[:, j] = np.where(np.isfinite(col), np.argmax(on_path, axis=1), -1)
        nxt[j, j] = j
    # a row with no neighbor inside _TIE_TOL, where argmax picked node 0, takes the
    # neighbor of least length instead
    cols = np.arange(n)
    hop = np.maximum(nxt, 0)
    stray = (nxt >= 0) & ~(r[cols[:, None], hop] + dist[hop, cols] <= dist + _TIE_TOL)
    np.fill_diagonal(stray, False)
    for u, j in zip(*np.nonzero(stray)):
        nxt[u, j] = np.argmin(r[u] + dist[:, j])
    return nxt


def all_pairs_shortest(r: np.ndarray) -> ShortestPathResult:
    """Floyd-Warshall over all pairs with deterministic lexicographic tie-break."""
    r = np.asarray(r, dtype=np.float64)
    off = r[~np.eye(r.shape[0], dtype=bool)]
    if off.size and np.min(off) < 1.0 - 1e-12:
        raise ValueError("all_pairs_shortest: off-diagonal weights must be >= 1 or inf")
    dist, nxt = shortest_paths_kernel(r)
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
