"""Adam optimizer for the training harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moments of all parameters, flattened and concatenated in
    parameter-dict order, and the parameter sizes they were made for."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    sizes: tuple[int, ...] = ()
    t: int = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One Adam update with bias correction; parameters are updated in place.

    Missing gradient entries count as zero.  The update runs once over all
    parameters concatenated, each element with the per-tensor arithmetic;
    identical calls produce identical results.
    """
    sizes = tuple(p.data.size for p in params.values())
    if state.m is None:
        state.m, state.v, state.sizes = np.zeros(sum(sizes)), np.zeros(sum(sizes)), sizes
    elif sizes != state.sizes:
        raise ValueError(f"adam_step: parameter sizes {sizes} != state sizes {state.sizes}")
    parts = []
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros(p.data.shape) if g is None else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} != param shape {p.data.shape} for {name!r}"
            )
        parts.append(g.reshape(-1))
    g = np.concatenate(parts) if parts else np.zeros(0)
    state.t += 1
    # in place: at a transformer's parameter count each temporary is fresh pages
    m, v = state.m, state.v
    step = (1.0 - BETA1) * g
    m *= BETA1
    m += step
    np.multiply(1.0 - BETA2, g, out=step)
    step *= g
    v *= BETA2
    v += step
    np.divide(m, 1.0 - BETA1**state.t, out=step)
    step *= lr
    np.divide(v, 1.0 - BETA2**state.t, out=g)
    np.sqrt(g, out=g)
    g += EPS
    step /= g
    offset = 0
    for p, size in zip(params.values(), sizes):
        p.data -= step[offset:offset + size].reshape(p.data.shape)
        offset += size
