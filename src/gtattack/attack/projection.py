"""Euclidean projection onto the budget polytope {x in [0,1]^k : sum x <= budget}."""

from __future__ import annotations

import numpy as np

__all__ = ["project_budget"]

# rounding a solved segment may leave its sum above the budget by this share
SUM_RTOL = 1e-9


def project_budget(values: np.ndarray, budget: float) -> np.ndarray:
    """Project onto the box-plus-simplex constraint set.

    If clamping to [0,1] already satisfies the sum, that is the projection.
    Otherwise it is clamp(x - mu, 0, 1) where the sum S(mu) = ``budget``:
    S rises piecewise linearly as mu falls, with breakpoints x_i and x_i - 1,
    so mu is solved exactly on the segment below the last breakpoint (in
    descending order) where S <= budget, whose slope is positive.  Values too
    large for x_i - 1 to differ from x_i break that search (a zero slope, or
    a sum above the budget); mu is then found by bisection on S, which keeps
    S(mu) <= budget.
    """
    values = np.asarray(values, dtype=np.float64)
    if budget < 0.0 or not np.all(np.isfinite(values)):
        raise ValueError("project_budget: values must be finite and budget non-negative")
    clamped = np.clip(values, 0.0, 1.0)
    if clamped.sum() <= budget:
        return clamped
    points = np.concatenate([values, values - 1.0])
    order = np.argsort(-points)
    points = points[order]
    slope = np.cumsum(np.repeat([1.0, -1.0], len(values))[order])
    sums = np.concatenate([[0.0], np.cumsum(slope[:-1] * (points[:-1] - points[1:]))])
    t = np.searchsorted(sums, budget, side="right") - 1
    if slope[t] > 0.0:
        projected = np.clip(values - (points[t] - (budget - sums[t]) / slope[t]), 0.0, 1.0)
        if projected.sum() <= budget * (1.0 + SUM_RTOL):
            return projected
    # S(lo) > budget >= S(hi) = 0; halve until no float lies between them
    lo, hi = values.min() - 1.0, values.max()
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.clip(values - mid, 0.0, 1.0).sum() <= budget:
            hi = mid
        else:
            lo = mid
    return np.clip(values - hi, 0.0, 1.0)
