"""Symmetric eigendecomposition and first-order eigen-perturbation.

The decomposition is LAPACK's symmetric solver (``np.linalg.eigh``) with a
deterministic sign per eigenvector; the perturbation approximations

    dLambda ~ diag(U^T dL U)
    dU      ~ -U (Pi .* U^T dL U),   Pi_ij = 1 / (lambda_i - lambda_j)

are implemented as differentiable tensor expressions so attack gradients
can flow through dL.  Repeated eigenvalues need an aligned basis first (see
``degenerate_alignment``), inside which Pi is zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "EigenDecomposition",
    "PerturbationOperator",
    "eig_sym",
    "degenerate_alignment",
    "perturbation_operator",
    "perturb_eigenvalues",
    "perturb_eigenvectors",
]

log = logging.getLogger(__name__)

GAP_CLAMP = 1e6
SMALL_GAP = 1e-6


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns (with
    leading axes for a stack of matrices)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]


@dataclass
class PerturbationOperator:
    """Pi matrix plus the index ranges of numerically repeated eigenvalues."""

    pi: np.ndarray
    groups: list[tuple[int, int]] = field(default_factory=list)  # [start, stop) ranges


def _apply_sign_convention(u: np.ndarray) -> np.ndarray:
    """Largest-magnitude entry of each column made positive (first index wins)."""
    idx = np.argmax(np.abs(u), axis=-2)
    top = np.take_along_axis(u, idx[..., None, :], axis=-2)
    signs = np.where(top < 0.0, -1.0, 1.0)
    return u * signs


def eig_sym(lap: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition via LAPACK of a symmetric matrix, or of each matrix
    in a (..., n, n) stack (eigenvalues (..., n), eigenvectors (..., n, n))."""
    lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim < 2 or lap.shape[-1] != lap.shape[-2]:
        raise ValueError(f"eig_sym: matrix must be square, got {lap.shape}")
    if not np.all(np.isfinite(lap)):
        raise ValueError("eig_sym: matrix has non-finite entries")
    lap_t = np.swapaxes(lap, -1, -2)
    if np.max(np.abs(lap - lap_t), initial=0.0) > 1e-9:
        raise ValueError("eig_sym: matrix is not symmetric within 1e-9")
    a = 0.5 * (lap + lap_t)
    eigs, u = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=eigs, eigenvectors=_apply_sign_convention(u))


def degeneracy_tol(lam: float) -> float:
    return 1e-8 * max(1.0, abs(lam))


def _degenerate_groups(eigs: np.ndarray, tol: float | None = None) -> list[tuple[int, int]]:
    groups = []
    n = len(eigs)
    start = 0
    for i in range(1, n + 1):
        if i == n or (eigs[i] - eigs[i - 1]) > (tol if tol is not None else degeneracy_tol(eigs[i])):
            if i - start > 1:
                groups.append((start, i))
            start = i
    return groups


def degenerate_alignment(
    base: EigenDecomposition, delta_l: np.ndarray, tol: float | None = None
) -> EigenDecomposition:
    """Rotate eigenvectors inside each repeated-eigenvalue group so that the
    group block of U^T dL U is diagonal; everything else is untouched."""
    delta_l = np.asarray(delta_l, dtype=np.float64)
    groups = _degenerate_groups(base.eigenvalues, tol)
    if not groups:
        return base
    u = base.eigenvectors.copy()
    for start, stop in groups:
        ug = u[:, start:stop]
        block = ug.T @ delta_l @ ug
        block = 0.5 * (block + block.T)
        sub = eig_sym(block)
        u[:, start:stop] = _apply_sign_convention(ug @ sub.eigenvectors)
    return EigenDecomposition(eigenvalues=base.eigenvalues.copy(), eigenvectors=u)


def perturbation_operator(base: EigenDecomposition, tol: float | None = None) -> PerturbationOperator:
    """Pi_ij = 1/(lambda_i - lambda_j); zero on the diagonal and inside
    degenerate groups; clamped to +-1e6 for near-degenerate gaps."""
    eigs = base.eigenvalues
    n = len(eigs)
    gap = eigs[:, None] - eigs[None, :]
    with np.errstate(divide="ignore"):
        pi = np.where(gap != 0.0, 1.0 / np.where(gap != 0.0, gap, 1.0), 0.0)
    groups = _degenerate_groups(eigs, tol)
    for start, stop in groups:
        pi[start:stop, start:stop] = 0.0
    np.fill_diagonal(pi, 0.0)
    in_group = np.zeros((n, n), dtype=bool)
    for start, stop in groups:
        in_group[start:stop, start:stop] = True
    tiny = (np.abs(gap) < SMALL_GAP) & ~in_group & ~np.eye(n, dtype=bool) & (gap != 0.0)
    if tiny.any():
        log.warning(
            "perturbation_operator: %d near-degenerate eigen-gaps < %.0e clamped to +-%.0e",
            int(tiny.sum()) // 2,
            SMALL_GAP,
            GAP_CLAMP,
        )
        pi = np.where(tiny, np.sign(gap) * GAP_CLAMP, pi)
    pi = np.clip(pi, -GAP_CLAMP, GAP_CLAMP)
    return PerturbationOperator(pi=pi, groups=groups)


def _projected(base: EigenDecomposition, delta_l) -> Tensor:
    u = Tensor(base.eigenvectors)
    return ad.matmul(ad.matmul(ad.transpose(u), ad.as_tensor(delta_l)), u)


def perturb_eigenvalues(base: EigenDecomposition, delta_l) -> Tensor:
    """First-order perturbed eigenvalues; differentiable in delta_l."""
    m = _projected(base, delta_l)
    idx = np.arange(base.n)
    return ad.add(Tensor(base.eigenvalues), ad.take_pairs(m, idx, idx))


def perturb_eigenvectors(
    base: EigenDecomposition, delta_l, op: PerturbationOperator | None = None
) -> Tensor:
    """First-order perturbed eigenvectors; differentiable in delta_l."""
    if op is None:
        op = perturbation_operator(base)
    m = _projected(base, delta_l)
    u = Tensor(base.eigenvectors)
    delta_u = ad.neg(ad.matmul(u, ad.mul(Tensor(op.pi), m)))
    return ad.add(u, delta_u)
