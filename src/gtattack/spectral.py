"""Symmetric eigendecomposition and first-order eigen-perturbation.

The decomposition is LAPACK's symmetric solver (``np.linalg.eigh``) with a
deterministic sign per eigenvector.  SAN's attacks perturb the eigenpairs of
a clean Laplacian to first order,

    dLambda ~ diag(U^T dL U)
    dU      ~ -U (Pi .* U^T dL U),   Pi_ij = 1 / (lambda_i - lambda_j),

around a ``SpectralReference``, which owns everything that depends on the
clean graph alone: the Laplacian, its eigenpairs, the index ranges of
repeated eigenvalues and Pi.  ``perturbed_eigenpairs`` is a differentiable
tensor expression in dL, so attack gradients can flow through it.  Inside a
repeated-eigenvalue group Pi is zero, and the basis is first aligned to dL
(``degenerate_alignment``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import laplacian_sym

__all__ = [
    "EigenDecomposition",
    "SpectralReference",
    "eig_sym",
    "degenerate_alignment",
    "perturbed_eigenpairs",
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


def _degenerate_groups(eigs: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) ranges of two or more ascending eigenvalues whose
    neighbours differ by at most 1e-8 * max(1, |lambda|)."""
    cuts = np.flatnonzero(np.diff(eigs) > 1e-8 * np.maximum(1.0, np.abs(eigs[1:]))) + 1
    bounds = [0, *cuts.tolist(), len(eigs)]
    return [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop - start > 1]


@dataclass
class SpectralReference:
    """Clean Laplacian, the base point of SAN's perturbed eigenpairs, with
    what the perturbation needs of it alone, built once: its eigenpairs, the
    ``groups`` of repeated eigenvalues and ``pi``.

    Pi_ij = 1/(lambda_i - lambda_j), zero on the diagonal and inside groups,
    and clamped to +-GAP_CLAMP; the gaps below SMALL_GAP that the clamp
    catches are logged once per reference, their count first.
    """

    lap: np.ndarray
    decomp: EigenDecomposition
    groups: list[tuple[int, int]] = field(init=False)
    pi: np.ndarray = field(init=False)

    def __post_init__(self):
        eigs = self.decomp.eigenvalues
        self.groups = _degenerate_groups(eigs)
        in_group = np.eye(len(eigs), dtype=bool)
        for start, stop in self.groups:
            in_group[start:stop, start:stop] = True
        gap = eigs[:, None] - eigs[None, :]
        tiny = ~in_group & (np.abs(gap) < SMALL_GAP)
        if tiny.any():
            log.warning(
                "SpectralReference: %d near-degenerate eigen-gaps < %.0e clamped to +-%.0e",
                int(tiny.sum()) // 2,
                SMALL_GAP,
                GAP_CLAMP,
            )
        pi = np.where(in_group, 0.0, 1.0 / np.where(in_group, 1.0, gap))
        self.pi = np.clip(pi, -GAP_CLAMP, GAP_CLAMP)

    @classmethod
    def of(cls, adjacency: np.ndarray) -> "SpectralReference":
        lap = laplacian_sym(adjacency)
        return cls(lap=lap, decomp=eig_sym(lap))


def degenerate_alignment(ref: SpectralReference, delta_l: np.ndarray) -> np.ndarray:
    """The reference eigenvectors, rotated inside each repeated-eigenvalue
    group so that the group block of U^T dL U is diagonal; everything else
    is untouched."""
    if not ref.groups:
        return ref.decomp.eigenvectors
    u = ref.decomp.eigenvectors.copy()
    for start, stop in ref.groups:
        ug = u[:, start:stop]
        sub = eig_sym(ug.T @ delta_l @ ug)  # symmetrizes the block
        u[:, start:stop] = _apply_sign_convention(ug @ sub.eigenvectors)
    return u


def perturbed_eigenpairs(ref: SpectralReference, delta_l) -> tuple[Tensor, Tensor]:
    """First-order eigenvalues (n,) and eigenvectors (n, n) of
    ``ref.lap + delta_l``; differentiable in delta_l (the alignment inside
    groups is not)."""
    delta_l = ad.as_tensor(delta_l)
    u = Tensor(degenerate_alignment(ref, delta_l.data))
    ut = ad.transpose(u)
    idx = np.arange(len(ref.decomp.eigenvalues))
    lam = ad.add(Tensor(ref.decomp.eigenvalues),
                 ad.take_pairs(ad.matmul(ad.matmul(ut, delta_l), u), idx, idx))
    # U^T dL U again rather than shared: one shared product reorders the
    # delta_l gradient sums, and an attack's steps amplify that ulp-level
    # change into different loss traces and flips
    m = ad.matmul(ad.matmul(ut, delta_l), u)
    return lam, ad.add(u, ad.neg(ad.matmul(u, ad.mul(Tensor(ref.pi), m))))
