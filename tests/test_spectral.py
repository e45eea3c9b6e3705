import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtattack import autodiff as ad
from gtattack.autodiff import Tensor, backward, finite_difference
from gtattack.graphs import laplacian_sym
from gtattack.spectral import (
    EigenDecomposition,
    GAP_CLAMP,
    SMALL_GAP,
    SpectralReference,
    _apply_sign_convention,
    degenerate_alignment,
    eig_sym,
    perturbed_eigenpairs,
)


def random_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def random_adjacency(rng, n, p=0.5):
    a = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    return a + a.T


def diagonal_reference(eigs):
    """Reference of diag(eigs), whose eigenvectors are the coordinate axes."""
    eigs = np.array(eigs, dtype=float)
    return SpectralReference(np.diag(eigs), EigenDecomposition(eigs, np.eye(len(eigs))))


# ---------------------------------------------------------------------------
# eig_sym


def test_identity_decomposition():
    d = eig_sym(np.eye(3))
    np.testing.assert_allclose(d.eigenvalues, [1, 1, 1])
    np.testing.assert_allclose(d.eigenvectors, np.eye(3))


def test_single_edge_laplacian():
    d = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(d.eigenvalues, [0.0, 2.0], atol=1e-11)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(d.eigenvectors[:, 0], [s, s], atol=1e-11)
    np.testing.assert_allclose(d.eigenvectors[:, 1], [s, -s], atol=1e-11)


def test_random_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = random_sym(rng, 8)
        d = eig_sym(m)
        recon = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
        assert np.max(np.abs(recon - m)) <= 1e-8
        ortho = d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(ortho - np.eye(8))) <= 1e-9
        assert np.all(np.diff(d.eigenvalues) >= -1e-12)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(2)
    m = random_sym(rng, 6)
    d1, d2 = eig_sym(m), eig_sym(m.copy())
    np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)
    for col in d1.eigenvectors.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_nonsymmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacked_laplacians_decompose_like_single_matrices():
    rng = np.random.default_rng(9)
    adjs = np.stack([random_adjacency(rng, 7) for _ in range(4)])
    adjs[0, 2, :] = adjs[0, :, 2] = 0.0  # an isolated node
    laps = laplacian_sym(adjs)
    stacked = eig_sym(laps)
    for i, a in enumerate(adjs):
        assert np.array_equal(laps[i], laplacian_sym(a))
        single = eig_sym(laps[i])
        assert np.array_equal(stacked.eigenvalues[i], single.eigenvalues)
        assert np.array_equal(stacked.eigenvectors[i], single.eigenvectors)
    laps[3, 0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(laps)


def test_nonfinite_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            eig_sym(np.array([[0.0, bad], [bad, 0.0]]))


def test_repeated_eigenvalue_laplacians():
    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = 1.0
    triangles = np.kron(np.eye(2), np.ones((3, 3)) - np.eye(3))
    k5 = np.ones((5, 5)) - np.eye(5)
    cases = [
        (star, [0.0, 1.0, 1.0, 1.0, 2.0]),
        (triangles, [0.0, 0.0, 1.5, 1.5, 1.5, 1.5]),
        (k5, [0.0, 1.25, 1.25, 1.25, 1.25]),
    ]
    for a, want in cases:
        lap = laplacian_sym(a)
        d = eig_sym(lap)
        u = d.eigenvectors
        np.testing.assert_allclose(d.eigenvalues, want, atol=1e-12)
        assert np.all(np.diff(d.eigenvalues) >= 0.0)
        assert np.max(np.abs(u.T @ u - np.eye(len(a)))) <= 1e-12
        assert np.max(np.abs(u @ np.diag(d.eigenvalues) @ u.T - lap)) <= 1e-12
        for col in u.T:
            assert col[np.argmax(np.abs(col))] > 0
        again = eig_sym(lap.copy())
        np.testing.assert_array_equal(again.eigenvalues, d.eigenvalues)
        np.testing.assert_array_equal(again.eigenvectors, u)


# ---------------------------------------------------------------------------
# degenerate alignment


def test_alignment_noop_without_degeneracy():
    rng = np.random.default_rng(3)
    lap = random_sym(rng, 5) + np.diag(np.arange(5.0) * 3)
    ref = SpectralReference(lap, eig_sym(lap))
    assert ref.groups == []
    out = degenerate_alignment(ref, random_sym(rng, 5))
    np.testing.assert_array_equal(out, ref.decomp.eigenvectors)


def test_alignment_zero_perturbation_noop():
    ref = SpectralReference(np.eye(4), eig_sym(np.eye(4)))
    assert ref.groups == [(0, 4)]
    out = degenerate_alignment(ref, np.zeros((4, 4)))
    np.testing.assert_allclose(out, ref.decomp.eigenvectors)


def test_alignment_diagonalizes_degenerate_block():
    # eigenvalues (1, 1, 3); the 2-fold block sees an off-diagonal
    # perturbation that the 2x2 block eigendecomposition must diagonalize
    ref = diagonal_reference([1.0, 1.0, 3.0])
    dl = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = degenerate_alignment(ref, dl)
    proj = out.T @ dl @ out
    assert abs(proj[0, 1]) <= 1e-9
    np.testing.assert_allclose(np.sort(np.diag(proj)[:2]), [-0.1, 0.1], atol=1e-9)
    # untouched outside the group
    np.testing.assert_allclose(out[:, 2], ref.decomp.eigenvectors[:, 2])


# ---------------------------------------------------------------------------
# perturbation operator


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=2, max_size=6))
def test_pi_antisymmetric_zero_diagonal(eigs):
    ref = diagonal_reference(sorted(eigs))
    assert ref.groups == _chain_groups(ref.decomp.eigenvalues)
    pi = ref.pi
    np.testing.assert_allclose(pi, -pi.T)
    np.testing.assert_array_equal(np.diag(pi), np.zeros(len(eigs)))


def test_pi_zero_inside_degenerate_group():
    ref = diagonal_reference([1.0, 1.0, 2.0])
    assert ref.groups == [(0, 2)]
    assert ref.pi[0, 1] == 0.0 and ref.pi[1, 0] == 0.0
    assert ref.pi[0, 2] == pytest.approx(-1.0)


def test_pi_clamps_tiny_gaps():
    ref = diagonal_reference([0.0, 1e-7, 1.0])
    assert ref.groups == []
    assert ref.pi[0, 1] == -1e6 and ref.pi[1, 0] == 1e6


def test_clamped_gap_warning_once_per_reference(caplog):
    with caplog.at_level(logging.WARNING, logger="gtattack.spectral"):
        ref = diagonal_reference([0.0, 1e-7, 1.0, 1.0 + 5e-7])
        for _ in range(3):
            perturbed_eigenpairs(ref, np.full((4, 4), 0.01))
    assert [r.args[0] for r in caplog.records] == [2]  # the gap count comes first


# ---------------------------------------------------------------------------
# first-order perturbation


def test_perturb_zero_is_identity():
    rng = np.random.default_rng(4)
    ref = SpectralReference.of(random_adjacency(rng, 6))
    lam, u = perturbed_eigenpairs(ref, np.zeros((6, 6)))
    np.testing.assert_array_equal(lam.data, ref.decomp.eigenvalues)
    np.testing.assert_array_equal(u.data, ref.decomp.eigenvectors)


def test_perturb_eigenvalues_diagonal_case():
    lam, _ = perturbed_eigenpairs(diagonal_reference([0.0, 2.0]),
                                  np.array([[0.1, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(lam.data, [0.1, 2.0])


def test_perturb_eigenvalues_offdiagonal_first_order():
    dl = np.array([[0.0, 0.1], [0.1, 0.0]])
    lam, _ = perturbed_eigenpairs(diagonal_reference([0.0, 2.0]), dl)
    np.testing.assert_allclose(lam.data, [0.0, 2.0])  # first order sees nothing
    exact = eig_sym(np.diag([0.0, 2.0]) + dl).eigenvalues
    err = np.max(np.abs(lam.data - exact))
    assert err == pytest.approx(np.sqrt(1.01) - 1.0, abs=1e-12)  # ~5e-3 = O(|dL|^2)


def test_perturb_eigenvectors_offdiagonal():
    dl = np.array([[0.0, 0.1], [0.1, 0.0]])
    _, u = perturbed_eigenpairs(diagonal_reference([0.0, 2.0]), dl)
    np.testing.assert_allclose(u.data - np.eye(2), [[0.0, 0.05], [-0.05, 0.0]], atol=1e-12)


def test_perturb_eigenvectors_degenerate_group_inert():
    ref = diagonal_reference([1.0, 1.0])
    dl = np.array([[0.0, 0.3], [0.3, 0.0]])
    _, u = perturbed_eigenpairs(ref, dl)
    np.testing.assert_allclose(u.data, degenerate_alignment(ref, dl))


def _first_order_errors(seed, eps):
    rng = np.random.default_rng(seed)
    lap = laplacian_sym(random_adjacency(rng, 10))
    ref = SpectralReference(lap, eig_sym(lap))
    if np.min(np.diff(ref.decomp.eigenvalues)) < 0.05:
        return None
    dl = random_sym(rng, 10)
    dl *= eps / np.sqrt((dl * dl).sum())
    exact = eig_sym(lap + dl).eigenvalues
    approx = perturbed_eigenpairs(ref, dl)[0].data
    return np.max(np.abs(np.sort(approx) - exact))


def test_first_order_error_scales_quadratically():
    ratios = []
    seed = 0
    while len(ratios) < 50 and seed < 500:
        e_big = _first_order_errors(seed, 1e-2)
        e_small = _first_order_errors(seed, 5e-3)
        seed += 1
        if e_big is None or e_small is None or e_small == 0:
            continue
        ratios.append(e_big / e_small)
    assert len(ratios) == 50
    mean_ratio = float(np.mean(ratios))
    assert 3.0 <= mean_ratio <= 5.0, mean_ratio


def _weighted_loss(lam, u, w1, w2):
    return ad.add(ad.tsum(ad.mul(Tensor(w1), lam)), ad.tsum(ad.mul(Tensor(w2), u)))


def test_perturb_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    lap = laplacian_sym(random_adjacency(rng, 5))
    ref = SpectralReference(lap, eig_sym(lap))
    # the alignment inside a group depends on dL but is not differentiated
    assert ref.groups == []
    w1 = rng.standard_normal(5)
    w2 = rng.standard_normal((5, 5))
    dl0 = random_sym(rng, 5, scale=0.01)

    def loss_np(flat):
        return _weighted_loss(*perturbed_eigenpairs(ref, flat.reshape(5, 5)), w1, w2).data

    dl = Tensor(dl0.copy(), requires_grad=True)
    got = backward(_weighted_loss(*perturbed_eigenpairs(ref, dl), w1, w2))[dl].data
    want = finite_difference(loss_np, dl0.reshape(-1), 1e-5).reshape(5, 5)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-4


# ---------------------------------------------------------------------------
# perturbed_eigenpairs against the four-step chain it replaced
# (degenerate_alignment, perturbation_operator, perturb_eigenvalues,
# perturb_eigenvectors), kept here as the reference


def _chain_groups(eigs):
    groups = []
    n = len(eigs)
    start = 0
    for i in range(1, n + 1):
        if i == n or (eigs[i] - eigs[i - 1]) > 1e-8 * max(1.0, abs(eigs[i])):
            if i - start > 1:
                groups.append((start, i))
            start = i
    return groups


def _chain_alignment(base, delta_l):
    delta_l = np.asarray(delta_l, dtype=np.float64)
    groups = _chain_groups(base.eigenvalues)
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


def _chain_operator(base):
    eigs = base.eigenvalues
    n = len(eigs)
    gap = eigs[:, None] - eigs[None, :]
    with np.errstate(divide="ignore"):
        pi = np.where(gap != 0.0, 1.0 / np.where(gap != 0.0, gap, 1.0), 0.0)
    groups = _chain_groups(eigs)
    for start, stop in groups:
        pi[start:stop, start:stop] = 0.0
    np.fill_diagonal(pi, 0.0)
    in_group = np.zeros((n, n), dtype=bool)
    for start, stop in groups:
        in_group[start:stop, start:stop] = True
    tiny = (np.abs(gap) < SMALL_GAP) & ~in_group & ~np.eye(n, dtype=bool) & (gap != 0.0)
    if tiny.any():
        pi = np.where(tiny, np.sign(gap) * GAP_CLAMP, pi)
    return np.clip(pi, -GAP_CLAMP, GAP_CLAMP)


def _chain_projected(base, delta_l):
    u = Tensor(base.eigenvectors)
    return ad.matmul(ad.matmul(ad.transpose(u), ad.as_tensor(delta_l)), u)


def _chain(decomp, delta):
    base = _chain_alignment(decomp, delta.data)
    pi = _chain_operator(base)
    m = _chain_projected(base, delta)
    idx = np.arange(len(base.eigenvalues))
    lam = ad.add(Tensor(base.eigenvalues), ad.take_pairs(m, idx, idx))
    m = _chain_projected(base, delta)
    u = Tensor(base.eigenvectors)
    return lam, ad.add(u, ad.neg(ad.matmul(u, ad.mul(Tensor(pi), m))))


SPECTRA = {
    "no_group": [0.0, 0.3, 0.9, 1.2, 1.7, 2.0],
    "repeated_group": [0.0, 1.25, 1.25, 1.25, 1.25, 2.0],
    "clamped_gap": [0.0, 0.4, 0.4 + 3e-7, 1.1, 1.6, 2.0],
}


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_perturbed_eigenpairs_equal_stepwise_reference_bit_for_bit(name):
    rng = np.random.default_rng(11)
    eigs = np.array(SPECTRA[name])
    n = len(eigs)
    u0 = eig_sym(random_sym(rng, n)).eigenvectors
    ref = SpectralReference(u0 @ np.diag(eigs) @ u0.T, EigenDecomposition(eigs, u0))
    assert (ref.groups != []) == (name == "repeated_group")
    w1, w2 = rng.standard_normal(n), rng.standard_normal((n, n))
    dl0 = random_sym(rng, n, scale=0.05)
    outs = []
    for fn in (lambda dl: perturbed_eigenpairs(ref, dl), lambda dl: _chain(ref.decomp, dl)):
        dl = Tensor(dl0.copy(), requires_grad=True)
        lam, u = fn(dl)
        outs.append((lam.data, u.data, backward(_weighted_loss(lam, u, w1, w2))[dl].data))
    for got, want in zip(*outs):
        assert np.array_equal(got, want)
