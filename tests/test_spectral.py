import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtattack import autodiff as ad
from gtattack.autodiff import Tensor, backward, finite_difference
from gtattack.graphs import laplacian_sym
from gtattack.spectral import (
    EigenDecomposition,
    degenerate_alignment,
    eig_sym,
    perturb_eigenvalues,
    perturb_eigenvectors,
    perturbation_operator,
)


def random_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def random_adjacency(rng, n, p=0.5):
    a = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    return a + a.T


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
    base = eig_sym(random_sym(rng, 5) + np.diag(np.arange(5.0) * 3))
    out = degenerate_alignment(base, random_sym(rng, 5))
    np.testing.assert_array_equal(out.eigenvectors, base.eigenvectors)


def test_alignment_zero_perturbation_noop():
    base = eig_sym(np.eye(4))
    out = degenerate_alignment(base, np.zeros((4, 4)))
    np.testing.assert_allclose(out.eigenvectors, base.eigenvectors)


def test_alignment_diagonalizes_degenerate_block():
    # eigenvalues (1, 1, 3); the 2-fold block sees an off-diagonal
    # perturbation that the 2x2 block eigendecomposition must diagonalize
    base = EigenDecomposition(np.array([1.0, 1.0, 3.0]), np.eye(3))
    dl = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = degenerate_alignment(base, dl)
    proj = out.eigenvectors.T @ dl @ out.eigenvectors
    assert abs(proj[0, 1]) <= 1e-9
    np.testing.assert_allclose(np.sort(np.diag(proj)[:2]), [-0.1, 0.1], atol=1e-9)
    # untouched outside the group
    np.testing.assert_allclose(out.eigenvectors[:, 2], base.eigenvectors[:, 2])


# ---------------------------------------------------------------------------
# perturbation operator


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=2, max_size=6))
def test_pi_antisymmetric_zero_diagonal(eigs):
    base = EigenDecomposition(np.array(sorted(eigs)), np.eye(len(eigs)))
    pi = perturbation_operator(base).pi
    np.testing.assert_allclose(pi, -pi.T)
    np.testing.assert_array_equal(np.diag(pi), np.zeros(len(eigs)))


def test_pi_zero_inside_degenerate_group():
    base = EigenDecomposition(np.array([1.0, 1.0, 2.0]), np.eye(3))
    op = perturbation_operator(base)
    assert op.groups == [(0, 2)]
    assert op.pi[0, 1] == 0.0 and op.pi[1, 0] == 0.0
    assert op.pi[0, 2] == pytest.approx(-1.0)


def test_pi_clamps_tiny_gaps():
    base = EigenDecomposition(np.array([0.0, 1e-7, 1.0]), np.eye(3))
    op = perturbation_operator(base)
    assert op.pi[0, 1] == -1e6 and op.pi[1, 0] == 1e6


# ---------------------------------------------------------------------------
# first-order perturbation


def test_perturb_zero_is_identity():
    rng = np.random.default_rng(4)
    base = eig_sym(laplacian_sym(random_adjacency(rng, 6)))
    lam = perturb_eigenvalues(base, np.zeros((6, 6)))
    u = perturb_eigenvectors(base, np.zeros((6, 6)))
    np.testing.assert_array_equal(lam.data, base.eigenvalues)
    np.testing.assert_array_equal(u.data, base.eigenvectors)


def test_perturb_eigenvalues_diagonal_case():
    base = EigenDecomposition(np.array([0.0, 2.0]), np.eye(2))
    lam = perturb_eigenvalues(base, np.array([[0.1, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(lam.data, [0.1, 2.0])


def test_perturb_eigenvalues_offdiagonal_first_order():
    base = EigenDecomposition(np.array([0.0, 2.0]), np.eye(2))
    dl = np.array([[0.0, 0.1], [0.1, 0.0]])
    lam = perturb_eigenvalues(base, dl)
    np.testing.assert_allclose(lam.data, [0.0, 2.0])  # first order sees nothing
    exact = eig_sym(np.diag([0.0, 2.0]) + dl).eigenvalues
    err = np.max(np.abs(lam.data - exact))
    assert err == pytest.approx(np.sqrt(1.01) - 1.0, abs=1e-12)  # ~5e-3 = O(|dL|^2)


def test_perturb_eigenvectors_offdiagonal():
    base = EigenDecomposition(np.array([0.0, 2.0]), np.eye(2))
    dl = np.array([[0.0, 0.1], [0.1, 0.0]])
    du = perturb_eigenvectors(base, dl).data - base.eigenvectors
    np.testing.assert_allclose(du, [[0.0, 0.05], [-0.05, 0.0]], atol=1e-12)


def test_perturb_eigenvectors_degenerate_group_inert():
    base = EigenDecomposition(np.array([1.0, 1.0]), np.eye(2))
    dl = np.array([[0.0, 0.3], [0.3, 0.0]])
    aligned = degenerate_alignment(base, dl)
    u = perturb_eigenvectors(aligned, dl)
    np.testing.assert_allclose(u.data, aligned.eigenvectors)


def _first_order_errors(seed, eps):
    rng = np.random.default_rng(seed)
    lap = laplacian_sym(random_adjacency(rng, 10))
    base = eig_sym(lap)
    if np.min(np.diff(base.eigenvalues)) < 0.05:
        return None
    dl = random_sym(rng, 10)
    dl *= eps / np.sqrt((dl * dl).sum())
    exact = eig_sym(lap + dl).eigenvalues
    approx = perturb_eigenvalues(degenerate_alignment(base, dl), dl).data
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


def test_perturb_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    lap = laplacian_sym(random_adjacency(rng, 5))
    base = eig_sym(lap)
    w1 = rng.standard_normal(5)
    w2 = rng.standard_normal((5, 5))
    dl0 = random_sym(rng, 5, scale=0.01)

    def loss_np(flat):
        dl = Tensor(flat.reshape(5, 5))
        lam = perturb_eigenvalues(base, dl)
        u = perturb_eigenvectors(base, dl)
        return (w1 * lam.data).sum() + (w2 * u.data).sum()

    dl = Tensor(dl0.copy(), requires_grad=True)
    loss = ad.add(
        ad.tsum(ad.mul(Tensor(w1), perturb_eigenvalues(base, dl))),
        ad.tsum(ad.mul(Tensor(w2), perturb_eigenvectors(base, dl))),
    )
    got = backward(loss)[dl].data
    want = finite_difference(loss_np, dl0.reshape(-1), 1e-5).reshape(5, 5)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-4
