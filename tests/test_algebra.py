import numpy as np
import pytest

from seqweak import algebra
from seqweak.errors import DimMismatch, NotHermitian

from conftest import projectors, random_hermitian, random_unitary


def test_as_operator_rejects_non_square():
    with pytest.raises(DimMismatch):
        algebra.as_operator(np.zeros((2, 3)))
    with pytest.raises(DimMismatch):
        algebra.as_operator(np.zeros(4))


def test_as_vector_rejects_matrix():
    with pytest.raises(DimMismatch):
        algebra.as_vector(np.eye(2))


def test_structure_predicates(rng):
    u = random_unitary(rng, 3)
    h = random_hermitian(rng, 3)
    assert algebra.is_unitary(u)
    assert not algebra.is_unitary(h + np.eye(3) * 5)
    assert algebra.is_hermitian(h)
    assert not algebra.is_hermitian(1j * np.eye(3) + h)
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert algebra.is_projector(p)
    assert not algebra.is_projector(2 * p)


def test_eig_hermitian_reconstructs(rng):
    for _ in range(20):
        h = random_hermitian(rng, 4)
        es = algebra.eig_hermitian(h)
        # P_a = V_a V_a^dag from the columns labelled a
        ps = projectors(es)
        assert np.allclose(sum(a * p for a, p in zip(es.eigenvalues, ps)), h, atol=1e-10)
        # strictly increasing eigenvalues, orthogonal complete projectors
        assert all(a < b for a, b in zip(es.eigenvalues, es.eigenvalues[1:]))
        total = sum(ps)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for i, p in enumerate(ps):
            assert algebra.is_projector(p, 1e-9)
            for q in ps[i + 1:]:
                assert np.max(np.abs(p @ q)) < 1e-9


def test_eig_hermitian_merges_degenerate_eigenvalues(rng):
    # a rank-1 projector in dimension 4 has a triply degenerate 0 eigenvalue
    u = random_unitary(rng, 4)
    p = np.outer(u[:, 0], u[:, 0].conj())
    es = algebra.eig_hermitian(p)
    assert len(es.eigenvalues) == 2
    assert es.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert es.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)
    assert np.trace(projectors(es)[0]).real == pytest.approx(3.0)


def test_eig_hermitian_identity_is_single_branch():
    es = algebra.eig_hermitian(np.eye(3))
    assert es.eigenvalues == (1.0,)
    assert np.array_equal(es.labels, [0, 0, 0])
    assert np.allclose(projectors(es)[0], np.eye(3))


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        algebra.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("spectrum", [None, [0.0, 0.0, 0.0, 1.0], [-0.8, 0.3, 0.3, 1.1],
                                      [2.0, 2.0, 2.0, 2.0]])
def test_eig_hermitian_eigenbasis_matches_projectors(rng, spectrum):
    # the eigenvector columns labelled a span P_a, labels run contiguously
    # from 0, and each column is an eigenvector of its merged eigenvalue
    u = random_unitary(rng, 4)
    h = random_hermitian(rng, 4) if spectrum is None else (u * spectrum) @ u.conj().T
    es = algebra.eig_hermitian(h)
    labels = np.asarray(es.labels)
    assert labels[0] == 0 and np.all(np.diff(labels) >= 0) and np.all(np.diff(labels) <= 1)
    assert labels[-1] == len(es.eigenvalues) - 1
    assert np.allclose(es.vectors.conj().T @ es.vectors, np.eye(4), atol=1e-12)
    # the projectors the labels select sum to the identity and rebuild h
    ps = projectors(es)
    assert np.allclose(ps.sum(axis=0), np.eye(4), atol=1e-12)
    assert np.allclose(np.tensordot(es.eigenvalues, ps, axes=1), h, atol=1e-9)
    for a, p in enumerate(ps):
        block = es.vectors[:, labels == a]
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(h @ block, es.eigenvalues[a] * block, atol=1e-9)
