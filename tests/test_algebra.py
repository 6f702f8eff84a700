import warnings

import numpy as np
import pytest

from seqweak import algebra
from seqweak.errors import DimMismatch

from conftest import (one_spectrum, projector_deviation, projectors, random_hermitian,
                      random_projector, random_unitary)


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
    # the verdicts at the tolerance 1e-10
    assert algebra.unitary_deviations(u) <= 1e-10
    assert not algebra.unitary_deviations(h + np.eye(3) * 5) <= 1e-10
    assert algebra.hermitian_deviations(h) <= 1e-10
    assert not algebra.hermitian_deviations(1j * np.eye(3) + h) <= 1e-10
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert algebra.projector_deviations(p) <= 1e-10
    assert not algebra.projector_deviations(2 * p) <= 1e-10


def test_projector_deviations_match_per_matrix_reference(rng):
    # projectors of every rank, nudged off by up to 1e-8, and general
    # matrices: one stacked call gives bitwise each matrix's own deviation
    for d in range(1, 6):
        stack = [random_hermitian(rng, d), random_unitary(rng, d)]
        for rank in range(1, d + 1):
            for nudge in (0.0, 1e-12, 1e-10, 1e-8):
                noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                stack.append(random_projector(rng, d, rank) + nudge * noise)
        stack = np.array(stack)
        want = np.array([projector_deviation(m) for m in stack])
        assert np.array_equal(algebra.projector_deviations(stack), want)
        for m, dev in zip(stack, want):
            assert algebra.projector_deviations(m).shape == ()
            assert algebra.projector_deviations(m) == dev
    assert algebra.projector_deviations(np.zeros((0, 3, 3))).shape == (0,)


def test_projector_deviations_read_inf_without_a_warning():
    bad = np.zeros((3, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.inf
    bad[1, 0, 1] = np.nan
    bad[2] = np.diag([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert algebra.projector_deviations(np.full((2, 2), np.inf)) == np.inf
        assert algebra.projector_deviations(bad).tolist() == [np.inf, np.inf, 0.0]


def test_eig_hermitian_reconstructs(rng):
    # `eigensystems` of a stack of one
    for _ in range(20):
        h = random_hermitian(rng, 4)
        eigs, vectors, labels = one_spectrum(h)
        # P_a = V_a V_a^dag from the columns labelled a
        ps = projectors(vectors, labels)
        assert np.allclose(sum(a * p for a, p in zip(eigs, ps)), h, atol=1e-10)
        # strictly increasing eigenvalues, orthogonal complete projectors
        assert all(a < b for a, b in zip(eigs, eigs[1:]))
        total = sum(ps)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for i, p in enumerate(ps):
            assert algebra.projector_deviations(p) <= 1e-9
            for q in ps[i + 1:]:
                assert np.max(np.abs(p @ q)) < 1e-9


def test_eig_hermitian_merges_degenerate_eigenvalues(rng):
    # a rank-1 projector in dimension 4 has a triply degenerate 0 eigenvalue
    u = random_unitary(rng, 4)
    p = np.outer(u[:, 0], u[:, 0].conj())
    eigs, vectors, labels = one_spectrum(p)
    assert len(eigs) == 2
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert eigs[1] == pytest.approx(1.0, abs=1e-12)
    assert np.trace(projectors(vectors, labels)[0]).real == pytest.approx(3.0)


def test_eig_hermitian_identity_is_single_branch():
    eigs, vectors, labels = one_spectrum(np.eye(3))
    assert eigs == (1.0,)
    assert np.array_equal(labels, [0, 0, 0])
    assert np.allclose(projectors(vectors, labels)[0], np.eye(3))


@pytest.mark.parametrize("spectrum", [None, [0.0, 0.0, 0.0, 1.0], [-0.8, 0.3, 0.3, 1.1],
                                      [2.0, 2.0, 2.0, 2.0]])
def test_eig_hermitian_eigenbasis_matches_projectors(rng, spectrum):
    # the eigenvector columns labelled a span P_a, labels run contiguously
    # from 0, and each column is an eigenvector of its merged eigenvalue
    u = random_unitary(rng, 4)
    h = random_hermitian(rng, 4) if spectrum is None else (u * spectrum) @ u.conj().T
    eigs, vectors, labels = one_spectrum(h)
    assert labels[0] == 0 and np.all(np.diff(labels) >= 0) and np.all(np.diff(labels) <= 1)
    assert labels[-1] == len(eigs) - 1
    assert np.allclose(vectors.conj().T @ vectors, np.eye(4), atol=1e-12)
    # the projectors the labels select sum to the identity and rebuild h
    ps = projectors(vectors, labels)
    assert np.allclose(ps.sum(axis=0), np.eye(4), atol=1e-12)
    assert np.allclose(np.tensordot(eigs, ps, axes=1), h, atol=1e-9)
    for a, p in enumerate(ps):
        block = vectors[:, labels == a]
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(h @ block, eigs[a] * block, atol=1e-9)
