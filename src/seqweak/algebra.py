"""Dense complex linear algebra for small dimensions (d <= ~16).

Vectors and operators are plain numpy arrays of dtype complex; the helpers
here add the structure checks and the degeneracy-merged Hermitian
eigendecomposition whose projectors define the oracle's per-site
instruments and its eigenbranches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotHermitian

DEFAULT_TOL = 1e-10
HERMITIAN_TOL = 1e-9  # an observable's tolerance, wherever it is checked
# eigenvalues closer than this times (spectral range + 1) are one branch
DEGENERACY_RTOL = 1e-8


def as_operator(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimMismatch(f"expected a vector, got shape {v.shape}")
    return v


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_operator(m)
    dev = m.conj().T @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(dev)) <= tol)


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_operator(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_projector(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_operator(m)
    return is_hermitian(m, tol) and bool(np.max(np.abs(m @ m - m)) <= tol)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition with degenerate eigenvalues merged.

    Projectors are Hermitian, idempotent, mutually orthogonal and sum to
    the identity; eigenvalues are strictly increasing.  ``vectors`` holds
    the orthonormal eigenvectors as columns and ``labels[j]`` the merged
    eigenvalue that column j belongs to, so that the columns labelled a
    are contiguous and P_a = V_a V_a^dag.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    vectors: np.ndarray
    labels: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return sum(a * p for a, p in zip(self.eigenvalues, self.projectors))


def eig_hermitian(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with degeneracy merging.

    Eigenvalues closer than ``DEGENERACY_RTOL * (spectral range + 1)`` are
    merged into a single branch whose projector spans the combined
    eigenspace.
    """
    a = as_operator(a)
    if not is_hermitian(a, HERMITIAN_TOL):
        raise NotHermitian(f"max deviation {np.max(np.abs(a - a.conj().T)):.3e}")
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    spread = float(vals[-1] - vals[0]) if len(vals) else 0.0

    # a merged block ends wherever the next eigenvalue is more than the
    # tolerance above it
    gaps = (np.flatnonzero(np.diff(vals) > DEGENERACY_RTOL * (spread + 1.0)) + 1).tolist()
    cuts = [0, *gaps, len(vals)]
    blocks = [(vals[i:j], vecs[:, i:j]) for i, j in zip(cuts, cuts[1:]) if i < j]
    eigenvalues = [float(v.sum() / len(v)) for v, _ in blocks]
    projectors = [b @ b.conj().T for _, b in blocks]
    labels = np.repeat(np.arange(len(blocks)), [len(v) for v, _ in blocks])
    return EigenSystem(tuple(eigenvalues), tuple(projectors), vecs, labels)
