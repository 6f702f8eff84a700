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


def unitary_deviations(ms) -> np.ndarray:
    """Largest entry of |m^dag m - 1| for a matrix, or for each matrix of an
    (m, d, d) stack in one call; entries past the float range read inf (or
    nan) without a warning."""
    ms = np.asarray(ms, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = ms.conj().swapaxes(-1, -2) @ ms - np.eye(ms.shape[-1])
        return np.abs(dev).max(axis=(-2, -1), initial=0.0)


def hermitian_deviations(ms) -> np.ndarray:
    """Largest entry of |m - m^dag| for a matrix, or for each matrix of an
    (m, d, d) stack in one call; entries past the float range read inf (or
    nan) without a warning."""
    ms = np.asarray(ms, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(ms - ms.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    return bool(unitary_deviations(as_operator(m)) <= tol)


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    return bool(hermitian_deviations(as_operator(m)) <= tol)


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
    dev = hermitian_deviations(a)
    if not dev <= HERMITIAN_TOL:
        raise NotHermitian(f"max deviation {dev:.3e}")
    return _merged(*np.linalg.eigh((a + a.conj().T) / 2))


def eigensystems(a: np.ndarray) -> list[EigenSystem]:
    """`eig_hermitian` of each matrix of an (m, d, d) stack that the caller
    has already judged Hermitian, from one stacked ``eigh``; a stacked call
    gives bitwise the eigenpairs of one call per matrix."""
    vals, vecs = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2)
    return list(map(_merged, vals, vecs))


def _merged(vals: np.ndarray, vecs: np.ndarray) -> EigenSystem:
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
