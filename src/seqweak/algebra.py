"""Dense complex linear algebra for small dimensions (d <= ~16).

Vectors and operators are plain numpy arrays of dtype complex; the helpers
here add the structure checks and the degeneracy-merged Hermitian
eigendecomposition.  `eigensystems` decomposes a whole stack of observables
in one stacked ``eigh`` and labels every eigenvector column with its merged
eigenvalue in one pass over the (n, d) eigenvalue array; a projector P_a is
never built, it is the columns labelled a (P_a = V_a V_a^dag).
`eig_hermitian` is the same routine for one matrix.
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
    """Spectral decomposition of one matrix with degenerate eigenvalues
    merged.

    ``eigenvalues`` are the merged eigenvalues, strictly increasing;
    ``vectors`` holds the orthonormal eigenvectors as columns and
    ``labels[j]`` the index of the merged eigenvalue that column j belongs
    to, so that the columns labelled a are contiguous and span the
    eigenspace of eigenvalue a (its projector is V_a V_a^dag).
    """

    eigenvalues: tuple[float, ...]
    vectors: np.ndarray
    labels: np.ndarray


def eig_hermitian(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with degeneracy merging:
    `eigensystems` of a stack of one."""
    a = as_operator(a)
    dev = hermitian_deviations(a)
    if not dev <= HERMITIAN_TOL:
        raise NotHermitian(f"max deviation {dev:.3e}")
    eigenvalues, _, labels, vectors = eigensystems(a[None])
    return EigenSystem(tuple(eigenvalues[0].tolist()), vectors[0], labels[0])


def eigensystems(a: np.ndarray):
    """Merged eigendecompositions of each matrix of an (n, d, d) stack that
    the caller has already judged Hermitian, from one stacked ``eigh``.

    Eigenvalues closer than ``DEGENERACY_RTOL * (spectral range + 1)`` are
    merged into one, the mean of the block they form.  Returns, per matrix,
    its k merged eigenvalues (a tuple of n arrays), and as (n, d) arrays
    each eigenvector column's merged eigenvalue and its label (the index of
    that eigenvalue), then the (n, d, d) eigenvectors.  The labels come from
    one pass over the whole (n, d) eigenvalue array, and a stacked call
    gives bitwise the eigenpairs of one call per matrix.
    """
    vals, vecs = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2)
    n, d = vals.shape
    spread = vals[:, -1] - vals[:, 0]
    # a merged block starts at each row's first column and wherever the
    # next eigenvalue is more than the tolerance above the one before
    starts = np.ones((n, d), dtype=bool)
    starts[:, 1:] = vals[:, 1:] - vals[:, :-1] > DEGENERACY_RTOL * (spread + 1.0)[:, None]
    block = np.cumsum(starts.reshape(-1)) - 1
    means = np.add.reduceat(vals.reshape(-1), np.flatnonzero(starts)) / np.bincount(block)
    block = block.reshape(n, d)
    cuts = [*block[:, 0].tolist(), len(means)]
    eigenvalues = tuple(means[i:j] for i, j in zip(cuts, cuts[1:]))
    return eigenvalues, means[block], block - block[:, :1], vecs
