"""Pre/post-selected measurement scenarios and the two circuit walks.

A circuit is an initial state, n stages of (unitary, observable), a final
unitary and a post-selection bra.  The observable of stage k sits at the
boundary after U_k and before U_{k+1}; a boundary without a measurement
stores the identity there.

`amplitudes` is the forward walk: <psi_f| U_f X_n ... X_1 |psi_i> for
many choices of X_k at once (A_k U_k for weak values, N U_k or (1 - N) U_k
for histories, U_k or N U_k for the weak values of on-projectors).  It
costs one matvec per distinct prefix of the choices, about 2^(n+1) for a
full table of 2^n weak values.

`effects` is the backward walk.  A pointer coupled at a site makes it a
quantum instrument with Kraus-like operators P_a U (`site_instruments`, P_a
the observable's eigenprojectors) weighted by a (k, k) kernel K, and the
post-selection walks back through them, E <- sum_{b,a} K[b,a] (P_b U)^dag
E (P_a U), linear in the number of sites.  Pointer overlap kernels
(`oracle`) give exact moments and the sampler's densities; identity kernels
give the strong-measurement effects.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra
from .errors import DimMismatch, InvalidInput

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Circuit:
    psi_i: np.ndarray
    stages: tuple[tuple[np.ndarray, np.ndarray], ...]
    u_final: np.ndarray
    psi_f: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        psi_i = algebra.as_vector(self.psi_i)
        psi_f = algebra.as_vector(self.psi_f)
        d = psi_i.shape[0]
        stages = tuple(
            (algebra.as_operator(u), algebra.as_operator(a)) for u, a in self.stages
        )
        u_final = algebra.as_operator(self.u_final)
        for u, a in stages + ((u_final, np.eye(d)),):
            if u.shape[0] != d or a.shape[0] != d:
                raise DimMismatch("stage dimension does not match the state")
        if psi_f.shape[0] != d:
            raise DimMismatch("post-selection dimension does not match the state")
        if abs(np.linalg.norm(psi_i) - 1.0) > 1e-10:
            raise InvalidInput("initial state must be normalized")
        if np.linalg.norm(psi_f) == 0.0:
            raise InvalidInput("post-selection state must be nonzero")
        for k, (u, a) in enumerate(stages, start=1):
            if not algebra.is_unitary(u, 1e-9):
                raise InvalidInput(f"stage {k} evolution is not unitary")
            if not algebra.is_hermitian(a, algebra.HERMITIAN_TOL):
                raise InvalidInput(f"stage {k} observable is not Hermitian")
        if not algebra.is_unitary(u_final, 1e-9):
            raise InvalidInput("final evolution is not unitary")
        object.__setattr__(self, "psi_i", psi_i)
        object.__setattr__(self, "psi_f", psi_f)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "u_final", u_final)

    @property
    def dim(self) -> int:
        return self.psi_i.shape[0]

    @property
    def n(self) -> int:
        return len(self.stages)

    def observable(self, site: int) -> np.ndarray:
        return self.stages[site - 1][1]

    def with_observables(self, observables: dict[int, np.ndarray]) -> "Circuit":
        """Copy of the circuit with the given 1-based sites re-measured."""
        stages = list(self.stages)
        for site, a in observables.items():
            u, _ = stages[site - 1]
            stages[site - 1] = (u, algebra.as_operator(a))
        return replace(self, stages=tuple(stages))

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.psi_i.tobytes())
        for u, a in self.stages:
            h.update(u.tobytes())
            h.update(a.tobytes())
        h.update(self.u_final.tobytes())
        h.update(self.psi_f.tobytes())
        return h.hexdigest()


def amplitudes(c: Circuit, ops, histories) -> np.ndarray:
    """<psi_f| U_f X_n ... X_1 |psi_i> for every row of ``histories``.

    ``ops[k]`` stacks the operators tried at site k+1 with the stage unitary
    already applied, shape (m_k, d, d); row h of the int array
    ``histories``, shape (m, n), picks X_{k+1} = ops[k][h[k]].  The result
    has shape (m,).

    Rows that share a prefix share its state: after one lexicographic sort
    each distinct prefix through site k+1 is a contiguous run of rows, and
    the walk takes one matvec per run, from the state of its parent run.
    That is one matvec per distinct prefix, about 2^(n+1) for a full table
    of 2^n rows, instead of one per row and site.
    """
    h = np.asarray(histories)
    m, n = h.shape
    bra = c.psi_f.conj() @ c.u_final
    if m == 0 or n == 0:  # np.lexsort needs a key; every row is the empty history
        return np.repeat(c.psi_i[None, :], m, axis=0) @ bra
    order = np.lexsort(h.T[::-1])
    hs = np.ascontiguousarray(h[order].T)
    # new_run[k, i]: sorted row i starts a new distinct prefix through site
    # k+1.  Every start at site k is also one at site k+1, so the parent of
    # a run is the number of site-k starts among the site-(k+1) starts up to
    # its own, less one.
    new_run = np.empty((n, m), dtype=bool)
    new_run[:, 0] = True
    np.logical_or.accumulate(hs[:, 1:] != hs[:, :-1], axis=0, out=new_run[:, 1:])
    v = c.psi_i[None, :, None]
    for k, x in enumerate(ops):
        starts = np.flatnonzero(new_run[k])
        parent = (np.cumsum(new_run[k - 1, starts]) - 1 if k
                  else np.zeros(len(starts), dtype=np.intp))
        v = x[hs[k, starts]] @ v[parent]
    out = np.empty(m, dtype=complex)
    out[order] = (v[:, :, 0] @ bra)[np.cumsum(new_run[-1]) - 1]
    return out


def site_instruments(c: Circuit) -> list[tuple[np.ndarray, algebra.EigenSystem]]:
    """Per site, the stacked operators P_a U of shape (k, d, d) and the
    observable's `EigenSystem`, whose k merged eigenvalues a they belong to."""
    out = []
    for u, a in c.stages:
        es = algebra.eig_hermitian(a)
        out.append((np.stack(es.projectors) @ u, es))
    return out


def effects(c: Circuit, sites, kernels) -> list[np.ndarray]:
    """Backward effects of the post-selection through the site instruments.

    ``sites`` comes from `site_instruments`; ``kernels[i]`` stacks m (k, k)
    kernels for site i, so m walks run side by side.  Entry i of the result,
    shape (m, d, d), is the effect of everything after site i (0-based) on
    the state just after site i; entry n is U_f^dag |psi_f><psi_f| U_f and
    entry 0 acts on the initial state.  A circuit without sites has one walk.
    """
    bra = c.u_final.conj().T @ c.psi_f
    m = len(kernels[0]) if kernels else 1
    e = np.repeat(np.outer(bra, bra.conj())[None], m, axis=0)
    out = [e]
    for (pu, _), kern in zip(reversed(sites), reversed(kernels)):
        # E <- sum_{b,a} K[b,a] (P_b U)^dag E (P_a U), as plain matmuls
        right = e[:, None] @ pu
        mixed = (kern @ right.reshape(m, len(pu), -1)).reshape(right.shape)
        e = np.add.reduce(pu.conj().swapaxes(1, 2) @ mixed, axis=1)
        out.append(e)
    return out[::-1]


def transition_amplitude(c: Circuit) -> complex:
    """<psi_f| U_{n+1} ... U_1 |psi_i>, observables skipped."""
    ops = [u[None] for u, _ in c.stages]
    return complex(amplitudes(c, ops, np.zeros((1, c.n), dtype=np.uint8))[0])


def valid_subset(subset, n: int) -> tuple[int, ...]:
    s = tuple(int(i) for i in subset)
    if any(i < 1 or i > n for i in s):
        raise InvalidInput(f"subset {s} out of range 1..{n}")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise InvalidInput(f"subset {s} is not strictly increasing")
    return s


# Mode-space encoding of the two-interferometer circuit: basis index 0
# carries (B, E, D'-row), index 1 carries (C, F, D-row); the photon enters
# along A = e0 and is post-selected at detector D = e1.  Beam-splitter signs
# follow the silvered-surface phase convention, which fixes the bare
# transition amplitude at -1/sqrt(2).
P_B = np.diag([1.0, 0.0]).astype(complex)
P_C = np.diag([0.0, 1.0]).astype(complex)
P_E = np.diag([1.0, 0.0]).astype(complex)
P_F = np.diag([0.0, 1.0]).astype(complex)

U1_DOUBLE = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
U2_DOUBLE = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
U3_DOUBLE = np.array([[1, 1], [-1, 1]], dtype=complex) / _SQ2


def builtin_double_interferometer(obs1=None, obs2=None) -> Circuit:
    """The two-stage interferometer, post-selected at detector D.

    ``obs1`` sits between the beam-splitters of the first and second
    interferometer (paths B/C), ``obs2`` after the second beam-splitter
    (paths E/F).  Defaults are P_B and P_F, the pair whose sequential weak
    value is -1/2.
    """
    a1 = P_B if obs1 is None else obs1
    a2 = P_F if obs2 is None else obs2
    return Circuit(
        psi_i=np.array([1.0, 0.0], dtype=complex),
        stages=((U1_DOUBLE, a1), (U2_DOUBLE, a2)),
        u_final=U3_DOUBLE,
        psi_f=np.array([0.0, 1.0], dtype=complex),
        labels=("B/E", "C/F"),
    )
