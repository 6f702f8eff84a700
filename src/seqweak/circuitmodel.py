"""Pre/post-selected measurement scenarios and the two circuit walks.

A circuit is an initial state, n stages of (unitary, observable), a final
unitary and a post-selection bra.  The observable of stage k sits at the
boundary after U_k and before U_{k+1}; a boundary without a measurement
stores the identity there.  Post-selection is onto a ray, so `Circuit`
keeps the unit vector of the bra it is given, and no walk or gate sees the
given bra's length: every amplitude is that of the unit post-selection,
and |F|^2 is the bare post-selection probability.

There are two forward walks, both <psi_f| U_f X_n ... X_1 |psi_i> for many
choices of X_k at once and both one matvec per distinct prefix of the
choices.  `product_amplitudes` walks every combination of some operators
per site: the histories (N U_k or (1 - N) U_k), the weak values of every
subset of some sites (U_k or X_k U_k), the demo's grid, the path identity
and single rows such as `transition_amplitude`.  `tree_amplitudes` walks
a prefix tree of site subsets (X_k = A_k U_k at the sites of a subset, U_k
elsewhere), which a table truncated at some order is and no product is;
the weak-value table (`weakvalue.weak_value_table`) uses it.

`effects` is the backward walk.  A pointer coupled at a site makes it a
quantum instrument with Kraus-like operators P_a U (P_a the observable's
eigenprojectors) weighted by a (k, k) kernel K, and the post-selection
walks back through them, E <- sum_{b,a} K[b,a] (P_b U)^dag E (P_a U),
linear in the number of sites.  No projector is built: the walk runs in
the sites' eigenbases (`eigenbases`: one stacked eigendecomposition, the
eigenvector labels, the hops T_i = V_{i+1}^dag U_{i+1} V_i between
consecutive eigenbases, the start coordinates and the post-selection bra),
where P_a keeps the coordinates labelled a.  There the walk carries
F_i = V_i^dag E_i V_i, and a step is F_{i-1} = T^dag (K~ o F_i) T with K~
the kernel expanded by labels.  Pointer overlap kernels (`oracle`) give
exact moments and the sampler's densities; identity kernels give the
strong-measurement effects.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra
from .errors import BadStage, DimMismatch, InvalidInput

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Circuit:
    psi_i: np.ndarray
    stages: tuple[tuple[np.ndarray, np.ndarray], ...]
    u_final: np.ndarray
    psi_f: np.ndarray

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
        # every matrix is judged here and only here, in two stacked calls;
        # the first failure in stanza order (U_1, A_1, U_2, ..., U_f) raises
        n = len(stages)
        u_dev = algebra.unitary_deviations(np.stack([u for u, _ in stages] + [u_final]))
        a_dev = algebra.hermitian_deviations(
            np.array([a for _, a in stages], dtype=complex).reshape(n, d, d))
        u_ok = (u_dev <= 1e-9).tolist()
        a_ok = (a_dev <= algebra.HERMITIAN_TOL).tolist() + [True]
        for k in range(1, n + 2):
            if not u_ok[k - 1]:
                what = f"stage {k} evolution" if k <= n else "final evolution"
                raise BadStage(f"{what} is not unitary", k, False, u_dev[k - 1])
            if not a_ok[k - 1]:
                raise BadStage(f"stage {k} observable is not Hermitian", k, True,
                               a_dev[k - 1])
        with np.errstate(over="ignore"):  # entries past ~1e154 give an inf norm
            norm_i, norm_f = np.linalg.norm(psi_i), np.linalg.norm(psi_f)
        # the largest real or imaginary part: finite for finite entries
        top = np.abs([psi_f.real, psi_f.imag]).max()
        if not abs(norm_i - 1.0) <= 1e-10:
            raise InvalidInput("initial state must be normalized")
        if top == 0.0:
            raise InvalidInput("post-selection state must be nonzero")
        if not np.isfinite(top):
            raise InvalidInput("post-selection state must have a finite squared norm")
        # post-selection is onto the ray of psi_f: keep its unit vector.  The
        # squares of a bra past ~1e154 overflow and below ~1e-154 underflow,
        # so such a bra is first scaled by its largest part
        if not 1e-150 <= norm_f <= 1e150:
            psi_f = psi_f.real / top + 1j * (psi_f.imag / top)
            norm_f = np.linalg.norm(psi_f)
        psi_f = psi_f / norm_f
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


def product_amplitudes(c: Circuit, ops) -> np.ndarray:
    """<psi_f| U_f X_n ... X_1 |psi_i> for every choice of the X_k.

    ``ops[k]`` stacks the m_k operators tried at site k+1 with the stage
    unitary already applied, shape (m_k, d, d).  The result is flat, in C
    order: reshaped to (m_1, ..., m_n), entry (j_1, ..., j_n) takes
    X_k = ops[k-1][j_k].  (It stays flat because a single row past 64 sites
    has more axes than an array may.)

    The states after site k are those of every choice at sites 1..k, in
    C order; each becomes m_{k+1} states by one broadcast matvec per
    operator, so every prefix of the choices is walked once.
    """
    v = c.psi_i[None, :, None]
    for x in ops:
        v = (x @ v[:, None]).reshape(-1, c.dim, 1)
    return v[:, :, 0] @ (c.psi_f.conj() @ c.u_final)


def tree_amplitudes(c: Circuit, measured, last, prefix) -> np.ndarray:
    """<psi_f| U_f X_n ... X_1 |psi_i> for every entry of a prefix tree of
    site subsets, X_k = ``measured[k-1]`` (the stage unitary already
    applied) at the sites of the entry and U_k at the other sites.

    Entry h is its last site ``last[h]`` after the sites of entry
    ``prefix[h]``, whose own last site is earlier.  Entry 0 is the empty
    subset, the only one with last site 0.  The states are kept grouped by
    last site.  At site j one matmul starts every entry whose last site is
    j from its prefix's state, and one more carries every entry started
    before through U_j.  That is one matvec per entry and site from its
    last site on: one per distinct prefix of the subsets' 0/1 rows.
    """
    last, prefix = np.asarray(last), np.asarray(prefix)
    at = np.zeros(len(last), dtype=np.intp)  # each entry's row of s
    s = np.empty((len(last), c.dim, 1), dtype=complex)
    s[0, :, 0] = c.psi_i
    started = 1
    for j, ((u, _), x) in enumerate(zip(c.stages, measured), start=1):
        group = np.flatnonzero(last == j)
        new = x @ s[at[prefix[group]]]
        at[group] = np.arange(started, started + len(group))
        s[:started] = u @ s[:started]
        s[started:started + len(group)] = new
        started += len(group)
    return (s[:, :, 0] @ (c.psi_f.conj() @ c.u_final))[at]


@dataclass(frozen=True)
class Eigenbases:
    """Every site's observable A_i in its eigenbasis V_i, from one stacked
    eigendecomposition, with the circuit carried between those bases.

    ``eigenvalues[i]`` holds site i+1's k merged eigenvalues; ``merged``
    and ``labels``, shape (n, d), give each eigenvector column's merged
    eigenvalue and its index, so that the projector P_a keeps the
    coordinates labelled a.  ``hops[i]`` = V_{i+2}^dag U_{i+2} V_{i+1}
    carries coordinates from site i+1's eigenbasis to the next site's,
    ``start`` = V_1^dag U_1 psi_i is the state entering site 1 and ``bra``
    = V_n^dag U_f^dag psi_f the post-selection, in the last site's
    eigenbasis.  Without sites V_0 = 1: ``start`` is psi_i and ``bra``
    U_f^dag psi_f.
    """

    eigenvalues: tuple[np.ndarray, ...]
    merged: np.ndarray
    labels: np.ndarray
    vectors: np.ndarray
    hops: np.ndarray
    start: np.ndarray
    bra: np.ndarray


def eigenbases(c: Circuit) -> Eigenbases:
    """The circuit's `Eigenbases`.  The circuit has judged its observables
    Hermitian, so one stacked eigendecomposition serves every site, and one
    stacked product gives every hop."""
    d = c.dim
    eigenvalues, merged, labels, vectors = algebra.eigensystems(
        np.array([a for _, a in c.stages], dtype=complex).reshape(c.n, d, d))
    dag = vectors.conj().swapaxes(1, 2)
    units = np.array([u for u, _ in c.stages[1:]], dtype=complex).reshape(-1, d, d)
    if c.n:
        start = dag[0] @ c.stages[0][0] @ c.psi_i
        bra = dag[-1] @ (c.u_final.conj().T @ c.psi_f)
    else:
        start, bra = c.psi_i, c.u_final.conj().T @ c.psi_f
    return Eigenbases(eigenvalues, merged, labels, vectors,
                      dag[1:] @ units @ vectors[:-1], start, bra)


def effects(sites: Eigenbases, kernels: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The post-selection walked back through every site, in the sites'
    eigenbases (`eigenbases`).

    ``kernels`` has shape (n, m, d, d): site i's m kernels over its
    eigenvector columns, K~[j, l] = K[labels_j, labels_l] for a (k, k)
    kernel K over its merged eigenvalues, so m walks run side by side.  A
    pointer coupled at site i makes E_{i-1} = sum_{b,a} K[b,a]
    (P_b U_i)^dag E_i (P_a U_i) the effect just before it, and in the
    eigenbases F_i = V_i^dag E_i V_i that is F_{i-1} = T^dag (K~ o F_i) T,
    a Hadamard product and two matmuls by the hop T.  Returns the m values
    <psi_i|E_0|psi_i> = x^dag (K~_1 o F_1) x, x the start coordinates, and
    F_1, ..., F_n, each of shape (m, d, d); F_n = bra bra^dag.  Kernels
    of a huge coupling can overflow the walk: its values then read inf or
    nan, without a warning, for the caller to judge.
    """
    f = np.repeat((sites.bra[:, None] * sites.bra.conj())[None], kernels.shape[1], axis=0)
    walk = []
    with np.errstate(over="ignore", invalid="ignore"):
        for hop, kern in zip(sites.hops[::-1], kernels[:0:-1]):
            walk.append(f)
            f = hop.conj().T @ (kern * f) @ hop
        if len(kernels):
            walk.append(f)
            f = kernels[0] * f
        x = sites.start
        return (f @ x) @ x.conj(), walk[::-1]


def transition_amplitude(c: Circuit) -> complex:
    """<psi_f| U_{n+1} ... U_1 |psi_i>, observables skipped."""
    return complex(product_amplitudes(c, [u[None] for u, _ in c.stages])[0])


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
    # mode 0 is path B (first interferometer) and E (second), mode 1 C and F
    return Circuit(
        psi_i=np.array([1.0, 0.0], dtype=complex),
        stages=((U1_DOUBLE, a1), (U2_DOUBLE, a2)),
        u_final=U3_DOUBLE,
        psi_f=np.array([0.0, 1.0], dtype=complex),
    )
