"""Exact simulation of weakly coupled pointers (no expansion in g).

A pointer coupled at a site weights the site's instrument, the operators
P_a U over the observable's merged eigenvalues a, by its overlap kernel K.
The exact oracle walks the post-selection back through the kernel-weighted
instruments in the sites' eigenbases (`circuitmodel.effects`), with each
kernel expanded to the eigenvector columns by their labels, K~[j, l] =
K[labels_j, labels_l], and reads <psi_i|E_0|psi_i> off the last step; the
Monte Carlo sampler draws each readout against the intermediate F_i =
V_i^dag E_i V_i.  Kernels stay arrays: the two formula helpers return
[S, Q, P] stacks (a table's P only on request), and a readout kind picks
the kernel at its index in `KINDS`.  `site_kernels`, the one kernel entry
of the oracle and the sampler, calls `gaussian_kernels` once over the
(n, d) merged eigenvalues of the columns, or per site `_table_kernels`,
expanded by labels.  A table's kernels are grid sums of its shifted
samples, which Parseval's identity takes in frequency space: (k, N) x
(N, k) products of its cached spectrum times the shift phases
(`_phases`, also the sampler's, and the one check that a shift keeps the
table on its grid), with no inverse FFT.  The shared-pointer mean sums its
branch amplitudes <psi_f| U_f P_b U_2 P_a U_1 |psi_i> as label masks of
bra x T x start.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .circuitmodel import Circuit, Eigenbases, effects, eigenbases, valid_subset
from .errors import (AssumptionAViolated, DegeneratePostSelection, GridResolutionError,
                     InvalidInput, NumericallySingular)
from .pointer import MomentSpec, PointerProfile, check_coupling

IMAG_RESIDUE_TOL = 1e-9
NORM_TOL = 1e-14


def _postselected_moment(den, num) -> tuple[float, float]:
    """The moment num / den and the post-selection probability den from the
    post-selected norm ``den`` and numerator ``num`` of a walk (whose
    post-selection `Circuit` keeps at unit length), behind the norm gate, a
    finiteness gate (a walk at a huge coupling overflows) and the
    imaginary-residue gate of an analytically real moment, which is
    relative to the moment's size once that exceeds 1."""
    if abs(den) < NORM_TOL:  # no moment is defined
        raise DegeneratePostSelection(f"post-selected norm {abs(den):.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = complex(num / den)
    if not (cmath.isfinite(den) and cmath.isfinite(num) and cmath.isfinite(ratio)):
        raise NumericallySingular("the post-selected walk overflows the float range")
    if abs(ratio.imag) >= IMAG_RESIDUE_TOL * max(1.0, abs(ratio.real)):
        raise NumericallySingular(
            f"imaginary residue {ratio.imag:.3e} in an analytically real moment")
    return float(ratio.real), float(den.real)


KINDS = (None, "q", "p")  # a readout kind picks the kernel at its index


def gaussian_kernels(eigs, g: float, sigma: float,
                     q_offset: float = 0.0, p_offset: float = 0.0) -> np.ndarray:
    """Closed-form overlaps [S, Q, P] for a Gaussian profile.

    S(b,a) = int conj(phi(q - g b)) phi(q - g a) dq, Q and P likewise with a
    q or -i d/dq insertion.  For zero offsets: S(b,a) = exp(-g^2 (a-b)^2 /
    (8 sigma^2)), Q(b,a) = S(b,a) g (a+b)/2 and P(b,a) = S(b,a) i g (b-a) /
    (4 sigma^2); offsets add the translation/boost terms.  Validated against
    numeric quadrature in the test suite.  ``eigs`` of shape (..., k) gives
    kernels of shape (3, ..., k, k), one per row.  Where (g (a - b))^2
    overflows, S reads its exact limit exp(-inf) = 0; where a shift g a
    overflows, Q and P read inf or nan, for the walk's caller to refuse;
    neither warns.
    """
    if sigma <= 0:
        raise InvalidInput("sigma must be positive")
    a = np.asarray(eigs, dtype=float)
    diff = a[..., None, :] - a[..., :, None]      # a - b
    mid = (a[..., None, :] + a[..., :, None]) / 2  # (a + b)/2
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(-(g * diff) ** 2 / (8 * sigma**2)) * np.exp(-1j * p_offset * g * diff)
        q = s * (q_offset + g * mid)
        p = s * (p_offset - 1j * g * diff / (4 * sigma**2))
    return np.stack([s, q, p])


def _check_on_grid(prof: PointerProfile, shifts) -> None:
    """Refuse shifts s that move a table's support |phi| > 1e-8 peak (the
    decay `PointerProfile.tabulated` requires) off its own grid: a shift
    in frequency space is circular, so the profile would wrap around.  An
    infinite shift never stays on the grid."""
    _, _, _, live_lo, live_hi = prof._spectrum
    top = prof.grid_min + prof.grid_step * (len(prof.values) - 1)  # the grid's last point
    if np.any((live_lo + shifts < prof.grid_min) | (live_hi + shifts > top)):
        raise GridResolutionError("shifted pointer profile does not decay at the grid ends")


def _phases(prof: PointerProfile, shifts) -> np.ndarray:
    """exp(-i w s) over a table's FFT frequencies w, in FFT order, one row
    per shift s, behind the grid-end check (`_check_on_grid`): the one
    builder of a table's shift phases, for its kernels and the sampler's
    rows alike.  The frequencies are the integer multiples j dw, which in
    ascending order run j = -(N // 2) + B hi + lo with B = ceil(sqrt(N)),
    so each row is the outer product of two exp vectors of about sqrt(N)
    entries; its upper half, from j = 0, then leads."""
    _check_on_grid(prof, shifts)
    freq = prof._spectrum[2]
    n = len(freq)
    width = math.isqrt(n - 1) + 1
    angle = (shifts * freq[1])[:, None]  # s dw
    coarse = np.exp(-1j * angle * (width * np.arange(-(-n // width)) - n // 2))
    fine = np.exp(-1j * angle * np.arange(width))
    ascending = (coarse[:, :, None] * fine[:, None, :]).reshape(len(shifts), -1)
    return np.concatenate([ascending[:, n // 2:n], ascending[:, :n // 2]], axis=1)


def _table_kernels(prof: PointerProfile, shifts, momentum: bool = False) -> np.ndarray:
    """Overlaps [S, Q] of a table shifted by ``shifts``, or [S, Q, P] with
    ``momentum``, by Parseval over its spectrum (`PointerProfile._spectrum`)
    on its own grid: with A = Phi E, E = `_phases`, and step h,
    S = (h / N) conj(A) A^T; Q = (h / N) conj(A) (Psi E)^T + S diag(s), as
    q phi(q - s) is the shifted q phi plus s phi(q - s); and
    P = (h / N) conj(A) diag(w) A^T.  No inverse FFT is taken."""
    spectrum, q_spectrum, freq, _, _ = prof._spectrum
    phases = _phases(prof, shifts)
    right = spectrum * phases
    left = (prof.grid_step / len(freq)) * right.conj()
    s = left @ right.T
    kern = [s, left @ (q_spectrum * phases).T + s * shifts]
    if momentum:
        kern.append((left * freq) @ right.T)
    return np.array(kern)


def site_kernels(sites: Eigenbases, g: float, prof: PointerProfile, kinds) -> np.ndarray:
    """(n, 2, d, d): per site its S kernel and the kernel that ``kinds[i]``
    picks, its index in `KINDS`, over the site's eigenvector columns; a
    table builds its P kernel only at the "p" sites."""
    if prof.kind == "gaussian":
        kern = gaussian_kernels(sites.merged, g, prof.sigma, prof.q_offset, prof.p_offset)
        picks = [KINDS.index(kind) for kind in kinds]
        return np.stack([kern[0], kern[picks, range(len(picks))]], axis=1)
    with np.errstate(over="ignore"):  # an overflowed shift is off every grid
        shifts = [g * eigs for eigs in sites.eigenvalues]
    stacks = []
    for s, labels, kind in zip(shifts, sites.labels, kinds):
        kern = _table_kernels(prof, s, kind == "p")
        stacks.append(kern[[0, KINDS.index(kind)]][:, labels[:, None], labels])
    d = sites.merged.shape[1]
    return np.array(stacks, dtype=complex).reshape(-1, 2, d, d)


def exact_moment(c: Circuit, spec: MomentSpec, g: float,
                 prof: PointerProfile) -> tuple[float, float]:
    """Exact post-selected expectation of the pointer product named by
    ``spec``, with one pointer coupled at every measurement site of the
    circuit.  Returns (value, post-selection probability).  The S kernels
    give the post-selected norm; the numerator takes the Q or P kernel at
    each site that ``spec`` names."""
    check_coupling(g)
    named = {s: k for s, k in spec.factors}
    valid_subset(sorted(named), c.n)

    sites = eigenbases(c)
    kernels = site_kernels(sites, g, prof, [named.get(i) for i in range(1, c.n + 1)])
    (den, num), _ = effects(sites, kernels)
    return _postselected_moment(den, num)


def same_pointer_twice(c: Circuit, g: float, prof: PointerProfile) -> float:
    """Exact <q> for a single pointer weakly coupled at both sites of a
    two-site circuit; the pointer ends up translated by g (a1 + a2).  The
    (k2, k1) branch amplitudes <psi_f| U_f P_b U_2 P_a U_1 |psi_i> are the
    sums of conj(bra_j) T_jl start_l over the columns j labelled b at site 2
    and l labelled a at site 1."""
    if c.n != 2:
        raise InvalidInput(f"expected a two-site circuit, got n = {c.n}")
    if prof.kind != "gaussian" or not prof.is_assumption_a:
        raise AssumptionAViolated("same-pointer coupling needs a centered Gaussian")
    sites = eigenbases(c)
    (eig1, eig2), (lab1, lab2) = sites.eigenvalues, sites.labels
    paths = sites.bra.conj()[:, None] * sites.hops[0] * sites.start
    amps = ((lab2[:, None] == np.arange(len(eig2))).T @ paths
            @ (lab1[:, None] == np.arange(len(eig1)))).reshape(-1)
    totals = np.add.outer(eig2, eig1).reshape(-1)
    kern = gaussian_kernels(totals, g, prof.sigma)
    den = complex(np.conj(amps) @ kern[0] @ amps)
    num = complex(np.conj(amps) @ kern[1] @ amps)
    return _postselected_moment(den, num)[0]
