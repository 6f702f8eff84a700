"""Exact simulation of weakly coupled pointers (no expansion in g).

exp(-i g p A) expanded over the eigenprojectors P_a of A turns each coupled
site into a quantum instrument on the system, with Kraus-like operators
P_a U weighted by the pointer overlap kernel K of the site.  `effects` walks
the post-selection backward through these instruments,
E <- sum_{b,a} K[b,a] (P_b U)^dag E (P_a U), so the cost is linear in the
number of sites.  The exact oracle reads <psi_i|E|psi_i> off the last step;
the Monte Carlo sampler draws each readout against the intermediate effects.
Both read a tabulated profile's spectrally shifted samples (`_shifted_table`).
Eigenbranch amplitudes (shared-pointer coupling, strong-measurement checks)
and ancilla responses walk forward through `circuitmodel.amplitudes`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import algebra
from .circuitmodel import Circuit, amplitudes, valid_subset
from .errors import (AssumptionAViolated, DegeneratePostSelection, GridResolutionError,
                     NumericallySingular)
from .pointer import MomentSpec, PointerProfile, check_coupling

IMAG_RESIDUE_TOL = 1e-9
NORM_TOL = 1e-14


def _check_postselected_norm(norm) -> None:
    """A post-selected norm below NORM_TOL leaves no moment defined."""
    if abs(norm) < NORM_TOL:
        raise DegeneratePostSelection(f"post-selected norm {abs(norm):.3e}")


def _postselected_moment(c: Circuit, den, num) -> tuple[float, float]:
    """The moment num / den and the post-selection probability from the
    post-selected norm ``den`` and numerator ``num`` of a walk, behind the
    norm gate and the imaginary-residue gate of an analytically real moment."""
    _check_postselected_norm(den)
    ratio = complex(num / den)
    if abs(ratio.imag) >= IMAG_RESIDUE_TOL:
        raise NumericallySingular(
            f"imaginary residue {ratio.imag:.3e} in an analytically real moment")
    prob = den.real / float(np.vdot(c.psi_f, c.psi_f).real)
    return float(ratio.real), float(prob)


@dataclass(frozen=True)
class BranchSet:
    branches: tuple[tuple[tuple[float, ...], complex], ...]
    site_spectra: tuple[algebra.EigenSystem, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(es.eigenvalues) for es in self.site_spectra)


def branch_decompose(c: Circuit) -> BranchSet:
    """Amplitudes <psi_f| U_{n+1} P_{a_n} U_n ... P_{a_1} U_1 |psi_i> for
    every eigenvalue sequence, degenerate eigenspaces merged."""
    spectra = tuple(algebra.eig_hermitian(a) for _, a in c.stages)
    choices = list(itertools.product(*[range(len(es.eigenvalues)) for es in spectra]))
    ops = [np.stack(es.projectors) @ u for (u, _), es in zip(c.stages, spectra)]
    amps = amplitudes(c, ops, np.array(choices, dtype=np.intp))
    branches = tuple((tuple(es.eigenvalues[k] for es, k in zip(spectra, choice)), amp)
                     for choice, amp in zip(choices, amps.tolist()))
    return BranchSet(branches, spectra)


@dataclass(frozen=True)
class OverlapKernel:
    """Pointer overlap matrices over one site's eigenvalues.

    S(b,a) = int conj(phi(q - g b)) phi(q - g a) dq, Q and P likewise with a
    q or -i d/dq insertion.  A table's P is None unless it was asked for.
    """

    s: np.ndarray
    q: np.ndarray
    p: np.ndarray | None

    def pick(self, kind: str | None) -> np.ndarray:
        if kind is None:
            return self.s
        return self.q if kind == "q" else self.p


def gaussian_kernels(eigs, g: float, sigma: float,
                     q_offset: float = 0.0, p_offset: float = 0.0) -> OverlapKernel:
    """Closed-form overlaps for a Gaussian profile.

    For zero offsets: S(b,a) = exp(-g^2 (a-b)^2 / (8 sigma^2)),
    Q(b,a) = S(b,a) g (a+b)/2 and P(b,a) = S(b,a) i g (b-a)/(4 sigma^2);
    offsets add the translation/boost terms.  Validated against numeric
    quadrature in the test suite.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = np.asarray(eigs, dtype=float)
    diff = a[None, :] - a[:, None]      # a - b
    mid = (a[None, :] + a[:, None]) / 2  # (a + b)/2
    s = np.exp(-(g * diff) ** 2 / (8 * sigma**2)) * np.exp(-1j * p_offset * g * diff)
    q = s * (q_offset + g * mid)
    p = s * (p_offset - 1j * g * diff / (4 * sigma**2))
    return OverlapKernel(s=s, q=q, p=p)


def _shifted_table(prof: PointerProfile, shifts,
                   derivative: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """phi(q - s), and phi'(q - s) if ``derivative`` (else None), on the
    table's own grid q, one row per shift s.  The FFT shift is circular, so
    the support |phi| > 1e-8 peak (the decay `PointerProfile.tabulated`
    requires) must stay on the grid when shifted."""
    spectrum, freq, live_lo, live_hi = prof._spectrum
    q = prof.grid
    if np.any((live_lo + shifts < q[0]) | (live_hi + shifts > q[-1])):
        raise GridResolutionError("shifted pointer profile does not decay at the grid ends")
    shift = spectrum * np.exp(-1j * np.outer(shifts, freq))
    dshifted = np.fft.ifft(1j * freq * shift, axis=1) if derivative else None
    return np.fft.ifft(shift, axis=1), dshifted


def _table_kernels(prof: PointerProfile, shifted: np.ndarray,
                   dshifted: np.ndarray | None = None) -> OverlapKernel:
    """Quadrature overlaps over a table's shifted rows (`_shifted_table`);
    P only from given derivative rows."""
    left = prof.grid_step * np.conj(shifted)
    return OverlapKernel(s=left @ shifted.T, q=(left * prof.grid) @ shifted.T,
                         p=None if dshifted is None else -1j * (left @ dshifted.T))


def tabulated_kernels(eigs, g: float, prof: PointerProfile,
                      momentum: bool = True) -> OverlapKernel:
    """Quadrature overlaps over a tabulated profile's shifted samples; P
    (and the derivative rows it takes) only if ``momentum``."""
    return _table_kernels(prof, *_shifted_table(prof, g * np.asarray(eigs, dtype=float),
                                                momentum))


def site_kernels(eigs, g: float, prof: PointerProfile, momentum: bool = True) -> OverlapKernel:
    if prof.kind == "gaussian":
        return gaussian_kernels(eigs, g, prof.sigma, prof.q_offset, prof.p_offset)
    return tabulated_kernels(eigs, g, prof, momentum)


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
    entry 0 acts on the initial state.
    """
    bra = c.u_final.conj().T @ c.psi_f
    m = len(kernels[0])
    e = np.repeat(np.outer(bra, bra.conj())[None], m, axis=0)
    out = [e]
    for (pu, _), kern in zip(reversed(sites), reversed(kernels)):
        # E <- sum_{b,a} K[b,a] (P_b U)^dag E (P_a U), as plain matmuls
        right = e[:, None] @ pu
        mixed = (kern @ right.reshape(m, len(pu), -1)).reshape(right.shape)
        e = np.add.reduce(pu.conj().swapaxes(1, 2) @ mixed, axis=1)
        out.append(e)
    return out[::-1]


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

    sites = site_instruments(c)
    kernels = []
    for i, (_, es) in enumerate(sites, start=1):
        kern = site_kernels(es.eigenvalues, g, prof, momentum=named.get(i) == "p")
        kernels.append(np.stack([kern.s, kern.pick(named.get(i))]))
    den, num = (effects(c, sites, kernels)[0] @ c.psi_i) @ c.psi_i.conj()
    return _postselected_moment(c, den, num)


def same_pointer_twice(c: Circuit, g: float, prof: PointerProfile) -> float:
    """Exact <q> for a single pointer weakly coupled at both sites of a
    two-site circuit; the pointer ends up translated by g (a1 + a2)."""
    if c.n != 2:
        raise ValueError("expected a two-site circuit")
    if prof.kind != "gaussian" or not prof.is_assumption_a:
        raise AssumptionAViolated("same-pointer coupling needs a centered Gaussian")
    bs = branch_decompose(c)
    totals = np.array([sum(seq) for seq, _ in bs.branches])
    amps = np.array([amp for _, amp in bs.branches])
    kern = gaussian_kernels(totals, g, prof.sigma)
    den = complex(np.conj(amps) @ kern.s @ amps)
    num = complex(np.conj(amps) @ kern.q @ amps)
    return _postselected_moment(c, den, num)[0]


def joint_response(c: Circuit, couplings: dict[int, tuple[np.ndarray, np.ndarray]],
                   anc_obs, anc_state, g: float) -> float:
    """Exact ancilla response for weak interactions exp(-i g N~ (x) h) applied
    at the given sites (shared ancilla), relative to the g = 0 baseline.

    ``couplings`` maps a 1-based site to its (restriction projector, ancilla
    Hamiltonian).  As exp(-i g N (x) h) = (1-N) (x) 1 + N (x) exp(-i g h),
    the post-selected ancilla state sums, over the off/on histories of the
    coupled sites, the history amplitude times the kicks of its "on" sites.
    """
    from .counterfactual import InsertionSet, history_amplitudes

    anc_state = algebra.as_vector(anc_state)
    anc_obs = algebra.as_operator(anc_obs)
    sites = valid_subset(sorted(couplings), c.n)
    ins = InsertionSet(sites, tuple(couplings[s][0] for s in sites))
    hams = [algebra.as_operator(couplings[s][1]) for s in sites]
    if not all(algebra.is_hermitian(h, 1e-10) for h in hams):
        raise ValueError("ancilla Hamiltonian must be Hermitian")
    amps = np.array(list(history_amplitudes(c, ins).values()))
    return _ancilla_response(amps, hams, anc_obs, anc_state, g)


def _ancilla_response(amps: np.ndarray, hams: list[np.ndarray], anc_obs: np.ndarray,
                      anc_state: np.ndarray, g: float) -> float:
    """`joint_response` from the history amplitudes ``amps`` of the coupled
    sites (in `all_histories` order) and their ancilla Hamiltonians, in site
    order."""
    def post_selected(kicks) -> np.ndarray:
        # one ancilla state per history, in `all_histories` order
        states = anc_state[None]
        for kick in kicks:
            states = np.stack([states, states @ kick.T], axis=1).reshape(-1, len(anc_state))
        return amps @ states

    def expectation(chi: np.ndarray) -> float:
        norm = float(np.vdot(chi, chi).real)
        if norm < 1e-28:
            raise NumericallySingular("post-selected ancilla state vanishes")
        val = np.vdot(chi, anc_obs @ chi) / norm
        return float(val.real)

    kicks = [expm(-1j * g * h) for h in hams]
    baseline = post_selected([np.eye(len(anc_state))] * len(hams))
    return expectation(post_selected(kicks)) - expectation(baseline)


def weak_interaction_response(c: Circuit, site: int, restriction, h_anc,
                              anc_obs, anc_state, g: float) -> float:
    """Exact expectation shift of an ancilla observable after the weak
    interaction exp(-i g restriction (x) h_anc) at one site."""
    return joint_response(c, {site: (algebra.as_operator(restriction),
                                     algebra.as_operator(h_anc))},
                          anc_obs, anc_state, g)
