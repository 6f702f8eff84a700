"""Shared builders for random circuits with well-conditioned post-selection."""
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from seqweak.algebra import eigensystems
from seqweak.circuitmodel import Circuit, transition_amplitude
from seqweak.oracle import _shifted_table, _table_kernels, gaussian_kernels


def random_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_projector(rng, dim, rank=1):
    u = random_unitary(rng, dim)
    v = u[:, :rank]
    return v @ v.conj().T


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_circuit(seed, dim=None, n=2, projectors=False, min_f=0.1):
    """Seeded random circuit whose transition amplitude exceeds ``min_f``.

    Retries with shifted seeds until the post-selection is well conditioned,
    so every seed maps to a usable fixture.
    """
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        d = dim if dim is not None else int(rng.integers(2, 5))
        stages = []
        for _ in range(n):
            u = random_unitary(rng, d)
            a = random_projector(rng, d) if projectors else random_hermitian(rng, d)
            stages.append((u, a))
        c = Circuit(psi_i=random_state(rng, d), stages=tuple(stages),
                    u_final=random_unitary(rng, d), psi_f=random_state(rng, d))
        if abs(transition_amplitude(c)) > min_f:
            return c
    raise RuntimeError(f"no well-conditioned circuit for seed {seed}")


def per_row_walk(c, ops, histories):
    """Reference forward walk for `circuitmodel.product_amplitudes` and
    `circuitmodel.tree_amplitudes`: row h of the int array ``histories``
    picks operator ``ops[k][h[k]]`` at site k+1, and every row carries its
    own state through every site, one (d, d) operator per row and site."""
    v = np.repeat(c.psi_i[None, :, None], len(histories), axis=0)
    for k, x in enumerate(ops):
        v = x[histories[:, k]] @ v
    return v[:, :, 0] @ (c.psi_f.conj() @ c.u_final)


def combination_tree(n, max_order):
    """Every subset of at most ``max_order`` of n sites in (size,
    lexicographic) order, from itertools.combinations: the subsets, their
    0/1 history rows, and the prefix tree `circuitmodel.tree_amplitudes`
    takes (each subset's last site, and the index of the subset without
    it)."""
    subsets = [s for r in range(max_order + 1)
               for s in itertools.combinations(range(1, n + 1), r)]
    index = {s: h for h, s in enumerate(subsets)}
    rows = np.zeros((len(subsets), n), dtype=np.uint8)
    for h, s in enumerate(subsets):
        rows[h, [i - 1 for i in s]] = 1
    last = np.array([s[-1] if s else 0 for s in subsets], dtype=np.intp)
    prefix = np.array([index[s[:-1]] for s in subsets], dtype=np.intp)
    return subsets, rows, last, prefix


def one_spectrum(a):
    """One matrix's merged eigenvalues (a tuple), eigenvectors and labels,
    from `algebra.eigensystems` of a stack of one: the per-site reference."""
    eigenvalues, _, labels, vectors = eigensystems(np.asarray(a, dtype=complex)[None])
    return tuple(eigenvalues[0].tolist()), vectors[0], labels[0]


def projector_deviation(m):
    """The larger of |m - m^dag| and |m m - m| over the entries of one
    matrix: the per-matrix reference for `algebra.projector_deviations`."""
    return max(np.abs(m - m.conj().T).max(), np.abs(m @ m - m).max())


def projectors(vectors, labels):
    """The (k, d, d) stack of the projectors P_a = V_a V_a^dag of one
    eigendecomposition, V_a its eigenvector columns labelled a."""
    blocks = [vectors[:, labels == a] for a in range(labels.max() + 1)]
    return np.stack([b @ b.conj().T for b in blocks])


def loop_branches(c):
    """Every eigenvalue branch walked on its own, one matvec per operator:
    the tests' one k^n reference for eigenbranch quantities.  Returns the
    site spectra (per site its merged eigenvalues, a tuple) and the
    amplitudes <psi_f| U_f P_{a_n} U_n ... P_{a_1} U_1 |psi_i>, indexed
    [a_1, ..., a_n]."""
    spectra = [one_spectrum(a) for _, a in c.stages]
    stacks = [projectors(vectors, labels) for _, vectors, labels in spectra]
    amps = np.empty(tuple(len(eigs) for eigs, _, _ in spectra), dtype=complex)
    for choice in np.ndindex(amps.shape):
        v = c.psi_i
        for (u, _), p, k in zip(c.stages, stacks, choice):
            v = p[k] @ (u @ v)
        amps[choice] = np.vdot(c.psi_f, c.u_final @ v)
    return [eigs for eigs, _, _ in spectra], amps


def projector_instruments(c):
    """The sites in projector form, one matrix at a time: per site the
    stacked operators P_a U, shape (k, d, d), and the observable's merged
    eigenvalues (a tuple)."""
    spectra = [one_spectrum(a) for _, a in c.stages]
    return [(projectors(vectors, labels) @ u, eigs)
            for (u, _), (eigs, vectors, labels) in zip(c.stages, spectra)]


def projector_effects(c, sites, kernels):
    """Reference backward walk for `circuitmodel.effects` over the
    `projector_instruments` ``sites``, E <- sum_{b,a} K[b,a] (P_b U)^dag E
    (P_a U) with (k, k) kernels: ``kernels[i]`` stacks site i's m kernels.
    Entry i of the result, shape (m, d, d), is the effect of everything
    after site i (0-based) on the state just after it; entry n is
    U_f^dag |psi_f><psi_f| U_f and entry 0 acts on the initial state."""
    bra = c.u_final.conj().T @ c.psi_f
    m = len(kernels[0]) if kernels else 1
    e = np.repeat(np.outer(bra, bra.conj())[None], m, axis=0)
    out = [e]
    for (pu, _), kern in zip(reversed(sites), reversed(kernels)):
        right = e[:, None] @ pu
        mixed = (kern @ right.reshape(m, len(pu), -1)).reshape(right.shape)
        e = np.add.reduce(pu.conj().swapaxes(1, 2) @ mixed, axis=1)
        out.append(e)
    return out[::-1]


def one_site_kernels(eigs, g, prof):
    """S, Q and P over one site's merged eigenvalues, from the oracle's
    formula helpers: the per-site reference for `oracle.site_kernels`."""
    eigs = np.asarray(eigs, dtype=float)
    if prof.kind == "gaussian":
        return gaussian_kernels(eigs, g, prof.sigma, prof.q_offset, prof.p_offset)
    return _table_kernels(prof, *_shifted_table(prof, g * eigs, derivative=True))


def kron_joint_response(c, couplings, anc_obs, anc_state, g):
    """The joint system-ancilla walk with np.kron and the full
    exp(-i g N (x) h) at each coupled site: the tests' reference for
    `joint_response` and the Definition-3 responses, independent of the
    package's history contraction."""
    m = len(anc_state)

    def evolve(coupling_on):
        v = np.kron(c.psi_i, anc_state)
        for k, (u, _) in enumerate(c.stages, start=1):
            v = np.kron(u, np.eye(m)) @ v
            if coupling_on and k in couplings:
                restriction, h = couplings[k]
                v = expm(-1j * g * np.kron(restriction, h)) @ v
        v = np.kron(c.u_final, np.eye(m)) @ v
        return v.reshape(c.dim, m).T @ np.conj(c.psi_f)

    def expectation(chi):
        return float((np.vdot(chi, anc_obs @ chi) / np.vdot(chi, chi)).real)

    return expectation(evolve(True)) - expectation(evolve(False))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Records one pass/fail line per acceptance criterion; the lines are
    echoed in the terminal summary."""

    def record(number: int, name: str, ok: bool):
        line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
        _acceptance_lines.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
