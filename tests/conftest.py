"""Shared builders for random circuits with well-conditioned post-selection."""
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from seqweak.algebra import eig_hermitian
from seqweak.circuitmodel import Circuit, transition_amplitude


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
    """Reference forward walk for `circuitmodel.amplitudes`: every row
    carries its own state through every site, gathering one (d, d) operator
    per row and site."""
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


def loop_branches(c):
    """Every eigenvalue branch walked on its own, one matvec per operator:
    the tests' one k^n reference for eigenbranch quantities.  Returns the
    site spectra (degenerate eigenvalues merged) and the amplitudes
    <psi_f| U_f P_{a_n} U_n ... P_{a_1} U_1 |psi_i>, indexed [a_1, ..., a_n]."""
    spectra = [eig_hermitian(a) for _, a in c.stages]
    amps = np.empty(tuple(len(es.eigenvalues) for es in spectra), dtype=complex)
    for choice in np.ndindex(amps.shape):
        v = c.psi_i
        for (u, _), es, k in zip(c.stages, spectra, choice):
            v = es.projectors[k] @ (u @ v)
        amps[choice] = np.vdot(c.psi_f, c.u_final @ v)
    return spectra, amps


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
