"""Shared builders for random circuits with well-conditioned post-selection."""
import numpy as np
import pytest

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
