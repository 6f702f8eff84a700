"""Seeded `.wseq` document generator for the benchmark workloads.

Everything here depends only on the seed it is given: the same seed writes
byte-identical files.  A circuit is kept only when its bare transition
amplitude satisfies |F| > 0.1, the rule the test suite's random circuits
use; otherwise the draw is repeated with the next attempt number.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

MIN_F = 0.1
TAB_POINTS = 1024        # tabulated pointer used by the oracle workload
TAB_HALF_WIDTH = 12.0
PROBE_TAB_POINTS = 4096  # finer tabulated pointer of the Monte Carlo probe
PROBE_TAB_HALF_WIDTH = 16.0


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def _row(v) -> str:
    return " ".join(_fmt_complex(complex(z)) for z in v)


def random_unitary(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def random_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _draw(rng, n: int, d: int, proj: bool):
    psi_i = random_state(rng, d)
    unitaries = [random_unitary(rng, d) for _ in range(n + 1)]
    observables, proj_indices = [], []
    for _ in range(n):
        if proj:
            rank = int(rng.integers(1, d))
            idx = sorted(rng.choice(d, size=rank, replace=False).tolist())
            proj_indices.append(idx)
            observables.append(np.diag([1.0 if i in idx else 0.0 for i in range(d)]))
        else:
            observables.append(random_hermitian(rng, d))
    return psi_i, unitaries, observables, proj_indices


def _pinned_postselection(rng, psi_i, unitaries, observables, prob: float,
                          g: float):
    """A post-selection state whose success probability with a sigma = 1
    Gaussian pointer coupled at strength g at every site is exactly ``prob``:
    a mix of the extreme eigenvectors of the decohered output operator R,
    where P(success) = psi_f^dag R psi_f.  None if ``prob`` is out of reach."""
    from .check import propagate

    stages = list(zip(unitaries[:-1], observables))
    vals, vecs = np.linalg.eigh(propagate(psi_i, stages, unitaries[-1], {}, g, 1.0))
    lo, hi = vals[0], vals[-1]
    if not lo < prob < hi:
        return None
    alpha = (prob - lo) / (hi - lo)
    phase = np.exp(2j * np.pi * rng.random())
    return np.sqrt(alpha) * vecs[:, -1] + phase * np.sqrt(1 - alpha) * vecs[:, 0]


def circuit_text(seed_key, n: int, d: int, *, proj: bool = False,
                 pointer: str = "gaussian sigma=1", g: float | None = None,
                 inserts: int = 0,
                 pinned: tuple[float, float] | None = None) -> str:
    """Text of one random document; ``seed_key`` is a tuple of ints.

    ``pinned = (prob, g)`` fixes the post-selection probability at that
    coupling, so that sampling costs the same for every seed."""
    for attempt in range(1000):
        rng = np.random.default_rng([*seed_key, attempt])
        psi_i, us, obs, proj_indices = _draw(rng, n, d, proj)
        if pinned is None:
            psi_f = random_state(rng, d)
        else:
            psi_f = _pinned_postselection(rng, psi_i, us, obs, *pinned)
            if psi_f is None:
                continue
        v = psi_i
        for u in us:
            v = u @ v
        if abs(np.vdot(psi_f, v)) > MIN_F:
            break
    else:
        raise RuntimeError(f"no well-conditioned circuit for {seed_key}")
    out = ["wseq 1", f"dim {d}", "state " + _row(psi_i)]
    for k in range(n):
        out.append(f"unitary U{k + 1}")
        out.extend(_row(r) for r in us[k])
        out.append(f"observe A{k + 1}")
        if proj:
            out.append("proj " + " ".join(str(i) for i in proj_indices[k]))
        else:
            out.extend(_row(r) for r in obs[k])
    out.append(f"unitary U{n + 1}")
    out.extend(_row(r) for r in us[n])
    out.append("postselect " + _row(psi_f))
    out.append(f"pointer {pointer}")
    if g is not None:
        out.append(f"g {_fmt_float(g)}")
    for k in range(min(inserts, n)):
        out.append(f"insert A{k + 1}")
    return "\n".join(out) + "\n"


def gaussian_table_text(points: int, half_width: float, sigma: float = 1.0) -> str:
    """Rows `q re im` sampling a centred Gaussian; the header comment names
    the Gaussian so that a reference can use its closed form."""
    q = np.linspace(-half_width, half_width, points)
    phi = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-q**2 / (4 * sigma**2))
    rows = [f"# gaussian sigma={_fmt_float(sigma)}"]
    rows.extend(f"{_fmt_float(x)} {_fmt_float(y)} 0" for x, y in zip(q, phi))
    return "\n".join(rows) + "\n"


def canonical(text: str, base_dir: Path) -> str:
    """Round-trip through the package's parser and serializer, so every
    document is valid and canonical before timing starts."""
    from seqweak import circuitio

    return circuitio.serialize(circuitio.parse(text, base_dir=base_dir))


def write(path: Path, text: str, *, canonicalize: bool = True) -> str:
    if canonicalize:
        text = canonical(text, path.parent)
    path.write_text(text)
    return str(path)
