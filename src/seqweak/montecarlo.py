"""Stochastic simulation of repeated post-selected runs.

Position readouts are drawn from the exact post-selected joint pointer
density via per-axis conditional inverse-CDF sampling on a fixed grid;
momentum readouts are not sampled (a single run reads out either q or p).
Each conditional CDF is a small mixture over branch pairs whose component
antiderivatives are precomputed, so a run is inverted by bisection with a
handful of mixture evaluations instead of a full-grid scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuitmodel import Circuit
from .errors import GridResolutionError, InvalidInput, NoSuccessfulRuns
from .oracle import branch_decompose, site_kernels
from .pointer import MomentSpec, PointerProfile

GRID_POINTS = 4096
RANGE_SIGMAS = 12.0


class RunRecord(NamedTuple):
    postselected: bool
    pointer_samples: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_success: int
    n_total: int


def _profile_center_spread(prof: PointerProfile) -> tuple[float, float]:
    if prof.kind == "gaussian":
        return prof.q_offset, prof.sigma
    q = prof.grid
    dens = np.abs(np.asarray(prof.values)) ** 2
    dens = dens / np.sum(dens)
    mu = float(np.sum(q * dens))
    var = float(np.sum((q - mu) ** 2 * dens))
    return mu, np.sqrt(var)


def _pair_matrix(prof: PointerProfile, eigs: np.ndarray, g: float,
                 x: np.ndarray) -> np.ndarray:
    """G[(b,a), x] = conj(phi(x - g b)) phi(x - g a), flattened pair index."""
    shifted = np.stack([prof.eval(x - g * ev) for ev in eigs])  # (k, npts)
    return (np.conj(shifted)[:, None, :] * shifted[None, :, :]).reshape(
        len(eigs) ** 2, len(x))


def _cumulative(gm: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid antiderivative of each kernel row, zero at the left edge."""
    dx = x[1] - x[0]
    inc = (gm[:, 1:] + gm[:, :-1]) * (dx / 2)
    out = np.zeros_like(gm)
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def _pair_values(prof: PointerProfile, eigs: np.ndarray, g: float,
                 xs: np.ndarray) -> np.ndarray:
    """Kernel factors at the sampled positions: (runs, k^2)."""
    shifted = np.stack([prof.eval(xs - g * ev) for ev in eigs])
    return (np.conj(shifted)[:, None, :] * shifted[None, :, :]).reshape(
        len(eigs) ** 2, len(xs)).T


def _invert_mixture_cdf(w: np.ndarray, cdf_basis: np.ndarray, x: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
    """Per-run inverse CDF for cdf_r(x) = sum_j w[r, j] cdf_basis[j, x].

    Inverted by vectorized bisection on the grid index; only O(log npts)
    mixture evaluations per run, never a full-grid CDF row.
    """
    wr, wi = np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag)
    cr, ci = cdf_basis.real, cdf_basis.imag

    def value_at(idx):
        return (np.einsum("rj,jr->r", wr, cr[:, idx])
                - np.einsum("rj,jr->r", wi, ci[:, idx]))

    npts = len(x)
    runs = len(u)
    total = value_at(np.full(runs, npts - 1))
    target = u * total
    lo = np.zeros(runs, dtype=np.int64)
    hi = np.full(runs, npts - 1, dtype=np.int64)
    steps = int(np.ceil(np.log2(npts)))
    for _ in range(steps):
        mid = (lo + hi) // 2
        below = value_at(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    c_lo = value_at(lo)
    c_hi = value_at(hi)
    frac = np.where(c_hi > c_lo,
                    (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0)
    dx = x[1] - x[0]
    return x[lo] + np.clip(frac, 0.0, 1.0) * dx


def sample_runs(c: Circuit, g: float, prof: PointerProfile, n_total: int,
                seed: int) -> list[RunRecord]:
    """Simulate ``n_total`` runs with one pointer per measurement site.

    Each run is post-selected with the exact probability; successful runs
    carry position samples drawn from the exact joint density |Psi(q)|^2.
    Fully deterministic given the seed.
    """
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if c.n > 3:
        raise ValueError("joint-density sampling supports at most 3 sites")
    if c.n == 0:
        raise ValueError("circuit has no measurement sites")

    bs = branch_decompose(c)
    amps = bs.amplitude_tensor()
    n = c.n
    ks = bs.shape
    eig_sets = [np.asarray(es.eigenvalues) for es in bs.site_spectra]

    # D[(b1 a1), (b2 a2), ...] = conj(c_b) c_a with per-site pair indices.
    letters_b = "abc"[:n]
    letters_a = "xyz"[:n]
    interleaved = "".join(b + a for b, a in zip(letters_b, letters_a))
    d_tensor = np.einsum(f"{letters_b},{letters_a}->{interleaved}",
                         np.conj(amps), amps).reshape([k * k for k in ks])

    center, spread = _profile_center_spread(prof)
    grids, pair_cdfs, s_numeric = [], [], []
    for i in range(n):
        lo = center + g * float(np.min(eig_sets[i])) - RANGE_SIGMAS * spread
        hi = center + g * float(np.max(eig_sets[i])) + RANGE_SIGMAS * spread
        x = np.linspace(lo, hi, GRID_POINTS)
        grids.append(x)
        gm = _pair_matrix(prof, eig_sets[i], g, x)
        pair_cdfs.append(_cumulative(gm, x))
        s_numeric.append(np.trapezoid(gm, x, axis=1))

    # Mass check: numeric overlaps on the grid vs exact analytic overlaps.
    s_exact = [site_kernels(eig_sets[i], g, prof).s.reshape(-1) for i in range(n)]

    def contract_all(vectors) -> complex:
        letters = "abc"[:n]
        sub = "".join(letters) + "," + ",".join(letters) + "->"
        return complex(np.einsum(sub, d_tensor, *vectors))

    mass_num = contract_all(s_numeric).real
    mass_exact = contract_all(s_exact).real
    if mass_exact <= 0 or abs(mass_num / mass_exact - 1.0) > 1e-6:
        raise GridResolutionError(
            f"density mass outside grid: {abs(mass_num / mass_exact - 1.0):.3e}")

    prob = mass_exact / float(np.vdot(c.psi_f, c.psi_f).real)
    rng = np.random.default_rng(seed)
    success = rng.random(n_total) < prob
    n_succ = int(np.sum(success))

    samples = np.empty((n_succ, n))
    if n_succ:
        m_run = []  # per earlier axis: kernel factors at its samples
        letters = "abc"[:n]
        for axis in range(n):
            partial = d_tensor
            for j in range(n - 1, axis, -1):
                partial = np.tensordot(partial, s_numeric[j], axes=([j], [0]))
            if axis == 0:
                w = partial.reshape(1, -1)
                w = np.broadcast_to(w, (n_succ, w.shape[1]))
            else:
                sub = letters[: axis + 1] + "," + ",".join(
                    "r" + letters[j] for j in range(axis)) + "->r" + letters[axis]
                w = np.einsum(sub, partial, *m_run)
            xs = _invert_mixture_cdf(w, pair_cdfs[axis], grids[axis],
                                     rng.random(n_succ))
            samples[:, axis] = xs
            if axis < n - 1:
                m_run.append(_pair_values(prof, eig_sets[axis], g, xs))

    records: list[RunRecord] = []
    rows = iter(samples.tolist())
    for ok in success.tolist():
        if ok:
            records.append(RunRecord(True, tuple(next(rows))))
        else:
            records.append(RunRecord(False, None))
    return records


def estimate_moment(records, spec: MomentSpec) -> Estimate:
    """Sample mean and standard error of the position product over the
    post-selected runs."""
    if any(kind != "q" for _, kind in spec.factors):
        raise InvalidInput("only position products can be estimated from runs")
    values = []
    n_total = 0
    for rec in records:
        n_total += 1
        if rec.postselected:
            prod = 1.0
            for site, _ in spec.factors:
                prod *= rec.pointer_samples[site - 1]
            values.append(prod)
    if not values:
        raise NoSuccessfulRuns("no post-selected runs in the batch")
    arr = np.asarray(values)
    mean = float(np.mean(arr))
    stderr = float(np.std(arr, ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_success=len(arr), n_total=n_total)
