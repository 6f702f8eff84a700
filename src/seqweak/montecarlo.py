"""Stochastic simulation of repeated post-selected runs.

Each run is one pure system state read out site by site, as in the
laboratory.  The readout q_i of site i is drawn from its conditional density
sum_{b,a} <y_b|E|y_a> conj(phi(q - g b)) phi(q - g a), where y_a = P_a U v is
the run's state v after the site's unitary and projector, and E is the
backward effect of every later site and the post-selection, which the walk
(`circuitmodel.effects`) gives in the site's eigenbasis, F_i = V_i^dag E
V_i.  A position readout then leaves the system in the pure state
sum_a phi(q_i - g a) y_a.  Momentum readouts are not sampled (a single run
reads out either q or p).  Each conditional CDF is a mixture over eigenvalue
pairs (b, a), Hermitian in (b, a), so a real sum of k^2 antiderivatives that
are precomputed once per site as a (grid, k^2) basis.  Every run reads site 1
out of one shared CDF column, inverted through a guide table (Chen & Asau
1974): the table's cell at floor(u M), M the grid's length, is checked at
both ends, and a miss is searched in the column.  At a later site a run's
readout is inverted by guess and check: the mean and standard deviation of
its density (from the basis columns' moments) and the pointer's standardized
quantile at its uniform give a start cell, whose two ends are two gathered
basis rows; a miss takes secant steps that carry only the runs still missed,
and only the few runs still unbracketed fall back to a binary search whose
every probe gathers one row.  On a CDF nondecreasing on the grid only one
cell brackets a run's target, so neither path changes a sample.  A Gaussian
is read out on GRID_POINTS spanning RANGE_SIGMAS widths past its extreme
shifts g a, a table on its own grid from its spectrum times the shift
phases of its kernels (`_shifted_table`, through `oracle._phases`, which
also refuses a shift off the grid); the state update's
`PointerProfile.eval` interpolates the unshifted table.  The exact S
kernels, which check the grid's mass, and a moment's numerator kernels
come from one `oracle.site_kernels` call for both pointer kinds.

A run carries U v as its d coordinates in the eigenbasis of the site's
observable (`circuitmodel.eigenbases`), where each projector P_a keeps the
coordinates labelled a and the pair weights read F_i directly.  Every run
enters site 1 in the same state, so site 1's k^2 basis is contracted once
into one CDF column that all runs invert against.  At a later site a run's
k^2 mixture weights are one real GEMM on the Hermitian half of its pair
products conj(c_j) c_l, j <= l, as the weights are Hermitian in (j, l).
The state update scales each coordinate by phi(q - g a) times
1/sqrt(sum_j |c_j|^2), read off the diagonal pair products (the mixture
weights do not depend on a run's scale, which only keeps the coordinates
bounded), and takes one d x d GEMM by the hop V_{i+1}^dag U_{i+1} V_i into
the next site's eigenbasis.  Post-selected runs go through all sites in
blocks of RUN_BLOCK, so the per-run temporaries do not grow with the number
of runs.  The run-sized array is one: the site-major samples are drawn
as every site's uniforms, and a block's readouts at a site are one
contiguous write over the uniforms they came from.  The backward walk also
carries the numerator kernels of a position moment, if one is given, so
that its exact value comes from the same walk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuitmodel import Circuit, effects, eigenbases, valid_subset
from .errors import GridResolutionError, InvalidInput, NoSuccessfulRuns
from .oracle import _phases, _postselected_moment, site_kernels
from .pointer import MomentSpec, PointerProfile, check_coupling, check_seed

GRID_POINTS = 4096
RANGE_SIGMAS = 12.0
RUN_BLOCK = 4096  # post-selected runs walked through every site together


@dataclass(frozen=True)
class RunBatch:
    """Outcome of a batch: ``postselected`` flags every run (bool[N]);
    ``samples`` holds one row of position readouts per post-selected run,
    in run order (float[n_success, n_sites], the transposed view of the
    site-major array the sampler fills); ``exact`` is the exact value
    and post-selection probability (`oracle.exact_moment`) of the moment
    given to `sample_runs`, if one was."""

    postselected: np.ndarray
    samples: np.ndarray
    exact: tuple[float, float] | None = None


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_success: int
    n_total: int


def _cumulative(gm: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid antiderivative of each kernel row, zero at the left edge."""
    dx = x[1] - x[0]
    inc = (gm[:, 1:] + gm[:, :-1]) * (dx / 2)
    out = np.zeros_like(gm)
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def _hermitian_columns(z: np.ndarray, k: int) -> np.ndarray:
    """Real columns of z[..., (b,a)], Hermitian in (b, a): Re z_aa, then Re z_ba
    and Im z_ba for b < a.  Re sum_{b,a} w_ba z_ba = sum_j w_j z_j (1, 2, -2)_j."""
    b, a = np.triu_indices(k, 1)
    off = z[..., b * k + a]
    return np.concatenate([z[..., ::k + 1].real, off.real, off.imag], axis=-1)


def _invert_mixture_cdf(coef: np.ndarray, basis: np.ndarray, x: np.ndarray,
                        u: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-run inverse CDF for cdf_r(x) = sum_j coef[r, j] basis[x, j].

    Finds the grid cell lo of each run with cdf_r(x[lo]) < t_r <=
    cdf_r(x[lo + 1]), t_r = u_r * cdf_r(x[-1]) (the first cell needs no lower
    and the last no upper bound), then interpolates linearly to the next grid
    point.  Every run first tries the cell ``start`` guesses (clipped to the
    grid), two gathered basis rows each, written straight into lo and its
    two ends; up to four secant steps through the last cell's ends then
    carry only the runs the previous probe missed, and runs still
    unbracketed set the bits of lo from the highest down, one gathered row
    per probe.  On a CDF nondecreasing on the grid only one cell brackets
    t_r, so ``start`` changes the cost but never the answer.
    """
    def value_at(cf, idx):
        return np.einsum("rj,rj->r", cf, np.take(basis, idx, axis=0, mode="clip"))

    last = len(x) - 1
    target = u * (coef @ basis[-1])
    runs, cf, t = np.arange(len(u)), coef, target
    cell = lo = np.minimum(np.maximum(start, 0), last)
    below, above = c_lo, c_hi = value_at(coef, lo), value_at(coef, lo + 1)
    for probe in range(5):  # the guess, then at most four secant steps
        miss = np.flatnonzero(((cell > 0) & (below >= t)) | ((cell < last) & (above < t)))
        runs, cf, t = runs[miss], cf[miss], t[miss]
        if not len(runs) or probe == 4:
            break
        # the secant through the cell's two ends; a flat cell stays put
        below, slope = below[miss], above[miss] - below[miss]
        move = (t - below) / np.where(slope > 0, slope, np.inf)
        cell = np.minimum(np.maximum(cell[miss] + move, 0), last).astype(np.int64)
        below, above = value_at(cf, cell), value_at(cf, cell + 1)
        lo[runs], c_lo[runs], c_hi[runs] = cell, below, above
    if len(runs):  # runs the guess and its secant steps left unbracketed
        cell = np.zeros(len(runs), dtype=np.int64)
        step = 1 << (last.bit_length() - 1)
        while step:
            cell += step * (value_at(cf, cell + step) < t)
            step >>= 1
        cell = np.minimum(cell, last)
        lo[runs], c_lo[runs], c_hi[runs] = cell, value_at(cf, cell), value_at(cf, cell + 1)
    return _interpolate(x, lo, c_lo, c_hi, target)


def _interpolate(x: np.ndarray, lo: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray,
                 target: np.ndarray) -> np.ndarray:
    """The readout in the bracketing cell lo, whose ends the CDF takes the
    values c_lo and c_hi at: linear from x[lo] to the next grid point."""
    frac = np.where(c_hi > c_lo,
                    (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0)
    dx = x[1] - x[0]
    return x[lo] + np.clip(frac, 0.0, 1.0) * dx


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a CDF column nondecreasing on its grid (Chen & Asau
    1974): entry j of M = len(cdf) is the cell bracketing the level
    cdf[-1] j / M, the cell `_invert_shared_cdf` tries first for a uniform
    in [j / M, (j + 1) / M)."""
    levels = cdf[-1] * (np.arange(len(cdf)) / len(cdf))
    return np.maximum(np.searchsorted(cdf, levels) - 1, 0)


def _invert_shared_cdf(cdf: np.ndarray, guide: np.ndarray, x: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """Inverse CDF of runs that share one CDF column ``cdf`` on the grid x:
    the cell of `_invert_mixture_cdf` for t = u cdf[-1], first looked up in
    the `_guide_table` at floor(u M), checked at both ends, and searched in
    the column on a miss.  As u < 1 puts t at or below cdf[-1], no cell is
    the last, so every cell has an upper end to check."""
    target = u * cdf[-1]
    lo = guide[(u * len(guide)).astype(np.intp)]
    c_lo, c_hi = cdf[lo], cdf[lo + 1]
    miss = np.flatnonzero(((lo > 0) & (c_lo >= target)) | (c_hi < target))
    if len(miss):
        cell = np.maximum(np.searchsorted(cdf, target[miss]) - 1, 0)
        lo[miss], c_lo[miss], c_hi[miss] = cell, cdf[cell], cdf[cell + 1]
    return _interpolate(x, lo, c_lo, c_hi, target)


def _basis_moments(basis: np.ndarray) -> np.ndarray:
    """(k^2, 3) zeroth to second moments, in grid-index units s, of the
    densities whose trapezoid antiderivatives C are the basis columns, by
    parts: int s^m rho = s_end^m C(s_end) - m int s^(m-1) C."""
    s = np.arange(len(basis), dtype=float)
    wts = np.ones(len(basis))
    wts[[0, -1]] = 0.5
    ints = np.stack([wts, wts * s]) @ basis
    end = basis[-1]
    return np.stack([end, s[-1] * end - ints[0], s[-1] ** 2 * end - 2 * ints[1]], axis=1)


def _start_cells(coef: np.ndarray, moments: np.ndarray, quantiles: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Each run's guessed grid cell for `_invert_mixture_cdf` (which clips it
    to the grid): the mean of its density plus its standard deviation times
    the pointer's standardized quantile at u, from the `_basis_moments` of
    its grid."""
    m0, m1, m2 = (coef @ moments).T
    mean = m1 / m0
    sd = np.sqrt(np.maximum(m2 / m0 - mean**2, 0.0))
    return (mean + sd * quantiles[(u * len(quantiles)).astype(np.intp)]).astype(np.int64)


def _pair_weights(f: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Real (d (d + 1), k^2) matrix H with cols = z.view(float) @ H the
    Hermitian columns of the pair weights w[(b,a)] = sum_{j in b, l in a}
    z_jl f_jl, for the Hermitian half z[r, (j,l)] = conj(c_rj) c_rl, j <= l
    (`np.triu_indices` order), of the pair products of eigenbasis
    coordinates c (complex, so each pair is a (real, imaginary) row pair).
    As z_lj = conj(z_jl), the row pair of j < l folds in that of (l, j):
    the real row as a sum, the imaginary row as a difference."""
    d = len(f)
    block = labels[:, None] == np.arange(k)
    w = np.einsum("jl,jb,la->jlba", f, block, block).reshape(d * d, k * k)
    # Re(z w) = Re z Re w + Im z Re(i w), column by Hermitian column
    full = np.stack([_hermitian_columns(w, k), _hermitian_columns(1j * w, k)],
                    axis=1).reshape(d, d, 2, -1)
    j, l = np.triu_indices(d)
    fold = np.where(j < l, 1.0, 0.0)[:, None, None] * [[1.0], [-1.0]]
    return (full[j, l] + fold * full[l, j]).reshape(2 * len(j), -1)


def _shifted_table(prof: PointerProfile, shifts) -> np.ndarray:
    """phi(q - s) on a table's own grid q, one row per shift s: an inverse
    FFT of its spectrum (`PointerProfile._spectrum`) times the kernels'
    shift phases, which refuse a shift off the grid (`oracle._phases`)."""
    return np.fft.ifft(prof._spectrum[0] * _phases(prof, shifts), axis=1)


def sample_runs(c: Circuit, g: float, prof: PointerProfile, n_total: int,
                seed: int, spec: MomentSpec | None = None) -> RunBatch:
    """Simulate ``n_total`` runs with one pointer per measurement site.

    Each run is post-selected with the exact probability; successful runs
    carry position samples drawn from the exact joint density |Psi(q)|^2.
    Fully deterministic given the seed.  Given a position moment ``spec``,
    the batch also carries its exact value and the post-selection
    probability (`oracle.exact_moment`), from the sampler's own walk.
    """
    check_coupling(g)
    check_seed(seed)
    if n_total <= 0:
        raise InvalidInput("n_total must be positive")
    if c.n == 0:
        raise InvalidInput("circuit has no measurement sites")
    named = {}
    if spec is not None:
        check_position_moment(spec, c.n)
        named = dict(spec.factors)

    sites = eigenbases(c)
    # the exact S kernels and the moment's numerator kernels, before the
    # readout bases, so that the kernels' temporaries are freed first
    exact = site_kernels(sites, g, prof, [named.get(i) for i in range(1, c.n + 1)])
    grids, bases, overlaps = [], [], []
    for eigs, labels in zip(sites.eigenvalues, sites.labels):
        with np.errstate(over="ignore"):  # an overflowed shift is refused below
            shifts = g * eigs
        if prof.kind == "gaussian":
            # Python floats, which overflow to inf without a warning
            lo = prof.q_offset + float(shifts.min()) - RANGE_SIGMAS * prof.sigma
            hi = prof.q_offset + float(shifts.max()) + RANGE_SIGMAS * prof.sigma
            if not np.isfinite(hi - lo):
                raise GridResolutionError("shifted pointer grid exceeds the float range")
            x = np.linspace(lo, hi, GRID_POINTS)
            shifted = prof.eval(x - shifts[:, None])
        else:
            x, shifted = prof.grid, _shifted_table(prof, shifts)
        grids.append(x)
        k, pairs = len(eigs), len(eigs) * (len(eigs) - 1) // 2
        # gm[(b,a), x] = conj(phi(x - g b)) phi(x - g a)
        gm = (np.conj(shifted)[:, None] * shifted[None]).reshape(k * k, len(x))
        del shifted  # a long table's rows, no longer needed
        # row-major, as every probe gathers rows (`np.take` would copy a
        # column-major basis whole on each probe)
        bases.append(np.ascontiguousarray(_hermitian_columns(_cumulative(gm, x).T, k)
                                          * np.repeat([1.0, 2.0, -2.0], [k, pairs, pairs])))
        # the grid's own overlaps, for the mass check against the exact S
        overlaps.append(np.trapezoid(gm, x, axis=1).reshape(k, k)[labels[:, None], labels])
    kernels = np.concatenate([np.stack(overlaps)[:, None],
                              exact if spec is not None else exact[:, :1]], axis=1)
    norms, walk = effects(sites, kernels)

    moment, prob = _postselected_moment(norms[1], norms[-1])
    mass_err = abs(norms[0].real / norms[1].real - 1.0)
    if not mass_err <= 1e-6:
        raise GridResolutionError(f"density mass outside grid: {mass_err:.3e}")

    rng = np.random.default_rng(seed)
    try:
        success = rng.random(n_total) < prob
        n_succ = int(np.sum(success))
        # each site's uniforms, site-major, which a block's readouts then
        # overwrite (one contiguous write per site) once read
        samples = rng.random((c.n, n_succ))
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise InvalidInput(f"{n_total} runs do not fit in memory") from None

    # a run's coordinates at site i are V_i^dag U_i v; the weights <y_b|E|y_a>
    # pair them against F_i = V_i^dag E_i V_i of the grid's walk, and the
    # hop V_{i+1}^dag U_{i+1} V_i carries them on
    pair_weights = [_pair_weights(f[0], labels, len(eigs))
                    for f, eigs, labels in zip(walk, sites.eigenvalues, sites.labels)]
    # the pair products' Hermitian half, and where its diagonal |c_j|^2 sits
    rows, cols = np.triu_indices(c.dim)
    diagonal = np.flatnonzero(rows == cols)
    # every run enters site 1 in the same state, so its readouts share one
    # CDF column, inverted through its guide table
    start = sites.start
    first = (np.conj(start[rows]) * start[cols]).view(float) @ pair_weights[0]
    bases[0] = shared = bases[0] @ first  # frees site 1's k^2 columns
    guide = _guide_table(shared)
    moments = [_basis_moments(b) for b in bases[1:]]
    hops = sites.hops.swapaxes(1, 2)

    for lo in range(0, n_succ, RUN_BLOCK):
        runs = slice(lo, lo + RUN_BLOCK)
        u = samples[:, runs]  # a view: u[i] is read whole before its readouts land
        # a run's coordinates at later sites are rescaled to unit norm only
        # through its readout amplitudes, which leaves its mixture weights alone
        coords = start
        for i, (eigs, labels) in enumerate(zip(sites.eigenvalues, sites.labels)):
            if i:
                z = np.take(coords, rows, axis=1).conj() * np.take(coords, cols, axis=1)
                coef = z.view(float) @ pair_weights[i]
                scale = 1.0 / np.sqrt(z.real[:, diagonal].sum(axis=1, keepdims=True))
                guess = _start_cells(coef, moments[i - 1], prof._quantiles, u[i])
                xs = _invert_mixture_cdf(coef, bases[i], grids[i], u[i], guess)
            else:
                xs, scale = _invert_shared_cdf(shared, guide, grids[0], u[0]), 1.0
            samples[i, runs] = xs
            if i < c.n - 1:
                phi = prof.eval(xs[:, None] - g * eigs) * scale
                coords = (phi[:, labels] * coords) @ hops[i]
    return RunBatch(postselected=success, samples=samples.T,
                    exact=(moment, prob) if spec is not None else None)


def check_position_moment(spec: MomentSpec, n_sites: int):
    """Reject a moment that runs cannot estimate: a momentum factor, or a
    site outside 1..n_sites."""
    if any(kind != "q" for _, kind in spec.factors):
        raise InvalidInput("only position products can be estimated from runs")
    valid_subset([site for site, _ in spec.factors], n_sites)


def estimate_moment(batch: RunBatch, spec: MomentSpec) -> Estimate:
    """Sample mean and standard error of the position product over the
    post-selected runs."""
    check_position_moment(spec, batch.samples.shape[1])
    n_success = len(batch.samples)
    if not n_success:
        raise NoSuccessfulRuns("no post-selected runs in the batch")
    cols = [site - 1 for site, _ in spec.factors]
    values = np.prod(batch.samples[:, cols], axis=1)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(n_success)) if n_success > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_success=n_success,
                    n_total=len(batch.postselected))
