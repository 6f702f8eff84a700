import tracemalloc

import numpy as np
import pytest

from seqweak import montecarlo, oracle
from seqweak.circuitmodel import Circuit, builtin_double_interferometer
from seqweak.errors import GridResolutionError, InvalidInput, NoSuccessfulRuns
from seqweak.montecarlo import (GRID_POINTS, RANGE_SIGMAS, RunBatch, _basis_moments,
                                _cumulative, _hermitian_columns, _invert_mixture_cdf,
                                _start_cells, estimate_moment,
                                sample_runs)
from seqweak.oracle import _shifted_table, exact_moment
from seqweak.pointer import MomentSpec, PointerProfile

from conftest import (loop_branches, one_site_kernels, projector_effects, projector_instruments,
                      random_circuit, random_hermitian, random_unitary)


def grid_pair_matrix(prof, eigs, g):
    """Readout grid x and G[(b,a), x] = conj(phi(x - g b)) phi(x - g a).  A
    Gaussian is evaluated one eigenvalue at a time on the RANGE_SIGMAS window
    around its extreme shifts; a table is read on its own grid from the
    package's spectrally shifted samples."""
    eigs = np.asarray(eigs, dtype=float)
    if prof.kind == "gaussian":
        x = np.linspace(prof.q_offset + g * eigs.min() - RANGE_SIGMAS * prof.sigma,
                        prof.q_offset + g * eigs.max() + RANGE_SIGMAS * prof.sigma,
                        GRID_POINTS)
        shifted = np.stack([prof.eval(x - g * ev) for ev in eigs])
    else:
        x, (shifted, _) = prof.grid, _shifted_table(prof, g * eigs)
    return x, (np.conj(shifted)[:, None, :] * shifted[None, :, :]).reshape(
        len(eigs) ** 2, len(x))


def bisection_reference(w, cdf_basis, x, u):
    """Reference inverse CDF for cdf_r(x) = Re sum_j w[r, j] cdf_basis[j, x]:
    bisection on the grid index over the complex pair basis, each evaluation
    gathering the k^2 basis columns of every run's probe index."""
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


def bit_bisection(coef, basis, x, u, start=None):
    """Reference row-gather inverse for cdf_r(x) = sum_j coef[r, j] basis[x, j],
    the sampler's inversion before cells were guessed: every run sets the bits
    of its grid index from the highest down, one gathered basis row per probe,
    then interpolates linearly to the next grid point.  ``start`` is ignored."""
    def value_at(idx):
        return np.einsum("rj,rj->r", coef, np.take(basis, idx, axis=0, mode="clip"))

    target = u * (coef @ basis[-1])
    lo = np.zeros(len(u), dtype=np.int64)
    step = 1 << ((len(x) - 1).bit_length() - 1)
    while step:
        lo += step * (value_at(lo + step) < target)
        step >>= 1
    c_lo = value_at(lo)
    c_hi = value_at(lo + 1)
    frac = np.where(c_hi > c_lo,
                    (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0)
    dx = x[1] - x[0]
    return x[lo] + np.clip(frac, 0.0, 1.0) * dx


def joint_tensor_reference(c, g, prof, n_total, seed):
    """Reference sampler: per-axis conditional inverse-CDF sampling from the
    joint density tensor D[(b1 a1), (b2 a2), ...] = conj(c_b) c_a over all
    eigenbranch pairs (k^(2n) entries, at most 3 sites).  Returns the
    post-selection flags and the samples in the layout of `RunBatch`."""
    n = c.n
    assert 1 <= n <= 3
    spectra, amps = loop_branches(c)
    ks = amps.shape
    eig_sets = [np.asarray(eigs) for eigs in spectra]
    letters_b, letters_a = "abc"[:n], "xyz"[:n]
    interleaved = "".join(b + a for b, a in zip(letters_b, letters_a))
    d_tensor = np.einsum(f"{letters_b},{letters_a}->{interleaved}",
                         np.conj(amps), amps).reshape([k * k for k in ks])

    grids, pair_cdfs, s_numeric = [], [], []
    for eigs in eig_sets:
        x, gm = grid_pair_matrix(prof, eigs, g)
        grids.append(x)
        pair_cdfs.append(_cumulative(gm, x))
        s_numeric.append(np.trapezoid(gm, x, axis=1))
    s_exact = [one_site_kernels(eigs, g, prof)[0].reshape(-1) for eigs in eig_sets]

    def contract_all(vectors):
        sub = letters_b + "," + ",".join(letters_b) + "->"
        return complex(np.einsum(sub, d_tensor, *vectors)).real

    mass_num, mass_exact = contract_all(s_numeric), contract_all(s_exact)
    assert mass_exact > 0 and abs(mass_num / mass_exact - 1.0) <= 1e-6
    prob = mass_exact / float(np.vdot(c.psi_f, c.psi_f).real)
    rng = np.random.default_rng(seed)
    success = rng.random(n_total) < prob
    n_succ = int(np.sum(success))

    samples = np.empty((n_succ, n))
    m_run = []  # per earlier axis: kernel factors at its samples
    for axis in range(n):
        partial = d_tensor
        for j in range(n - 1, axis, -1):
            partial = np.tensordot(partial, s_numeric[j], axes=([j], [0]))
        if axis == 0:
            w = np.broadcast_to(partial.reshape(1, -1), (n_succ, partial.size))
        else:
            sub = letters_b[: axis + 1] + "," + ",".join(
                "r" + letters_b[j] for j in range(axis)) + "->r" + letters_b[axis]
            w = np.einsum(sub, partial, *m_run)
        xs = bisection_reference(w, pair_cdfs[axis], grids[axis], rng.random(n_succ))
        samples[:, axis] = xs
        shifted = np.stack([prof.eval(xs - g * ev) for ev in eig_sets[axis]])
        m_run.append((np.conj(shifted)[:, None] * shifted[None]).reshape(
            len(eig_sets[axis]) ** 2, n_succ).T)
    return success, samples


def per_run_vector_walk(c, g, prof, n_total, seed):
    """Reference sampler: every run carries its system state v through every
    site.  The weights <y_b|E|y_a>, y_a = P_a U v, come from one einsum
    over the (k^2, d, d) operators (P_b U)^dag E (P_a U); a readout q sets
    v to sum_a phi(q - g a) y_a over the (runs, k, d) stack y.  One site's
    uniforms are drawn at a time.  Returns the post-selection flags and the
    samples in the layout of `RunBatch`."""
    sites = projector_instruments(c)
    grids, bases, kernels = [], [], []
    for _, eigs in sites:
        k, pairs = len(eigs), len(eigs) * (len(eigs) - 1) // 2
        x, gm = grid_pair_matrix(prof, eigs, g)
        grids.append(x)
        bases.append(_hermitian_columns(_cumulative(gm, x).T, k)
                     * np.repeat([1.0, 2.0, -2.0], [k, pairs, pairs]))
        kernels.append(np.stack([np.trapezoid(gm, x, axis=1).reshape(k, k),
                                 one_site_kernels(eigs, g, prof)[0]]))
    walk = projector_effects(c, sites, kernels)
    mass_exact = (walk[0][1] @ c.psi_i @ c.psi_i.conj()).real
    rng = np.random.default_rng(seed)
    success = rng.random(n_total) < mass_exact / float(np.vdot(c.psi_f, c.psi_f).real)
    n_succ = int(np.sum(success))

    samples = np.empty((n_succ, c.n))
    v = np.broadcast_to(c.psi_i, (n_succ, c.dim))
    for i, ((pu, eigs), e) in enumerate(zip(sites, walk[1:])):
        k, d = len(pu), c.dim
        m = pu.conj().swapaxes(1, 2)[:, None] @ e[0] @ pu[None]
        w = np.einsum("rj,pjl,rl->rp", v.conj(), m.reshape(k * k, d, d), v)
        xs = _invert_mixture_cdf(_hermitian_columns(w, k), bases[i], grids[i],
                                 rng.random(n_succ))
        samples[:, i] = xs
        y = (v @ pu.reshape(k * d, d).T).reshape(n_succ, k, d)
        phi = prof.eval(xs[:, None] - g * np.asarray(eigs))
        v = np.einsum("ra,rad->rd", phi, y)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return success, samples


def _tabulated_gaussian(sigma=1.0, npts=16384, half_width=14.0):
    q = np.linspace(-half_width, half_width, npts)
    return PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2 / (4 * sigma**2)))


def _test_pointer(kind):
    """An offset Gaussian, a narrow (sigma = 0.01) or a wide (sigma = 50)
    centred one, or a tabulated Gaussian."""
    if kind == "gaussian":
        return PointerProfile.gaussian(0.8, q_offset=0.3, p_offset=0.2)
    if kind in ("narrow", "wide"):
        return PointerProfile.gaussian(0.01 if kind == "narrow" else 50.0)
    return _tabulated_gaussian()


def _test_circuit(seed, dim, n, observable):
    """A seeded random circuit whose observables are random Hermitian
    matrices, rank-1 projectors (blocks of sizes 1 and d - 1), or, at d = 4,
    one twofold and two simple eigenvalues (blocks of sizes 1, 2, 1)."""
    c = random_circuit(seed, dim=dim, n=n, projectors=observable == "projector")
    if observable != "twofold":
        return c
    rng = np.random.default_rng(seed)
    stages = []
    for u, _ in c.stages:
        basis = random_unitary(rng, dim)
        stages.append((u, (basis * [-0.8, 0.3, 0.3, 1.1]) @ basis.conj().T))
    return Circuit(c.psi_i, tuple(stages), c.u_final, c.psi_f)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dim, observable", [
    pytest.param(2, "hermitian", id="2"),
    pytest.param(3, "hermitian", id="3"),
    pytest.param(3, "projector", id="3-projector"),
    pytest.param(4, "projector", id="4-projector"),
    pytest.param(4, "twofold", id="4-twofold"),
])
@pytest.mark.parametrize("pointer", ["gaussian", "tabulated"])
def test_sequential_sampler_matches_joint_tensor_reference(n, dim, observable, pointer):
    c = _test_circuit(600 + 10 * n + dim, dim, n, observable)
    prof = _test_pointer(pointer)
    g, seed = 0.4, 1000 + n * dim
    batch = sample_runs(c, g, prof, 3000, seed=seed)
    success, samples = joint_tensor_reference(c, g, prof, 3000, seed)
    assert np.array_equal(batch.postselected, success)
    assert batch.samples.shape == samples.shape == (int(success.sum()), n)
    assert np.max(np.abs(batch.samples - samples)) <= 1e-9


_VECTOR_WALK_CASES = [
    (n, dim, observable, pointer) for pointer in ("gaussian", "tabulated")
    for n, dim, observable in [(4, 2, "hermitian"), (5, 3, "hermitian"), (6, 4, "hermitian"),
                               (5, 3, "projector"), (6, 4, "twofold")]
] + [
    # one site: every run reads out of the one CDF that site 1 shares
    (1, 2, "hermitian", "gaussian"), (1, 3, "projector", "tabulated"),
    (1, 4, "twofold", "gaussian"),
    # ten sites, so nine state updates each rescale a run through its
    # readout amplitudes, with readouts that resolve the eigenvalues
    # (narrow) or barely move the state (wide)
    (10, 3, "hermitian", "narrow"), (10, 3, "hermitian", "wide"),
    (10, 3, "hermitian", "tabulated"),
]


@pytest.mark.parametrize("n, dim, observable, pointer", _VECTOR_WALK_CASES,
                         ids=[f"{p}-{n}-{d}-{o}" for n, d, o, p in _VECTOR_WALK_CASES])
def test_sequential_sampler_matches_per_run_vector_walk(n, dim, observable, pointer):
    # the joint tensor stops at three sites; the per-run vector walk does not
    c = _test_circuit(900 + 10 * n + dim, dim, n, observable)
    prof = _test_pointer(pointer)
    g, seed = 0.4, 2000 + n * dim
    batch = sample_runs(c, g, prof, 4000, seed=seed)
    success, samples = per_run_vector_walk(c, g, prof, 4000, seed)
    assert np.array_equal(batch.postselected, success)
    assert batch.samples.shape == samples.shape
    assert len(samples) >= 100
    assert np.max(np.abs(batch.samples - samples)) <= 1e-9


def test_rescaled_coordinates_survive_400_sites():
    # a sigma = 50 pointer's amplitudes are below 0.09, so coordinates that
    # were never rescaled would underflow to zero long before the last site;
    # the readouts are of order sigma, and so is the tolerance
    c, prof = random_circuit(905, dim=2, n=400), _test_pointer("wide")
    batch = sample_runs(c, 0.4, prof, 4000, seed=9)
    success, samples = per_run_vector_walk(c, 0.4, prof, 4000, seed=9)
    assert np.array_equal(batch.postselected, success)
    assert len(samples) >= 100
    assert np.max(np.abs(batch.samples - samples)) <= 1e-9 * prof.sigma


@pytest.mark.parametrize("dim, labels", [
    (1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3]), (4, [0, 1, 1, 2]),
], ids=["1", "2", "3", "4", "4-twofold"])
def test_half_pair_products_match_full_contraction(dim, labels):
    # the Hermitian half of the pair products against the (j, l) weights
    # folded by `_pair_weights` gives the Hermitian columns of the full
    # d^2 contraction w[(b,a)] = sum_{j in b, l in a} conj(c_j) f_jl c_l
    rng = np.random.default_rng(40 + len(set(labels)) + dim)
    labels, k = np.array(labels), len(set(labels))
    f = random_hermitian(rng, dim)
    coords = rng.normal(size=(500, dim)) + 1j * rng.normal(size=(500, dim))
    block = labels[:, None] == np.arange(k)
    full = np.einsum("rj,jl,rl,jb,la->rba", coords.conj(), f, coords, block, block)
    rows, cols = np.triu_indices(dim)
    half = np.ascontiguousarray(coords[:, rows].conj() * coords[:, cols])
    got = half.view(float) @ montecarlo._pair_weights(f, labels, k)
    assert np.max(np.abs(got - _hermitian_columns(full.reshape(500, k * k), k))) <= 1e-12


def test_run_blocks_match_one_block(monkeypatch):
    # run counts whose post-selected runs fill one block but one, one block,
    # one run past it and two blocks plus three; and an empty batch
    c, prof, g, seed = random_circuit(830, dim=3, n=3), PointerProfile.gaussian(1.0), 0.3, 9
    b = montecarlo.RUN_BLOCK
    _, prob = exact_moment(c, MomentSpec.parse("q1"), g, prof)
    counts = np.cumsum(sample_runs(c, g, prof, int(1.5 * (2 * b + 3) / prob),
                                   seed=seed).postselected)
    for target in [1, b - 1, b, b + 1, 2 * b + 3]:
        n_total = int(np.argmax(counts == target)) + 1
        batch = sample_runs(c, g, prof, n_total, seed=seed)
        assert len(batch.samples) == target
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "RUN_BLOCK", target + 1)
            whole = sample_runs(c, g, prof, n_total, seed=seed)
        assert np.array_equal(batch.postselected, whole.postselected)
        assert np.max(np.abs(batch.samples - whole.samples)) <= 1e-12
    empty = next(b for b in (sample_runs(c, g, prof, 1, seed=s) for s in range(20))
                 if not b.postselected[0])
    assert empty.samples.shape == (0, 3)
    with pytest.raises(NoSuccessfulRuns):
        estimate_moment(empty, MomentSpec.parse("q1*q3"))


def test_sampler_memory_does_not_grow_with_runs():
    # past the arrays that scale with the runs (the flags, the samples and
    # the per-site uniforms, one float per sample), the traced peak of a
    # 2e5-run batch may exceed that of a 2e4-run batch by at most 2 MB
    c, prof = random_circuit(811, dim=3, n=3), PointerProfile.gaussian(1.0)
    peaks, sizes = [], []
    for runs in (20_000, 200_000):
        tracemalloc.start()
        try:
            batch = sample_runs(c, 0.3, prof, runs, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(batch.postselected.nbytes + 2 * batch.samples.nbytes)
    assert peaks[1] - peaks[0] <= sizes[1] - sizes[0] + 2 * 2**20


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_row_gather_inversion_matches_bisection_reference(k):
    # random PSD pair weights, so every run's density is a nonnegative mixture
    rng = np.random.default_rng(50 + k)
    runs = 4000
    eigs = np.sort(rng.normal(size=k))
    prof = PointerProfile.gaussian(0.9, q_offset=0.2, p_offset=-0.3)
    g = 0.7
    x, gm = grid_pair_matrix(prof, eigs, g)
    cdf = _cumulative(gm, x)
    a = rng.normal(size=(runs, k, 2)) + 1j * rng.normal(size=(runs, k, 2))
    w = np.einsum("rbm,ram->rba", a.conj(), a).reshape(runs, k * k)
    u = rng.random(runs)
    u[:3] = [0.0, 1 - 1e-6, 1 - 1e-7]
    pairs = k * (k - 1) // 2
    basis = _hermitian_columns(cdf.T, k) * np.repeat([1.0, 2.0, -2.0], [k, pairs, pairs])
    got = _invert_mixture_cdf(_hermitian_columns(w, k), basis, x, u)
    assert np.max(np.abs(got - bisection_reference(w, cdf, x, u))) <= 1e-9
    assert got[0] == x[0]

    # closer to 1 the far tail of the CDF is flat to rounding, so two sums in
    # different orders may pick different grid cells; the inverse must still
    # hit the target on the reference CDF to rounding
    u_edge = np.array([1 - 1e-12, np.nextafter(1.0, 0.0)])
    cols = _hermitian_columns(w[:2], k)
    got = _invert_mixture_cdf(cols, basis, x, u_edge)
    ref = (w[:2] @ cdf).real.T  # cdf_r on the grid, from the complex pair basis
    for r in range(2):
        hit = np.interp(got[r], x, ref[:, r])
        assert abs(hit - u_edge[r] * ref[-1, r]) <= 1e-13 * ref[-1, r]


def _mixture_case(k, g, seed, runs=4000):
    """A Gaussian pointer's (grid, k^2) CDF basis at the shifts g a of k
    random eigenvalues a, and random PSD pair weights as Hermitian columns,
    so every run's density is a nonnegative mixture."""
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.normal(size=k))
    prof = PointerProfile.gaussian(0.9, q_offset=0.2, p_offset=-0.3)
    x, gm = grid_pair_matrix(prof, eigs, g)
    a = rng.normal(size=(runs, k, 2)) + 1j * rng.normal(size=(runs, k, 2))
    w = np.einsum("rbm,ram->rba", a.conj(), a).reshape(runs, k * k)
    pairs = k * (k - 1) // 2
    basis = np.ascontiguousarray(_hermitian_columns(_cumulative(gm, x).T, k)
                                 * np.repeat([1.0, 2.0, -2.0], [k, pairs, pairs]))
    return prof, x, basis, _hermitian_columns(w, k), rng.random(runs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_start_cell_changes_cost_not_answer(k):
    prof, x, basis, coef, u = _mixture_case(k, 0.7, 70 + k)
    u[:3] = [0.0, 1 - 1e-6, 1 - 1e-7]
    ref = bit_bisection(coef, basis, x, u)
    garbage = np.random.default_rng(k).integers(-10 * len(x), 10 * len(x), len(u))
    guess = _start_cells(coef, _basis_moments(basis), prof._quantiles, u)
    for start in (None, np.zeros(len(u), dtype=np.int64), np.full(len(u), len(x) - 2),
                  garbage, guess):
        assert np.array_equal(_invert_mixture_cdf(coef, basis, x, u, start), ref)


def test_bimodal_density_falls_back_to_bisection(monkeypatch):
    # at g = 3 the shifted copies of the pointer barely overlap, so the
    # moment-matched guess lands in the trough between the modes, where the
    # secant steps stall; the leftover runs take the full bisection
    prof, x, basis, coef, u = _mixture_case(2, 3.0, 7)
    guess = _start_cells(coef, _basis_moments(basis), prof._quantiles, u)

    def cdf_at(cell):
        return np.einsum("rj,rj->r", coef, np.take(basis, cell, axis=0, mode="clip"))

    cell, target = np.clip(guess, 0, len(x) - 1), u * (coef @ basis[-1])
    assert np.mean((cdf_at(cell) < target) & (target <= cdf_at(cell + 1))) < 0.9
    probes, take = [], np.take
    monkeypatch.setattr(montecarlo.np, "take", lambda a, idx, **kw: probes.append(len(idx))
                        or take(a, idx, **kw))
    got = _invert_mixture_cdf(coef, basis, x, u, guess)
    monkeypatch.undo()
    assert len(probes) > 10  # the guess and four secant steps gather 2 rows each
    assert np.array_equal(got, bit_bisection(coef, basis, x, u))


@pytest.mark.parametrize("pointer, g, dim, observable", [
    ("gaussian", 0.1, 2, "hermitian"), ("gaussian", 0.1, 3, "projector"),
    ("gaussian", 1.0, 3, "hermitian"), ("gaussian", 1.0, 4, "twofold"),
    ("gaussian", 3.0, 2, "hermitian"), ("gaussian", 3.0, 4, "hermitian"),
    ("tabulated", 0.4, 2, "hermitian"), ("tabulated", 0.4, 4, "twofold"),
    ("tabulated", 2.5, 3, "projector"),
])
def test_guessed_cells_sample_like_pure_bisection(monkeypatch, pointer, g, dim, observable):
    c = _test_circuit(1300 + 10 * dim + int(10 * g), dim, 3, observable)
    prof, seed = _test_pointer(pointer), int(100 * g) + dim
    batch = sample_runs(c, g, prof, 6000, seed=seed)
    monkeypatch.setattr(montecarlo, "_invert_mixture_cdf", bit_bisection)
    ref = sample_runs(c, g, prof, 6000, seed=seed)
    assert np.array_equal(batch.postselected, ref.postselected)
    assert np.array_equal(batch.samples, ref.samples)


def test_one_shifted_table_pass_per_site(monkeypatch):
    # the exact S kernels come from the sampler's own shifted rows
    calls = []

    def counted(prof, shifts, **kwargs):
        calls.append(len(shifts))
        return _shifted_table(prof, shifts, **kwargs)

    c, prof, g = random_circuit(61, dim=3, n=3), _tabulated_gaussian(npts=4096), 0.3
    success, samples = per_run_vector_walk(c, g, prof, 3000, seed=4)
    monkeypatch.setattr(montecarlo, "_shifted_table", counted)
    monkeypatch.setattr(oracle, "_shifted_table", counted)
    batch = sample_runs(c, g, prof, 3000, seed=4)
    assert len(calls) == c.n
    assert np.array_equal(batch.postselected, success)
    assert np.max(np.abs(batch.samples - samples)) <= 1e-9


@pytest.mark.parametrize("seed", [-1, -5, 1.5, "1", None])
def test_sample_runs_refuses_a_bad_seed(monkeypatch, seed):
    # a seed that is not an integer >= 0 is InvalidInput, before any work
    def refuse(*args):
        raise AssertionError("eigenbases built for a bad seed")

    monkeypatch.setattr(montecarlo, "eigenbases", refuse)
    with pytest.raises(InvalidInput, match="seed"):
        sample_runs(builtin_double_interferometer(), 0.1, PointerProfile.gaussian(1.0), 100, seed)


def test_integer_like_seed_is_its_int():
    c, prof = builtin_double_interferometer(), PointerProfile.gaussian(1.0)
    a, b = sample_runs(c, 0.1, prof, 300, np.int64(3)), sample_runs(c, 0.1, prof, 300, 3)
    assert np.array_equal(a.postselected, b.postselected)
    assert np.array_equal(a.samples, b.samples)


def test_determinism_given_seed():
    c = builtin_double_interferometer()
    prof = PointerProfile.gaussian(1.0)
    a = sample_runs(c, 0.05, prof, 500, seed=123)
    b = sample_runs(c, 0.05, prof, 500, seed=123)
    assert np.array_equal(a.postselected, b.postselected)
    assert np.array_equal(a.samples, b.samples)
    c2 = sample_runs(c, 0.05, prof, 500, seed=124)
    assert not np.array_equal(a.postselected, c2.postselected)


def test_record_layout():
    c = builtin_double_interferometer()
    batch = sample_runs(c, 0.05, PointerProfile.gaussian(1.0), 200, seed=1)
    assert batch.postselected.shape == (200,)
    assert batch.postselected.dtype == bool
    assert batch.samples.shape == (int(batch.postselected.sum()), 2)
    assert batch.samples.dtype == float


def test_postselection_frequency():
    c = builtin_double_interferometer()
    n = 40000
    batch = sample_runs(c, 0.05, PointerProfile.gaussian(1.0), n, seed=7)
    _, prob = exact_moment(c, MomentSpec.parse("q1"), 0.05,
                           PointerProfile.gaussian(1.0))
    freq = np.sum(batch.postselected) / n
    stderr = np.sqrt(prob * (1 - prob) / n)
    assert abs(freq - prob) < 4 * stderr


def test_single_site_mean_matches_oracle():
    rng_circuit = random_circuit(41, dim=3, n=1)
    g, prof = 0.1, PointerProfile.gaussian(1.0)
    batch = sample_runs(rng_circuit, g, prof, 60000, seed=3)
    est = estimate_moment(batch, MomentSpec.parse("q1"))
    exact, _ = exact_moment(rng_circuit, MomentSpec.parse("q1"), g, prof)
    assert abs(est.mean - exact) < 4 * est.stderr


def test_pair_correlation_matches_oracle():
    c = builtin_double_interferometer()
    g, prof = 0.3, PointerProfile.gaussian(1.0)
    batch = sample_runs(c, g, prof, 80000, seed=11)
    est = estimate_moment(batch, MomentSpec.parse("q1*q2"))
    exact, _ = exact_moment(c, MomentSpec.parse("q1*q2"), g, prof)
    assert abs(est.mean - exact) < 4 * est.stderr
    assert est.n_total == 80000
    assert 0 < est.n_success < est.n_total


def test_tabulated_profile_sampling():
    c = builtin_double_interferometer()
    q = np.linspace(-14, 14, 16384)
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2 / 4))
    g = 0.3
    batch = sample_runs(c, g, prof, 40000, seed=13)
    est = estimate_moment(batch, MomentSpec.parse("q1*q2"))
    exact, _ = exact_moment(c, MomentSpec.parse("q1*q2"), g, prof)
    assert abs(est.mean - exact) < 4 * est.stderr


def test_three_site_sampling():
    c = random_circuit(43, dim=2, n=3)
    g, prof = 0.2, PointerProfile.gaussian(1.0)
    batch = sample_runs(c, g, prof, 30000, seed=17)
    est = estimate_moment(batch, MomentSpec.parse("q1*q2*q3"))
    exact, _ = exact_moment(c, MomentSpec.parse("q1*q2*q3"), g, prof)
    assert abs(est.mean - exact) < 4 * est.stderr


def test_marginal_estimate_from_joint_samples():
    # a q1-only moment can be estimated from the same batch
    c = builtin_double_interferometer()
    g, prof = 0.3, PointerProfile.gaussian(1.0)
    batch = sample_runs(c, g, prof, 40000, seed=19)
    est = estimate_moment(batch, MomentSpec.parse("q1"))
    exact, _ = exact_moment(c, MomentSpec.parse("q1"), g, prof)
    assert abs(est.mean - exact) < 4 * est.stderr


def test_input_validation():
    c = builtin_double_interferometer()
    prof = PointerProfile.gaussian(1.0)
    with pytest.raises(ValueError):
        sample_runs(c, 0.05, prof, 0, seed=1)
    for g in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="coupling"):
            sample_runs(c, g, prof, 10, seed=1)


@pytest.mark.parametrize("n, seed", [(4, 2), (8, 3)])
def test_many_site_sampling_matches_oracle(n, seed):
    c = random_circuit(700 + seed, dim=2, n=n)
    g, prof = 0.5, PointerProfile.gaussian(1.0)
    batch = sample_runs(c, g, prof, 40000, seed=seed)
    assert batch.samples.shape[1] == n
    for spec in ("q1", f"q{n}", f"q1*q{n}", f"q{n - 1}*q{n}"):
        est = estimate_moment(batch, MomentSpec.parse(spec))
        exact, prob = exact_moment(c, MomentSpec.parse(spec), g, prof)
        assert abs(est.mean - exact) < 4 * est.stderr
    freq = np.mean(batch.postselected)
    assert abs(freq - prob) < 4 * np.sqrt(prob * (1 - prob) / len(batch.postselected))


@pytest.mark.parametrize("case", ["builtin", "random3"])
def test_4096_point_table_samples_like_the_oracle(case):
    # the readout densities come from the same shifted samples as the exact
    # kernels, so a 4096-point table passes the mass check and, for n = 3,
    # exercises the interpolated state update twice
    if case == "builtin":
        c, specs = builtin_double_interferometer(), ("q1", "q2", "q1*q2")
    else:
        c, specs = random_circuit(47, dim=2, n=3), ("q1", "q2", "q1*q2", "q3", "q2*q3")
    prof, g = _tabulated_gaussian(npts=4096), 0.3
    batch = sample_runs(c, g, prof, 100000, seed=23)
    for spec in specs:
        est = estimate_moment(batch, MomentSpec.parse(spec))
        exact, _ = exact_moment(c, MomentSpec.parse(spec), g, prof)
        assert abs(est.mean - exact) < 4 * est.stderr, spec


def test_too_coarse_grid_fails_mass_check():
    # sigma = 0.01 at g = 60: the 4096-point window is 120 wide, so its step
    # is about three pointer widths and the grid mass misses S by ~2e-4
    c = builtin_double_interferometer()
    with pytest.raises(GridResolutionError, match="mass"):
        sample_runs(c, 60.0, PointerProfile.gaussian(0.01), 100, seed=1)


def test_estimate_moment_errors():
    c, prof = builtin_double_interferometer(), PointerProfile.gaussian(1.0)
    empty = next(b for b in (sample_runs(c, 0.05, prof, 1, seed=s) for s in range(20))
                 if not b.postselected[0])
    assert empty.samples.shape == (0, 2)
    with pytest.raises(NoSuccessfulRuns):
        estimate_moment(empty, MomentSpec.parse("q1"))
    one = RunBatch(np.ones(1, bool), np.array([[0.1]]))
    with pytest.raises(ValueError, match="position"):
        estimate_moment(one, MomentSpec.parse("p1"))
    with pytest.raises(ValueError, match="range"):
        estimate_moment(one, MomentSpec.parse("q2"))
