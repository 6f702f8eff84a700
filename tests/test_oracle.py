import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from seqweak.circuitmodel import (P_B, P_C, P_E, P_F, Circuit,
                                  builtin_double_interferometer, product_amplitudes,
                                  transition_amplitude)
from seqweak.counterfactual import _kicks, joint_response, weak_interaction_response
from seqweak.errors import (AssumptionAViolated, DegeneratePostSelection, DimMismatch,
                            GridResolutionError, InvalidInput, NotHermitian,
                            NumericallySingular)
from seqweak import circuitmodel, montecarlo, oracle
from seqweak.montecarlo import _shifted_table, sample_runs
from seqweak.oracle import (KINDS, _phases, _table_kernels, exact_moment, gaussian_kernels,
                            same_pointer_twice, site_kernels)
from seqweak.pointer import MomentSpec, PointerProfile, predict_moment
from seqweak.weakvalue import BRANCH_TOL, STRONG_REL_TOL, check_strong_agreement, weak_value

from conftest import (kernel_table, kron_joint_response, loop_branches, one_site_kernels,
                      projector_effects, projector_instruments, random_circuit, random_hermitian,
                      random_projector, random_state, random_unitary, row_kernels, shifted_rows)


def quadrature_kernels(eigs, g, prof, npts=80001, span=30.0):
    """Overlap matrices by direct numeric quadrature, the reference the
    closed forms must match."""
    q = np.linspace(-span, span, npts)
    k = len(eigs)
    s = np.zeros((k, k), dtype=complex)
    qm = np.zeros((k, k), dtype=complex)
    pm = np.zeros((k, k), dtype=complex)
    for bi, b in enumerate(eigs):
        left = np.conj(prof.eval(q - g * b))
        for ai, a in enumerate(eigs):
            right = prof.eval(q - g * a)
            dright = np.gradient(right, q)
            s[bi, ai] = np.trapezoid(left * right, q)
            qm[bi, ai] = np.trapezoid(left * q * right, q)
            pm[bi, ai] = np.trapezoid(left * (-1j) * dright, q)
    return s, qm, pm


@pytest.mark.parametrize("sigma,q_offset,p_offset", [
    (1.0, 0.0, 0.0),
    (0.6, 0.0, 0.0),
    (1.0, 0.3, 0.0),
    (0.8, -0.2, 0.5),
])
def test_gaussian_kernels_match_quadrature(sigma, q_offset, p_offset):
    eigs = np.array([-1.0, 0.0, 0.7, 2.0])
    g = 0.3
    prof = PointerProfile.gaussian(sigma, q_offset, p_offset)
    kern = gaussian_kernels(eigs, g, sigma, q_offset, p_offset)
    s, qm, pm = quadrature_kernels(eigs, g, prof)
    assert np.max(np.abs(kern[0] - s)) < 1e-7
    assert np.max(np.abs(kern[1] - qm)) < 1e-7
    assert np.max(np.abs(kern[2] - pm)) < 1e-6


def test_gaussian_kernel_structure():
    eigs = np.array([0.0, 1.0])
    kern = gaussian_kernels(eigs, 0.1, 1.0)
    # diagonal: unit overlap, position mean g*a, zero momentum
    assert kern[0][1, 1] == pytest.approx(1.0)
    assert kern[1][1, 1] == pytest.approx(0.1)
    assert kern[2][0, 0] == pytest.approx(0.0)
    # Hermitian as kernels: K(b,a) = conj(K(a,b))
    for m in (kern[0], kern[1], kern[2]):
        assert np.allclose(m, m.conj().T)
    with pytest.raises(ValueError):
        gaussian_kernels(eigs, 0.1, -1.0)


def test_tabulated_kernels_match_gaussian_closed_form():
    sigma = 0.9
    q = np.linspace(-14 * sigma, 14 * sigma, 4096)
    phi = np.exp(-q**2 / (4 * sigma**2))
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], phi)
    eigs = np.array([-0.5, 0.3, 1.2])
    g = 0.2
    kern = _table_kernels(prof, g * eigs, momentum=True)
    ref = gaussian_kernels(eigs, g, sigma)
    assert np.max(np.abs(kern[0] - ref[0])) < 1e-8
    assert np.max(np.abs(kern[1] - ref[1])) < 1e-7
    assert np.max(np.abs(kern[2] - ref[2])) < 1e-7


_Q = np.linspace(-12, 12, 1024)
# asymmetric, chirped and off-centre: exercises every kernel entry
TABULATED = PointerProfile.tabulated(
    _Q[0], _Q[1] - _Q[0],
    np.exp(-(_Q - 0.3) ** 2 / 3) * (1 + 0.4 * _Q) * np.exp(0.15j * _Q ** 2))


def loop_tabulated_kernels(eigs, g, prof):
    """Per-eigenvalue FFT shifts and a k^2 loop of grid sums: the reference
    for the batched form."""
    vals = np.asarray(prof.values)
    step = prof.grid_step
    freq = 2 * np.pi * np.fft.fftfreq(len(vals), d=step)
    ft = np.fft.fft(vals)
    shifted = [np.fft.ifft(ft * np.exp(-1j * freq * g * ev)) for ev in eigs]
    dshifted = [np.fft.ifft(1j * freq * ft * np.exp(-1j * freq * g * ev)) for ev in eigs]
    k = len(eigs)
    s, q, p = (np.zeros((k, k), dtype=complex) for _ in range(3))
    for bi in range(k):
        for ai in range(k):
            left = np.conj(shifted[bi])
            s[bi, ai] = step * np.sum(left * shifted[ai])
            q[bi, ai] = step * np.sum(left * prof.grid * shifted[ai])
            p[bi, ai] = step * np.sum(left * (-1j) * dshifted[ai])
    return s, q, p


def test_tabulated_kernels_match_loop_reference():
    eigs = np.array([-1.3, -0.2, 0.4, 1.1])
    kern = _table_kernels(TABULATED, 0.35 * eigs, momentum=True)
    for got, ref in zip((kern[0], kern[1], kern[2]),
                        loop_tabulated_kernels(eigs, 0.35, TABULATED)):
        assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("npts", [4096, 16384])
def test_shifted_table_matches_shifted_gaussian(npts):
    sigma = 0.8
    q = np.linspace(-14, 14, npts)
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2 / (4 * sigma**2)))
    # the sampler's rows; a table's P kernel is checked against the closed
    # form in test_tabulated_kernels_match_gaussian_closed_form
    shifts = np.array([-2.1, -0.37, 0.0, 0.05, 1.3, 3.0])
    shifted = _shifted_table(prof, shifts)
    z = q - shifts[:, None]
    phi = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-z**2 / (4 * sigma**2))
    assert np.max(np.abs(shifted - phi)) <= 1e-10


def test_shift_off_tabulated_grid_is_rejected():
    # a +-5 table of a sigma = 0.5 Gaussian shifted by g a = 8 would wrap
    # around circularly: q1 read -0.872 where the Gaussian gives 4
    c, spec, g = builtin_double_interferometer(), MomentSpec.parse("q1"), 8.0
    q = np.linspace(-5, 5, 1024)
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2))
    assert exact_moment(c, spec, g, PointerProfile.gaussian(0.5))[0] == pytest.approx(4.0)
    with pytest.raises(GridResolutionError, match="grid ends"):
        _shifted_table(prof, np.array([0.0, g]))
    with pytest.raises(GridResolutionError, match="grid ends"):
        _table_kernels(prof, np.array([0.0, g]))
    with pytest.raises(GridResolutionError, match="grid ends"):
        exact_moment(c, spec, g, prof)
    with pytest.raises(GridResolutionError, match="grid ends"):
        sample_runs(c, g, prof, 100, seed=1)
    # a shift that keeps the support on the grid is exact
    assert exact_moment(c, spec, 0.5, prof)[0] == pytest.approx(
        exact_moment(c, spec, 0.5, PointerProfile.gaussian(0.5))[0], abs=1e-9)
    # a narrow profile shifted by most of the grid wraps around whole, so the
    # ends decay again; it is still off the grid
    narrow = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2 / 0.36))
    with pytest.raises(GridResolutionError, match="grid ends"):
        _shifted_table(narrow, np.array([9.0]))


def test_derivative_rows_only_on_request(monkeypatch):
    # the P kernel is built only on request, and S and Q stay bitwise those
    # built next to it; all three match the row quadrature over phi and phi'
    # (`shifted_rows`, which always builds phi' and its phases by one complex
    # exp), and the sampler on those rows keeps its flags bitwise and its
    # samples to rounding
    eigs = np.array([-1.3, -0.2, 0.4, 1.1])
    kern = _table_kernels(TABULATED, 0.35 * eigs, momentum=True)
    no_p = _table_kernels(TABULATED, 0.35 * eigs)
    assert len(no_p) == 2
    assert np.array_equal(no_p[0], kern[0]) and np.array_equal(no_p[1], kern[1])
    ref = row_kernels(TABULATED, *shifted_rows(TABULATED, 0.35 * eigs))
    for got, want in zip(kern, ref):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    c, g = random_circuit(77, dim=3, n=3), 0.3
    batch = sample_runs(c, g, TABULATED, 3000, seed=5)
    monkeypatch.setattr(montecarlo, "_shifted_table",
                        lambda prof, shifts: shifted_rows(prof, shifts)[0])
    ref_batch = sample_runs(c, g, TABULATED, 3000, seed=5)
    assert np.array_equal(batch.postselected, ref_batch.postselected)
    assert np.max(np.abs(batch.samples - ref_batch.samples)) <= 1e-9


# even and odd lengths (257 is prime), and an off-centre grid (q in [99, 131])
KERNEL_TABLES = [kernel_table(256), kernel_table(257), kernel_table(1000),
                 kernel_table(1024), kernel_table(1025, centre=115.0), kernel_table(4096)]


@pytest.mark.parametrize("seed", range(40))
def test_parseval_kernels_match_row_quadrature(seed):
    # the Parseval kernels against the row quadrature (`one_site_kernels`)
    # at 1e-13 relative to each kernel's largest entry, and the phase
    # helper against one complex exp at 1e-12 absolute, on every site of a
    # random circuit (every fourth with projectors) at three couplings
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 7)), int(rng.integers(2, 5))
    c = random_circuit(900 + seed, dim=d, n=n, projectors=seed % 4 == 0)
    prof = KERNEL_TABLES[seed % len(KERNEL_TABLES)]
    freq = prof._spectrum[2]
    for g in (0.05, 0.3, 1.0):
        for eigs in circuitmodel.eigenbases(c).eigenvalues:
            shifts = g * eigs
            assert np.max(np.abs(_phases(prof, shifts)
                                 - np.exp(-1j * np.outer(shifts, freq)))) <= 1e-12
            for got, want in zip(_table_kernels(prof, shifts, momentum=True),
                                 one_site_kernels(eigs, g, prof)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_oracle_path_takes_no_inverse_fft(monkeypatch):
    # a table's kernels and moments come off its cached spectrum: the exact
    # and leading-order moments of a fresh profile run with ifft refused
    def refuse(*args, **kwargs):
        raise AssertionError("inverse FFT on the oracle path")

    prof = PointerProfile.tabulated(TABULATED.grid_min, TABULATED.grid_step,
                                    np.asarray(TABULATED.values))
    monkeypatch.setattr(np.fft, "ifft", refuse)
    c = random_circuit(31, dim=3, n=3)
    for text in ("q1", "p2", "q1*p2*q3"):
        assert np.isfinite(exact_moment(c, MomentSpec.parse(text), 0.3, prof)[0])
    assert np.isfinite(predict_moment(c, MomentSpec.parse("q1"), 0.3, prof))
    real = PointerProfile.tabulated(_Q[0], _Q[1] - _Q[0], np.exp(-_Q**2 / 3))
    assert np.isfinite(predict_moment(c, MomentSpec.parse("q1*p3"), 0.3, real))


def test_postselected_moment_refuses_an_imaginary_residue():
    # a ratio num / den whose imaginary part reaches 1e-9 times
    # max(1, |real part|) is refused; a smaller one is dropped from the
    # analytically real moment
    with pytest.raises(NumericallySingular, match="imaginary residue 2.000e-09"):
        oracle._postselected_moment(0.5 + 0j, 0.25 + 1e-9j)
    assert oracle._postselected_moment(0.5 + 0j, 0.25 + 4e-10j) == (0.5, 0.5)
    # a large moment keeps its residue relative to its size
    assert oracle._postselected_moment(0.5 + 0j, -3.75e7 + 2e-3j) == (-7.5e7, 0.5)
    with pytest.raises(NumericallySingular, match="imaginary residue 1.000e-01"):
        oracle._postselected_moment(0.5 + 0j, -3.75e7 + 5e-2j)


def picked(kern, kind):
    """The kernel that a readout kind (None, "q" or "p") names."""
    return kern[KINDS.index(kind)]


def formula_kernels(eigs, g, prof):
    """S, Q and P over one site's merged eigenvalues from the package's
    per-site formula helpers, which `site_kernels` expands by labels."""
    eigs = np.asarray(eigs, dtype=float)
    if prof.kind == "gaussian":
        return gaussian_kernels(eigs, g, prof.sigma, prof.q_offset, prof.p_offset)
    return _table_kernels(prof, g * eigs, momentum=True)


def test_site_kernels_dispatch():
    # one entry for both pointer kinds: per site its S kernel and the kernel
    # that its readout kind picks, bitwise the per-site formula kernels
    # expanded by labels, and within 1e-13 of the per-site reference (row
    # quadrature for a table); the rank-1 projectors make twofold-degenerate
    # eigenvalues
    c, g, kinds = random_circuit(5, dim=3, n=4, projectors=True), 0.1, [None, "q", "p", "q"]
    sites = circuitmodel.eigenbases(c)
    for prof in (PointerProfile.gaussian(1.0), TABULATED):
        got = site_kernels(sites, g, prof, kinds)
        assert got.shape == (4, 2, 3, 3)
        for kern, eigs, labels, kind in zip(got, sites.eigenvalues, sites.labels, kinds):
            ref, cols = formula_kernels(eigs, g, prof), (labels[:, None], labels)
            assert np.array_equal(kern[0], ref[0][cols])
            assert np.array_equal(kern[1], picked(ref, kind)[cols])
            for got_k, want in zip(ref, one_site_kernels(eigs, g, prof)):
                assert np.max(np.abs(got_k - want)) <= 1e-13 * np.max(np.abs(want))


def test_table_derivative_rows_only_at_p_sites(monkeypatch):
    # a table's P kernel, one more product over its spectrum, is built at
    # the "p" sites of the moment and only there, one kernel pass per site;
    # a Gaussian makes no table pass
    calls = []

    def counted(prof, shifts, momentum=False):
        kern = _table_kernels(prof, shifts, momentum)
        calls.append(len(kern) == 3)
        return kern

    monkeypatch.setattr(oracle, "_table_kernels", counted)
    c = random_circuit(9, dim=3, n=4)
    for text, want in (("q1", [False] * 4), ("p2", [False, True, False, False]),
                       ("q1*p2*p4", [False, True, False, True]), ("p1*p2*p3*p4", [True] * 4)):
        calls.clear()
        exact_moment(c, MomentSpec.parse(text), 0.3, TABULATED)
        assert calls == want, text
    calls.clear()
    exact_moment(c, MomentSpec.parse("p1*q2"), 0.3, PointerProfile.gaussian(1.0))
    assert calls == []


def test_branch_amplitudes_sum_to_transition_amplitude(rng):
    for seed in range(10):
        c = random_circuit(seed, n=2)
        _, amps = loop_branches(c)
        assert amps.sum() == pytest.approx(transition_amplitude(c), abs=1e-10)


def test_branch_decompose_projector_sites():
    c = builtin_double_interferometer()
    spectra, amps = loop_branches(c)
    assert amps.shape == (2, 2)
    # photon through B then F has amplitude 1/(2 sqrt 2) up to sign
    through_bf = amps[spectra[0].index(1.0), spectra[1].index(1.0)]
    assert abs(through_bf) == pytest.approx(1 / (2 * np.sqrt(2)))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("projectors", [False, True])
def test_branch_decompose_matches_per_branch_loop(n, d, projectors):
    # the eigenbranch decomposition in projector form: the stacked P_a U of
    # `projector_instruments`, every branch walked by `product_amplitudes`
    c = random_circuit(300 + 10 * n + d, dim=d, n=n, projectors=projectors)
    spectra, ref = loop_branches(c)
    sites = projector_instruments(c)
    assert [eigs for _, eigs in sites] == spectra
    amps = product_amplitudes(c, [pu for pu, _ in sites])
    assert np.max(np.abs(amps - ref.reshape(-1))) <= 1e-12


def test_exact_moment_zero_coupling_is_profile_mean(rng):
    c = random_circuit(31, n=2)
    prof = PointerProfile.gaussian(1.0, q_offset=0.4)
    val, prob = exact_moment(c, MomentSpec.parse("q1"), 0.0, prof)
    assert val == pytest.approx(0.4, abs=1e-12)
    assert prob == pytest.approx(abs(transition_amplitude(c)) ** 2, rel=1e-12)


def test_exact_moment_converges_to_prediction():
    c = builtin_double_interferometer()
    prof = PointerProfile.gaussian(1.0)
    for g in (1e-2, 1e-3):
        val, _ = exact_moment(c, MomentSpec.parse("q1*q2"), g, prof)
        assert val == pytest.approx(g**2 / 2 * -0.5, rel=5 * g**2 + 1e-9)


def test_exact_moment_with_tabulated_profile_matches_gaussian():
    c = builtin_double_interferometer()
    sigma = 1.0
    q = np.linspace(-14, 14, 4096)
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2 / 4))
    g = 0.05
    val_tab, prob_tab = exact_moment(c, MomentSpec.parse("q1*q2"), g, prof)
    val_g, prob_g = exact_moment(c, MomentSpec.parse("q1*q2"), g,
                                 PointerProfile.gaussian(sigma))
    assert val_tab == pytest.approx(val_g, rel=1e-6, abs=1e-10)
    assert prob_tab == pytest.approx(prob_g, rel=1e-6)


def test_exact_moment_rejects_vanishing_postselection():
    c = Circuit(psi_i=np.array([1.0, 0.0]),
                stages=((np.eye(2), np.diag([1.0, 2.0])),),
                u_final=np.eye(2), psi_f=np.array([0.0, 1.0]))
    with pytest.raises(DegeneratePostSelection):
        exact_moment(c, MomentSpec.parse("q1"), 1e-3, PointerProfile.gaussian(1.0))


@pytest.mark.parametrize("g", [0.0, 1e-9])
def test_vanishing_postselection_is_degenerate_everywhere(g):
    # the built-in circuit post-selected on (1, 1) has F = 0
    c = dataclasses.replace(builtin_double_interferometer(), psi_f=np.array([1.0, 1.0]))
    assert abs(transition_amplitude(c)) < 1e-15
    prof = PointerProfile.gaussian(1.0)
    with pytest.raises(DegeneratePostSelection, match="post-selected norm"):
        exact_moment(c, MomentSpec.parse("q1*q2"), g, prof)
    with pytest.raises(DegeneratePostSelection, match="post-selected norm"):
        same_pointer_twice(c, g, prof)
    with pytest.raises(DegeneratePostSelection, match="post-selected norm"):
        sample_runs(c, g, prof, 100, 1)


def test_exact_momentum_moment_sign():
    # a circuit with a complex weak value: <p1> = 2 g v Im (A1)_w + O(g^3)
    rng = np.random.default_rng(5)
    c = random_circuit(5, dim=3, n=1)
    g, sigma = 1e-3, 1.0
    w = weak_value(c, (1,))
    val, _ = exact_moment(c, MomentSpec.parse("p1"), g, PointerProfile.gaussian(sigma))
    assert val == pytest.approx(2 * g * 0.25 * w.imag, rel=1e-3, abs=1e-10)


def test_same_pointer_twice():
    g = 1e-3
    # C and E are both fully occupied, so the shared pointer moves by 2g
    c = builtin_double_interferometer(P_C, P_E)
    expected = g * (weak_value(c, (1,)) + weak_value(c, (2,))).real
    val = same_pointer_twice(c, g, PointerProfile.gaussian(1.0))
    assert val == pytest.approx(expected, rel=1e-3)
    # B and F sum to zero shift; only the cubic correction survives
    val0 = same_pointer_twice(builtin_double_interferometer(), g,
                              PointerProfile.gaussian(1.0))
    assert abs(val0) < g**3


def test_chirped_profile_position_mean_picks_up_imaginary_part():
    # for a complex profile the position mean also responds to Im (A1)_w,
    # with slope y = <pq + qp> - 2 mu nu
    from seqweak.pointer import moments

    q = np.linspace(-14, 14, 8192)
    beta = 0.2
    prof = PointerProfile.tabulated(
        q[0], q[1] - q[0], np.exp(-q**2 / 4) * np.exp(1j * beta * q**2))
    m = moments(prof)
    assert m.y == pytest.approx(4 * beta, rel=1e-6)
    c = random_circuit(7, dim=3, n=1)
    w = weak_value(c, (1,))
    assert abs(w.imag) > 0.05
    g = 1e-3
    val, _ = exact_moment(c, MomentSpec.parse("q1"), g, prof)
    predicted = m.mu + g * (w.real + m.y * w.imag)
    assert val == pytest.approx(predicted, abs=5e-3 * g)


def test_same_pointer_twice_requires_centered_gaussian():
    c = builtin_double_interferometer()
    with pytest.raises(AssumptionAViolated):
        same_pointer_twice(c, 1e-3, PointerProfile.gaussian(1.0, q_offset=0.1))


def shared_pointer_reference(c, g, sigma):
    """<q> of one Gaussian pointer coupled at both sites of ``c``, as the
    pair sum over the `loop_branches` branches, each of which translates
    the pointer by g (a_1 + a_2)."""
    spectra, amps = loop_branches(c)
    totals = np.add.outer(*spectra).reshape(-1)
    amps = amps.reshape(-1)
    kern = gaussian_kernels(totals, g, sigma)
    return (np.conj(amps) @ kern[1] @ amps / (np.conj(amps) @ kern[0] @ amps)).real


@pytest.mark.parametrize("g", [1e-3, 0.3, 1.5])
def test_same_pointer_twice_matches_branch_pair_sum(g):
    circuits = [builtin_double_interferometer(), builtin_double_interferometer(P_C, P_E),
                *(random_circuit(seed + 700, n=2) for seed in range(8)),
                *(random_circuit(seed + 700, dim=3, n=2, projectors=True) for seed in range(4))]
    for c in circuits:
        val = same_pointer_twice(c, g, PointerProfile.gaussian(0.7))
        assert val == pytest.approx(shared_pointer_reference(c, g, 0.7), rel=1e-12)


def test_weak_interaction_response_tracks_weak_value():
    # leading order: response = 2 g Im[(P)_w] * cov-type ancilla factor;
    # compare two sites whose weak values differ
    c = builtin_double_interferometer()
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    obs = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    state = np.array([1.0, 0.0], dtype=complex)
    g = 1e-3
    # site 1 restricted to B: weak value 0 -> null response to all orders
    r_b = weak_interaction_response(c, 1, P_B, h, obs, state, g)
    assert abs(r_b) < 1e-14
    # restricted to C (weak value 1): the ancilla is kicked like a free
    # evolution exp(-i g h), which moves <obs> at first order in g
    r_c = weak_interaction_response(c, 1, np.eye(2) - P_B, h, obs, state, g)
    assert abs(r_c) > g / 10


def test_joint_response_null_for_vanishing_pair():
    # B and F have all zero single and pair weak values except the pair,
    # which is -1/2, so a joint coupling must respond
    c = builtin_double_interferometer()
    h = random_hermitian(np.random.default_rng(0), 2)
    obs = random_hermitian(np.random.default_rng(1), 2)
    state = random_state(np.random.default_rng(2), 2)
    g = 1e-2
    resp = joint_response(c, {1: (P_B, h), 2: (P_F, h)}, obs, state, g)
    assert abs(resp) > 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("anc_dim", [2, 3])
def test_joint_response_matches_kron_walk(n, anc_dim):
    for seed in range(4):
        c = random_circuit(400 + 10 * n + seed, n=n)
        rng = np.random.default_rng(seed)
        sites = [int(s) + 1 for s in np.flatnonzero(rng.random(n) < 0.7)] or [1]
        couplings = {s: (random_projector(rng, c.dim, rank=int(rng.integers(1, c.dim))),
                         random_hermitian(rng, anc_dim)) for s in sites}
        obs = random_hermitian(rng, anc_dim)
        state = random_state(rng, anc_dim)
        for g in (1e-3, 0.3):
            resp = joint_response(c, couplings, obs, state, g)
            assert abs(resp - kron_joint_response(c, couplings, obs, state, g)) <= 1e-12
        assert joint_response(c, couplings, obs, state, 0.0) == 0.0


@pytest.mark.parametrize("g, h, error", [
    (float("nan"), np.eye(2), InvalidInput),
    (float("inf"), np.eye(2), InvalidInput),
    (-0.1, np.eye(2), InvalidInput),
    (0.1, np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]]), NotHermitian),
], ids=["nan", "inf", "negative", "non-hermitian"])
def test_joint_response_rejects_bad_input(g, h, error):
    c = builtin_double_interferometer()
    state = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(error):
        joint_response(c, {1: (P_B, h)}, np.diag([1.0, -1.0]), state, g)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("restriction, h, obs, state, error, match", [
    (P_B, SIGMA_X, [[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0], NotHermitian,
     r"ancilla observable: max deviation 1\.000e\+00"),
    (P_B, SIGMA_X, [[1.0, 1e-8], [0.0, -1.0]], [1.0, 0.0], NotHermitian,
     r"ancilla observable: max deviation 1\.000e-08"),
    (P_B, SIGMA_X, np.eye(3), [1.0, 0.0], DimMismatch, "ancilla observable is 3x3"),
    (P_B, SIGMA_X, np.eye(2), [1.0, 0.0, 0.0], DimMismatch, "ancilla observable is 2x2"),
    (P_B, np.eye(3), np.eye(2), [1.0, 0.0], DimMismatch, "site 1 ancilla Hamiltonian is 3x3"),
    (np.diag([1.0, 0.0, 0.0]), SIGMA_X, np.eye(2), [1.0, 0.0], DimMismatch,
     "site 1 on-projector is 3x3"),
], ids=["non-hermitian-obs", "obs-past-tolerance", "obs-size", "state-size",
        "hamiltonian-size", "restriction-size"])
@pytest.mark.parametrize("call", ["joint", "single-site"])
def test_ancilla_input_is_checked(call, restriction, h, obs, state, error, match):
    c = builtin_double_interferometer()
    with pytest.raises(error, match=match):
        if call == "joint":
            joint_response(c, {1: (restriction, h)}, obs, state, 0.1)
        else:
            weak_interaction_response(c, 1, restriction, h, obs, state, 0.1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_kicks_match_expm(dim):
    rng = np.random.default_rng(dim)
    hams = [random_hermitian(rng, dim) for _ in range(3)]
    hams += [random_projector(rng, dim, rank=max(1, dim // 2)), np.zeros((dim, dim))]
    for g in (1e-8, 0.05, 3.0):
        kicks = _kicks(hams, g, dim)
        for kick, h in zip(kicks, hams):
            assert np.max(np.abs(kick - expm(-1j * g * h))) <= 1e-13
    assert np.array_equal(_kicks(hams, 0.0, dim), np.broadcast_to(np.eye(dim), (5, dim, dim)))
    assert _kicks([], 0.3, dim).shape == (0, dim, dim)


# --- differential tests: site-by-site propagation vs the branch-pair sum

PROFILES = {
    "gaussian": PointerProfile.gaussian(1.0),
    "gaussian-offsets": PointerProfile.gaussian(0.8, q_offset=0.3, p_offset=-0.4),
    "tabulated": TABULATED,
}


def pair_sum_moment(c, spec, g, prof):
    """The branch-pair sum sum_{b,a} conj(c_b) c_a prod_i K_i[b_i, a_i]
    over every pair of `loop_branches` branches, with the kernel weights
    gathered per site into one (branches x branches) matrix."""
    spectra, amps = loop_branches(c)
    choices = np.array(list(itertools.product(*map(range, amps.shape))))
    amps = amps.reshape(-1)
    kinds = dict(spec.factors)
    den_w = np.ones((len(amps), len(amps)), dtype=complex)
    num_w = den_w.copy()
    for i, eigs in enumerate(spectra):
        kern = one_site_kernels(eigs, g, prof)
        pairs = np.ix_(choices[:, i], choices[:, i])
        den_w *= kern[0][pairs]
        num_w *= picked(kern, kinds.get(i + 1))[pairs]
    den = np.conj(amps) @ den_w @ amps
    num = np.conj(amps) @ num_w @ amps
    return (num / den).real, den.real / np.vdot(c.psi_f, c.psi_f).real


def moment_specs(n):
    specs = ["*".join(f"q{i}" for i in range(1, n + 1)),
             "*".join(f"p{i}" for i in range(1, n + 1, 2))]
    if n > 1:
        specs.append("*".join(f"{'qp'[i % 2]}{i + 1}" for i in range(n)))
    return specs


def assert_matches_pair_sum(c, g):
    for prof in PROFILES.values():
        for text in moment_specs(c.n):
            spec = MomentSpec.parse(text)
            val, prob = exact_moment(c, spec, g, prof)
            ref_val, ref_prob = pair_sum_moment(c, spec, g, prof)
            assert val == pytest.approx(ref_val, rel=1e-10), (text, prof.kind)
            assert prob == pytest.approx(ref_prob, rel=1e-10), (text, prof.kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_moment_matches_pair_sum(n, d):
    assert_matches_pair_sum(random_circuit(100 * n + d, dim=d, n=n), 0.4)


@pytest.mark.parametrize("n", [3, 6])
def test_exact_moment_matches_pair_sum_degenerate_sites(n):
    # rank-1 projectors in d = 3: two eigenvalues per site, one merged
    assert_matches_pair_sum(random_circuit(n, dim=3, n=n, projectors=True), 0.4)


def test_exact_moment_eight_sites():
    c = random_circuit(8, dim=2, n=8)
    assert_matches_pair_sum(c, 0.4)
    prof = PointerProfile.gaussian(1.0, q_offset=0.4)
    val, prob = exact_moment(c, MomentSpec.parse("q3"), 0.0, prof)
    assert val == pytest.approx(0.4, abs=1e-12)
    assert prob == pytest.approx(abs(transition_amplitude(c)) ** 2, rel=1e-12)


def test_exact_moment_forty_sites():
    c = random_circuit(40, dim=4, n=40)
    prof = PointerProfile.gaussian(1.0, q_offset=0.4)
    val, prob = exact_moment(c, MomentSpec.parse("q40"), 0.0, prof)
    assert val == pytest.approx(0.4, abs=1e-12)
    assert prob == pytest.approx(abs(transition_amplitude(c)) ** 2, rel=1e-12)
    # weakly coupled: the leading-order single-site formula, O(n g^2) off
    g = 1e-4
    spec = MomentSpec.parse("q17")
    val, _ = exact_moment(c, spec, g, PointerProfile.gaussian(1.0))
    pred = predict_moment(c, spec, g, PointerProfile.gaussian(1.0))
    assert val == pytest.approx(pred, abs=1e-3 * g)


# --- the eigenbasis walk against the projector walk

def mixed_circuit(seed, n, d, deterministic):
    """A seeded circuit whose sites mix general, rank-1 projector,
    twofold-degenerate and identity observables.  If ``deterministic``,
    each observable holds the evolving state as an eigenvector, so that the
    strong record is forced."""
    rng = np.random.default_rng((2200, seed))
    for _ in range(100):
        v = psi_i = random_state(rng, d)
        stages = []
        for _ in range(n):
            u = random_unitary(rng, d)
            v = u @ v
            basis = random_unitary(rng, d)
            if deterministic:
                basis = np.linalg.qr(np.column_stack([v, basis[:, 1:]]))[0]
            kind = int(rng.integers(4))
            spectrum = rng.uniform(-1.5, 1.5, d)
            if kind == 1:
                spectrum = (np.arange(d) == rng.integers(d)).astype(float)
            elif kind == 2 and d > 1:
                spectrum[1] = spectrum[0]
            elif kind == 3:
                spectrum[:] = spectrum[0]
            stages.append((u, (basis * spectrum) @ basis.conj().T))
        c = Circuit(psi_i=psi_i, stages=tuple(stages), u_final=random_unitary(rng, d),
                    psi_f=random_state(rng, d))
        if abs(transition_amplitude(c)) > 0.1:
            return c
    raise RuntimeError("no well-conditioned circuit")


def expanded(sites, kernels, m):
    """(n, m, d, d) kernels over the eigenvector columns from per-site
    (m, k, k) stacks."""
    d = sites.merged.shape[1]
    return np.array([kern[:, lab[:, None], lab] for kern, lab in zip(kernels, sites.labels)],
                    dtype=complex).reshape(len(kernels), m, d, d)


def projector_strong_agreement(c):
    """`check_strong_agreement` on the projector walk: the class
    probabilities <w_a|E_k|w_a> of w_a = P_a U_k v, one state per class."""
    sites = projector_instruments(c)
    effs = projector_effects(c, sites, [np.eye(len(eigs))[None] for _, eigs in sites])
    total = float(np.vdot(c.psi_i, effs[0][0] @ c.psi_i).real)
    cut = max(STRONG_REL_TOL * total, BRANCH_TOL**2)
    if total <= cut:
        return None
    v, product = c.psi_i, 1.0
    for (pu, eigs), e in zip(sites, effs[1:]):
        w = pu @ v
        occurs = np.flatnonzero(((w.conj() @ e[0]) * w).sum(axis=1).real > cut)
        if len(occurs) != 1:
            return None
        v = w[occurs[0]]
        product *= eigs[occurs[0]]
    return abs(weak_value(c, tuple(range(1, c.n + 1))) - product)


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("deterministic", [False, True])
def test_eigenbasis_walk_matches_projector_walk(n, d, deterministic, monkeypatch):
    # E_0, both moments of `exact_moment`, the sampler's F_i and the strong
    # agreement check, from the eigenbasis form, against the walk through
    # the stacked P_a U, at 1e-13 of scale
    c = mixed_circuit(100 * n + 10 * d + deterministic, n, d, deterministic)
    sites, projected = circuitmodel.eigenbases(c), projector_instruments(c)
    assert [tuple(eigs.tolist()) for eigs in sites.eigenvalues] == [
        eigs for _, eigs in projected]
    got, want = check_strong_agreement(c), projector_strong_agreement(c)
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - want) <= 1e-13
    assert want is not None or not deterministic
    if not n:
        # no sites: E_0 is U_f^dag |psi_f><psi_f| U_f, and V_0 = 1
        ends, walk = circuitmodel.effects(sites, np.zeros((0, 1, d, d)))
        e0 = projector_effects(c, [], [])[0][0]
        assert walk == [] and np.array_equal(np.outer(sites.bra, sites.bra.conj()), e0)
        assert abs(ends[0] - (e0 @ c.psi_i) @ c.psi_i.conj()) <= 1e-13 * np.abs(e0).max()
        return
    g, kinds = 0.4, [("q", "p", None)[i % 3] for i in range(n)]
    spec = MomentSpec(tuple((i, kind) for i, kind in enumerate(kinds, start=1) if kind))
    w = sites.vectors[0].conj().T @ c.stages[0][0]  # V_1^dag U_1
    for prof in (PROFILES["gaussian-offsets"], TABULATED):
        per_site = [formula_kernels(eigs, g, prof) for eigs in sites.eigenvalues]
        kernels = [np.stack([k[0], picked(k, kind)]) for k, kind in zip(per_site, kinds)]
        # a Gaussian's kernels from one call over every column are bitwise
        # the per-site kernels expanded by labels
        column_kernels = site_kernels(sites, g, prof, kinds)
        assert np.array_equal(column_kernels, expanded(sites, kernels, 2))
        ends, walk = circuitmodel.effects(sites, column_kernels)
        ref = projector_effects(c, projected, kernels)
        scale = np.abs(ref[0]).max()
        e0 = w.conj().T @ (column_kernels[0] * walk[0]) @ w
        assert np.abs(e0 - ref[0]).max() <= 1e-13 * scale
        den, num = (ref[0] @ c.psi_i) @ c.psi_i.conj()
        assert np.abs(ends - [den, num]).max() <= 1e-13 * scale
        for f, v, e in zip(walk, sites.vectors, ref[1:]):
            assert np.abs(f - v.conj().T @ e @ v).max() <= 1e-13 * scale
        val, prob = exact_moment(c, spec, g, prof)
        ref_val = (num / den).real
        assert abs(val - ref_val) <= 1e-13 * scale * (1 + abs(ref_val)) / abs(den)
        assert abs(prob - den.real / np.vdot(c.psi_f, c.psi_f).real) <= 1e-13 * scale
        # the sampler's F_i from its own kernels: the grid's overlaps and
        # the exact S kernel, each expanded by labels
        seen = []

        def recorded(*args):
            seen.append((args[1], *circuitmodel.effects(*args)))
            return seen[-1][1:]

        monkeypatch.setattr(montecarlo, "effects", recorded)
        sample_runs(c, g, prof, 20, seed=n)
        (sampler_kernels, sampler_ends, sampler_walk), = seen
        firsts = [np.searchsorted(lab, np.arange(len(eigs)))
                  for eigs, lab in zip(sites.eigenvalues, sites.labels)]
        small = [kern[:, i[:, None], i] for kern, i in zip(sampler_kernels, firsts)]
        assert np.array_equal(expanded(sites, small, 2), sampler_kernels)
        ref = projector_effects(c, projected, small)
        scale = np.abs(ref[0]).max()
        assert np.abs(sampler_ends - (ref[0] @ c.psi_i) @ c.psi_i.conj()).max() <= 1e-13 * scale
        for f, v, e in zip(sampler_walk, sites.vectors, ref[1:]):
            assert np.abs(f - v.conj().T @ e @ v).max() <= 1e-13 * scale
