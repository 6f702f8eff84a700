import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from seqweak.algebra import eig_hermitian
from seqweak.circuitmodel import (P_B, P_F, Circuit,
                                  builtin_double_interferometer,
                                  transition_amplitude)
from seqweak.errors import AssumptionAViolated, DegeneratePostSelection, GridResolutionError
from seqweak import montecarlo
from seqweak.montecarlo import sample_runs
from seqweak.oracle import (_shifted_table, branch_decompose, exact_moment,
                            gaussian_kernels, joint_response, same_pointer_twice,
                            site_kernels, tabulated_kernels,
                            weak_interaction_response)
from seqweak.pointer import MomentSpec, PointerProfile, predict_moment
from seqweak.weakvalue import weak_value

from conftest import (random_circuit, random_hermitian, random_projector,
                      random_state, random_unitary)


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
    assert np.max(np.abs(kern.s - s)) < 1e-7
    assert np.max(np.abs(kern.q - qm)) < 1e-7
    assert np.max(np.abs(kern.p - pm)) < 1e-6


def test_gaussian_kernel_structure():
    eigs = np.array([0.0, 1.0])
    kern = gaussian_kernels(eigs, 0.1, 1.0)
    # diagonal: unit overlap, position mean g*a, zero momentum
    assert kern.s[1, 1] == pytest.approx(1.0)
    assert kern.q[1, 1] == pytest.approx(0.1)
    assert kern.p[0, 0] == pytest.approx(0.0)
    # Hermitian as kernels: K(b,a) = conj(K(a,b))
    for m in (kern.s, kern.q, kern.p):
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
    kern = tabulated_kernels(eigs, g, prof)
    ref = gaussian_kernels(eigs, g, sigma)
    assert np.max(np.abs(kern.s - ref.s)) < 1e-8
    assert np.max(np.abs(kern.q - ref.q)) < 1e-7
    assert np.max(np.abs(kern.p - ref.p)) < 1e-7


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
    kern = tabulated_kernels(eigs, 0.35, TABULATED)
    for got, ref in zip((kern.s, kern.q, kern.p),
                        loop_tabulated_kernels(eigs, 0.35, TABULATED)):
        assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("npts", [4096, 16384])
def test_shifted_table_matches_shifted_gaussian(npts):
    sigma = 0.8
    q = np.linspace(-14, 14, npts)
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-q**2 / (4 * sigma**2)))
    shifts = np.array([-2.1, -0.37, 0.0, 0.05, 1.3, 3.0])
    shifted, dshifted = _shifted_table(prof, shifts, derivative=True)
    z = q - shifts[:, None]
    phi = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-z**2 / (4 * sigma**2))
    assert np.max(np.abs(shifted - phi)) <= 1e-10
    assert np.max(np.abs(dshifted + z / (2 * sigma**2) * phi)) <= 1e-10


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


def both_rows_shifted_table(prof, shifts, derivative=False):
    """The shifted rows phi and phi' from one inverse FFT of both stacked,
    the form that always built phi'."""
    vals, q = np.asarray(prof.values), prof.grid
    live = q[np.abs(vals) > 1e-8 * np.max(np.abs(vals))]
    assert not np.any((live[0] + shifts < q[0]) | (live[-1] + shifts > q[-1]))
    freq = 2 * np.pi * np.fft.fftfreq(len(vals), d=prof.grid_step)
    shift = np.fft.fft(vals) * np.exp(-1j * np.outer(shifts, freq))
    both = np.fft.ifft(np.concatenate([shift, 1j * freq * shift]), axis=1)
    return both[:len(shifts)], both[len(shifts):]


def test_derivative_rows_only_on_request(monkeypatch):
    # phi' is inverse-transformed only for a P kernel; S, Q and P, and the
    # sampler's samples, stay bitwise those of the form that always built it
    eigs = np.array([-1.3, -0.2, 0.4, 1.1])
    ref_phi, ref_dphi = both_rows_shifted_table(TABULATED, 0.35 * eigs)
    phi, dphi = _shifted_table(TABULATED, 0.35 * eigs)
    assert dphi is None and np.array_equal(phi, ref_phi)
    left = TABULATED.grid_step * np.conj(ref_phi)
    ref = (left @ ref_phi.T, (left * TABULATED.grid) @ ref_phi.T, -1j * (left @ ref_dphi.T))
    kern = tabulated_kernels(eigs, 0.35, TABULATED)
    for got, want in zip((kern.s, kern.q, kern.p), ref):
        assert np.array_equal(got, want)
    no_p = tabulated_kernels(eigs, 0.35, TABULATED, momentum=False)
    assert no_p.p is None
    assert np.array_equal(no_p.s, ref[0]) and np.array_equal(no_p.q, ref[1])

    c, g = random_circuit(77, dim=3, n=3), 0.3
    batch = sample_runs(c, g, TABULATED, 3000, seed=5)
    monkeypatch.setattr(montecarlo, "_shifted_table", both_rows_shifted_table)
    ref_batch = sample_runs(c, g, TABULATED, 3000, seed=5)
    assert np.array_equal(batch.postselected, ref_batch.postselected)
    assert np.array_equal(batch.samples, ref_batch.samples)


def test_site_kernels_dispatch():
    eigs = [0.0, 1.0]
    g = 0.1
    gauss = site_kernels(eigs, g, PointerProfile.gaussian(1.0))
    assert np.allclose(gauss.s, gaussian_kernels(eigs, g, 1.0).s)


def test_branch_amplitudes_sum_to_transition_amplitude(rng):
    for seed in range(10):
        c = random_circuit(seed, n=2)
        bs = branch_decompose(c)
        total = sum(amp for _, amp in bs.branches)
        assert total == pytest.approx(transition_amplitude(c), abs=1e-10)


def test_branch_decompose_projector_sites():
    c = builtin_double_interferometer()
    bs = branch_decompose(c)
    assert bs.shape == (2, 2)
    amps = dict(zip([seq for seq, _ in bs.branches],
                    [amp for _, amp in bs.branches]))
    # photon through B then F has amplitude 1/(2 sqrt 2) up to sign
    assert abs(amps[(1.0, 1.0)]) == pytest.approx(1 / (2 * np.sqrt(2)))


def loop_branches(c):
    """Each eigenvalue branch walked on its own, one matvec per operator:
    the reference for `branch_decompose`."""
    spectra = [eig_hermitian(a) for _, a in c.stages]
    out = []
    for choice in itertools.product(*[range(len(es.eigenvalues)) for es in spectra]):
        v = c.psi_i
        for (u, _), es, k in zip(c.stages, spectra, choice):
            v = es.projectors[k] @ (u @ v)
        seq = tuple(es.eigenvalues[k] for es, k in zip(spectra, choice))
        out.append((seq, complex(np.vdot(c.psi_f, c.u_final @ v))))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("projectors", [False, True])
def test_branch_decompose_matches_per_branch_loop(n, d, projectors):
    c = random_circuit(300 + 10 * n + d, dim=d, n=n, projectors=projectors)
    bs = branch_decompose(c)
    ref = loop_branches(c)
    assert [seq for seq, _ in bs.branches] == [seq for seq, _ in ref]
    for (_, amp), (_, ref_amp) in zip(bs.branches, ref):
        assert abs(amp - ref_amp) <= 1e-12


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
    from seqweak.circuitmodel import P_C, P_E

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


def kron_joint_response(c, couplings, anc_obs, anc_state, g):
    """The joint system-ancilla walk with np.kron and the full
    exp(-i g N (x) h) at each coupled site: the reference for
    `joint_response`."""
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


# --- differential tests: site-by-site propagation vs the branch-pair sum

PROFILES = {
    "gaussian": PointerProfile.gaussian(1.0),
    "gaussian-offsets": PointerProfile.gaussian(0.8, q_offset=0.3, p_offset=-0.4),
    "tabulated": TABULATED,
}


def pair_sum_moment(c, spec, g, prof):
    """The branch-pair sum sum_{b,a} conj(c_b) c_a prod_i K_i[b_i, a_i]
    over every pair of branch_decompose branches, with the kernel weights
    gathered per site into one (branches x branches) matrix."""
    bs = branch_decompose(c)
    amps = np.array([amp for _, amp in bs.branches])
    choices = np.array(list(itertools.product(*[range(k) for k in bs.shape])))
    kinds = dict(spec.factors)
    den_w = np.ones((len(amps), len(amps)), dtype=complex)
    num_w = den_w.copy()
    for i, es in enumerate(bs.site_spectra):
        kern = site_kernels(es.eigenvalues, g, prof)
        pairs = np.ix_(choices[:, i], choices[:, i])
        den_w *= kern.s[pairs]
        num_w *= kern.pick(kinds.get(i + 1))[pairs]
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
