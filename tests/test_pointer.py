import itertools

import numpy as np
import pytest
from scipy.special import ndtri

from seqweak.circuitio import builtin_document_path, parse, serialize
from seqweak.circuitmodel import builtin_double_interferometer
from seqweak.errors import AssumptionAViolated, GridTooCoarse
from seqweak.pointer import (QUANTILES, MomentSpec, PointerProfile, moments,
                             ordered_index_partitions, predict_moment)
from seqweak.weakvalue import weak_value

from conftest import count_calls_of, random_circuit
from test_acceptance import converges


def sampled_gaussian(sigma=1.0, q_offset=0.0, beta=0.0, npts=2048, span=12.0):
    """Tabulated profile phi ~ exp(-(q-q0)^2/(4 sigma^2)) e^{i beta q^2}."""
    q = np.linspace(q_offset - span * sigma, q_offset + span * sigma, npts)
    phi = np.exp(-((q - q_offset) ** 2) / (4 * sigma**2)) * np.exp(1j * beta * q**2)
    return PointerProfile.tabulated(q[0], q[1] - q[0], phi)


def test_gaussian_moments():
    m = moments(PointerProfile.gaussian(0.5, q_offset=0.3, p_offset=-0.2))
    assert m.mu == pytest.approx(0.3)
    assert m.nu == pytest.approx(-0.2)
    assert m.v == pytest.approx(1.0)   # 1/(4 sigma^2)
    assert m.y == pytest.approx(0.0)


def test_tabulated_moments_match_gaussian():
    m = moments(sampled_gaussian(sigma=0.7, q_offset=0.4))
    assert m.mu == pytest.approx(0.4, abs=1e-8)
    assert m.nu == pytest.approx(0.0, abs=1e-8)
    assert m.v == pytest.approx(1.0 / (4 * 0.7**2), rel=1e-7)
    assert m.y == pytest.approx(0.0, abs=1e-7)


def test_chirped_profile_position_momentum_correlation():
    # a quadratic phase e^{i beta q^2} gives y = 4 beta sigma_q^2-free slope
    beta = 0.15
    prof = sampled_gaussian(sigma=0.5, beta=beta)
    m = moments(prof)
    var_q = 0.5**2
    assert m.y == pytest.approx(4 * beta * var_q, rel=1e-6)
    assert not prof.is_assumption_a


def test_assumption_a_detection():
    assert PointerProfile.gaussian(1.0).is_assumption_a
    assert not PointerProfile.gaussian(1.0, q_offset=0.1).is_assumption_a
    assert not PointerProfile.gaussian(1.0, p_offset=0.1).is_assumption_a
    assert sampled_gaussian().is_assumption_a
    assert not sampled_gaussian(q_offset=0.3).is_assumption_a


def test_assumption_a_verdicts_from_the_cached_table():
    def from_values(prof):  # the verdict rebuilt from the tuple of samples
        vals = np.asarray(prof.values)
        if np.max(np.abs(vals.imag)) > 1e-9 * np.max(np.abs(vals)):
            return False
        return abs(prof.grid_step * float(np.sum(prof.grid * np.abs(vals) ** 2))) <= 1e-9

    assert PointerProfile.gaussian(0.7).is_assumption_a
    assert not PointerProfile.gaussian(0.7, q_offset=0.2, p_offset=-0.1).is_assumption_a
    for prof, verdict in [(sampled_gaussian(), True), (sampled_gaussian(beta=0.2), False),
                          (sampled_gaussian(q_offset=0.3), False)]:
        assert prof.is_assumption_a is verdict is from_values(prof)
        assert prof.is_assumption_a is verdict  # judged once, then cached


def test_tabulated_profile_validation():
    with pytest.raises(ValueError, match="256"):
        PointerProfile.tabulated(0.0, 0.1, np.ones(100))
    with pytest.raises(ValueError, match="decay"):
        PointerProfile.tabulated(0.0, 0.1, np.ones(512))
    with pytest.raises(ValueError):
        PointerProfile.gaussian(-1.0)
    nan, inf = float("nan"), float("inf")
    for args in ((nan,), (inf,), (1.0, nan), (1.0, 0.0, nan), (1.0, -inf)):
        with pytest.raises(ValueError, match="finite"):
            PointerProfile.gaussian(*args)
    q = np.linspace(-12, 12, 512)
    phi = np.exp(-q**2 / 4).astype(complex)
    phi[100] = complex(0.5, nan)
    for grid_min, step, vals in ((q[0], q[1] - q[0], phi), (nan, 0.05, phi.real),
                                 (q[0], inf, np.exp(-q**2 / 4))):
        with pytest.raises(ValueError, match="finite"):
            PointerProfile.tabulated(grid_min, step, vals)


@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150, 1e170, 1e300])
def test_table_far_from_unit_size_is_normalized(scale):
    # a table whose squares underflow or overflow is scaled by its largest
    # part first, so it keeps the unit profile of the same shape to rounding
    q = np.linspace(-12, 12, 512)
    phi = np.exp(-q**2 / 4) * np.exp(0.3j * q)
    unit = PointerProfile.tabulated(q[0], q[1] - q[0], phi)
    prof = PointerProfile.tabulated(q[0], q[1] - q[0], scale * phi)
    assert np.allclose(prof.values, unit.values, rtol=1e-14, atol=1e-300)


def test_profile_normalization_and_eval():
    prof = sampled_gaussian(sigma=1.3)
    q = prof.grid
    norm = prof.grid_step * np.sum(np.abs(np.asarray(prof.values)) ** 2)
    assert norm == pytest.approx(1.0, rel=1e-12)
    # eval interpolates on-grid exactly and vanishes outside
    assert prof.eval(q[7]) == pytest.approx(prof.values[7])
    assert prof.eval(q[0] - 1.0) == 0.0


def test_gaussian_eval_with_and_without_momentum_offset():
    q = np.linspace(-6.0, 6.0, 241)
    s2 = 0.7 ** 2
    env = (2 * np.pi * s2) ** -0.25 * np.exp(-((q - 0.3) ** 2) / (4 * s2))
    # without an offset the phase is skipped, and the values are the same
    # complex numbers as the envelope times exp(0j)
    phi = PointerProfile.gaussian(0.7, q_offset=0.3).eval(q)
    assert phi.dtype == complex
    assert np.array_equal(phi, env * np.exp(1j * 0.0 * q))
    boosted = PointerProfile.gaussian(0.7, q_offset=0.3, p_offset=1.5).eval(q)
    assert np.allclose(boosted, env * np.exp(1.5j * q), rtol=0, atol=1e-15)


def grid_moments(q, step, vals):
    """mu, nu, v and y of a table by grid sums, its derivative from an
    inverse FFT: the reference for `moments`' Parseval sums."""
    norm = step * np.sum(np.abs(vals) ** 2)
    dens = np.abs(vals) ** 2 / np.sum(np.abs(vals) ** 2)
    mu = float(np.sum(q * dens))
    ft = np.fft.fft(vals)
    p = 2 * np.pi * np.fft.fftfreq(len(vals), d=step)
    pw = np.abs(ft) ** 2
    pw = pw / np.sum(pw)
    nu = float(np.sum(p * pw))
    v = float(np.sum((p - nu) ** 2 * pw))
    dphi = np.fft.ifft(1j * p * ft)
    qp = step * np.sum(np.conj(vals) * q * (-1j) * dphi) / norm
    return mu, nu, v, float(2 * qp.real - 2 * mu * nu)


@pytest.mark.parametrize("prof", [
    sampled_gaussian(), sampled_gaussian(sigma=0.7, q_offset=0.4),
    sampled_gaussian(sigma=0.5, beta=0.15), sampled_gaussian(sigma=1.3, beta=-0.4, npts=1025),
    sampled_gaussian(sigma=0.6, q_offset=-0.2, beta=0.3, npts=257),
])
def test_moments_match_grid_sums(prof):
    m = moments(prof)
    ref = grid_moments(prof.grid, prof.grid_step, np.asarray(prof.values))
    assert np.max(np.abs(np.array([m.mu, m.nu, m.v, m.y]) - ref)) <= 1e-14


def coarse_profile():
    # a modulation near the decimated grid's aliasing limit makes the
    # half-resolution self-estimate disagree with the full one
    q = np.linspace(-12, 12, 256)
    phi = np.exp(-q**2 / 4) * (1 + 0.5 * np.cos(25 * q)) + 1e-12
    return PointerProfile.tabulated(q[0], q[1] - q[0], phi)


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        moments(coarse_profile())


def test_table_moments_are_computed_once_per_profile(monkeypatch):
    # the Parseval sums and the decimated self-estimate run on the first
    # call only; a later call returns the same moments without an FFT
    prof = sampled_gaussian(sigma=0.6, q_offset=-0.2, beta=0.3)
    ffts = count_calls_of(monkeypatch, np.fft, "fft")
    first = moments(prof)
    assert len(ffts) == 3  # Phi and Psi of the spectrum, the decimated pair
    assert moments(prof) is first
    assert len(ffts) == 3
    # a failed self-estimate is not kept: every call raises it again
    coarse = coarse_profile()
    for _ in range(2):
        with pytest.raises(GridTooCoarse):
            moments(coarse)


def test_shared_table_arrays_are_read_only():
    # one profile serves every document that names its table text, so no
    # array it caches may be written in place
    prof = sampled_gaussian(beta=0.2)
    arrays = [prof.values, prof._quantiles, *prof._spectrum[:3], *prof._table]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2
    spectrum, q_spectrum, freq, _, _ = prof._spectrum
    assert np.array_equal(spectrum, np.fft.fft(prof.values))
    assert np.array_equal(q_spectrum, np.fft.fft(prof.grid * prof.values))
    assert np.array_equal(prof._table[1] + 1j * prof._table[2], prof.values)


def test_position_products_do_not_need_profile_moments():
    # only a single position readout (mu, y) or a p factor (v) needs the
    # profile's moments, so a q-only product works on a grid too coarse
    # for them
    c = random_circuit(41, n=2)
    prof = coarse_profile()
    assert prof.is_assumption_a
    val = predict_moment(c, MomentSpec.parse("q1*q2"), 1e-3, prof)
    assert np.isfinite(val) and val != 0.0
    for spec in ("q1", "p1", "q1*p2"):
        with pytest.raises(GridTooCoarse):
            predict_moment(c, MomentSpec.parse(spec), 1e-3, prof)


def test_moment_spec_parse_and_str():
    spec = MomentSpec.parse("q1*p3")
    assert spec.factors == ((1, "q"), (3, "p"))
    assert str(spec) == "q1*p3"
    for bad in ("", "x1", "q1*q1", "q2*q1", "q"):
        with pytest.raises(ValueError):
            MomentSpec.parse(bad)


def test_ordered_index_partitions_two_and_three():
    assert ordered_index_partitions(2) == [((1, 2), ()), ((1,), (2,))]
    assert ordered_index_partitions(3) == [
        ((1, 2, 3), ()), ((1, 2), (3,)), ((1, 3), (2,)), ((2, 3), (1,))]


def test_ordered_index_partitions_cover_all_pairings():
    # every unordered complementary split appears exactly once
    for m in (2, 3, 4):
        parts = ordered_index_partitions(m)
        splits = {frozenset((i, j)) for i, j in parts}
        assert len(splits) == len(parts) == 2 ** (m - 1)
        for i, j in parts:
            assert tuple(sorted(i + j)) == tuple(range(1, m + 1))
            assert len(i) >= len(j)


def test_single_position_mean_matches_weak_value(rng):
    c = builtin_double_interferometer()
    g = 1e-3
    w = weak_value(c, (1,))
    val = predict_moment(c, MomentSpec.parse("q1"), g, PointerProfile.gaussian(1.0))
    assert val == pytest.approx(g * w.real, abs=1e-15)


def test_offset_profile_shifts_single_position_mean():
    c = builtin_double_interferometer()
    g = 1e-3
    prof = PointerProfile.gaussian(1.0, q_offset=0.3)
    val = predict_moment(c, MomentSpec.parse("q1"), g, prof)
    w = weak_value(c, (1,))
    assert val == pytest.approx(0.3 + g * w.real, abs=1e-15)


def test_golden_position_correlation():
    # pointer product mean for the B,F pair: (g^2/2) Re[(F,B)_w + B_w conj(F_w)]
    c = builtin_double_interferometer()
    g = 1e-3
    val = predict_moment(c, MomentSpec.parse("q1*q2"), g,
                         PointerProfile.gaussian(1.0))
    assert val == pytest.approx(g**2 / 2 * -0.5, rel=1e-12)


def test_multi_position_needs_centered_real_profile():
    c = builtin_double_interferometer()
    prof = PointerProfile.gaussian(1.0, q_offset=0.3)
    with pytest.raises(AssumptionAViolated):
        predict_moment(c, MomentSpec.parse("q1*q2"), 1e-3, prof)
    with pytest.raises(AssumptionAViolated):
        predict_moment(c, MomentSpec.parse("p1"), 1e-3, prof)


def test_momentum_pair_sign(rng):
    # <p1 p2> = 2 (g v)^2 Re[-(A2,A1)_w + (A1)_w conj((A2)_w)]
    c = random_circuit(17, n=2)
    g, sigma = 1e-3, 0.8
    v = 1 / (4 * sigma**2)
    w1, w2 = weak_value(c, (1,)), weak_value(c, (2,))
    w12 = weak_value(c, (1, 2))
    expected = 2 * (g * v) ** 2 * (-w12 + w1 * np.conj(w2)).real
    val = predict_moment(c, MomentSpec.parse("p1*p2"), g,
                         PointerProfile.gaussian(sigma))
    assert val == pytest.approx(expected, rel=1e-12)


def test_single_momentum_mean(rng):
    # <p1> = 2 g v Im (A1)_w
    c = random_circuit(19, n=1)
    g, sigma = 1e-3, 1.0
    val = predict_moment(c, MomentSpec.parse("p1"), g, PointerProfile.gaussian(sigma))
    assert val == pytest.approx(2 * g * 0.25 * weak_value(c, (1,)).imag, rel=1e-12)


def test_mixed_position_momentum(rng):
    # <q1 p2> = g^2 v Im[(A2,A1)_w + conj((A1)_w) (A2)_w]
    c = random_circuit(23, n=2)
    g, sigma = 1e-3, 1.0
    v = 0.25
    w1, w2 = weak_value(c, (1,)), weak_value(c, (2,))
    w12 = weak_value(c, (1, 2))
    expected = g**2 * v * (w12 + np.conj(w1) * w2).imag
    val = predict_moment(c, MomentSpec.parse("q1*p2"), g,
                         PointerProfile.gaussian(sigma))
    assert val == pytest.approx(expected, rel=1e-12)


def test_momentum_then_position():
    # <p1 q2> = g^2 v Im[(A2,A1)_w + (A1)_w conj((A2)_w)]
    c = random_circuit(29, n=2)
    g, sigma = 1e-3, 0.8
    v = 1 / (4 * sigma**2)
    w1, w2 = weak_value(c, (1,)), weak_value(c, (2,))
    w12 = weak_value(c, (1, 2))
    expected = g**2 * v * (w12 + w1 * np.conj(w2)).imag
    val = predict_moment(c, MomentSpec.parse("p1*q2"), g,
                         PointerProfile.gaussian(sigma))
    assert val == pytest.approx(expected, rel=1e-12)


def three_family_prediction(c, spec, g, prof):
    """The earlier `predict_moment` for m >= 2 or a p factor, kept as a
    reference: separate closed forms for all-q, all-p and a single q.p pair,
    nothing else."""
    sites = [s for s, _ in spec.factors]
    kinds = [k for _, k in spec.factors]
    m = len(spec.factors)

    def weak_value_map():
        # keyed by positions into spec.factors (1-based); empty tuple -> 1
        keys = [p for r in range(1, m + 1)
                for p in itertools.combinations(range(1, m + 1), r)]
        wv = {p: weak_value(c, tuple(sites[i - 1] for i in p)) for p in keys}
        return {(): 1.0 + 0.0j, **wv}

    if all(k == "q" for k in kinds):
        wv = weak_value_map()
        total = sum(wv[i] * np.conj(wv[j]) for i, j in ordered_index_partitions(m))
        return g**m / 2 ** (m - 1) * float(np.real(total))
    if all(k == "p" for k in kinds):
        v = moments(prof).v
        wv = weak_value_map()
        total = sum((-1) ** len(i) * wv[i] * np.conj(wv[j])
                    for i, j in ordered_index_partitions(m))
        half = m // 2
        if m % 2 == 0:
            return 2 * (-1) ** half * (g * v) ** m * float(np.real(total))
        return 2 * (-1) ** (half + 1) * (g * v) ** m * float(np.imag(total))
    assert kinds == ["q", "p"]
    v = moments(prof).v
    wv = weak_value_map()
    val = wv[(1, 2)] + np.conj(wv[(1,)]) * wv[(2,)]
    return g**2 * v * float(np.imag(val))


def real_centred_table():
    """A real, even, non-Gaussian tabulated profile (Assumption A holds)."""
    q = np.linspace(-12, 12, 2048)
    return PointerProfile.tabulated(q[0], q[1] - q[0], (1 + q**2) * np.exp(-q**2 / 2))


def three_family_specs(n, rng):
    """Every kind of spec the three closed forms cover on n sites: all-q of
    2..n sites and all-p of 1..n sites (first sites and a random subset),
    and q.p on adjacent and, for n >= 3, non-adjacent sites."""
    specs = []
    for m in range(1, n + 1):
        for sites in (range(1, m + 1), sorted(rng.choice(n, m, replace=False) + 1)):
            for kind in ("q", "p") if m > 1 else ("p",):
                specs.append("*".join(f"{kind}{s}" for s in sites))
    if n >= 2:
        specs.append("q1*p2")
    if n >= 3:
        specs += [f"q1*p{n}", f"q2*p{n}"]
    return specs


@pytest.mark.parametrize("profile", ["gaussian", "table"])
def test_subset_sum_matches_three_closed_forms(profile):
    prof = PointerProfile.gaussian(0.7) if profile == "gaussian" else real_centred_table()
    assert prof.is_assumption_a
    rng = np.random.default_rng(7)
    checked = set()
    for seed in range(12):
        for n in range(1, 6):
            c = random_circuit(seed + 100 * n, n=n)
            for text in three_family_specs(n, rng):
                spec = MomentSpec.parse(text)
                ref = three_family_prediction(c, spec, 1e-2, prof)
                assert predict_moment(c, spec, 1e-2, prof) == pytest.approx(
                    ref, rel=1e-12), (seed, n, text)
                checked.add(text)
    assert {"q1*q2*q3*q4*q5", "p1*p2*p3*p4*p5", "p1", "q1*p2", "q1*p5"} <= checked


@pytest.mark.parametrize("profile", ["gaussian", "table"])
@pytest.mark.parametrize("text", ["p1*q2", "q2*p4", "q1*p2*q3", "p1*q2*p3",
                                  "q1*p2*q3*p4", "p1*p2*q3*q4"])
def test_mixed_products_converge_to_oracle(text, profile):
    prof = PointerProfile.gaussian(0.8) if profile == "gaussian" else real_centred_table()
    for seed in range(3):
        c = random_circuit(seed + 700, n=4)
        assert converges(c, text, 1e-2, prof), (seed, text)


def test_quantile_table_once_per_profile():
    # a Gaussian's standardized table depends on none of its parameters, so
    # every Gaussian shares one; a table's is built once per profile.  Both
    # follow the standard normal quantiles to the accuracy of their grids.
    gauss = PointerProfile.gaussian(0.5)
    assert gauss._quantiles is PointerProfile.gaussian(3.0, q_offset=1.0, p_offset=2.0)._quantiles
    q = np.linspace(-14, 14, 16384)
    table = PointerProfile.tabulated(q[0], q[1] - q[0], np.exp(-(q - 1.0) ** 2 / 2))
    assert table._quantiles is table._quantiles
    normal = ndtri((np.arange(QUANTILES) + 0.5) / QUANTILES)
    assert np.max(np.abs(gauss._quantiles - normal)) < 1e-4
    assert np.max(np.abs(table._quantiles - normal)) < 1e-4


def test_tabulated_samples_are_one_read_only_array(tmp_path):
    q = np.linspace(-12, 12, 512)
    phi = np.exp(-q**2 / 4) * (1 + 0.25j * q)
    a = PointerProfile.tabulated(q[0], q[1] - q[0], phi)
    b = PointerProfile.tabulated(q[0], q[1] - q[0], phi.tolist())
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.values.dtype == complex and a.values.shape == (512,)
    with pytest.raises(ValueError):
        a.values[0] = 1.0
    assert a != PointerProfile.tabulated(q[0], q[1] - q[0], phi.conj())
    assert a != PointerProfile.tabulated(q[0] + 1e-9, q[1] - q[0], phi)
    assert PointerProfile.gaussian(0.5) == PointerProfile.gaussian(0.5) != a
    assert hash(PointerProfile.gaussian(0.5)) == hash(PointerProfile.gaussian(0.5))
    # equal samples hash equal, signed zeros included; the caller's array
    # stays the caller's
    samples = np.array([1.0, -0.0, complex(0.0, -0.0)])
    c = PointerProfile(kind="tabulated", grid_step=1.0, values=samples)
    samples[0] = 5.0
    d = PointerProfile(kind="tabulated", grid_step=1.0, values=[1.0, 0.0, 0.0])
    assert c == d and hash(c) == hash(d)
    # a document with a table still reads back to its own text
    (tmp_path / "phi.dat").write_text("".join(f"{x:.17g} {z.real:.17g} {z.imag:.17g}\n"
                                              for x, z in zip(q, phi)))
    text = (builtin_document_path().read_text()
            .replace("pointer gaussian sigma=1", "pointer tabulated phi.dat"))
    doc = parse(text, base_dir=tmp_path)
    assert serialize(parse(serialize(doc), base_dir=tmp_path)) == serialize(doc) == text
    assert doc.pointer == a and hash(doc.pointer) == hash(a)
