import dataclasses
from math import comb

import numpy as np
import pytest

from seqweak.circuitmodel import (P_B, P_F, Circuit,
                                  builtin_double_interferometer,
                                  transition_amplitude)
from seqweak.counterfactual import (CounterfactualReport, InsertionSet,
                                    all_histories, check_equivalence_def1_def2,
                                    determines_output, history_amplitudes,
                                    insertion_subsets,
                                    is_counterfactual_histories,
                                    is_counterfactual_weakvalues, joint_response,
                                    randomized_def3_test)
from seqweak import algebra, counterfactual
from seqweak.errors import (BothZero, DimMismatch, EquivalenceViolation, InvalidInput,
                            NotProjector, NumericallySingular)

from conftest import (kron_joint_response, projector_deviation, random_circuit,
                      random_projector, random_state, random_unitary)
from test_weakvalue import chain_numerator


def double_insertions():
    return InsertionSet(sites=(1, 2), on_projectors=(P_B, P_F))


def test_insertion_set_validation():
    with pytest.raises(NotProjector):
        InsertionSet(sites=(1,), on_projectors=(2 * P_B,))
    with pytest.raises(ValueError):
        InsertionSet(sites=(1, 2), on_projectors=(P_B,))
    assert len(double_insertions()) == 2


def test_insertion_set_judges_its_projectors_in_one_stack(monkeypatch):
    # one stacked `algebra.projector_deviations` check at 1e-10, the verdict
    # of the per-matrix reference (Hermitian and idempotent, each within the
    # tolerance) on every matrix; projectors of different sizes cannot share
    # a circuit
    rng = np.random.default_rng(8)
    for trial in range(200):
        d = int(rng.integers(1, 5))
        ps = [random_projector(rng, d, rank=int(rng.integers(1, d + 1))) for _ in range(3)]
        k = int(rng.integers(3))
        ps[k] = ps[k] + rng.choice([0, 1e-11, 1e-9]) * (rng.standard_normal((d, d))
                                                       + 1j * rng.standard_normal((d, d)))
        want = all(projector_deviation(p) <= 1e-10 for p in ps)
        try:
            InsertionSet((1, 2, 3), tuple(ps))
            got = True
        except NotProjector:
            got = False
        assert got == want, trial
    with pytest.raises(NotProjector):
        InsertionSet((1,), (np.array([[1.0, 1.0], [0.0, 0.0]]),))  # idempotent, not Hermitian
    with pytest.raises(NotProjector):
        InsertionSet((1, 2), (P_B, np.full((2, 2), np.inf)))
    with pytest.raises(DimMismatch, match=r"sizes \[2, 3\]"):
        InsertionSet((1, 2), (P_B, np.eye(3)))
    calls = []
    for name in ("hermitian_deviations", "projector_deviations"):
        inner = getattr(algebra, name)
        monkeypatch.setattr(algebra, name, lambda m, *a, inner=inner, name=name: (
            calls.append((name, np.ndim(m))), inner(m, *a))[1])
    assert len(InsertionSet((1, 2), (P_B, P_F))) == 2
    assert calls == [("projector_deviations", 3)]


def test_all_histories_order():
    assert all_histories(2) == ["FF", "FN", "NF", "NN"]


def test_insertion_subsets_order():
    assert list(insertion_subsets(double_insertions())) == [(1,), (2,), (1, 2)]


def test_history_amplitudes_double_interferometer():
    c = builtin_double_interferometer()
    ins = double_insertions()
    amp = history_amplitudes(c, ins)
    assert list(amp) == all_histories(2)
    root8 = 1 / (2 * np.sqrt(2))
    # both blocked paths interfere to the same magnitude
    assert amp["NN"] == pytest.approx(root8, abs=1e-12)
    assert amp["FN"] == pytest.approx(-root8, abs=1e-12)
    assert amp["NF"] == pytest.approx(-root8, abs=1e-12)
    assert sum(amp.values()) == pytest.approx(transition_amplitude(c), abs=1e-12)


def copied_circuit_history(c, ins, history):
    """One history's amplitude from a copy of the circuit with N or 1 - N
    as the observable at each insertion site, walked one matvec at a time:
    the reference for `history_amplitudes`."""
    obs = {site: proj if sym == "N" else np.eye(c.dim) - proj
           for site, proj, sym in zip(ins.sites, ins.on_projectors, history)}
    return chain_numerator(c.with_observables(obs), ins.sites)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_history_amplitudes_match_circuit_copies(n):
    for seed in range(5):
        c = random_circuit(200 + 10 * n + seed, n=n)
        rng = np.random.default_rng(seed)
        sites = tuple(int(s) + 1 for s in np.flatnonzero(rng.random(n) < 0.7)) or (n,)
        ins = InsertionSet(sites, tuple(random_projector(rng, c.dim, rank=int(r))
                                        for r in rng.integers(1, c.dim, len(sites))))
        amps = history_amplitudes(c, ins)
        assert list(amps) == all_histories(len(sites))
        for h, amp in amps.items():
            assert abs(amp - copied_circuit_history(c, ins, h)) <= 1e-12, h


def test_double_interferometer_is_not_counterfactual():
    c = builtin_double_interferometer()
    ins = double_insertions()
    ok1, wit1 = is_counterfactual_histories(c, ins)
    assert not ok1
    assert wit1 == "FN"
    ok2, wit2 = is_counterfactual_weakvalues(c, ins)
    assert not ok2
    subset, value = wit2
    assert subset == (1, 2)
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_single_insertion_is_counterfactual():
    c = builtin_double_interferometer()
    ins = InsertionSet(sites=(1,), on_projectors=(P_B,))
    ok1, wit1 = is_counterfactual_histories(c, ins)
    ok2, wit2 = is_counterfactual_weakvalues(c, ins)
    assert ok1 and ok2
    assert wit1 is None and wit2 is None
    assert check_equivalence_def1_def2(c, ins) is True


def counterfactual_instance(seed, dim=3, n=2):
    """Circuit plus insertions built orthogonal to the evolving state, so
    every on-history amplitude vanishes by construction."""
    rng = np.random.default_rng(seed)
    v = random_state(rng, dim)
    psi_i = v.copy()
    stages, projectors = [], []
    for _ in range(n):
        u = random_unitary(rng, dim)
        v = u @ v
        # rank-1 projector onto a direction orthogonal to the current state
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = w - np.vdot(v, w) * v
        w = w / np.linalg.norm(w)
        projectors.append(np.outer(w, w.conj()))
        stages.append((u, np.eye(dim)))
    c = Circuit(psi_i=psi_i, stages=tuple(stages),
                u_final=random_unitary(rng, dim), psi_f=random_state(rng, dim))
    return c, InsertionSet(tuple(range(1, n + 1)), tuple(projectors))


def test_constructed_counterfactual_instances():
    checked = 0
    for seed in range(30):
        c, ins = counterfactual_instance(seed)
        if abs(transition_amplitude(c)) < 0.1:
            continue
        assert check_equivalence_def1_def2(c, ins) is True
        checked += 1
    assert checked >= 15


def test_random_insertions_agree_between_definitions():
    for seed in range(30):
        c = random_circuit(seed, n=2)
        rng = np.random.default_rng(seed + 5000)
        ins = InsertionSet((1, 2), (random_projector(rng, c.dim),
                                    random_projector(rng, c.dim)))
        verdict = check_equivalence_def1_def2(c, ins)
        assert verdict in (True, False)


def test_determines_output():
    c = builtin_double_interferometer()
    # flipping the post-selection to D' makes the outcome impossible only if
    # the original amplitude was the whole story; here both are nonzero
    c_other = Circuit(psi_i=c.psi_i, stages=c.stages, u_final=c.u_final,
                      psi_f=np.array([1.0, 0.0]))
    assert not determines_output(c, c_other)
    dead = Circuit(psi_i=np.array([1.0, 0.0]),
                   stages=((np.eye(2), np.eye(2)),),
                   u_final=np.eye(2), psi_f=np.array([0.0, 1.0]))
    live = Circuit(psi_i=np.array([1.0, 0.0]),
                   stages=((np.eye(2), np.eye(2)),),
                   u_final=np.eye(2), psi_f=np.array([1.0, 0.0]))
    assert determines_output(live, dead)
    with pytest.raises(BothZero):
        determines_output(dead, dead)


def test_randomized_interaction_probe_flags_the_pair():
    c = builtin_double_interferometer()
    report = randomized_def3_test(c, double_insertions(), trials=5, g=0.01,
                                  seed=99)
    assert isinstance(report, CounterfactualReport)
    assert not report.def1_holds
    assert not report.def2_holds
    assert report.def3_null is False
    assert report.witness_history == "FN"
    assert report.witness_subset == (1, 2)
    assert report.witness_value == pytest.approx(-0.5, abs=1e-12)
    assert report.def3_responses.shape == (5, 3)  # trials x nonempty subsets


def test_randomized_interaction_probe_null_for_single_insertion():
    c = builtin_double_interferometer()
    ins = InsertionSet(sites=(1,), on_projectors=(P_B,))
    # the null holds to all orders: even g = 0.3 cannot move the ancilla
    report = randomized_def3_test(c, ins, trials=10, g=0.3, seed=7)
    assert report.def1_holds and report.def2_holds and report.def3_null
    assert report.def3_responses.max() < 1e-12
    with pytest.raises(ValueError):
        randomized_def3_test(c, ins, trials=0, g=0.1, seed=1)
    for g in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            randomized_def3_test(c, ins, trials=1, g=g, seed=1)
    # a site outside the circuit is reported with the whole insertion set
    with pytest.raises(ValueError, match=r"\(1, 5\) out of range"):
        randomized_def3_test(c, InsertionSet((1, 5), (P_B, P_F)), trials=1, g=0.1, seed=1)


@pytest.mark.parametrize("seed", [-1, -5, 2.0, None])
def test_randomized_def3_refuses_a_bad_seed(monkeypatch, seed):
    # a seed that is not an integer >= 0 is InvalidInput, before any walk
    def refuse(*args):
        raise AssertionError("walked for a bad seed")

    monkeypatch.setattr(counterfactual, "product_amplitudes", refuse)
    monkeypatch.setattr(counterfactual, "weak_values", refuse)
    with pytest.raises(InvalidInput, match="seed"):
        randomized_def3_test(builtin_double_interferometer(), double_insertions(),
                             trials=2, g=0.1, seed=seed)


def per_trial_def3_reference(c, ins, trials, g, seed, anc_dim=2):
    """Definition-3 responses, shape (trials, subsets), and null verdict as
    a per-trial loop computes them: one kron walk of the joint system and
    ancilla (`kron_joint_response`) per trial and subset, with the same
    random draws in the same order."""
    def random_hermitian(rng):
        m = rng.standard_normal((anc_dim, anc_dim)) + 1j * rng.standard_normal((anc_dim, anc_dim))
        return (m + m.conj().T) / 2

    tol3 = 1e-8 * (1.0 + 1.0 / abs(transition_amplitude(c))) * min(g * g, 1.0)
    rng = np.random.default_rng(seed)
    proj_by_site = dict(zip(ins.sites, ins.on_projectors))
    responses = np.empty((trials, 2 ** len(ins) - 1))
    for trial in range(trials):
        for j, subset in enumerate(insertion_subsets(ins)):
            couplings = {site: (proj_by_site[site], random_hermitian(rng)) for site in subset}
            obs = random_hermitian(rng)
            state = rng.standard_normal(anc_dim) + 1j * rng.standard_normal(anc_dim)
            resp = kron_joint_response(c, couplings, obs, state / np.linalg.norm(state), g)
            responses[trial, j] = abs(resp)
    return responses, bool(np.all(responses <= tol3))


def def3_case(case, seed):
    if case == "builtin":
        return builtin_double_interferometer(), double_insertions()
    if case == "random3":
        c = random_circuit(800 + seed, dim=3, n=3)
        rng = np.random.default_rng(seed)
        return c, InsertionSet((1, 2, 3), tuple(random_projector(rng, 3) for _ in range(3)))
    return counterfactual_instance(seed, n=3)


def count_calls(monkeypatch, name, record):
    """Replace ``counterfactual.<name>`` by a wrapper that appends
    ``record(*args)`` to the returned list on every call."""
    calls, fn = [], getattr(counterfactual, name)

    def counted(*args):
        calls.append(record(*args))
        return fn(*args)

    monkeypatch.setattr(counterfactual, name, counted)
    return calls


@pytest.mark.parametrize("case", ["builtin", "random3", "counterfactual3"])
@pytest.mark.parametrize("seed", [3, 99])
def test_randomized_def3_walks_once(monkeypatch, case, seed):
    c, ins = def3_case(case, seed)
    want, want_null = per_trial_def3_reference(c, ins, 6, 0.05, seed)

    walks = count_calls(monkeypatch, "history_amplitudes", lambda c, ins: ins.sites)
    kicks = count_calls(monkeypatch, "_kicks", lambda hams, g, dim: len(hams))
    report = randomized_def3_test(c, ins, trials=6, g=0.05, seed=seed)
    # one walk over the whole insertion set; the subsets read its marginals.
    # one kick solve for every Hamiltonian of the one block of trials
    assert walks == [ins.sites]
    assert kicks == [6 * sum(len(s) for s in insertion_subsets(ins))]
    assert report.def3_responses.shape == want.shape
    assert report.def3_null == want_null
    # the batched contraction rounds differently from the per-call one
    far = np.argwhere(np.abs(report.def3_responses - want) > 1e-13)
    assert len(far) == 0, f"(trial, subset) indices {far.tolist()}"


@pytest.mark.parametrize("case", ["builtin", "random3"])
def test_randomized_def3_blocks_keep_the_draw_order(monkeypatch, case):
    c, ins = def3_case(case, 5)
    per_trial = 2 ** len(ins) - 1
    block = counterfactual.DEF3_BLOCK // 3 ** len(ins)
    assert block >= 3
    three = randomized_def3_test(c, ins, trials=3, g=0.05, seed=5).def3_responses
    many = randomized_def3_test(c, ins, trials=block + 2, g=0.05, seed=5).def3_responses
    assert many.shape == (block + 2, per_trial)
    assert np.array_equal(three, many[:3])
    # two trials per block: the stream and the responses run on across blocks
    kicks = count_calls(monkeypatch, "_kicks", lambda hams, g, dim: len(hams))
    monkeypatch.setattr(counterfactual, "DEF3_BLOCK", 2 * 3 ** len(ins) + 1)
    blocked = randomized_def3_test(c, ins, trials=5, g=0.05, seed=5).def3_responses
    assert len(kicks) == 3
    assert np.array_equal(blocked, many[:5])


@pytest.mark.parametrize("case", ["builtin", "random3", "counterfactual3"])
def test_def3_responses_are_the_concatenated_blocks(monkeypatch, case):
    # each block's |responses| is written into its slice of one array; the
    # draws keep their order, so the report is bitwise the concatenation of
    # the blocks' |responses|
    c, ins = def3_case(case, 7)
    monkeypatch.setattr(counterfactual, "DEF3_BLOCK", 3 * 3 ** len(ins))
    report = randomized_def3_test(c, ins, trials=8, g=0.05, seed=7)
    amps = counterfactual._subset_amplitudes(
        np.array(list(history_amplitudes(c, ins).values())), len(ins))
    width = sum(len(group) * counterfactual._draw_width(r)
                for r, group in enumerate(amps, start=1))
    rng = np.random.default_rng(7)
    concatenated = np.abs(np.concatenate([
        counterfactual._def3_responses(amps, rng.standard_normal((min(3, 8 - lo), width)), 0.05)
        for lo in range(0, 8, 3)]))
    assert report.def3_responses.dtype == concatenated.dtype
    assert report.def3_responses.shape == concatenated.shape == (8, 2 ** len(ins) - 1)
    assert report.def3_responses.tobytes() == concatenated.tobytes()


def test_def3_trials_past_memory_are_refused(monkeypatch):
    # an allocator that cannot grant the responses of every trial at once is
    # a refused input that names the trial count, before any trial runs
    empty = np.empty

    def exhausted(shape, *args, **kwargs):
        if np.ndim(shape) and shape[0] == 10**6:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(counterfactual.np, "empty", exhausted)
    blocks = count_calls(monkeypatch, "_def3_responses", lambda amps, draws, g: len(draws))
    with pytest.raises(InvalidInput, match="1000000 trials do not fit in memory"):
        randomized_def3_test(builtin_double_interferometer(), double_insertions(),
                             trials=10**6, g=0.1, seed=1)
    assert blocks == []


def test_subset_amplitudes_are_the_subsets_own_walks():
    for n in (3, 4):
        for seed in range(4):
            c = random_circuit(600 + 10 * n + seed, n=n)
            rng = np.random.default_rng(seed)
            ins = InsertionSet(tuple(range(1, n + 1)),
                               tuple(random_projector(rng, c.dim) for _ in range(n)))
            table = np.array(list(history_amplitudes(c, ins).values()))
            groups = counterfactual._subset_amplitudes(table, n)
            rows = [row for group in groups for row in group]
            subsets = list(insertion_subsets(ins))
            assert [len(g) for g in groups] == [comb(n, r) for r in range(1, n + 1)]
            assert len(rows) == len(subsets)
            for subset, row in zip(subsets, rows):
                own = history_amplitudes(c, InsertionSet(subset, tuple(
                    ins.on_projectors[s - 1] for s in subset)))
                assert np.max(np.abs(row - np.array(list(own.values())))) <= 1e-14, subset


@pytest.mark.parametrize("n", [2, 3, 4])
def test_def3_null_margin_at_small_coupling(n):
    g = 1e-3
    for seed in range(40):
        c, ins = counterfactual_instance(seed, n=n)
        tol3 = 1e-8 * (1.0 + 1.0 / abs(transition_amplitude(c))) * g**2
        report = randomized_def3_test(c, ins, trials=5, g=g, seed=seed)
        assert report.def3_null
        assert report.def3_responses.max() <= 0.1 * tol3, seed


@pytest.mark.parametrize("case", ["builtin", "counterfactual3"])
def test_check_equivalence_walks_once(monkeypatch, case):
    if case == "builtin":
        c, ins = builtin_double_interferometer(), double_insertions()
    else:
        c, ins = counterfactual_instance(4, n=3)
    history_walks, wv_walks = [], []
    history_walk, wv_walk = counterfactual.history_amplitudes, counterfactual.weak_values

    def counted_histories(c, ins):
        history_walks.append(ins.sites)
        return history_walk(c, ins)

    def counted_weak_values(c, sites, ops):
        wv_walks.append(sites)
        return wv_walk(c, sites, ops)

    monkeypatch.setattr(counterfactual, "history_amplitudes", counted_histories)
    monkeypatch.setattr(counterfactual, "weak_values", counted_weak_values)
    assert check_equivalence_def1_def2(c, ins) is (case != "builtin")
    # one history walk for Definition 1 and the expansion, one weak-value
    # walk for Definition 2 and the numerators
    assert history_walks == [ins.sites]
    assert wv_walks == [ins.sites]

    # the verdicts stay independent: histories that all vanish contradict
    # the built-in document's nonzero weak value
    if case == "builtin":
        monkeypatch.setattr(counterfactual, "history_amplitudes",
                            lambda c, ins: dict.fromkeys(all_histories(len(ins)), 0j))
        with pytest.raises(EquivalenceViolation, match="histories says True"):
            check_equivalence_def1_def2(c, ins)


@pytest.mark.parametrize("g", [0.0, 0.1])
def test_joint_response_refuses_a_vanishing_ancilla_state(g):
    # post-selected orthogonal to the bare output, so F vanishes and site
    # 1's two histories cancel: the post-selected ancilla state vanishes at
    # g = 0, and its baseline does at every g
    c = dataclasses.replace(builtin_double_interferometer(),
                            psi_f=np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(transition_amplitude(c)) < 1e-16
    amps = list(history_amplitudes(c, InsertionSet((1,), (P_B,))).values())
    assert np.allclose(amps, [-0.5, 0.5], rtol=0.0, atol=1e-15)
    with pytest.raises(NumericallySingular, match="ancilla state vanishes") as info:
        joint_response(c, {1: (P_B, np.array([[0.0, 1.0], [1.0, 0.0]]))},
                       np.diag([1.0, -1.0]), [1.0, 0.0], g)
    assert info.value.exit_code == 2
