"""End-to-end acceptance checks.

Each test prints a single `criterion k (name): PASS/FAIL` line (echoed again
in the terminal summary) and fails the run if its criterion is not met.
"""
import time

import numpy as np
import pytest

from seqweak.circuitio import builtin_document_path, load, parse, serialize
from seqweak.circuitmodel import (P_B, P_C, P_E, P_F,
                                  builtin_double_interferometer,
                                  transition_amplitude)
from seqweak.counterfactual import (InsertionSet, check_equivalence_def1_def2,
                                    is_counterfactual_histories,
                                    is_counterfactual_weakvalues,
                                    weak_interaction_response)
from seqweak.montecarlo import estimate_moment, sample_runs
from seqweak.oracle import exact_moment, same_pointer_twice
from seqweak.pointer import (MomentSpec, PointerProfile,
                             ordered_index_partitions, predict_moment)
from seqweak.weakvalue import (check_linearity, check_marginal,
                               check_strong_agreement, path_amplitude_identity,
                               ratio_rule_check, weak_value)

from conftest import random_circuit, random_hermitian, random_projector, random_state
from test_counterfactual import counterfactual_instance
from test_weakvalue import deterministic_circuit, ratio_circuit

PROJ = {"B": P_B, "C": P_C, "E": P_E, "F": P_F}


def interferometer(first=None, second=None):
    return builtin_double_interferometer(
        None if first is None else PROJ[first],
        None if second is None else PROJ[second])


def relative_discrepancy(exact, predicted, g, order):
    return abs(exact - predicted) / max(abs(predicted), g ** (order + 1))


def converges(c, spec_text, g, prof, predictor=None):
    """Criterion-3 style check: small relative discrepancy at g, and the
    absolute discrepancy shrinks by >= 1.9 when g is halved (above the
    1e-12 noise floor)."""
    spec = MomentSpec.parse(spec_text)
    order = len(spec.factors)
    if predictor is None:
        predictor = lambda gg: predict_moment(c, spec, gg, prof)
    discs = []
    for gg in (g, g / 2):
        exact, _ = exact_moment(c, spec, gg, prof)
        pred = predictor(gg)
        if relative_discrepancy(exact, pred, gg, order) > 0.05:
            return False
        discs.append(abs(exact - pred))
    if discs[0] > 1e-12 and discs[1] > discs[0] / 1.9:
        return False
    return True


def test_criterion_1_golden_weak_values(acceptance_report):
    start = time.perf_counter()
    expected = {
        ("C", None): 1.0, ("B", None): 0.0, (None, "E"): 1.0, (None, "F"): 0.0,
        ("B", "E"): 0.5, ("B", "F"): -0.5, ("C", "E"): 0.5, ("C", "F"): 0.5}
    ok = True
    for (first, second), value in expected.items():
        c = interferometer(first, second)
        subset = tuple(s for s, name in ((1, first), (2, second)) if name)
        ok &= abs(weak_value(c, subset) - value) <= 1e-12
    ok &= time.perf_counter() - start < 1.0
    acceptance_report(1, "golden weak values", ok)


def test_criterion_2_occupation_arithmetic(acceptance_report):
    pairs = {(f, s): weak_value(interferometer(f, s), (1, 2))
             for f in ("B", "C") for s in ("E", "F")}
    total = sum(pairs.values())
    ok = abs(total - 1.0) <= 1e-12
    ok &= abs(pairs[("B", "F")] - (-0.5)) <= 1e-12
    acceptance_report(2, "occupation arithmetic", ok)


def test_criterion_3_formula_vs_oracle(acceptance_report):
    start = time.perf_counter()
    prof = PointerProfile.gaussian(1.0)
    ok = True
    for seed in range(50):
        c = random_circuit(seed, n=2)  # dims drawn from 2..4
        for spec in ("q1", "p1", "q1*q2", "p1*p2", "q1*p2"):
            ok &= converges(c, spec, 1e-3, prof)
    ok &= time.perf_counter() - start < 30.0
    acceptance_report(3, "formula vs oracle convergence", ok)


def test_criterion_4_three_site_formulas(acceptance_report):
    # index enumeration: the four-term structure of the third-order
    # position-correlation formula
    parts = ordered_index_partitions(3)
    ok = parts == [((1, 2, 3), ()), ((1, 2), (3,)), ((1, 3), (2,)),
                   ((2, 3), (1,))]
    prof = PointerProfile.gaussian(1.0)
    for seed in range(10):
        c = random_circuit(seed + 300, n=3)
        w = {s: weak_value(c, s) for s in
             [(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,), (3,)]}

        def explicit_q3(g):
            total = (w[(1, 2, 3)] + w[(1, 2)] * np.conj(w[(3,)])
                     + w[(1, 3)] * np.conj(w[(2,)])
                     + w[(2, 3)] * np.conj(w[(1,)]))
            return g**3 / 4 * total.real

        g = 1e-3
        generic = predict_moment(c, MomentSpec.parse("q1*q2*q3"), g, prof)
        ok &= abs(explicit_q3(g) - generic) <= 1e-15 + 1e-10 * abs(generic)
        ok &= converges(c, "q1*q2*q3", g, prof, predictor=explicit_q3)
        # momentum products: even count for two sites, odd count for three
        ok &= converges(c, "p1*p2", g, prof)
        ok &= converges(c, "p1*p2*p3", g, prof)
    acceptance_report(4, "three-site product formulas", ok)


def test_criterion_5_offset_profile(acceptance_report):
    prof = PointerProfile.gaussian(1.0, q_offset=0.3)
    ok = True
    seen_complex = False
    for seed in range(20):
        c = random_circuit(seed + 500, n=1)
        w = weak_value(c, (1,))
        seen_complex |= abs(w.imag) > 0.1
        ok &= converges(c, "q1", 1e-3, prof,
                        predictor=lambda g: 0.3 + g * w.real)
    ok &= seen_complex
    acceptance_report(5, "offset-profile position mean", ok)


def test_criterion_6_rules_suite(acceptance_report):
    ok = True
    for seed in range(100):
        c = random_circuit(seed + 600, n=2)
        alt = c.with_observables(
            {2: random_hermitian(np.random.default_rng(seed), c.dim)})
        ok &= check_linearity(c, alt, 2) <= 1e-10
        ok &= check_marginal(c, (1, 2), 2) <= 1e-10

    strong = ratio = path = 0
    seed = 0
    while strong < 100:
        c, _ = deterministic_circuit(seed, dim=3, n=2)
        seed += 1
        if abs(transition_amplitude(c)) < 0.1:
            continue
        dev = check_strong_agreement(c)
        ok &= dev is not None and dev <= 1e-10
        strong += 1

    seed = 0
    while ratio < 100:
        c, alt = ratio_circuit(seed)
        seed += 1
        if abs(transition_amplitude(c)) < 0.1:
            continue
        try:
            ok &= ratio_rule_check(c, alt) <= 1e-10
        except Exception:
            continue
        ratio += 1

    while path < 100:
        c = random_circuit(path + 700, n=2, projectors=True)
        ok &= path_amplitude_identity(c) <= 1e-10
        path += 1
    acceptance_report(6, "weak-value rules suite", ok)


def test_criterion_7_counterfactuality(acceptance_report):
    start = time.perf_counter()
    ok = True
    for seed in range(100):
        c = random_circuit(seed + 900, n=2)
        gen = np.random.default_rng(seed)
        ins = InsertionSet((1, 2), (random_projector(gen, c.dim),
                                    random_projector(gen, c.dim)))
        check_equivalence_def1_def2(c, ins)  # raises on disagreement
    for seed in range(100):
        c, ins = counterfactual_instance(seed + 100, dim=3, n=2)
        if abs(transition_amplitude(c)) < 0.1:
            continue
        ok &= check_equivalence_def1_def2(c, ins) is True

    c = builtin_double_interferometer()
    both = InsertionSet((1, 2), (P_B, P_F))
    d1, _ = is_counterfactual_histories(c, both)
    d2, wit = is_counterfactual_weakvalues(c, both)
    ok &= (not d1) and (not d2)
    ok &= wit[0] == (1, 2) and abs(wit[1] - (-0.5)) <= 1e-12

    single = InsertionSet((1,), (P_B,))
    ok &= check_equivalence_def1_def2(c, single) is True
    gen = np.random.default_rng(4)
    for g in (0.1, 0.2, 0.3):
        h = random_hermitian(gen, 2)
        obs = random_hermitian(gen, 2)
        state = random_state(gen, 2)
        resp = weak_interaction_response(c, 1, P_B, h, obs, state, g)
        ok &= abs(resp) <= 1e-12
    ok &= time.perf_counter() - start < 60.0
    acceptance_report(7, "counterfactuality theorem", ok)


def test_criterion_8_monte_carlo(acceptance_report):
    start = time.perf_counter()
    c = builtin_double_interferometer()
    g, prof, n = 0.05, PointerProfile.gaussian(1.0), 10**6
    records = sample_runs(c, g, prof, n, seed=20240817)
    est = estimate_moment(records, MomentSpec.parse("q1*q2"))
    exact, prob = exact_moment(c, MomentSpec.parse("q1*q2"), g, prof)
    ok = abs(est.mean - exact) <= 3 * est.stderr
    freq = est.n_success / n
    ok &= abs(freq - prob) <= 3 * np.sqrt(prob * (1 - prob) / n)
    ok &= time.perf_counter() - start < 60.0
    acceptance_report(8, "Monte Carlo agreement", ok)


def test_criterion_9_same_pointer_twice(acceptance_report):
    prof = PointerProfile.gaussian(1.0)
    ok = True
    circuits = [builtin_double_interferometer()] + [
        random_circuit(seed + 950, n=2) for seed in range(10)]
    for c in circuits:
        target = (weak_value(c, (1,)) + weak_value(c, (2,))).real
        discs = []
        for g in (1e-3, 5e-4):
            val = same_pointer_twice(c, g, prof)
            pred = g * target
            ok &= relative_discrepancy(val, pred, g, 1) <= 0.05
            discs.append(abs(val - pred))
        if discs[0] > 1e-12:
            ok &= discs[1] <= discs[0] / 1.9
    acceptance_report(9, "shared-pointer mean", ok)


def test_criterion_10_parser_round_trip(acceptance_report):
    ok = True
    corpus = sorted(builtin_document_path().parent.glob("*.wseq"))
    ok &= len(corpus) >= 1
    for path in corpus:
        text = path.read_text()
        ok &= serialize(parse(text, base_dir=path.parent)) == text

    doc = load(builtin_document_path())
    c = doc.to_circuit()
    b = builtin_double_interferometer()
    ok &= np.array_equal(c.psi_i, b.psi_i) and np.array_equal(c.psi_f, b.psi_f)
    ok &= np.array_equal(c.u_final, b.u_final)
    for (u1, a1), (u2, a2) in zip(c.stages, b.stages):
        ok &= np.array_equal(u1, u2) and np.array_equal(a1, a2)
    acceptance_report(10, "parser round trip", ok)
