import dataclasses
import itertools
import time
import warnings
from math import comb

import numpy as np
import pytest

from seqweak.circuitmodel import (P_B, P_C, P_E, P_F, Circuit,
                                  builtin_double_interferometer,
                                  transition_amplitude)
from seqweak.counterfactual import InsertionSet
from seqweak.errors import (BasisIncomplete, DegeneratePostSelection, DimMismatch,
                            InvalidInput, NonCommuting, SeqWeakError)
from seqweak.oracle import gaussian_kernels, same_pointer_twice
from seqweak.pointer import PointerProfile, product_weak_value
from seqweak.weakvalue import (BRANCH_TOL, check_linearity, check_marginal,
                               check_strong_agreement, path_amplitude_identity,
                               MAX_TABLE_ENTRIES, ratio_rule_check, weak_value,
                               weak_value_table)

from conftest import (loop_branches, random_circuit, random_hermitian,
                      random_projector, random_state, random_unitary)


GOLDEN_SINGLES = {"B": 0.0, "C": 1.0, "E": 1.0, "F": 0.0}
GOLDEN_PAIRS = {("B", "E"): 0.5, ("B", "F"): -0.5,
                ("C", "E"): 0.5, ("C", "F"): 0.5}
_PROJ = {"B": P_B, "C": P_C, "E": P_E, "F": P_F}


def test_golden_single_weak_values():
    for name, expected in GOLDEN_SINGLES.items():
        site = 1 if name in ("B", "C") else 2
        c = builtin_double_interferometer(
            _PROJ[name] if site == 1 else None,
            _PROJ[name] if site == 2 else None)
        assert weak_value(c, (site,)) == pytest.approx(expected, abs=1e-12)


def test_golden_sequential_weak_values():
    for (first, second), expected in GOLDEN_PAIRS.items():
        c = builtin_double_interferometer(_PROJ[first], _PROJ[second])
        assert weak_value(c, (1, 2)) == pytest.approx(expected, abs=1e-12)


def test_weak_values_can_be_negative():
    c = builtin_double_interferometer(P_B, P_F)
    wv = weak_value(c, (1, 2))
    assert wv.real < 0


def test_empty_subset_is_unity(rng):
    c = random_circuit(1)
    assert weak_value(c, ()) == pytest.approx(1.0)


def test_identity_observable_gives_unit_weak_value(rng):
    c = random_circuit(2, dim=3, n=2).with_observables({1: np.eye(3)})
    assert weak_value(c, (1,)) == pytest.approx(1.0)


def chain_numerator(c, subset) -> complex:
    """<psi_f| U_{n+1} A~_n U_n ... A~_1 U_1 |psi_i> with A~_k = A_k on the
    subset and identity elsewhere, one matvec per operator: the per-subset
    reference for the batched amplitude walk."""
    v = c.psi_i
    for k, (u, a) in enumerate(c.stages, start=1):
        v = u @ v
        if k in subset:
            v = a @ v
    v = c.u_final @ v
    return complex(np.vdot(c.psi_f, v))


def test_numerator_times_amplitude(rng):
    c = random_circuit(5, dim=3, n=2)
    f = transition_amplitude(c)
    assert weak_value(c, (1, 2)) * f == pytest.approx(chain_numerator(c, (1, 2)))


def assert_table_matches_chain(c, table):
    f = chain_numerator(c, ())
    for subset, value in table.entries.items():
        scale = np.prod([np.linalg.norm(c.observable(k), 2) for k in subset]) / abs(f)
        assert abs(value - chain_numerator(c, subset) / f) <= 1e-12 * scale, subset


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_table_matches_matvec_chain(n, d):
    c = random_circuit(1000 + 10 * n + d, dim=d, n=n)
    for max_order in sorted({1, n}):
        table = weak_value_table(c, max_order)
        assert len(table.entries) == sum(comb(n, r) for r in range(max_order + 1))
        assert_table_matches_chain(c, table)


def test_first_order_table_at_forty_sites():
    c = random_circuit(40, dim=2, n=40)
    table = weak_value_table(c, 1)
    assert len(table.entries) == 41
    assert_table_matches_chain(c, table)


def test_degenerate_postselection_raises():
    # post-select exactly orthogonally to the evolved state
    c = Circuit(psi_i=np.array([1.0, 0.0]),
                stages=((np.eye(2), np.diag([1.0, 2.0])),),
                u_final=np.eye(2), psi_f=np.array([0.0, 1.0]))
    with pytest.raises(DegeneratePostSelection):
        weak_value(c, (1,))


def test_nearly_orthogonal_postselection_warns():
    eps = 1e-9
    psi_f = np.array([eps, 1.0]) / np.hypot(eps, 1.0)
    c = Circuit(psi_i=np.array([1.0, 0.0]),
                stages=((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])),),
                u_final=np.eye(2), psi_f=psi_f)
    with pytest.warns(RuntimeWarning, match="huge"):
        weak_value(c, (1,))


def test_table_enumeration_order(rng):
    c = random_circuit(9, dim=2, n=3)
    table = weak_value_table(c, 3)
    assert list(table.entries) == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert table[(1, 2)] == table.entries[(1, 2)]


@pytest.mark.parametrize("n", range(10))
def test_table_blocks_follow_combinations_order(n):
    # the size blocks are built from arrays, yet list every subset exactly
    # as itertools.combinations does, size by size
    c = random_circuit(500 + n, dim=2, n=n)
    for max_order in range(n + 1):
        table = weak_value_table(c, max_order)
        expected = [s for r in range(max_order + 1)
                    for s in itertools.combinations(range(1, n + 1), r)]
        assert list(table.entries) == expected
        assert len(table.entries) == len(expected) == len(table.values)
        # a lookup by subset finds the entry at its position in the table
        assert list(table.entries.values()) == table.values.tolist()
        for h, subset in enumerate(expected):
            assert table.last[h] == (subset[-1] if subset else 0)
            assert expected[table.prefix[h]] == subset[:-1]


def test_table_entries_miss_like_a_dict():
    c = random_circuit(9, dim=2, n=4)
    entries = weak_value_table(c, 2).entries
    for missing in [(1, 2, 3), (0,), (5,), (2, 1), (1, 1), (1.5,), 3, "ab"]:
        assert missing not in entries
        with pytest.raises(KeyError):
            entries[missing]
    assert entries[()] == 1.0
    assert entries.get((5,)) is None
    with pytest.raises(TypeError):
        entries[(1,)] = 0.0


def test_table_refuses_more_entries_than_the_limit():
    c = random_circuit(21, dim=2, n=21)
    # 2^21 entries at full order; order 10, with exactly the limit's 2^20,
    # is the highest one allowed
    assert sum(comb(21, r) for r in range(11)) == MAX_TABLE_ENTRIES
    with pytest.raises(InvalidInput, match="2097152 entries"):
        weak_value_table(c, 21)
    with pytest.raises(InvalidInput, match="entries, more than"):
        weak_value_table(c, 11)


def test_table_max_order_truncates(rng):
    c = random_circuit(9, dim=2, n=3)
    table = weak_value_table(c, 1)
    assert list(table.entries) == [(), (1,), (2,), (3,)]
    with pytest.raises(ValueError):
        weak_value_table(c, 4)
    with pytest.raises(ValueError):
        weak_value_table(c, -1)
    # numpy integers are orders too; anything else is refused as input
    assert list(weak_value_table(c, np.int64(1)).entries) == list(table.entries)
    assert len(weak_value_table(c, np.uint8(3)).entries) == 8
    for bad in (1.5, float("nan"), "1", None, np.float64(2.0)):
        with pytest.raises(InvalidInput, match="not an integer"):
            weak_value_table(c, bad)


def test_linearity_rule(rng):
    for seed in range(20):
        c = random_circuit(seed, n=2)
        c_prime = c.with_observables(
            {2: random_hermitian(np.random.default_rng(seed + 1000), c.dim)})
        assert check_linearity(c, c_prime, 2) < 1e-10


def test_marginal_rule(rng):
    for seed in range(20):
        c = random_circuit(seed, n=3)
        assert check_marginal(c, (1, 2, 3), 2) < 1e-10
        assert check_marginal(c, (1, 2), 1) < 1e-10
    with pytest.raises(ValueError):
        check_marginal(random_circuit(0, n=2), (1,), 2)


def deterministic_circuit(seed, dim=3, n=2):
    """Circuit whose strong measurement record is forced: each observable
    holds the evolving state as an eigenvector with a known eigenvalue."""
    rng = np.random.default_rng(seed)
    v = random_state(rng, dim)
    psi_i = v.copy()
    stages = []
    expected = 1.0
    for _ in range(n):
        u = random_unitary(rng, dim)
        v = u @ v
        basis = np.linalg.qr(np.column_stack(
            [v] + [random_state(rng, dim) for _ in range(dim - 1)]))[0]
        basis[:, 0] = v
        eigs = rng.uniform(0.5, 3.0, size=dim)
        a = (basis * eigs) @ basis.conj().T
        a = (a + a.conj().T) / 2
        stages.append((u, a))
        expected *= eigs[0]
    u_final = random_unitary(rng, dim)
    psi_f = random_state(rng, dim)
    c = Circuit(psi_i=psi_i, stages=tuple(stages), u_final=u_final, psi_f=psi_f)
    return c, expected


def test_strong_agreement_on_deterministic_records():
    for seed in range(10):
        c, expected = deterministic_circuit(seed)
        if abs(transition_amplitude(c)) < 0.1:
            continue
        dev = check_strong_agreement(c)
        assert dev is not None
        assert dev < 1e-9
        assert weak_value(c, (1, 2)) == pytest.approx(expected, rel=1e-9)


def test_strong_agreement_none_when_record_is_random(rng):
    # the double interferometer with B and F measured strongly can read
    # either projector value, so no agreement claim is made
    assert check_strong_agreement(builtin_double_interferometer()) is None


def strong_agreement_reference(c):
    """`check_strong_agreement` by enumeration: the record is deterministic
    when exactly one eigenvalue branch has |amplitude| > BRANCH_TOL."""
    spectra, amps = loop_branches(c)
    surviving = np.argwhere(np.abs(amps) > BRANCH_TOL)
    if len(surviving) != 1:
        return None
    product = np.prod([eigs[k] for eigs, k in zip(spectra, surviving[0])])
    return abs(weak_value(c, tuple(range(1, c.n + 1))) - product)


def postselection_fixed_circuit(seed, dim=4, n=2):
    """Circuit with rank-2 projector observables whose strong record only
    the post-selection fixes: psi_f is orthogonal to every branch but one."""
    rng = np.random.default_rng(seed)
    c = Circuit(psi_i=random_state(rng, dim),
                stages=tuple((random_unitary(rng, dim), random_projector(rng, dim, rank=2))
                             for _ in range(n)),
                u_final=random_unitary(rng, dim), psi_f=random_state(rng, dim))
    # column j of the branch states U_f P U ... P U psi_i is their amplitude on e_j
    states = np.stack([loop_branches(dataclasses.replace(c, psi_f=e))[1].reshape(-1)
                       for e in np.eye(dim)], axis=1)
    others = np.delete(states, rng.integers(len(states)), axis=0)
    return dataclasses.replace(c, psi_f=np.linalg.svd(others)[2][-1])


def assert_strong_agreement_matches_reference(c):
    dev, ref = check_strong_agreement(c), strong_agreement_reference(c)
    assert (dev is None) == (ref is None)
    if ref is not None:
        assert abs(dev - ref) <= 1e-12
    return dev


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strong_agreement_matches_enumeration_on_deterministic_records(n):
    for seed in range(10):
        c, _ = deterministic_circuit(seed, dim=3, n=n)
        if abs(transition_amplitude(c)) > 0.1:
            assert assert_strong_agreement_matches_reference(c) is not None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("projectors", [False, True])
def test_strong_agreement_matches_enumeration_on_random_circuits(n, projectors):
    for seed in range(5):
        assert_strong_agreement_matches_reference(
            random_circuit(seed + 40 * n, n=n, projectors=projectors))


def test_strong_agreement_matches_enumeration_on_builtin_document():
    for obs in [(P_B, P_F), (P_C, P_E), (P_B, P_E), (P_C, P_F)]:
        assert_strong_agreement_matches_reference(builtin_double_interferometer(*obs))


def test_strong_agreement_matches_enumeration_on_postselection_fixed_records():
    # the dead outcome classes hold only rounding, up to ~1e-14 of the total
    for seed in range(40):
        assert assert_strong_agreement_matches_reference(
            postselection_fixed_circuit(seed)) is not None


def test_strong_agreement_without_sites():
    rng = np.random.default_rng(11)
    c = Circuit(psi_i=random_state(rng, 3), stages=(), u_final=random_unitary(rng, 3),
                psi_f=random_state(rng, 3))
    assert assert_strong_agreement_matches_reference(c) == pytest.approx(0.0, abs=1e-15)
    # nothing survives a post-selection orthogonal to U_f psi_i
    orthogonal = np.linalg.svd((c.u_final @ c.psi_i)[None].conj())[2][-1].conj()
    c = dataclasses.replace(c, psi_f=orthogonal)
    assert abs(transition_amplitude(c)) < 1e-15
    assert assert_strong_agreement_matches_reference(c) is None


@pytest.mark.parametrize("eps", [1e-11, 1e-8, 1e-5, 1e-3])
def test_strong_agreement_band(eps):
    # psi_i moved off a deterministic record by relative amplitude eps: the
    # stray branches' amplitudes are about eps.  The enumeration counts a
    # branch above BRANCH_TOL = 1e-10; the walk counts an outcome class
    # above STRONG_REL_TOL = 1e-12 of the total probability, so at 1e-8 it
    # still reports the deviation where the enumeration says None.
    c, _ = deterministic_circuit(0, dim=3, n=2)
    assert abs(transition_amplitude(c)) > 0.1
    off = random_state(np.random.default_rng(1), 3)
    off -= np.vdot(c.psi_i, off) * c.psi_i
    psi_i = c.psi_i + eps * off / np.linalg.norm(off)
    c = dataclasses.replace(c, psi_i=psi_i / np.linalg.norm(psi_i))
    dev, ref = check_strong_agreement(c), strong_agreement_reference(c)
    if eps == 1e-11:
        assert dev is not None and ref is not None and abs(dev - ref) <= 1e-12
    elif eps == 1e-8:
        assert ref is None and dev is not None and 1e-10 < dev < 1e-6
    else:
        assert dev is None and ref is None


def test_strong_agreement_forty_sites():
    c, expected = deterministic_circuit(40, dim=4, n=40)
    start = time.perf_counter()
    with warnings.catch_warnings():
        # the product of 40 eigenvalues is huge, but |F| is not small
        warnings.simplefilter("error")
        dev = check_strong_agreement(c)
    assert time.perf_counter() - start < 1.0
    assert dev is not None and dev <= 1e-9 * expected
    assert check_strong_agreement(random_circuit(40, dim=4, n=40)) is None


def ratio_circuit(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    p = random_projector(rng, dim)
    stages = ((random_unitary(rng, dim), p),
              (random_unitary(rng, dim), random_hermitian(rng, dim)))
    c = Circuit(psi_i=random_state(rng, dim), stages=stages,
                u_final=random_unitary(rng, dim), psi_f=random_state(rng, dim))
    return c, random_hermitian(rng, dim)


def test_ratio_rule(rng):
    checked = 0
    for seed in range(40):
        c, alt = ratio_circuit(seed)
        if abs(transition_amplitude(c)) < 0.1:
            continue
        try:
            dev = ratio_rule_check(c, alt)
        except DegeneratePostSelection:
            continue
        assert dev < 1e-9
        checked += 1
    assert checked >= 20


def test_ratio_rule_requires_rank_one_projector(rng):
    c = random_circuit(3, dim=3, n=2)
    with pytest.raises(ValueError, match="projector"):
        ratio_rule_check(c, np.eye(3))


def test_path_amplitude_identity(rng):
    for seed in range(20):
        c = random_circuit(seed, n=2, projectors=True)
        assert path_amplitude_identity(c) < 1e-10


def test_path_amplitude_identity_with_explicit_bases():
    c = builtin_double_interferometer(P_B, P_F)
    bases = [np.eye(2, dtype=complex)[:, ::-1] if i else np.eye(2, dtype=complex)
             for i in (0, 1)]
    # first column must be the projected direction
    bases[0] = np.eye(2, dtype=complex)          # x1 = e0 (path B)
    bases[1] = np.eye(2, dtype=complex)[:, ::-1]  # x2 = e1 (path F)
    assert path_amplitude_identity(c, bases) < 1e-12


def test_ratio_rule_refuses_a_rank_two_projector():
    rng = np.random.default_rng(11)
    c = Circuit(psi_i=random_state(rng, 3),
                stages=((random_unitary(rng, 3), random_projector(rng, 3, rank=2)),
                        (random_unitary(rng, 3), random_hermitian(rng, 3))),
                u_final=random_unitary(rng, 3), psi_f=random_state(rng, 3))
    with pytest.raises(InvalidInput, match="^first observable must be a rank-1 projector$"):
        ratio_rule_check(c, np.eye(3))


@pytest.mark.parametrize("site2", ["hermitian", "rank-2"])
def test_path_amplitude_identity_names_the_failing_site(site2):
    # sites 1 and 3 are rank-1 projectors, only site 2 is not one
    rng = np.random.default_rng(12)
    bad = random_hermitian(rng, 3) if site2 == "hermitian" else random_projector(rng, 3, 2)
    stages = tuple((random_unitary(rng, 3), a)
                   for a in (random_projector(rng, 3), bad, random_projector(rng, 3)))
    c = Circuit(psi_i=random_state(rng, 3), stages=stages, u_final=random_unitary(rng, 3),
                psi_f=random_state(rng, 3))
    with pytest.raises(InvalidInput, match="^observable at site 2 is not a rank-1 projector$"):
        path_amplitude_identity(c)


def test_path_amplitude_identity_judges_the_supplied_bases():
    c = builtin_double_interferometer(P_B, P_F)
    good = np.array([np.eye(2), np.eye(2)[:, ::-1]], dtype=complex)
    assert path_amplitude_identity(c, good) < 1e-12
    with pytest.raises(BasisIncomplete, match="orthonormal"):
        path_amplitude_identity(c, [good[0], 2 * good[1]])
    with pytest.raises(BasisIncomplete, match="projected direction"):
        path_amplitude_identity(c, [good[0], np.array([[1, 1], [1, -1]]) / np.sqrt(2)])
    with pytest.raises(DimMismatch):
        path_amplitude_identity(c, good[:1])


def test_product_weak_value_commuting_pair(rng):
    d = 3
    gen = np.random.default_rng(42)
    basis = random_unitary(gen, d)
    a1 = (basis * gen.uniform(-1, 1, d)) @ basis.conj().T
    a2 = (basis * gen.uniform(-1, 1, d)) @ basis.conj().T
    a1, a2 = (a1 + a1.conj().T) / 2, (a2 + a2.conj().T) / 2
    c = Circuit(psi_i=random_state(gen, d),
                stages=((random_unitary(gen, d), a1), (np.eye(d), a2)),
                u_final=random_unitary(gen, d), psi_f=random_state(gen, d))
    pw = product_weak_value(c)
    # the product observable at a single time equals the sequential insertion
    assert pw.value == pytest.approx(weak_value(c, (1, 2)), rel=1e-9)
    assert pw.correlation_reconstruction == pytest.approx(pw.value.real, rel=1e-9)


def test_product_weak_value_rejects_noncommuting(rng):
    gen = np.random.default_rng(3)
    d = 2
    c = Circuit(psi_i=random_state(gen, d),
                stages=((random_unitary(gen, d), random_hermitian(gen, d)),
                        (np.eye(d), random_hermitian(gen, d))),
                u_final=np.eye(d), psi_f=random_state(gen, d))
    with pytest.raises(NonCommuting):
        product_weak_value(c)


def test_product_weak_value_rejects_intervening_evolution(rng):
    c = builtin_double_interferometer()
    with pytest.raises(ValueError, match="identity"):
        product_weak_value(c)


@pytest.mark.parametrize("call", [
    lambda: same_pointer_twice(random_circuit(1, n=3), 1e-3, PointerProfile.gaussian(1.0)),
    lambda: InsertionSet((1, 2), (P_B,)),
    lambda: gaussian_kernels([0.0, 1.0], 0.1, -1.0),
    lambda: check_marginal(random_circuit(0, n=2), (1,), 2),
    lambda: ratio_rule_check(random_circuit(3, dim=3, n=3), np.eye(3)),
    lambda: ratio_rule_check(random_circuit(3, dim=3, n=2), np.eye(3)),
    lambda: product_weak_value(random_circuit(3, n=3)),
    lambda: product_weak_value(builtin_double_interferometer()),
    lambda: path_amplitude_identity(random_circuit(3, n=2)),
    lambda: PointerProfile.gaussian(float("nan")),
    lambda: PointerProfile.gaussian(-1.0),
    lambda: PointerProfile.tabulated(0.0, 0.1, np.ones(10)),
    lambda: PointerProfile.tabulated(0.0, float("inf"), np.zeros(256)),
    lambda: PointerProfile.tabulated(0.0, -0.1, np.zeros(256)),
    lambda: PointerProfile.tabulated(0.0, 0.1, np.zeros(256)),
    lambda: PointerProfile.tabulated(0.0, 0.1, np.ones(256)),
], ids=["shared-pointer-sites", "insertion-projectors", "kernel-sigma", "marginal-site",
        "ratio-sites", "ratio-projector", "product-sites", "product-unitary",
        "path-projector", "profile-nonfinite", "profile-sigma", "table-short",
        "table-nonfinite", "table-step", "table-zero", "table-no-decay"])
def test_library_argument_errors_are_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, SeqWeakError) and info.value.exit_code == 2
