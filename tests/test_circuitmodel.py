import itertools

import numpy as np
import pytest

from seqweak.circuitmodel import (P_B, P_C, P_E, P_F, U1_DOUBLE, U3_DOUBLE,
                                  Circuit, builtin_double_interferometer, product_amplitudes,
                                  transition_amplitude, tree_amplitudes,
                                  valid_subset)
from seqweak import circuitmodel, weakvalue
from seqweak.counterfactual import InsertionSet, randomized_def3_test
from seqweak.errors import DimMismatch, InvalidInput
from seqweak.oracle import exact_moment
from seqweak.pointer import MomentSpec, PointerProfile
from seqweak.weakvalue import weak_value, weak_value_table

from conftest import (combination_tree, one_spectrum, per_row_walk, random_circuit,
                      random_hermitian, random_projector, random_state, random_unitary)


def test_builtin_transition_amplitude():
    c = builtin_double_interferometer()
    assert transition_amplitude(c) == pytest.approx(-1 / np.sqrt(2), abs=1e-15)


def test_builtin_shape_and_labels():
    c = builtin_double_interferometer()
    assert c.dim == 2
    assert c.n == 2
    assert c.labels == ("B/E", "C/F")
    assert np.array_equal(c.observable(1), P_B)
    assert np.array_equal(c.observable(2), P_F)


def test_custom_observables():
    c = builtin_double_interferometer(P_C, P_E)
    assert np.array_equal(c.observable(1), P_C)
    assert np.array_equal(c.observable(2), P_E)


def test_rejects_non_unitary_stage():
    with pytest.raises(ValueError, match="unitary"):
        Circuit(psi_i=np.array([1.0, 0.0]),
                stages=((np.eye(2) * 2, np.eye(2)),),
                u_final=np.eye(2), psi_f=np.array([1.0, 0.0]))


def test_rejects_non_hermitian_observable():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        Circuit(psi_i=np.array([1.0, 0.0]), stages=((np.eye(2), bad),),
                u_final=np.eye(2), psi_f=np.array([1.0, 0.0]))


def test_rejects_unnormalized_initial_state():
    with pytest.raises(ValueError, match="normalized"):
        Circuit(psi_i=np.array([1.0, 1.0]), stages=(),
                u_final=np.eye(2), psi_f=np.array([1.0, 0.0]))


def test_rejects_zero_postselection():
    with pytest.raises(ValueError, match="nonzero"):
        Circuit(psi_i=np.array([1.0, 0.0]), stages=(),
                u_final=np.eye(2), psi_f=np.array([0.0, 0.0]))


def test_rejects_dimension_mismatch():
    with pytest.raises(DimMismatch):
        Circuit(psi_i=np.array([1.0, 0.0]), stages=((np.eye(3), np.eye(3)),),
                u_final=np.eye(3), psi_f=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimMismatch, match="post-selection dimension"):
        Circuit(psi_i=np.array([1.0, 0.0]), stages=((np.eye(2), np.eye(2)),),
                u_final=np.eye(2), psi_f=np.array([1.0, 0.0, 0.0]))


def test_unnormalized_postselection_allowed(rng):
    # the post-selection bra need not be normalized, and its length changes
    # nothing: post-selection is onto its ray, so F, the weak values, the
    # exact moments and the three counterfactuality verdicts are those of
    # the unit bra
    c = random_circuit(3, dim=3, n=3)
    scaled = Circuit(psi_i=c.psi_i, stages=c.stages, u_final=c.u_final,
                     psi_f=2.5 * c.psi_f)
    assert np.linalg.norm(scaled.psi_f) == pytest.approx(1.0, rel=1e-15)
    assert transition_amplitude(scaled) == pytest.approx(transition_amplitude(c), rel=1e-12)
    sites = (1, 2, 3)
    assert np.allclose(weakvalue.weak_values(scaled, sites),
                       weakvalue.weak_values(c, sites), rtol=1e-12, atol=0)
    prof = PointerProfile.gaussian(1.0)
    for moment in ("q1", "q1*p2", "q1*q2*q3"):
        spec = MomentSpec.parse(moment)
        got, want = (np.array(exact_moment(x, spec, 0.2, prof)) for x in (scaled, c))
        assert np.allclose(got, want, rtol=1e-12, atol=0), moment
    gen = np.random.default_rng(3)
    ins = InsertionSet(sites, tuple(random_projector(gen, 3) for _ in sites))
    got, want = (randomized_def3_test(x, ins, trials=3, g=0.05, seed=1)
                 for x in (scaled, c))
    assert ((got.def1_holds, got.def2_holds, got.def3_null)
            == (want.def1_holds, want.def2_holds, want.def3_null))
    assert np.allclose(got.def3_responses, want.def3_responses, rtol=1e-12, atol=0)


@pytest.mark.parametrize("s", [1e-160, 1e-150, 1e150, 1e200, 1e300])
def test_postselection_far_from_unit_length_is_normalized(s):
    # a bra whose squares underflow (1e-160), nearly overflow (1e150) or
    # overflow (1e200, 1e300)
    # keeps its unit vector to rounding, never a wrong one
    c = Circuit(psi_i=np.array([1.0, 0.0]), stages=(), u_final=np.eye(2),
                psi_f=s * np.array([1.0, 1.0]))
    assert np.linalg.norm(c.psi_f) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(c.psi_f, np.sqrt(0.5), rtol=1e-15, atol=0)


def test_with_observables_replaces_only_named_sites(rng):
    c = random_circuit(7, dim=3, n=2)
    new = np.eye(3)
    c2 = c.with_observables({2: new})
    assert np.array_equal(c2.observable(1), c.observable(1))
    assert np.array_equal(c2.observable(2), new)


def test_fingerprint_tracks_content(rng):
    c = random_circuit(11, dim=2, n=2)
    assert c.fingerprint() == c.fingerprint()
    c2 = c.with_observables({1: np.eye(2)})
    assert c.fingerprint() != c2.fingerprint()


def test_transition_amplitude_ignores_observables(rng):
    c = random_circuit(13, dim=3, n=2)
    c2 = c.with_observables({1: np.zeros((3, 3)), 2: np.zeros((3, 3))})
    assert transition_amplitude(c2) == pytest.approx(transition_amplitude(c))


def test_valid_subset():
    assert valid_subset((1, 3), 3) == (1, 3)
    assert valid_subset((), 2) == ()
    with pytest.raises(ValueError):
        valid_subset((0,), 2)
    with pytest.raises(ValueError):
        valid_subset((3,), 2)
    with pytest.raises(ValueError):
        valid_subset((2, 1), 2)
    with pytest.raises(ValueError):
        valid_subset((1, 1), 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_states_past_the_float_range_raise_no_warning():
    # the norm of a 1e200 entry overflows; the state is refused, not warned about
    with pytest.raises(InvalidInput, match="normalized"):
        Circuit(psi_i=np.array([1e200, 0.0]), stages=(), u_final=np.eye(2),
                psi_f=np.array([0.0, 1.0]))
    # a post-selection needs no unit norm: a finite one past ~1e154 is
    # scaled to its unit vector, but an infinite one is refused
    for big, unit in ((1e150, 1.0), (1e200, 1.0), (1.7e308 + 1.7e308j, (1 + 1j) / np.sqrt(2))):
        c = Circuit(psi_i=np.array([1.0, 0.0]), stages=(), u_final=np.eye(2),
                    psi_f=np.array([big, 0.0]))
        assert np.allclose(c.psi_f, [unit, 0.0], rtol=1e-15, atol=0)
    with pytest.raises(InvalidInput, match="finite squared norm"):
        Circuit(psi_i=np.array([1.0, 0.0]), stages=(), u_final=np.eye(2),
                psi_f=np.array([np.inf, 0.0]))


def test_projector_constants_complete():
    assert np.allclose(P_B + P_C, np.eye(2))
    assert np.allclose(P_E + P_F, np.eye(2))
    assert np.allclose(U1_DOUBLE @ U1_DOUBLE.conj().T, np.eye(2))
    assert np.allclose(U3_DOUBLE @ U3_DOUBLE.conj().T, np.eye(2))


def random_walk_case(seed, n=None):
    """A random circuit (n in 0..6 unless given, d in 2..4) and 1..4 random
    operators per site."""
    rng = np.random.default_rng((2024, seed))
    drawn, d = int(rng.integers(0, 7)), int(rng.integers(2, 5))
    n = drawn if n is None else n
    stages = tuple((random_unitary(rng, d), random_hermitian(rng, d)) for _ in range(n))
    c = Circuit(psi_i=random_state(rng, d), stages=stages,
                u_final=random_unitary(rng, d), psi_f=random_state(rng, d))
    ops = [np.stack([random_hermitian(rng, d) @ u
                     for _ in range(int(rng.integers(1, 5)))]) for u, _ in c.stages]
    return c, ops


@pytest.mark.parametrize("seed, n", [pytest.param(seed, None, id=str(seed)) for seed in range(40)]
                         + [pytest.param(40, 0, id="no-sites")])
def test_amplitudes_match_per_row_walk(seed, n):
    c, ops = random_walk_case(seed, n)
    got = product_amplitudes(c, ops)
    assert got.shape == (np.prod([len(x) for x in ops], dtype=int),)
    # every choice of one operator per site, in C order
    choices = list(itertools.product(*[range(len(x)) for x in ops]))
    ref = per_row_walk(c, ops, np.array(choices, dtype=np.intp).reshape(len(choices), c.n))
    scale = max(np.abs(ref).max(initial=0.0), 1e-300)
    assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * scale
    if not ops:  # without sites, the one empty row is the transition amplitude
        assert transition_amplitude(c) == got[0]


def test_table_matches_per_subset_weak_values():
    c = random_circuit(77, dim=3, n=12)
    table = weak_value_table(c, 12)
    assert len(table.entries) == 2 ** 12
    rng = np.random.default_rng(5)
    for _ in range(50):
        size = int(rng.integers(1, 13))
        subset = tuple(sorted(rng.choice(np.arange(1, 13), size, replace=False).tolist()))
        ref = weak_value(c, subset)
        assert abs(table[subset] - ref) <= 1e-12 * max(abs(ref), 1.0)


def assert_tree_walk_agrees(c, rows, last, prefix):
    ops = [np.array([u, a @ u]) for u, a in c.stages]
    got = tree_amplitudes(c, [a @ u for u, a in c.stages], last, prefix)
    # bitwise the product walk's numbers, and the per-row walk's up to
    # rounding.  Both walks end in one product of their final states with
    # the bra, which is a dot for one state and otherwise a matrix-vector
    # product that rounds each row alike; so a lone entry is compared with
    # a single-row walk, up to ten sites the others with the full cube at
    # the table's rows, and beyond that each with a two-row walk (its row,
    # and the same with the other choice at site 1)
    if len(rows) == 1:
        want = product_amplitudes(c, [x[[j]] for x, j in zip(ops, rows[0])])
    elif c.n <= 10:
        want = product_amplitudes(c, ops)[rows @ 2 ** np.arange(c.n)[::-1]]
    else:
        want = np.array([
            product_amplitudes(c, [ops[0], *(x[[j]] for x, j in zip(ops[1:], row[1:]))])[row[0]]
            for row in rows])
    assert np.array_equal(got, want)
    ref = per_row_walk(c, ops, rows)
    scale = max(np.abs(ref).max(initial=0.0), 1e-300)
    assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_tree_amplitudes_match_sorting_walk(n, d):
    c = random_circuit(700 + 10 * n + d, dim=d, n=n)
    for max_order in range(n + 1):
        _, rows, last, prefix = combination_tree(n, max_order)
        assert_tree_walk_agrees(c, rows, last, prefix)
        # any order of the entries after the empty subset walks the same
        perm = np.concatenate(([0], 1 + np.random.default_rng(n).permutation(len(rows) - 1)))
        inverse = np.argsort(perm)
        got = tree_amplitudes(c, [a @ u for u, a in c.stages], last[perm], inverse[prefix[perm]])
        assert np.array_equal(got, tree_amplitudes(c, [a @ u for u, a in c.stages],
                                                   last, prefix)[perm])


def test_tree_amplitudes_first_order_at_seventy_sites():
    c = random_circuit(70, dim=2, n=70)
    assert_tree_walk_agrees(c, *combination_tree(70, 1)[1:])


def test_table_walk_does_not_call_the_product_walk(monkeypatch):
    # a truncated table is no product, so it walks its own prefix tree
    c = random_circuit(77, dim=3, n=8)
    expected = weak_value_table(c, 8).values

    def refuse(*args):
        raise AssertionError("the table walks its own prefix tree")

    monkeypatch.setattr(circuitmodel, "product_amplitudes", refuse)
    monkeypatch.setattr(weakvalue, "product_amplitudes", refuse)
    assert np.array_equal(weak_value_table(c, 8).values, expected)
    with pytest.raises(AssertionError, match="prefix tree"):
        weak_value(c, (1, 2))


@pytest.mark.parametrize("seed", range(16))
def test_stacked_site_spectra_equal_per_site_eig_hermitian(seed):
    # one stacked eigh over all sites gives bitwise each site's own
    # eigendecomposition, a stack of one: general, degenerate (rotated and
    # diagonal projectors) and identity observables, d = 1..8
    rng = np.random.default_rng((4096, seed))
    d, n = seed % 8 + 1, int(rng.integers(1, 7))
    kinds = rng.permutation(["hermitian", "rotated", "proj", "identity"] * 2)[:n]
    stages = []
    for kind in kinds:
        if kind == "hermitian":
            a = random_hermitian(rng, d)
        elif kind == "rotated":
            a = random_projector(rng, d, rank=int(rng.integers(1, d + 1)))
        elif kind == "proj":
            a = np.diag(rng.integers(0, 2, d)).astype(complex)
        else:
            a = np.eye(d, dtype=complex)
        stages.append((random_unitary(rng, d), a))
    c = Circuit(psi_i=random_state(rng, d), stages=tuple(stages),
                u_final=random_unitary(rng, d), psi_f=random_state(rng, d))
    sites = circuitmodel.eigenbases(c)
    assert len(sites.eigenvalues) == n
    for (_, a), eigs, merged, labels, vectors in zip(c.stages, sites.eigenvalues, sites.merged,
                                                     sites.labels, sites.vectors):
        ref_eigs, ref_vectors, ref_labels = one_spectrum(a)
        assert tuple(eigs.tolist()) == ref_eigs
        assert np.array_equal(vectors, ref_vectors)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(merged, eigs[labels])
        # the columns labelled a span the eigenspace of eigenvalue a
        assert np.allclose((vectors * merged) @ vectors.conj().T, a, atol=1e-12)
    # the hops, the start coordinates and the bra, one matrix at a time
    v = sites.vectors
    for i, hop in enumerate(sites.hops):
        assert np.allclose(hop, v[i + 1].conj().T @ c.stages[i + 1][0] @ v[i], atol=1e-14)
    assert sites.hops.shape == (n - 1, d, d)
    assert np.allclose(sites.start, v[0].conj().T @ c.stages[0][0] @ c.psi_i, atol=1e-14)
    assert np.allclose(sites.bra, v[-1].conj().T @ c.u_final.conj().T @ c.psi_f, atol=1e-14)
    # the no-site circuit normalizes c.psi_f again, which may move it by an
    # ulp: its bra is bitwise that of its own psi_f
    bare = Circuit(psi_i=c.psi_i, stages=(), u_final=c.u_final, psi_f=c.psi_f)
    no_sites = circuitmodel.eigenbases(bare)
    assert no_sites.eigenvalues == () and no_sites.labels.shape == (0, d)
    assert no_sites.hops.shape == (0, d, d)
    assert np.array_equal(no_sites.start, c.psi_i)
    assert np.array_equal(no_sites.bra, c.u_final.conj().T @ bare.psi_f)
