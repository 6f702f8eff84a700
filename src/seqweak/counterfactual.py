"""Counterfactuality of post-selected outcomes, three equivalent ways.

An outcome is counterfactual by histories when every on/off insertion
history containing an "on" projector has zero amplitude; by weak values
when every sequential weak value of the on-projectors vanishes; by general
weak interactions when every weak coupling restricted to the on-projectors
yields a null result.  The three verdicts must always agree.  Each
definition reads one forward walk (`circuitmodel.amplitudes`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .circuitmodel import Circuit, amplitudes, transition_amplitude, valid_subset
from .errors import (BothZero, DimMismatch, EquivalenceViolation, InvalidInput,
                     NotProjector, NumericallySingular)
from .oracle import _kicks
from .weakvalue import weak_values

ZERO_TOL = 1e-10
ANCILLA_DIM = 2  # the Definition-3 probes' shared ancilla
DEF3_BLOCK = 1 << 14  # ancilla states (trials x subsets x histories) per block


@dataclass(frozen=True)
class InsertionSet:
    sites: tuple[int, ...]
    on_projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projectors = tuple(algebra.as_operator(p) for p in self.on_projectors)
        if len(projectors) != len(self.sites):
            raise InvalidInput("one projector per insertion site")
        for p in projectors:
            if not algebra.is_projector(p, 1e-10):
                raise NotProjector("insertion must be a Hermitian idempotent")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "on_projectors", projectors)

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class CounterfactualReport:
    def1_holds: bool
    def2_holds: bool
    witness_history: str | None
    witness_subset: tuple[int, ...] | None
    witness_value: complex | None
    def3_samples: tuple[tuple[str, float], ...] = ()
    def3_null: bool | None = None


def all_histories(k: int):
    """All length-k histories in lexicographic order with F < N."""
    return ["".join(h) for h in itertools.product("FN", repeat=k)]


def history_amplitudes(c: Circuit, ins: InsertionSet) -> dict[str, complex]:
    """Amplitude of every history in `all_histories` order: the on-projector
    (N) or its complement (F) inserted at each insertion site per the
    history string, identity elsewhere."""
    sites = valid_subset(ins.sites, c.n)
    for site, p in zip(sites, ins.on_projectors):
        if p.shape != (c.dim, c.dim):
            raise DimMismatch(f"site {site} on-projector is {p.shape[0]}x{p.shape[1]}, "
                              f"the circuit's dimension is {c.dim}")
    on = dict(zip(sites, ins.on_projectors))
    ops = [np.stack([u - on[k] @ u, on[k] @ u]) if k in on else u[None]
           for k, (u, _) in enumerate(c.stages, start=1)]
    histories = all_histories(len(ins))
    rows = np.zeros((len(histories), c.n), dtype=np.uint8)
    rows[:, [s - 1 for s in sites]] = list(itertools.product((0, 1), repeat=len(ins)))
    return dict(zip(histories, amplitudes(c, ops, rows).tolist()))


def is_counterfactual_histories(c: Circuit, ins: InsertionSet):
    """Definition by histories; witness is the first N-containing history
    (lexicographic, F < N) with nonvanishing amplitude."""
    return _first_on_history(history_amplitudes(c, ins).items())


def _first_on_history(histories):
    h = next((h for h, amp in histories if "N" in h and abs(amp) > ZERO_TOL), None)
    return h is None, h


def _on_circuit(c: Circuit, ins: InsertionSet) -> Circuit:
    return c.with_observables(dict(zip(ins.sites, ins.on_projectors)))


def insertion_subsets(ins: InsertionSet):
    """Nonempty subsets of insertion sites, by size then lexicographic."""
    for r in range(1, len(ins) + 1):
        yield from itertools.combinations(ins.sites, r)


def is_counterfactual_weakvalues(c: Circuit, ins: InsertionSet):
    """Definition by weak values; witness is the first subset of insertion
    sites whose sequential weak value of the on-projectors is nonzero."""
    valid_subset(ins.sites, c.n)
    subsets = list(insertion_subsets(ins))
    wv = weak_values(_on_circuit(c, ins), subsets).tolist()
    return _first_on_subset(zip(subsets, wv))


def _first_on_subset(weak_values_by_subset):
    hit = next(((s, wv) for s, wv in weak_values_by_subset if abs(wv) > ZERO_TOL), None)
    return hit is None, hit


def check_equivalence_def1_def2(c: Circuit, ins: InsertionSet) -> bool:
    """Definition-1 and Definition-2 verdicts computed independently, from
    one history walk and one weak-value walk, must agree; also verifies the
    F = I - N expansion of each history amplitude into signed subset
    numerators."""
    amps = history_amplitudes(c, ins)
    d1, _ = _first_on_history(amps.items())
    subsets = [()] + list(insertion_subsets(ins))
    wv = weak_values(_on_circuit(c, ins), subsets)
    d2, _ = _first_on_subset(zip(subsets[1:], wv[1:].tolist()))
    if d1 != d2:
        raise EquivalenceViolation(
            f"histories says {d1}, weak values says {d2}")

    numerators = dict(zip(subsets, (transition_amplitude(c) * wv).tolist()))
    for h, amp in amps.items():
        n_sites = tuple(s for s, sym in zip(ins.sites, h) if sym == "N")
        f_sites = tuple(s for s, sym in zip(ins.sites, h) if sym == "F")
        total = 0.0 + 0.0j
        for extra in itertools.chain.from_iterable(
                itertools.combinations(f_sites, r) for r in range(len(f_sites) + 1)):
            subset = tuple(sorted(n_sites + extra))
            total += (-1) ** len(extra) * numerators[subset]
        if abs(total - amp) > 1e-10:
            raise EquivalenceViolation(
                f"history {h} amplitude does not match its subset expansion")
    return d1


def determines_output(c_out0: Circuit, c_out1: Circuit) -> bool:
    """True iff the post-selected outcome occurs for exactly one of the two
    computer programmings."""
    p0 = abs(transition_amplitude(c_out0)) ** 2
    p1 = abs(transition_amplitude(c_out1)) ** 2
    if p0 <= 1e-20 and p1 <= 1e-20:
        raise BothZero("the outcome never occurs in either variant")
    return (p0 > 1e-20) != (p1 > 1e-20)


def _subset_amplitudes(table: np.ndarray, k: int) -> list[np.ndarray]:
    """Per subset size r = 1..k, the (C(k, r), 2^r) history amplitudes of
    the size-r subsets of the k insertion sites, in `insertion_subsets`
    order, as marginals of the whole set's table (`all_histories` order):
    the F and N histories of a site left out sum to it, since F + N = 1."""
    cube = np.asarray(table).reshape((2,) * k)
    return [np.stack([cube.sum(axis=tuple(i for i in range(k) if i not in kept)).reshape(-1)
                      for kept in itertools.combinations(range(k), r)])
            for r in range(1, k + 1)]


def _draw_width(r: int) -> int:
    """Normal draws of one probe at a size-r subset: r Hamiltonians and the
    observable (real then imaginary d x d parts each), then the state (real
    then imaginary d-vector)."""
    return 2 * ANCILLA_DIM**2 * (r + 1) + 2 * ANCILLA_DIM


def _def3_responses(amps: list[np.ndarray], draws: np.ndarray, g: float) -> np.ndarray:
    """The Definition-3 ancilla responses of a block of trials, shape
    (trials, subsets) in `insertion_subsets` order.

    ``amps`` is `_subset_amplitudes`; row t of ``draws`` holds trial t's
    normal draws, subset after subset, each as `_draw_width` says.  All the
    block's kicks come from one `_kicks` call; each subset's post-selected
    ancilla state sums its history amplitudes times the kicks of the
    history's "on" sites, applied in site order (`_ancilla_response`).  At
    g = 0 every kick is the identity, so the baseline is sum(amps) * state.
    """
    d = ANCILLA_DIM
    trials = len(draws)
    probes, hams, lo = [], [], 0
    for r, group in enumerate(amps, start=1):
        width = _draw_width(r)
        cols = draws[:, lo:lo + len(group) * width].reshape(trials, len(group), width)
        lo += len(group) * width
        parts = cols[..., :-2 * d].reshape(trials, len(group), r + 1, 2, d, d)
        m = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
        herm = (m + m.conj().swapaxes(-1, -2)) / 2
        state = cols[..., -2 * d:-d] + 1j * cols[..., -d:]
        state = state / np.linalg.norm(state, axis=-1, keepdims=True)
        probes.append((group, herm[:, :, r], state))
        hams.append(herm[:, :, :r].reshape(-1, d, d))
    kicks = _kicks(np.concatenate(hams), g, d)

    out, lo = [], 0
    for r, (group, obs, state) in enumerate(probes, start=1):
        kick = kicks[lo:lo + trials * len(group) * r].reshape(trials, len(group), r, d, d)
        lo += trials * len(group) * r
        # one ancilla state per history, in `all_histories` order
        states = state[:, :, None, :]
        for j in range(r):
            kicked = states @ kick[:, :, j].swapaxes(-1, -2)
            states = np.stack([states, kicked], axis=3).reshape(trials, len(group), -1, d)
        chi = (group[None, :, None, :] @ states)[:, :, 0, :]
        baseline = group.sum(axis=1)[None, :, None] * state
        out.append(_expectation(chi, obs) - _expectation(baseline, obs))
    return np.concatenate(out, axis=1)


def _expectation(chi: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """<chi|obs|chi> / <chi|chi> over the leading axes, real part."""
    norm = np.sum((chi.conj() * chi).real, axis=-1)
    if np.any(norm < 1e-28):
        raise NumericallySingular("post-selected ancilla state vanishes")
    # matmuls, whose rounding does not depend on the number of trials
    val = chi.conj()[..., None, :] @ (obs @ chi[..., None])
    return val[..., 0, 0].real / norm


def randomized_def3_test(c: Circuit, ins: InsertionSet, trials: int, g: float,
                         seed: int) -> CounterfactualReport:
    """Probe Definition 3 with random weak interactions restricted to the
    on-projectors: random ancilla Hamiltonians, observables and states,
    coupled via a shared ancilla at every nonempty subset of insertion
    sites.  Null responses (within tolerance) are required exactly when the
    weak-value definition holds.

    One history walk over the whole insertion set serves Definition 1 and,
    as marginals (`_subset_amplitudes`), every subset's responses.  The
    draws come from ``numpy.random.default_rng(seed)``: trial by trial,
    subset by subset in `insertion_subsets` order, each subset's
    Hamiltonians in site order, then its observable, then its state.
    A trial carries 3^k ancilla states for k insertions; trials run in
    blocks of DEF3_BLOCK // 3^k (at least one), one normal draw and one
    stacked kick solve per block (`_def3_responses`), so the cost is linear
    in ``trials`` and the working memory is bounded.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if not (np.isfinite(g) and g > 0):
        raise InvalidInput(f"coupling must be finite and positive, got {g}")
    d2, wit2 = is_counterfactual_weakvalues(c, ins)
    table = np.array(list(history_amplitudes(c, ins).values()))
    d1, wit1 = _first_on_history(zip(all_histories(len(ins)), table))
    if d1 != d2:
        raise EquivalenceViolation(f"histories says {d1}, weak values says {d2}")

    f = transition_amplitude(c)
    tol3 = 1e-8 * (1.0 + 1.0 / abs(f)) * g**2
    amps = _subset_amplitudes(table, len(ins))
    labels = [f"subset={subset}" for subset in insertion_subsets(ins)]
    width = sum(len(group) * _draw_width(r) for r, group in enumerate(amps, start=1))
    # a trial carries 3^k ancilla states: 2^r histories per size-r subset
    block = max(1, DEF3_BLOCK // 3 ** len(ins))
    rng = np.random.default_rng(seed)
    samples = []
    null = True
    for lo in range(0, trials, block):
        n = min(block, trials - lo)
        resp = np.abs(_def3_responses(amps, rng.standard_normal((n, width)), g))
        null = null and not np.any(resp > tol3)
        samples += [(f"trial={lo + t} {label}", r)
                    for t, row in enumerate(resp.tolist()) for label, r in zip(labels, row)]

    return CounterfactualReport(
        def1_holds=d1,
        def2_holds=d2,
        witness_history=wit1,
        witness_subset=None if wit2 is None else wit2[0],
        witness_value=None if wit2 is None else wit2[1],
        def3_samples=tuple(samples),
        def3_null=null,
    )
