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
from .errors import BothZero, EquivalenceViolation, InvalidInput, NotProjector
from .oracle import _ancilla_response
from .weakvalue import weak_values

ZERO_TOL = 1e-10
ANCILLA_DIM = 2  # the Definition-3 probes' shared ancilla


@dataclass(frozen=True)
class InsertionSet:
    sites: tuple[int, ...]
    on_projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projectors = tuple(algebra.as_operator(p) for p in self.on_projectors)
        if len(projectors) != len(self.sites):
            raise ValueError("one projector per insertion site")
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


def _random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def randomized_def3_test(c: Circuit, ins: InsertionSet, trials: int, g: float,
                         seed: int) -> CounterfactualReport:
    """Probe Definition 3 with random weak interactions restricted to the
    on-projectors: random ancilla Hamiltonians, observables and states,
    coupled via a shared ancilla at every nonempty subset of insertion
    sites.  Null responses (within tolerance) are required exactly when the
    weak-value definition holds."""
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if not (np.isfinite(g) and g > 0):
        raise InvalidInput(f"coupling must be finite and positive, got {g}")
    d2, wit2 = is_counterfactual_weakvalues(c, ins)
    proj_by_site = dict(zip(ins.sites, ins.on_projectors))
    # per subset, not per trial; Definition 1 reads the last, the whole set
    amps = {subset: np.array(list(history_amplitudes(c, InsertionSet(
                subset, tuple(proj_by_site[site] for site in subset))).values()))
            for subset in insertion_subsets(ins)}
    d1, wit1 = _first_on_history(zip(all_histories(len(ins)), amps[ins.sites]))
    if d1 != d2:
        raise EquivalenceViolation(f"histories says {d1}, weak values says {d2}")

    f = transition_amplitude(c)
    tol3 = 1e-8 * (1.0 + 1.0 / abs(f)) * g**2
    rng = np.random.default_rng(seed)
    samples = []
    null = True
    for trial in range(trials):
        for subset, subset_amps in amps.items():
            hams = [_random_hermitian(rng, ANCILLA_DIM) for _ in subset]
            obs = _random_hermitian(rng, ANCILLA_DIM)
            state = rng.standard_normal(ANCILLA_DIM) + 1j * rng.standard_normal(ANCILLA_DIM)
            state = state / np.linalg.norm(state)
            resp = _ancilla_response(subset_amps, hams, obs, state, g)
            samples.append((f"trial={trial} subset={subset}", abs(resp)))
            if abs(resp) > tol3:
                null = False

    return CounterfactualReport(
        def1_holds=d1,
        def2_holds=d2,
        witness_history=wit1,
        witness_subset=None if wit2 is None else wit2[0],
        witness_value=None if wit2 is None else wit2[1],
        def3_samples=tuple(samples),
        def3_null=null,
    )
