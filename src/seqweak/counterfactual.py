"""Counterfactuality of post-selected outcomes, three equivalent ways.

An outcome is counterfactual by histories when every on/off insertion
history containing an "on" projector has zero amplitude; by weak values
when every sequential weak value of the on-projectors vanishes; by general
weak interactions when every weak coupling restricted to the on-projectors
yields a null result.  The three verdicts must always agree.  Each
definition reads one forward walk (`circuitmodel.product_amplitudes`) of the
circuit itself, over the operators of `_insertion_ops`: the histories are
every choice of (1 - N) U or N U at the insertion sites, the weak values
every choice of U or N U, a (2,) * k cube either way.  Every
ancilla response, of one probe (`joint_response`) or of a block of random
Definition-3 probes (`randomized_def3_test`), is one contraction of
history amplitudes with kicked ancilla states (`_responses`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .circuitmodel import Circuit, product_amplitudes, transition_amplitude, valid_subset
from .errors import (BothZero, DimMismatch, EquivalenceViolation, InvalidInput,
                     NotHermitian, NotProjector, NumericallySingular)
from .pointer import check_coupling, check_seed
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
        sizes = sorted({len(p) for p in projectors})
        if len(sizes) > 1:
            raise DimMismatch(f"insertion projectors of sizes {sizes} cannot share a circuit")
        d = sizes[0] if sizes else 0
        stack = np.array(projectors, dtype=complex).reshape(len(projectors), d, d)
        if not np.all(algebra.projector_deviations(stack) <= 1e-10):
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


def _insertion_ops(c: Circuit, ins: InsertionSet, complement: bool) -> list[np.ndarray]:
    """Per site, the operators a walk picks from
    (`circuitmodel.product_amplitudes`): U alone off the insertion sites; at
    one, N U as choice 1 and as choice 0 (1 - N) U if ``complement`` (the
    histories), else U (the weak values)."""
    sites = valid_subset(ins.sites, c.n)
    for site, p in zip(sites, ins.on_projectors):
        if p.shape != (c.dim, c.dim):
            raise DimMismatch(f"site {site} on-projector is {p.shape[0]}x{p.shape[1]}, "
                              f"the circuit's dimension is {c.dim}")
    on = dict(zip(sites, ins.on_projectors))
    return [np.stack([u - on[k] @ u if complement else u, on[k] @ u]) if k in on else u[None]
            for k, (u, _) in enumerate(c.stages, start=1)]


def history_amplitudes(c: Circuit, ins: InsertionSet) -> dict[str, complex]:
    """Amplitude of every history in `all_histories` order: the on-projector
    (N) or its complement (F) inserted at each insertion site per the
    history string, identity elsewhere."""
    amps = product_amplitudes(c, _insertion_ops(c, ins, complement=True))
    return dict(zip(all_histories(len(ins)), amps.tolist()))


def is_counterfactual_histories(c: Circuit, ins: InsertionSet):
    """Definition by histories; witness is the first N-containing history
    (lexicographic, F < N) with nonvanishing amplitude."""
    return _first_on_history(history_amplitudes(c, ins).items())


def _first_on_history(histories):
    h = next((h for h, amp in histories if "N" in h and abs(amp) > ZERO_TOL), None)
    return h is None, h


def insertion_subsets(ins: InsertionSet):
    """Nonempty subsets of insertion sites, by size then lexicographic."""
    for r in range(1, len(ins) + 1):
        yield from itertools.combinations(ins.sites, r)


def is_counterfactual_weakvalues(c: Circuit, ins: InsertionSet):
    """Definition by weak values; witness is the first subset of insertion
    sites whose sequential weak value of the on-projectors is nonzero."""
    return _first_on_subset(ins, weak_values(c, ins.sites,
                                             _insertion_ops(c, ins, complement=False)))


def _first_on_subset(ins: InsertionSet, cube: np.ndarray):
    """The Definition-2 verdict and witness from the (2,) * k cube of weak
    values of the insertion subsets, read in `insertion_subsets` order."""
    values = ((s, complex(cube[tuple(int(i in s) for i in ins.sites)]))
              for s in insertion_subsets(ins))
    hit = next(((s, wv) for s, wv in values if abs(wv) > ZERO_TOL), None)
    return hit is None, hit


def check_equivalence_def1_def2(c: Circuit, ins: InsertionSet) -> bool:
    """Definition-1 and Definition-2 verdicts computed independently, from
    one history walk and one weak-value walk, must agree; also verifies the
    F = I - N expansion of each history amplitude into signed subset
    numerators."""
    amps = history_amplitudes(c, ins)
    d1, _ = _first_on_history(amps.items())
    wv = weak_values(c, ins.sites, _insertion_ops(c, ins, complement=False))
    d2, _ = _first_on_subset(ins, wv)
    if d1 != d2:
        raise EquivalenceViolation(
            f"histories says {d1}, weak values says {d2}")

    # F = 1 - N at each insertion site: along every axis of the numerator
    # cube, the F history's amplitude is the U entry less the N entry
    expanded = transition_amplitude(c) * wv
    for axis in range(len(ins)):
        on = expanded.take(1, axis)
        expanded = np.stack([expanded.take(0, axis) - on, on], axis)
    for (h, amp), total in zip(amps.items(), expanded.reshape(-1).tolist()):
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
    (trials, subsets) in `insertion_subsets` order (`_responses`).

    ``amps`` is `_subset_amplitudes`; row t of ``draws`` holds trial t's
    normal draws, subset after subset, each as `_draw_width` says.
    """
    d = ANCILLA_DIM
    trials = len(draws)
    hams, obs, states, lo = [], [], [], 0
    for r, group in enumerate(amps, start=1):
        width = _draw_width(r)
        cols = draws[:, lo:lo + len(group) * width].reshape(trials, len(group), width)
        lo += len(group) * width
        parts = cols[..., :-2 * d].reshape(trials, len(group), r + 1, 2, d, d)
        m = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
        herm = (m + m.conj().swapaxes(-1, -2)) / 2
        state = cols[..., -2 * d:-d] + 1j * cols[..., -d:]
        hams.append(herm[:, :, :r])
        obs.append(herm[:, :, r])
        states.append(state / np.linalg.norm(state, axis=-1, keepdims=True))
    return _responses(amps, hams, obs, states, g)


def _responses(amps, hams, obs, states, g: float) -> np.ndarray:
    """Ancilla responses of groups of probes, shape (trials, probes), the
    groups side by side.  A probe of group i couples r sites: ``amps[i]``,
    shape (probes, 2^r), holds its history amplitudes in `all_histories`
    order, and the (trials, probes, ...) arrays ``hams[i]``, ``obs[i]`` and
    ``states[i]`` its r ancilla Hamiltonians in site order, its ancilla
    observable and its ancilla state.

    As exp(-i g N (x) h) = (1 - N) (x) 1 + N (x) exp(-i g h), the
    post-selected ancilla state sums the history amplitudes times the state
    kicked by the history's "on" sites in site order; the baseline sums them
    times un-kicked copies of the state, so both agree exactly at g = 0.
    All the kicks come from one `_kicks` call.
    """
    d = states[0].shape[-1]
    kicks = _kicks(np.concatenate([h.reshape(-1, d, d) for h in hams]), g, d)
    out, lo = [], 0
    for group, h, ob, state in zip(amps, hams, obs, states):
        trials, size, r = h.shape[:3]
        kick = kicks[lo:lo + trials * size * r].reshape(h.shape)
        lo += trials * size * r
        # one ancilla state per history, in `all_histories` order
        kicked = state[:, :, None, :]
        for j in range(r):
            step = kicked @ kick[:, :, j].swapaxes(-1, -2)
            kicked = np.stack([kicked, step], axis=3).reshape(trials, size, -1, d)
        both = np.stack([kicked, np.repeat(state[:, :, None, :], 2**r, axis=2)])
        chi, base = _expectation((group[:, None, :] @ both)[..., 0, :], ob)
        out.append(chi - base)
    return np.concatenate(out, axis=1)


def _kicks(hams: list[np.ndarray], g: float, dim: int) -> np.ndarray:
    """The kicks exp(-i g h), stacked in the order of ``hams``, from one
    stacked eigendecomposition of the Hermitian parts (h + h^dag) / 2:
    exp(-i g h) = 1 + V diag(expm1(-i g lambda)) V^dag, which is exactly the
    identity at g = 0 and keeps its relative accuracy at small g."""
    h = np.asarray(hams, dtype=complex).reshape(len(hams), dim, dim)
    lam, vecs = np.linalg.eigh((h + h.conj().swapaxes(1, 2)) / 2)
    phases = np.expm1(-1j * g * lam)
    return np.eye(dim) + (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def _expectation(chi: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """<chi|obs|chi> / <chi|chi> over the leading axes, real part."""
    norm = np.sum((chi.conj() * chi).real, axis=-1)
    if np.any(norm < 1e-28):
        raise NumericallySingular("post-selected ancilla state vanishes")
    # matmuls, whose rounding does not depend on the number of trials
    val = chi.conj()[..., None, :] @ (obs @ chi[..., None])
    return val[..., 0, 0].real / norm


def joint_response(c: Circuit, couplings: dict[int, tuple[np.ndarray, np.ndarray]],
                   anc_obs, anc_state, g: float) -> float:
    """Exact ancilla response for weak interactions exp(-i g N~ (x) h) applied
    at the given sites (shared ancilla), relative to the g = 0 baseline.

    ``couplings`` maps a 1-based site to its (restriction projector, ancilla
    Hamiltonian); the response is one probe of `_responses`.
    """
    check_coupling(g)
    anc_state = algebra.as_vector(anc_state)
    anc_obs = algebra.as_operator(anc_obs)
    sites = valid_subset(sorted(couplings), c.n)
    ins = InsertionSet(sites, tuple(couplings[s][0] for s in sites))
    hams = [algebra.as_operator(couplings[s][1]) for s in sites]
    named = [("ancilla observable", anc_obs),
             *((f"site {s} ancilla Hamiltonian", h) for s, h in zip(sites, hams))]
    for name, m in named:
        if len(m) != len(anc_state):
            raise DimMismatch(f"{name} is {len(m)}x{len(m)}, but the ancilla state "
                              f"has {len(anc_state)} entries")
        dev = algebra.hermitian_deviations(m)
        if not dev <= algebra.HERMITIAN_TOL:
            raise NotHermitian(f"{name}: max deviation {dev:.3e}")
    amps = np.array(list(history_amplitudes(c, ins).values()))
    resp = _responses([amps[None]], [np.reshape(hams, (1, 1, len(hams), *anc_obs.shape))],
                      [anc_obs[None, None]], [anc_state[None, None]], g)
    return float(resp[0, 0])


def weak_interaction_response(c: Circuit, site: int, restriction, h_anc,
                              anc_obs, anc_state, g: float) -> float:
    """Exact expectation shift of an ancilla observable after the weak
    interaction exp(-i g restriction (x) h_anc) at one site."""
    return joint_response(c, {site: (algebra.as_operator(restriction),
                                     algebra.as_operator(h_anc))},
                          anc_obs, anc_state, g)


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
    g = float(g)
    if not np.isfinite(g * g):  # keeps the kicks' phases g lambda inside the float range
        raise InvalidInput(f"coupling {g} is too large: its square overflows")
    check_seed(seed)
    d2, wit2 = is_counterfactual_weakvalues(c, ins)
    table = np.array(list(history_amplitudes(c, ins).values()))
    d1, wit1 = _first_on_history(zip(all_histories(len(ins)), table))
    if d1 != d2:
        raise EquivalenceViolation(f"histories says {d1}, weak values says {d2}")

    f = transition_amplitude(c)
    # responses grow as g^2 only while g is small; they stay below about 3
    tol3 = 1e-8 * (1.0 + 1.0 / abs(f)) * min(g * g, 1.0)
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
