"""Single and sequential weak values, plus the algebraic rules they obey.

The stored weak value for a subset (i1 < ... < ir) of measurement sites is
the sequential weak value with the later observables applied on the left,
i.e. the operators appear in reverse time order inside the matrix element.
`weak_values` computes any list of them in one `circuitmodel.amplitudes` walk.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import algebra
from .circuitmodel import Circuit, amplitudes, valid_subset
from .errors import (
    BasisIncomplete,
    DegeneratePostSelection,
    DimMismatch,
    InvalidInput,
    NonCommuting,
    RatioUndefined,
)

F_TOL = 1e-12
HUGE_WEAK_VALUE = 1e6
BRANCH_TOL = 1e-10  # a strong-measurement branch below this never occurs
# `product_weak_value` reconstructs from <q1 q2> at this coupling, with a
# Gaussian pointer of this width
PRODUCT_G = 1e-3
PRODUCT_SIGMA = 1.0


def weak_values(c: Circuit, subsets) -> np.ndarray:
    """Sequential weak values of ``subsets``, in order, over the F of the
    same walk.  The subsets are not validated: each must be a strictly
    increasing tuple of 1-based sites of ``c``."""
    sizes = [len(s) for s in subsets]
    rows = np.zeros((len(subsets) + 1, c.n), dtype=np.uint8)
    sites = np.fromiter(itertools.chain.from_iterable(subsets), np.intp, sum(sizes))
    rows[np.repeat(np.arange(1, len(rows)), sizes), sites - 1] = 1
    amps = amplitudes(c, [np.array([u, a @ u]) for u, a in c.stages], rows)
    f = amps[0]
    if abs(f) <= F_TOL:
        raise DegeneratePostSelection(f"|F| = {abs(f):.3e} <= {F_TOL}")
    wv = amps[1:] / f
    biggest = np.abs(wv).max(initial=0.0)
    if biggest > HUGE_WEAK_VALUE:
        warnings.warn(
            f"weak value of modulus {biggest:.3e} is huge; post-selection is nearly orthogonal",
            RuntimeWarning,
            stacklevel=2,
        )
    return wv


def weak_value(c: Circuit, subset) -> complex:
    return complex(weak_values(c, [valid_subset(subset, c.n)])[0])


@dataclass(frozen=True)
class WeakValueTable:
    entries: dict[tuple[int, ...], complex]
    circuit_fingerprint: str

    def __getitem__(self, subset) -> complex:
        return self.entries[tuple(subset)]


def weak_value_table(c: Circuit, max_order: int) -> WeakValueTable:
    """All sequential weak values for subsets of size <= max_order,
    enumerated in (size, lexicographic) order."""
    if max_order > c.n:
        raise InvalidInput(f"max_order {max_order} exceeds n = {c.n}")
    if max_order < 0:
        raise InvalidInput(f"max_order {max_order} is negative")
    subsets = [s for r in range(1, max_order + 1)
               for s in itertools.combinations(range(1, c.n + 1), r)]
    entries: dict[tuple[int, ...], complex] = {(): 1.0 + 0.0j}
    entries.update(zip(subsets, weak_values(c, subsets).tolist()))
    return WeakValueTable(entries, c.fingerprint())


def check_linearity(c: Circuit, c_prime: Circuit, site: int) -> float:
    """|wv(A) + wv(A') - wv(A + A')| for the observable at ``site``."""
    a = c.observable(site)
    a_prime = c_prime.observable(site)
    if a.shape != a_prime.shape:
        raise DimMismatch("observables differ in dimension")
    c_sum = c.with_observables({site: a + a_prime})
    full = tuple(range(1, c.n + 1))
    return abs(weak_value(c, full) + weak_value(c_prime, full) - weak_value(c_sum, full))


def check_marginal(c: Circuit, subset, drop: int) -> float:
    """Marginals rule: replacing the observable at ``drop`` by the identity
    is the same expression as removing ``drop`` from the subset."""
    s = valid_subset(subset, c.n)
    if drop not in s:
        raise ValueError(f"site {drop} not in subset {s}")
    with_identity = c.with_observables({drop: np.eye(c.dim)})
    reduced = tuple(i for i in s if i != drop)
    return abs(weak_value(with_identity, s) - weak_value(c, reduced))


def check_strong_agreement(c: Circuit) -> float | None:
    """If strong measurements of all observables are deterministic under
    this pre/post-selection, return |wv(full) - a_1 a_2 ... a_n|; otherwise
    return None.

    Determinism means every measurement history with nonzero amplitude
    (post-selection included) carries one and the same eigenvalue sequence.
    """
    from .oracle import branch_decompose

    bs = branch_decompose(c)
    surviving = [seq for seq, amp in bs.branches if abs(amp) > BRANCH_TOL]
    if not surviving:
        return None
    first = surviving[0]
    for seq in surviving[1:]:
        if any(abs(x - y) > 1e-9 for x, y in zip(seq, first)):
            return None
    product = float(np.prod(first)) if first else 1.0
    return abs(weak_value(c, tuple(range(1, c.n + 1))) - product)


def ratio_rule_check(c: Circuit, alt_obs2) -> float:
    """Projector ratio rule for a two-site circuit whose first observable is
    a rank-1 projector |x><x|.

    Compares (A2, P)_w / (A2', P)_w against A2_w / A2'_w computed on the
    truncated circuit that starts in |x> at the second stage.
    """
    if c.n != 2:
        raise ValueError("ratio rule applies to two-site circuits")
    p = c.observable(1)
    if not algebra.is_projector(p, 1e-10) or abs(np.trace(p) - 1.0) > 1e-8:
        raise ValueError("first observable must be a rank-1 projector")
    vals, vecs = np.linalg.eigh(p)
    x = vecs[:, int(np.argmax(vals))]

    alt = c.with_observables({2: alt_obs2})
    num1 = weak_value(c, (1, 2))
    den1 = weak_value(alt, (1, 2))

    u2, a2 = c.stages[1]
    truncated = Circuit(psi_i=x, stages=((u2, a2),), u_final=c.u_final, psi_f=c.psi_f)
    truncated_alt = truncated.with_observables({1: alt_obs2})
    num2 = weak_value(truncated, (1,))
    den2 = weak_value(truncated_alt, (1,))

    if abs(den1) <= 1e-12 or abs(den2) <= 1e-12:
        raise RatioUndefined("denominator weak value vanishes")
    return abs(num1 / den1 - num2 / den2)


@dataclass(frozen=True)
class ProductWeakValue:
    value: complex
    correlation_reconstruction: float  # 2<q1 q2>/g^2 - Re[(A1)_w conj((A2)_w)]


def product_weak_value(c: Circuit) -> ProductWeakValue:
    """Weak value of a product of two commuting observables at one time.

    The circuit must hold the two observables at consecutive boundaries with
    identity evolution in between.  Also reports the reconstruction of
    Re (A2 A1)_w from the predicted position correlation <q1 q2>, which
    must match the real part of the direct value.
    """
    from .pointer import MomentSpec, PointerProfile, predict_moment

    if c.n != 2:
        raise ValueError("expected a circuit with exactly two observables")
    u2, a2 = c.stages[1]
    if np.max(np.abs(u2 - np.eye(c.dim))) > 1e-12:
        raise ValueError("the intervening unitary must be the identity")
    a1 = c.observable(1)
    if np.max(np.abs(a1 @ a2 - a2 @ a1)) > 1e-10:
        raise NonCommuting("observables at one time must commute")

    w1, w2, value = weak_values(c, [(1,), (2,), (1, 2)]).tolist()
    q1q2 = predict_moment(c, MomentSpec.parse("q1*q2"), PRODUCT_G,
                          PointerProfile.gaussian(PRODUCT_SIGMA))
    rec = 2.0 * q1q2 / PRODUCT_G**2 - (w1 * np.conj(w2)).real
    return ProductWeakValue(value=value, correlation_reconstruction=rec)


def _complete_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) whose first column is x, by Gram-Schmidt
    against the standard basis."""
    d = x.shape[0]
    cols = [x / np.linalg.norm(x)]
    for e in np.eye(d, dtype=complex):
        v = e - sum(np.vdot(c, e) * c for c in cols)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            cols.append(v / nrm)
        if len(cols) == d:
            break
    return np.column_stack(cols)


def path_amplitude_identity(c: Circuit, bases=None) -> float:
    """Deviation between wv(full subset) and the ratio of the path amplitude
    through the measured rank-1 projectors to the sum over all paths.

    ``bases`` optionally supplies, per stage, an orthonormal basis (columns)
    whose first column is the projected direction.
    """
    xs = []
    for k in range(1, c.n + 1):
        p = c.observable(k)
        if not algebra.is_projector(p, 1e-10) or abs(np.trace(p) - 1.0) > 1e-8:
            raise ValueError(f"observable at site {k} is not a rank-1 projector")
        vals, vecs = np.linalg.eigh(p)
        xs.append(vecs[:, int(np.argmax(vals))])

    if bases is None:
        bases = [_complete_basis(x) for x in xs]
    else:
        bases = [np.asarray(b, dtype=complex) for b in bases]
        for b, x in zip(bases, xs):
            if not algebra.is_unitary(b, 1e-9):
                raise BasisIncomplete("per-stage basis is not orthonormal-complete")
            if min(np.linalg.norm(b[:, j] - x) for j in range(b.shape[1])) > 1e-9:
                raise BasisIncomplete("basis does not contain the projected direction")

    # Row 0 walks through the measured directions |x_k><x_k| U_k, the other
    # rows through every choice of basis vectors |b_j><b_j| U_k per stage.
    ops = [np.stack([np.outer(x, x.conj())] + [np.outer(b, b.conj()) for b in basis.T]) @ u
           for (u, _), x, basis in zip(c.stages, xs, bases)]
    rows = np.array([(0,) * c.n] + list(itertools.product(
        *[range(1, b.shape[1] + 1) for b in bases])), dtype=np.intp)
    amps = amplitudes(c, ops, rows)
    target, total = amps[0], amps[1:].sum()
    if abs(total) <= F_TOL:
        raise DegeneratePostSelection("path-amplitude sum vanishes")
    wv = weak_value(c, tuple(range(1, c.n + 1)))
    return abs(wv - target / total)
