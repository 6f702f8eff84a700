"""Single and sequential weak values, plus the algebraic rules they obey.

The stored weak value for a subset (i1 < ... < ir) of measurement sites is
the sequential weak value with the later observables applied on the left,
i.e. the operators appear in reverse time order inside the matrix element.
`weak_values` computes any list of them in one `circuitmodel.amplitudes` walk.

`weak_value_table` enumerates every subset of at most k sites as arrays, one
size block r = 0..k at a time: each subset of block r - 1, in lexicographic
order, is extended by each later site in turn, which keeps block r in
lexicographic order.  An entry is its last site and the index of its prefix
(the entry without that site).  That prefix tree is all that
`circuitmodel.tree_amplitudes` needs to walk the table, so work and memory
grow with the number of entries, sum_{r<=k} C(n, r), never with 2^n; the
table refuses more than MAX_TABLE_ENTRIES of them.
"""
from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import algebra
from .circuitmodel import (Circuit, amplitudes, effects, site_instruments, tree_amplitudes,
                           valid_subset)
from .errors import (
    BasisIncomplete,
    DegeneratePostSelection,
    DimMismatch,
    InvalidInput,
    RatioUndefined,
)

F_TOL = 1e-12
HUGE_WEAK_VALUE = 1e6
BRANCH_TOL = 1e-10  # a strong-measurement branch below this never occurs
STRONG_REL_TOL = 1e-12  # nor does an outcome below this share of them all
MAX_TABLE_ENTRIES = 1 << 20  # the full table at n = 20


def _over_f(c: Circuit, amps: np.ndarray) -> np.ndarray:
    """Weak values from the amplitudes ``amps`` of a list of subsets over
    F, the amplitude of entry 0, which must be the empty subset (its own
    value is 1)."""
    f = amps[0]
    if abs(f) <= F_TOL:
        raise DegeneratePostSelection(f"|F| = {abs(f):.3e} <= {F_TOL}")
    wv = amps / f
    wv[0] = 1.0
    biggest = np.abs(wv[1:]).max(initial=0.0)
    # a large F with large observables is not a warning sign, only a small F
    if biggest > HUGE_WEAK_VALUE and abs(f) < np.linalg.norm(c.psi_f) / HUGE_WEAK_VALUE:
        warnings.warn(
            f"weak value of modulus {biggest:.3e} is huge; post-selection is nearly orthogonal",
            RuntimeWarning,
            stacklevel=3,
        )
    return wv


def weak_values(c: Circuit, subsets, ops=None) -> np.ndarray:
    """Sequential weak values of ``subsets``, in order, over the F of the
    same walk (`_over_f`).  A subset's 0/1 history row picks from ``ops``
    as `circuitmodel.amplitudes` does: U_k at a 0 and the measured X_k U_k
    at a 1, by default with X_k = A_k.  The subsets are not validated: each
    must be a strictly increasing tuple of 1-based sites of ``c``."""
    if ops is None:
        ops = [np.array([u, a @ u]) for u, a in c.stages]
    sizes = [len(s) for s in subsets]
    rows = np.zeros((len(subsets) + 1, c.n), dtype=np.uint8)
    sites = np.fromiter(itertools.chain.from_iterable(subsets), np.intp, sum(sizes))
    rows[np.repeat(np.arange(1, len(rows)), sizes), sites - 1] = 1
    return _over_f(c, amplitudes(c, ops, rows))[1:]


def weak_value(c: Circuit, subset) -> complex:
    return complex(weak_values(c, [valid_subset(subset, c.n)])[0])


@dataclass(frozen=True, eq=False)
class WeakValueTable:
    """Weak values of every subset of at most ``len(sizes) - 1`` of the
    ``n`` sites, in (size, lexicographic) order, ``sizes[r]`` = C(n, r) of
    each size r.

    Entry h has the weak value ``values[h]``; ``last[h]`` is its last site
    and ``prefix[h]`` the entry of the same subset without that site.
    Entry 0 is the empty subset, with value 1, last site 0 and itself as
    prefix.
    """

    values: np.ndarray
    last: np.ndarray
    prefix: np.ndarray
    sizes: tuple[int, ...]
    n: int
    circuit_fingerprint: str

    @property
    def entries(self) -> "TableEntries":
        return TableEntries(self)

    def __getitem__(self, subset) -> complex:
        return self.entries[tuple(subset)]


class TableEntries(Mapping):
    """Read-only {subset tuple: weak value} view of a `WeakValueTable`, in
    table order.  Its tuples are built only when it is iterated."""

    def __init__(self, table: WeakValueTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.values)

    def __iter__(self):
        # block by block, as `weak_value_table` builds them: the sites of an
        # entry are those of its prefix in the block before, then its last
        t = self._table
        sites = np.zeros((1, 0), dtype=np.intp)  # block 0, the empty subset
        yield ()
        lo = 0
        for hi, size in zip(itertools.accumulate(t.sizes), t.sizes[1:]):
            block = slice(hi, hi + size)
            sites = np.column_stack((sites[t.prefix[block] - lo], t.last[block]))
            yield from map(tuple, sites.tolist())
            lo = hi

    def __getitem__(self, subset) -> complex:
        t = self._table
        try:
            s = [operator.index(i) for i in subset]
        except TypeError:
            raise KeyError(subset) from None
        n, r = t.n, len(s)
        if (r >= len(t.sizes) or any(a >= b for a, b in zip(s, s[1:]))
                or (r and (s[0] < 1 or s[-1] > n))):
            raise KeyError(subset)
        # lexicographic rank within the block: C(n, r) - 1 - sum_j C(n - s_j, r - j)
        rank = math.comb(n, r) - 1 - sum(math.comb(n - i, r - j) for j, i in enumerate(s))
        return complex(t.values[sum(t.sizes[:r]) + rank])


def weak_value_table(c: Circuit, max_order: int) -> WeakValueTable:
    """All sequential weak values for subsets of size <= max_order,
    enumerated in (size, lexicographic) order, in one walk."""
    try:
        max_order = operator.index(max_order)
    except TypeError:
        raise InvalidInput(f"max_order {max_order!r} is not an integer") from None
    if max_order > c.n:
        raise InvalidInput(f"max_order {max_order} exceeds n = {c.n}")
    if max_order < 0:
        raise InvalidInput(f"max_order {max_order} is negative")
    sizes = tuple(math.comb(c.n, r) for r in range(max_order + 1))
    if sum(sizes) > MAX_TABLE_ENTRIES:
        raise InvalidInput(f"a table of order {max_order} at n = {c.n} has {sum(sizes)} "
                           f"entries, more than {MAX_TABLE_ENTRIES}")
    last = np.zeros(sum(sizes), dtype=np.intp)
    prefix = np.zeros(sum(sizes), dtype=np.intp)
    lo = 0  # block r - 1 is [lo, hi), block r starts at hi
    for hi, size in zip(itertools.accumulate(sizes), sizes[1:]):
        # entry p of block r - 1 extends by each site after last[p], in turn
        counts = c.n - last[lo:hi]
        parent = np.repeat(np.arange(lo, hi), counts)
        first = np.cumsum(counts) - counts  # where each parent's run begins
        block = slice(hi, hi + size)
        prefix[block] = parent
        last[block] = last[parent] + 1 + np.arange(size) - np.repeat(first, counts)
        lo = hi
    amps = tree_amplitudes(c, [a @ u for u, a in c.stages], last, prefix)
    return WeakValueTable(_over_f(c, amps), last, prefix, sizes, c.n, c.fingerprint())


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
        raise InvalidInput(f"site {drop} not in subset {s}")
    with_identity = c.with_observables({drop: np.eye(c.dim)})
    reduced = tuple(i for i in s if i != drop)
    return abs(weak_value(with_identity, s) - weak_value(c, reduced))


def check_strong_agreement(c: Circuit) -> float | None:
    """If strong measurements of all observables are deterministic under
    this pre/post-selection, return |wv(full) - a_1 a_2 ... a_n|; otherwise
    return None.

    Determinism means one eigenvalue sequence carries all the post-selected
    probability.  A backward walk with identity kernels gives the strong
    effects E_k; a forward walk follows the record, taking at site k the one
    outcome a whose class probability <w_a|E_k|w_a>, w_a = P_a U_k v,
    exceeds max(STRONG_REL_TOL <psi_i|E_0|psi_i>, BRANCH_TOL^2).  The cut is
    relative because a class probability is rounded relative to the total:
    classes that only the post-selection empties keep up to ~1e-14 of it.
    So a stray branch below ~1e-6 of the total amplitude goes unseen.
    """
    sites = site_instruments(c)
    effs = effects(c, sites, [np.eye(len(es.eigenvalues))[None] for _, es in sites])
    total = float(np.vdot(c.psi_i, effs[0][0] @ c.psi_i).real)
    cut = max(STRONG_REL_TOL * total, BRANCH_TOL**2)
    if total <= cut:
        return None
    v, product = c.psi_i, 1.0
    for (pu, es), e in zip(sites, effs[1:]):
        w = pu @ v
        occurs = np.flatnonzero(((w.conj() @ e[0]) * w).sum(axis=1).real > cut)
        if len(occurs) != 1:
            return None
        v = w[occurs[0]]
        product *= es.eigenvalues[occurs[0]]
    return abs(weak_value(c, tuple(range(1, c.n + 1))) - product)


def ratio_rule_check(c: Circuit, alt_obs2) -> float:
    """Projector ratio rule for a two-site circuit whose first observable is
    a rank-1 projector |x><x|.

    Compares (A2, P)_w / (A2', P)_w against A2_w / A2'_w computed on the
    truncated circuit that starts in |x> at the second stage.
    """
    if c.n != 2:
        raise InvalidInput("ratio rule applies to two-site circuits")
    p = c.observable(1)
    if not algebra.is_projector(p, 1e-10) or abs(np.trace(p) - 1.0) > 1e-8:
        raise InvalidInput("first observable must be a rank-1 projector")
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
            raise InvalidInput(f"observable at site {k} is not a rank-1 projector")
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
