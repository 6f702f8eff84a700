"""Single and sequential weak values, plus the algebraic rules they obey.

The stored weak value for a subset (i1 < ... < ir) of measurement sites is
the sequential weak value with the later observables applied on the left,
i.e. the operators appear in reverse time order inside the matrix element.
`weak_values` computes those of every subset of some sites in one
`circuitmodel.product_amplitudes` walk, `weak_value` one of them in two
single-row walks.  A weak value is an amplitude over F, the amplitude of
the empty subset; `Circuit` keeps the post-selection at unit length, so F
and the gates on |F| (F_TOL, the huge-value warning) do not depend on the
length of the post-selection bra a caller gives.

`weak_value_table` enumerates every subset of at most k sites as arrays, one
size block r = 0..k at a time: each subset of block r - 1, in lexicographic
order, is extended by each later site in turn, which keeps block r in
lexicographic order.  An entry is its last site and the index of its prefix
(the entry without that site).  That prefix tree is all that
`circuitmodel.tree_amplitudes` needs to walk the table, so work and memory
grow with the number of entries, sum_{r<=k} C(n, r), never with 2^n; the
table refuses more than MAX_TABLE_ENTRIES of them.

`check_strong_agreement` reads the circuit in its eigenbasis form
(`circuitmodel.eigenbases`): one backward walk with identity kernels, which
are the masks of equal labels, gives the strong effects F_k = V_k^dag E_k
V_k, and the record is followed forward in eigenbasis coordinates, where
each outcome class is a label mask and each step a hop.

`ratio_rule_check` and `path_amplitude_identity` read the directions x of
their rank-1 projector observables |x><x| from one stacked projector check
and one stacked ``eigh`` (`_rank1_directions`).
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
from .circuitmodel import (Circuit, effects, eigenbases, product_amplitudes,
                           transition_amplitude, tree_amplitudes, valid_subset)
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


def _over_f(amps: np.ndarray) -> np.ndarray:
    """Weak values from the amplitudes ``amps`` of a list of subsets over
    F, the amplitude of entry 0, which must be the empty subset (its own
    value is 1).  The post-selection is a unit vector (`Circuit`), so |F|
    is on the scale of a probability amplitude."""
    f = amps[0]
    if abs(f) <= F_TOL:
        raise DegeneratePostSelection(f"|F| = {abs(f):.3e} <= {F_TOL}")
    wv = amps / f
    wv[0] = 1.0
    biggest = np.abs(wv[1:]).max(initial=0.0)
    # a large F with large observables is not a warning sign, only a small F
    if biggest > HUGE_WEAK_VALUE and abs(f) < 1.0 / HUGE_WEAK_VALUE:
        warnings.warn(
            f"weak value of modulus {biggest:.3e} is huge; post-selection is nearly orthogonal",
            RuntimeWarning,
            stacklevel=3,
        )
    return wv


def weak_values(c: Circuit, sites, ops=None) -> np.ndarray:
    """Sequential weak values of every subset of ``sites`` (strictly
    increasing 1-based sites of ``c``, not validated) over the F of the
    same walk (`_over_f`), as a (2,) * len(sites) cube: index 1 on axis i
    puts ``sites[i]`` in the subset, and the all-0 corner, the empty subset,
    is 1.  ``ops`` are the walk's operators (`product_amplitudes`), by
    default U_k and A_k U_k at the sites and U_k elsewhere."""
    if ops is None:
        on = set(sites)
        ops = [np.array([u, a @ u]) if k in on else u[None]
               for k, (u, a) in enumerate(c.stages, start=1)]
    return _over_f(product_amplitudes(c, ops)).reshape((2,) * len(sites))


def weak_value(c: Circuit, subset) -> complex:
    """The weak value of one subset, from two single-row walks, the
    subset's and F's, so linear in the number of sites."""
    s = valid_subset(subset, c.n)
    ops = [(a @ u if k in s else u)[None] for k, (u, a) in enumerate(c.stages, start=1)]
    amps = np.array([transition_amplitude(c), product_amplitudes(c, ops)[0]])
    return complex(_over_f(amps)[1])


@dataclass(frozen=True, eq=False)
class WeakValueTable:
    """Weak values of every subset of at most ``len(sizes) - 1`` of the
    ``n`` sites, in (size, lexicographic) order, ``sizes[r]`` = C(n, r) of
    each size r.

    Entry h has the weak value ``values[h]``; ``last[h]`` is its last site
    and ``prefix[h]`` the entry of the same subset without that site.
    Entry 0 is the empty subset, with value 1, last site 0 and itself as
    prefix; its amplitude, the F every value is divided by, is ``f``.
    """

    values: np.ndarray
    f: complex
    last: np.ndarray
    prefix: np.ndarray
    sizes: tuple[int, ...]
    n: int

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
    return WeakValueTable(_over_f(amps), complex(amps[0]), last, prefix, sizes, c.n)


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
    probability.  A backward walk with identity kernels (in the eigenbases,
    the masks of equal labels) gives the strong effects F_k in each site's
    eigenbasis; a forward walk follows the record in eigenbasis
    coordinates x, taking at site k the one outcome a whose class
    probability, the sum of conj(x_j) F_k[j, l] x_l over the columns j, l
    labelled a, exceeds max(STRONG_REL_TOL <psi_i|E_0|psi_i>, BRANCH_TOL^2),
    and keeping the coordinates labelled a before the hop to the next site.
    The cut is relative because a class probability is rounded relative to
    the total: classes that only the post-selection empties keep up to
    ~1e-14 of it.  So a stray branch below ~1e-6 of the total amplitude goes
    unseen.
    """
    sites = eigenbases(c)
    same = sites.labels[:, :, None] == sites.labels[:, None, :]
    totals, walk = effects(sites, same[:, None].astype(float))
    total = float(totals[0].real)
    cut = max(STRONG_REL_TOL * total, BRANCH_TOL**2)
    if total <= cut:
        return None
    x, product = sites.start, 1.0
    for i, (eigs, labels, mask, f) in enumerate(zip(sites.eigenvalues, sites.labels,
                                                    same, walk)):
        paths = (x.conj()[:, None] * f[0] * x).real
        probs = np.bincount(labels, (paths * mask).sum(axis=1), len(eigs))
        occurs = np.flatnonzero(probs > cut)
        if len(occurs) != 1:
            return None
        product *= float(eigs[occurs[0]])
        if i < c.n - 1:
            x = sites.hops[i] @ np.where(labels == occurs[0], x, 0.0)
    return abs(weak_value(c, tuple(range(1, c.n + 1))) - product)


def _rank1_directions(ps: np.ndarray, refusal: str) -> np.ndarray:
    """Rows x_k of an (m, d, d) stack of rank-1 projectors |x_k><x_k|, each
    the last eigenvector column of one stacked ``eigh``, behind one stacked
    projector check (1e-10) and a trace check (1e-8); ``refusal`` names the
    first failing matrix by its 1-based ``{site}``."""
    ok = ((algebra.projector_deviations(ps) <= 1e-10)
          & (np.abs(np.trace(ps, axis1=-2, axis2=-1) - 1.0) <= 1e-8))
    if not np.all(ok):
        raise InvalidInput(refusal.format(site=int(np.argmin(ok)) + 1))
    return np.linalg.eigh(ps)[1][..., -1]


def ratio_rule_check(c: Circuit, alt_obs2) -> float:
    """Projector ratio rule for a two-site circuit whose first observable is
    a rank-1 projector |x><x|.

    Compares (A2, P)_w / (A2', P)_w against A2_w / A2'_w computed on the
    truncated circuit that starts in |x> at the second stage.
    """
    if c.n != 2:
        raise InvalidInput("ratio rule applies to two-site circuits")
    (x,) = _rank1_directions(c.observable(1)[None],
                             "first observable must be a rank-1 projector")

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


def path_amplitude_identity(c: Circuit, bases=None) -> float:
    """Deviation between wv(full subset) and the ratio of the path amplitude
    through the measured rank-1 projectors to the sum over all paths.

    ``bases`` optionally supplies, per stage, an orthonormal basis (columns)
    that contains the projected direction.  By default a stage's basis is
    the Q of [x, 1], from one stacked QR: its first column is x up to a
    phase, which the projectors |b><b| do not see.
    """
    xs = _rank1_directions(np.array([a for _, a in c.stages]).reshape(c.n, c.dim, c.dim),
                           "observable at site {site} is not a rank-1 projector")
    if bases is None:
        eye = np.broadcast_to(np.eye(c.dim), (c.n, c.dim, c.dim))
        bases = np.linalg.qr(np.concatenate([xs[:, :, None], eye], axis=2))[0]
    else:
        bases = np.asarray(bases, dtype=complex)
        if bases.shape != (c.n, c.dim, c.dim):
            raise DimMismatch(f"expected {c.n} bases of {c.dim}x{c.dim}, got {bases.shape}")
        if not np.all(algebra.unitary_deviations(bases) <= 1e-9):
            raise BasisIncomplete("per-stage basis is not orthonormal-complete")
        if np.any(np.linalg.norm(bases - xs[:, :, None], axis=1).min(axis=1) > 1e-9):
            raise BasisIncomplete("basis does not contain the projected direction")

    # operator 0 of a stage is its measured direction |x_k><x_k| U_k, the
    # others its basis vectors |b_j><b_j| U_k: the target walks through the
    # former, the total through every choice of the latter
    ops = [np.stack([np.outer(x, x.conj())] + [np.outer(b, b.conj()) for b in basis.T]) @ u
           for (u, _), x, basis in zip(c.stages, xs, bases)]
    target = product_amplitudes(c, [x[:1] for x in ops])[0]
    total = product_amplitudes(c, [x[1:] for x in ops]).sum()
    if abs(total) <= F_TOL:
        raise DegeneratePostSelection("path-amplitude sum vanishes")
    wv = weak_value(c, tuple(range(1, c.n + 1)))
    return abs(wv - target / total)
