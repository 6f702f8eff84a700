"""Pointer profiles, their moments, and the perturbative moment formulas.

Gaussian convention: phi(q) = (2 pi sigma^2)^(-1/4) exp(-(q - q0)^2 / (4 sigma^2))
times a momentum-offset phase, so Var(q) = sigma^2 and Var(p) = 1/(4 sigma^2).
Momentum is p = -i d/dq with hbar = 1.

Leading order: each weakly coupled pointer is phi(q) - g A phi'(q).  A single
position readout has mean mu + g (Re A_w + y Im A_w) for any profile.  Every
other product of q/p readouts at the sites S needs Assumption A (a real
zero-mean phi, so each <phi|O|phi> vanishes) and is the g^m term
    (-g)^m Re sum_{I subset S} (A_I)_w conj((A_{S-I})_w)
        prod_{i in I} t_i prod_{i not in I} conj(t_i),
with t = <phi|O|phi'> = -1/2 for q and i v for p (v the momentum variance).
`product_weak_value` reads Re (A2 A1)_w of two commuting observables back
from this formula's <q1 q2>.

A table's moments mu, nu, v and y are Parseval sums over its cached
spectrum (`PointerProfile._spectrum`, the FFTs of phi and q phi), checked
against the same sums on the grid decimated by two, once per profile.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .circuitmodel import Circuit, valid_subset
from .errors import (AssumptionAViolated, GridTooCoarse, InvalidInput, NonCommuting,
                     NumericallySingular)
from .weakvalue import weak_values

QUANTILES = 4096  # entries of a profile's standardized quantile table
# `product_weak_value` reconstructs from <q1 q2> at this coupling, with a
# Gaussian pointer of this width
PRODUCT_G = 1e-3
PRODUCT_SIGMA = 1.0


@functools.cache
def _gaussian_quantiles() -> np.ndarray:
    """The standardized quantile table of every Gaussian profile, from its
    density on 4096 points over +-12 widths."""
    z = np.linspace(-12.0, 12.0, 4096)
    return _quantile_table(z, np.exp(-z**2 / 2))


def _quantile_table(z: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Quantiles of the density ``dens`` on the grid z at the probabilities
    (i + 1/2) / QUANTILES, from its trapezoid antiderivative; read-only, as
    profiles share them."""
    cdf = np.zeros_like(dens)
    np.cumsum((dens[1:] + dens[:-1]) * ((z[1] - z[0]) / 2), out=cdf[1:])
    table = np.interp((np.arange(QUANTILES) + 0.5) / QUANTILES, cdf / cdf[-1], z)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class PointerProfile:
    """A Gaussian by its parameters, or a table of samples ``values`` (a
    read-only complex array) on the grid grid_min + grid_step * i."""

    kind: str  # "gaussian" | "tabulated"
    sigma: float = 1.0
    q_offset: float = 0.0
    p_offset: float = 0.0
    grid_min: float = 0.0
    grid_step: float = 0.0
    values: np.ndarray = field(default_factory=tuple)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)  # a copy that no caller holds
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _fields(self) -> tuple:
        return (self.kind, self.sigma, self.q_offset, self.p_offset, self.grid_min,
                self.grid_step)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointerProfile):
            return NotImplemented
        return (self._fields() == other._fields()
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((*self._fields(), (self.values + 0.0).tobytes()))

    @classmethod
    def gaussian(cls, sigma: float, q_offset: float = 0.0, p_offset: float = 0.0):
        if not np.all(np.isfinite([sigma, q_offset, p_offset])):
            raise InvalidInput("pointer parameters must be finite")
        if sigma <= 0:
            raise InvalidInput("sigma must be positive")
        return cls(kind="gaussian", sigma=float(sigma), q_offset=float(q_offset),
                   p_offset=float(p_offset))

    @classmethod
    def tabulated(cls, grid_min: float, grid_step: float, values):
        vals = np.asarray(values, dtype=complex)
        if vals.size < 256:
            raise InvalidInput("tabulated profile needs at least 256 points")
        if not (np.isfinite([grid_min, grid_step]).all() and np.isfinite(vals).all()):
            raise InvalidInput("tabulated profile must be finite")
        if grid_step <= 0:
            raise InvalidInput("grid step must be positive")
        top = float(np.abs([vals.real, vals.imag]).max())
        if top == 0.0:
            raise InvalidInput("profile is identically zero")
        # the squares of samples past ~1e154 overflow and those below ~1e-154
        # underflow, so such a table is first scaled by its largest part
        if not 1e-150 < top < 1e150:
            vals = vals.real / top + 1j * (vals.imag / top)
        peak = float(np.max(np.abs(vals)))
        if abs(vals[0]) > 1e-8 * peak or abs(vals[-1]) > 1e-8 * peak:
            raise InvalidInput("profile does not decay at the grid ends")
        vals = vals / np.sqrt(grid_step * np.sum(np.abs(vals) ** 2))
        return cls(kind="tabulated", grid_min=float(grid_min),
                   grid_step=float(grid_step), values=vals)

    @property
    def grid(self) -> np.ndarray:
        return self.grid_min + self.grid_step * np.arange(len(self.values))

    @functools.cached_property
    def is_assumption_a(self) -> bool:
        """A real zero-mean phi (Assumption A), judged once per profile."""
        if self.kind == "gaussian":
            return self.q_offset == 0.0 and self.p_offset == 0.0
        q, re, im = self._table
        dens = re**2 + im**2
        if np.max(np.abs(im)) > 1e-9 * np.sqrt(np.max(dens)):
            return False
        mu = self.grid_step * float(np.sum(q * dens))
        return abs(mu) <= 1e-9

    def eval(self, q) -> np.ndarray:
        """phi evaluated at arbitrary positions (0 outside a tabulated grid),
        always complex; a Gaussian skips its phase exp(i p_offset q) when
        p_offset is 0."""
        q = np.asarray(q, dtype=float)
        if self.kind == "gaussian":
            s2 = self.sigma**2
            with np.errstate(over="ignore"):  # far out, exp(-inf) = 0 exactly
                env = (2 * np.pi * s2) ** -0.25 * np.exp(-((q - self.q_offset) ** 2) / (4 * s2))
            return env * np.exp(1j * self.p_offset * q) if self.p_offset else env + 0j
        grid, real, imag = self._table
        return (np.interp(q, grid, real, left=0.0, right=0.0)
                + 1j * np.interp(q, grid, imag, left=0.0, right=0.0))

    @functools.cached_property
    def _quantiles(self) -> np.ndarray:
        """Standardized quantiles (q - mean) / sd of the density |phi|^2 at
        the probabilities (i + 1/2) / QUANTILES, one table per profile (all
        Gaussians share theirs)."""
        if self.kind == "gaussian":
            return _gaussian_quantiles()
        q, re, im = self._table
        dens = re**2 + im**2
        mean = np.sum(q * dens) / np.sum(dens)
        return _quantile_table(
            (q - mean) / np.sqrt(np.sum((q - mean) ** 2 * dens) / np.sum(dens)), dens)

    @functools.cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """A table's FFT Phi, the FFT Psi of q phi, their angular frequencies
        and the ends of its support |phi| > 1e-8 peak, once per profile: the
        kernels (`oracle._table_kernels`), the sampler's shifted rows and
        `moments` all read them.  The arrays are read-only, as profiles
        are shared (`circuitio.load_tabulated_profile`)."""
        vals, q = self.values, self.grid
        live = q[np.abs(vals) > 1e-8 * np.max(np.abs(vals))]
        freq = 2 * np.pi * np.fft.fftfreq(len(vals), d=self.grid_step)
        return (*_read_only(np.fft.fft(vals), np.fft.fft(q * vals), freq),
                float(live[0]), float(live[-1]))

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid, real and imaginary samples of a table as read-only arrays,
        built once per profile rather than once per `eval`."""
        return _read_only(self.grid, self.values.real.copy(), self.values.imag.copy())

    @functools.cached_property
    def _moments(self) -> PointerMoments:
        """A table's moments, once per profile: Parseval sums over its
        spectrum, checked against the same sums on the grid decimated by
        two (`GridTooCoarse` above 1e-7, raised afresh on every call)."""
        spectrum, q_spectrum, freq, _, _ = self._spectrum
        full = _spectral_moments(spectrum, q_spectrum, freq)
        q, vals = self.grid[::2], self.values[::2]
        coarse = _spectral_moments(*np.fft.fft([vals, q * vals]),
                                   2 * np.pi * np.fft.fftfreq(len(vals), d=2 * self.grid_step))
        err = max(abs(full.mu - coarse.mu), abs(full.nu - coarse.nu),
                  abs(full.v - coarse.v), abs(full.y - coarse.y))
        if err > 1e-7:
            raise GridTooCoarse(f"quadrature self-estimate error {err:.3e}")
        return full


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made non-writeable."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class PointerMoments:
    mu: float   # mean position
    nu: float   # mean momentum
    v: float    # momentum variance
    y: float    # <pq + qp> - 2 mu nu


def _spectral_moments(spectrum: np.ndarray, q_spectrum: np.ndarray,
                      freq: np.ndarray) -> PointerMoments:
    """The moments of a table from its FFT Phi and the FFT Psi of q phi at
    the angular frequencies w, by Parseval: a grid sum of conj(u) v is
    sum conj(U) V / N, and the grid derivative of phi has the FFT i w Phi.
    So mu = Re <Phi|Psi> / <Phi|Phi>, nu and v are the mean and variance of
    w under |Phi|^2, and <pq + qp> / 2 = Re <Psi| w |Phi> / <Phi|Phi>."""
    power = spectrum.real**2 + spectrum.imag**2
    total = np.sum(power)
    mu = float(np.vdot(spectrum, q_spectrum).real / total)
    nu = float(freq @ power / total)
    v = float((freq - nu) ** 2 @ power / total)
    y = float(2 * np.vdot(q_spectrum, freq * spectrum).real / total - 2 * mu * nu)
    return PointerMoments(mu=mu, nu=nu, v=v, y=y)


def moments(prof: PointerProfile) -> PointerMoments:
    if prof.kind == "gaussian":
        return PointerMoments(mu=prof.q_offset, nu=prof.p_offset,
                              v=1.0 / (4.0 * prof.sigma**2), y=0.0)
    return prof._moments


_FACTOR_RE = re.compile(r"([qp])(\d+)$")


@dataclass(frozen=True)
class MomentSpec:
    factors: tuple[tuple[int, str], ...]  # (site, "q"|"p"), sites increasing

    def __post_init__(self):
        if not self.factors:
            raise InvalidInput("moment spec must be nonempty")
        sites = [s for s, _ in self.factors]
        if any(sites[i] >= sites[i + 1] for i in range(len(sites) - 1)):
            raise InvalidInput("sites must be strictly increasing")
        if any(k not in ("q", "p") for _, k in self.factors):
            raise InvalidInput("factor kind must be 'q' or 'p'")

    @classmethod
    def parse(cls, text: str) -> "MomentSpec":
        factors = []
        for tok in text.split("*"):
            m = _FACTOR_RE.match(tok.strip())
            if not m:
                raise InvalidInput(f"bad moment factor {tok!r}")
            factors.append((int(m.group(2)), m.group(1)))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return "*".join(f"{k}{s}" for s, k in self.factors)


def ordered_index_partitions(m: int):
    """Ordered pairs (i, j) of complementary increasing index tuples of
    {1..m} with len(i) >= len(j), ties kept only when 1 is in i."""
    out = []
    universe = tuple(range(1, m + 1))
    for r in range(m, -1, -1):
        for i in itertools.combinations(universe, r):
            j = tuple(x for x in universe if x not in i)
            s = len(j)
            if r > s or (r == s and r > 0 and i[0] == 1):
                out.append((i, j))
    return out


def _require_assumption_a(prof: PointerProfile):
    if not prof.is_assumption_a:
        raise AssumptionAViolated(
            "this moment formula needs a real zero-mean pointer profile")


def check_coupling(g: float):
    """Reject a coupling strength that is not a finite nonnegative number
    (nan included)."""
    if not (np.isfinite(g) and g >= 0):
        raise InvalidInput(f"coupling must be finite and nonnegative, got {g}")


def check_seed(seed) -> None:
    """Refuse a sampler's seed that is not an integer >= 0."""
    try:
        if operator.index(seed) >= 0:
            return
    except TypeError:
        pass
    raise InvalidInput(f"seed must be an integer >= 0, got {seed!r}")


def predict_moment(c: Circuit, spec: MomentSpec, g: float, prof: PointerProfile) -> float:
    """Leading-order prediction for the product of pointer readouts named by
    ``spec``, one weakly coupled pointer per listed site, by the rule in the
    module docstring."""
    check_coupling(g)
    sites = [s for s, _ in spec.factors]
    kinds = [k for _, k in spec.factors]
    valid_subset(sites, c.n)
    if kinds == ["q"]:
        mom = moments(prof)
        w = complex(weak_values(c, sites)[1])
        value = mom.mu + g * (w.real + mom.y * w.imag)
    else:
        _require_assumption_a(prof)
        # a table's moments cost a quadrature, so only a p factor asks for v
        v = moments(prof).v if "p" in kinds else 0.0
        t = np.array([1j * v if k == "p" else -0.5 for k in kinds])
        m = len(sites)
        # subset I of the listed sites <-> bit mask (bit i for sites[i]),
        # which is the weak-value cube's index with its axes reversed; S - I
        # is the reversed index
        inside = (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1
        wv = weak_values(c, sites).transpose().reshape(-1)
        coef = np.where(inside, t, t.conj()).prod(axis=1)
        try:
            value = (-g) ** m * float((wv * wv[::-1].conj() @ coef).real)
        except OverflowError:  # g^m past the float range
            value = math.inf
    if not math.isfinite(value):
        raise NumericallySingular(f"the leading-order prediction overflows at g = {g}")
    return value


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
    if c.n != 2:
        raise InvalidInput("expected a circuit with exactly two observables")
    u2, a2 = c.stages[1]
    if np.max(np.abs(u2 - np.eye(c.dim))) > 1e-12:
        raise InvalidInput("the intervening unitary must be the identity")
    a1 = c.observable(1)
    if np.max(np.abs(a1 @ a2 - a2 @ a1)) > 1e-10:
        raise NonCommuting("observables at one time must commute")

    _, w2, w1, value = weak_values(c, (1, 2)).reshape(-1).tolist()
    q1q2 = predict_moment(c, MomentSpec.parse("q1*q2"), PRODUCT_G,
                          PointerProfile.gaussian(PRODUCT_SIGMA))
    rec = 2.0 * q1q2 / PRODUCT_G**2 - (w1 * np.conj(w2)).real
    return ProductWeakValue(value=value, correlation_reconstruction=rec)
