"""Output checks for `seqweak ... --machine` against references of our own.

The references read the `.wseq` files with a small reader written here and
never call the package:

* weak values: the direct <psi_f| U A ... A U |psi_i> / F chain, evaluated
  for every subset at once by doubling a batch of state vectors per site;
* exact moments: per-site operator propagation, rho <- U rho U^dag and then
  rho <- sum_{b,a} K[b,a] P_a rho P_b with K the closed-form Gaussian
  overlap kernel (S, Q or P) of the site's eigenvalue pairs.  A tabulated
  pointer is checked against the Gaussian it samples, which its file names
  in a `# gaussian sigma=...` header;
* leading-order predictions: the same propagation at small couplings h
  and 2h, scaled by (g/h)^m and extrapolated to h -> 0;
* counterfactuality by histories: every on/off history amplitude.

`check(argv, code, stdout)` returns None for a correct command and a
one-line reason otherwise.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# Tolerances, set from the scale of each quantity.  Outputs carry 12
# significant digits.
WV_TOL = 1e-9        # relative to prod ||A_k|| / |F| of the subset
EXACT_TOL = 1e-8     # relative to the reference moment
PROB_TOL = 1e-9
PRED_H = 1e-3        # coupling of the small-g reference for predictions
PRED_TOL = 1e-6      # relative to the reference prediction
MC_SIGMAS = 5.0


@dataclass
class Doc:
    dim: int
    psi_i: np.ndarray
    stages: list          # (unitary, observable) per measurement site
    u_final: np.ndarray
    psi_f: np.ndarray
    names: dict           # observe name -> site
    projectors: dict      # observe name -> matrix (for `insert`)
    sigma: float
    g: float | None
    inserts: list
    fingerprint: str


def _cplx(tok: str) -> complex:
    return complex(tok[:-1] + "j") if tok.endswith("i") else complex(float(tok))


@lru_cache(maxsize=None)
def read_doc(path: str) -> Doc:
    raw = Path(path).read_bytes()
    rows = []
    for line in raw.decode().splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            rows.append(body)
    it = iter(rows)
    dim = psi_i = psi_f = g = None
    sigma = 1.0
    unitaries, observes, inserts = [], [], []
    names, projectors = {}, {}

    def matrix():
        return np.array([[_cplx(t) for t in next(it)] for _ in range(dim)])

    for head, *rest in it:
        if head == "dim":
            dim = int(rest[0])
        elif head == "state":
            psi_i = np.array([_cplx(t) for t in rest])
        elif head == "postselect":
            psi_f = np.array([_cplx(t) for t in rest])
        elif head == "unitary":
            unitaries.append(matrix())
            observes.append(None)
        elif head == "observe":
            name = rest[0]
            nxt = next(it)
            if nxt[0] == "proj":
                m = np.zeros((dim, dim), dtype=complex)
                for i in nxt[1:]:
                    m[int(i), int(i)] = 1.0
            else:
                m = np.array([[_cplx(t) for t in nxt]]
                             + [[_cplx(t) for t in next(it)] for _ in range(dim - 1)])
            observes[-1] = m
            names[name] = len(unitaries)
            projectors[name] = m
        elif head == "pointer":
            if rest[0] == "gaussian":
                params = dict(t.split("=") for t in rest[1:])
                if set(params) != {"sigma"}:
                    raise ValueError("reference supports centred Gaussians only")
                sigma = float(params["sigma"])
            else:
                table = Path(path).parent / rest[1]
                header = table.read_text().split("\n", 1)[0]
                if not header.startswith("# gaussian sigma="):
                    raise ValueError("tabulated pointer must name its Gaussian")
                sigma = float(header.split("=", 1)[1])
        elif head == "g":
            g = float(rest[0])
        elif head == "insert":
            inserts.append(rest[0])
    eye = np.eye(dim, dtype=complex)
    if not unitaries or observes[-1] is not None:
        unitaries.append(eye)
        observes.append(None)
    stages = [(u, a if a is not None else eye)
              for u, a in zip(unitaries[:-1], observes[:-1])]
    return Doc(dim, psi_i, stages, unitaries[-1], psi_f, names, projectors,
               sigma, g, inserts, hashlib.sha256(raw).hexdigest()[:16])


# ---------------------------------------------------------------- references

def numerators(doc: Doc, observables=None) -> np.ndarray:
    """Numerator for every subset of sites; bit k-1 of the index selects
    site k.  Index 0 is the transition amplitude F."""
    obs = observables or [a for _, a in doc.stages]
    batch = doc.psi_i[None, :]
    for (u, _), a in zip(doc.stages, obs):
        batch = batch @ u.T
        batch = np.concatenate([batch, batch @ a.T])
    batch = batch @ doc.u_final.T
    return batch @ doc.psi_f.conj()


def subset_scales(doc: Doc) -> np.ndarray:
    """prod_{k in subset} ||A_k||, indexed like `numerators`."""
    out = np.ones(1)
    for _, a in doc.stages:
        out = np.concatenate([out, out * max(np.linalg.norm(a, 2), 1.0)])
    return out


def spectrum(a: np.ndarray):
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > 1e-8 * (vals[-1] - vals[0] + 1.0):
            groups.append([])
        groups[-1].append(i)
    eigs = np.array([vals[gr].mean() for gr in groups])
    projs = [vecs[:, gr] @ vecs[:, gr].conj().T for gr in groups]
    return eigs, projs


def gaussian_kernel(eigs, g: float, sigma: float, kind: str | None):
    a = eigs[None, :]   # column index: ket eigenvalue a
    b = eigs[:, None]   # row index: bra eigenvalue b
    s = np.exp(-(g * (a - b)) ** 2 / (8 * sigma**2))
    if kind is None:
        return s
    if kind == "q":
        return s * g * (a + b) / 2
    return s * 1j * g * (b - a) / (4 * sigma**2)


def propagate(psi_i, stages, u_final, kinds: dict, g: float, sigma: float):
    """Operator |psi_i><psi_i| carried through every site, with the kernel
    named by ``kinds`` (site -> "q" | "p") or S elsewhere; post-selecting on
    psi_f then gives psi_f^dag rho psi_f."""
    rho = np.outer(psi_i, np.conj(psi_i))
    for site, (u, a) in enumerate(stages, start=1):
        rho = u @ rho @ u.conj().T
        eigs, projs = spectrum(a)
        k = gaussian_kernel(eigs, g, sigma, kinds.get(site))
        rho = sum(k[bi, ai] * projs[ai] @ rho @ projs[bi]
                  for bi in range(len(projs)) for ai in range(len(projs)))
    return u_final @ rho @ u_final.conj().T


def exact_moment(doc: Doc, factors: dict, g: float) -> tuple[float, float]:
    def post(kinds):
        rho = propagate(doc.psi_i, doc.stages, doc.u_final, kinds, g, doc.sigma)
        return complex(doc.psi_f.conj() @ rho @ doc.psi_f)

    den, num = post({}), post(factors)
    prob = den.real / float(np.vdot(doc.psi_f, doc.psi_f).real)
    return (num / den).real, prob


def leading_order(doc: Doc, factors: dict, g: float) -> float:
    """g^m times the h -> 0 limit of moment(h) / h^m.  The moment is h^m
    times a series in h^2, so Richardson extrapolation from h and 2h leaves
    an O(h^4) error."""
    def scaled(h):
        return exact_moment(doc, factors, h)[0] * (g / h) ** len(factors)

    return (4 * scaled(PRED_H) - scaled(2 * PRED_H)) / 3


def counterfactual_by_histories(doc: Doc) -> bool:
    sites = [doc.names[n] for n in doc.inserts]
    projs = [doc.projectors[n] for n in doc.inserts]
    eye = np.eye(doc.dim)
    for bits in range(1, 2 ** len(sites)):  # histories with at least one N
        obs = [eye] * len(doc.stages)
        for j, (site, p) in enumerate(zip(sites, projs)):
            obs[site - 1] = p if bits >> j & 1 else eye - p
        full = (1 << len(doc.stages)) - 1
        if abs(numerators(doc, obs)[full]) > 1e-10:
            return False
    return True


# ------------------------------------------------------------------ checking

def parse_rows(stdout: str) -> dict:
    rows = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        if key != "warning":
            rows[key] = value
    return rows


def _cval(rows, key) -> complex:
    return complex(float(rows[f"{key}.re"]), float(rows[f"{key}.im"]))


def _parse_moment(text: str) -> dict:
    return {int(f[1:]): f[0] for f in text.split("*")}


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _close(x: float, ref: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= tol


def _check_weakvalues(argv, rows) -> str | None:
    doc = read_doc(argv[1])
    nums = numerators(doc)
    f = nums[0]
    scales = subset_scales(doc) / abs(f)
    if abs(_cval(rows, "F") - f) > WV_TOL:
        return "F differs from the reference"
    site_of = {f"A{s}": s for s in range(1, len(doc.stages) + 1)}
    site_of.update(doc.names)
    max_order = int(_opt(argv, "--max-order", len(doc.stages)))
    expected = sum(math.comb(len(doc.stages), r) for r in range(max_order + 1))
    seen = 0
    for key in rows:
        if not (key.startswith("wv.") and key.endswith(".re")):
            continue
        label = key[3:-3].strip("()")
        idx = sum(1 << (site_of[name] - 1) for name in label.split(",") if name)
        ref = nums[idx] / f
        got = _cval(rows, key[:-3])
        if abs(got - ref) > WV_TOL * scales[idx]:
            return f"{key[:-3]} = {got} but the reference gives {ref}"
        seen += 1
    if seen != expected:
        return f"{seen} weak-value rows, expected {expected}"
    return None


def _check_moment_rows(rows, doc, factors, g) -> str | None:
    ref, prob = exact_moment(doc, factors, g)
    exact = float(rows["exact"])
    if not _close(exact, ref, EXACT_TOL * abs(ref)):
        return f"exact = {exact!r} but the reference gives {ref!r}"
    if not _close(float(rows["postselect_prob"]), prob, PROB_TOL):
        return f"postselect_prob differs from the reference {prob!r}"
    return None


def _check_simulate(argv, rows) -> str | None:
    doc = read_doc(argv[1])
    g = float(_opt(argv, "--g", doc.g if doc.g is not None else 1e-3))
    factors = _parse_moment(_opt(argv, "--moment"))
    if float(rows["g"]) != g or rows["moment"] != _opt(argv, "--moment"):
        return "g or moment row does not echo the request"
    bad = _check_moment_rows(rows, doc, factors, g)
    if bad or "--compare" not in argv:
        return bad
    pred, exact = float(rows["prediction"]), float(rows["exact"])
    ref = leading_order(doc, factors, g)
    if not _close(pred, ref, PRED_TOL * abs(ref)):
        return f"prediction = {pred!r} but the reference gives {ref!r}"
    if not _close(float(rows["abs_discrepancy"]), abs(exact - pred),
                  1e-9 * max(abs(exact), abs(pred))):
        return "abs_discrepancy is not |exact - prediction|"
    return None


def _check_montecarlo(argv, rows) -> str | None:
    doc = read_doc(argv[1])
    g = float(_opt(argv, "--g", doc.g if doc.g is not None else 1e-3))
    moment = _opt(argv, "--moment") or "*".join(
        f"q{i}" for i in range(1, len(doc.stages) + 1))
    bad = _check_moment_rows(rows, doc, _parse_moment(moment), g)
    if bad:
        return bad
    runs = int(_opt(argv, "--runs"))
    n_success, n_total = int(rows["n_success"]), int(rows["n_total"])
    if n_total != runs or not 0 < n_success <= n_total:
        return f"run counts {n_success}/{n_total} for --runs {runs}"
    mean, stderr, exact = (float(rows[k]) for k in ("mean", "stderr", "exact"))
    if not stderr > 0 or abs(mean - exact) > MC_SIGMAS * stderr:
        return f"mean {mean!r} is not within {MC_SIGMAS} stderr of exact {exact!r}"
    p = float(rows["postselect_prob"])
    sigma = math.sqrt(p * (1 - p) / n_total) + 1.0 / n_total
    if abs(n_success / n_total - p) > MC_SIGMAS * sigma:
        return f"acceptance {n_success / n_total!r} is not within 5 sigma of {p!r}"
    return None


def _check_counterfactual(argv, rows) -> str | None:
    doc = read_doc(argv[1])
    if rows.get("definitions_agree") != "True":
        return "definitions do not agree"
    ref = str(counterfactual_by_histories(doc))
    if rows["def1_counterfactual"] != ref or rows["def2_counterfactual"] != ref:
        return f"verdicts differ from the history reference ({ref})"
    return None


_SQ = 1 / math.sqrt(2)
# The double interferometer of the paper: F = <D|...|A> = -1/sqrt(2);
# single-path weak values (B, C, E, F) = (0, 1, 1, 0) and the pair values,
# among them (F,B) = -1/2, the negative occupation N_BF/N.
DEMO_GOLDEN = {
    "F": complex(-_SQ, 0), "wv.(B)": 0j, "wv.(C)": 1 + 0j, "wv.(E)": 1 + 0j,
    "wv.(F)": 0j, "wv.(E,B)": 0.5 + 0j, "wv.(F,B)": -0.5 + 0j,
    "wv.(E,C)": 0.5 + 0j, "wv.(F,C)": 0.5 + 0j,
}
DEMO_OCCUPATIONS = {"N_E/N": 1.0, "N_C/N": 1.0, "N_CE/N": 0.5, "N_BF/N": -0.5}


def _check_demo(argv, rows) -> str | None:
    for key, ref in DEMO_GOLDEN.items():
        if abs(_cval(rows, key) - ref) > 1e-11:
            return f"{key} differs from the golden value {ref}"
    for key, ref in DEMO_OCCUPATIONS.items():
        if abs(float(rows[key]) - ref) > 1e-11:
            return f"{key} differs from the golden value {ref}"
    return None


_CHECKS = {"weakvalues": _check_weakvalues, "simulate": _check_simulate,
           "montecarlo": _check_montecarlo, "counterfactual": _check_counterfactual,
           "demo": _check_demo}


def check(argv: list[str], code, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = parse_rows(stdout)
    command = argv[0] if argv[0] != "demo" else f"demo {argv[1]}"
    if rows.get("command") != command:
        return f"command row {rows.get('command')!r}"
    if argv[0] != "demo" and rows.get("fingerprint") != read_doc(argv[1]).fingerprint:
        return "fingerprint does not match the input file"
    try:
        return _CHECKS[argv[0]](argv, rows)
    except (KeyError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
