"""Command-line interface: weak-value tables, exact-vs-perturbative moment
comparison, Monte Carlo batches, counterfactuality reports and demos."""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import circuitio, counterfactual, montecarlo, oracle, pointer, weakvalue
from .circuitmodel import P_B, P_C, P_E, P_F, builtin_double_interferometer, product_amplitudes
from .errors import InvalidInput, SeqWeakError


class Report:
    """Accumulates key/value rows; prints aligned text or `key<TAB>value`
    machine lines."""

    def __init__(self, command: str, fingerprint: str, machine: bool):
        self.machine = machine
        # every row's key, without its suffix, and value; and chunks of
        # entries: (the key suffix of each row of an entry, the printf
        # format of the values, the number of entries)
        self.keys = ["command", "fingerprint"]
        self.values = [command, fingerprint]
        self.chunks: list[tuple] = [(("",), "%s", 2)]

    def add(self, key: str, value):
        if isinstance(value, (complex, float)):
            self.add_numbers([key], np.array([value]))
        else:
            self.keys.append(key)
            self.values.append(str(value))
            self.chunks.append((("",), "%s", 1))

    def add_numbers(self, keys: list, values: np.ndarray):
        """One row per real entry of ``values``, two (`key.re`, `key.im`)
        per complex one, each formatted to 12 significant digits.  The two
        rows of a complex entry share its one key string."""
        suffixes, rows = ("",), keys
        if np.iscomplexobj(values):
            suffixes, rows = (".re", ".im"), [None] * (2 * len(keys))
            rows[0::2] = keys
            rows[1::2] = keys
            values = np.ascontiguousarray(values, dtype=complex).view(float)
        self.keys += rows
        self.values += values.tolist()
        self.chunks.append((suffixes, "%.12g", len(keys)))

    def emit(self):
        """Write every row with one printf-style format over all of them.
        A row's arguments are its key, in text mode the spaces that pad it,
        and its value; the key's suffix is part of the format."""
        columns = [self.keys]
        if self.machine:
            line = "%s{}\t{}\n"
        else:
            # pad every key and its suffix to the longest of them; the two
            # suffixes of a complex entry have the same length
            lengths = np.fromiter(map(len, self.keys), np.intp, len(self.keys))
            lengths += np.repeat([len(sfx[0]) for sfx, _, _ in self.chunks],
                                 [len(sfx) * m for sfx, _, m in self.chunks])
            width = int(lengths.max())
            spaces = np.array([" " * i for i in range(width + 1)], dtype=object)
            columns.append(spaces[width - lengths].tolist())
            line = "%s{}%s  {}\n"
        columns.append(self.values)
        args = [None] * (len(columns) * len(self.keys))
        for i, column in enumerate(columns):
            args[i::len(columns)] = column
        template = "".join(["".join(line.format(sfx, fmt) for sfx in suffixes) * m
                            for suffixes, fmt, m in self.chunks])
        sys.stdout.write(template % tuple(args))


def _doc_profile(doc) -> pointer.PointerProfile:
    return doc.pointer if doc.pointer is not None else pointer.PointerProfile.gaussian(1.0)


def _doc_g(doc, override) -> float:
    if override is not None:
        return override
    return doc.g if doc.g is not None else 1e-3


def _subset_labels(site_names, last, prefix, sizes) -> np.ndarray:
    """`name_r,...,name_1)` for each subset (i_1 < ... < i_r) of a list of
    subsets in blocks of size r = 0, 1, ... (``sizes[r]`` of each), later
    sites first, from the document's site names, closed by `)` so that one
    concatenation opens it.  Subset h is its last site ``last[h]`` after
    subset ``prefix[h]`` of the block before, so a block's labels are one
    gather of the block before and one concatenation each."""
    last, prefix = np.asarray(last), np.asarray(prefix)
    names = np.array(["", *site_names], dtype=object)
    labels = (names + ")")[last]  # right for sizes 0 and 1
    joined = names + ","
    lo = sum(sizes[:2])
    for size in sizes[2:]:
        block = slice(lo, lo + size)
        labels[block] = joined[last[block]] + labels[prefix[block]]
        lo += size
    return labels


def cmd_weakvalues(args) -> int:
    doc = circuitio.load(args.file)
    c = doc.to_circuit()
    k = args.max_order if args.max_order is not None else c.n
    report = Report("weakvalues", doc.sha256[:16], args.machine)
    table = weakvalue.weak_value_table(c, k)
    report.add("F", table.f)
    labels = _subset_labels(doc.site_names, table.last, table.prefix, table.sizes)
    report.add_numbers(("wv.(" + labels).tolist(), table.values)
    report.emit()
    return 0


def cmd_simulate(args) -> int:
    doc = circuitio.load(args.file)
    c = doc.to_circuit()
    g = _doc_g(doc, args.g)
    prof = _doc_profile(doc)
    spec = pointer.MomentSpec.parse(args.moment)
    report = Report("simulate", doc.sha256[:16], args.machine)
    report.add("g", g)
    report.add("moment", str(spec))
    exact, prob = oracle.exact_moment(c, spec, g, prof)
    report.add("exact", exact)
    report.add("postselect_prob", prob)
    if args.compare:
        predicted = pointer.predict_moment(c, spec, g, prof)
        report.add("prediction", predicted)
        gap = abs(exact - predicted)
        report.add("abs_discrepancy", gap)
        # a zero scale (g = 0, or g^(m+1) underflows): no gap is 0, any other inf
        try:
            scale = max(abs(predicted), g ** (len(spec.factors) + 1))
        except OverflowError:  # g^(m+1) past the float range
            scale = np.inf
        report.add("rel_discrepancy", gap / scale if scale else (np.inf if gap else 0.0))
    report.emit()
    return 0


def cmd_montecarlo(args) -> int:
    doc = circuitio.load(args.file)
    c = doc.to_circuit()
    if args.runs <= 0:
        raise InvalidInput("--runs must be positive")
    if c.n == 0:
        raise InvalidInput("circuit has no measurement sites")
    g = _doc_g(doc, args.g)
    prof = _doc_profile(doc)
    moment = args.moment or "*".join(f"q{i}" for i in range(1, c.n + 1))
    spec = pointer.MomentSpec.parse(moment)
    report = Report("montecarlo", doc.sha256[:16], args.machine)
    report.add("g", g)
    report.add("seed", args.seed)
    report.add("moment", str(spec))
    batch = montecarlo.sample_runs(c, g, prof, args.runs, args.seed, spec)
    est = montecarlo.estimate_moment(batch, spec)
    exact, prob = batch.exact
    report.add("mean", est.mean)
    report.add("stderr", est.stderr)
    report.add("n_success", est.n_success)
    report.add("n_total", est.n_total)
    report.add("exact", exact)
    report.add("postselect_prob", prob)
    report.emit()
    return 0


def cmd_counterfactual(args) -> int:
    doc = circuitio.load(args.file)
    c = doc.to_circuit()
    if not doc.insertions:
        raise InvalidInput("the document declares no `insert` lines")
    ins = doc.insertion_set()
    report = Report("counterfactual", doc.sha256[:16], args.machine)
    cf = counterfactual.randomized_def3_test(c, ins, args.trials,
                                             _doc_g(doc, args.g), args.seed)
    report.add("def1_counterfactual", cf.def1_holds)
    report.add("def2_counterfactual", cf.def2_holds)
    report.add("def3_null", cf.def3_null)
    report.add("definitions_agree",
               cf.def1_holds == cf.def2_holds == cf.def3_null)
    if cf.witness_history is not None:
        report.add("witness.history", cf.witness_history)
    if cf.witness_subset is not None:
        names = [doc.site_names[i - 1] for i in reversed(cf.witness_subset)]
        report.add("witness.subset", "(" + ",".join(names) + ")")
        report.add("witness.weak_value", cf.witness_value)
    report.add("max_response", max(r for _, r in cf.def3_samples))
    report.emit()
    return 0


def cmd_demo(args) -> int:
    if args.name != "double-interferometer":
        raise InvalidInput(f"unknown demo {args.name!r}")
    base = builtin_double_interferometer()
    report = Report("demo double-interferometer", base.fingerprint()[:16],
                    args.machine)
    # one walk through U, P_B U or P_C U, then U, P_E U or P_F U; entry
    # (0, 0) of the 3 x 3 grid is F
    (u1, _), (u2, _) = base.stages
    ops = [np.stack([u1, P_B @ u1, P_C @ u1]), np.stack([u2, P_E @ u2, P_F @ u2])]
    grid = product_amplitudes(base, ops).reshape(3, 3).tolist()
    observed = {"B": (1, 0), "C": (2, 0), "E": (0, 1), "F": (0, 2),
                "E,B": (1, 1), "F,B": (1, 2), "E,C": (2, 1), "F,C": (2, 2)}
    f = grid[0][0]
    report.add("F", f)
    wv = {}
    for label, (i, j) in observed.items():
        wv[label] = grid[i][j] / f
        report.add(f"wv.({label})", wv[label])
    # weak path occupations per successful run
    for key, label in (("N_E/N", "E"), ("N_C/N", "C"), ("N_CE/N", "E,C"),
                       ("N_BF/N", "F,B")):
        report.add(key, wv[label].real)
    report.emit()
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept for the process; each
    subcommand `x` runs `cmd_x`."""
    ap = argparse.ArgumentParser(
        prog="seqweak",
        description="Sequential weak values for pre/post-selected circuits")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weakvalues", help="print the sequential weak-value table")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("simulate", help="exact pointer moment, optionally vs prediction")
    p.add_argument("file")
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--moment", required=True,
                   help="any product of q<site>/p<site> readouts, e.g. q1*q2, p1*q2")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("montecarlo", help="sampled runs with post-selection")
    p.add_argument("file")
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--moment", default=None)
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("counterfactual", help="Definitions 1-3 verdicts")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("demo", help="built-in example reports")
    p.add_argument("name")
    p.add_argument("--machine", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a rebinding of `cmd_x` on this module (the
        # benchmark's span tracer does one) applies to the cached parser too
        code = globals()[f"cmd_{args.command}"](args)
    except SeqWeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.exit_code
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
