"""Benchmark of the `seqweak` CLI.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, nothing is installed.  For one workload the script writes
seeded documents under `.perfbench_work/<workload>/`, times `setup_s` in
fresh interpreters, runs the workload in one more fresh process (see
worker.py), checks every output against check.py, and prints as its last
line one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a traced run.  Lines before it, starting with `#`, give
the details: sample counts, the tail percentile and the known-limit probes.
`--workload all` runs the four workloads in turn and prints a table.

The host's single-core speed switches by up to 1.7x, for under a second or
for minutes at a time, which moves a run's latencies with it, fastest
repetitions included.  So every time is taken at host speed: the worker
times a fixed kernel of its own, the yardstick, before and after each
command and after each set-up, and a time is scaled by YARD_NOMINAL_S over
the yardstick time next to it.  A time then reads as on the host where the
yardstick takes YARD_NOMINAL_S.  Each command of the cycle repeats once a
cycle; its latency is the median of its scaled repetitions, and the
end-to-end timings are computed over these per-command latencies, each
command of the cycle counting once, which is the workload's size mix.  The
`#` lines give the unscaled figures too.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
# Fresh interpreters timed for setup_s before and after the workload process,
# which gives one more sample; spread out so they meet more than one host state.
SETUP_BEFORE = 3
SETUP_AFTER = 3
TAIL_BEYOND = 10      # op_tail_ms leaves this many commands of the cycle beyond it
# The yardstick's time on a 2-vCPU Xeon VM at its full speed; set-up and
# command times are scaled to it.
YARD_NOMINAL_S = 0.0013
DEADLINE_S = 170.0    # whole run, so the benchmark ends within 180 s



class BenchError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    """One BLAS/OpenMP thread: on this 2-vCPU host a second pool thread only
    spun (twice the CPU time, no command faster) and made each process start
    0.1 s slower, while competing with the host's other tenants."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(job: dict, work: Path, name: str, deadline: float) -> dict:
    job_path = work / f"{name}.job.json"
    job["result"] = str(work / f"{name}.result.json")
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(job_path)],
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} process exceeded the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"{name} process failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def at_host_speed(seconds: float, yard: float) -> float:
    return seconds * YARD_NOMINAL_S / yard


def latency_by_pos(records: list[dict]) -> dict[int, float]:
    """Each cycle position's median latency at host speed."""
    by_pos: dict[int, list[float]] = {}
    for rec in records:
        by_pos.setdefault(rec["pos"], []).append(at_host_speed(rec["seconds"], rec["yard"]))
    return {pos: statistics.median(xs) for pos, xs in sorted(by_pos.items())}


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) of the highest percentile that
    leaves TAIL_BEYOND samples beyond it: the (TAIL_BEYOND+1)-th largest
    value.  With too few samples, the maximum."""
    n = len(lat)
    pct = 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1) if n > TAIL_BEYOND + 1 else 100.0
    value = _percentile(lat, pct)
    return pct, value, sum(1 for x in lat if x > value)


def _percentile(xs: list[float], pct: float) -> float:
    s = sorted(xs)
    pos = (len(s) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Checker:
    """Checks each distinct (command, output, exit) once."""

    def __init__(self, check_fn):
        self.check_fn = check_fn
        self.cache: dict = {}
        self.first_failure: str | None = None

    def __call__(self, argv, rec, outputs) -> bool:
        key = (rec["pos"], rec["digest"], rec["code"], rec["exc"])
        if key not in self.cache:
            code = rec["exc"] or rec["code"]
            bad = self.check_fn(argv, code, outputs[f"{rec['pos']}:{rec['digest']}"])
            self.cache[key] = bad
            if bad and self.first_failure is None:
                self.first_failure = f"{' '.join(argv)}: {bad}"
        return self.cache[key] is None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import seqweak
    from perfbench import check, spans, workloads

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build(workload, seed, work, str(seqweak.builtin_document_path()))

    job = {"src": str(SRC), "warmups": plan.warmups, "cycle": plan.cycle,
           "probes": plan.probes, "seconds": seconds, "trace": trace,
           "spans": str(work / "spans")}
    setups = [_spawn(dict(job, mode="setup"), work, f"setup{i}", deadline)
              for i in range(SETUP_BEFORE)]
    res = _spawn(dict(job, mode="run"), work, "run", deadline)
    setups += [_spawn(dict(job, mode="setup"), work, f"setup{i}", deadline)
               for i in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER)]

    checker = Checker(check.check)
    correct = True
    for r in setups + [res]:
        for rec in r["warmups"]:
            correct &= checker(plan.warmups[-1 - rec["pos"]], rec, r["warm_outputs"])
    records = res["records"]
    ok = [checker(plan.cycle[rec["pos"]], rec, res["outputs"]) for rec in records]
    failed = ok.count(False)
    correct &= failed == 0

    probe_rows = []
    for p in res["probes"]:
        if p["code"] == 0 and p["exc"] is None:
            bad = check.check(p["argv"], 0, p["stdout"])
            correct &= bad is None
            outcome = "passes (limit lifted)" if bad is None else f"WRONG OUTPUT: {bad}"
        else:
            outcome = f"fails: {p['exc'] or 'exit ' + str(p['code'])}: {p['message']}"
        probe_rows.append((p["argv"], outcome, p["code"] == 0 and p["exc"] is None))
    probe_failures = sum(1 for *_, passed in probe_rows if not passed)

    untraced = [rec for rec in records if not rec["traced"]]
    per_pos = latency_by_pos(untraced)
    lat = list(per_pos.values())
    tail_pct, tail_value, beyond = tail(lat)
    setup_raw = [r["setup_s"] for r in setups] + [res["setup_s"]]
    setup_samples = [at_host_speed(r["setup_s"], r["setup_yard"]) for r in setups + [res]]
    mc = [(plan.cycle[pos], seconds) for pos, seconds in per_pos.items()
          if plan.cycle[pos][0] == "montecarlo"]
    mc_seconds = sum(seconds for _, seconds in mc)
    raw = [rec["seconds"] for rec in untraced]
    detail = {
        "workload": workload, "seed": seed, "cycles": res["cycles"],
        "cycle_commands": len(plan.cycle), "samples": len(raw),
        "loop_s": res["loop_s"], "steal_s": res["steal_s"],
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1000.0,
        "yard_ms": statistics.median(rec["yard"] for rec in untraced) * 1000.0,
        "setup_samples_s": setup_samples, "raw_setup_samples_s": setup_raw,
        "fail_frac": (failed + probe_failures) / (len(records) + len(probe_rows)),
        "mc_runs_per_s": (sum(int(argv[argv.index("--runs") + 1]) for argv, _ in mc)
                          / mc_seconds) if mc else 0.0,
        "first_failure": checker.first_failure, "nproc": _nproc(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }
    out = {"correct": bool(correct), "attempted": len(records), "failed": failed,
           "detail": detail, "probes": probe_rows}

    if not trace:
        values = {"setup_s": statistics.median(setup_samples),
                  "ops_per_s": len(lat) / sum(lat),
                  "op_p50_ms": statistics.median(lat) * 1000.0,
                  "op_tail_ms": tail_value * 1000.0,
                  "peak_rss_mb": res["peak_rss_mb"]}
        out["metrics"] = _declared("end_to_end", values)
        return out

    cols, side = spans.load(Path(res["spans"]))
    timed_ops = {rec["op"] for rec in records if rec["traced"]}
    all_ops = timed_ops | {p["op"] for p in res["probes"]}
    layers = spans.layer_metrics(cols, side, timed_ops, all_ops, res["cycles"])
    traced_s = sum(rec["seconds"] for rec in records if rec["traced"])
    traced_lat = latency_by_pos([rec for rec in records if rec["traced"]])
    layers["trace.overhead_frac"] = sum(traced_lat.values()) / sum(lat) - 1.0
    layers["trace.accounted_frac"] = layers.pop("trace.self_sum_ms") / (
        traced_s * 1000.0 / max(res["cycles"], 1))
    layers["fail_frac"] = detail["fail_frac"]
    layers["mc_runs_per_s"] = detail["mc_runs_per_s"]
    out["metrics"] = _declared("per_layer", layers)
    return out


def _declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, in its order and
    with its units; a declared metric without a value is an error."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "missing"


def _print_details(out: dict):
    d = out["detail"]
    print(f"# {d['workload']} seed {d['seed']}: {d['samples']} commands in "
          f"{d['cycles']} cycles of {d['cycle_commands']}, {d['loop_s']:.1f} s "
          f"({d['steal_s']:.1f} s stolen by the host); "
          f"correct={out['correct']} failed={out['failed']}")
    print(f"# timings are at host speed, over the {d['cycle_commands']} commands of "
          f"the cycle, each the median of {d['cycles']} repetitions; op_tail_ms is "
          f"p{d['tail_percentile']:.4g} with {d['tail_samples_beyond']} of "
          f"{d['cycle_commands']} beyond it")
    print(f"# unscaled: {d['raw_ops_per_s']:.6g} commands/s, median "
          f"{d['raw_op_p50_ms']:.6g} ms over all {d['samples']} samples, set-up "
          f"median {statistics.median(d['raw_setup_samples_s']):.6g} s; yardstick "
          f"median {d['yard_ms']:.4g} ms (nominal {YARD_NOMINAL_S * 1000:g} ms)")
    print(f"# fail_frac {d['fail_frac']:.6g} (probes included), "
          f"mc_runs_per_s {d['mc_runs_per_s']:.6g}")
    for argv, outcome, _ in out["probes"]:
        print(f"# probe {argv[0]} {Path(argv[1]).name}: {outcome}")
    if d["first_failure"]:
        print(f"# first failure: {d['first_failure']}")
    print("# detail " + json.dumps(d))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "seqweak" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'seqweak'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_details(out)
        results[name] = out
    if args.workload == "all":
        for name, out in results.items():
            print(f"# {name:<11} correct={out['correct']}")
            for key, m in out["metrics"].items():
                print(f"#   {key:<32} {m['value']:>14.6g} {m['unit']}")
    for out in results.values():
        print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
