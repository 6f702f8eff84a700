"""One fresh workload process: set up, run the closed loop, run the probes.

Usage: python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the package source directory, the
warm-up commands, the command cycle, the probes, the run length and whether
to trace.  A single client runs `seqweak.cli.main(argv)` in-process and
starts the next command when the previous one returns.  Results go to the
job's `result` path as JSON; stdout is left to the commands.

`setup_s` runs from the first line of this file to the end of the warm-up
commands: the package import plus one warm-up command per subcommand.

Each command is bracketed by the yardstick, a fixed kernel of the
benchmark's own (see `Yardstick`), and its record carries the mean of the
two yardstick times around it; run.py uses them to undo the host's changes
of speed.  A set-up process times the yardstick after its warm-ups.
"""
import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_command(cli, argv):
    """(seconds, exit code, uncaught exception type, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    exc_type = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the benchmark counts it and keeps going
            code, exc_type = 1, type(exc).__name__
            print(f"uncaught {exc_type}: {exc}", file=err)
        seconds = time.perf_counter() - start
    return seconds, code, exc_type, out.getvalue(), err.getvalue()


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM, because
    getrusage's ru_maxrss on Linux keeps the parent's peak across fork and
    exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_seconds() -> float:
    """Time the machine's virtual CPUs spent descheduled by the host
    (the `steal` column of /proc/stat), summed over CPUs; 0 where absent."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Yardstick:
    """A fixed mix of the work the package does, none of it the package's:
    interpreted dict and loop code, small complex matrix products, a small
    Hermitian eigendecomposition, a sort of a 32 KiB array and a random
    gather from a 4 MiB one, which misses the caches as large weak-value
    tables and Monte Carlo batches do.  About two milliseconds.  Its time,
    taken next to a command, tells how fast the host runs at that moment."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20070611)
        self.np = np
        self.m = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / 4
        self.h = self.m + self.m.conj().T
        self.v = rng.standard_normal(4096)
        self.big = rng.standard_normal(1 << 19)
        self.idx = rng.integers(0, 1 << 19, 1 << 16)
        self.last = self.measure()

    def measure(self) -> float:
        """Time one pass, after an untimed one that brings the yardstick's
        data back into the caches, so that what the command before it left
        behind does not count."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        self.last = time.perf_counter() - start
        return self.last

    def _kernel(self):
        np = self.np
        d = {}
        for i in range(3000):
            d[i % 61] = d.get(i % 61, 0) + i
        x = self.m
        for _ in range(120):
            x = x @ self.m
            x = x / np.abs(x).max()
        np.linalg.eigh(self.h)
        np.sort(self.v)
        for _ in range(4):
            self.big.take(self.idx).sum()

    def around(self, fn, *args):
        """(result of fn, mean yardstick time just before and after it)."""
        before = self.last
        result = fn(*args)
        return result, (before + self.measure()) / 2


class Recorder:
    """Command records plus each distinct output once, keyed by digest."""

    def __init__(self):
        self.records = []
        self.outputs = {}

    def add(self, pos, result, yard=None, traced=False, op=-1):
        seconds, code, exc_type, stdout, stderr = result
        digest = hashlib.blake2b(stdout.encode(), digest_size=16).hexdigest()
        self.outputs.setdefault(f"{pos}:{digest}", stdout)
        self.records.append({"pos": pos, "seconds": seconds, "yard": yard,
                             "code": code, "exc": exc_type, "digest": digest,
                             "traced": traced, "op": op,
                             "stderr": stderr[-300:] if code else ""})


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("seqweak.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"seqweak was imported from {cli.__file__}, not {src}")
    warm = Recorder()
    for i, argv in enumerate(job["warmups"]):
        warm.add(-1 - i, run_command(cli, argv))
    setup_s = time.perf_counter() - T0
    yard = Yardstick()
    result = {"setup_s": setup_s,
              "setup_yard": statistics.median(yard.measure() for _ in range(5)),
              "warmups": warm.records, "warm_outputs": warm.outputs}
    if job["mode"] == "setup":
        Path(job["result"]).write_text(json.dumps(result))
        return

    tracer = None
    if job["trace"] or job["probes"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from perfbench.spans import Tracer
        tracer = Tracer()

    def run_traced(op, argv):
        tracer.begin_op(op)
        try:
            return run_command(cli, argv)
        finally:
            tracer.end_op()

    rec = Recorder()
    cycle, seconds = job["cycle"], job["seconds"]
    op = 0
    cycles = 0
    steal_start = steal_seconds()
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for pos, argv in enumerate(cycle):
            if not job["trace"]:
                rec.add(pos, *yard.around(run_command, cli, argv))
                continue
            # traced and untraced copies back to back, alternating the order
            for traced in ((True, False) if (pos + cycles) % 2 == 0 else (False, True)):
                if traced:
                    rec.add(pos, *yard.around(run_traced, op, argv), traced=True, op=op)
                    op += 1
                else:
                    rec.add(pos, *yard.around(run_command, cli, argv))
        cycles += 1
        now = time.perf_counter()
        if now - loop_start + (now - cycle_start) > seconds:
            break
    result.update(cycles=cycles, loop_s=time.perf_counter() - loop_start,
                  steal_s=steal_seconds() - steal_start, peak_rss_mb=peak_rss_mb(),
                  records=rec.records, outputs=rec.outputs)

    # Known-limit probes: after the measurement, always traced, so the
    # exception type is known even where the CLI turns it into an exit code.
    probes = []
    for argv in job["probes"]:
        _, code, exc_type, stdout, stderr = run_traced(op, argv)
        probes.append({"argv": argv, "code": code, "stdout": stdout,
                       "exc": exc_type or tracer.first_error(op),
                       "message": stderr.strip().splitlines()[-1] if stderr.strip() else "",
                       "op": op})
        op += 1
    result["probes"] = probes
    if tracer is not None:
        tracer.dump(Path(job["spans"]))
        result["spans"] = job["spans"]
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
