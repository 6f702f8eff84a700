"""The four workloads: the command cycle each one repeats, its warm-up
commands and its known-limit probes.

Every command is a `seqweak` CLI invocation with `--machine`.  Document
shapes (sites n, dimension d, pointer kind) are fixed per workload; the seed
only changes the random matrices and states, so all seeds cost about the
same.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import gen

WORKLOADS = ("oracle", "montecarlo", "wvtable", "cli-small")
_CODES = {name: i for i, name in enumerate(WORKLOADS, start=1)}
PROBE_CODE = 99

ORACLE_G = 0.05
# 2*10^5 runs (0.5-1.2 s a command) rather than 10^6 (3-8 s), so that a run
# repeats each of the five commands about five times; bisection and record
# building still dominate the command.
MC_RUNS = 200_000
MC_G = 0.2
MC_POSTSELECT_PROB = 0.5
SMALL_MC_RUNS = 10_000
SMALL_G = 0.1
SMALL_COPIES = 3         # random documents per (n, d) shape in cli-small


@dataclass
class Plan:
    cycle: list[list[str]]
    warmups: list[list[str]]
    probes: list[list[str]] = field(default_factory=list)


def _moments(n: int) -> list[str]:
    return ["*".join(f"q{i}" for i in range(1, n + 1)), "p1*p2", "q1*p2"]


def _oracle(seed: int, work: Path, builtin: str) -> Plan:
    code = _CODES["oracle"]
    table = work / "gauss1024.tab"
    gen.write(table, gen.gaussian_table_text(gen.TAB_POINTS, gen.TAB_HALF_WIDTH),
              canonicalize=False)
    cells = [(n, d) for n in range(2, 7) for d in (2, 3, 4) if (n, d) != (6, 4)]
    cycle = []
    index = 0
    for n, d in cells:
        for copy in range(2):
            # every fourth document carries the tabulated pointer
            pointer = f"tabulated {table.name}" if index % 4 == 3 else "gaussian sigma=1"
            path = gen.write(work / f"o{index:02d}_n{n}d{d}.wseq",
                             gen.circuit_text((seed, code, index), n, d,
                                              pointer=pointer, g=ORACLE_G))
            for m in _moments(n):
                cycle.append(["simulate", path, "--moment", m, "--compare", "--machine"])
            index += 1
    probe = gen.write(work / "probe_n8d2.wseq",
                      gen.circuit_text((seed, PROBE_CODE, 8), 8, 2, g=ORACLE_G))
    return Plan(cycle=cycle,
                warmups=[cycle[0]],
                probes=[["simulate", probe, "--moment", _moments(8)[0],
                         "--compare", "--machine"]])


def _montecarlo(seed: int, work: Path, builtin: str) -> Plan:
    code = _CODES["montecarlo"]
    docs = [builtin]
    for index, (n, d) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)]):
        docs.append(gen.write(
            work / f"m{index}_n{n}d{d}.wseq",
            gen.circuit_text((seed, code, index), n, d,
                             pinned=(MC_POSTSELECT_PROB, MC_G))))

    def cmd(path, pos, runs=MC_RUNS):
        return ["montecarlo", path, "--runs", str(runs), "--seed", str(seed * 64 + pos),
                "--g", str(MC_G), "--machine"]

    table = work / "gauss4096.tab"
    gen.write(table, gen.gaussian_table_text(gen.PROBE_TAB_POINTS,
                                             gen.PROBE_TAB_HALF_WIDTH),
              canonicalize=False)
    four_sites = gen.write(work / "probe_n4d2.wseq",
                           gen.circuit_text((seed, PROBE_CODE, 4), 4, 2))
    tabulated = gen.write(work / "probe_tab4096.wseq",
                          gen.circuit_text((seed, PROBE_CODE, 40), 2, 2,
                                           pointer=f"tabulated {table.name}"))
    cycle = [cmd(path, pos) for pos, path in enumerate(docs)]
    return Plan(cycle=cycle,
                warmups=[cmd(builtin, 0, runs=1000)],
                probes=[cmd(four_sites, 40), cmd(tabulated, 41)])


def _wvtable(seed: int, work: Path, builtin: str) -> Plan:
    code = _CODES["wvtable"]
    cycle = []
    for index, (n, d) in enumerate([(n, d) for n in (10, 12, 14) for d in (2, 4)]):
        path = gen.write(work / f"w{index}_n{n}d{d}.wseq",
                         gen.circuit_text((seed, code, index), n, d))
        cycle.append(["weakvalues", path, "--machine"])
    return Plan(cycle=cycle, warmups=[cycle[0]])


def _cli_small(seed: int, work: Path, builtin: str) -> Plan:
    code = _CODES["cli-small"]
    docs = [builtin]
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)] * SMALL_COPIES
    for index, (n, d) in enumerate(shapes):
        docs.append(gen.write(
            work / f"s{index:02d}_n{n}d{d}.wseq",
            gen.circuit_text((seed, code, index), n, d, proj=True, g=SMALL_G,
                             inserts=n, pinned=(MC_POSTSELECT_PROB, SMALL_G))))
    cycle = []
    for pos, path in enumerate(docs):
        s = str(seed * 64 + pos)
        cycle += [
            ["weakvalues", path, "--machine"],
            ["simulate", path, "--moment", "q1*q2", "--compare", "--machine"],
            ["montecarlo", path, "--runs", str(SMALL_MC_RUNS), "--seed", s, "--machine"],
            ["counterfactual", path, "--seed", s, "--trials", "5", "--machine"],
            ["demo", "double-interferometer", "--machine"],
        ]
    return Plan(cycle=cycle, warmups=cycle[:5])


_PLANS = {"oracle": _oracle, "montecarlo": _montecarlo, "wvtable": _wvtable,
             "cli-small": _cli_small}


def build(workload: str, seed: int, work: Path, builtin: str) -> Plan:
    """Write the workload's documents under ``work`` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    return _PLANS[workload](seed, work, builtin)
