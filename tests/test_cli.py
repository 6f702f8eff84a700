import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqweak
from seqweak import (algebra, cli, circuitio, circuitmodel, counterfactual, montecarlo,
                     oracle, weakvalue)
from seqweak.circuitio import builtin_document_path, format_complex
from seqweak.cli import build_parser, main
from seqweak.pointer import MomentSpec

from conftest import (combination_tree, per_row_walk, random_hermitian, random_state,
                      random_unitary)
from test_counterfactual import per_trial_def3_reference

SHIPPED = str(builtin_document_path())


def machine(capsys, argv):
    code = main(argv + ["--machine"])
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition("\t")
        rows[key] = value
    return code, rows


def test_weakvalues_table(capsys):
    code, rows = machine(capsys, ["weakvalues", SHIPPED])
    assert code == 0
    assert float(rows["F.re"]) == pytest.approx(-1 / np.sqrt(2), abs=1e-11)
    assert float(rows["wv.(F,B).re"]) == pytest.approx(-0.5, abs=1e-11)
    assert float(rows["wv.(B).re"]) == pytest.approx(0.0, abs=1e-11)
    assert rows["wv.().re"] == "1"


def test_weakvalues_max_order(capsys):
    code, rows = machine(capsys, ["weakvalues", SHIPPED, "--max-order", "1"])
    assert code == 0
    assert "wv.(F,B).re" not in rows
    assert "wv.(F).re" in rows


def test_simulate_compare(capsys):
    code, rows = machine(capsys, ["simulate", SHIPPED, "--moment", "q1*q2",
                                  "--g", "0.001", "--compare"])
    assert code == 0
    assert float(rows["prediction"]) == pytest.approx(-2.5e-7, rel=1e-9)
    assert float(rows["rel_discrepancy"]) < 0.05
    assert float(rows["postselect_prob"]) == pytest.approx(0.5, abs=1e-6)


def test_simulate_compare_momentum_then_position(tmp_path, capsys):
    # p1*q2 has a leading-order prediction like every q/p product; on the
    # built-in document it and the exact value are both 0, so use a random one
    doc = wide_document(tmp_path / "wide.wseq", n=3, d=3)
    discs = []
    for g in ("0.01", "0.005"):
        code, rows = machine(capsys, ["simulate", doc, "--moment", "p1*q2",
                                      "--g", g, "--compare"])
        assert code == 0
        assert float(rows["prediction"]) != 0.0
        assert float(rows["rel_discrepancy"]) < 0.05
        discs.append(float(rows["abs_discrepancy"]))
    assert discs[1] <= discs[0] / 1.9


def test_simulate_bad_moment_exit_code(capsys):
    code = main(["simulate", SHIPPED, "--moment", "z9"])
    assert code == 2


def test_montecarlo(capsys):
    code, rows = machine(capsys, ["montecarlo", SHIPPED, "--runs", "5000",
                                  "--seed", "5", "--g", "0.05"])
    assert code == 0
    assert int(rows["n_total"]) == 5000
    mean, exact = float(rows["mean"]), float(rows["exact"])
    assert abs(mean - exact) < 5 * float(rows["stderr"])


def test_montecarlo_requires_seed():
    with pytest.raises(SystemExit) as err:
        main(["montecarlo", SHIPPED, "--runs", "10"])
    assert err.value.code == 2


def test_montecarlo_rejects_zero_runs(capsys):
    code = main(["montecarlo", SHIPPED, "--runs", "0", "--seed", "1"])
    assert code == 2


def test_counterfactual(capsys):
    code, rows = machine(capsys, ["counterfactual", SHIPPED, "--seed", "3",
                                  "--trials", "2"])
    assert code == 0
    assert rows["def1_counterfactual"] == "False"
    assert rows["def2_counterfactual"] == "False"
    assert rows["definitions_agree"] == "True"
    assert rows["witness.subset"] == "(F,B)"
    assert float(rows["witness.weak_value.re"]) == pytest.approx(-0.5, abs=1e-11)


def test_demo(capsys):
    code, rows = machine(capsys, ["demo", "double-interferometer"])
    assert code == 0
    assert float(rows["wv.(C).re"]) == pytest.approx(1.0, abs=1e-11)
    assert float(rows["wv.(E,B).re"]) == pytest.approx(0.5, abs=1e-11)
    assert float(rows["N_BF/N"]) == pytest.approx(-0.5)
    assert float(rows["N_E/N"]) == pytest.approx(1.0)


def run_module(*argv, python_args=("-m", "seqweak.cli")):
    """``python -m seqweak.cli`` (or ``python`` with ``python_args``) in a
    fresh interpreter, this package first on its path."""
    src = str(Path(seqweak.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *python_args, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


# the demo's machine report, byte for byte: its exact zeros (and their
# signs) hold only while every grid amplitude is walked by matvecs
DEMO_MACHINE = """\
command\tdemo double-interferometer
fingerprint\tccf8d1b5de4c7433
F.re\t-0.707106781187
F.im\t0
wv.(B).re\t-0
wv.(B).im\t-0
wv.(C).re\t1
wv.(C).im\t-0
wv.(E).re\t1
wv.(E).im\t-0
wv.(F).re\t-0
wv.(F).im\t-0
wv.(E,B).re\t0.5
wv.(E,B).im\t-0
wv.(F,B).re\t-0.5
wv.(F,B).im\t-0
wv.(E,C).re\t0.5
wv.(E,C).im\t-0
wv.(F,C).re\t0.5
wv.(F,C).im\t-0
N_E/N\t1
N_C/N\t1
N_CE/N\t0.5
N_BF/N\t-0.5
"""


def test_module_entry_point():
    out = run_module("demo", "double-interferometer", "--machine")
    assert out.returncode == 0, out.stderr
    assert out.stdout == DEMO_MACHINE
    # the CLI's runtime imports are numpy and the standard library only
    out = run_module(python_args=(
        "-c", "import seqweak.cli, sys; print('scipy' in sys.modules)"))
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def test_demo_unknown_name(capsys):
    assert main(["demo", "nope"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", SHIPPED, "--moment", "q5"],
    ["simulate", SHIPPED, "--moment", "q1", "--g", "-1"],
    ["weakvalues", SHIPPED, "--max-order", "5"],
    ["montecarlo", SHIPPED, "--runs", "100", "--seed", "1", "--moment", "p1"],
    ["simulate", SHIPPED, "--moment", "q1", "--g", "nan"],
    ["simulate", SHIPPED, "--moment", "q1", "--g", "inf"],
    ["montecarlo", SHIPPED, "--runs", "100", "--seed", "1", "--g", "nan"],
    ["montecarlo", SHIPPED, "--runs", "100", "--seed", "1", "--g", "inf"],
    ["counterfactual", SHIPPED, "--trials", "0", "--seed", "1"],
    ["weakvalues", SHIPPED, "--max-order", "-1"],
    ["counterfactual", SHIPPED, "--seed", "1", "--g", "nan"],
    ["counterfactual", SHIPPED, "--seed", "1", "--g", "inf"],
    ["counterfactual", SHIPPED, "--seed", "1", "--g", "0"],
])
def test_library_input_errors_exit_code(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("moment,g,rel", [
    ("q1", "0", "0"), ("q1", "1e-300", "inf"), ("q1*q2", "1e-200", "0"),
])
def test_compare_at_a_vanishing_scale(capsys, moment, g, rel):
    # the relative scale max(|prediction|, g^(m+1)) is 0 here: the relative
    # discrepancy reads 0 when the absolute one is 0, and inf otherwise
    argv = ["simulate", SHIPPED, "--moment", moment, "--g", g, "--compare", "--machine"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    rows = dict(line.split("\t") for line in out.splitlines())
    assert err == "" and rows["prediction"] in ("0", "-0")
    assert (rows["abs_discrepancy"] == "0") == (rel == "0")
    assert rows["rel_discrepancy"] == rel


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code", [
    (["simulate", SHIPPED, "--moment", "q1", "--g", "1e200", "--compare"], 0),
    (["simulate", SHIPPED, "--moment", "q1", "--g", "1e200"], 0),
    (["simulate", SHIPPED, "--moment", "q1*q2", "--g", "1e300"], 2),
    (["simulate", SHIPPED, "--moment", "p1*q2", "--g", "1e300", "--compare"], 2),
    (["counterfactual", SHIPPED, "--seed", "1", "--g", "1e155"], 2),
    (["montecarlo", SHIPPED, "--runs", "100", "--seed", "1", "--g", "1e155"], 2),
    (["montecarlo", SHIPPED, "--runs", "100", "--seed", "1", "--g", "1e300"], 2),
], ids=["q1-compare", "q1", "q1*q2", "p1*q2-compare", "counterfactual", "montecarlo-1e155",
        "montecarlo-1e300"])
def test_huge_coupling_is_a_result_or_one_error_line(capsys, argv, code):
    # a finite result with no nan, or one `error:` line; no traceback and
    # no numpy warning
    assert main(argv + ["--machine"]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        rows = dict(line.split("\t") for line in out.splitlines())
        assert err == "" and all(np.isfinite(float(rows[key]))
                                 for key in ("exact", "postselect_prob"))
        assert "nan" not in out
        if "--compare" in argv:
            assert rows["rel_discrepancy"] == "0"  # the scale g^2 reads inf


def _spread_spectra(text):
    """The built-in document with observables of eigenvalues (2, -1) and
    (1.5, -1.5) in place of its projectors, and no insertions: at g = 1e308
    every shift g a and every difference g (a - b) overflows."""
    return (text.replace("proj 0\n", "2+0i 0+0i\n0+0i -1+0i\n")
            .replace("proj 1\n", "0+0i 1.5+0i\n1.5+0i 0+0i\n")
            .replace("insert B\ninsert F\n", ""))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pointer", ["gaussian sigma=1", "tabulated prof.dat"])
@pytest.mark.parametrize("g", ["1e308", "1.7e308"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--moment", "q1"],
    ["simulate", "--moment", "p1*q2", "--compare"],
    ["montecarlo", "--runs", "100", "--seed", "1"],
], ids=["q1", "p1*q2-compare", "montecarlo"])
def test_overflowing_shifts_are_a_result_or_one_error_line(tmp_path, capsys, pointer, g,
                                                           argv):
    (tmp_path / "prof.dat").write_text("\n".join(_gaussian_table()) + "\n")
    doc = _shipped_with(tmp_path, "c.wseq",
                        lambda s: _spread_spectra(s) + f"pointer {pointer}\n")
    code = main([argv[0], doc, *argv[1:], "--g", g, "--machine"])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and "nan" not in out


@pytest.mark.parametrize("g", ["10", "1e4", "1e5", "1e154"])
@pytest.mark.parametrize("single, null", [(False, "False"), (True, "True")])
def test_definitions_agree_at_a_large_coupling(tmp_path, capsys, g, single, null):
    # the Definition-3 tolerance stops growing at g = 1, as the responses
    # stay below about 3; the built-in document with B inserted alone is
    # counterfactual
    doc = SHIPPED if not single else _shipped_with(
        tmp_path, "single.wseq", lambda t: t.replace("insert F\n", ""))
    code, rows = machine(capsys, ["counterfactual", doc, "--seed", "1", "--g", g])
    assert code == 0
    assert rows["def3_null"] == null and rows["definitions_agree"] == "True"


def test_montecarlo_without_sites_names_the_fault(tmp_path, capsys):
    doc = tmp_path / "no_sites.wseq"
    doc.write_text(NO_SITES)
    assert main(["montecarlo", str(doc), "--runs", "10", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: circuit has no measurement sites\n"


@pytest.mark.parametrize("argv", [
    ["montecarlo", SHIPPED, "--runs", "100", "--seed", "-1"],
    ["counterfactual", SHIPPED, "--seed", "-5"],
])
def test_negative_seed_is_one_error_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err


@pytest.mark.parametrize("extra", [
    ["--moment", "p1"], ["--moment", "q1*p2"], ["--moment", "q3"],
    ["--moment", "q1*q3"], ["--g", "nan"], ["--g", "-1"],
])
def test_montecarlo_checks_input_before_sampling(capsys, monkeypatch, extra):
    # `sample_runs` judges its input before its first work, the eigenbases
    def refuse(*args, **kwargs):
        raise AssertionError("sampling started on invalid input")

    monkeypatch.setattr(montecarlo, "eigenbases", refuse)
    code = main(["montecarlo", SHIPPED, "--runs", "1000000", "--seed", "1", *extra])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _gaussian_table(rows=512):
    q = np.linspace(-12, 12, rows)
    return [f"{qi:.17g} {v:.17g} 0" for qi, v in zip(q, np.exp(-q**2 / 4))]


@pytest.mark.parametrize("pointer_line, table_row", [
    ("pointer gaussian sigma=nan", None),
    ("pointer gaussian sigma=inf", None),
    ("pointer gaussian sigma=1 qoffset=nan", None),
    ("pointer gaussian sigma=1 poffset=nan", None),
    ("pointer gaussian sigma=abc", None),
    ("pointer tabulated prof.dat", "{q} nan 0"),
    ("pointer tabulated prof.dat", "{q} 0.5 inf"),
    ("pointer tabulated prof.dat", "nan 0.5 0"),
    ("pointer tabulated prof.dat", "abc 0.5 0"),
])
def test_bad_pointer_input_exit_code(tmp_path, capsys, pointer_line, table_row):
    # the table's middle row is replaced (keeping its q where the template
    # says so); the document's last pointer line wins
    rows = _gaussian_table()
    if table_row is not None:
        rows[256] = table_row.format(q=rows[256].split()[0])
    (tmp_path / "prof.dat").write_text("\n".join(rows) + "\n")
    doc = tmp_path / "c.wseq"
    doc.write_text(Path(SHIPPED).read_text() + pointer_line + "\n")
    assert main(["simulate", str(doc), "--moment", "q1", "--compare"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--moment", "q1"],
    ["montecarlo", "--runs", "100", "--seed", "1"],
])
def test_shift_off_tabulated_grid_exit_code(tmp_path, capsys, argv):
    # g = 8 moves a +-5 table of a sigma = 0.5 Gaussian off its grid
    q = np.linspace(-5, 5, 1024)
    rows = [f"{qi:.17g} {v:.17g} 0" for qi, v in zip(q, np.exp(-q**2))]
    (tmp_path / "prof.dat").write_text("\n".join(rows) + "\n")
    doc = tmp_path / "c.wseq"
    doc.write_text(Path(SHIPPED).read_text() + "pointer tabulated prof.dat\n")
    assert main([argv[0], str(doc), *argv[1:], "--g", "8"]) == 2
    assert "grid ends" in capsys.readouterr().err


def test_tabulated_pointer_errors_name_the_line(tmp_path):
    rows = _gaussian_table()
    (tmp_path / "prof.dat").write_text("\n".join(rows) + "\n")
    assert circuitio.load_tabulated_profile(tmp_path / "prof.dat").kind == "tabulated"
    rows[9] = "abc 0.5 0"
    (tmp_path / "prof.dat").write_text("\n".join(rows) + "\n")
    with pytest.raises(circuitio.ParseError) as err:
        circuitio.load_tabulated_profile(tmp_path / "prof.dat")
    assert err.value.line == 10
    (tmp_path / "short.dat").write_text("\n".join(_gaussian_table(100)) + "\n")
    with pytest.raises(circuitio.ParseError, match="256"):
        circuitio.load_tabulated_profile(tmp_path / "short.dat")


def test_missing_file_exit_code(capsys):
    assert main(["weakvalues", "/nonexistent.wseq"]) == 2
    assert "error:" in capsys.readouterr().err


def test_overflowing_unitary_is_one_error_line(tmp_path):
    # an entry of 1e200 overflows U^dag U: the deviation is computed once,
    # with no numpy warning, for the check and for the message
    doc = _shipped_with(tmp_path, "big.wseq", lambda s: s.replace(
        "0.70710678118654746+0i 0.70710678118654746+0i",
        "1e200+0i 0.70710678118654746+0i", 1))
    out = run_module("weakvalues", doc)
    assert out.returncode == 2
    assert out.stderr == "error: line 5: NonUnitary: max deviation inf (at 'U1')\n"


@pytest.mark.parametrize("pointer, moment", [
    ("gaussian", None), ("gaussian", "q2"), ("tabulated", "q1"), ("tabulated", None),
])
def test_montecarlo_walks_the_effects_once(tmp_path, capsys, monkeypatch, pointer, moment):
    # the sampler's own backward walk carries the moment's Q kernels, so
    # `exact` and `postselect_prob` take no second walk; every row prints as
    # a batch without the moment, `estimate_moment` and `exact_moment` give it
    doc = SHIPPED
    if pointer == "tabulated":
        (tmp_path / "prof.dat").write_text("\n".join(_gaussian_table()) + "\n")
        doc = _shipped_with(tmp_path, "c.wseq", lambda s: s + "pointer tabulated prof.dat\n")
    argv = ["montecarlo", doc, "--runs", "3000", "--seed", "4", "--g", "0.3"]
    walks, effects = [], oracle.effects

    def counted(*args):
        walks.append(len(args[1][0]))
        return effects(*args)

    with monkeypatch.context() as m:
        m.setattr(oracle, "effects", counted)
        m.setattr(montecarlo, "effects", counted)
        code, rows = machine(capsys, argv + (["--moment", moment] if moment else []))
    assert code == 0
    assert walks == [3]  # grid S, exact S and the moment's numerator
    loaded = circuitio.load(doc)
    c, prof = loaded.to_circuit(), cli._doc_profile(loaded)
    spec = MomentSpec.parse(moment or "q1*q2")
    est = montecarlo.estimate_moment(montecarlo.sample_runs(c, 0.3, prof, 3000, 4), spec)
    exact, prob = oracle.exact_moment(c, spec, 0.3, prof)
    for key, value in [("mean", est.mean), ("stderr", est.stderr), ("exact", exact),
                       ("postselect_prob", prob)]:
        assert rows[key] == "%.12g" % value, key


def test_human_output_is_aligned(capsys):
    code = main(["weakvalues", SHIPPED])
    assert code == 0
    out = capsys.readouterr().out
    assert "command" in out and "\t" not in out


def _shipped_with(tmp_path, name, edit):
    doc = tmp_path / name
    doc.write_text(edit(Path(SHIPPED).read_text()))
    return str(doc)


@pytest.mark.parametrize("argv, code", [
    # F = 0: the built-in document post-selected on (1, 1)
    (["weakvalues", "{f0}"], 3),
    (["counterfactual", "{f0}", "--seed", "1"], 3),
    (["simulate", "{f0}", "--moment", "q1", "--g", "0"], 3),
    (["simulate", "{f0}", "--moment", "q1", "--g", "1e-9"], 3),
    (["simulate", "{f0}", "--moment", "q1*q2", "--g", "0", "--compare"], 3),
    (["montecarlo", "{f0}", "--runs", "100", "--seed", "1", "--g", "0"], 3),
    (["montecarlo", "{f0}", "--runs", "100", "--seed", "1", "--g", "1e-9"], 3),
    # Assumption A: a product other than one position needs a centred pointer
    (["simulate", "{offset}", "--moment", "p1*q2", "--compare"], 2),
    (["simulate", SHIPPED, "--moment", "z9"], 2),
    (["simulate", SHIPPED, "--moment", "q2*q1"], 2),
    (["montecarlo", SHIPPED, "--runs", "100", "--seed", "1", "--moment", "q2*q1"], 2),
    (["montecarlo", SHIPPED, "--runs", "0", "--seed", "1"], 2),
    (["counterfactual", "{no_insert}", "--seed", "1"], 2),
    (["demo", "nope"], 2),
    (["weakvalues", "{tmp}/missing.wseq"], 2),
    (["weakvalues", "{tmp}"], 2),
    (["weakvalues", "{binary}"], 2),
    (["simulate", "{missing_table}", "--moment", "q1"], 2),
    (["weakvalues", "{dup_name}"], 2),
    (["weakvalues", "{dup_insert}"], 2),
], ids=lambda v: " ".join(map(os.path.basename, v)) if isinstance(v, list) else None)
def test_error_exit_code_matrix(tmp_path, capsys, argv, code):
    (tmp_path / "binary.wseq").write_bytes(bytes(range(128, 256)))
    docs = {
        "tmp": str(tmp_path),
        "binary": str(tmp_path / "binary.wseq"),
        "f0": _shipped_with(tmp_path, "f0.wseq", lambda s: s.replace(
            "postselect 0+0i 1+0i", "postselect 1+0i 1+0i")),
        "no_insert": _shipped_with(tmp_path, "no_insert.wseq", lambda s: s.replace(
            "insert B\ninsert F\n", "")),
        "missing_table": _shipped_with(tmp_path, "missing_table.wseq",
                                       lambda s: s + "pointer tabulated missing.dat\n"),
        "dup_name": _shipped_with(tmp_path, "dup_name.wseq", lambda s: s.replace(
            "observe F", "observe B").replace("insert F\n", "")),
        "dup_insert": _shipped_with(tmp_path, "dup_insert.wseq",
                                    lambda s: s + "insert B\n"),
        "offset": _shipped_with(tmp_path, "offset.wseq", lambda s: s.replace(
            "pointer gaussian sigma=1", "pointer gaussian sigma=1 qoffset=0.3")),
    }
    # main returns the code of every error it meets and never raises
    assert main([arg.format(**docs) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_observable_within_hermitian_tolerance_runs(tmp_path, capsys):
    # Circuit and the parser accept a deviation up to 1e-9, and so does
    # every command that takes the observable's spectrum
    doc = _shipped_with(tmp_path, "c.wseq", lambda s: s.replace(
        "observe B\nproj 0\n", "observe B\n1 5e-10\n0 0\n"))
    assert main(["weakvalues", doc]) == 0
    assert main(["simulate", doc, "--moment", "q1*q2", "--compare"]) == 0
    assert main(["montecarlo", doc, "--runs", "1000", "--seed", "1", "--g", "0.05"]) == 0
    assert "error" not in capsys.readouterr().err



# -- weakvalues output, byte for byte, against the per-row report ----------

def _reference_subset_label(subset, names):
    if not subset:
        return "()"
    return "(" + ",".join(names.get(s, f"A{s}") for s in reversed(subset)) + ")"


def _reference_observe_names(doc):
    names, boundary = {}, 0
    for st in doc.stanzas:
        if isinstance(st, circuitio.UnitaryStanza):
            boundary += 1
        else:
            names[boundary] = st.name
    return names


def reference_weakvalues(path, max_order, machine):
    """`weakvalues` output as a per-row report writes it: one row per key,
    numbers formatted one at a time, one print per line.  The subsets come
    from itertools.combinations and their weak values from the per-row
    walk over their 0/1 history rows, divided by that walk's F."""
    doc = circuitio.load(path)
    c = doc.to_circuit()
    k = max_order if max_order is not None else c.n
    subsets, history, _, _ = combination_tree(c.n, k)
    amps = per_row_walk(c, [np.array([u, a @ u]) for u, a in c.stages], history)
    values = amps / amps[0]
    values[0] = 1.0
    f = circuitmodel.transition_amplitude(c)
    rows = [("command", "weakvalues"),
            ("fingerprint", hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16])]

    def add(key, value):
        rows.append((f"{key}.re", f"{value.real:.12g}"))
        rows.append((f"{key}.im", f"{value.imag:.12g}"))

    names = _reference_observe_names(doc)
    add("F", f)
    for subset, value in zip(subsets, values):
        add(f"wv.{_reference_subset_label(subset, names)}", value)
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key}\t{value}\n" if machine else f"{key:<{width}}  {value}\n"
                   for key, value in rows)


def _matrix_lines(m):
    return [" ".join(format_complex(complex(z)) for z in row) for row in m]


def wide_document(path, n=10, d=2, seed=31):
    """A seeded n-site document mixing named observes, unnamed ones and
    sites without an observe (both named `A<site>`)."""
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        lines = ["wseq 1", f"dim {d}",
                 "state " + " ".join(map(format_complex, random_state(rng, d)))]
        for site in range(1, n + 2):
            lines += [f"unitary U{site}", *_matrix_lines(random_unitary(rng, d))]
            if site > n or site % 4 == 2:
                continue  # the final evolution, or a site without an observe
            lines.append("observe" if site % 4 == 3 else f"observe X{site}")
            if site % 2:
                lines.append(f"proj {int(rng.integers(0, d))}")
            else:
                lines += _matrix_lines(random_hermitian(rng, d))
        lines.append("postselect " + " ".join(map(format_complex, random_state(rng, d))))
        path.write_text("\n".join(lines) + "\n")
        c = circuitio.load(path).to_circuit()
        if c.n == n and abs(circuitmodel.transition_amplitude(c)) > 0.1:
            return str(path)
    raise RuntimeError("no well-conditioned document")


NO_SITES = """wseq 1
dim 2
state 1+0i 0+0i
unitary U1
0.70710678118654746+0i 0.70710678118654746+0i
0.70710678118654746+0i -0.70710678118654746+0i
postselect 0+0i 1+0i
"""


# (max_order, machine, n, d): every order on the n = 10 document, and the
# full and a middle order on a wider one
PER_ROW_CASES = (
    [pytest.param(k, machine, 10, 2, id=f"{k}-{machine}")
     for k in (0, 1, 3, None) for machine in (False, True)]
    + [pytest.param(k, machine, 12, 4, id=f"n12d4-{k}-{machine}")
       for k in (5, None) for machine in (False, True)])


@pytest.mark.parametrize("max_order, machine, n, d", PER_ROW_CASES)
def test_weakvalues_output_matches_per_row_report(tmp_path, capsys, max_order, machine,
                                                  n, d):
    doc = wide_document(tmp_path / "wide.wseq", n=n, d=d)
    argv = ["weakvalues", doc]
    argv += [] if max_order is None else ["--max-order", str(max_order)]
    argv += ["--machine"] if machine else []
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == reference_weakvalues(doc, max_order, machine)
    if max_order is None:
        assert out.count("wv.(") == 2 * 2 ** n
        # site 6 has no observe; site 7's is unnamed
        assert "wv.(A6,X5,X4).re" in out and "wv.(A7,X1).re" in out


def test_weakvalues_first_order_at_seventy_sites(tmp_path, capsys):
    doc = wide_document(tmp_path / "wide.wseq", n=70)
    code, rows = machine(capsys, ["weakvalues", doc, "--max-order", "1"])
    assert code == 0
    c = circuitio.load(doc).to_circuit()
    names = circuitio.load(doc).site_names
    assert len(rows) == 4 + 2 * 71
    for site in range(1, 71):
        value = weakvalue.weak_value(c, (site,))
        assert rows[f"wv.({names[site - 1]}).re"] == f"{value.real:.12g}"
        assert rows[f"wv.({names[site - 1]}).im"] == f"{value.imag:.12g}"
    assert main(["weakvalues", doc, "--max-order", "1", "--machine"]) == 0
    assert capsys.readouterr().out == reference_weakvalues(doc, 1, True)


def test_weakvalues_low_order_of_many_sites(tmp_path, capsys):
    # 821 entries of a table whose full order would have 2^40
    doc = wide_document(tmp_path / "wide.wseq", n=40)
    code, rows = machine(capsys, ["weakvalues", doc, "--max-order", "2"])
    assert code == 0
    assert len(rows) == 4 + 2 * (1 + 40 + 780)


def test_weakvalues_refuses_an_oversized_table(tmp_path, capsys):
    # the 2^24 entries are counted, not allocated: exit 2 with the count
    doc = wide_document(tmp_path / "wide.wseq", n=24)
    assert main(["weakvalues", doc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "16777216 entries" in captured.err


def test_weakvalues_keys_are_unique(tmp_path, capsys):
    # every site has one name, so no two subsets share a key
    doc = wide_document(tmp_path / "wide.wseq")
    assert main(["weakvalues", doc, "--machine"]) == 0
    keys = [line.partition("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert len(keys) == 4 + 2 * 2 ** 10
    assert len(set(keys)) == len(keys)


# every command on the built-in document, and the circuits it builds: the
# parser's one only, also for `counterfactual`, whose weak values of the
# on-projectors walk the parsed circuit itself
BUILTIN_COMMANDS = [
    (["weakvalues", SHIPPED], 1),
    (["simulate", SHIPPED, "--moment", "q1*q2", "--compare"], 1),
    (["montecarlo", SHIPPED, "--runs", "300", "--seed", "1"], 1),
    (["counterfactual", SHIPPED, "--seed", "1", "--trials", "2"], 1),
    (["demo", "double-interferometer"], 1),
]


@pytest.mark.parametrize("argv, builds", BUILTIN_COMMANDS,
                         ids=lambda v: v[0] if isinstance(v, list) else None)
def test_commands_build_the_circuit_once(monkeypatch, capsys, argv, builds):
    post_init = circuitmodel.Circuit.__post_init__
    built = []

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(circuitmodel.Circuit, "__post_init__", counting_post_init)
    assert main(argv) == 0
    assert len(built) == builds


def test_benchmark_tracer_runs_every_command(monkeypatch, capsys):
    # the benchmark's span tracer wraps package functions and the methods it
    # names; every command must still run under it, and every work-count
    # hook must still read its function's arguments and result
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.spans import Tracer

    tracer = Tracer()
    for op, (argv, _) in enumerate(BUILTIN_COMMANDS):
        tracer.begin_op(op)
        try:
            assert main(argv) == 0
        finally:
            tracer.end_op()
    assert tracer.hook_errors == 0
    traced = {tracer.names[i] for i in tracer.name_col}
    assert {"circuitio.CircuitDocument.to_circuit", "circuitio.CircuitDocument.insertion_set",
            "circuitmodel.Circuit.__post_init__", "cli.cmd_demo"} <= traced


@pytest.mark.parametrize("machine", [True, False])
def test_weakvalues_without_sites(tmp_path, capsys, machine):
    doc = tmp_path / "no_sites.wseq"
    doc.write_text(NO_SITES)
    assert main(["weakvalues", str(doc)] + (["--machine"] if machine else [])) == 0
    out = capsys.readouterr().out
    assert out == reference_weakvalues(str(doc), None, machine)
    if machine:
        rows = dict(line.split("\t") for line in out.splitlines())
        assert float(rows["F.re"]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert rows["wv.().re"] == "1" and "wv.().im" in rows


@pytest.mark.parametrize("machine", [True, False])
def test_names_that_read_as_formats_print_verbatim(tmp_path, capsys, machine):
    # the report is one printf-style format; names are its arguments, never
    # part of it
    doc = _shipped_with(tmp_path, "pct.wseq", lambda s: s.replace(
        "observe B", "observe X%s").replace("insert B", "insert X%s").replace(
        "observe F", "observe %d%%").replace("insert F", "insert %d%%"))
    flag = ["--machine"] if machine else []
    assert main(["weakvalues", doc] + flag) == 0
    out = capsys.readouterr().out
    assert out == reference_weakvalues(doc, None, machine)
    assert "wv.(%d%%,X%s).re" in out and "wv.(X%s).im" in out
    assert main(["counterfactual", doc, "--seed", "3", "--trials", "2"] + flag) == 0
    lines = capsys.readouterr().out.splitlines()
    witness = [line for line in lines if line.startswith("witness.subset")]
    assert len(witness) == 1
    assert witness[0].split() == ["witness.subset", "(%d%%,X%s)"]


def test_counterfactual_witness_label_unchanged(capsys):
    code, rows = machine(capsys, ["counterfactual", SHIPPED, "--seed", "3",
                                  "--trials", "2"])
    assert code == 0
    doc = circuitio.load(SHIPPED)
    cf = counterfactual.randomized_def3_test(doc.to_circuit(), doc.insertion_set(),
                                             2, doc.g, 3)
    assert rows["witness.subset"] == _reference_subset_label(
        cf.witness_subset, _reference_observe_names(doc))


def proj_document(path, n, d, seed):
    """A seeded n-site document with a one-dimensional projector observed
    and inserted at every site and g = 0.01."""
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        lines = ["wseq 1", f"dim {d}",
                 "state " + " ".join(map(format_complex, random_state(rng, d)))]
        for site in range(1, n + 2):
            lines += [f"unitary U{site}", *_matrix_lines(random_unitary(rng, d))]
            if site <= n:
                lines += [f"observe X{site}", f"proj {int(rng.integers(0, d))}"]
        lines.append("postselect " + " ".join(map(format_complex, random_state(rng, d))))
        lines += ["g 0.01", *(f"insert X{site}" for site in range(1, n + 1))]
        path.write_text("\n".join(lines) + "\n")
        c = circuitio.load(path).to_circuit()
        if abs(circuitmodel.transition_amplitude(c)) > 0.1:
            return str(path)
    raise RuntimeError("no well-conditioned document")


def per_call_def3_test(c, ins, trials, g, seed):
    """`randomized_def3_test` with Definitions 1 and 2 from their own walks
    and Definition 3 from one `joint_response` per trial and subset."""
    d1, wit1 = counterfactual.is_counterfactual_histories(c, ins)
    d2, wit2 = counterfactual.is_counterfactual_weakvalues(c, ins)
    samples, null = per_trial_def3_reference(c, ins, trials, g, seed)
    return counterfactual.CounterfactualReport(
        d1, d2, wit1, None if wit2 is None else wit2[0], None if wit2 is None else wit2[1],
        samples, null)


@pytest.mark.parametrize("trials", [1, 5, 20])
def test_counterfactual_matches_per_call_reference(tmp_path, capsys, monkeypatch, trials):
    docs = [SHIPPED] + [proj_document(tmp_path / f"p{seed}.wseq", n=2 + seed % 3,
                                      d=2 + seed % 2, seed=700 + seed) for seed in range(4)]
    # a counterfactual one: the built-in document with B inserted alone
    docs.append(_shipped_with(tmp_path, "single.wseq", lambda t: t.replace("insert F\n", "")))
    for seed, doc in enumerate(docs):
        argv = ["counterfactual", doc, "--seed", str(seed), "--trials", str(trials),
                "--machine"]
        assert main(argv) == 0
        got = capsys.readouterr().out.splitlines()
        refs = []

        def reference(*args):
            refs.append(per_call_def3_test(*args))
            return refs[-1]

        with monkeypatch.context() as m:
            m.setattr(counterfactual, "randomized_def3_test", reference)
            assert main(argv) == 0
        want = capsys.readouterr().out.splitlines()
        assert [line.partition("\t")[0] for line in got] == \
            [line.partition("\t")[0] for line in want]
        for line, ref in zip(got, want):
            key, _, value = line.partition("\t")
            if key != "max_response":
                assert line == ref, doc
                continue
            # the printed (%.12g) rounding of a value within 1e-13 of the
            # reference's unrounded largest response
            top = max(r for _, r in refs[0].def3_samples)
            lo, hi = (float("%.12g" % (top + e)) for e in (-1e-13, 1e-13))
            assert lo <= float(value) <= hi, (doc, value, top)


def test_consecutive_commands_leak_no_state(capsys):
    # one parser serves every call of main in a process; what one command
    # parses must not reach the next
    sequence = [
        ["simulate", SHIPPED, "--moment", "q1*q2", "--g", "0.3", "--machine"],
        ["montecarlo", SHIPPED, "--runs", "300", "--seed", "2", "--machine"],
        ["weakvalues", SHIPPED, "--max-order", "1", "--machine"],
        ["weakvalues", SHIPPED, "--machine"],
        ["counterfactual", SHIPPED, "--seed", "1", "--trials", "2", "--machine"],
        ["demo", "double-interferometer"],
    ]
    outputs = []
    for argv in sequence:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert build_parser() is build_parser()
    assert "g\t0.001\n" in outputs[1]       # the document's g, not 0.3
    assert "wv.(F,B).re\t" in outputs[3]    # the full table, not order 1
    for argv, out in zip(sequence, outputs):
        build_parser.cache_clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", ["1e200+0i", "1e400+0i"])
@pytest.mark.parametrize("argv", [
    ["simulate", "{doc}", "--moment", "q1*q2", "--compare"],
    ["montecarlo", "{doc}", "--runs", "100", "--seed", "1"],
    ["weakvalues", "{doc}"],
    ["counterfactual", "{doc}", "--seed", "1"],
])
def test_postselection_past_the_float_range_is_one_error_line(tmp_path, capsys, entry,
                                                              argv):
    # its squared norm overflows, so the circuit refuses it on load, before
    # any walk could print nan
    doc = _shipped_with(tmp_path, "big.wseq", lambda s: s.replace(
        "postselect 0+0i 1+0i", f"postselect 0+0i {entry}"))
    assert main([a.format(doc=doc) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: post-selection state must have a finite squared norm\n"


def test_crlf_document_is_opened_once_and_hashed_as_read(tmp_path, capsys, monkeypatch):
    # the text is decoded as `Path.read_text` decodes it, universal newlines
    # included, so a CRLF copy parses as the LF original; the fingerprint
    # hashes the bytes that were parsed, and each command opens the
    # document once
    crlf = tmp_path / "crlf.wseq"
    crlf.write_bytes(Path(SHIPPED).read_bytes().replace(b"\n", b"\r\n"))
    assert circuitio.load(crlf) == circuitio.parse(crlf.read_text()) == circuitio.load(SHIPPED)
    want = hashlib.sha256(crlf.read_bytes()).hexdigest()[:16]
    assert want != hashlib.sha256(Path(SHIPPED).read_bytes()).hexdigest()[:16]
    opened, io_open = [], io.open

    def counted(file, *args, **kwargs):
        if str(file) == str(crlf):
            opened.append(args[0] if args else kwargs.get("mode"))
        return io_open(file, *args, **kwargs)

    for argv in (["weakvalues"], ["simulate", "--moment", "q1*q2", "--compare"],
                 ["montecarlo", "--runs", "100", "--seed", "1"],
                 ["counterfactual", "--seed", "1", "--trials", "2"]):
        _, lf = machine(capsys, [argv[0], SHIPPED, *argv[1:]])
        opened.clear()
        with monkeypatch.context() as m:
            m.setattr(io, "open", counted)
            code, rows = machine(capsys, [argv[0], str(crlf), *argv[1:]])
        assert code == 0 and opened == ["rb"], argv[0]
        assert rows.pop("fingerprint") == want
        lf.pop("fingerprint")
        assert rows == lf


@pytest.mark.parametrize("doc", ["shipped", "wide"])
def test_each_matrix_is_judged_once(tmp_path, capsys, monkeypatch, doc):
    # a load judges every evolution in one stacked call and every observable
    # in another, and a simulate, montecarlo or counterfactual command adds
    # one stacked eigh, no more; the counterfactual adds one stacked check
    # of its insertion projectors
    path = SHIPPED if doc == "shipped" else wide_document(tmp_path / "w.wseq", n=6, d=3)
    if doc == "wide":
        Path(path).write_text(Path(path).read_text() + "insert X1\n")
    calls = []

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((name, np.ndim(args[0])))
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("unitary_deviations", "hermitian_deviations", "projector_deviations"):
        count(algebra, name)
    count(np.linalg, "eigh")
    c = circuitio.load(path).to_circuit()
    assert sorted(calls) == [("hermitian_deviations", 3), ("unitary_deviations", 3)]
    for argv in (["simulate", path, "--moment", "q1*q2", "--compare"],
                 ["montecarlo", path, "--runs", "200", "--seed", "1"],
                 ["counterfactual", path, "--seed", "1", "--trials", "3"]):
        calls.clear()
        assert main(argv) == 0
        assert [call for call in calls if "eig" in call[0]] == [("eigh", 3)], argv[0]
        # the counterfactual's insertion set judges its projectors in one
        # more stacked call, a 3-D `projector_deviations`
        judged = [("projector_deviations", 3)] if argv[0] == "counterfactual" else []
        assert sorted(calls) == [("eigh", 3), ("hermitian_deviations", 3), *judged,
                                 ("unitary_deviations", 3)], argv[0]
    assert c.n == (2 if doc == "shipped" else 6)
