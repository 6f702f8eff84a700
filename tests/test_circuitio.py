import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqweak import circuitio
from seqweak.circuitio import (CircuitDocument, ParseError, builtin_document_path,
                               format_complex, format_float, load, parse,
                               parse_complex, serialize)
from seqweak.circuitmodel import builtin_double_interferometer
from seqweak.errors import InvalidInput
from seqweak.pointer import PointerProfile

BASIC = """\
wseq 1
dim 2
state 1+0i 0+0i
unitary H
0.70710678118654746+0i 0.70710678118654746+0i
0.70710678118654746+0i -0.70710678118654746+0i
observe Z
1+0i 0+0i
0+0i -1+0i
postselect 0+0i 1+0i
"""


def test_parse_basic_document():
    doc = parse(BASIC)
    assert doc.dim == 2
    c = doc.to_circuit()
    assert c.n == 1
    assert np.allclose(c.observable(1), np.diag([1.0, -1.0]))
    # trailing observe implies an identity final evolution
    assert np.allclose(c.u_final, np.eye(2))


def test_serialize_parse_fixpoint():
    doc = parse(BASIC)
    text = serialize(doc)
    assert serialize(parse(text)) == text
    assert parse(text) == doc


def test_comments_and_blank_lines_ignored():
    text = BASIC.replace("dim 2", "# a comment\n\ndim 2  # trailing")
    assert parse(text) == parse(BASIC)


def test_proj_sugar():
    text = BASIC.replace("observe Z\n1+0i 0+0i\n0+0i -1+0i", "observe Z\nproj 0")
    doc = parse(text)
    st_obs = doc.stanzas[-1]
    assert st_obs.proj == (0,)
    assert np.allclose(st_obs.matrix, np.diag([1.0, 0.0]))
    # proj form survives serialization
    assert "proj 0" in serialize(doc)


def test_full_directive_set(tmp_path):
    q = np.linspace(-12, 12, 512)
    phi = np.exp(-q**2 / 4)
    lines = [f"{qi} {p} 0.0" for qi, p in zip(q, phi)]
    (tmp_path / "prof.dat").write_text("\n".join(lines) + "\n")
    proj_doc = BASIC.replace("observe Z\n1+0i 0+0i\n0+0i -1+0i",
                             "observe P0\nproj 0")
    text = proj_doc + "pointer tabulated prof.dat\ng 0.05\ninsert P0\n"
    doc = parse(text, base_dir=tmp_path)
    assert doc.pointer.kind == "tabulated"
    assert doc.g == 0.05
    assert doc.insertions == ("P0",)
    ins = doc.insertion_set()
    assert ins.sites == (1,)


def test_gaussian_pointer_roundtrip():
    text = BASIC + "pointer gaussian sigma=0.5 qoffset=0.25\n"
    doc = parse(text)
    assert doc.pointer.sigma == 0.5
    assert doc.pointer.q_offset == 0.25
    out = serialize(doc)
    assert "pointer gaussian sigma=0.5 qoffset=0.25" in out
    assert serialize(parse(out)) == out
    # zero offsets are canonicalized away
    doc2 = parse(BASIC + "pointer gaussian sigma=1 qoffset=0\n")
    assert "qoffset" not in serialize(doc2)


@pytest.mark.parametrize("mutation,kind", [
    (("state 1+0i 0+0i", "state 1+0i"), "DimMismatch"),
    (("state 1+0i 0+0i", "state 1+0i zebra"), "BadComplexLiteral"),
    (("0.70710678118654746+0i -0.70710678118654746+0i",
      "0.9+0i -0.9+0i"), "NonUnitary"),
    (("observe Z\n1+0i 0+0i\n0+0i -1+0i",
      "observe Z\n0+0i 1+0i\n0+0i 0+0i"), "NonHermitian"),
    (("observe Z", "frobnicate Z"), "UnknownDirective"),
    (("observe Z", "observe Y\nproj 1\nobserve Z"),
     "DuplicateObserveAtBoundary"),
    (("postselect", "unitary V\n1 0\n0 1\nobserve Z\nproj 1\npostselect"),
     "DuplicateName"),
    (("observe Z\n1+0i 0+0i\n0+0i -1+0i",
      "observe A2\nproj 0\nunitary V\n1 0\n0 1\nobserve\nproj 1"), "DuplicateName"),
    (("observe Z\n1+0i 0+0i\n0+0i -1+0i\npostselect 0+0i 1+0i",
      "observe P\nproj 0\npostselect 0+0i 1+0i\ninsert P\ninsert P"), "DuplicateInsert"),
])
def test_diagnostics(mutation, kind):
    old, new = mutation
    with pytest.raises(ParseError) as err:
        parse(BASIC.replace(old, new))
    assert err.value.kind == kind
    assert err.value.line > 0


def _sites_document(sites):
    """BASIC with one more unitary per entry of ``sites``, each followed by
    the given `observe` line (or by none), and an identity final evolution."""
    body = "".join(f"unitary V{k}\n1 0\n0 1\n" + (f"{obs}\nproj 0\n" if obs else "")
                   for k, obs in enumerate(sites, start=2))
    return BASIC.replace("postselect", body + "unitary W\n1 0\n0 1\npostselect")


def test_site_names():
    # an unnamed observe and a site without one are both `A<site>`
    doc = parse(_sites_document(["observe", None, "observe X4", "observe"]))
    assert doc.site_names == ("Z", "A2", "A3", "X4", "A5")
    assert doc.to_circuit().n == 5
    assert parse(serialize(doc)).site_names == doc.site_names


@pytest.mark.parametrize("sites, line", [
    (["observe Z"], 13),              # the second observe Z
    (["observe", "observe A2"], 18),  # site 2's default name, taken by site 3
    (["observe A3", None], 15),       # site 3 has no observe: the unitary opening it
])
def test_duplicate_name_at_second_site(sites, line):
    text = _sites_document(sites)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.kind == "DuplicateName"
    assert err.value.line == line
    assert text.splitlines()[line - 1].split()[0] in ("observe", "unitary")


def test_repeated_insert_is_an_error_at_its_line():
    text = BASIC.replace("observe Z\n1+0i 0+0i\n0+0i -1+0i", "observe P\nproj 0")
    assert parse(text + "insert P\n").insertion_set().sites == (1,)
    with pytest.raises(ParseError) as err:
        parse(text + "insert P\ng 0.1\ninsert P\n")
    assert err.value.kind == "DuplicateInsert"
    assert err.value.line == len(text.splitlines()) + 3


def test_to_circuit_is_built_once():
    doc = load(builtin_document_path())
    assert doc.to_circuit() is doc.to_circuit()


def test_error_requires_dim_first():
    with pytest.raises(ParseError):
        parse("wseq 1\nstate 1+0i 0+0i\n")


def test_error_observe_before_unitary():
    with pytest.raises(ParseError) as err:
        parse("wseq 1\ndim 2\nstate 1+0i 0+0i\nobserve Z\nproj 0\n"
              "postselect 0+0i 1+0i\n")
    assert err.value.kind == "UnknownDirective"


def test_error_unknown_insert_name():
    with pytest.raises(ParseError, match="unknown observe"):
        parse(BASIC + "insert Q\n")


def test_error_missing_sections():
    with pytest.raises(ParseError):
        parse("wseq 1\ndim 2\nstate 1+0i 0+0i\n")


def test_error_bad_version():
    with pytest.raises(ParseError):
        parse("wseq 9\n" + BASIC.split("\n", 1)[1])


@pytest.mark.parametrize("reader", [load, circuitio.load_tabulated_profile])
def test_unreadable_file_is_a_parse_error(tmp_path, reader):
    (tmp_path / "binary").write_bytes(bytes(range(128, 256)))
    for path in (tmp_path / "missing", tmp_path, tmp_path / "binary"):
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.kind == "Unreadable"
        assert err.value.token == str(path)


def test_parse_complex_forms():
    assert parse_complex("1.5", 1) == 1.5
    assert parse_complex("-2e-3+0.5i", 1) == complex(-2e-3, 0.5)
    assert parse_complex("1-1i", 1) == complex(1, -1)
    for bad in ("1 + 2i", "i", "1+i", "2i", "abc"):
        with pytest.raises(ParseError):
            parse_complex(bad, 1)


@given(st.complex_numbers(allow_nan=False, allow_infinity=False,
                          max_magnitude=1e12))
@settings(max_examples=200, deadline=None)
def test_complex_formatting_roundtrips_exactly(z):
    assert parse_complex(format_complex(z), 0) == z


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_float_formatting_roundtrips_exactly(x):
    assert float(format_float(x)) == x


def test_shipped_document_matches_builtin():
    doc = load(builtin_document_path())
    builtin = builtin_double_interferometer()
    c = doc.to_circuit()
    assert c.dim == builtin.dim and c.n == builtin.n
    assert np.array_equal(c.psi_i, builtin.psi_i)
    assert np.array_equal(c.psi_f, builtin.psi_f)
    assert np.array_equal(c.u_final, builtin.u_final)
    for (u1, a1), (u2, a2) in zip(c.stages, builtin.stages):
        assert np.array_equal(u1, u2)
        assert np.array_equal(a1, a2)
    assert doc.insertion_set().sites == (1, 2)
    assert doc.g == 0.001
    assert doc.pointer.sigma == 1.0


def test_shipped_document_roundtrip_fixpoint():
    path = builtin_document_path()
    text = path.read_text()
    assert serialize(parse(text, base_dir=path.parent)) == text


# Tokens that a `.wseq` line may hold by mistake: non-finite and overflowing
# numbers, malformed complex literals, and text that is no number at all.
_BAD_TOKENS = ["nan", "inf", "-inf", "1e999", "nan+0i", "0+nani", "1e999+0i", "1e200+0i",
               "1+", "1+i", "+-1", "1e", ".", "", "0x10", "abc", "1+2j",
               "sigma=nan", "sigma=inf", "qoffset=nan", "poffset=1e999",
               "sigma=", "=1", "proj", "-1", "99", "2.5"]
_TOKEN = st.one_of(st.sampled_from(_BAD_TOKENS),
                   st.text("0123456789.+-eEi=nafx ", max_size=8))


def _fuzz_outcome(text, base_dir=None):
    """Parse ``text``; the only allowed failures are a `ParseError`, or a
    circuit check (`InvalidInput`) of the parsed document.  A document that
    parses carries a finite pointer."""
    try:
        doc = parse(text, base_dir=base_dir)
    except (ParseError, InvalidInput):
        return
    doc.to_circuit()
    if doc.pointer is not None:
        p = doc.pointer
        assert np.isfinite([p.sigma, p.q_offset, p.p_offset, p.grid_min, p.grid_step]).all()
        assert np.isfinite(np.asarray(p.values, dtype=complex)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_mutated_builtin_document(data):
    # a mutated document ends in a result or an error, never in a numpy warning
    lines = builtin_document_path().read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        action = data.draw(st.sampled_from(["replace", "drop", "insert", "line"]))
        if action == "line":
            lines[i] = " ".join(data.draw(st.lists(_TOKEN, max_size=4)))
        elif action == "insert" or not tokens:
            tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(_TOKEN))
        else:
            j = data.draw(st.integers(0, len(tokens) - 1))
            if action == "drop":
                del tokens[j]
            else:
                tokens[j] = data.draw(_TOKEN)
        if action != "line":
            lines[i] = " ".join(tokens)
    _fuzz_outcome("\n".join(lines) + "\n")


def _profile_text(cells, sep=" ", header=False, comment=False, blank=False):
    """Rows `q re im` of a decaying table whose cells are spelled ``cells(i)``,
    optionally under a header comment, with a comment after a row, or with a
    blank line."""
    rows = [sep.join(cells(i)) for i in range(300)]
    if header:
        rows.insert(0, "# q re im")
    if comment:
        rows[150] += "  # mid"
    if blank:
        rows.insert(100, "")
    return "\n".join(rows) + "\n"


_SPELLINGS = {
    "repr": lambda i: (f"{-12 + 0.08 * i:.17g}", f"{np.exp(-(-12 + 0.08 * i) ** 2 / 4):.17g}",
                       "0"),
    "plus": lambda i: (f"{-12 + 0.08 * i:+.6f}", f"+{np.exp(-(-12 + 0.08 * i) ** 2 / 4):.6e}",
                       "+0"),
    "short": lambda i: (f"{-12 + 0.08 * i:.4f}", ".5" if 140 <= i < 160 else "0", "1e-3"
                        if 140 <= i < 160 else "-0"),
    "underscore": lambda i: (f"{-12 + 0.08 * i:.4f}", "1_0" if i == 150 else "0", "0"),
}


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
@pytest.mark.parametrize("layout", [{}, {"header": True}, {"sep": "\t"}, {"comment": True},
                                    {"blank": True}])
def test_profile_read_at_once_equals_row_loop(tmp_path, spelling, layout):
    text = _profile_text(_SPELLINGS[spelling], **layout)
    rows = circuitio._table_by_rows(text)
    at_once = circuitio._table_at_once(text)
    if set(layout) <= {"header"}:  # single-spaced rows are read at once
        assert at_once is not None
    if at_once is not None:
        assert np.array_equal(at_once, rows) and np.array_equal(np.signbit(at_once),
                                                                np.signbit(rows))
    (tmp_path / "p.dat").write_text(text)
    prof = circuitio.load_tabulated_profile(tmp_path / "p.dat")
    assert prof == PointerProfile.tabulated(rows[0, 0], rows[1, 0] - rows[0, 0],
                                            rows[:, 1] + 1j * rows[:, 2])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_tabulated_profile_rows(tmp_path_factory, data):
    q = np.linspace(-12, 12, 300)
    rows = [f"{x:.17g} {v:.17g} 0" for x, v in zip(q, np.exp(-q**2 / 4))]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        cells = rows[i].split()
        j = data.draw(st.integers(0, len(cells)))
        if j == len(cells):
            cells.append(data.draw(_TOKEN))
        else:
            cells[j] = data.draw(_TOKEN)
        rows[i] = " ".join(cells)
    if data.draw(st.booleans()):
        rows = rows[:data.draw(st.integers(0, len(rows)))]
    work = tmp_path_factory.getbasetemp()
    (work / "fuzz.dat").write_text("\n".join(rows) + "\n")
    _fuzz_outcome(BASIC + "pointer tabulated fuzz.dat\n", base_dir=work)


_DIGITS = st.text("0123456789", min_size=1, max_size=4)
_SIGN = st.sampled_from(["", "+", "-"])
_MANTISSA = st.one_of(
    st.builds(lambda whole, point, frac: whole + point + (frac if point else ""),
              _DIGITS, st.sampled_from(["", "."]), st.sampled_from(["", "0", "25", "0707"])),
    st.builds(lambda frac: "." + frac, _DIGITS))
_EXPONENT = st.one_of(st.just(""), st.builds(lambda e, sign, digits: e + sign + digits[:3],
                                             st.sampled_from("eE"), _SIGN, _DIGITS))
_FLOAT_TEXT = st.builds(lambda *parts: "".join(parts), _SIGN, _MANTISSA, _EXPONENT)
# spellings at the edges of the grammar: signed zeros, bare points, both
# exponent letters, leading zeros, overflow to inf and underflow to zero
_EDGE_LITERALS = ["0", "-0", "+0", "-0-0i", "0-0i", "-0+0i", "5.", ".5", "-.5", "5.-.5i",
                  "1E-5+1e+5i", "007", "007.500+000.1i", "1e400", "-1e999+1e999i",
                  "1e-400", "-1e-999-1e-999i", "179769313486231580793728971405301e276"]
_LITERAL = st.one_of(
    st.sampled_from(_EDGE_LITERALS),
    st.builds(lambda re_part, im_sign, im_part: re_part + im_sign + im_part.lstrip("+-") + "i",
              _FLOAT_TEXT, st.sampled_from("+-"), _FLOAT_TEXT),
    _FLOAT_TEXT)
# what Python's complex() (with `i` as `j`) or float() takes and the grammar does not
_NOT_LITERALS = ["1j", "inf", "-inf", "nan", "1_0", "(1+2i)", "1+2I", "1+i", "1+2j", "2i",
                 "i", "1e5i", "infinity", "1e", "+-1", "0x10", "1+2i+3i", "(1)", "1..5",
                 "١+٢j"]


def _block(draw, dim):
    return [(10 + row, draw(st.lists(_LITERAL, min_size=dim, max_size=dim)))
            for row in range(dim)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_literal_block_equals_token_by_token(data):
    # one check and one conversion per block, bitwise what parse_complex
    # gives token by token (signed zeros, infinities and other digits too)
    rows = _block(data.draw, data.draw(st.integers(1, 5)))
    if data.draw(st.booleans()):
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][1][data.draw(st.integers(0, len(rows[row][1]) - 1))] = "١٠+٢e-٣i"
    expected = np.array([parse_complex(t, line) for line, tokens in rows for t in tokens],
                        dtype=complex)
    got = circuitio._literals(rows)
    assert got.dtype == complex and got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bad_literal_in_a_block_is_named_as_token_by_token(data):
    # the block fails its check; the first bad literal is reported with its
    # own line and token, in the document as in the block
    dim = data.draw(st.integers(1, 4))
    rows = _block(data.draw, dim)
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.integers(0, dim - 1))
        rows[row][1][data.draw(st.integers(0, dim - 1))] = data.draw(
            st.sampled_from(_NOT_LITERALS))
    bad = [(line, tok) for line, tokens in rows for tok in tokens
           if circuitio._COMPLEX_RE.match(tok) is None]
    with pytest.raises(ParseError) as err:
        circuitio._literals(rows)
    assert (err.value.kind, err.value.line, err.value.token) == ("BadComplexLiteral",
                                                                 *bad[0])
    text = ("wseq 1\ndim %d\nstate %s\nunitary U\n" % (dim, " ".join(["1"] * dim))
            + "".join(" ".join(tokens) + "\n" for _, tokens in rows)
            + "postselect " + " ".join(["1"] * dim) + "\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    line = 5 + [line for line, _ in rows].index(bad[0][0])
    assert (err.value.kind, err.value.line, err.value.token) == ("BadComplexLiteral",
                                                                 line, bad[0][1])


def test_row_fault_after_bad_literal_in_an_earlier_row():
    # a matrix reads row by row: a bad literal in row 1 precedes a short row 2
    # and a missing row 3, and a short row 1 precedes a bad literal in row 2
    head = "wseq 1\ndim 3\nstate 1 0 0\nunitary U\n"
    for body, kind, line in [("1 0 x\n0 1\n", "BadComplexLiteral", 5),
                             ("1 0\n0 x 1\n0 0 1\n", "DimMismatch", 5),
                             ("1 0 0\n0 1 0\n", "DimMismatch", 6),
                             ("1 0 0\n0 1 0\n0 0 1i\n", "BadComplexLiteral", 7)]:
        with pytest.raises(ParseError) as err:
            parse(head + body)
        assert (err.value.kind, err.value.line) == (kind, line)


def test_matrix_faults_name_their_stanza():
    # the circuit judges the matrices; the error names the stanza's line,
    # name and deviation as a check at the stanza would
    u = np.array([[0.70710678118654746, 0.70710678118654746], [0.9, -0.9]])
    bad_u = BASIC.replace("0.70710678118654746+0i -0.70710678118654746+0i", "0.9+0i -0.9+0i")
    with pytest.raises(ParseError) as err:
        parse(bad_u)
    dev = np.max(np.abs(u.T @ u - np.eye(2)))
    assert str(err.value) == f"line 4: NonUnitary: max deviation {dev:.3e} (at 'H')"
    bad_a = BASIC.replace("observe Z\n1+0i 0+0i\n0+0i -1+0i", "observe Z\n0+0i 1+0i\n0+0i 0+0i")
    with pytest.raises(ParseError) as err:
        parse(bad_a)
    assert str(err.value) == "line 7: NonHermitian: observable must be Hermitian (at 'Z')"
    # an unnamed final evolution, after a named site
    final = BASIC.replace("postselect", "unitary\n1+0i 0+0i\n0+0i 2+0i\npostselect")
    with pytest.raises(ParseError) as err:
        parse(final)
    assert str(err.value) == "line 10: NonUnitary: max deviation 3.000e+00 (at 'U2')"


def test_structural_fault_precedes_a_bad_matrix():
    # every structural fault of the document comes before the judgment of its
    # matrices, wherever it stands
    bad_u = BASIC.replace("0.70710678118654746+0i -0.70710678118654746+0i", "0.9+0i -0.9+0i")
    with pytest.raises(ParseError) as err:
        parse(bad_u + "frobnicate\n")
    assert (err.value.kind, err.value.line) == ("UnknownDirective", 11)
    with pytest.raises(ParseError) as err:
        parse(bad_u + "insert Q\n")
    assert (err.value.kind, err.value.line) == ("UnknownDirective", 11)
