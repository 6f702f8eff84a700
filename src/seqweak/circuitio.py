"""Line-oriented text format for circuits (.wseq), parser and serializer.

Grammar (whitespace-separated tokens, '#' starts a comment):

    wseq 1
    dim <d>
    labels <name>...
    state <c>...                  # d complex entries
    unitary <name>                # followed by d rows of d complex entries
    observe [<name>]              # followed by `proj <basis-index>...`
                                  # or d matrix rows
    postselect <c>...
    pointer gaussian sigma=<r> [qoffset=<r>] [poffset=<r>]
    pointer tabulated <file>
    g <r>
    insert <observe-name>         # at most once per observe

Complex literals are `<float>` or `<float>+<float>i` / `<float>-<float>i`
with no interior spaces; pointer parameters `<r>` and the `q re im` cells of
a tabulated profile file must be finite.  The k-th unitary opens boundary
k, and an observe binds to the boundary of the most recent unitary, at most
one per boundary; a trailing observe after the last unitary implies an
identity final evolution.  Each measurement site has one name: its
observe's, or `A<site>` for an unnamed observe and for a site without one.
Names are unique across sites.  Serialization is canonical: 17 significant
digits, one stanza per parse-order entry, so
serialize(parse(serialize(x))) == serialize(x).

`parse` is the one place that maps stanzas to sites: the document it
returns holds the validated `Circuit` and the site names.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuitmodel import Circuit
from .counterfactual import InsertionSet
from .errors import BadStage, SeqWeakError
from .pointer import PointerProfile


class ParseError(SeqWeakError):
    def __init__(self, kind: str, line: int, token: str, message: str):
        self.kind = kind
        self.line = line
        self.token = token
        super().__init__(f"line {line}: {kind}: {message} (at {token!r})")


_FLOAT_RE = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IMAG_RE = r"[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_FLOAT_RE})(?:({_IMAG_RE})i)?$")
# literals joined by single spaces; a block with digits outside ASCII, which
# `_COMPLEX_RE` also takes, is read token by token
_BLOCK_RE = re.compile(rf"{_FLOAT_RE}(?:{_IMAG_RE}i)?(?: {_FLOAT_RE}(?:{_IMAG_RE}i)?)*",
                       re.ASCII)


def parse_complex(tok: str, line: int) -> complex:
    m = _COMPLEX_RE.match(tok)
    if not m:
        raise ParseError("BadComplexLiteral", line, tok, "not a complex literal")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) is not None else 0.0
    return complex(re_part, im_part)


def _literals(rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """The complex literals of a block of (line, tokens) rows, in order.  The
    joined block is checked against the grammar once and converted in one
    pass; `complex` reads a grammatical literal, its `i` spelled `j`,
    exactly as `parse_complex` does.  A block that fails the check goes
    token by token, so that `parse_complex` names its first bad literal."""
    text = " ".join(" ".join(tokens) for _, tokens in rows)
    if _BLOCK_RE.fullmatch(text):
        return np.array(list(map(complex, text.replace("i", "j").split())), dtype=complex)
    return np.array([parse_complex(tok, line) for line, tokens in rows for tok in tokens],
                    dtype=complex)


def _finite_float(tok: str) -> float | None:
    """The finite float that ``tok`` spells, or None."""
    try:
        x = float(tok)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    im = z.imag
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{format_float(z.real)}{sign}{format_float(abs(im))}i"


@dataclass(frozen=True)
class UnitaryStanza:
    name: str
    matrix: np.ndarray


@dataclass(frozen=True)
class ObserveStanza:
    name: str
    matrix: np.ndarray
    proj: tuple[int, ...] | None  # basis indices when the proj sugar was used


@dataclass(frozen=True)
class CircuitDocument:
    """A `.wseq` document: its stanzas as written, and the circuit and site
    names (1-based site k at index k - 1) that `parse` resolved from them."""

    dim: int
    psi_i: np.ndarray
    psi_f: np.ndarray
    stanzas: tuple[UnitaryStanza | ObserveStanza, ...]
    circuit: Circuit
    site_names: tuple[str, ...]
    labels: tuple[str, ...] | None = None
    pointer: PointerProfile | None = None
    pointer_source: str | None = None  # original `pointer ...` argument text
    g: float | None = None
    insertions: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircuitDocument):
            return NotImplemented
        if (self.dim, self.labels, self.pointer_source, self.g,
                self.insertions) != (other.dim, other.labels,
                                     other.pointer_source, other.g,
                                     other.insertions):
            return False
        if not (np.array_equal(self.psi_i, other.psi_i)
                and np.array_equal(self.psi_f, other.psi_f)):
            return False
        if len(self.stanzas) != len(other.stanzas):
            return False
        for a, b in zip(self.stanzas, other.stanzas):
            if type(a) is not type(b) or a.name != b.name:
                return False
            if not np.array_equal(a.matrix, b.matrix):
                return False
            if isinstance(a, ObserveStanza) and a.proj != b.proj:
                return False
        return True

    def to_circuit(self) -> Circuit:
        return self.circuit

    def insertion_set(self) -> InsertionSet:
        sites = sorted(self.site_names.index(name) + 1 for name in self.insertions)
        return InsertionSet(tuple(sites), tuple(map(self.circuit.observable, sites)))


class _Lines:
    def __init__(self, text: str):
        self.rows: list[tuple[int, list[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((lineno, body.split()))
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def next(self):
        row = self.rows[self.pos]
        self.pos += 1
        return row


def _check_count(tokens: list[str], dim: int, line: int, what: str):
    if len(tokens) != dim:
        raise ParseError("DimMismatch", line, tokens[0] if tokens else what,
                         f"{what} needs {dim} entries, got {len(tokens)}")


def _parse_vector(tokens: list[str], dim: int, line: int, what: str) -> np.ndarray:
    _check_count(tokens, dim, line, what)
    return _literals([(line, tokens)])


def _parse_matrix(lines: _Lines, dim: int, name: str) -> np.ndarray:
    """The next ``dim`` rows as a matrix.  A row's fault comes after any bad
    literal in the rows before it, as a row-by-row reading would find them."""
    rows = []
    for _ in range(dim):
        if lines.peek() is None:
            _literals(rows)
            raise ParseError("DimMismatch", lines.rows[-1][0] if lines.rows else 0,
                             name, f"matrix {name} is missing rows")
        lineno, tokens = lines.next()
        if len(tokens) != dim:
            _literals(rows)
            _check_count(tokens, dim, lineno, f"matrix {name} row")
        rows.append((lineno, tokens))
    return _literals(rows).reshape(dim, dim)


def parse(text: str, base_dir: str | Path | None = None) -> CircuitDocument:
    lines = _Lines(text)
    dim: int | None = None
    labels = None
    psi_i = psi_f = None
    stanzas: list[UnitaryStanza | ObserveStanza] = []
    pointer = None
    pointer_source = None
    g_val = None
    insertions: dict[str, int] = {}  # observe name -> line of its `insert`
    # per boundary k: [U_k, observable, name, line, U_k's name, its line];
    # the k-th unitary opens it under the name `A<k>`, and an `observe` sets
    # the observable, its line and any explicit name
    boundaries: list[list] = []

    def need_dim(lineno: int, tok: str) -> int:
        if dim is None:
            raise ParseError("DimMismatch", lineno, tok, "`dim` must come first")
        return dim

    while lines.peek() is not None:
        lineno, tokens = lines.next()
        head, rest = tokens[0], tokens[1:]
        if head == "wseq":
            if rest != ["1"]:
                raise ParseError("UnknownDirective", lineno, " ".join(rest),
                                 "unsupported format version")
        elif head == "dim":
            try:
                dim = int(rest[0])
            except (IndexError, ValueError):
                raise ParseError("DimMismatch", lineno, head, "bad dimension")
            if dim < 1:
                raise ParseError("DimMismatch", lineno, rest[0],
                                 "dimension must be positive")
        elif head == "labels":
            labels = tuple(rest)
        elif head == "state":
            psi_i = _parse_vector(rest, need_dim(lineno, head), lineno, "state")
        elif head == "postselect":
            psi_f = _parse_vector(rest, need_dim(lineno, head), lineno, "postselect")
        elif head == "unitary":
            d = need_dim(lineno, head)
            name = rest[0] if rest else f"U{len(boundaries) + 1}"
            m = _parse_matrix(lines, d, name)
            stanzas.append(UnitaryStanza(name, m))
            boundaries.append([m, None, f"A{len(boundaries) + 1}", lineno, name, lineno])
        elif head == "observe":
            d = need_dim(lineno, head)
            if not boundaries:
                raise ParseError("UnknownDirective", lineno, head,
                                 "observe before any unitary")
            if boundaries[-1][1] is not None:
                raise ParseError("DuplicateObserveAtBoundary", lineno,
                                 rest[0] if rest else head,
                                 "a boundary holds at most one measurement")
            name = rest[0] if rest else boundaries[-1][2]
            nxt = lines.peek()
            if nxt is not None and nxt[1][0] == "proj":
                plineno, ptokens = lines.next()
                try:
                    idx = tuple(int(t) for t in ptokens[1:])
                except ValueError:
                    raise ParseError("DimMismatch", plineno, " ".join(ptokens[1:]),
                                     "bad basis index")
                if not idx or any(i < 0 or i >= d for i in idx):
                    raise ParseError("DimMismatch", plineno, " ".join(ptokens[1:]),
                                     "basis index out of range")
                m = np.zeros((d, d), dtype=complex)
                for i in idx:
                    m[i, i] = 1.0
                stanzas.append(ObserveStanza(name, m, idx))
            else:
                m = _parse_matrix(lines, d, name)
                stanzas.append(ObserveStanza(name, m, None))
            boundaries[-1][1:4] = m, name, lineno
        elif head == "pointer":
            if not rest:
                raise ParseError("UnknownDirective", lineno, head, "missing pointer kind")
            pointer_source = " ".join(rest)
            if rest[0] == "gaussian":
                kwargs = {"sigma": None, "qoffset": 0.0, "poffset": 0.0}
                for tok in rest[1:]:
                    key, _, val = tok.partition("=")
                    value = _finite_float(val)
                    if key not in kwargs or value is None:
                        raise ParseError("UnknownDirective", lineno, tok,
                                         "bad pointer parameter (finite sigma, "
                                         "qoffset, poffset)")
                    kwargs[key] = value
                if kwargs["sigma"] is None or kwargs["sigma"] <= 0:
                    raise ParseError("UnknownDirective", lineno, pointer_source,
                                     "gaussian pointer needs sigma > 0")
                pointer = PointerProfile.gaussian(kwargs["sigma"], kwargs["qoffset"],
                                                  kwargs["poffset"])
                # canonical form: omit zero offsets
                pointer_source = f"gaussian sigma={format_float(pointer.sigma)}"
                if pointer.q_offset != 0.0:
                    pointer_source += f" qoffset={format_float(pointer.q_offset)}"
                if pointer.p_offset != 0.0:
                    pointer_source += f" poffset={format_float(pointer.p_offset)}"
            elif rest[0] == "tabulated":
                if len(rest) != 2:
                    raise ParseError("UnknownDirective", lineno, pointer_source,
                                     "tabulated pointer needs a file")
                path = Path(rest[1])
                if base_dir is not None and not path.is_absolute():
                    path = Path(base_dir) / path
                pointer = load_tabulated_profile(path)
            else:
                raise ParseError("UnknownDirective", lineno, rest[0],
                                 "unknown pointer kind")
        elif head == "g":
            try:
                g_val = float(rest[0])
            except (IndexError, ValueError):
                raise ParseError("UnknownDirective", lineno, head, "bad coupling")
        elif head == "insert":
            if not rest:
                raise ParseError("UnknownDirective", lineno, head,
                                 "insert needs an observe name")
            if rest[0] in insertions:
                raise ParseError("DuplicateInsert", lineno, rest[0],
                                 f"observe already inserted at line {insertions[rest[0]]}")
            insertions[rest[0]] = lineno
        else:
            raise ParseError("UnknownDirective", lineno, head, "unknown directive")

    if dim is None or psi_i is None or psi_f is None:
        raise ParseError("DimMismatch", lines.rows[-1][0] if lines.rows else 0,
                         "EOF", "document needs dim, state and postselect")
    eye = np.eye(dim, dtype=complex)
    u_final = eye  # no evolution at all, or a trailing measurement
    final = None
    if boundaries and boundaries[-1][1] is None:
        final = boundaries.pop()  # the last boundary is the post-selection
        u_final = final[0]
    site_names: list[str] = []
    for site, (_, _, name, lineno, _, _) in enumerate(boundaries, start=1):
        if name in site_names:
            raise ParseError("DuplicateName", lineno, name,
                             f"site {site} has the name of site "
                             f"{site_names.index(name) + 1}")
        site_names.append(name)
    observe_names = {b[2] for b in boundaries if b[1] is not None}
    for name, lineno in insertions.items():
        if name not in observe_names:
            raise ParseError("UnknownDirective", lineno, name,
                             "insert references an unknown observe")
    try:  # all circuit invariants checked on load, every matrix once
        circuit = Circuit(
            psi_i=psi_i, stages=tuple((b[0], eye if b[1] is None else b[1]) for b in boundaries),
            u_final=u_final, psi_f=psi_f, labels=labels)
    except BadStage as exc:  # named by the stanza that wrote the matrix
        _, _, name, lineno, u_name, u_lineno = (boundaries + [final])[exc.site - 1]
        if exc.observable:
            raise ParseError("NonHermitian", lineno, name,
                             "observable must be Hermitian") from None
        raise ParseError("NonUnitary", u_lineno, u_name,
                         f"max deviation {exc.deviation:.3e}") from None
    return CircuitDocument(
        dim=dim, psi_i=psi_i, psi_f=psi_f, stanzas=tuple(stanzas), circuit=circuit,
        site_names=tuple(site_names), labels=labels, pointer=pointer,
        pointer_source=pointer_source, g=g_val, insertions=tuple(insertions))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("Unreadable", 0, str(path),
                         getattr(exc, "strerror", None) or str(exc)) from None


_COMMENT = re.compile(r"#[^\n]*")


def _table_at_once(text: str) -> np.ndarray | None:
    """The (rows, 3) finite cells of a profile text from one split of the
    whole text, or None where the row loop must judge (and report) it.  The
    text must break lines only at "\n" and, with its comments cut and its
    ends stripped, be rows of three cells joined by single spaces."""
    if not text.isascii() or any(ch in text for ch in "\r\v\f\x1c\x1d\x1e"):
        return None
    body = _COMMENT.sub("", text).strip()
    cells = body.split()
    rows = zip(*[iter(cells)] * 3)
    if len(cells) % 3 or "\n".join(map(" ".join, rows)) != body:
        return None
    try:
        table = np.array(cells, dtype=float).reshape(-1, 3)
    except ValueError:
        return None
    return table if np.isfinite(table).all() else None


def _table_by_rows(text: str) -> np.ndarray:
    """The (rows, 3) cells of a profile text, one line at a time; raises the
    `ParseError` of the first malformed line."""
    rows, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError("DimMismatch", lineno, body,
                             "profile rows are `q re im`")
        rows.append(parts)
        linenos.append(lineno)
    try:
        table = np.array(rows, dtype=float).reshape(-1, 3)
    except ValueError:  # a cell that is no number reads as nan
        table = np.array([[_finite_float(tok) for tok in row] for row in rows], dtype=float)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError("BadNumber", linenos[bad], " ".join(rows[bad]),
                         "profile cells must be finite numbers")
    return table


def load_tabulated_profile(path: str | Path) -> PointerProfile:
    """Profile from rows of `q re(phi) im(phi)` with uniform spacing."""
    text = _read_text(path)
    table = _table_at_once(text)
    if table is None:
        table = _table_by_rows(text)
    q = table[:, 0]
    steps = np.diff(q)
    if len(q) < 2 or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ParseError("DimMismatch", 0, str(path),
                         "profile grid must be uniformly spaced")
    try:
        return PointerProfile.tabulated(q[0], float(steps[0]), table[:, 1] + 1j * table[:, 2])
    except ValueError as exc:
        raise ParseError("BadProfile", 0, str(path), str(exc)) from None


def serialize(doc: CircuitDocument) -> str:
    out = ["wseq 1", f"dim {doc.dim}"]
    if doc.labels is not None:
        out.append("labels " + " ".join(doc.labels))
    out.append("state " + " ".join(format_complex(z) for z in doc.psi_i))
    for st in doc.stanzas:
        if isinstance(st, UnitaryStanza):
            out.append(f"unitary {st.name}")
            for row in st.matrix:
                out.append(" ".join(format_complex(z) for z in row))
        else:
            out.append(f"observe {st.name}")
            if st.proj is not None:
                out.append("proj " + " ".join(str(i) for i in st.proj))
            else:
                for row in st.matrix:
                    out.append(" ".join(format_complex(z) for z in row))
    out.append("postselect " + " ".join(format_complex(z) for z in doc.psi_f))
    if doc.pointer_source is not None:
        out.append(f"pointer {doc.pointer_source}")
    if doc.g is not None:
        out.append(f"g {format_float(doc.g)}")
    for name in doc.insertions:
        out.append(f"insert {name}")
    return "\n".join(out) + "\n"


def load(path: str | Path) -> CircuitDocument:
    return parse(_read_text(path), base_dir=Path(path).parent)


def builtin_document_path(name: str = "double_interferometer") -> Path:
    return Path(__file__).parent / "data" / f"{name}.wseq"
