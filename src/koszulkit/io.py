"""Canonical text and JSON serialization for every toolkit object.

Text files are line-oriented: a ring line, an object-kind line, then the
object's fields in a fixed order.  Matrices print as `RxC [[a, b], ...]`
with entries in the element grammar, so every format round-trips byte for
byte.  JSON files carry the same content keyed by field name; a JSON
object is turned into its text form and read by the same loader.
"""

from __future__ import annotations

import json
import pathlib
import re
from functools import partial

from .complexes import ChainComplex, ChainMap
from .descent import (
    Assignment, PolynomialSystem, SystemShape, SystemVariable, _extension_rank,
    _term_compiler,
)
from .dgmodules import DGModule
from .duality import ModulePresentation
from .errors import ElementSyntaxError, FormatError, UnknownVariable
from .koszul import KoszulAlgebra, koszul
from .matrices import Matrix
from .rings import RingHom, _signed_terms, format_element, make_ring, parse_element, ring_spec


# ---------------------------------------------------------------------------
# matrices


def format_matrix(M):
    rows = ", ".join(
        "[" + ", ".join(format_element(x) for x in row) + "]" for row in M.data)
    return f"{M.rows}x{M.cols} [{rows}]"


def parse_matrix(ring, text):
    m = re.fullmatch(r"\s*(\d+)x(\d+)\s*\[(.*)\]\s*", text, re.S)
    if not m:
        raise FormatError(f"bad matrix syntax: {text[:40]!r}")
    rows, cols, body = int(m.group(1)), int(m.group(2)), m.group(3).strip()
    if rows == 0:
        return Matrix.zeros(ring, 0, cols)
    row_texts = re.findall(r"\[(.*?)\]", body)
    if len(row_texts) != rows:
        raise FormatError(f"expected {rows} rows, found {len(row_texts)}")
    data = []
    payloads = {}  # entry text -> payload: each distinct text is parsed once
    for rt in row_texts:
        entries = [e.strip() for e in rt.split(",")] if rt.strip() else []
        if len(entries) != cols:
            raise FormatError(f"expected {cols} entries per row, got {len(entries)}")
        row = []
        for e in entries:
            if e not in payloads:
                try:
                    payloads[e] = parse_element(ring, e).payload
                except (ElementSyntaxError, UnknownVariable) as exc:
                    raise FormatError(f"bad matrix entry {e!r}: {exc}") from None
            row.append(payloads[e])
        data.append(row)
    if cols == 0:
        return Matrix.zeros(ring, rows, 0)
    return Matrix.from_payload_rows(ring, rows, cols, data)


def _sequence_text(elements):
    return "[" + ", ".join(format_element(a) for a in elements) + "]"


def _parse_sequence(ring, text):
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise FormatError(f"bad sequence: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return []
    return [parse_element(ring, t.strip()) for t in inner.split(",")]


def _subset_text(H):
    return "{" + ",".join(str(i) for i in H) + "}"


def _parse_subset(text):
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise FormatError(f"bad subset: {text!r}")
    inner = body[1:-1].strip()
    return tuple(int(t) for t in inner.split(",")) if inner else ()


# ---------------------------------------------------------------------------
# line-file scaffolding


def _split_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if line and not line.lstrip().startswith("#"):
            out.append(line)
    return out


def _expect_kind(lines, kind):
    if len(lines) < 2:
        raise FormatError("truncated file")
    if lines[1].strip() != kind:
        raise FormatError(f"expected a {kind} file, found {lines[1].strip()!r}")
    return make_ring(lines[0].removeprefix("ring").strip())


def _field_lines(lines, prefix):
    out = []
    for line in lines:
        if line.startswith(prefix):
            out.append(line[len(prefix):])
    return out


def _quote(line):
    """The file line `line` as an error message names it."""
    return repr(line if len(line) <= 60 else line[:57] + "...")


_RANK = re.compile(r"rank\s+(-?\d+)\s*=\s*(\d+)")
_DIFF = re.compile(r"diff\s+(-?\d+)\s*=\s*(.*)")


def _line_matrix(ring, text, line):
    """The matrix `text` read off the file line `line`: a FormatError of
    `parse_matrix` names the line."""
    try:
        return parse_matrix(ring, text)
    except FormatError as exc:
        raise FormatError(f"{exc}: {_quote(line)}") from None


def _read_complex_line(ring, line, ranks, diffs):
    """Read a `rank n = r` or a `diff n = matrix` line into `ranks` or
    `diffs`; False for any other line.  A second line for a degree is a
    FormatError: no line silently overrides another."""
    for pattern, table in ((_RANK, ranks), (_DIFF, diffs)):
        m = pattern.fullmatch(line)
        if m:
            n = int(m[1])
            if n in table:
                raise FormatError(f"a second {line.split()[0]} {n} line: {_quote(line)}")
            table[n] = int(m[2]) if table is ranks else _line_matrix(ring, m[2], line)
            return True
    return False


# ---------------------------------------------------------------------------
# complexes


def save_complex(M):
    lines = [f"ring {ring_spec(M.ring)}", "complex"]
    for n in sorted(M.support):
        lines.append(f"rank {n} = {M.rank(n)}")
    for n in sorted(M._diffs):
        lines.append(f"diff {n} = {format_matrix(M.diff(n))}")
    return "\n".join(lines) + "\n"


def load_complex(text):
    lines = _split_lines(text)
    ring = _expect_kind(lines, "complex")
    ranks, diffs = {}, {}
    for line in lines[2:]:
        if not _read_complex_line(ring, line, ranks, diffs):
            raise FormatError(f"unrecognized complex line: {line!r}")
    return ChainComplex(ring, ranks, diffs)


# ---------------------------------------------------------------------------
# koszul algebras


def save_koszul(K):
    return (f"ring {ring_spec(K.ring)}\nkoszul\n"
            f"sequence {_sequence_text(K.elements)}\n")


def load_koszul(text):
    lines = _split_lines(text)
    ring = _expect_kind(lines, "koszul")
    seqs = _field_lines(lines[2:], "sequence ")
    if len(seqs) != 1:
        raise FormatError("koszul file needs exactly one sequence line")
    return koszul(ring, _parse_sequence(ring, seqs[0]))


# ---------------------------------------------------------------------------
# DG modules


def save_dg_module(D):
    K = D.algebra
    lines = [f"ring {ring_spec(K.ring)}", "dgmodule",
             f"sequence {_sequence_text(K.elements)}"]
    under = D.underlying
    for n in sorted(under.support):
        lines.append(f"rank {n} = {under.rank(n)}")
    for n in sorted(under._diffs):
        lines.append(f"diff {n} = {format_matrix(under.diff(n))}")
    for H in sorted(D.action, key=lambda S: (len(S), S)):
        per = D.action[H]
        for n in sorted(per):
            lines.append(f"act {_subset_text(H)} {n} = {format_matrix(per[n])}")
    return "\n".join(lines) + "\n"


def load_dg_module(text):
    """Parse a DG module and reject one that fails its axioms (FormatError)."""
    D = parse_dg_module(text)
    if not D.axioms.ok:
        first = D.axioms.failures()[0]
        raise FormatError(
            f"serialized module fails the {first.name} axiom ({first.counterexample})")
    return D


def parse_dg_module(text):
    """The DG module in `text` (its text or its JSON form), without checking
    its axioms.  A line given twice, an `act` line for a subset outside
    the Koszul algebra's basis or from a degree of rank 0, and an `act`
    matrix whose shape the ranks do not give are FormatErrors that name
    the line."""
    if text.lstrip().startswith("{"):
        text = _json_text(text)
    lines = _split_lines(text)
    ring = _expect_kind(lines, "dgmodule")
    sequence = None
    ranks, diffs = {}, {}
    acts = {}  # (H, n) -> (matrix, line)
    for line in lines[2:]:
        if line.startswith("sequence "):
            if sequence is not None:
                raise FormatError(f"a second sequence line: {_quote(line)}")
            sequence = _parse_sequence(ring, line[len("sequence "):])
            continue
        if _read_complex_line(ring, line, ranks, diffs):
            continue
        m = re.fullmatch(r"act\s+(\{[^}]*\})\s+(-?\d+)\s*=\s*(.*)", line)
        if m:
            key = _parse_subset(m.group(1)), int(m.group(2))
            if key in acts:
                raise FormatError(f"a second act {_subset_text(key[0])} {key[1]} line: "
                                  f"{_quote(line)}")
            acts[key] = _line_matrix(ring, m.group(3), line), line
            continue
        raise FormatError(f"unrecognized dgmodule line: {line!r}")
    if sequence is None:
        raise FormatError("dgmodule file needs a sequence line")
    K = koszul(ring, sequence)
    under = ChainComplex(ring, ranks, diffs)
    basis = [S for d in K.basis.values() for S in d]
    action = {H: {} for H in basis}
    for (H, n), (mat, line) in acts.items():
        if H not in action:
            raise FormatError(f"{_subset_text(H)} names no basis element of the Koszul "
                              f"algebra (e = {K.e}): {_quote(line)}")
        rows, cols = under.rank(n + len(H)), under.rank(n)
        if not cols:
            raise FormatError(f"the complex has rank 0 in degree {n}: {_quote(line)}")
        if (mat.rows, mat.cols) != (rows, cols):
            raise FormatError(f"the act matrix is {mat.rows}x{mat.cols}, the ranks make it "
                              f"{rows}x{cols}: {_quote(line)}")
        action[H][n] = mat
    for H in basis:
        for n in under.degrees():
            rows, cols = under.rank(n + len(H)), under.rank(n)
            if rows and cols:
                action[H].setdefault(n, Matrix.zeros(ring, rows, cols))
    return DGModule(K, under, action)


# ---------------------------------------------------------------------------
# module presentations


def save_presentation(P):
    return (f"ring {ring_spec(P.ring)}\nmodule\ngens {P.gens}\n"
            f"relations {format_matrix(P.relations)}\n")


def load_presentation(text):
    """The module presentation in `text`.  The gens line, a non-negative
    integer, comes first; a second gens or relations line is a
    FormatError that names the line."""
    lines = _split_lines(text)
    ring = _expect_kind(lines, "module")
    gens = None
    rel = None
    for line in lines[2:]:
        if line.startswith("gens "):
            if gens is not None:
                raise FormatError(f"a second gens line: {_quote(line)}")
            m = re.fullmatch(r"gens\s+(\d+)", line)
            if not m:
                raise FormatError(f"gens must be a non-negative integer: {_quote(line)}")
            gens = int(m[1])
        elif line.startswith("relations "):
            if gens is None:
                raise FormatError("gens line must precede relations")
            if rel is not None:
                raise FormatError(f"a second relations line: {_quote(line)}")
            rel = _line_matrix(ring, line[len("relations "):], line)
        else:
            raise FormatError(f"unrecognized module line: {line!r}")
    if gens is None:
        raise FormatError("module file needs a gens line")
    if rel is None:
        rel = Matrix.zeros(ring, gens, 0)
    return ModulePresentation(ring, gens, rel)


# ---------------------------------------------------------------------------
# chain maps


def load_chain_map(text, source, target):
    """The chain map in `text` from `source` to `target`; a second
    `component n` line is a FormatError that names the line."""
    lines = _split_lines(text)
    ring = _expect_kind(lines, "map")
    comps = {}
    for line in lines[2:]:
        m = re.fullmatch(r"component\s+(-?\d+)\s*=\s*(.*)", line)
        if not m:
            raise FormatError(f"unrecognized map line: {line!r}")
        n = int(m.group(1))
        if n in comps:
            raise FormatError(f"a second component {n} line: {_quote(line)}")
        comps[n] = _line_matrix(ring, m.group(2), line)
    return ChainMap(source, target, comps)


# ---------------------------------------------------------------------------
# descent systems and assignments
#
# Equation lines:  S1|S2|S4  n row col : polynomial
#                  S3 h=<k> n row col : polynomial
# A polynomial is 0 or signed terms joined as in the element grammar
# (`a + b - c`).  A term is a ring term, an element of the system's one
# scalar ring (a `rings.Ring`) with one monomial, times at most two
# variable tokens X_n_i_j, Y_n_i_j, Z_n_i_j, all joined by "*"; a
# coefficient 1 is left out.  A coefficient with several monomials prints
# as one term per monomial, so every term parses on its own.  Terms come
# degree-descending, then in the variables' canonical order.  The header
# line m= e= s= r= fixes the shape, which owns the variables: their block
# sizes (`SystemShape.dims`) and their indices.  The printer and the
# reader work on the compiled form of `descent.PolynomialSystem`: the
# printer formats each coefficient of the table and each token once, the
# reader parses each distinct token and each distinct ring-term text once.


_EQUATION = re.compile(
    r"(S[1-4])\s+(?:h=(\d+)\s+)?(-?\d+)\s+(\d+)\s+(\d+)\s*:\s*(\S.*)")
_VAR_TOKEN = re.compile(r"[XYZ]_\d+_\d+_\d+")
# a token as `SystemVariable.token` spells it; an index of more than 18
# digits lies outside every shape, and the ring-term parser rejects it
_CANONICAL_TOKEN = re.compile(r"([XYZ])_(0|[1-9]\d{0,17})_([1-9]\d{0,17})_([1-9]\d{0,17})")
_ASSIGNMENT = re.compile(_CANONICAL_TOKEN.pattern + r"\s*=\s*(.*)")


class _Memo(dict):
    """key -> fn(key), each value computed on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _polynomial_printer(system):
    """text(flat): the term-grammar text of an equation of `system`, given
    its flat terms.  Each coefficient of the table and each token is
    formatted once."""
    tokens = _Memo(lambda k: system.shape.variable(k).token())
    # per coefficient: the text of a later constant term, and the pieces
    # of a later variable term, to be joined by its variables
    const, var = [], []
    for c in system.coefficients:
        parts = _signed_terms(system.ring, c)
        const.append("".join(f" {sign} {body}" for sign, body in parts))
        var.append([f" {sign} {'' if body == '1' else body + '*'}" for sign, body in parts]
                   + [""])

    def text(flat):
        out = []
        for c, a, b in flat:
            if a < 0:
                out.append(const[c])
            elif b < 0:
                out.append(tokens[a].join(var[c]))
            else:
                out.append(f"{tokens[a]}*{tokens[b]}".join(var[c]))
        text = "".join(out)  # " + a - b": the leading term keeps only a minus
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

    return text


def _token_index(shape, text):
    """The index of the variable of `shape` that the factor `text` names,
    or None for any other text.  A token in its canonical spelling (no
    leading zero, indices from 1) outside its block's `dims` is a
    FormatError; any other token-like text is no variable, so the ring-term
    parser rejects it."""
    m = _CANONICAL_TOKEN.fullmatch(text)
    k = m and shape.index(m[1], int(m[2]), int(m[3]), int(m[4]))
    if m and k is None:
        raise FormatError(f"{text} is not a variable of the system's shape")
    return k


def _polynomial_reader(ring, shape, coefficients):
    """read(text): the flat terms of the polynomial written as `text` in
    the term grammar, whatever the order of its terms, with equal
    monomials merged and cancelled; any other text is a FormatError.
    New coefficient payloads join `coefficients`.

    The printer writes terms in print order, ascending monomial keys, so
    the terms are appended as read while their keys ascend.  Only at the
    first key that does not ascend (a term out of order, or a monomial met
    again) do they go into a dict that merges equal monomials, sorted at
    the end.  Either way the compiler sees the terms in print order, so
    the coefficient table fills as for the printed text."""
    size = shape.count()
    square, flat = size * size, _term_compiler(size, coefficients)
    var_of, read_before = _Memo(partial(_token_index, shape)), {}  # text -> flat terms
    add, neg = ring.add_payload, ring.neg_payload
    # ring-term text -> payload, for each sign, None standing for no ring
    # factor at all; each text is parsed once
    plus, minus = {None: ring.one_payload}, {None: neg(ring.one_payload)}

    def coefficient(signed, key):
        """The payload of the ring term `key` (no variable token may
        appear in it), negated for `minus`."""
        if var_of[key.rpartition("*")[2]] is not None:
            raise FormatError(f"more than two variables in a term after {key!r}")
        c = plus.get(key)
        if c is None:
            for factor in key.split("*"):
                if _VAR_TOKEN.fullmatch(factor):
                    raise FormatError(f"{factor} is not a variable of the system's "
                                      "shape or comes before a ring factor")
            try:
                c = plus[key] = parse_element(ring, key).payload
            except (ElementSyntaxError, UnknownVariable) as exc:
                raise FormatError(f"bad ring term {key!r}: {exc}") from None
        if signed is minus:
            c = minus[key] = neg(c)
        return c

    def read(text):
        done = read_before.get(text)
        if done is not None:
            return done
        # the text split at each sign, as `\s*[+-]\s*` splits it
        pieces = text.replace("-", "+-").split("+")
        items, terms, top = [], None, -square - 1  # below every monomial key
        for piece in pieces if pieces[0] else pieces[1:]:
            if piece.startswith("-"):
                signed, body = minus, piece[1:].strip()
            else:
                signed, body = plus, piece.strip()
            # body = key*v*w, key*w or w, or a ring term alone
            head, star, last = body.rpartition("*")
            w = var_of[last]
            if w is None:
                mono, key = size, body
            elif not star:
                mono, key = w, None
            else:
                rest, star, last = head.rpartition("*")
                v = var_of[last]
                if v is None:
                    mono, key = w, head
                else:
                    mono = (v * size + w if v <= w else w * size + v) - square
                    key = rest if star else None
            c = signed.get(key)
            if c is None:
                c = coefficient(signed, key)
            if not c:
                continue
            if terms is None:
                if mono > top:
                    items.append((mono, c))
                    top = mono
                    continue
                terms = dict(items)
            s = terms.get(mono)
            if s is not None:
                c = add(s, c)
                if not c:
                    del terms[mono]
                    continue
            terms[mono] = c
        done = read_before[text] = flat(items if terms is None else sorted(terms.items()))
        return done

    return read


def save_system(system):
    shape = system.shape
    lines = [f"ring {ring_spec(system.ring)}", "system",
             f"m={shape.m} e={shape.e} s={list(shape.s)} r={list(shape.r)}"]
    text = _polynomial_printer(system)
    for (tag, h, n, row, col), flat in zip(system.positions, system.terms):
        where = f"{tag} h={h}" if tag == "S3" else tag
        lines.append(f"{where} {n} {row} {col} : {text(flat)}")
    return "\n".join(lines) + "\n"


def load_system(text):
    """Parse a serialized system (header plus equations) into its compiled
    form.

    Every equation is read in the term grammar; any other line, or a
    variable token outside the header's shape or not in its canonical
    spelling, is a FormatError.  Each distinct token and ring term is read
    once and the shape's variables are not listed, so loading costs time
    in proportion to the text, whatever the header's ranks.  The result
    verifies assignments; reconstruction needs the Koszul and module
    data, which the CLI re-derives from their own files.
    """
    lines = _split_lines(text)
    ring = _expect_kind(lines, "system")
    if len(lines) < 3:
        raise FormatError("system file needs a header line")
    header = lines[2]
    m = re.fullmatch(
        r"m=(\d+)\s+e=(\d+)\s+s=\[([0-9, ]*)\]\s+r=\[([0-9, ]*)\]", header)
    if not m:
        raise FormatError(f"bad system header: {header!r}")
    mm, ee = int(m.group(1)), int(m.group(2))
    s = tuple(int(t) for t in m.group(3).split(",")) if m.group(3).strip() else ()
    r = tuple(int(t) for t in m.group(4).split(",")) if m.group(4).strip() else ()
    if len(s) != mm + 1:
        raise FormatError(f"header lists {len(s)} ranks of P, expected m + 1 = {mm + 1}")
    if len(r) != mm + ee + 1:
        raise FormatError(f"header lists {len(r)} ranks of the extension, "
                          f"expected m + e + 1 = {mm + ee + 1}")
    for n, rn in enumerate(r):
        expected = _extension_rank(ee, s, n)
        if rn != expected:
            raise FormatError(f"header rank r_{n} = {rn} is inconsistent with "
                              f"m, e and s: expected {expected}")
    shape = SystemShape(mm, ee, s, r)
    positions, terms, coefficients = [], [], []
    read = _polynomial_reader(ring, shape, coefficients)
    for line in lines[3:]:
        m = _EQUATION.fullmatch(line)
        if not m or (m.group(1) == "S3") != (m.group(2) is not None):
            raise FormatError(f"bad equation line: {line!r}")
        tag, h, n, row, col, poly = m.groups()
        positions.append((tag, int(h) if h else None, int(n), int(row), int(col)))
        terms.append(read(poly))
    return PolynomialSystem(ring, shape, positions, terms, coefficients)


def save_assignment(assignment):
    lines = [f"ring {ring_spec(assignment.target)}", "assignment"]
    for var in sorted(assignment.values):
        lines.append(f"{var.token()} = {format_element(assignment.values[var])}")
    return "\n".join(lines) + "\n"


def load_assignment(text, coefficient_ring=None):
    """Parse an assignment; the homomorphism from the coefficient ring is
    the identity for a matching ring and the canonical map from Z.  Each
    token must be in its canonical spelling, as in a system file, and name
    a variable no other line names."""
    lines = _split_lines(text)
    ring = _expect_kind(lines, "assignment")
    values = {}
    for line in lines[2:]:
        m = _ASSIGNMENT.fullmatch(line)
        if not m:
            raise FormatError(f"bad assignment line: {line!r}")
        var = SystemVariable(m[1], int(m[2]), int(m[3]), int(m[4]))
        if var in values:
            raise FormatError(f"{var.token()} is assigned twice")
        values[var] = parse_element(ring, m[5])
    src = coefficient_ring if coefficient_ring is not None else ring
    if src == ring:
        hom = RingHom.identity(ring)
    else:
        hom = RingHom(src, ring)
    return Assignment(hom, values)


# ---------------------------------------------------------------------------
# JSON mirror


def to_json(obj):
    """Structured interchange form of any serializable toolkit object."""
    if isinstance(obj, ChainComplex):
        return json.dumps({
            "kind": "complex", "ring": ring_spec(obj.ring),
            "ranks": {str(n): obj.rank(n) for n in sorted(obj.support)},
            "diffs": {str(n): format_matrix(obj.diff(n))
                      for n in sorted(obj._diffs)},
        }, indent=1, sort_keys=True) + "\n"
    if isinstance(obj, KoszulAlgebra):
        return json.dumps({
            "kind": "koszul", "ring": ring_spec(obj.ring),
            "sequence": [format_element(a) for a in obj.elements],
        }, indent=1, sort_keys=True) + "\n"
    if isinstance(obj, DGModule):
        return json.dumps({
            "kind": "dgmodule", "ring": ring_spec(obj.algebra.ring),
            "sequence": [format_element(a) for a in obj.algebra.elements],
            "ranks": {str(n): obj.underlying.rank(n)
                      for n in sorted(obj.underlying.support)},
            "diffs": {str(n): format_matrix(obj.underlying.diff(n))
                      for n in sorted(obj.underlying._diffs)},
            "action": {_subset_text(H): {str(n): format_matrix(mat)
                                         for n, mat in sorted(per.items())}
                       for H, per in sorted(obj.action.items(),
                                            key=lambda kv: (len(kv[0]), kv[0]))},
        }, indent=1, sort_keys=True) + "\n"
    if isinstance(obj, PolynomialSystem):
        text = _polynomial_printer(obj)
        return json.dumps({
            "kind": "system", "ring": ring_spec(obj.ring),
            "m": obj.shape.m, "e": obj.shape.e,
            "s": list(obj.shape.s), "r": list(obj.shape.r),
            "equations": [
                {"tag": tag, **({"h": h} if h is not None else {}),
                 "n": n, "row": row, "col": col, "poly": text(flat)}
                for (tag, h, n, row, col), flat in zip(obj.positions, obj.terms)],
        }, indent=1, sort_keys=True) + "\n"
    if isinstance(obj, Assignment):
        return json.dumps({
            "kind": "assignment", "ring": ring_spec(obj.target),
            "values": {v.token(): format_element(x)
                       for v, x in sorted(obj.values.items())},
        }, indent=1, sort_keys=True) + "\n"
    if isinstance(obj, ModulePresentation):
        return json.dumps({
            "kind": "module", "ring": ring_spec(obj.ring),
            "gens": obj.gens, "relations": format_matrix(obj.relations),
        }, indent=1, sort_keys=True) + "\n"
    raise FormatError(f"no JSON form for {type(obj).__name__}")


_JSON_FIELDS = {  # the keys of each kind's JSON object and their value types
    "complex": {"ranks": dict, "diffs": dict},
    "koszul": {"sequence": list},
    "dgmodule": {"sequence": list, "ranks": dict, "diffs": dict, "action": dict},
    "module": {"gens": object, "relations": object},
    "system": {"m": object, "e": object, "s": object, "r": object, "equations": list},
    "assignment": {"values": dict},
}
_EQUATION_FIELDS = dict.fromkeys(("tag", "n", "row", "col", "poly"), object)


def _json_object(value, what, fields):
    """`value`, which must be a JSON object holding every key of `fields`
    with a value of the type given there."""
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object")
    for key, kind in fields.items():
        if key not in value:
            raise FormatError(f"{what} has no {key!r} key")
        if not isinstance(value[key], kind):
            raise FormatError(f"{key!r} of {what} must be a JSON {kind.__name__}")
    return value


def _unique_keys(pairs):
    """A JSON object as a dict; a key that appears twice is a FormatError."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise FormatError("a JSON object repeats a key")
    return out


def _json_text(text):
    """The text form of the JSON document `text` of any kind, read by that
    kind's one text loader.  A document that is not an object, an unknown
    kind, a repeated, missing or mistyped key or a value with a line break
    is a FormatError."""
    data = json.loads(text, object_pairs_hook=_unique_keys)
    kind = _json_object(data, "a JSON document", {"kind": str})["kind"]
    if kind not in _JSON_FIELDS:
        raise FormatError(f"unknown JSON kind {kind!r}")
    fields = _JSON_FIELDS[kind]
    _json_object(data, f"a {kind} JSON object", {"ring": str, **fields})
    lines = [f"ring {data['ring']}", kind]
    if "sequence" in fields:
        lines.append("sequence [" + ", ".join(map(str, data["sequence"])) + "]")
    if "ranks" in fields:
        lines += [f"rank {n} = {r}" for n, r in data["ranks"].items()]
        lines += [f"diff {n} = {t}" for n, t in data["diffs"].items()]
    if kind == "dgmodule":
        lines += [f"act {H} {n} = {t}" for H, per in data["action"].items()
                  for n, t in _json_object(per, f"action {H}", {}).items()]
    if kind == "module":
        lines += [f"gens {data['gens']}", f"relations {data['relations']}"]
    if kind == "system":
        lines.append(f"m={data['m']} e={data['e']} s={data['s']} r={data['r']}")
        for eq in data["equations"]:
            eq = _json_object(eq, "an equation", _EQUATION_FIELDS)
            h = f" h={eq['h']}" if "h" in eq else ""
            lines.append(f"{eq['tag']}{h} {eq['n']} {eq['row']} {eq['col']} : {eq['poly']}")
    if kind == "assignment":
        lines += [f"{tok} = {val}" for tok, val in data["values"].items()]
    if any(len(line.splitlines()) != 1 for line in lines):
        raise FormatError(f"a value of the {kind} JSON object spans lines")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# extension-aware entry points


_SAVERS = {
    ChainComplex: save_complex,
    KoszulAlgebra: save_koszul,
    DGModule: save_dg_module,
    ModulePresentation: save_presentation,
    PolynomialSystem: save_system,
    Assignment: save_assignment,
}


def dumps(obj):
    """The canonical text form of any serializable toolkit object."""
    for cls, fn in _SAVERS.items():
        if isinstance(obj, cls):
            return fn(obj)
    raise FormatError(f"cannot serialize {type(obj).__name__}")


def save(obj, path):
    p = pathlib.Path(path)
    p.write_text(to_json(obj) if p.suffix == ".json" else dumps(obj), encoding="utf-8")


_LOADERS = {
    "complex": load_complex,
    "koszul": load_koszul,
    "dgmodule": load_dg_module,
    "module": load_presentation,
    "system": load_system,
    "assignment": load_assignment,
}


def load(path, coefficient_ring=None):
    """The object in the file `path`, its text form or, for a `.json` path,
    its JSON form, read by its kind's loader; an assignment maps from
    `coefficient_ring` as in `load_assignment`."""
    p = pathlib.Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        text = _json_text(text)
    lines = _split_lines(text)
    if len(lines) < 2:
        raise FormatError(f"truncated file in {path}")
    kind = lines[1].strip()
    if kind not in _LOADERS:
        raise FormatError(f"unknown object kind {kind!r} in {path}")
    if kind == "assignment":
        return load_assignment(text, coefficient_ring)
    return _LOADERS[kind](text)
