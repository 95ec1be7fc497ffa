"""The compiled form of a descent system: what the hot path builds and
reads, its tables after a round trip, and the readers and commands that
compare or check it."""

import json
import re
from pathlib import Path

import pytest

from koszulkit import descent as ds
from koszulkit import io as kio
from koszulkit.errors import FormatError
from koszulkit.koszul import koszul
from koszulkit.rings import Zmod

from helpers import load_json, run_cli
from test_system_format import quotient_instance

GOLDEN = Path(__file__).parent / "golden"
Z4 = Zmod(4)


def tables(system):
    return (system.ring, system.shape, system.positions, system.terms, system.coefficients)


def golden_system(e=1):
    """The system of tests/golden/P.cx for K on e copies of 2 over Z/4."""
    return ds.generate_system(koszul(Z4, [Z4.from_int(2)] * e), kio.load(GOLDEN / "P.cx"))


# ---------------------------------------------------------------------------
# the hot path


def test_generate_save_load_verify_build_no_equation_objects(monkeypatch):
    built = []
    for cls in (ds.VarPoly, ds.Equation):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _cls=cls, _init=init:
                            built.append(_cls) or _init(self, *args))
    K = koszul(Z4, [Z4.from_int(2)] * 2)
    P = kio.load(GOLDEN / "P.cx")
    system = ds.generate_system(K, P)
    loaded = kio.load_system(kio.save_system(system))
    assert ds.verify_assignment(loaded, ds.canonical_solution(K, P)).passed
    assert built == []
    # the readable view is built on first access only
    assert len(loaded.equations) == len(loaded.positions) == built.count(ds.Equation)
    assert built.count(ds.VarPoly) == len(loaded.positions)


def ring_terms_and_factors(text):
    """The distinct ring-term texts and the distinct factor texts of the
    terms of a canonical system text."""
    ring_terms, factors = set(), set()
    for line in text.splitlines()[3:]:
        for body in re.split(r" [+-] ", line.split(" : ")[1].lstrip("-")):
            factors.update(body.split("*"))
            rest = re.sub(r"\*?[XYZ]_\d+_\d+_\d+", "", body)
            if rest:
                ring_terms.add(rest)
    return ring_terms, factors


def test_load_reads_each_distinct_ring_term_and_factor_once(monkeypatch):
    text = kio.save_system(golden_system(2))
    ring_terms, factors = ring_terms_and_factors(text)
    tokens = {f for f in factors if re.fullmatch(r"[XYZ]_\d+_\d+_\d+", f)}
    parsed, matched = [], []
    parse = kio.parse_element
    monkeypatch.setattr(kio, "parse_element",
                        lambda ring, t: parsed.append(t) or parse(ring, t))

    class Counting:
        def fullmatch(self, t, _pattern=kio._CANONICAL_TOKEN):
            matched.append(t)
            return _pattern.fullmatch(t)

    monkeypatch.setattr(kio, "_CANONICAL_TOKEN", Counting())
    loaded = kio.load_system(text)
    assert sorted(parsed) == sorted(ring_terms)
    assert len(matched) == len(set(matched)) and tokens <= set(matched) <= factors
    assert kio.save_system(loaded) == text


# ---------------------------------------------------------------------------
# agreement


def test_a_round_trip_keeps_the_compiled_tables(tmp_path):
    golden = golden_system()
    assert kio.save_system(golden) == (GOLDEN / "S.sys").read_text()
    systems = [golden] + [ds.generate_system(koszul(K.ring, list(K.elements) * e), P)
                          for K, P in [quotient_instance("F2")] for e in (1, 2)]
    for system in systems:
        for loaded in (kio.load_system(kio.save_system(system)),
                       load_json(tmp_path, kio.to_json(system))):
            assert tables(loaded) == tables(system)
            assert loaded == system
    assert any(len(c) == 2 for c in systems[-1].coefficients)


def test_the_variable_list_keeps_its_contents_and_order():
    system = golden_system()
    loaded = kio.load_system(kio.save_system(system))
    held = sorted({v for eq in system.equations for mono in eq.poly.terms for v in mono})
    assert system.variables == loaded.variables == held == list(system.shape.variables())
    assert len(held) == system.shape.count() == 74
    assert [v.token() for v in held[:4]] == ["X_1_1_1", "X_1_2_1", "X_2_1_1", "Y_0_1_1"]
    assert [v.token() for v in held[-2:]] == ["Z_3_1_2", "Z_3_1_3"]


# ---------------------------------------------------------------------------
# assignment tokens


@pytest.mark.parametrize("lines", [
    [("X_01_1_1", "1")],                   # not the canonical spelling
    [("X_01_1_1", "1"), ("X_1_1_1", "2")],  # ... then the variable again
    [("Y_0_1_1", "1"), ("Y_0_1_1", "2")],   # one variable twice
    [("Y_0_0_5", "3")],                    # a row index 0
])
def test_assignment_tokens_are_canonical_and_unique(lines, tmp_path):
    text = "ring zmod 4\nassignment\n" + "".join(f"{t} = {v}\n" for t, v in lines)
    values = ", ".join(f'"{t}": "{v}"' for t, v in lines)
    document = f'{{"kind": "assignment", "ring": "zmod 4", "values": {{{values}}}}}\n'
    json.loads(document)  # valid JSON, repeated keys included
    for name, content in (("A.asg", text), ("A.json", document)):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(FormatError):
            kio.load(path)
        code, out, err = run_cli(["system", "verify", str(GOLDEN / "S.sys"), str(path)])
        assert (code, out) == (2, "") and err.startswith("error:"), err


# ---------------------------------------------------------------------------
# system reconstruct


def test_reconstruct_compares_the_compiled_equations(tmp_path):
    lines = (GOLDEN / "S.sys").read_text().splitlines()
    i = lines.index("S2 1 1 1 : 3*X_1_1_1*Y_1_3_1 + 2*Y_0_1_1 + 2*Y_1_1_1")
    inputs = ["--koszul", str(GOLDEN / "K4_on_2.kz"), "--complex", str(GOLDEN / "P.cx")]

    def reconstruct(line):
        path = tmp_path / "S.sys"
        path.write_text("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
        return run_cli(["system", "reconstruct", str(path), str(GOLDEN / "canonical.asg"),
                        *inputs])

    expected = run_cli(["system", "reconstruct", str(GOLDEN / "S.sys"),
                        str(GOLDEN / "canonical.asg"), *inputs])
    assert expected[0] == 0 and "recheck contraction ok" in expected[1]
    # the same polynomial in another order
    assert reconstruct("S2 1 1 1 : 2*Y_1_1_1 + 2*Y_0_1_1 + 3*Y_1_3_1*X_1_1_1") == expected
    # one coefficient differs
    assert reconstruct("S2 1 1 1 : 3*X_1_1_1*Y_1_3_1 + 2*Y_0_1_1 + Y_1_1_1") == (
        2, "", "error: serialized system disagrees with the one generated from inputs\n")
