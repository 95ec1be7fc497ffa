"""The descent system file: its term grammar, its round trips and its
verification on payloads."""

import random
import time
import tracemalloc
from pathlib import Path

import pytest

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit import io as kio
from koszulkit.errors import FormatError, IncompleteAssignment
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import RingElement, RingHom, ZZ, Zmod, make_ring, parse_element

from helpers import load_json, run_cli

GOLDEN = Path(__file__).parent / "golden"
QUOTIENTS = {
    "F2": ("polyquot coeff=F2 vars=x,y order=degrevlex ideal=[x^2, x*y, y^2]", "x + y"),
    "Q": ("polyquot coeff=Q vars=x,y order=degrevlex ideal=[x^2, x*y, y^2]", "x - 1/2*y"),
}


def quotient_instance(name):
    """K on x and the complex R --[entry]--> R over (x, y)^2-quotients, whose
    entry has two monomials."""
    spec, entry = QUOTIENTS[name]
    R = make_ring(spec)
    K = koszul(R, [R.variable("x")])
    P = cx.make_complex(R, {0: 1, 1: 1}, {1: Matrix.from_rows(R, [[parse_element(R, entry)]])})
    return K, P


@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_polynomial_coefficients_round_trip_and_verify(name, tmp_path):
    K, P = quotient_instance(name)
    system = ds.generate_system(K, P)
    text = kio.save_system(system)
    # one term per monomial of a coefficient
    assert {"F2": "x*Y_0_1_1 + y*Y_0_1_1",
            "Q": "x*Y_0_1_1 - 1/2*y*Y_0_1_1"}[name] in text
    sol = ds.canonical_solution(K, P)
    assert ds.verify_assignment(system, sol).passed
    for loaded in (kio.load_system(text), load_json(tmp_path, kio.to_json(system))):
        assert kio.save_system(loaded) == text
        assert [eq.poly for eq in loaded.equations] == [eq.poly for eq in system.equations]
        assert ds.verify_assignment(loaded, sol).passed
    assert kio.to_json(load_json(tmp_path, kio.to_json(system))) == kio.to_json(system)


def test_cli_descent_pipeline_over_a_polynomial_quotient(tmp_path):
    K, P = quotient_instance("F2")
    kz, cxf = tmp_path / "K.kz", tmp_path / "P.cx"
    kio.save(K, kz)
    kio.save(P, cxf)
    sysf, asg, out = tmp_path / "S.sys", tmp_path / "C.asg", tmp_path / "A.cx"
    inputs = ["--koszul", str(kz), "--complex", str(cxf)]
    assert run_cli(["system", "gen", *inputs, "-o", str(sysf)])[0] == 0
    assert run_cli(["system", "canonical", *inputs, "-o", str(asg)])[0] == 0
    assert run_cli(["system", "verify", str(sysf), str(asg)]) == (
        0, "S1 ok\nS2 ok\nS3 ok\nS4 ok\n", "")
    code, _, err = run_cli(["system", "reconstruct", str(sysf), str(asg), *inputs,
                            "-o", str(out)])
    assert (code, err) == (0, "")
    assert kio.load(str(out)) == P


def test_verification_builds_no_element_per_term(monkeypatch):
    K, P = quotient_instance("Q")
    system = kio.load_system(kio.save_system(ds.generate_system(K, P)))
    sol = ds.canonical_solution(K, P)
    built = []
    init = RingElement.__init__
    monkeypatch.setattr(RingElement, "__init__",
                        lambda self, ring, payload: built.append(payload) or
                        init(self, ring, payload))
    assert ds.verify_assignment(system, sol).passed
    assert built == []


def test_json_assignment_maps_from_the_coefficient_ring(tmp_path):
    Z, Z4 = ZZ(), Zmod(4)
    K = koszul(Z, [Z.from_int(2)])
    P = cx.make_complex(Z, {0: 1, 1: 1}, {1: Matrix.from_rows(Z, [[Z.from_int(2)]])})
    sysf = tmp_path / "S.sys"
    kio.save(ds.generate_system(K, P), sysf)
    sol = ds.canonical_solution(K, P)
    values = {v: Z4.from_int(x.payload) for v, x in sol.values.items()}
    reports = []
    for name in ("A.asg", "A.json"):
        kio.save(ds.Assignment(RingHom.identity(Z4), values), tmp_path / name)
        reports.append(run_cli(["system", "verify", str(sysf), str(tmp_path / name)]))
    assert reports[0] == reports[1] == (0, "S1 ok\nS2 ok\nS3 ok\nS4 ok\n", "")


@pytest.mark.parametrize("line", [
    "S2 1 1 1 : 3*X_1_1_1*Y_9_9_9 + 2*Y_0_1_1",       # outside the shape
    "S2 1 1 1 : X_1_1_1*Y_0_1_1*Z_0_1_1",              # three variables
    "S2 1 1 1 : Y_0_1_1^2",                            # a power of a variable
    "S2 1 1 1 : Y_0_1_1*3",                            # ring factor after a variable
    "S2 1 1 1 : 1/2*Y_0_1_1",                          # fraction over Z/4
    "S2 1 1 1 : x*Y_0_1_1",                            # no ring variables over Z/4
    "S2 1 1 1 : 2*Y_0_1_1 +",
    "S2 1 1 1 : - - Y_0_1_1",
    "S2 1 1 1 : (Y_0_1_1)",
    "S2 1 1 1 :",
    "S3 1 1 1 : 0",                                    # S3 needs h=
    "S2 h=1 1 1 1 : 0",                                # only S3 has h=
    "S5 1 1 1 : 0",
])
def test_lines_outside_the_term_grammar_are_format_errors(line):
    text = (GOLDEN / "S.sys").read_text()
    with pytest.raises(FormatError):
        kio.load_system(text + line + "\n")


def test_equal_polynomials_in_other_term_orders_load_equal():
    golden = "\n".join((GOLDEN / "S.sys").read_text().splitlines()[:3])
    quotient = f"ring {QUOTIENTS['F2'][0]}\nsystem\nm=1 e=1 s=[1, 1] r=[1, 2, 1]"
    for header, canonical, other in [
        (golden, "3*X_1_1_1*Y_1_3_1 + 2*Y_0_1_1",
         "Y_0_1_1 + 3*Y_1_3_1*X_1_1_1 + Y_0_1_1"),
        # reversed variable pairs
        (golden, "3*X_1_1_1*Y_1_3_1 + X_1_2_1*Y_1_1_1 + 2*Y_0_1_1",
         "3*Y_1_3_1*X_1_1_1 + Y_1_1_1*X_1_2_1 + 2*Y_0_1_1"),
        # duplicate terms that cancel: 1 + 3 = 0 and 2 + 2 = 0 over Z/4
        (golden, "3*X_1_1_1*Y_1_3_1 + 2*Y_0_1_1",
         "Y_2_1_1 + 2*X_1_2_1*Y_1_1_1 + 3*X_1_1_1*Y_1_3_1 + 2*Y_0_1_1 + 3*Y_2_1_1"
         " + 2*Y_1_1_1*X_1_2_1"),
        # a two-monomial coefficient split across terms, its parts apart
        (quotient, "x*X_1_1_1*Y_0_1_1 + y*X_1_1_1*Y_0_1_1 + x*Y_1_1_1",
         "y*Y_0_1_1*X_1_1_1 + x*Y_1_1_1 + x*X_1_1_1*Y_0_1_1"),
    ]:
        canonical = kio.load_system(f"{header}\nS2 1 1 1 : {canonical}\n")
        other = kio.load_system(f"{header}\nS2 1 1 1 : {other}\n")
        assert other.equations[0].poly == canonical.equations[0].poly
        assert kio.save_system(other) == kio.save_system(canonical)
        assert (other.terms, other.coefficients) == (canonical.terms, canonical.coefficients)


def _mutate(line, kind, rng):
    head, poly = line.split(" : ")
    if kind == "position":
        tokens = head.split(" ")
        i = rng.randrange(len(tokens))
        tokens[i] = rng.choice(["99", "-1", "h=99", "", tokens[i] * 2])
        return " ".join(tokens) + " : " + poly
    terms = poly.split(" ")
    if kind in ("drop", "duplicate", "reorder"):
        i = rng.randrange(len(terms))
        if kind == "drop":
            del terms[i]
        elif kind == "duplicate":
            terms.insert(i, terms[i])
        else:
            j = rng.randrange(len(terms))
            terms[i], terms[j] = terms[j], terms[i]
        return head + " : " + " ".join(terms)
    factors = poly.replace(" ", "").split("*")
    i = rng.randrange(len(factors))
    if kind == "indices":
        factors[i] = factors[i][:2] + rng.choice(["9_9_9", "0_0_0", "1_1_99", "00_1_1"])
    elif kind == "power":
        factors[i] += "^2"
    else:  # three variables
        factors[i] += "*Z_0_1_1*Y_0_1_1"
    return head + " : " + "*".join(factors)


@pytest.mark.parametrize("kind", ["drop", "duplicate", "reorder", "position",
                                  "indices", "power", "three"])
def test_mutated_system_lines_never_crash_verify(kind, tmp_path):
    lines = (GOLDEN / "S.sys").read_text().splitlines()
    rng = random.Random(kind)
    for trial in range(20):
        mutated = list(lines)
        i = rng.randrange(3, len(lines))
        mutated[i] = _mutate(lines[i], kind, rng)
        path = tmp_path / f"{trial}.sys"
        path.write_text("\n".join(mutated) + "\n")
        code, _, err = run_cli(["system", "verify", str(path),
                                str(GOLDEN / "canonical.asg")])
        assert code in (0, 1, 2), (mutated[i], err)
        assert "internal" not in err and "Traceback" not in err, (mutated[i], err)


@pytest.mark.parametrize("header", [
    "m=3 e=0 s=[1] r=[1]",              # fewer ranks of P than m + 1
    "m=0 e=0 s=[1, 1] r=[1]",           # more ranks of P than m + 1
    "m=1 e=0 s=[1, 1] r=[1, 1, 5]",     # a rank beyond degree m + e
    "m=1 e=1 s=[1, 1] r=[1, 2]",        # a missing rank
    "m=0 e=1 s=[1] r=[1, 2]",           # a wrong rank
    "m=0 e=1000000 s=[1] r=[1]",        # too few ranks for a huge e
    "m=0 e=3 s=[1] r=[1, 4, 3, 1]",     # a wrong rank before right ones
])
def test_inconsistent_headers_are_format_errors(header, tmp_path):
    text = f"ring zmod 4\nsystem\n{header}\n"
    with pytest.raises(FormatError):
        kio.load_system(text)
    path = tmp_path / "S.sys"
    path.write_text(text)
    code, _, err = run_cli(["system", "verify", str(path), str(GOLDEN / "canonical.asg")])
    assert code == 2 and "internal" not in err


@pytest.mark.parametrize("header, token", [
    ("m=1 e=0 s=[1, 1] r=[1, 1]", "X_01_1_1"),   # not the canonical spelling
    ("m=1 e=0 s=[1, 1] r=[1, 1]", "Y_1_0_1"),    # row index 0
    ("m=1 e=0 s=[1, 1] r=[1, 1]", "Z_1_2_1"),    # Z_1 is 1 x 2 here
    ("m=0 e=0 s=[1] r=[1]", "X_1_1_1"),          # m = 0 has no X variables
    ("m=1 e=0 s=[1, 1] r=[1, 1]", "Y_0_1_" + "1" * 5000),  # too long for int()
])
def test_non_canonical_or_out_of_shape_tokens_are_format_errors(header, token, tmp_path):
    head = f"ring zmod 4\nsystem\n{header}\n"
    assert kio.load_system(head + "S2 1 1 1 : 2*Y_0_1_1\n").equations
    for poly in (token, f"2*{token}", f"{token}*Y_0_1_1", f"Y_0_1_1*{token}",
                 f"Y_0_1_1 + {token}*3"):
        text = head + f"S2 1 1 1 : {poly}\n"
        with pytest.raises(FormatError):
            kio.load_system(text)
        path = tmp_path / "S.sys"
        path.write_text(text)
        code, _, err = run_cli(["system", "verify", str(path), str(GOLDEN / "canonical.asg")])
        assert code == 2 and err.startswith("error:") and "internal" not in err, (poly, err)


def test_variable_indices_agree_with_the_variable_list():
    text = (GOLDEN / "S.sys").read_text()
    generated = ds.generate_system(*quotient_instance("F2"))
    partial = kio.load_system("\n".join(text.splitlines()[:3] + [
        "S2 1 1 1 : 2*X_1_1_1*Y_1_1_1 + Y_0_1_1"]) + "\n")
    for system in (kio.load_system(text), generated, partial):
        shape = system.shape
        assert system.variables == list(shape.variables())
        for k, v in enumerate(system.variables):
            assert shape.index(*v) == k and shape.variable(k) == v
        # the flat terms name, by index, the variables of each equation
        for eq, flat in zip(system.equations, system.terms):
            monomials = [tuple(system.variables[k] for k in (a, b) if k >= 0)
                         for _, a, b in flat]
            assert monomials == sorted(eq.poly.terms, key=lambda m: (-len(m), m))
    used = {k for flat in partial.terms for _, a, b in flat for k in (a, b) if k >= 0}
    assert [partial.variables[k] for k in sorted(used)] == [
        ds.SystemVariable("X", 1, 1, 1), ds.SystemVariable("Y", 0, 1, 1),
        ds.SystemVariable("Y", 1, 1, 1)]
    assert partial.shape.index("X", 9, 9, 9) is None
    assert partial.shape.index("Y", 0, 0, 1) is None


def test_an_assignment_that_lacks_variables_is_incomplete():
    text = (GOLDEN / "S.sys").read_text()
    system = kio.load_system(text)
    full = kio.load(str(GOLDEN / "canonical.asg"), coefficient_ring=system.ring)
    assert ds.verify_assignment(system, full).passed
    order = list(system.variables)
    rng = random.Random(31)
    for drop in (1, 5, 6, 9):
        dropped = set(rng.sample(order, drop))
        # a variable outside the shape does not stand in for a dropped one
        values = {v: x for v, x in full.values.items() if v not in dropped}
        values[ds.SystemVariable("X", 9, 9, 9)] = system.ring.zero
        missing = [v for v in order if v in dropped]
        with pytest.raises(IncompleteAssignment) as exc:
            ds.verify_assignment(system, ds.Assignment(full.hom, values))
        assert str(exc.value) == (f"missing values for {missing[:5]}"
                                  + ("..." if drop > 5 else ""))


def test_loading_a_huge_header_costs_nothing_in_its_shape():
    # 2 * 10^10 variables: load and verify read the file and the assignment,
    # never the shape's variables
    text = "ring zmod 4\nsystem\nm=0 e=0 s=[100000] r=[100000]\n"
    start = time.perf_counter()
    system = kio.load_system(text)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        kio.load_system(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 50 * 2**20
    assert system.shape.count() == 2 * 10**10
    assert system.variable_counts() == {"X": 0, "Y": 10**10, "Z": 10**10}
    empty = ds.Assignment(RingHom.identity(system.ring), {})
    with pytest.raises(IncompleteAssignment) as exc:
        ds.verify_assignment(system, empty)
    assert str(exc.value) == "missing values for {}...".format(
        [ds.SystemVariable("Y", 0, 1, j) for j in range(1, 6)])
