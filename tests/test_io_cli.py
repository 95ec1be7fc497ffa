import json
import random
import re
from pathlib import Path

import pytest

from koszulkit import cli
from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit import io as kio
from koszulkit import koszul as kk
from koszulkit.dgmodules import AxiomReport, AxiomResult, extend, verify_dg_module
from koszulkit.duality import ModulePresentation
from koszulkit.errors import FormatError, ToolkitError
from koszulkit.koszul import koszul, verify_dga
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, Zmod, parse_element, poly_quotient

from helpers import (
    chain_map_text, count_calls, identity_map, load_json, random_minimal_complex, run_cli,
)

Z = ZZ()
Z4 = Zmod(4)
GOLDEN = Path(__file__).parent / "golden"


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])


# --- round trips ---

def test_complex_round_trip(tmp_path):
    M = cx.make_complex(Z4, {0: 1, 1: 2, 2: 1}, {
        1: mat(Z4, [[2, 0]]),
        2: mat(Z4, [[2], [0]]),
    })
    text = kio.save_complex(M)
    assert kio.load_complex(text) == M
    assert kio.save_complex(kio.load_complex(text)) == text
    # json mirror
    assert load_json(tmp_path, kio.to_json(M)) == M


def test_zero_shaped_matrix_round_trip():
    M = cx.free_module_complex(Z4, 2)
    text = kio.save_complex(M)
    assert kio.load_complex(text) == M


def test_koszul_round_trip(tmp_path):
    K = koszul(Z4, [Z4.from_int(2), Z4.from_int(0)])
    text = kio.save_koszul(K)
    K2 = kio.load_koszul(text)
    assert K2.complex == K.complex and K2.elements == K.elements
    assert load_json(tmp_path, kio.to_json(K)).complex == K.complex


def test_dg_module_round_trip(tmp_path):
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    text = kio.save_dg_module(D)
    D2 = kio.load_dg_module(text)
    assert D2.underlying == D.underlying
    for H in D.action:
        for n in D.action[H]:
            assert D2.action_matrix(H, n) == D.action_matrix(H, n)
    D3 = load_json(tmp_path, kio.to_json(D))
    assert D3.underlying == D.underlying


def test_dumps_is_the_one_text_writer(tmp_path, monkeypatch):
    M = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    objects = [M, koszul(Z4, [Z4.from_int(2)]),
               ModulePresentation(Z4, 2, mat(Z4, [[2], [0]]))]
    for obj in objects:
        text = kio.dumps(obj)
        assert text == kio._SAVERS[type(obj)](obj)
        kio.save(obj, str(tmp_path / "obj.txt"))
        assert (tmp_path / "obj.txt").read_text() == text
        # the CLI prints it to stdout and writes it to -o through dumps
        monkeypatch.setattr(kio, "load", lambda *args, obj=obj: obj)
        assert run_cli(["complex", "new", "in.txt"])[:2] == (0, text)
        assert run_cli(["complex", "new", "in.txt", "-o", str(tmp_path / "o.txt")])[0] == 0
        assert (tmp_path / "o.txt").read_text() == text
    with pytest.raises(FormatError):
        kio.dumps(object())
    # an object with no text form is an input error
    monkeypatch.setattr(kio, "load", lambda *args: object())
    assert run_cli(["complex", "new", "in.txt"])[0] == 2


def test_presentation_round_trip(tmp_path):
    P = ModulePresentation(Z4, 2, mat(Z4, [[2], [0]]))
    text = kio.save_presentation(P)
    P2 = kio.load_presentation(text)
    assert (P2.gens, P2.relations) == (P.gens, P.relations)
    P3 = load_json(tmp_path, kio.to_json(P))
    assert (P3.gens, P3.relations) == (P.gens, P.relations)


def test_system_and_assignment_round_trip(tmp_path):
    rng = random.Random(7)
    K = koszul(Z4, [Z4.from_int(2)])
    P = random_minimal_complex(Z4, rng, max_top=2)
    system = ds.generate_system(K, P)
    text = kio.save_system(system)
    loaded = kio.load_system(text)
    assert kio.save_system(loaded) == text
    assert loaded.shape == system.shape
    assert len(loaded.equations) == len(system.equations)
    sol = ds.canonical_solution(K, P)
    atext = kio.save_assignment(sol)
    sol2 = kio.load_assignment(atext)
    assert sol2.values == sol.values
    assert kio.save_assignment(sol2) == atext
    # a loaded system verifies the loaded assignment identically
    assert ds.verify_assignment(loaded, sol2).passed
    # json mirror of both
    assert kio.save_system(load_json(tmp_path, kio.to_json(system))) == text
    assert kio.save_assignment(load_json(tmp_path, kio.to_json(sol))) == atext


def json_objects():
    """One object of every kind that has a JSON form."""
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    return [P, K, extend(K, P), ModulePresentation(Z4, 2, mat(Z4, [[2], [0]])),
            ds.generate_system(K, P), ds.canonical_solution(K, P)]


@pytest.mark.parametrize("index", range(6),
                         ids=["complex", "koszul", "dgmodule", "module", "system", "assignment"])
def test_json_without_one_of_its_keys_is_a_format_error(index, tmp_path):
    data = json.loads(kio.to_json(json_objects()[index]))
    load_json(tmp_path, json.dumps(data))
    for key in data:
        with pytest.raises(FormatError):
            load_json(tmp_path, json.dumps({k: v for k, v in data.items() if k != key}))


@pytest.mark.parametrize("document", ["[1]", "3", "null", '"complex"',
                                      '{"kind": "ring", "ring": "zmod 4"}',
                                      '{"kind": ["complex"], "ring": "zmod 4"}',
                                      '{"kind": "complex", "ring": "zmod 4", "diffs": {},'
                                      ' "ranks": {"0": "1\\nrank 1 = 1"}}'])
def test_json_that_is_not_an_object_of_a_known_kind_is_a_format_error(document, tmp_path):
    with pytest.raises(FormatError):
        load_json(tmp_path, document)


@pytest.mark.parametrize("argv, document", [
    (["complex", "homology"], {"kind": "complex", "ring": "zmod 4", "ranks": {"0": 1}}),
    (["system", "verify"], {"kind": "system", "ring": "zmod 4"}),
    (["complex", "homology"], [1]),
], ids=["complex-without-diffs", "system-without-fields", "top-level-list"])
def test_cli_rejects_incomplete_json_with_exit_2(tmp_path, argv, document):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    code, _, err = run_cli(argv + [str(path)] * (2 if argv[0] == "system" else 1))
    assert code == 2 and err.startswith("error:") and "internal" not in err


def test_polynomial_ring_elements_in_files():
    R = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    x = R.variable("x")
    y = R.variable("y")
    M = cx.make_complex(R, {0: 1, 1: 2}, {
        1: Matrix.from_rows(R, [[x, x + y]])})
    text = kio.save_complex(M)
    assert kio.load_complex(text) == M


def test_format_errors():
    from koszulkit.errors import FormatError
    with pytest.raises(FormatError):
        kio.load_complex("ring zmod 4\nkoszul\n")
    with pytest.raises(FormatError):
        kio.parse_matrix(Z4, "garbage")


@pytest.mark.parametrize("bad", ["2 +", "y", "1/0", "3 3"])
def test_bad_matrix_entry_fails_as_the_element_parser_does(tmp_path, bad):
    """Each distinct entry text is parsed once; a bad entry after good
    repeats still fails with the element parser's own message, as a
    FormatError that names the entry (and, from a file, the line), and
    exits 2."""
    with pytest.raises(ToolkitError) as expected:
        parse_element(Z4, bad)
    body = f"3x3 [[0, 1, 0], [1, 0, 1], [0, {bad}, 1]]"
    with pytest.raises(FormatError) as got:
        kio.parse_matrix(Z4, body)
    message = f"bad matrix entry {bad!r}: {expected.value}"
    assert str(got.value) == message
    cxf = tmp_path / "P.cx"
    cxf.write_text(f"ring zmod 4\ncomplex\nrank 0 = 3\nrank 1 = 3\ndiff 1 = {body}\n")
    code, out, err = run_cli(["complex", "homology", str(cxf)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}: {'diff 1 = ' + body!r}\n"


def test_repeated_entry_texts_give_equal_payloads():
    M = kio.parse_matrix(Z4, "2x3 [[0, 2, 3], [3, 0, 2]]")
    assert M == mat(Z4, [[0, 2, 3], [3, 0, 2]])
    assert kio.format_matrix(M) == "2x3 [[0, 2, 3], [3, 0, 2]]"


# --- CLI behavior ---

def test_cli_pipeline(tmp_path):
    kz = tmp_path / "K.kz"
    cxf = tmp_path / "P.cx"
    code, _, _ = run_cli(["koszul", "build", "--ring", "zmod 4",
                          "--sequence", "2", "-o", str(kz)])
    assert code == 0
    cxf.write_text("ring zmod 4\ncomplex\nrank 0 = 1\nrank 1 = 1\n"
                   "diff 1 = 1x1 [[2]]\n")
    code, out, _ = run_cli(["complex", "homology", str(cxf)])
    assert code == 0
    assert out.splitlines()[0] == "H0: Z/2"
    assert out.splitlines()[1] == "H1: Z/2"

    sysf, asg = tmp_path / "S.sys", tmp_path / "can.asg"
    assert run_cli(["system", "gen", "--koszul", str(kz), "--complex",
                    str(cxf), "-o", str(sysf)])[0] == 0
    assert run_cli(["system", "canonical", "--koszul", str(kz), "--complex",
                    str(cxf), "-o", str(asg)])[0] == 0
    code, out, _ = run_cli(["system", "verify", str(sysf), str(asg)])
    assert code == 0
    assert out.splitlines() == ["S1 ok", "S2 ok", "S3 ok", "S4 ok"]

    # a mutated assignment fails with a located subsystem
    mutated = tmp_path / "mut.asg"
    lines = asg.read_text().splitlines()
    out_lines = []
    for line in lines:
        if line.startswith("Z_1_1_1 ="):
            out_lines.append("Z_1_1_1 = 1")
        else:
            out_lines.append(line)
    mutated.write_text("\n".join(out_lines) + "\n")
    code, out, _ = run_cli(["system", "verify", str(sysf), str(mutated)])
    assert code == 1
    assert any(line.startswith("S4 FAIL") for line in out.splitlines())

    # reconstruct emits the descended complex
    outc = tmp_path / "A.cx"
    code, out, _ = run_cli(["system", "reconstruct", str(sysf), str(asg),
                            "--koszul", str(kz), "--complex", str(cxf),
                            "-o", str(outc)])
    assert code == 0
    assert kio.load(str(outc)) == kio.load(str(cxf))


def test_cli_homology_names_the_polynomial_ring(tmp_path):
    cxf = tmp_path / "P.cx"
    cxf.write_text("ring polyquot coeff=F2 vars=t order=degrevlex ideal=[]\n"
                   "complex\nrank 0 = 2\nrank 1 = 1\ndiff 1 = 2x1 [[t^2], [0]]\n")
    code, out, _ = run_cli(["complex", "homology", str(cxf)])
    assert code == 0
    assert out.splitlines()[:2] == ["H0: F2[t]^1 + F2[t]/(t^2)", "H1: 0"]


def test_cli_usage_error_exit_2(tmp_path):
    code, _, err = run_cli(["complex", "homology", str(tmp_path / "nope.cx")])
    assert code == 2


def test_cli_internal_error_exit_3(monkeypatch):
    def broken(args):
        raise RuntimeError("planted\nfault")

    monkeypatch.setattr(cli, "cmd_ring_new", broken)
    code, out, err = run_cli(["ring", "new", "zmod 4"])
    assert (code, out, err) == (3, "", "error: internal: RuntimeError: planted fault\n")
    # a Koszul algebra failing its own axioms is an internal error too
    failing = AxiomReport([AxiomResult("leibniz", False, "planted")])
    monkeypatch.setattr(kk, "verify_dga", lambda K: failing)
    code, out, err = run_cli(["koszul", "build", "--ring", "zmod 4", "--sequence", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("error: internal: ArithmeticError:") and len(err.splitlines()) == 1


def test_cli_koszul_verify_checks_the_algebra_once(monkeypatch):
    seen = count_calls(monkeypatch, verify_dga)
    code, out, _ = run_cli(["koszul", "verify", str(GOLDEN / "K4_on_2.kz")])
    assert (code, out) == (0, (GOLDEN / "verify_K4.txt").read_text())
    assert len(seen) == 1


def test_cli_dg_verify_checks_algebra_and_module_once_each(tmp_path, monkeypatch):
    dgf = tmp_path / "F.dg"
    assert run_cli(["dg", "extend", str(GOLDEN / "K4_on_2.kz"), str(GOLDEN / "P.cx"),
                    "-o", str(dgf)])[0] == 0
    algebras = count_calls(monkeypatch, verify_dga)
    modules = count_calls(monkeypatch, verify_dg_module)
    code, out, _ = run_cli(["dg", "verify", str(dgf)])
    assert code == 0 and out.endswith("leibniz: ok\n")
    assert len(algebras) == 1
    assert len(modules) == 2 and modules[0].underlying is algebras[0].complex


def test_cli_dg_verify_reports_a_failing_module_with_exit_1(tmp_path):
    dgf = tmp_path / "F.dg"
    assert run_cli(["dg", "extend", str(GOLDEN / "K4_on_2.kz"), str(GOLDEN / "P.cx"),
                    "-o", str(dgf)])[0] == 0
    lines = dgf.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("act {1} 0 = "))
    assert lines[i] == "act {1} 0 = 3x2 [[1, 0], [0, 1], [0, 0]]"
    lines[i] = "act {1} 0 = 3x2 [[0, 0], [0, 1], [0, 0]]"
    dgf.write_text("\n".join(lines) + "\n")
    jsonf = tmp_path / "F.json"
    jsonf.write_text(kio.to_json(kio.parse_dg_module(dgf.read_text())))
    for path in (dgf, jsonf):
        code, out, _ = run_cli(["dg", "verify", str(path)])
        assert code == 1
        assert "leibniz: FAIL e_(1,) at degree 0" in out.splitlines()
        # every other loader still rejects the module as malformed
        with pytest.raises(FormatError, match="fails the leibniz axiom"):
            kio.load(str(path))


@pytest.mark.parametrize("line, message", [
    ("rank 1 = 3", "a second rank 1 line"),
    ("diff 1 = 2x1 [[0], [0]]", "a second diff 1 line"),
])
def test_cli_complex_rejects_a_repeated_line(tmp_path, line, message):
    # the first diff 1 gives H0 = Z/2 + Z/4; a silent override gave Z/4 + Z/4
    cxf = tmp_path / "P.cx"
    cxf.write_text((GOLDEN / "P.cx").read_text() + line + "\n")
    code, out, err = run_cli(["complex", "homology", str(cxf)])
    assert (code, out, err) == (2, "", f"error: {message}: {line!r}\n")


def golden_extension(tmp_path):
    """The `dg extend` output of the golden K on 2 over Z/4 and P.cx."""
    dgf = tmp_path / "F.dg"
    assert run_cli(["dg", "extend", str(GOLDEN / "K4_on_2.kz"), str(GOLDEN / "P.cx"),
                    "-o", str(dgf)])[0] == 0
    return dgf


@pytest.mark.parametrize("edit, message", [
    ("rank 1 = 3", "a second rank 1 line"),
    ("diff 2 = 3x2 [[2, 0], [0, 0], [2, 2]]", "a second diff 2 line"),
    ("sequence [2]", "a second sequence line"),
    ("act {1} 0 = 3x2 [[1, 0], [0, 1], [0, 0]]", "a second act {1} 0 line"),
    ("act {2} 0 = 3x2 [[1, 0], [0, 1], [0, 0]]",
     "{2} names no basis element of the Koszul algebra (e = 1)"),
    ("act {1,1} 0 = 2x2 [[0, 0], [0, 0]]",
     "{1,1} names no basis element of the Koszul algebra (e = 1)"),
    ("act {1} 9 = 1x1 [[3]]", "the complex has rank 0 in degree 9"),
    ("act {1} -1 = 2x0 [[], []]", "the complex has rank 0 in degree -1"),
    # the file's own act {1} 1 line, rewritten 2x2: replaced, not appended
    ("act {1} 1 = 2x2 [[0, 0], [0, 0]]", "the act matrix is 2x2, the ranks make it 2x3"),
])
def test_cli_dg_module_rejects_overrides_and_misplaced_actions(tmp_path, edit, message):
    dgf = golden_extension(tmp_path)
    assert run_cli(["dg", "verify", str(dgf)])[0] == 0
    lines = dgf.read_text().splitlines()
    if edit.startswith("act {1} 1 "):
        lines = [edit if line.startswith("act {1} 1 ") else line for line in lines]
    else:
        lines.append(edit)
    dgf.write_text("\n".join(lines) + "\n")
    expected = (2, "", f"error: {message}: {edit!r}\n")
    assert run_cli(["dg", "verify", str(dgf)]) == expected
    with pytest.raises(FormatError, match=re.escape(message)):
        kio.parse_dg_module(dgf.read_text())


@pytest.mark.parametrize("lines, message", [
    (["gens -1"], "gens must be a non-negative integer: 'gens -1'"),
    (["gens x"], "gens must be a non-negative integer: 'gens x'"),
    (["gens 1", "gens 2", "relations 2x1 [[2], [0]]"], "a second gens line: 'gens 2'"),
    (["gens 2", "relations 2x1 [[2], [0]]", "relations 2x1 [[0], [0]]"],
     "a second relations line: 'relations 2x1 [[0], [0]]'"),
])
def test_cli_module_rejects_a_bad_or_repeated_line(tmp_path, lines, message):
    # before: gens -1 exited 3, gens x named no line, and a second gens or
    # relations line silently won (Ext^0: card 32 for gens 1, gens 2)
    pm = tmp_path / "M.pm"
    pm.write_text("ring zmod 4\nmodule\n" + "".join(line + "\n" for line in lines))
    argv = ["ext", "table", "-M", str(pm), "-N", str(pm), "--window", "0"]
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_cli_chain_map_rejects_a_repeated_component(tmp_path):
    # before: the later component 0 won and klinear printed two FAIL lines
    dgf = golden_extension(tmp_path)
    D = kio.load(str(dgf))
    zero = f"component 0 = {kio.format_matrix(Matrix.zeros(Z4, 2, 2))}"
    mapf = tmp_path / "dup.map"
    mapf.write_text(chain_map_text(identity_map(D.underlying)) + zero + "\n")
    expected = (2, "", f"error: a second component 0 line: {zero!r}\n")
    assert run_cli(["dg", "klinear", str(dgf), str(dgf), str(mapf)]) == expected


@pytest.mark.parametrize("kind, bad, message", [
    ("cx", "diff 1 = 2x1 [[2]]", "expected 2 rows, found 1"),
    ("dg", "act {1} -1 = 2x0 []", "expected 2 rows, found 0"),
    ("pm", "relations 2x1 [[2], [0, 1]]", "expected 1 entries per row, got 2"),
    ("map", "component 1 = 3x3 [[1, 0, 0], [0, 1, 0]]", "expected 3 rows, found 2"),
    # a bad entry: before, the message named neither the entry nor the line
    ("cx", "diff 1 = 2x1 [[2y], [0]]",
     "bad matrix entry '2y': trailing input 'y' (at position 1)"),
    ("dg", "act {1} -1 = 2x1 [[1], [x]]",
     "bad matrix entry 'x': unknown variable 'x' at position 0"),
    ("pm", "relations 2x1 [[2], [1+]]",
     "bad matrix entry '1+': expected a number or variable, got '' (at position 2)"),
    ("map", "component 1 = 3x3 [[1, 0, 0], [0, 1, 0], [0, 0, (1]]",
     "bad matrix entry '(1': expected a number or variable, got '(' (at position 0)"),
])
def test_cli_matrix_error_names_its_line(tmp_path, kind, bad, message):
    # before: the error gave only the message, with no line
    dgf = golden_extension(tmp_path)
    path = tmp_path / f"bad.{kind}"
    if kind == "cx":
        path.write_text((GOLDEN / "P.cx").read_text().replace("diff 1 = 2x1 [[2], [0]]", bad))
        argv = ["complex", "homology", str(path)]
    elif kind == "dg":
        path.write_text(dgf.read_text() + bad + "\n")
        argv = ["dg", "verify", str(path)]
    elif kind == "pm":
        path.write_text(f"ring zmod 4\nmodule\ngens 2\n{bad}\n")
        argv = ["ext", "table", "-M", str(path), "-N", str(path)]
    else:
        path.write_text(f"ring zmod 4\nmap\n{bad}\n")
        argv = ["dg", "klinear", str(dgf), str(dgf), str(path)]
    assert run_cli(argv) == (2, "", f"error: {message}: {bad!r}\n")


def test_cli_zero_ring_exit_2(tmp_path):
    code, out, err = run_cli(
        ["ring", "new", "polyquot coeff=F2 vars=x order=degrevlex ideal=[1]"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    cxf = tmp_path / "P.cx"
    cxf.write_text("ring polyquot coeff=Q vars=x,y order=degrevlex "
                   "ideal=[x*y - 1, x^2]\ncomplex\nrank 0 = 1\n")
    assert run_cli(["complex", "homology", str(cxf)])[0] == 2


@pytest.mark.parametrize("argv", [
    ["ext", "table", "-M", str(GOLDEN / "k.pm"), "-N", str(GOLDEN / "k.pm")],
    ["sdc", "check", "--module", str(GOLDEN / "omega.pm")],
    ["sdc", "bidual", "--source", str(GOLDEN / "k.pm"), "--module", str(GOLDEN / "omega.pm")],
])
def test_cli_negative_window_exit_2(argv):
    code, out, err = run_cli(argv + ["--window", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_dg_extend_verify_klinear(tmp_path):
    kz, cxf = tmp_path / "K.kz", tmp_path / "P.cx"
    run_cli(["koszul", "build", "--ring", "zmod 4", "--sequence", "2",
             "-o", str(kz)])
    cxf.write_text("ring zmod 4\ncomplex\nrank 0 = 1\nrank 1 = 1\n"
                   "diff 1 = 1x1 [[2]]\n")
    dgf = tmp_path / "F.dg"
    assert run_cli(["dg", "extend", str(kz), str(cxf), "-o", str(dgf)])[0] == 0
    code, out, _ = run_cli(["dg", "verify", str(dgf)])
    assert code == 0 and "leibniz: ok" in out
    # identity map between the module and itself is a K-linear chain map
    D = kio.load(str(dgf))
    ident = identity_map(D.underlying)
    mapf = tmp_path / "id.map"
    mapf.write_text(chain_map_text(ident))
    code, out, _ = run_cli(["dg", "klinear", str(dgf), str(dgf), str(mapf)])
    assert code == 0
    assert out.splitlines() == ["chain_map ok", "k_linear ok"]
    # a degreewise map that scrambles the summands fails
    bad = cx.ChainMap(D.underlying, D.underlying, {
        0: Matrix.identity(Zmod(4), 1),
        1: mat(Z4, [[0, 1], [1, 0]]),
        2: Matrix.identity(Zmod(4), 1)})
    badf = tmp_path / "bad.map"
    badf.write_text(chain_map_text(bad))
    code, out, _ = run_cli(["dg", "klinear", str(dgf), str(dgf), str(badf)])
    assert code == 1


def test_cli_extend_trunc(tmp_path):
    kz = tmp_path / "K.kz"
    run_cli(["koszul", "build", "--ring", "zmod 4", "--sequence", "2",
             "-o", str(kz)])
    a = tmp_path / "A.cx"
    a.write_text("ring zmod 4\ncomplex\n" +
                 "".join(f"rank {n} = 1\n" for n in range(4)) +
                 "".join(f"diff {n} = 1x1 [[2]]\n" for n in range(1, 4)))
    out_path = tmp_path / "M.cx"
    code, out, _ = run_cli(["extend-trunc", "--koszul", str(kz), "--complex",
                            str(a), "--sup-bound", "0", "-o", str(out_path)])
    assert code == 0 and "clean" in out
    # a window violation exits 1
    bad = tmp_path / "bad.cx"
    bad.write_text("ring zmod 4\ncomplex\n" +
                   "".join(f"rank {n} = 1\n" for n in range(4)))
    code, out, _ = run_cli(["extend-trunc", "--koszul", str(kz), "--complex",
                            str(bad), "--sup-bound", "0"])
    assert code == 1


def test_cli_sdc_and_lift(tmp_path):
    kpm = tmp_path / "k.pm"
    kpm.write_text("ring polyquot coeff=F2 vars=x,y order=degrevlex "
                   "ideal=[x^2, x*y, y^2]\nmodule\ngens 1\n"
                   "relations 1x2 [[x, y]]\n")
    code, out, _ = run_cli(["sdc", "check", "--module", str(kpm),
                            "--window", "3"])
    assert code == 1 and "not semidualizing" in out
    rpm = tmp_path / "R.pm"
    rpm.write_text("ring polyquot coeff=F2 vars=x,y order=degrevlex "
                   "ideal=[x^2, x*y, y^2]\nmodule\ngens 1\n"
                   "relations 1x0 [[]]\n")
    code, out, _ = run_cli(["sdc", "bidual", "--source", str(rpm),
                            "--module", str(rpm), "--window", "3"])
    assert code == 0 and out.startswith("reflexive")
    # lifting failure carries the Tor witness
    mpm = tmp_path / "M.pm"
    mpm.write_text("ring integers\nmodule\ngens 1\nrelations 1x1 [[3]]\n")
    npm = tmp_path / "N.pm"
    npm.write_text("ring zmod 9\nmodule\ngens 1\nrelations 1x1 [[3]]\n")
    code, out, _ = run_cli(["lift", "verify", "--base", "integers",
                            "--element", "9", "-M", str(mpm), "-N", str(npm)])
    assert code == 1 and "Tor_1" in out


def test_cli_sdc_check_koszul_transfer(tmp_path):
    kz = tmp_path / "K.kz"
    assert run_cli(["koszul", "build", "--ring", "polyquot coeff=F2 vars=x,y "
                    "order=degrevlex ideal=[x^2, x*y, y^2]", "--sequence", "x",
                    "-o", str(kz)])[0] == 0
    check = ["sdc", "check", "--koszul", str(kz), "--window", "4", "--module"]
    code, out, _ = run_cli(check + [str(GOLDEN / "omega.pm")])
    assert (code, out) == (0, "ring-level: semidualizing (window 4)\n"
                              "dg-level match: yes\nverdicts agree: yes\n")
    code, out, _ = run_cli(check + [str(GOLDEN / "k.pm")])
    assert (code, out) == (1, "ring-level: not semidualizing: Ext^1 nonzero (card 4)\n"
                              "dg-level match: no\nverdicts agree: yes\n")
    # K over Z/4 against a module over F2[x,y]/(x,y)^2
    code, out, err = run_cli(["sdc", "check", "--module", str(GOLDEN / "omega.pm"),
                              "--koszul", str(GOLDEN / "K4_on_2.kz")])
    assert (code, out) == (2, "") and "different rings" in err


def test_cli_koszul_verify(tmp_path):
    kz = tmp_path / "K.kz"
    run_cli(["koszul", "build", "--ring", "primefield 7",
             "--sequence", "3, 5", "-o", str(kz)])
    code, out, _ = run_cli(["koszul", "verify", str(kz)])
    assert code == 0
    assert "leibniz: ok" in out


@pytest.mark.parametrize("sequence", ["2,,2", ",", "2,", " , 2"])
def test_cli_koszul_build_rejects_an_empty_sequence_entry(sequence, tmp_path):
    code, out, err = run_cli(["koszul", "build", "--ring", "zmod 4",
                              "--sequence", sequence])
    assert (code, out) == (2, "") and err.startswith("error: ")
    # the flag and the .kz sequence line read one grammar
    kz = tmp_path / "K.kz"
    kz.write_text(f"ring zmod 4\nkoszul\nsequence [{sequence}]\n")
    assert run_cli(["koszul", "verify", str(kz)])[:2] == (2, "")


@pytest.mark.parametrize("sequence, e", [("", 0), (" 2 ", 1), ("2, 2", 2)])
def test_cli_koszul_build_reads_the_sequence_flag(sequence, e, tmp_path):
    kz = tmp_path / "K.kz"
    code, _, _ = run_cli(["koszul", "build", "--ring", "zmod 4",
                          "--sequence", sequence, "-o", str(kz)])
    assert code == 0 and kio.load(str(kz)).e == e


def test_cli_shift_trunc_tensor(tmp_path):
    a = tmp_path / "a.cx"
    a.write_text("ring integers\ncomplex\nrank 0 = 1\nrank 1 = 1\n"
                 "diff 1 = 1x1 [[2]]\n")
    b = tmp_path / "b.cx"
    assert run_cli(["complex", "shift", str(a), "-m", "1", "-o", str(b)])[0] == 0
    shifted = kio.load(str(b))
    assert shifted.rank(1) == 1 and shifted.rank(2) == 1
    assert run_cli(["complex", "tensor", str(a), str(a), "-o", str(b)])[0] == 0
    assert kio.load(str(b)).rank(1) == 2
    assert run_cli(["complex", "trunc", str(a), "--below", "1",
                    "-o", str(b)])[0] == 0
    assert kio.load(str(b)).rank(0) == 0


def test_cli_reads_back_rational_coefficients_it_writes(tmp_path):
    # x normalizes to 1/2*y, so the shifted differential holds a fraction
    a = tmp_path / "a.cx"
    a.write_text("ring polyquot coeff=Q vars=x,y order=degrevlex ideal=[2*x - y]\n"
                 "complex\nrank 0 = 1\nrank 1 = 1\ndiff 1 = 1x1 [[x]]\n")
    b = tmp_path / "b.cx"
    assert run_cli(["complex", "shift", str(a), "-m", "1", "-o", str(b)])[0] == 0
    assert "[[-1/2*y]]" in b.read_text()
    assert run_cli(["complex", "check", str(b)]) == (0, "ok\n", "")
    # over F_p a fraction is still a format error
    c = tmp_path / "c.cx"
    c.write_text("ring primefield 5\ncomplex\nrank 0 = 1\nrank 1 = 1\n"
                 "diff 1 = 1x1 [[1/2]]\n")
    code, _, err = run_cli(["complex", "check", str(c)])
    assert code == 2 and "only valid over the rationals" in err


# --- golden files ---

def test_golden_files_reload_and_reports_are_stable():
    manifest = GOLDEN / "manifest.txt"
    assert manifest.exists(), "golden files missing; run scripts/regen_golden.py"
    for line in manifest.read_text().splitlines():
        if not line.strip():
            continue
        kind, rest = line.split(":", 1)
        if kind == "file":
            name = rest.strip()
            path = GOLDEN / name
            obj = kio.load(str(path))
            regenerated = kio._SAVERS[type(obj)](obj) if type(obj) in kio._SAVERS \
                else None
            if regenerated is not None:
                assert regenerated == path.read_text(), f"{name} not byte-stable"
        elif kind == "report":
            name, command = rest.strip().split(" ", 1)
            argv = command.split()
            argv = [str(GOLDEN / t) if (GOLDEN / t).exists() else t for t in argv]
            code, out, _ = run_cli(argv)
            expected = (GOLDEN / name).read_text()
            assert out == expected, f"report {name} drifted"
