"""The fused S1-S4 generator against a reference that builds every
equation block from VarPoly matrices; the canonical variable order; the
per-call coefficient-image cache of `verify_assignment`."""

import random

import pytest

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit import io as kio
from koszulkit.dgmodules import extend, extension_action
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import RingHom, ZZ, Zmod, _join_signed, _signed_terms, poly_quotient

from helpers import (
    VarPolyRing, build_B_blocks, constant_matrix, random_minimal_complex, symbolic_matrix,
)
from test_system_format import QUOTIENTS, quotient_instance

Z = ZZ()
Z4 = Zmod(4)
Z8 = Zmod(8)
F2X = poly_quotient("F2", ["x"], ["x^2"])

# ---------------------------------------------------------------------------
# the reference: each block of equations as a VarPoly matrix expression


_FAMILY_ORDER = {"X": 0, "Y": 1, "Z": 2}


def old_key(v):
    """The variable order files used before it became the tuple order."""
    return (_FAMILY_ORDER[v.family], v.n, v.i, v.j)


def reference_format(poly):
    """The term grammar text of `poly`, term by term, with no cache."""
    if not poly.terms:
        return "0"
    parts = []
    for mono, c in sorted(poly.terms.items(),
                          key=lambda kv: (-len(kv[0]), tuple(map(old_key, kv[0])))):
        factors = "*".join(v.token() for v in mono)
        for sign, body in _signed_terms(poly.ring, c):
            if not factors:
                parts.append((sign, body))
            elif body == "1":
                parts.append((sign, factors))
            else:
                parts.append((sign, f"{body}*{factors}"))
    return _join_signed(parts)


def reference_equations(K, P, F=None):
    """(tag, h, n, row, col, VarPoly) for every equation, in file order:
    x x (S1), y u - B y (S2), y v - w y (S3) and z C + C z - I (S4) built
    as products, differences and identities of VarPoly matrices."""
    ring = K.ring
    shape = ds.shape_of(K, P)
    m, e, r = shape.m, shape.e, shape.r_at
    F = extend(K, P) if F is None else F
    vring = VarPolyRing(ring)
    xmat = {n: symbolic_matrix(vring, "X", n, shape.s_at(n - 1), shape.s_at(n))
            for n in range(1, m + 1)}
    ymat = {n: symbolic_matrix(vring, "Y", n, r(n), r(n)) for n in range(m + e + 1)}
    zmat = {n: symbolic_matrix(vring, "Z", n, r(n + 1) + r(n), r(n) + r(n - 1))
            for n in range(m + e + 1)}
    B = build_B_blocks(K, shape, vring)

    def z_at(n):
        return zmat.get(n) or Matrix.zeros(vring, r(n + 1) + r(n), r(n) + r(n - 1))

    def const(M):
        return constant_matrix(vring, M)

    out = []

    def emit(tag, h, n, lhs):
        out.extend((tag, h, n, i + 1, j + 1, poly)
                   for i, row in enumerate(lhs.data) for j, poly in enumerate(row))

    for n in range(1, m):
        emit("S1", None, n, xmat[n] * xmat[n + 1])
    for n in range(1, m + e + 1):
        emit("S2", None, n, ymat[n - 1] * const(F.underlying.diff(n)) - B[n] * ymat[n])
    basis = [S for d in sorted(K.basis) for S in K.basis[d]]
    for h, H in enumerate(basis, start=1):
        for n in range(m + e - len(H) + 1):
            emit("S3", h, n, ymat[n + len(H)] * const(F.action_matrix(H, n))
                 - const(extension_action(K, P, H, n)) * ymat[n])

    def cone_diff(n):
        blocks = {}
        if n in B:
            blocks[0, 0] = B[n]
        if n - 1 in ymat:
            blocks[0, 1] = ymat[n - 1]
        u = F.underlying.diff(n - 1)
        if u.rows and u.cols:
            blocks[1, 1] = const(u.scale(-ring.one))
        return Matrix.from_blocks(vring, [r(n - 1), r(n - 2)], [r(n), r(n - 1)], blocks)

    for n in range(m + e + 2):
        lhs = z_at(n - 1) * cone_diff(n) + cone_diff(n + 1) * z_at(n)
        emit("S4", None, n, lhs - Matrix.identity(vring, r(n) + r(n - 1)))
    variables = sorted((v for mats in (xmat, ymat, zmat) for M in mats.values()
                        for row in M.data for p in row for v in p.variables()), key=old_key)
    return shape, variables, out


def reference_text(ring, shape, equations):
    lines = [f"ring {kio.ring_spec(ring)}", "system",
             f"m={shape.m} e={shape.e} s={list(shape.s)} r={list(shape.r)}"]
    for tag, h, n, row, col, poly in equations:
        where = f"{tag} h={h}" if tag == "S3" else tag
        lines.append(f"{where} {n} {row} {col} : {reference_format(poly)}")
    return "\n".join(lines) + "\n"


def assert_matches_reference(K, P, F=None, check_minimal=True):
    system = ds.generate_system(K, P, F, check_minimal=check_minimal)
    shape, variables, ref = reference_equations(K, P, F)
    assert system.shape == shape
    assert system.variables == variables
    got = [(eq.tag, eq.h, eq.n, eq.row, eq.col, eq.poly) for eq in system.equations]
    assert [g[:5] for g in got] == [r[:5] for r in ref]
    for g, r in zip(got, ref):
        assert g[5].terms == r[5].terms, g[:5]
    text = kio.save_system(system)
    assert text == reference_text(K.ring, shape, ref)
    return system


def z_complex():
    # Z <- Z^2 <- Z with [[2, 4]] [[2], [-1]] = 0; the unit -1 makes it
    # not minimal, which only the local-ring check would reject
    return cx.make_complex(Z, {0: 1, 1: 2, 2: 1}, {
        1: Matrix.from_rows(Z, [[Z.from_int(2), Z.from_int(4)]]),
        2: Matrix.from_rows(Z, [[Z.from_int(2)], [Z.from_int(-1)]])})


@pytest.mark.parametrize("e", [0, 1, 2])
@pytest.mark.parametrize("name", ["Z/4", "Z/8", "F2[x]/(x^2)"])
def test_fused_generator_matches_reference_over_finite_rings(name, e):
    R = {"Z/4": Z4, "Z/8": Z8, "F2[x]/(x^2)": F2X}[name]
    rng = random.Random(f"{name}:{e}")
    t = R.from_int(2) if R is not F2X else R.variable("x")
    K = koszul(R, [t] * e)
    for _ in range(3):
        assert_matches_reference(K, random_minimal_complex(R, rng))


@pytest.mark.parametrize("e", [0, 1, 2])
def test_fused_generator_matches_reference_over_the_integers(e):
    K = koszul(Z, [Z.from_int(2)] * e)
    assert_matches_reference(K, z_complex(), check_minimal=False)


@pytest.mark.parametrize("e", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_fused_generator_matches_reference_with_two_monomial_coefficients(name, e):
    K1, P = quotient_instance(name)
    K = koszul(K1.ring, list(K1.elements) * e)
    system = assert_matches_reference(K, P)
    if e:
        assert any(len(c) == 2 for eq in system.equations for c in eq.poly.terms.values())


@pytest.mark.parametrize("e", [0, 1, 2])
def test_fused_generator_matches_reference_with_a_zero_rank_degree(e):
    K = koszul(Z4, [Z4.from_int(2)] * e)
    P = cx.make_complex(Z4, {0: 1, 1: 0, 2: 2}, {})
    system = assert_matches_reference(K, P)
    assert ds.verify_assignment(system, ds.canonical_solution(K, P)).passed


def test_fused_generator_matches_reference_for_a_non_canonical_module():
    rng = random.Random(23)
    for e in (1, 2):
        K = koszul(Z4, [Z4.from_int(2)] * e)
        P = random_minimal_complex(Z4, rng, max_top=2)
        # the extension of the complex with the same ranks and zero maps
        P0 = cx.make_complex(Z4, {n: P.rank(n) for n in P.support}, {})
        system = assert_matches_reference(K, P, extend(K, P0))
        # the system describes F, so P0's canonical solution solves it and
        # P's, whose differential is not zero, does not
        assert ds.verify_assignment(system, ds.canonical_solution(K, P0)).passed
        assert not ds.verify_assignment(system, ds.canonical_solution(K, P)).passed


def test_s3_takes_the_canonical_action_once(monkeypatch):
    # with F = None the module's action is the extension action, so S3 is
    # y v - v y and extension_action runs only for a supplied F, once per block
    K = koszul(Z4, [Z4.from_int(2)] * 2)
    P = random_minimal_complex(Z4, random.Random(29), max_top=2)
    calls = []
    monkeypatch.setattr(ds, "extension_action",
                        lambda *args: calls.append(args[2:]) or extension_action(*args))
    canonical = ds.generate_system(K, P)
    assert calls == []
    supplied = ds.generate_system(K, P, extend(K, P))
    shape = ds.shape_of(K, P)
    assert sorted(calls) == sorted((H, n) for H in ds._basis_list(K)
                                   for n in range(shape.m + shape.e - len(H) + 1))
    assert kio.save_system(supplied) == kio.save_system(canonical)


# ---------------------------------------------------------------------------
# the canonical variable order


def test_tuple_order_is_the_old_variable_order():
    # n, i and j reach 12, so a text or digit-wise order would differ
    s = (1,) * 11 + (12,)
    shape = ds.SystemShape(11, 1, s, ds._extension_ranks(1, s))
    expected = list(shape.variables())
    assert len(expected) == len(set(expected)) == shape.count()
    for v in expected:
        rows, cols = shape.dims(v.family, v.n)
        assert 1 <= v.i <= rows and 1 <= v.j <= cols
    assert {v.n for v in expected} >= {10, 11, 12}
    assert max(v.i for v in expected) >= 12 and max(v.j for v in expected) >= 12
    shuffled = list(expected)
    random.Random(29).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=old_key) == expected
    assert ds.SystemVariable("Y", 2, 1, 1) < ds.SystemVariable("Y", 10, 1, 1)
    assert ds.SystemVariable("Z", 0, 1, 1) > ds.SystemVariable("Y", 12, 12, 12)


# ---------------------------------------------------------------------------
# the coefficient-image cache of verify_assignment


def uncached_report(system, assignment):
    """The report lines, every coefficient mapped by the hom on its own."""
    hom, target = assignment.hom, assignment.target
    first = {}
    for eq in system.equations:
        if eq.tag in first:
            continue
        acc = target.zero
        for mono, c in eq.poly.terms.items():
            term = hom(system.ring.box(c))
            for v in mono:
                term = term * assignment.values[v]
            acc = acc + term
        if not acc.is_zero():
            first[eq.tag] = (eq.h, eq.n, eq.row, eq.col)
    return [ds.SubsystemReport(tag, 0, first.get(tag)).line()
            for tag in ("S1", "S2", "S3", "S4")]


def test_verify_maps_each_distinct_coefficient_once(monkeypatch):
    K = koszul(Z, [Z.from_int(2)] * 2)
    P = z_complex()
    system = ds.generate_system(K, P, check_minimal=False)
    sol = ds.canonical_solution(K, P)
    text = kio.save_assignment(ds.Assignment(RingHom.identity(Z4), {
        v: Z4.from_int(x.payload) for v, x in sol.values.items()}))
    good = kio.load_assignment(text, coefficient_ring=Z)
    assert not good.hom.is_identity()
    perturbed = dict(good.values)
    var = ds.SystemVariable("Y", 2, 2, 1)
    perturbed[var] = perturbed[var] + Z4.one
    bad = ds.Assignment(good.hom, perturbed)
    coefficients = {c for eq in system.equations for c in eq.poly.terms.values()}

    reports = []
    for assignment in (good, bad):
        expected = uncached_report(system, assignment)
        seen = []
        call = RingHom.__call__
        monkeypatch.setattr(RingHom, "__call__",
                            lambda self, x: seen.append(x.payload) or call(self, x))
        report = ds.verify_assignment(system, assignment)
        monkeypatch.undo()
        assert report.lines() == expected
        assert len(seen) == len(set(seen)) <= len(coefficients)
        reports.append(report)
    assert reports[0].passed and not reports[1].passed
