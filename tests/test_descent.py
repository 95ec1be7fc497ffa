import random

import pytest

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit.dgmodules import DGModule, extend, extension_action, verify_dg_module
from koszulkit.errors import (
    NotMinimal, RankMismatch, ShapeMismatch,
    UnverifiedDGModule, VerificationFailed, WindowViolated,
)
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import RingHom, ZZ, Zmod, parse_element, poly_quotient

from helpers import (
    conjugated_assignment, count_calls, matrix_from_entries, random_minimal_complex,
)

Z = ZZ()
Z4 = Zmod(4)
F2X = poly_quotient("F2", ["x"], ["x^2"])


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])


def small_instance():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    return K, P


def closed_form_counts(shape):
    m, e = shape.m, shape.e
    s, r = shape.s_at, shape.r_at
    nx = sum(s(n - 1) * s(n) for n in range(1, m + 1))
    ny = sum(r(n) ** 2 for n in range(m + e + 1))
    nz = sum((r(n + 1) + r(n)) * (r(n) + r(n - 1)) for n in range(m + e + 1))
    e1 = sum(s(n - 1) * s(n + 1) for n in range(1, m))
    e2 = sum(r(n - 1) * r(n) for n in range(1, m + e + 1))
    e3 = sum(r(n + h) * r(n)
             for h in range(e + 1)
             for _ in range(_binom(e, h))
             for n in range(m + e - h + 1))
    e4 = sum((r(n) + r(n - 1)) ** 2 for n in range(m + e + 2))
    return {"X": nx, "Y": ny, "Z": nz}, {"S1": e1, "S2": e2, "S3": e3, "S4": e4}


def _binom(n, k):
    from math import comb
    return comb(n, k)


def test_shape_and_counts_spec_example():
    K, P = small_instance()
    system = ds.generate_system(K, P)
    assert system.shape.r == (1, 2, 1)
    assert system.variable_counts() == {"X": 1, "Y": 6, "Z": 15}
    vars_, eqs = closed_form_counts(system.shape)
    assert system.variable_counts() == vars_
    counts = system.equation_counts()
    for tag, n in eqs.items():
        assert counts.get(tag, 0) == n


def test_rank_formula_invariant():
    # the binomial ranks of shape_of are the ranks of the tensor product
    rng = random.Random(3)
    for e in range(4):
        K = koszul(Z4, [Z4.from_int(2)] * e)
        for _ in range(5):
            P = random_minimal_complex(Z4, rng)
            shape = ds.shape_of(K, P)
            T = cx.tensor(K.complex, P)
            assert shape.s == tuple(P.rank(n) for n in range(shape.m + 1))
            assert shape.r == tuple(T.rank(n) for n in range(shape.m + e + 1))
            assert T.rank(shape.m + e + 1) == 0
        for P in (cx.zero_complex(Z4), cx.make_complex(Z4, {2: 1}, {})):
            T = cx.tensor(K.complex, P)
            shape = ds.shape_of(K, P)
            assert shape.r == tuple(T.rank(n) for n in range(shape.m + e + 1))


def test_shape_of_rejects_negative_degrees():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {-1: 1, 0: 1}, {0: mat(Z4, [[2]])})
    with pytest.raises(ShapeMismatch):
        ds.shape_of(K, P)
    with pytest.raises(ShapeMismatch):
        ds.generate_system(K, P)


def evaluated_b_rows(K, P, n):
    """The operand rows `_b_rows` gives for B_n, evaluated at X :=
    the differentials of P, as a matrix over K's ring."""
    ring, shape = K.ring, ds.shape_of(K, P)
    X0 = cx.ChainComplex(ring, {p: shape.s_at(p) for p in range(shape.m + 1)}, {},
                         _validated=True)
    xv = {p: [[shape.index("X", p, i, j) for j in range(1, cols + 1)]
              for i in range(1, rows + 1)]
          for p in range(1, shape.m + 1) for rows, cols in [shape.dims("X", p)]}
    values = ds.canonical_solution(K, P).values
    size = shape.count()
    rows = ds._b_rows(K, X0, xv, n, size)
    entries = {}
    for i, row in enumerate(rows):
        for j, v, c in row:
            # one term per entry: a constant or one X variable
            assert (i, j) not in entries and 0 <= j < shape.r_at(n) and c
            term = ring.box(c)
            if v != size:
                var = shape.variable(v)
                assert var.family == "X"
                term = term * values[var]
            entries[i, j] = term.payload
    return matrix_from_entries(ring, len(rows), shape.r_at(n),
                               [(i, j, v) for (i, j), v in entries.items()])


def assert_b_rows_match_tensor(K, P):
    T = cx.tensor(K.complex, P)
    top = ds.shape_of(K, P).m + K.e
    for n in range(0, top + 3):
        assert evaluated_b_rows(K, P, n) == T.diff(n), n


def test_block_differentials_match_tensor():
    rng = random.Random(5)
    for e in (0, 1, 2):
        K = koszul(Z4, [Z4.from_int(2)] * e)
        for _ in range(15):
            assert_b_rows_match_tensor(K, random_minimal_complex(Z4, rng))
        # a zero rank between nonzero ones, and P's maps that are not in m
        assert_b_rows_match_tensor(K, cx.make_complex(Z4, {0: 1, 1: 0, 2: 2}, {}))
        KZ = koszul(Z, [Z.from_int(2)] * e)
        assert_b_rows_match_tensor(KZ, cx.make_complex(Z, {0: 1, 1: 2, 2: 1}, {
            1: mat(Z, [[2, 4]]), 2: mat(Z, [[2], [-1]])}))
        assert_b_rows_match_tensor(KZ, cx.make_complex(Z, {0: 2, 1: 0, 2: 1, 3: 1}, {
            3: mat(Z, [[3]])}))


def test_canonical_harness_structure_matrices():
    # the canonical module side has the block differentials evaluated at the
    # actual maps of P, and its actions equal the extension-side actions
    K, P = small_instance()
    system = ds.generate_system(K, P)
    for n, u in system.u_mats.items():
        assert u == evaluated_b_rows(K, P, n)
    for H, per in system.v_mats.items():
        for n, v in per.items():
            assert v == extension_action(K, P, H, n)


def test_module_case_no_x_variables():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.free_module_complex(Z4, 1)
    system = ds.generate_system(K, P)
    assert system.variable_counts()["X"] == 0
    assert system.equation_counts().get("S1", 0) == 0
    sol = ds.canonical_solution(K, P)
    assert ds.verify_assignment(system, sol).passed


def test_zero_complex_vacuous():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.zero_complex(Z4)
    system = ds.generate_system(K, P)
    sol = ds.canonical_solution(K, P)
    rep = ds.verify_assignment(system, sol)
    assert rep.passed


def test_canonical_solution_passes_and_reconstructs():
    K, P = small_instance()
    system = ds.generate_system(K, P)
    sol = ds.canonical_solution(K, P)
    rep = ds.verify_assignment(system, sol)
    assert rep.passed
    assert rep.lines() == ["S1 ok", "S2 ok", "S3 ok", "S4 ok"]
    cert = ds.reconstruct(K, system, sol)
    assert cert.complex == P
    assert all(cert.rechecks.values())
    # the canonical Z has the lower-left identity: check the cone identity
    assert cx.is_contraction(cert.sigma, cx.cone(cert.phi))


def test_canonical_solution_solves_the_system_of_the_supplied_extension():
    # F = extend(K, P) supplied explicitly gives the canonical system again
    K, P = small_instance()
    sol = ds.canonical_solution(K, P)
    system = ds.generate_system(K, P, extend(K, P))
    assert system == ds.generate_system(K, P)
    assert ds.verify_assignment(system, sol).passed


def test_not_minimal_rejected():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[1]])})
    with pytest.raises(NotMinimal):
        ds.generate_system(K, P)


def test_rank_mismatch_rejected():
    K, P = small_instance()
    wrongP = cx.make_complex(Z4, {0: 2, 1: 1},
                             {1: mat(Z4, [[2], [0]])})
    F = extend(K, wrongP)
    with pytest.raises(RankMismatch):
        ds.generate_system(K, P, F)


def test_generate_system_checks_the_canonical_module_once(monkeypatch):
    K, P = small_instance()
    seen = count_calls(monkeypatch, verify_dg_module)
    ds.generate_system(K, P)
    assert len(seen) == 1


def test_supplied_module_with_planted_action_error_rejected():
    K, P = small_instance()
    D = extend(K, P)
    action = {H: dict(per) for H, per in D.action.items()}
    n, m = next((n, m) for n, m in action[(1,)].items() if not m.is_zero())
    rows = [list(r) for r in m.data]
    i, j = next((i, j) for i, r in enumerate(rows) for j, x in enumerate(r)
                if not x.is_zero())
    rows[i][j] = rows[i][j] + Z4.one
    action[(1,)][n] = Matrix.from_rows(Z4, rows)
    with pytest.raises(UnverifiedDGModule):
        ds.generate_system(K, P, DGModule(K, D.underlying, action))


def test_unit_perturbations_detected():
    rng = random.Random(11)
    K, P = small_instance()
    system = ds.generate_system(K, P)
    sol = ds.canonical_solution(K, P)
    units = [u for u in Z4.elements() if u.is_unit()]
    for _ in range(20):
        var = system.variables[rng.randrange(len(system.variables))]
        vals = dict(sol.values)
        vals[var] = vals[var] + units[rng.randrange(len(units))]
        rep = ds.verify_assignment(system, ds.Assignment(sol.hom, vals))
        assert not rep.passed


def test_conjugation_round_trip():
    rng = random.Random(13)
    for _ in range(5):
        P = random_minimal_complex(Z4, rng, max_top=2)
        K = koszul(Z4, [Z4.from_int(2)])
        system = ds.generate_system(K, P)
        sol = ds.canonical_solution(K, P)
        conj = conjugated_assignment(K, P, system, sol, rng)
        rep = ds.verify_assignment(system, conj)
        assert rep.passed
        cert = ds.reconstruct(K, system, conj)
        KA = cx.tensor(K.complex, cert.complex)
        KP = cx.tensor(K.complex, P)
        for n in set(KA.degrees()) | set(KP.degrees()):
            assert cx.homology(KA, n).same_as(cx.homology(KP, n))
        # the certified quasi-iso between the extensions also pins down the
        # homology of the descended complex itself
        for n in set(cert.complex.degrees()) | set(P.degrees()):
            assert cx.homology(cert.complex, n).same_as(cx.homology(P, n))


def test_cross_ring_assignment():
    # coefficients over the integers, values pushed into Z/4
    KZ = koszul(Z, [Z.from_int(2)])
    PZ = cx.make_complex(Z, {0: 1, 1: 1}, {1: mat(Z, [[2]])})
    system = ds.generate_system(KZ, PZ, check_minimal=False)
    sol = ds.canonical_solution(KZ, PZ)
    h = RingHom(Z, Z4)
    pushed = ds.Assignment(h, {v: h(x) for v, x in sol.values.items()})
    rep = ds.verify_assignment(system, pushed)
    assert rep.passed
    cert = ds.reconstruct(KZ, system, pushed)
    assert cert.complex.ring == Z4
    assert all(cert.rechecks.values())


def test_round_trip_over_f2x():
    rng = random.Random(17)
    x = parse_element(F2X, "x")
    for _ in range(5):
        P = random_minimal_complex(F2X, rng, max_top=2)
        K = koszul(F2X, [x])
        system = ds.generate_system(K, P)
        sol = ds.canonical_solution(K, P)
        assert ds.verify_assignment(system, sol).passed
        cert = ds.reconstruct(K, system, sol)
        assert cert.complex == P


def test_reconstruct_guards_against_failing_assignment():
    K, P = small_instance()
    system = ds.generate_system(K, P)
    sol = ds.canonical_solution(K, P)
    vals = dict(sol.values)
    var = next(v for v in system.variables if v.family == "Y")
    vals[var] = vals[var] + Z4.from_int(1)
    with pytest.raises(VerificationFailed):
        ds.reconstruct(K, system, ds.Assignment(sol.hom, vals))


# --- truncate-extend ---

def exactish_chain(length):
    return cx.make_complex(Z4, {n: 1 for n in range(length + 1)},
                           {n: mat(Z4, [[2]]) for n in range(1, length + 1)})


def test_truncate_extend_clean_window():
    K = koszul(Z4, [Z4.from_int(2)])
    A = exactish_chain(3)  # m = 3 = 0 + 2*1 + 1
    M, cert = ds.truncate_extend(K, A, 0)
    assert cert.window == (1, 3)
    for i in range(2, 3):
        assert cx.homology(M, i).is_zero
    # agrees with A below the top degree
    assert cx.truncate_above(M, 3).support == A.support


def test_truncate_extend_requires_window_size():
    K = koszul(Z4, [Z4.from_int(2)])
    A = exactish_chain(2)
    with pytest.raises(ShapeMismatch):
        ds.truncate_extend(K, A, 0)


def test_truncate_extend_detects_planted_cycle():
    K = koszul(Z4, [Z4.from_int(2)])
    # zero differentials leave homology everywhere inside the window
    A = cx.make_complex(Z4, {n: 1 for n in range(4)}, {})
    with pytest.raises(WindowViolated):
        ds.truncate_extend(K, A, 0)


def test_exact_above_bound_unchanged():
    K = koszul(Z4, [])
    A = exactish_chain(1)
    M, cert = ds.truncate_extend(K, A, 0)
    assert cx.truncate_above(M, 1).support == A.support
