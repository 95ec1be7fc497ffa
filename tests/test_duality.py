import itertools
import random

import pytest

from koszulkit import duality as du
from koszulkit.errors import NotLocal, NotRegular, ToolkitError
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, ZZ, Zmod, parse_element, poly_quotient

from helpers import resolution_complex

Z = ZZ()
Z4 = Zmod(4)
F5 = GF(5)
F2X = poly_quotient("F2", ["x"], ["x^2"])
F3X3 = poly_quotient("F3", ["x"], ["x^3"])
QUAD = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])


def omega_presentation():
    # the top-dual module of the quadratic quotient: two generators dual to
    # x and y, relations y.a = 0, x.b = 0, x.a = y.b
    x = parse_element(QUAD, "x")
    y = parse_element(QUAD, "y")
    z = QUAD.zero
    return du.ModulePresentation(
        QUAD, 2, Matrix.from_rows(QUAD, [[y, z, x], [z, x, y]]))


# --- resolutions ---

def test_resolution_of_residue_field_is_periodic():
    k = du.ModulePresentation.residue_field(F2X)
    diffs = du.resolve(k, 5)
    x = parse_element(F2X, "x")
    for d in diffs:
        assert d == Matrix.from_rows(F2X, [[x]])


def test_resolution_terminates_over_pid():
    M = du.ModulePresentation.cyclic(Z, [Z.from_int(2)])
    diffs = du.resolve(M, 5)
    assert diffs[0] == mat(Z, [[2]])
    assert len([d for d in diffs if d.cols]) == 1


def test_betti_numbers_of_residue_field_over_quad():
    k = du.ModulePresentation.residue_field(QUAD)
    rc = resolution_complex(k, 4)
    assert [rc.rank(i) for i in range(4)] == [1, 2, 4, 8]


# --- ext tables against classical oracles ---

def test_ext_z2_z_over_integers():
    M = du.ModulePresentation.cyclic(Z, [Z.from_int(2)])
    N = du.ModulePresentation.free(Z, 1)
    table = du.ext_table(M, N, 4)
    assert table[0].is_zero
    assert table[1].invariant_factors == (Z.from_int(2),)
    assert all(h.is_zero for h in table[2:])


def test_ext_periodicity_against_hand_built_resolution():
    # the classical periodic resolution ... -> R -x-> R -x-> R of the
    # residue field: mapping into k gives one copy of k in each degree
    k = du.ModulePresentation.residue_field(F2X)
    table = du.ext_table(k, k, 10)
    assert [h.cardinality for h in table] == [2] * 11
    # independent oracle: all differentials in Hom(periodic, k) vanish, so
    # Ext^i = k; enumerate maps R -> k (two of them) and check x acts as 0
    x = parse_element(F2X, "x")
    for value in (F2X.zero, F2X.one):
        assert (x * value * x).is_zero()


def test_ext_of_free_vanishes_positively():
    F = du.ModulePresentation.free(Z4, 2)
    N = du.ModulePresentation.cyclic(Z4, [Z4.from_int(2)])
    table = du.ext_table(F, N, 3)
    assert not table[0].is_zero
    assert all(h.is_zero for h in table[1:])


def test_ext_symmetric_example_over_z4():
    M = du.ModulePresentation.cyclic(Z4, [Z4.from_int(2)])
    table = du.ext_table(M, M, 6)
    assert all(h.cardinality == 2 for h in table)


def test_negative_window_is_rejected():
    k = du.ModulePresentation.residue_field(F2X)
    K = koszul(F2X, [parse_element(F2X, "x")])
    for check in (lambda: du.ext_table(k, k, -1), lambda: du.homothety_check(k, -1),
                  lambda: du.ext_sup_via_koszul(k, k, K, -1)):
        with pytest.raises(ToolkitError):
            check()
    assert len(du.ext_table(k, k, 0)) == 1  # window 0 is Hom alone


# --- homothety ---

def test_ring_is_semidualizing_everywhere():
    for ring in (Z4, F5, F2X, F3X3, QUAD, Zmod(9)):
        v = du.homothety_check(du.ModulePresentation.free(ring, 1), 4)
        assert v.ok, ring


def test_homothety_requires_local():
    with pytest.raises(NotLocal):
        du.homothety_check(du.ModulePresentation.free(Zmod(12), 1), 3)


def test_omega_is_semidualizing():
    v = du.homothety_check(omega_presentation(), 6)
    assert v.ok
    assert v.hom_cardinality == 8 and v.ring_cardinality == 8
    assert v.annihilator_cardinality == 1


def test_homothety_annihilator_against_enumeration():
    # r annihilates C exactly when r e_k lies in the relation span for
    # every generator e_k; count those r by enumerating ring and span
    from helpers import random_matrix, span_of_columns
    rng = random.Random(17)
    rings = (Z4, Zmod(8), Zmod(27), poly_quotient("F2", ["x"], ["x^3"]), QUAD,
             poly_quotient("F3", ["x"], ["x^2"]))
    cases = [du.ModulePresentation.residue_field(QUAD)]
    for ring in rings:
        for _ in range(6):
            g, c = rng.randint(1, 2), rng.randint(0, 2)
            cases.append(du.ModulePresentation(ring, g, random_matrix(ring, g, c, rng)))
    for C in cases:
        ring, g = C.ring, C.gens
        span = span_of_columns(ring, C.relations)
        expected = sum(
            all(tuple((r if i == k else ring.zero).payload for i in range(g)) in span
                for k in range(g))
            for r in ring.elements())
        assert du.homothety_check(C, 0).annihilator_cardinality == expected, C
    assert du.homothety_check(cases[0], 0).annihilator_cardinality == 4


def test_omega_endomorphisms_by_enumeration():
    # independent oracle: enumerate ambient matrices R^2 -> R^2 that descend
    # to the quotient; each hom lifts in |relation span|^2 ways, so the
    # number of endomorphisms is the descending count divided by that
    from koszulkit.linalg import solve
    from helpers import span_of_columns
    omega = omega_presentation()
    R = QUAD
    elements = list(itertools.product(list(R.elements()), repeat=2))
    rel_cols = omega.relations.columns()
    span_size = len(span_of_columns(R, omega.relations))
    count = 0
    for ga in elements:
        for gb in elements:
            phi = Matrix.from_rows(R, [[ga[0], gb[0]], [ga[1], gb[1]]])
            ok = True
            for col in rel_cols:
                if solve(R, omega.relations, phi * col) is None:
                    ok = False
                    break
            if ok:
                count += 1
    assert count % (span_size ** 2) == 0
    assert count // (span_size ** 2) == 8  # |Hom(omega, omega)| = |R|


def test_residue_field_fails_with_ext1_witness():
    v = du.homothety_check(du.ModulePresentation.residue_field(QUAD), 6)
    assert not v.ok
    assert v.witness_degree == 1
    assert v.witness.cardinality == 4  # a 2-dimensional space over F2


def test_failures_persist_when_window_grows():
    k = du.ModulePresentation.residue_field(F3X3)
    v3 = du.homothety_check(k, 3)
    v5 = du.homothety_check(k, 5)
    assert not v3.ok and not v5.ok
    assert v5.witness_degree <= v3.witness_degree


def test_positives_stable_for_genuine_semidualizers():
    omega = omega_presentation()
    for D in (2, 4, 6):
        assert du.homothety_check(omega, D).ok


# --- transfer ---

def test_transfer_agreement_on_structured_inputs():
    K = koszul(F3X3, [parse_element(F3X3, "x")])
    R1 = du.ModulePresentation.free(F3X3, 1)
    k = du.ModulePresentation.residue_field(F3X3)
    for C in (R1, k):
        v = du.koszul_sdc_transfer(K, C, 4)
        assert v.agree


def test_transfer_agreement_random_sample():
    rng = random.Random(19)
    K = koszul(F3X3, [parse_element(F3X3, "x")])
    pool = list(F3X3.elements())
    for _ in range(12):
        gens = rng.randint(1, 2)
        cols = rng.randint(0, 2)
        rel = Matrix.from_rows(F3X3, [
            [pool[rng.randrange(len(pool))] for _ in range(cols)]
            for _ in range(gens)]) if cols else Matrix.zeros(F3X3, gens, 0)
        C = du.ModulePresentation(F3X3, gens, rel)
        if C.cardinality() == 1:
            continue
        v = du.koszul_sdc_transfer(K, C, 4)
        assert v.agree, (gens, [[e for e in row] for row in rel.data])


# --- ext sup through the extension ---

def test_ext_sup_free_module():
    K = koszul(Z4, [Z4.from_int(2)])
    F = du.ModulePresentation.free(Z4, 1)
    N = du.ModulePresentation.cyclic(Z4, [Z4.from_int(2)])
    r = du.ext_sup_via_koszul(F, N, K, 4)
    assert r.direct_sup == 0 and r.koszul_sup == 0 and r.agree


def test_ext_sup_periodic_nonzero_throughout():
    K = koszul(F2X, [parse_element(F2X, "x")])
    k = du.ModulePresentation.residue_field(F2X)
    r = du.ext_sup_via_koszul(k, k, K, 6)
    assert r.direct_top_nonzero and r.koszul_top_nonzero and r.agree


def test_ext_sup_finite_value_over_z4():
    K = koszul(Z4, [Z4.from_int(2)])
    M = du.ModulePresentation.cyclic(Z4, [Z4.from_int(2)])
    X = du.ModulePresentation.cyclic(Z4, [Z4.from_int(2)])
    r = du.ext_sup_via_koszul(M, X, K, 6)
    assert r.agree


# --- biduality ---

def test_biduality_trivial_and_failing():
    R1 = du.ModulePresentation.free(QUAD, 1)
    assert du.biduality_check(R1, R1, 5).ok
    omega = omega_presentation()
    assert du.biduality_check(R1, omega, 5).ok
    k = du.ModulePresentation.residue_field(QUAD)
    v = du.biduality_check(k, R1, 5)
    assert v.outcome == "not_reflexive"


@pytest.mark.parametrize("ring, relations", [(Zmod(27), 0), (Zmod(27), 2), (QUAD, 0)])
def test_the_zero_module_is_reflexive_against_any_target(ring, relations):
    # the target k is not semidualizing, and 0 is reflexive all the same
    zero = du.ModulePresentation(ring, 0, Matrix.zeros(ring, 0, relations))
    k = du.ModulePresentation.residue_field(ring)
    assert not du.homothety_check(k, 3).ok
    v = du.biduality_check(zero, k, 3)
    assert (v.outcome, v.detail) == ("reflexive", "the zero module")


def test_biduality_inconclusive_for_non_free_positive():
    omega = omega_presentation()
    v = du.biduality_check(omega, omega, 5)
    assert v.outcome == "inconclusive"


# --- liftings ---

def test_lifting_free_modules():
    v = du.lifting_verify(Z, Z.from_int(5), du.ModulePresentation.free(Z, 3),
                          du.ModulePresentation.free(Zmod(5), 3))
    assert v.ok and v.iso_found


def test_lifting_rejects_wrong_rank():
    v = du.lifting_verify(Z, Z.from_int(5), du.ModulePresentation.free(Z, 2),
                          du.ModulePresentation.free(Zmod(5), 3))
    assert not v.ok


def test_lifting_tor_obstruction():
    F2t = poly_quotient("F2", ["t"])
    t = parse_element(F2t, "t")
    M = du.ModulePresentation(F2t, 2, Matrix.from_rows(F2t, [[F2t.zero], [t]]))
    S, _ = du.quotient_by_element(F2t, t)
    N = du.ModulePresentation.free(S, 2)
    v = du.lifting_verify(F2t, t, M, N)
    assert not v.ok
    assert v.tor_witness is not None and v.tor_witness[0] == 1


def test_lifting_nontrivial_chain_target():
    # Z --9--> Z/9: the cyclic module Z/3 lifts to Z/3... as coker([3])
    v = du.lifting_verify(Z, Z.from_int(9),
                          du.ModulePresentation.cyclic(Z, [Z.from_int(3)]),
                          du.ModulePresentation.cyclic(Zmod(9), [Zmod(9).from_int(3)]))
    # multiplication by 9 is injective on Z, Tor_1(Z/9, Z/3) = ann kills it
    assert not v.ok  # Z/3 has 3-torsion against 9: Tor obstruction
    assert v.tor_witness is not None


def test_lifting_regularity_guard():
    with pytest.raises(NotRegular):
        du.lifting_verify(Z, Z.zero, du.ModulePresentation.free(Z, 1),
                          du.ModulePresentation.free(Zmod(5), 1))


def test_lifting_verdict_matches_rank_for_free_modules():
    for n in (1, 2):
        for k in (1, 2):
            v = du.lifting_verify(Z, Z.from_int(5),
                                  du.ModulePresentation.free(Z, n),
                                  du.ModulePresentation.free(Zmod(5), k))
            assert v.ok == (n == k)
