"""The Koszul-side checks against the presented-complex oracle.

`koszul_sdc_transfer` and `ext_sup_via_koszul` take H of Hom(res C,
K (x) C) as H of Hom(res C (x) K*, C) (`duality.hom_homology`).  The oracle
in `helpers` takes it on the presented complex Hom(res C, K (x) C), whose
relations sit in every degree of K (x) C, the route the checks replaced.
Checked here:

- TransferVerdict.details and ExtSupResult equal the oracle's on seeded
  presentations over Z/4, Z/8, Z/27, F2[x,y]/(x,y)^2, F3[x]/(x^3) and
  F2[x,y]/(x^2,y^2) with e = 1, 2, 3, on the inputs of the transfer and
  Ext-sup tests and acceptance criteria, and over Z;
- over a finite ring every Hom-side value comes from the finite formula
  (`_finite_ext_table`), with no subquotient and no homology module, and
  the only Hom complex built is K*;
- K and the modules over different rings are refused before any
  resolution work.
"""

import random

import pytest

from koszulkit import complexes, duality as du, linalg
from koszulkit.errors import MixedRings
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, Zmod, parse_element, poly_quotient

from helpers import (
    count_calls, presented_ext_sup, presented_transfer_details, resolution_complex,
)

RINGS = {
    "Z/4": (Zmod(4), ["2", "2", "2"]),
    "Z/8": (Zmod(8), ["2", "4", "2"]),
    "Z/27": (Zmod(27), ["3", "9", "3"]),
    "F2[x,y]/(x,y)^2": (poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
                        ["x", "y", "x"]),
    "F3[x]/(x^3)": (poly_quotient("F3", ["x"], ["x^3"]), ["x", "x^2", "x"]),
    "F2[x,y]/(x^2,y^2)": (poly_quotient("F2", ["x", "y"], ["x^2", "y^2"]),
                          ["x", "y", "x*y"]),
}
F3X3 = RINGS["F3[x]/(x^3)"][0]
F2X = poly_quotient("F2", ["x"], ["x^2"])
Z = ZZ()


def presentation(ring, rng, gens, cols):
    pool = list(ring.elements())
    rel = Matrix.from_rows(ring, [[rng.choice(pool) for _ in range(cols)]
                                  for _ in range(gens)]) if cols else Matrix.zeros(ring, gens, 0)
    return du.ModulePresentation(ring, gens, rel)


def random_presentation(ring, rng):
    """1 or 2 generators and 0 to 2 relations, drawn as the transfer tests
    and criterion 10 draw them."""
    gens = rng.randint(1, 2)
    return presentation(ring, rng, gens, rng.randint(0, 2))


def algebra(name, e):
    ring, seq = RINGS[name]
    return koszul(ring, [parse_element(ring, s) for s in seq[:e]])


def assert_matches_the_oracle(K, C, X, window):
    v = du.koszul_sdc_transfer(K, C, window)
    assert v.details == presented_transfer_details(K, C, window)
    assert v.degrees == tuple(range(-window, K.e + 1))
    assert v.dg_match == all(same for *_, same in v.details)
    assert du.ext_sup_via_koszul(C, X, K, window) == presented_ext_sup(C, X, K, window)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("name", list(RINGS))
def test_seeded_presentations_match_the_oracle(name, e):
    ring = RINGS[name][0]
    rng = random.Random(f"koszul-side:{name}:{e}")
    K = algebra(name, e)
    modules = [du.ModulePresentation.residue_field(ring), du.ModulePresentation.free(ring, 1)]
    modules += [random_presentation(ring, rng) for _ in range(3)]
    window = 2 if e < 3 else 1
    for C in modules:
        assert_matches_the_oracle(K, C, presentation(ring, rng, 1, rng.randint(1, 2)), window)


def test_the_inputs_of_the_transfer_tests_and_criterion_10_match_the_oracle():
    K = koszul(F3X3, [parse_element(F3X3, "x")])
    inputs = [du.ModulePresentation.free(F3X3, 1), du.ModulePresentation.residue_field(F3X3)]
    rng = random.Random(19)
    inputs += [C for C in (random_presentation(F3X3, rng) for _ in range(12))
               if C.cardinality() != 1]
    rng, drawn = random.Random(110), []
    while len(drawn) < 50:
        C = random_presentation(F3X3, rng)
        if C.cardinality() != 1:
            drawn.append(C)
    for C in inputs + drawn:
        assert du.koszul_sdc_transfer(K, C, 4).details == presented_transfer_details(K, C, 4)


def test_the_inputs_of_the_ext_sup_tests_and_criterion_11_match_the_oracle():
    Z4 = RINGS["Z/4"][0]
    two, x = Z4.from_int(2), parse_element(F2X, "x")
    half = du.ModulePresentation.cyclic(Z4, [two])
    k = du.ModulePresentation.residue_field(F2X)
    cases = [(koszul(Z4, [two]), du.ModulePresentation.free(Z4, 1), half, 4),
             (koszul(F2X, [x]), k, k, 6), (koszul(Z4, [two]), half, half, 6)]
    rng = random.Random(111)
    for ring, gen in ((Z4, two), (F2X, x)):
        for _ in range(15):
            gens = rng.randint(1, 2)
            cols = rng.randint(1, 2)
            cases.append((koszul(ring, [gen]), presentation(ring, rng, gens, cols),
                          presentation(ring, rng, gens, cols), 6))
    for K, M, X, window in cases:
        assert du.ext_sup_via_koszul(M, X, K, window) == presented_ext_sup(M, X, K, window)


def test_ext_sup_over_the_integers_matches_the_oracle():
    half = du.ModulePresentation.cyclic(Z, [Z.from_int(2)])
    on_two = du.ext_sup_via_koszul(half, half, koszul(Z, [Z.from_int(2)]), 3)
    assert on_two == presented_ext_sup(half, half, koszul(Z, [Z.from_int(2)]), 3)
    assert on_two.direct_sup == on_two.koszul_sup == 1 and on_two.agree
    # 3 is a unit on Z/2, so K (x) Z/2 is acyclic: Z is not local, and the
    # sups honestly disagree
    K3 = koszul(Z, [Z.from_int(3)])
    on_three = du.ext_sup_via_koszul(half, half, K3, 3)
    assert on_three == presented_ext_sup(half, half, K3, 3)
    assert on_three.koszul_sup is None and not on_three.agree


@pytest.mark.parametrize("name", list(RINGS))
def test_the_hom_side_reads_every_value_from_the_finite_formula(name, monkeypatch):
    # no presented homology: no subquotient, homology module or span ratio
    # per degree
    ring = RINGS[name][0]
    K = algebra(name, 2)
    k = du.ModulePresentation.residue_field(ring)
    formula, tables = du._finite_ext_table, []
    monkeypatch.setattr(du, "_finite_ext_table",
                        lambda *args: tables.append(args[-1]) or formula(*args))
    homs = count_calls(monkeypatch, complexes.hom_complex)
    quotients = count_calls(monkeypatch, linalg.subquotient)
    homologies = count_calls(monkeypatch, linalg.homology_module)
    du.ext_sup_via_koszul(k, k, K, 2)
    # Ext^0..Ext^4 directly, or up to a certified period (i, q) only
    # Ext^0..Ext^{i+q-1}; then degrees m = 0..2 of F (x) K*
    period = linalg.resolution(ring, du._first_differential(k), 4).period
    computed = 5 if period is None else sum(period)
    assert tables == [range(min(5, computed)), range(3)]
    assert homs == [K.complex] and quotients == homologies == []
    v = du.koszul_sdc_transfer(K, k, 2)
    # the homothety check's Ext table, then m = -e..window; the only
    # homologies are those of H(K), one per degree of [-2, e]
    assert tables[2:] == [range(min(3, computed)), range(-2, 3)]
    assert homs == [K.complex] * 2 and len(homologies) == len(v.degrees)


def test_mixed_rings_are_refused_before_any_resolution(monkeypatch):
    seen = [count_calls(monkeypatch, f) for f in (
        du.resolve, linalg.minimal_generators, linalg.resolution)]
    Z4 = RINGS["Z/4"][0]
    quad = RINGS["F2[x,y]/(x,y)^2"][0]
    K = koszul(Z4, [Z4.from_int(2)])
    omega = du.ModulePresentation.residue_field(quad)
    for run in (lambda: du.koszul_sdc_transfer(K, omega, 4),
                lambda: du.ext_sup_via_koszul(omega, omega, K, 4),
                lambda: du.ext_sup_via_koszul(omega, du.ModulePresentation.free(Z4, 1),
                                              koszul(quad, [quad.variable("x")]), 4)):
        with pytest.raises(MixedRings):
            run()
    assert seen == [[], [], []]


@pytest.mark.parametrize("name", ["Z/4", "F2[x,y]/(x,y)^2"])
def test_g_is_built_only_in_the_degrees_read(name, monkeypatch):
    """G = F (x) K* reaches degree window + 1, the last that hom_homology
    reads, and there it is the full tensor product truncated."""
    ring = RINGS[name][0]
    K = algebra(name, 2)
    k = du.ModulePresentation.residue_field(ring)
    reads, hom_homology = [], du.hom_homology
    monkeypatch.setattr(du, "hom_homology",
                        lambda G, N, degrees: reads.append((G, degrees)) or
                        hom_homology(G, N, degrees))
    window = 3
    du.koszul_sdc_transfer(K, k, window)
    du.ext_sup_via_koszul(k, k, K, window)
    F = resolution_complex(k, window + K.e + 1)
    dual = complexes.hom_complex(K.complex, complexes.free_module_complex(ring, 1))
    full = complexes.tensor(F, dual)
    assert max(full.support) == window + K.e + 1
    for G, degrees in reads:
        assert max(G.support) == max(degrees) + 1 == window + 1
        assert G == complexes.truncate_above(full, window + 1)
