"""The reduced axiom pass against a check of every identity.

`verify_dg_module` decides associativity on the presentation of the
exterior algebra (every pair of generators, and one factorisation of each
rho(e_U) with |U| >= 3), names a failure from the pairs with |G| <= 1, and
checks Leibniz only for |H| <= 1 once associativity holds; its docstring
shows that those identities imply the rest and that the first failure is
the same.  The reference below checks every (G, H, n) and every H, in the
same order, and must give the same report lines on planted mutations of
module actions, module differentials and algebra multiplications.
"""

import random
from pathlib import Path

import pytest

from koszulkit import complexes as cx
from koszulkit import dgmodules as kg
from koszulkit import koszul as kk
from koszulkit.dgmodules import AxiomReport, AxiomResult, DGModule, extend, verify_dg_module
from koszulkit.io import load
from koszulkit.koszul import koszul, verify_dga
from koszulkit.matrices import Matrix, vanishes
from koszulkit.rings import Zmod, poly_quotient

from helpers import maximal_ideal_pool

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# the reference: every identity, in the order of the reduced pass


def reference_module_axioms(D):
    K, under = D.algebra, D.underlying
    ring = under.ring
    degrees = [n for n in under.degrees() if under.rank(n)]
    basis = [S for d in K.basis.values() for S in d]
    results = []

    ce = next((f"degree {n}" for n in degrees
               if D.action_matrix((), n) != Matrix.identity(ring, under.rank(n))), "")
    results.append(AxiomResult("unitality", not ce, ce))

    ce = ""
    for G in basis:
        for H in basis:
            prod = K.product_of_basis(G, H)
            for n in degrees:
                if not under.rank(n + len(G) + len(H)):
                    continue
                lhs = D.action_matrix(G, n + len(H)) * D.action_matrix(H, n)
                if prod is None:
                    rhs = Matrix.zeros(ring, lhs.rows, lhs.cols)
                else:
                    rhs = D.action_matrix(prod[1], n).scale(ring.from_int(prod[0]))
                if lhs != rhs:
                    ce = f"e_{G} . e_{H} at degree {n}"
                    break
            if ce:
                break
        if ce:
            break
    results.append(AxiomResult("associativity", not ce, ce))

    ce = ""
    for H in basis:
        h = len(H)
        for n in degrees:
            if not under.rank(n + h - 1):
                continue
            lhs = under.diff(n + h) * D.action_matrix(H, n) \
                - D.action_matrix(H, n - 1).scale(ring.from_int((-1) ** h)) * under.diff(n)
            rhs = Matrix.zeros(ring, under.rank(n + h - 1), under.rank(n))
            for coeff, H2 in K.diff_of_basis(H):
                rhs = rhs + D.action_matrix(H2, n).scale(coeff)
            if lhs != rhs:
                ce = f"e_{H} at degree {n}"
                break
        if ce:
            break
    results.append(AxiomResult("leibniz", not ce, ce))
    return AxiomReport(results)


def reference_algebra_identities(K, mult):
    """graded_commutativity and odd_squares_zero on every basis pair, as
    maps rho(e_G) rho(e_H) from each degree, in the order of verify_dga."""
    D = DGModule(K, K.complex, mult)
    basis = [S for d in K.basis.values() for S in d]

    def rho2(G, H, n):
        return D.action_matrix(G, n + len(H)) * D.action_matrix(H, n)

    ce = next((f"e_{G}, e_{H} at degree {n}" for G in basis for H in basis
               for n in range(K.e + 1 - len(G) - len(H))
               if rho2(G, H, n) != rho2(H, G, n).scale(K.ring.from_int(
                   (-1) ** (len(G) * len(H))))), "")
    commutativity = AxiomResult("graded_commutativity", not ce, ce)
    ce = next((f"e_{S} at degree {n}" for S in basis if len(S) % 2
               for n in range(K.e + 1 - 2 * len(S)) if not rho2(S, S, n).is_zero()), "")
    return commutativity, AxiomResult("odd_squares_zero", not ce, ce)


def reference_dga_axioms(K, mult):
    """verify_dga's report with every identity checked by the references;
    d^2 = 0, which no multiplication changes, is copied from verify_dga."""
    unitality, associativity, leibniz = \
        reference_module_axioms(DGModule(K, K.complex, mult)).results
    own = verify_dga(K, mult_override=mult).results
    return AxiomReport([own[0], unitality, associativity,
                        *reference_algebra_identities(K, mult), leibniz])


def assert_dga_report_matches(got, want):
    """verify_dga gives the report of a check of every identity."""
    assert got.results == want.results


# ---------------------------------------------------------------------------
# planted mutations


RINGS = {
    "Z/4": lambda: Zmod(4),
    "F2[x]/(x^2)": lambda: poly_quotient("F2", ["x"], ["x^2"]),
    "F2[x,y]/(x,y)^2": lambda: poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
}


def _structures(ring, rng):
    """(K, D) pairs with e = 1..4: K on itself and two small extensions."""
    pool = maximal_ideal_pool(ring)
    out = []
    for e in (1, 2, 3, 4):
        K = koszul(ring, [rng.choice(pool) for _ in range(e)])
        out.append((K, DGModule(K, K.complex, K.mult)))
        a = rng.choice(pool)
        P = cx.make_complex(ring, {0: 1, 1: 1},
                            {1: Matrix.from_rows(ring, [[a]])})
        out.append((K, extend(K, P)))
    return out


def _mutated_matrix(M, ring, rng):
    """M negated or zeroed, or with one entry rewritten."""
    kind = rng.randrange(5)
    if kind == 0:
        return -M
    if kind == 1:
        return Matrix.zeros(ring, M.rows, M.cols)
    return _rewritten_entry(M, ring, rng)


def _rewritten_entry(M, ring, rng):
    """M with one seeded entry rewritten to another element."""
    rows = [list(r) for r in M.data]
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    rows[i][j] = rng.choice([x for x in ring.elements() if x != rows[i][j]])
    return Matrix.from_rows(ring, rows)


def _mutate(action, ring, rng):
    """A copy of `action` with one stored matrix changed or removed."""
    action = {H: dict(per) for H, per in action.items()}
    H, n = rng.choice([(H, n) for H, per in action.items() for n, M in per.items()
                       if M.rows and M.cols])
    if rng.randrange(6):
        action[H][n] = _mutated_matrix(action[H][n], ring, rng)
    else:
        del action[H][n]
    return action


def _mutate_differential(under, ring, rng):
    """A copy of `under` with one differential changed; d.d = 0 may fail,
    which the module axioms do not check."""
    diffs = {n: under.diff(n) for n in under.degrees()}
    n = rng.choice([n for n, d in diffs.items() if d.rows and d.cols])
    diffs[n] = _mutated_matrix(diffs[n], ring, rng)
    ranks = {n: under.rank(n) for n in under.degrees()}
    return cx.ChainComplex(ring, ranks, diffs, _validated=True)


@pytest.mark.parametrize("rname", sorted(RINGS))
def test_reduced_pass_reports_what_every_identity_reports(rname):
    ring = RINGS[rname]()
    rng = random.Random(f"axiom-pass:{rname}")
    structures = _structures(ring, rng)
    failing = []
    for trial in range(180):
        K, D = structures[trial % len(structures)]
        if trial % 3 == 2:
            mult = _mutate(K.mult, ring, rng)
            report = verify_dga(K, mult_override=mult)
            assert_dga_report_matches(report, reference_dga_axioms(K, mult))
            got = want = report.lines()
        elif trial % 3 == 1 and trial % 2:
            M = DGModule(K, _mutate_differential(D.underlying, ring, rng), D.action)
            got = verify_dg_module(M).lines()
            want = reference_module_axioms(M).lines()
        else:
            M = DGModule(K, D.underlying, _mutate(D.action, ring, rng))
            got = verify_dg_module(M).lines()
            want = reference_module_axioms(M).lines()
        assert got == want, (rname, trial)
        failing.append(tuple(line.split(":")[0] for line in got if "FAIL" in line))
    assert sum(map(bool, failing)) >= 120
    # Leibniz fails both where associativity held, so only |H| <= 1 was
    # checked, and where it failed, so every H was
    assert {("leibniz",), ("associativity", "leibniz")} <= set(failing)


def _count_products(monkeypatch):
    """Count the products the axiom passes decide: every Matrix product, and
    every term c A B of a `vanishes` call, whose product is never built."""
    calls = {"products": 0, "terms": 0}
    product, check = Matrix.__mul__, vanishes

    def multiplying(self, other):
        calls["products"] += 1
        return product(self, other)

    def checking(ring, rows, cols, terms):
        terms = list(terms)
        calls["terms"] += sum(1 for _, _, B in terms if B is not None)
        return check(ring, rows, cols, terms)

    monkeypatch.setattr(Matrix, "__mul__", multiplying)
    for module in (kg, kk):
        monkeypatch.setattr(module, "vanishes", checking)
    return calls


def test_module_pass_makes_e_times_2_to_the_e_products(monkeypatch):
    Z4 = Zmod(4)
    D = extend(koszul(Z4, [2] * 5), load(GOLDEN / "P.cx"))
    calls = _count_products(monkeypatch)
    assert verify_dg_module(D).ok
    # a check of all 4^e pairs makes 3,496 products here; none is built
    assert calls["products"] == 0
    assert calls["terms"] <= 1100


def test_presentation_pass_product_counts(monkeypatch):
    """Associativity on the presentation: e^2 generator pairs and one
    factorisation of each rho(e_U) with |U| >= 3."""
    Z4 = Zmod(4)
    D = extend(koszul(Z4, [2] * 5), load(GOLDEN / "P.cx"))
    K6 = koszul(Z4, [2] * 6)
    calls = _count_products(monkeypatch)
    assert verify_dg_module(D).ok
    # associativity over the pairs with |G| = 1 makes 800 products here
    assert calls == {"products": 0, "terms": 303}
    calls["terms"] = 0
    assert verify_dga(K6).ok
    # and 1,242 here
    assert calls == {"products": 0, "terms": 408}

def _generator_mutation(K, ring, rng):
    """A copy of K.mult with the action of one generator e_i changed in one
    degree n <= e - 2, where rho(e_i) rho(e_j) is checked."""
    mult = {H: dict(per) for H, per in K.mult.items()}
    i, n = rng.randrange(1, K.e + 1), rng.randrange(K.e - 1)
    mult[(i,)][n] = _mutated_matrix(mult[(i,)][n], ring, rng)
    return mult


@pytest.mark.parametrize("rname", sorted(RINGS))
def test_generator_mutations_fail_the_algebra_identities(rname):
    """graded_commutativity and odd_squares_zero read the stored
    multiplication matrices, so a planted generator action fails them."""
    ring = RINGS[rname]()
    rng = random.Random(f"generator-mutations:{rname}")
    pool = maximal_ideal_pool(ring)
    failed = {"graded_commutativity": 0, "odd_squares_zero": 0}
    for trial in range(60):
        K = koszul(ring, [rng.choice(pool) for _ in range(2 + trial % 3)])
        mult = _generator_mutation(K, ring, rng)
        report = verify_dga(K, mult_override=mult)
        assert_dga_report_matches(report, reference_dga_axioms(K, mult))
        for r in report.results[3:5]:
            failed[r.name] += not r.ok
    assert min(failed.values()) >= 5, failed


@pytest.mark.parametrize("rname", sorted(RINGS))
def test_planted_generator_products(rname):
    ring = RINGS[rname]()
    K = koszul(ring, [maximal_ideal_pool(ring)[0]] * 3)
    # e_1 e_2 = 0 while e_2 e_1 = -e_(1,2): e_1 no longer anticommutes with e_2
    mult = {H: dict(per) for H, per in K.mult.items()}
    mult[(1,)][1] = Matrix.zeros(ring, 3, 3)
    lines = verify_dga(K, mult_override=mult).lines()
    assert "graded_commutativity: FAIL e_(1,), e_(2,) at degree 0" in lines
    assert "odd_squares_zero: ok" in lines
    # e_1 e_1 = e_(1,2): e_1 no longer squares to zero
    rows = [list(r) for r in K.mult[(1,)][1].data]
    rows[0][0] = ring.one
    mult[(1,)][1] = Matrix.from_rows(ring, rows)
    lines = verify_dga(K, mult_override=mult).lines()
    assert "odd_squares_zero: FAIL e_(1,) at degree 0" in lines


def test_commutativity_reads_every_pair_when_associativity_fails():
    """Zeroing rho(e_(1,2)) at degree 0 of K(x, x, x) over F2[x,y]/(x,y)^2
    breaks associativity, and graded commutativity then first fails at the
    pair (e_3, e_(1,2)), which no pair of generators reaches."""
    ring = RINGS["F2[x,y]/(x,y)^2"]()
    K = koszul(ring, [ring.variable("x")] * 3)
    M = K.mult[(1, 2)][0]
    mult = _replaced(K.mult, (1, 2), 0, Matrix.zeros(ring, M.rows, M.cols))
    lines = verify_dga(K, mult_override=mult).lines()
    assert lines == reference_dga_axioms(K, mult).lines()
    assert lines[2].startswith("associativity: FAIL")
    assert "graded_commutativity: FAIL e_(3,), e_(1, 2) at degree 0" in lines


# ---------------------------------------------------------------------------
# targeted mutations against the presentation (P1), (P2) of verify_dg_module


def _targeted_structures(ring, e):
    """K on itself and the extension of a one-step complex, for this e."""
    a = maximal_ideal_pool(ring)[-1]
    K = koszul(ring, [a] * e)
    P = cx.make_complex(ring, {0: 1, 1: 1}, {1: Matrix.from_rows(ring, [[a]])})
    return K, [DGModule(K, K.complex, K.mult), extend(K, P)]


def _replaced(action, H, n, M):
    action = {G: dict(per) for G, per in action.items()}
    action[H][n] = M
    return action


def _presentation_failures(D):
    """The failing pairs of (P1) and (P2), computed on their own."""
    K, under = D.algebra, D.underlying
    basis = [S for d in K.basis.values() for S in d]
    gens = [S for S in basis if len(S) == 1]
    pairs = [(g, h) for g in gens for h in gens]
    pairs += [(U[:1], U[1:]) for U in basis if len(U) >= 3]
    failing = set()
    for G, H in pairs:
        prod = K.product_of_basis(G, H)
        for n in under.degrees():
            lhs = D.action_matrix(G, n + len(H)) * D.action_matrix(H, n)
            rhs = Matrix.zeros(under.ring, lhs.rows, lhs.cols) if prod is None else \
                D.action_matrix(prod[1], n).scale(under.ring.from_int(prod[0]))
            if lhs != rhs:
                failing.add((G, H))
    return failing


TARGETED = [(rname, e) for rname in sorted(RINGS) for e in (3, 4)]


@pytest.mark.parametrize("rname,e", TARGETED)
def test_every_stored_product_action_is_checked(rname, e):
    """Zeroing or rewriting one entry of any stored rho(e_U) with |U| >= 2,
    in any degree, fails associativity with the reference's report, in the
    module pass and in the algebra pass."""
    ring = RINGS[rname]()
    rng = random.Random(f"stored-products:{rname}:{e}")
    K, modules = _targeted_structures(ring, e)
    sites = [(D, H, n) for D in modules for H, per in D.action.items()
             for n, M in per.items() if len(H) >= 2 and M.rows and M.cols]
    assert {len(H) for _, H, _ in sites} == set(range(2, e + 1))
    for D, H, n in sites:
        M = D.action[H][n]
        for bad in (Matrix.zeros(ring, M.rows, M.cols), _rewritten_entry(M, ring, rng)):
            action = _replaced(D.action, H, n, bad)
            mutant = DGModule(K, D.underlying, action)
            lines = verify_dg_module(mutant).lines()
            assert lines == reference_module_axioms(mutant).lines(), (H, n)
            assert lines[1].startswith("associativity: FAIL"), (H, n)
            if D.underlying is K.complex:
                assert_dga_report_matches(verify_dga(K, mult_override=action),
                                          reference_dga_axioms(K, action))


@pytest.mark.parametrize("rname,e", TARGETED)
def test_generator_edits_seen_only_by_descending_pairs(rname, e):
    """Zeroing one entry of a generator action so that every (P1) pair with
    g <= h and every (P2) pair still holds, while some rho(e_g) rho(e_h)
    with g > h fails: the pass must still report the reference's lines."""
    ring = RINGS[rname]()
    K, modules = _targeted_structures(ring, e)
    found = [0] * len(modules)
    for k, D in enumerate(modules):
        for (g,), per in ((H, per) for H, per in D.action.items() if len(H) == 1):
            for n, M in per.items():
                for i, (cols, _) in enumerate(M.sparse_rows):
                    for j in cols:
                        rows = [list(r) for r in M.data]
                        rows[i][j] = ring.zero
                        action = _replaced(D.action, (g,), n, Matrix.from_rows(ring, rows))
                        mutant = DGModule(K, D.underlying, action)
                        failing = _presentation_failures(mutant)
                        if not failing or any(G <= H for G, H in failing):
                            continue
                        lines = verify_dg_module(mutant).lines()
                        assert lines == reference_module_axioms(mutant).lines()
                        assert lines[1].startswith("associativity: FAIL")
                        if D.underlying is K.complex:
                            assert verify_dga(K, mult_override=action).lines() \
                                == reference_dga_axioms(K, action).lines()
                        found[k] += 1
    assert min(found) >= 2, found


# odd characteristic, where the signs of the Leibniz rule show
PLANT_RINGS = {**RINGS, "Z/9": lambda: Zmod(9),
               "F3[x]/(x^2)": lambda: poly_quotient("F3", ["x"], ["x^2"])}


@pytest.mark.parametrize("rname", sorted(PLANT_RINGS))
def test_single_entry_plants_report_the_reference_lines(rname):
    """Moving any one entry of any stored action matrix or differential of
    K(a, a) and of an extension by one, the pass reports the lines of the
    product-by-product reference."""
    ring = PLANT_RINGS[rname]()
    K, modules = _targeted_structures(ring, 2)

    def planted(M):
        for i in range(M.rows):
            for j in range(M.cols):
                grid = [list(r) for r in M.data]
                grid[i][j] = grid[i][j] + ring.one
                yield Matrix.from_rows(ring, grid)

    failing = 0
    for D in modules:
        under = D.underlying
        mutants = [DGModule(K, under, _replaced(D.action, H, n, bad))
                   for H, per in D.action.items() for n, M in per.items() for bad in planted(M)]
        ranks = {n: under.rank(n) for n in under.degrees()}
        for n in under.degrees():
            for bad in planted(under.diff(n)):
                diffs = {m: under.diff(m) for m in under.degrees()}
                diffs[n] = bad
                mutants.append(DGModule(K, cx.ChainComplex(ring, ranks, diffs, _validated=True),
                                        D.action))
        for mutant in mutants:
            lines = verify_dg_module(mutant).lines()
            assert lines == reference_module_axioms(mutant).lines()
            failing += any("FAIL" in line for line in lines)
    assert failing >= 40
