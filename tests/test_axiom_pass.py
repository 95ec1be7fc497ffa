"""The reduced axiom pass against a check of every identity.

`verify_dg_module` checks associativity only for |G| <= 1 and Leibniz only
for |H| <= 1 once associativity holds; its docstring shows that those
identities imply the rest and that the first failure is the same.  The
reference below checks every (G, H, n) and every H, in the same order, and
must give the same report lines on planted mutations of module actions,
module differentials and algebra multiplications.
"""

import random
from pathlib import Path

import pytest

from koszulkit import complexes as cx
from koszulkit.dgmodules import AxiomReport, AxiomResult, DGModule, extend, verify_dg_module
from koszulkit.io import load
from koszulkit.koszul import koszul, verify_dga
from koszulkit.matrices import Matrix
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


def reference_dga_axioms(K, mult):
    """verify_dga's report with the module part computed by the reference;
    the algebra-only axioms are copied from verify_dga itself."""
    unitality, associativity, leibniz = \
        reference_module_axioms(DGModule(K, K.complex, mult)).results
    own = verify_dga(K, mult_override=mult).results
    return AxiomReport([own[0], unitality, associativity, own[3], own[4], leibniz])


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
            got = verify_dga(K, mult_override=mult).lines()
            want = reference_dga_axioms(K, mult).lines()
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


def test_module_pass_makes_e_times_2_to_the_e_products(monkeypatch):
    Z4 = Zmod(4)
    D = extend(koszul(Z4, [2] * 5), load(GOLDEN / "P.cx"))
    calls = []
    product = Matrix.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    assert verify_dg_module(D).ok
    # a check of all 4^e pairs makes 3,496 products here
    assert len(calls) <= 1100
