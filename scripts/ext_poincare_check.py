#!/usr/bin/env python3
"""Check Ext(k, k) over finite local rings against classical Betti numbers.

    python3 scripts/ext_poincare_check.py

For each ring R below, with residue field k, it runs resolve(k, window + 1)
and ext_table(k, k, window) and checks:

- the Betti numbers b_0 ... b_{window+1} of the minimal resolution of k
  equal the closed form: b_n = d^n over k[x_1..x_d]/(x)^2, the
  coefficients of the Poincare series (1+t)^d / (1-t^2)^d = 1 / (1-t)^d
  over k[x_1..x_d]/(x_1^{a_1}, ..., x_d^{a_d}) (Tate, Illinois J. Math.
  1957), and b_n = 1 over the chain rings Z/p^k, where multiplication by p
  and by p^{k-1} alternate;
- |Ext^n(k, k)| = |k|^{b_n}, as the differentials of Hom(F, k) vanish.

Over Z/27, Z/8, F2[x]/(x^4) and F2[x,y]/(x,y)^2 it checks the same for k
presented as the `duality` benchmark presents it: the generators of m
times seeded units, plus one redundant element of m, in seeded order, so
that the first resolution step has a column to drop (minimal_generators).

The F_p-algebras run p = 2, 3, 5 and 17 at full size: k[x,y,z]/(x,y,z)^2
at window 6 over F2 and F3 (b_n = 3^n, 2,187 generators at the top),
k[x,y]/(x,y)^2 at window 9 over F2 and F5 and at window 7 over F17 (b_n =
2^n), whose coordinates take two bytes each; every p runs the same packed
F_p resolution.  Z/27 and Z/8 have no F_p view, so their Ext
comes from the resolution alone: |Hom(F_n, k)| = |k|^{b_n} over the sizes
of the images of Hom(d_n, k) and Hom(d_{n+1}, k), each from one Howell
form.  Over Z/27 it also checks Ext(Z/9, Z/3) and Ext(Z/3, Z/9) at window
20 against the closed form for cyclic modules over Z/p^k: the resolution
of Z/p^a alternates p^a and p^(k-a), so |Ext^0(Z/p^a, Z/p^b)| = p^min(a,b),
and Ext^n has p^(min(k-a, b) - max(b-a, 0)) elements for odd n and
p^(min(a, b) - max(b-k+a, 0)) for even n > 0.

Over the chain rings Z/27, Z/8, F2[x]/(x^4), F3[x]/(x^3) and F101[x]/(x^3)
(two-byte coordinates again) it takes
ext_table(k, k) at window 10,000 and checks that |Ext^n(k, k)| = |k| in
every degree and that the resolution of k stopped at a certified period
(i, q) (linalg.resolution), so that the window costs what i + q degrees
do; over Z/27 it also times ext_sup(k, k) at window 10^6, and over
F2[x]/(x^4) homothety_check(k, 6).

Over the non-local algebras F2[x]/(x^4 + x^2) = F2[x]/(x^2) x F2[x]/((x+1)^2)
and F2[x,y]/(x^2 + x, y^2 + y) = F2^4, the direct factors M = R/(x^2) and
R/(x) are projective: at window 10,000 it checks Ext^0(M, M) = |M| and
Ext^n(M, M) = 0 for n >= 1, that every rank of the resolution is at most
1 and that it stopped at a certified period.

It prints wall times.  It exits 1 on a wrong answer only, never on time.
"""

import random
import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from koszulkit.duality import ModulePresentation, ext_sup, ext_table, homothety_check, resolve
from koszulkit.linalg import _maximal_ideal_elements, minimal_generators, resolution
from koszulkit.matrices import Matrix
from koszulkit.rings import Zmod, poly_quotient

XY2 = ["x^2", "x*y", "y^2"]
XYZ2 = ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]
CASES = [
    # (ring, window, b_n)
    (lambda: poly_quotient("F2", ["x", "y"], XY2), 9, lambda n: 2 ** n),
    (lambda: poly_quotient("F2", ["x", "y", "z"], XYZ2), 6, lambda n: 3 ** n),
    (lambda: poly_quotient("F3", ["x", "y", "z"], XYZ2), 6, lambda n: 3 ** n),
    (lambda: poly_quotient("F5", ["x", "y"], XY2), 9, lambda n: 2 ** n),
    (lambda: poly_quotient("F17", ["x", "y"], XY2), 7, lambda n: 2 ** n),
    (lambda: poly_quotient("F3", ["x", "y", "z"], ["x^2", "y^2", "z^2"]), 6,
     lambda n: comb(n + 2, 2)),
    (lambda: poly_quotient("F2", ["x", "y"], ["x^4", "y^3"]), 6, lambda n: n + 1),
    (lambda: Zmod(27), 20, lambda n: 1),
    (lambda: Zmod(8), 20, lambda n: 1),
]
# (ring, window, b_n) for k presented with a redundant relation, three seeds each
SCRAMBLED = [
    (lambda: Zmod(27), 20, lambda n: 1),
    (lambda: Zmod(8), 20, lambda n: 1),
    (lambda: poly_quotient("F2", ["x"], ["x^4"]), 8, lambda n: 1),
    (lambda: poly_quotient("F2", ["x", "y"], XY2), 8, lambda n: 2 ** n),
]
SCRAMBLED_SEEDS = (91, 92, 93)
# (p, k, a, b, window): Ext(Z/p^a, Z/p^b) over Z/p^k
CYCLIC = [(3, 3, 2, 1, 20), (3, 3, 1, 2, 20)]
# chain rings, whose resolution of k repeats: Ext(k, k) at window 10,000
PERIODIC = [lambda: Zmod(27), lambda: Zmod(8), lambda: poly_quotient("F2", ["x"], ["x^4"]),
            lambda: poly_quotient("F3", ["x"], ["x^3"]),
            lambda: poly_quotient("F101", ["x"], ["x^3"])]
PERIODIC_WINDOW = 10_000
# (ring, a): the direct factor R/(x^a) of a non-local algebra R
NON_LOCAL = [(lambda: poly_quotient("F2", ["x"], ["x^4 + x^2"]), 2),
             (lambda: poly_quotient("F2", ["x", "y"], ["x^2 + x", "y^2 + y"]), 1)]


def cyclic_ext(p, k, a, b, window):
    """|Ext^n_{Z/p^k}(Z/p^a, Z/p^b)| for n = 0..window, 0 < a < k."""
    odd = min(k - a, b) - max(b - a, 0)
    even = min(a, b) - max(b - k + a, 0)
    return [p ** min(a, b)] + [p ** (odd if n % 2 else even) for n in range(1, window + 1)]


def timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, 1000 * (time.perf_counter() - t0)


def scrambled_residue_field(R, seed):
    """k = R/m presented by the generators of m times seeded units, plus one
    redundant element of m, in seeded order."""
    rng = random.Random(seed)
    elements = list(R.elements())
    units = [a for a in elements if a.is_unit()]
    rel = [g * rng.choice(units) for g in _maximal_ideal_elements(R)]
    rel.append(rng.choice([a for a in elements if not a.is_unit() and not a.is_zero()]))
    rng.shuffle(rel)
    return ModulePresentation(R, 1, Matrix.from_rows(R, [rel]))


def check_residue_field(k, window, betti, label):
    """The wrong answers among the Betti numbers of k and |Ext^n(k, k)|."""
    diffs, resolve_ms = timed(resolve, k, window + 1)
    table, ext_ms = timed(ext_table, k, k, window)
    found = [k.gens] + [d.cols for d in diffs]
    expected = [betti(n) for n in range(window + 2)]
    q = k.cardinality()
    checks = {
        "Betti numbers": found == expected,
        "|Ext^n(k, k)| = |k|^b_n": [h.cardinality for h in table]
        == [q ** b for b in expected[:window + 1]],
    }
    failed = [name for name, ok in checks.items() if not ok]
    print(f"{label}, window {window}: resolve {resolve_ms:.1f} ms, ext_table {ext_ms:.1f} ms, "
          f"Betti numbers {found}: " + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    return [(label, name) for name in failed]


def main():
    wrong = []
    for make, window, betti in CASES:
        R = make()
        wrong += check_residue_field(ModulePresentation.residue_field(R), window, betti, repr(R))
    for make, window, betti in SCRAMBLED:
        R = make()
        for seed in SCRAMBLED_SEEDS:
            k = scrambled_residue_field(R, seed)
            rel = ", ".join(str(a) for a in k.relations.data[0])
            wrong += check_residue_field(k, window, betti, f"R/({rel}) over {R}")
    for p, k, a, b, window in CYCLIC:
        R = Zmod(p ** k)
        M, N = (ModulePresentation.cyclic(R, [R.from_int(p ** e)]) for e in (a, b))
        diffs, resolve_ms = timed(resolve, M, window + 1)
        table, ext_ms = timed(ext_table, M, N, window)
        ok = [h.cardinality for h in table] == cyclic_ext(p, k, a, b, window)
        if not ok:
            wrong.append((repr(R), f"Ext(Z/{p ** a}, Z/{p ** b})"))
        print(f"Ext(Z/{p ** a}, Z/{p ** b}) over {R}, window {window}: "
              f"resolve {resolve_ms:.1f} ms, ext_table {ext_ms:.1f} ms, "
              f"Betti numbers {[M.gens] + [d.cols for d in diffs]}: "
              + ("ok" if ok else "WRONG closed form"))
    for make in PERIODIC:
        R = make()
        k = ModulePresentation.residue_field(R)
        table, ext_ms = timed(ext_table, k, k, PERIODIC_WINDOW)
        period = resolution(R, minimal_generators(R, k.relations), PERIODIC_WINDOW).period
        checks = {
            "|Ext^n(k, k)| = |k|": [h.cardinality for h in table]
            == [k.cardinality()] * (PERIODIC_WINDOW + 1),
            "certified period": period is not None,
        }
        line = f"{R}, window {PERIODIC_WINDOW}: ext_table {ext_ms:.1f} ms, period {period}"
        if R == Zmod(27):
            sup, sup_ms = timed(ext_sup, k, k, 10 ** 6)
            checks["ext_sup at window 10^6"] = sup == (10 ** 6, True)
            line += f", ext_sup at window 10^6 {sup_ms:.1f} ms"
        if R == poly_quotient("F2", ["x"], ["x^4"]):
            verdict, homothety_ms = timed(homothety_check, k, 6)
            checks["k is not semidualizing"] = not verdict.ok
            line += f", homothety_check at window 6 {homothety_ms:.1f} ms"
        failed = [name for name, ok in checks.items() if not ok]
        wrong += [(repr(R), name) for name in failed]
        print(f"{line}: " + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    for make, a in NON_LOCAL:
        R = make()
        M = ModulePresentation.cyclic(R, [R.variable("x") ** a])
        table, ext_ms = timed(ext_table, M, M, PERIODIC_WINDOW)
        res = resolution(R, minimal_generators(R, M.relations), PERIODIC_WINDOW)
        checks = {
            "Ext^0 = |M|, Ext^n = 0 for n >= 1": [h.cardinality for h in table]
            == [M.cardinality()] + [1] * PERIODIC_WINDOW,
            "ranks at most 1": max(res.ranks) <= 1,
            "certified period": res.period is not None,
        }
        failed = [name for name, ok in checks.items() if not ok]
        wrong += [(repr(R), name) for name in failed]
        print(f"R/({'x' if a == 1 else f'x^{a}'}) over {R}, window {PERIODIC_WINDOW}: ext_table {ext_ms:.1f} ms, "
              f"ranks {res.ranks}, period {res.period}: "
              + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
