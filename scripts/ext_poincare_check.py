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

The F_p-algebras run p = 2, 3 and 5 at full size: k[x,y,z]/(x,y,z)^2 at
window 6 over F2 and F3 (b_n = 3^n, 2,187 generators at the top), and
k[x,y]/(x,y)^2 at window 9 over F2 and F5 (b_n = 2^n); every p runs the
same packed F_p resolution.  Z/27 and Z/8 have no F_p view, so their Ext
comes from the presented complex Hom(F, k).  It prints wall times.  It
exits 1 on a wrong answer only, never on time.
"""

import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from koszulkit.duality import ModulePresentation, ext_table, resolve
from koszulkit.rings import Zmod, poly_quotient

XY2 = ["x^2", "x*y", "y^2"]
XYZ2 = ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]
CASES = [
    # (ring, window, b_n)
    (lambda: poly_quotient("F2", ["x", "y"], XY2), 9, lambda n: 2 ** n),
    (lambda: poly_quotient("F2", ["x", "y", "z"], XYZ2), 6, lambda n: 3 ** n),
    (lambda: poly_quotient("F3", ["x", "y", "z"], XYZ2), 6, lambda n: 3 ** n),
    (lambda: poly_quotient("F5", ["x", "y"], XY2), 9, lambda n: 2 ** n),
    (lambda: poly_quotient("F3", ["x", "y", "z"], ["x^2", "y^2", "z^2"]), 6,
     lambda n: comb(n + 2, 2)),
    (lambda: poly_quotient("F2", ["x", "y"], ["x^4", "y^3"]), 6, lambda n: n + 1),
    (lambda: Zmod(27), 20, lambda n: 1),
    (lambda: Zmod(8), 20, lambda n: 1),
]


def timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, 1000 * (time.perf_counter() - t0)


def main():
    wrong = []
    for make, window, betti in CASES:
        R = make()
        k = ModulePresentation.residue_field(R)
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
        wrong += [(repr(R), name) for name in failed]
        print(f"{R}, window {window}: resolve {resolve_ms:.0f} ms, ext_table {ext_ms:.0f} ms, "
              f"Betti numbers {found}: "
              + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
