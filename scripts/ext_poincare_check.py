#!/usr/bin/env python3
"""Check Ext(k, k) over finite F_p-algebras against classical Betti numbers.

    python3 scripts/ext_poincare_check.py

For each ring R below, with residue field k, it runs resolve(k, window + 1)
and ext_table(k, k, window), which compute in F_p coordinates, and checks:

- the Betti numbers b_0 ... b_{window+1} of the minimal resolution of k
  equal the closed form: b_n = d^n over k[x_1..x_d]/(x)^2, and the
  coefficients of the Poincare series (1+t)^d / (1-t^2)^d = 1 / (1-t)^d
  over k[x_1..x_d]/(x_1^{a_1}, ..., x_d^{a_d}) (Tate, Illinois J. Math.
  1957);
- |Ext^n(k, k)| = p^{b_n}, as the differentials of Hom(F, k) vanish.

The cases run p = 2, 3 and 5 at full size: k[x,y,z]/(x,y,z)^2 at window 6
over F2 and F3 (b_n = 3^n, 2,187 generators at the top), and
k[x,y]/(x,y)^2 at window 9 over F2 and F5 (b_n = 2^n); every p runs the
same packed F_p vectors.  It prints wall times.  It exits 1 on a wrong
answer only, never on time.
"""

import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from koszulkit.duality import ModulePresentation, ext_table, resolve
from koszulkit.rings import poly_quotient

CASES = [
    # (coefficients, variables, ideal, window, b_n)
    ("F2", ["x", "y"], ["x^2", "x*y", "y^2"], 9, lambda n: 2 ** n),
    ("F2", ["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 6, lambda n: 3 ** n),
    ("F3", ["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 6, lambda n: 3 ** n),
    ("F5", ["x", "y"], ["x^2", "x*y", "y^2"], 9, lambda n: 2 ** n),
    ("F3", ["x", "y", "z"], ["x^2", "y^2", "z^2"], 6, lambda n: comb(n + 2, 2)),
    ("F2", ["x", "y"], ["x^4", "y^3"], 6, lambda n: n + 1),
]


def timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, 1000 * (time.perf_counter() - t0)


def main():
    wrong = []
    for coeff, variables, ideal, window, betti in CASES:
        R = poly_quotient(coeff, variables, ideal)
        k = ModulePresentation.residue_field(R)
        diffs, resolve_ms = timed(resolve, k, window + 1)
        table, ext_ms = timed(ext_table, k, k, window)
        found = [k.gens] + [d.cols for d in diffs]
        expected = [betti(n) for n in range(window + 2)]
        p = R.coeff.p
        checks = {
            "Betti numbers": found == expected,
            "|Ext^n(k, k)| = p^b_n": [h.cardinality for h in table]
            == [p ** b for b in expected[:window + 1]],
        }
        failed = [name for name, ok in checks.items() if not ok]
        wrong += [(repr(R), name) for name in failed]
        print(f"{R}, window {window}: resolve {resolve_ms:.0f} ms, ext_table {ext_ms:.0f} ms, "
              f"Betti numbers {found}: "
              + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
