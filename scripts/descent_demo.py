#!/usr/bin/env python3
"""End-to-end walk through the descent pipeline on a small instance.

Builds a Koszul algebra over Z/4, compiles the four equation subsystems
for a minimal two-step complex, verifies the canonical solution, perturbs
it to show sensitivity, and reconstructs the descended complex with its
certificate.  Then it writes and reads back the system of a complex over
F2[x,y]/(x,y)^2 whose differential is x + y, and exits 1 unless the file
reads back byte for byte and the reloaded system accepts the canonical
solution.  Run with no arguments.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit.io import load_system, save_system
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import Zmod, parse_element, poly_quotient


def main():
    Z4 = Zmod(4)
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 2, 1: 1, 2: 1}, {
        1: Matrix.from_rows(Z4, [[Z4.from_int(2)], [Z4.from_int(0)]]),
        2: Matrix.from_rows(Z4, [[Z4.from_int(2)]]),
    })
    print(f"algebra: {K}")
    print(f"complex ranks: {[P.rank(n) for n in P.degrees()]}")

    system = ds.generate_system(K, P)
    print(f"shape: m={system.shape.m} e={system.shape.e} "
          f"s={system.shape.s} r={system.shape.r}")
    print(f"variables: {system.variable_counts()}")
    print(f"equations: {system.equation_counts()}")
    print("--- first equation lines ---")
    for line in save_system(system).splitlines()[3:9]:
        print(" ", line)

    sol = ds.canonical_solution(K, P)
    report = ds.verify_assignment(system, sol)
    print("canonical solution:", " ".join(report.lines()))

    vals = dict(sol.values)
    var = ds.SystemVariable("Y", 1, 1, 1)
    vals[var] = vals[var] + Z4.from_int(1)
    bad = ds.verify_assignment(system, ds.Assignment(sol.hom, vals))
    print("perturbed solution:", " ".join(s.line() for s in bad.subsystems
                                          if not s.ok))

    cert = ds.reconstruct(K, system, sol)
    print("reconstructed complex equals input:", cert.complex == P)
    print("independent re-checks:", cert.rechecks)
    ext = cx.tensor(K.complex, cert.complex)
    print("extension homology:",
          {n: cx.homology(ext, n).describe() for n in ext.degrees()})
    return polynomial_round_trip()


def polynomial_round_trip():
    """Save and reload a system whose coefficients have several monomials."""
    R = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    K = koszul(R, [R.variable("x")])
    P = cx.make_complex(R, {0: 1, 1: 1}, {
        1: Matrix.from_rows(R, [[parse_element(R, "x + y")]])})
    text = save_system(ds.generate_system(K, P))
    reloaded = load_system(text)
    report = ds.verify_assignment(reloaded, ds.canonical_solution(K, P))
    same = save_system(reloaded) == text
    print(f"--- {R}, d = x + y ---")
    print("file reads back byte for byte:", same)
    print("reloaded system, canonical solution:", " ".join(report.lines()))
    return 0 if same and report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
