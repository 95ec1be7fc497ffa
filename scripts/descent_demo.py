#!/usr/bin/env python3
"""End-to-end walk through the descent pipeline on a small instance.

Builds a Koszul algebra over Z/4, compiles the four equation subsystems
for a minimal two-step complex, verifies the canonical solution, perturbs
it to show sensitivity, and reconstructs the descended complex with its
certificate.  Then it writes and reads back the system of a complex over
F2[x,y]/(x,y)^2 whose differential is x + y.  Last it times each phase of
the e = 4 round trip of the same complex over Z/4 (generate, save, load,
verify, reconstruct) on the compiled system, whose equations are flat
terms over one table of distinct coefficients, and prints its term count.
Then it times `verify_assignment` on a system over Z with an assignment
over Z/4, as `system verify` reads one, against the same evaluation of
the readable equations (`system.equations`) with every coefficient mapped
on its own, to show what mapping each entry of the coefficient table
once saves.  It exits 1 unless both files read back byte for byte, the
reloaded systems accept the canonical solution, the e = 4 reconstruction
gives back the complex and both evaluations of the Z/4 assignment give
the same report.  Run with no arguments.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit.io import load_assignment, load_system, save_assignment, save_system
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import RingHom, ZZ, Zmod, parse_element, poly_quotient


def p_complex(Z4):
    """The complex of tests/golden/P.cx."""
    return cx.make_complex(Z4, {0: 2, 1: 1, 2: 1}, {
        1: Matrix.from_rows(Z4, [[Z4.from_int(2)], [Z4.from_int(0)]]),
        2: Matrix.from_rows(Z4, [[Z4.from_int(2)]]),
    })


def main():
    Z4 = Zmod(4)
    K = koszul(Z4, [Z4.from_int(2)])
    P = p_complex(Z4)
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
    round_trips_ok = polynomial_round_trip()
    timed_ok = timed_round_trip()
    return 0 if round_trips_ok and timed_ok and timed_hom_verify() else 1


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
    return same and report.passed


def timed_round_trip():
    """Time each phase of the round trip of the P.cx system for e = 4;
    true when every answer is right."""
    Z4, e = Zmod(4), 4
    K = koszul(Z4, [Z4.from_int(2)] * e)
    P = p_complex(Z4)
    times = {}

    def timed(phase, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[phase] = time.perf_counter() - start
        return out

    system = timed("generate", ds.generate_system, K, P)
    text = timed("save", save_system, system)
    loaded = timed("load", load_system, text)
    sol = ds.canonical_solution(K, P)
    report = timed("verify", ds.verify_assignment, loaded, sol)
    cert = timed("reconstruct", ds.reconstruct, K, system, sol)
    terms = sum(map(len, system.terms))
    print(f"--- {Z4}, e = {e}: {system.shape.count()} variables, "
          f"{len(system.positions)} equations, {terms} terms, "
          f"{len(text.encode()) / 1e6:.1f} MB ---")
    print("  ".join(f"{phase} {t:.3f} s" for phase, t in times.items())
          + f"  total {sum(times.values()):.3f} s")
    same = save_system(loaded) == text
    right = cert.complex == P and all(cert.rechecks.values())
    print("file reads back byte for byte:", same)
    print("reloaded system, canonical solution:", " ".join(report.lines()))
    print("reconstructed complex equals input:", right)
    return same and report.passed and right


def verify_uncached(system, assignment):
    """`verify_assignment`'s evaluation, on the readable equations, with
    each coefficient mapped through the hom on its own, term by term; the
    report lines."""
    hom = assignment.hom
    target = hom.target
    add, mul = target.add_payload, target.mul_payload
    values = {v: target.unbox(assignment.values[v]) for v in system.variables}
    first = {}
    for eq in system.equations:
        if eq.tag in first:
            continue
        acc = target.zero_payload
        for mono, c in eq.poly.terms.items():
            c = target.unbox(hom(hom.source.box(c)))
            for v in mono:
                c = mul(c, values[v])
            acc = add(acc, c)
        if acc:
            first[eq.tag] = (eq.h, eq.n, eq.row, eq.col)
    return [ds.SubsystemReport(tag, 0, first.get(tag)).line()
            for tag in ("S1", "S2", "S3", "S4")]


def timed_hom_verify(e=4, repeats=5):
    """Time verification of the e = 4 system of Z <- Z^2 <- Z over Z
    under its canonical solution read as an assignment over Z/4, with
    and without the per-call cache of coefficient images (best of
    `repeats`); true when both give the same passing report."""
    Z, Z4 = ZZ(), Zmod(4)
    K = koszul(Z, [Z.from_int(2)] * e)
    P = cx.make_complex(Z, {0: 1, 1: 2, 2: 1}, {
        1: Matrix.from_rows(Z, [[Z.from_int(2), Z.from_int(4)]]),
        2: Matrix.from_rows(Z, [[Z.from_int(2)], [Z.from_int(-1)]])})
    system = ds.generate_system(K, P, check_minimal=False)
    sol = ds.canonical_solution(K, P)
    assignment = load_assignment(save_assignment(ds.Assignment(
        RingHom.identity(Z4),
        {v: Z4.from_int(x.payload) for v, x in sol.values.items()})),
        coefficient_ring=Z)
    terms = sum(map(len, system.terms))
    distinct = len(system.coefficients)

    def best(fn):
        out, times = None, []
        for _ in range(repeats):
            start = time.perf_counter()
            out = fn(system, assignment)
            times.append(time.perf_counter() - start)
        return out, min(times)

    report, cached = best(ds.verify_assignment)
    lines, uncached = best(verify_uncached)
    print(f"--- {Z} -> {Z4}, e = {e}: {terms} terms, "
          f"{distinct} distinct coefficients ---")
    print(f"verify cached {cached:.3f} s  uncached {uncached:.3f} s  "
          f"(best of {repeats})")
    print("canonical solution over Z/4:", " ".join(report.lines()))
    return report.passed and report.lines() == lines


if __name__ == "__main__":
    sys.exit(main())
