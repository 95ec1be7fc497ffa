#!/usr/bin/env python3
"""Check the Z/n Howell engine on 40x40 matrices over Z/8, seeds 0-3, and
Smith over Z on 24x24 integer matrices, seeds 0-1.

    python3 scripts/zmod_elimination_check.py

Each seed s draws a 40x40 matrix A with entries uniform mod 8 from
random.Random(s), runs howell_form and kernel_basis on it, and checks:

- the Howell certificate: U * padded A = H and U * U^-1 = 1 (verify());
- A * K = 0 for the kernel basis K;
- |span K| = |ker A| = prod_j gcd(d_j, 8), where the d_j are the Smith
  diagonal of the lift of A to Z, counting 8 for d_j = 0 and for j >= rank;
- every entry of H, U, U^-1 and K is below 8.

Then each seed s of the Smith part draws a 24x24 matrix over Z with entries
in [-9, 9] from random.Random(s), runs smith_form on it and checks the
certificate S * A * T = D, S * S^-1 = 1 and T * T^-1 = 1 (verify()), a
non-negative diagonal and the divisibility chain d_1 | d_2 | ...  It prints
the time of smith_form and the largest entry of S, S^-1, T and T^-1 in bits.

It prints wall times.  It exits 1 on a wrong answer only, never on time.
"""

import random
import sys
import time
from math import gcd, prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from koszulkit.linalg import howell_form, kernel_basis, smith_form, span_cardinality
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, Zmod

N, SIZE, SEEDS = 8, 40, range(4)
Z_SIZE, Z_SEEDS = 24, range(2)


def timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, 1000 * (time.perf_counter() - t0)


def smith_kernel_count(A, n):
    """|ker A| over Z/n from the Smith diagonal of the lift to Z."""
    Z = ZZ()
    d = [x.payload for x in smith_form(Z, Matrix(Z, A.rows, A.cols, A.sparse_rows)).diagonal()]
    d += [0] * (A.cols - len(d))
    return prod(gcd(x, n) if x else n for x in d)


def main():
    R = Zmod(N)
    wrong = []
    for seed in SEEDS:
        rng = random.Random(seed)
        A = Matrix.from_rows(R, [[R.from_int(rng.randrange(N)) for _ in range(SIZE)]
                                 for _ in range(SIZE)])
        nf, howell_ms = timed(howell_form, R, A)
        K, kernel_ms = timed(kernel_basis, R, A)
        count, smith_ms = timed(smith_kernel_count, A, N)
        entries = [x.payload for M in (nf.matrix, nf.left, nf.left_inv, K)
                   for row in M.data for x in row]
        checks = {
            "howell certificate": nf.verify(),
            "A K = 0": (A * K).is_zero(),
            "|span K| = Smith count": span_cardinality(R, K) == count,
            f"entries below {N}": all(0 <= x < N for x in entries),
        }
        failed = [name for name, ok in checks.items() if not ok]
        wrong += [(seed, name) for name in failed]
        print(f"seed {seed}: howell_form {howell_ms:.1f} ms, kernel_basis {kernel_ms:.1f} ms "
              f"({K.cols} generators, |ker A| = {count}), Smith over Z {smith_ms:.0f} ms, "
              f"largest entry {max(entries, default=0).bit_length()} bits: "
              + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    Z = ZZ()
    for seed in Z_SEEDS:
        rng = random.Random(seed)
        A = Matrix.from_rows(Z, [[Z.from_int(rng.randint(-9, 9)) for _ in range(Z_SIZE)]
                                 for _ in range(Z_SIZE)])
        nf, smith_ms = timed(smith_form, Z, A)
        d = [x.payload for x in nf.diagonal()]
        bits = max(abs(x.payload).bit_length() for M in (nf.left, nf.left_inv, nf.right,
                                                         nf.right_inv)
                   for row in M.data for x in row)
        checks = {
            "smith certificate": nf.verify(),
            "diagonal >= 0": all(x >= 0 for x in d),
            "divisibility chain": all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:])),
        }
        failed = [name for name, ok in checks.items() if not ok]
        wrong += [(f"Z seed {seed}", name) for name in failed]
        print(f"Z seed {seed}: smith_form {Z_SIZE}x{Z_SIZE} {smith_ms:.1f} ms, "
              f"largest transform entry {bits} bits: "
              + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
