#!/usr/bin/env python3
"""Check the Z/n Howell engine on 40x40 matrices over Z/8, seeds 0-3.

    python3 scripts/zmod_elimination_check.py

Each seed s draws a 40x40 matrix A with entries uniform mod 8 from
random.Random(s), runs howell_form and kernel_basis on it, and checks:

- the Howell certificate: U * padded A = H and U * U^-1 = 1 (verify());
- A * K = 0 for the kernel basis K;
- |span K| = |ker A| = prod_j gcd(d_j, 8), where the d_j are the Smith
  diagonal of the lift of A to Z, counting 8 for d_j = 0 and for j >= rank;
- every entry of H, U, U^-1 and K is below 8.

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
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
