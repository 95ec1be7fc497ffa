#!/usr/bin/env python3
"""Check the Z/n Howell engine on 40x40 matrices over Z/8, Z/27 and Z/36,
seeds 0-3, minimal generators on 40-row matrices over Z/8 and Z/27, seeds
0-3, the F_p column reduction on 30x30 matrices over F2[x]/(x^8),
F3[x]/(x^3) and F2[x]/(x^4+x^2), seeds 0-1, and Smith over Z on 24x24
integer matrices, seeds 0-1.

    python3 scripts/zmod_elimination_check.py

For each modulus n (Z/36 is not local, so its Howell pivots need not be
powers of one prime) each seed s draws a 40x40 matrix A with entries
uniform mod n and a 40x3 matrix X0 from random.Random(s), runs howell_form,
kernel_basis and solve(A, A X0) on them, and checks:

- the Howell certificate: U * padded A = H and U * U^-1 = 1 (verify());
- A * K = 0 for the kernel basis K;
- |span K| = |ker A|, counted without koszulkit: |ker A| = |coker A| for
  a square A, the product over the prime powers p^k of n (the Chinese
  remainder theorem) of p^e for each diagonal entry p^e u (u a unit) of a
  Smith form over Z/p^k, with a pivot of least valuation at each step, and
  p^k for each zero diagonal entry;
- over Z/8 also |ker A| = prod_j gcd(d_j, 8), where the d_j are the Smith
  diagonal of the lift of A to Z, counting 8 for d_j = 0 and for j >= rank
  (this Smith over Z grows past a minute on some 40x40 lifts mod 27 and 36);
- solve returns some X with A X = A X0;
- every entry of H, U, U^-1, K and X is below n.

Then each seed s of the Nakayama part draws, over Z/p^k = Z/8 and Z/27, B =
C D from random.Random(s), where C is 40x8 with column j p^(v_j) times
entries uniform mod p^k (v_j uniform in [0, k], so a column may vanish),
and D (8x12) and X (12x12) are uniform mod p^k.  It runs minimal_generators
on M = [B | B X | p B], whose span is that of B, and on M with its columns
reversed, where the columns in m M come first.  With the least-valuation
Smith form over Z/p^k above (independent of koszulkit) it checks:

- the number of kept columns is the number of nonzero diagonal entries of
  M's Smith form, the least number of generators of its span;
- the kept columns K span the span of M: they lie in it, and |coker K| =
  |coker M|, each the product of p^e over the diagonal entries p^e u of its
  Smith form, with e = k for a zero entry and for each row past the rank.

It prints the time of minimal_generators.

Then each seed s of the F_p[x]/(f) part draws a 30x30 matrix A whose
entries are x times elements uniform mod f, so none is a unit, and a 30x3
matrix X0 from random.Random(s), runs kernel_basis and solve(A, A X0) (the
column reduction over F_p) and howell_form on A^T (the Howell engine, which
these calls no longer use), and checks:

- A * K = 0 and A X = A X0;
- |span K| = |ker A| = |R|^30 / |column span of A|, where the column span
  of A is the row span of A^T, of size the product of p^(deg f - deg d)
  over the Howell pivots d of A^T;
- every entry of K and X has degree below deg f.

It prints the times of kernel_basis, solve and howell_form.

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

from koszulkit.linalg import (
    howell_form, kernel_basis, minimal_generators, smith_form, solve, span_cardinality,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, Zmod, poly_quotient

MODULI, SIZE, SEEDS, RHS_COLS = (8, 27, 36), 40, range(4), 3
PRIME_POWERS, NAKAYAMA_RANK, NAKAYAMA_COLS = ((2, 3), (3, 3)), 8, 12
ALGEBRAS = (("F2", "x^8"), ("F3", "x^3"), ("F2", "x^4 + x^2"))
ALGEBRA_SIZE, ALGEBRA_SEEDS = 30, range(2)
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


def valuation(x, p):
    e = 0
    while x % p == 0:
        x, e = x // p, e + 1
    return e


def payload_rows(A):
    return [[x.payload for x in row] for row in A.data]


def smith_valuations(rows, p, k):
    """The valuations e of the nonzero diagonal entries p^e u (u a unit) of
    the Smith form over Z/p^k of the matrix of int rows, with a pivot of
    least valuation at each step."""
    q = p ** k
    m, out = [[x % q for x in row] for row in rows], []
    while True:
        e, i, j = min(((valuation(x, p), i, j) for i, row in enumerate(m)
                       for j, x in enumerate(row) if x), default=(k, None, None))
        if i is None:
            return out
        # clear column j with row i, then drop both: the other entries of
        # row i are multiples of p^e
        pivot = m.pop(i)
        u_inv = pow(pivot[j] // p ** e, -1, q)
        for row in m:
            f = row[j] // p ** e * u_inv
            row[:] = [(x - f * y) % q for x, y in zip(row, pivot)]
            del row[j]
        out.append(e)


def coker_count(rows, nrows, p, k):
    """|coker A| over Z/p^k for the matrix of int rows with nrows rows."""
    e = smith_valuations(rows, p, k)
    return p ** (sum(e) + k * (nrows - len(e)))


def local_kernel_count(rows, n):
    """|ker A| over Z/n for the square matrix of int rows, which is |coker
    A|, from Smith forms over the Z/p^k that make up Z/n."""
    count, rest, p = 1, n, 2
    while rest > 1:
        k = valuation(rest, p)
        if k:
            rest //= p ** k
            count *= coker_count(rows, len(rows), p, k)
        p += 1
    return count


def check_nakayama(p, k, seed):
    """The minimal generator checks of one matrix over Z/p^k, its columns in
    order and reversed; returns the failed check names."""
    q, rng = p ** k, random.Random(seed)
    R, c = Zmod(q), NAKAYAMA_COLS
    scales = [p ** rng.randrange(k + 1) for _ in range(NAKAYAMA_RANK)]
    C = Matrix.from_rows(R, [[R.from_int(v * rng.randrange(q)) for v in scales]
                             for _ in range(SIZE)])
    B = C * random_matrix(R, q, NAKAYAMA_RANK, c, rng)
    M = B.hstack(B * random_matrix(R, q, c, c, rng)).hstack(B.scale(R.from_int(p)))
    mu = len(smith_valuations(payload_rows(M), p, k))
    coker = coker_count(payload_rows(M), SIZE, p, k)
    failed = []
    for order in ("in order", "reversed"):
        if order == "reversed":
            M = M.submatrix(range(SIZE), range(M.cols - 1, -1, -1))
        K, ms = timed(minimal_generators, R, M)
        columns = payload_rows(M.transpose())
        checks = {
            "kept = nonzero Smith diagonal": K.cols == mu,
            "kept columns of M": all(col in columns for col in payload_rows(K.transpose())),
            "|coker K| = |coker M|": coker_count(payload_rows(K), SIZE, p, k) == coker,
        }
        wrong = [f"{name} ({order})" for name, ok in checks.items() if not ok]
        print(f"Z/{q} seed {seed}, columns {order}: minimal_generators {ms:.1f} ms "
              f"({SIZE}x{M.cols} -> {K.cols} columns): "
              + ("ok" if not wrong else "WRONG " + ", ".join(wrong)))
        failed += wrong
    return failed


def random_matrix(R, n, rows, cols, rng):
    return Matrix.from_rows(R, [[R.from_int(rng.randrange(n)) for _ in range(cols)]
                                for _ in range(rows)])


def degree(payload):
    """The degree of a nonzero element of F_p[x]/(f), terms by descending
    exponent."""
    return payload[0][0][0]


def random_poly_matrix(R, rows, cols, rng, factor):
    """Entries uniform mod f, each times `factor`."""
    pool = list(R.elements())
    return Matrix.from_rows(R, [[factor * rng.choice(pool) for _ in range(cols)]
                                for _ in range(rows)])


def check_algebra(coeff, relation, seed):
    """The F_p[x]/(f) checks of one matrix; returns the failed check names."""
    R, rng = poly_quotient(coeff, ["x"], [relation]), random.Random(seed)
    p, deg_f, n = R.coeff.p, degree(R.groebner[0]), ALGEBRA_SIZE
    A = random_poly_matrix(R, n, n, rng, R.variable("x"))
    B = A * random_poly_matrix(R, n, RHS_COLS, rng, R.one)
    K, kernel_ms = timed(kernel_basis, R, A)
    X, solve_ms = timed(solve, R, A, B)
    nf, howell_ms = timed(howell_form, R, A.transpose())
    # |ker A| = p^(n deg f) / prod p^(deg f - deg d)
    exponent = n * deg_f - sum(deg_f - degree(d.payload) for d in nf.diagonal() if d)
    count = p ** exponent
    entries = [x.payload for M in (K,) + ((X,) if X is not None else ())
               for row in M.data for x in row if not x.is_zero()]
    checks = {
        "A K = 0": (A * K).is_zero(),
        "|span K| = |ker A|": span_cardinality(R, K) == count,
        "A X = B": X is not None and A * X == B,
        f"degrees below {deg_f}": all(degree(x) < deg_f for x in entries),
    }
    failed = [name for name, ok in checks.items() if not ok]
    print(f"{R} seed {seed}: kernel_basis {kernel_ms:.1f} ms ({K.cols} generators, "
          f"|ker A| = {p}^{exponent}), "
          f"solve {solve_ms:.1f} ms, howell_form of A^T {howell_ms:.1f} ms: "
          + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    return failed


def main():
    wrong = []
    for n, seed in ((n, seed) for n in MODULI for seed in SEEDS):
        R, rng = Zmod(n), random.Random(seed)
        A = random_matrix(R, n, SIZE, SIZE, rng)
        B = A * random_matrix(R, n, SIZE, RHS_COLS, rng)
        nf, howell_ms = timed(howell_form, R, A)
        K, kernel_ms = timed(kernel_basis, R, A)
        X, solve_ms = timed(solve, R, A, B)
        count = local_kernel_count(payload_rows(A), n)
        smith = timed(smith_kernel_count, A, n) if n == 8 else None
        entries = [x.payload for M in (nf.matrix, nf.left, nf.left_inv, K)
                   + ((X,) if X is not None else ()) for row in M.data for x in row]
        checks = {
            "howell certificate": nf.verify(),
            "A K = 0": (A * K).is_zero(),
            "|span K| = |ker A|": span_cardinality(R, K) == count,
            "Smith count over Z": smith is None or smith[0] == count,
            "A X = B": X is not None and A * X == B,
            f"entries below {n}": all(0 <= x < n for x in entries),
        }
        failed = [name for name, ok in checks.items() if not ok]
        wrong += [(f"Z/{n} seed {seed}", name) for name in failed]
        print(f"Z/{n} seed {seed}: howell_form {howell_ms:.1f} ms, "
              f"kernel_basis {kernel_ms:.1f} ms ({K.cols} generators, |ker A| = {count}), "
              f"solve {solve_ms:.1f} ms, "
              + (f"Smith over Z {smith[1]:.0f} ms, " if smith else "") +
              f"largest entry {max(entries, default=0).bit_length()} bits: "
              + ("ok" if not failed else "WRONG " + ", ".join(failed)))
    for (p, k), seed in ((pk, s) for pk in PRIME_POWERS for s in SEEDS):
        wrong += [(f"Z/{p ** k} seed {seed}", name) for name in check_nakayama(p, k, seed)]
    for (coeff, relation), seed in ((a, s) for a in ALGEBRAS for s in ALGEBRA_SEEDS):
        wrong += [(f"{coeff}[x]/({relation}) seed {seed}", name)
                  for name in check_algebra(coeff, relation, seed)]
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
