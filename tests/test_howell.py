"""The Howell engine over Z/n and F_p[x]/(f) against independent oracles.

Over Z/n the Howell engine gives kernels, solutions and Howell forms; over
F_p[x]/(f) it gives the Howell form alone, and kernels and solutions come
from the column reduction over F_p, checked here by the same oracles.
Kernels must span the whole kernel: enumeration decides it on small shapes,
and on workload shapes |ker A| comes from the Smith diagonal of the lift to
Z (Z/n) or from the row rank of the F_p expansion (F_p[x]/(f),
`helpers.row_rank`).  Howell forms over Z/n must equal the Hermite form over
Z of the lift stacked on n*I, reduced mod n.  Every entry stays reduced,
and degenerate shapes give the answers of the Smith-over-the-lift engine
this one replaced.
"""

import random
from itertools import product
from math import gcd, prod

import pytest

from koszulkit import linalg
from koszulkit.linalg import (
    howell_form, kernel_basis, kernel_cardinality, smith_form, solve, span_cardinality,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, Zmod, poly_quotient

from helpers import row_rank

RINGS = {
    "Z/8": lambda: Zmod(8),
    "Z/12": lambda: Zmod(12),
    "Z/27": lambda: Zmod(27),
    "F2[x]/(x^3)": lambda: poly_quotient("F2", ["x"], ["x^3"]),
    "F2[x]/(x^2+x)": lambda: poly_quotient("F2", ["x"], ["x^2 + x"]),
}


def random_matrix(R, rows, cols, rng, density=1.0):
    """Entries uniform over R, each kept with probability `density`."""
    pool = list(R.elements())
    if not rows or not cols:
        return Matrix.zeros(R, rows, cols)
    return Matrix.from_rows(R, [[rng.choice(pool) if rng.random() < density else R.zero
                                 for _ in range(cols)] for _ in range(rows)])


def low_rank_matrix(R, rows, inner, cols, rng):
    """A product through `inner` columns, so the kernel is large."""
    return random_matrix(R, rows, inner, rng) * random_matrix(R, inner, cols, rng)


def payload_columns(M):
    return [tuple(M.data[i][j].payload for i in range(M.rows)) for j in range(M.cols)]


def enumerate_kernel(R, A):
    """Every x in R^cols with A x = 0, as tuples of payloads."""
    add, mul = R.add_payload, R.mul_payload
    rows = [[x.payload for x in r] for r in A.data]
    out = set()
    for x in product([a.payload for a in R.elements()], repeat=A.cols):
        if all(not _dot(add, mul, R.zero_payload, row, x) for row in rows):
            out.add(x)
    return out


def _dot(add, mul, acc, row, x):
    for a, b in zip(row, x):
        acc = add(acc, mul(a, b))
    return acc


def enumerate_span(R, vectors, width):
    """Every R-combination of payload vectors, as a set of tuples."""
    add, mul = R.add_payload, R.mul_payload
    scalars = [a.payload for a in R.elements()]
    out = {(R.zero_payload,) * width}
    for v in vectors:
        out = {tuple(add(s, mul(c, x)) for s, x in zip(w, v)) for w in out for c in scalars}
    return out


def smith_kernel_count(A, n):
    """|ker A| over Z/n from the Smith diagonal d_j of the lift to Z:
    the product of gcd(d_j, n), with n for d_j = 0 and for j >= rank."""
    Z = ZZ()
    lift = Matrix(Z, A.rows, A.cols, A.sparse_rows)
    d = [x.payload for x in smith_form(Z, lift).diagonal()]
    d += [0] * (A.cols - len(d))
    return prod(gcd(x, n) if x else n for x in d)


# ---------------------------------------------------------------------------
# kernel completeness


@pytest.mark.parametrize("rname", sorted(RINGS))
def test_kernel_basis_spans_the_enumerated_kernel(rname):
    R = RINGS[rname]()
    rng = random.Random(f"kernel-enumeration:{rname}")
    cap = 3 if R.cardinality() <= 12 else 2
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, cap)
        A = random_matrix(R, rows, cols, rng, density=rng.choice([0.4, 0.8]))
        K = kernel_basis(R, A)
        assert K.rows == A.cols and (A * K).is_zero()
        kernel = enumerate_kernel(R, A)
        assert enumerate_span(R, payload_columns(K), A.cols) == kernel
        assert kernel_cardinality(R, A) == len(kernel)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("size, inner", [(12, 4), (16, 16), (20, 7)])
def test_zmod_kernel_matches_the_smith_count_of_the_lift(n, size, inner):
    R = Zmod(n)
    rng = random.Random(f"kernel-smith:{n}:{size}:{inner}")
    for _ in range(2):
        A = low_rank_matrix(R, size, inner, size, rng)
        K = kernel_basis(R, A)
        assert (A * K).is_zero()
        count = smith_kernel_count(A, n)
        assert span_cardinality(R, K) == count == kernel_cardinality(R, A)


@pytest.mark.parametrize("rname", ["F2[x]/(x^3)", "F2[x]/(x^2+x)"])
def test_poly_quotient_kernel_matches_the_fp_rank(rname):
    R = RINGS[rname]()
    view = linalg._fp_view_of(R)
    rng = random.Random(f"kernel-fp:{rname}")
    for rows, inner, cols in [(6, 2, 8), (8, 8, 8), (10, 3, 9)]:
        A = low_rank_matrix(R, rows, inner, cols, rng)
        K = kernel_basis(R, A)
        assert (A * K).is_zero()
        count = 2 ** (cols * view.dim - row_rank(R, A))
        assert 2 ** row_rank(R, K) == count == kernel_cardinality(R, A)


# ---------------------------------------------------------------------------
# Howell forms and solutions


def hermite_of_the_lift(A, n):
    """The Hermite form over Z of the lift of A stacked on n*I, reduced mod
    n: the Howell form, with row j for pivot column j (Howell 1986)."""
    rows = [[x.payload for x in r] for r in A.data]
    rows += [[n if i == j else 0 for j in range(A.cols)] for i in range(A.cols)]
    for j in range(A.cols):  # the lattice has full rank: every column has a pivot
        while any(rows[i][j] for i in range(j + 1, len(rows))):
            k = min((i for i in range(j, len(rows)) if rows[i][j]),
                    key=lambda i: abs(rows[i][j]))
            rows[j], rows[k] = rows[k], rows[j]
            for i in range(j + 1, len(rows)):
                q = rows[i][j] // rows[j][j]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
        if rows[j][j] < 0:
            rows[j] = [-x for x in rows[j]]
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
    return [[x % n for x in r] for r in rows]


@pytest.mark.parametrize("n", [8, 12, 27, 30])
def test_howell_form_is_the_hermite_form_of_the_lift(n):
    R = Zmod(n)
    rng = random.Random(f"howell-hermite:{n}")
    for _ in range(250):
        A = random_matrix(R, rng.randint(0, 6), rng.randint(0, 6), rng,
                          density=rng.choice([0.3, 0.7, 1.0]))
        nf = howell_form(R, A)
        assert nf.verify()
        assert [[x.payload for x in r] for r in nf.matrix.data] == hermite_of_the_lift(A, n)


@pytest.mark.parametrize("rname", ["F2[x]/(x^3)", "F2[x]/(x^2+x)"])
def test_howell_form_over_poly_quotients(rname):
    """Certificate, canonicity under row mixing, and the span."""
    R = RINGS[rname]()
    rng = random.Random(f"howell-poly:{rname}")
    for _ in range(40):
        A = random_matrix(R, rng.randint(1, 3), rng.randint(1, 3), rng, density=0.7)
        nf = howell_form(R, A)
        assert nf.verify()
        rows_span = enumerate_span(R, [tuple(x.payload for x in r) for r in A.data], A.cols)
        assert enumerate_span(R, [tuple(x.payload for x in r) for r in nf.matrix.data],
                              A.cols) == rows_span
        U = random_matrix(R, A.rows, A.rows, rng)
        if span_cardinality(R, U) == R.cardinality() ** A.rows:  # U is invertible
            assert howell_form(R, U * A).matrix == nf.matrix


@pytest.mark.parametrize("rname", sorted(RINGS))
def test_solve_decides_membership(rname):
    R = RINGS[rname]()
    rng = random.Random(f"solve:{rname}")
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = random_matrix(R, rows, cols, rng, density=0.6)
        image = enumerate_span(R, payload_columns(A), rows)
        B = random_matrix(R, rows, 2, rng, density=0.6)
        X = solve(R, A, B)
        assert (X is None) == any(b not in image for b in payload_columns(B))
        if X is not None:
            assert (X.rows, X.cols) == (cols, 2) and A * X == B


def test_zmod_elimination_stays_reduced(monkeypatch):
    """Row operations run in Z/n, so every operand and result, transforms
    included, lies in [0, n); the lift Z only does pivot arithmetic.  A row
    kernel call is recorded entry by entry: its scalars and every entry of
    its operand rows and its result row."""
    ops = ("add_payload", "mul_payload", "neg_payload", "axpy_payloads", "combine_payloads")

    def lift_row_operation(*args):
        raise AssertionError("a row operation ran in the lift")

    for n in (8, 12):
        R = Zmod(n)
        rng = random.Random(f"reduced:{n}")
        inputs = [random_matrix(R, 12, 12, rng), low_rank_matrix(R, 12, 5, 10, rng)]
        seen = []

        def recorded(op):
            def wrapper(*args):
                out = op(*args)
                for x in args + (out,):
                    seen.extend(x if isinstance(x, list) else [x])
                return out
            return wrapper

        with monkeypatch.context() as m:
            for name in ops:
                m.setattr(R, name, recorded(getattr(R, name)))
                m.setattr(ZZ(), name, lift_row_operation)
            forms, results = [], []
            for A in inputs:
                forms.append(howell_form(R, A))
                results += [kernel_basis(R, A),
                            solve(R, A, A * random_matrix(R, A.cols, 2, rng))]
                kernel_cardinality(R, A)
        assert len(seen) > 10_000
        assert all(0 <= x < n for x in seen)
        results += [M for nf in forms for M in (nf.matrix, nf.left, nf.left_inv)]
        assert all(0 <= x.payload < n for M in results for r in M.data for x in r)
        assert all(nf.verify() for nf in forms)


# ---------------------------------------------------------------------------
# degenerate shapes


@pytest.mark.parametrize("rname", ["Z/8", "Z/12", "F2[x]/(x^3)"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3), (3, 2)])
def test_degenerate_inputs(rname, shape):
    """Empty and all-zero matrices, and right-hand sides with no columns."""
    R = RINGS[rname]()
    rows, cols = shape
    A = Matrix.zeros(R, rows, cols)
    assert kernel_basis(R, A) == Matrix.identity(R, cols)
    assert solve(R, A, Matrix.zeros(R, rows, 0)) == Matrix.zeros(R, cols, 0)
    assert solve(R, A, Matrix.zeros(R, rows, 1)) == Matrix.zeros(R, cols, 1)
    if rows:
        b = Matrix.from_rows(R, [[R.one]] + [[R.zero]] * (rows - 1))
        assert solve(R, A, b) is None
    nf = howell_form(R, A)
    assert nf.verify()
    assert nf.matrix == Matrix.zeros(R, rows + cols, cols)
    assert nf.original == A.vstack(Matrix.zeros(R, cols, cols))
    assert kernel_cardinality(R, A) == R.cardinality() ** cols  # 512 for 0x3 over Z/8
    assert span_cardinality(R, A) == 1
