"""`linalg.smith_data` against the combine-only Smith loop it replaced.

When the pivot divides an entry, `smith_data` clears it by a subtraction
(row j -= q row i, column i of S^-1 += q column j, and the transposed pair
for columns), and it folds row i + 1 into row i the same way.  The
reference below runs every one of those steps as the general 2x2
combination with (1, 0, -q, 1) or (1, 1, 0, 1).  Both compute every
integer from the same operands, so D, S, S^-1, T and T^-1 must agree entry
for entry, type included.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from koszulkit.linalg import _identity_grid, _is_unit, _quo, _unit_inv, smith_data
from koszulkit.rings import GF, QQ, ZZ, poly_quotient

Z = ZZ()
Q = QQ()
F2, F7 = GF(2), GF(7)
F2X = poly_quotient("F2", ["x"])
F3X = poly_quotient("F3", ["x"])


# ---------------------------------------------------------------------------
# the reference: every elimination step a 2x2 combination of determinant 1


def reference_smith(ed, grid, rows, cols, steps):
    """The parent loop; `steps` counts its divisible steps and its folds."""
    m = [list(r) for r in grid]
    S, Si = _identity_grid(ed, rows), _identity_grid(ed, rows)
    T, Ti = _identity_grid(ed, cols), _identity_grid(ed, cols)
    add, neg, mul = ed.add_payload, ed.neg_payload, ed.mul_payload
    divmod_, gcdex, size = ed.divmod_payload, ed.gcdex_payload, ed.size_payload
    zero, one = ed.zero_payload, ed.one_payload

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        S[i], S[j] = S[j], S[i]
        for r in Si:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in T:
            r[i], r[j] = r[j], r[i]
        Ti[i], Ti[j] = Ti[j], Ti[i]

    def row_combine(i, j, a, b, c, d):
        for mat in (m, S):
            ri, rj = mat[i], mat[j]
            mat[i] = [add(mul(a, x), mul(b, y)) for x, y in zip(ri, rj)]
            mat[j] = [add(mul(c, x), mul(d, y)) for x, y in zip(ri, rj)]
        for r in Si:
            x, y = r[i], r[j]
            r[i] = add(mul(d, x), neg(mul(c, y)))
            r[j] = add(mul(a, y), neg(mul(b, x)))

    def col_combine(i, j, a, b, c, d):
        for mat in (m, T):
            for r in mat:
                x, y = r[i], r[j]
                r[i] = add(mul(a, x), mul(b, y))
                r[j] = add(mul(c, x), mul(d, y))
        ri, rj = Ti[i], Ti[j]
        Ti[i] = [add(mul(d, x), neg(mul(c, y))) for x, y in zip(ri, rj)]
        Ti[j] = [add(mul(a, y), neg(mul(b, x))) for x, y in zip(ri, rj)]

    def eliminate(combine, k, i, b):
        a = m[k][k]
        if a:
            q, r = divmod_(b, a)
            if not r:
                steps["subtract"] += 1
                combine(k, i, one, zero, neg(q), one)
                return
        g, s, t = gcdex(a, b)
        combine(k, i, s, t, neg(_quo(ed, b, g)), _quo(ed, a, g))

    def clear_at(k):
        while True:
            for i in range(k + 1, rows):
                if m[i][k]:
                    eliminate(row_combine, k, i, m[i][k])
            if not any(m[k][j] for j in range(k + 1, cols)):
                return
            for j in range(k + 1, cols):
                if m[k][j]:
                    eliminate(col_combine, k, j, m[k][j])
            if not any(m[i][k] for i in range(k + 1, rows)):
                return

    limit = min(rows, cols)
    for _ in range(10_000):
        for k in range(limit):
            pivot = min(((size(m[i][j]), i, j) for i in range(k, rows)
                         for j in range(k, cols) if m[i][j]), default=None)
            if pivot is None:
                break
            if pivot[1] != k:
                row_swap(k, pivot[1])
            if pivot[2] != k:
                col_swap(k, pivot[2])
            clear_at(k)
        i = next((i for i in range(limit - 1) if m[i + 1][i + 1] and (
            not m[i][i] or divmod_(m[i + 1][i + 1], m[i][i])[1])), None)
        if i is None:
            break
        steps["fold"] += 1
        row_combine(i, i + 1, one, one, zero, one)
    else:
        raise AssertionError("the reference did not finish")

    for i in range(limit):
        u, c = ed.canon_payload(m[i][i])
        assert _is_unit(ed, u) or not m[i][i]
        if c != m[i][i]:
            inv = _unit_inv(ed, u)
            m[i] = [mul(inv, x) for x in m[i]]
            S[i] = [mul(inv, x) for x in S[i]]
            for r in Si:
                r[i] = mul(u, r[i])
    return m, S, Si, T, Ti


def typed(grid):
    return [[(type(x), x) for x in row] for row in grid]


def assert_same_steps(ed, grid, cols=None):
    rows, cols = len(grid), len(grid[0]) if cols is None else cols
    got, steps = smith_data(ed, grid, rows, cols), Counter()
    want = reference_smith(ed, grid, rows, cols, steps)
    for name, mine, ref in zip(("D", "S", "S^-1", "T", "T^-1"),
                               (got.m, got.S, got.Si, got.T, got.Ti), want):
        assert typed(mine) == typed(ref), name
    return got, steps


# ---------------------------------------------------------------------------
# inputs


def int_grid(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def zero_some_lines(rng, grid):
    """Zero one random row and one random column of a nonempty grid."""
    i, j = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
    grid[i] = [0] * len(grid[0])
    for row in grid:
        row[j] = 0
    return grid


def poly_payload(R, rng, degree):
    """A payload of F_p[x] of degree at most `degree`, zero about a third of the time."""
    if rng.random() < 0.35:
        return R.zero_payload
    p = R.coeff.p
    return tuple(((e,), c) for e in range(degree, -1, -1) if (c := rng.randrange(p)))


@pytest.mark.parametrize("n", range(1, 17))
def test_square_integer_grids(n):
    rng = random.Random(100 + n)
    steps = Counter()
    for _ in range(3 if n <= 10 else 1):
        steps += assert_same_steps(Z, int_grid(rng, n, n))[1]
    assert steps["subtract"] or n == 1


@pytest.mark.parametrize("rows, cols", [(1, 5), (5, 1), (2, 7), (7, 2), (4, 9), (9, 4),
                                        (6, 11), (12, 5)])
def test_rectangular_integer_grids(rows, cols):
    rng = random.Random(rows * 31 + cols)
    steps = Counter()
    for _ in range(3):
        steps += assert_same_steps(Z, int_grid(rng, rows, cols))[1]
    assert steps["subtract"]


def test_zero_rows_and_columns():
    rng = random.Random(5)
    for rows, cols in [(3, 3), (5, 4), (4, 6), (8, 8)]:
        assert_same_steps(Z, zero_some_lines(rng, int_grid(rng, rows, cols)))
    for rows, cols in [(1, 1), (3, 2), (2, 5), (0, 3), (3, 0)]:
        assert_same_steps(Z, [[0] * cols for _ in range(rows)], cols)


@pytest.mark.parametrize("grid, diagonal", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
])
def test_divisibility_fold(grid, diagonal):
    sd, steps = assert_same_steps(Z, grid)
    assert steps["fold"] and steps["subtract"]
    assert [sd.diag(i) for i in range(len(grid))] == diagonal


@pytest.mark.parametrize("grid", [
    [[4, 6], [1, 0]],           # the least entry, 1, sits at (1, 0)
    [[0, 3, 9], [2, 0, 4]],     # no entry at (0, 0)
    [[0, 0, 0], [0, 0, 5], [0, 7, 14]],
])
def test_pivot_away_from_the_diagonal(grid):
    assert assert_same_steps(Z, grid)[1]["subtract"]


def test_rational_grids():
    rng = random.Random(11)
    for rows, cols in [(3, 3), (4, 6), (6, 4), (7, 7)]:
        grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
                for _ in range(rows)]
        assert assert_same_steps(Q, grid)[1]["subtract"]


@pytest.mark.parametrize("F", [F2, F7], ids=["F2", "F7"])
@pytest.mark.parametrize("rows, cols", [(3, 3), (6, 6), (9, 9), (2, 7), (7, 2), (5, 8),
                                        (8, 5)])
def test_prime_field_grids(F, rows, cols):
    # prime fields eliminate on the inline-mod row kernels
    rng = random.Random(f"{F.p}:{rows}x{cols}")
    steps = Counter()
    for _ in range(3):
        grid = int_grid(rng, rows, cols, 0, F.p - 1)
        steps += assert_same_steps(F, grid)[1]
    assert steps["subtract"]


@pytest.mark.parametrize("R", [F2X, F3X], ids=["F2[x]", "F3[x]"])
def test_polynomial_grids(R):
    rng = random.Random(13)
    steps = Counter()
    for rows, cols in [(2, 2), (3, 4), (4, 3), (5, 5), (6, 6)]:
        for _ in range(3):
            grid = [[poly_payload(R, rng, 3) for _ in range(cols)] for _ in range(rows)]
            steps += assert_same_steps(R, grid)[1]
    assert steps["subtract"] and steps["fold"]


@pytest.mark.parametrize("seed", range(4))
def test_lift_of_a_zmod_subquotient(seed):
    # the Z-lift [A | 8 I] that the Z/8 subquotient factors
    rng = random.Random(seed)
    n = 6 + seed
    A = int_grid(rng, n, n, 0, 7)
    grid = [row + [8 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    assert assert_same_steps(Z, grid)[1]["subtract"]
