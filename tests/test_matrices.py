"""The sparse Matrix kernels against a naive dense reference on boxed entries."""

import random
from fractions import Fraction

import pytest

from koszulkit import rings as kr
from koszulkit.descent import SystemVariable
from koszulkit.errors import DimensionMismatch, MixedRings
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, QQ, ZZ, RingElement, Zmod, poly_quotient

from helpers import (
    VarPolyRing, count_calls, dense_add, dense_from_blocks, dense_is_zero, dense_kron,
    dense_mul, dense_neg, dense_scale, dense_transpose, matrix_from_entries, random_element,
)

Q_EPS = poly_quotient("Q", ["x"], ["x^2"])
RINGS = {
    "Z": ZZ(),
    "Q": QQ(),
    "Z/8": Zmod(8),
    "F5": GF(5),
    "F2[x]/(x^3)": poly_quotient("F2", ["x"], ["x^3"]),
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "Q[x]/(x^2)": Q_EPS,
    "VarPoly(Z/4)": VarPolyRing(Zmod(4)),
}
VARIABLES = [SystemVariable("X", 1, 1, j) for j in (1, 2, 3)]


def element(ring, rng):
    """A seeded entry, zero about half the time."""
    if rng.random() < 0.5:
        return ring.zero
    if isinstance(ring, VarPolyRing):
        base = ring.base
        poly = ring.constant(random_element(base, rng).payload)
        for v in rng.sample(VARIABLES, rng.randint(0, 2)):
            poly = poly + ring.constant(random_element(base, rng).payload) * ring.variable(v)
        return poly
    if ring is Q_EPS:
        a, b = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        return RingElement(ring, ring.normal_form_payload(tuple(
            (e, c) for e, c in (((1,), b), ((0,), a)) if c)))
    return random_element(ring, rng)


def grid(ring, rows, cols, rng, zero=False):
    return [[ring.zero if zero else element(ring, rng) for _ in range(cols)]
            for _ in range(rows)]


def matrix(ring, rows, cols, rng, zero=False):
    g = grid(ring, rows, cols, rng, zero)
    M = Matrix.from_rows(ring, g) if rows else Matrix.zeros(ring, 0, cols)
    assert M.data == tuple(map(tuple, g)) and (M.rows, M.cols) == (rows, cols)
    return M


def assert_stored_sparsely(M):
    """Every row holds only nonzero payloads, columns strictly increasing."""
    assert len(M.sparse_rows) == M.rows
    zero = M.ring.zero_payload
    for cols, vals in M.sparse_rows:
        assert type(cols) is tuple and type(vals) is tuple and len(cols) == len(vals)
        assert list(cols) == sorted(set(cols)) and all(0 <= j < M.cols for j in cols)
        assert all(p and p != zero for p in vals)


def shapes(rng):
    """Dimensions from 0 to 4, so 0xk, kx0 and 0x0 shapes turn up."""
    return [rng.randint(0, 4) for _ in range(3)]


CASES = [(name, seed) for name in RINGS for seed in range(12)]


@pytest.mark.parametrize("name,seed", CASES)
def test_kernels_match_the_dense_reference(name, seed):
    ring = RINGS[name]
    rng = random.Random(f"{name}:{seed}")
    m, k, n = shapes(rng)
    all_zero = seed % 4 == 3
    A = matrix(ring, m, k, rng, zero=all_zero)
    B = matrix(ring, k, n, rng)
    A2 = matrix(ring, m, k, rng)
    results = []

    P = A * B
    assert P.data == dense_mul(A, B)
    S = A + A2
    assert S.data == dense_add(A, A2)
    D = A - A2
    assert D.data == tuple(tuple(x - y for x, y in zip(ra, rb))
                           for ra, rb in zip(A.data, A2.data))
    N = -A
    assert N.data == dense_neg(A)
    T = A.transpose()
    assert T.data == dense_transpose(A) and (T.rows, T.cols) == (k, m)
    Kr = A.kron(B)
    assert Kr.data == dense_kron(A, B) and (Kr.rows, Kr.cols) == (m * k, k * n)
    c = element(ring, rng)
    for scalar in (ring.zero, ring.one, -ring.one, c):
        Sc = A.scale(scalar)
        assert Sc.data == dense_scale(scalar, A)
        results.append(Sc)
    results += [P, S, D, N, T, Kr]

    # == and is_zero agree with the boxed entries
    copy = Matrix.from_rows(ring, [list(r) for r in A.data]) if m else A
    for X, Y in ((A, A2), (A, copy), (S - A2, A), (A + N, Matrix.zeros(ring, m, k)), (A, T)):
        assert (X == Y) == (X.data == Y.data and (X.rows, X.cols) == (Y.rows, Y.cols))
        if X == Y:
            assert hash(X) == hash(Y)
    for X in results + [A, A + N]:
        assert X.is_zero() == dense_is_zero(X)
        assert_stored_sparsely(X)


@pytest.mark.parametrize("name,seed", CASES)
def test_from_blocks_matches_the_dense_reference(name, seed):
    ring = RINGS[name]
    rng = random.Random(f"blocks:{name}:{seed}")
    heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    blocks = {(i, j): matrix(ring, h, w, rng)
              for i, h in enumerate(heights) for j, w in enumerate(widths)
              if rng.random() < 0.6}
    # the assembler must not depend on the order the blocks are given in
    order = list(blocks.items())
    rng.shuffle(order)
    M = Matrix.from_blocks(ring, heights, widths, dict(order))
    assert M.data == dense_from_blocks(ring, heights, widths, blocks)
    assert (M.rows, M.cols) == (sum(heights), sum(widths))
    assert_stored_sparsely(M)


@pytest.mark.parametrize("name", list(RINGS))
def test_constructors_store_no_zero(name):
    ring = RINGS[name]
    rng = random.Random(name)
    # the payload constructors against from_rows; entries come in shuffled order
    g = grid(ring, 3, 4, rng)
    payloads = [[ring.unbox(x) for x in r] for r in g]
    entries = [(i, j, v) for i, r in enumerate(payloads) for j, v in enumerate(r)]
    rng.shuffle(entries)
    by_rows = Matrix.from_payload_rows(ring, 3, 4, payloads)
    assert by_rows == matrix_from_entries(ring, 3, 4, entries) == Matrix.from_rows(ring, g)
    for M in (Matrix.zeros(ring, 3, 2), Matrix.zeros(ring, 0, 4), Matrix.zeros(ring, 4, 0),
              Matrix.identity(ring, 3), Matrix.identity(ring, 0),
              matrix_from_entries(ring, 3, 3, [(0, 0, ring.one_payload), (1, 1, ring.zero_payload),
                                               (2, 2, ring.unbox(element(ring, rng)))]),
              matrix(ring, 3, 3, rng), matrix(ring, 2, 3, rng, zero=True),
              Matrix.from_columns(ring, 3, [[ring.zero_payload, ring.one_payload,
                                             ring.zero_payload]]),
              Matrix.from_columns(ring, 0, [[], []]),
              by_rows, matrix_from_entries(ring, 3, 4, entries),
              Matrix.from_payload_rows(ring, 0, 3, []),
              matrix_from_entries(ring, 2, 0, [])):
        assert_stored_sparsely(M)
        assert M.is_zero() == dense_is_zero(M)
    assert Matrix.from_columns(ring, 0, [[], []]).cols == 2
    assert Matrix.from_payload_rows(ring, 0, 3, []).cols == 3


def test_bad_entries_shapes_and_maps_are_rejected():
    with pytest.raises(MixedRings):
        Matrix.from_rows(Zmod(4), [[Zmod(8).one]])
    with pytest.raises(MixedRings):
        Matrix.identity(Zmod(4), 2).scale(Zmod(8).one)
    with pytest.raises(MixedRings):
        Matrix.from_rows(VarPolyRing(Zmod(4)), [[Zmod(4).one]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns(Zmod(4), 2, [[1]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_payload_rows(Zmod(4), 2, 1, [[1]])
    # map_entries visits the stored entries only, so it refuses a map that
    # would change the zero entries
    with pytest.raises(ValueError):
        Matrix.identity(Zmod(4), 2).map_entries(lambda x: x + 1)


def signed_permutation(ring, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [ring.one if rng.random() < 0.5 else -ring.one for _ in range(n)]
    return Matrix.from_rows(ring, [[signs[i] if j == perm[i] else ring.zero
                                    for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", ["F2[x,y]/(x,y)^2", "Q[x]/(x^2)"])
def test_signed_permutation_products_never_reduce(name, monkeypatch):
    ring = RINGS[name]
    rng = random.Random(7)
    n = 12
    A, B = signed_permutation(ring, n, rng), signed_permutation(ring, n, rng)
    minus_one = -ring.one
    reductions = count_calls(monkeypatch, kr._poly_reduce)
    products = count_calls(monkeypatch, kr._poly_mul)
    P = A * B
    K = P.kron(A)
    S = (-A).scale(minus_one)
    assert len(reductions) == 0 and len(products) == 0
    assert P.data == dense_mul(A, B) and K.data == dense_kron(P, A) and S == A


def test_scale_by_one_is_the_matrix_and_by_minus_one_its_negative():
    ring = RINGS["Z/8"]
    A = matrix(ring, 4, 4, random.Random(3))
    assert A.scale(ring.one) is A
    assert A.scale(-ring.one) == -A
    assert A.scale(ring.zero) == Matrix.zeros(ring, 4, 4)


@pytest.mark.parametrize("name", list(RINGS))
def test_unit_rows_of_a_product_reuse_or_negate_the_stored_row(name):
    """A row of A with one stored entry 1 is B's stored row object, and one
    with entry -1 its negation; signed-permutation rows, rows with one other
    entry, rows with several entries and zero rows all match the dense
    product."""
    ring = RINGS[name]
    rng = random.Random(f"unit-rows:{name}")
    one, minus_one = ring.one, -ring.one
    n = 9
    reused = negated = 0
    for trial in range(6):
        B = matrix(ring, n, 5, rng)
        for P in (signed_permutation(ring, n, rng), None):
            if P is None:
                # mixed rows: 1, -1, another entry, several entries, zero
                rows = []
                for i in range(n):
                    kind, k = i % 5, rng.randrange(n)
                    row = [ring.zero] * n
                    if kind < 3:
                        row[k] = (one, minus_one, element(ring, rng))[kind]
                    elif kind == 3:
                        row = [element(ring, rng) for _ in range(n)]
                    rows.append(row)
                P = Matrix.from_rows(ring, rows)
            prod = P * B
            assert prod.data == dense_mul(P, B)
            assert_stored_sparsely(prod)
            for (ks, vals), row in zip(P.sparse_rows, prod.sparse_rows):
                if len(ks) != 1:
                    continue
                stored = B.sparse_rows[ks[0]]
                if vals[0] == ring.one_payload:
                    assert row is stored
                    reused += 1
                elif vals[0] == ring.neg_payload(ring.one_payload):
                    assert row == (stored[0], tuple(map(ring.neg_payload, stored[1])))
                    assert row == (-B).sparse_rows[ks[0]]
                    negated += 1
    assert reused and (negated or one == minus_one)
