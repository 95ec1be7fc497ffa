"""The packed F_p routines of `linalg` against the list-of-ints path they
replaced.

The reference below is that path: a vector is a list of ints mod p, and
`reference_rref` is column-by-column Gauss-Jordan elimination.  The packed
code keeps each coordinate in a field of one int (`linalg._Codec`).
`helpers._fp_rref`, the row route's reducer kept as an oracle, runs forward
elimination with back substitution; `kernel_basis` and `solve` over F_p
reduce the matrix's columns (`_reduce_columns`), and `_Echelon`, the one
reducer of `linalg`, grows a span keyed by its highest fields.  Reduced echelon
rows are unique, and the kernel basis and the solution that is zero at
every free column are too, so pivots, pivot rows, kernel bases and
solutions must agree entry for entry over F2, F3, F5, F7, F13 and F101 (the
wide-field codec), and so must the indices `_nakayama_keep` keeps, over a
local and a non-local algebra, and the ranks `FpModule.dual_rank` gives.
"""

import random

import pytest

from koszulkit.linalg import (
    FpModule, _Codec, _Echelon, _fp_view_of, _nakayama_keep, kernel_basis, solve,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, poly_quotient

from helpers import _fp_rref

PRIMES = [3, 5, 7, 13, 101]
ALL_P = [2] + PRIMES  # F2, one bit per coordinate, against the same reference


# ---------------------------------------------------------------------------
# the reference: lists of ints


def reference_rref(p, rows, ncols):
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        # the pivot row is zero left of col, so only the tails change
        pivot = rows[rank]
        inv = pow(pivot[col], -1, p)
        tail = [(inv * x) % p for x in pivot[col:]]
        rows[rank] = pivot[:col] + tail
        for r in range(len(rows)):
            row = rows[r]
            f = row[col] % p
            if f and r != rank:
                rows[r] = row[:col] + [(x - f * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
    return pivots


def reference_kernel(p, rows, ncols):
    work = list(rows)
    pivots = reference_rref(p, work, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in [f for f in range(ncols) if f not in pivot_set]:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            if work[r][f] % p:
                vec[pc] = (-work[r][f]) % p
        basis.append(vec)
    return basis


def reference_solve(p, rows, ncols, rhs):
    sols = [[0] * ncols for _ in rhs]
    work = [list(r) + [b[i] % p for b in rhs] for i, r in enumerate(rows)]
    pivots = reference_rref(p, work, ncols)
    if any(x % p for r in range(len(pivots), len(work)) for x in work[r][ncols:]):
        return None
    for r, pc in enumerate(pivots):
        for k, x in enumerate(sols):
            x[pc] = work[r][ncols + k]
    return sols


class ReferenceEchelon:

    def __init__(self, p):
        self.p = p
        self.rows = {}

    def add(self, v):
        rows, p, i = self.rows, self.p, 0
        if not any(v):
            return False
        while True:  # v is reduced mod p and zero before slot i
            i = next((j for j in range(i, len(v)) if v[j]), None)
            if i is None:
                return False
            x, r = v[i], rows.get(i)
            if r is None:
                inv = pow(x, -1, p)
                rows[i] = [0] * i + [(inv * y) % p for y in v[i:]]
                return True
            v = [0] * i + [(y - x * z) % p for y, z in zip(v[i:], r[i:])]


# ---------------------------------------------------------------------------
# packing


def pack(codec, coords):
    return sum(c << j * codec.width for j, c in enumerate(coords))


def unpack(codec, v, n):
    out = [0] * n
    for j, c in codec.nonzero(v):
        out[j] = c
    return out


def random_rows(p, nrows, ncols, density, rng):
    return [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def low_rank_rows(p, nrows, inner, ncols, rng):
    """A product of random nrows x inner and inner x ncols matrices."""
    left = random_rows(p, nrows, inner, 0.7, rng)
    right = random_rows(p, inner, ncols, 0.7, rng)
    return [[sum(a * right[k][j] for k, a in enumerate(row)) % p for j in range(ncols)]
            for row in left]


def shapes(p, rng):
    for nrows, ncols in [(0, 4), (4, 0), (1, 1), (5, 5), (8, 5), (5, 9), (20, 20), (30, 45)]:
        for density in (0.1, 0.4, 1.0):
            yield random_rows(p, nrows, ncols, density, rng), ncols
    for nrows, inner, ncols in [(9, 3, 9), (12, 5, 20), (25, 10, 18)]:
        yield low_rank_rows(p, nrows, inner, ncols, rng), ncols


# ---------------------------------------------------------------------------
# eliminations


@pytest.mark.parametrize("p", PRIMES)
def test_codec_width_and_reduction(p):
    codec = _Codec(p)
    # a field holds x + c y for reduced x, y and 0 < c < p without a carry
    assert (p - 1) + (p - 1) ** 2 <= codec.mask
    assert codec.width == (8 if p <= 13 else 16)
    rng = random.Random(f"codec:{p}")
    for _ in range(20):
        x, y = ([rng.randrange(p) for _ in range(12)] for _ in range(2))
        c = rng.randrange(1, p)
        expect = [(a + c * b) % p for a, b in zip(x, y)]
        assert unpack(codec, codec.axpy(pack(codec, x), c, pack(codec, y)), 12) == expect
        terms = [(rng.randrange(1, p), [rng.randrange(p) for _ in range(12)])
                 for _ in range(3 * codec.room + 1)]
        total = codec.lincomb(pack(codec, x), [(c, pack(codec, t)) for c, t in terms])
        assert unpack(codec, total, 12) == [
            (a + sum(c * t[j] for c, t in terms)) % p for j, a in enumerate(x)]


def columns_of(R, nrows, vecs):
    """The nrows x len(vecs) matrix over R whose columns are the lists `vecs`."""
    return Matrix.from_payload_rows(R, nrows, len(vecs), [[v[i] for v in vecs]
                                                          for i in range(nrows)])


def list_columns(codec, M):
    """The columns of M over F_p as lists of M.rows ints."""
    return [unpack(codec, v, M.rows) for v in _fp_view_of(M.ring).columns(M)]


@pytest.mark.parametrize("p", ALL_P)
def test_packed_eliminations_match_the_list_path(p):
    codec, R = _Codec(p), GF(p)
    rng = random.Random(f"fp-oracle:{p}")
    for grid, ncols in shapes(p, rng):
        ref = [list(r) for r in grid]
        ref_pivots = reference_rref(p, ref, ncols)
        packed = [pack(codec, r) for r in grid]
        work = list(packed)
        assert _fp_rref(codec, work, ncols) == ref_pivots
        rank = len(ref_pivots)
        assert [unpack(codec, v, ncols) for v in work[:rank]] == ref[:rank]
        assert not any(work[rank:])

        nrows = len(grid)
        A = Matrix.from_payload_rows(R, nrows, ncols, grid)
        assert list_columns(codec, kernel_basis(R, A)) == reference_kernel(p, grid, ncols)

        x = [rng.randrange(p) for _ in range(ncols)]
        inside = [sum(a * b for a, b in zip(row, x)) % p for row in grid]
        outside = [rng.randrange(p) for _ in range(nrows)]
        for rhs in ([inside], [inside, outside], [outside], []):
            expect = reference_solve(p, grid, ncols, rhs)
            got = solve(R, A, columns_of(R, nrows, rhs))
            if expect is None:
                assert got is None
            else:
                assert list_columns(codec, got) == expect


@pytest.mark.parametrize("p", ALL_P)
def test_inconsistent_system_gives_none(p):
    codec, R = _Codec(p), GF(p)
    # rows (1, 1) and (-1, -1): b = (1, 0) is outside the column span
    grid = [[1, 1], [p - 1, p - 1]]
    A = Matrix.from_payload_rows(R, 2, 2, grid)
    assert reference_solve(p, grid, 2, [[1, 0]]) is None
    assert solve(R, A, columns_of(R, 2, [[1, 0]])) is None
    assert list_columns(codec, solve(R, A, columns_of(R, 2, [[1, p - 1]]))) == [[1, 0]]


@pytest.mark.parametrize("p", ALL_P)
def test_echelon_growth_matches_the_list_path(p):
    codec = _Codec(p)
    rng = random.Random(f"echelon:{p}")
    for n, count in [(1, 3), (6, 10), (15, 25)]:
        ref, span = ReferenceEchelon(p), _Echelon(codec)
        for _ in range(count):
            v = [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n)]
            if ref.rows and rng.random() < 0.3:  # a combination of kept rows
                w = [0] * n
                for r in ref.rows.values():
                    c = rng.randrange(p)
                    w = [(a + c * b) % p for a, b in zip(w, r)]
                v = w
            assert span.add(pack(codec, v)) == ref.add(v)
            # one row per key, zero above it and 1 there
            for h, row in span.rows.items():
                assert (row.bit_length() - 1) // codec.width == h
                assert row >> h * codec.width == 1
        assert len(span.rows) == len(ref.rows)


# ---------------------------------------------------------------------------
# algebras: the keep rule and Hom ranks


def algebra(p):
    return poly_quotient(f"F{p}", ["x", "y"], ["x^3", "x*y", "y^2"])


def random_payload(R, view, rng):
    x, y = R.variable("x"), R.variable("y")
    a = R.zero
    for m in view.std:
        if rng.random() < 0.5:
            a = a + R.from_int(rng.randrange(1, view.p)) * x ** m[0] * y ** m[1]
    return a.payload


def coords(view, entries):
    """The list coordinates of a vector of algebra payloads."""
    out = [0] * (len(entries) * view.dim)
    for i, a in enumerate(entries):
        for m, c in a:
            out[i * view.dim + view.index[m]] = c
    return out


def random_vectors(R, view, rng, n, count):
    vecs = [[random_payload(R, view, rng) for _ in range(n)] for _ in range(count)]
    # some vectors are multiples of earlier ones, which the keep rule drops
    for j in range(1, count, 3):
        a = random_payload(R, view, rng)
        vecs[j] = [R.mul_payload(a, e) for e in vecs[j - 1]]
    return vecs


@pytest.mark.parametrize("p", ALL_P)
def test_nakayama_keep_matches_the_list_path(p):
    R = algebra(p)
    view = _fp_view_of(R)
    codec = view.codec
    rng = random.Random(f"nakayama:{p}")
    multipliers = [((m, 1),) for m in view.std if sum(m) > 0]
    for n, count in [(1, 4), (2, 6), (3, 9)]:
        vecs = random_vectors(R, view, rng, n, count)
        ref = ReferenceEchelon(p)
        for m in multipliers:
            for v in vecs:
                ref.add(coords(view, [R.mul_payload(m, e) for e in v]))
        expect = [j for j, v in enumerate(vecs) if ref.add(coords(view, v))]
        packed = [pack(codec, coords(view, v)) for v in vecs]
        assert _nakayama_keep(view, packed, n) == expect


@pytest.mark.parametrize("p", ALL_P)
def test_the_non_local_keep_rule_matches_the_list_path(p):
    # F_p[x,y]/(x^2 - x, x*y, y^2) has the idempotent x: v_j is kept when
    # it lies outside R times the vectors kept before it
    R = poly_quotient(f"F{p}", ["x", "y"], ["x^2 - x", "x*y", "y^2"])
    view = _fp_view_of(R)
    assert not R.local
    rng = random.Random(f"non-local:{p}")
    for n, count in [(1, 4), (2, 6), (3, 9)]:
        vecs = random_vectors(R, view, rng, n, count)
        ref, expect = ReferenceEchelon(p), []
        for j, v in enumerate(vecs):
            if ref.add(coords(view, v)):
                expect.append(j)
                for b in view.basis:
                    ref.add(coords(view, [R.mul_payload(b, e) for e in v]))
        packed = [pack(view.codec, coords(view, v)) for v in vecs]
        assert _nakayama_keep(view, packed, n) == expect


def reference_dual_rank(R, view, gens, relations, d):
    """rank Hom(d, N), N = coker(relations), with N's F_p structure and the
    action on it computed from ring products and list eliminations."""
    p, D = view.p, view.dim
    ncoords = gens * D
    rel_cols = [[relations.data[i][j].payload for i in range(gens)]
                for j in range(relations.cols)]
    rows = [coords(view, [R.mul_payload(((m, 1),), e) for e in col])
            for m in view.std for col in rel_cols]
    pivots = reference_rref(p, rows, ncoords)
    rows = rows[:len(pivots)]
    free = [t for t in range(ncoords) if t not in set(pivots)]

    def project(v):
        for row, pc in zip(rows, pivots):
            x = v[pc] % p
            if x:
                v = [(a - x * b) % p for a, b in zip(v, row)]
        return [v[t] % p for t in free]

    def action(a):
        cols = []
        for t in free:
            unit = [()] * gens
            unit[t // D] = ((view.std[t % D], 1),)
            cols.append(project(coords(view, [R.mul_payload(a, e) for e in unit])))
        return cols

    n = len(free)
    if not n:
        return 0
    width = d.cols * n
    out = []
    for js, payloads in d.sparse_rows:
        block = [[0] * width for _ in range(n)]
        for l, a in zip(js, payloads):
            for c, col in enumerate(action(a)):
                block[c][l * n:(l + 1) * n] = col
        out.extend(r for r in block if any(r))
    return len(reference_rref(p, out, width))


def random_matrix(R, view, rows, cols, rng):
    return Matrix.from_rows(R, [[R.box(random_payload(R, view, rng)) if rng.random() < 0.6
                                 else R.zero for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("p", ALL_P)
def test_dual_rank_matches_the_list_path(p):
    R = algebra(p)
    view = _fp_view_of(R)
    rng = random.Random(f"dual-rank:{p}")
    x, y = R.variable("x"), R.variable("y")
    presentations = [
        (1, Matrix.from_rows(R, [[x, y]])),           # the residue field
        (1, Matrix.zeros(R, 1, 0)),                   # R itself
        (2, Matrix.from_rows(R, [[x, R.zero], [y, x * x]])),
        (2, random_matrix(R, view, 2, 2, rng)),
    ]
    for gens, relations in presentations:
        N = FpModule(view, gens, relations)
        for shape in [(gens, 1), (2, 3), (3, 2)]:
            rows = shape[0]
            d = random_matrix(R, view, rows, shape[1], rng)
            assert N.dual_rank(view.columns(d)) == reference_dual_rank(R, view, gens, relations, d)


@pytest.mark.parametrize("p", ALL_P)
def test_prime_field_dual_rank_is_the_rank_over_f_p(p):
    # over F_p itself Hom(d, F_p) is d transposed
    R = GF(p)
    rng = random.Random(f"prime-dual:{p}")
    grid = random_rows(p, 6, 8, 0.5, rng)
    d = Matrix.from_rows(R, [[R.from_int(c) for c in row] for row in grid])
    N = FpModule(_fp_view_of(R), 1, Matrix.zeros(R, 1, 0))
    assert N.dual_rank(_fp_view_of(R).columns(d)) == len(reference_rref(p, [list(r) for r in grid], 8))
