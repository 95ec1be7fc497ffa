"""The check kernel `matrices.vanishes` and the row builder
`Matrix.from_kron_blocks` against what they replaced: the sum of products
built and tested for zero, the product-then-compare checks of chain maps,
contractions and K-linearity, and the tensor differential and extension
action assembled from Kronecker products with identity matrices (the
references of helpers.py)."""

import random

import pytest

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit.complexes import ChainComplex, ChainMap, Homotopy
from koszulkit.dgmodules import extend, extension_action, is_k_linear
from koszulkit.errors import DimensionMismatch, MixedRings
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix, vanishes
from koszulkit.rings import GF, QQ, ZZ, RingElement, Zmod, poly_quotient

from helpers import (
    matrix_from_entries, maximal_ideal_pool, random_element, random_minimal_complex,
    reference_extension_action, reference_is_chain_map, reference_is_contraction,
    reference_is_k_linear, reference_tensor_differential,
)

RINGS = {
    "Z": ZZ(),
    "Q": QQ(),
    "Z/12": Zmod(12),
    "F5": GF(5),
    "F3[x]": poly_quotient("F3", ["x"], []),
    "F2[x]/(x^3)": poly_quotient("F2", ["x"], ["x^3"]),
    "F3[x]/(x^2+1)": poly_quotient("F3", ["x"], ["x^2 + 1"]),
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
}
CASES = [(name, seed) for name in RINGS for seed in range(10)]


def element(ring, rng):
    """A seeded entry: zero half the time, often one or minus one, so the
    signed-permutation rows and their cancellations turn up."""
    roll = rng.random()
    if roll < 0.5:
        return ring.zero
    if roll < 0.75:
        return ring.one if rng.random() < 0.5 else -ring.one
    if ring.kind == "polyquot" and not ring.is_finite():
        p = ring.coeff.p
        return RingElement(ring, tuple(((e,), c) for e in range(2, -1, -1)
                                       if (c := rng.randrange(p))))
    return random_element(ring, rng)


def matrix(ring, rows, cols, rng):
    return Matrix.from_rows(ring, [[element(ring, rng) for _ in range(cols)]
                                   for _ in range(rows)]) if rows else Matrix.zeros(ring, 0, cols)


def product_sum(ring, rows, cols, terms):
    """The sum of c A B as a matrix, every product built."""
    acc = Matrix.zeros(ring, rows, cols)
    for c, A, B in terms:
        acc = acc + (A if B is None else A * B).scale(ring.box(c))
    return acc


def random_terms(ring, rows, cols, rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = element(ring, rng).payload
        if rng.random() < 0.3:
            terms.append((c, matrix(ring, rows, cols, rng), None))
        else:
            inner = rng.randint(0, 4)
            terms.append((c, matrix(ring, rows, inner, rng), matrix(ring, inner, cols, rng)))
    return terms


@pytest.mark.parametrize("name,seed", CASES)
def test_vanishes_matches_the_product_sum(name, seed):
    ring = RINGS[name]
    rng = random.Random(f"vanishes:{name}:{seed}")
    minus_one = ring.neg_payload(ring.one_payload)
    answers = set()
    for _ in range(12):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        terms = random_terms(ring, rows, cols, rng)
        S = product_sum(ring, rows, cols, terms)
        assert vanishes(ring, rows, cols, terms) == S.is_zero()
        answers.add(S.is_zero())
        # minus the built sum cancels it; one entry off does not
        assert vanishes(ring, rows, cols, terms + [(minus_one, S, None)])
        if rows and cols:
            i, j = rng.randrange(rows), rng.randrange(cols)
            grid = [list(r) for r in S.data]
            grid[i][j] = grid[i][j] + ring.one
            off = Matrix.from_rows(ring, grid)
            assert not vanishes(ring, rows, cols, terms + [(minus_one, off, None)])
    assert answers == {True, False}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_vanishes_on_cancelling_products(name):
    """A (B1 + B2) - A B1 - A B2 and P A P^-1-style signed permutations."""
    ring = RINGS[name]
    rng = random.Random(f"cancel:{name}")
    one = ring.one_payload
    minus_one = ring.neg_payload(one)
    for _ in range(10):
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        A, B1, B2 = matrix(ring, m, k, rng), matrix(ring, k, n, rng), matrix(ring, k, n, rng)
        assert vanishes(ring, m, n, [(one, A, B1 + B2), (minus_one, A, B1), (minus_one, A, B2)])
        # a signed permutation P: P A - (P A) = 0 row by row
        perm = list(range(m))
        rng.shuffle(perm)
        P = matrix_from_entries(ring, m, m, [(i, perm[i], rng.choice((one, minus_one)))
                                            for i in range(m)])
        assert vanishes(ring, m, k, [(one, P, A), (minus_one, P * A, None)])
        c = element(ring, rng).payload
        assert vanishes(ring, m, n, [(c, A, B1), (ring.neg_payload(c), A * B1, None)])


@pytest.mark.parametrize("name", sorted(RINGS))
def test_two_copies_of_one_row_cancel_only_under_opposite_factors(name):
    """c R + d R, the shape of the cancellation shortcut, for every pair of
    factors drawn from units and non-units."""
    ring = RINGS[name]
    rng = random.Random(f"two-rows:{name}")
    R = Matrix.from_rows(ring, [[ring.one, ring.zero, element(ring, rng)]])
    factors = {ring.one, -ring.one, ring.zero} | {element(ring, rng) for _ in range(6)}
    for c in factors:
        for d in factors:
            want = R.scale(c + d).is_zero()
            assert vanishes(ring, 1, 3, [(c.payload, R, None), (d.payload, R, None)]) == want
            assert vanishes(ring, 1, 3, [(c.payload, Matrix.identity(ring, 1), R),
                                         (d.payload, R, None)]) == want


@pytest.mark.parametrize("name", sorted(RINGS))
def test_vanishes_on_empty_shapes(name):
    ring = RINGS[name]
    rng = random.Random(f"empty:{name}")
    one = ring.one_payload
    for rows, inner, cols in [(0, 3, 2), (2, 3, 0), (0, 0, 0), (3, 0, 2), (0, 2, 0)]:
        A, B = matrix(ring, rows, inner, rng), matrix(ring, inner, cols, rng)
        assert vanishes(ring, rows, cols, [(one, A, B)])
        assert vanishes(ring, rows, cols, [(one, A * B, None), (one, A, B)]) \
            == product_sum(ring, rows, cols, [(one, A, B)] * 2).is_zero()
    assert vanishes(ring, 2, 3, [])


def test_vanishes_raises_what_the_product_raises():
    Z4, Z8 = Zmod(4), Zmod(8)
    one = Z4.one_payload
    A, B = Matrix.zeros(Z4, 2, 3), Matrix.zeros(Z4, 2, 2)
    with pytest.raises(DimensionMismatch) as product_error:
        A * B
    with pytest.raises(DimensionMismatch) as kernel_error:
        vanishes(Z4, 2, 2, [(one, A, B)])
    assert str(kernel_error.value) == str(product_error.value) == "2x3 * 2x2"
    C = Matrix.zeros(Z8, 3, 2)
    with pytest.raises(MixedRings) as product_error:
        A * C
    with pytest.raises(MixedRings) as kernel_error:
        vanishes(Z4, 2, 2, [(one, A, C)])
    assert str(kernel_error.value) == str(product_error.value)
    with pytest.raises(MixedRings):
        vanishes(Z8, 2, 2, [(one, A, Matrix.zeros(Z4, 3, 2))])
    # a term of another shape is the mismatch of a sum
    with pytest.raises(DimensionMismatch, match="2x2 \\+ 2x3"):
        vanishes(Z4, 2, 2, [(one, Matrix.identity(Z4, 2), None), (one, A, None)])
    with pytest.raises(DimensionMismatch, match="3x2 \\+ 2x2"):
        vanishes(Z4, 3, 2, [(one, A, Matrix.zeros(Z4, 3, 2))])


class _CountedRows(tuple):
    """Stored rows that record which rows are read."""

    def __new__(cls, rows, seen):
        obj = super().__new__(cls, rows)
        obj.seen = seen
        return obj

    def __getitem__(self, i):
        self.seen.add(i)
        return super().__getitem__(i)


def test_vanishes_answers_at_the_first_nonzero_row():
    Z4 = Zmod(4)
    one = Z4.one_payload
    seen = set()
    rows = _CountedRows([((0,), (1,))] + [((), ())] * 5, seen)
    assert not vanishes(Z4, 6, 1, [(one, Matrix(Z4, 6, 1, rows), None)])
    assert seen == {0}


# ---------------------------------------------------------------------------
# the row builders against the kron/from_blocks assembly


def _unvalidated_complex(ring, rng, ranks):
    """A complex of matrices with these ranks (zero ranks allowed) and
    random maps; tensor_differential takes any such complex."""
    diffs = {n: matrix(ring, ranks.get(n - 1, 0), r, rng) for n, r in ranks.items()
             if r and ranks.get(n - 1)}
    return ChainComplex(ring, ranks, diffs, _validated=True)


@pytest.mark.parametrize("name,seed", CASES)
def test_tensor_differential_matches_the_kron_blocks(name, seed):
    ring = RINGS[name]
    rng = random.Random(f"tensor:{name}:{seed}")
    for _ in range(3):
        M, N = (_unvalidated_complex(ring, rng, {n: rng.choice((0, 0, 1, 2, 3))
                                                 for n in range(rng.randint(-1, 1), 3)})
                for _ in range(2))
        for n in range(-3, 7):
            assert cx.tensor_differential(M, N, n) == reference_tensor_differential(M, N, n)


def test_from_kron_blocks_matches_kron_and_from_blocks():
    rng = random.Random("kron-blocks")
    for name, ring in RINGS.items():
        for _ in range(8):
            A = matrix(ring, rng.randint(0, 3), rng.randint(0, 3), rng)
            n = rng.randint(0, 3)
            negate = rng.random() < 0.5
            sign = ring.box(ring.neg_payload(ring.one_payload) if negate else ring.one_payload)
            left, right = A.kron(Matrix.identity(ring, n)), Matrix.identity(ring, n).kron(A)
            # the two blocks side by side, the second one below the first
            heights, widths = [left.rows, right.rows], [left.cols, right.cols]
            want = Matrix.from_blocks(ring, heights, widths,
                                      {(0, 0): left.scale(sign), (1, 1): right})
            got = Matrix.from_kron_blocks(ring, sum(heights), sum(widths), [
                (heights[0], widths[0], n, A, False), (0, 0, A, n, negate)])
            assert got == want, name


def _kron_block(ring, left, right, negate):
    """The block a from_kron_blocks tuple stands for, built by kron."""
    if isinstance(left, int):
        block = Matrix.identity(ring, left).kron(right)
    else:
        block = left.kron(Matrix.identity(ring, right))
    return -block if negate else block


def dense_kron_reference(ring, rows, cols, blocks):
    """The rows x cols matrix with each block written into a dense grid."""
    grid = [[ring.zero] * cols for _ in range(rows)]
    for r0, c0, *spec in blocks:
        block = _kron_block(ring, *spec)
        for i, line in enumerate(block.data):
            for j, x in enumerate(line):
                grid[r0 + i][c0 + j] = x
    return Matrix.from_rows(ring, grid) if rows else Matrix.zeros(ring, 0, cols)


def assert_stored_form(M):
    """One (columns, payloads) pair per row: columns strictly increasing and
    below M.cols, one payload each, and no zero payload."""
    assert len(M.sparse_rows) == M.rows
    for cs, vs in M.sparse_rows:
        assert len(cs) == len(vs)
        assert all(0 <= a < b for a, b in zip(cs, cs[1:]))
        assert all(0 <= c < M.cols for c in cs)
        assert all(vs)


@pytest.mark.parametrize("name", list(RINGS))
def test_from_kron_blocks_joins_shared_rows(name):
    """One row band takes 1-6 blocks of both kinds, given in shuffled order,
    negated or not, with n = 0 and 1 and matrices with no rows among them;
    each layout equals the dense kron reference and is stored canonically."""
    ring = RINGS[name]
    rng = random.Random(f"shared-rows:{name}")
    for _ in range(30):
        band = rng.randint(1, 6)
        blocks, c0 = [], rng.randint(0, 2)
        for _ in range(rng.randint(1, 6)):
            n = rng.choice((0, 1, 1, 2, 3))
            h = rng.randint(0, band // n) if n else rng.randint(0, 3)
            A = matrix(ring, h, rng.randint(0, 3), rng)
            r0 = rng.randint(0, band - h * n)
            spec = (n, A) if rng.random() < 0.5 else (A, n)
            blocks.append((r0, c0, *spec, rng.random() < 0.5))
            c0 += A.cols * n + rng.randint(0, 2)
        rows, cols = band + rng.randint(0, 2), c0 + rng.randint(0, 2)
        rng.shuffle(blocks)
        got = Matrix.from_kron_blocks(ring, rows, cols, blocks)
        assert got == dense_kron_reference(ring, rows, cols, blocks), blocks
        assert_stored_form(got)


def test_from_kron_blocks_joins_a_row_of_300_blocks():
    ring = RINGS["Z/12"]
    rng = random.Random("300-blocks")
    blocks = [(0, j, matrix(ring, 1, 1, rng), 1, rng.random() < 0.5) for j in range(300)]
    rng.shuffle(blocks)
    got = Matrix.from_kron_blocks(ring, 1, 300, blocks)
    assert got == dense_kron_reference(ring, 1, 300, blocks)
    assert_stored_form(got)
    assert len(got.sparse_rows[0][0]) == sum(1 for *_, A, _, _ in blocks if not A.is_zero())


def test_from_kron_blocks_rejects_blocks_outside_the_frame_or_overlapping():
    ring = Zmod(4)
    A, I3 = Matrix.identity(ring, 2), Matrix.identity(ring, 3)
    Z = Matrix.zeros(ring, 2, 2)
    bad = [
        (2, 2, [(0, 1, A, 1, False)]),                        # columns 1-2 of 2
        (2, 2, [(1, 0, A, 1, False)]),                        # rows 1-2 of 2
        (2, 4, [(0, -1, A, 1, False)]),                       # a negative offset
        (4, 4, [(0, 0, 2, I3, False)]),                       # I_2 (x) I_3 is 6x6
        (2, 4, [(0, 0, A, 1, False), (0, 1, A, 1, False)]),   # columns 1 and 2 twice
        (2, 4, [(0, 1, A, 1, False), (0, 0, A, 1, False)]),   # the same, given later
        (3, 4, [(1, 0, A, 1, False), (0, 1, Z, 1, False)]),   # a zero block still covers
        (4, 4, [(0, 0, A, 2, False), (2, 2, Z, 1, False)]),   # inside A (x) I_2
    ]
    for rows, cols, blocks in bad:
        with pytest.raises(DimensionMismatch):
            Matrix.from_kron_blocks(ring, rows, cols, blocks)
    # blocks that only touch, and empty blocks on the frame's edge, are fine
    got = Matrix.from_kron_blocks(ring, 2, 4, [
        (0, 2, A, 1, True), (0, 0, A, 1, False), (2, 4, A, 0, False), (0, 4, 0, A, False)])
    assert got == Matrix.from_blocks(ring, [2], [2, 2], {(0, 0): A, (0, 1): -A})


@pytest.mark.parametrize("name", ["Z/12", "F2[x]/(x^3)", "F2[x,y]/(x,y)^2"])
def test_extension_action_matches_the_kron_blocks(name):
    ring = RINGS[name]
    rng = random.Random(f"extension:{name}")
    pool = maximal_ideal_pool(ring)
    gapped = ChainComplex(ring, {-1: 1, 0: 2, 2: 1}, {   # a gap and negative support
        0: Matrix.from_rows(ring, [[pool[0], pool[-1]]])})
    for e in (0, 1, 2, 3, 4):
        K = koszul(ring, [rng.choice(pool) for _ in range(e)])
        complexes = [gapped] if e == 4 else [
            random_minimal_complex(ring, rng),
            ChainComplex(ring, {0: 2, 2: 1}, {}),    # a zero-rank summand
            ChainComplex(ring, {1: 1}, {}), gapped]
        for P in complexes:
            D = extend(K, P)
            under = D.underlying
            degrees = range(min(P.support) - 2, max(P.support) + e + 2)
            for H in (S for d in K.basis.values() for S in d):
                # extend stores the actions between nonzero degrees, no others
                stored = [n for n in degrees if under.rank(n) and under.rank(n + len(H))]
                assert list(D.action[H]) == stored, (e, H)
                for n in degrees:
                    want = reference_extension_action(K, P, H, n)
                    assert extension_action(K, P, H, n) == want, (e, H, n)
                    if n in stored:
                        assert D.action[H][n] == want, (e, H, n)


# ---------------------------------------------------------------------------
# planted single-entry errors: the checks answer as the product route does


def _planted(M, rng):
    """M with one seeded entry moved by one, or None when M is empty."""
    if not (M.rows and M.cols):
        return None
    grid = [list(r) for r in M.data]
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    grid[i][j] = grid[i][j] + M.ring.one
    return Matrix.from_rows(M.ring, grid)


@pytest.mark.parametrize("name", ["Z/4", "F2[x]/(x^2)"])
def test_planted_errors_in_maps_and_contractions(name):
    ring = Zmod(4) if name == "Z/4" else poly_quotient("F2", ["x"], ["x^2"])
    rng = random.Random(f"planted:{name}")
    pool = maximal_ideal_pool(ring)
    K = koszul(ring, [rng.choice(pool) for _ in range(2)])
    P = cx.make_complex(ring, {0: 1, 1: 2, 2: 1}, {
        1: Matrix.from_rows(ring, [[pool[1], pool[1]]]),
        2: Matrix.from_rows(ring, [[pool[1]], [-pool[1]]])})
    system = ds.generate_system(K, P)
    cert = ds.reconstruct(K, system, ds.canonical_solution(K, P))
    phi, sigma, C = cert.phi, cert.sigma, cx.cone(cert.phi)
    assert is_k_linear(phi, cert.module_side, cert.extension)
    failures = {"chain": 0, "linear": 0, "contraction": 0}
    for _ in range(40):
        n = rng.choice(sorted(phi.components))
        bad = _planted(phi.components[n], rng)
        psi = ChainMap(phi.source, phi.target, {**phi.components, n: bad})
        chain = cx.is_chain_map(psi)
        assert chain == reference_is_chain_map(psi)
        linear = is_k_linear(psi, cert.module_side, cert.extension)
        assert linear == reference_is_k_linear(psi, cert.module_side, cert.extension)
        failures["chain"] += not chain
        failures["linear"] += not linear
        n = rng.choice(sorted(sigma.components))
        bad = _planted(sigma.components[n], rng)
        if bad is None:
            continue
        tau = Homotopy({**sigma.components, n: bad}, "contraction")
        contraction = cx.is_contraction(tau, C)
        assert contraction == reference_is_contraction(tau, C)
        failures["contraction"] += not contraction
    assert min(failures.values()) >= 10, failures
