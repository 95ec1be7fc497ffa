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
from koszulkit.dgmodules import extension_action, is_k_linear
from koszulkit.errors import DimensionMismatch, MixedRings
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix, vanishes
from koszulkit.rings import GF, QQ, ZZ, RingElement, Zmod, poly_quotient

from helpers import (
    maximal_ideal_pool, random_element, random_minimal_complex,
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
        P = Matrix.from_entries(ring, m, m, [(i, perm[i], rng.choice((one, minus_one)))
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


@pytest.mark.parametrize("name", ["Z/12", "F2[x]/(x^3)", "F2[x,y]/(x,y)^2"])
def test_extension_action_matches_the_kron_blocks(name):
    ring = RINGS[name]
    rng = random.Random(f"extension:{name}")
    pool = maximal_ideal_pool(ring)
    for e in (0, 1, 2, 3):
        K = koszul(ring, [rng.choice(pool) for _ in range(e)])
        for P in (random_minimal_complex(ring, rng),
                  ChainComplex(ring, {0: 2, 2: 1}, {}),    # a zero-rank summand
                  ChainComplex(ring, {1: 1}, {})):
            for H in (S for d in K.basis.values() for S in d):
                for n in range(-2, max(P.support) + e + 2):
                    assert extension_action(K, P, H, n) \
                        == reference_extension_action(K, P, H, n), (e, H, n)


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
