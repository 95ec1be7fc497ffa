import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.errors import CapabilityMissing, DimensionMismatch, MixedRings, NotAComplex
from koszulkit.linalg import (
    homology_module, howell_form, image_membership, kernel_basis, kernel_cardinality,
    minimal_generators, row_echelon, smith_form, solve, span_cardinality, subquotient,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, QQ, ZZ, RingElement, Zmod, parse_element, poly_quotient

from helpers import brute_force_kernel, random_matrix, span_of_columns

Z = ZZ()
Z4 = Zmod(4)
Z12 = Zmod(12)
F5 = GF(5)
QUAD = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])


# --- kernels: derived oracle values frozen from enumeration ---

def test_kernel_f5_enumeration_oracle():
    A = mat(F5, [[1, 2]])
    K = kernel_basis(F5, A)
    assert (A * K).is_zero()
    # enumeration of F5^2 gives exactly the multiples of (3, 1)
    assert span_of_columns(F5, K) == brute_force_kernel(F5, A)
    assert K.cols == 1


def test_kernel_z4_enumeration_oracle():
    A = mat(Z4, [[2]])
    K = kernel_basis(Z4, A)
    assert span_of_columns(Z4, K) == {(0,), (2,)}


def test_kernel_of_identity_trivial():
    K = kernel_basis(Z, Matrix.identity(Z, 3))
    assert K.cols == 0


def test_solve_examples():
    assert solve(Z, mat(Z, [[2]]), mat(Z, [[3]])) is None
    x = solve(Z4, mat(Z4, [[2]]), mat(Z4, [[2]]))
    assert x is not None and (mat(Z4, [[2]]) * x) == mat(Z4, [[2]])
    # invertible over a field: unique solution
    A = mat(F5, [[1, 2], [3, 4]])
    b = mat(F5, [[1], [0]])
    x = solve(F5, A, b)
    assert (A * x) == b


def test_capability_missing_for_rational_function_style_rings():
    R = poly_quotient("Q", ["x", "y"])
    with pytest.raises(CapabilityMissing):
        kernel_basis(R, Matrix.identity(R, 1))


# --- normal forms with certificates ---

def test_smith_certificate_and_divisibility():
    rng = random.Random(3)
    for _ in range(100):
        A = random_matrix(Z, rng.randint(1, 4), rng.randint(1, 4), rng)
        nf = smith_form(Z, A)
        assert nf.verify()
        diag = [abs(x.payload) for x in nf.diagonal() if x.payload != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_smith_over_polynomial_ring():
    F2t = poly_quotient("F2", ["t"])
    t = F2t.variable("t")
    A = Matrix.from_rows(F2t, [[t, t * t], [F2t.one, t]])
    nf = smith_form(F2t, A)
    assert nf.verify()


def test_echelon_certificate():
    rng = random.Random(5)
    for _ in range(60):
        A = random_matrix(F5, rng.randint(1, 4), rng.randint(1, 4), rng)
        nf = row_echelon(F5, A)
        assert nf.verify()


def test_howell_certificate_and_canonicity():
    rng = random.Random(7)
    for _ in range(60):
        A = random_matrix(Z12, rng.randint(1, 3), rng.randint(1, 3), rng)
        hf = howell_form(Z12, A)
        assert hf.verify()
        # mixing rows by an invertible matrix preserves the form
        U = None
        while U is None:
            cand = random_matrix(Z12, A.rows, A.rows, rng)
            # a square matrix over a commutative ring with a right inverse
            # is invertible
            if solve(Z12, cand, Matrix.identity(Z12, A.rows)) is not None:
                U = cand
        hf2 = howell_form(Z12, U * A)
        assert hf2.matrix == hf.matrix


def test_normal_form_dispatch():
    # each ring tier has its normal form, and each form refuses the rings
    # it is not for
    for nf, ring, form in ((row_echelon, F5, "echelon"), (smith_form, Z, "smith"),
                           (howell_form, Z12, "howell")):
        result = nf(ring, Matrix.identity(ring, 2))
        assert result.form == form and result.verify()
    for nf, ring in ((row_echelon, Z), (row_echelon, Z12), (smith_form, Z12),
                     (howell_form, Z), (smith_form, QUAD)):
        with pytest.raises(CapabilityMissing):
            nf(ring, Matrix.identity(ring, 2))


# --- brute-force kernel agreement over Z/12 ---

def test_howell_kernels_agree_with_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        A = random_matrix(Z12, rng.randint(1, 3), rng.randint(1, 3), rng)
        K = kernel_basis(Z12, A)
        assert span_of_columns(Z12, K) == brute_force_kernel(Z12, A)


# --- homology ---

def test_homology_koszul_over_z():
    d1 = mat(Z, [[2]])
    h0 = homology_module(Z, d1, Matrix.zeros(Z, 0, 1))
    assert h0.invariant_factors == (Z.from_int(2),) and h0.free_rank == 0
    h1 = homology_module(Z, Matrix.zeros(Z, 1, 0), d1)
    assert h1.is_zero


def test_homology_koszul_over_z4():
    d1 = mat(Z4, [[2]])
    h0 = homology_module(Z4, d1, Matrix.zeros(Z4, 0, 1))
    h1 = homology_module(Z4, Matrix.zeros(Z4, 1, 0), d1)
    assert h0.cardinality == 2 and h1.cardinality == 2
    assert h0.invariant_factors == (2,)


def test_homology_rejects_non_complex():
    with pytest.raises(NotAComplex):
        homology_module(Z, mat(Z, [[2]]), mat(Z, [[3]]))


def test_exact_pair_has_zero_homology():
    d = Matrix.identity(F5, 2)
    h = homology_module(F5, d, Matrix.zeros(F5, 0, 2))
    assert h.is_zero


def test_is_zero_matches_solve_membership():
    rng = random.Random(13)
    for _ in range(80):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        d_in = random_matrix(Z12, rows, cols, rng)
        V = kernel_basis(Z12, Matrix.zeros(Z12, 0, rows))
        h = subquotient(Z12, V, d_in)
        assert h.is_zero == image_membership(Z12, V, d_in)


def test_cardinalities_over_expansion_ring():
    x = parse_element(QUAD, "x")
    y = parse_element(QUAD, "y")
    A = Matrix.from_rows(QUAD, [[x, y]])
    assert kernel_cardinality(QUAD, A) == 16
    K = kernel_basis(QUAD, A)
    assert span_cardinality(QUAD, K) == 16
    assert (A * K).is_zero()


def test_minimal_generators_drops_redundant():
    two = Z4.from_int(2)
    M = Matrix.from_rows(Z4, [[two, two]])
    assert minimal_generators(Z4, M).cols == 1
    # over the expansion ring
    x = parse_element(QUAD, "x")
    M2 = Matrix.from_rows(QUAD, [[x, x]])
    assert minimal_generators(QUAD, M2).cols == 1


def test_solve_multi_column():
    A = mat(Z4, [[2, 1], [0, 2]])
    B = Matrix.identity(Z4, 2)
    X = solve(Z4, A, B)
    if X is not None:
        assert A * X == B


def test_matrix_multiplication_algebra():
    rng = random.Random(29)
    for _ in range(60):
        a, b, c, d = (rng.randint(1, 3) for _ in range(4))
        A = random_matrix(Z4, a, b, rng)
        B = random_matrix(Z4, b, c, rng)
        C = random_matrix(Z4, c, d, rng)
        assert (A * B) * C == A * (B * C)
        B2 = random_matrix(Z4, b, c, rng)
        assert A * (B + B2) == A * B + A * B2
        assert (B + B2) * C == B * C + B2 * C


def test_block_assembly_shapes():
    B = mat(Z4, [[2, 0], [0, 2]])
    Y = Matrix.identity(Z4, 2)
    U = mat(Z4, [[2, 0]])
    cone_style = Matrix.block([
        [B, Y],
        [Matrix.zeros(Z4, 1, 2), U.scale(-Z4.one)],
    ])
    assert (cone_style.rows, cone_style.cols) == (3, 4)
    assert cone_style[(0, 2)] == Z4.one and cone_style[(2, 2)] == Z4.from_int(2)
    with pytest.raises(Exception):
        Matrix.block([[B, mat(Z4, [[1]])]])
    assert Matrix.identity(Z4, 3)[(1, 1)] == Z4.one
    assert Matrix.identity(Z4, 3)[(0, 1)] == Z4.zero


def test_from_blocks_sparse_assembly():
    B = mat(Z4, [[2, 0], [0, 2]])
    U = mat(Z4, [[2, 1]])
    M = Matrix.from_blocks(Z4, [2, 1], [2, 2], {(0, 1): B, (1, 0): U})
    assert M == Matrix.block([[Matrix.zeros(Z4, 2, 2), B],
                              [U, Matrix.zeros(Z4, 1, 2)]])
    # a dense grid gives what Matrix.block gives
    rng = random.Random(3)
    grid = [[random_matrix(Z4, h, w, rng) for w in (1, 0, 3)] for h in (2, 0, 1)]
    dense = {(i, j): m for i, row in enumerate(grid) for j, m in enumerate(row)}
    assert Matrix.from_blocks(Z4, [2, 0, 1], [1, 0, 3], dense) == Matrix.block(grid)
    # zero heights and widths, and no blocks at all
    assert Matrix.from_blocks(Z4, [0, 0], [3], {}) == Matrix.zeros(Z4, 0, 3)
    assert Matrix.from_blocks(Z4, [2], [0, 0], {}) == Matrix.zeros(Z4, 2, 0)
    assert Matrix.from_blocks(Z4, [], [], {}) == Matrix.zeros(Z4, 0, 0)
    assert Matrix.from_blocks(Z4, [1, 2], [2], {}) == Matrix.zeros(Z4, 3, 2)
    with pytest.raises(DimensionMismatch):
        Matrix.from_blocks(Z4, [2, 1], [2, 2], {(1, 1): B})
    with pytest.raises(DimensionMismatch):
        Matrix.from_blocks(Z4, [2], [2], {(1, 0): B})
    with pytest.raises(MixedRings):
        Matrix.from_blocks(Z4, [2], [2], {(0, 0): Matrix.identity(Zmod(8), 2)})


def test_throwaway_rings_leave_no_module_level_cache_behind():
    modules = [m for name, m in sys.modules.items() if name.startswith("koszulkit")]

    def container_sizes():
        sizes = {}
        for m in modules:
            for name, obj in vars(m).items():
                if isinstance(obj, (dict, list, set)):
                    sizes[m.__name__, name] = len(obj)
                elif isinstance(obj, type) and obj.__module__ == m.__name__:
                    for attr, val in vars(obj).items():
                        if isinstance(val, (dict, list, set)):
                            sizes[m.__name__, name, attr] = len(val)
        return sizes

    before = container_sizes()
    refs = []
    for _ in range(2000):
        R = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
        A = Matrix.from_rows(R, [[R.variable("x"), R.variable("y")]])
        assert kernel_cardinality(R, A) == 16
        refs.append(weakref.ref(R))
    del R, A
    gc.collect()
    assert container_sizes() == before
    assert not any(ref() is not None for ref in refs)


def test_elimination_builds_no_ring_elements(monkeypatch):
    """Every engine computes on payloads and hands them to Matrix directly."""
    rng = random.Random(12)
    F2x = poly_quotient("F2", ["x"], ["x^3"])
    calls = []
    for ring, ops in ((Z, (kernel_basis, solve, smith_form)),
                      (Zmod(8), (kernel_basis, solve, howell_form)),
                      (QQ(), (kernel_basis, solve, smith_form, row_echelon)),
                      (GF(7), (kernel_basis, solve, smith_form, row_echelon, howell_form)),
                      (F2x, (kernel_basis, solve))):
        A = random_matrix(ring, 5, 6, rng)
        B = A * random_matrix(ring, 6, 2, rng)
        calls += [(op, ring, (A, B) if op is solve else (A,)) for op in ops]
    built = []
    init = RingElement.__init__

    def counting(self, ring, payload):
        built.append(payload)
        init(self, ring, payload)

    monkeypatch.setattr(RingElement, "__init__", counting)
    results = [op(ring, *args) for op, ring, args in calls]
    monkeypatch.undo()
    assert built == []
    for (op, ring, args), res in zip(calls, results):
        if op is kernel_basis:
            assert (args[0] * res).is_zero()
        elif op is solve:
            assert args[0] * res == args[1]
        else:
            assert res.verify()
