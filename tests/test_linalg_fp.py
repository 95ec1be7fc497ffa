"""The prime-field path of linalg against brute-force enumeration and sympy.

GF(2) packs one bit per coordinate, GF(3) and GF(7) one byte.  Shapes
cover 0 x k, k x 0, rank-deficient, full-rank and rectangular matrices.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.linalg import (
    howell_form, kernel_basis, kernel_cardinality, row_echelon, smith_form, solve,
    span_cardinality, subquotient,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF

from helpers import (
    brute_force_kernel, random_invertible, random_matrix, span_of_columns,
)

# column counts that keep the p^cols enumerations small
WIDTH = {2: 5, 3: 4, 7: 3}


def cases(R, rng):
    n = WIDTH[R.modulus]
    yield Matrix.zeros(R, 0, n)
    yield Matrix.zeros(R, n, 0)
    yield Matrix.zeros(R, 2, n)
    yield random_invertible(R, n, rng)
    yield random_matrix(R, n, 1, rng) * random_matrix(R, 1, n, rng)
    yield random_matrix(R, n + 1, 2, rng) * random_matrix(R, 2, n, rng)
    yield random_matrix(R, 2, n, rng)
    yield random_matrix(R, n + 1, n - 1, rng)
    for _ in range(6):
        yield random_matrix(R, rng.randint(1, n + 1), rng.randint(1, n), rng)


def payload_columns(B):
    return [tuple(B.data[i][j].payload for i in range(B.rows)) for j in range(B.cols)]


@pytest.mark.parametrize("p", [2, 3, 7])
def test_fp_path_matches_enumeration(p):
    R = GF(p)
    rng = random.Random(p)
    for A in cases(R, rng):
        kernel = brute_force_kernel(R, A)
        span = span_of_columns(R, A)
        K = kernel_basis(R, A)
        assert K.rows == A.cols
        assert span_of_columns(R, K) == kernel
        assert len(kernel) == p ** K.cols  # a basis, not just generators
        assert kernel_cardinality(R, A) == len(kernel)
        assert span_cardinality(R, A) == len(span)
        for B in (A * random_matrix(R, A.cols, 2, rng),
                  random_matrix(R, A.rows, 1, rng),
                  random_matrix(R, A.rows, 2, rng)):
            X = solve(R, A, B)
            assert (X is None) == any(c not in span for c in payload_columns(B))
            if X is not None:
                assert (X.rows, X.cols) == (A.cols, B.cols) and A * X == B
        W = A * random_matrix(R, A.cols, 2, rng)
        h = subquotient(R, A, W)
        quotient = len(span) // len(span_of_columns(R, W))
        assert p ** h.dimension == h.cardinality == quotient
        assert h.is_zero == (quotient == 1)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_normal_forms_over_prime_fields_keep_certificates(p):
    R = GF(p)
    rng = random.Random(100 + p)
    for A in cases(R, rng):
        for nf in (smith_form, row_echelon, howell_form):
            assert nf(R, A).verify()


@given(p=st.sampled_from([2, 3, 7]), rows=st.integers(0, 24),
       cols=st.integers(0, 24), inner=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_and_nullity_match_sympy(p, rows, cols, inner, seed):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    R = GF(p)
    rng = random.Random(seed)
    # a product through `inner` columns makes low ranks common
    A = random_matrix(R, rows, inner, rng) * random_matrix(R, inner, cols, rng)
    K = sympy.GF(p)
    rank = DomainMatrix([[K(x.payload) for x in r] for r in A.data],
                        (rows, cols), K).rank()
    assert span_cardinality(R, A) == p ** rank
    assert kernel_cardinality(R, A) == p ** (cols - rank)
    basis = kernel_basis(R, A)
    assert basis.cols == cols - rank and (A * basis).is_zero()
    X0 = random_matrix(R, cols, 2, rng)
    X = solve(R, A, A * X0)
    assert X is not None and A * X == A * X0
