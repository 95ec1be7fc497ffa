import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import complexes as cx
from koszulkit.errors import NotAComplex, NotLocal
from koszulkit.koszul import koszul
from koszulkit.linalg import solve
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, RingHom, ZZ, Zmod, poly_quotient

from helpers import (
    cone_contraction_of_identity, identity_map, invert, is_null_homotopy, random_bounded_complex,
)

Z = ZZ()
Z4 = Zmod(4)
Z9 = Zmod(9)
F5 = GF(5)


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])


def koszul_23():
    return cx.make_complex(Z, {0: 1, 1: 2, 2: 1}, {
        1: mat(Z, [[2, 3]]),
        2: mat(Z, [[-3], [2]]),
    })


def two_complex(ring=Z):
    return cx.make_complex(ring, {0: 1, 1: 1}, {1: mat(ring, [[2]])})


def test_make_complex_valid():
    M = koszul_23()
    assert M.support == (0, 1, 2)
    assert (M.diff(1) * M.diff(2)).is_zero()


def test_make_complex_rejects_non_complex():
    with pytest.raises(NotAComplex) as err:
        cx.make_complex(Z, {0: 1, 1: 1, 2: 1},
                        {1: mat(Z, [[2]]), 2: mat(Z, [[3]])})
    assert err.value.degree == 1


def test_shift_identities():
    M = koszul_23()
    assert cx.shift(M, 0) == M
    assert cx.shift(cx.shift(M, 1), 1) == cx.shift(M, 2)
    S = cx.shift(two_complex(), 1)
    assert S.diff(2) == mat(Z, [[-2]])
    # double shift restores the sign
    assert cx.shift(M, 2).diff(3) == M.diff(1)


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_shift_composes(a, b):
    M = koszul_23()
    assert cx.shift(cx.shift(M, a), b) == cx.shift(M, a + b)


def test_truncations():
    K = koszul_23()
    tb = cx.truncate_below(K, 1)
    assert [tb.rank(n) for n in (0, 1, 2)] == [0, 2, 1]
    assert tb.diff(1).is_zero()
    # keeping everything
    assert cx.truncate_below(K, -5) == K
    assert cx.truncate_above(K, 5) == K
    # a window that misses the support entirely
    assert cx.truncate_above(cx.truncate_below(K, 2), 1).is_zero_complex()


def test_tensor_unit():
    R0 = cx.free_module_complex(Z, 1)
    N = koszul_23()
    assert cx.tensor(R0, N) == N
    assert cx.tensor(N, R0) == N


def test_tensor_block_signs_by_hand():
    # K(2) (x) (Z --3--> Z): expanding the block formula by hand gives
    # d1 = [2, 3] and d2 = [[-3], [2]], and d1 d2 = 0
    K2 = two_complex()
    N3 = cx.make_complex(Z, {0: 1, 1: 1}, {1: mat(Z, [[3]])})
    T = cx.tensor(K2, N3)
    assert T.diff(1) == mat(Z, [[2, 3]])
    assert T.diff(2) == mat(Z, [[-3], [2]])
    assert (T.diff(1) * T.diff(2)).is_zero()


def test_tensor_is_koszul_on_concatenated_sequences():
    Ka = koszul(Z4, [Z4.from_int(2)])
    Kb = koszul(Z4, [Z4.from_int(2), Z4.from_int(2)])
    T = cx.tensor(Ka.complex, koszul(Z4, [Z4.from_int(2)]).complex)
    assert [T.rank(n) for n in (0, 1, 2)] == [Kb.complex.rank(n) for n in (0, 1, 2)]


def test_hom_complex_unit():
    R0 = cx.free_module_complex(Z, 1)
    N = koszul_23()
    assert cx.hom_complex(R0, N) == N


def test_hom_self_identity_class():
    # chain self-maps of Z --2--> Z: cycles are the diagonal pairs, and the
    # identity class generates H_0 = Z/2
    M = two_complex()
    H = cx.hom_complex(M, M)
    h0 = cx.homology(H, 0)
    assert not h0.is_zero
    assert h0.free_rank == 0 and tuple(f.payload for f in h0.invariant_factors) == (2,)
    # the identity (1, 1) is a cycle and not a boundary
    d0 = H.diff(0)
    idvec = Matrix.from_rows(Z, [[Z.one], [Z.one]])
    assert (d0 * idvec).is_zero()
    assert solve(Z, H.diff(1), idvec) is None


def test_cone_of_identity_contracts():
    M = koszul_23()
    phi = identity_map(M)
    C = cx.cone(phi)
    sigma = cone_contraction_of_identity(M)
    assert cx.is_contraction(sigma, C)
    assert cx.is_quasi_iso(phi, homotopy=sigma)
    assert cx.is_quasi_iso(phi)


def test_null_homotopy_check():
    # on a contractible complex the contraction witnesses id ~ 0
    M = koszul_23()
    C = cx.cone(identity_map(M))
    sigma = cone_contraction_of_identity(M)
    null = cx.Homotopy(sigma.components, "null")
    assert is_null_homotopy(null, identity_map(C))
    # the same sigma does not witness the zero map (d sigma + sigma d = 1)
    assert not is_null_homotopy(null, cx.ChainMap(C, C, {}))


def test_cone_of_zero_map_splits():
    M = two_complex(Z4)
    zero = cx.ChainMap(M, M, {})
    C = cx.cone(zero)
    for n in C.degrees():
        assert C.rank(n) == M.rank(n) + M.rank(n - 1)


def test_chain_map_checks():
    M = koszul_23()
    assert cx.is_chain_map(cx.ChainMap(M, M, {}))
    assert cx.is_chain_map(identity_map(M))
    # perturbing a valid contraction by a unit breaks the identity
    phi = identity_map(M)
    sigma = cone_contraction_of_identity(M)
    C = cx.cone(phi)
    n0 = next(iter(sigma.components))
    bad = dict(sigma.components)
    rows = [list(r) for r in bad[n0].data]
    rows[0][0] = rows[0][0] + Z.one
    bad[n0] = Matrix.from_rows(Z, rows)
    assert not cx.is_contraction(cx.Homotopy(bad, "contraction"), C)


def test_base_change():
    K2 = two_complex()
    h = RingHom(Z, Z4)
    M4 = cx.base_change(h, K2)
    assert M4.ring == Z4 and M4.diff(1) == mat(Z4, [[2]])
    # identity homomorphism keeps the complex
    assert cx.base_change(RingHom.identity(Z), K2) == K2
    # 2 dies in F2
    hF = RingHom(Z, GF(2))
    assert cx.base_change(hF, K2).diff(1).is_zero()
    # koszul commutes with base change
    KZ = koszul(Z, [Z.from_int(2)])
    from koszulkit.koszul import koszul_base_change
    K4 = koszul_base_change(h, KZ)
    assert K4.complex == cx.base_change(h, KZ.complex)


def test_sup_inf():
    K4 = two_complex(Z4)
    bounds = cx.sup_inf(K4)
    assert (bounds.sup, bounds.inf) == (1, 0)
    exact = cx.make_complex(F5, {0: 1, 1: 1}, {1: Matrix.identity(F5, 1)})
    assert cx.sup_inf(exact).acyclic


def test_inf_equality_and_sup_sandwich_small_sample():
    # the bounds require the sequence to sit inside the maximal ideal
    rng = random.Random(31)
    for ring in (F5, Z9):
        pool = [a for a in ring.elements() if not a.is_unit()]
        for _ in range(25):
            M = random_bounded_complex(ring, rng)
            e = rng.randint(0, 2)
            K = koszul(ring, [pool[rng.randrange(len(pool))] for _ in range(e)])
            bm = cx.sup_inf(M)
            bt = cx.sup_inf(cx.tensor(K.complex, M))
            if bm.acyclic:
                assert bt.acyclic
                continue
            assert bt.inf == bm.inf
            assert bm.sup <= bt.sup <= bm.sup + e


def test_is_minimal():
    A = two_complex(Z4)
    assert cx.is_minimal(A)
    B = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[1]])})
    assert not cx.is_minimal(B)
    R = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    x = R.variable("x")
    C = cx.make_complex(R, {0: 1, 1: 1}, {1: Matrix.from_rows(R, [[x]])})
    assert cx.is_minimal(C)
    with pytest.raises(NotLocal):
        cx.is_minimal(two_complex(Z))


def test_augment_by_resolution_field():
    # over a field the kernel is free and one extra degree suffices
    A = cx.make_complex(F5, {0: 1, 1: 2}, {1: mat(F5, [[1, 2]])})
    M = cx.augment_by_resolution(A, 1, depth_budget=4)
    assert cx.homology(M, 1).is_zero
    assert max(M.support) == 2


def test_augment_by_resolution_chain():
    A = two_complex(Z4)
    M = cx.augment_by_resolution(A, 1, depth_budget=3)
    for n in (2, 3, 4):
        assert M.diff(n) == mat(Z4, [[2]])
    for n in (1, 2, 3):
        assert cx.homology(M, n).is_zero


def test_augment_exact_input_unchanged():
    A = cx.make_complex(F5, {0: 1, 1: 1}, {1: Matrix.identity(F5, 1)})
    M = cx.augment_by_resolution(A, 1, depth_budget=3)
    assert M == A


def test_cone_exactness_matches_homology_comparison():
    # quasiisomorphism (exact cone) forces equal homology; a map that fails
    # to be one shows both a non-exact cone and a homology mismatch
    M = two_complex(Z4)
    ident = identity_map(M)
    assert cx.is_quasi_iso(ident)
    for n in M.degrees():
        assert cx.homology(M, n).same_as(cx.homology(M, n))
    zero = cx.ChainMap(M, M, {})
    assert not cx.is_quasi_iso(zero)
    C = cx.cone(zero)
    assert not cx.sup_inf(C).acyclic
    # a quasi-iso between different presentations: conjugate by a unit
    rng = random.Random(51)
    g0 = mat(Z4, [[3]])
    g1 = mat(Z4, [[1]])
    conj = cx.make_complex(Z4, {0: 1, 1: 1},
                           {1: invert(Z4, g0) * M.diff(1) * g1})
    phi = cx.ChainMap(conj, M, {0: g0, 1: g1})
    assert cx.is_chain_map(phi)
    assert cx.is_quasi_iso(phi)
    for n in M.degrees():
        assert cx.homology(conj, n).same_as(cx.homology(M, n))


def test_tensor_evaluation_cardinalities_small():
    rng = random.Random(41)
    for _ in range(8):
        M = random_bounded_complex(Z4, rng, max_degrees=2)
        N = random_bounded_complex(Z4, rng, max_degrees=2)
        K = koszul(Z4, [Z4.from_int(2)])
        left = cx.tensor(K.complex, cx.hom_complex(M, N))
        right = cx.hom_complex(M, cx.tensor(K.complex, N))
        degrees = set(left.degrees()) | set(right.degrees())
        for n in degrees:
            hl = cx.homology(left, n)
            hr = cx.homology(right, n)
            assert hl.cardinality == hr.cardinality
