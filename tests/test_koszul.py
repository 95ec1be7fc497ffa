import random

from koszulkit import complexes as cx
from koszulkit.koszul import (
    KoszulAlgebra, koszul, koszul_base_change, shuffle_sign, subsets_by_degree, verify_dga,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, RingHom, ZZ, Zmod, poly_quotient

from helpers import matrix_from_entries, maximal_ideal_pool, random_element

Z = ZZ()
Z4 = Zmod(4)
Z8 = Zmod(8)
F7 = GF(7)
QUAD = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])


def test_basis_ordering():
    table = subsets_by_degree(3)
    assert table[0] == [()]
    assert table[1] == [(1,), (2,), (3,)]
    assert table[2] == [(1, 2), (1, 3), (2, 3)]


def test_shuffle_sign():
    assert shuffle_sign((1,), (2,)) == 1
    assert shuffle_sign((2,), (1,)) == -1
    assert shuffle_sign((1,), (1,)) is None
    assert shuffle_sign((1, 3), (2,)) == -1


def test_e2_matrices():
    K = koszul(Z, [Z.from_int(2), Z.from_int(3)])
    assert K.complex.diff(1) == Matrix.from_rows(Z, [[Z.from_int(2), Z.from_int(3)]])
    assert K.complex.diff(2) == Matrix.from_rows(Z, [[Z.from_int(-3)], [Z.from_int(2)]])
    assert (K.complex.diff(1) * K.complex.diff(2)).is_zero()
    # binomial shapes
    assert (K.complex.diff(2).rows, K.complex.diff(2).cols) == (2, 1)


def test_e0_unit_algebra():
    K = koszul(Z, [])
    assert K.complex.rank(0) == 1 and K.complex.rank(1) == 0
    M = cx.make_complex(Z, {0: 1, 1: 1}, {1: Matrix.from_rows(Z, [[Z.from_int(2)]])})
    assert cx.tensor(K.complex, M) == M


def test_verify_dga_passes_construction():
    for ring, seq in ((Z8, [2, 4]), (F7, [0, 3]), (Z4, [2])):
        K = koszul(ring, [ring.from_int(a) for a in seq])
        assert verify_dga(K).ok


def test_single_generator_square():
    K = koszul(Z4, [Z4.from_int(2)])
    assert K.product_of_basis((1,), (1,)) is None
    rep = verify_dga(K)
    assert [r.name for r in rep.results if r.name == "odd_squares_zero"]


def test_flipped_sign_is_located():
    K = koszul(Z, [Z.from_int(2), Z.from_int(3)])
    bad = {H: dict(per) for H, per in K.mult.items()}
    m = bad[(1,)][1]
    rows = [list(r) for r in m.data]
    done = False
    for i in range(m.rows):
        for j in range(m.cols):
            if not rows[i][j].is_zero():
                rows[i][j] = -rows[i][j]
                done = True
                break
        if done:
            break
    bad[(1,)][1] = Matrix.from_rows(Z, rows)
    rep = verify_dga(K, mult_override=bad)
    assert not rep.ok
    assert any(r.name in ("associativity", "graded_commutativity", "leibniz")
               for r in rep.failures())


def test_planted_product_error_is_an_associativity_counterexample():
    K = koszul(Z, [Z.from_int(2), Z.from_int(3)])
    bad = {H: dict(per) for H, per in K.mult.items()}
    bad[(1, 2)][0] = Matrix.from_rows(Z, [[Z.from_int(-1)]])
    failures = verify_dga(K, mult_override=bad).failures()
    assert failures[0].name == "associativity"
    assert failures[0].counterexample == "e_(1,) . e_(2,) at degree 0"


def test_base_change_examples():
    K = koszul(Z, [Z.from_int(2)])
    K4 = koszul_base_change(RingHom(Z, Z4), K)
    assert K4.ring == Z4
    assert K4.complex.diff(1) == Matrix.from_rows(Z4, [[Z4.from_int(2)]])
    assert koszul_base_change(RingHom.identity(Z), K).complex == K.complex
    F3 = GF(3)
    K31 = koszul_base_change(RingHom(Z, F3), koszul(Z, [Z.from_int(3), Z.from_int(1)]))
    assert K31.complex.diff(1) == Matrix.from_rows(F3, [[F3.zero, F3.one]])


def test_base_change_commutes_with_construction():
    rng = random.Random(3)
    h = RingHom(Z8, Zmod(2))
    for _ in range(10):
        seq = [random_element(Z8, rng) for _ in range(rng.randint(0, 3))]
        K = koszul(Z8, seq)
        left = koszul_base_change(h, K)
        right = koszul(Zmod(2), [h(a) for a in seq])
        assert left.complex == right.complex
        assert all(left.mult_matrix(H, n) == right.mult_matrix(H, n)
                   for H in left.mult for n in left.mult[H])


def test_leibniz_consistency_of_mult_matrices():
    # d . t^h - (-1)^{|h|} t^h . d equals the action of d(e_h)
    rng = random.Random(9)
    for ring in (Z8, F7, QUAD):
        for _ in range(5):
            seq = [random_element(ring, rng) for _ in range(rng.randint(1, 3))]
            K = koszul(ring, seq)
            for H in (S for d in K.basis.values() for S in d):
                h = len(H)
                sign = ring.one if h % 2 == 0 else -ring.one
                for n in range(0, K.e - h + 1):
                    lhs = K.complex.diff(n + h) * K.mult_matrix(H, n) \
                        - K.mult_matrix(H, n - 1).scale(sign) * K.complex.diff(n)
                    rhs = Matrix.zeros(ring, K.degree_rank(n + h - 1), K.degree_rank(n))
                    for coeff, H2 in K.diff_of_basis(H):
                        rhs = rhs + K.mult_matrix(H2, n).scale(coeff)
                    assert lhs == rhs


def test_depth_probe():
    # the top Koszul homology degree of a free module in degree 0: 0 when
    # the sequence is regular on it (2 on Z), e = 1 when 2 kills 2 in Z/4
    def koszul_sup(K, M):
        bounds = cx.sup_inf(cx.tensor(K.complex, M))
        return None if bounds.acyclic else bounds.sup

    assert koszul_sup(koszul(Z, [Z.from_int(2)]), cx.free_module_complex(Z, 1)) == 0
    assert koszul_sup(koszul(Z4, [Z4.from_int(2)]), cx.free_module_complex(Z4, 1)) == 1
    assert koszul_sup(koszul(Z4, [Z4.from_int(2)]), cx.zero_complex(Z4)) is None


def test_finite_length_shift():
    # tensoring a finite-length complex with the full Koszul algebra on the
    # maximal ideal shifts the top homology degree by e
    rng = random.Random(21)
    Z9 = Zmod(9)
    for _ in range(10):
        pool = maximal_ideal_pool(Z9)
        a = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 2))]
        Ka = koszul(Z9, a)
        M = cx.free_module_complex(Z9, rng.randint(1, 2))
        C = cx.tensor(Ka.complex, M)
        bounds = cx.sup_inf(C)
        if bounds.acyclic:
            continue
        Kx = koszul(Z9, [Z9.from_int(3)])
        shifted = cx.sup_inf(cx.tensor(Kx.complex, C))
        assert shifted.sup == bounds.sup + 1


def all_pairs_mult(K):
    """The multiplication matrices from `product_of_basis` on every pair of
    basis subsets, vanishing products included."""
    signed_one = {1: K.ring.one_payload, -1: K.ring.neg_payload(K.ring.one_payload)}
    mult = {}
    for H in (H for d in sorted(K.basis) for H in K.basis[d]):
        mult[H] = {}
        for n in range(K.e - len(H) + 1):
            entries = []
            for j, S in enumerate(K.basis[n]):
                prod = K.product_of_basis(H, S)
                if prod is not None:
                    entries.append((K.index[prod[1]], j, signed_one[prod[0]]))
            mult[H][n] = matrix_from_entries(
                K.ring, len(K.basis[n + len(H)]), len(K.basis[n]), entries)
    return mult


def test_multiplication_matrices_match_the_all_pairs_products():
    x, y = QUAD.variable("x"), QUAD.variable("y")
    for ring, a in ((Z4, Z4.from_int(2)), (Z, Z.from_int(2)), (QUAD, None)):
        for e in range(8):
            seq = [a] * e if a is not None else [(x, y)[i % 2] for i in range(e)]
            K = koszul(ring, seq)
            assert K.mult == all_pairs_mult(K), (ring, e)


def test_differentials_match_the_alternating_sums():
    """Each differential equals the matrix of d(e_S) from `diff_of_basis`,
    for sequences with zero, unit and nilpotent entries."""
    rng = random.Random("koszul-differentials")
    for ring in (Z4, Z, GF(5), QUAD):
        pool = [ring.from_int(c) for c in (0, 1, -1, 2, 3)]
        pool += maximal_ideal_pool(ring) if ring.is_finite() else []
        for e in range(8):
            K = KoszulAlgebra(ring, [rng.choice(pool) for _ in range(e)])
            assert sorted(K.complex.support) == list(range(e + 1))
            for n in range(1, e + 1):
                entries = [(K.index[S2], j, c.payload)
                           for j, S in enumerate(K.basis[n])
                           for c, S2 in K.diff_of_basis(S)]
                want = matrix_from_entries(ring, len(K.basis[n - 1]), len(K.basis[n]), entries)
                assert K.complex.diff(n) == want, (ring, e, n)
