import random

from koszulkit import complexes as cx
from koszulkit.dgmodules import AxiomResult, DGModule, extend, is_k_linear, verify_dg_module
from koszulkit.koszul import koszul, verify_dga
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, RingHom, ZZ, Zmod

from helpers import (
    adjunction_transport, count_calls, identity_map, multiplication_map, random_matrix,
    unit_map,
)

Z = ZZ()
Z4 = Zmod(4)
F3 = GF(3)


def mat(ring, rows):
    return Matrix.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])


def test_extend_of_unit_is_algebra():
    K = koszul(Z4, [Z4.from_int(2)])
    D = extend(K, cx.free_module_complex(Z4, 1))
    assert D.underlying == K.complex
    for H in K.mult:
        for n in K.mult[H]:
            assert D.action_matrix(H, n) == K.mult_matrix(H, n)


def test_extend_verifies():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    assert verify_dg_module(D).ok
    assert [D.underlying.rank(n) for n in (0, 1, 2)] == [1, 2, 1]


def test_each_built_object_is_checked_once(monkeypatch):
    seen = count_calls(monkeypatch, verify_dg_module)
    K = koszul(Z4, [Z4.from_int(2), Z4.from_int(2)])
    # the algebra's unitality, associativity and Leibniz are the module pass
    # on K acting on itself
    assert len(seen) == 1 and seen[0].underlying is K.complex
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    assert seen[1:] == [D]
    assert K.axioms.ok and D.axioms.ok and len(seen) == 2


def test_explicit_verifiers_check_the_current_matrices():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    assert K.axioms.ok and D.axioms.ok
    # a planted zero action breaks Leibniz against d(e_1) = 2
    K.mult[(1,)][0] = Matrix.zeros(Z4, 1, 1)
    D.action[(1,)][0] = Matrix.zeros(Z4, 2, 1)
    assert [r.name for r in verify_dga(K).failures()] == ["leibniz"]
    assert [r.name for r in verify_dg_module(D).failures()] == ["leibniz"]
    # the kept reports describe the objects as they were built
    assert K.axioms.ok and D.axioms.ok


def test_zero_module_passes_vacuously():
    K = koszul(Z4, [Z4.from_int(2)])
    D = extend(K, cx.zero_complex(Z4))
    assert verify_dg_module(D).ok


def test_planted_sign_flip_located():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    bad_action = {H: dict(per) for H, per in D.action.items()}
    target = bad_action[(1,)]
    n0 = next(n for n, m in target.items() if not m.is_zero())
    rows = [list(r) for r in target[n0].data]
    done = False
    for i in range(len(rows)):
        for j in range(len(rows[i])):
            if not rows[i][j].is_zero():
                rows[i][j] = rows[i][j] + Z4.from_int(1)  # unit perturbation
                done = True
                break
        if done:
            break
    target[n0] = Matrix.from_rows(Z4, rows)
    from koszulkit.dgmodules import DGModule
    bad = DGModule(K, D.underlying, bad_action)
    rep = verify_dg_module(bad)
    assert not rep.ok
    assert rep.failures()[0].counterexample


def test_leibniz_is_checked_where_the_action_leaves_the_module():
    # e_1 maps degree 0 into degree 1 and degree 1 out of the module; its
    # Leibniz identity at degree 1 is c r = 2 I, which fails though r c = 2
    K = koszul(Z4, [Z4.from_int(2)])
    M = cx.make_complex(Z4, {0: 1, 1: 2}, {1: mat(Z4, [[2, 0]])})
    action = {(): {0: Matrix.identity(Z4, 1), 1: Matrix.identity(Z4, 2)},
              (1,): {0: mat(Z4, [[1], [0]])}}
    rep = verify_dg_module(DGModule(K, M, action))
    assert rep.failures() == [AxiomResult("leibniz", False, "e_(1,) at degree 1")]


def test_minimality_transfer():
    # reduce mod the maximal ideal: the extension has zero differential
    # exactly when P is minimal (and the sequence sits in the ideal)
    K = koszul(Z4, [Z4.from_int(2)])
    h = RingHom(Z4, GF(2))
    P_min = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    P_bad = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[1]])})
    for P, minimal in ((P_min, True), (P_bad, False)):
        ext_complex = cx.tensor(K.complex, P)
        reduced = cx.base_change(h, ext_complex)
        zero_diff = all(reduced.diff(n).is_zero() for n in reduced.degrees())
        assert zero_diff == minimal


def test_is_k_linear_identity_and_scalar():
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    ident = identity_map(D.underlying)
    assert is_k_linear(ident, D, D)
    scaled = cx.ChainMap(D.underlying, D.underlying, {
        n: Matrix.identity(Z4, D.underlying.rank(n)).scale(Z4.from_int(3))
        for n in D.underlying.support})
    assert is_k_linear(scaled, D, D)


def test_inconsistent_summand_swap_not_k_linear():
    # swapping the two degree-1 summands of the extension without touching
    # other degrees breaks the action squares
    K = koszul(Z4, [Z4.from_int(2)])
    P = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    D = extend(K, P)
    comps = {n: Matrix.identity(Z4, D.underlying.rank(n))
             for n in D.underlying.support}
    comps[1] = mat(Z4, [[0, 1], [1, 0]])
    swapped = cx.ChainMap(D.underlying, D.underlying, comps)
    assert not is_k_linear(swapped, D, D)


def test_adjunction_round_trip_random():
    rng = random.Random(77)
    K = koszul(F3, [F3.from_int(1), F3.from_int(2)])
    M = cx.make_complex(F3, {0: 2, 1: 1}, {1: mat(F3, [[1], [1]])})
    N = extend(K, M)
    tr = adjunction_transport(K, M, N)
    for _ in range(10):
        comps = {n: random_matrix(F3, N.underlying.rank(n), M.rank(n), rng)
                 for n in M.support}
        psi = cx.ChainMap(M, N.underlying, comps)
        back = tr.backward(tr.forward(psi))
        assert all(back.component(n) == psi.component(n) for n in M.support)
    # forward then backward fixes K-linear maps: the identity qualifies
    ident = identity_map(N.underlying)
    again = tr.forward(tr.backward(ident))
    assert all(again.component(n) == ident.component(n)
               for n in N.underlying.degrees())


def test_adjunction_zero_and_identity():
    K = koszul(Z4, [Z4.from_int(2)])
    M = cx.make_complex(Z4, {0: 1, 1: 1}, {1: mat(Z4, [[2]])})
    N = extend(K, M)
    tr = adjunction_transport(K, M, N)
    zero = cx.ChainMap(M, N.underlying, {})
    assert all(tr.forward(zero).component(n).is_zero()
               for n in N.underlying.degrees())


def test_extend_functorial():
    # extension of a composite is the composite of extensions
    rng = random.Random(13)
    K = koszul(F3, [F3.from_int(2)])
    M = cx.free_module_complex(F3, 2)
    f = cx.ChainMap(M, M, {0: random_matrix(F3, 2, 2, rng)})
    g = cx.ChainMap(M, M, {0: random_matrix(F3, 2, 2, rng)})

    def extend_map(phi):
        comps = {}
        for n in cx.tensor(K.complex, M).degrees():
            blocks = []
            for (p, mrank, prank) in cx.tensor_layout(K.complex, M, n):
                if mrank * prank:
                    blocks.append(Matrix.identity(F3, mrank).kron(phi.component(p)))
            if blocks:
                size = len(blocks)
                grid = [[blocks[i] if i == j else
                         Matrix.zeros(F3, blocks[i].rows, blocks[j].cols)
                         for j in range(size)] for i in range(size)]
                comps[n] = Matrix.block(grid)
        ext_c = cx.tensor(K.complex, M)
        return cx.ChainMap(ext_c, ext_c, comps)

    compo = cx.ChainMap(M, M, {0: f.component(0) * g.component(0)})
    lhs = extend_map(compo)
    ef, eg = extend_map(f), extend_map(g)
    assert all(lhs.component(n) == ef.component(n) * eg.component(n) for n in (0, 1))


def test_multiplication_map_is_split_k_linear_chain_map():
    # the unit section splits the action map exactly; the action map is a
    # K-linear chain map from the extension of the underlying complex
    K = koszul(Z4, [Z4.from_int(2)])
    D = extend(K, cx.free_module_complex(Z4, 1))
    mu = multiplication_map(K, D)
    iota = unit_map(K, D.underlying)
    assert cx.is_chain_map(mu)
    assert cx.is_chain_map(iota)
    for n in D.underlying.degrees():
        assert mu.component(n) * iota.component(n) == Matrix.identity(Z4, D.underlying.rank(n))
    ext2 = extend(K, D.underlying)
    assert is_k_linear(mu, ext2, D)
