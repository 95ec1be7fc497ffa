"""Hom complexes assembled from their nonzero summands, and derived Homs
against the presented-complex oracle.

`complexes.hom_complex` lists, in each degree, only the summands
Hom(M_i, N_j) with both ranks nonzero.  The references in `helpers` scan
every summand of every degree between the extremes, as the assembly did
before.  Ranks and differentials must agree byte for byte, in the same
order, on complexes with gaps in their support, negative degrees, targets
in several degrees, zero complexes and modules in one degree.

`duality.hom_homology` takes the homology of Hom(G, N) for N in degree 0
alone.  A module in degree d is reached by shifting G, and a Koszul
extension K (x) C through Hom(F, K (x) C) = Hom(F (x) K*, C); both must give
the summaries of the oracle, whose relations sit in every degree.
"""

import random

import pytest

from koszulkit import complexes as cx
from koszulkit import duality as du
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, Zmod, poly_quotient

from helpers import (
    module_as_presented_complex, presented_homology, random_bounded_complex, random_matrix,
    reference_hom_complex, reference_hom_relations, resolution_complex, tensor_koszul_presented,
)

Z = ZZ()
Z4 = Zmod(4)
F2XY = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])


def stored(m):
    return m.rows, m.cols, m.sparse_rows


def assert_same_complex(A, B):
    assert A.ring == B.ring
    assert list(A._ranks.items()) == list(B._ranks.items())
    assert [(n, stored(d)) for n, d in A._diffs.items()] == \
        [(n, stored(d)) for n, d in B._diffs.items()]


def assert_oracle_homology(F, target, G, N):
    """Hom(F, target) on the oracle against hom_homology(G, N), degree by
    degree: H_t of the one is H_{-m} of the other at m = -t.  The oracle's
    ambient must also be the Hom complex of the ambients."""
    oracle = reference_hom_relations(F, target)
    assert_same_complex(cx.hom_complex(F, target.ambient), oracle.ambient)
    degrees = oracle.ambient.degrees() or range(1)
    assert du.hom_homology(G, N, range(-degrees[-1], 1 - degrees[0]))[::-1] == \
        [presented_homology(oracle, t) for t in degrees]


def gapped(ring, rng, shift):
    """A complex supported on {-1, 0, 2, 3} + shift: degree 1 is zero, so
    no differential crosses the gap."""
    ranks = {-1: rng.randint(1, 2), 0: rng.randint(1, 2), 2: rng.randint(1, 2), 3: 1}
    d0 = random_matrix(ring, ranks[-1], ranks[0], rng)
    d3 = random_matrix(ring, ranks[2], ranks[3], rng)
    return cx.shift(cx.make_complex(ring, ranks, {0: d0, 3: d3}), shift)


@pytest.mark.parametrize("ring", [Z, Z4], ids=["Z", "Z/4"])
def test_gaps_and_negative_degrees(ring):
    rng = random.Random(f"gaps:{ring!r}")
    for _ in range(6):
        M = gapped(ring, rng, rng.randint(-3, 1))
        N = gapped(ring, rng, rng.randint(-3, 1))
        for A, B in [(M, N), (N, M), (M, M)]:
            assert_same_complex(cx.hom_complex(A, B), reference_hom_complex(A, B))


def test_random_bounded_complexes_shifted_below_zero():
    rng = random.Random("hom-random")
    for _ in range(12):
        M = cx.shift(random_bounded_complex(Z4, rng), rng.randint(-3, 2))
        N = cx.shift(random_bounded_complex(Z4, rng), rng.randint(-3, 2))
        assert_same_complex(cx.hom_complex(M, N), reference_hom_complex(M, N))


def test_zero_complexes():
    M = gapped(Z, random.Random("zero"), 0)
    zero = cx.zero_complex(Z)
    for A, B in [(zero, M), (M, zero), (zero, zero)]:
        H = cx.hom_complex(A, B)
        assert H.is_zero_complex() and H == cx.zero_complex(Z)
        assert_same_complex(H, reference_hom_complex(A, B))
    empty = du.ModulePresentation(Z4, 0, Matrix.zeros(Z4, 0, 0))
    res = resolution_complex(du.ModulePresentation.residue_field(Z4), 3)
    assert_oracle_homology(res, module_as_presented_complex(empty), res, empty)


@pytest.mark.parametrize("ring", [Z4, F2XY], ids=["Z/4", "F2[x,y]/(x,y)^2"])
@pytest.mark.parametrize("degree", [-2, 0, 1])
def test_module_target_in_one_degree(ring, degree):
    rng = random.Random(f"one-degree:{ring!r}:{degree}")
    k = du.ModulePresentation.residue_field(ring)
    modules = [k, du.ModulePresentation.free(ring, 2),
               du.ModulePresentation(ring, 2, random_matrix(ring, 2, 3, rng))]
    for M in modules:
        res = resolution_complex(M, 4)
        for N in modules:
            # Hom(F, N placed in degree d) is Hom(F shifted by -d, N)
            assert_oracle_homology(res, module_as_presented_complex(N, degree),
                                   cx.shift(res, -degree), N)


def test_koszul_presented_target_in_several_degrees():
    # the targets of koszul_sdc_transfer and ext_sup_via_koszul
    cases = [(Z4, [Z4.from_int(2)] * 2),
             (F2XY, [F2XY.variable("x"), F2XY.variable("y")])]
    for ring, seq in cases:
        K = koszul(ring, seq)
        rng = random.Random(f"koszul-target:{ring!r}")
        for C in [du.ModulePresentation.residue_field(ring),
                  du.ModulePresentation(ring, 2, random_matrix(ring, 2, 2, rng))]:
            target = tensor_koszul_presented(K, C)
            assert len(target.ambient.support) == K.e + 1
            res = resolution_complex(C, 3 + K.e)
            dual = cx.hom_complex(K.complex, cx.free_module_complex(ring, 1))
            assert_oracle_homology(res, target, cx.tensor(res, dual), C)
