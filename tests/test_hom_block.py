"""One Hom block per differential (`duality._hom_block`).

For d : R^c -> R^r and N = coker(rel) on g generators, B(d) = [I_g (x) d^T |
rel (x) I_c].  Its first part is the differential of Hom(G, R^g) that
precomposes with d, and its second spans the relations of N^c; every
derived-Hom value reads these blocks.  Checked here:

- the layout against what the block replaced, on seeded d and relations
  over Z, Q, Z/12 and F3[x]: the first part is `hom_complex(G, R^g)`'s
  differential up to sign, the second `rel.kron(I_c)`;
- over Z, Ext builds no Hom complex, and the Koszul-side sup builds one,
  for K* = Hom(K, R).
"""

import random

import pytest

from koszulkit import complexes as cx
from koszulkit import duality as du
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import QQ, ZZ, Zmod, parse_element, poly_quotient

from helpers import count_calls, random_element

RINGS = {
    "Z": ZZ(),
    "Q": QQ(),
    "Z/12": Zmod(12),
    "F3[x]": poly_quotient("F3", ["x"], []),
}
CASES = [(name, seed) for name in RINGS for seed in range(8)]


def element(ring, rng):
    if rng.random() < 0.3:
        return ring.zero
    if ring.kind == "polyquot":
        a, b, c = (rng.randrange(3) for _ in range(3))
        return parse_element(ring, f"{a}*x^2 + {b}*x + {c}")
    return random_element(ring, rng)


def matrix(ring, rows, cols, rng):
    if not (rows and cols):
        return Matrix.zeros(ring, rows, cols)
    return Matrix.from_rows(ring, [[element(ring, rng) for _ in range(cols)]
                                   for _ in range(rows)])


@pytest.mark.parametrize("name, seed", CASES)
def test_the_block_is_the_hom_differential_next_to_the_relations(name, seed):
    ring, rng = RINGS[name], random.Random(seed)
    g, r, c, s, m = (rng.randint(0, 3) for _ in range(5))
    d = matrix(ring, r, c, rng)
    N = du.ModulePresentation(ring, g, matrix(ring, g, s, rng))
    B = du._hom_block(N, d)
    assert (B.rows, B.cols) == (g * c, g * r + s * c)
    first = B.submatrix(range(g * c), range(g * r))
    second = B.submatrix(range(g * c), range(g * r, B.cols))
    # d is d_{m+1} of G, so Hom(d, R^g) is the differential out of degree -m
    G = cx.ChainComplex(ring, {m: r, m + 1: c}, {m + 1: d})
    hom = cx.hom_complex(G, cx.free_module_complex(ring, g)).diff(-m)
    assert first in (hom, -hom)
    assert second == N.relations.kron(Matrix.identity(ring, c))


def test_ext_over_z_builds_no_hom_complex(monkeypatch):
    Z = RINGS["Z"]
    M = du.ModulePresentation.cyclic(Z, [Z.from_int(6)])
    homs = count_calls(monkeypatch, cx.hom_complex)
    assert [h.describe() for h in du.ext_table(M, M, 3)] == ["Z/6", "Z/6", "0", "0"]
    assert homs == []


def test_the_koszul_side_over_z_builds_one_hom_complex(monkeypatch):
    Z = RINGS["Z"]
    M = du.ModulePresentation.cyclic(Z, [Z.from_int(4)])
    K = koszul(Z, [Z.from_int(2)])
    homs = count_calls(monkeypatch, cx.hom_complex)
    assert du.ext_sup_via_koszul(M, M, K, 2).agree
    assert homs == [K.complex]
