"""`linalg.FpModule`, coker(relations) as an F_p-space, against enumeration.

The relation span is enumerated element by element from the products r c
of every standard monomial r with every relation column c, taken from
ring products, not from the view's actions.  Then p^dim must be the size
of the cokernel, and `project` must be F_p-linear, kill every r c and be
the identity on the unit vectors of its complement `_free`.  Presentations
are seeded, with 1-3 generators and 0-3 relations, over F2, F3, the local
algebras F2[x,y]/(x,y)^2 and F3[x]/(x^3), and the non-local F2[x]/(x^2+x).

A module presentation whose relations live over another ring is refused
with MixedRings, and a two-generator module over F3[x]/(x^3) has the Ext
groups computed by hand.
"""

import random

import pytest

from koszulkit import duality as du
from koszulkit.errors import MixedRings, ToolkitError
from koszulkit.linalg import FpModule, _fp_view_of
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, poly_quotient

from helpers import random_matrix

RINGS = {
    "F2": GF(2),
    "F3": GF(3),
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "F3[x]/(x^3)": poly_quotient("F3", ["x"], ["x^3"]),
    "F2[x]/(x^2+x)": poly_quotient("F2", ["x"], ["x^2 + x"]),
}


def coords(view, entries):
    """The list coordinates of a vector of payloads."""
    D = view.dim
    out = [0] * (len(entries) * D)
    for i, a in enumerate(entries):
        if view.std is None:
            out[i] = a
        else:
            for m, c in a:
                out[i * D + view.index[m]] = c
    return out


def pack(view, coordinates):
    return sum(c << t * view.codec.width for t, c in enumerate(coordinates))


def unpack(view, v, n):
    out = [0] * n
    for t, c in view.codec.nonzero(v):
        out[t] = c
    return out


def relation_products(R, view, relations):
    """The coordinates of r c for every standard monomial r and relation
    column c, from ring products."""
    monomials = [1] if view.std is None else [((m, 1),) for m in view.std]
    columns = [[relations.data[i][j].payload for i in range(relations.rows)]
               for j in range(relations.cols)]
    return [coords(view, [R.mul_payload(r, e) for e in col]) for r in monomials for col in columns]


def enumerated_span(p, vecs, n):
    """Every element of the F_p-span of the lists `vecs` of length n."""
    span = {(0,) * n}
    for v in vecs:
        if tuple(x % p for x in v) in span:
            continue
        span = {tuple((s + k * x) % p for s, x in zip(u, v)) for u in span for k in range(p)}
    return span


def presentations(R, rng):
    for _ in range(6):
        gens, nrels = rng.randint(1, 3), rng.randint(0, 3)
        yield gens, random_matrix(R, gens, nrels, rng)


@pytest.mark.parametrize("name", list(RINGS))
def test_fp_module_against_enumeration(name):
    R = RINGS[name]
    view = _fp_view_of(R)
    p, D = view.p, view.dim
    rng = random.Random(f"fp-module:{name}")
    for gens, relations in presentations(R, rng):
        N = FpModule(view, gens, relations)
        n = gens * D
        products = relation_products(R, view, relations)
        span = enumerated_span(p, products, n)
        # p^dim is the size of the cokernel
        assert p ** n == p ** N.dim * len(span)

        def project(v):
            return unpack(view, N.project(pack(view, v)), N.dim)

        # project is F_p-linear
        for _ in range(8):
            u, v = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
            c = rng.randrange(p)
            assert project([(a + c * b) % p for a, b in zip(u, v)]) == \
                [(a + c * b) % p for a, b in zip(project(u), project(v))]
        # it kills r c for every standard monomial r and relation column c,
        # hence the whole relation span
        for v in products:
            assert not any(project(v))
        for v in rng.sample(sorted(span), min(len(span), 20)):
            assert not any(project(list(v)))
        # and it is the identity on the unit vectors of its complement
        for i, t in enumerate(N._free):
            assert N.project(1 << t * view.codec.width) == 1 << i * view.codec.width


# ---------------------------------------------------------------------------
# relations over another ring


def test_relations_over_another_ring_are_refused():
    assert issubclass(MixedRings, ToolkitError)  # the CLI exits 2 on it
    F3, F5 = GF(3), GF(5)
    with pytest.raises(MixedRings):
        du.ModulePresentation(F3, 1, Matrix.from_rows(F5, [[F5.from_int(4)]]))
    S, T = poly_quotient("F2", ["x"], ["x^2"]), poly_quotient("F2", ["x"], ["x^4"])
    with pytest.raises(MixedRings):
        du.ModulePresentation(S, 1, Matrix.from_rows(T, [[T.variable("x") ** 3]]))
    # an equal ring made again is the same ring
    M = du.ModulePresentation(F3, 1, Matrix.from_rows(GF(3), [[GF(3).zero]]))
    assert [h.cardinality for h in du.ext_table(M, M, 1)] == [3, 1]


# ---------------------------------------------------------------------------
# a two-generator module over an odd prime


def test_ext_of_a_two_generator_module_by_hand():
    # M = R/(x) + R/(x^2) over R = F3[x]/(x^3): Hom(R/x^a, R/x^b) =
    # R/x^min(a,b) and Ext^{i>=1} = R/x^min(a,b,3-a,3-b), so |Ext^0(M, M)| =
    # 3^5 and |Ext^i(M, M)| = 3^4 after it; against k = R/(x) every degree
    # is k^2
    R = RINGS["F3[x]/(x^3)"]
    x = R.variable("x")
    M = du.ModulePresentation(R, 2, Matrix.from_rows(R, [[x, R.zero], [R.zero, x * x]]))
    k = du.ModulePresentation.residue_field(R)
    assert [h.cardinality for h in du.ext_table(M, M, 8)] == [243] + [81] * 8
    assert [h.cardinality for h in du.ext_table(M, k, 8)] == [9] * 9
