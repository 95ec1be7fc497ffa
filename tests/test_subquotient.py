"""`linalg.subquotient`, `preimage` and `homology_module`: one presentation
for every subquotient.

subquotient(V, W) is the image of span(V) in R^u / span(W), that is
(span V + span W) / span W.  Over Z, Q, F_p[x] and Z/n it is R^c modulo
preimage(V, W), c = V.cols, read off one Smith diagonal; over the other
finite rings it is |span [V | W]| / |span W|.  Checked here:

- against enumeration of (span V + span W) / span W for seeded V and W with
  no containment, over Z/8, Z/12, F3, F2[x]/(x^3) and F2[x,y]/(x,y)^2,
  with the d-torsion counts over Z/n;
- against the per-ring routes it replaced (`helpers.reference_subquotient`)
  on seeded inputs with W inside span V, degenerate shapes included, and
  `homology_module` against the same routes on a kernel basis;
- `preimage` against enumeration;
- the work done: one `smith_data` call over Z/n, no kernel basis for a
  homology over an F_p-algebra;
- `complex homology` through the CLI on the hand-written complexes in
  tests/homology (over Z, Z/36, F2[x] and F2[x,y]/(x,y)^2) against the
  reports beside them.
"""

import random
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest

from koszulkit import linalg
from koszulkit.linalg import homology_module, kernel_basis, preimage, subquotient
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, QQ, ZZ, RingElement, Zmod, poly_quotient

from helpers import (
    count_calls, random_matrix, reference_homology_module, reference_subquotient, run_cli,
)

HOMOLOGY = Path(__file__).resolve().parent / "homology"

RINGS = {
    "Z": ZZ(),
    "Q": QQ(),
    "F2[x]": poly_quotient("F2", ["x"], []),
    "F3[x]": poly_quotient("F3", ["x"], []),
    "Z/8": Zmod(8),
    "Z/12": Zmod(12),
    "Z/27": Zmod(27),
    "Z/36": Zmod(36),
    "F2": GF(2),
    "F3": GF(3),
    "F2[x]/(x^3)": poly_quotient("F2", ["x"], ["x^3"]),
    "F3[x]/(x^2+1)": poly_quotient("F3", ["x"], ["x^2 + 1"]),
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "F2[x,y]/(x^2,y^2)": poly_quotient("F2", ["x", "y"], ["x^2", "y^2"]),
}


def polynomial(ring, rng):
    """A random element of F_p[x] of degree at most 2."""
    p = ring.coeff.p
    return RingElement(ring, tuple(((e,), c) for e in range(2, -1, -1) if (c := rng.randrange(p))))


def draw(ring, rows, cols, rng):
    """A random matrix, about a third of its entries zero."""
    if not (rows and cols):
        return Matrix.zeros(ring, rows, cols)
    if ring.kind == "polyquot" and not ring.is_finite():
        grid = [[polynomial(ring, rng) for _ in range(cols)] for _ in range(rows)]
    else:
        grid = random_matrix(ring, rows, cols, rng).data
    return Matrix.from_rows(ring, [[x if rng.random() < 0.65 else ring.zero for x in row]
                                   for row in grid])


def columns(M):
    return [tuple(M.data[i][j].payload for i in range(M.rows)) for j in range(M.cols)]


def module_span(ring, vectors, width):
    """Every R-combination of the payload vectors, as a set of tuples."""
    pool = [x.payload for x in ring.elements()]
    add, mul = ring.add_payload, ring.mul_payload
    out = {(ring.zero_payload,) * width}
    for v in vectors:
        if v not in out:
            out = {tuple(add(s, mul(r, x)) for s, x in zip(w, v)) for w in out for r in pool}
    return out


# ---------------------------------------------------------------------------
# W need not lie inside span V


@pytest.mark.parametrize("name", ["Z/8", "Z/12", "F3", "F2[x]/(x^3)", "F2[x,y]/(x,y)^2"])
def test_subquotient_is_the_image_of_span_v_modulo_span_w(name):
    R = RINGS[name]
    rng = random.Random(len(name) * 31)
    n = R.modulus if R.kind == "zmod" else None
    for _ in range(25):
        u = rng.randint(0, 3)
        V, W = draw(R, u, rng.randint(0, 2), rng), draw(R, u, rng.randint(0, 2), rng)
        h = subquotient(R, V, W)
        span_w = module_span(R, columns(W), u)
        span_vw = module_span(R, columns(W) + columns(V), u)
        card = len(span_vw) // len(span_w)
        assert h.cardinality == card and h.is_zero == (card == 1)
        if R.kind == "primefield":
            assert R.modulus ** h.dimension == card
        if n is None:
            continue
        factors = h.invariant_factors
        assert all(f > 1 for f in factors) and prod(factors) == card
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        # the d-torsion counts of a finite abelian group fix its invariants
        for d in (d for d in range(1, n + 1) if n % d == 0):
            torsion = sum(1 for x in span_vw if tuple(d * c % n for c in x) in span_w)
            assert torsion // len(span_w) == prod(gcd(d, f) for f in factors)


def test_one_coordinate_over_another_is_a_line():
    F2 = RINGS["F2"]
    e1, e2 = (Matrix.from_rows(F2, [[F2.from_int(int(i == j))] for i in range(2)])
              for j in range(2))
    h = subquotient(F2, e1, e2)
    assert (h.dimension, h.cardinality, h.describe()) == (1, 2, "k^1")


@pytest.mark.parametrize("name", ["Z/12", "F3", "F2[x,y]/(x,y)^2"])
def test_preimage_matches_enumeration(name):
    R = RINGS[name]
    rng = random.Random(7 + len(name))
    pool = [x.payload for x in R.elements()]
    add, mul = R.add_payload, R.mul_payload
    for _ in range(15):
        u, c = rng.randint(0, 2), rng.randint(0, 2)
        A, B = draw(R, u, c, rng), draw(R, u, rng.randint(0, 2), rng)
        span_b = module_span(R, columns(B), u)
        rows = [[x.payload for x in row] for row in A.data]

        def image(y):
            out = []
            for row in rows:
                acc = R.zero_payload
                for a, b in zip(row, y):
                    acc = add(acc, mul(a, b))
                out.append(acc)
            return tuple(out)

        Y = preimage(R, A, B)
        assert Y.rows == c
        assert module_span(R, columns(Y), c) == \
            {y for y in product(pool, repeat=c) if image(y) in span_b}


# ---------------------------------------------------------------------------
# against the routes it replaced, with W inside span V


def seeded_pairs(R, rng, count):
    """(V, W) with W = V X, the shapes degenerate now and then: no rows, no
    columns in V or in W."""
    for t in range(count):
        u, c = [(0, 2), (2, 0), (3, 2)][t] if t < 3 else (rng.randint(1, 3), rng.randint(1, 3))
        V = draw(R, u, c, rng)
        k = 0 if t % 5 == 1 else rng.randint(1, 3)
        yield V, V * draw(R, c, k, rng)


@pytest.mark.parametrize("name", list(RINGS))
def test_subquotient_matches_the_reference_routes(name):
    R = RINGS[name]
    rng = random.Random(1000 + len(name))
    for V, W in seeded_pairs(R, rng, 30):
        got, ref = subquotient(R, V, W), reference_subquotient(R, V, W)
        assert got == ref and got.describe() == ref.describe()


@pytest.mark.parametrize("name", list(RINGS))
def test_homology_module_matches_the_reference_routes(name):
    R = RINGS[name]
    rng = random.Random(2000 + len(name))
    for t in range(30):
        u = rng.randint(0, 3) if t else 0
        d_out = draw(R, rng.randint(0, 2), u, rng)
        K = kernel_basis(R, d_out)
        d_in = K * draw(R, K.cols, rng.randint(0, 3), rng)
        got, ref = homology_module(R, d_in, d_out), reference_homology_module(R, d_in, d_out)
        assert got == ref and got.describe() == ref.describe()


# ---------------------------------------------------------------------------
# the work done


def test_a_zmod_homology_makes_one_smith_call(monkeypatch):
    R = RINGS["Z/36"]
    d_out = Matrix.from_rows(R, [[R.from_int(6), R.zero], [R.zero, R.from_int(4)]])
    d_in = Matrix.from_rows(R, [[R.from_int(12), R.zero], [R.zero, R.from_int(18)]])
    calls = count_calls(monkeypatch, linalg.smith_data)
    assert homology_module(R, d_in, d_out).describe() == "Z/2 + Z/2"
    assert len(calls) == 1
    rng = random.Random(36)
    for name in ("Z/8", "Z/12", "Z/27", "Z/36"):
        for V, W in seeded_pairs(RINGS[name], rng, 10):
            calls.clear()
            subquotient(RINGS[name], V, W)
            assert len(calls) == 1


@pytest.mark.parametrize("name", ["F2", "F3", "F2[x]/(x^3)", "F2[x,y]/(x,y)^2",
                                  "F2[x,y]/(x^2,y^2)"])
def test_a_finite_homology_builds_no_kernel_basis(name, monkeypatch):
    R = RINGS[name]
    rng = random.Random(5)
    d_out = draw(R, 2, 3, rng)
    K = kernel_basis(R, d_out)
    d_in = K * draw(R, K.cols, 2, rng)
    kernels = count_calls(monkeypatch, linalg.kernel_basis)
    h = homology_module(R, d_in, d_out)
    assert kernels == []
    assert h == reference_homology_module(R, d_in, d_out)


# ---------------------------------------------------------------------------
# complex homology through the CLI


@pytest.mark.parametrize("name", ["Z", "Z36", "F2x", "F2xy"])
def test_complex_homology_reports(name):
    expected = (HOMOLOGY / f"{name}.txt").read_text()
    assert run_cli(["complex", "homology", str(HOMOLOGY / f"{name}.cx")]) == (0, expected, "")
