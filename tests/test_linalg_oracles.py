"""Normal forms, subquotients and the unit test against independent oracles.

Enumeration decides spans, quotients, kernels, solvability, units and
minimal generating sets over finite rings; sympy (skipped when absent)
gives reduced row echelon forms over Q and GF(p) and Smith forms over Z
and F_p[x].
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from koszulkit.errors import BudgetExceeded, CapabilityMissing
from koszulkit import linalg
from koszulkit.linalg import (
    howell_form, kernel_cardinality, minimal_generators, row_echelon, smith_form, solve,
    subquotient,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, QQ, ZZ, RingElement, Zmod, parse_element, poly_quotient

from helpers import count_calls, random_matrix


def sparse_matrix(ring, rows, cols, rng):
    """Random entries, about a third of them zero, so ranks drop often.

    One draw per position, in row-major order, decides which entries are
    zeroed, so the inputs do not depend on how Matrix visits its entries."""
    M = random_matrix(ring, rows, cols, rng)
    if not rows:
        return M
    return Matrix.from_rows(
        ring, [[x if rng.random() < 0.65 else ring.zero for x in row] for row in M.data])


def span(n, vectors, width):
    """Every Z/n-combination of int vectors, as a set of tuples."""
    out = {(0,) * width}
    for v in vectors:
        if tuple(v) in out:
            continue
        out = {tuple((s + k * x) % n for s, x in zip(w, v)) for w in out for k in range(n)}
    return out


def rows_of(M):
    return [[x.payload for x in r] for r in M.data]


def columns_of(M):
    return [[M.data[i][j].payload for i in range(M.rows)] for j in range(M.cols)]


@pytest.mark.parametrize("ring", [QQ(), GF(2), GF(5), GF(7)], ids=str)
def test_row_echelon_matches_sympy_rref(ring):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(41)
    if ring.kind == "rationals":
        K, to_sympy = sympy.QQ, sympy.QQ.convert
        from_sympy = lambda x: Fraction(int(x.numerator), int(x.denominator))
    else:
        p = ring.modulus
        K = sympy.GF(p)
        to_sympy, from_sympy = K.convert, lambda x: int(x) % p
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        A = sparse_matrix(ring, rows, cols, rng)
        nf = row_echelon(ring, A)
        assert nf.verify()
        if rows == 0 or cols == 0:
            assert nf.matrix == A
            continue
        ref, _ = DomainMatrix([[to_sympy(x.payload) for x in r] for r in A.data],
                              (rows, cols), K).rref()
        assert rows_of(nf.matrix) == [[from_sympy(x) for x in r] for r in ref.to_list()]


@pytest.mark.parametrize("n", [8, 12])
def test_howell_rows_span_the_row_span(n):
    R = Zmod(n)
    rng = random.Random(n)
    for _ in range(40):
        A = sparse_matrix(R, rng.randint(0, 3), rng.randint(1, 3), rng)
        nf = howell_form(R, A)
        assert nf.verify()
        assert span(n, rows_of(nf.matrix), A.cols) == span(n, rows_of(A), A.cols)


@pytest.mark.parametrize("n", [8, 12, 27])
def test_zmod_subquotient_matches_enumeration(n):
    R = Zmod(n)
    rng = random.Random(100 + n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for _ in range(30):
        u, v = rng.randint(0, 3), rng.randint(0, 3)
        V = sparse_matrix(R, u, v, rng)
        W = V * sparse_matrix(R, v, rng.randint(0, 3), rng)
        h = subquotient(R, V, W)
        span_v, span_w = span(n, columns_of(V), u), span(n, columns_of(W), u)
        assert h.cardinality == len(span_v) // len(span_w)
        assert h.is_zero == (span_v == span_w)
        factors = h.invariant_factors
        assert all(f > 1 for f in factors) and prod(factors) == h.cardinality
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        # the d-torsion counts of a finite abelian group fix its invariants
        for d in divisors:
            torsion = sum(1 for x in span_v if tuple(d * c % n for c in x) in span_w)
            assert torsion // len(span_w) == prod(gcd(d, f) for f in factors)


@pytest.mark.parametrize("coeff, variables, ideal", [
    ("F2", ["x"], ["x^3"]),
    ("F3", ["x", "y"], ["x^2", "y^2"]),
    ("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    ("F5", ["x"], ["x^2"]),
])
def test_minimal_generators_match_enumeration(coeff, variables, ideal):
    """The kept columns are columns of M, span the module M spans, and
    number dim_k(M/mM); spans are enumerated over F_p on the coordinates
    of the standard monomials."""
    R = poly_quotient(coeff, variables, ideal)
    p, std = R.coeff.p, R._std_monomials
    monomials = [RingElement(R, ((m, 1),)) for m in std]
    nonconstant = [g for m, g in zip(std, monomials) if sum(m)]

    def coords(vec):
        return [dict(x.payload).get(m, 0) for x in vec for m in std]

    def fp_span(cols, multipliers):
        vectors = [coords([g * x for x in c]) for c in cols for g in multipliers]
        return span(p, vectors, len(cols[0]) * len(std))

    rng = random.Random(len(std) * p)
    for _ in range(12):
        M = sparse_matrix(R, rng.randint(1, 2), rng.randint(2, 4), rng)
        cols = [[r[j] for r in M.data] for j in range(M.cols)]
        cols = [c for c in cols if any(not x.is_zero() for x in c)]
        if not cols:
            continue
        G = minimal_generators(R, M)
        kept = [[r[j] for r in G.data] for j in range(G.cols)]
        assert all(c in cols for c in kept)
        assert [cols.index(c) for c in kept] == sorted(cols.index(c) for c in kept)
        whole = fp_span(cols, monomials)
        assert fp_span(kept, monomials) == whole
        assert p ** len(kept) == len(whole) // len(fp_span(cols, nonconstant))


@pytest.mark.parametrize("coeff, variables, ideal", [
    ("F2", ["x"], ["x^3"]),
    ("F3", ["x", "y"], ["x^2", "y^2"]),
    ("F2", ["x"], ["x^2 + x"]),
])
def test_is_unit_matches_enumeration(coeff, variables, ideal):
    R = poly_quotient(coeff, variables, ideal)
    elements = list(R.elements())
    for a in elements:
        assert a.is_unit() == any(a * b == R.one for b in elements)


def test_is_unit_over_q_dual_numbers():
    R = poly_quotient("Q", ["x"], ["x^2"])
    x = R.variable("x")
    const = lambda q: RingElement(R, (((0,), q),)) if q else R.zero
    for c0, c1 in product([0, 3, Fraction(-1, 2)], [0, 1, Fraction(5, 7)]):
        a = const(Fraction(c0)) + const(Fraction(c1)) * x
        if c0:
            inverse = const(1 / Fraction(c0)) - const(c1 / Fraction(c0) ** 2) * x
            assert a.is_unit() and a * inverse == R.one
        else:
            # a squares to zero, so no b has ab = 1
            assert not a.is_unit() and (a * a).is_zero()


def test_unit_test_of_an_infinite_quotient_is_a_missing_capability():
    R = poly_quotient("Q", ["x", "y"], ["x*y"])
    with pytest.raises(CapabilityMissing):
        parse_element(R, "x + 1").is_unit()


def test_smith_sweep_cap_raises_budget_exceeded(monkeypatch):
    monkeypatch.setattr(linalg, "_SMITH_SWEEP_CAP", 0)
    Z = ZZ()
    with pytest.raises(BudgetExceeded):
        smith_form(Z, Matrix.identity(Z, 2))


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    Z = ZZ()
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = sparse_matrix(Z, rows, cols, rng)
        ref = smith_normal_form(sympy.Matrix(rows_of(A)), domain=sympy.ZZ)
        expected = [abs(int(ref[i, i])) for i in range(min(rows, cols))]
        assert [d.payload for d in smith_form(Z, A).diagonal()] == expected


def random_poly(R, rng, degree):
    """A random element of F_p[x] or F_p[x]/(f) of degree at most `degree`,
    zero about a third of the time."""
    if rng.random() < 0.35:
        return R.zero
    p = R.coeff.p
    terms = [((e,), c) for e in range(degree, -1, -1) if (c := rng.randrange(p))]
    return RingElement(R, R.normal_form_payload(tuple(terms)))


def random_poly_matrix(R, rows, cols, rng, degree=2):
    if rows == 0 or cols == 0:
        return Matrix.zeros(R, rows, cols)
    return Matrix.from_rows(R, [[random_poly(R, rng, degree) for _ in range(cols)]
                                for _ in range(rows)])


@pytest.mark.parametrize("p", [2, 3])
def test_smith_diagonal_over_fp_x_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    t = sympy.Symbol("x")
    K = sympy.GF(p)[t]
    R = poly_quotient(f"F{p}", ["x"])
    rng = random.Random(60 + p)

    def coefficients(expr):  # {degree: coefficient mod p} of a monic polynomial
        poly = sympy.Poly(expr, t, modulus=p).monic()
        return {e: int(c) % p for (e,), c in poly.terms() if int(c) % p}

    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = random_poly_matrix(R, rows, cols, rng)
        ours = [{e: c for (e,), c in d.payload} for d in smith_form(R, A).diagonal() if d.payload]
        entries = [[sum(c * t ** e for (e,), c in x.payload) for x in r] for r in A.data]
        ref = invariant_factors(sympy.Matrix(entries), domain=K)
        assert ours == [coefficients(f) for f in ref if f != 0]


def all_images(R, A):
    """A v for every v in R^cols, as tuples of payloads, with repeats."""
    elements = [a.payload for a in R.elements()]
    data = [[x.payload for x in r] for r in A.data]
    out = []
    for v in product(elements, repeat=A.cols):
        acc = [R.zero_payload] * A.rows
        for j, c in enumerate(v):
            acc = [R.add_payload(s, R.mul_payload(row[j], c)) for s, row in zip(acc, data)]
        out.append(tuple(acc))
    return out


@pytest.mark.parametrize("coeff, ideal", [("F2", "x^3"), ("F3", "x^2 + 1"), ("F2", "x^2 + x")])
def test_chain_ring_lift_matches_enumeration(coeff, ideal):
    """Kernel cardinality, solvability and subquotient cardinality over
    F_p[x]/(f), computed on the F_p[x] lift, against enumeration of R^n."""
    R = poly_quotient(coeff, ["x"], [ideal])
    rng = random.Random(R.cardinality() + len(ideal))
    for _ in range(15):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = random_poly_matrix(R, rows, cols, rng)
        images = all_images(R, A)
        assert kernel_cardinality(R, A) == images.count((R.zero_payload,) * rows)
        in_span = rng.random() < 0.5
        b = A * random_poly_matrix(R, cols, 1, rng) if in_span \
            else random_poly_matrix(R, rows, 1, rng)
        X = solve(R, A, b)
        assert (X is not None) == (tuple(row[0].payload for row in b.data) in images)
        assert X is None or A * X == b
        W = A * random_poly_matrix(R, cols, rng.randint(0, 2), rng)
        assert subquotient(R, A, W).cardinality == \
            len(set(images)) // len(set(all_images(R, W)))


@pytest.mark.parametrize("coeff, variables, ideal, local", [
    ("F2", ["x", "y"], ["x^2", "x*y", "y^2"], True),
    ("F2", ["x"], ["x^4"], True),
    ("F3", ["x", "y"], ["x^2", "y^2"], True),
    ("F2", ["x"], ["x^2 + x"], False),
])
def test_local_unit_rule_agrees_with_the_multiplication_matrix(
        monkeypatch, coeff, variables, ideal, local):
    # on a certified-local ring a unit is exactly an element with a nonzero
    # constant term, decided without any rank computation
    R = poly_quotient(coeff, variables, ideal)
    assert R.local == local
    elements = list(R.elements())
    by_rank = {a: R._unit_by_multiplication_matrix(a.payload) for a in elements if a}
    by_constant = {a: any(not any(e) for e, _ in a.payload) for a in elements if a}
    ranks = count_calls(monkeypatch, linalg.span_cardinality)
    assert {a: a.is_unit() for a in elements if a} == by_rank
    if local:
        assert by_constant == by_rank
        assert ranks == []
    else:
        # x + 1 has a constant term but (x + 1) x = 0
        assert by_constant != by_rank
        assert ranks
