"""The payload protocol: the Euclidean laws of Z, Q, F_p and the
univariate rings F_p[x] and Q[x], and agreement of every ring tier's
payload operations with RingElement arithmetic.  One parametrized test
per law."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.linalg import _is_unit, _unit_inv
from koszulkit.rings import (
    GF, QQ, ZZ, RingElement, Zmod, parse_element, poly_quotient,
)


def univariate(coefficients):
    """Sparse payloads of k[x] of degree below 6: ((exponent,), coefficient)
    terms in decreasing degree, zero coefficients dropped."""
    return st.lists(coefficients, max_size=6).map(
        lambda cs: tuple(((e,), c) for e, c in reversed(list(enumerate(cs))) if c))


EUCLIDEAN = {
    "Z": (ZZ(), st.integers(-10**6, 10**6)),
    "Q": (QQ(), st.fractions(-100, 100, max_denominator=60)),
    "F2": (GF(2), st.integers(0, 1)),
    "F7": (GF(7), st.integers(0, 6)),
    "F2[x]": (poly_quotient("F2", ["x"]), univariate(st.integers(0, 1))),
    "F5[x]": (poly_quotient("F5", ["x"]), univariate(st.integers(0, 4))),
    "Q[x]": (poly_quotient("Q", ["x"]),
             univariate(st.fractions(-20, 20, max_denominator=9))),
}


def divides(ed, g, a):
    return not ed.divmod_payload(a, g)[1]


@pytest.mark.parametrize("name", EUCLIDEAN)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_divmod_leaves_a_smaller_remainder(name, data):
    ed, payloads = EUCLIDEAN[name]
    a, b = data.draw(payloads), data.draw(payloads.filter(bool))
    q, r = ed.divmod_payload(a, b)
    assert ed.add_payload(ed.mul_payload(q, b), r) == a
    assert not r or ed.size_payload(r) < ed.size_payload(b)


@pytest.mark.parametrize("name", EUCLIDEAN)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_gcdex_gives_a_common_divisor_and_its_cofactors(name, data):
    ed, payloads = EUCLIDEAN[name]
    a, b = data.draw(payloads), data.draw(payloads)
    g, s, t = ed.gcdex_payload(a, b)
    assert ed.add_payload(ed.mul_payload(s, a), ed.mul_payload(t, b)) == g
    if g:
        assert divides(ed, g, a) and divides(ed, g, b)
    else:
        assert not a and not b
    assert ed.canon_payload(g) == (ed.one_payload, g)


@pytest.mark.parametrize("name", EUCLIDEAN)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_canon_splits_off_a_unit(name, data):
    ed, payloads = EUCLIDEAN[name]
    a = data.draw(payloads)
    u, c = ed.canon_payload(a)
    assert ed.mul_payload(u, c) == a
    assert _is_unit(ed, u)
    assert ed.mul_payload(u, _unit_inv(ed, u)) == ed.one_payload
    assert ed.canon_payload(c) == (ed.one_payload, c)
    assert _is_unit(ed, a) == ed.box(a).is_unit()  # agrees with the ring's


Q_QUOTIENT = poly_quotient("Q", ["x", "y"], ["x^2 - y", "y^2"])
TIERS = [ZZ(), QQ(), Zmod(12), Zmod(8), GF(7),
         poly_quotient("F3", ["x", "y"], ["x^2", "y^2"]), Q_QUOTIENT,
         # univariate quotients add and negate with their ambient's operations
         poly_quotient("F2", ["x"], ["x^4"]), poly_quotient("F3", ["x"], ["x^2 + 1"])]


def elements(ring):
    """Elements drawn as sums of coefficient times monomial, built with
    RingElement arithmetic from parsed monomials."""
    if ring.kind == "rationals":
        return st.fractions(-50, 50, max_denominator=20).map(ring.box)
    if ring.kind != "polyquot":
        return st.integers(-10**4, 10**4).map(ring.from_int)
    coeff = st.fractions(-9, 9, max_denominator=5) if ring.coeff.kind == "rationals" \
        else st.integers(0, ring.coeff.p - 1).map(Fraction)
    monomial = st.sampled_from(["1", "x", "y", "x*y", "x^2*y"] if len(ring.variables) > 1
                               else ["1", "x", "x^2", "x^3", "x^5"])

    def build(terms):
        acc = ring.zero
        for c, m in terms:
            text = f"{c.numerator}/{c.denominator}" if ring.coeff.kind == "rationals" \
                else str(c.numerator)
            acc = acc + parse_element(ring, text) * parse_element(ring, m)
        return acc
    return st.lists(st.tuples(coeff, monomial), max_size=4).map(build)


@pytest.mark.parametrize("ring", TIERS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_payload_operations_agree_with_element_arithmetic(ring, data):
    a, b, c = (data.draw(elements(ring)) for _ in range(3))
    pa, pb, pc = a.payload, b.payload, c.payload
    add, neg, mul = ring.add_payload, ring.neg_payload, ring.mul_payload
    assert ring.zero_payload == ring.zero.payload and ring.one_payload == ring.one.payload
    assert bool(pa) == (not a.is_zero())
    assert RingElement(ring, add(pa, pb)) == a + b
    assert RingElement(ring, add(pa, neg(pb))) == a - b
    assert RingElement(ring, mul(pa, pb)) == a * b
    assert add(pa, neg(pa)) == ring.zero_payload
    assert mul(ring.one_payload, pa) == pa and add(ring.zero_payload, pa) == pa
    assert mul(pa, add(pb, pc)) == add(mul(pa, pb), mul(pa, pc))
    assert ring.from_int(3).payload == add(ring.one_payload, add(ring.one_payload,
                                                                 ring.one_payload))
    if hasattr(ring, "inv_payload") and pa:
        assert mul(pa, ring.inv_payload(pa)) == ring.one_payload


# ---------------------------------------------------------------------------
# the row kernels against add_payload and mul_payload entry by entry


def finite_payloads(ring):
    return st.sampled_from([x.payload for x in ring.elements()])


F2X3 = poly_quotient("F2", ["x"], ["x^3"])
F2XY = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
KERNEL_TIERS = {
    "Z": (ZZ(), st.integers(-10**6, 10**6)),
    "Q": (QQ(), st.fractions(-100, 100, max_denominator=60)),
    "Z/8": (Zmod(8), st.integers(0, 7)),
    "Z/36": (Zmod(36), st.integers(0, 35)),
    "F2": (GF(2), st.integers(0, 1)),
    "F7": (GF(7), st.integers(0, 6)),
    "F2[x]": (poly_quotient("F2", ["x"]), univariate(st.integers(0, 1))),
    "F5[x]": (poly_quotient("F5", ["x"]), univariate(st.integers(0, 4))),
    "F2[x]/(x^3)": (F2X3, finite_payloads(F2X3)),
    # its add and mul look their results up in the ring's operation tables
    "F2[x,y]/(x,y)^2": (F2XY, finite_payloads(F2XY)),
}


def typed(row):
    return [(type(x), x) for x in row]


@pytest.mark.parametrize("name", KERNEL_TIERS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_row_kernels_equal_the_per_entry_composition(name, data):
    ring, payloads = KERNEL_TIERS[name]
    add, mul, zero, one = ring.add_payload, ring.mul_payload, ring.zero_payload, \
        ring.one_payload
    entries = st.one_of(st.just(zero), payloads)  # zero entries come often
    scalars = st.one_of(st.sampled_from([zero, one, ring.neg_payload(one)]), payloads)
    n = data.draw(st.integers(0, 6))  # empty rows included
    xs, ys = (data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2))
    a, b, c = (data.draw(scalars) for _ in range(3))
    assert typed(ring.axpy_payloads(xs, c, ys)) == \
        typed([add(x, mul(c, y)) for x, y in zip(xs, ys)])
    assert typed(ring.combine_payloads(a, xs, b, ys)) == \
        typed([add(mul(a, x), mul(b, y)) for x, y in zip(xs, ys)])
