import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.errors import (
    ElementSyntaxError, NonPrimeModulus, NotAHomomorphism, ToolkitError,
    UnknownVariable, ZeroRing,
)
from koszulkit.rings import (
    GF, QQ, RingElement, RingHom, ZZ, Zmod, _poly_from_dict, _poly_mul, format_element,
    make_ring, normal_form, parse_element, poly_quotient, ring_spec,
)

from helpers import random_element, run_cli

Z = ZZ()
Q = QQ()
Z4 = Zmod(4)
F5 = GF(5)
QUAD = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])


def test_zmod4_is_local_with_witness():
    assert Z4.local
    assert Z4.nilpotency_bound == 2
    assert Z4.maximal_ideal == (2,)


def test_quadratic_quotient_is_local():
    # every variable squares to zero
    assert QUAD.local
    assert QUAD.nilpotency_bound == 2
    assert QUAD.cardinality() == 8


def test_split_quotient_is_not_local():
    # x^k reduces to x for every k >= 1, so x is not nilpotent
    R = poly_quotient("F2", ["x"], ["x^2 - x"])
    x = R.variable("x")
    power = x
    for _ in range(10):
        power = power * x
        assert power == x
    assert not R.local


def test_zmod_composite_not_local():
    assert not Zmod(12).local
    assert Zmod(12).linear_solve


def test_nonprime_field_rejected():
    with pytest.raises(NonPrimeModulus):
        GF(6)


def test_normal_form_single_reduction():
    # one reduction step by x^2 over the quadratic quotient
    e = parse_element(QUAD, "x^2 + x + 1")
    assert format_element(e) == "x + 1"


def test_normal_form_residue_and_fraction():
    assert Z4.from_int(7) == Z4.from_int(3)
    assert format_element(parse_element(Q, "2/4")) == "1/2"


def test_normal_form_idempotent_and_homomorphic():
    rng = random.Random(5)
    for _ in range(300):
        a = random_element(QUAD, rng)
        b = random_element(QUAD, rng)
        assert normal_form(QUAD, a) == a
        assert (a + b) == normal_form(QUAD, a + b)
        assert (a * b) == normal_form(QUAD, a * b)


def test_parse_examples():
    R = poly_quotient("Q", ["x", "y"])
    e = parse_element(R, "3*x^2*y + 1")
    assert format_element(e) == "3*x^2*y + 1"
    assert format_element(parse_element(Q, "-3/4")) == "-3/4"
    assert parse_element(QUAD, "x^2").is_zero()


def test_parse_errors_have_positions():
    with pytest.raises(ElementSyntaxError):
        parse_element(Q, "3 + + 4 $")
    with pytest.raises(UnknownVariable):
        parse_element(QUAD, "x + z")


@pytest.mark.parametrize("ring", [Z, Q, Z4, F5, QUAD, Zmod(9)])
def test_print_parse_round_trip(ring):
    rng = random.Random(17)
    for _ in range(1000):
        x = random_element(ring, rng)
        assert parse_element(ring, format_element(x)) == x


@pytest.mark.parametrize("ring", [Z4, F5, QUAD, Zmod(8)])
def test_ring_axioms_random_triples(ring):
    rng = random.Random(23)
    for _ in range(1000):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
@settings(max_examples=200)
def test_integer_ring_axioms(x, y, z):
    a, b, c = Z.from_int(x), Z.from_int(y), Z.from_int(z)
    assert (a + b) * c == a * c + b * c
    assert a - a == Z.zero


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-7, 7), st.integers(1, 5)), min_size=0, max_size=6))
@settings(max_examples=150)
def test_rational_polynomial_print_parse(terms):
    R = poly_quotient("Q", ["x", "y"])
    acc = R.zero
    for ex, ey, c, d in terms:
        const = RingElement(R, (((0, 0), Fraction(c, d)),)) if c else R.zero
        acc = acc + const * R.variable("x") ** ex * R.variable("y") ** ey
    assert parse_element(R, format_element(acc)) == acc


def test_fractions_parse_over_q_coefficients_only():
    R = make_ring("polyquot coeff=Q vars=x,y order=degrevlex ideal=[2*x - y]")
    x = R.variable("x")
    assert format_element(x) == "1/2*y"
    assert parse_element(R, "1/2*y") == x
    assert parse_element(R, "-3/4*x + 1/2") == \
        parse_element(R, "-3*y") * parse_element(R, "1/8") + parse_element(R, "1/2")
    for ring in (F5, Z4, Z, QUAD):
        with pytest.raises(ElementSyntaxError):
            parse_element(ring, "1/2")


@pytest.mark.parametrize("coeff", [Z, Z4, Zmod(5), QUAD], ids=str)
def test_coefficient_ring_must_be_q_or_a_prime_field(coeff):
    # anything else would silently become a different ring
    with pytest.raises(ToolkitError):
        poly_quotient(coeff, ["t"], ["t^2"])
    assert poly_quotient(F5, ["t"], ["t^2"]) == poly_quotient("F5", ["t"], ["t^2"])


def test_units():
    assert Z4.from_int(3).is_unit()
    assert not Z4.from_int(2).is_unit()
    assert parse_element(QUAD, "x + 1").is_unit()
    assert not parse_element(QUAD, "x").is_unit()
    assert Z.from_int(-1).is_unit()
    assert not Z.from_int(2).is_unit()


def test_ring_spec_round_trip():
    for ring in (Z, Q, Z4, F5, QUAD):
        assert make_ring(ring_spec(ring)) == ring


@pytest.mark.parametrize("ideal, same_as", [
    ("x^2, 2*x", "x^2"), ("2*x^2", ""), ("0, x^3, 0", "x^3"),
])
def test_a_zero_ideal_generator_is_not_printed(ideal, same_as):
    # 2 = 0 in F2, so these ideals are spelled with a zero generator
    spec = "polyquot coeff=F2 vars=x order=degrevlex ideal=[{}]"
    R, S = make_ring(spec.format(ideal)), make_ring(spec.format(same_as))
    assert R == S and hash(R) == hash(S)
    assert ring_spec(R) == ring_spec(S) == spec.format(same_as)
    code, out, _ = run_cli(["ring", "new", spec.format(ideal)])
    assert code == 0 and out.splitlines()[0] == f"ring {spec.format(same_as)}"


def test_groebner_reduced_basis_is_deterministic():
    R1 = poly_quotient("Q", ["x", "y"], ["x^2 + y", "x*y - 1"])
    R2 = poly_quotient("Q", ["x", "y"], ["x*y - 1", "x^2 + y"])
    assert R1.groebner == R2.groebner


def test_groebner_keeps_generators_with_equal_leading_terms():
    R = poly_quotient("F2", ["x"], ["x^2", "x^2"])
    assert [format_element(RingElement(R, g)) for g in R.groebner] == ["x^2"]
    assert R.is_finite() and R.local
    x = R.variable("x")
    assert (x * x).is_zero()
    # equal leading terms with different tails keep the ideal they generate
    S = poly_quotient("F3", ["x", "y"], ["x^2 + y", "x^2", "y^3"])
    assert S.groebner == poly_quotient("F3", ["x", "y"], ["x^2", "y"]).groebner


@pytest.mark.parametrize("coeff,variables,ideal", [
    ("F2", ["x"], ["1"]),
    ("Q", ["x", "y"], ["x*y - 1", "x^2"]),
    ("F3", ["x"], ["x^2 + 1", "x^2 - 1"]),
])
def test_zero_ring_rejected_at_construction(coeff, variables, ideal):
    with pytest.raises(ZeroRing):
        poly_quotient(coeff, variables, ideal)
    spec = (f"polyquot coeff={coeff} vars={','.join(variables)} order=degrevlex "
            f"ideal=[{', '.join(ideal)}]")
    with pytest.raises(ZeroRing):
        make_ring(spec)


def test_hom_checks_relations():
    h = RingHom(Z, Z4)
    assert h(Z.from_int(7)) == Z4.from_int(3)
    with pytest.raises(NotAHomomorphism):
        RingHom(Zmod(4), GF(3))
    # polyquot source: images must kill the ideal
    F2t = poly_quotient("F2", ["t"])
    S = poly_quotient("F2", ["t"], ["t^2"])
    RingHom(F2t, S, {"t": S.variable("t")})
    R4 = poly_quotient("F2", ["t"], ["t^4"])
    with pytest.raises(NotAHomomorphism):
        RingHom(S, R4, {"t": R4.variable("t")})


def test_hom_from_an_fp_algebra_needs_p_zero_in_the_target():
    S = poly_quotient("F2", ["x"], ["x^2"])
    T = poly_quotient("Q", ["t"], ["t^2"])
    with pytest.raises(NotAHomomorphism):
        RingHom(S, T, {"x": T.variable("t")})
    T2 = poly_quotient("F2", ["t"], ["t^2"])
    h = RingHom(S, T2, {"x": T2.variable("t")})
    assert h(parse_element(S, "1 + x")) == parse_element(T2, "1 + t")


def test_hom_from_a_q_algebra_maps_fractions_and_needs_a_q_algebra_target():
    S = poly_quotient("Q", ["x", "y"], ["x^2", "x*y", "y^2"])
    T = poly_quotient("Q", ["t"], ["t^2"])
    h = RingHom(S, T, {"x": T.variable("t"), "y": T.zero})
    assert h(parse_element(S, "1/2*x - 2/3*y + 5/7")) == parse_element(T, "1/2*t + 5/7")
    assert RingHom(S, QQ(), {"x": QQ().zero, "y": QQ().zero})(
        parse_element(S, "3/4 + x")) == RingElement(QQ(), Fraction(3, 4))
    F2 = poly_quotient("F2", ["t"], ["t^2"])
    with pytest.raises(NotAHomomorphism):
        RingHom(S, F2, {"x": F2.variable("t"), "y": F2.zero})


def test_finite_enumeration():
    assert len(list(Z4.elements())) == 4
    assert len(list(QUAD.elements())) == 8
    assert Z4.cardinality() == 4
    assert Z4.is_finite() and QUAD.is_finite()
    assert not Z.is_finite() and not Q.is_finite()


def test_repr_of_a_polynomial_ring_without_relations():
    assert repr(make_ring("polyquot coeff=F2 vars=t order=degrevlex ideal=[]")) == "F2[t]"
    assert repr(poly_quotient("Q", ["x", "y"], [])) == "Q[x, y]"
    assert repr(QUAD) == "F2[x, y]/(x^2, x*y, y^2)"


@pytest.mark.parametrize("ring, texts", [
    (poly_quotient("F2", ["x"], ["x^2"]), None),
    (poly_quotient("Q", ["x", "y"], ["x^2", "x*y", "y^2"]),
     ["0", "1", "-3", "1/2*x", "x - 1/2*y", "-2/3*y + 5/7", "x + y"]),
])
def test_identity_hom_returns_its_argument(ring, texts, monkeypatch):
    expansions = []
    apply_payload = RingHom._apply_payload
    monkeypatch.setattr(RingHom, "_apply_payload",
                        lambda self, p: expansions.append(p) or apply_payload(self, p))
    hom = RingHom.identity(ring)
    assert hom.is_identity()
    elements = ring.elements() if texts is None else (parse_element(ring, t) for t in texts)
    for a in elements:
        assert hom(a) is a
    assert expansions == []


# ---------------------------------------------------------------------------
# finite-dimensional quotients multiply through a standard-monomial table


def _reference_product(R, a, b):
    return R.normal_form_payload(_poly_mul(a, b, R.coeff, R._key))


@pytest.mark.parametrize("coeff, variables, ideal", [
    ("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    ("F3", ["x", "y"], ["x^2", "y^2"]),
    ("F2", ["x"], ["x^4"]),
    ("F5", ["x"], ["x^2"]),
])
def test_table_product_on_every_pair(coeff, variables, ideal):
    R = poly_quotient(coeff, variables, ideal)
    assert R._mul_table == {}  # built lazily, not with the ring
    elements = [a.payload for a in R.elements()]
    for a in elements:
        for b in elements:
            assert R.mul_payload(a, b) == _reference_product(R, a, b)
    # the table is the ring's, and every pair of standard monomials is in it
    assert len(R._mul_table) == len(R._std_monomials) ** 2


@pytest.mark.parametrize("coeff, variables, ideal", [
    ("F2", ["x", "y"], ["x^4", "y^3"]),
    ("Q", ["x", "y"], ["x^2", "y^3", "x*y^2"]),
])
def test_table_product_on_seeded_pairs(coeff, variables, ideal):
    R = poly_quotient(coeff, variables, ideal)
    cf, std = R.coeff, R._std_monomials
    rng = random.Random(f"table:{ideal}")

    def draw():
        d = {}
        for m in rng.sample(std, rng.randint(0, len(std))):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if cf.p is None \
                else rng.randrange(cf.p)
            if c:
                d[m] = c
        return _poly_from_dict(d, R._key)

    for _ in range(500):
        a, b = draw(), draw()
        product = R.mul_payload(a, b)
        assert product == _reference_product(R, a, b)
        # coefficients stay payloads of the coefficient field
        assert all(type(c) is type(cf.one_payload) and c for _, c in product)
        assert len(R._mul_table) <= len(std) ** 2


def test_infinite_quotients_have_no_table():
    for R in (poly_quotient("F2", ["x", "y"], ["x^2"]), poly_quotient("F3", ["t"], [])):
        assert R._std_monomials is None and not hasattr(R, "_mul_table")


GROEBNER_CASES = [
    ("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    ("F2", ["x", "y"], ["x^4", "y^3"]),
    ("F2", ["x"], ["x^4"]),
    ("F3", ["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    ("F3", ["x", "y"], ["x^2", "y^2 - x*y"]),
    ("F2", ["x", "y"], ["x^2 + x", "y^2"]),
    ("F5", ["x", "y", "z"], ["x*y - z", "y*z - x", "z*x - y"]),
    ("F7", ["x", "y"], ["x^3 - y^2", "x*y - 1"]),
    ("Q", ["x", "y"], ["x^2 + y", "x*y - 1"]),
    ("Q", ["x", "y", "z"], ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
]


def random_ideal(rng, p, nvars):
    names = ["x", "y", "z"][:nvars]
    monomials = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    ideal = []
    for _ in range(rng.randint(2, 3)):
        terms = rng.sample(monomials, rng.randint(1, 3))
        ideal.append(" + ".join(f"{rng.randint(1, p - 1)}*" + "*".join(
            f"{v}^{e}" for v, e in zip(names, m) if e) if any(m) else str(rng.randint(1, p - 1))
            for m in terms))
    return names, ideal


@pytest.mark.parametrize("order", ["degrevlex", "deglex", "lex"])
def test_groebner_basis_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    sympy_order = {"degrevlex": "grevlex", "deglex": "grlex", "lex": "lex"}[order]
    rng = random.Random(f"groebner:{order}")
    cases = GROEBNER_CASES + [(f"F{p}", *random_ideal(rng, p, rng.randint(2, 3)))
                              for p in (2, 3, 5, 7) for _ in range(3)]
    for coeff, variables, ideal in cases:
        try:
            R = poly_quotient(coeff, variables, ideal, order=order)
        except ZeroRing:
            R = None
        syms = sympy.symbols(variables)
        options = {} if coeff == "Q" else {"modulus": int(coeff[1:])}
        exprs = [sympy.sympify(g.replace("^", "**"), locals=dict(zip(variables, syms)))
                 for g in ideal]
        G = sympy.groebner(exprs, *syms, order=sympy_order, **options)
        if R is None:
            assert list(G.exprs) == [1]
            continue
        ours = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                      if coeff == "Q" else c for e, c in g}, *syms, **options)
                for g in R.groebner]
        theirs = list(G.polys)
        assert len(ours) == len(theirs), (coeff, variables, ideal)
        assert all(any(a == b for b in theirs) for a in ours), (coeff, variables, ideal)
