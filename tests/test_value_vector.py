"""The descent round trip's kernels against their references: verification
on the value vector (zero-valued terms skipped) against the plain
evaluation, reconstruction's block slices against per-variable lookups,
the generator's +-1 products against ring products, and the system reader
on texts in any term order against the printed text."""

import random
import sys

import pytest

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit import io as kio
from koszulkit.errors import IncompleteAssignment
from koszulkit.koszul import koszul
from koszulkit.matrices import Matrix
from koszulkit.rings import RingHom, ZZ, Zmod, make_ring

from helpers import (
    assignment_matrix, conjugated_assignment, maximal_ideal_pool, random_element,
    random_minimal_complex, reference_verify_assignment,
)
from test_system_format import quotient_instance

Z = ZZ()
RINGS = {
    "Z/4": "zmod 4",
    "Z/8": "zmod 8",
    "Z/9": "zmod 9",
    "F2[x]/(x^2)": "polyquot coeff=F2 vars=x order=degrevlex ideal=[x^2]",
    "F3[x]/(x^2)": "polyquot coeff=F3 vars=x order=degrevlex ideal=[x^2]",
    "F2[x,y]/(x,y)^2": "polyquot coeff=F2 vars=x,y order=degrevlex ideal=[x^2, x*y, y^2]",
}


def seeded_instances(name, count=3):
    """(K, P) pairs over the ring `name`: K on e = 1 or 2 copies of a
    nonzero element of the maximal ideal, P a random minimal complex."""
    R = make_ring(RINGS[name])
    rng = random.Random(f"value-vector {name}")
    pool = [a for a in maximal_ideal_pool(R) if a]
    out = []
    for k in range(count):
        P = random_minimal_complex(R, rng, max_top=2, max_rank=2)
        out.append((koszul(R, [pool[rng.randrange(len(pool))]] * (1 + k % 2)), P))
    return out


def perturbed(assignment, variables, rng, count):
    """Copies of `assignment` with one value changed each: the first and
    the last variable, and `count` others drawn at random."""
    ring = assignment.target
    picks = [variables[0], variables[-1]] + rng.sample(variables, min(count, len(variables)))
    out = []
    for v in picks:
        values = dict(assignment.values)
        delta = random_element(ring, rng) if ring.is_finite() else ring.one
        values[v] = values[v] + (delta or ring.one)
        out.append(ds.Assignment(assignment.hom, values))
    return out


def zero_assignment(system, hom):
    return ds.Assignment(hom, dict.fromkeys(system.variables, hom.target.zero))


def assignments(K, P, system, rng):
    sol = ds.canonical_solution(K, P)
    conj = conjugated_assignment(K, P, system, sol, rng)
    return ([sol, conj, zero_assignment(system, sol.hom)]
            + perturbed(sol, system.variables, rng, 8)
            + perturbed(conj, system.variables, rng, 4))


def assert_same_reports(system, assignment):
    report = ds.verify_assignment(system, assignment)
    assert report.lines() == reference_verify_assignment(system, assignment).lines()
    return report


# ---------------------------------------------------------------------------
# verification on the value vector


@pytest.mark.parametrize("name", sorted(RINGS))
def test_verify_matches_the_plain_evaluation(name):
    rng = random.Random(f"assignments {name}")
    verdicts = set()
    for K, P in seeded_instances(name):
        system = ds.generate_system(K, P)
        loaded = kio.load_system(kio.save_system(system))
        for assignment in assignments(K, P, system, rng):
            report = assert_same_reports(system, assignment)
            assert ds.verify_assignment(loaded, assignment).lines() == report.lines()
            verdicts.add(report.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, generator", [(4, 2), (9, 3)])
def test_verify_matches_the_plain_evaluation_through_a_hom_from_z(n, generator):
    # Z <- Z^2 <- Z with d1 = [g, g] and d2 = [g, -g]^T, values in Z/n
    target = Zmod(n)
    hom = RingHom(Z, target)
    P = cx.make_complex(Z, {0: 1, 1: 2, 2: 1}, {
        1: Matrix.from_rows(Z, [[Z.from_int(generator)] * 2]),
        2: Matrix.from_rows(Z, [[Z.from_int(generator)], [Z.from_int(-generator)]])})
    rng = random.Random(f"hom from Z to Z/{n}")
    for e in (1, 2):
        K = koszul(Z, [Z.from_int(generator)] * e)
        system = ds.generate_system(K, P, check_minimal=False)
        sol = ds.canonical_solution(K, P)
        pushed = ds.Assignment(hom, {v: hom(x) for v, x in sol.values.items()})
        cases = [pushed, zero_assignment(system, hom)]
        cases += perturbed(pushed, system.variables, rng, 12)
        reports = [assert_same_reports(system, a) for a in cases]
        assert reports[0].passed and not reports[1].passed
        assert any(not r.passed for r in reports[2:])


def test_verify_multiplies_only_terms_without_a_zero_variable(monkeypatch):
    K, P = seeded_instances("Z/4")[0]
    system = ds.generate_system(K, P)
    sol = ds.canonical_solution(K, P)
    vals = [sol.values[v].payload for v in system.variables]
    variable_terms = [(a, b) for flat in system.terms for _, a, b in flat if a >= 0]
    live = [(a, b) for a, b in variable_terms if vals[a] and (b < 0 or vals[b])]
    assert 0 < len(live) < len(variable_terms)
    ring, muls = sol.target, []
    mul = ring.mul_payload
    monkeypatch.setattr(ring, "mul_payload", lambda a, b: muls.append(1) or mul(a, b))
    assert ds.verify_assignment(system, sol).passed
    # c x, or c (x y): one product per live term and one more per live pair
    assert len(muls) == len(live) + sum(b >= 0 for _, b in live)


def test_an_incomplete_assignment_names_its_first_missing_variables():
    K, P = seeded_instances("Z/4")[0]
    system = ds.generate_system(K, P)
    sol = ds.canonical_solution(K, P)
    first = system.variables[:6]
    values = {v: x for v, x in sol.values.items() if v not in first}
    # as many values as the shape has variables, six of them outside it
    values.update((ds.SystemVariable("Z", 99, 1, k), sol.target.zero) for k in range(1, 7))
    with pytest.raises(IncompleteAssignment) as info:
        ds.verify_assignment(system, ds.Assignment(sol.hom, values))
    assert str(info.value) == f"missing values for {first[:5]}..."


# ---------------------------------------------------------------------------
# reconstruction reads its blocks as slices of the value vector


@pytest.mark.parametrize("name", ["Z/4", "F3[x]/(x^2)", "F2[x,y]/(x,y)^2"])
def test_reconstruct_reads_every_block_of_the_assignment(name):
    rng = random.Random(f"reconstruct {name}")
    for K, P in seeded_instances(name):
        system = ds.generate_system(K, P)
        shape = system.shape
        sol = ds.canonical_solution(K, P)
        for assignment in (sol, conjugated_assignment(K, P, system, sol, rng)):
            cert = ds.reconstruct(K, system, assignment)
            for n in range(1, shape.m + 1):
                assert cert.complex.diff(n) == assignment_matrix(assignment, shape, "X", n)
            for n in range(shape.m + shape.e + 1):
                assert cert.phi.component(n) == assignment_matrix(assignment, shape, "Y", n)
                Zn = assignment_matrix(assignment, shape, "Z", n)
                assert cert.sigma.component(n, Zn.rows, Zn.cols, shape.r_at) == Zn
            # the identity hom takes the module side as the system holds it
            module = cert.module_side
            assert all(module.underlying.diff(n) is d for n, d in system.u_mats.items() if d.rows
                       and d.cols)
            assert all(module.action[H][n] is mat for H, per in system.v_mats.items()
                       for n, mat in per.items())


def test_reconstruct_through_a_hom_maps_the_module_side():
    P = cx.make_complex(Z, {0: 1, 1: 2, 2: 1}, {
        1: Matrix.from_rows(Z, [[Z.from_int(2)] * 2]),
        2: Matrix.from_rows(Z, [[Z.from_int(2)], [Z.from_int(-2)]])})
    K = koszul(Z, [Z.from_int(2)] * 2)
    system = ds.generate_system(K, P, check_minimal=False)
    target = Zmod(4)
    hom = RingHom(Z, target)
    pushed = ds.Assignment(hom, {v: hom(x) for v, x in ds.canonical_solution(K, P).values.items()})
    cert = ds.reconstruct(K, system, pushed)
    assert all(cert.rechecks.values())
    assert cert.complex.ring == cert.module_side.underlying.ring == target
    for n, d in system.u_mats.items():
        assert cert.module_side.underlying.diff(n) == d.map_entries(hom, target)
    for n in range(1, 3):
        assert cert.complex.diff(n) == assignment_matrix(pushed, system.shape, "X", n)


# ---------------------------------------------------------------------------
# the generator's products by 1 and -1


def test_no_fused_product_calls_the_ring(monkeypatch):
    """Every elementary product of S1-S4 has a factor 1 or -1."""
    calls = []
    for name in ("Z/4", "Z/9", "F2[x,y]/(x,y)^2"):
        for K, P in seeded_instances(name, 2):
            ring = K.ring
            mul = ring.mul_payload

            def counting(a, b, _mul=mul):
                if sys._getframe(1).f_code.co_name == "_fused_entries":
                    calls.append((a, b))
                return _mul(a, b)

            monkeypatch.setattr(ring, "mul_payload", counting)
            system = ds.generate_system(K, P)
            monkeypatch.undo()
            assert system.positions
    assert calls == []


@pytest.mark.parametrize("name", ["Z/8", "Z/9", "F3[x]/(x^2)"])
def test_fused_products_equal_ring_products(name):
    ring = make_ring(RINGS[name])
    one = ring.one_payload
    units = [one, ring.neg_payload(one)]
    factors = units + [x.payload for x in ring.elements() if x.payload and x.payload not in units]
    size = 2  # two variables; the key 2 is the constant monomial
    # row i of L is factor i on variable 0 and row 0 of R is every factor on
    # the key `key`, so entry (i, j) of L R is the one product of factors i and j
    L = [[(0, 0, a)] for a in factors]
    for key, mono in ((1, 1 - size * size), (size, 0)):
        R = [[(j, key, b) for j, b in enumerate(factors)]]
        out = ds._fused_entries(ring, size, len(factors), len(factors), [(L, R)])
        for row, a in zip(out, factors):
            for entry, b in zip(row, factors):
                product = ring.mul_payload(a, b)
                assert entry == ({mono: product} if product else {})


# ---------------------------------------------------------------------------
# the system reader, in and out of print order


def tables(system):
    return (system.shape, system.positions, system.terms, system.coefficients)


def rewritten_text(system, rng, split=False, cancel=False):
    """The system's text with every equation's terms shuffled; with
    `split`, a coefficient c other than 1 written as (c - 1) + 1 in two
    terms apart; with `cancel`, a pair t - t added to each equation."""
    ring = system.ring
    one = ring.one_payload
    coefficients = list(system.coefficients)

    def index(c):
        if c not in coefficients:
            coefficients.append(c)
        return coefficients.index(c)

    lines = kio.save_system(system).splitlines()
    rows = []
    for flat in system.terms:
        terms = list(flat)
        if split:
            for c, a, b in flat:
                rest = ring.add_payload(system.coefficients[c], ring.neg_payload(one))
                if rest and system.coefficients[c] != one:
                    terms.remove((c, a, b))
                    terms += [(index(rest), a, b), (index(one), a, b)]
                    break
        if cancel:
            v = rng.randrange(system.shape.count())
            terms += [(index(one), v, -1), (index(ring.neg_payload(one)), v, -1)]
        rng.shuffle(terms)
        rows.append(terms)
    scratch = ds.PolynomialSystem(ring, system.shape, system.positions, rows, coefficients)
    text = kio._polynomial_printer(scratch)
    out = lines[:3]
    for line, terms in zip(lines[3:], rows):
        parts = [text((t,)) for t in terms] or ["0"]
        body = parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                                  for p in parts[1:])
        out.append(line.partition(" : ")[0] + " : " + body)
    return "\n".join(out) + "\n"


def reader_systems():
    yield ds.generate_system(koszul(Zmod(4), [Zmod(4).from_int(2)] * 2),
                             kio.load("tests/golden/P.cx"))
    for name in ("Z/9", "F2[x,y]/(x,y)^2"):
        for K, P in seeded_instances(name, 2):
            yield ds.generate_system(K, P)
    K, P = quotient_instance("F2")
    yield ds.generate_system(koszul(K.ring, list(K.elements) * 2), P)


@pytest.mark.parametrize("split, cancel", [(False, False), (True, False), (False, True),
                                           (True, True)])
def test_the_reader_compiles_any_term_order_to_the_printed_tables(split, cancel):
    rng = random.Random(f"reader {split} {cancel}")
    for system in reader_systems():
        assert tables(kio.load_system(kio.save_system(system))) == tables(system)
        text = rewritten_text(system, rng, split, cancel)
        assert text != kio.save_system(system)
        assert tables(kio.load_system(text)) == tables(system)


def test_a_coefficient_first_met_out_of_order_keeps_its_place_in_the_table():
    R = Zmod(9)
    text = ("ring zmod 9\nsystem\nm=1 e=0 s=[1, 1] r=[1, 1]\n"
            "S2 1 1 1 : 5*Y_0_1_1 + 7*X_1_1_1\n"
            "S2 1 1 1 : 7*X_1_1_1 + 2*Y_1_1_1*X_1_1_1 + 5*Y_0_1_1\n")
    printed = ("ring zmod 9\nsystem\nm=1 e=0 s=[1, 1] r=[1, 1]\n"
               "S2 1 1 1 : 7*X_1_1_1 + 5*Y_0_1_1\n"
               "S2 1 1 1 : 2*X_1_1_1*Y_1_1_1 + 7*X_1_1_1 + 5*Y_0_1_1\n")
    loaded, reference = kio.load_system(text), kio.load_system(printed)
    assert kio.save_system(reference) == printed
    assert tables(loaded) == tables(reference)
    assert reference.coefficients == [R.from_int(7).payload, R.from_int(5).payload,
                                      R.from_int(2).payload]
