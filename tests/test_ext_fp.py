"""Ext over prime fields and finite F_p-algebras, computed in F_p coordinates,
and the one keep rule of `minimal_generators` on every ring tier.

- One coordinate resolution step, `kernel_resolution(R, A, 1)`, against
  the keep rule checked by `solve` on the F_p kernel (Nakayama over a
  local algebra, R times the kept columns over a non-local one), and its
  span against |ker A|.
- `minimal_generators` against that rule over F_p-algebras, prime fields,
  Z/4, Z/5, Z/8, Z/25, Z/27, Q and the non-local Z/12 (every nonzero
  column); the pivot columns of sympy's rref over Q and GF(p); no `solve`
  over Z/p^k, Q and prime fields, and over Z/p^k and Q exactly one
  `_howell` per matrix with two nonzero columns or more, whose pivot
  columns of [m M | M] are the keeps.
- The resolution loop (`linalg.resolution`, packed here) behind `resolve` and
  `ext_table`: the same matrices as resolving step by step on payload
  matrices, and a planted kernel error caught by its d.d = 0 check.  Over
  F_p[x]/(f) Ext makes no Howell kernel and no matrix, and a projective
  direct factor of a non-local algebra resolves in rank one with a period.
- The F_p Hom route of `ext_table` (Hom(F_i, N) = N^{b_i}) against the
  presented-complex oracle of `helpers` (presented_route: span ratios on
  Hom(F, N) with its relations), summary for summary, edge cases included.
- Betti numbers of the residue field against closed forms: b_n = d^n over
  k[x_1..x_d]/(x)^2, and the Poincare series (1+t)^d / (1-t^2)^d over
  k[x_1..x_d]/(x_1^{a_1}, ..., x_d^{a_d}) (Tate, Illinois J. Math. 1957).
- Minimality with no keep rule read: |Ext^i(M, k)| = |k|^{rank F_i} for
  presentations with relations in m over Z/p^k and local F_p-algebras.
- The caches of the F_p view and of a module's F_p data stay bounded.
"""

import random
from math import comb

import pytest

from koszulkit import duality as du
from koszulkit import linalg
from koszulkit.errors import NotAComplex
from koszulkit.linalg import (
    _fp_view_of, _maximal_ideal_elements, kernel_basis, kernel_cardinality,
    kernel_resolution, minimal_generators, solve, span_cardinality,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, QQ, Zmod, poly_quotient

import helpers
from helpers import count_calls, presented_route, reference_resolve, resolution_complex

RINGS = {
    "F2[x]/(x^4)": poly_quotient("F2", ["x"], ["x^4"]),
    "F5[x]/(x^2)": poly_quotient("F5", ["x"], ["x^2"]),
    "F7": GF(7),
    "F2": GF(2),
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "F3[x,y]/(x^2,y^2)": poly_quotient("F3", ["x", "y"], ["x^2", "y^2"]),
    "F3[x,y]/(x^2,y^2-x*y)": poly_quotient("F3", ["x", "y"], ["x^2", "y^2 - x*y"]),
    "F2[x,y]/(x^2+x,y^2)": poly_quotient("F2", ["x", "y"], ["x^2 + x", "y^2"]),
}
# more odd p for the F_p Hom route
ODD_P = {
    "F3[x,y,z]/(x,y,z)^2": poly_quotient("F3", ["x", "y", "z"],
                                         ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    "F5[x]/(x^3)": poly_quotient("F5", ["x"], ["x^3"]),
    "F5[x,y]/(x,y)^2": poly_quotient("F5", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "F13[x]/(x^2)": poly_quotient("F13", ["x"], ["x^2"]),
}
ALL = {**RINGS, **ODD_P}
# every tier of minimal_generators: the rings above, with an F_p view, then
# the chain rings Z/p^k (Z/5 with no F_p view) and the field Q, and the
# non-local Z/12
CHAIN_RINGS = {"Z/4": Zmod(4), "Z/5": Zmod(5), "Z/8": Zmod(8), "Z/25": Zmod(25),
               "Z/27": Zmod(27), "Q": QQ()}
TIERS = {**RINGS, **CHAIN_RINGS, "Z/12": Zmod(12)}
POOLS = {name: list(R.elements()) for name, R in ALL.items()}


def random_matrix(name, rows, cols, rng):
    pool = POOLS[name]
    return Matrix.from_rows(ALL[name], [[rng.choice(pool) for _ in range(cols)]
                                        for _ in range(rows)]) \
        if rows and cols else Matrix.zeros(ALL[name], rows, cols)


def random_presentation(name, rng):
    gens = rng.randint(1, 3)
    return du.ModulePresentation(ALL[name], gens,
                                 random_matrix(name, gens, rng.randint(0, 3), rng))


# ---------------------------------------------------------------------------
# the coordinate resolution step


def hstack(R, rows, cols):
    return Matrix.from_blocks(R, [rows], [c.cols for c in cols],
                              {(0, i): c for i, c in enumerate(cols)})


def nakayama_oracle(R, M):
    """The columns of M a generating set keeps, by solve.

    Over a local ring, the columns c_j of M outside m M + R c_1 + ... +
    R c_{j-1}: the columns a minimal generating set keeps (Nakayama).  Over
    a non-local F_p-algebra, the columns c_j outside R times the kept c_i
    with i < j; over a non-local ring with no F_p view, every nonzero
    column."""
    cols = [c for c in M.columns() if not c.is_zero()]
    if len(cols) <= 1 or not (R.local or _fp_view_of(R)):
        return cols
    if not R.local:
        kept = []
        for c in cols:
            if not kept or solve(R, hstack(R, M.rows, kept), c) is None:
                kept.append(c)
        return kept
    mM = [c.scale(g) for g in _maximal_ideal_elements(R) for c in cols]
    return [c for j, c in enumerate(cols)
            if solve(R, hstack(R, M.rows, mM + cols[:j]), c) is None]


def sparse_matrix(R, rows, cols, rng):
    """A seeded matrix over R whose entries are zero half the time, so that
    some columns lie in the span of the others and some do not."""
    return Matrix.from_rows(R, [[helpers.random_element(R, rng) if rng.random() < 0.5 else R.zero
                                 for _ in range(cols)] for _ in range(rows)])


def fp_kernel(R, A):
    """ker A as the columns of the F_p kernel of A's expansion, one for each
    non-pivot column of its rows' reduced echelon form (the row route)."""
    view = _fp_view_of(R)
    rows = helpers.reference_expand(view, view.columns(A), A.rows)
    return view.matrix(helpers.row_kernel(view.codec, rows, A.cols * view.dim), A.cols)


@pytest.mark.parametrize("name", list(RINGS))
def test_coordinate_step_keeps_the_columns_of_kernel_then_minimal_generators(name):
    R = RINGS[name]
    rng = random.Random(f"syzygies:{name}")
    for rows, cols in [(1, 1), (1, 3), (2, 4), (3, 3), (4, 2), (2, 5), (0, 3), (3, 0)]:
        A = random_matrix(name, rows, cols, rng)
        # no step below a matrix with no columns: its kernel is 0
        step = (kernel_resolution(R, A, 1) or [Matrix.zeros(R, 0, 0)])[0]
        assert step.columns() == nakayama_oracle(R, fp_kernel(R, A))
        assert (A * step).is_zero()
        # the step spans ker A: both sizes come from Howell over F_p[x]/(f)
        assert span_cardinality(R, step) == kernel_cardinality(R, A)


@pytest.mark.parametrize("name", list(TIERS))
def test_minimal_generators_follow_the_nakayama_rule(name):
    R = TIERS[name]
    rng = random.Random(f"mingens:{name}")
    for rows, cols in [(1, 4), (2, 3), (3, 5), (2, 6)]:
        for M in (helpers.random_matrix(R, rows, cols, rng), sparse_matrix(R, rows, cols, rng)):
            assert minimal_generators(R, M).columns() == nakayama_oracle(R, M)


@pytest.mark.parametrize("name", ["Q", "F7", "F2"])
def test_minimal_generators_keep_the_pivot_columns_of_rref(monkeypatch, name):
    # over a field m = 0, so the Nakayama rule keeps the pivot columns of
    # the reduced row echelon form, here sympy's
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    R = TIERS[name]
    domain = sympy.QQ if name == "Q" else sympy.GF(R.modulus)
    solves = count_calls(monkeypatch, linalg.solve)
    rng = random.Random(f"pivots:{name}")
    for rows, cols in [(1, 4), (2, 5), (3, 3), (3, 6), (4, 4)] * 4:
        M = sparse_matrix(R, rows, cols, rng)
        entries = [[domain(x.payload.numerator, x.payload.denominator) if name == "Q"
                    else domain(x.payload) for x in row] for row in M.data]
        _, pivots = DomainMatrix(entries, (rows, cols), domain).rref()
        assert minimal_generators(R, M) == M.submatrix(range(rows), list(pivots))
        # a Howell form over Q, F_p coordinates over a prime field
        assert not solves


def test_minimal_generators_make_no_solve_over_a_chain_ring(monkeypatch):
    R = TIERS["Z/27"]
    solves = count_calls(monkeypatch, linalg.solve)
    rng = random.Random("solves:Z/27")
    for rows, cols in [(1, 4), (2, 5), (3, 3), (3, 6), (4, 4)] * 4:
        minimal_generators(R, sparse_matrix(R, rows, cols, rng))
    assert not solves


def redundant_matrix(R, rows, cols, rng):
    """[B | B X | g B] for a seeded sparse B and X, g the generator of m
    (none over Q): columns in the span of earlier ones and in m M, shuffled
    so that redundant columns come first too."""
    B = sparse_matrix(R, rows, cols, rng)
    blocks = [B, B * sparse_matrix(R, cols, rng.randint(1, 3), rng)]
    blocks += [B.scale(g) for g in _maximal_ideal_elements(R)]
    columns = [c for block in blocks for c in block.columns()]
    rng.shuffle(columns)
    return hstack(R, rows, columns)


@pytest.mark.parametrize("name", list(CHAIN_RINGS))
def test_minimal_generators_read_the_pivots_of_one_howell_form(monkeypatch, name):
    # over Z/p^k and Q the keeps are the pivot columns of the Howell form of
    # [m M | M]: one _howell call, no solve, the columns of the solve rule
    R = CHAIN_RINGS[name]
    solves = count_calls(monkeypatch, linalg.solve)
    howells = count_calls(monkeypatch, linalg._howell)
    rng = random.Random(f"howell keeps:{name}")
    for rows, cols in [(1, 2), (1, 4), (2, 3), (3, 3), (3, 5), (4, 2)] * 3:
        M = redundant_matrix(R, rows, cols, rng)
        expected = nakayama_oracle(R, M)  # by solve, so counted before the reset
        solves.clear()
        howells.clear()
        kept = minimal_generators(R, M).columns()
        assert kept == expected
        nonzero = sum(not c.is_zero() for c in M.columns())
        assert (len(solves), len(howells)) == (0, 1 if nonzero >= 2 else 0)


def test_minimal_generators_drop_a_column_in_m_m_over_z27():
    # 3 = 3 c_2 lies in m M, so only c_2 generates; a Howell read of M alone,
    # without the m M block, has a pivot in both columns
    R = TIERS["Z/27"]
    M = Matrix.from_rows(R, [[R.from_int(3), R.one]])
    assert minimal_generators(R, M) == M.submatrix([0], [1])


@pytest.mark.parametrize("name", list(ALL))
def test_coordinates_are_the_nonzero_coordinates_of_some_entry(name):
    # the folded union against every nonzero field read one by one
    view = _fp_view_of(ALL[name])
    rng = random.Random(f"coordinates:{name}")
    for n in (1, 2, 3, 7, 16):
        for density in (0.05, 0.3):
            vecs = [sum(rng.randrange(1, view.p) << t * view.codec.width
                        for t in range(n * view.dim) if rng.random() < density)
                    for _ in range(rng.randint(0, 3))]
            expected = {t % view.dim for v in vecs for t, _ in view.codec.nonzero(v)}
            assert view.coordinates(vecs) == expected


def test_resolution_over_a_view_ring_is_built_by_the_coordinate_step():
    R = RINGS["F2[x,y]/(x,y)^2"]
    k = du.ModulePresentation.residue_field(R)
    diffs = du.resolve(k, 6)
    for d, e in zip(diffs, diffs[1:]):
        assert e == minimal_generators(R, kernel_basis(R, d))


# ---------------------------------------------------------------------------
# the packed resolution loop


PACKED = {
    "F2[x,y]/(x,y)^2": RINGS["F2[x,y]/(x,y)^2"],
    "F3[x,y,z]/(x,y,z)^2": poly_quotient("F3", ["x", "y", "z"],
                                         ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    "F5[x]/(x^3)": poly_quotient("F5", ["x"], ["x^3"]),
    "F7": RINGS["F7"],
}


def stored(diffs):
    return [(d.rows, d.cols, d.sparse_rows) for d in diffs]


@pytest.mark.parametrize("name", list(PACKED))
def test_resolve_gives_the_matrices_of_the_step_by_step_resolution(name):
    R = PACKED[name]
    rng = random.Random(f"packed:{name}")
    pool = list(R.elements())
    modules = [du.ModulePresentation.free(R, 2)]
    if R.kind == "polyquot":
        modules.append(du.ModulePresentation.residue_field(R))
    for _ in range(4):
        gens, c = rng.randint(1, 3), rng.randint(1, 3)
        modules.append(du.ModulePresentation(R, gens, Matrix.from_rows(
            R, [[rng.choice(pool) for _ in range(c)] for _ in range(gens)])))
    for M in modules:
        for depth in (1, 2, 5):
            assert stored(du.resolve(M, depth)) == stored(reference_resolve(M, depth))
        # window 0 reads d_1 alone
        assert du.ext_table(M, M, 0) == presented_route(M, M, 0)


def test_a_free_module_resolution_stops_at_once():
    for R in PACKED.values():
        F = du.ModulePresentation.free(R, 3)
        (d,) = du.resolve(F, 6)
        assert (d.rows, d.cols) == (3, 0)
        res = linalg.resolution(R, d, 6)
        assert (res.diffs, res.ranks, res.period) == ([[]], [3, 0], None)
        table = du.ext_table(F, F, 2)
        assert table[0].cardinality == R.cardinality() ** 9
        assert all(h.is_zero for h in table[1:])


@pytest.mark.parametrize("name", ["F2[x,y]/(x,y)^2", "F3[x,y,z]/(x,y,z)^2"])
def test_a_planted_kernel_error_raises_not_a_complex(name, monkeypatch):
    # one kernel vector gets 1 added at its first coordinate, the unit of
    # entry 0, so Nakayama keeps it and d_1 times it is column 0 of d_1
    R = PACKED[name]
    k = du.ModulePresentation.residue_field(R)
    codec = _fp_view_of(R).codec
    reduce_columns = linalg._reduce_columns

    def corrupted(*args):
        rank, vecs = reduce_columns(*args)
        return rank, ([codec.axpy(vecs[0], 1, 1)] + vecs[1:] if vecs else vecs)

    assert du.ext_table(k, k, 2) == presented_route(k, k, 2)
    monkeypatch.setattr(linalg, "_reduce_columns", corrupted)
    for run in (lambda: du.ext_table(k, k, 2), lambda: du.resolve(k, 3)):
        with pytest.raises(NotAComplex) as err:
            run()
        assert err.value.degree == 1


def test_a_planted_kernel_error_over_a_prime_field(monkeypatch):
    R = RINGS["F7"]
    A = Matrix.from_rows(R, [[R.from_int(1), R.from_int(2), R.from_int(3)]])
    assert kernel_resolution(R, A, 1)[0].cols == 2
    codec = _fp_view_of(R).codec
    reduce_columns = linalg._reduce_columns

    def corrupted(*args):
        rank, vecs = reduce_columns(*args)
        return rank, [codec.axpy(v, 1, 1) for v in vecs]

    monkeypatch.setattr(linalg, "_reduce_columns", corrupted)
    with pytest.raises(NotAComplex):
        kernel_resolution(R, A, 1)


# ---------------------------------------------------------------------------
# one kernel step for every F_p-algebra


UNIVARIATE = {
    "F2[x]/(x^4)": RINGS["F2[x]/(x^4)"],
    "F3[x]/(x^3)": poly_quotient("F3", ["x"], ["x^3"]),
}


@pytest.mark.parametrize("name", list(UNIVARIATE))
def test_ext_over_a_univariate_algebra_makes_no_howell_round_trip(name, monkeypatch):
    # the resolution of k stays in F_p coordinates: no differential goes back
    # to a matrix and through the Howell kernel
    R = UNIVARIATE[name]
    k = du.ModulePresentation.residue_field(R)
    howell = count_calls(monkeypatch, linalg._howell)
    kernels = count_calls(monkeypatch, linalg.kernel_basis)
    matrices, matrix = [], linalg._FpView.matrix
    monkeypatch.setattr(linalg._FpView, "matrix",
                        lambda view, *args: matrices.append(args) or matrix(view, *args))
    assert [h.cardinality for h in du.ext_table(k, k, 6)] == [R.coeff.p] * 7
    assert not du.homothety_check(k, 6).ok
    assert (howell, kernels, matrices) == ([], [], [])


NON_LOCAL = {
    # (R, a): R/(x^a) is a direct factor of R
    "F2[x]/(x^4+x^2)": (poly_quotient("F2", ["x"], ["x^4 + x^2"]), 2),
    "F3[x]/(x^3-x)": (poly_quotient("F3", ["x"], ["x^3 - x"]), 1),
    "F2[x,y]/(x^2+x,y^2+y)": (poly_quotient("F2", ["x", "y"], ["x^2 + x", "y^2 + y"]), 1),
}


@pytest.mark.parametrize("name", list(NON_LOCAL))
def test_a_direct_factor_of_a_non_local_algebra_resolves_in_rank_one(name):
    # R/(x^a) is projective, so Ext^i(M, M) = 0 for i >= 1 and Hom(M, M) = M;
    # without pruning, the kernels of the multivariate case grow threefold
    R, a = NON_LOCAL[name]
    assert not R.local
    M = du.ModulePresentation.cyclic(R, [R.variable("x") ** a])
    res = linalg.resolution(R, minimal_generators(R, M.relations), 6)
    assert max(res.ranks) <= 1 and res.period is not None
    table = du.ext_table(M, M, 40)
    assert table[0].cardinality == M.cardinality()
    assert all(h.cardinality == 1 for h in table[1:])
    assert du.ext_table(M, M, 3) == presented_route(M, M, 3)


# ---------------------------------------------------------------------------
# the F_p Hom route against the presented-complex oracle


@pytest.mark.parametrize("name", list(ALL))
def test_fp_hom_route_gives_the_summaries_of_presented_homology(name):
    rng = random.Random(f"ext-fp:{name}")
    for _ in range(5):
        M, N = random_presentation(name, rng), random_presentation(name, rng)
        assert N.fp_data is not None
        assert du.ext_table(M, N, 3) == presented_route(M, N, 3)


@pytest.mark.parametrize("name", ["F2[x]/(x^4)", "F5[x]/(x^2)", "F7", "F2[x,y]/(x,y)^2",
                                  "F2[x,y]/(x^2+x,y^2)"])
def test_fp_hom_route_edge_cases(name):
    R = RINGS[name]
    zero = du.ModulePresentation(R, 0, Matrix.zeros(R, 0, 0))
    unit_quotient = du.ModulePresentation(R, 1, Matrix.from_rows(R, [[R.one]]))
    free = du.ModulePresentation.free(R, 2)
    modules = [zero, unit_quotient, free]
    if R.local:
        modules.append(du.ModulePresentation.residue_field(R))
    for M in modules:
        for N in modules:
            for window in (0, 1, 3):
                assert du.ext_table(M, N, window) == presented_route(M, N, window)
    # Hom(R^2, 0): the ambient of Hom(F_0, N) has rank 0
    h = du.ext_table(free, zero, 0)[0]
    assert h.is_zero and h.cardinality == 1
    assert h.free_rank == 0 and h.invariant_factors == ()
    # Ext^i(R^2, -) = 0 for i > 0: b_i = 0
    assert all(h.free_rank == 0 for h in du.ext_table(free, free, 2)[1:])
    # Hom(R^2, R^2) = R^4
    assert du.ext_table(free, free, 0)[0].cardinality == R.cardinality() ** 4


def test_module_fp_data_is_kept_on_the_presentation():
    R = RINGS["F3[x,y]/(x^2,y^2)"]
    k = du.ModulePresentation.residue_field(R)
    fp = k.fp_data
    assert fp is k.fp_data and fp.dim == 1
    assert du.ModulePresentation.free(R, 2).fp_data.dim == 8
    assert du.ModulePresentation.free(RINGS["F7"], 1).fp_data.dim == 1
    assert du.ModulePresentation.residue_field(Zmod(9)).fp_data is None


# ---------------------------------------------------------------------------
# Poincare series of the residue field


POINCARE = [
    ("F2[x,y]/(x,y)^2", RINGS["F2[x,y]/(x,y)^2"], lambda n: 2 ** n),
    ("F3[x,y]/(x,y)^2", poly_quotient("F3", ["x", "y"], ["x^2", "x*y", "y^2"]),
     lambda n: 2 ** n),
    ("F2[x,y,z]/(x,y,z)^2",
     poly_quotient("F2", ["x", "y", "z"], ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
     lambda n: 3 ** n),
    # (1+t)^d / (1-t^2)^d = 1 / (1-t)^d
    ("F3[x,y,z]/(x^2,y^2,z^2)", poly_quotient("F3", ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
     lambda n: comb(n + 2, 2)),
    ("F2[x,y]/(x^4,y^3)", poly_quotient("F2", ["x", "y"], ["x^4", "y^3"]),
     lambda n: n + 1),
]


@pytest.mark.parametrize("name,R,betti", POINCARE, ids=[c[0] for c in POINCARE])
def test_betti_numbers_and_ext_of_the_residue_field_follow_the_poincare_series(
        name, R, betti):
    k = du.ModulePresentation.residue_field(R)
    rc = resolution_complex(k, 7)
    assert [rc.rank(n) for n in range(8)] == [betti(n) for n in range(8)]
    # minimal: Hom(F, k) has zero differentials, so Ext^n(k, k) = k^{b_n}
    p = R.coeff.p
    assert [h.cardinality for h in du.ext_table(k, k, 6)] == [p ** betti(n) for n in range(7)]


# ---------------------------------------------------------------------------
# minimality, certified by Ext(M, k)


LOCAL = {
    "Z/8": Zmod(8),
    "Z/25": Zmod(25),
    "Z/27": Zmod(27),
    "F2[x]/(x^4)": poly_quotient("F2", ["x"], ["x^4"]),
    "F2[x,y]/(x,y)^2": RINGS["F2[x,y]/(x,y)^2"],
    "F3[x,y]/(x^2,y^2)": RINGS["F3[x,y]/(x^2,y^2)"],
}


@pytest.mark.parametrize("name", list(LOCAL))
def test_resolutions_are_minimal_by_the_ext_of_the_residue_field(name):
    # A free resolution F of M is minimal exactly when every d_i has its
    # entries in m; then Hom(F, k) has zero differentials and |Ext^i(M, k)|
    # = |k|^{rank F_i}.  A unit entry in d_i or d_{i+1} makes Hom(d, k)
    # nonzero and Ext^i smaller, so this reads no keep rule.  The relation
    # entries lie in m, so F_0 = R^gens is minimal too.
    R = LOCAL[name]
    k = du.ModulePresentation.residue_field(R)
    q, window = k.cardinality(), 5
    pool = helpers.maximal_ideal_pool(R)
    rng = random.Random(f"minimal:{name}")
    for _ in range(6):
        gens, c = rng.randint(1, 3), rng.randint(1, 4)
        M = du.ModulePresentation(R, gens, Matrix.from_rows(
            R, [[rng.choice(pool) for _ in range(c)] for _ in range(gens)]))
        res = linalg.resolution(R, minimal_generators(R, M.relations), window)
        ranks = [gens] + [d.cols for d in res.matrices(window)]
        ranks += [0] * (window + 1 - len(ranks))
        assert [h.cardinality for h in du.ext_table(M, k, window)] == [q ** r for r in ranks]


# ---------------------------------------------------------------------------
# bounded caches


def test_fp_view_caches_stay_bounded_by_the_standard_monomials():
    R = RINGS["F3[x,y]/(x^2,y^2)"]
    view = _fp_view_of(R)
    elements = POOLS["F3[x,y]/(x^2,y^2)"]
    assert len(elements) > view.dim ** 2
    one = Matrix.from_rows(R, [[R.one]])
    k = du.ModulePresentation.residue_field(R)
    fp = k.fp_data

    def coords(v, n):
        # the packed vector v as a list of its n coordinates
        out = [0] * n
        for j, c in view.codec.nonzero(v):
            out[j] = c
        return out

    for a in elements:
        # the expansion of [a] maps the coordinates of b to those of a b
        (va,) = view.columns(one.scale(a))
        rows = helpers.reference_expand(view, [va], 1)
        rows = [coords(r, view.dim) for r in rows]
        for b in elements[:9]:
            (vb,) = view.columns(one.scale(b))
            (vab,) = view.columns(one.scale(a * b))
            vb, vab = coords(vb, view.dim), coords(vab, view.dim)
            assert [sum(x * y for x, y in zip(r, vb)) % 3 for r in rows] == vab
        # a acts on k = R/m as its constant term, so Hom([a], k) : k -> k,
        # phi -> phi a, has rank 1 exactly when that term is nonzero
        constant = bool(a.payload) and not any(a.payload[-1][0])
        assert fp.dual_rank(view.columns(one.scale(a))) == int(constant)
        view.action(a.payload, 2)
    du.resolve(k, 4)
    assert len(view._monomial_rows) <= view.dim
    assert len(view._moves) <= view.dim
    assert len(R._mul_table) <= view.dim ** 2
    assert len(fp._monomial_action) <= view.dim
