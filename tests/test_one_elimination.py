"""One F_p elimination behind every public kernel, solve and span size over
a ring with an F_p view, F_p[x]/(f) included.

- Matrices over another ring are refused with MixedRings, never read as
  matrices over the ring asked for.
- `kernel_basis` is a resolution step: the same kernel function
  (`_packed_kernel`) gives the first kernel of `resolution`, and the
  kernel of a zero matrix over a local ring is the identity.
- Against the row route that the column reduction replaced (the
  expansion's rows, eliminated by `_fp_rref`): `solve` returns its very
  solution, `span_cardinality` is p to its rank, and the kernel is the
  list path's basis over a prime field and the Nakayama-kept subset of the
  row kernel over an algebra.
- The Howell engine runs over F_p[x]/(f) only for `howell_form`.
"""

import random

import pytest

from koszulkit import duality as du
from koszulkit import linalg
from koszulkit.errors import MixedRings, ToolkitError
from koszulkit.linalg import (
    _fp_view_of, _nakayama_keep, homology_module, howell_form, kernel_basis,
    kernel_cardinality, kernel_resolution, solve, span_cardinality, subquotient,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, Zmod, poly_quotient

from helpers import count_calls, reference_expand, row_kernel, row_rank, row_solve
from test_fp_codec import reference_kernel

LOCAL = {
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "F3[x,y,z]/(x^2,y^2,z^2)": poly_quotient("F3", ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    "F2[x]/(x^4)": poly_quotient("F2", ["x"], ["x^4"]),
    "F7": GF(7),
}
STEP_RINGS = {**LOCAL, "F2[x]/(x^2+x)": poly_quotient("F2", ["x"], ["x^2 + x"])}
PRIME = {f"F{p}": GF(p) for p in (2, 3, 7, 17)}
ALGEBRAS = {
    "F2[x,y]/(x,y)^2": LOCAL["F2[x,y]/(x,y)^2"],
    "F2[x]/(x^4+x^2)": poly_quotient("F2", ["x"], ["x^4 + x^2"]),
}
UNIVARIATE = {
    "F2[x]/(x^4)": LOCAL["F2[x]/(x^4)"],
    "F3[x]/(x^3)": poly_quotient("F3", ["x"], ["x^3"]),
    "F2[x]/(x^4+x^2)": ALGEBRAS["F2[x]/(x^4+x^2)"],
}


def seeded_matrix(R, rows, cols, rng):
    """A seeded rows x cols matrix over R, each coordinate of each entry
    nonzero with one density per matrix; a row and a column are zero about
    half the time each."""
    view = _fp_view_of(R)
    D, w, p = view.dim, view.codec.width, view.p
    density = rng.choice([0.2, 0.5, 1.0])
    zero_row = rng.randrange(rows) if rows and rng.random() < 0.5 else None
    zero_col = rng.randrange(cols) if cols and rng.random() < 0.5 else None
    vecs = []
    for j in range(cols):
        v = 0
        for t in range(rows * D):
            if j != zero_col and t // D != zero_row and rng.random() < density:
                v |= rng.randrange(1, p) << t * w
        vecs.append(v)
    return view.matrix(vecs, rows)


def shapes(rng, count):
    yield from [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)]
    for _ in range(count):
        yield rng.randint(1, 6), rng.randint(1, 6)


# ---------------------------------------------------------------------------
# mixed rings


def test_a_matrix_over_another_ring_is_refused():
    assert issubclass(MixedRings, ToolkitError)  # the CLI exits 2 on it
    Z4, Z8, F2, F7 = Zmod(4), Zmod(8), GF(2), GF(7)
    A4 = Matrix.from_rows(Z4, [[Z4.from_int(2), Z4.zero], [Z4.zero, Z4.zero]])
    A2 = Matrix.from_rows(F2, [[F2.one]])
    B7 = Matrix.from_rows(F7, [[F7.one]])
    calls = [
        lambda: kernel_basis(Z8, A4),
        lambda: span_cardinality(F7, A2),
        lambda: span_cardinality(F7, Matrix.zeros(F2, 2, 0)),
        lambda: kernel_cardinality(F7, A2),
        lambda: solve(F7, A2, B7),
        lambda: solve(F7, B7, A2),
        lambda: subquotient(F7, A2, B7),
        lambda: subquotient(F7, B7, A2),
        lambda: homology_module(F7, Matrix.zeros(F2, 1, 1), A2),
    ]
    for call in calls:
        with pytest.raises(MixedRings):
            call()
    # an equal ring made again is the same ring
    assert kernel_basis(F2, Matrix.from_rows(GF(2), [[GF(2).one]])).cols == 0


# ---------------------------------------------------------------------------
# a kernel is a resolution step


@pytest.mark.parametrize("name", list(STEP_RINGS))
def test_kernel_basis_is_the_first_resolution_step(name, monkeypatch):
    R = STEP_RINGS[name]
    rng = random.Random(f"one-step:{name}")
    kernels = count_calls(monkeypatch, linalg._packed_kernel)
    for rows, cols in shapes(rng, 10):
        for A in (seeded_matrix(R, rows, cols, rng), Matrix.zeros(R, rows, cols)):
            kernels.clear()
            K = kernel_basis(R, A)
            assert len(kernels) == 1
            # no step below a matrix with no columns: its kernel is 0
            step = (kernel_resolution(R, A, 1) or [Matrix.zeros(R, 0, 0)])[0]
            assert len(kernels) == 1 + bool(cols)
            assert K == step and K.sparse_rows == step.sparse_rows
            assert (A * K).is_zero()
            assert span_cardinality(R, K) == kernel_cardinality(R, A)


@pytest.mark.parametrize("name", list(LOCAL))
def test_the_kernel_of_a_zero_matrix_over_a_local_ring_is_the_identity(name):
    R = LOCAL[name]
    for rows, cols in [(0, 3), (1, 1), (2, 3), (3, 2)]:
        assert kernel_basis(R, Matrix.zeros(R, rows, cols)) == Matrix.identity(R, cols)


# ---------------------------------------------------------------------------
# the row route as the oracle


def row_route(R, A):
    """(view, the rows of A's expansion over F_p, their column count)."""
    view = _fp_view_of(R)
    return view, reference_expand(view, view.columns(A), A.rows), A.cols * view.dim


def right_hand_sides(R, A, rng):
    """A consistent B = A X0, a random B and a B with no columns."""
    X0 = seeded_matrix(R, A.cols, 2, rng)
    return [A * X0, seeded_matrix(R, A.rows, 2, rng), Matrix.zeros(R, A.rows, 0)]


@pytest.mark.parametrize("name", list(PRIME) + list(ALGEBRAS))
def test_solve_and_span_equal_the_row_route(name):
    R = {**PRIME, **ALGEBRAS}[name]
    rng = random.Random(f"row-route:{name}")
    solved = 0
    for rows, cols in shapes(rng, 16):
        A = seeded_matrix(R, rows, cols, rng)
        view, expanded, ncols = row_route(R, A)
        assert span_cardinality(R, A) == view.p ** row_rank(R, A)
        for B in right_hand_sides(R, A, rng):
            sols = row_solve(view.codec, expanded, ncols, view.columns(B))
            X = solve(R, A, B)
            if sols is None:
                assert X is None
                continue
            ref = view.matrix(sols, A.cols)
            assert (X.rows, X.cols, X.sparse_rows) == (ref.rows, ref.cols, ref.sparse_rows)
            assert A * X == B
            solved += 1
    assert solved


@pytest.mark.parametrize("name", list(PRIME) + list(ALGEBRAS))
def test_kernels_are_the_kept_row_kernel(name):
    # over a prime field every kernel vector is kept, and the list path's
    # basis is the oracle; over an algebra the row kernel, by `_fp_rref`
    R = {**PRIME, **ALGEBRAS}[name]
    rng = random.Random(f"kept-kernel:{name}")
    for rows, cols in shapes(rng, 16):
        A = seeded_matrix(R, rows, cols, rng)
        K = kernel_basis(R, A)
        if name in PRIME:
            grid = [[x.payload for x in row] for row in A.data]
            assert [[x.payload for x in col] for col in K.transpose().data] == \
                reference_kernel(R.modulus, grid, cols)
            continue
        view, expanded, ncols = row_route(R, A)
        vecs = row_kernel(view.codec, expanded, ncols)
        keep = _nakayama_keep(view, vecs, cols, submodule=True) if len(vecs) > 1 else \
            range(len(vecs))
        assert view.columns(K) == [vecs[j] for j in keep]


# ---------------------------------------------------------------------------
# Howell over F_p[x]/(f): the normal form alone


@pytest.mark.parametrize("name", list(UNIVARIATE))
def test_howell_runs_over_a_univariate_algebra_only_for_its_normal_form(name, monkeypatch):
    R = UNIVARIATE[name]
    rng = random.Random(f"no-howell:{name}")
    howell = count_calls(monkeypatch, linalg._howell)
    for rows, cols in shapes(rng, 6):
        A = seeded_matrix(R, rows, cols, rng)
        W = seeded_matrix(R, rows, 2, rng)
        kernel_basis(R, A)
        for B in right_hand_sides(R, A, rng):
            solve(R, A, B)
        span_cardinality(R, A)
        kernel_cardinality(R, A)
        subquotient(R, A, W)
        homology_module(R, Matrix.zeros(R, cols, 1), A)
        assert howell == []
        howell_form(R, A)
        assert howell == [R]
        howell.clear()


def test_lifting_over_f2t_makes_no_howell_call(monkeypatch):
    F2t = poly_quotient("F2", ["t"])
    t = F2t.variable("t")
    x = t * t
    S, _ = du.quotient_by_element(F2t, x)
    howell = count_calls(monkeypatch, linalg._howell)
    solves = count_calls(monkeypatch, linalg.solve)
    free = du.lifting_verify(F2t, x, du.ModulePresentation.free(F2t, 2),
                             du.ModulePresentation.free(S, 2))
    cyclic = du.lifting_verify(F2t, x, du.ModulePresentation.cyclic(F2t, [t + F2t.one]),
                               du.ModulePresentation.cyclic(S, [S.variable("t") + S.one]))
    assert free.ok and free.iso_found and cyclic.ok
    assert S in solves and howell == []
