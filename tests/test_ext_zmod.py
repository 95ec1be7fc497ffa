"""Ext over Z/n, computed from the resolution alone.

Hom(F_i, N) = N^{b_i}, so |Ext^i(M, N)| is |N|^{b_i} over the sizes of the
images of Hom(d_i, N) and Hom(d_{i+1}, N), each the span size of one Hom
block over that of N's relations (`duality._hom_block`, read by
`duality._dual_images`), one Howell pass each.  Checked here:

- the summaries equal those of the presented-complex oracle in `helpers`
  (presented_route), the route this one replaced, on seeded presentations
  over Z/8, Z/12, Z/27 and Z/36 and on the edge modules;
- closed forms for cyclic modules over Z/p^k, whose resolutions alternate
  multiplication by p^a and p^(k-a);
- the certificates: a planted d_i d_{i+1} != 0 still raises NotAComplex,
  and image sizes that do not divide |Hom(F_i, N)| raise ArithmeticError;
- modules over different rings are refused before any resolution work;
- the Howell rows are read from the stored rows of the matrices.
"""

import random

import pytest

from koszulkit import complexes, duality as du, linalg
from koszulkit.errors import MixedRings, NotAComplex
from koszulkit.linalg import (
    _augmented_transpose, _column_grid, _payload_grid, kernel_basis, minimal_generators,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, ZZ, Zmod, poly_quotient

from helpers import count_calls, presented_route, random_matrix

RINGS = {n: Zmod(n) for n in (8, 12, 27, 36)}


def random_presentation(R, rng):
    gens = rng.randint(1, 3)
    return du.ModulePresentation(R, gens, random_matrix(R, gens, rng.randint(0, 3), rng))


# ---------------------------------------------------------------------------
# against the presented complex


@pytest.mark.parametrize("n", list(RINGS))
def test_zmod_route_gives_the_summaries_of_presented_homology(n):
    R = RINGS[n]
    rng = random.Random(f"ext-zmod:{n}")
    for _ in range(6):
        M, N = random_presentation(R, rng), random_presentation(R, rng)
        assert N.fp_data is None
        for window in (0, 1, 3):
            assert du.ext_table(M, N, window) == presented_route(M, N, window)


@pytest.mark.parametrize("n", list(RINGS))
def test_zmod_route_edge_cases(n):
    R = RINGS[n]
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
    # Hom(R^2, 0) and Hom(0, R^2): the ambient of Hom(F_0, N) has rank 0
    for M, N in ((free, zero), (zero, free)):
        h = du.ext_table(M, N, 0)[0]
        assert h.is_zero and h.cardinality == 1
        assert h.free_rank == 0 and h.invariant_factors == ()
    # Ext^i(R^2, -) = 0 for i > 0: b_i = 0
    assert all(h.free_rank == 0 for h in du.ext_table(free, free, 2)[1:])
    assert du.ext_table(free, free, 0)[0].cardinality == n ** 4
    # R/(1) = 0: every Ext vanishes, with a nonzero ambient
    assert all(h.is_zero and h.cardinality == 1
               for h in du.ext_table(unit_quotient, free, 3))


def test_zmod_route_builds_no_hom_complex(monkeypatch):
    R = RINGS[27]
    k = du.ModulePresentation.residue_field(R)
    calls = [count_calls(monkeypatch, f) for f in (
        complexes.hom_complex, complexes.tensor, linalg.subquotient)]
    loops = count_calls(monkeypatch, linalg.resolution)
    assert [h.cardinality for h in du.ext_table(k, k, 20)] == [3] * 21
    assert calls == [[], [], []]
    # one run of the resolution loop, which returns no matrices to resolve
    assert len(loops) == 1


# ---------------------------------------------------------------------------
# closed forms over Z/p^k


def cyclic(R, p, a, k):
    """Z/p^a as a module over R = Z/p^k (R itself when a = k)."""
    if a == k:
        return du.ModulePresentation.free(R, 1)
    return du.ModulePresentation.cyclic(R, [R.from_int(p ** a)])


def closed_form(p, k, a, b, window):
    """|Ext^i_{Z/p^k}(Z/p^a, Z/p^b)| for i = 0..window.  The resolution of
    Z/p^a alternates p^a and p^(k-a), so Hom into Z/p^b alternates the
    same multiplications, whose kernel has p^min(c, b) elements and whose
    image p^max(b-c, 0)."""
    if a == k:
        return [p ** b] + [1] * window
    odd = min(k - a, b) - max(b - a, 0)
    even = min(a, b) - max(b - k + a, 0)
    return [p ** min(a, b)] + [p ** (odd if i % 2 else even) for i in range(1, window + 1)]


@pytest.mark.parametrize("p, k", [(2, 3), (2, 4), (3, 3)])
def test_cyclic_modules_over_a_chain_ring_follow_the_closed_form(p, k):
    R = Zmod(p ** k)
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            M, N = cyclic(R, p, a, k), cyclic(R, p, b, k)
            table = du.ext_table(M, N, 5)
            assert [h.cardinality for h in table] == closed_form(p, k, a, b, 5), (a, b)
            assert [h.is_zero for h in table] == [h.cardinality == 1 for h in table]


# ---------------------------------------------------------------------------
# certificates


def test_a_planted_kernel_error_raises_not_a_complex(monkeypatch):
    # the kernel [9] of d_1 = [3] becomes the unit [10], so d_1 d_2 = [3]
    R = RINGS[27]
    k = du.ModulePresentation.residue_field(R)
    kernel = linalg.kernel_basis

    def corrupted(ring, A):
        K = kernel(ring, A)
        if not K.cols:
            return K
        rows = [list(row) for row in K.data]
        rows[0][0] += ring.one
        return Matrix.from_rows(ring, rows)

    assert du.ext_table(k, k, 2) == presented_route(k, k, 2)
    monkeypatch.setattr(linalg, "kernel_basis", corrupted)
    with pytest.raises(NotAComplex) as err:
        du.ext_table(k, k, 2)
    assert err.value.degree == 1


def test_image_sizes_that_do_not_divide_raise(monkeypatch):
    R = RINGS[27]
    k = du.ModulePresentation.residue_field(R)
    dual_images = du._dual_images

    def doubled(*args):
        size, images = dual_images(*args)
        return size, [2 * x for x in images]

    monkeypatch.setattr(du, "_dual_images", doubled)
    with pytest.raises(ArithmeticError):
        du.ext_table(k, k, 2)


# ---------------------------------------------------------------------------
# mixed rings


@pytest.mark.parametrize("left, right", [
    (Zmod(8), Zmod(4)),                                     # Z/n route
    (Zmod(4), poly_quotient("F2", ["x"], ["x^2"])),         # F_p route
    (GF(3), GF(5)),                                         # F_p route
    (Zmod(4), ZZ()),                                        # presented route
])
def test_mixed_rings_are_refused_before_any_resolution(left, right, monkeypatch):
    seen = [count_calls(monkeypatch, f) for f in (
        du.resolve, linalg.minimal_generators, linalg.resolution)]
    M = du.ModulePresentation(left, 1, Matrix.from_rows(left, [[left.from_int(2)]]))
    N = du.ModulePresentation.free(right, 1)
    with pytest.raises(MixedRings):
        du.ext_table(M, N, 3)
    assert seen == [[], [], []]


# ---------------------------------------------------------------------------
# the Howell rows come from the stored rows


def forbid(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("a stored-row reader called a dense or copying helper")

    for name in names:
        monkeypatch.setattr(Matrix, name, refuse)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (3, 5), (6, 2)])
def test_augmented_rows_are_read_from_the_stored_rows(shape, monkeypatch):
    R = RINGS[12]
    rng = random.Random(f"augmented:{shape}")
    for density in (0.0, 0.4, 1.0):
        A = random_matrix(R, *shape, rng)
        if density < 1.0 and A.rows and A.cols:
            A = Matrix.from_rows(R, [[x if rng.random() < density else R.zero for x in row]
                                     for row in A.data])
        reference = _payload_grid(A.transpose().hstack(Matrix.identity(R, A.cols)))
        columns = _payload_grid(A.transpose())
        with monkeypatch.context() as m:
            forbid(m, "transpose", "hstack", "columns")
            m.setattr(Matrix, "identity", None)
            m.setattr(linalg, "_payload_grid", None)
            assert _augmented_transpose(A) == reference
            assert _column_grid(A) == columns


def test_minimal_generators_drop_zero_columns_from_the_stored_rows(monkeypatch):
    rng = random.Random("zero-columns")
    for n in (12, 27):
        R = RINGS[n]
        for _ in range(8):
            A = random_matrix(R, rng.randint(1, 3), rng.randint(1, 4), rng)
            zeroed = {j for j in range(A.cols) if rng.random() < 0.5}
            A = Matrix.from_rows(R, [[R.zero if j in zeroed else x for j, x in enumerate(row)]
                                     for row in A.data])
            kept = [j for j in range(A.cols) if j not in zeroed and
                    any(A.data[i][j] for i in range(A.rows))]
            expected = A.submatrix(range(A.rows), kept)
            if R.local and len(kept) > 1:
                continue  # the Nakayama pass solves after the zero test
            with monkeypatch.context() as m:
                forbid(m, "columns", "transpose")
                assert minimal_generators(R, A) == expected
