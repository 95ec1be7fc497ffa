"""The column reduction of a packed resolution step against the row route.

`linalg._reduce_columns` reads the kernel and the rank of a differential's
expansion over F_p from the columns b_a c_j, with no F_p rows made.  The
oracle is the row route it replaced: the expansion row by row
(`helpers.reference_expand`, itself checked against ring products entry by
entry), then `helpers.row_kernel` and `helpers._fp_rref`.  Kernel vectors
must be equal as packed ints, so every resolution, period and Ext table
stays byte-identical.  Rings cover one-bit, one-byte and two-byte fields
(F17, F101), local algebras of dimension up to 12 and a non-local one;
shapes include 0 rows and 0 columns.
"""

import random

import pytest

from koszulkit import duality as du
from koszulkit import linalg
from koszulkit.linalg import _fp_view_of, _reduce_columns
from koszulkit.matrices import Matrix
from koszulkit.rings import GF, poly_quotient

from helpers import ReferencePackedSteps, _fp_rref, count_calls, reference_expand, row_kernel

PRIME = {f"F{p}": GF(p) for p in (2, 3, 5, 7, 13, 17, 101)}
ALGEBRAS = {
    "F2[x,y]/(x,y)^2": poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    "F3[x,y]/(x^2,y^2)": poly_quotient("F3", ["x", "y"], ["x^2", "y^2"]),
    "F5[x]/(x^3)": poly_quotient("F5", ["x"], ["x^3"]),
    "F2[x,y]/(x^4,y^3)": poly_quotient("F2", ["x", "y"], ["x^4", "y^3"]),
    "F2[x]/(x^4+x^2)": poly_quotient("F2", ["x"], ["x^4 + x^2"]),
}
RINGS = {**PRIME, **ALGEBRAS}


def random_columns(view, nrows, ncols, rng):
    """ncols packed columns of nrows entries, each coordinate nonzero with
    one density per matrix.  In half the matrices no entry has a unit
    coordinate (entries in the maximal ideal of a local algebra), as in a
    minimal resolution."""
    D, w, p = view.dim, view.codec.width, view.p
    density = rng.choice([0.0, 0.15, 0.5, 1.0])
    in_m = rng.random() < 0.5
    cols = []
    for _ in range(ncols):
        v = 0
        for t in range(nrows * D):
            if (t % D or not in_m or D == 1) and rng.random() < density:
                v |= rng.randrange(1, p) << t * w
        cols.append(v)
    return cols


def product_expansion(view, cols, nrows):
    """The rows of the expansion over F_p as lists, from ring products: the
    entry at row (i, b), column (j, a) is coordinate b of a_ij b_a."""
    R, D = view.ring, view.dim
    rows = [[0] * (len(cols) * D) for _ in range(nrows * D)]
    for i, entries in enumerate(view.matrix(cols, nrows).data):
        for j, x in enumerate(entries):
            for a, b_a in enumerate(view.basis):
                product = R.mul_payload(x.payload, b_a)
                terms = [(0, product)] if view.std is None else \
                    [(view.index[m], c) for m, c in product]
                for b, c in terms:
                    rows[i * D + b][j * D + a] = c
    return rows


def shapes(rng):
    yield from [(0, 0), (0, 3), (3, 0), (1, 1)]
    for _ in range(36):
        yield rng.randint(1, 5), rng.randint(1, 5)


@pytest.mark.parametrize("name", list(RINGS))
def test_kernel_and_rank_equal_the_row_route(name):
    view = _fp_view_of(RINGS[name])
    rng = random.Random(name)
    for nrows, ncols in shapes(rng):
        cols = random_columns(view, nrows, ncols, rng)
        rows = reference_expand(view, cols, nrows)
        w = view.codec.width
        assert rows == [sum(x << t * w for t, x in enumerate(row))
                        for row in product_expansion(view, cols, nrows)]
        span, kernel = _reduce_columns(view, cols, nrows)
        assert kernel == row_kernel(view.codec, rows, ncols * view.dim)
        assert len(span.rows) == len(_fp_rref(view.codec, rows, ncols * view.dim))
        assert len(span.rows) + len(kernel) == ncols * view.dim


@pytest.mark.parametrize("name", list(RINGS))
def test_resolutions_equal_the_row_route(name, monkeypatch):
    R = RINGS[name]
    if R.local:
        d = du.ModulePresentation.residue_field(R).relations
    else:  # R/(x), x^2 R/(x^4 + x^2) being a direct factor of R
        d = Matrix.from_rows(R, [[R.variable("x")]])
    res = linalg.resolution(R, d, 6)
    monkeypatch.setattr(linalg, "_PackedSteps", ReferencePackedSteps)
    ref = linalg.resolution(R, d, 6)
    assert isinstance(ref.ops, ReferencePackedSteps)
    assert (res.diffs, res.ranks, res.period) == (ref.diffs, ref.ranks, ref.period)


@pytest.mark.parametrize("R, sizes", [
    (ALGEBRAS["F2[x,y]/(x,y)^2"], [2 ** 2 ** i for i in range(7)]),  # b_i = 2^i
    (poly_quotient("F3", ["x"], ["x^3"]), [3] * 7),
], ids=["F2[x,y]/(x,y)^2", "F3[x]/(x^3)"])
def test_ext_makes_no_row_kernel(R, sizes, monkeypatch):
    k = du.ModulePresentation.residue_field(R)
    reductions = count_calls(monkeypatch, linalg._reduce_columns)
    assert [h.cardinality for h in du.ext_table(k, k, 6)] == sizes
    assert reductions
    # the row route is gone: no expansion into rows and no row kernel
    assert not hasattr(linalg._FpView, "expand") and not hasattr(linalg._FpView, "rows")
    assert not hasattr(linalg, "_fp_kernel")
