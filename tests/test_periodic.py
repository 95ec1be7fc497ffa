"""Resolutions that stop at a certified period.

Over a hypersurface such as Z/p^k or F_p[x]/(x^k) every minimal resolution
is eventually 2-periodic (Eisenbud, Trans. AMS 1980).  `linalg.resolution`
stops at the first repeat d_{n+1} = d_{n+1-q}, q <= 2, once
`_certify_period` has checked the cycle: its products vanish and each spot
is exact by image sizes.  Checked here:

- on a seeded sweep of 1-2 generator modules over Z/8, Z/12, Z/25, Z/27,
  F2[x]/(x^4), F3[x]/(x^3) and F2[x,y]/(x^2,y^2), `resolve`,
  the resolution's complex and `kernel_resolution` give the matrices of the
  full-depth step-by-step resolution of `helpers` (reference_resolve) to
  depth 40, and `ext_table` equals the full-depth oracle
  (full_depth_ext_table) at every window up to 40;
- every infinite resolution over the chain rings of the sweep gets a
  period with i + q <= 4;
- `ext_sup` gives the full-depth (sup, top) at every window up to 400 over
  the chain rings, and its work does not grow with the window;
- the number of kernel steps of `ext_table(k, k, window)` does not depend
  on the window over Z/27 and F2[x]/(x^4);
- the certificate: a cycle that is not exact raises ArithmeticError, one
  whose product does not vanish raises NotAComplex, and a corrupted step
  is caught; with doubling Betti numbers no certificate runs.
"""

import random

import pytest

from koszulkit import duality as du
from koszulkit import linalg
from koszulkit.errors import NotAComplex
from koszulkit.matrices import Matrix
from koszulkit.rings import Zmod, poly_quotient

from helpers import (
    count_calls, full_depth_ext_table, reference_resolution_complex, reference_resolve,
    resolution_complex,
)

CHAIN = {
    "Z/8": Zmod(8),
    "Z/25": Zmod(25),
    "Z/27": Zmod(27),
    "F2[x]/(x^4)": poly_quotient("F2", ["x"], ["x^4"]),
    "F3[x]/(x^3)": poly_quotient("F3", ["x"], ["x^3"]),
}
RINGS = {**CHAIN, "Z/12": Zmod(12),
         "F2[x,y]/(x^2,y^2)": poly_quotient("F2", ["x", "y"], ["x^2", "y^2"])}
DEPTH = 40


def sweep(name):
    """Six seeded modules with 1-2 generators and 1-2 relations whose
    entries are non-units, so that most resolutions are infinite."""
    R = RINGS[name]
    rng = random.Random(f"periodic:{name}")
    pool = [a for a in R.elements() if not a.is_unit()]
    out = []
    for _ in range(6):
        gens, c = rng.randint(1, 2), rng.randint(1, 2)
        out.append(du.ModulePresentation(R, gens, Matrix.from_rows(
            R, [[rng.choice(pool) for _ in range(c)] for _ in range(gens)])))
    return out


def stored(diffs):
    return [(d.rows, d.cols, d.sparse_rows) for d in diffs]


def targets(M):
    R = M.ring
    return [M, du.ModulePresentation.residue_field(R) if R.local
            else du.ModulePresentation.cyclic(R, [R.from_int(2)])]


# ---------------------------------------------------------------------------
# the sweep against the full-depth oracle


@pytest.mark.parametrize("name", list(RINGS))
def test_the_cycled_resolution_is_the_full_depth_resolution(name):
    for M in sweep(name):
        reference = reference_resolve(M, DEPTH)
        assert stored(du.resolve(M, DEPTH)) == stored(reference)
        F = resolution_complex(M, DEPTH)
        assert stored(F.diff(m) for m in range(1, len(reference) + 1)) == stored(reference)
        assert stored(linalg.kernel_resolution(M.ring, reference[0], DEPTH - 1)) == \
            stored(reference[1:])


@pytest.mark.parametrize("name", list(RINGS))
def test_ext_tables_equal_the_full_depth_tables_at_every_window(name):
    for M in sweep(name):
        for N in targets(M):
            full = full_depth_ext_table(M, N, DEPTH)
            windows = range(DEPTH + 1) if name in CHAIN else (0, 1, 2, 5, DEPTH)
            for window in windows:
                assert du.ext_table(M, N, window) == full[:window + 1], window


@pytest.mark.parametrize("name", list(CHAIN))
def test_every_infinite_resolution_over_a_chain_ring_gets_a_period(name):
    for M in sweep(name):
        res = du._resolution(M, DEPTH)
        infinite = len(reference_resolve(M, DEPTH)) == DEPTH
        assert (res.period is not None) == infinite
        if infinite:
            i, q = res.period
            assert i + q <= 4 and len(res.diffs) == i + q - 1


def test_periods_over_a_ring_of_embedding_dimension_two():
    found = [du._resolution(M, DEPTH).period for M in sweep("F2[x,y]/(x^2,y^2)")]
    # k and the modules with linearly growing Betti numbers never repeat
    assert sum(p is not None for p in found) == 3


@pytest.mark.parametrize("name", list(CHAIN))
def test_ext_sup_equals_the_full_depth_sup_up_to_window_400(name):
    for M in sweep(name)[:2]:
        F = reference_resolution_complex(M, 401)
        for N in targets(M):
            full = du.hom_homology(F, N, range(401))
            nonzero = [m for m, h in enumerate(full) if not h.is_zero]
            for window in range(401):
                sup = max((m for m in nonzero if m <= window), default=None)
                assert du.ext_sup(M, N, window) == (sup, not full[window].is_zero), window


# ---------------------------------------------------------------------------
# the cost does not grow with the window


def count_steps(monkeypatch):
    steps = []
    for cls in (linalg._MatrixSteps, linalg._PackedSteps):
        kernel = cls.kernel

        def counted(self, *args, kernel=kernel):
            steps.append(args)
            return kernel(self, *args)

        monkeypatch.setattr(cls, "kernel", counted)
    return steps


@pytest.mark.parametrize("name", ["Z/27", "F2[x]/(x^4)"])
def test_the_kernel_steps_do_not_depend_on_the_window(name, monkeypatch):
    k = du.ModulePresentation.residue_field(CHAIN[name])
    steps = count_steps(monkeypatch)
    counts = []
    for window in (20, 400):
        du.ext_table(k, k, window)
        counts.append(len(steps))
        steps.clear()
    assert counts[0] == counts[1] <= 4
    assert du.ext_sup(k, k, 10 ** 6) == (10 ** 6, True)
    assert len(steps) == counts[0]


def test_doubling_betti_numbers_run_no_certificate(monkeypatch):
    R = poly_quotient("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    k = du.ModulePresentation.residue_field(R)
    calls = count_calls(monkeypatch, linalg._certify_period)
    assert [h.cardinality for h in du.ext_table(k, k, 5)] == [2 ** 2 ** i for i in range(6)]
    assert calls == []


# ---------------------------------------------------------------------------
# the certificate


def certify(R, entries, i, q):
    """_certify_period on 1 x 1 differentials d_1, d_2, ... over R."""
    steps = linalg._MatrixSteps(R) if linalg._fp_view_of(R) is None else \
        linalg._PackedSteps(R, linalg._fp_view_of(R))
    diffs = [steps.start(Matrix.from_rows(R, [[R.from_int(a) if isinstance(a, int)
                                                else a]])) for a in entries]
    linalg._certify_period(steps, diffs, [1] * (len(diffs) + 1), i, q)


def test_the_certificate_checks_exactness_and_products():
    Z27, Z4 = Zmod(27), Zmod(4)
    F2x = CHAIN["F2[x]/(x^4)"]
    x = F2x.variable("x")
    certify(Z27, [3, 9], 1, 2)
    certify(Z27, [9, 3], 1, 2)
    certify(Z4, [2], 1, 1)
    certify(F2x, [x, x ** 3], 1, 2)
    certify(F2x, [x ** 2], 1, 1)
    # cycles whose products vanish but which are not exact: |im 9|^2 = 9 and
    # |im x^2| |im x^3| = 8 fall short of |R| = 27 and 16
    with pytest.raises(ArithmeticError):
        certify(Z27, [9], 1, 1)
    with pytest.raises(ArithmeticError):
        certify(Z27, [3, 9, 9], 2, 2)
    with pytest.raises(ArithmeticError):
        certify(F2x, [x ** 2, x ** 3], 1, 2)
    # 3 * 3 and x * x^2 are not zero: no cycle closes
    with pytest.raises(NotAComplex):
        certify(Z27, [3], 1, 1)
    with pytest.raises(NotAComplex):
        certify(F2x, [x, x ** 2], 1, 2)


@pytest.mark.parametrize("name, a", [("Z/27", 1), ("F2[x]/(x^4)", 2)])
def test_a_step_that_loses_part_of_its_kernel_is_caught(name, a, monkeypatch):
    # each step returns the uniformizer times its kernel: the products still
    # vanish and the differentials repeat, but the cycle is not exact
    R = CHAIN[name]
    pi = R.from_int(3) if R.kind == "zmod" else R.variable("x")
    M = du.ModulePresentation.cyclic(R, [pi ** a])
    assert du.ext_table(M, M, 6) == full_depth_ext_table(M, M, 6)
    for cls in (linalg._MatrixSteps, linalg._PackedSteps):
        kernel = cls.kernel

        def scaled(self, d, nrows, kernel=kernel):
            K = self.matrix(kernel(self, d, nrows), self.width(d))
            return self.start(K.scale(pi))

        monkeypatch.setattr(cls, "kernel", scaled)
    with pytest.raises(ArithmeticError):
        du.ext_table(M, M, 6)
