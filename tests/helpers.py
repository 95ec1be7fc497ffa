"""Shared generators and oracles for the test suite."""

import io
import itertools
import operator
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import prod

from koszulkit import io as kio
from koszulkit.cli import main
from koszulkit.complexes import (
    ChainComplex, ChainMap, Homotopy, free_module_complex, homology, tensor, tensor_differential,
    tensor_layout, zero_complex,
)
from koszulkit.descent import (
    Assignment, SubsystemReport, SystemVariable, VarPoly, VerificationReport,
)
from koszulkit.duality import ExtSupResult, _complex_of, _resolution, hom_homology
from koszulkit.errors import IncompleteAssignment, MixedRings
from koszulkit.linalg import (
    HomologySummary, _PackedSteps, _fp_view_of, _is_unit,
    _nakayama_keep, _payload_grid, kernel_basis, lift_context, minimal_generators, smith_data,
    solve, span_cardinality, subquotient,
)
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ


def random_element(ring, rng):
    if ring.is_finite():
        pool = list(ring.elements())
        return pool[rng.randrange(len(pool))]
    if ring.kind == "integers":
        return ring.from_int(rng.randint(-9, 9))
    if ring.kind == "rationals":
        from fractions import Fraction
        from koszulkit.rings import RingElement
        return RingElement(ring, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    raise ValueError(f"no generator for {ring}")


def matrix_from_entries(ring, rows, cols, entries):
    """The rows x cols matrix with payload v at (i, j) for each triple
    (i, j, v) of `entries` (positions distinct), zero elsewhere."""
    grid = [[ring.zero_payload] * cols for _ in range(rows)]
    for i, j, v in entries:
        grid[i][j] = v
    return Matrix.from_payload_rows(ring, rows, cols, grid)


def random_matrix(ring, rows, cols, rng):
    if rows == 0 or cols == 0:
        return Matrix.zeros(ring, rows, cols)
    return Matrix.from_rows(
        ring, [[random_element(ring, rng) for _ in range(cols)] for _ in range(rows)])


def invert(ring, A):
    """Two-sided inverse of a square matrix, by `solve` against the
    identity, or None."""
    if A.rows != A.cols:
        return None
    identity = Matrix.identity(ring, A.rows)
    X = solve(ring, A, identity)
    return X if X is not None and X * A == identity else None


def identity_map(M):
    """The identity chain map of the complex M."""
    return ChainMap(M, M, {n: Matrix.identity(M.ring, M.rank(n)) for n in M.support})


def resolution_complex(pres, depth):
    """The resolution of `pres` to depth `depth` as the free complex
    F_0 <- F_1 <- ... that duality's Ext and transfer checks read."""
    return _complex_of(pres, _resolution(pres, depth), depth)


def load_json(tmp_path, text, coefficient_ring=None):
    """The object in the JSON document `text`, read by `io.load` from a
    `.json` file under `tmp_path`."""
    path = tmp_path / "object.json"
    path.write_text(text, encoding="utf-8")
    return kio.load(path, coefficient_ring)


def chain_map_text(phi):
    """The `.map` text of the chain map phi, as `dg klinear` reads it."""
    lines = [f"ring {kio.ring_spec(phi.source.ring)}", "map"]
    lines += [f"component {n} = {kio.format_matrix(m)}" for n, m in sorted(phi.components.items())]
    return "\n".join(lines) + "\n"


def random_invertible(ring, n, rng, tries=200):
    if n == 0:
        return Matrix.zeros(ring, 0, 0)
    for _ in range(tries):
        M = random_matrix(ring, n, n, rng)
        if invert(ring, M) is not None:
            return M
    raise RuntimeError("no invertible matrix found")


def maximal_ideal_pool(ring):
    """All non-unit elements of a finite local ring."""
    return [a for a in ring.elements() if not a.is_unit()]


def random_minimal_complex(ring, rng, max_top=3, max_rank=2):
    """A minimal complex supported on 0..m with differential entries in the
    maximal ideal; built by rejection on the square-zero condition."""
    pool = maximal_ideal_pool(ring)
    while True:
        m = rng.randint(0, max_top)
        ranks = {n: rng.randint(1, max_rank) for n in range(m + 1)}
        diffs = {}
        ok = True
        for n in range(1, m + 1):
            rows, cols = ranks[n - 1], ranks[n]
            d = Matrix.from_rows(ring, [
                [pool[rng.randrange(len(pool))] for _ in range(cols)]
                for _ in range(rows)])
            diffs[n] = d
        for n in range(1, m):
            if not (diffs[n] * diffs[n + 1]).is_zero():
                ok = False
                break
        if ok:
            return ChainComplex(ring, ranks, diffs)


def random_bounded_complex(ring, rng, max_degrees=3, max_rank=2):
    """Any bounded complex (not necessarily minimal), by rejection."""
    while True:
        lo = rng.randint(0, 1)
        width = rng.randint(0, max_degrees - 1)
        ranks = {n: rng.randint(1, max_rank) for n in range(lo, lo + width + 1)}
        diffs = {}
        ok = True
        for n in range(lo + 1, lo + width + 1):
            diffs[n] = random_matrix(ring, ranks[n - 1], ranks[n], rng)
        for n in range(lo + 1, lo + width):
            if not (diffs[n] * diffs[n + 1]).is_zero():
                ok = False
                break
        if ok:
            return ChainComplex(ring, ranks, diffs)


def brute_force_kernel(ring, A):
    """Every kernel vector of a matrix over a small finite ring."""
    pool = list(ring.elements())
    out = set()
    for combo in itertools.product(pool, repeat=A.cols):
        col = Matrix.from_rows(ring, [[x] for x in combo])
        if (A * col).is_zero():
            out.add(tuple(x.payload for x in combo))
    return out


def span_of_columns(ring, K):
    """Every element of the column span over a small finite ring."""
    pool = list(ring.elements())
    out = set()
    if K.cols == 0:
        out.add(tuple(ring.zero.payload for _ in range(K.rows)))
        return out
    for combo in itertools.product(pool, repeat=K.cols):
        acc = [ring.zero] * K.rows
        for j, c in enumerate(combo):
            for i in range(K.rows):
                acc[i] = acc[i] + K.data[i][j] * c
        out.add(tuple(x.payload for x in acc))
    return out


def assignment_matrix(assignment, shape, family, n):
    """The values of the degree-n block of `family` variables, as a matrix,
    read one variable at a time."""
    rows, cols = shape.dims(family, n)
    if rows == 0 or cols == 0:
        return Matrix.zeros(assignment.target, rows, cols)
    return Matrix.from_rows(assignment.target, [
        [assignment.values[SystemVariable(family, n, i, j)] for j in range(1, cols + 1)]
        for i in range(1, rows + 1)])


def reference_verify_assignment(system, assignment):
    """`descent.verify_assignment` as a plain evaluation: values placed by
    `shape.index`, and every term multiplied out, zero factors included."""
    shape, values = system.shape, assignment.values
    vals = [None] * shape.count()
    for v, x in values.items():
        k = shape.index(*v)
        if k is not None:
            vals[k] = x
    if None in vals:
        raise IncompleteAssignment("missing values")
    hom = assignment.hom
    if hom.source != system.ring:
        raise MixedRings("the assignment maps from another ring")
    target = hom.target
    add, mul, unbox = target.add_payload, target.mul_payload, target.unbox
    vals = list(map(unbox, vals))
    coefficients = [unbox(hom(hom.source.box(c))) for c in system.coefficients]
    failed = {}
    for (tag, h, n, row, col), flat in zip(system.positions, system.terms):
        if tag in failed:
            continue
        acc = target.zero_payload
        for c, a, b in flat:
            c = coefficients[c]
            if a >= 0:
                c = mul(c, vals[a])
                if b >= 0:
                    c = mul(c, vals[b])
            acc = add(acc, c)
        if acc:
            failed[tag] = (h, n, row, col)
    counts = system.equation_counts()
    return VerificationReport([SubsystemReport(tag, counts.get(tag, 0), failed.get(tag))
                               for tag in ("S1", "S2", "S3", "S4")])


def conjugated_assignment(K, P, system, sol, rng):
    """Transport the canonical solution along a random degreewise change of
    basis of P: X conjugates, Y and Z ride along the induced isomorphism of
    the extension and its cone."""
    ring = K.ring
    shape = system.shape
    g = {n: random_invertible(ring, shape.s_at(n), rng)
         for n in range(shape.m + 1)}
    ginv = {n: invert(ring, g[n]) for n in g}

    def gamma(n, inverse=False):
        blocks = []
        for (p, mrank, prank) in tensor_layout(K.complex, P, n):
            if mrank * prank:
                blocks.append(Matrix.identity(ring, mrank).kron(
                    ginv[p] if inverse else g[p]))
        if not blocks:
            return Matrix.zeros(ring, shape.r_at(n), shape.r_at(n))
        grid = [[blocks[i] if i == j else
                 Matrix.zeros(ring, blocks[i].rows, blocks[j].cols)
                 for j in range(len(blocks))] for i in range(len(blocks))]
        return Matrix.block(grid)

    gam = {n: gamma(n) for n in range(shape.m + shape.e + 1)}
    gaminv = {n: gamma(n, inverse=True) for n in range(shape.m + shape.e + 1)}

    def theta(n, inverse=False):
        src = gam if inverse else gaminv
        top = src.get(n, Matrix.zeros(ring, shape.r_at(n), shape.r_at(n)))
        bot = Matrix.identity(ring, shape.r_at(n - 1))
        return Matrix.block([[top, Matrix.zeros(ring, top.rows, bot.cols)],
                             [Matrix.zeros(ring, bot.rows, top.cols), bot]])

    vals = {}
    for n in range(1, shape.m + 1):
        Xn = assignment_matrix(sol, shape, "X", n)
        Xp = ginv[n - 1] * Xn * g[n]
        for i in range(Xp.rows):
            for j in range(Xp.cols):
                vals[SystemVariable("X", n, i + 1, j + 1)] = Xp.data[i][j]
    for n in range(shape.m + shape.e + 1):
        Yn = assignment_matrix(sol, shape, "Y", n)
        Yp = gaminv[n] * Yn
        for i in range(Yp.rows):
            for j in range(Yp.cols):
                vals[SystemVariable("Y", n, i + 1, j + 1)] = Yp.data[i][j]
    for n in range(shape.m + shape.e + 1):
        Zn = assignment_matrix(sol, shape, "Z", n)
        Zp = theta(n + 1) * Zn * theta(n, inverse=True)
        for i in range(Zp.rows):
            for j in range(Zp.cols):
                vals[SystemVariable("Z", n, i + 1, j + 1)] = Zp.data[i][j]
    return Assignment(sol.hom, vals)


def run_cli(argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def count_calls(monkeypatch, func):
    """Wrap `func` in every koszulkit module that binds it; returns the list
    of first arguments the wrapped function is called with."""
    seen = []

    def counting(obj, *args, **kwargs):
        seen.append(obj)
        return func(obj, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("koszulkit") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counting)
    return seen


# ---------------------------------------------------------------------------
# references for Hom assembly and resolutions: the per-degree scan over
# every summand, and the resolution step by step on payload matrices


def reference_hom_layout(M, N, n):
    """[(i, rank N_{i+n}, rank M_i)] for every i of M's support, zero
    summands included."""
    return [(i, N.rank(i + n), M.rank(i)) for i in M.support]


def reference_hom_complex(M, N):
    """Hom(M, N) built degree by degree over every degree between the
    extremes and every summand of each."""
    ring = M.ring
    if M.is_zero_complex() or N.is_zero_complex():
        return zero_complex(ring)
    degrees = range(min(N.support) - max(M.support), max(N.support) - min(M.support) + 1)
    ranks = {n: sum(a * b for _, a, b in reference_hom_layout(M, N, n)) for n in degrees}
    diffs = {}
    for n in degrees:
        if not (ranks[n] and ranks.get(n - 1)):
            continue
        src, tgt = reference_hom_layout(M, N, n), reference_hom_layout(M, N, n - 1)
        at = {i: k for k, (i, _, _) in enumerate(tgt)}
        sign = ring.one if n % 2 == 0 else -ring.one
        blocks = {}
        for k, (i, a, b) in enumerate(src):
            d = N._diffs.get(i + n)
            if d is not None and b:
                blocks[k, k] = d.kron(Matrix.identity(ring, b))
            d = M._diffs.get(i + 1)
            if d is not None and a:
                blocks[at[i + 1], k] = Matrix.identity(ring, a).kron(
                    d.transpose()).scale(-sign)
        diffs[n] = Matrix.from_blocks(ring, [a * b for _, a, b in tgt],
                                      [a * b for _, a, b in src], blocks)
    return ChainComplex(ring, ranks, diffs)


def reference_hom_relations(source_free, target):
    """The relations of Hom(source, target) with every summand scanned."""
    amb = reference_hom_complex(source_free, target.ambient)
    ring = amb.ring
    relations = {}
    for n in amb.degrees():
        layout = reference_hom_layout(source_free, target.ambient, n)
        rels = [target.relation(i + n) for i, _, _ in layout]
        heights = [a * b for _, a, b in layout]
        widths = [rel.cols * b for rel, (_, _, b) in zip(rels, layout)]
        if not (sum(heights) and sum(widths)):
            continue
        blocks = {(k, k): rel.kron(Matrix.identity(ring, b))
                  for k, (rel, (_, a, b)) in enumerate(zip(rels, layout))
                  if a and rel.cols and b}
        relations[n] = Matrix.from_blocks(ring, heights, widths, blocks)
    return PresentedComplex(amb, relations)


# ---------------------------------------------------------------------------
# the presented-complex oracle for derived Homs: a target given as a free
# complex of ambients with one relation matrix per degree, Hom(F, target)
# with relations in every degree (`reference_hom_relations`), and its
# homology from ratios of span cardinalities over finite rings and from
# subquotients over Z, Q and F_p[x]


@dataclass
class PresentedComplex:
    """A free complex of ambients and its relations, degree -> Matrix; the
    differentials map relation spans into relation spans.  Homology at t:
        { v : d_t v in span(rel_{t-1}) } / ( im d_{t+1} + span(rel_t) )."""

    ambient: ChainComplex
    relations: dict

    def relation(self, n):
        m = self.relations.get(n)
        if m is None:
            return Matrix.zeros(self.ambient.ring, self.ambient.rank(n), 0)
        return m


def module_as_presented_complex(pres, degree=0):
    return PresentedComplex(free_module_complex(pres.ring, pres.gens, degree),
                            {degree: pres.relations})


def tensor_koszul_presented(K, pres):
    """K (x) M: ambients K_j (x) R^g, relations spread block-diagonally."""
    ring = K.ring
    amb = tensor(K.complex, free_module_complex(ring, pres.gens))
    relations = {j: Matrix.identity(ring, K.degree_rank(j)).kron(pres.relations)
                 for j in range(K.e + 1) if K.degree_rank(j) and pres.relations.cols}
    return PresentedComplex(amb, relations)


def presented_homology(pc, t):
    ring = pc.ambient.ring
    amb_rank = pc.ambient.rank(t)
    if amb_rank == 0:
        return HomologySummary(ring, True, cardinality=1 if ring.is_finite() else None,
                               dimension=0 if ring.kind in ("rationals", "primefield") else None,
                               free_rank=0, invariant_factors=())
    d_t, d_next = pc.ambient.diff(t), pc.ambient.diff(t + 1)
    rel_prev, rel_t = pc.relation(t - 1), pc.relation(t)
    if ring.is_finite():
        # |amb_t| |span rel_{t-1}| / |span [d_t | rel_{t-1}]| / |span [d_{t+1} | rel_t]|
        num = ring.cardinality() ** amb_rank * span_cardinality(ring, rel_prev)
        den = span_cardinality(ring, d_t.hstack(rel_prev))
        wcard = span_cardinality(ring, d_next.hstack(rel_t))
        if num % den or (num // den) % wcard:
            raise ArithmeticError("span cardinalities violate divisibility")
        card = num // den // wcard
        return HomologySummary(ring, card == 1, cardinality=card)
    V = kernel_basis(ring, d_t.hstack(rel_prev))
    V = V.submatrix(range(amb_rank), range(V.cols))
    return subquotient(ring, V, d_next.hstack(rel_t))


def presented_route(M, N, window):
    """Ext^0..Ext^window of the presented complex Hom(F, N)."""
    G = reference_hom_relations(reference_resolution_complex(M, window + 1),
                                module_as_presented_complex(N))
    return [presented_homology(G, -i) for i in range(window + 1)]


def presented_koszul_side(M, X, K, window, degrees):
    """[H_t Hom(res M, K (x) X) for t in degrees] on the presented complex,
    the resolution taken to depth window + e + 1."""
    G = reference_hom_relations(reference_resolution_complex(M, window + K.e + 1),
                                tensor_koszul_presented(K, X))
    return [presented_homology(G, t) for t in degrees]


def presented_transfer_details(K, C, window):
    """The `details` of koszul_sdc_transfer(K, C, window) on the oracle."""
    degrees = range(-window, K.e + 1)
    out = []
    for t, left in zip(degrees, presented_koszul_side(C, C, K, window, degrees)):
        right = homology(K.complex, t)
        out.append((t, left.cardinality, right.cardinality, left.same_as(right)))
    return tuple(out)


def presented_ext_sup(M, X, K, window):
    """ext_sup_via_koszul(M, X, K, window) with the extension side on the
    oracle and the direct side from its presented Ext table."""
    e = K.e
    table = presented_route(M, X, window + e)
    direct = [i for i in range(window + 1) if not table[i].is_zero]
    side = presented_koszul_side(M, X, K, window, [-i for i in range(window + 1)])
    nonzero = [i for i, h in enumerate(side) if not h.is_zero]
    return ExtSupResult(max(direct) if direct else None, max(nonzero) if nonzero else None,
                        any(not table[i].is_zero for i in range(window, window + e + 1)),
                        window in nonzero)


def reference_resolve(pres, depth):
    """[d_1, ..., d_depth]: the minimal generators of the relations, then
    minimal_generators(kernel_basis(d)) step by step on payload matrices,
    stopping after the first kernel that vanishes.  It runs to full depth
    and never looks for a period."""
    ring = pres.ring
    diffs = [minimal_generators(ring, pres.relations)]
    while len(diffs) < depth and diffs[-1].cols:
        diffs.append(minimal_generators(ring, kernel_basis(ring, diffs[-1])))
    return diffs


def reference_resolution_complex(pres, depth):
    """reference_resolve as a validated complex F_0 <- F_1 <- ..."""
    diffs = dict(enumerate(reference_resolve(pres, depth), start=1))
    ranks = {0: pres.gens, **{i: d.cols for i, d in diffs.items()}}
    return ChainComplex(pres.ring, ranks, diffs)


def reference_expand(view, cols, nrows):
    """The packed rows of the expansion over F_p of the matrix with nrows
    rows whose columns have coordinates `cols` (each entry a as the dim x
    dim matrix of multiplication by a), built row by row from the entries'
    multiplication rows: the rows that the row route eliminated."""
    codec, D, std = view.codec, view.dim, view.std
    out = [0] * (nrows * D)
    for j, v in enumerate(cols):
        shift = j * D * codec.width
        if std is None:
            for i, c in codec.nonzero(v):
                out[i] |= c << shift
            continue
        entries = {}  # row -> the entry's terms, as a payload
        for t, c in codec.nonzero(v):
            entries.setdefault(t // D, []).append((std[t % D], c))
        for i, payload in entries.items():
            for b, row in enumerate(view.mult_rows(tuple(payload))):
                out[i * D + b] |= row << shift
    return out


# the row route's reducer, which `linalg` no longer runs: reduced row
# echelon form of packed rows, the oracle of the column reduction


def _fp_rref(codec, rows, ncols):
    """In-place reduced row echelon over the first `ncols` columns; returns
    the pivot columns.  Entries beyond `ncols` (right-hand sides) are carried
    along by the row operations but never chosen as pivots.

    `rows` holds packed vectors of the _Codec `codec`.  Forward elimination
    groups the rows by their lowest nonzero column; at each column that
    starts a row, the first such row is scaled to 1 there and clears the
    column from the others with one axpy each.  Back substitution then
    clears each pivot row's later pivot columns at once with `lincomb`, from
    the last pivot up.  Pivot rows come first, in pivot order.  Reduced
    echelon rows are unique, so they are those of Gauss-Jordan elimination
    column by column.
    """
    p, w, mask, axpy = codec.p, codec.width, codec.mask, codec.axpy
    starts = {}  # column -> the rows whose lowest nonzero coordinate is there
    for r, v in enumerate(rows):
        if v:
            starts.setdefault(((v & -v).bit_length() - 1) // w, []).append(r)
    pivot_row = {}  # pivot column -> the index of its row
    for col in range(ncols):
        if not starts:
            break
        rest = starts.pop(col, None)
        if rest is None:
            continue
        shift = col * w
        r = pivot_row[col] = rest.pop(0)
        x = rows[r] >> shift & mask
        if x != 1:
            rows[r] = axpy(0, pow(x, -1, p), rows[r])
        for i in rest:
            v = rows[i] = axpy(rows[i], p - (rows[i] >> shift & mask), rows[r])
            if v:
                starts.setdefault(((v & -v).bit_length() - 1) // w, []).append(i)
    below, reduced = 0, []  # below: the fields of the pivot columns right of col
    for col, r in reversed(pivot_row.items()):
        if rows[r] & below:
            rows[r] = codec.lincomb(rows[r], [(p - x, rows[pivot_row[j]]) for j, x in
                                              codec.nonzero(rows[r] & below)])
        reduced.append(rows[r])
        below |= mask << col * w
    reduced.reverse()
    if len(reduced) < len(rows):
        kept = set(pivot_row.values())
        reduced += [v for r, v in enumerate(rows) if r not in kept]
    rows[:] = reduced
    return list(pivot_row)


def row_kernel(codec, rows, ncols):
    """The row route's kernel of packed rows: one vector for each non-pivot
    column f of their reduced row echelon form (`_fp_rref`), in increasing
    order, e_f minus column f of the pivot rows at their pivots."""
    work = list(rows)
    pivots = _fp_rref(codec, work, ncols)
    p, w = codec.p, codec.width
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    # a reduced pivot row is nonzero only at its pivot and at free columns
    vecs = {f: 1 << f * w for f in free}
    for row, pc in zip(work, pivots):
        for f, x in codec.nonzero(row):
            if f != pc:
                vecs[f] |= (p - x) << pc * w
    return [vecs[f] for f in free]


def row_solve(codec, rows, ncols, rhs):
    """The row route's solution x of rows * x = b for every packed b of
    `rhs`, or None when some b lies outside the column span: the right-hand
    sides ride along as extra columns of one `_fp_rref`, and x is zero at
    every free column."""
    w = codec.width
    work = list(rows)
    for k, b in enumerate(rhs):
        for i, x in codec.nonzero(b):
            work[i] |= x << (ncols + k) * w
    pivots = _fp_rref(codec, work, ncols)
    if any(work[r] >> ncols * w for r in range(len(pivots), len(work))):
        return None
    sols = [0] * len(rhs)
    for row, pc in zip(work, pivots):
        for k, x in codec.nonzero(row >> ncols * w):
            sols[k] |= x << pc * w
    return sols


def row_rank(ring, A):
    """The rank over F_p of A's expansion, by `_fp_rref` on its rows
    (`reference_expand`): |column span of A| = p ** row_rank."""
    view = _fp_view_of(ring)
    rows = reference_expand(view, view.columns(A), A.rows)
    return len(_fp_rref(view.codec, rows, A.cols * view.dim))


class ReferencePackedSteps(_PackedSteps):
    """`_PackedSteps` on the row route: kernels by `row_kernel` and ranks by
    `_fp_rref`, both on the expanded rows."""

    def kernel(self, cols, nrows):
        view = self.view
        vecs = row_kernel(view.codec, reference_expand(view, cols, nrows), len(cols) * view.dim)
        if len(vecs) > 1 and view.std is not None:
            vecs = [vecs[j] for j in _nakayama_keep(view, vecs, len(cols), submodule=True)]
        return vecs

    def image_size(self, cols, nrows):
        view = self.view
        rows = reference_expand(view, cols, nrows)
        return view.p ** len(_fp_rref(view.codec, rows, len(cols) * view.dim))


def full_depth_ext_table(M, N, window):
    """Ext^0 .. Ext^window read degree by degree off the full-depth
    resolution (reference_resolve to depth window + 1, no period), through
    the one formula of `hom_homology`."""
    return hom_homology(reference_resolution_complex(M, window + 1), N, range(window + 1))


# ---------------------------------------------------------------------------
# the subquotient routes that `linalg.subquotient` replaced, kept as its
# oracle: three Smith decompositions over Z, Q and F_p[x] (a basis of
# span V, the coordinates of W on it by `solve`, their Smith form), Z/n as
# the quotient over Z of both lifts enlarged by n Z^u, and a ratio of span
# sizes over the other finite rings.  W must lie inside span(V).


def _reference_domain_subquotient(ring, V, W):
    """span(V)/span(W) over Z, Q or F_p[x]: free rank plus invariant factors."""
    ctx = lift_context(ring)
    ed = ctx.ed
    sd = smith_data(ed, _payload_grid(V), V.rows, V.cols)
    # basis of span(V): nonzero d_i times column i of S^{-1}
    basis_cols = [[ed.mul_payload(sd.Si[r][i], sd.diag(i)) for r in range(V.rows)]
                  for i in range(min(V.rows, V.cols)) if sd.diag(i)]
    k = len(basis_cols)
    if k == 0:
        return HomologySummary(ring, True, free_rank=0, invariant_factors=())
    B = Matrix.from_columns(ring, V.rows, basis_cols)
    coords = solve(ring, B, W) if W.cols else Matrix.zeros(ring, k, 0)
    if coords is None:
        raise ArithmeticError("image generators not inside the kernel span")
    csd = smith_data(ed, _payload_grid(coords), k, coords.cols)
    ds = [d for d in map(csd.diag, range(min(k, coords.cols))) if d]
    factors = tuple(ring.box(d) for d in ds if not _is_unit(ed, d))
    free_rank = k - len(ds)
    return HomologySummary(ring, free_rank == 0 and not factors, free_rank=free_rank,
                           invariant_factors=factors)


def reference_subquotient(ring, V, W):
    """span(V)/span(W) by the per-ring routes; W inside span(V)."""
    if ring.kind == "primefield":
        dim = row_rank(ring, V) - row_rank(ring, W)
        return HomologySummary(ring, dim == 0, dimension=dim, cardinality=ring.modulus ** dim)
    if ring.kind == "rationals":
        dim = _reference_domain_subquotient(ring, V, W).free_rank
        return HomologySummary(ring, dim == 0, dimension=dim)
    if ring.kind == "zmod":
        Z = ZZ()
        nI = Matrix.identity(Z, V.rows).scale(Z.from_int(ring.modulus))
        lift = lambda M: Matrix(Z, M.rows, M.cols, M.sparse_rows).hstack(nI)
        factors = tuple(f.payload for f in
                        _reference_domain_subquotient(Z, lift(V), lift(W)).invariant_factors)
        card = prod(factors)
        return HomologySummary(ring, card == 1, cardinality=card,
                               invariant_factors=factors, free_rank=0)
    if not ring.is_finite():
        return _reference_domain_subquotient(ring, V, W)
    cv, cw = span_cardinality(ring, V), span_cardinality(ring, W)
    if cv % cw:
        raise ArithmeticError("image span does not divide kernel span")
    return HomologySummary(ring, cv == cw, cardinality=cv // cw)


def reference_homology_module(ring, d_in, d_out):
    """ker(d_out)/im(d_in) as reference_subquotient of a kernel basis."""
    return reference_subquotient(ring, kernel_basis(ring, d_out), d_in)


# ---------------------------------------------------------------------------
# a naive dense reference for the Matrix kernels, on boxed entries


def dense_mul(A, B):
    a, b = A.data, B.data
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(A.cols)), A.ring.zero)
                       for j in range(B.cols)) for i in range(A.rows))


def dense_add(A, B):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A.data, B.data))


def dense_neg(A):
    return tuple(tuple(-x for x in r) for r in A.data)


def dense_scale(c, A):
    return tuple(tuple(c * x for x in r) for r in A.data)


def dense_transpose(A):
    return tuple(tuple(A.data[i][j] for i in range(A.rows)) for j in range(A.cols))


def dense_kron(A, B):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in A.data for rb in B.data)


def dense_from_blocks(ring, heights, widths, blocks):
    grid = [[ring.zero] * sum(widths) for _ in range(sum(heights))]
    for (i, j), m in blocks.items():
        r0, c0 = sum(heights[:i]), sum(widths[:j])
        for r, row in enumerate(m.data):
            for c, x in enumerate(row):
                grid[r0 + r][c0 + c] = x
    return tuple(map(tuple, grid))


def dense_is_zero(A):
    return all(x == A.ring.zero for r in A.data for x in r)


# ---------------------------------------------------------------------------
# VarPoly matrices: descent polynomials as a Matrix scalar ring, for the
# references that build equations by matrix arithmetic


class SymPoly(VarPoly):
    """A VarPoly with the arithmetic of polynomials, computed on the base
    ring's payloads."""

    __slots__ = ()

    def __add__(self, other):
        add = self.ring.add_payload
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            s = c if s is None else add(s, c)
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return SymPoly(self.ring, terms)

    def __neg__(self):
        neg = self.ring.neg_payload
        return SymPoly(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        add, mul = self.ring.add_payload, self.ring.mul_payload
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = mul(c1, c2)
                if not c:
                    continue
                mono = tuple(sorted(m1 + m2))
                s = terms.get(mono)
                s = c if s is None else add(s, c)
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return SymPoly(self.ring, terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self):
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out


class VarPolyRing:
    """SymPolys over `base` as a Matrix scalar ring.

    A SymPoly is its own payload (box and unbox are the identity), so the
    payload protocol is SymPoly arithmetic; the zero polynomial is falsy.
    """

    add_payload = staticmethod(operator.add)
    neg_payload = staticmethod(operator.neg)
    mul_payload = staticmethod(operator.mul)

    def __init__(self, base):
        self.base = base
        self.zero = self.zero_payload = SymPoly(base, {})
        self.one = self.one_payload = self.constant(base.one_payload)

    def constant(self, c):
        """The constant polynomial with coefficient payload c."""
        return SymPoly(self.base, {(): c} if c else {})

    def variable(self, var):
        return SymPoly(self.base, {(var,): self.base.one_payload})

    @staticmethod
    def box(payload):
        return payload

    def unbox(self, x):
        if isinstance(x, SymPoly) and x.ring == self.base:
            return x
        raise MixedRings(f"{x!r} is not a polynomial over {self.base}")

    def __eq__(self, other):
        return isinstance(other, VarPolyRing) and self.base == other.base

    def __repr__(self):
        return f"VarPoly({self.base})"


def symbolic_matrix(vring, family, n, rows, cols):
    if not rows:
        return Matrix.zeros(vring, 0, cols)
    return Matrix.from_rows(vring, [
        [vring.variable(SystemVariable(family, n, i + 1, j + 1)) for j in range(cols)]
        for i in range(rows)])


def constant_matrix(vring, M):
    return Matrix(vring, M.rows, M.cols, tuple(
        (cols, tuple(vring.constant(c) for c in vals)) for cols, vals in M.sparse_rows))


def build_B_blocks(K, shape, vring):
    """The block differentials of the extension with P's maps the symbolic
    X matrices: {n: VarPoly matrix} for n = 1 .. m+e+1, the differentials
    of tensor(K, X) by `tensor_differential` over `vring`."""
    kc = K.complex
    kc = ChainComplex(vring, {n: kc.rank(n) for n in kc.support},
                      {n: constant_matrix(vring, kc.diff(n)) for n in kc.support},
                      _validated=True)
    X = ChainComplex(vring, {n: shape.s_at(n) for n in range(shape.m + 1)}, {
        n: symbolic_matrix(vring, "X", n, shape.s_at(n - 1), shape.s_at(n))
        for n in range(1, shape.m + 1)}, _validated=True)
    return {n: tensor_differential(kc, X, n) for n in range(1, shape.m + shape.e + 2)}


# ---------------------------------------------------------------------------
# the product-then-compare checks and the kron/from_blocks structure maps
# that `matrices.vanishes` and `Matrix.from_kron_blocks` replaced, kept as
# their oracles, and the homotopy helpers only tests use


def reference_is_chain_map(phi):
    """d_target . phi = phi . d_source in every degree, by products."""
    src, tgt = phi.source, phi.target
    for n in sorted(set(src.degrees()) | set(tgt.degrees())):
        if tgt.diff(n) * phi.component(n) != phi.component(n - 1) * src.diff(n):
            return False
    return True


def reference_is_contraction(sigma, complex_):
    """sigma(n-1) . d(n) + d(n+1) . sigma(n) = id, by products."""
    ring = complex_.ring
    for n in complex_.degrees():
        s_n = sigma.component(n, complex_.rank(n + 1), complex_.rank(n), ring)
        s_prev = sigma.component(n - 1, complex_.rank(n), complex_.rank(n - 1), ring)
        lhs = s_prev * complex_.diff(n) + complex_.diff(n + 1) * s_n
        if lhs != Matrix.identity(ring, complex_.rank(n)):
            return False
    return True


def reference_is_k_linear(phi, source_dg, target_dg):
    """phi rho(e_H) = rho(e_H) phi for every basis element H, by products."""
    K = source_dg.algebra
    for H in (S for d in K.basis.values() for S in d):
        for n in set(source_dg.underlying.degrees()) | set(target_dg.underlying.degrees()):
            if (phi.component(n + len(H)) * source_dg.action_matrix(H, n)
                    != target_dg.action_matrix(H, n) * phi.component(n)):
                return False
    return True


def is_null_homotopy(sigma, phi):
    """d_target . sigma + sigma . d_source = phi, degreewise."""
    src, tgt = phi.source, phi.target
    ring = src.ring
    for n in sorted(set(src.degrees()) | set(tgt.degrees())):
        s_n = sigma.component(n, tgt.rank(n + 1), src.rank(n), ring)
        s_prev = sigma.component(n - 1, tgt.rank(n), src.rank(n - 1), ring)
        if tgt.diff(n + 1) * s_n + s_prev * src.diff(n) != phi.component(n):
            return False
    return True


def cone_contraction_of_identity(M):
    """The standard contraction of cone(id): lower-left identity blocks."""
    ring = M.ring
    comps = {}
    for n in M.degrees():
        heights = [M.rank(n + 1), M.rank(n)]
        widths = [M.rank(n), M.rank(n - 1)]
        if not (sum(heights) and sum(widths)):
            continue
        blocks = {(1, 0): Matrix.identity(ring, M.rank(n))} if M.rank(n) else {}
        comps[n] = Matrix.from_blocks(ring, heights, widths, blocks)
    return Homotopy(comps, "contraction")


def reference_tensor_differential(M, N, n):
    """The degree-n differential of M (x) N from kron blocks: d_M (x) 1 into
    summand p and (-1)^{n-p} 1 (x) d_N into summand p-1."""
    src = tensor_layout(M, N, n)
    tgt = tensor_layout(M, N, n - 1)
    at = {p: k for k, (p, _, _) in enumerate(tgt)}
    one = M.ring.one
    blocks = {}
    for k, (p, mp, np_) in enumerate(src):
        d = M._diffs.get(n - p)
        if d is not None and np_:
            blocks[k, k] = d.kron(Matrix.identity(M.ring, np_))
        d = N._diffs.get(p)
        if d is not None and mp:
            sign = one if (n - p) % 2 == 0 else -one
            blocks[at[p - 1], k] = Matrix.identity(M.ring, mp).kron(d).scale(sign)
    return Matrix.from_blocks(M.ring, [a * b for _, a, b in tgt],
                              [a * b for _, a, b in src], blocks)


def reference_extension_action(K, M, H, n):
    """Multiplication by e_H on K (x) M from degree n, from kron blocks."""
    src = tensor_layout(K.complex, M, n)
    tgt = tensor_layout(K.complex, M, n + len(H))
    blocks = {}
    for k, (p, kp, mp) in enumerate(src):
        if kp and mp and K.degree_rank(n - p + len(H)):
            blocks[k, k] = K.mult_matrix(H, n - p).kron(Matrix.identity(K.ring, mp))
    return Matrix.from_blocks(K.ring, [a * b for _, a, b in tgt],
                              [a * b for _, a, b in src], blocks)


# the adjunction between complex maps M -> N and K-linear maps K (x) M -> N


@dataclass
class AdjunctionTransport:
    """forward: psi (M -> underlying N) to the K-linear extension; backward:
    restrict along the unit summand 1 (x) M.  backward . forward = id always;
    forward . backward = id exactly on K-linear maps."""

    K: object
    M: object
    N: object

    def forward(self, psi):
        K, M, N = self.K, self.M, self.N
        ext = tensor(K.complex, M)
        block = lambda H, p: N.action_matrix(H, p) * psi.component(p)
        comps = {n: _summand_columns(K, M, n, N.underlying.rank(n), block)
                 for n in ext.degrees()}
        return ChainMap(ext, N.underlying, comps)

    def backward(self, Phi):
        K, M = self.K, self.M
        comps = {}
        for n in M.support:
            src = tensor_layout(K.complex, M, n)
            offset = 0
            sliced = None
            for (p, mrank, prank) in src:
                width = mrank * prank
                if p == n and width:
                    sliced = Phi.component(n).submatrix(
                        range(Phi.component(n).rows), range(offset, offset + width))
                offset += width
            if sliced is not None:
                comps[n] = sliced
        return ChainMap(M, Phi.target, comps)


def adjunction_transport(K, M, N):
    """Correspondence object for maps M -> N.underlying vs K (x) M -> N."""
    return AdjunctionTransport(K, M, N)


def unit_map(K, M):
    """The chain map M -> K (x) M embedding into the unit summand."""
    ext = tensor(K.complex, M)
    ring = K.ring
    comps = {}
    for n in M.support:
        rows = ext.rank(n)
        cols = M.rank(n)
        if rows == 0 or cols == 0:
            continue
        offset = 0
        grid_rows = [[ring.zero] * cols for _ in range(rows)]
        for (p, mrank, prank) in tensor_layout(K.complex, M, n):
            width = mrank * prank
            if p == n and width:
                # the unit basis vector of K_0 is first in its summand
                for i in range(cols):
                    grid_rows[offset + i][i] = ring.one
            offset += width
        comps[n] = Matrix.from_rows(ring, grid_rows)
    return ChainMap(M, ext, comps)


def multiplication_map(K, D):
    """The action K (x) D.underlying -> D.underlying as a chain map.

    Columns over the summand K_{n-p} (x) D_p send the (H, x) basis vector
    to the action of e_H on x.
    """
    M = D.underlying
    ext = tensor(K.complex, M)
    comps = {n: _summand_columns(K, M, n, M.rank(n), D.action_matrix)
             for n in ext.degrees()}
    return ChainMap(ext, M, comps)


def _summand_columns(K, M, n, height, block):
    """A map out of (K (x) M)_n, given on e_H (x) M_p by block(H, p)."""
    pieces = [(H, p) for p, kp, mp in tensor_layout(K.complex, M, n) if kp and mp
              for H in K.basis[n - p]]
    return Matrix.from_blocks(K.ring, [height], [M.rank(p) for _, p in pieces],
                              {(0, j): block(H, p) for j, (H, p) in enumerate(pieces)})
