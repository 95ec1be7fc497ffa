"""Descent equation systems for Koszul extensions.

Given a Koszul algebra K on e elements and a minimal bounded complex P on
degrees 0..m, four polynomial systems over the coefficient ring describe
exactly the data of a complex A of the same shape together with a K-linear
quasiisomorphism from the given DG module onto K (x) A:

  S1  square-zero equations for the candidate differential (X variables),
  S2  the chain-map equations for the comparison map (Y variables),
  S3  K-linearity of the comparison map in every basis element,
  S4  a contracting homotopy of the mapping cone (Z variables), with the
      Kronecker delta as constant term.

A system is held compiled.  Each variable is an int, its index in the
shape's canonical order (`SystemShape.index`); each equation is a
position and flat terms in print order, a term being a coefficient index
and at most two variable indices; the coefficients are one table of
distinct payloads.  Generation emits this form, `io` prints and reads it,
and verification evaluates it against a list of values indexed by
variable.  Solutions are verified by pure evaluation over any ring tier;
a verified solution reconstructs the descended complex with an
independently re-checked certificate.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .complexes import (
    ChainComplex, ChainMap, Homotopy, augment_by_resolution, cone, homology,
    is_chain_map, is_contraction, is_minimal, tensor, tensor_differential, tensor_layout,
)
from .dgmodules import (
    DGModule, extend, extension_action, is_k_linear,
)
from .errors import (
    CapabilityMissing, IncompleteAssignment, MixedRings, NotMinimal,
    RankMismatch, ShapeMismatch, UnverifiedDGModule, VerificationFailed, WindowViolated,
)
from .koszul import koszul_base_change
from .matrices import Matrix
from .rings import RingHom


class SystemVariable(NamedTuple):
    """A system variable.  Its tuple order (family "X" < "Y" < "Z", then
    n, i, j as integers) is the canonical order of variables in monomials,
    variable lists and files."""

    family: str   # "X" | "Y" | "Z"
    n: int
    i: int        # 1-based row index
    j: int        # 1-based column index

    def token(self):
        return f"{self.family}_{self.n}_{self.i}_{self.j}"


class VarPoly:
    """An equation's polynomial as a dict: `terms` maps each monomial, a
    sorted tuple of variables, to its nonzero coefficient payload.  It is
    the readable view of a compiled equation (`PolynomialSystem.equations`)
    and has no arithmetic of its own."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, VarPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class SystemShape:
    m: int
    e: int
    s: tuple   # ranks of P in degrees 0..m
    r: tuple   # ranks of the extension in degrees 0..m+e

    def s_at(self, n):
        return self.s[n] if 0 <= n <= self.m else 0

    def r_at(self, n):
        return self.r[n] if 0 <= n <= self.m + self.e else 0

    def dims(self, family, n):
        """Rows and columns of the degree-n block of `family` variables:
        X_n is s(n-1) x s(n), Y_n is r(n) x r(n) and Z_n, a map of the
        mapping cone, is (r(n+1) + r(n)) x (r(n) + r(n-1))."""
        if family == "X":
            return self.s_at(n - 1), self.s_at(n)
        r = self.r_at
        if family == "Y":
            return r(n), r(n)
        return r(n + 1) + r(n), r(n) + r(n - 1)

    @cached_property
    def _blocks(self):
        """(family, n) -> (index of the first variable, rows, columns) for
        every nonempty block, in canonical order: X_1..X_m, then Y_n and
        Z_n for n = 0..m+e, each row by row."""
        blocks, start = {}, 0
        for family in "XYZ":
            for n in range(1, self.m + 1) if family == "X" else range(self.m + self.e + 1):
                rows, cols = self.dims(family, n)
                if rows and cols:
                    blocks[family, n] = (start, rows, cols)
                    start += rows * cols
        return blocks

    def index(self, family, n, i, j):
        """The index of the variable (family, n, i, j), or None when it
        lies outside the shape.  Index order is the canonical order."""
        block = self._blocks.get((family, n))
        if block is not None:
            start, rows, cols = block
            if 0 < i <= rows and 0 < j <= cols:
                return start + (i - 1) * cols + j - 1
        return None

    @cached_property
    def _starts(self):
        """(index of the first variable, family, n, columns) of every
        nonempty block, in canonical order."""
        return [(start, family, n, cols) for (family, n), (start, _, cols) in self._blocks.items()]

    def variable(self, k):
        """The variable of index k (0 <= k < count())."""
        start, family, n, cols = self._starts[bisect_right(self._starts, k, key=itemgetter(0)) - 1]
        i, j = divmod(k - start, cols)
        return SystemVariable(family, n, i + 1, j + 1)

    def variables(self):
        """The shape's variables in canonical (index) order."""
        for (family, n), (_, rows, cols) in self._blocks.items():
            for i in range(1, rows + 1):
                for j in range(1, cols + 1):
                    yield SystemVariable(family, n, i, j)

    def count(self, family=None):
        """The number of variables, of one family or of all."""
        return sum(rows * cols for (f, _), (_, rows, cols) in self._blocks.items()
                   if family in (None, f))


def _extension_rank(e, s, n):
    """The rank r_n of K (x) P for K on e elements and P of ranks
    s = (s_0 .. s_m): r_n = sum over p of C(e, n - p) s_p."""
    return sum(comb(e, n - p) * sp for p, sp in enumerate(s) if p <= n)


def _extension_ranks(e, s):
    """The ranks r_0 .. r_{m+e} of K (x) P."""
    return tuple(_extension_rank(e, s, n) for n in range(len(s) + e))


def shape_of(K, P):
    if P.support and min(P.support) < 0:
        raise ShapeMismatch("P must be supported in nonnegative degrees")
    m = max(P.support) if P.support else 0
    s = tuple(P.rank(n) for n in range(m + 1))
    return SystemShape(m, K.e, s, _extension_ranks(K.e, s))


# ---------------------------------------------------------------------------
# the system


@dataclass
class Equation:
    tag: str          # "S1".."S4"
    h: int | None     # basis index for S3 (1-based), None elsewhere
    n: int
    row: int          # 1-based
    col: int          # 1-based
    poly: VarPoly


@dataclass
class PolynomialSystem:
    """A compiled descent system.

    Equation k sits at `positions[k]`, a tuple (tag, h, n, row, col), and
    its polynomial is `terms[k]`, its flat terms: a tuple of (coefficient
    index, first variable index, second variable index) triples in print
    order, -1 standing for an absent variable.  `coefficients` is the table of
    distinct payloads in order of first appearance, so two systems with
    the same equations have equal tables; `==` compares only them.
    """

    ring: object                 # coefficient ring
    shape: SystemShape
    positions: list
    terms: list
    coefficients: list
    # the harness data, which only generated systems carry
    u_mats: dict = field(default_factory=dict, compare=False)    # degree -> differential
    v_mats: dict = field(default_factory=dict, compare=False)    # basis tuple -> degree -> action

    @cached_property
    def variables(self):
        """The shape's variables in canonical order, listed on first use."""
        return list(self.shape.variables())

    @cached_property
    def equations(self):
        """The equations as `Equation`s with `VarPoly` terms, built on
        first use; nothing that generates, prints, reads or verifies a
        system reads them."""
        var, coefficients = cache(self.shape.variable), self.coefficients
        out = []
        for (tag, h, n, row, col), flat in zip(self.positions, self.terms):
            terms = {tuple(var(v) for v in (a, b) if v >= 0): coefficients[c]
                     for c, a, b in flat}
            out.append(Equation(tag, h, n, row, col, VarPoly(self.ring, terms)))
        return out

    def variable_counts(self):
        return {family: self.shape.count(family) for family in "XYZ"}

    def equation_counts(self):
        return dict(Counter(map(itemgetter(0), self.positions)))


# Monomial keys, for a shape of `size` variables: a variable index v is
# the key of the monomial v, `size` is the key of the constant monomial
# and v*size + w - size^2 (v <= w) that of v w.  Ascending keys are the
# print order: degree-descending, then the variables' order.


def _term_compiler(size, coefficients):
    """flat(items): the flat terms of the (monomial key, nonzero payload)
    pairs `items`, given in print order (ascending keys); a payload not
    yet in `coefficients` is appended to it."""
    square, index = size * size, {}

    def flat(items):
        out = []
        for mono, c in items:
            k = index.get(c)
            if k is None:
                k = index[c] = len(coefficients)
                coefficients.append(c)
            if mono < 0:
                a, b = divmod(mono + square, size)
                out.append((k, a, b))
            else:
                out.append((k, mono, -1) if mono < size else (k, -1, -1))
        return tuple(out)

    return flat


def _basis_list(K):
    return [S for d in sorted(K.basis) for S in K.basis[d]]


def _fused_entries(ring, size, rows, cols, products, delta=False):
    """The entries, row by row, of the rows x cols sum of the products L R
    over the pairs (L, R) in `products`, minus the identity when `delta`:
    one dict monomial key -> payload per entry, for a shape of `size`
    variables.

    An operand is a list of sparse rows.  A row lists (column, key,
    coefficient payload) triples, the key a variable index or `size` for
    a constant.  Row i of every product accumulates, Gustavson-style,
    straight into the term dicts of row i of the result, so no product,
    difference or identity is built as a matrix of its own.

    An elementary product a b with a factor 1 or -1 is the other factor or
    its negation, with no ring product.  Every variable operand carries
    1 or -1, so in S1-S4 only B (-y) has no factor 1, and no product calls
    `mul` at all.
    """
    add, mul, neg = ring.add_payload, ring.mul_payload, ring.neg_payload
    one = ring.one_payload
    minus_one = neg(one)
    square = size * size
    out = []
    for i in range(rows):
        acc = [{} for _ in range(cols)]
        for L, R in products:
            for k, v, a in L[i]:
                for j, w, b in R[k]:
                    if a == one:
                        c = b
                    elif b == one:
                        c = a
                    elif a == minus_one:
                        c = neg(b)
                    elif b == minus_one:
                        c = neg(a)
                    else:
                        c = mul(a, b)
                        if not c:
                            continue
                    mono = (w if v == size else v if w == size else
                            v * size + w - square if v <= w else w * size + v - square)
                    terms = acc[j]
                    s = terms.get(mono)
                    if s is not None:
                        c = add(s, c)
                        if not c:
                            del terms[mono]
                            continue
                    terms[mono] = c
        if delta:
            c = add(acc[i].get(size, ring.zero_payload), minus_one)
            if c:
                acc[i][size] = c
            else:
                del acc[i][size]
        out.append(acc)
    return out


def _constant_rows(M, size, negate=False):
    """The operand of the ring matrix M, or of -M."""
    if negate:
        M = -M
    return [[(j, size, c) for j, c in zip(cols, vals)] for cols, vals in M.sparse_rows]


def _b_rows(K, X0, xv, n, size):
    """The operand of the block differential B_n: the degree-n differential
    of K (x) P with P's maps replaced by the X variables, whose index
    grids are `xv`.

    `X0` has P's ranks and no maps, so `tensor_differential` of K with it
    is the constant part d_K (x) 1.  Summand p of the source then maps by
    (-1)^{n-p} 1 (x) X_p into summand p-1 of the target, at the offsets of
    `tensor_layout`; each such entry is one signed variable.
    """
    one = K.ring.one_payload
    signs = (one, K.ring.neg_payload(one))
    rows = _constant_rows(tensor_differential(K.complex, X0, n), size)
    row_at, offset = {}, 0
    for p, kp, sp in tensor_layout(K.complex, X0, n - 1):
        row_at[p] = offset
        offset += kp * sp
    col = 0
    for p, kp, sp in tensor_layout(K.complex, X0, n):
        grid = xv.get(p)
        if kp and grid and sp:
            c = signs[(n - p) % 2]
            for a in range(kp):
                for i, x_row in enumerate(grid):
                    rows[row_at[p - 1] + a * len(grid) + i].extend(
                        (col + a * sp + j, v, c) for j, v in enumerate(x_row))
        col += kp * sp
    return rows


def generate_system(K, P, F=None, check_minimal=True):
    """Compile the four descent subsystems for (K, P) against the module F.

    F defaults to the canonical extension K (x) P.  F must have the ranks
    of the extension (RankMismatch otherwise) and pass the DG module
    axioms (UnverifiedDGModule).  P must be minimal when the ring has a
    certified maximal ideal.

    Every equation is an entry of a signed sum of matrix products, minus
    the identity for S4: x x (S1), y u - B y (S2), y v - w y (S3) and
    z C + C z - I (S4).  `_fused_entries` builds each block of equations
    in one pass, on operand rows of constants and variable indices;
    `_b_rows` gives those of the block differentials B.
    """
    ring = K.ring
    if check_minimal and ring.local and not is_minimal(P):
        raise NotMinimal("P has a unit entry in some differential")
    shape = shape_of(K, P)
    m, e, r = shape.m, shape.e, shape.r_at
    canonical = F is None
    if F is None:
        F = extend(K, P)
    for n in range(m + e + 1):
        if F.underlying.rank(n) != r(n):
            raise RankMismatch(
                f"module rank {F.underlying.rank(n)} at degree {n}, "
                f"expected {r(n)}")
    if not F.axioms.ok:
        raise UnverifiedDGModule("the supplied DG module fails its axioms")

    one = ring.one_payload
    size = shape.count()

    def variable_grid(family, n):
        rows, cols = shape.dims(family, n)
        start = shape.index(family, n, 1, 1)
        return [[start + i * cols + j for j in range(cols)] for i in range(rows)]

    def variable_rows(grid, c=one):
        return [[(j, v, c) for j, v in enumerate(row)] for row in grid]

    # outside 0..m+e a Y or Z block has no columns or no rows at all
    xv = {n: variable_grid("X", n) for n in range(1, m + 1)}
    yv = {n: variable_grid("Y", n) for n in range(-1, m + e + 2)}
    x = {n: variable_rows(grid) for n, grid in xv.items()}
    y = {n: variable_rows(grid) for n, grid in yv.items()}
    z = {n: variable_rows(variable_grid("Z", n)) for n in range(-1, m + e + 2)}
    X0 = ChainComplex(ring, {n: shape.s_at(n) for n in range(m + 1)}, {}, _validated=True)
    B = {n: _b_rows(K, X0, xv, n, size) for n in range(0, m + e + 3)}
    u_mats = {n: F.underlying.diff(n) for n in range(1, m + e + 1)}
    minus_one = ring.neg_payload(one)

    positions, terms, coefficients = [], [], []
    flat = _term_compiler(size, coefficients)

    def add_equations(tag, h, n, rows, cols, products, delta=False):
        for i, row in enumerate(_fused_entries(ring, size, rows, cols, products, delta), 1):
            positions.extend((tag, h, n, i, j) for j in range(1, cols + 1))
            terms.extend(flat(sorted(entry.items())) for entry in row)

    # S1: the candidate differential squares to zero
    for n in range(1, m):
        add_equations("S1", None, n, shape.s_at(n - 1), shape.s_at(n + 1),
                      [(x[n], x[n + 1])])
    # S2: chain-map equations against the block differentials
    for n in range(1, m + e + 1):
        add_equations("S2", None, n, r(n - 1), r(n), [
            (y[n - 1], _constant_rows(u_mats[n], size)),
            (B[n], variable_rows(yv[n], minus_one))])
    # S3: K-linearity for every basis element; the canonical F's action is
    # the extension action w itself, so then y v - v y
    basis = _basis_list(K)
    for h_index, H in enumerate(basis, start=1):
        hdeg = len(H)
        for n in range(0, m + e - hdeg + 1):
            v = F.action_matrix(H, n)
            w = v if canonical else extension_action(K, P, H, n)
            add_equations("S3", h_index, n, r(n + hdeg), r(n), [
                (y[n + hdeg], _constant_rows(v, size)),
                (_constant_rows(w, size, negate=True), y[n])])

    # S4: contraction of the mapping cone, Kronecker delta constant term
    def cone_rows(n):
        """The cone differential [[B, y], [0, -u]] in degree n; it extends
        B's rows, which S2 has finished with."""
        rows = B[n]
        for row, y_row in zip(rows, y[n - 1]):
            row.extend((j + r(n), v, c) for j, v, c in y_row)
        u = u_mats[n - 1] if n - 1 in u_mats else Matrix.zeros(ring, r(n - 2), 0)
        return rows + [[(j + r(n), v, c) for j, v, c in row]
                       for row in _constant_rows(u, size, negate=True)]

    cone = {n: cone_rows(n) for n in range(0, m + e + 3)}
    for n in range(0, m + e + 2):
        size_n = r(n) + r(n - 1)
        add_equations("S4", None, n, size_n, size_n,
                      [(z[n - 1], cone[n]), (cone[n + 1], z[n])], delta=True)

    v_mats = {H: {n: F.action_matrix(H, n) for n in range(0, m + e - len(H) + 1)}
              for H in basis}
    return PolynomialSystem(ring, shape, positions, terms, coefficients, u_mats, v_mats)


# ---------------------------------------------------------------------------
# assignments


@dataclass
class Assignment:
    """Values for every system variable in a target ring, reached through a
    homomorphism from the coefficient ring (identity for the default
    completion pair)."""

    hom: RingHom
    values: dict

    @property
    def target(self):
        return self.hom.target


def canonical_solution(K, P):
    """X = differentials of P, Y = identity, Z = the cone-of-identity
    contraction (lower-left identity blocks)."""
    ring, shape = K.ring, shape_of(K, P)
    values = dict.fromkeys(shape.variables(), ring.zero)
    for n in range(1, shape.m + 1):
        for i, row in enumerate(P.diff(n).data, 1):
            for j, x in enumerate(row, 1):
                values[SystemVariable("X", n, i, j)] = x
    for n in range(shape.m + shape.e + 1):
        # Y_n is the identity, Z_n the identity block below its first r(n+1) rows
        below = shape.r_at(n + 1)
        for i in range(1, shape.r_at(n) + 1):
            values[SystemVariable("Y", n, i, i)] = ring.one
            values[SystemVariable("Z", n, below + i, i)] = ring.one
    return Assignment(RingHom.identity(ring), values)


# ---------------------------------------------------------------------------
# verification


@dataclass
class SubsystemReport:
    tag: str
    total: int
    first_failure: tuple | None = None

    @property
    def ok(self):
        return self.first_failure is None

    def line(self):
        if self.ok:
            return f"{self.tag} ok"
        h, n, row, col = self.first_failure
        pos = f"n={n} row={row} col={col}"
        if h is not None:
            pos = f"h={h} " + pos
        return f"{self.tag} FAIL {pos}"


@dataclass
class VerificationReport:
    subsystems: list

    @property
    def passed(self):
        return all(s.ok for s in self.subsystems)

    def lines(self):
        return [s.line() for s in self.subsystems]


def _value_vector(system, assignment):
    """The payloads of the assignment's values in variable (index) order,
    in the target ring of its hom, which must map from the system's ring.

    Completeness is checked first.  An assignment with fewer values than
    the shape's variable count is incomplete at once, so the vector is
    only built, one lookup per variable of `system.variables`, for an
    assignment at least as long: the check costs time in proportion to
    the assignment, never to the shape.  Only a failing check walks the
    shape's variables, for the first five missing ones.
    """
    shape, values = system.shape, assignment.values
    vals = None
    if len(values) >= shape.count():
        try:
            vals = list(map(values.__getitem__, system.variables))
        except KeyError:
            pass
    if vals is None:
        missing = list(islice((v for v in shape.variables() if v not in values), 6))
        raise IncompleteAssignment(f"missing values for {missing[:5]}"
                                   + ("..." if len(missing) > 5 else ""))
    hom = assignment.hom
    if hom.source != system.ring:
        raise MixedRings(f"the assignment maps from {hom.source}, "
                         f"the system is over {system.ring}")
    return list(map(hom.target.unbox, vals))


def _evaluate(system, hom, vals):
    """The report of the system's equations on the value vector `vals`.

    A term with a variable of value zero is dropped before any ring call
    (payloads are normal forms, so zero is the only falsy one); the others
    cost c (x y), or c x.  Ring arithmetic is exact, so every sum, and
    with it every first failure, is the one of the full evaluation.
    """
    target = hom.target
    add, mul = target.add_payload, target.mul_payload
    coefficients = system.coefficients
    if not hom.is_identity():
        unbox = target.unbox
        coefficients = [unbox(hom(hom.source.box(c))) for c in coefficients]
    zero, failed = target.zero_payload, {}  # tag -> (h, n, row, col) of its first failure
    for (tag, h, n, row, col), flat in zip(system.positions, system.terms):
        if tag in failed:
            continue
        acc = zero
        for c, a, b in flat:
            if a < 0:
                acc = add(acc, coefficients[c])
                continue
            x = vals[a]
            if not x:
                continue
            if b >= 0:
                y = vals[b]
                if not y:
                    continue
                x = mul(x, y)
            acc = add(acc, mul(coefficients[c], x))
        if acc:
            failed[tag] = (h, n, row, col)
    counts = system.equation_counts()
    return VerificationReport([SubsystemReport(tag, counts.get(tag, 0), failed.get(tag))
                               for tag in ("S1", "S2", "S3", "S4")])


def verify_assignment(system, assignment):
    """Evaluate every equation under the assignment; report per subsystem.

    Works over any ring tier: the equations are evaluated on payloads of
    the target ring, against the value vector (`_value_vector`), and a
    term with a zero-valued variable costs no ring call (`_evaluate`).  A
    non-identity hom maps each entry of the coefficient table once, for
    this call only.  Verification runs in canonical equation order and
    records the first failing position of each subsystem.
    """
    return _evaluate(system, assignment.hom, _value_vector(system, assignment))


# ---------------------------------------------------------------------------
# reconstruction


@dataclass
class DescentCertificate:
    complex: ChainComplex        # the descended complex A over the target ring
    phi: ChainMap                # module side -> extension of A
    sigma: Homotopy              # contraction of cone(phi)
    extension: DGModule
    module_side: DGModule
    report: VerificationReport
    rechecks: dict


def reconstruct(K, system, assignment):
    """Build the descended complex and its quasiisomorphism certificate.

    Verifies the assignment first, on the value vector it then reads the
    X, Y and Z blocks from: the shape's index order is block by block, row
    by row, so each block row is one slice of the vector.  Every certified
    property (square-zero, chain map, K-linearity, contraction) is then
    re-checked by independent matrix arithmetic, and any disagreement
    raises VerificationFailed.
    """
    vals = _value_vector(system, assignment)
    report = _evaluate(system, assignment.hom, vals)
    if not report.passed:
        raise VerificationFailed(
            "assignment fails: " + "; ".join(
                s.line() for s in report.subsystems if not s.ok))
    shape = system.shape
    target = assignment.target
    hom = assignment.hom

    def block(family, n):
        rows, cols = shape.dims(family, n)
        start = shape.index(family, n, 1, 1)
        if start is None:
            return Matrix.zeros(target, rows, cols)
        return Matrix.from_payload_rows(target, rows, cols, [
            vals[k:k + cols] for k in range(start, start + rows * cols, cols)])

    ranks = {n: shape.s_at(n) for n in range(shape.m + 1)}
    diffs = {n: block("X", n) for n in range(1, shape.m + 1)}
    try:
        A = ChainComplex(target, ranks, diffs)
    except Exception as exc:
        raise VerificationFailed(f"S1 passed but d.d != 0 on values: {exc}")

    # the module side, mapped into the target ring
    u_mats, v_mats, K_t = system.u_mats, system.v_mats, K
    if not hom.is_identity():
        K_t = koszul_base_change(hom, K)
        u_mats = {n: mat.map_entries(hom, target) for n, mat in u_mats.items()}
        v_mats = {H: {n: mat.map_entries(hom, target) for n, mat in per.items()}
                  for H, per in v_mats.items()}
    ext = extend(K_t, A)
    module_under = ChainComplex(
        target, {n: shape.r_at(n) for n in range(shape.m + shape.e + 1)}, u_mats)
    module_side = DGModule(K_t, module_under, v_mats)

    degrees = range(shape.m + shape.e + 1)
    phi = ChainMap(module_under, ext.underlying, {n: block("Y", n) for n in degrees})
    sigma = Homotopy({n: block("Z", n) for n in degrees}, "contraction")

    rechecks = {
        "chain_map": is_chain_map(phi),
        "k_linear": is_k_linear(phi, module_side, ext),
        "contraction": is_contraction(sigma, cone(phi)),
    }
    if not all(rechecks.values()):
        failing = [k for k, v in rechecks.items() if not v]
        raise VerificationFailed(
            f"equations verified but independent re-checks failed: {failing}")
    return DescentCertificate(A, phi, sigma, ext, module_side, report, rechecks)


# ---------------------------------------------------------------------------
# the truncate-extend step


@dataclass
class TruncateExtendCertificate:
    m: int
    e: int
    sup_bound: int
    depth: int
    window: tuple                 # (low, high): checked H_i(M) = 0 for low < i < high
    koszul_window: tuple          # same for K (x) M with the widened bound
    checked_degrees: tuple


def truncate_extend(K, A, sup_bound, depth_budget=None):
    """Extend A above its top degree m by a free resolution and verify the
    vanishing window sup_bound + e < i < m, plus the widened window for the
    extension.  m must be at least sup_bound + 2e + 1."""
    ring = A.ring
    if not ring.linear_solve:
        raise CapabilityMissing(f"truncate_extend needs linear solving over {ring}")
    if not A.support:
        raise ShapeMismatch("cannot extend the zero complex")
    m = max(A.support)
    e = K.e
    s = sup_bound
    if m < s + 2 * e + 1:
        raise ShapeMismatch(
            f"top degree {m} is below the required s + 2e + 1 = {s + 2 * e + 1}")
    depth = depth_budget if depth_budget is not None else e + 2
    M = augment_by_resolution(A, m, depth_budget=depth)
    checked = []
    for i in range(s + e + 1, m):
        if not homology(M, i).is_zero:
            raise WindowViolated(i)
        checked.append(i)
    ext = tensor(K.complex, M)
    koszul_checked = []
    for i in range(s + 2 * e + 1, m):
        if not homology(ext, i).is_zero:
            raise WindowViolated(i, f"extension has homology at degree {i}")
        koszul_checked.append(i)
    cert = TruncateExtendCertificate(
        m, e, s, depth, (s + e, m), (s + 2 * e, m),
        tuple(checked + koszul_checked))
    return M, cert
