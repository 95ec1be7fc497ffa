"""Exact linear algebra over rings with the linear_solve capability.

Three elimination engines.  Prime fields F_p and
finite-dimensional F_p-algebras run on int rows over F_p (_fp_rref): an
algebra element expands to its multiplication matrix on the standard
monomials, a prime-field entry is its own coordinate, and rows are packed
into bitmask ints when p = 2.  Reduced row echelon form on those rows gives
kernels, solutions and ranks (hence cardinalities, the unit test of those
algebras and their minimal generating sets) without any transform matrices.
Z, Z/n, Q and F_p[x] with its quotients are lifted to a Euclidean domain,
where smith_data diagonalizes with recorded transforms; kernels,
solvability, module cardinalities and subquotient presentations read off
that decomposition, and a subquotient over Z/n is the one over Z of the
lifts enlarged by n Z^u.
The certified normal forms other than Smith come from one Hermite row
reducer (_hermite) over a Euclidean domain: row_echelon runs it over the
field, howell_form over Z on the lift stacked on n*I.

Both reducers compute on payloads through the one payload protocol of
`rings.Ring`: the Euclidean domain is a ring, the ring itself for Z, Q,
F_p and F_p[x], Z for Z/n and the ambient F_p[x] for F_p[x]/(f).
Quotients, remainders, the unit test and inverses modulo f are derived
from it below.  Every ring's payloads are payloads of its lift, so entries
go in as they are; results are reduced modulo n or f and go to
`Matrix.from_payload_rows` or `Matrix.from_columns`, so no entry is boxed
into a RingElement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import BudgetExceeded, CapabilityMissing, DimensionMismatch, NotAComplex
from .matrices import Matrix
from .rings import (
    INTEGERS, POLYQUOT, PRIMEFIELD, RATIONALS, ZMOD, ZZ,
)

_SMITH_SWEEP_CAP = 10_000


# ---------------------------------------------------------------------------
# Euclidean payload domains
#
# Z, Q, F_p and F_p[x] are their own Euclidean domains: rings.Ring binds
# their divmod_payload, gcdex_payload, canon_payload and size_payload on
# the ring's own payloads.  What elimination needs beyond it is derived
# once, here, for every domain.


def _quo(ed, a, b):
    """The exact quotient a / b."""
    q, r = ed.divmod_payload(a, b)
    if r:
        raise ArithmeticError("inexact division")
    return q


def _mod(ed, a, f):
    return ed.divmod_payload(a, f)[1]


def _is_unit(ed, a):
    # the units are the nonzero elements of least Euclidean size, that of one
    return bool(a) and ed.size_payload(a) == ed.size_payload(ed.one_payload)


def _unit_inv(ed, u):
    return ed.divmod_payload(ed.one_payload, u)[0]


def _inv_mod(ed, a, f):
    """The inverse of a modulo f.  gcdex returns the canonical gcd, which
    is one exactly when a is invertible modulo f."""
    g, s, _ = ed.gcdex_payload(a, f)
    if g != ed.one_payload:
        raise ArithmeticError("not invertible")
    return _mod(ed, s, f)


# ---------------------------------------------------------------------------
# ring -> lift context


@dataclass
class _LiftContext:
    ed: object               # the Euclidean domain: Z, Q, F_p or F_p[x] (a Ring)
    modulus: object          # ED payload, or None when the ring is the domain itself
    from_payload: callable   # ED payload -> ring payload, reduced mod the modulus
    quotient_card: callable | None  # g dividing the modulus -> |ED/(g)|


def _identity(x):
    return x


def lift_context(ring):
    """The Euclidean lift behind a linear_solve ring, or None.

    Z, Q, F_p and F_p[x] are their own lift; Z/n lifts to Z and F_p[x]/(f)
    to its ambient F_p[x].  A ring's payloads are payloads of its lift, so
    only results are converted, by reduction modulo the generator.
    """
    if ring.kind == ZMOD:
        n = ring.modulus
        return _LiftContext(ZZ(), n, lambda a: a % n, abs)
    if ring.kind == POLYQUOT:
        if len(ring.variables) != 1 or ring.coeff.kind != PRIMEFIELD:
            return None
        if ring.groebner:
            p = ring.coeff.p
            return _LiftContext(ring.ambient, ring.groebner[0], ring.normal_form_payload,
                                lambda g: p ** g[0][0][0])
    return _LiftContext(ring, None, _identity, None)


def _fp_view_of(ring):
    """The F_p view of a prime field or finite-dimensional F_p-algebra, or None.

    The view is built once and kept on the ring, so it lives exactly as long
    as the ring does.
    """
    view = getattr(ring, "_fp_view", None)
    if view is None and (ring.kind == PRIMEFIELD or (
            ring.kind == POLYQUOT and ring.coeff.kind == PRIMEFIELD
            and ring._finite_dimensional())):
        view = ring._fp_view = _FpView(ring)
    return view


def has_linear_solve(ring):
    return lift_context(ring) is not None or _fp_view_of(ring) is not None


def _engine(ring):
    """(F_p view, None) or (None, lift context): how kernels, solutions and
    cardinalities over `ring` are computed.

    Prime fields, and the F_p-algebras that have no Euclidean lift, run on
    F_p rows; everything else runs smith_data on its lift.
    """
    ctx = None if ring.kind == PRIMEFIELD else lift_context(ring)
    view = None if ctx is not None else _fp_view_of(ring)
    if ctx is None and view is None:
        raise CapabilityMissing(f"{ring} does not support linear solving")
    return view, ctx


# ---------------------------------------------------------------------------
# Smith decomposition over a Euclidean domain, with recorded transforms


class _SmithData:
    def __init__(self, ed, rows, cols):
        self.ed = ed
        self.rows = rows
        self.cols = cols
        self.m = None      # diagonalized grid
        self.S = None      # left transform and its inverse
        self.Si = None
        self.T = None      # right transform and its inverse
        self.Ti = None

    def diag(self, i):
        if i < min(self.rows, self.cols):
            return self.m[i][i]
        return self.ed.zero_payload


def _identity_grid(ed, n):
    one, zero = ed.one_payload, ed.zero_payload
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smith_data(ed, grid, rows, cols):
    """S * grid * T = D diagonal with divisibility chain; all over `ed`."""
    m = [list(r) for r in grid]
    sd = _SmithData(ed, rows, cols)
    S, Si = _identity_grid(ed, rows), _identity_grid(ed, rows)
    T, Ti = _identity_grid(ed, cols), _identity_grid(ed, cols)
    add, neg, mul = ed.add_payload, ed.neg_payload, ed.mul_payload
    divmod_, gcdex, size = ed.divmod_payload, ed.gcdex_payload, ed.size_payload
    zero, one = ed.zero_payload, ed.one_payload

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        S[i], S[j] = S[j], S[i]
        for r in Si:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in T:
            r[i], r[j] = r[j], r[i]
        Ti[i], Ti[j] = Ti[j], Ti[i]

    def row_combine(i, j, a, b, c, d):
        # rows (i,j) <- (a ri + b rj, c ri + d rj); requires det = ad - bc = 1
        for mat in (m, S):
            ri, rj = mat[i], mat[j]
            mat[i] = [add(mul(a, x), mul(b, y)) for x, y in zip(ri, rj)]
            mat[j] = [add(mul(c, x), mul(d, y)) for x, y in zip(ri, rj)]
        # Si <- Si * inverse([[a,b],[c,d]]) acting on columns i, j
        for r in Si:
            x, y = r[i], r[j]
            r[i] = add(mul(d, x), neg(mul(c, y)))
            r[j] = add(mul(a, y), neg(mul(b, x)))

    def col_combine(i, j, a, b, c, d):
        # cols (i,j) <- (a ci + b cj, c ci + d cj); requires det = ad - bc = 1
        for mat in (m, T):
            for r in mat:
                x, y = r[i], r[j]
                r[i] = add(mul(a, x), mul(b, y))
                r[j] = add(mul(c, x), mul(d, y))
        ri, rj = Ti[i], Ti[j]
        Ti[i] = [add(mul(d, x), neg(mul(c, y))) for x, y in zip(ri, rj)]
        Ti[j] = [add(mul(a, y), neg(mul(b, x))) for x, y in zip(ri, rj)]

    def eliminate_row(k, i):
        # kill m[i][k] against the pivot m[k][k]; leave the pivot row alone
        # whenever the pivot divides the entry (prevents swap oscillation)
        a, b = m[k][k], m[i][k]
        if a:
            q, r = divmod_(b, a)
            if not r:
                row_combine(k, i, one, zero, neg(q), one)
                return
        g, s, t = gcdex(a, b)
        row_combine(k, i, s, t, neg(_quo(ed, b, g)), _quo(ed, a, g))

    def eliminate_col(k, j):
        a, b = m[k][k], m[k][j]
        if a:
            q, r = divmod_(b, a)
            if not r:
                col_combine(k, j, one, zero, neg(q), one)
                return
        g, s, t = gcdex(a, b)
        col_combine(k, j, s, t, neg(_quo(ed, b, g)), _quo(ed, a, g))

    def clear_at(k):
        while True:
            for i in range(k + 1, rows):
                if m[i][k]:
                    eliminate_row(k, i)
            if not any(m[k][j] for j in range(k + 1, cols)):
                return
            for j in range(k + 1, cols):
                if m[k][j]:
                    eliminate_col(k, j)
            if not any(m[i][k] for i in range(k + 1, rows)):
                return

    limit = min(rows, cols)
    for sweep in range(_SMITH_SWEEP_CAP):
        for k in range(limit):
            pivot = None
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if m[i][j]:
                        s = size(m[i][j])
                        if best is None or s < best:
                            best, pivot = s, (i, j)
            if pivot is None:
                break
            if pivot != (k, k):
                if pivot[0] != k:
                    row_swap(k, pivot[0])
                if pivot[1] != k:
                    col_swap(k, pivot[1])
            clear_at(k)
        # enforce the divisibility chain d1 | d2 | ...
        violation = None
        for i in range(limit - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if not a and b:
                violation = i
                break
            if a and b and divmod_(b, a)[1]:
                violation = i
                break
        if violation is None:
            break
        i = violation
        # fold the next diagonal entry into row i so the gcd step can run
        row_combine(i, i + 1, one, one, zero, one)
    else:
        raise BudgetExceeded(f"smith sweep cap {_SMITH_SWEEP_CAP} exceeded")

    # canonicalize diagonal units (positive integers / monic polynomials)
    for i in range(limit):
        u, c = ed.canon_payload(m[i][i])
        if not _is_unit(ed, u) and m[i][i]:
            raise ArithmeticError("canon returned a non-unit")
        if c != m[i][i]:
            inv = _unit_inv(ed, u)
            m[i] = [mul(inv, x) for x in m[i]]
            S[i] = [mul(inv, x) for x in S[i]]
            for r in Si:
                r[i] = mul(u, r[i])

    sd.m, sd.S, sd.Si, sd.T, sd.Ti = m, S, Si, T, Ti
    return sd


# ---------------------------------------------------------------------------
# F_p elimination on int rows


def _fp_rref(p, rows, ncols):
    """In-place reduced row echelon over the first `ncols` columns; returns
    the pivot columns.  Entries beyond `ncols` (right-hand sides) are carried
    along by the row operations but never chosen as pivots.

    For p = 2 rows are ints (bit j = column j); otherwise lists of ints.
    """
    pivots = []
    rank = 0
    if p == 2:
        for col in range(ncols):
            bit = 1 << col
            sel = None
            for r in range(rank, len(rows)):
                if rows[r] & bit:
                    sel = r
                    break
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            pivot_row = rows[rank]
            for r in range(len(rows)):
                if r != rank and rows[r] & bit:
                    rows[r] ^= pivot_row
            pivots.append(col)
            rank += 1
        return pivots
    for col in range(ncols):
        sel = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        # the pivot row is zero left of col, so only the tails change
        pivot = rows[rank]
        inv = pow(pivot[col], -1, p)
        tail = [(inv * x) % p for x in pivot[col:]]
        rows[rank] = pivot[:col] + tail
        for r in range(len(rows)):
            row = rows[r]
            f = row[col] % p
            if f and r != rank:
                rows[r] = row[:col] + [(x - f * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
    return pivots


def _fp_kernel(p, rows, ncols):
    """Kernel basis vectors (lists of ints) of the matrix given by rows."""
    work = list(rows)
    pivots = _fp_rref(p, work, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            if p == 2:
                if work[r] & (1 << free):
                    vec[pc] = 1
            else:
                if work[r][free] % p:
                    vec[pc] = (-work[r][free]) % p
        basis.append(vec)
    return basis


def _fp_solve(p, rows, ncols, rhs):
    """One solution x of rows * x = b for every vector b in `rhs`, or None
    when some b lies outside the column span.

    The right-hand sides ride along as extra columns of a single elimination.
    """
    if any(len(b) != len(rows) for b in rhs):
        raise DimensionMismatch("rhs length does not match row count")
    sols = [[0] * ncols for _ in rhs]
    if p == 2:
        work = [r | sum((b[i] & 1) << (ncols + k) for k, b in enumerate(rhs))
                for i, r in enumerate(rows)]
        pivots = _fp_rref(2, work, ncols)
        if any(work[r] >> ncols for r in range(len(pivots), len(work))):
            return None
        for r, pc in enumerate(pivots):
            for k, x in enumerate(sols):
                x[pc] = (work[r] >> (ncols + k)) & 1
        return sols
    work = [list(r) + [b[i] % p for b in rhs] for i, r in enumerate(rows)]
    pivots = _fp_rref(p, work, ncols)
    if any(x % p for r in range(len(pivots), len(work)) for x in work[r][ncols:]):
        return None
    for r, pc in enumerate(pivots):
        for k, x in enumerate(sols):
            x[pc] = work[r][ncols + k]
    return sols


def _fp_rank(p, rows, ncols):
    work = list(rows) if p == 2 else [list(r) for r in rows]
    return len(_fp_rref(p, work, ncols))


class _FpView:
    """F_p coordinates for a prime field or a finite-dimensional F_p-algebra.

    An element has `dim` coordinates: its own value over F_p, or its
    coefficients on the standard monomials of an algebra.  A matrix becomes
    the int rows of its expansion over F_p, where each entry a stands for
    the dim x dim matrix of multiplication by a; rows are bitmask ints when
    p = 2 and lists of ints otherwise.
    """

    def __init__(self, ring):
        self.ring = ring
        if ring.kind == PRIMEFIELD:
            self.p, self.std, self.dim = ring.modulus, None, 1
        else:
            self.p, self.std = ring.coeff.p, ring._std_monomials
            self.index = {m: i for i, m in enumerate(self.std)}
            self.dim = len(self.std)
        # multiplication matrices by payload: at most |ring| entries
        self._mult_cache = {}

    def coords(self, payload):
        if self.std is None:
            return [payload]
        out = [0] * self.dim
        for e, c in payload:
            out[self.index[e]] = c
        return out

    def payload(self, coords):
        """The ring payload with these coordinates."""
        if self.std is None:
            return coords[0] % self.p
        d = {self.std[i]: c % self.p for i, c in enumerate(coords) if c % self.p}
        return tuple(sorted(d.items(), key=lambda kv: self.ring._key(kv[0]), reverse=True))

    def _mult_columns(self, payload):
        """Columns of the multiplication-by-payload map on the standard basis."""
        if payload not in self._mult_cache:
            self._mult_cache[payload] = [
                self.coords(self.ring.mul_payload(payload, ((mono, 1),)))
                for mono in self.std]
        return self._mult_cache[payload]

    def rows(self, A):
        """(int rows, column count) of A expanded over F_p.

        Zero entries are skipped entirely, which matters for the sparse
        block matrices of hom complexes.
        """
        if self.std is None:
            if self.p == 2:
                return [sum(1 << j for j in cols) for cols, _ in A.sparse_rows], A.cols
            return _payload_grid(A), A.cols
        D = self.dim
        nrows, ncols = A.rows * D, A.cols * D
        if self.p == 2:
            rows = [0] * nrows
            for i, (js, payloads) in enumerate(A.sparse_rows):
                base_row = i * D
                for j, payload in zip(js, payloads):
                    cols = self._mult_columns(payload)
                    base_col = j * D
                    for bcol in range(D):
                        col = cols[bcol]
                        bit = 1 << (base_col + bcol)
                        for brow in range(D):
                            if col[brow]:
                                rows[base_row + brow] |= bit
            return rows, ncols
        grid = [[0] * ncols for _ in range(nrows)]
        for i, (js, payloads) in enumerate(A.sparse_rows):
            for j, payload in zip(js, payloads):
                cols = self._mult_columns(payload)
                for bcol in range(D):
                    col = cols[bcol]
                    for brow in range(D):
                        if col[brow]:
                            grid[i * D + brow][j * D + bcol] = col[brow]
        return grid, ncols

    def column(self, B, j=0):
        """F_p coordinates of column j of B."""
        zero = self.ring.zero_payload
        return [c for cols, vals in B.sparse_rows
                for c in self.coords(vals[cols.index(j)] if j in cols else zero)]

    def matrix(self, vecs, nrows):
        """The nrows x len(vecs) matrix whose columns have coordinates `vecs`."""
        D = self.dim
        return Matrix.from_columns(self.ring, nrows, [
            [self.payload(v[i * D:(i + 1) * D]) for i in range(nrows)]
            for v in vecs])

    def rank(self, A):
        """Rank of A's expansion: |column span of A| = p ** rank."""
        rows, ncols = self.rows(A)
        return _fp_rank(self.p, rows, ncols)


# ---------------------------------------------------------------------------
# public operations


def _payload_grid(A):
    """A's payloads as dense lists of rows, zeros included."""
    zero = A.ring.zero_payload
    grid = [[zero] * A.cols for _ in range(A.rows)]
    for row, (cols, vals) in zip(grid, A.sparse_rows):
        for j, v in zip(cols, vals):
            row[j] = v
    return grid


def _grid_to_matrix(ring, ctx, grid, cols):
    """The matrix over `ring` of dense rows of the lift's payloads."""
    conv = ctx.from_payload
    if conv is not _identity:
        grid = [[conv(x) for x in row] for row in grid]
    return Matrix.from_payload_rows(ring, len(grid), cols, grid)


def kernel_basis(ring, A):
    """Columns generating ker(A) as a module (a basis over fields, Z, F_p[x])."""
    view, ctx = _engine(ring)
    if view is not None:
        rows, ncols = view.rows(A)
        return view.matrix(_fp_kernel(view.p, rows, ncols), A.cols)
    ed = ctx.ed
    sd = smith_data(ed, _payload_grid(A), A.rows, A.cols)
    f = ctx.modulus
    gens = []
    for j in range(A.cols):
        d = sd.diag(j)
        if f is None:
            if d:
                continue
            scale = ed.one_payload
        else:
            g, _, _ = ed.gcdex_payload(d, f)
            scale = _quo(ed, f, g)
            if not _mod(ed, scale, f):
                continue  # annihilator is zero: this column contributes nothing
        col = [ctx.from_payload(ed.mul_payload(sd.T[i][j], scale)) for i in range(A.cols)]
        if any(col):
            gens.append(col)
    return Matrix.from_columns(ring, A.cols, gens)


def solve(ring, A, B):
    """Some X with A X = B, or None; B may have several columns."""
    view, ctx = _engine(ring)
    if A.rows != B.rows:
        raise DimensionMismatch(f"A is {A.rows}x{A.cols}, rhs has {B.rows} rows")
    if view is not None:
        rows, ncols = view.rows(A)
        sols = _fp_solve(view.p, rows, ncols, [view.column(B, j) for j in range(B.cols)])
        return None if sols is None else view.matrix(sols, A.cols)
    ed = ctx.ed
    add, mul, zero = ed.add_payload, ed.mul_payload, ed.zero_payload
    sd = smith_data(ed, _payload_grid(A), A.rows, A.cols)
    f = ctx.modulus
    out_cols = []
    rhs = _payload_grid(B)
    for j in range(B.cols):
        bp = [r[j] for r in rhs]
        c = [None] * A.rows
        for i in range(A.rows):
            acc = zero
            for k in range(A.rows):
                acc = add(acc, mul(sd.S[i][k], bp[k]))
            c[i] = acc if f is None else _mod(ed, acc, f)
        y = [zero] * A.cols
        ok = True
        for i in range(A.rows):
            d = sd.diag(i)
            ci = c[i]
            if f is None:
                if not d:
                    if ci:
                        ok = False
                        break
                else:
                    q, r = ed.divmod_payload(ci, d)
                    if r:
                        ok = False
                        break
                    if i < A.cols:
                        y[i] = q
            else:
                g = ed.gcdex_payload(d, f)[0] if d else f
                if _mod(ed, ci, g):
                    ok = False
                    break
                fg = _quo(ed, f, g)
                if i < A.cols and not _is_unit(ed, fg):
                    dg = _quo(ed, d, g) if d else zero
                    if dg:
                        cg = _quo(ed, ci, g)
                        y[i] = _mod(ed, mul(cg, _inv_mod(ed, dg, fg)), fg)
        if not ok:
            return None
        x = []
        for i in range(A.cols):
            acc = zero
            for k in range(A.cols):
                acc = add(acc, mul(sd.T[i][k], y[k]))
            x.append(ctx.from_payload(acc))
        out_cols.append(x)
    return Matrix.from_columns(ring, A.cols, out_cols)


def invert(ring, A):
    """Two-sided inverse of a square matrix, or None."""
    if A.rows != A.cols:
        return None
    X = solve(ring, A, Matrix.identity(ring, A.rows))
    if X is None:
        return None
    if not (X * A - Matrix.identity(ring, A.rows)).is_zero():
        return None
    return X


def kernel_cardinality(ring, A):
    """|ker A| over a finite ring."""
    view, ctx = _engine(ring)
    if view is not None:
        return view.p ** (A.cols * view.dim - view.rank(A))
    if ctx.modulus is None:
        raise CapabilityMissing(f"{ring} is not finite")
    # column j contributes |ann(d_j)| = |ED/(gcd(d_j, f))|, all of R when d_j = 0
    sd = smith_data(ctx.ed, _payload_grid(A), A.rows, A.cols)
    return prod(ctx.quotient_card(ctx.ed.gcdex_payload(sd.diag(j), ctx.modulus)[0])
                for j in range(A.cols))


def span_cardinality(ring, A):
    """|column span of A| as a submodule of ring^rows (finite rings)."""
    if A.cols == 0:
        return 1
    view, ctx = _engine(ring)
    if view is not None:
        return view.p ** view.rank(A)
    kernel = kernel_cardinality(ring, A)  # CapabilityMissing over infinite rings
    return ring.cardinality() ** A.cols // kernel


# ---------------------------------------------------------------------------
# normal forms with certificates


@dataclass
class NormalFormResult:
    form: str
    ring: object
    matrix: Matrix
    left: Matrix
    left_inv: Matrix
    right: Matrix
    right_inv: Matrix
    original: Matrix

    def verify(self):
        n_l = Matrix.identity(self.ring, self.left.rows)
        n_r = Matrix.identity(self.ring, self.right.rows)
        return ((self.left * self.original * self.right) == self.matrix
                and (self.left * self.left_inv) == n_l
                and (self.right * self.right_inv) == n_r)

    def diagonal(self):
        data = self.matrix.data
        return [data[i][i] for i in range(min(self.matrix.rows, self.matrix.cols))]


def smith_form(ring, A):
    """Smith form over Z or F_p[x] (also valid over fields)."""
    ctx = lift_context(ring)
    if ctx is None or ctx.modulus is not None:
        raise CapabilityMissing(f"smith form needs a domain, not {ring}")
    sd = smith_data(ctx.ed, _payload_grid(A), A.rows, A.cols)
    return NormalFormResult(
        "smith", ring, _grid_to_matrix(ring, ctx, sd.m, A.cols),
        _grid_to_matrix(ring, ctx, sd.S, A.rows), _grid_to_matrix(ring, ctx, sd.Si, A.rows),
        _grid_to_matrix(ring, ctx, sd.T, A.cols), _grid_to_matrix(ring, ctx, sd.Ti, A.cols), A)


def _hermite(ed, grid, ncols):
    """Row-reduce `grid` in place to Hermite form over `ed`; return (U, U^-1).

    Column by column, gcd row combinations of determinant 1 collect the
    column's gcd in the pivot row, `canon_payload` normalizes the pivot and
    `divmod_payload` reduces the entries above it, so U * input = grid.
    Over a field this is the reduced row echelon form.
    """
    total = len(grid)
    add, mul, neg = ed.add_payload, ed.mul_payload, ed.neg_payload
    zero, one = ed.zero_payload, ed.one_payload
    U, Ui = _identity_grid(ed, total), _identity_grid(ed, total)

    def combine(i, j, a, b, c, d):
        # rows (i,j) <- (a ri + b rj, c ri + d rj), det = ad - bc = 1
        for mat in (grid, U):
            ri, rj = mat[i], mat[j]
            mat[i] = [add(mul(a, x), mul(b, y)) for x, y in zip(ri, rj)]
            mat[j] = [add(mul(c, x), mul(d, y)) for x, y in zip(ri, rj)]
        for r in Ui:
            x, y = r[i], r[j]
            r[i] = add(mul(d, x), neg(mul(c, y)))
            r[j] = add(mul(a, y), neg(mul(b, x)))

    pivot_row = 0
    for col in range(ncols):
        if pivot_row == total:
            break
        for i in range(pivot_row + 1, total):
            b = grid[i][col]
            if b:
                a = grid[pivot_row][col]
                g, s, t = ed.gcdex_payload(a, b)
                combine(pivot_row, i, s, t, neg(_quo(ed, b, g)), _quo(ed, a, g))
        piv = grid[pivot_row][col]
        if not piv:
            continue
        u, c = ed.canon_payload(piv)
        if c != piv:
            inv = _unit_inv(ed, u)
            grid[pivot_row] = [mul(inv, x) for x in grid[pivot_row]]
            U[pivot_row] = [mul(inv, x) for x in U[pivot_row]]
            for r in Ui:
                r[pivot_row] = mul(u, r[pivot_row])
        for i in range(pivot_row):
            q, _ = ed.divmod_payload(grid[i][col], c)
            if q:
                combine(i, pivot_row, one, neg(q), zero, one)
        pivot_row += 1
    return U, Ui


def row_echelon(ring, A):
    """Reduced row echelon over a field, with recorded row transform."""
    if ring.kind not in (RATIONALS, PRIMEFIELD):
        raise CapabilityMissing(f"row echelon requires a field, got {ring}")
    m = _payload_grid(A)
    L, Li = _hermite(ring, m, A.cols)
    return NormalFormResult(
        "echelon", ring, Matrix.from_payload_rows(ring, A.rows, A.cols, m),
        Matrix.from_payload_rows(ring, A.rows, A.rows, L),
        Matrix.from_payload_rows(ring, A.rows, A.rows, Li),
        Matrix.identity(ring, A.cols), Matrix.identity(ring, A.cols), A)


def howell_form(ring, A):
    """Howell form over Z/n, canonical for the row span.

    Computed as the Hermite form over Z of the lift stacked on n*I; the
    recorded transforms act on that padded matrix (the `original` field),
    which is A with `cols` extra zero rows appended.
    """
    if ring.kind not in (ZMOD, PRIMEFIELD):
        raise CapabilityMissing(f"howell form is for Z/n, got {ring}")
    n = ring.modulus
    cols = A.cols
    grid = _payload_grid(A)
    grid += [[n if i == j else 0 for j in range(cols)] for i in range(cols)]
    U, Ui = _hermite(ZZ(), grid, cols)

    def conv(g, width):
        return Matrix.from_payload_rows(ring, len(g), width,
                                        [[x % n for x in row] for row in g])

    padded = A.vstack(Matrix.zeros(ring, cols, cols))
    return NormalFormResult(
        "howell", ring, conv(grid, cols), conv(U, len(grid)), conv(Ui, len(grid)),
        Matrix.identity(ring, cols), Matrix.identity(ring, cols), padded)


def matrix_normal_form(ring, A):
    """The ring-appropriate normal form: echelon, smith, or howell."""
    if ring.kind in (RATIONALS, PRIMEFIELD):
        return row_echelon(ring, A)
    if ring.kind == ZMOD:
        return howell_form(ring, A)
    ctx = lift_context(ring)
    if ctx is not None and ctx.modulus is None:
        return smith_form(ring, A)
    raise CapabilityMissing(f"no matrix normal form over {ring}")


# ---------------------------------------------------------------------------
# homology presentations


@dataclass
class HomologySummary:
    """ker/im presented at the level each ring supports.

    Fields are None when not applicable: `dimension` over fields,
    `cardinality` over finite rings, `free_rank`/`invariant_factors`
    over Z, Z/n and F_p[x].
    """

    ring: object
    is_zero: bool
    cardinality: int | None = None
    dimension: int | None = None
    free_rank: int | None = None
    invariant_factors: tuple = None

    def describe(self):
        r = self.ring
        if self.is_zero:
            return "0"
        if r.kind in (RATIONALS, PRIMEFIELD) and self.dimension is not None:
            return f"k^{self.dimension}"
        if self.free_rank is not None or self.invariant_factors:
            # Z/n summaries carry abelian-group invariants, so they read as Z
            base = "Z" if r.kind in (INTEGERS, ZMOD) else repr(r)
            parts = [f"{base}^{self.free_rank}"] if self.free_rank else []
            parts.extend(f"Z/{f}" if base == "Z" else f"{base}/({f})"
                         for f in (self.invariant_factors or ()))
            if parts:
                return " + ".join(parts)
        return f"card {self.cardinality}"

    def same_as(self, other):
        """Equality at the strongest level both sides support."""
        if self.is_zero or other.is_zero:
            return self.is_zero == other.is_zero
        if self.dimension is not None and other.dimension is not None:
            return self.dimension == other.dimension
        if self.cardinality is not None and other.cardinality is not None:
            return self.cardinality == other.cardinality
        return (self.free_rank, self.invariant_factors) == \
            (other.free_rank, other.invariant_factors)


def _domain_subquotient(ring, V, W):
    """span(V)/span(W) over Z, Q or F_p[x]: free rank plus invariant factors."""
    ctx = lift_context(ring)
    ed = ctx.ed
    sd = smith_data(ed, _payload_grid(V), V.rows, V.cols)
    # basis of span(V): nonzero d_i times column i of S^{-1}
    basis_cols = []
    for i in range(min(V.rows, V.cols)):
        d = sd.diag(i)
        if d:
            basis_cols.append([ctx.from_payload(ed.mul_payload(sd.Si[r][i], d))
                               for r in range(V.rows)])
    k = len(basis_cols)
    if k == 0:
        return HomologySummary(ring, True, free_rank=0, invariant_factors=())
    B = Matrix.from_columns(ring, V.rows, basis_cols)
    coords = solve(ring, B, W) if W.cols else Matrix.zeros(ring, k, 0)
    if coords is None:
        raise ArithmeticError("image generators not inside the kernel span")
    csd = smith_data(ed, _payload_grid(coords), k, coords.cols)
    factors = []
    rank_rel = 0
    for i in range(min(k, coords.cols)):
        d = csd.diag(i)
        if not d:
            continue
        rank_rel += 1
        if not _is_unit(ed, d):
            factors.append(ring.box(ctx.from_payload(d)))
    free_rank = k - rank_rel
    is_zero = free_rank == 0 and not factors
    return HomologySummary(ring, is_zero, free_rank=free_rank,
                           invariant_factors=tuple(factors))


def subquotient(ring, V, W):
    """Present span(V)/span(W); W's columns must lie inside span(V)."""
    view, ctx = _engine(ring)
    if V.rows != W.rows:
        raise DimensionMismatch("ambient ranks differ")
    if ring.kind == PRIMEFIELD:
        dim = view.rank(V) - view.rank(W)
        return HomologySummary(ring, dim == 0, dimension=dim,
                               cardinality=ring.modulus ** dim)
    if ring.kind == RATIONALS:
        dim = _domain_subquotient(ring, V, W).free_rank
        return HomologySummary(ring, dim == 0, dimension=dim)
    if ring.kind == ZMOD:
        # span(V)/span(W) over Z/n is the quotient of the Z-lifts, each
        # enlarged by n Z^u, so it is finite and its invariants are integers
        Z = ZZ()
        nI = Matrix.identity(Z, V.rows).scale(Z.from_int(ring.modulus))
        lift = lambda M: Matrix(Z, M.rows, M.cols, M.sparse_rows).hstack(nI)
        factors = tuple(f.payload for f in
                        _domain_subquotient(Z, lift(V), lift(W)).invariant_factors)
        card = prod(factors)
        return HomologySummary(ring, card == 1, cardinality=card,
                               invariant_factors=factors, free_rank=0)
    if ctx is not None and ctx.modulus is None:
        return _domain_subquotient(ring, V, W)
    # finite quotient rings: cardinality ratio
    cv = span_cardinality(ring, V)
    cw = span_cardinality(ring, W)
    if cv % cw:
        raise ArithmeticError("image span does not divide kernel span")
    card = cv // cw
    return HomologySummary(ring, card == 1, cardinality=card)


def homology_module(ring, d_in, d_out):
    """ker(d_out)/im(d_in) for consecutive differentials d_out . d_in = 0."""
    _engine(ring)  # CapabilityMissing without a solver
    if d_out.cols != d_in.rows:
        raise DimensionMismatch(
            f"d_out takes {d_out.cols} columns but d_in lands in {d_in.rows}")
    if not (d_out * d_in).is_zero():
        raise NotAComplex(0, "d_out . d_in != 0")
    V = kernel_basis(ring, d_out)
    return subquotient(ring, V, d_in)


def image_membership(ring, V, W):
    """True when every column of V lies in the column span of W."""
    if V.cols == 0:
        return True
    return solve(ring, W, V) is not None


# ---------------------------------------------------------------------------
# minimal generating sets (Nakayama reduction over local rings)


def _maximal_ideal_elements(ring):
    out = []
    for g in ring.maximal_ideal:
        if isinstance(g, int):
            out.append(ring.from_int(g))
        else:
            out.append(ring.variable(g))
    return out


def _hstack_all(cols, ring, rows):
    return Matrix.from_blocks(ring, [rows], [c.cols for c in cols],
                              {(0, j): c for j, c in enumerate(cols)})


def _expansion_minimal_generators(ring, view, M):
    """Keep column c_j exactly when it is outside the F_p-span of mM and
    c_1 ... c_{j-1}: the pivot columns among c_1 ... c_k of one _fp_rref
    over the vectors c*g (every column c, every nonconstant monomial g),
    then c_1 ... c_k."""
    nonconstant = [ring.box(((m, 1),)) for m in view.std if sum(m) > 0]
    cols = M.columns()
    vecs = [view.column(c.scale(g)) for c in cols for g in nonconstant]
    vecs += [view.column(c) for c in cols]
    if view.p == 2:
        rows = [sum(1 << j for j, x in enumerate(r) if x) for r in zip(*vecs)]
    else:
        rows = [list(r) for r in zip(*vecs)]
    first = len(vecs) - len(cols)
    pivots = _fp_rref(view.p, rows, len(vecs))
    return _hstack_all([cols[j - first] for j in pivots if j >= first], ring, M.rows)


def minimal_generators(ring, M):
    """Reduce the columns of M to a minimal generating set of their span.

    Nakayama over certified-local rings; elsewhere only zero columns are
    dropped (kernel bases over Z and F_p[x] are already minimal).
    """
    cols = [c for c in M.columns() if not c.is_zero()]
    if len(cols) != M.cols:
        M = _hstack_all(cols, ring, M.rows)
    if M.cols <= 1 or not ring.local:
        return M
    # prime fields keep the solve loop below, which decides the kept columns
    view = _fp_view_of(ring) if ring.kind == POLYQUOT else None
    if view is not None:
        return _expansion_minimal_generators(ring, view, M)
    mgens = _maximal_ideal_elements(ring)
    cols = M.columns()
    changed = True
    while changed and len(cols) > 1:
        changed = False
        for j in range(len(cols)):
            others = [c for k, c in enumerate(cols) if k != j]
            mcols = [c.scale(g) for g in mgens for c in cols]
            W = _hstack_all(others + mcols, ring, M.rows)
            if W.cols and solve(ring, W, cols[j]) is not None:
                cols.pop(j)
                changed = True
                break
    return _hstack_all(cols, ring, M.rows)
