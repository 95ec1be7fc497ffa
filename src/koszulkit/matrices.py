"""Sparse matrices over a ring, with 0xk and kx0 shapes as first-class citizens.

A matrix stores each row as its nonzero entries: a pair of tuples, the
columns in increasing order and the payloads in the same order.  A zero
payload is never stored.  Every kernel below (product, sum, negation,
scaling, Kronecker product, transpose, block assembly, equality, and the
check kernel `vanishes`) runs on the stored entries in time proportional
to their number; the product is Gustavson's row-by-row sparse product
("Two fast algorithms for sparse matrices", ACM TOMS 1978).  A row of the
left factor with one stored entry scales one row of the right factor:
when that entry is one the product reuses the stored row object itself,
and when it is minus one it negates the row, so a product by a signed
permutation matrix makes no multiplication.

`vanishes` decides an identity sum c A B = 0 the same way, one row at a
time into one dict, and answers at the first nonzero row without
building a product, a sum or a comparison.  `from_kron_blocks` writes the
rows of the blocks A (x) I_n and I_n (x) A of tensor, Hom and extension
structure maps as whole row tuples shifted from the rows of A, with no
identity matrix and no Kronecker product; `from_blocks` places general
blocks through it.

Kernels compute on payloads, never on boxed entries, through the payload
protocol of the `ring` slot, the one that `rings.Ring` defines:

  zero_payload, one_payload       the zero payload is the only falsy one
  add_payload(a, b), neg_payload(a), mul_payload(a, b)
  axpy_payloads(xs, c, ys)        the row [x + c y], x kept where y is zero
  combine_payloads(a, xs, b, ys)  the row [a x + b y]
  box(payload) -> entry           unbox(entry) -> payload
  zero, one                       the boxed zero and one

The two row kernels return exactly the payloads that add_payload and
mul_payload give entry by entry; the Howell and Smith eliminations of
`linalg` make their row operations through them.

Every matrix of the library is over a `rings.Ring`, whose entries are
RingElements; the descent compiler builds its equations on payload rows of
its own and needs no second scalar ring.  Code that computes on payloads,
such as the elimination engines of `linalg`, hands them over with
`from_payload_rows` or `from_columns` and never boxes.
`data` is the dense view, a tuple of row tuples of boxed entries, built on
first use and kept.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter

from .errors import DimensionMismatch, MixedRings

_EMPTY = ((), ())  # the stored form of a zero row


def _row(cols, vals):
    """The stored form of a row with entries vals at cols (zeros dropped)."""
    if all(vals):
        return tuple(cols), tuple(vals)
    kept = [(j, v) for j, v in zip(cols, vals) if v]
    return tuple(j for j, _ in kept), tuple(v for _, v in kept)


def _row_of_pairs(pairs):
    """The stored form of a row given as (column, payload) pairs by column."""
    return _row([j for j, _ in pairs], [v for _, v in pairs])


class Matrix:
    __slots__ = ("ring", "rows", "cols", "sparse_rows", "_data")

    def __init__(self, ring, rows, cols, sparse_rows):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        # one (columns, payloads) pair of tuples per row: its nonzero entries
        self.sparse_rows = sparse_rows
        self._data = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_payload_rows(cls, ring, rows, cols, grid):
        """The rows x cols matrix whose rows are the lists of payloads in
        `grid`, zeros included."""
        if len(grid) != rows:
            raise DimensionMismatch(f"{len(grid)} rows, expected {rows}")
        every_col = tuple(range(cols))  # shared by the rows with no zero entry
        out = []
        for r in grid:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
            out.append(_row(every_col, r))
        return cls(ring, rows, cols, tuple(out))

    @classmethod
    def from_rows(cls, ring, rows_list):
        """The matrix with these rows of boxed entries."""
        unbox = ring.unbox
        return cls.from_payload_rows(
            ring, len(rows_list), len(rows_list[0]) if rows_list else 0,
            [[unbox(x) for x in r] for r in rows_list])

    @classmethod
    def from_columns(cls, ring, height, columns):
        """The height x len(columns) matrix whose columns are the lists of
        payloads in `columns`, zeros included."""
        return cls.from_payload_rows(ring, len(columns), height, columns).transpose()

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls(ring, rows, cols, (_EMPTY,) * rows)

    @classmethod
    def identity(cls, ring, n):
        one = (ring.one_payload,)
        return cls(ring, n, n, tuple(((i,), one) for i in range(n)))

    @classmethod
    def from_blocks(cls, ring, heights, widths, blocks):
        """Assemble a block matrix from its nonzero blocks.

        Block row i is heights[i] tall and block column j is widths[j] wide;
        `blocks` maps (i, j) to the matrix in that position, and every
        absent position is zero.
        """
        row_at = [0, *accumulate(heights)]
        col_at = [0, *accumulate(widths)]
        placed = []
        for (i, j), m in sorted(blocks.items(), key=itemgetter(0)):
            if not (0 <= i < len(heights) and 0 <= j < len(widths)):
                raise DimensionMismatch(
                    f"block ({i},{j}) outside a {len(heights)}x{len(widths)} grid")
            if m.ring != ring:
                raise MixedRings("blocks over different rings")
            if m.rows != heights[i] or m.cols != widths[j]:
                raise DimensionMismatch(
                    f"block ({i},{j}) is {m.rows}x{m.cols}, expected "
                    f"{heights[i]}x{widths[j]}")
            placed.append((row_at[i], col_at[j], m, 1, False))
        return cls.from_kron_blocks(ring, row_at[-1], col_at[-1], placed)

    @classmethod
    def from_kron_blocks(cls, ring, rows, cols, blocks):
        """The rows x cols matrix whose nonzero blocks are Kronecker products
        of a matrix with an identity, written as whole rows from the rows of
        the matrix: no identity and no Kronecker product is built.

        `blocks` holds (row offset, column offset, left, right, negate)
        tuples.  One of left and right is a Matrix A and the other an int
        n >= 0, standing for the identity I_n; negate asks for the block's
        negative.  Either way the block is A.rows n x A.cols n.  Row a n + t
        of A (x) I_n is row a of A at the columns b n + t, and row a h + t of
        I_n (x) A, for A of shape h x w, is row t of A shifted by a w.
        Every position that no block covers is zero.

        Each output row is the shifted row tuple of the one block that fills
        it, or A's own row when the shift is zero.  Blocks run by column
        offset, so a row that several blocks share is joined once, at the
        end, from its pieces in column order.  A block outside the frame or
        overlapping another raises DimensionMismatch.
        """
        neg = ring.neg_payload
        out = [_EMPTY] * rows
        ends = [0] * rows  # past the last column each row's blocks cover
        shared = []        # the rows that several blocks fill
        for r0, c0, left, right, negate in sorted(blocks, key=itemgetter(1)):
            A, n = (right, left) if isinstance(left, int) else (left, right)
            stored = A.sparse_rows
            h, w = len(stored) * n, A.cols * n
            r1 = r0 + h
            if min(r0, c0, n) < 0 or r1 > rows or c0 + w > cols:
                raise DimensionMismatch(
                    f"a {h}x{w} block at ({r0},{c0}) outside a {rows}x{cols} matrix")
            if not (h and w):
                continue
            if negate:
                stored = [(cs, tuple(map(neg, vs))) for cs, vs in stored]
            if n == 1 and not c0:
                band = stored
            elif A is right:  # I_n (x) A: n shifted copies of A's rows
                band = [(tuple([c + s for c in cs]), vs) if cs else _EMPTY
                        for s in range(c0, c0 + w, A.cols) for cs, vs in stored]
            else:  # A (x) I_n: row a of A n times, at the columns b n + c0 + t
                band = [(tuple([b * n + s for b in cs]), vs) if cs else _EMPTY
                        for cs, vs in stored for s in range(c0, c0 + n)]
            reach = max(ends[r0:r1])
            if reach > c0:
                raise DimensionMismatch(
                    f"a {h}x{w} block at ({r0},{c0}) overlaps another block")
            ends[r0:r1] = [c0 + w] * h
            if not reach:  # no earlier block in these rows
                out[r0:r1] = band
                continue
            for r, row in enumerate(band, r0):
                if row[0]:
                    cur = out[r]
                    if not cur[0]:
                        out[r] = row
                    elif cur.__class__ is list:  # a shared row's pieces so far
                        cur.append(row)
                    else:
                        out[r] = [cur, row]
                        shared.append(r)
        for r in shared:
            pieces = out[r]
            if len(pieces) == 2:  # the common case, one concatenation
                (ca, va), (cb, vb) = pieces
                out[r] = (ca + cb, va + vb)
            else:
                cs, vs = zip(*pieces)
                out[r] = (tuple([c for p in cs for c in p]), tuple([v for p in vs for v in p]))
        return cls(ring, rows, cols, tuple(out))

    @classmethod
    def block(cls, grid):
        """Assemble a block matrix from a grid (list of lists) of matrices.

        Row heights must agree across each grid row and column widths across
        each grid column.
        """
        if not grid or not grid[0]:
            raise DimensionMismatch("empty block grid")
        widths = [m.cols for m in grid[0]]
        if any(len(row) != len(widths) for row in grid):
            raise DimensionMismatch("ragged block grid")
        return cls.from_blocks(
            grid[0][0].ring, [row[0].rows for row in grid], widths,
            {(i, j): m for i, row in enumerate(grid) for j, m in enumerate(row)})

    # -- access ----------------------------------------------------------------

    @property
    def data(self):
        """The dense view: a tuple of row tuples of boxed entries."""
        if self._data is None:
            box, zero = self.ring.box, self.ring.zero
            out = []
            for cols, vals in self.sparse_rows:
                row = [zero] * self.cols
                for j, v in zip(cols, vals):
                    row[j] = box(v)
                out.append(tuple(row))
            self._data = tuple(out)
        return self._data

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def submatrix(self, row_range, col_range):
        col_range = list(col_range)
        if any(not 0 <= j < self.cols for j in col_range):
            raise IndexError(f"column outside a {self.rows}x{self.cols} matrix")
        out = []
        for i in row_range:
            line = dict(zip(*self.sparse_rows[i]))
            out.append(_row_of_pairs([(t, line[j]) for t, j in enumerate(col_range)
                                      if j in line]))
        return Matrix(self.ring, len(out), len(col_range), tuple(out))

    def columns(self):
        """The columns as rows x 1 matrices."""
        out = []
        for cols, vals in self.transpose().sparse_rows:
            rows = [_EMPTY] * self.rows
            for i, v in zip(cols, vals):
                rows[i] = ((0,), (v,))
            out.append(Matrix(self.ring, self.rows, 1, tuple(rows)))
        return out

    # -- arithmetic --------------------------------------------------------------

    def _check_same(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {type(other).__name__}")
        if self.ring != other.ring:
            raise MixedRings("matrices over different rings")

    def __add__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        add = self.ring.add_payload
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            if not ra[0] or not rb[0]:
                out.append(ra if ra[0] else rb)
                continue
            acc = dict(zip(*ra))
            for j, b in zip(*rb):
                acc[j] = add(acc[j], b) if j in acc else b
            out.append(_row_of_pairs(sorted(acc.items())))
        return Matrix(self.ring, self.rows, self.cols, tuple(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.neg_payload
        return Matrix(self.ring, self.rows, self.cols,
                      tuple((cols, tuple(map(neg, vals))) for cols, vals in self.sparse_rows))

    def __mul__(self, other):
        """Gustavson's product: row i of the result accumulates a_ik * b_kj
        over the stored entries a_ik of row i and b_kj of row k."""
        self._check_same(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        ring = self.ring
        add, mul, neg = ring.add_payload, ring.mul_payload, ring.neg_payload
        one = ring.one_payload
        minus_one = neg(one)
        rows_b = other.sparse_rows
        out = []
        for ks, avals in self.sparse_rows:
            if len(ks) == 1:
                # most rows of the signed-permutation structure matrices hold
                # one entry: it scales one row of B, already in column order,
                # with no accumulator and no sort; an entry 1 keeps B's row
                # object, and -1 negates it with no zero to drop
                a = avals[0]
                row = rows_b[ks[0]]
                if a == one:
                    out.append(row)
                elif a == minus_one:
                    out.append((row[0], tuple(map(neg, row[1]))))
                else:
                    out.append(_row(row[0], [mul(a, b) for b in row[1]]))
                continue
            acc = {}
            for k, a in zip(ks, avals):
                for j, b in zip(*rows_b[k]):
                    acc[j] = add(acc[j], mul(a, b)) if j in acc else mul(a, b)
            out.append(_row_of_pairs(sorted(acc.items())))
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

    def scale(self, c):
        """c times this matrix; c is an entry of the ring."""
        ring = self.ring
        p = ring.unbox(c)
        if not p:
            return Matrix.zeros(ring, self.rows, self.cols)
        one = ring.one_payload
        if p == one:
            return self
        if p == ring.neg_payload(one):
            return -self
        mul = ring.mul_payload
        return Matrix(ring, self.rows, self.cols,
                      tuple(_row(cols, [mul(p, v) for v in vals])
                            for cols, vals in self.sparse_rows))

    def transpose(self):
        out_cols = [[] for _ in range(self.cols)]
        out_vals = [[] for _ in range(self.cols)]
        for i, (cols, vals) in enumerate(self.sparse_rows):
            for j, v in zip(cols, vals):
                out_cols[j].append(i)
                out_vals[j].append(v)
        return Matrix(self.ring, self.cols, self.rows,
                      tuple((tuple(c), tuple(v)) for c, v in zip(out_cols, out_vals)))

    def hstack(self, other):
        self._check_same(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack with different row counts")
        w = self.cols
        return Matrix(self.ring, self.rows, self.cols + other.cols,
                      tuple((ca + tuple(j + w for j in cb), va + vb)
                            for (ca, va), (cb, vb) in zip(self.sparse_rows,
                                                          other.sparse_rows)))

    def vstack(self, other):
        self._check_same(other)
        if self.cols != other.cols:
            raise DimensionMismatch("vstack with different column counts")
        return Matrix(self.ring, self.rows + other.rows, self.cols,
                      self.sparse_rows + other.sparse_rows)

    def kron(self, other):
        """Kronecker product in row-major tensor-basis convention."""
        self._check_same(other)
        mul = self.ring.mul_payload
        w = other.cols
        out = []
        for ca, va in self.sparse_rows:
            for cb, vb in other.sparse_rows:
                out.append(_row([ja * w + jb for ja in ca for jb in cb],
                                [mul(a, b) for a in va for b in vb]))
        return Matrix(self.ring, self.rows * other.rows, self.cols * other.cols,
                      tuple(out))

    def map_entries(self, fn, ring=None):
        """Apply fn to every entry; fn must send zero to zero (a ring map,
        an embedding), so it is applied to the stored entries only."""
        ring = ring if ring is not None else self.ring
        box, unbox = self.ring.box, ring.unbox
        if unbox(fn(self.ring.zero)):
            raise ValueError("map_entries needs a map that sends zero to zero")
        return Matrix(ring, self.rows, self.cols,
                      tuple(_row(cols, [unbox(fn(box(v))) for v in vals])
                            for cols, vals in self.sparse_rows))

    # -- predicates -----------------------------------------------------------------

    def is_zero(self):
        return not any(cols for cols, _ in self.sparse_rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.rows, self.cols, self.sparse_rows))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(", ".join(repr(a) for a in r) for r in self.data)
        return f"[{body}]"


def vanishes(ring, rows, cols, terms):
    """Is the rows x cols sum of c A B over the triples (c, A, B) of `terms`
    zero?  c is a payload, and B None stands for the identity: the term
    c A.

    Row i of the sum gathers the rows of B that the stored entries a_ik of
    row i of A pick, each with its factor c a_ik (or row i of A itself,
    with factor c, when B is None), and the first row whose sum is nonzero
    answers no; no product matrix, sum or comparison is built.  Two
    gathered rows that are equal under opposite factors, the common case
    of signed-permutation structure maps, cancel by one tuple comparison.
    Any other row accumulates into one dict, Gustavson's product: it
    starts as a copy of the first gathered row, which is that row itself
    under the factor one.  A term raises what its product would
    (MixedRings, then DimensionMismatch "AxB * CxD"), and a term of
    another shape than rows x cols the DimensionMismatch of a sum.
    """
    one = ring.one_payload
    add, mul, neg = ring.add_payload, ring.mul_payload, ring.neg_payload
    minus_one = neg(one)
    live = []
    for c, A, B in terms:
        if (A.ring is not ring and A.ring != ring) or (
                B is not None and B.ring is not ring and B.ring != ring):
            raise MixedRings("matrices over different rings")
        if B is not None and A.cols != B.rows:
            raise DimensionMismatch(f"{A.rows}x{A.cols} * {B.rows}x{B.cols}")
        width = A.cols if B is None else B.cols
        if (A.rows, width) != (rows, cols):
            raise DimensionMismatch(f"{rows}x{cols} + {A.rows}x{width}")
        if c:
            live.append((c, A.sparse_rows, None if B is None else B.sparse_rows))
    for i in range(rows):
        parts = []  # (factor, columns, payloads) of each gathered row
        for c, rows_a, rows_b in live:
            ks, avals = rows_a[i]
            if rows_b is None:
                if ks:
                    parts.append((c, ks, avals))
                continue
            for k, a in zip(ks, avals):
                bcols, bvals = rows_b[k]
                if bcols:
                    parts.append((a if c == one else mul(c, a), bcols, bvals))
        if not parts:
            continue
        if len(parts) == 2:
            (s, cs, vs), (t, ct, vt) = parts
            if vs == vt and cs == ct and t == (
                    minus_one if s == one else one if s == minus_one else neg(s)):
                continue
        acc = {}
        for s, cs, vs in parts:
            if len(cs) == 1:
                j, v = cs[0], vs[0]
                if s != one:
                    v = neg(v) if s == minus_one else mul(s, v)
                acc[j] = add(acc[j], v) if j in acc else v
                continue
            if s != one:
                vs = map(neg, vs) if s == minus_one else [mul(s, v) for v in vs]
            if not acc:
                acc = dict(zip(cs, vs))
                continue
            for j, v in zip(cs, vs):
                acc[j] = add(acc[j], v) if j in acc else v
        if any(acc.values()):
            return False
    return True
