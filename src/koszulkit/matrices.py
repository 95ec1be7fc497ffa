"""Sparse matrices over a ring, with 0xk and kx0 shapes as first-class citizens.

A matrix stores each row as its nonzero entries: a pair of tuples, the
columns in increasing order and the payloads in the same order.  A zero
payload is never stored.  Every kernel below (product, sum, negation,
scaling, Kronecker product, transpose, block assembly, equality) runs on
the stored entries in time proportional to their number; the product is
Gustavson's row-by-row sparse product ("Two fast algorithms for sparse
matrices", ACM TOMS 1978).  A row of the left factor with one stored entry
scales one row of the right factor: when that entry is one the product
reuses the stored row object itself, and when it is minus one it negates
the row, so a product by a signed permutation matrix makes no
multiplication.

Kernels compute on payloads, never on boxed entries, through the payload
protocol of the `ring` slot, the one that `rings.Ring` defines:

  zero_payload, one_payload       the zero payload is the only falsy one
  add_payload(a, b), neg_payload(a), mul_payload(a, b)
  box(payload) -> entry           unbox(entry) -> payload
  zero, one                       the boxed zero and one

Every matrix of the library is over a `rings.Ring`, whose entries are
RingElements; the descent compiler builds its equations on payload rows of
its own and needs no second scalar ring.  Code that computes on payloads,
such as the elimination engines of `linalg`, hands them over with
`from_payload_rows`, `from_columns` or `from_entries` and never boxes.
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
    def from_entries(cls, ring, rows, cols, entries):
        """The rows x cols matrix with payload v at (i, j) for every triple
        (i, j, v) of `entries`; positions are distinct, and every position
        not given (or given a zero payload) is zero."""
        out = [[] for _ in range(rows)]
        for i, j, v in entries:
            out[i].append((j, v))
        return cls(ring, rows, cols, tuple(
            _row_of_pairs(sorted(r, key=itemgetter(0))) if r else _EMPTY for r in out))

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
        out_cols = [[] for _ in range(row_at[-1])]
        out_vals = [[] for _ in range(row_at[-1])]
        # block columns in increasing order keep every assembled row sorted
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
            c0 = col_at[j]
            for r, (cols, vals) in enumerate(m.sparse_rows, start=row_at[i]):
                out_cols[r].extend(c + c0 for c in cols)
                out_vals[r].extend(vals)
        return cls(ring, row_at[-1], col_at[-1],
                   tuple((tuple(c), tuple(v)) for c, v in zip(out_cols, out_vals)))

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

    @classmethod
    def diag(cls, ring, entries):
        unbox = ring.unbox
        return cls(ring, len(entries), len(entries),
                   tuple(_row((i,), (unbox(x),)) for i, x in enumerate(entries)))

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
