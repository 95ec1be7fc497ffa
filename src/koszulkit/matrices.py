"""Matrices over a ring, with 0xk and kx0 shapes as first-class citizens.

Entries only need +, -, *, unary minus and equality, so the same class
carries ring elements and the symbolic polynomials of the descent systems.
The `ring` slot is any object exposing `zero` and `one` attributes.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import DimensionMismatch, MixedRings


class Matrix:
    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, rows, cols, data):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data  # tuple of row tuples

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, ring, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for r in rows_list:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        return cls(ring, rows, cols, tuple(tuple(r) for r in rows_list))

    @classmethod
    def zeros(cls, ring, rows, cols):
        z = ring.zero
        return cls(ring, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, n, n, tuple(tuple(o if i == j else z for j in range(n))
                                     for i in range(n)))

    @classmethod
    def from_blocks(cls, ring, heights, widths, blocks):
        """Assemble a block matrix from its nonzero blocks.

        Block row i is heights[i] tall and block column j is widths[j] wide;
        `blocks` maps (i, j) to the matrix in that position, and every
        absent position is zero.
        """
        row_at = [0, *accumulate(heights)]
        col_at = [0, *accumulate(widths)]
        z = ring.zero
        data = [[z] * col_at[-1] for _ in range(row_at[-1])]
        for (i, j), m in blocks.items():
            if not (0 <= i < len(heights) and 0 <= j < len(widths)):
                raise DimensionMismatch(
                    f"block ({i},{j}) outside a {len(heights)}x{len(widths)} grid")
            if m.ring != ring:
                raise MixedRings("blocks over different rings")
            if m.rows != heights[i] or m.cols != widths[j]:
                raise DimensionMismatch(
                    f"block ({i},{j}) is {m.rows}x{m.cols}, expected "
                    f"{heights[i]}x{widths[j]}")
            r0, c0, c1 = row_at[i], col_at[j], col_at[j + 1]
            for r, line in enumerate(m.data, start=r0):
                data[r][c0:c1] = line
        return cls(ring, row_at[-1], col_at[-1], tuple(map(tuple, data)))

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
        n = len(entries)
        z = ring.zero
        return cls(ring, n, n, tuple(tuple(entries[i] if i == j else z
                                           for j in range(n)) for i in range(n)))

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def submatrix(self, row_range, col_range):
        return Matrix(self.ring, len(row_range), len(col_range),
                      tuple(tuple(self.data[i][j] for j in col_range) for i in row_range))

    def columns(self):
        return [self.submatrix(range(self.rows), [j]) for j in range(self.cols)]

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
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(-a for a in r) for r in self.data))

    def __mul__(self, other):
        self._check_same(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0 or other.rows == 0:
            return Matrix.zeros(self.ring, self.rows, other.cols)
        z = self.ring.zero
        rows_b = other.data
        out = []
        for ra in self.data:
            line = [z] * other.cols
            for k, a in enumerate(ra):
                if a.is_zero():
                    continue
                rb = rows_b[k]
                for j, b in enumerate(rb):
                    if not b.is_zero():
                        line[j] = line[j] + a * b
            out.append(tuple(line))
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

    def scale(self, c):
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(c * a for a in r) for r in self.data))

    def transpose(self):
        if self.rows == 0:
            return Matrix(self.ring, self.cols, 0, tuple(() for _ in range(self.cols)))
        return Matrix(self.ring, self.cols, self.rows, tuple(zip(*self.data)))

    def hstack(self, other):
        self._check_same(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack with different row counts")
        return Matrix(self.ring, self.rows, self.cols + other.cols,
                      tuple(ra + rb for ra, rb in zip(self.data, other.data)))

    def vstack(self, other):
        self._check_same(other)
        if self.cols != other.cols:
            raise DimensionMismatch("vstack with different column counts")
        return Matrix(self.ring, self.rows + other.rows, self.cols,
                      self.data + other.data)

    def kron(self, other):
        """Kronecker product in row-major tensor-basis convention."""
        self._check_same(other)
        data = []
        for i in range(self.rows):
            for k in range(other.rows):
                line = []
                for j in range(self.cols):
                    a = self.data[i][j]
                    line.extend(a * b for b in other.data[k])
                data.append(tuple(line))
        return Matrix(self.ring, self.rows * other.rows, self.cols * other.cols,
                      tuple(data))

    def map_entries(self, fn, ring=None):
        ring = ring if ring is not None else self.ring
        return Matrix(ring, self.rows, self.cols,
                      tuple(tuple(fn(a) for a in r) for r in self.data))

    # -- predicates -----------------------------------------------------------------

    def is_zero(self):
        z = self.ring.zero
        return all(a == z for r in self.data for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(", ".join(repr(a) for a in r) for r in self.data)
        return f"[{body}]"

