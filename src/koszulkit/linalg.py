"""Exact linear algebra over rings with the linear_solve capability.

Three elimination engines, all on payloads through the one payload
protocol of `rings.Ring`, so no entry is boxed into a RingElement:

- F_p and every finite-dimensional F_p-algebra, F_p[x]/(f) included, run
  on one F_p reducer (_Echelon), an algebra element standing for its
  multiplication matrix on the standard monomials.  Every F_p vector, for
  every p, is one int with each coordinate in a fixed-width field (_Codec:
  one bit and XOR for p = 2, one byte and a byte-translate reduction up to
  p = 13, wider fields above), so one code path serves every p.  An
  _Echelon keeps one row per pivot, keyed by its highest nonzero field.  A
  matrix's column reduction (_reduce_columns) takes the columns b_a c_j of
  its expansion once, each tagged with its own coordinate in the fields
  below its rows, and makes no F_p rows: the columns it keeps give the
  rank, hence cardinalities and the unit test of a non-local algebra; those
  that reduce to zero give the kernel, the same one for `kernel_basis` and
  a resolution step (_packed_kernel); a right-hand side reduced by the kept
  columns gives a solution (_packed_solve).  The Nakayama rule
  (_nakayama_keep) grows its spans in the same reducer, and so does
  `FpModule`, a finitely presented module as an F_p-space, whose
  `dual_rank` is the rank of Hom(d, N).
- Z/n = Z/(n) runs one Howell row reducer (_howell; Howell 1986,
  Storjohann & Mulders 1998) with the ring's own row kernels
  (`axpy_payloads`, `combine_payloads`), so every entry, transforms
  included, stays reduced; only pivot arithmetic runs in the Euclidean
  lift Z.  It gives howell_form, kernels (from the Howell form of [A^T |
  I]), solutions and span sizes (`span_cardinality`), its input rows
  written from the stored rows of the matrices.  Ext over Z/n reads its
  image sizes of Hom(d, N) as span sizes of one Hom block per
  differential (`duality._hom_block`).  The same reducer, lifted to the
  ambient F_p[x], gives the public `howell_form` over F_p[x]/(f) and,
  over a field, row_echelon, the Hermite form.
- The domains Z, Q and F_p[x] run smith_data with recorded transforms for
  kernels, solutions and subquotients R^c / preimage(V, W), whose Smith
  diagonal also serves Z/n on the lift enlarged by n Z^c.

One Nakayama rule picks minimal generating sets over every local ring:
c_j is kept when it lies outside m M + R c_1 + ... + R c_{j-1}, read as
the pivot columns of [m M | M] in one reduction on each engine: F_p
columns over a ring with an F_p view (`_nakayama_keep`, prime fields
included), one Howell form over Z/p^k and Q (`minimal_generators`).

One resolution loop (`resolution`) serves every ring: packed F_p columns
over a ring with an F_p view, matrices otherwise.  Each step keeps the
kernel generators of that rule.  It checks every product d_i d_{i+1} = 0
itself and, over a finite ring, stops at a differential that repeats one
or two steps back once the cycle is certified exact by image sizes
(`_certify_period`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import prod

from .errors import (
    BudgetExceeded, CapabilityMissing, DimensionMismatch, MixedRings, NotAComplex,
)
from .matrices import Matrix
from .rings import INTEGERS, POLYQUOT, PRIMEFIELD, RATIONALS, ZMOD, ZZ

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


def _is_unit(ed, a):
    # the units are the nonzero elements of least Euclidean size, that of one
    return bool(a) and ed.size_payload(a) == ed.size_payload(ed.one_payload)


def _unit_inv(ed, u):
    return ed.divmod_payload(ed.one_payload, u)[0]


# ---------------------------------------------------------------------------
# ring -> lift context


@dataclass
class _LiftContext:
    ed: object               # the Euclidean domain: Z, Q, F_p or F_p[x] (a Ring)
    modulus: object          # ED payload, or None when the ring is the domain itself
    from_payload: callable   # ED payload -> ring payload, reduced mod the modulus


def _identity(x):
    return x


def lift_context(ring):
    """The Euclidean lift behind a linear_solve ring, or None.

    Z, Q, F_p and F_p[x] are their own lift; Z/n lifts to Z and F_p[x]/(f)
    to its ambient F_p[x], for its Howell form and the chain ring
    isomorphisms of `duality`.  A ring's payloads are payloads of its lift,
    so only results are converted, by reduction modulo the generator.
    """
    if ring.kind == ZMOD:
        n = ring.modulus
        return _LiftContext(ZZ(), n, lambda a: a % n)
    if ring.kind == POLYQUOT:
        if len(ring.variables) != 1 or ring.coeff.kind != PRIMEFIELD:
            return None
        if ring.groebner:
            return _LiftContext(ring.ambient, ring.groebner[0], ring.normal_form_payload)
    return _LiftContext(ring, None, _identity)


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


def _engine(ring, *matrices):
    """(F_p view, None) or (None, lift context): how kernels, solutions and
    cardinalities over `ring` are computed.  Raises MixedRings when one of
    `matrices` is over another ring, CapabilityMissing when no engine takes
    the ring.

    Prime fields and every finite-dimensional F_p-algebra, F_p[x]/(f)
    included, run on the column reduction of their expansion over F_p
    (_reduce_columns); Z/n (a lift with a modulus) runs on _howell, the
    domains Z, Q and F_p[x] on smith_data.
    """
    for A in matrices:
        if A.ring is not ring and A.ring != ring:
            raise MixedRings(f"a matrix over {A.ring} given to linear algebra over {ring}")
    view = _fp_view_of(ring)
    ctx = None if view is not None else lift_context(ring)
    if ctx is None and view is None:
        raise CapabilityMissing(f"{ring} does not support linear solving")
    return view, ctx


# ---------------------------------------------------------------------------
# Smith decomposition over a Euclidean domain, with recorded transforms


@dataclass
class _SmithData:
    ed: object
    m: list    # the diagonalized grid
    S: list    # the left transform and its inverse
    Si: list
    T: list    # the right transform and its inverse
    Ti: list

    def diag(self, i):
        return self.m[i][i] if i < min(len(self.m), len(self.T)) else self.ed.zero_payload


def _identity_grid(ed, n):
    one, zero = ed.one_payload, ed.zero_payload
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smith_data(ed, grid, rows, cols):
    """S * grid * T = D diagonal with divisibility chain; all over `ed`."""
    m = [list(r) for r in grid]
    S, Si = _identity_grid(ed, rows), _identity_grid(ed, rows)
    T, Ti = _identity_grid(ed, cols), _identity_grid(ed, cols)
    add, neg, mul = ed.add_payload, ed.neg_payload, ed.mul_payload
    axpy_, combine_ = ed.axpy_payloads, ed.combine_payloads
    divmod_, gcdex, size = ed.divmod_payload, ed.gcdex_payload, ed.size_payload
    minus_one = neg(ed.one_payload)

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
            mat[i], mat[j] = combine_(a, ri, b, rj), combine_(c, ri, d, rj)
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
        Ti[i], Ti[j] = combine_(d, ri, neg(c), rj), combine_(a, rj, neg(b), ri)

    def row_sub(i, j, q):
        # row j -= q row i; column i of Si += q column j
        nq = neg(q)
        for mat in (m, S):
            mat[j] = axpy_(mat[j], nq, mat[i])
        for r in Si:
            if r[j]:
                r[i] = add(r[i], mul(q, r[j]))

    def col_sub(i, j, q):
        # column j -= q column i; row i of Ti += q row j
        nq = neg(q)
        for mat in (m, T):
            for r in mat:
                if r[i]:
                    r[j] = add(r[j], mul(nq, r[i]))
        Ti[i] = axpy_(Ti[i], q, Ti[j])

    def eliminate(combine, sub, k, i, b):
        # kill the entry b of row or column i against the pivot m[k][k];
        # leave the pivot alone whenever it divides b (no swap oscillation)
        a = m[k][k]
        if a:
            q, r = divmod_(b, a)
            if not r:
                sub(k, i, q)
                return
        g, s, t = gcdex(a, b)
        combine(k, i, s, t, neg(_quo(ed, b, g)), _quo(ed, a, g))

    def clear_at(k):
        while True:
            for i in range(k + 1, rows):
                if m[i][k]:
                    eliminate(row_combine, row_sub, k, i, m[i][k])
            if not any(m[k][j] for j in range(k + 1, cols)):
                return
            for j in range(k + 1, cols):
                if m[k][j]:
                    eliminate(col_combine, col_sub, k, j, m[k][j])
            if not any(m[i][k] for i in range(k + 1, rows)):
                return

    limit = min(rows, cols)
    for sweep in range(_SMITH_SWEEP_CAP):
        for k in range(limit):
            # the first entry of least size, in row-major order
            pivot = min(((size(m[i][j]), i, j) for i in range(k, rows)
                         for j in range(k, cols) if m[i][j]), default=None)
            if pivot is None:
                break
            if pivot[1] != k:
                row_swap(k, pivot[1])
            if pivot[2] != k:
                col_swap(k, pivot[2])
            clear_at(k)
        # enforce the divisibility chain d1 | d2 | ...
        i = next((i for i in range(limit - 1) if m[i + 1][i + 1] and (
            not m[i][i] or divmod_(m[i + 1][i + 1], m[i][i])[1])), None)
        if i is None:
            break
        # fold the next diagonal entry into row i so the gcd step can run
        row_sub(i + 1, i, minus_one)
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

    return _SmithData(ed, m, S, Si, T, Ti)


# ---------------------------------------------------------------------------
# F_p vectors packed into ints


class _Codec:
    """An F_p vector as one int, `width` bits per coordinate: coordinate j
    of v is v >> j * width & mask (bit-packing after Boothby & Bradshaw,
    arXiv:0901.1413).  The width follows from p:

    - p = 2: one bit; addition is XOR and never needs reducing.
    - 3 <= p <= 13: one byte.  x + c y of reduced vectors stays below 256 in
      every byte (12 + 12 * 12 < 256), so it runs on the whole int without
      carries and one translation of its bytes mod p reduces it.
    - p > 13: k bytes, k the least with p (p - 1) < 256^k, reduced by
      unpacking the fields and taking each mod p.

    `axpy(x, c, y)` is x + c y reduced, for 0 < c < p, and `lincomb(v,
    pairs)` is v plus the sum of c y over the pairs (c, y), reduced.  In
    byte fields `room` such products fit on top of a reduced vector, so a
    long sum is reduced once per `room` terms (delayed reduction, Dumas,
    Giorgi & Pernet, ACM TOMS 2008).  `nonzero(v)` lists the pairs
    (j, coordinate j) of v's nonzero coordinates, by increasing j.
    """

    def __init__(self, p):
        self.p = p
        if p == 2:
            self.width, self.nonzero = 1, _set_bits
            self.axpy = lambda x, _, y: x ^ y
            self.lincomb = _xor_sum
        else:
            k = next(k for k in count(1) if p * (p - 1) < 256 ** k)
            self.width, self.room = 8 * k, (256 ** k - p) // (p - 1) ** 2
            reduce = _field_reduce(p, k)
            self.axpy = lambda x, c, y: reduce(x + c * y)
            self.lincomb = _delayed_sum(reduce, self.room)
            self.nonzero = lambda v: _nonzero_fields(v, k)
        self.mask = (1 << self.width) - 1


def _xor_sum(v, pairs):
    for _, y in pairs:
        v ^= y
    return v


def _delayed_sum(reduce, room):
    def lincomb(v, pairs):
        fresh = room
        for c, y in pairs:
            if not fresh:
                v, fresh = reduce(v), room
            v += c * y
            fresh -= 1
        return reduce(v)
    return lincomb


def _set_bits(v):
    digits, out = bin(v)[:1:-1], []
    j = digits.find("1")
    while j >= 0:
        out.append((j, 1))
        j = digits.find("1", j + 1)
    return out


def _fields(v, k):
    """v's little-endian bytes, in whole fields of k bytes."""
    return v.to_bytes(-(-v.bit_length() // (8 * k)) * k, "little")


def _field_reduce(p, k):
    """v -> v with every field of k bytes taken mod p."""
    if k == 1:
        table = bytes(b % p for b in range(256))
        return lambda v: int.from_bytes(_fields(v, 1).translate(table), "little")

    def reduce(v):
        b = _fields(v, k)
        return int.from_bytes(b"".join(
            (int.from_bytes(b[i:i + k], "little") % p).to_bytes(k, "little")
            for i in range(0, len(b), k)), "little")
    return reduce


_NONZERO_BYTES = bytes([0] + [1] * 255)


def _nonzero_fields(v, k):
    b = _fields(v, k)
    flags, out = b.translate(_NONZERO_BYTES), []
    j = flags.find(1)
    while j >= 0:
        i = j // k
        out.append((i, int.from_bytes(b[i * k:i * k + k], "little")))
        j = flags.find(1, i * k + k)
    return out


class _Echelon:
    """An F_p-subspace of packed vectors grown one vector at a time, the one
    F_p reducer of this module.

    `rows` keeps one echelon row per pivot, keyed by its highest nonzero
    field (from v.bit_length()) and scaled to 1 there, so each row is zero
    above its key.  A vector is reduced by the row at its highest nonzero
    field until that field is no key; the rank of the span is len(rows).
    """

    def __init__(self, codec):
        self.codec = codec
        self.rows = {}

    def add(self, v):
        """Add v to the span; True when it was outside."""
        rows, codec = self.rows, self.codec
        p, w = codec.p, codec.width
        while (h := (v.bit_length() - 1) // w) in rows:
            v = codec.axpy(v, p - (v >> h * w), rows[h])
        if not v:
            return False
        x = v >> h * w
        rows[h] = v if x == 1 else codec.axpy(0, pow(x, -1, p), v)
        return True


class _FpView:
    """F_p coordinates for a prime field or a finite-dimensional F_p-algebra.

    An element has `dim` coordinates: its own value over F_p, or its
    coefficients on the standard monomials of an algebra, the payloads of
    `basis`.  A vector of n entries has n * dim coordinates, entry i's from
    i * dim on, packed into one int by the view's codec (_Codec, chosen once
    from p).  A matrix is the list of the vectors of its columns
    (`columns`); its expansion over F_p, in which each entry a stands for
    the dim x dim matrix of multiplication by a, is never written out.
    """

    def __init__(self, ring):
        self.ring = ring
        if ring.kind == PRIMEFIELD:
            self.p, self.std, self.dim = ring.modulus, None, 1
            self.basis = [1]
        else:
            self.p, self.std = ring.coeff.p, ring._std_monomials
            self.index = {m: i for i, m in enumerate(self.std)}
            self.dim = len(self.std)
            self.basis = [((m, 1),) for m in self.std]
        self.codec = _Codec(self.p)
        # the multiplication rows of each standard monomial, made on first
        # use: at most dim entries, and every element's rows are their sum
        self._monomial_rows = {}
        self._moves = {}

    def _monomial(self, m):
        rows = self._monomial_rows.get(m)
        if rows is None:
            index, w = self.index, self.codec.width
            grid = [0] * self.dim
            for j, t in enumerate(self.std):
                for e, c in self.ring.mul_payload(((m, 1),), ((t, 1),)):
                    grid[index[e]] |= c << j * w
            rows = self._monomial_rows[m] = tuple(grid)
        return rows

    def mult_rows(self, payload):
        """The packed rows of the dim x dim matrix of multiplication by
        payload."""
        if self.std is None:
            return (payload,)
        if len(payload) == 1 and payload[0][1] == 1:
            return self._monomial(payload[0][0])
        tables = [(c, self._monomial(m)) for m, c in payload]
        return [self.codec.lincomb(0, [(c, t[i]) for c, t in tables]) for i in range(self.dim)]

    def columns(self, A):
        """The coordinate vectors of A's columns."""
        D, w = self.dim, self.codec.width
        out = []
        for positions, payloads in A.transpose().sparse_rows:
            v = 0
            for i, a in zip(positions, payloads):
                if self.std is None:
                    v |= a << i * w
                else:
                    for e, c in a:
                        v |= c << (i * D + self.index[e]) * w
            out.append(v)
        return out

    def matrix(self, vecs, nrows):
        """The nrows x len(vecs) matrix whose columns have coordinates `vecs`,
        its rows built as the columns are read."""
        D, std = self.dim, self.std
        at, payloads = [[] for _ in range(nrows)], [[] for _ in range(nrows)]
        for j, v in enumerate(vecs):
            entries = {}
            for t, c in self.codec.nonzero(v):
                entries.setdefault(t // D, []).append((t % D, c))
            for i, slots in entries.items():
                at[i].append(j)
                # payload terms run by descending monomial, std is ascending
                payloads[i].append(slots[0][1] if std is None else
                                   tuple((std[a], c) for a, c in reversed(slots)))
        return Matrix(self.ring, nrows, len(vecs),
                      tuple((tuple(a), tuple(x)) for a, x in zip(at, payloads)))

    def action(self, payload, n):
        """v -> payload * v on vectors of n entries, entry by entry.

        Coordinate a of every entry moves to coordinate b at once: mask out
        field a of each entry, shift it by b - a and add it times the
        coefficient.  When every coordinate b receives one coordinate, with
        coefficient 1, the moved fields are disjoint and already reduced.
        """
        codec = self.codec
        w, lincomb = codec.width, codec.lincomb
        disjoint, moves = self._moves.get(payload) or self._make_moves(payload)
        slots = self.spread([0], n)
        moves = [(slots << a * w, s, c) for a, s, c in moves]
        if disjoint:
            return lambda v: sum(t << s if s >= 0 else t >> -s
                                 for m, s, _ in moves if (t := v & m))
        return lambda v: lincomb(0, [(c, t << s if s >= 0 else t >> -s)
                                     for m, s, c in moves if (t := v & m)])

    def _make_moves(self, payload):
        """(disjoint, [(a, (b - a) * width, c)]) for multiplication by payload,
        kept for a standard monomial: at most dim of them."""
        rows = [self.codec.nonzero(row) for row in self.mult_rows(payload)]
        made = (all(len(row) < 2 and (not row or row[0][1] == 1) for row in rows),
                [(a, (b - a) * self.codec.width, c) for b, row in enumerate(rows) for a, c in row])
        if self.std is not None and len(payload) == 1 and payload[0][1] == 1:
            self._moves[payload] = made
        return made

    @cached_property
    def products(self):
        """products[a][s], the coordinates of b_a b_s for the basis b of R
        over F_p, made on first use and kept."""
        w, mask = self.codec.width, self.codec.mask
        return [[sum((row >> s * w & mask) << b * w for b, row in enumerate(self.mult_rows(ba)))
                 for s in range(self.dim)] for ba in self.basis]

    def spread(self, coords, n):
        """The mask of the coordinates `coords` of each of n entries."""
        w, Dw = self.codec.width, self.dim * self.codec.width
        return sum(self.codec.mask << s * w for s in coords) * (
            ((1 << (n * Dw)) - 1) // ((1 << Dw) - 1))

    def coordinates(self, vecs):
        """The coordinates s nonzero in some entry of some vector of `vecs`.

        The union of the vectors is folded onto its first entry, the upper
        half of its entries OR-ed onto the lower half until one is left: OR
        carries nothing between fields, so a field of the result is nonzero
        exactly when that coordinate is nonzero in some entry."""
        union = 0
        for v in vecs:
            union |= v
        Dw = self.dim * self.codec.width
        n = -(-union.bit_length() // Dw)  # the entries the union reaches
        while n > 1:
            half = (n + 1) // 2
            union = union >> half * Dw | union & ((1 << half * Dw) - 1)
            n = half
        return {t for t, _ in self.codec.nonzero(union)}

    def acting(self, vecs):
        """The a for which b_a v can be nonzero for some v in `vecs`: b_a b_s
        != 0 for some coordinate s that `coordinates` finds."""
        present = self.coordinates(vecs)
        return {a for a, row in enumerate(self.products) if any(row[s] for s in present)}


def _nakayama_keep(view, vecs, n, submodule=False):
    """The indices j, in order, of the vectors v_j (of n entries) that a
    generating set of their R-span keeps, R an F_p-algebra.

    - Over a local algebra, v_j is kept when it lies outside m V + F_p v_0
      + ... + F_p v_{j-1}: the pivot columns among v_0 ... v_j of one
      reduction of [m V | v_0 ... v_j], a minimal generating set (Nakayama).
      m V is spanned by the nonconstant standard monomials times V, or by
      the variables among them when V is an R-submodule (`submodule`): every
      standard monomial is a product of those.  A prime field has no
      nonconstant monomial, so it keeps the pivots.
    - Over any other algebra, v_j is kept when it lies outside R times the
      kept vectors before it, each kept vector's products with the
      nonconstant monomials joining the span.
    """
    span = _Echelon(view.codec)
    nonconstant = [(a, sum(e)) for a, e in enumerate(view.std or ()) if any(e)]
    if not view.ring.local:
        acts, keep = [view.action(view.basis[a], n) for a, _ in nonconstant], []
        for j, v in enumerate(vecs):
            if span.add(v):
                keep.append(j)
                for act in acts:
                    span.add(act(v))
        return keep
    present = view.coordinates(vecs)
    for a, degree in nonconstant:
        # b_a V = 0 when b_a b_s = 0 at every coordinate s present
        if (degree == 1 or not submodule) and any(view.products[a][s] for s in present):
            act = view.action(view.basis[a], n)
            for v in vecs:
                span.add(act(v))
    return [j for j, v in enumerate(vecs) if span.add(v)]


def _reduce_columns(view, cols, nrows):
    """(span, kernel) of the expansion over F_p of the matrix with nrows
    rows and columns of coordinates `cols`, by one column reduction.

    Column t = j D + a of the expansion is b_a c_j (`action`; c_j for the
    unit b_0, 0 for an a outside `acting`), taken in order of t.  Its row
    fields are shifted up to start at field len(cols) D, above its tag, a 1
    in field t, so each axpy reduces the column and its combination
    together.  A column is reduced at its highest field by the kept column
    there until it is kept, scaled to 1 there, or its row fields vanish and
    its tag fields are a kernel vector.  The kept columns are the rows of
    the _Echelon `span`: the first independent columns, as many as the
    rank.  Each kernel vector is e_t plus the one combination of earlier
    kept columns that A maps to minus column t, the vector the reduced row
    echelon form of the expanded rows gives for that free column.
    """
    codec, top = view.codec, len(cols) * view.dim  # top: the first row field
    p, w, axpy, shift = codec.p, codec.width, codec.axpy, top * codec.width
    live = view.acting(cols) if view.dim > 1 else ()
    acts = [view.action(b, nrows) if a in live else None for a, b in enumerate(view.basis) if a]
    span, kernel, tag = _Echelon(codec), [], 1
    pivots = span.rows
    for c in cols:
        for v in (c, *[act(c) if act else 0 for act in acts]):
            v, tag = v << shift | tag, tag << w
            while (h := (v.bit_length() - 1) // w) in pivots:
                v = axpy(v, p - (v >> h * w), pivots[h])
            if h < top:
                kernel.append(v)
            else:
                x = v >> h * w
                pivots[h] = v if x == 1 else axpy(0, pow(x, -1, p), v)
    return span, kernel


def _packed_kernel(view, cols, nrows):
    """Generators of the kernel of the matrix with nrows rows and columns of
    coordinates `cols`: the kernel vectors of its column reduction, over an
    F_p-algebra those that `_nakayama_keep` keeps of them (a minimal
    generating set over a local algebra).  `kernel_basis` and every
    resolution step take this kernel."""
    vecs = _reduce_columns(view, cols, nrows)[1]
    if len(vecs) > 1 and view.std is not None:
        vecs = [vecs[j] for j in _nakayama_keep(view, vecs, len(cols), submodule=True)]
    return vecs


def _packed_solve(view, cols, nrows, rhs):
    """One solution x of A x = b for every packed vector b of `rhs`, or None
    when some b lies outside the column span of A, the matrix with nrows
    rows and columns of coordinates `cols`.

    b, its fields shifted up to A's row fields, is reduced by the kept
    columns of A's column reduction.  Each one holds A y in its row fields
    and y in its tag fields, so when b's row fields vanish its tag fields
    hold -x for x with A x = b, where the tag of column t = j dim + a is
    coordinate t of x.  As x lives on the kept columns only, it is the
    solution of the reduced row echelon form.
    """
    codec, top = view.codec, len(cols) * view.dim
    p, w, axpy = codec.p, codec.width, codec.axpy
    pivots = _reduce_columns(view, cols, nrows)[0].rows
    sols = []
    for b in rhs:
        v = b << top * w
        while (h := (v.bit_length() - 1) // w) in pivots:
            v = axpy(v, p - (v >> h * w), pivots[h])
        if h >= top:  # a row field no kept column reaches
            return None
        sols.append(axpy(0, p - 1, v))
    return sols


# ---------------------------------------------------------------------------
# Howell row reduction over ED/(f)


def _howell(ring, ctx, W, ncols, reduce_from=None, transforms=False):
    """Row-reduce W in place to Howell form in its first `ncols` columns.

    W holds dense rows of payloads of `ring` = ED/(f), ctx being the lift:
    Z/n over Z and F_p[x]/(f) over the ambient F_p[x], or f = 0 for a
    domain, whose Howell form is its Hermite form.  Entries past `ncols`
    ride along.  Row operations are the ring's own, which reduce mod f, so
    no entry, transforms included, leaves the ring; only pivot arithmetic
    (gcdex, exact division) runs in ED.  Returns the pivots as (column,
    row) pairs, and with `transforms` also U and U^-1 transposed (so its
    column operations are row operations too), where U * W_in = W_out.  It
    serves kernels, solutions and span sizes over Z/n, `howell_form` over
    Z/n and F_p[x]/(f) and `row_echelon` over a field.  Column by column:

    - gather: the entry of least size at or below the pivot row moves up;
      an entry the pivot divides is cleared by a subtraction, any other by
      a gcd combination of determinant 1;
    - normalize and complete: let (g, s, t) = gcdex(a, f) for the pivot a,
      u = a/g and v = f/g.  When v = 0 in the ring, s is a unit with
      inverse u, and scaling the pivot row R by it makes the pivot g.
      Otherwise the combination [[s, -t], [v, u]] (determinant su + tv = 1)
      of R and a zero row gives s R, with pivot g, and v R, which vanishes
      in this column and stays below.  As v (s R) = s (v R), the rows below
      then span every multiple of the pivot row that vanishes there: the
      Howell property.  Without transforms v R is appended instead;
    - reduce: from column `reduce_from` on (never by default), the entries
      above the pivot are reduced modulo g.

    With transforms, W padded with `ncols` zero rows has the zero rows
    needed: each pivot fills at most one.
    """
    neg, axpy_, combine_ = ring.neg_payload, ring.axpy_payloads, ring.combine_payloads
    zero, one = ring.zero_payload, ring.one_payload
    ed, reduce_ = ctx.ed, ctx.from_payload
    f = ed.zero_payload if ctx.modulus is None else ctx.modulus
    divmod_, gcdex, size = ed.divmod_payload, ed.gcdex_payload, ed.size_payload
    if transforms:
        U, UiT = _identity_grid(ring, len(W)), _identity_grid(ring, len(W))

    def swap(i, k):
        for mat in (W, U, UiT) if transforms else (W,):
            mat[i], mat[k] = mat[k], mat[i]

    def scale(r, c, c_inv, j):
        # each entry x becomes c x + 0 x
        xs = W[r][j:]
        W[r][j:] = combine_(c, xs, zero, xs)
        if transforms:
            U[r] = combine_(c, U[r], zero, U[r])
            UiT[r] = combine_(c_inv, UiT[r], zero, UiT[r])

    def axpy(i, c, r, j):
        # row i += c * row r, where row r vanishes left of column j
        W[i][j:] = axpy_(W[i][j:], c, W[r][j:])
        if transforms:
            U[i] = axpy_(U[i], c, U[r])
            UiT[r] = axpy_(UiT[r], neg(c), UiT[i])  # column r of U^-1 -= c * column i

    def combine(i, k, a, b, c, d, j):
        # rows (i, k) <- (a ri + b rk, c ri + d rk), both vanishing left of j
        for mat, start in ((W, j), (U, 0)) if transforms else ((W, j),):
            ri, rk = mat[i][start:], mat[k][start:]
            mat[i][start:] = combine_(a, ri, b, rk)
            mat[k][start:] = combine_(c, ri, d, rk)
        if transforms:  # columns i, k of U^-1 times the inverse [[d, -b], [-c, a]]
            ti, tk = UiT[i], UiT[k]
            UiT[i] = combine_(d, ti, neg(c), tk)
            UiT[k] = combine_(a, tk, neg(b), ti)

    pivots = []
    r = 0
    for j in range(ncols):
        least = min(((size(W[i][j]), i) for i in range(r, len(W)) if W[i][j]), default=None)
        if least is None:
            continue
        if least[1] != r:
            swap(r, least[1])
        for i in range(r + 1, len(W)):
            b = W[i][j]
            if b:
                a = W[r][j]
                q, rem = divmod_(b, a)
                if not rem:
                    axpy(i, neg(q), r, j)
                else:
                    g, s, t = gcdex(a, b)
                    combine(r, i, reduce_(s), reduce_(t),
                            neg(_quo(ed, b, g)), _quo(ed, a, g), j)
        a = W[r][j]
        g, s, t = gcdex(a, f)
        s, u, v = reduce_(s), _quo(ed, a, g), reduce_(_quo(ed, f, g))
        if not v:
            if s != one:
                scale(r, s, u, j)
        elif transforms:
            z = next(k for k in range(len(W) - 1, r, -1) if not any(W[k]))
            combine(r, z, s, neg(reduce_(t)), v, u, j)
        else:
            xs = W[r][j + 1:]
            tail = combine_(v, xs, zero, xs)
            if any(tail):
                W.append([zero] * (j + 1) + tail)
            scale(r, s, None, j)
        if reduce_from is not None and j >= reduce_from:
            for i in range(r):
                q = divmod_(W[i][j], g)[0]
                if q:
                    axpy(i, neg(q), r, j)
        pivots.append((j, r))
        r += 1
    return (pivots, U, UiT) if transforms else pivots


def _transpose(grid):
    return [list(col) for col in zip(*grid)]


def _column_grid(A, pad=0):
    """The dense payload rows of A^T, each followed by `pad` zeros, filled
    from A's stored rows in one pass."""
    zero = A.ring.zero_payload
    W = [[zero] * (A.rows + pad) for _ in range(A.cols)]
    for i, (cols, vals) in enumerate(A.sparse_rows):
        for j, v in zip(cols, vals):
            W[j][i] = v
    return W


def _augmented_transpose(A):
    """The dense payload rows of [A^T | I]: row j pairs column j of A with e_j."""
    W, one = _column_grid(A, A.cols), A.ring.one_payload
    for j, row in enumerate(W, start=A.rows):
        row[j] = one
    return W


def _howell_span_size(ring, ctx, W, ncols):
    """|span of the dense rows W| (ncols wide) over Z/n: the product of the
    sizes n/d of the ideals (d), d a pivot of their Howell form.  W is
    reduced in place."""
    n = ctx.modulus
    return prod(n // W[i][j] for j, i in _howell(ring, ctx, W, ncols))


def _howell_solve(ring, ctx, A, B):
    """X with A X = B over Z/n, or None.  The rows of [A^T | I] pair A x
    with x; each column b of B, as the row (b^T | 0), is reduced against the
    left pivots of their Howell form, which decide membership, to (0 | -x^T).
    """
    W = _augmented_transpose(A)
    left = A.rows
    pivot_row = dict(_howell(ring, ctx, W, left))
    axpy, neg, divmod_ = ring.axpy_payloads, ring.neg_payload, ctx.ed.divmod_payload
    out = []
    for y in _column_grid(B, A.cols):
        for j in range(left):
            if not y[j]:
                continue
            if j not in pivot_row:
                return None
            row = W[pivot_row[j]]
            q, rem = divmod_(y[j], row[j])
            if rem:
                return None
            y[j:] = axpy(y[j:], neg(q), row[j:])
        out.append([neg(x) for x in y[left:]])
    return Matrix.from_columns(ring, A.cols, out)


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
    """Columns generating ker(A) as a module (a basis over fields, Z, F_p[x]).

    Over a ring with an F_p view they are the kernel generators of a
    resolution step (_packed_kernel): a basis over a prime field, a minimal
    generating set over a local algebra.  Over Z/n they are the rows of the
    Howell form of [A^T | I] whose left part is zero, read from their right
    part straight into the stored rows of the kernel matrix.
    """
    view, ctx = _engine(ring, A)
    if view is not None:
        return view.matrix(_packed_kernel(view, view.columns(A), A.rows), A.cols)
    if ctx.modulus is not None:
        W, left = _augmented_transpose(A), A.rows
        kernel = [W[i] for j, i in _howell(ring, ctx, W, left + A.cols, reduce_from=left)
                  if j >= left]
        at, vals = [[] for _ in range(A.cols)], [[] for _ in range(A.cols)]
        for c, row in enumerate(kernel):
            for r, v in enumerate(row[left:]):
                if v:
                    at[r].append(c)
                    vals[r].append(v)
        return Matrix(ring, A.cols, len(kernel), tuple(zip(map(tuple, at), map(tuple, vals))))
    sd = smith_data(ctx.ed, _payload_grid(A), A.rows, A.cols)
    return Matrix.from_columns(ring, A.cols, [[row[j] for row in sd.T]
                                              for j in range(A.cols) if not sd.diag(j)])


def solve(ring, A, B):
    """Some X with A X = B, or None; B may have several columns."""
    view, ctx = _engine(ring, A, B)
    if A.rows != B.rows:
        raise DimensionMismatch(f"A is {A.rows}x{A.cols}, rhs has {B.rows} rows")
    if view is not None:
        sols = _packed_solve(view, view.columns(A), A.rows, view.columns(B))
        return None if sols is None else view.matrix(sols, A.cols)
    if ctx.modulus is not None:
        return _howell_solve(ring, ctx, A, B)
    # S A T = D: solve D y = S b entry by entry, then x = T y
    ed, zero = ctx.ed, ctx.ed.zero_payload
    sd = smith_data(ed, _payload_grid(A), A.rows, A.cols)
    Y = []
    for c in _payload_grid((Matrix.from_payload_rows(ring, A.rows, A.rows, sd.S) * B).transpose()):
        y = [zero] * A.cols
        for i, ci in enumerate(c):
            d = sd.diag(i)
            q, r = ed.divmod_payload(ci, d) if d else (zero, ci)
            if r:
                return None
            if i < A.cols:
                y[i] = q
        Y.append(y)
    return Matrix.from_payload_rows(ring, A.cols, A.cols, sd.T) * \
        Matrix.from_columns(ring, A.cols, Y)


def kernel_cardinality(ring, A):
    """|ker A| over a finite ring: |R|^cols / |column span of A|."""
    size = ring.cardinality()
    if size is None:
        raise CapabilityMissing(f"{ring} is not finite")
    return size ** A.cols // span_cardinality(ring, A)


def span_cardinality(ring, A):
    """|column span of A| as a submodule of ring^rows (finite rings): p^rank
    of its column reduction over a ring with an F_p view, a Howell span size
    over Z/n."""
    view, ctx = _engine(ring, A)
    if A.cols == 0:
        return 1
    if view is not None:
        return view.p ** len(_reduce_columns(view, view.columns(A), A.rows)[0].rows)
    if ctx.modulus is None:
        raise CapabilityMissing(f"{ring} is not finite")
    return _howell_span_size(ring, ctx, _column_grid(A), A.rows)


# ---------------------------------------------------------------------------
# finitely presented modules in F_p coordinates


class FpModule:
    """N = coker(relations : R^gens <- R^c) as an F_p-space, R a ring with an
    F_p view.

    The relation span is the F_p-span of the relation columns times a basis
    of R over F_p, grown in an _Echelon over the gens * dim coordinates of
    R^gens.  The coordinates that are not its keys span a complement, and
    `project` is the projection onto it along the span; `dim` is dim_{F_p}
    N.  Vectors of R^gens and of N are packed by the view's codec.  The
    action on N of each basis element of R over F_p, the columns
    `dual_rank` reads, is made on first use and kept, at most view.dim of
    them.
    """

    def __init__(self, view, gens, relations):
        self.view, self.codec, self.p, self.gens = view, view.codec, view.p, gens
        cols, span = view.columns(relations), _Echelon(self.codec)
        for b in view.basis:
            act = view.action(b, gens)
            for c in cols:
                span.add(act(c))
        self._rows = sorted(span.rows.items(), reverse=True)
        self._free = [t for t in range(gens * view.dim) if t not in span.rows]
        self.dim = len(self._free)
        self._monomial_action = {}

    def project(self, v):
        """N's coordinates of the class of v, a vector of R^gens."""
        codec = self.codec
        p, w, mask = codec.p, codec.width, codec.mask
        # each row is zero above its key, so clearing the keys from the
        # highest down leaves every cleared key zero
        for h, row in self._rows:
            if x := v >> h * w & mask:
                v = codec.axpy(v, p - x, row)
        return sum((v >> t * w & mask) << i * w for i, t in enumerate(self._free))

    def _monomial(self, b):
        cols = self._monomial_action.get(b)
        if cols is None:
            act, w = self.view.action(b, self.gens), self.codec.width
            cols = self._monomial_action[b] = tuple(
                self.project(act(1 << t * w)) for t in self._free)
        return cols

    def dual_rank(self, cols):
        """The F_p rank of Hom(d, N) : N^{d.rows} -> N^{d.cols}, phi -> phi d,
        for d given by the packed coordinates of its columns.  Its (l, k)
        block is the action of d[k][l], the sum of c times the action of b_s
        over the coordinates (k dim R + s, c) of column l.  Its transpose, of
        the same rank, is built here, n rows for each row k of d, and the
        rank is the count of rows an _Echelon keeps."""
        n, codec, view = self.dim, self.codec, self.view
        D, basis, shift = view.dim, view.basis, n * codec.width
        # Hom(d, N) = 0 when no entry of d has a coordinate whose basis
        # element acts on N as nonzero
        if not (n and any(any(self._monomial(basis[s])) for s in view.coordinates(cols))):
            return 0
        terms = {}  # row k of d -> the (c, shifted column) pairs of each of its n rows
        for l, v in enumerate(cols):
            for t, c in codec.nonzero(v):
                k, s = divmod(t, D)
                block = terms.get(k) or terms.setdefault(k, [[] for _ in range(n)])
                for r, col in enumerate(self._monomial(basis[s])):
                    if col:
                        block[r].append((c, col << l * shift))
        span = _Echelon(codec)
        return sum(span.add(codec.lincomb(0, pairs))
                   for block in terms.values() for pairs in block if pairs)


def fp_module(ring, gens, relations):
    """coker(relations) as an FpModule, or None over a ring with no F_p view."""
    view = _fp_view_of(ring)
    return None if view is None else FpModule(view, gens, relations)


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


def row_echelon(ring, A):
    """Reduced row echelon over a field, with recorded row transform."""
    if ring.kind not in (RATIONALS, PRIMEFIELD):
        raise CapabilityMissing(f"row echelon requires a field, got {ring}")
    W = _payload_grid(A)
    _, L, LiT = _howell(ring, lift_context(ring), W, A.cols, reduce_from=0, transforms=True)
    return NormalFormResult(
        "echelon", ring, Matrix.from_payload_rows(ring, A.rows, A.cols, W),
        Matrix.from_payload_rows(ring, A.rows, A.rows, L),
        Matrix.from_payload_rows(ring, A.rows, A.rows, _transpose(LiT)),
        Matrix.identity(ring, A.cols), Matrix.identity(ring, A.cols), A)


def howell_form(ring, A):
    """Howell form over Z/n or F_p[x]/(f), canonical for the row span.

    Row j is the row whose pivot, a divisor of n (or f), sits in column j,
    with the entries above each pivot reduced modulo it, or zero when no
    row has that pivot; the rows past A.cols are zero.  The recorded
    transforms act on the padded matrix (the `original` field), which is A
    with `cols` extra zero rows appended.
    """
    ctx = lift_context(ring)
    if ring.kind != PRIMEFIELD and (ctx is None or ctx.modulus is None):
        raise CapabilityMissing(f"howell form is for Z/n and F_p[x]/(f), got {ring}")
    cols = A.cols
    padded = A.vstack(Matrix.zeros(ring, cols, cols))
    W = _payload_grid(padded)
    pivots, U, UiT = _howell(ring, ctx, W, cols, reduce_from=0, transforms=True)
    # the pivot rows come first, in column order, and the others are zero:
    # the pivot row of column j moves to row j
    n, at = len(W), dict(pivots)
    zero_rows = iter(range(len(pivots), n))
    order = [at[j] if j in at else next(zero_rows) for j in range(n)]
    return NormalFormResult(
        "howell", ring, Matrix.from_payload_rows(ring, n, cols, [W[i] for i in order]),
        Matrix.from_payload_rows(ring, n, n, [U[i] for i in order]),
        Matrix.from_payload_rows(ring, n, n, _transpose([UiT[i] for i in order])),
        Matrix.identity(ring, cols), Matrix.identity(ring, cols), padded)


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


def preimage(ring, A, B):
    """Generators of {y : A y in span B}: the first A.cols coordinates of the
    kernel generators of [A | B]."""
    K = kernel_basis(ring, A.hstack(B))
    return K.submatrix(range(A.cols), range(K.cols))


def _finite_summary(ring, num, den):
    """A module of num / den elements, with its dimension over a prime field."""
    card, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("image span does not divide kernel span")
    dim = next(k for k in count() if ring.p ** k >= card) if ring.kind == PRIMEFIELD else None
    return HomologySummary(ring, card == 1, cardinality=card, dimension=dim)


def subquotient(ring, V, W):
    """(span V + span W) / span W, the image of span V in R^u / span W: span
    V / span W whenever W lies in span V.

    Over a finite ring other than Z/n it has |span [V | W]| / |span W|
    elements.  Elsewhere it is R^c / span Y for Y = preimage(V, W), c =
    V.cols, and one Smith diagonal of Y (over Z/n of its lift to Z next to
    n I_c) gives c minus its nonzero entries as the free rank and its
    non-units as the invariant factors.
    """
    _, ctx = _engine(ring, V, W)
    if V.rows != W.rows:
        raise DimensionMismatch("ambient ranks differ")
    if ring.is_finite() and ring.kind != ZMOD:
        return _finite_summary(ring, span_cardinality(ring, V.hstack(W)), span_cardinality(ring, W))
    c, grid = V.cols, _payload_grid(preimage(ring, V, W))
    if ring.kind == ZMOD:
        grid = [row + [ring.modulus if j == i else 0 for j in range(c)]
                for i, row in enumerate(grid)]
    sd = smith_data(ctx.ed, grid, c, len(grid[0]) if grid else 0)
    ds = [d for d in map(sd.diag, range(c)) if d]
    factors = tuple(d for d in ds if not _is_unit(ctx.ed, d))
    free_rank = c - len(ds)
    if ring.kind == ZMOD:  # the invariants of an abelian group
        return HomologySummary(ring, not factors, cardinality=prod(factors),
                               invariant_factors=factors, free_rank=0)
    if ring.kind == RATIONALS:
        return HomologySummary(ring, free_rank == 0, dimension=free_rank)
    return HomologySummary(ring, free_rank == 0 and not factors, free_rank=free_rank,
                           invariant_factors=tuple(map(ring.box, factors)))


def homology_module(ring, d_in, d_out):
    """ker(d_out)/im(d_in) for consecutive differentials d_out . d_in = 0:
    over a finite ring other than Z/n, |ker d_out| / |im d_in| elements,
    with no kernel built; elsewhere the subquotient of a kernel basis."""
    _engine(ring, d_in, d_out)  # CapabilityMissing without a solver
    if d_out.cols != d_in.rows:
        raise DimensionMismatch(
            f"d_out takes {d_out.cols} columns but d_in lands in {d_in.rows}")
    if not (d_out * d_in).is_zero():
        raise NotAComplex(0, "d_out . d_in != 0")
    if ring.is_finite() and ring.kind != ZMOD:
        return _finite_summary(ring, kernel_cardinality(ring, d_out), span_cardinality(ring, d_in))
    return subquotient(ring, kernel_basis(ring, d_out), d_in)


def image_membership(ring, V, W):
    """True when every column of V lies in the column span of W."""
    return V.cols == 0 or solve(ring, W, V) is not None


# ---------------------------------------------------------------------------
# minimal generating sets (the Nakayama rule over local rings)


def _maximal_ideal_elements(ring):
    return [ring.from_int(g) if isinstance(g, int) else ring.variable(g)
            for g in ring.maximal_ideal]


def minimal_generators(ring, M):
    """Reduce the columns of M to a minimal generating set of their span.

    Over a local ring c_j is kept exactly when it lies outside m M + R c_1 +
    ... + R c_{j-1} (Nakayama): when its column of [m M | M] carries a pivot
    of one reduction, in F_p columns over a ring with an F_p view
    (`_nakayama_keep`), of its rows in Howell form over Z/p^k and Q.  These
    rings are quasi-Frobenius, so c_j is outside the span of the columns
    before it exactly when some y^T [m M | M] vanishes before c_j and not at
    it, and the Howell rows pivoting at or after c_j span every such vector.
    A non-local F_p-algebra keeps c_j outside R times the kept c_i, i < j.
    Elsewhere (Z, F_p[x], composite Z/n) only zero columns are dropped: over
    Z/6 the read with the radical keeps both of [2, 3], which 2 + 3 alone spans.
    """
    # the zero columns are those no stored row reaches
    used = sorted({j for cols, _ in M.sparse_rows for j in cols})
    if len(used) != M.cols:
        M = M.submatrix(range(M.rows), used)
    view = _fp_view_of(ring)
    if M.cols <= 1 or not (view or ring.local):
        return M
    if view is not None:
        keep = _nakayama_keep(view, view.columns(M), M.rows)
    else:
        # column (j, t) of m M is g_t c_j
        mM = M.kron(Matrix.from_rows(ring, [_maximal_ideal_elements(ring)]))
        pivots = _howell(ring, lift_context(ring), _payload_grid(mM.hstack(M)), mM.cols + M.cols)
        keep = [j - mM.cols for j, _ in pivots if j >= mM.cols]
    return M if len(keep) == M.cols else M.submatrix(range(M.rows), keep)


def _products_vanish(view, cols, nrows, kernel):
    """True when d K = 0 for the matrices d, of nrows rows, and K whose
    columns have coordinates `cols` and `kernel`.

    Column k of d K combines the columns of d's expansion with the
    coordinates of column k of K as coefficients, and the expansion's
    column (j, a) is b_a times column j of d, b_a the F_p basis of R; by
    R-linearity that is the product.  Each column k is summed at once from
    the products b_a b_s (`products`) of the basis, apart from any
    elimination, over the terms that can be nonzero.
    """
    codec, D, p, products = view.codec, view.dim, view.p, view.products
    Dw = D * codec.width
    # b_a d = 0 for every a outside `acting`, and K's coordinates there add nothing
    live = view.spread(view.acting(cols), len(cols))
    entries = {}  # column j of d -> (shift of the entry, s, x) for its coordinates
    for v in kernel:
        v &= live
        if not v:
            continue
        terms = []
        for t, c in codec.nonzero(v):
            j, a = divmod(t, D)
            if j not in entries:
                entries[j] = [(u // D * Dw, u % D, x) for u, x in codec.nonzero(cols[j])]
            row = products[a]
            terms += [(c * x % p, row[s] << shift) for shift, s, x in entries[j] if row[s]]
        if codec.lincomb(0, terms):
            return False
    return True


class _PackedSteps:
    """Resolution steps over a ring with an F_p view.  A differential is the
    list of packed coordinate vectors of its columns, its row count kept
    alongside.  A step takes the kernel generators of `_packed_kernel`, the
    ones `kernel_basis` gives: one column reduction of the expansion over
    F_p, of whose kernel vectors an F_p-algebra keeps those of
    `_nakayama_keep`, a minimal generating set over a local algebra.
    Products are checked by `_products_vanish`, and an image has p^rank
    elements, the rank of the same reduction.
    """

    def __init__(self, ring, view):
        self.ring, self.view = ring, view

    def start(self, d):
        return self.view.columns(d)

    width = staticmethod(len)

    def kernel(self, cols, nrows):
        return _packed_kernel(self.view, cols, nrows)

    def vanishes(self, cols, nrows, kernel):
        return _products_vanish(self.view, cols, nrows, kernel)

    def image_size(self, cols, nrows):
        return self.view.p ** len(_reduce_columns(self.view, cols, nrows)[0].rows)

    def matrix(self, cols, nrows):
        return self.view.matrix(cols, nrows)


class _MatrixSteps:
    """Resolution steps on matrices, over a ring with no F_p view: Z/n, Z, Q
    and F_p[x].  A step is minimal_generators(kernel_basis), a Howell kernel
    over Z/n and a Smith kernel over the domains, of which it keeps the
    Howell pivot columns of the Nakayama rule over Z/p^k and Q and drops
    only zero columns elsewhere.  Products are matrix products; image
    sizes, read only over the finite Z/n, are Howell span sizes
    (`span_cardinality`)."""

    def __init__(self, ring):
        self.ring = ring

    @staticmethod
    def start(d):
        return d

    @staticmethod
    def width(d):
        return d.cols

    def kernel(self, d, nrows):
        return minimal_generators(self.ring, kernel_basis(self.ring, d))

    @staticmethod
    def vanishes(d, nrows, kernel):
        return (d * kernel).is_zero()

    def image_size(self, d, nrows):
        return span_cardinality(self.ring, d)

    @staticmethod
    def matrix(d, nrows):
        return d


def periodic(prefix, period, length):
    """The first `length` entries of `prefix`, continued when a period
    (i, q) is given by repeating its last q entries in turn."""
    need = length - len(prefix)
    if period is None or need <= 0:
        return prefix[:length]
    q = period[1]
    return prefix + (prefix[-q:] * (need // q + 1))[:need]


@dataclass
class Resolution:
    """A free resolution F_0 <- F_1 <- ... as `resolution` leaves it.

    `diffs` holds d_1 ... d_n in the loop's form (packed columns over a
    ring with an F_p view, matrices otherwise) and `ranks` the ranks of
    F_0 ... F_n.  With a certified `period` (i, q), n = i + q - 1 and
    d_{m+q} = d_m for every m >= i, so the resolution never ends.  Without
    one it ends at d_n when F_n = 0 and is cut at the step count otherwise.
    """

    ops: object     # _PackedSteps or _MatrixSteps
    ranks: list
    diffs: list
    period: tuple | None = None

    def matrices(self, count):
        """[d_1, ..., d_count] as matrices, fewer where the resolution ends."""
        return periodic([self.ops.matrix(d, rows) for d, rows in
                         zip(self.diffs[:count], self.ranks)], self.period, count)


def _certify_period(ops, diffs, ranks, i, q):
    """Check that d_i, ..., d_{i+q-1}, continued by d_{m+q} = d_m, is exact
    at every F_m with m >= i (the argument is in `resolution`): a product
    around the cycle that does not vanish raises NotAComplex, a spot whose
    image sizes do not multiply to |R|^{rank F_j} raises ArithmeticError."""
    loop = range(i, i + q)
    images = {j: ops.image_size(diffs[j - 1], ranks[j - 1]) for j in loop}
    size = ops.ring.cardinality()
    for j in loop:
        after = j + 1 if j + 1 < i + q else i
        if ranks[after - 1] != ranks[j] or \
                not ops.vanishes(diffs[j - 1], ranks[j - 1], diffs[after - 1]):
            raise NotAComplex(j)
        if size ** ranks[j] != images[j] * images[after]:
            raise ArithmeticError(f"the repeat from d_{i} is not exact at F_{j}")


def resolution(ring, d, steps):
    """The free resolution below d = d_1, with up to `steps` kernels, as a
    Resolution; it stops at the first kernel that vanishes or at a certified
    period.

    Each step takes a generating set of the kernel of the last differential,
    minimal over a local ring by the one Nakayama rule of
    `minimal_generators`: pivot columns of one F_p column reduction by
    _PackedSteps, of one Howell form by _MatrixSteps.  It checks d_n d_{n+1}
    = 0 apart from the kernel, raising NotAComplex when it fails.  Over a
    finite ring the new d_{n+1} is then compared with d_{n+1-q} for q = 1
    and 2: the same rows and the same stored entries (columns).  A step is a
    function of the last differential alone, so on a repeat every later step
    would repeat too: d_{m+q} = d_m for m >= i = n + 1 - q, and cycling d_i
    ... d_n gives exactly what the loop would compute by running on.

    The period (i, q) is kept only once `_certify_period` has checked the
    cycle apart from the kernel steps.  Every product d_j d_{j+1} around it
    vanishes, d_{i+q} = d_i included, so im d_{j+1} lies in ker d_j; over a
    finite ring |ker d_j| = |R|^{rank F_j} / |im d_j|, so F_j is exact when
    |R|^{rank F_j} = |im d_j| |im d_{j+1}|, the image sizes being Howell
    span sizes or F_p ranks.  The q spots j = i .. i+q-1 cover every m >= i,
    so the cycled differentials are a free resolution and Ext^{m+q}(M, N) =
    Ext^m(M, N) for m >= i and every N.  A repeat that fails raises.
    """
    view = _fp_view_of(ring)
    ops = _MatrixSteps(ring) if view is None else _PackedSteps(ring, view)
    diffs = [ops.start(d)]
    ranks = [d.rows, ops.width(diffs[0])]
    finite = ring.is_finite()
    for _ in range(steps):
        n = len(diffs)
        if not ranks[n]:
            break
        new = ops.kernel(diffs[-1], ranks[n - 1])
        if not ops.vanishes(diffs[-1], ranks[n - 1], new):
            raise NotAComplex(n)
        for q in (1, 2) if finite else ():
            if q <= n and ranks[n] == ranks[n - q] and new == diffs[n - q]:
                _certify_period(ops, diffs, ranks, n + 1 - q, q)
                return Resolution(ops, ranks, diffs, (n + 1 - q, q))
        diffs.append(new)
        ranks.append(ops.width(new))
    return Resolution(ops, ranks, diffs)


def kernel_resolution(ring, d, steps):
    """Up to `steps` further resolution differentials below d, as matrices:
    each one generates the kernel of the one before, minimally over a local
    ring, where its columns are those the Nakayama rule of
    `minimal_generators` keeps (`resolution`, continued by its certified
    period).  The list stops with the first kernel that vanishes, a matrix
    with no columns.
    """
    return resolution(ring, d, steps).matrices(1 + max(steps, 0))[1:]
