"""Bounded complexes of finite-rank free modules.

Homological grading: the differential in degree n maps degree n to degree
n-1.  Construction always validates d.d = 0; a non-complex is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CapabilityMissing, DimensionMismatch, MixedRings, NotAComplex, NotLocal,
)
from .linalg import homology_module, kernel_resolution
from .matrices import Matrix, vanishes


class ChainComplex:
    __slots__ = ("ring", "_ranks", "_diffs")

    def __init__(self, ring, ranks, diffs, _validated=False):
        self.ring = ring
        self._ranks = {n: r for n, r in ranks.items() if r > 0}
        self._diffs = {}
        for n, d in diffs.items():
            if d.rows == self.rank(n - 1) and d.cols == self.rank(n):
                if d.rows and d.cols:
                    self._diffs[n] = d
            else:
                raise DimensionMismatch(
                    f"diff({n}) is {d.rows}x{d.cols}, expected "
                    f"{self.rank(n - 1)}x{self.rank(n)}")
        if not _validated:
            self._validate()

    def _validate(self):
        for n in sorted(self._diffs):
            if n + 1 in self._diffs:
                d, d_next = self._diffs[n], self._diffs[n + 1]
                if not vanishes(d.ring, d.rows, d_next.cols,
                                [(d.ring.one_payload, d, d_next)]):
                    raise NotAComplex(n)

    # -- shape ------------------------------------------------------------------

    def rank(self, n):
        return self._ranks.get(n, 0)

    @property
    def support(self):
        return tuple(sorted(self._ranks))

    def is_zero_complex(self):
        return not self._ranks

    def degrees(self):
        """All degrees from min to max support, inclusive; empty when zero."""
        if not self._ranks:
            return range(0)
        lo, hi = min(self._ranks), max(self._ranks)
        return range(lo, hi + 1)

    def diff(self, n):
        d = self._diffs.get(n)
        if d is None:
            return Matrix.zeros(self.ring, self.rank(n - 1), self.rank(n))
        return d

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (self.ring == other.ring and self._ranks == other._ranks
                and self._diffs == other._diffs)

    def __repr__(self):
        if not self._ranks:
            return "ChainComplex(0)"
        parts = [f"{n}:{self.rank(n)}" for n in self.degrees()]
        return f"ChainComplex({', '.join(parts)})"


def make_complex(ring, ranks, diffs):
    """Validated complex from rank and differential data.

    `ranks` maps degree to rank; `diffs` maps degree n to the matrix of the
    map from degree n to degree n-1.  Fails loudly on shape errors or
    d.d != 0 (reporting the first offending degree).
    """
    return ChainComplex(ring, dict(ranks), dict(diffs))


def zero_complex(ring):
    return ChainComplex(ring, {}, {}, _validated=True)


def free_module_complex(ring, rank, degree=0):
    """A free module viewed as a complex concentrated in one degree."""
    return ChainComplex(ring, {degree: rank}, {}, _validated=True)


# ---------------------------------------------------------------------------
# chain maps and homotopies


class ChainMap:
    """Degreewise maps between complexes; validity is checked on demand."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        if source.ring != target.ring:
            raise MixedRings("chain map between complexes over different rings")
        self.source = source
        self.target = target
        self.components = {}
        for n, m in components.items():
            if (m.rows, m.cols) != (target.rank(n), source.rank(n)):
                raise DimensionMismatch(
                    f"component {n} is {m.rows}x{m.cols}, expected "
                    f"{target.rank(n)}x{source.rank(n)}")
            if m.rows and m.cols:
                self.components[n] = m

    def component(self, n):
        m = self.components.get(n)
        if m is None:
            return Matrix.zeros(self.source.ring, self.target.rank(n),
                                self.source.rank(n))
        return m


@dataclass
class Homotopy:
    """Degree +1 maps on a complex (contraction) or between two (null)."""

    components: dict      # degree n -> Matrix of shape carrier(n+1) x carrier(n)
    kind: str             # "contraction" | "null"

    def component(self, n, rows, cols, ring):
        m = self.components.get(n)
        if m is None:
            return Matrix.zeros(ring, rows, cols)
        return m


def is_chain_map(phi):
    """Pure equation check d_target . phi - phi . d_source = 0 in every
    degree."""
    src, tgt = phi.source, phi.target
    ring = src.ring
    one = ring.one_payload
    minus_one = ring.neg_payload(one)
    for n in sorted(set(src.degrees()) | set(tgt.degrees())):
        if not vanishes(ring, tgt.rank(n - 1), src.rank(n), [
                (one, tgt.diff(n), phi.component(n)),
                (minus_one, phi.component(n - 1), src.diff(n))]):
            return False
    return True


def is_contraction(sigma, complex_):
    """sigma(n-1) . d(n) + d(n+1) . sigma(n) - id = 0, degreewise."""
    ring = complex_.ring
    one = ring.one_payload
    minus_one = ring.neg_payload(one)
    for n in complex_.degrees():
        r = complex_.rank(n)
        s_n = sigma.component(n, complex_.rank(n + 1), r, ring)
        s_prev = sigma.component(n - 1, r, complex_.rank(n - 1), ring)
        if not vanishes(ring, r, r, [
                (one, s_prev, complex_.diff(n)), (one, complex_.diff(n + 1), s_n),
                (minus_one, Matrix.identity(ring, r), None)]):
            return False
    return True


# ---------------------------------------------------------------------------
# constructions


def shift(M, m):
    """m-fold shift: degree n holds M_{n-m}; differentials scale by (-1)^m."""
    ranks = {n + m: r for n, r in M._ranks.items()}
    sign = M.ring.one if m % 2 == 0 else -M.ring.one
    diffs = {n + m: d.scale(sign) for n, d in M._diffs.items()}
    return ChainComplex(M.ring, ranks, diffs, _validated=True)


def truncate_below(M, m):
    """Drop everything below degree m; the crossing differential is zeroed."""
    ranks = {n: r for n, r in M._ranks.items() if n >= m}
    diffs = {n: d for n, d in M._diffs.items() if n > m}
    return ChainComplex(M.ring, ranks, diffs, _validated=True)


def truncate_above(M, m):
    """Drop everything above degree m; the crossing differential is zeroed."""
    ranks = {n: r for n, r in M._ranks.items() if n <= m}
    diffs = {n: d for n, d in M._diffs.items() if n <= m}
    return ChainComplex(M.ring, ranks, diffs, _validated=True)


def tensor_layout(M, N, n):
    """Summand bookkeeping for (M (x) N)_n = sum over p of M_{n-p} (x) N_p.

    Returns [(p, rank M_{n-p}, rank N_p)] for p ascending over N's support,
    zero-width summands included so offsets stay stable across degrees.
    """
    return [(p, M.rank(n - p), N.rank(p)) for p in N.support]


def tensor_differential(M, N, n):
    """The degree-n differential of M (x) N, written row by row.

    Summand p of the source maps by d_M (x) 1 into summand p of the target
    and by (-1)^{n-p} 1 (x) d_N into summand p-1 (`Matrix.from_kron_blocks`).
    M and N may be any complexes of matrices, validated or not, over one
    scalar ring.
    """
    row_at, rows = {}, 0
    for p, mp, np_ in tensor_layout(M, N, n - 1):
        row_at[p] = rows
        rows += mp * np_
    blocks, cols = [], 0
    for p, mp, np_ in tensor_layout(M, N, n):
        d = M._diffs.get(n - p)
        if d is not None and np_:
            blocks.append((row_at[p], cols, d, np_, False))
        d = N._diffs.get(p)
        if d is not None and mp:
            blocks.append((row_at[p - 1], cols, mp, d, (n - p) % 2 == 1))
        cols += mp * np_
    return Matrix.from_kron_blocks(M.ring, rows, cols, blocks)


def tensor(M, N, top=None):
    """Tensor product complex with the usual sign on the right differential,
    and with no degree above `top` when it is given.

    Summands ordered by p ascending; each M_{n-p} (x) N_p block carries the
    row-major tensor basis, so the structure maps are Kronecker products.
    """
    if M.ring != N.ring:
        raise MixedRings("tensor over different rings")
    ring = M.ring
    if M.is_zero_complex() or N.is_zero_complex():
        return zero_complex(ring)
    stop = max(M.support) + max(N.support) + 1
    degrees = range(min(M.support) + min(N.support),
                    stop if top is None else min(stop, top + 1))
    ranks = {n: sum(mr * nr for _, mr, nr in tensor_layout(M, N, n))
             for n in degrees}
    diffs = {n: tensor_differential(M, N, n) for n in degrees
             if ranks[n] and ranks.get(n - 1)}
    return ChainComplex(ring, ranks, diffs)


def hom_summands(M, N):
    """The nonzero summands of Hom(M, N)_n = sum over i of Hom(M_i, N_{i+n}),
    from the pairs (i, j) of degrees of M's and N's supports (n = j - i):
    {n: [(i, rank N_{i+n}, rank M_i)] for i ascending}, n ascending.  Each
    block uses the row-major (target index, source index) basis."""
    out = {}
    for i in M.support:
        for j in N.support:
            out.setdefault(j - i, []).append((i, N.rank(j), M.rank(i)))
    return dict(sorted(out.items()))


def hom_complex(M, N):
    """Hom complex with d(f) = d_N . f - (-1)^{|f|} f . d_M.

    Each degree is the sum of its nonzero summands (`hom_summands`); the
    blocks of the differential between them are Kronecker products with an
    identity, written row by row (`Matrix.from_kron_blocks`).
    """
    if M.ring != N.ring:
        raise MixedRings("hom over different rings")
    ring = M.ring
    summands = hom_summands(M, N)
    ranks = {n: sum(a * b for _, a, b in src) for n, src in summands.items()}
    diffs = {}
    for n, src in summands.items():
        tgt = summands.get(n - 1)
        if tgt is None:
            continue
        row_at, rows = {}, 0
        for i, a, b in tgt:
            row_at[i] = rows
            rows += a * b
        blocks, cols = [], 0
        for i, a, b in src:
            # postcompose with d_N: vec_row(D F) = (D kron I) vec_row(F)
            d = N._diffs.get(i + n)
            if d is not None:
                blocks.append((row_at[i], cols, d, b, False))
            # precompose with d_M, sign -(-1)^n: (I kron d_M^T)
            d = M._diffs.get(i + 1)
            if d is not None:
                blocks.append((row_at[i + 1], cols, a, d.transpose(), n % 2 == 0))
            cols += a * b
        diffs[n] = Matrix.from_kron_blocks(ring, rows, cols, blocks)
    return ChainComplex(ring, ranks, diffs)


def cone(phi):
    """Mapping cone: degree n is target_n + source_{n-1}, block differential
    [[d_target, phi], [0, -d_source]]."""
    src, tgt = phi.source, phi.target
    ring = src.ring
    degrees = sorted(set(n for n in src.degrees()) | set(tgt.degrees())
                     | set(n + 1 for n in src.degrees()))
    ranks = {n: tgt.rank(n) + src.rank(n - 1) for n in degrees}
    diffs = {}
    for n in degrees:
        heights = [tgt.rank(n - 1), src.rank(n - 2)]
        widths = [tgt.rank(n), src.rank(n - 1)]
        if not (sum(heights) and sum(widths)):
            continue
        blocks = {}
        if n in tgt._diffs:
            blocks[0, 0] = tgt._diffs[n]
        if n - 1 in phi.components:
            blocks[0, 1] = phi.components[n - 1]
        if n - 1 in src._diffs:
            blocks[1, 1] = src._diffs[n - 1].scale(-ring.one)
        diffs[n] = Matrix.from_blocks(ring, heights, widths, blocks)
    return ChainComplex(ring, {n: r for n, r in ranks.items() if r}, diffs)


def base_change(hom, M):
    """Apply a ring homomorphism to every differential entry."""
    tgt = hom.target
    diffs = {n: d.map_entries(hom, tgt) for n, d in M._diffs.items()}
    return ChainComplex(tgt, dict(M._ranks), diffs)


# ---------------------------------------------------------------------------
# homology


@dataclass
class HomologyBounds:
    acyclic: bool
    sup: int | None
    inf: int | None


def homology(M, n):
    return homology_module(M.ring, M.diff(n + 1), M.diff(n))


def sup_inf(M):
    """Degrees of extreme nonzero homology, or an explicit acyclic flag."""
    if not M.ring.linear_solve:
        raise CapabilityMissing(f"homology needs linear solving over {M.ring}")
    found = [n for n in M.degrees() if not homology(M, n).is_zero]
    if not found:
        return HomologyBounds(True, None, None)
    return HomologyBounds(False, max(found), min(found))


def is_quasi_iso(phi, homotopy=None):
    """Quasiisomorphism check.

    Certificate mode: a supplied contraction of the cone is verified by
    matrix arithmetic and works over every ring tier.  Computational mode
    (no homotopy): the cone's homology must vanish, linear_solve rings only.
    """
    c = cone(phi)
    if homotopy is not None:
        return is_contraction(homotopy, c)
    return sup_inf(c).acyclic


def is_minimal(M):
    """True when every differential entry is a non-unit (local rings only)."""
    if not M.ring.local:
        raise NotLocal(f"{M.ring} is not certified local")
    unit = M.ring.is_unit_payload
    return not any(unit(v) for d in M._diffs.values() for _, vals in d.sparse_rows
                   for v in vals)


def augment_by_resolution(A, m, depth_budget=4):
    """Extend A above degree m by a free resolution of ker(diff(m)).

    The result agrees with A up to degree m and is exact in degrees
    m..m+depth_budget-1; over non-field rings the resolution may continue
    forever, so the top added degree can carry homology (windowed output).
    """
    if not A.ring.linear_solve:
        raise CapabilityMissing(f"resolution needs linear solving over {A.ring}")
    if A.support and max(A.support) > m:
        raise DimensionMismatch(f"support of A must lie in degrees <= {m}")
    ranks = dict(A._ranks)
    diffs = dict(A._diffs)
    steps = kernel_resolution(A.ring, A.diff(m), depth_budget)
    for degree, d in enumerate(steps, start=m + 1):
        ranks[degree] = d.cols
        diffs[degree] = d
    return ChainComplex(A.ring, ranks, diffs)
