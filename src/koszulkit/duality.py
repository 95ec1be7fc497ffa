"""Semidualizing, biduality, Ext and lifting checks at desk scale.

Modules enter as free presentations (cokernels of explicit matrices).
Resolutions are built by repeated kernels, minimalized over local rings,
in one loop (linalg.resolution) that stops at a certified period: when a
differential repeats one or two steps back, the cycle's products vanish
and each of its spots is exact by image sizes, so the periodic
continuation is the resolution and Ext repeats with it.  Verdicts still
carry the window they were asked for.  No module is ever enumerated.

Every derived Hom is the homology of Hom(G, N) for a bounded complex G of
finite free modules and a module N in degree 0 (`hom_homology`).  Ext
takes G = F, the resolution; the Koszul-side checks take G = F (x) K*,
since Hom(F, K (x) N) = Hom(F (x) K*, N) for the Koszul complex K.

- Over a finite ring Hom(G_m, N) = N^{rank G_m}, so |H_{-m}| is
  |N|^{rank G_m} over the sizes of the images of the two dual
  differentials Hom(d_m, N) and Hom(d_{m+1}, N).  Over a prime field or a
  finite-dimensional F_p-algebra, F_p[x]/(f) included, those sizes are
  p^rank of F_p matrices built from the action of the differentials'
  entries on N, and Ext's resolution stays in packed F_p coordinates.  Over
  Z/n, the one finite ring left on the Howell engine, each size is one
  Howell form (linalg.dual_image_cardinalities).  Ext reads only the
  degrees below the end of the first period.
- Over Z, Q and F_p[x] the homology is an explicit subquotient of
  Hom(G, R^g) modulo the relations of N in each degree.

The resolution loop checks each d_i d_{i+1} = 0 apart from the kernel
computation; every other G is a validated ChainComplex, so the matrix
products of its construction check d d = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .complexes import (
    ChainComplex, free_module_complex, hom_complex, homology, tensor,
)
from .errors import (
    CapabilityMissing, DimensionMismatch, MixedRings, NotLocal, NotRegular, ToolkitError,
)
from .linalg import (
    HomologySummary, _grid_to_matrix, _is_unit, _maximal_ideal_elements, _payload_grid,
    dual_image_cardinalities, fp_module, image_membership, kernel_basis,
    kernel_cardinality, lift_context, minimal_generators, periodic, preimage, resolution,
    smith_data, span_cardinality, subquotient,
)
from .matrices import Matrix
from .rings import INTEGERS, POLYQUOT, PRIMEFIELD, RingHom, Zmod, poly_quotient


@dataclass
class ModulePresentation:
    """coker(relations : R^c -> R^gens)."""

    ring: object
    gens: int
    relations: Matrix

    def __post_init__(self):
        if self.relations.ring != self.ring:
            raise MixedRings(f"relations over {self.relations.ring} for a module over {self.ring}")
        if self.relations.rows != self.gens:
            raise DimensionMismatch(
                f"relations have {self.relations.rows} rows for {self.gens} generators")

    @staticmethod
    def free(ring, n):
        return ModulePresentation(ring, n, Matrix.zeros(ring, n, 0))

    @staticmethod
    def residue_field(ring):
        """R / (maximal ideal), for rings with a certified maximal ideal."""
        if not ring.local:
            raise NotLocal(f"{ring} is not certified local")
        gens = _maximal_ideal_elements(ring)
        if not gens:
            return ModulePresentation.free(ring, 1)
        rel = Matrix.from_rows(ring, [[g for g in gens]])
        return ModulePresentation(ring, 1, rel)

    @staticmethod
    def cyclic(ring, annihilators):
        """R / (annihilators)."""
        if not annihilators:
            return ModulePresentation.free(ring, 1)
        rel = Matrix.from_rows(ring, [list(annihilators)])
        return ModulePresentation(ring, 1, rel)

    def cardinality(self):
        """|coker relations| over a finite ring, None over an infinite one."""
        size = self.ring.cardinality()
        if size is None:
            return None
        return size ** self.gens // span_cardinality(self.ring, self.relations)

    @cached_property
    def fp_data(self):
        """The module as an F_p-space (linalg.FpModule), made on first use
        and kept, or None over a ring with no F_p view."""
        return fp_module(self.ring, self.gens, self.relations)

    def map_through(self, hom):
        return ModulePresentation(
            hom.target, self.gens, self.relations.map_entries(hom, hom.target))


def _first_differential(pres):
    """d_1 of the resolution: a minimal generating set of the relations."""
    if not pres.ring.linear_solve:
        raise CapabilityMissing(f"cannot resolve over {pres.ring}")
    return minimal_generators(pres.ring, pres.relations)


def _resolution(pres, depth):
    """The resolution of pres to depth `depth` as the loop leaves it
    (linalg.Resolution): d_1 and up to depth - 1 kernels."""
    return resolution(pres.ring, _first_differential(pres), depth - 1)


def resolve(pres, depth):
    """Free resolution differentials [d_1, ..., d_depth], minimalized where
    the ring is local; the list stops early when a kernel vanishes.

    The loop (linalg.resolution) stops at a certified period (i, q): the
    differentials d_i ... d_{i+q-1} repeat, their products around the cycle
    vanish and every spot of the cycle is exact by image sizes.  Each step
    is a function of the previous differential, so the list continued by
    d_{m+q} = d_m is the one that resolving step by step gives.
    """
    return _resolution(pres, depth).matrices(max(depth, 1))


def _complex_of(pres, res, depth):
    """d_1 ... d_depth of `res` as a free complex F_0 <- F_1 <- ...; the
    loop has checked every product d_n d_{n+1} = 0, around a period too."""
    ranks = {0: pres.gens}
    dmap = {}
    for i, d in enumerate(res.matrices(depth), start=1):
        ranks[i] = d.cols
        dmap[i] = d
    return ChainComplex(pres.ring, ranks, dmap, _validated=True)


# ---------------------------------------------------------------------------
# derived Hom: the homology of Hom(G, N)
#
# G is a bounded complex of finite free modules and N a module in degree 0,
# so Hom(G, N) has Hom(G_m, N) = N^{rank G_m} in degree -m, and its
# differential into degree -m-1 precomposes with d_{m+1}.  Ext^i(M, N) is
# the case G = F, the resolution of M, at m = i.


def _check_inputs(window, first, *others):
    """Refuse a negative window and inputs over different rings."""
    if window < 0:
        raise ToolkitError(f"the window must be nonnegative, got {window}")
    if any(x.ring != first.ring for x in others):
        raise MixedRings("hom over different rings")


def _zero_ambient_summary(ring):
    """The homology in a degree where Hom(G_m, N) = 0."""
    return HomologySummary(ring, True, cardinality=1 if ring.is_finite() else None,
                           dimension=0 if ring.kind in ("rationals", "primefield") else None,
                           free_rank=0, invariant_factors=())


def hom_homology(G, N, degrees):
    """[H_{-m} Hom(G, N) for m in degrees] as homology summaries, for
    `degrees` an ascending range of degrees m of G.

    Over a finite ring the values come from G's differentials alone
    (`_finite_ext_table`): the sizes of the images of Hom(d_m, N) are F_p
    ranks (FpModule.dual_rank) over a ring with an F_p view and Howell
    image sizes (dual_image_cardinalities) over Z/n.  Over Z, Q and F_p[x]
    they are subquotients of Hom(G, R^g), g = N.gens, whose degree -m
    carries N's relations (x) I_{rank G_m}.  G comes validated, so every
    value rests on d d = 0.
    """
    ring, fp = N.ring, N.fp_data
    if ring.is_finite():
        needed = [m for m in range(degrees.start, degrees.stop + 1)
                  if G.rank(m) and G.rank(m - 1)]
        diffs = [G.diff(m) for m in needed]
        size, images = _dual_images(N, [fp.view.columns(d) for d in diffs] if fp else diffs)
        ranks = {m: G.rank(m) for m in degrees}
        return _finite_ext_table(N, size, ranks, dict(zip(needed, images)), degrees)
    H = hom_complex(G, free_module_complex(ring, N.gens))

    def rel(m):
        return N.relations.kron(Matrix.identity(ring, G.rank(m)))

    out = []
    for m in degrees:
        if not H.rank(-m):
            out.append(_zero_ambient_summary(ring))
            continue
        V = preimage(ring, H.diff(-m), rel(m + 1))
        out.append(subquotient(ring, V, H.diff(1 - m).hstack(rel(m))))
    return out


def _dual_images(N, diffs):
    """(|N|, [|im Hom(d, N)| for d in diffs]) over a finite ring: p^rank
    over a ring with an F_p view, each d given by the packed coordinates of
    its columns, and one Howell image size per matrix d over Z/n."""
    fp = N.fp_data
    if fp is not None:
        return fp.p ** fp.dim, [fp.p ** fp.dual_rank(cols) for cols in diffs]
    return N.cardinality(), dual_image_cardinalities(N.ring, diffs, N.relations)


def _finite_ext_table(N, size, ranks, images, degrees):
    """[H_{-m} Hom(G, N) for m in degrees] over a finite ring, from
    Hom(G_m, N) = N^{rank G_m}:
        |H_{-m}| = |N|^{rank G_m} / (|im Hom(d_m, N)| |im Hom(d_{m+1}, N)|).

    `size` is |N|; `ranks` and `images` map a degree m of G to rank G_m and
    to |im Hom(d_m, N)|, absent degrees meaning rank 0 and image 1.  A
    value whose image sizes do not divide |N|^{rank G_m} raises
    ArithmeticError."""
    out = []
    for m in degrees:
        rank = ranks.get(m, 0)
        if rank * N.gens == 0:
            out.append(_zero_ambient_summary(N.ring))
            continue
        num, den = size ** rank, images.get(m, 1) * images.get(m + 1, 1)
        if num % den:
            raise ArithmeticError("image sizes do not divide |Hom(G_m, N)|")
        card = num // den
        out.append(HomologySummary(N.ring, card == 1, cardinality=card))
    return out


def _ext_values(M, N, window, res=None):
    """(values, period): values lists Ext^m(M, N) for m = 0 .. window, or
    for m = 0 .. i + q - 1 when that is shorter and the resolution `res` of
    M (made to depth window + 1 when not given) has a certified period
    (i, q); past it Ext^{m+q} = Ext^m for m >= i.

    Over a finite ring only the ranks and the dual image sizes of the
    listed degrees are computed, from the loop's own differentials: packed
    columns over a ring with an F_p view, matrices over Z/n.  Over Z, Q and
    F_p[x] the values are `hom_homology` of the validated resolution.
    """
    _check_inputs(window, M, N)
    if res is None:
        res = _resolution(M, window + 1)
    if not N.ring.is_finite():
        return hom_homology(_complex_of(M, res, window + 1), N, range(window + 1)), None
    period, n = res.period, len(res.diffs)
    top = window if period is None else min(window, n)
    live = range(1, min(top + 1, n) + 1)
    size, images = _dual_images(N, [res.diffs[m - 1] for m in live])
    images = dict(zip(live, images))
    if period and top == n:  # Ext^n reads d_{n+1} = d_i
        images[n + 1] = images[period[0]]
    return _finite_ext_table(N, size, dict(enumerate(res.ranks)), images, range(top + 1)), period


def ext_table(M, N, window):
    """[Ext^i(M, N) for i = 0..window] as homology summaries.

    M and N are presentations over one linear_solve ring; the resolution of
    M is taken to depth window + 1, so every listed value is exact.  Window
    0 lists Hom(M, N) alone; a negative window is rejected, and so are
    modules over different rings, before any resolution work.  Over a
    finite ring the values come from the resolution's differentials alone
    (`_finite_ext_table`): F_p ranks over a ring with an F_p view, whose
    resolution stays packed, and Howell image sizes over Z/n.

    The resolution stops at a certified period (i, q) (linalg.resolution):
    its products around the cycle vanish and each spot of the cycle is
    exact by image sizes, so the cycled differentials are a free resolution
    and Hom(F_m, N) with its two differentials repeats for m >= i.  Then
    only Ext^0 .. Ext^{i+q-1} are computed, and Ext^m for m >= i is
    Ext^{i + (m - i) mod q}, so any window costs what i + q degrees do.
    """
    values, period = _ext_values(M, N, window)
    return periodic(values, period, window + 1)


def ext_sup(M, N, window):
    """Largest i <= window with Ext^i nonzero, or None; flags top-of-window.

    With a certified period (i, q), only the degrees below i + q are
    computed (`_ext_values`); each degree m past them reads the value at
    i + (m - i) mod q, and the last q degrees of the window meet every
    value of the cycle, each at its largest degree in the window.
    """
    values, period = _ext_values(M, N, window)
    n = len(values)
    q = period[1] if period else 0

    def value(m):
        return values[m] if m < n else values[n - q + (m - n) % q]

    degrees = chain(range(n), range(max(n, window + 1 - q), window + 1))
    nonzero = [m for m in degrees if not value(m).is_zero]
    return (max(nonzero) if nonzero else None), not value(window).is_zero


# ---------------------------------------------------------------------------
# semidualizing checks


@dataclass
class SdcVerdict:
    outcome: str              # "semidualizing" | "not_semidualizing" | "inconclusive"
    window: int
    witness_degree: int | None = None
    witness: HomologySummary | None = None
    hom_cardinality: int | None = None
    annihilator_cardinality: int | None = None
    ring_cardinality: int | None = None

    @property
    def ok(self):
        return self.outcome == "semidualizing"

    def line(self):
        if self.outcome == "semidualizing":
            return f"semidualizing (window {self.window})"
        if self.outcome == "not_semidualizing":
            if self.witness_degree == 0:
                return (f"not semidualizing: endomorphisms have cardinality "
                        f"{self.hom_cardinality} vs ring {self.ring_cardinality}, "
                        f"annihilator {self.annihilator_cardinality}")
            return (f"not semidualizing: Ext^{self.witness_degree} nonzero "
                    f"({self.witness.describe()})")
        return f"inconclusive (window {self.window})"


def _identity_hom_vector(ring, g):
    """vec of the identity endomorphism; the diagonal slots are layout-safe."""
    vec = [ring.zero_payload] * (g * g)
    for k in range(g):
        vec[k * g + k] = ring.one_payload
    return Matrix.from_columns(ring, g * g, [vec])


def homothety_check(C, window):
    """Is the map sending 1 to the identity of C a quasiisomorphism onto the
    derived endomorphisms of C, up to the window depth.

    Requires a finite local linear_solve ring.  NotSemidualizing verdicts
    carry a concrete witness; positives mean no obstruction within the
    window plus an exact degree-zero isomorphism check.
    """
    _homothety_ring(C.ring)
    return _homothety(C, window)


def _homothety_ring(ring):
    """Refuse a ring the homothety check does not run over."""
    if not ring.local:
        raise NotLocal(f"{ring} is not certified local")
    if not ring.is_finite() or not ring.linear_solve:
        raise CapabilityMissing("homothety check needs a finite linear_solve ring")


def _homothety(C, window, res=None):
    """homothety_check's verdict, with Ext read from the resolution `res`
    of C when it is given.  The values up to a certified period list every
    value of the window, each at its least degree, so the first nonzero
    one is the witness."""
    ring = C.ring
    table, _ = _ext_values(C, C, window, res)
    for i in range(1, len(table)):
        if not table[i].is_zero:
            return SdcVerdict("not_semidualizing", window, i, table[i],
                              ring_cardinality=ring.cardinality())
    # degree zero: Hom(C, C) against the ring through 1 -> id
    hom_card = table[0].cardinality
    g = C.gens
    # relation span of Hom(F_0, C), (target, source) row-major layout
    U0 = C.relations.kron(Matrix.identity(ring, g)) if C.relations.cols else \
        Matrix.zeros(ring, g * g, 0)
    id_vec = _identity_hom_vector(ring, g)
    # r annihilates C exactly when r . id lies in the span of U0, so the
    # kernel of [id | U0] is the annihilator times the kernel of U0
    ann = kernel_cardinality(ring, id_vec.hstack(U0)) // kernel_cardinality(ring, U0)
    ring_card = ring.cardinality()
    if hom_card == ring_card and ann == 1:
        return SdcVerdict("semidualizing", window,
                          hom_cardinality=hom_card,
                          annihilator_cardinality=ann,
                          ring_cardinality=ring_card)
    return SdcVerdict("not_semidualizing", window, 0, table[0],
                      hom_cardinality=hom_card,
                      annihilator_cardinality=ann,
                      ring_cardinality=ring_card)


# ---------------------------------------------------------------------------
# biduality


@dataclass
class BidualityVerdict:
    outcome: str          # "reflexive" | "not_reflexive" | "inconclusive"
    window: int
    detail: str = ""

    @property
    def ok(self):
        return self.outcome == "reflexive"


def biduality_check(X, C, window):
    """C-reflexivity of X within the window.

    Stage one checks boundedness of the derived homs: Ext^i(X, C) must
    vanish at the top of the window.  For free X the biduality map reduces
    componentwise to the homothety of C and the verdict is exact; other
    positives are reported as inconclusive (windowed honesty).
    """
    sup_val, top_nonzero = ext_sup(X, C, window)
    if top_nonzero:
        return BidualityVerdict(
            "not_reflexive", window,
            f"Ext^{window}(X, C) nonzero at the window top; derived homs unbounded")
    if X.relations.cols == 0:
        inner = homothety_check(C, window)
        if inner.ok:
            return BidualityVerdict("reflexive", window,
                                    "free module over a semidualizing target")
        return BidualityVerdict("not_reflexive", window,
                                f"free module, but target fails: {inner.line()}")
    return BidualityVerdict(
        "inconclusive", window,
        f"homs bounded in window (top nonzero degree "
        f"{sup_val if sup_val is not None else 'none'}); biduality map not "
        f"constructed for non-free sources")


# ---------------------------------------------------------------------------
# the transfer check: ring-level vs DG-level verdicts


@dataclass
class TransferVerdict:
    ring_level: SdcVerdict
    dg_match: bool
    window: int
    degrees: tuple
    details: tuple

    @property
    def agree(self):
        return self.ring_level.ok == self.dg_match


def _through_extension(F, X, K, degrees):
    """[H_{-m} Hom(F, K (x) X) for m in degrees], F a resolution as a
    validated complex.

    K is a bounded complex of finite free modules, so Hom(F, K (x) X) =
    Hom(F (x) K*, X) with K* = Hom(K, R): the values are `hom_homology` of
    G = F (x) K* into X in degree 0.  The value at m reads G up to degree
    m + 1, so G is built only up to max(degrees) + 1; for m <= window, F
    must reach degree window + e + 1, past which no value looks.
    """
    dual = hom_complex(K.complex, free_module_complex(K.ring, 1))
    return hom_homology(tensor(F, dual, top=degrees.stop), X, degrees)


def koszul_sdc_transfer(K, C, window):
    """Paired verdicts: the ring-level homothety check of C, and the
    DG-level comparison of derived homs into the extension against the
    homology of the algebra itself.

    The DG side takes H_t of Hom(res C, K (x) C) through the adjunction,
    as H_t of Hom(res C (x) K*, C) (`_through_extension`), and matches it
    degreewise against H_t(K) on [-window, e]; by the adjunction reduction
    this is the homothety condition for the extension.  C is resolved once,
    to depth window + e + 1, for both sides.  A negative window and K and C
    over different rings are refused before any work.
    """
    _check_inputs(window, C, K)
    _homothety_ring(C.ring)
    depth = window + K.e + 1
    res = _resolution(C, depth)
    ring_level = _homothety(C, window, res)
    degrees = tuple(range(-window, K.e + 1))
    # H_t is the value at m = -t
    lefts = _through_extension(_complex_of(C, res, depth), C, K,
                               range(-K.e, window + 1))[::-1]
    details = []
    for t, left in zip(degrees, lefts):
        right = homology(K.complex, t)
        details.append((t, left.cardinality, right.cardinality, left.same_as(right)))
    match = all(same for *_, same in details)
    return TransferVerdict(ring_level, match, window, degrees, tuple(details))


# ---------------------------------------------------------------------------
# Ext sup through the extension


@dataclass
class ExtSupResult:
    direct_sup: int | None        # largest nonzero degree inside the window
    koszul_sup: int | None
    direct_top_nonzero: bool      # nonzero anywhere in [window, window + e]
    koszul_top_nonzero: bool      # extension side nonzero at the window top

    @property
    def agree(self):
        if self.direct_top_nonzero or self.koszul_top_nonzero:
            return self.direct_top_nonzero == self.koszul_top_nonzero
        return self.direct_sup == self.koszul_sup


def ext_sup_via_koszul(M, X, K, window):
    """The largest degree with nonvanishing Ext, computed twice.

    Directly from Hom(res M, X), and through the extension Hom(res M,
    K (x) X), taken as Hom(res M (x) K*, X) (`_through_extension`).  Over a
    local ring with the sequence of K in the maximal ideal, the bottom
    nonzero homology degree is preserved by the extension, so away from
    the window edge the two sups agree exactly.  The agreement rests on
    that hypothesis: over Z with K on 3, K (x) Z/2 is acyclic because 3 is a
    unit on Z/2, and M = X = Z/2 honestly gives agree=False.  At the edge
    the extension side at depth `window` aggregates the e degrees above it,
    so the direct side scans [window, window + e] when deciding whether the
    edge is active.  A negative window and inputs over different rings are
    refused before any work.
    """
    _check_inputs(window, M, X, K)
    e = K.e
    res = _resolution(M, window + e + 1)
    table = periodic(*_ext_values(M, X, window + e, res), window + e + 1)
    nonzero_direct = [i for i in range(window + 1) if not table[i].is_zero]
    direct_sup = max(nonzero_direct) if nonzero_direct else None
    direct_top = any(not table[i].is_zero
                     for i in range(window, window + e + 1))
    F = _complex_of(M, res, window + e + 1)
    nonzero = [i for i, h in enumerate(_through_extension(F, X, K, range(window + 1)))
               if not h.is_zero]
    k_sup = max(nonzero) if nonzero else None
    k_top = window in nonzero
    return ExtSupResult(direct_sup, k_sup, direct_top, k_top)


# ---------------------------------------------------------------------------
# liftings along R -> R/(x)


@dataclass
class LiftingVerdict:
    ok: bool
    tor_witness: tuple | None      # (degree, summary) for the first nonzero Tor
    iso_found: bool
    reason: str

    def line(self):
        if self.ok:
            return "lifting verified"
        if self.tor_witness:
            i, h = self.tor_witness
            return f"not a lifting: Tor_{i} nonzero ({h.describe()})"
        return f"not a lifting: {self.reason}"


def quotient_by_element(ring, x):
    """R/(x) together with the projection, for R = Z or F_p[t]."""
    if ring.kind == INTEGERS:
        n = abs(x.payload)
        if n < 2:
            raise NotRegular(f"quotient by {x!r} is not a proper finite ring")
        S = Zmod(n)
        return S, RingHom(ring, S)
    if ring.kind == POLYQUOT and not ring.ideal and len(ring.variables) == 1 \
            and ring.coeff.kind == PRIMEFIELD:
        S = poly_quotient(ring.coeff, list(ring.variables), [x.payload], order=ring.order)
        images = {v: S.variable(v) for v in ring.variables}
        return S, RingHom(ring, S, images)
    raise CapabilityMissing(f"no quotient construction for {ring}")


def _chain_ring_iso(S, M1, M2):
    """Explicit isomorphism between cokernels over Z/n or F_p[t]/(f).

    Both presentations are decomposed through lifted Smith transforms into
    sums of cyclic modules; matching factor multisets are aligned by a
    permutation and conjugated back.  Returns (phi, psi) or None.
    """
    ctx = lift_context(S)
    ed, f = ctx.ed, ctx.modulus

    def decomposition(pres):
        sd = smith_data(ed, _payload_grid(pres.relations),
                        pres.gens, pres.relations.cols)
        factors = [ed.gcdex_payload(sd.diag(j), f)[0] for j in range(pres.gens)]
        lam = _grid_to_matrix(S, ctx, sd.S, pres.gens)
        lam_inv = _grid_to_matrix(S, ctx, sd.Si, pres.gens)
        return factors, lam, lam_inv

    f1, lam1, lam1i = decomposition(M1)
    f2, lam2, lam2i = decomposition(M2)
    nontrivial1 = sorted((g, j) for j, g in enumerate(f1) if not _is_unit(ed, g))
    nontrivial2 = sorted((g, j) for j, g in enumerate(f2) if not _is_unit(ed, g))
    if [g for g, _ in nontrivial1] != [g for g, _ in nontrivial2]:
        return None
    P = Matrix.zeros(S, M2.gens, M1.gens)
    Q = Matrix.zeros(S, M1.gens, M2.gens)
    prows = [[S.zero] * M1.gens for _ in range(M2.gens)]
    qrows = [[S.zero] * M2.gens for _ in range(M1.gens)]
    for (g1, j1), (g2, j2) in zip(nontrivial1, nontrivial2):
        prows[j2][j1] = S.one
        qrows[j1][j2] = S.one
    if M2.gens and M1.gens:
        P = Matrix.from_rows(S, prows)
        Q = Matrix.from_rows(S, qrows)
    phi = lam2i * P * lam1
    psi = lam1i * Q * lam2
    return phi, psi


def _verify_iso(M1, M2, phi, psi):
    S = M1.ring
    if not image_membership(S, phi * M1.relations, M2.relations):
        return False
    if not image_membership(S, psi * M2.relations, M1.relations):
        return False
    d1 = psi * phi - Matrix.identity(S, M1.gens)
    d2 = phi * psi - Matrix.identity(S, M2.gens)
    return image_membership(S, d1, M1.relations) and \
        image_membership(S, d2, M2.relations)


def lifting_verify(R, x, M, N):
    """Is M (over R) a lifting of N (over S = R/(x)) along the projection.

    x is a single regular element (our solvable domains have depth one).
    Computes S (x) M and Tor_1 through the length-one Koszul complex on x;
    the verdict is positive exactly when Tor_1 vanishes and an explicit,
    verified isomorphism S (x) M = N is found.
    """
    if isinstance(x, (list, tuple)):
        if len(x) != 1:
            raise CapabilityMissing(
                "only length-one regular sequences exist over the supported domains")
        x = x[0]
    if M.ring != R:
        raise DimensionMismatch("M must be presented over the base ring")
    # regularity witness: multiplication by x is injective on the base
    xmat = Matrix.from_rows(R, [[x]])
    if kernel_basis(R, xmat).cols != 0:
        raise NotRegular(f"{x!r} is a zerodivisor on the base ring")
    S, proj = quotient_by_element(R, x)
    if N.ring != S:
        raise DimensionMismatch(f"N must be presented over {S}")
    # Tor_1(S, M) = {v : x v in span(relations)} / span(relations)
    xI = Matrix.identity(R, M.gens).scale(x)
    tor1 = subquotient(R, preimage(R, xI, M.relations), M.relations)
    if not tor1.is_zero:
        return LiftingVerdict(False, (1, tor1), False, "Tor obstruction")
    SM = M.map_through(proj)
    # find and verify an explicit isomorphism S (x) M = N; S is Z/n or
    # F_p[t]/(x), so it lifts to Z or F_p[t] modulo its generator
    pair = _chain_ring_iso(S, SM, N)
    if pair is not None and _verify_iso(SM, N, *pair):
        return LiftingVerdict(True, None, True, "")
    return LiftingVerdict(False, None, False,
                          "no isomorphism between the reductions was found")
