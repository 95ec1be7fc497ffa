"""Semidualizing, biduality, Ext and lifting checks at desk scale.

Modules enter as free presentations (cokernels of explicit matrices).
Resolutions are built by repeated kernels, minimalized over local rings,
and every infinite-resolution statement is windowed: verdicts carry the
depth they were checked to.  No module is ever enumerated:

- over a finite ring, Ext^i(M, N) comes from the resolution alone:
  Hom(F_i, N) = N^{b_i}, so |Ext^i| is |N|^{b_i} over the sizes of the
  images of the two dual differentials Hom(d_i, N) and Hom(d_{i+1}, N).
  Over a prime field or a finite-dimensional F_p-algebra those sizes are
  p^rank of F_p matrices built from the action of the differentials'
  entries on N, and the resolution stays packed
  (linalg.packed_resolution), which checks each d_i d_{i+1} = 0 on packed
  columns apart from the kernel computation.  Over Z/n each size is one
  Howell form (linalg.dual_image_cardinalities), and the products that
  validate the resolution's ChainComplex check d d = 0;
- over Z, Q and F_p[x], and for the homology of Koszul-extension targets,
  homology comes from the presented complex Hom(F, N): ratios of span
  cardinalities over finite rings, explicit subquotients over Z, Q and
  F_p[x]; the matrix products that validate each ChainComplex check
  d d = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .complexes import (
    ChainComplex, free_module_complex, hom_complex, hom_summands, homology, tensor,
)
from .errors import (
    CapabilityMissing, DimensionMismatch, MixedRings, NotLocal, NotRegular, ToolkitError,
)
from .linalg import (
    HomologySummary, dual_image_cardinalities, fp_module, has_linear_solve,
    image_membership, kernel_basis, kernel_cardinality, kernel_resolution,
    minimal_generators, packed_resolution, span_cardinality, subquotient,
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
        from .linalg import _maximal_ideal_elements
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
    if not has_linear_solve(pres.ring):
        raise CapabilityMissing(f"cannot resolve over {pres.ring}")
    return minimal_generators(pres.ring, pres.relations)


def resolve(pres, depth):
    """Free resolution differentials [d_1, ..., d_depth], minimalized where
    the ring is local; the list stops early when a kernel vanishes."""
    first = _first_differential(pres)
    return [first] + kernel_resolution(pres.ring, first, depth - 1)


def resolution_complex(pres, depth):
    """The resolution as a validated free complex F_0 <- F_1 <- ..."""
    diffs = resolve(pres, depth)
    ranks = {0: pres.gens}
    dmap = {}
    for i, d in enumerate(diffs, start=1):
        ranks[i] = d.cols
        dmap[i] = d
    return ChainComplex(pres.ring, ranks, dmap)


# ---------------------------------------------------------------------------
# presented-complex homology
#
# A presented complex is a free complex of ambients together with one
# relation matrix per degree; differentials must map relation spans into
# relation spans.  Homology at degree t:
#     { v : d_t v in span(rel_{t-1}) }  /  ( im d_{t+1} + span(rel_t) )
# Over finite rings the cardinality is
#     |amb_t| * |span rel_{t-1}| / |span [d_t | rel_{t-1}]| / |span [d_{t+1} | rel_t]|.


@dataclass
class PresentedComplex:
    ambient: ChainComplex
    relations: dict                        # degree -> Matrix
    _cache: dict = field(default_factory=dict)

    def relation(self, n):
        m = self.relations.get(n)
        if m is None:
            return Matrix.zeros(self.ambient.ring, self.ambient.rank(n), 0)
        return m

    def _rel_card(self, n):
        key = ("rel", n)
        if key not in self._cache:
            self._cache[key] = span_cardinality(self.ambient.ring, self.relation(n))
        return self._cache[key]

    def _boundary_card(self, n):
        # |span [d_n | rel_{n-1}]|, shared between adjacent homology degrees
        key = ("bnd", n)
        if key not in self._cache:
            self._cache[key] = span_cardinality(
                self.ambient.ring, self.ambient.diff(n).hstack(self.relation(n - 1)))
        return self._cache[key]


def _zero_ambient_summary(ring):
    """The homology in a degree where the ambient has rank 0."""
    return HomologySummary(ring, True, cardinality=1 if ring.is_finite() else None,
                           dimension=0 if ring.kind in ("rationals", "primefield") else None,
                           free_rank=0, invariant_factors=())


def presented_homology(pc, t):
    ring = pc.ambient.ring
    amb_rank = pc.ambient.rank(t)
    if amb_rank == 0:
        return _zero_ambient_summary(ring)
    d_t = pc.ambient.diff(t)
    d_next = pc.ambient.diff(t + 1)
    rel_prev = pc.relation(t - 1)
    rel_t = pc.relation(t)
    if ring.is_finite():
        amb_card = ring.cardinality() ** amb_rank
        num = amb_card * pc._rel_card(t - 1)
        den = pc._boundary_card(t)
        wcard = pc._boundary_card(t + 1)
        if num % den or (num // den) % wcard:
            raise ArithmeticError("span cardinalities violate divisibility")
        card = num // den // wcard
        return HomologySummary(ring, card == 1, cardinality=card)
    # explicit subquotient over Z, F_p[x], Q
    V = kernel_basis(ring, d_t.hstack(rel_prev))
    V = V.submatrix(range(amb_rank), range(V.cols)) if V.cols else \
        Matrix.zeros(ring, amb_rank, 0)
    W = d_next.hstack(rel_t)
    return subquotient(ring, V, W)


def hom_into_presented(source_free, target):
    """Hom(source, target) as a presented complex.

    `source_free` is a free complex, `target` a PresentedComplex; the
    result's ambient is the hom complex of the ambients.  Relations are
    block-diagonal over the nonzero summands Hom(M_i, N_{i+n}) of each
    degree (`hom_summands`), each block kron(rel_{i+n}, I_{rank M_i}) in the
    (target, source) row-major layout.
    """
    amb = hom_complex(source_free, target.ambient)
    ring = amb.ring
    relations = {}
    for n, summands in hom_summands(source_free, target.ambient).items():
        rels = [target.relation(i + n) for i, _, _ in summands]
        blocks = {(k, k): rel.kron(Matrix.identity(ring, b))
                  for k, (rel, (_, _, b)) in enumerate(zip(rels, summands)) if rel.cols}
        if blocks:
            relations[n] = Matrix.from_blocks(
                ring, [a * b for _, a, b in summands],
                [rel.cols * b for rel, (_, _, b) in zip(rels, summands)], blocks)
    return PresentedComplex(amb, relations)


def module_as_presented_complex(pres, degree=0):
    amb = free_module_complex(pres.ring, pres.gens, degree)
    return PresentedComplex(amb, {degree: pres.relations})


def tensor_koszul_presented(K, pres):
    """K (x) M as a presented complex: ambients K_j (x) R^g, relations
    spread block-diagonally."""
    ring = K.ring
    amb = tensor(K.complex, free_module_complex(ring, pres.gens))
    relations = {}
    for j in range(K.e + 1):
        binom = K.degree_rank(j)
        if binom and pres.relations.cols:
            relations[j] = Matrix.identity(ring, binom).kron(pres.relations)
    return PresentedComplex(amb, relations)


# ---------------------------------------------------------------------------
# Ext


def _check_window(window):
    if window < 0:
        raise ToolkitError(f"the window must be nonnegative, got {window}")


def ext_table(M, N, window):
    """[Ext^i(M, N) for i = 0..window] as homology summaries.

    M and N are presentations over one linear_solve ring; the resolution of
    M is taken to depth window + 1, so every listed value is exact.  Window
    0 lists Hom(M, N) alone; a negative window is rejected, and so are
    modules over different rings, before any resolution work.  Over a
    finite ring the values come from the resolution alone, through
    Hom(F_i, N) = N^{b_i} (`_finite_ext_table`): in F_p coordinates over a
    ring with an F_p view, from Howell image sizes over Z/n.  Over Z, Q and
    F_p[x] they come from the homology of the presented complex Hom(F, N).
    """
    _check_window(window)
    if M.ring != N.ring:
        raise MixedRings("hom over different rings")
    ring, fp = N.ring, N.fp_data
    if fp is not None:
        diffs = packed_resolution(ring, _first_differential(M), window)
        betti = [M.gens] + [len(cols) for cols in diffs]
        size, images = fp.p ** fp.dim, [fp.p ** fp.dual_rank(cols) for cols in diffs]
    elif ring.is_finite():
        # the validated complex: the products of its construction check d d = 0
        res = resolution_complex(M, window + 1)
        diffs = [res.diff(i) for i in range(1, window + 2)]
        betti = [M.gens] + [d.cols for d in diffs]
        size = N.cardinality()
        images = dual_image_cardinalities(ring, diffs, N.relations)
    else:
        G = hom_into_presented(resolution_complex(M, window + 1),
                               module_as_presented_complex(N))
        # Hom(F_i, N) sits in homological degree -i
        return [presented_homology(G, -i) for i in range(window + 1)]
    return _finite_ext_table(N, size, betti, images, window)


def _finite_ext_table(N, size, betti, images, window):
    """Ext^i(M, N) for i = 0..window over a finite ring, from Hom(F_i, N) =
    N^{b_i}: |Ext^i| = |N|^{b_i} / (|im Hom(d_i, N)| |im Hom(d_{i+1}, N)|).

    `size` is |N|, `betti` lists b_0, b_1, ... and `images` the image sizes
    for d_1, d_2, ...; the Betti numbers and differentials past the lists
    are zero.  The summaries are the ones presented_homology gives for
    Hom(F, N), and its divisibility check is kept."""
    betti = betti + [0] * (window + 2 - len(betti))
    images = [1] + images + [1] * (window + 1 - len(images))
    out = []
    for i in range(window + 1):
        if betti[i] * N.gens == 0:
            out.append(_zero_ambient_summary(N.ring))
            continue
        num, den = size ** betti[i], images[i] * images[i + 1]
        if num % den:
            raise ArithmeticError("image sizes do not divide |Hom(F_i, N)|")
        card = num // den
        out.append(HomologySummary(N.ring, card == 1, cardinality=card))
    return out


def ext_sup(M, N, window):
    """Largest i <= window with Ext^i nonzero, or None; flags top-of-window."""
    table = ext_table(M, N, window)
    nonzero = [i for i, h in enumerate(table) if not h.is_zero]
    top = not table[window].is_zero
    return (max(nonzero) if nonzero else None), top


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
    ring = C.ring
    if not ring.local:
        raise NotLocal(f"{ring} is not certified local")
    if not ring.is_finite() or not has_linear_solve(ring):
        raise CapabilityMissing("homothety check needs a finite linear_solve ring")
    table = ext_table(C, C, window)
    for i in range(1, window + 1):
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


def koszul_sdc_transfer(K, C, window):
    """Paired verdicts: the ring-level homothety check of C, and the
    DG-level comparison of derived homs into the extension against the
    homology of the algebra itself.

    The DG side computes H of Hom(res C, K (x) C) and matches it degreewise
    against H(K) on [-window, e]; by the adjunction reduction this is the
    homothety condition for the extension.
    """
    ring_level = homothety_check(C, window)
    res = resolution_complex(C, window + K.e + 1)
    target = tensor_koszul_presented(K, C)
    G = hom_into_presented(res, target)
    degrees = tuple(range(-window, K.e + 1))
    details = []
    match = True
    for t in degrees:
        left = presented_homology(G, t)
        right = homology(K.complex, t)
        same = left.same_as(right)
        details.append((t, left.cardinality, right.cardinality, same))
        if not same:
            match = False
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
    K (x) X).  The bottom nonzero homology degree is preserved by the
    extension, so away from the window edge the two sups agree exactly.
    At the edge the extension side at depth `window` aggregates the e
    degrees above it, so the direct side scans [window, window + e] when
    deciding whether the edge is active.
    """
    _check_window(window)
    e = K.e
    table = ext_table(M, X, window + e)
    nonzero_direct = [i for i in range(window + 1) if not table[i].is_zero]
    direct_sup = max(nonzero_direct) if nonzero_direct else None
    direct_top = any(not table[i].is_zero
                     for i in range(window, window + e + 1))
    # degree -window of the hom complex into the extension is exact only
    # when the resolution reaches e + 1 steps further down
    res = resolution_complex(M, window + e + 1)
    target = tensor_koszul_presented(K, X)
    G = hom_into_presented(res, target)
    nonzero = [i for i in range(window + 1)
               if not presented_homology(G, -i).is_zero]
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
    from .linalg import lift_context, smith_data, _grid_to_matrix, _is_unit, _payload_grid
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
    g = M.gens
    xI = Matrix.identity(R, g).scale(x)
    V = kernel_basis(R, xI.hstack(M.relations))
    V = V.submatrix(range(g), range(V.cols)) if V.cols else Matrix.zeros(R, g, 0)
    tor1 = subquotient(R, V.hstack(M.relations), M.relations)
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
