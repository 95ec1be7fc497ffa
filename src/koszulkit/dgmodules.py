"""DG modules over a Koszul algebra.

A DG module stores one action matrix per algebra basis element per degree,
although the actions of the generators e_1, ..., e_e determine the rest.
Every structure matrix is a stored artifact, and verification compares each
one of degree >= 2 with a product of generator actions.  The Koszul
algebra's multiplication is the exterior algebra on e_1, ..., e_e, which is
presented by generators that anticommute and square to zero.  So
associativity is decided on that presentation (see `verify_dg_module`):
rho(e_g) rho(e_h) for every pair of generators, and one factorisation
rho(e_U) = rho(e_min U) rho(e_(U - min U)) of each stored rho(e_U) with
|U| >= 3.  A pass then compares 2^e - 1 + e(e - 1)/2 pairs of basis
elements, one identity per pair and degree, instead of the e * 2^e pairs
with |G| = 1 that also suffice, or the 4^e of every identity.  Each
identity is one call of the check kernel `matrices.vanishes` on its
difference, which builds no product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .complexes import tensor, tensor_layout
from .errors import MixedRings
from .matrices import Matrix, vanishes


@dataclass
class AxiomResult:
    name: str
    ok: bool
    counterexample: str = ""


@dataclass
class AxiomReport:
    """Axiom results in check order; shared by DG algebras and DG modules."""

    results: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.ok]

    def lines(self):
        out = []
        for r in self.results:
            status = "ok" if r.ok else f"FAIL {r.counterexample}"
            out.append(f"{r.name}: {status}")
        return out


class DGModule:
    """A complex with a Koszul-algebra action given by explicit matrices."""

    def __init__(self, algebra, underlying, action):
        if algebra.ring != underlying.ring:
            raise MixedRings("algebra and underlying complex over different rings")
        self.algebra = algebra
        self.underlying = underlying
        # action[H][n]: underlying_n -> underlying_{n + |H|}
        self.action = action

    def action_matrix(self, H, n):
        H = tuple(H)
        per = self.action.get(H)
        m = per.get(n) if per else None
        if m is None:
            return Matrix.zeros(self.underlying.ring,
                                self.underlying.rank(n + len(H)),
                                self.underlying.rank(n))
        return m

    @cached_property
    def axioms(self):
        """This module's axiom report, computed on first use and kept."""
        return verify_dg_module(self)

    def ring(self):
        return self.underlying.ring

    def __repr__(self):
        return f"DGModule({self.algebra!r}, {self.underlying!r})"


def _summands(K, M, n):
    """The summands K_{n-p} (x) M_p of (K (x) M)_n, p ascending over M's
    support, as (n - p, rank K_{n-p}, rank M_p, offset) with zero-width
    summands kept, so the summands of two degrees pair up by position."""
    out, at = [], 0
    for p, kp, mp in tensor_layout(K.complex, M, n):
        out.append((n - p, kp, mp, at))
        at += kp * mp
    return out, at


def _action(K, H, source, target):
    """Multiplication by e_H from the degree whose `_summands` are `source`
    to the one |H| above, `target`: block-diagonal, with the block
    mult(e_H from K_k) (x) I on each summand K_k (x) M_p."""
    (src, cols), (tgt, rows) = source, target
    blocks = [(r0, c0, K.mult_matrix(H, k), mp, False)
              for (k, kp, mp, c0), (_, kq, _, r0) in zip(src, tgt) if kp and mp and kq]
    return Matrix.from_kron_blocks(K.ring, rows, cols, blocks)


def extension_action(K, M, H, n):
    """Multiplication by e_H on K (x) M, from degree n to degree n + |H|;
    `extend` builds every action through the same blocks."""
    return _action(K, H, _summands(K, M, n), _summands(K, M, n + len(H)))


def extend(K, M):
    """The extension K (x) M with action e_h . (u (x) x) = (e_h u) (x) x:
    each degree's summand offsets are computed once, and every action
    between nonzero degrees is gathered from them as in `extension_action`."""
    if K.ring != M.ring:
        raise MixedRings("extend over different rings")
    under = tensor(K.complex, M)
    summands = {n: _summands(K, M, n) for n in under.degrees() if under.rank(n)}
    action = {}
    for H in (S for d in K.basis.values() for S in d):
        h = len(H)
        action[H] = {n: _action(K, H, at, summands[n + h])
                     for n, at in summands.items() if n + h in summands}
    D = DGModule(K, under, action)
    if not D.axioms.ok:
        raise ArithmeticError(f"extension failed its own axioms: {D.axioms.failures()}")
    return D


def verify_dg_module(D):
    """Unitality, associativity and Leibniz, checked on identities that
    imply all the others.

    Write rho(a) for the action of a and rho_n(a) for its matrix from
    degree n.  The axioms are rho(e_()) = 1; the identity
    rho(e_G) rho(e_H) = rho(e_G e_H) for every basis pair (G, H); and
    d rho(e_H) - (-1)^|H| rho(e_H) d = rho(d e_H) for every H.  Each is an
    equality of graded maps, one matrix per degree, decided as the
    vanishing of the difference of its sides (`matrices.vanishes`).  When unitality holds,
    associativity is checked on the presentation of the exterior algebra:

    (P1) rho(e_g) rho(e_h) = rho(e_g e_h) for all generators g and h, that
         is rho(e_(g,h)) for g < h, -rho(e_(h,g)) for g > h and 0 for g = h;
    (P2) rho(e_u) rho(e_U') = rho(e_U) for each U with |U| >= 3, where
         u = min U and U' = U - u.

    These imply every pair, degree by degree.  For a word w = w_1 ... w_k of
    generators let P_n(w) = rho_{n+k-1}(e_w1) ... rho_n(e_wk), and P_n() = 1.

    1. rho_n(e_U) = P_n(u_1 ... u_k) for U = {u_1 < ... < u_k} and every n,
       by induction on k.  For k = 0 it is unitality, k = 1 is the
       definition, k = 2 is (P1) with g < h at degree n, and for k >= 3
       (P2) at degree n gives rho_n(e_U) = rho_{n+k-1}(e_u1) rho_n(e_U'),
       where rho_n(e_U') = P_n(u_2 ... u_k) by induction.
    2. Swapping two adjacent distinct letters a, b of a word negates P_n:
       at the degree m where they act, (P1) for (a, b) and for (b, a) gives
       rho_{m+1}(e_a) rho_m(e_b) = -rho_{m+1}(e_b) rho_m(e_a), both being
       plus or minus rho_m(e_(a,b)) with opposite signs.  A word with a
       repeated letter has P_n = 0: swaps bring the two copies together,
       and rho_{m+1}(e_a) rho_m(e_a) = 0 by (P1) for (a, a).
    3. By step 1 at degrees n + |H| and n, rho_{n+|H|}(e_G) rho_n(e_H) is
       P_n of the word G followed by H.  If G and H meet it is 0, and
       e_G e_H = 0.  Otherwise sorting the word takes one adjacent swap per
       pair (g, h) in G x H with g > h, so by step 2 it is the shuffle sign
       times P_n of the sorted word, which is rho_n(e_(G u H)) by step 1:
       the structure constant of e_G e_H.

    A degree of rank 0 changes nothing: an identity whose matrices have no
    rows or no columns holds vacuously and is skipped.  The presentation
    has 2^e - 1 + e(e - 1)/2 pairs, against e 2^e pairs (G, H) with |G| = 1.

    The report is the one a check of every identity gives, counterexamples
    included.  When the presentation holds, every identity holds.  When it
    fails, or unitality fails, associativity runs over the pairs (G, H)
    with |G| = 1 (|G| <= 1 when unitality fails) and every H, to name the
    first failure.  Those pairs imply the rest: for |G| >= 2 let g = min G
    and G' = G - g; e_G = e_g e_G' has shuffle sign +1, so
    rho(e_G) = rho(e_g) rho(e_G') is a checked identity, and by induction
    on |G| rho(e_G) rho(e_H) = rho(e_g) rho(e_G' e_H) = rho(e_G e_H).  The
    basis runs by degree, so past the identities that hold by unitality
    the checked pairs are a prefix of the loop over all of them, and a
    failing identity implies a failing one in that prefix: the first
    failure is the same.

    Leibniz is checked for |H| <= 1 when associativity held, for every H
    when not; with rho(e_()) = 1 the H = () identity holds by itself.
    Given associativity, both sides of Leibniz are derivations, so Leibniz
    for e_g and e_H' gives it for e_g e_H'; that step uses the G = ()
    identity rho(e_()) rho = rho on rho(d e_g) rho(e_H') = a_g rho(e_H').

    The pass reads ranks, differentials and actions from tables local to
    the call; an action that is not stored is the zero matrix, made once.
    Every call checks afresh; D.axioms keeps one report per module.
    """
    K = D.algebra
    under = D.underlying
    ring = under.ring
    one = ring.one_payload
    neg = ring.neg_payload
    minus_one = neg(one)
    degrees = [n for n in under.degrees() if under.rank(n)]
    basis = [S for d in K.basis.values() for S in d]  # by degree
    generators = [S for S in basis if len(S) <= 1]    # a prefix of basis
    # local tables: every rank and differential a check reads, and the
    # actions of each H by degree, a zero matrix kept where none is stored
    lo, hi = (degrees[0], degrees[-1]) if degrees else (0, -1)
    rank = {n: under.rank(n) for n in range(lo - 1, hi + K.e + 2)}
    diff = {n: under.diff(n) for n in range(lo, hi + 2)}
    acts = {H: dict(D.action.get(H) or ()) for H in basis}

    def absent(H, n):
        m = acts[H][n] = D.action_matrix(H, n)
        return m

    def unitality():
        unit = acts[()]
        for n in degrees:
            if (unit.get(n) or absent((), n)) != Matrix.identity(ring, rank[n]):
                yield f"degree {n}"

    def associativity(pairs):
        for G, H in pairs:
            g, h = len(G), len(H)
            rho_G, rho_H = acts[G], acts[H]
            prod = K.product_of_basis(G, H)
            if prod is not None:
                sign, U = prod
                c, rho_U = (minus_one if sign == 1 else one), acts[U]
            for n in degrees:
                top = rank[n + g + h]
                if not top:
                    continue
                # rho(e_G) rho(e_H) - sign rho(e_U) = 0, for e_G e_H = sign e_U
                terms = [(one, rho_G.get(n + h) or absent(G, n + h),
                          rho_H.get(n) or absent(H, n))]
                if prod is not None:
                    terms.append((c, rho_U.get(n) or absent(U, n), None))
                if not vanishes(ring, top, rank[n], terms):
                    yield f"e_{G} . e_{H} at degree {n}"

    def leibniz(elements):
        for H in elements:
            h = len(H)
            rho_H = acts[H]
            # d rho(e_H) - (-1)^|H| rho(e_H) d - rho(d e_H) = 0
            minus_sign = minus_one if h % 2 == 0 else one
            d_terms = [(neg(ring.unbox(coeff)), H2) for coeff, H2 in K.diff_of_basis(H)]
            for n in degrees:
                top = rank[n + h - 1]
                if not top:
                    continue
                terms = [(one, diff[n + h], rho_H.get(n) or absent(H, n)),
                         (minus_sign, rho_H.get(n - 1) or absent(H, n - 1), diff[n])]
                terms += [(c, acts[H2].get(n) or absent(H2, n), None) for c, H2 in d_terms]
                if not vanishes(ring, top, rank[n], terms):
                    yield f"e_{H} at degree {n}"

    unit = _first_failure("unitality", unitality())
    presented = False
    if unit.ok:
        generators = generators[1:]
        presentation = [(g, h) for g in generators for h in generators]
        presentation += [(U[:1], U[1:]) for U in basis if len(U) >= 3]
        presented = next(associativity(presentation), None) is None
    # past a failed presentation, the pairs with |G| <= 1 name the first failure
    pairs = [] if presented else [(G, H) for G in generators for H in basis]
    assoc = _first_failure("associativity", associativity(pairs))
    return AxiomReport([unit, assoc, _first_failure(
        "leibniz", leibniz(generators if assoc.ok else basis))])


def _first_failure(name, counterexamples):
    """The result of an axiom whose failing instances `counterexamples`
    yields in check order: it holds when there are none."""
    ce = next(counterexamples, None)
    return AxiomResult(name, ce is None, ce or "")


def is_k_linear(phi, source_dg, target_dg):
    """Do the action squares commute with phi in every degree and basis element."""
    K = source_dg.algebra
    if target_dg.algebra is not K and target_dg.algebra.elements != K.elements:
        raise MixedRings("DG modules over different algebras")
    ring = phi.source.ring
    one = ring.one_payload
    minus_one = ring.neg_payload(one)
    for H in (S for d in K.basis.values() for S in d):
        h = len(H)
        for n in set(source_dg.underlying.degrees()) | set(target_dg.underlying.degrees()):
            # phi rho(e_H) - rho(e_H) phi = 0
            if not vanishes(ring, phi.target.rank(n + h), phi.source.rank(n), [
                    (one, phi.component(n + h), source_dg.action_matrix(H, n)),
                    (minus_one, target_dg.action_matrix(H, n), phi.component(n))]):
                return False
    return True
