"""DG modules over a Koszul algebra.

A DG module stores one action matrix per algebra basis element per degree,
although the actions of the generators e_1, ..., e_e determine the rest.
Every structure matrix is a stored artifact, and verification compares each
one of degree >= 2 with a product of generator actions.  It checks the
identities of the generators only, which over an exterior algebra imply
every product identity (see `verify_dg_module`), so a pass makes about
e * 2^e matrix products instead of 4^e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .complexes import ChainMap, tensor, tensor_layout
from .errors import MixedRings
from .matrices import Matrix


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


def extension_action(K, M, H, n):
    """Multiplication by e_H on K (x) M, from degree n to degree n + |H|.

    On the summand K_{n-p} (x) M_p it is the algebra's multiplication
    matrix (x) the identity; the action is block-diagonal over summands.
    """
    h = len(H)
    src = tensor_layout(K.complex, M, n)
    tgt = tensor_layout(K.complex, M, n + h)
    blocks = {}
    for k, (p, kp, mp) in enumerate(src):
        if kp and mp and K.degree_rank(n - p + h):
            blocks[k, k] = K.mult_matrix(H, n - p).kron(Matrix.identity(K.ring, mp))
    return Matrix.from_blocks(K.ring, [a * b for _, a, b in tgt],
                              [a * b for _, a, b in src], blocks)


def extend(K, M):
    """The extension K (x) M with action e_h . (u (x) x) = (e_h u) (x) x."""
    if K.ring != M.ring:
        raise MixedRings("extend over different rings")
    under = tensor(K.complex, M)
    action = {}
    for H in (S for d in K.basis.values() for S in d):
        action[H] = {n: extension_action(K, M, H, n) for n in under.degrees()
                     if under.rank(n) and under.rank(n + len(H))}
    D = DGModule(K, under, action)
    if not D.axioms.ok:
        raise ArithmeticError(f"extension failed its own axioms: {D.axioms.failures()}")
    return D


def verify_dg_module(D):
    """Unitality, associativity and Leibniz, checked on the identities that
    imply all the others.

    Write rho(a) for the action of a.  The axioms are rho(e_()) = 1; the
    identity rho(e_G) rho(e_H) = rho(e_G e_H) for every basis pair (G, H);
    and d rho(e_H) - (-1)^|H| rho(e_H) d = rho(d e_H) for every H.  Each is
    an equality of graded maps, one matrix per degree.  Checked are:

    - associativity for |G| <= 1, against every H;
    - Leibniz for |H| <= 1 when associativity held, for every H when not;
    - neither for G = () or H = () when unitality held: with rho(e_()) = 1
      those identities hold by themselves.

    These suffice.  For |G| >= 2 let g = min G and G' = G - g: the product
    e_G = e_g e_G' has shuffle sign +1, so rho(e_G) = rho(e_g) rho(e_G') is
    a checked identity, and by induction on |G|
    rho(e_G) rho(e_H) = rho(e_g) rho(e_G' e_H) = rho(e_G e_H).  Given
    associativity, both sides of Leibniz are derivations, so Leibniz for
    e_g and e_H' gives it for e_g e_H'; that step uses the G = () identity
    rho(e_()) rho = rho on rho(d e_g) rho(e_H') = a_g rho(e_H').  A degree
    of rank 0 in between changes nothing, since the maps are graded.  Every
    stored rho(e_G) with |G| >= 2 is still compared with a product.

    The report is the one a check of every identity gives, counterexamples
    included.  The basis runs by degree, so past the identities that hold
    by unitality the checked ones are a prefix of the loop over all of
    them, and a failing identity implies a failing one in that prefix: the
    first failure is the same.

    Every call checks afresh; D.axioms keeps one report per module.  An
    identity whose matrices have no rows or no columns holds vacuously and
    is skipped.
    """
    K = D.algebra
    under = D.underlying
    ring = under.ring
    degrees = [n for n in under.degrees() if under.rank(n)]
    basis = [S for d in K.basis.values() for S in d]  # by degree
    generators = [S for S in basis if len(S) <= 1]    # a prefix of basis

    def unitality():
        for n in degrees:
            if D.action_matrix((), n) != Matrix.identity(ring, under.rank(n)):
                yield f"degree {n}"

    def associativity(elements):
        for G in elements:
            for H in basis:
                prod = K.product_of_basis(G, H)
                for n in degrees:
                    if not under.rank(n + len(G) + len(H)):
                        continue
                    lhs = D.action_matrix(G, n + len(H)) * D.action_matrix(H, n)
                    if prod is None:
                        ok = lhs.is_zero()
                    else:
                        sign, U = prod
                        rhs = D.action_matrix(U, n)
                        ok = lhs == (rhs if sign == 1 else -rhs)
                    if not ok:
                        yield f"e_{G} . e_{H} at degree {n}"

    def leibniz(elements):
        for H in elements:
            h = len(H)
            sign = ring.one if h % 2 == 0 else -ring.one
            for n in degrees:
                if not under.rank(n + h - 1):
                    continue
                # d rho(e_H) = sign rho(e_H) d + rho(d e_H), with no subtraction
                lhs = under.diff(n + h) * D.action_matrix(H, n)
                rhs = D.action_matrix(H, n - 1).scale(sign) * under.diff(n)
                for coeff, H2 in K.diff_of_basis(H):
                    rhs = rhs + D.action_matrix(H2, n).scale(coeff)
                if lhs != rhs:
                    yield f"e_{H} at degree {n}"

    unit = _first_failure("unitality", unitality())
    if unit.ok:
        generators = generators[1:]
    assoc = _first_failure("associativity", associativity(generators))
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
    for H in (S for d in K.basis.values() for S in d):
        h = len(H)
        for n in set(source_dg.underlying.degrees()) | set(target_dg.underlying.degrees()):
            lhs = phi.component(n + h) * source_dg.action_matrix(H, n)
            rhs = target_dg.action_matrix(H, n) * phi.component(n)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# adjunction between complex maps M -> N and K-linear maps K (x) M -> N


@dataclass
class AdjunctionTransport:
    """forward: psi (M -> underlying N) to the K-linear extension; backward:
    restrict along the unit summand 1 (x) M.  backward . forward = id always;
    forward . backward = id exactly on K-linear maps."""

    K: object
    M: object
    N: object

    def forward(self, psi):
        K, M, N = self.K, self.M, self.N
        ext = tensor(K.complex, M)
        block = lambda H, p: N.action_matrix(H, p) * psi.component(p)
        comps = {n: _summand_columns(K, M, n, N.underlying.rank(n), block)
                 for n in ext.degrees()}
        return ChainMap(ext, N.underlying, comps)

    def backward(self, Phi):
        K, M = self.K, self.M
        comps = {}
        for n in M.support:
            src = tensor_layout(K.complex, M, n)
            offset = 0
            sliced = None
            for (p, mrank, prank) in src:
                width = mrank * prank
                if p == n and width:
                    sliced = Phi.component(n).submatrix(
                        range(Phi.component(n).rows), range(offset, offset + width))
                offset += width
            if sliced is not None:
                comps[n] = sliced
        return ChainMap(M, Phi.target, comps)


def adjunction_transport(K, M, N):
    """Correspondence object for maps M -> N.underlying vs K (x) M -> N."""
    return AdjunctionTransport(K, M, N)


def unit_map(K, M):
    """The chain map M -> K (x) M embedding into the unit summand."""
    ext = tensor(K.complex, M)
    ring = K.ring
    comps = {}
    for n in M.support:
        rows = ext.rank(n)
        cols = M.rank(n)
        if rows == 0 or cols == 0:
            continue
        offset = 0
        grid_rows = [[ring.zero] * cols for _ in range(rows)]
        for (p, mrank, prank) in tensor_layout(K.complex, M, n):
            width = mrank * prank
            if p == n and width:
                # the unit basis vector of K_0 is first in its summand
                for i in range(cols):
                    grid_rows[offset + i][i] = ring.one
            offset += width
        comps[n] = Matrix.from_rows(ring, grid_rows)
    return ChainMap(M, ext, comps)


def multiplication_map(K, D):
    """The action K (x) D.underlying -> D.underlying as a chain map.

    Columns over the summand K_{n-p} (x) D_p send the (H, x) basis vector
    to the action of e_H on x.
    """
    M = D.underlying
    ext = tensor(K.complex, M)
    comps = {n: _summand_columns(K, M, n, M.rank(n), D.action_matrix)
             for n in ext.degrees()}
    return ChainMap(ext, M, comps)


def _summand_columns(K, M, n, height, block):
    """A map out of (K (x) M)_n, given on e_H (x) M_p by block(H, p)."""
    pieces = [(H, p) for p, kp, mp in tensor_layout(K.complex, M, n) if kp and mp
              for H in K.basis[n - p]]
    return Matrix.from_blocks(K.ring, [height], [M.rank(p) for _, p in pieces],
                              {(0, j): block(H, p) for j, (H, p) in enumerate(pieces)})
