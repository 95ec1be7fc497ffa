"""The Koszul complex on a sequence as an explicit DG algebra.

Basis convention: degree-n basis vectors are the size-n subsets of
{1..e}, each subset stored as a sorted tuple and subsets ordered
lexicographically within a degree.  The empty subset is the unit.
The differential takes e_S to the alternating sum of a_{s_j} e_{S - s_j};
products carry the shuffle sign (-1)^{#inversions}.  Any convention
satisfying the DG axioms is admissible; this one is fixed so every
matrix below is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .complexes import ChainComplex
from .dgmodules import AxiomReport, AxiomResult, DGModule, _first_failure, verify_dg_module
from .errors import MixedRings
from .matrices import Matrix, vanishes


def subsets_by_degree(e):
    """Degree n -> list of sorted index tuples, lexicographic inside a degree."""
    table = {}
    for n in range(e + 1):
        table[n] = sorted(itertools.combinations(range(1, e + 1), n))
    return table


def shuffle_sign(S, T):
    """(-1)^{#{(s,t) in S x T : s > t}}; None when S and T meet."""
    if set(S) & set(T):
        return None
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1


class KoszulAlgebra:
    """Exterior-algebra data for a sequence: differential and all
    multiplication matrices, verified at construction."""

    def __init__(self, ring, elements):
        self.ring = ring
        self.elements = tuple(elements)
        for a in self.elements:
            if a.ring != ring:
                raise MixedRings("sequence entries must live in the given ring")
        self.e = len(self.elements)
        self.basis = subsets_by_degree(self.e)
        self.index = {S: i for n in self.basis for i, S in enumerate(self.basis[n])}
        self.complex = self._build_complex()
        self.mult = self._build_mult()

    # -- structure constants -------------------------------------------------

    def diff_of_basis(self, S):
        """d(e_S) as [(coefficient, subset)] with the alternating sign."""
        out = []
        for j, s in enumerate(S):
            coeff = self.elements[s - 1]
            if j % 2 == 1:
                coeff = -coeff
            out.append((coeff, tuple(x for x in S if x != s)))
        return out

    def product_of_basis(self, S, T):
        """e_S * e_T as (sign, subset) or None when the product vanishes."""
        sign = shuffle_sign(S, T)
        if sign is None:
            return None
        return sign, tuple(sorted(set(S) | set(T)))

    # -- matrices ---------------------------------------------------------------

    def _build_complex(self):
        ring = self.ring
        ranks = {n: len(self.basis[n]) for n in range(self.e + 1)}
        diffs = {}
        for n in range(1, self.e + 1):
            entries = [(self.index[S2], j, coeff.payload)
                       for j, S in enumerate(self.basis[n])
                       for coeff, S2 in self.diff_of_basis(S)]
            diffs[n] = Matrix.from_entries(ring, ranks[n - 1], ranks[n], entries)
        return ChainComplex(ring, ranks, diffs)

    def _build_mult(self):
        """mult[h][n]: the matrix of e_h * (-) from degree n to n + |h|.

        e_H * e_S vanishes unless S avoids H, so only those S are visited;
        the shuffle sign counts, for each s in S, the elements of H above s.
        """
        ring = self.ring
        signed_one = (ring.one_payload, ring.neg_payload(ring.one_payload))
        mult = {}
        for h_deg in range(self.e + 1):
            for H in self.basis[h_deg]:
                rest = [s for s in range(1, self.e + 1) if s not in H]
                above = {s: sum(1 for h in H if h > s) for s in rest}
                per_degree = {}
                for n in range(0, self.e - h_deg + 1):
                    entries = [(self.index[tuple(sorted(H + S))], self.index[S],
                                signed_one[sum(above[s] for s in S) % 2])
                               for S in itertools.combinations(rest, n)]
                    per_degree[n] = Matrix.from_entries(
                        ring, len(self.basis[n + h_deg]), len(self.basis[n]), entries)
                mult[H] = per_degree
        return mult

    def mult_matrix(self, H, n):
        per = self.mult.get(tuple(H))
        if per is None or n not in per:
            rows = len(self.basis.get(n + len(H), []))
            cols = len(self.basis.get(n, []))
            return Matrix.zeros(self.ring, rows, cols)
        return per[n]

    def degree_rank(self, n):
        return len(self.basis.get(n, []))

    @cached_property
    def axioms(self):
        """This algebra's axiom report, computed on first use and kept."""
        return verify_dga(self)

    def __repr__(self):
        seq = ", ".join(repr(a) for a in self.elements)
        return f"Koszul({self.ring}; {seq})"


def koszul(ring, elements):
    """Koszul DG algebra on a sequence; e = 0 gives the unit algebra."""
    elems = [ring.from_int(a) if isinstance(a, int) else a for a in elements]
    K = KoszulAlgebra(ring, elems)
    if not K.axioms.ok:
        raise ArithmeticError(f"internal DG axiom failure: {K.axioms.failures()}")
    return K


# ---------------------------------------------------------------------------
# axiom verification


def verify_dga(K, mult_override=None):
    """Check the DG algebra axioms on the finite basis.

    Unitality, associativity and Leibniz are the DG module axioms of K
    acting on itself (verify_dg_module).  Associativity is decided on the
    presentation of the exterior algebra: rho(e_i) rho(e_j) = rho(e_i e_j)
    for every pair of generators, and rho(e_U) = rho(e_min U) rho(e_U') for
    |U| >= 3.  Those identities imply every product identity and give the
    report a check of all of them would; Leibniz is checked for |H| <= 1.
    d^2 = 0 is read off the differentials.

    Write rho(e_G) for the stored multiplication by e_G.  Graded
    commutativity, rho(e_G) rho(e_H) = (-1)^(|G||H|) rho(e_H) rho(e_G), and
    odd squares, rho(e_S) rho(e_S) = 0 for |S| odd, are maps from each
    degree n.  When associativity holds they need no product: then
    rho(e_G) rho(e_H) = rho(e_G e_H) for every pair, as verify_dg_module
    shows from the pairs it checked, with unitality or without, and
    e_G e_H = (-1)^(|G||H|) e_H e_G and e_S e_S = 0 in the structure
    constants.  When associativity fails, both are checked on every pair of
    basis elements, in basis order, as a check of every identity would.
    The pair (e_H, e_G) with H after G is the identity of (e_G, e_H), which
    comes first, so only the pairs with G not after H are formed and the
    first failure is the same.

    Every call checks afresh; K.axioms keeps one report per algebra.
    `mult_override` substitutes the multiplication matrices (used by tests
    to plant errors); everything else reads from K.
    """
    mult = mult_override if mult_override is not None else K.mult
    action = DGModule(K, K.complex, mult)
    unitality, associativity, leibniz = verify_dg_module(action).results
    ring, rank, rho = K.ring, K.degree_rank, action.action_matrix
    one = ring.one_payload

    ok, ce = True, ""
    for n in range(1, K.e + 1):
        d_in, d_out = K.complex.diff(n - 1), K.complex.diff(n)
        if not vanishes(ring, d_in.rows, d_out.cols, [(one, d_in, d_out)]):
            ok, ce = False, f"degree {n}"
            break
    d_squared = AxiomResult("d_squared_zero", ok, ce)

    # when associativity holds, every product is the stored rho of its
    # structure constant, and those commute and square as the identities say
    basis = [] if associativity.ok else [S for d in K.basis.values() for S in d]

    def commuting():
        for k, G in enumerate(basis):
            for H in basis[k:]:  # (e_H, e_G) is the identity of (e_G, e_H)
                # rho(e_G) rho(e_H) - (-1)^(|G||H|) rho(e_H) rho(e_G) = 0
                c = one if len(G) * len(H) % 2 else ring.neg_payload(one)
                for n in range(K.e + 1 - len(G) - len(H)):
                    if not vanishes(ring, rank(n + len(G) + len(H)), rank(n), [
                            (one, rho(G, n + len(H)), rho(H, n)),
                            (c, rho(H, n + len(G)), rho(G, n))]):
                        yield f"e_{G}, e_{H} at degree {n}"

    def squares_zero():
        for S in [S for S in basis if len(S) % 2]:
            for n in range(K.e + 1 - 2 * len(S)):
                if not vanishes(ring, rank(n + 2 * len(S)), rank(n),
                                [(one, rho(S, n + len(S)), rho(S, n))]):
                    yield f"e_{S} at degree {n}"

    commutativity = _first_failure("graded_commutativity", commuting())
    odd_squares = _first_failure("odd_squares_zero", squares_zero())
    return AxiomReport([d_squared, unitality, associativity, commutativity,
                        odd_squares, leibniz])


# ---------------------------------------------------------------------------
# base change


def koszul_base_change(hom, K):
    """The Koszul algebra on the image sequence over the target ring."""
    return koszul(hom.target, [hom(a) for a in K.elements])
