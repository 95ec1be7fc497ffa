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
from .matrices import _EMPTY, Matrix, vanishes


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
        # the structure matrices are written from subset bitmasks: S is the
        # mask with bit s - 1 set for each s in S, and where[mask] is the
        # subset's index inside its degree
        masks = [sum(1 << (s - 1) for s in S) for S in self.index]
        where = [0] * (1 << self.e)
        for m, i in zip(masks, self.index.values()):
            where[m] = i
        self.complex = self._build_complex(masks, where)
        self.mult = self._build_mult(masks, where)

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

    def _build_complex(self, masks, where):
        """The differentials, each row written in place with no sort.

        Row T of d_n holds, for each s outside T in increasing order, the
        entry (-1)^j a_s at the column of T + s, where j counts the elements
        of T below s; the columns increase with s, since the lexicographic
        order of T + s does.  A zero a_s gives no entry.
        """
        ring, e = self.ring, self.e
        signed = [(a.payload, ring.neg_payload(a.payload)) for a in self.elements]
        ranks = {n: len(self.basis[n]) for n in range(e + 1)}
        rows = {n: [] for n in range(1, e + 1)}
        for t in masks[:-1]:  # every subset but the full one, by degree
            cols, vals = [], []
            for s, (a, minus_a) in enumerate(signed):
                if a and not t >> s & 1:
                    cols.append(where[t | 1 << s])
                    vals.append(minus_a if (t & ((1 << s) - 1)).bit_count() & 1 else a)
            rows[t.bit_count() + 1].append((tuple(cols), tuple(vals)))
        diffs = {n: Matrix(ring, ranks[n - 1], ranks[n], tuple(r)) for n, r in rows.items()}
        return ChainComplex(ring, ranks, diffs)

    def _build_mult(self, masks, where):
        """mult[h][n]: the matrix of e_h * (-) from degree n to n + |h|, a
        signed partial permutation written row by row from subset bitmasks.

        Row U of mult[H][n] has one entry exactly when U contains H: at the
        column of S = U - H, the shuffle sign of e_H e_S.  That sign counts,
        for each s in S, the elements of H above s, so it is (-1)^|S & W|
        for the mask W of the positions with an odd number of elements of H
        above them.  Only the S that avoid H are visited, as the submasks of
        the complement of H; each fills its row in place, with no sort.
        """
        ring, e = self.ring, self.e
        one = ring.one_payload
        signed = ((one,), (ring.neg_payload(one),))
        rank = [len(self.basis[n]) for n in range(e + 1)]
        column = [(i,) for i in where]
        mult = {}
        for H, h in zip(self.index, masks):
            h_deg, rest = len(H), (1 << e) - 1 - h
            W = sum(1 << b for b in range(e) if (h >> b + 1).bit_count() & 1)
            table = [[_EMPTY] * rank[n + h_deg] for n in range(e - h_deg + 1)]
            S = rest
            while True:  # every submask S of rest, rest itself first
                table[S.bit_count()][where[S | h]] = (
                    column[S], signed[(S & W).bit_count() & 1])
                if not S:
                    break
                S = (S - 1) & rest
            mult[H] = {n: Matrix(ring, len(rows), rank[n], tuple(rows))
                       for n, rows in enumerate(table)}
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
