"""Descent equation systems for Koszul extensions.

Given a Koszul algebra K on e elements and a minimal bounded complex P on
degrees 0..m, four polynomial systems over the coefficient ring describe
exactly the data of a complex A of the same shape together with a K-linear
quasiisomorphism from the given DG module onto K (x) A:

  S1  square-zero equations for the candidate differential (X variables),
  S2  the chain-map equations for the comparison map (Y variables),
  S3  K-linearity of the comparison map in every basis element,
  S4  a contracting homotopy of the mapping cone (Z variables), with the
      Kronecker delta as constant term.

Solutions are verified by pure evaluation over any ring tier; a verified
solution reconstructs the descended complex with an independently
re-checked certificate.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .complexes import (
    ChainComplex, ChainMap, Homotopy, augment_by_resolution, cone, homology,
    is_chain_map, is_contraction, is_minimal, tensor, tensor_differential,
)
from .dgmodules import (
    DGModule, extend, extension_action, is_k_linear,
)
from .errors import (
    CapabilityMissing, ElementSyntaxError, FormatError, IncompleteAssignment,
    MixedRings, NonCanonicalHarness, RankMismatch, ShapeMismatch, UnknownVariable,
    UnverifiedDGModule, VerificationFailed, WindowViolated,
)
from .koszul import koszul_base_change
from .linalg import has_linear_solve
from .matrices import Matrix
from .rings import RingHom, _join_signed, _signed_terms, parse_element


class SystemVariable(NamedTuple):
    """A system variable.  Its tuple order (family "X" < "Y" < "Z", then
    n, i, j as integers) is the canonical order of variables in monomials,
    variable lists and files."""

    family: str   # "X" | "Y" | "Z"
    n: int
    i: int        # 1-based row index
    j: int        # 1-based column index

    def token(self):
        return f"{self.family}_{self.n}_{self.i}_{self.j}"


# ---------------------------------------------------------------------------
# polynomials in system variables


class VarPoly:
    """Fully expanded polynomial in system variables over a base ring.

    `terms` maps each monomial, a sorted tuple of variables, to its nonzero
    coefficient, a payload of `ring` computed on through the ring's payload
    protocol.  No simplification happens beyond coefficient normal forms, so
    serialized systems are byte-stable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @classmethod
    def constant(cls, ring, c):
        """The constant polynomial with coefficient payload c."""
        return cls(ring, {(): c} if c else {})

    @classmethod
    def variable(cls, ring, var):
        return cls(ring, {(var,): ring.one_payload})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        add = self.ring.add_payload
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            s = c if s is None else add(s, c)
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return VarPoly(self.ring, terms)

    def __neg__(self):
        neg = self.ring.neg_payload
        return VarPoly(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        add, mul = self.ring.add_payload, self.ring.mul_payload
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = mul(c1, c2)
                if not c:
                    continue
                mono = tuple(sorted(m1 + m2))
                s = terms.get(mono)
                s = c if s is None else add(s, c)
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return VarPoly(self.ring, terms)

    def __eq__(self, other):
        if not isinstance(other, VarPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self):
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_order)

    def __repr__(self):
        return format_varpoly(self)


# The term grammar of descent polynomials.  A polynomial is 0 or signed
# terms joined as in the element grammar (`a + b - c`).  A term is a ring
# term, an element of the base ring with one monomial, times at most two
# variable tokens X_n_i_j, Y_n_i_j, Z_n_i_j, all joined by "*"; a
# coefficient 1 is left out.  A coefficient with several monomials prints
# as one term per monomial, so every term parses on its own.

_VAR_TOKEN = re.compile(r"[XYZ]_\d+_\d+_\d+")
_SIGN = re.compile(r"\s*([+-])\s*")


def _term_order(term):
    """Degree-descending, then the variables' order: the order of terms in
    the text of a polynomial."""
    return -len(term[0]), term[0]


def format_varpoly(poly):
    """Canonical text in the term grammar: degree-descending terms, one per
    monomial of each coefficient, joined as `format_element` joins the
    terms of an element."""
    return _varpoly_printer(poly.ring)(poly)


class _Tokens(dict):
    """Variable -> token text, each token formatted on first use."""

    def __missing__(self, v):
        text = self[v] = v.token()
        return text


def _varpoly_printer(ring):
    """`format_varpoly` for polynomials over `ring`.  The printer formats
    each distinct coefficient payload and each variable token once; its
    caches live as long as the printer, say one `save_system` call."""
    coeff_parts, tokens = {}, _Tokens()

    def fmt(poly):
        terms = poly.terms
        if not terms:
            return "0"
        parts = []
        for mono, c in poly.sorted_terms() if len(terms) > 1 else terms.items():
            factors = "*".join(map(tokens.__getitem__, mono))
            signed = coeff_parts.get(c)
            if signed is None:
                # (sign, the term without variables, the prefix before them)
                signed = coeff_parts[c] = [
                    (sign, body, "" if body == "1" else f"{body}*")
                    for sign, body in _signed_terms(ring, c)]
            for sign, body, prefix in signed:
                parts.append((sign, prefix + factors if factors else body))
        return _join_signed(parts)

    return fmt


def _ring_term(ring, text):
    """The payload of a ring term (no variable token may appear in it)."""
    for factor in text.split("*"):
        if _VAR_TOKEN.fullmatch(factor):
            raise FormatError(f"variable {factor} is outside the system's shape "
                              "or comes before a ring factor")
    try:
        return parse_element(ring, text).payload
    except (ElementSyntaxError, UnknownVariable) as exc:
        raise FormatError(f"bad ring term {text!r}: {exc}") from None


def _varpoly_from_text(ring, text, var_of, ring_terms):
    """The VarPoly written as `text` in the term grammar; any other text,
    or a variable token not in `var_of`, is a FormatError.

    `var_of` maps each variable token of the shape to its variable and
    `ring_terms` memoizes ring-term payloads by their text.
    """
    parts = _SIGN.split(text)
    parts = ["+", *parts] if parts[0] else parts[1:]
    add, neg = ring.add_payload, ring.neg_payload
    terms = {}
    for sign, body in zip(parts[::2], parts[1::2]):
        factors = body.split("*")
        k = len(factors)
        while k and factors[k - 1] in var_of:
            k -= 1
        if len(factors) - k > 2:
            raise FormatError(f"more than two variables in the term {body!r}")
        if k:
            key = "*".join(factors[:k])
            c = ring_terms.get(key)
            if c is None:
                c = ring_terms[key] = _ring_term(ring, key)
            if not c:
                continue
        else:
            c = ring.one_payload
        if sign == "-":
            c = neg(c)
        mono = tuple(var_of[f] for f in factors[k:])
        if len(mono) == 2 and mono[1] < mono[0]:
            mono = mono[::-1]
        s = terms.get(mono)
        if s is not None:
            c = add(s, c)
            if not c:
                del terms[mono]
                continue
        terms[mono] = c
    return VarPoly(ring, terms)


class VarPolyRing:
    """VarPolys over `base` as a Matrix scalar ring.

    A VarPoly is its own payload (box and unbox are the identity), so the
    payload protocol is VarPoly arithmetic; the zero polynomial is falsy.
    """

    add_payload = staticmethod(operator.add)
    neg_payload = staticmethod(operator.neg)
    mul_payload = staticmethod(operator.mul)

    def __init__(self, base):
        self.base = base
        self.zero = self.zero_payload = VarPoly(base, {})
        self.one = self.one_payload = VarPoly.constant(base, base.one_payload)

    @staticmethod
    def box(payload):
        return payload

    def unbox(self, x):
        if isinstance(x, VarPoly) and x.ring == self.base:
            return x
        raise MixedRings(f"{x!r} is not a polynomial over {self.base}")

    def __eq__(self, other):
        return isinstance(other, VarPolyRing) and self.base == other.base

    def __repr__(self):
        return f"VarPoly({self.base})"


def symbolic_matrix(vring, family, n, rows, cols):
    if not rows:
        return Matrix.zeros(vring, 0, cols)
    return Matrix.from_rows(vring, [
        [VarPoly.variable(vring.base, SystemVariable(family, n, i + 1, j + 1))
         for j in range(cols)] for i in range(rows)])


def constant_matrix(vring, M):
    base = vring.base
    return Matrix(vring, M.rows, M.cols, tuple(
        (cols, tuple(VarPoly(base, {(): c}) for c in vals))
        for cols, vals in M.sparse_rows))


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class SystemShape:
    m: int
    e: int
    s: tuple   # ranks of P in degrees 0..m
    r: tuple   # ranks of the extension in degrees 0..m+e

    def s_at(self, n):
        return self.s[n] if 0 <= n <= self.m else 0

    def r_at(self, n):
        return self.r[n] if 0 <= n <= self.m + self.e else 0


def _extension_rank(e, s, n):
    """The rank r_n of K (x) P for K on e elements and P of ranks
    s = (s_0 .. s_m): r_n = sum over p of C(e, n - p) s_p."""
    return sum(comb(e, n - p) * sp for p, sp in enumerate(s) if p <= n)


def _extension_ranks(e, s):
    """The ranks r_0 .. r_{m+e} of K (x) P."""
    return tuple(_extension_rank(e, s, n) for n in range(len(s) + e))


def shape_of(K, P):
    if P.support and min(P.support) < 0:
        raise ShapeMismatch("P must be supported in nonnegative degrees")
    m = max(P.support) if P.support else 0
    s = tuple(P.rank(n) for n in range(m + 1))
    return SystemShape(m, K.e, s, _extension_ranks(K.e, s))


def build_B_blocks(K, shape, x_mats, scalar_ring=None):
    """The block differentials of the extension with prescribed degree maps.

    `shape` is the system shape of (K, P) and `x_mats[n]` the degree-n map
    of P (concrete ring entries or symbolic VarPoly entries); returns
    {n: matrix} for n = 1 .. m+e+1 in the same scalar domain.  With the
    actual differentials of P this is exactly the differential of
    tensor(K, P).
    """
    sample = next((mat for mat in x_mats.values() if mat.rows and mat.cols), None)
    if scalar_ring is not None:
        ring = scalar_ring
    else:
        ring = sample.ring if sample is not None else K.ring
    kc = K.complex
    if isinstance(ring, VarPolyRing):
        kc = ChainComplex(ring, {n: kc.rank(n) for n in kc.support},
                          {n: constant_matrix(ring, kc.diff(n)) for n in kc.support},
                          _validated=True)
    X = ChainComplex(ring, {n: shape.s_at(n) for n in range(shape.m + 1)},
                     x_mats, _validated=True)
    return {n: tensor_differential(kc, X, n)
            for n in range(1, shape.m + shape.e + 2)}


# ---------------------------------------------------------------------------
# the system


@dataclass
class Equation:
    tag: str          # "S1".."S4"
    h: int | None     # basis index for S3 (1-based), None elsewhere
    n: int
    row: int          # 1-based
    col: int          # 1-based
    poly: VarPoly

    def position(self):
        return (self.tag, self.h, self.n, self.row, self.col)


@dataclass
class PolynomialSystem:
    ring: object                 # coefficient ring
    shape: SystemShape
    variables: list
    equations: list
    koszul_elements: tuple       # the sequence defining K (coefficient ring)
    u_mats: dict                 # degree -> Matrix: differentials of the module side
    v_mats: dict                 # basis tuple -> degree -> Matrix: its actions
    canonical_p_diffs: dict | None   # set when built from the canonical harness

    def variable_counts(self):
        out = {"X": 0, "Y": 0, "Z": 0}
        for v in self.variables:
            out[v.family] += 1
        return out

    def equation_counts(self):
        out = {}
        for eq in self.equations:
            out[eq.tag] = out.get(eq.tag, 0) + 1
        return out

    def canonical_solution(self):
        if self.canonical_p_diffs is None:
            raise NonCanonicalHarness(
                "the system was generated from a non-canonical DG module")
        return _canonical_assignment(self.ring, self.shape, self.canonical_p_diffs)


def _basis_list(K):
    return [S for d in sorted(K.basis) for S in K.basis[d]]


def _fused_entries(ring, rows, cols, products, delta=False):
    """The entries, row by row, of the rows x cols sum of the products L R
    over the pairs (L, R) in `products`, minus the identity when `delta`:
    one term dict per entry, as `VarPoly.terms` holds it.

    An operand is a list of sparse rows.  A row lists (column, terms)
    pairs, and terms are the (monomial, coefficient payload) pairs of that
    entry.  Row i of every product accumulates, Gustavson-style, straight
    into the term dicts of row i of the result, so no product, difference
    or identity is built as a matrix of its own.
    """
    add, mul = ring.add_payload, ring.mul_payload
    minus_one = ring.neg_payload(ring.one_payload)
    out = []
    for i in range(rows):
        acc = [{} for _ in range(cols)]
        for L, R in products:
            for k, a in L[i]:
                for j, b in R[k]:
                    terms = acc[j]
                    for m1, c1 in a:
                        for m2, c2 in b:
                            c = mul(c1, c2)
                            if not c:
                                continue
                            mono = m2 if not m1 else m1 if not m2 else tuple(sorted(m1 + m2))
                            s = terms.get(mono)
                            if s is not None:
                                c = add(s, c)
                                if not c:
                                    del terms[mono]
                                    continue
                            terms[mono] = c
        if delta:
            c = add(acc[i].get((), ring.zero_payload), minus_one)
            if c:
                acc[i][()] = c
            else:
                del acc[i][()]
        out.append(acc)
    return out


def _constant_rows(M, negate=False):
    """The operand of the ring matrix M, or of -M."""
    if negate:
        M = -M
    return [[(j, (((), c),)) for j, c in zip(cols, vals)] for cols, vals in M.sparse_rows]


def _polynomial_rows(M, negate=False):
    """The operand of the VarPoly matrix M, or of -M."""
    if negate:
        M = -M
    return [[(j, tuple(p.terms.items())) for j, p in zip(cols, vals)]
            for cols, vals in M.sparse_rows]


def generate_system(K, P, F=None, check_minimal=True):
    """Compile the four descent subsystems for (K, P) against the module F.

    F defaults to the canonical extension K (x) P.  F must have the ranks
    of the extension (RankMismatch otherwise) and pass the DG module
    axioms (UnverifiedDGModule).  P must be minimal when the ring has a
    certified maximal ideal.

    Every equation is an entry of a signed sum of matrix products, minus
    the identity for S4: x x (S1), y u - B y (S2), y v - w y (S3) and
    z C + C z - I (S4).  `_fused_entries` builds each block of equations
    in one pass; only the block differentials B go through VarPoly
    matrices, by `build_B_blocks`.
    """
    ring = K.ring
    if check_minimal and ring.local and not is_minimal(P):
        from .errors import NotMinimal
        raise NotMinimal("P has a unit entry in some differential")
    shape = shape_of(K, P)
    m, e, r = shape.m, shape.e, shape.r_at
    canonical = F is None
    if F is None:
        F = extend(K, P)
    for n in range(m + e + 1):
        if F.underlying.rank(n) != r(n):
            raise RankMismatch(
                f"module rank {F.underlying.rank(n)} at degree {n}, "
                f"expected {r(n)}")
    if not F.axioms.ok:
        raise UnverifiedDGModule("the supplied DG module fails its axioms")

    one = ring.one_payload
    variables = []

    def variable_rows(family, n, rows, cols):
        grid = [[SystemVariable(family, n, i + 1, j + 1) for j in range(cols)]
                for i in range(rows)]
        variables.extend(v for row in grid for v in row)
        return [[(j, (((v,), one),)) for j, v in enumerate(row)] for row in grid]

    x = {n: variable_rows("X", n, shape.s_at(n - 1), shape.s_at(n))
         for n in range(1, m + 1)}
    y = {n: variable_rows("Y", n, r(n), r(n)) for n in range(0, m + e + 1)}
    z = {n: variable_rows("Z", n, r(n + 1) + r(n), r(n) + r(n - 1))
         for n in range(0, m + e + 1)}
    variables.sort()
    vring = VarPolyRing(ring)
    B = build_B_blocks(K, shape, {
        n: symbolic_matrix(vring, "X", n, shape.s_at(n - 1), shape.s_at(n))
        for n in range(1, m + 1)}, scalar_ring=vring)

    equations = []

    def add_equations(tag, h, n, rows, cols, products, delta=False):
        for i, row in enumerate(_fused_entries(ring, rows, cols, products, delta), 1):
            equations.extend(Equation(tag, h, n, i, j, VarPoly(ring, terms))
                             for j, terms in enumerate(row, 1))

    # S1: the candidate differential squares to zero
    for n in range(1, m):
        add_equations("S1", None, n, shape.s_at(n - 1), shape.s_at(n + 1),
                      [(x[n], x[n + 1])])
    # S2: chain-map equations against the block differentials
    for n in range(1, m + e + 1):
        add_equations("S2", None, n, r(n - 1), r(n), [
            (y[n - 1], _constant_rows(F.underlying.diff(n))),
            (_polynomial_rows(B[n], negate=True), y[n])])
    # S3: K-linearity for every basis element; the canonical F's action is
    # the extension action w itself, so then y v - v y
    basis = _basis_list(K)
    for h_index, H in enumerate(basis, start=1):
        hdeg = len(H)
        for n in range(0, m + e - hdeg + 1):
            v = F.action_matrix(H, n)
            w = v if canonical else extension_action(K, P, H, n)
            add_equations("S3", h_index, n, r(n + hdeg), r(n), [
                (y[n + hdeg], _constant_rows(v)),
                (_constant_rows(w, negate=True), y[n])])

    # S4: contraction of the mapping cone, Kronecker delta constant term
    def cone_rows(n):
        """The cone differential [[B, y], [0, -u]] in degree n."""
        rows = _polynomial_rows(B[n]) if n in B else [[] for _ in range(r(n - 1))]
        if n - 1 in y:
            for row, y_row in zip(rows, y[n - 1]):
                row.extend((j + r(n), t) for j, t in y_row)
        u = F.underlying.diff(n - 1)
        if u.rows and u.cols:
            rows += [[(j + r(n), t) for j, t in row] for row in _constant_rows(u, negate=True)]
        else:
            rows += [[] for _ in range(r(n - 2))]
        return rows

    def z_at(n):
        return z[n] if n in z else [[] for _ in range(r(n + 1) + r(n))]

    cone = {n: cone_rows(n) for n in range(0, m + e + 3)}
    for n in range(0, m + e + 2):
        size = r(n) + r(n - 1)
        add_equations("S4", None, n, size, size,
                      [(z_at(n - 1), cone[n]), (cone[n + 1], z_at(n))], delta=True)

    u_mats = {n: F.underlying.diff(n) for n in range(1, m + e + 1)}
    v_mats = {H: {n: F.action_matrix(H, n) for n in range(0, m + e - len(H) + 1)}
              for H in basis}
    return PolynomialSystem(
        ring, shape, variables, equations, tuple(K.elements), u_mats, v_mats,
        {n: P.diff(n) for n in range(1, m + 1)} if canonical else None)


# ---------------------------------------------------------------------------
# assignments


@dataclass
class Assignment:
    """Values for every system variable in a target ring, reached through a
    homomorphism from the coefficient ring (identity for the default
    completion pair)."""

    hom: RingHom
    values: dict

    @property
    def target(self):
        return self.hom.target

    def value(self, var):
        return self.values[var]


def _canonical_assignment(ring, shape, p_diffs):
    hom = RingHom.identity(ring)
    values = {}
    for n in range(1, shape.m + 1):
        for i, row in enumerate(p_diffs[n].data):
            for j, x in enumerate(row):
                values[SystemVariable("X", n, i + 1, j + 1)] = x
    for n in range(0, shape.m + shape.e + 1):
        r = shape.r_at(n)
        for i in range(r):
            for j in range(r):
                values[SystemVariable("Y", n, i + 1, j + 1)] = \
                    ring.one if i == j else ring.zero
    for n in range(0, shape.m + shape.e + 1):
        rows = shape.r_at(n + 1) + shape.r_at(n)
        cols = shape.r_at(n) + shape.r_at(n - 1)
        for i in range(rows):
            for j in range(cols):
                lower_left = (i >= shape.r_at(n + 1) and j < shape.r_at(n)
                              and i - shape.r_at(n + 1) == j)
                values[SystemVariable("Z", n, i + 1, j + 1)] = \
                    ring.one if lower_left else ring.zero
    return Assignment(hom, values)


def canonical_solution(K, P):
    """X = differentials of P, Y = identity, Z = the cone-of-identity
    contraction (lower-left identity blocks)."""
    shape = shape_of(K, P)
    return _canonical_assignment(K.ring, shape,
                                 {n: P.diff(n) for n in range(1, shape.m + 1)})


# ---------------------------------------------------------------------------
# verification


@dataclass
class SubsystemReport:
    tag: str
    total: int
    first_failure: tuple | None = None

    @property
    def ok(self):
        return self.first_failure is None

    def line(self):
        if self.ok:
            return f"{self.tag} ok"
        h, n, row, col = self.first_failure
        pos = f"n={n} row={row} col={col}"
        if h is not None:
            pos = f"h={h} " + pos
        return f"{self.tag} FAIL {pos}"


@dataclass
class VerificationReport:
    subsystems: list

    @property
    def passed(self):
        return all(s.ok for s in self.subsystems)

    def lines(self):
        return [s.line() for s in self.subsystems]


def verify_assignment(system, assignment):
    """Evaluate every equation under the assignment; report per subsystem.

    Works over any ring tier: the equations are evaluated on payloads of
    the target ring, each coefficient mapped through the assignment's
    homomorphism (not at all for the identity).  A non-identity hom maps
    each distinct coefficient once; the images are kept for this call
    only, and there are at most as many as the system has coefficients.
    Verification runs in canonical equation order and records the first
    failing position of each subsystem.
    """
    missing = [v for v in system.variables if v not in assignment.values]
    if missing:
        raise IncompleteAssignment(f"missing values for {missing[:5]}"
                                   + ("..." if len(missing) > 5 else ""))
    hom = assignment.hom
    if hom.source != system.ring:
        raise MixedRings(f"the assignment maps from {hom.source}, "
                         f"the system is over {system.ring}")
    target = hom.target
    add, mul = target.add_payload, target.mul_payload
    values = {v: target.unbox(assignment.values[v]) for v in system.variables}
    identity = hom.is_identity()
    images = {}
    status = {tag: SubsystemReport(tag, 0) for tag in ("S1", "S2", "S3", "S4")}
    for eq in system.equations:
        rep = status[eq.tag]
        rep.total += 1
        if rep.first_failure is not None:
            continue
        acc = target.zero_payload
        for mono, c in eq.poly.terms.items():
            if not identity:
                image = images.get(c)
                if image is None:
                    image = images[c] = target.unbox(hom(hom.source.box(c)))
                c = image
            for v in mono:
                c = mul(c, values[v])
            acc = add(acc, c)
        if acc:
            rep.first_failure = (eq.h, eq.n, eq.row, eq.col)
    return VerificationReport([status[t] for t in ("S1", "S2", "S3", "S4")])


# ---------------------------------------------------------------------------
# reconstruction


@dataclass
class DescentCertificate:
    complex: ChainComplex        # the descended complex A over the target ring
    phi: ChainMap                # module side -> extension of A
    sigma: Homotopy              # contraction of cone(phi)
    extension: DGModule
    module_side: DGModule
    report: VerificationReport
    rechecks: dict


def _assignment_matrix(assignment, family, n, rows, cols, ring):
    grid = [[assignment.values[SystemVariable(family, n, i + 1, j + 1)]
             for j in range(cols)] for i in range(rows)]
    if rows == 0 or cols == 0:
        return Matrix.zeros(ring, rows, cols)
    return Matrix.from_rows(ring, grid)


def reconstruct(K, system, assignment):
    """Build the descended complex and its quasiisomorphism certificate.

    Verifies the assignment first; every certified property (square-zero,
    chain map, K-linearity, contraction) is then re-checked by independent
    matrix arithmetic, and any disagreement raises VerificationFailed.
    """
    report = verify_assignment(system, assignment)
    if not report.passed:
        raise VerificationFailed(
            "assignment fails: " + "; ".join(
                s.line() for s in report.subsystems if not s.ok))
    shape = system.shape
    target = assignment.target
    hom = assignment.hom
    K_t = K if hom.is_identity() else koszul_base_change(hom, K)

    ranks = {n: shape.s_at(n) for n in range(shape.m + 1)}
    diffs = {}
    for n in range(1, shape.m + 1):
        diffs[n] = _assignment_matrix(assignment, "X", n, shape.s_at(n - 1),
                                      shape.s_at(n), target)
    try:
        A = ChainComplex(target, ranks, diffs)
    except Exception as exc:
        raise VerificationFailed(f"S1 passed but d.d != 0 on values: {exc}")

    ext = extend(K_t, A)
    # module side mapped into the target ring
    module_under = ChainComplex(
        target, {n: shape.r_at(n) for n in range(shape.m + shape.e + 1)},
        {n: system.u_mats[n].map_entries(hom, target)
         for n in system.u_mats})
    module_action = {}
    for H, per in system.v_mats.items():
        module_action[H] = {n: mat.map_entries(hom, target)
                            for n, mat in per.items()}
    module_side = DGModule(K_t, module_under, module_action)

    phi = ChainMap(module_under, ext.underlying, {
        n: _assignment_matrix(assignment, "Y", n, shape.r_at(n), shape.r_at(n),
                              target)
        for n in range(shape.m + shape.e + 1)})
    sigma = Homotopy({
        n: _assignment_matrix(assignment, "Z", n,
                              shape.r_at(n + 1) + shape.r_at(n),
                              shape.r_at(n) + shape.r_at(n - 1), target)
        for n in range(shape.m + shape.e + 1)}, "contraction")

    rechecks = {
        "chain_map": is_chain_map(phi),
        "k_linear": is_k_linear(phi, module_side, ext),
        "contraction": is_contraction(sigma, cone(phi)),
    }
    if not all(rechecks.values()):
        failing = [k for k, v in rechecks.items() if not v]
        raise VerificationFailed(
            f"equations verified but independent re-checks failed: {failing}")
    return DescentCertificate(A, phi, sigma, ext, module_side, report, rechecks)


# ---------------------------------------------------------------------------
# the truncate-extend step


@dataclass
class TruncateExtendCertificate:
    m: int
    e: int
    sup_bound: int
    depth: int
    window: tuple                 # (low, high): checked H_i(M) = 0 for low < i < high
    koszul_window: tuple          # same for K (x) M with the widened bound
    checked_degrees: tuple


def truncate_extend(K, A, sup_bound, depth_budget=None):
    """Extend A above its top degree m by a free resolution and verify the
    vanishing window sup_bound + e < i < m, plus the widened window for the
    extension.  m must be at least sup_bound + 2e + 1."""
    ring = A.ring
    if not has_linear_solve(ring):
        raise CapabilityMissing(f"truncate_extend needs linear solving over {ring}")
    if not A.support:
        raise ShapeMismatch("cannot extend the zero complex")
    m = max(A.support)
    e = K.e
    s = sup_bound
    if m < s + 2 * e + 1:
        raise ShapeMismatch(
            f"top degree {m} is below the required s + 2e + 1 = {s + 2 * e + 1}")
    depth = depth_budget if depth_budget is not None else e + 2
    M = augment_by_resolution(A, m, depth_budget=depth)
    checked = []
    for i in range(s + e + 1, m):
        if not homology(M, i).is_zero:
            raise WindowViolated(i)
        checked.append(i)
    ext = tensor(K.complex, M)
    koszul_checked = []
    for i in range(s + 2 * e + 1, m):
        if not homology(ext, i).is_zero:
            raise WindowViolated(i, f"extension has homology at degree {i}")
        koszul_checked.append(i)
    cert = TruncateExtendCertificate(
        m, e, s, depth, (s + e, m), (s + 2 * e, m),
        tuple(checked + koszul_checked))
    return M, cert
