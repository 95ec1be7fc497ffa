"""Exact arithmetic in computable commutative rings.

Supported kinds: the integers, the rationals, Z/n, prime fields, and
multivariate polynomial quotients over Q or F_p with Groebner normal forms.
Elements are stored canonically, so structural equality is ring equality.

All arithmetic is written once, on payloads (int, Fraction, or a tuple of
(monomial, coefficient) terms), in the payload protocol that each `Ring`
binds for its kind; see `Ring`.  A polynomial quotient's coefficient field
is itself a Ring, QQ() or GF(p), and the polynomial helpers and
`groebner_basis` compute on coefficients through its protocol.
`RingElement` boxes a payload with its ring for callers that want
operators.

A finite F_p-algebra, a quotient over F_p with finitely many standard
monomials, has p^dim elements, and the matrix kernels, Koszul and DG
checks and descent evaluation ask it for the same few sums and products
over and over.  Its add, neg and mul therefore go through tables of
results that the ring owns and fills on first use, each bounded (see
`Ring`).  A payload is a canonical, hashable normal form and the ops are
pure, so a stored result is exactly the payload the op would build.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import deque
from fractions import Fraction
from math import gcd

from .errors import (
    CapabilityMissing,
    ElementSyntaxError,
    EmptyVariableList,
    GroebnerBudgetExceeded,
    MixedRings,
    NonPrimeModulus,
    NotAHomomorphism,
    UnknownVariable,
    ZeroRing,
)

INTEGERS = "integers"
RATIONALS = "rationals"
ZMOD = "zmod"
PRIMEFIELD = "primefield"
POLYQUOT = "polyquot"

MONOMIAL_ORDERS = ("degrevlex", "deglex", "lex")

DEFAULT_GROEBNER_BUDGET = 100_000
DEFAULT_NILPOTENCY_BOUND = 64


def is_prime(n):
    """Deterministic Miller-Rabin, exact for anything we will ever see."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_root(n):
    """Return (p, k) with n = p**k, or None if n is not a prime power."""
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return (n, 1) if is_prime(n) else None


def _int_gcdex(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0, by the extended
    Euclidean algorithm on floor quotients."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# ---------------------------------------------------------------------------
# monomial orders
#
# A monomial is a tuple of exponents, one slot per ring variable.  The order
# key is built so plain tuple comparison realizes the classical orders.

def monomial_key(order):
    if order == "lex":
        return lambda e: e
    if order == "deglex":
        return lambda e: (sum(e), e)
    if order == "degrevlex":
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    raise ValueError(f"unknown monomial order {order!r}")


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# polynomial payloads
#
# Payload: tuple of (exponent tuple, coefficient payload), sorted descending
# in the ring's monomial order, zero coefficients dropped.  Coefficients
# are payloads of the coefficient field `cf`, the Ring QQ() or GF(p)
# (Fraction for Q, int residue for F_p), and are computed on through its
# payload protocol.


def _poly_from_dict(d, key):
    items = [(e, c) for e, c in d.items() if c != 0]
    items.sort(key=lambda item: key(item[0]), reverse=True)
    return tuple(items)


def _poly_add(a, b, cf, key):
    add, zero = cf.add_payload, cf.zero_payload
    d = dict(a)
    for e, c in b:
        s = add(d.get(e, zero), c)
        if s:
            d[e] = s
        else:
            d.pop(e, None)
    return _poly_from_dict(d, key)


def _poly_neg(a, cf, key):
    neg = cf.neg_payload
    return tuple((e, neg(c)) for e, c in a)


def _poly_mul(a, b, cf, key):
    add, mul, zero = cf.add_payload, cf.mul_payload, cf.zero_payload
    d = {}
    for ea, ca in a:
        for eb, cb in b:
            e = monomial_mul(ea, eb)
            s = add(d.get(e, zero), mul(ca, cb))
            if s:
                d[e] = s
            else:
                d.pop(e, None)
    return _poly_from_dict(d, key)


def _poly_scale(a, c, cf, key):
    if not c:
        return ()
    mul = cf.mul_payload
    return tuple((e, mul(c, x)) for e, x in a)


def _poly_reduce(f, basis, cf, key):
    """Full normal form of f modulo a list of polynomials with unit LT."""
    if not basis:
        return f
    add, neg, mul, inv, zero = (cf.add_payload, cf.neg_payload, cf.mul_payload,
                                cf.inv_payload, cf.zero_payload)
    result = {}
    work = dict(f)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        if not c:
            continue
        for g in basis:
            ge, gc = g[0]
            if monomial_divides(ge, e):
                factor = mul(c, inv(gc))
                q = monomial_div(e, ge)
                for me, mc in g:
                    t = monomial_mul(me, q)
                    s = add(work.get(t, zero), neg(mul(factor, mc)))
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                # the leading term of the multiple cancels e exactly
                work.pop(e, None)
                break
        else:
            result[e] = c
    return _poly_from_dict(result, key)


def _spoly(f, g, cf, key):
    fe, fc = f[0]
    ge, gc = g[0]
    l = monomial_lcm(fe, ge)
    mf = _poly_from_dict({monomial_div(l, fe): cf.inv_payload(fc)}, key)
    mg = _poly_from_dict({monomial_div(l, ge): cf.inv_payload(gc)}, key)
    return _poly_add(_poly_mul(mf, f, cf, key), _poly_neg(_poly_mul(mg, g, cf, key), cf, key), cf, key)


def groebner_basis(gens, cf, key, budget=DEFAULT_GROEBNER_BUDGET):
    """Reduced Groebner basis via a Buchberger loop over a queue of pairs.

    A pair whose leading monomials are coprime is skipped: its S-polynomial
    reduces to zero (Buchberger's first criterion).  The budget caps the
    S-pairs reduced; exceeding it raises, never returns a partial basis.
    """
    basis = [g for g in gens if g]
    basis = [_poly_scale(g, cf.inv_payload(g[0][1]), cf, key) for g in basis]
    pairs = deque((i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    steps = 0
    while pairs:
        i, j = pairs.popleft()
        if not any(x and y for x, y in zip(basis[i][0][0], basis[j][0][0])):
            continue
        steps += 1
        if steps > budget:
            raise GroebnerBudgetExceeded(f"S-pair budget {budget} exceeded")
        s = _spoly(basis[i], basis[j], cf, key)
        r = _poly_reduce(s, basis, cf, key)
        if r:
            r = _poly_scale(r, cf.inv_payload(r[0][1]), cf, key)
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize first: drop every element whose leading monomial another
    # one's divides, keeping the first of equal leading monomials.  Two
    # elements with equal leading monomials would reduce each other to zero.
    lms = [g[0][0] for g in basis]
    minimal = [g for idx, g in enumerate(basis)
               if not any(monomial_divides(lm, lms[idx]) and (lm != lms[idx] or k < idx)
                          for k, lm in enumerate(lms) if k != idx)]
    # tail-reduce: no leading term divides another, so one pass leaves every
    # leading term in place and gives the unique reduced basis
    final = [_poly_reduce(g, minimal[:idx] + minimal[idx + 1:], cf, key)
             for idx, g in enumerate(minimal)]
    final.sort(key=lambda g: key(g[0][0]))
    return tuple(final)


# ---------------------------------------------------------------------------
# rings

# the most results a finite F_p-algebra keeps per operation table
OP_TABLE_CAP = 2 ** 10


def _tabled(op, table, bound):
    """op through `table`, keyed by the operand tuple, which keeps at most
    `bound` results."""
    get = table.get

    def tabled(*operands):
        c = get(operands)
        if c is None:
            c = op(*operands)
            if len(table) < bound:
                table[operands] = c
        return c
    return tabled


def _plain_axpy(xs, c, ys):
    return [x + c * y if y else x for x, y in zip(xs, ys)]


def _plain_combine(a, xs, b, ys):
    return [a * x + b * y for x, y in zip(xs, ys)]


class Ring:
    """A computable commutative ring descriptor with capability flags.

    Instances are immutable; construct through the module helpers (ZZ, QQ,
    Zmod, GF, poly_quotient) or `make_ring`.

    A ring is also the one payload domain that matrices, elimination and
    polynomial arithmetic compute on, so none of them boxes an element.
    Every ring provides

      zero_payload, one_payload       the zero payload is the only falsy one
      add_payload(a, b), neg_payload(a), mul_payload(a, b)
      axpy_payloads(xs, c, ys)        the row [x + c y], x kept where y is zero
      combine_payloads(a, xs, b, ys)  the row [a x + b y]

    where each row kernel returns exactly the payloads that add_payload and
    mul_payload give entry by entry (Z/n and F_p reduce each entry once);
    the fields Q and F_p add inv_payload(a), and the Euclidean domains Z, Q,
    F_p and k[x] (one variable, no relations) add

      divmod_payload(a, b) -> (q, r)  a = q b + r, r zero or smaller than b
      gcdex_payload(a, b) -> (g, s, t)  s a + t b = g, g canonical
      canon_payload(a) -> (u, c)      a = u c, u a unit, c canonical: c >= 0
                                      in Z, 0 or 1 in a field, monic in k[x]
      size_payload(a)                 |a| in Z, 1 in a field, deg a + 1 in k[x]

    A polynomial quotient made by `poly_quotient` keeps its relation-free
    ring, whose payloads are its own, as `ambient`.

    On a finite F_p-algebra (a quotient over F_p with finitely many
    standard monomials, |R| = p^dim) add_payload, neg_payload and
    mul_payload look their operand tuple up in tables that the ring owns,
    `_op_tables`, and store the op's result there on a miss.  The add and
    mul tables hold at most min(|R|^2, OP_TABLE_CAP) results, the neg
    table min(|R|, OP_TABLE_CAP); a full table still answers what it holds
    and computes the rest without storing it.  Payloads are canonical and
    hashable and the ops are pure, so a hit is exactly the op's result.
    Every other ring binds its ops directly.
    """

    def __init__(self, kind, modulus=None, coeff=None, variables=None,
                 ideal=None, order="degrevlex", groebner=None,
                 ambient=None):
        # every instance attribute name takes one of the 30 keys CPython
        # 3.11 shares among the rings' dicts; a ring made after they run out
        # gets an unshared dict, on which every attribute read is slower
        self.kind = kind
        self.ambient = ambient
        self.modulus = modulus
        self.p = modulus if kind == PRIMEFIELD else None  # the prime of a prime field
        self.coeff = coeff
        self.variables = tuple(variables) if variables else None
        self.order = order
        self.ideal = ideal
        self.groebner = groebner
        self._key = monomial_key(order) if kind == POLYQUOT else None
        self._bind_payload_ops()
        self._derive_capabilities()
        self.zero = RingElement(self, self.zero_payload)
        self.one = RingElement(self, self.one_payload)

    # -- capability derivation ------------------------------------------------

    def _derive_capabilities(self):
        self.local = False
        self.nilpotency_bound = None
        self.maximal_ideal = ()
        if self.kind == INTEGERS:
            self.linear_solve = True
        elif self.kind == RATIONALS:
            # a field is local with maximal ideal (0)
            self.linear_solve = True
            self.local = True
            self.nilpotency_bound = 1
        elif self.kind in (ZMOD, PRIMEFIELD):
            self.linear_solve = True
            pk = prime_power_root(self.modulus)
            if pk is not None:
                p, k = pk
                self.local = True
                self.nilpotency_bound = k
                self.maximal_ideal = () if k == 1 and self.kind == PRIMEFIELD else (p,)
                if self.kind == ZMOD and k == 1:
                    self.maximal_ideal = (p,)
        elif self.kind == POLYQUOT:
            self._std_monomials = self._standard_monomials()
            if self._std_monomials is not None:
                self._bind_table_product()
                if self.coeff.kind == PRIMEFIELD:
                    self._bind_op_tables()
            self.linear_solve = self.coeff.kind == PRIMEFIELD and (
                len(self.variables) == 1 or self._std_monomials is not None)
            self._detect_local()

    def _detect_local(self):
        # certified only: every variable nilpotent modulo the ideal
        if not self.groebner:
            return
        bound = DEFAULT_NILPOTENCY_BOUND
        if self._std_monomials is not None:
            bound = len(self._std_monomials) + 1
        witnesses = []
        nvars = len(self.variables)
        for i in range(nvars):
            e1 = tuple(1 if j == i else 0 for j in range(nvars))
            x = self.normal_form_payload(((e1, self.coeff.one_payload),))
            power = x
            k = 1
            while power and k <= bound:
                power = self.normal_form_payload(_poly_mul(power, x, self.coeff, self._key))
                k += 1
            if power:
                return
            witnesses.append(k)
        self.local = True
        self.nilpotency_bound = max(witnesses, default=1)
        self.maximal_ideal = self.variables

    def _standard_monomials(self):
        """Monomials outside the leading-term ideal, or None when infinite."""
        if self.groebner is None:
            return None
        lts = [g[0][0] for g in self.groebner]
        n = len(self.variables)
        bounds = []
        for i in range(n):
            cap = None
            for lt in lts:
                if lt[i] > 0 and all(lt[j] == 0 for j in range(n) if j != i):
                    cap = lt[i] if cap is None else min(cap, lt[i])
            if cap is None:
                return None
            bounds.append(cap)
        std = []
        for exps in itertools.product(*(range(b) for b in bounds)):
            if not any(monomial_divides(lt, exps) for lt in lts):
                std.append(exps)
        std.sort(key=self._key)
        return tuple(std)

    # -- payload-level arithmetic ----------------------------------------------

    def _bind_payload_ops(self):
        """Bind this kind's payload protocol (see the class docstring).

        The operations are chosen once here, so a call is one function call
        with no dispatch on the kind.
        """
        if self.kind == INTEGERS:
            self.zero_payload, self.one_payload = 0, 1
            self.add_payload, self.neg_payload, self.mul_payload = \
                operator.add, operator.neg, operator.mul
            self.axpy_payloads, self.combine_payloads = _plain_axpy, _plain_combine
            self.divmod_payload = divmod
            self.gcdex_payload = _int_gcdex
            self.canon_payload = lambda a: (-1, -a) if a < 0 else (1, a)
            self.size_payload = abs
        elif self.kind == RATIONALS:
            self.zero_payload, self.one_payload = Fraction(0), Fraction(1)
            self.add_payload, self.neg_payload, self.mul_payload = \
                operator.add, operator.neg, operator.mul
            self.axpy_payloads, self.combine_payloads = _plain_axpy, _plain_combine
            self.inv_payload = lambda a: 1 / a
            self._bind_field_ops()
        elif self.kind in (ZMOD, PRIMEFIELD):
            n = self.modulus
            self.zero_payload, self.one_payload = 0, 1
            self.add_payload = lambda a, b: (a + b) % n
            self.neg_payload = lambda a: -a % n
            self.mul_payload = lambda a, b: a * b % n
            self.axpy_payloads = lambda xs, c, ys: [(x + c * y) % n if y else x
                                                    for x, y in zip(xs, ys)]
            self.combine_payloads = lambda a, xs, b, ys: [(a * x + b * y) % n
                                                          for x, y in zip(xs, ys)]
            if self.kind == PRIMEFIELD:
                self.inv_payload = lambda a: pow(a, -1, n)
                self._bind_field_ops()
        else:
            self.zero_payload = ()
            self.one_payload = self._constant(self.coeff.one_payload)
            self.add_payload = self._poly_add_payload
            self.neg_payload = lambda a: _poly_neg(a, self.coeff, self._key)
            self.mul_payload = self._poly_mul_payload
            self.axpy_payloads = self._composed_axpy
            self.combine_payloads = self._composed_combine
            if len(self.variables) == 1 and not self.groebner:
                self._bind_univariate_ops()
            elif len(self.variables) == 1 and self.ambient is not None:
                # one relation f: the normal form is the remainder mod f, and
                # normal forms are closed under sums and negation, so those
                # are the ambient's exponent-keyed ones
                f, divmod_ = self.groebner[0], self.ambient.divmod_payload
                self.normal_form_payload = lambda a: divmod_(a, f)[1]
                self.add_payload = self.ambient.add_payload
                self.neg_payload = self.ambient.neg_payload

    def _bind_field_ops(self):
        """A field as a Euclidean domain: every division is exact, every
        nonzero element is a unit and canonical elements are 0 and 1."""
        zero, one, inv, mul = self.zero_payload, self.one_payload, self.inv_payload, \
            self.mul_payload

        def gcdex(a, b):
            if a:
                return one, inv(a), zero
            if b:
                return one, zero, inv(b)
            return zero, one, zero

        self.divmod_payload = lambda a, b: (mul(a, inv(b)), zero)
        self.gcdex_payload = gcdex
        self.canon_payload = lambda a: (a, one) if a else (one, a)
        self.size_payload = lambda a: 1

    def _bind_univariate_ops(self):
        """k[x] as a Euclidean domain on its own payloads (see the class
        docstring).  Sums, products and remainders key terms by the exponent,
        which orders one variable in every order, and add up plain int or
        Fraction coefficients, reduced mod p once."""
        cf, one, p, neg_ = self.coeff, self.one_payload, self.coeff.p, self.neg_payload
        mul, inv = cf.mul_payload, cf.inv_payload

        def terms(d):
            items = sorted(d.items(), reverse=True)
            if p is None:
                return tuple(((e,), c) for e, c in items if c)
            return tuple(((e,), c % p) for e, c in items if c % p)

        def padd(a, b):
            if not a or not b:
                return a or b
            d = {e: c for (e,), c in a}
            for (e,), c in b:
                d[e] = d.get(e, 0) + c
            return terms(d)

        def pmul(a, b):
            if not a or not b:
                return ()
            if len(a) > len(b):
                a, b = b, a
            if len(a) == 1 and not a[0][0][0]:  # a constant scales b
                c = a[0][1]
                return b if c == 1 else tuple((e, mul(c, x)) for e, x in b)
            d = {}
            for (ea,), ca in a:
                for (eb,), cb in b:
                    d[ea + eb] = d.get(ea + eb, 0) + ca * cb
            return terms(d)

        def divmod_(a, b):
            if not b:
                raise ZeroDivisionError("polynomial division by zero")
            ((db,), lead), tail = b[0], b[1:]
            if not a or a[0][0][0] < db:
                return (), a
            inv_lead, q, r = inv(lead), {}, {e: c for (e,), c in a}
            for d in range(a[0][0][0], db - 1, -1):  # cancel the term of degree d
                c = q[d - db] = mul(r.pop(d, 0), inv_lead)
                for (e,), cb in tail:
                    r[e + d - db] = r.get(e + d - db, 0) - c * cb
            return terms(q), terms(r)

        def gcdex(a, b):
            x, nx, y, ny, g, ng = one, (), (), one, a, b
            while ng:
                q, r = divmod_(g, ng)
                x, nx = nx, padd(x, neg_(pmul(q, nx)))
                y, ny = ny, padd(y, neg_(pmul(q, ny)))
                g, ng = ng, r
            if g:
                scale = self._constant(inv(g[0][1]))
                g, x, y = pmul(scale, g), pmul(scale, x), pmul(scale, y)
            return g, x, y

        def canon(a):
            if not a:
                return one, a
            return self._constant(a[0][1]), pmul(self._constant(inv(a[0][1])), a)

        self.add_payload, self.mul_payload, self.divmod_payload = padd, pmul, divmod_
        self.gcdex_payload = gcdex
        self.canon_payload = canon
        self.size_payload = lambda a: a[0][0][0] + 1 if a else 0

    def _bind_table_product(self):
        """Multiply a finite-dimensional quotient's payloads through a table
        of standard-monomial products.

        `_mul_table[m1, m2]` is the normal form of m1 m2 for standard
        monomials m1, m2, as (rank, coefficient) pairs, where the rank of a
        standard monomial is its place in `_std_monomials` (ascending in the
        monomial order).  Entries are made on first use and kept, so the
        table holds at most dim^2 of them.  A product adds up the entries of
        its term pairs by rank and lists the sums by descending rank.
        """
        std, cf = self._std_monomials, self.coeff
        add, mul, zero, one = cf.add_payload, cf.mul_payload, cf.zero_payload, cf.one_payload
        rank = {m: i for i, m in enumerate(std)}
        unit = std[0]  # the constant monomial, least in every order
        table = self._mul_table = {}

        def entry(m1, m2):
            nf = self.normal_form_payload(((monomial_mul(m1, m2), one),))
            table[m1, m2] = pairs = tuple((rank[m], c) for m, c in nf)
            return pairs

        def product(a, b):
            if not a or not b:
                return ()
            # a constant factor scales the other normal form
            if len(b) == 1 and b[0][0] == unit:
                a, b = b, a
            if len(a) == 1 and a[0][0] == unit:
                c = a[0][1]
                return b if c == one else tuple((m, mul(c, x)) for m, x in b)
            acc = {}
            for m1, c1 in a:
                for m2, c2 in b:
                    pairs = table.get((m1, m2))
                    if pairs is None:
                        pairs = entry(m1, m2)
                    c = mul(c1, c2)
                    for i, ct in pairs:
                        acc[i] = add(acc.get(i, zero), mul(c, ct))
            return tuple((std[i], acc[i]) for i in sorted(acc, reverse=True) if acc[i])

        self.mul_payload = product

    def _bind_op_tables(self):
        """Route a finite F_p-algebra's add, neg and mul through the tables
        of the class docstring: `_op_tables[name]` maps the operand tuple,
        (a, b) or for neg (a,), to the result of the op bound before."""
        size = self.cardinality()
        pairs, singles = min(size * size, OP_TABLE_CAP), min(size, OP_TABLE_CAP)
        tables = self._op_tables = {"add": {}, "neg": {}, "mul": {}}
        self.add_payload = _tabled(self.add_payload, tables["add"], pairs)
        self.neg_payload = _tabled(self.neg_payload, tables["neg"], singles)
        self.mul_payload = _tabled(self.mul_payload, tables["mul"], pairs)

    # the row kernels of a polynomial ring, through whichever add and mul
    # are bound when they run (op tables included)
    def _composed_axpy(self, xs, c, ys):
        add, mul = self.add_payload, self.mul_payload
        return [add(x, mul(c, y)) if y else x for x, y in zip(xs, ys)]

    def _composed_combine(self, a, xs, b, ys):
        add, mul = self.add_payload, self.mul_payload
        return [add(mul(a, x), mul(b, y)) for x, y in zip(xs, ys)]

    def _constant(self, c):
        """The polynomial payload of the constant with coefficient payload c."""
        return ((tuple(0 for _ in self.variables), c),) if c else ()

    def _poly_add_payload(self, a, b):
        if not a:
            return b
        if not b:
            return a
        return _poly_add(a, b, self.coeff, self._key)

    def _poly_mul_payload(self, a, b):
        if not a or not b:
            return ()
        # a nonzero constant factor scales the other normal form, which
        # stays a normal form, so neither product nor reduction is needed
        if len(a) == 1 and not any(a[0][0]):
            return b if a[0][1] == 1 else _poly_scale(b, a[0][1], self.coeff, self._key)
        if len(b) == 1 and not any(b[0][0]):
            return a if b[0][1] == 1 else _poly_scale(a, b[0][1], self.coeff, self._key)
        return self.normal_form_payload(_poly_mul(a, b, self.coeff, self._key))

    def box(self, payload):
        """The element with this payload (the inverse of `unbox`)."""
        return RingElement(self, payload)

    def unbox(self, x):
        """The payload of x, which must be an element of this ring."""
        if isinstance(x, RingElement) and (x.ring is self or x.ring == self):
            return x.payload
        raise MixedRings(f"{x!r} is not an element of {self}")

    def normal_form_payload(self, a):
        if self.kind != POLYQUOT or not self.groebner:
            return a
        return _poly_reduce(a, self.groebner, self.coeff, self._key)

    def from_int(self, n):
        """The image of the integer n."""
        if self.kind == POLYQUOT:
            cf = self.coeff
            return RingElement(self, self._constant(cf.mul_payload(n, cf.one_payload)))
        return RingElement(self, self.mul_payload(n, self.one_payload))

    def variable(self, name):
        if self.kind != POLYQUOT or name not in self.variables:
            raise UnknownVariable(f"{name!r} is not a variable of {self}")
        i = self.variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return RingElement(self, self.normal_form_payload(((e, self.coeff.one_payload),)))

    # -- predicates -------------------------------------------------------------

    def is_unit_payload(self, a):
        if self.kind == INTEGERS:
            return a in (1, -1)
        if self.kind == RATIONALS:
            return a != 0
        if self.kind in (ZMOD, PRIMEFIELD):
            return a != 0 and gcd(a, self.modulus) == 1
        # polynomial quotient
        if not a:
            return False
        if self._finite_dimensional():
            if self.local:
                # every variable is nilpotent, so the maximal ideal is the
                # variables' and a unit is an element with a constant term
                return any(not any(e) for e, _ in a)
            return self._unit_by_multiplication_matrix(a)
        # no quotient relations: units are the nonzero constants
        if not self.groebner:
            return len(a) == 1 and sum(a[0][0]) == 0
        raise CapabilityMissing(
            f"unit test unavailable for the infinite-dimensional quotient {self}")

    def _finite_dimensional(self):
        return self.kind == POLYQUOT and self._std_monomials is not None

    def _unit_by_multiplication_matrix(self, a):
        # a is a unit iff multiplication by a is injective on the standard
        # monomials, i.e. has full rank over the coefficient field: over F_p,
        # iff the column [a] spans all of R
        from .linalg import kernel_basis, span_cardinality
        from .matrices import Matrix
        std, cf = self._std_monomials, self.coeff
        if cf.kind == PRIMEFIELD:
            return span_cardinality(self, Matrix(self, 1, 1, (((0,), (a,)),))) == self.cardinality()
        index = {m: i for i, m in enumerate(std)}
        grid = [[cf.zero_payload] * len(std) for _ in std]
        for j, m in enumerate(std):
            for e, c in self.mul_payload(a, ((m, cf.one_payload),)):
                grid[index[e]][j] = c
        n = len(std)
        return kernel_basis(cf, Matrix.from_payload_rows(cf, n, n, grid)).cols == 0

    # -- finite enumeration -------------------------------------------------------

    def is_finite(self):
        if self.kind in (ZMOD, PRIMEFIELD):
            return True
        return self.kind == POLYQUOT and self._finite_dimensional()

    def cardinality(self):
        if self.kind in (ZMOD, PRIMEFIELD):
            return self.modulus
        if self.kind == POLYQUOT and self._finite_dimensional():
            if self.coeff.kind != PRIMEFIELD:
                return None
            return self.coeff.p ** len(self._std_monomials)
        return None

    def elements(self):
        """Iterate every element of a finite ring."""
        if self.kind in (ZMOD, PRIMEFIELD):
            for a in range(self.modulus):
                yield RingElement(self, a)
            return
        if self.kind == POLYQUOT and self._finite_dimensional() and self.coeff.kind == PRIMEFIELD:
            std = self._std_monomials
            for combo in itertools.product(range(self.coeff.p), repeat=len(std)):
                d = {m: c for m, c in zip(std, combo) if c}
                yield RingElement(self, _poly_from_dict(d, self._key))
            return
        raise ValueError(f"{self} is not a finite ring")

    # -- identity ---------------------------------------------------------------

    def _signature(self):
        if self.kind == POLYQUOT:
            return (self.kind, self.coeff, self.variables, self.order, self.groebner)
        return (self.kind, self.modulus)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == ZMOD:
            return f"Z/{self.modulus}"
        if self.kind == PRIMEFIELD:
            return f"F{self.modulus}"
        poly = f"{self.coeff}[{', '.join(self.variables)}]"
        if not self.ideal:
            return poly
        gens = ", ".join(format_element(RingElement(self, g)) for g in self.ideal)
        return f"{poly}/({gens})"


class RingElement:
    """Canonical element of a Ring; equality is structural."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise MixedRings(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.add_payload(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.add_payload(
            self.payload, self.ring.neg_payload(other.payload)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg_payload(self.payload))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul_payload(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined in a general ring")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.payload == other.payload and \
            (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((id(self.ring), self.payload))

    def is_zero(self):
        return not self.payload

    def is_unit(self):
        return self.ring.is_unit_payload(self.payload)

    def __repr__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# constructors


_Z = None
_Q = None


def ZZ():
    global _Z
    if _Z is None:
        _Z = Ring(INTEGERS)
    return _Z


def QQ():
    global _Q
    if _Q is None:
        _Q = Ring(RATIONALS)
    return _Q


_zmod_cache = {}
_gf_cache = {}


def Zmod(n):
    if not isinstance(n, int) or n < 2:
        raise ValueError("Z/n requires an integer modulus n >= 2")
    if n not in _zmod_cache:
        _zmod_cache[n] = Ring(ZMOD, modulus=n)
    return _zmod_cache[n]


def GF(p):
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if p not in _gf_cache:
        _gf_cache[p] = Ring(PRIMEFIELD, modulus=p)
    return _gf_cache[p]


def poly_quotient(coeff, variables, ideal_texts=(), order="degrevlex",
                  budget=DEFAULT_GROEBNER_BUDGET):
    """Polynomial quotient ring coeff[variables]/(ideal).

    `coeff` is the coefficient field: QQ(), a prime field GF(p), or its name
    'Q' or 'F<p>'.  Ideal generators are given in the element grammar.  The
    reduced Groebner basis is computed here and cached on the ring.
    """
    if isinstance(coeff, str):
        m = re.fullmatch(r"F(\d+)", coeff)
        if coeff == "Q":
            coeff = QQ()
        elif m:
            coeff = GF(int(m.group(1)))
        else:
            raise ValueError(f"unknown coefficient field {coeff!r}")
    if not isinstance(coeff, Ring) or coeff.kind not in (RATIONALS, PRIMEFIELD):
        raise CapabilityMissing(
            f"polynomial coefficients must be Q or a prime field, not {coeff}")
    variables = tuple(variables)
    if not variables:
        raise EmptyVariableList("a polynomial quotient needs at least one variable")
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    if order not in MONOMIAL_ORDERS:
        raise ValueError(f"unknown monomial order {order!r}")
    key = monomial_key(order)
    # parse generators in the relation-free ring with the same variables,
    # which the quotient keeps as its ambient ring
    scratch = Ring(POLYQUOT, coeff=coeff, variables=variables, ideal=(),
                   order=order, groebner=())
    gens = [parse_element(scratch, t).payload if isinstance(t, str) else t for t in ideal_texts]
    gens = [g for g in gens if g]  # a zero generator adds nothing to the ideal
    gb = groebner_basis(gens, coeff, key, budget=budget)
    if any(not any(g[0][0]) for g in gb):
        raise ZeroRing(f"the ideal of {coeff}[{', '.join(variables)}] contains 1")
    return Ring(POLYQUOT, coeff=coeff, variables=variables,
                ideal=tuple(gens), order=order, groebner=gb, ambient=scratch)


def make_ring(spec, budget=DEFAULT_GROEBNER_BUDGET):
    """Build a ring from its one-line textual description.

    Grammar:
        integers | rationals | zmod <n> | primefield <p>
        polyquot coeff=<Q|F p> vars=<v,...> order=<ord> ideal=[g1, g2, ...]
    """
    text = spec.strip()
    if text == "integers":
        return ZZ()
    if text == "rationals":
        return QQ()
    m = re.fullmatch(r"zmod\s+(\d+)", text)
    if m:
        return Zmod(int(m.group(1)))
    m = re.fullmatch(r"primefield\s+(\d+)", text)
    if m:
        return GF(int(m.group(1)))
    m = re.fullmatch(
        r"polyquot\s+coeff=(\S+)\s+vars=(\S+)\s+order=(\S+)\s+ideal=\[(.*)\]", text)
    if m:
        coeff, vars_, order, ideal = m.groups()
        names = tuple(v.strip() for v in vars_.split(",") if v.strip())
        gens = [g.strip() for g in ideal.split(",") if g.strip()]
        return poly_quotient(coeff, names, gens, order=order, budget=budget)
    raise ValueError(f"unrecognized ring spec {spec!r}")


def ring_spec(ring):
    """Inverse of make_ring: the canonical one-line description."""
    if ring.kind == INTEGERS:
        return "integers"
    if ring.kind == RATIONALS:
        return "rationals"
    if ring.kind == ZMOD:
        return f"zmod {ring.modulus}"
    if ring.kind == PRIMEFIELD:
        return f"primefield {ring.modulus}"
    gens = ", ".join(format_element(RingElement(ring, g)) for g in ring.ideal)
    return (f"polyquot coeff={ring.coeff} vars={','.join(ring.variables)} "
            f"order={ring.order} ideal=[{gens}]")


# ---------------------------------------------------------------------------
# printing

def _signed_terms(ring, p):
    """The nonzero payload p as (sign, body) pairs, one per monomial in
    payload order: sign is "+" or "-" and body the unsigned term text."""
    if ring.kind != POLYQUOT:
        text = str(p)  # an int, or a Fraction printed as n or n/d
        return [("-", text[1:]) if text[0] == "-" else ("+", text)]
    parts = []
    for e, c in p:
        text = str(c)
        factors = [name if exp == 1 else f"{name}^{exp}"
                   for name, exp in zip(ring.variables, e) if exp]
        if text.lstrip("-") != "1" or not factors:
            factors.insert(0, text.lstrip("-"))
        parts.append(("-" if text[0] == "-" else "+", "*".join(factors)))
    return parts


def _join_signed(parts):
    """Join (sign, body) pairs as `a + b - c`, a leading minus kept."""
    sign, body = parts[0]
    out = [body if sign == "+" else f"-{body}"]
    out.extend(f" {sign} {body}" for sign, body in parts[1:])
    return "".join(out)


def format_element(x):
    if not x.payload:
        return "0"
    return _join_signed(_signed_terms(x.ring, x.payload))


# ---------------------------------------------------------------------------
# parsing
#
# Element grammar (whitespace insignificant):
#   integer:    -?[0-9]+
#   fraction:   int "/" posint           (over Q and polynomial rings over Q)
#   polynomial: terms joined by + or -, term = optional coefficient joined
#               by "*" with variable powers  var ^ posint

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|$)")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                raise ElementSyntaxError(f"unexpected character {text[pos]!r}", pos)
            num, name, op = m.groups()
            if num is not None:
                self.items.append(("num", num, m.start(1)))
            elif name is not None:
                self.items.append(("name", name, m.start(2)))
            elif op is not None:
                self.items.append(("op", op, m.start(3)))
            pos = m.end()
        self.items.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.items[self.i]

    def next(self):
        item = self.items[self.i]
        self.i += 1
        return item


def parse_element(ring, text):
    """Parse text in the element grammar into a canonical RingElement."""
    toks = _Tokens(text)
    result = _parse_sum(ring, toks)
    kind, val, pos = toks.peek()
    if kind != "end":
        raise ElementSyntaxError(f"trailing input {val!r}", pos)
    return result


def _parse_sum(ring, toks):
    acc = None
    sign = 1
    kind, val, pos = toks.peek()
    if kind == "op" and val in "+-":
        toks.next()
        sign = -1 if val == "-" else 1
    while True:
        term = _parse_term(ring, toks)
        if sign == -1:
            term = -term
        acc = term if acc is None else acc + term
        kind, val, pos = toks.peek()
        if kind == "op" and val in "+-":
            toks.next()
            sign = -1 if val == "-" else 1
            continue
        return acc


def _parse_term(ring, toks):
    acc = _parse_factor(ring, toks)
    while True:
        kind, val, pos = toks.peek()
        if kind == "op" and val == "*":
            toks.next()
            acc = acc * _parse_factor(ring, toks)
        else:
            return acc


def _parse_factor(ring, toks):
    kind, val, pos = toks.next()
    if kind == "num":
        base = int(val)
        nk, nv, npos = toks.peek()
        if nk == "op" and nv == "/":
            toks.next()
            dk, dv, dpos = toks.next()
            if dk != "num":
                raise ElementSyntaxError("expected a positive integer denominator", dpos)
            den = int(dv)
            if den == 0:
                raise ElementSyntaxError("zero denominator", dpos)
            # a fraction is a constant of Q or of a polynomial ring over Q
            if ring.kind == RATIONALS:
                return RingElement(ring, Fraction(base, den))
            if ring.kind == POLYQUOT and ring.coeff.kind == RATIONALS:
                return RingElement(ring, ring._constant(Fraction(base, den)))
            raise ElementSyntaxError("fractions are only valid over the rationals", pos)
        value = ring.from_int(base)
    elif kind == "name":
        if ring.kind != POLYQUOT or val not in ring.variables:
            raise UnknownVariable(f"unknown variable {val!r} at position {pos}")
        value = ring.variable(val)
    else:
        raise ElementSyntaxError(f"expected a number or variable, got {val!r}", pos)
    nk, nv, npos = toks.peek()
    if nk == "op" and nv == "^":
        toks.next()
        ek, ev, epos = toks.next()
        if ek != "num":
            raise ElementSyntaxError("expected a positive integer exponent", epos)
        value = value ** int(ev)
    return value


# ---------------------------------------------------------------------------
# normal form / parse entry points named as in the public surface

def normal_form(ring, element):
    """Canonicalize a raw element of `ring` (idempotent by construction)."""
    if isinstance(element, RingElement):
        if element.ring != ring:
            raise MixedRings(f"{element.ring} vs {ring}")
        return RingElement(ring, ring.normal_form_payload(element.payload))
    if isinstance(element, int):
        return ring.from_int(element)
    return RingElement(ring, ring.normal_form_payload(element))


# ---------------------------------------------------------------------------
# ring homomorphisms


class RingHom:
    """A homomorphism between rings, given on generators.

    For integer-like sources the map is canonical (1 -> 1); polynomial
    quotient sources additionally need images for each variable.  `check()`
    verifies that relations die, via normal forms in the target.  Whether
    the map is the identity is decided once here; the identity returns
    its argument and needs no check.
    """

    def __init__(self, source, target, var_images=None):
        self.source = source
        self.target = target
        self.var_images = dict(var_images or {})
        self._identity = source == target and all(
            self.var_images.get(v) == source.variable(v)
            for v in source.variables or ())
        if not self._identity:
            self.check()

    def check(self):
        src, tgt = self.source, self.target
        if src.kind == INTEGERS:
            return
        if src.kind == RATIONALS:
            if tgt.kind != RATIONALS:
                raise NotAHomomorphism("the rationals only map to themselves here")
            return
        if src.kind in (ZMOD, PRIMEFIELD):
            if not (tgt.from_int(src.modulus)).is_zero():
                raise NotAHomomorphism(
                    f"{src.modulus} is not zero in {tgt}; Z/{src.modulus} does not map")
            return
        # polynomial quotient: the coefficient field must map, and the
        # variable images must kill the ideal
        if src.coeff.kind == RATIONALS:
            if not (tgt.kind == RATIONALS
                    or tgt.kind == POLYQUOT and tgt.coeff.kind == RATIONALS):
                raise NotAHomomorphism(f"{tgt} is not a Q-algebra; {src} does not map")
        elif not tgt.from_int(src.coeff.p).is_zero():
            raise NotAHomomorphism(
                f"{src.coeff.p} is not zero in {tgt}; {src} does not map")
        for v in src.variables:
            if v not in self.var_images:
                raise NotAHomomorphism(f"no image supplied for variable {v!r}")
        for gen in src.ideal:
            img = self._apply_payload(gen)
            if not img.is_zero():
                raise NotAHomomorphism(
                    f"ideal generator {format_element(RingElement(src, gen))} "
                    f"maps to {img!r} != 0")

    def _apply_payload(self, payload):
        src, tgt = self.source, self.target
        acc = tgt.zero
        for e, c in payload:
            if isinstance(c, Fraction):  # check() made the target a Q-algebra
                term = RingElement(tgt, tgt._constant(c) if tgt.kind == POLYQUOT else c)
            else:
                term = tgt.from_int(c)
            for name, exp in zip(src.variables, e):
                if exp:
                    term = term * (self.var_images[name] ** exp)
            acc = acc + term
        return acc

    def __call__(self, x):
        if x.ring != self.source:
            raise MixedRings(f"element of {x.ring} fed to a map from {self.source}")
        if self._identity:
            return x
        src, tgt = self.source, self.target
        if src.kind == INTEGERS:
            return tgt.from_int(x.payload)
        if src.kind == RATIONALS:
            return RingElement(tgt, x.payload)
        if src.kind in (ZMOD, PRIMEFIELD):
            return tgt.from_int(x.payload)
        return self._apply_payload(x.payload)

    def is_identity(self):
        return self._identity

    @staticmethod
    def identity(ring):
        images = None
        if ring.kind == POLYQUOT:
            images = {v: ring.variable(v) for v in ring.variables}
        return RingHom(ring, ring, images)
