"""Seeded inputs, jobs and output checks for the four benchmark workloads.

Every workload is a list of job *classes* (a job type plus the input size
or shape that drives its cost).  One *round* visits every class once, in an
order drawn from the seed; the seed also draws every matrix entry, complex
and presentation.  Because each round holds the same classes, runs with
different seeds measure the same mix, which is what keeps the end-to-end
figures steady from seed to seed.

A job is split in two: ``run`` makes the library calls a user would make
(this is what gets timed) and ``check`` confirms the answer by independent
arithmetic afterwards (untimed).  ``check`` raises ``CheckFailed`` on a
wrong answer and returns the certificates whose payload sizes feed the
``max_bits`` probe.
"""

from __future__ import annotations

import random
from fractions import Fraction

from koszulkit import complexes as kc
from koszulkit import descent as kd
from koszulkit import dgmodules as kg
from koszulkit import duality as kq
from koszulkit import io as kio
from koszulkit import koszul as kk
from koszulkit import linalg as kl
from koszulkit import rings as kr
from koszulkit.matrices import Matrix


class CheckFailed(Exception):
    """A job's output disagreed with its independent check."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# payload sizes


def _num_bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def element_bits(a):
    """Bits of the largest integer inside one ring element's payload."""
    p = a.payload
    if a.ring.kind == kr.POLYQUOT:
        return max((_num_bits(c) for _, c in p), default=0)
    return _num_bits(p)


def matrix_bits(M):
    return max((element_bits(x) for row in M.data for x in row), default=0)


def certificate_bits(matrices):
    return max((matrix_bits(M) for M in matrices), default=0)


def hadamard_bits(M):
    """Bits of the Hadamard bound prod_j ||column j|| of an integer matrix."""
    sq = 1
    for j in range(M.cols):
        sq *= max(1, sum(M.data[i][j].payload ** 2 for i in range(M.rows)))
    return (sq.bit_length() + 1) // 2


# ---------------------------------------------------------------------------
# seeded input helpers


def random_matrix(ring, pool, rows, cols, rng):
    return Matrix.from_rows(ring, [[rng.choice(pool) for _ in range(cols)]
                                   for _ in range(rows)])


def maximal_ideal_pool(ring):
    """The nonzero non-units of a finite local ring."""
    return [a for a in ring.elements() if not a.is_unit() and not a.is_zero()]


def maximal_ideal_generators(ring):
    return [ring.from_int(g) if isinstance(g, int) else ring.variable(g)
            for g in ring.maximal_ideal]


def random_minimal_complex(ring, pool, ranks, rng):
    """A complex with the given ranks and nonzero entries from the maximal
    ideal, drawn by rejection on d.d = 0 (so it is minimal by construction).

    Entries are never zero because a zero entry skips work in every matrix
    product; with it, the cost of a job class would swing with the seed."""
    while True:
        diffs = {n: random_matrix(ring, pool, ranks[n - 1], ranks[n], rng)
                 for n in range(1, len(ranks))}
        if all((diffs[n] * diffs[n + 1]).is_zero() for n in range(1, len(ranks) - 1)):
            return kc.ChainComplex(ring, dict(enumerate(ranks)), diffs)


def random_invertible_mod(p, n, rng):
    """A dense random invertible n x n matrix over F_p as int rows: L * U
    with L unit lower and U upper triangular with a nonzero diagonal.  A
    singular matrix would end its elimination early and make the cost of a
    solve class swing with the seed."""
    L = [[1 if i == j else (rng.randrange(p) if j < i else 0) for j in range(n)]
         for i in range(n)]
    U = [[rng.randrange(1, p) if i == j else (rng.randrange(p) if j > i else 0)
          for j in range(n)] for i in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: subclasses set ``name``, ``trace_rounds`` and implement
    ``build_rings``, ``base_classes``, ``make``, ``run`` and ``check``."""

    #: rounds of inputs built at set-up; longer runs cycle through them
    input_rounds = 8
    #: extra copies of some classes in every round.  They put job_ms.p50 and
    #: job_ms.p90 in the middle of a block of jobs that cost the same, never
    #: on the edge between two costs, where the quantile would jump from run
    #: to run.  Chosen from measured per-class costs (see README.md).
    EXTRA = {}

    def classes(self):
        return self.base_classes() + [c for c, k in self.EXTRA.items() for _ in range(k)]

    def __init__(self, seed):
        self.rings = self.build_rings()
        rng = random.Random(f"{self.name}:{seed}")
        self.rounds = []
        for _ in range(self.input_rounds):
            order = list(self.classes())
            rng.shuffle(order)
            self.rounds.append([(c, self.make(c, rng)) for c in order])

    def round_size(self):
        return len(self.rounds[0])

    def jobs(self):
        """Endless stream of (round index, class, inputs)."""
        r = 0
        while True:
            for c, inp in self.rounds[r % len(self.rounds)]:
                yield r, c, inp
            r += 1


class Descent(Workload):
    """The CLI-shaped descent round trip (generate, save, load, verify,
    perturb, reconstruct) on small minimal complexes."""

    name = "descent"
    trace_rounds = 1
    input_rounds = 6
    RANKS = [(2,), (1, 2), (2, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1), (1, 2, 1, 1)]

    def build_rings(self):
        return {"Z/4": kr.Zmod(4), "Z/8": kr.Zmod(8),
                "F2[x]/(x^2)": kr.poly_quotient("F2", ["x"], ["x^2"])}

    EXTRA = {("F2[x]/(x^2)", 2, (1, 1, 1, 1)): 2, ("Z/4", 2, (2, 1)): 3}

    def base_classes(self):
        return [(r, e, ranks) for r in self.rings for e in (1, 2)
                for ranks in self.RANKS]

    def make(self, cls, rng):
        rname, e, ranks = cls
        R = self.rings[rname]
        P = random_minimal_complex(R, maximal_ideal_pool(R), ranks, rng)
        return {"R": R, "e": e, "P": P, "pick": rng.random()}

    def run(self, inp):
        R, P = inp["R"], inp["P"]
        K = kk.koszul(R, maximal_ideal_generators(R)[:1] * inp["e"])
        system = kd.generate_system(K, P)
        text = kio.save_system(system)
        loaded = kio.load_system(text)
        sol = kd.canonical_solution(K, P)
        report = kd.verify_assignment(loaded, sol)
        var = loaded.variables[int(inp["pick"] * len(loaded.variables))]
        values = dict(sol.values)
        values[var] = values[var] + R.one
        perturbed = kd.Assignment(sol.hom, values)
        bad_report = kd.verify_assignment(loaded, perturbed)
        # a perturbation that still satisfies S1-S4 must survive the
        # independent re-checks of reconstruction (criterion 5)
        bad_cert = kd.reconstruct(K, system, perturbed) if bad_report.passed else None
        cert = kd.reconstruct(K, system, sol)
        return {"K": K, "system": system, "text": text, "loaded": loaded,
                "report": report, "bad_report": bad_report, "bad_cert": bad_cert,
                "cert": cert}

    def check(self, inp, out):
        require(kio.save_system(out["loaded"]) == out["text"], "system text round trip")
        require(out["report"].passed, "canonical solution rejected")
        cert = out["cert"]
        require(all(cert.rechecks.values()), "reconstruction re-checks")
        require(cert.complex == inp["P"], "reconstructed complex differs from P")
        if out["bad_report"].passed:
            require(all(out["bad_cert"].rechecks.values()),
                    "accepted perturbation fails the re-checks")
        P = cert.complex
        return ([P.diff(n) for n in P.degrees()]
                + list(cert.phi.components.values())
                + list(cert.sigma.components.values()))


class Dga(Workload):
    """Koszul algebras of length 3-5 and their DG-module extensions, with
    every axiom verified on the stored matrices."""

    name = "dga"
    trace_rounds = 1
    RINGS = ("Z/4", "F2[x]/(x^2)", "F2[x,y]/(x,y)^2")
    E3_RANKS = [(1, 1), (2, 1), (1, 1, 1)]
    # An e = 5 job costs about twenty e = 3 jobs, so e = 5 appears once per
    # round and e = 3 twice per class; that keeps the 100 jobs job_ms.p90
    # needs inside one run.
    EXTRA = {("F2[x,y]/(x,y)^2", 4, (2, 1)): 2, ("F2[x]/(x^2)", 3, (1, 1, 1)): 2}

    def build_rings(self):
        return {"Z/4": kr.Zmod(4),
                "F2[x]/(x^2)": kr.poly_quotient("F2", ["x"], ["x^2"]),
                "F2[x,y]/(x,y)^2": kr.poly_quotient("F2", ["x", "y"],
                                                    ["x^2", "x*y", "y^2"])}

    def base_classes(self):
        return ([(r, 3, ranks) for r in self.RINGS for ranks in self.E3_RANKS] * 2
                + [(r, 4, (2, 1)) for r in self.RINGS] + [("Z/4", 5, (1, 1))])

    def make(self, cls, rng):
        rname, e, ranks = cls
        R = self.rings[rname]
        pool = maximal_ideal_pool(R)
        return {"R": R, "seq": [rng.choice(pool) for _ in range(e)],
                "P": random_minimal_complex(R, pool, ranks, rng)}

    def run(self, inp):
        K = kk.koszul(inp["R"], inp["seq"])
        D = kg.extend(K, inp["P"])
        return {"K": K, "D": D, "dga": kk.verify_dga(K),
                "module": kg.verify_dg_module(D)}

    def check(self, inp, out):
        require(out["dga"].ok, "DGA axioms")
        require(out["module"].ok, "DG module axioms")
        K, D = out["K"], out["D"]
        return ([M for per in K.mult.values() for M in per.values()]
                + [M for per in D.action.values() for M in per.values()])


class Duality(Workload):
    """Ext tables and homothety checks: many small eliminations."""

    name = "duality"
    trace_rounds = 2
    input_rounds = 12
    # the mix puts job_ms.p50 inside the ext_xy cluster and job_ms.p90
    # inside the homothety_free cluster, away from the cluster boundaries
    MIX = {"homothety_k": 2, "ext_z27": 2, "ext_xy": 4, "homothety_free": 2}
    EXT_Z27_WINDOW = 20
    EXT_XY_WINDOW = 5
    HOMOTHETY_FREE_WINDOW = 2
    HOMOTHETY_K_WINDOW = 6

    def build_rings(self):
        return {"Z/27": kr.Zmod(27),
                "F2[x,y]/(x,y)^2": kr.poly_quotient("F2", ["x", "y"],
                                                    ["x^2", "x*y", "y^2"]),
                "F2[x,y]/(x^4,y^3)": kr.poly_quotient("F2", ["x", "y"],
                                                      ["x^4", "y^3"]),
                "F2[x]/(x^4)": kr.poly_quotient("F2", ["x"], ["x^4"])}

    def base_classes(self):
        return [(kind,) for kind, n in self.MIX.items() for _ in range(n)]

    def _residue_field(self, R, rng):
        """k = R/m presented by the maximal-ideal generators times seeded
        units, in seeded order, plus one redundant relation from m."""
        units = [a for a in R.elements() if a.is_unit()]
        rel = [g * rng.choice(units) for g in maximal_ideal_generators(R)]
        rel.append(rng.choice(maximal_ideal_pool(R)))
        rng.shuffle(rel)
        return kq.ModulePresentation(R, 1, Matrix.from_rows(R, [rel]))

    def make(self, cls, rng):
        kind = cls[0]
        if kind == "ext_z27":
            return {"kind": kind, "M": self._residue_field(self.rings["Z/27"], rng)}
        if kind == "ext_xy":
            return {"kind": kind,
                    "M": self._residue_field(self.rings["F2[x,y]/(x,y)^2"], rng)}
        if kind == "homothety_free":
            R = self.rings["F2[x,y]/(x^4,y^3)"]
            return {"kind": kind, "M": kq.ModulePresentation.free(R, 1)}
        return {"kind": kind, "M": self._residue_field(self.rings["F2[x]/(x^4)"], rng)}

    def run(self, inp):
        kind, M = inp["kind"], inp["M"]
        if kind == "ext_z27":
            return kq.ext_table(M, M, self.EXT_Z27_WINDOW)
        if kind == "ext_xy":
            return kq.ext_table(M, M, self.EXT_XY_WINDOW)
        if kind == "homothety_free":
            return kq.homothety_check(M, self.HOMOTHETY_FREE_WINDOW)
        return kq.homothety_check(M, self.HOMOTHETY_K_WINDOW)

    def check(self, inp, out):
        kind = inp["kind"]
        if kind == "ext_z27":
            # Ext^i_{Z/27}(k, k) = F_3 in every degree
            require([h.cardinality for h in out] == [3] * (self.EXT_Z27_WINDOW + 1),
                    "|Ext^i(k,k)| over Z/27")
        elif kind == "ext_xy":
            # the Betti numbers of k double, so |Ext^i(k,k)| = 2^(2^i)
            require([h.cardinality for h in out]
                    == [2 ** (2 ** i) for i in range(self.EXT_XY_WINDOW + 1)],
                    "|Ext^i(k,k)| over F2[x,y]/(x,y)^2")
        elif kind == "homothety_free":
            R = inp["M"].ring
            require(out.outcome == "semidualizing"
                    and out.hom_cardinality == R.cardinality()
                    and out.annihilator_cardinality == 1,
                    "R is semidualizing over itself")
        else:
            # k is not semidualizing over a non-field: Ext^1(k,k) = k^1 is the witness
            require(out.outcome == "not_semidualizing" and out.witness_degree == 1
                    and out.witness.cardinality == 2,
                    "k over F2[x]/(x^4) has witness Ext^1 of order 2")
        return [inp["M"].relations]


class Elimination(Workload):
    """One large elimination per job: kernels over Z/8, Smith forms over Z
    and two-column solves over F_7."""

    name = "elimination"
    trace_rounds = 1
    input_rounds = 6
    KERNEL_N = range(12, 21)
    SMITH_N = range(10, 17)
    SOLVE_N = range(20, 41, 4)
    # the cheap kernel and Smith classes are repeated so a run holds the
    # 100 jobs job_ms.p90 needs
    KERNEL_COPIES = 2
    SMITH_COPIES = 3
    EXTRA = {("solve", 28): 2, ("smith", 15): 2}

    def build_rings(self):
        return {"Z/8": kr.Zmod(8), "Z": kr.ZZ(), "F7": kr.GF(7)}

    def base_classes(self):
        return ([("kernel", n) for n in self.KERNEL_N] * self.KERNEL_COPIES
                + [("smith", n) for n in self.SMITH_N] * self.SMITH_COPIES
                + [("solve", n) for n in self.SOLVE_N])

    def make(self, cls, rng):
        kind, n = cls
        if kind == "kernel":
            R = self.rings["Z/8"]
            return {"kind": kind, "R": R,
                    "A": random_matrix(R, list(R.elements()), n, n, rng)}
        if kind == "smith":
            R = self.rings["Z"]
            return {"kind": kind, "R": R,
                    "A": random_matrix(R, [R.from_int(v) for v in range(-9, 10)],
                                       n, n, rng)}
        R = self.rings["F7"]
        A = Matrix.from_rows(R, [[R.from_int(v) for v in row]
                                 for row in random_invertible_mod(7, n, rng)])
        X0 = random_matrix(R, list(R.elements()), n, 2, rng)
        return {"kind": kind, "R": R, "A": A, "B": A * X0}

    def run(self, inp):
        kind, R, A = inp["kind"], inp["R"], inp["A"]
        if kind == "kernel":
            return kl.kernel_basis(R, A)
        if kind == "smith":
            return kl.smith_form(R, A)
        return kl.solve(R, A, inp["B"])

    def check(self, inp, out):
        kind, A = inp["kind"], inp["A"]
        if kind == "kernel":
            require(A.cols == out.rows and (A * out).is_zero(), "A*K = 0")
            return [out]
        if kind == "smith":
            require(out.verify(), "S*A*T = D with S, T invertible")
            d = [x.payload for x in out.diagonal()]
            require(all(x >= 0 for x in d), "Smith diagonal is non-negative")
            require(all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:])),
                    "Smith divisibility chain")
            return [out.matrix, out.left, out.left_inv, out.right, out.right_inv]
        require(out is not None and A * out == inp["B"], "A*X = B")
        return [out]


WORKLOADS = {w.name: w for w in (Descent, Dga, Duality, Elimination)}
