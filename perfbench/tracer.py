"""Outside-in tracing of koszulkit's layers, installed from the benchmark.

The library is not edited.  ``Tracer.install`` replaces each layer's
public module-level functions with a wrapper that records a span, and
rebinds the copies that sibling modules took with ``from .linalg import
solve`` and the like, so nested calls become child spans with a parent id.
``Matrix.__mul__`` and ``Matrix.block`` become spans too; the element
operations ``RingElement.__mul__``/``__add__`` are only counted.

A span's self time is its duration minus the time its child spans cover.
Probes that read sizes off a call's arguments or result (payload bits,
shapes, Betti numbers) run after the span has closed, and their time is
removed from the enclosing span, so they distort no layer's share.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("rings", "matrices", "linalg", "complexes", "koszul", "dgmodules",
          "descent", "duality", "io")

# Per-entry helpers that run tens of thousands of times per job.  A span on
# them costs more than the work inside it and skews the shares, so they
# stay unwrapped and their time lands in the calling layer.
UNWRAPPED = {
    "rings": {"is_prime", "prime_power_root", "monomial_key", "monomial_mul",
              "monomial_divides", "monomial_div", "monomial_lcm", "format_element",
              "parse_element", "normal_form"},
    "complexes": {"tensor_layout", "hom_layout"},
    "descent": {"variable_sort_key", "format_varpoly", "symbolic_matrix",
                "constant_matrix", "shape_of"},
    "io": {"parse_varpoly", "format_matrix", "parse_matrix", "expected_variables"},
}

# Private functions wrapped anyway: the F_p eliminations behind the
# finite-dimensional quotient rings count as eliminations next to smith_data.
PRIVATE_WRAPPED = {"linalg": ("_fp_rref",)}


def _raw_bits(x):
    """Bits of the largest integer in an elimination payload (int, Fraction,
    RingElement, or a tuple of coefficients for F_p[x])."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, (tuple, list)):
        return max((_raw_bits(c) for c in x), default=0)
    payload = getattr(x, "payload", None)
    if payload is not None:
        if isinstance(payload, tuple):  # polynomial quotient: ((monomial, coeff), ...)
            return max((_raw_bits(c) for _, c in payload), default=0)
        return _raw_bits(payload)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []      # (id, parent id, job id, name, start_ns, end_ns)
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.betti = {}      # ring -> longest Betti sequence seen by duality.resolve
        self._stack = []     # open frames: [id, start_ns, child_ns, name, job id]
        self._next_id = 0
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        job = self._stack[-1][4] if self._stack else self._next_id
        frame = [self._next_id, time.perf_counter_ns(), 0, name, job]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        name = frame[3]
        self.self_ns[name] += dur - frame[2]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((frame[0], parent[0] if parent else None, frame[4],
                           name, frame[1], end))
        return parent

    def _probe(self, parent, probe, args, result):
        start = time.perf_counter_ns()
        self.on = False
        try:
            probe(self, args, result)
        finally:
            self.on = True
        if parent is not None:
            parent[2] += time.perf_counter_ns() - start

    def span(self, name, fn, probe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = tracer._exit(frame)
            if probe is not None:
                tracer._probe(parent, probe, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, fn, *args):
        """Run one job as the root span ``bench.job``."""
        frame = self._enter("bench.job")
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def in_layer(self, layer):
        prefix = layer + "."
        return any(f[3].startswith(prefix) for f in self._stack)

    def counter(self, key, fn):
        tracer = self

        def counted(*args):
            if tracer.on:
                tracer.counts[key] += 1
            return fn(*args)

        return counted

    # -- installation -----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        import koszulkit  # noqa: F401  (loads every layer module)
        from koszulkit.matrices import Matrix
        from koszulkit.rings import RingElement

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"koszulkit.{layer}"]
            for name, fn in vars(mod).items():
                public = not name.startswith("_") and name not in UNWRAPPED.get(layer, ())
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (public or name in PRIVATE_WRAPPED.get(layer, ()))):
                    wrappers[fn] = self.span(f"{layer}.{name}", fn,
                                             PROBES.get(f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "koszulkit" or modname.startswith("koszulkit."):
                for name, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._set(mod, name, wrappers[value])

        self._set(Matrix, "__mul__", self.span("matrices.Matrix.__mul__",
                                               Matrix.__mul__, _probe_mul))
        block = Matrix.__dict__["block"].__func__
        self._set(Matrix, "block", classmethod(
            self.span("matrices.Matrix.block", block, _probe_block)))
        for name, key in (("__mul__", "rings.elem_mul_calls"),
                          ("__rmul__", "rings.elem_mul_calls"),
                          ("__add__", "rings.elem_add_calls"),
                          ("__radd__", "rings.elem_add_calls")):
            self._set(RingElement, name, self.counter(key, RingElement.__dict__[name]))
        self.on = True

    def uninstall(self):
        self.on = False
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


# ---------------------------------------------------------------------------
# size probes: (tracer, call arguments, result)


def _probe_smith_data(t, args, sd):
    _, _, rows, cols = args
    t.counts["linalg.elim_calls"] += 1
    t.maxima["linalg.max_shape"] = max(t.maxima["linalg.max_shape"], rows, cols)
    bits = max(_raw_bits(g) for g in (sd.m, sd.S, sd.Si, sd.T, sd.Ti))
    t.maxima["linalg.max_bits"] = max(t.maxima["linalg.max_bits"], bits)


def _probe_fp_rref(t, args, _result):
    _, rows, ncols = args
    t.counts["linalg.elim_calls"] += 1
    t.maxima["linalg.max_shape"] = max(t.maxima["linalg.max_shape"], len(rows), ncols)


def _probe_smith_form(t, args, res):
    ring, A = args
    if ring.kind != "integers" or not A.rows or not A.cols:
        return
    from workloads import certificate_bits, hadamard_bits
    transform = certificate_bits([res.left, res.left_inv, res.right, res.right_inv])
    ratio = transform / hadamard_bits(A)
    t.maxima["linalg.hadamard_ratio"] = max(t.maxima["linalg.hadamard_ratio"], ratio)


def _probe_solve(t, _args, _result):
    if t.in_layer("duality"):
        t.counts["duality.solve_calls"] += 1


def _probe_mul(t, args, _result):
    a, b = args
    t.counts["matrices.mul_entry_ops"] += a.rows * a.cols * b.cols


def _probe_block(t, args, _result):
    _, grid = args
    t.counts["matrices.zero_blocks"] += sum(1 for row in grid for m in row if m.is_zero())


def _probe_generate_system(t, _args, system):
    t.counts["descent.equations"] += len(system.equations)
    t.counts["descent.variables"] += len(system.variables)
    t.counts["descent.terms"] += sum(len(eq.poly.terms) for eq in system.equations)


def _probe_save_system(t, _args, text):
    t.counts["io.bytes"] += len(text.encode())


def _probe_resolve(t, args, diffs):
    pres = args[0]
    betti = [pres.gens] + [d.cols for d in diffs]
    t.maxima["duality.betti_total"] = max(t.maxima["duality.betti_total"], sum(betti))
    ring = str(pres.ring)
    if len(betti) > len(t.betti.get(ring, ())):
        t.betti[ring] = betti


def _probe_window(t, args, _result):
    t.maxima["duality.window"] = max(t.maxima["duality.window"], args[-1])


PROBES = {
    "linalg.smith_data": _probe_smith_data,
    "linalg._fp_rref": _probe_fp_rref,
    "linalg.smith_form": _probe_smith_form,
    "linalg.solve": _probe_solve,
    "descent.generate_system": _probe_generate_system,
    "io.save_system": _probe_save_system,
    "duality.resolve": _probe_resolve,
    "duality.ext_table": _probe_window,
    "duality.homothety_check": _probe_window,
}
