#!/usr/bin/env python3
"""koszulkit benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload elimination --seed 7 --seconds 24 --trace 0

Run from the repository root.  One client runs the workload's jobs one
after another; each job starts after the previous one has finished and
been checked.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced pass plus the tracing overhead.  The
last line of stdout is the result object; the line before it carries
informational fields (sample counts, ``max_bits``, ``src_loc``,
``git_rev``, layer shares).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5         # set-ups per run: this process plus four fresh ones
MIN_SAMPLES = 100         # p90 needs ten samples beyond it
HARD_CAP_S = 150          # stop measuring even when MIN_SAMPLES is not reached
CAL_REF_S = 0.003         # one calibration loop at the reference machine speed
CAL_REPEATS = 5           # calibration loops after each set-up


def calibration_loop():
    """Seconds for a fixed pure-Python loop that builds small tuples, lists
    and strings and updates a dict.

    The machines this runs on share cores with other tenants, and their
    speed drifts by 20-30% over seconds to minutes.  The loop is timed next
    to the jobs, and every time is rescaled by CAL_REF_S / (loop time), so
    reported times read as wall time at the reference speed.  Allocating
    like the jobs do makes the loop slow down the way they do; a loop of
    plain integer and dict work tracked the heavy jobs less well.  The loop
    touches no koszulkit code, so a change to the library cannot move it.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection would tie the loop to how many objects are alive
    try:
        t0 = time.perf_counter()
        table = {}
        recent = []
        for i in range(4000):
            key = (i % 61, i % 7)
            row = [key, i * 3 % 11, str(i % 13)]
            table[key] = table.get(key, 0) + row[1]
            recent.append(tuple(row))
            if len(recent) > 64:
                recent = recent[32:]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(loop_times):
    return CAL_REF_S / statistics.median(loop_times)


def setup(name, seed):
    """Import koszulkit, build the rings and every input; time all of it.
    Returns the workload, the raw seconds and the calibrated seconds."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    raw = time.perf_counter() - t0
    return wl, raw, raw * speed_factor([calibration_loop() for _ in range(CAL_REPEATS)])


def setup_in_fresh_process(name, seed):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["raw_s"], out["setup_s"]


def run_job(wl, inp, run=None):
    """(seconds spent in the library, certificates' largest payload in bits,
    or None when the job raised or failed its check)."""
    from workloads import certificate_bits
    t0 = time.perf_counter()
    try:
        out = (run or wl.run)(inp)
    except Exception:  # a raising job is a failed job, not a crashed run
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None
    dt = time.perf_counter() - t0
    try:
        return dt, certificate_bits(wl.check(inp, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return dt, None


def run_jobs(wl, jobs, run=None, stop=lambda done: False):
    """Run (round, inputs) pairs one after another, with a calibration loop
    before the first job and after every job, until `stop(done)` holds.
    Returns [(round, seconds, bits or None, speed factor)], the factor from
    the loops just before and just after the job."""
    done = []
    before = calibration_loop()
    for r, inp in jobs:
        if stop(done):
            break
        dt, bits = run_job(wl, inp, run)
        after = calibration_loop()
        done.append((r, dt, bits, speed_factor([before, after])))
        before = after
    return done


def measure(wl, seconds):
    """Run jobs for `seconds`; keep going until the complete rounds hold
    MIN_SAMPLES jobs."""
    size = wl.round_size()
    start = time.perf_counter()

    def stop(done):
        elapsed = time.perf_counter() - start
        complete = len(done) // size * size
        return (elapsed >= seconds and complete >= MIN_SAMPLES) or elapsed >= HARD_CAP_S

    return run_jobs(wl, ((r, inp) for r, _, inp in wl.jobs()), stop=stop)


def throughput(done, calibrated=True):
    """Verified jobs per second of (calibrated) library time."""
    verified = sum(1 for _, _, bits, _ in done if bits is not None)
    return verified / sum(dt * (f if calibrated else 1.0) for _, dt, _, f in done)


def git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_loc():
    return sum(len(p.read_text().splitlines())
               for p in (ROOT / "src" / "koszulkit").glob("*.py"))


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(counted, calibrated=True):
    """jobs_per_s, p50 and p90 over [(round, seconds, bits, factor)]."""
    # a failed job misses every latency limit: it enters the quantiles at the cap
    latencies = [dt * (f if calibrated else 1.0) if bits is not None else HARD_CAP_S
                 for _, dt, bits, f in counted]
    return {
        "jobs_per_s": metric(throughput(counted, calibrated), "1/s"),
        "job_ms.p50": metric(statistics.median(latencies) * 1e3, "ms"),
        "job_ms.p90": metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(name, seed, seconds):
    wl, raw_setup, main_setup = setup(name, seed)
    setups = [(raw_setup, main_setup)] + [setup_in_fresh_process(name, seed)
                                          for _ in range(SETUP_SAMPLES - 1)]
    import golden
    gates = golden.check_reports(ROOT)
    done = measure(wl, seconds)
    size = wl.round_size()
    counted = done[:len(done) // size * size]  # whole rounds only: the same mix every run
    bits = [b for _, _, b, _ in done]
    failed = bits.count(None) + sum(1 for _, g in gates if not g)
    attempted = len(done) + len(gates)
    metrics = latency_metrics(counted)
    metrics["setup_s"] = metric(statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ok_ratio"] = metric((attempted - failed) / attempted, "ratio")
    info = {
        "workload": name, "seed": seed, "rounds": len(counted) // size,
        "round_jobs": size, "jobs": len(done),
        "samples": sum(1 for _, _, b, _ in counted if b is not None),
        "max_bits": metric(max((b for b in bits if b is not None), default=0), "bits"),
        "fail_ratio": failed / attempted, "golden": dict(gates),
        "uncalibrated": {**latency_metrics(counted, calibrated=False),
                         "setup_s": metric(statistics.median(r for r, _ in setups), "s")},
        "calibration_loop_ms": CAL_REF_S / statistics.median(f for *_, f in done) * 1e3,
        "src_loc": src_loc(), "git_rev": git_rev(),
    }
    return info, attempted, failed, metrics


def layer_shares(self_ns, layers):
    """Percent of all job self time spent in each layer ("bench" is the
    benchmark's own code between library calls)."""
    total = sum(self_ns.values())
    shares = {layer: 0 for layer in ("bench",) + layers}
    for name, ns in self_ns.items():
        shares[name.split(".")[0]] += ns
    return {k: round(100 * v / total, 2) for k, v in shares.items()}


def traced(name, seed):
    """Untraced, traced and untraced passes over the same trace_rounds."""
    from collections import Counter

    import golden
    import tracer as tr
    wl, _, _ = setup(name, seed)
    gates = golden.check_reports(ROOT)
    jobs = [(r, inp) for r in range(wl.trace_rounds) for _, inp in wl.rounds[r]]
    first = run_jobs(wl, jobs)   # warm-up
    t = tr.Tracer()
    t.install()
    try:
        wl.build_rings()   # the Groebner bases of set-up, traced
        t.on = False       # checks run untraced
        before_jobs = Counter(t.self_ns)

        def traced_run(inp):
            t.on = True
            try:
                return t.run_job(wl.run, inp)
            finally:
                t.on = False

        results = run_jobs(wl, jobs, run=traced_run)
    finally:
        t.uninstall()
    last = run_jobs(wl, jobs)
    traced_jps, untraced_jps = throughput(results), throughput(last)
    t.write_spans(ROOT / "perfbench" / "out" / f"spans-{name}-{seed}.jsonl")

    ms = lambda *names: sum(t.self_ns[n] for n in names) / 1e6
    layer = lambda prefix: [n for n in t.self_ns if n.startswith(prefix + ".")]
    calls = lambda prefix: sum(c for n, c in t.calls.items() if n.startswith(prefix + "."))
    count = lambda key: metric(t.counts[key], "count")
    maximum = lambda key, unit: metric(t.maxima[key], unit)
    all_results = first + results + last
    bits = max((b for _, _, b, _ in all_results if b is not None), default=0)
    metrics = {
        "rings.groebner_ms": metric(ms("rings.groebner_basis"), "ms"),
        "rings.elem_mul_calls": count("rings.elem_mul_calls"),
        "rings.elem_add_calls": count("rings.elem_add_calls"),
        "matrices.mul_calls": metric(t.calls["matrices.Matrix.__mul__"], "count"),
        "matrices.mul_ms": metric(ms("matrices.Matrix.__mul__"), "ms"),
        "matrices.mul_entry_ops": count("matrices.mul_entry_ops"),
        "matrices.block_calls": metric(t.calls["matrices.Matrix.block"], "count"),
        "matrices.zero_blocks": count("matrices.zero_blocks"),
        "linalg.calls": metric(calls("linalg"), "count"),
        "linalg.self_ms": metric(ms(*layer("linalg")), "ms"),
        "linalg.elim_calls": count("linalg.elim_calls"),
        "linalg.max_shape": maximum("linalg.max_shape", "count"),
        "linalg.max_bits": maximum("linalg.max_bits", "bits"),
        "linalg.hadamard_ratio": maximum("linalg.hadamard_ratio", "ratio"),
        "complexes.self_ms": metric(ms(*layer("complexes")), "ms"),
        "complexes.tensor_calls": metric(t.calls["complexes.tensor"], "count"),
        "complexes.hom_calls": metric(t.calls["complexes.hom_complex"], "count"),
        "complexes.homology_calls": metric(t.calls["complexes.homology"], "count"),
        "koszul.build_ms": metric(ms(*layer("koszul")) - ms("koszul.verify_dga"), "ms"),
        "koszul.verify_ms": metric(ms("koszul.verify_dga"), "ms"),
        "dgmodules.extend_ms": metric(ms("dgmodules.extend"), "ms"),
        "dgmodules.verify_ms": metric(ms("dgmodules.verify_dg_module",
                                         "dgmodules.is_k_linear"), "ms"),
        "descent.compile_ms": metric(ms("descent.generate_system"), "ms"),
        "descent.verify_ms": metric(ms("descent.verify_assignment"), "ms"),
        "descent.reconstruct_ms": metric(ms("descent.reconstruct"), "ms"),
        "descent.equations": count("descent.equations"),
        "descent.variables": count("descent.variables"),
        "descent.terms": count("descent.terms"),
        "duality.resolve_ms": metric(ms("duality.resolve", "duality.resolution_complex"), "ms"),
        "duality.hom_ms": metric(ms("duality.hom_into_presented"), "ms"),
        "duality.homothety_ms": metric(ms("duality.homothety_check"), "ms"),
        "duality.solve_calls": count("duality.solve_calls"),
        "duality.betti_total": maximum("duality.betti_total", "count"),
        "duality.window": maximum("duality.window", "count"),
        "io.save_ms": metric(ms(*[n for n in layer("io") if ".save" in n]), "ms"),
        "io.load_ms": metric(ms(*[n for n in layer("io") if ".save" not in n]), "ms"),
        "io.bytes": metric(t.counts["io.bytes"], "bytes"),
        "max_bits": metric(bits, "bits"),
        "trace.overhead_jobs_per_s": metric(traced_jps - untraced_jps, "1/s"),
    }
    failed = sum(1 for _, _, b, _ in all_results if b is None) + sum(1 for _, g in gates if not g)
    attempted = len(all_results) + len(gates)
    info = {
        "workload": name, "seed": seed, "trace_rounds": wl.trace_rounds,
        "jobs_per_pass": len(jobs), "spans": len(t.spans),
        "untraced_jobs_per_s": untraced_jps, "traced_jobs_per_s": traced_jps,
        "layer_share_pct": layer_shares(t.self_ns - before_jobs, tr.LAYERS),
        "betti": t.betti, "golden": dict(gates),
        "src_loc": src_loc(), "git_rev": git_rev(),
    }
    return info, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("descent", "dga", "duality", "elimination"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "koszulkit" / "__init__.py").is_file():
        print(f"koszulkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        _, raw, calibrated = setup(args.workload, args.seed)
        print(json.dumps({"raw_s": raw, "setup_s": calibrated}))
        return 0
    if args.trace:
        info, attempted, failed, metrics = traced(args.workload, args.seed)
    else:
        info, attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
