"""Batch command-line surface.

Every command reads canonical text (or .json) files, writes results to
stdout or -o, and exits 0 on success, 1 on a definitive mathematical
failure (a verification that says no), 2 on input or usage errors, and
3 on an internal error (any other exception, reported on one stderr line).
Reports are byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys

from . import io as kio
from .complexes import (
    homology, is_chain_map, shift, sup_inf, tensor, truncate_above,
    truncate_below,
)
from .descent import (
    canonical_solution, generate_system, reconstruct, truncate_extend,
    verify_assignment,
)
from .dgmodules import extend, is_k_linear
from .duality import (
    biduality_check, ext_table, homothety_check, koszul_sdc_transfer,
    lifting_verify,
)
from .errors import ToolkitError, VerificationFailed, WindowViolated
from .koszul import koszul
from .rings import make_ring, parse_element, ring_spec


class MathFailure(Exception):
    """A check ran fine and the answer is no."""


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _save(obj, out_path):
    if out_path:
        kio.save(obj, out_path)
    else:
        sys.stdout.write(kio.dumps(obj))


# ---------------------------------------------------------------------------
# command implementations


def cmd_ring_new(args):
    ring = make_ring(args.spec, budget=args.budget) if args.budget \
        else make_ring(args.spec)
    text = f"ring {ring_spec(ring)}\n"
    caps = (f"# linear_solve={ring.linear_solve} local={ring.local}"
            f" nilpotency_bound={ring.nilpotency_bound}\n")
    _emit(text + caps, args.output)
    return 0


def cmd_ring_show(args):
    with open(args.file, encoding="utf-8") as fh:
        first = fh.readline()
    ring = make_ring(first.removeprefix("ring").strip())
    lines = [f"ring {ring_spec(ring)}",
             f"linear_solve {ring.linear_solve}",
             f"local {ring.local}",
             f"nilpotency_bound {ring.nilpotency_bound}"]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_complex_new(args):
    M = kio.load(args.file)
    _save(M, args.output)
    return 0


def cmd_complex_check(args):
    kio.load(args.file)  # construction validates d.d = 0
    _emit("ok\n", args.output)
    return 0


def cmd_complex_homology(args):
    M = kio.load(args.file)
    lines = []
    for n in M.degrees():
        h = homology(M, n)
        lines.append(f"H{n}: {h.describe()}")
    bounds = sup_inf(M)
    if bounds.acyclic:
        lines.append("acyclic")
    else:
        lines.append(f"sup {bounds.sup} inf {bounds.inf}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_complex_tensor(args):
    A = kio.load(args.left)
    B = kio.load(args.right)
    _save(tensor(A, B), args.output)
    return 0


def cmd_complex_shift(args):
    M = kio.load(args.file)
    _save(shift(M, args.m), args.output)
    return 0


def cmd_complex_trunc(args):
    M = kio.load(args.file)
    if args.below is not None:
        M = truncate_below(M, args.below)
    if args.above is not None:
        M = truncate_above(M, args.above)
    _save(M, args.output)
    return 0


def cmd_koszul_build(args):
    ring = make_ring(args.ring)
    K = koszul(ring, kio._parse_sequence(ring, f"[{args.sequence}]"))
    _save(K, args.output)
    return 0


def cmd_koszul_verify(args):
    report = kio.load(args.file).axioms
    _emit("\n".join(report.lines()) + "\n", args.output)
    if not report.ok:
        raise MathFailure("DG algebra axioms fail")
    return 0


def cmd_dg_extend(args):
    K = kio.load(args.koszul)
    P = kio.load(args.complex)
    _save(extend(K, P), args.output)
    return 0


def cmd_dg_verify(args):
    # parsed without the loaders' axiom gate: a module that fails its axioms
    # gets its report and exit 1, not a format error
    with open(args.file, encoding="utf-8") as fh:
        report = kio.parse_dg_module(fh.read()).axioms
    _emit("\n".join(report.lines()) + "\n", args.output)
    if not report.ok:
        raise MathFailure("DG module axioms fail")
    return 0


def cmd_dg_klinear(args):
    src = kio.load(args.source)
    tgt = kio.load(args.target)
    with open(args.map, encoding="utf-8") as fh:
        phi = kio.load_chain_map(fh.read(), src.underlying, tgt.underlying)
    chain = is_chain_map(phi)
    linear = is_k_linear(phi, src, tgt)
    _emit(f"chain_map {'ok' if chain else 'FAIL'}\n"
          f"k_linear {'ok' if linear else 'FAIL'}\n", args.output)
    if not (chain and linear):
        raise MathFailure("map is not a K-linear chain map")
    return 0


def cmd_system_gen(args):
    K = kio.load(args.koszul)
    P = kio.load(args.complex)
    F = kio.load(args.dg) if args.dg else None
    system = generate_system(K, P, F)
    _save(system, args.output)
    return 0


def cmd_system_canonical(args):
    K = kio.load(args.koszul)
    P = kio.load(args.complex)
    _save(canonical_solution(K, P), args.output)
    return 0


def cmd_system_verify(args):
    system = kio.load(args.system)
    assignment = kio.load(args.assignment, coefficient_ring=system.ring)
    report = verify_assignment(system, assignment)
    _emit("\n".join(report.lines()) + "\n", args.output)
    if not report.passed:
        raise MathFailure("assignment fails the system")
    return 0


def cmd_system_reconstruct(args):
    K = kio.load(args.koszul)
    P = kio.load(args.complex)
    F = kio.load(args.dg) if args.dg else None
    system = generate_system(K, P, F)
    serialized = kio.load(args.system)
    if system != serialized:  # ring, shape and compiled tables: equal exactly when the texts are
        raise ToolkitError(
            "serialized system disagrees with the one generated from inputs")
    assignment = kio.load(args.assignment, coefficient_ring=system.ring)
    cert = reconstruct(K, system, assignment)
    if args.output:
        kio.save(cert.complex, args.output)
    lines = [s.line() for s in cert.report.subsystems]
    lines += [f"recheck {k} {'ok' if v else 'FAIL'}"
              for k, v in cert.rechecks.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_extend_trunc(args):
    K = kio.load(args.koszul)
    A = kio.load(args.complex)
    M, cert = truncate_extend(K, A, args.sup_bound,
                              depth_budget=args.budget)
    if args.output:
        kio.save(M, args.output)
    sys.stdout.write(
        f"window ({cert.window[0]}, {cert.window[1]}) clean\n"
        f"koszul window ({cert.koszul_window[0]}, {cert.koszul_window[1]}) clean\n"
        f"checked degrees {list(cert.checked_degrees)}\n")
    return 0


def cmd_sdc_check(args):
    C = kio.load(args.module)
    if args.koszul:
        K = kio.load(args.koszul)
        verdict = koszul_sdc_transfer(K, C, args.window)
        lines = [f"ring-level: {verdict.ring_level.line()}",
                 f"dg-level match: {'yes' if verdict.dg_match else 'no'}",
                 f"verdicts agree: {'yes' if verdict.agree else 'no'}"]
        _emit("\n".join(lines) + "\n", args.output)
        if not verdict.agree:
            raise MathFailure("transfer verdicts disagree")
        if not verdict.ring_level.ok:
            raise MathFailure("not semidualizing")
        return 0
    verdict = homothety_check(C, args.window)
    _emit(verdict.line() + "\n", args.output)
    if not verdict.ok:
        raise MathFailure("not semidualizing")
    return 0


def cmd_sdc_bidual(args):
    X = kio.load(args.source)
    C = kio.load(args.module)
    verdict = biduality_check(X, C, args.window)
    _emit(f"{verdict.outcome}: {verdict.detail}\n", args.output)
    if verdict.outcome == "not_reflexive":
        raise MathFailure("not reflexive")
    return 0


def cmd_ext_table(args):
    M = kio.load(args.first)
    N = kio.load(args.second)
    table = ext_table(M, N, args.window)
    lines = [f"Ext^{i}: {h.describe()}" for i, h in enumerate(table)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_lift_verify(args):
    R = make_ring(args.base)
    x = parse_element(R, args.element)
    M = kio.load(args.module)
    N = kio.load(args.reduction)
    verdict = lifting_verify(R, x, M, N)
    _emit(verdict.line() + "\n", args.output)
    if not verdict.ok:
        raise MathFailure("not a lifting")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    p = argparse.ArgumentParser(
        prog="koszulkit",
        description="Exact homological algebra: Koszul algebras, DG modules, "
                    "descent systems, duality checks.")
    sub = p.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring").add_subparsers(dest="sub", required=True)
    q = ring.add_parser("new")
    q.add_argument("spec")
    q.add_argument("--budget", type=int, help="S-pair budget for quotient rings")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_ring_new)
    q = ring.add_parser("show")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_ring_show)

    cx = sub.add_parser("complex").add_subparsers(dest="sub", required=True)
    q = cx.add_parser("new")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_complex_new)
    q = cx.add_parser("check")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_complex_check)
    q = cx.add_parser("homology")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_complex_homology)
    q = cx.add_parser("tensor")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_complex_tensor)
    q = cx.add_parser("shift")
    q.add_argument("file")
    q.add_argument("-m", type=int, required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_complex_shift)
    q = cx.add_parser("trunc")
    q.add_argument("file")
    q.add_argument("--below", type=int)
    q.add_argument("--above", type=int)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_complex_trunc)

    kz = sub.add_parser("koszul").add_subparsers(dest="sub", required=True)
    q = kz.add_parser("build")
    q.add_argument("--ring", required=True)
    q.add_argument("--sequence", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_koszul_build)
    q = kz.add_parser("verify")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_koszul_verify)

    dg = sub.add_parser("dg").add_subparsers(dest="sub", required=True)
    q = dg.add_parser("extend")
    q.add_argument("koszul")
    q.add_argument("complex")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_dg_extend)
    q = dg.add_parser("verify")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_dg_verify)
    q = dg.add_parser("klinear")
    q.add_argument("source")
    q.add_argument("target")
    q.add_argument("map")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_dg_klinear)

    sy = sub.add_parser("system").add_subparsers(dest="sub", required=True)
    q = sy.add_parser("gen")
    q.add_argument("--koszul", required=True)
    q.add_argument("--complex", required=True)
    q.add_argument("--dg")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_system_gen)
    q = sy.add_parser("canonical")
    q.add_argument("--koszul", required=True)
    q.add_argument("--complex", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_system_canonical)
    q = sy.add_parser("verify")
    q.add_argument("system")
    q.add_argument("assignment")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_system_verify)
    q = sy.add_parser("reconstruct")
    q.add_argument("system")
    q.add_argument("assignment")
    q.add_argument("--koszul", required=True)
    q.add_argument("--complex", required=True)
    q.add_argument("--dg")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_system_reconstruct)

    q = sub.add_parser("extend-trunc")
    q.add_argument("--koszul", required=True)
    q.add_argument("--complex", required=True)
    q.add_argument("--sup-bound", type=int, required=True)
    q.add_argument("--budget", type=int)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_extend_trunc)

    sdc = sub.add_parser("sdc").add_subparsers(dest="sub", required=True)
    q = sdc.add_parser("check")
    q.add_argument("--module", required=True)
    q.add_argument("--window", type=int, default=6)
    q.add_argument("--koszul")
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_sdc_check)
    q = sdc.add_parser("bidual")
    q.add_argument("--source", required=True)
    q.add_argument("--module", required=True)
    q.add_argument("--window", type=int, default=6)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_sdc_bidual)

    ext = sub.add_parser("ext").add_subparsers(dest="sub", required=True)
    q = ext.add_parser("table")
    q.add_argument("-M", dest="first", required=True)
    q.add_argument("-N", dest="second", required=True)
    q.add_argument("--window", type=int, default=6)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_ext_table)

    lift = sub.add_parser("lift").add_subparsers(dest="sub", required=True)
    q = lift.add_parser("verify")
    q.add_argument("--base", required=True)
    q.add_argument("--element", required=True)
    q.add_argument("-M", dest="module", required=True)
    q.add_argument("-N", dest="reduction", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_lift_verify)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except MathFailure:
        return 1
    except (WindowViolated, VerificationFailed) as exc:
        sys.stdout.write(f"{exc}\n")
        return 1
    except (ToolkitError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        sys.stderr.write(f"error: internal: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
