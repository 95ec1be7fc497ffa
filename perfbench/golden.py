"""Correctness gate: regenerate the golden CLI reports in-process.

Every ``report:`` line of ``tests/golden/manifest.txt`` names a report file
and the CLI arguments that produced it.  The arguments are run through
``koszulkit.cli.main`` with stdout captured, and the output must equal the
committed report byte for byte.
"""

from __future__ import annotations

import io
import sys
import traceback
from contextlib import redirect_stdout


def check_reports(root):
    """[(report name, ok)] for every report in the golden manifest."""
    from koszulkit.cli import main

    golden = root / "tests" / "golden"
    results = []
    for line in (golden / "manifest.txt").read_text().splitlines():
        if not line.startswith("report: "):
            continue
        name, *argv = line[len("report: "):].split()
        resolved = [str(golden / t) if (golden / t).is_file() else t for t in argv]
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                main(resolved)
            ok = out.getvalue().encode() == (golden / name).read_bytes()
        except Exception:  # a crashing report is a failed check, not a crashed run
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            print(f"golden report {name} differs", file=sys.stderr)
        results.append((name, ok))
    return results
