"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps the
solver layers from outside the library: ``perfbench/spans.py`` replaces
every binding of the public functions it times, and fails when one is
missing.  This guard installs those spans on the current library and
checks that the column gather and the colamd pivot scan are still reached
through the registry names it wraps, so a library refactor cannot
silently break the traced run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import json

    import spans
    from repro.core.ilut_crtp import ILUT_CRTP
    from repro.core.lu_crtp import LU_CRTP
    from repro.matrices import random_graded

    tracer = spans.Tracer()
    spans.install_solver_layers(tracer)
    A = random_graded(200, 200, nnz_per_row=6, decay_rate=5.0, seed=3)
    for cls in (LU_CRTP, ILUT_CRTP):
        cls(k=8, tol=1e-2, raise_on_failure=False).solve(A)
    totals = tracer.snapshot()["totals"]
    print(json.dumps({name: t[0] for name, t in totals.items()}))
""")


def test_traced_run_spans_install_and_record_kernel_calls():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls.get("core.lu", 0) == 1 and calls.get("core.ilut", 0) == 1
    assert calls.get("kernels.gather_columns", 0) > 0
    assert calls.get("kernels.pivot_argmin_consume", 0) > 0
