"""Start ``repro serve`` with the benchmark's spans installed.

Usage::

    python perfbench/serve_launcher.py --spans-out PATH serve [serve args]

Installs the solver-layer and service-layer wrappers of
:mod:`spans`, runs the ``repro`` command line as ``python -m repro``
would, and when the server stops (``shutdown`` op) writes the span
totals and the per-job queue waits to ``PATH`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

from spans import Tracer, check_sums, install_service_layers, \
    install_solver_layers


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    queue_waits: list[float] = []
    install_solver_layers(tracer)
    install_service_layers(tracer, queue_waits)
    from repro.cli import main as repro_main
    rc = repro_main(cli_args)
    snapshot = tracer.snapshot()
    check_sums(snapshot)
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"snapshot": snapshot, "queue_waits": queue_waits}, fh)
    os.replace(tmp, out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
