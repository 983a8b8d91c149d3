"""Run one workload in one process whose environment ``run.py`` pinned.

Usage::

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints ``READY`` once set-up is done (inputs generated, solvers imported,
the native tier loaded, the server up), then, unless ``--setup-only``,
runs the workload and prints ``RESULT <json>``.
"""

from __future__ import annotations

import json
import sys

import workloads


def main(argv: list[str]) -> int:
    setup_only = "--setup-only" in argv
    name, seed, seconds, trace = [a for a in argv if a != "--setup-only"]
    wl = workloads.make(name, int(seed))
    try:
        wl.setup()
        print("READY", flush=True)
        if setup_only:
            return 0
        out = wl.run(float(seconds), trace == "1")
    finally:
        wl.close()
    out["outcomes"] = wl.tally.counts
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
