"""Checks on the benchmark itself, run from the root of a checkout.

Usage::

    python3 perfbench/check.py spread WORKLOAD [--seeds 1-10]
    python3 perfbench/check.py counts WORKLOAD [--seed 1]

Both run the benchmark for the ``run_seconds`` of ``BENCHMARK.json``.
``spread`` runs it once per seed and prints, for every end-to-end metric
(``setup_s`` included), the median and the inter-quartile distance as a
share of the median next to the metric's bound; exit status 1 unless
every spread is below a third of its bound.  ``counts`` makes two
traced runs with one seed and checks that the deterministic per-layer
counts repeat exactly; exit status 1 when one differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

#: Per-layer metrics that must repeat exactly for one seed, by prefix.
#: On service_mix the solver counts depend on how many first-sight
#: requests fit in the run, so only the cache hit ratio is checked there.
DETERMINISTIC = ("core.lu.iterations", "core.ilut.iterations",
                 "core.randqb.iterations", "pivoting.matches",
                 "pivoting.fallback_ratio.", "kernels.", "parallel.comm.",
                 "ordering.colamd.calls", "service.cache.hit_ratio")
SERVICE_DETERMINISTIC = ("service.cache.hit_ratio",)


def spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds",
         str(spec()["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.monotonic()
        res = run(args.workload, seed, 0)
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"({time.monotonic() - t0:.1f} s)", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    steady = True
    for name, vals in values.items():
        s = stats.relative_spread(vals)
        ok = s < bounds[name] / 3
        steady &= ok
        print(f"{name:20s} median={stats.median(vals):<12.6g} "
              f"spread={s:.4f} bound={bounds[name]} "
              f"{'ok' if ok else 'TOO WIDE'}  "
              f"values={[float(f'{v:.4g}') for v in vals]}")
    return 0 if steady else 1


def counts(args) -> int:
    prefixes = (SERVICE_DETERMINISTIC if args.workload == "service_mix"
                else DETERMINISTIC)
    a, b = (run(args.workload, args.seed, 1)["metrics"]
            for _ in range(2))
    differ = 0
    for name in a:
        if (not name.startswith(prefixes) or name.endswith(".self_s")
                or name == "kernels.us_per_call"):
            continue
        same = a[name]["value"] == b[name]["value"]
        differ += not same
        print(f"{name:40s} {a[name]['value']:>14.6g} "
              f"{b[name]['value']:>14.6g} {'' if same else 'DIFFERS'}")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("workload")
    sp.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    sc = sub.add_parser("counts")
    sc.add_argument("workload")
    sc.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    return spread(args) if args.cmd == "spread" else counts(args)


if __name__ == "__main__":
    sys.exit(main())
