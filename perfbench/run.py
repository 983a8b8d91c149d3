"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fill_heavy --seed 1 --seconds 16 --trace 0

Workloads: ``fill_heavy``, ``sparse_circuit``, ``spmd_procs`` and
``service_mix`` (see ``BENCHMARK.json`` and :mod:`workloads`).  With
``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics from a traced run.  Earlier
lines describe the host and print every metric by name and unit.

Every workload runs in its own worker process with a pinned
environment: one BLAS/OpenMP/kernel thread, passive OpenMP waiting, no
``REPRO_KERNEL_TIER`` override, and the native kernel tier built once
into ``.bench_build/`` (and the sources byte-compiled) before anything
is timed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fill_heavy", "sparse_circuit", "spmd_procs", "service_mix")
#: Set-up-only worker runs per measured run; ``setup_s`` is the median of
#: their calibration-scaled set-up times.
SETUP_SAMPLES = 7
#: Processes a workload's set-up starts at once (service_mix: the worker
#: and the server); the import calibration starts as many.
SETUP_PROCS = {"service_mix": 2}
#: One run must end within this many seconds (the build excepted).
RUN_DEADLINE_S = 170.0
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "REPRO_KERNEL_THREADS": "1",
    "OMP_WAIT_POLICY": "PASSIVE",
}
UNSET = ("REPRO_KERNEL_TIER", "REPRO_SANITIZE", "REPRO_KERNEL_SANITIZE")
BUILD = ("from repro.kernels import resolve_tier; import sys; "
         "sys.exit(0 if resolve_tier('native') == 'native' else 3)")


def pinned_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED_THREADS)
    build = os.path.join(root, ".bench_build")
    env["REPRO_KERNEL_CACHE"] = os.path.join(build, "repro-kernels")
    env["PERFBENCH_TMP"] = os.path.join(build, "perfbench-tmp")
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def host_info(env: dict) -> dict:
    """Host details recorded with every result."""
    import numpy
    import scipy
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned": {k: env[k] for k in PINNED_THREADS},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    cc = shutil.which(env.get("CC", "") or "cc") or shutil.which("gcc")
    if cc:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30)
        info["cc"] = out.stdout.splitlines()[0] if out.stdout else cc
    return info


class Worker:
    """One worker process; ``setup_s`` is the time from spawning it to
    its ``READY`` line."""

    def __init__(self, args, env: dict, setup_only: bool, deadline: float):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               args.workload, str(args.seed), str(args.seconds),
               str(args.trace)] + (["--setup-only"] if setup_only else [])
        self.result = None
        self.setup_s = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                text=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line.startswith("READY") and self.setup_s is None:
                    self.setup_s = time.perf_counter() - t0
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[len("RESULT "):])
                else:
                    sys.stderr.write(line)
            self.returncode = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self.returncode != 0 or self.setup_s is None:
            raise RuntimeError(
                f"worker {' '.join(cmd[2:])} exited {self.returncode}")


def metric_specs(root: str, trace: int) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    specs = metric_specs(root, args.trace)
    env = pinned_env(root)
    os.makedirs(env["PERFBENCH_TMP"], exist_ok=True)
    host = host_info(env)
    host["seed"] = args.seed
    host["workload"] = args.workload
    host["loadavg_start"] = os.getloadavg()

    # the one-time native compile and byte-compilation happen here,
    # outside every timing
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro", HERE],
        env=env, stdout=subprocess.DEVNULL, timeout=300)
    built = subprocess.run([sys.executable, "-c", BUILD], env=env,
                           timeout=800)
    if compiled.returncode != 0 or built.returncode != 0:
        print("perfbench: byte-compiling the sources or building the "
              "native kernel tier failed", file=sys.stderr)
        return 3

    deadline = time.monotonic() + RUN_DEADLINE_S
    setups, measured, cals = [], [], []
    if not args.trace:
        # each set-up sample between two import calibrations (calibrate.py)
        from calibrate import REFERENCE_IMPORT_S, measure_imports, scale
        procs = SETUP_PROCS.get(args.workload, 1)
        cals.append(measure_imports(env, procs))
        for _ in range(SETUP_SAMPLES):
            measured.append(Worker(args, env, True, deadline).setup_s)
            cals.append(measure_imports(env, procs))
            setups.append(measured[-1] * scale(cals[-2], cals[-1],
                                               REFERENCE_IMPORT_S))
    out = Worker(args, env, False, deadline).result
    host["loadavg_end"] = os.getloadavg()

    metrics = dict(out["metrics"])
    if not args.trace:
        metrics["setup_s"] = stats.median(setups)
    missing = sorted(set(specs) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    outcomes = out["outcomes"]
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    finite = all(isinstance(metrics[k], (int, float))
                 and math.isfinite(metrics[k]) for k in specs)

    print("# host " + json.dumps(host))
    print("# report " + json.dumps(out.get("report", {})))
    if setups:
        print(f"# setup_s samples {setups} (measured {measured}, "
              f"import calibrations {cals})")
    report = out.get("report", {})
    shown = dict(specs, failed_ratio="ratio")
    metrics["failed_ratio"] = failed / attempted if attempted else 0.0
    for name in ("latency_s.hit.p50", "latency_s.miss.p50", "latency_s.p90"):
        if isinstance(report.get(name), float):
            shown[name] = "s (measured)"
            metrics[name] = report[name]
    for name, unit in shown.items():
        print(f"# {name:40s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in specs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
