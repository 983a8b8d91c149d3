"""The benchmark's workloads, run inside one pinned worker process.

Every workload is a closed loop: the next solve or request starts only
after the previous one has come back.  Inputs are made from the run's
seed; the library receives only the generated matrices.

``fill_heavy`` and ``sparse_circuit`` call the sequential solvers,
``spmd_procs`` the SPMD front door on two rank processes, and
``service_mix`` (in :mod:`service_mix`) a ``python -m repro serve``
process over TCP loopback.

Why the seed permutes one generator instance instead of drawing a new
one: a fresh ``random_graded`` draw moves the achieved rank of the M2
analogue between 240 and 304 and LU_CRTP's solve time by about 20 %,
which would read as run-to-run noise.  A row and column permutation of
one instance keeps the singular values, so rank and cost stay put, while
the orderings the solvers see (colamd input, tournament leaves) change
with the seed.
"""

from __future__ import annotations

import gc
import resource
import time

import numpy as np

import calibrate
import stats
from calibrate import Calibrator, PairCalibrator
from spans import Tracer, check_sums

TAU = 1e-2
#: RandQB_EI's sketch seed: a solver setting, not an input, so fixed.
SKETCH_SEED = 7
METHODS = ("lu", "ilut", "randqb")
#: Methods whose solves are scaled by the dense calibration kernel.
DENSE_METHODS = ("randqb",)
#: A solve is scaled by the median of the calibrations of its kernel
#: taken within this many readings of its own two (see ``scaled``).
WINDOW = 4
NATIVE = "native"


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def permuted(base, seed: int):
    """``P A Q`` for seed-drawn row and column permutations."""
    rng = np.random.default_rng([seed, 0x5EED])
    rows = rng.permutation(base.shape[0])
    cols = rng.permutation(base.shape[1])
    return base[rows][:, cols].tocsc()


def m2_analogue(seed: int):
    """Table I's M2 analogue (raefsky3 regime: the Schur complement fills
    in), at the suite's parameters, permuted by ``seed``."""
    from repro.matrices.generators import random_graded
    base = random_graded(900, 900, nnz_per_row=14,
                         decay_kind="exponential", decay_rate=7.0,
                         value_spread=2.0, two_sided=True, seed=22)
    return permuted(base, seed)


def m4_analogue(seed: int):
    """Table I's M4 analogue (rajat23 regime: circuit with hubs, the Schur
    complement stays sparse), permuted by ``seed``."""
    from repro.matrices.generators import circuit_network
    base = circuit_network(1600, avg_degree=4.0, hubs=100, hub_scale=300.0,
                           seed=44)
    return permuted(base, seed)


def load_native_tier() -> str:
    """Load the native kernel tier (already built by ``run.py``); any
    other outcome makes the run invalid."""
    from repro.kernels import resolve_tier
    tier = resolve_tier(NATIVE)
    if tier != NATIVE:
        raise RuntimeError(f"native kernel tier unavailable (got {tier!r})")
    return tier


class SolverLoop:
    """``fill_heavy`` / ``sparse_circuit``: LU_CRTP, ILUT_CRTP and
    RandQB_EI (p=1) in turn on one matrix, until the time is up.  One
    *cycle* is one solve of each method; the deadline is checked only
    between cycles, so every count is a whole number of cycles.  Each
    solve is bracketed by host-speed calibrations (:mod:`calibrate`)."""

    #: Reference-host seconds of each calibration kernel.
    KERNELS = {"general": calibrate.REFERENCE_S,
               "dense": calibrate.REFERENCE_DENSE_S}

    def __init__(self, seed: int, matrix, k: int):
        self.seed = seed
        self.matrix_fn = matrix
        self.k = k
        self.tally = stats.Tally()
        self.readings = {kind: [] for kind in self.KERNELS}
        self.first: dict = {}
        self.tiers: dict = {}   # resolved kernel tier -> solves
        self.rss_mb = None
        self.tracer: Tracer | None = None
        self.calibrator = None

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        from repro.api import SolverConfig
        self.A = self.matrix_fn(self.seed)
        load_native_tier()
        self.configs = {m: SolverConfig(k=self.k, tol=TAU, power=1,
                                        seed=SKETCH_SEED, kernel_tier=NATIVE)
                        for m in METHODS}

    def prepare(self) -> None:
        """The benchmark's own machinery, made after set-up so that
        ``setup_s`` holds only the program's set-up."""
        self.calibrator = Calibrator()

    def close(self) -> None:
        pass

    # -- one request -----------------------------------------------------
    def solve(self, method: str):
        from repro.api import make_solver
        return make_solver(method, self.configs[method]).solve(self.A)

    def verify(self, method: str, res) -> str:
        """``ok`` when the result meets τ on the pinned tier."""
        if res.kernel_tier != NATIVE or not res.converged:
            return "unverified"
        return "ok" if res.error(self.A) < TAU else "unverified"

    def timed(self, method: str):
        """One solve between two calibrations; returns the result and the
        timing ``(method, measured seconds, kernel, index of the reading
        before, index of the reading after)``.  When tracing, the solve
        runs inside the root span ``bench.request``.  A garbage
        collection first gives every solve the same collector state."""
        gc.collect()
        kernel = "dense" if method in DENSE_METHODS else "general"
        measure = (self.calibrator.measure_dense if kernel == "dense"
                   else self.calibrator.measure)
        readings = self.readings[kernel]
        readings.append(measure())
        if self.tracer is not None:
            self.tracer.method = method
            with self.tracer.span("bench.request"):
                t0 = time.perf_counter()
                res = self.solve(method)
                dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            res = self.solve(method)
            dt = time.perf_counter() - t0
        readings.append(measure())
        n = len(readings)
        return res, (method, dt, kernel, n - 2, n - 1)

    def scaled(self, timing) -> float:
        """Reference-host seconds of a solve timed by :meth:`cycle`: its
        measured time scaled by the median of the calibrations within
        ``WINDOW`` readings of its own.  A single short calibration is
        noisier than the host's drift over a few seconds, which is what
        the scale has to follow."""
        _method, dt, kernel, i, j, _outcome = timing
        near = self.readings[kernel][max(i - WINDOW, 0):j + WINDOW + 1]
        return dt * self.KERNELS[kernel] / stats.median(near)

    def cycle(self) -> list:
        """One solve per method; returns the timings of the solves that
        returned, each with its verification outcome appended.  Results
        are verified after the timed calls.  The first cycle samples peak
        RSS before any verification densifies the matrix."""
        done = []
        for method in METHODS:
            try:
                res, timing = self.timed(method)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.tally.record("typed_error" if _is_typed(exc)
                                  else "error")
                print(f"# {method} failed: {type(exc).__name__}: {exc}",
                      flush=True)
                continue
            done.append((res, timing))
        if self.rss_mb is None:
            self.rss_mb = self.solver_rss()
        timings = []
        for res, timing in done:
            method = timing[0]
            tier = str(res.kernel_tier)
            self.tiers[tier] = self.tiers.get(tier, 0) + 1
            outcome = self.verify(method, res)
            self.tally.record(outcome)
            if outcome == "ok":
                self.first.setdefault(method, res)
            timings.append(timing + (outcome,))
        return timings

    def solver_rss(self) -> float:
        return peak_rss_mb()

    def loop(self, seconds: float, cycles: int | None = None):
        """Cycles until ``seconds`` have passed (or exactly ``cycles``);
        returns ``(cycles run, timings of the solves)``."""
        n, timings = 0, []
        start = time.perf_counter()
        while True:
            timings += self.cycle()
            n += 1
            if cycles is not None:
                if n >= cycles:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        return n, timings

    # -- metrics ---------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> dict:
        self.prepare()
        if not trace:
            n, timings = self.loop(seconds)
            return self.end_to_end(n, timings)
        # untraced half, then the same number of cycles traced
        n, plain = self.loop(seconds / 2.0)
        self.tracer = Tracer()
        self.install(self.tracer)
        _, traced = self.loop(0.0, cycles=n)
        return self.per_layer(n, sum(map(self.scaled, traced))
                              / sum(map(self.scaled, plain)))

    def install(self, tracer: Tracer) -> None:
        from spans import install_solver_layers
        install_solver_layers(tracer)

    def end_to_end(self, cycles: int, timings: list) -> dict:
        times = {m: [] for m in METHODS}   # reference-host seconds
        raw = {m: [] for m in METHODS}     # measured seconds
        busy = 0.0
        for t in timings:
            scaled = self.scaled(t)
            busy += scaled
            if t[-1] == "ok":
                times[t[0]].append(scaled)
                raw[t[0]].append(t[1])
        ok = sum(len(v) for v in times.values())
        metrics = {"solves_per_s": ok / busy if busy > 0 else 0.0}
        for m in METHODS:
            metrics[f"{m}.solve_s"] = (stats.median(times[m])
                                       if times[m] else 0.0)
        metrics["rank_total"] = sum(r.rank for r in self.first.values())
        metrics["factor_nnz"] = sum(int(r.factor_nnz())
                                    for r in self.first.values())
        metrics["peak_rss_mb"] = self.rss_mb or 0.0
        report = {"failed_ratio": self.tally.failed_ratio, "cycles": cycles,
                  "tiers": self.tiers,
                  "samples": {m: len(v) for m, v in times.items()}}
        for m in METHODS:
            if raw[m]:
                report[f"{m}.solve_s.measured"] = stats.median(raw[m])
        return {"metrics": metrics, "report": report}

    def per_layer(self, cycles: int, overhead: float) -> dict:
        snap = self.tracer.snapshot()
        if self.tracer.open_spans():
            raise AssertionError("spans left open after the traced loop")
        check_sums(snap)
        layer = layer_metrics(snap, cycles)
        layer["trace.overhead"] = overhead
        layer["trace.wall_s"] = snap["root_inclusive"]
        layer["unattributed_s"] = _self(snap, "bench.request")
        self.add_layer_extras(layer, cycles)
        layer_sum = (sum(v for k, v in layer.items()
                         if k.endswith(".self_s")) + layer["unattributed_s"])
        check_layer_sum(layer_sum, layer["trace.wall_s"])
        return {"metrics": layer,
                "report": {"cycles": cycles, "layer_sum_s": layer_sum,
                           "traced_wall_s": layer["trace.wall_s"],
                           "failed_ratio": self.tally.failed_ratio}}

    def add_layer_extras(self, layer: dict, cycles: int) -> None:
        pass


def check_layer_sum(layer_sum: float, wall: float) -> None:
    """The reported self times plus ``unattributed_s`` must add up to the
    traced wall time: every span name is reported exactly once."""
    if abs(layer_sum - wall) > 1e-6 * max(wall, 1.0):
        raise AssertionError(
            f"per-layer self times sum to {layer_sum}, traced wall {wall}")


def _is_typed(exc: Exception) -> bool:
    from repro.exceptions import ReproError
    return isinstance(exc, ReproError)


def _self(snap: dict, name: str) -> float:
    t = snap["totals"].get(name)
    return t[2] if t else 0.0


def _calls(snap: dict, name: str) -> int:
    t = snap["totals"].get(name)
    return t[0] if t else 0


#: Span names reported as ``<name>.self_s`` (whole traced phase).
SELF_TIME_SPANS = (
    "core.lu", "core.ilut", "core.randqb", "ordering.colamd",
    "pivoting.qr_tp", "pivoting.select_columns", "pivoting.qr_tp_rows",
    "linalg.gram_r_factor", "linalg.qrcp", "linalg.cholqr2", "linalg.orth",
    "sparse.drop_small", "sparse.drop_sorted_budget", "sparse.assemble",
    "parallel.run_spmd",
    "service.load", "service.fingerprint", "service.cache.lookup",
    "service.cache.store", "service.solve",
)


def layer_metrics(snap: dict, cycles: int) -> dict:
    """Per-layer metrics from a tracer snapshot: self times summed over
    the traced phase, counts per cycle (so they repeat exactly for a
    seed), and ratios."""
    from spans import KERNEL_FUNCTIONS
    c = snap["counters"]
    out: dict = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = _self(snap, name)
    for m in METHODS:
        solves = c.get(f"core.{m}.solves", 0.0)
        out[f"core.{m}.iterations"] = (c.get(f"core.{m}.iterations", 0.0)
                                       / solves if solves else 0.0)
    out["ordering.colamd.calls"] = _calls(snap, "ordering.colamd") / cycles
    matches = sum(v for k, v in c.items()
                  if k.startswith("pivoting.matches."))
    out["pivoting.matches"] = matches / cycles
    for m in ("lu", "ilut"):
        mm = c.get(f"pivoting.matches.{m}", 0.0)
        out[f"pivoting.fallback_ratio.{m}"] = (
            c.get(f"pivoting.fallbacks.{m}", 0.0) / mm if mm else 0.0)
    k_calls = k_self = 0.0
    for fn in KERNEL_FUNCTIONS:
        calls = _calls(snap, f"kernels.{fn}")
        own = _self(snap, f"kernels.{fn}")
        out[f"kernels.{fn}.calls"] = calls / cycles
        out[f"kernels.{fn}.self_s"] = own
        k_calls += calls
        k_self += own
    out["kernels.us_per_call"] = 1e6 * k_self / k_calls if k_calls else 0.0
    # layers this workload may not reach read 0 unless it fills them in
    out.update({"service.wire_s.p50": 0.0, "service.queue_s.p50": 0.0,
                "service.cache.hit_ratio": 0.0,
                "parallel.wall_s": 0.0, "parallel.modeled_s": 0.0})
    for op in ("",) + tuple(f"{o}." for o in COMM_OPS):
        out[f"parallel.comm.{op}bytes"] = 0.0
        out[f"parallel.comm.{op}msgs"] = 0.0
    return out


class SpmdLoop(SolverLoop):
    """``spmd_procs``: the three methods through ``run_spmd_solver`` on
    two rank processes (procs backend) with ``sparse_circuit``'s input.
    ILUT_CRTP gets the threshold μ of heuristic (24) from a sequential
    pre-run made after set-up and before the loop, outside every timing;
    the summary-only LU/ILUT results are checked against the sequential
    ranks from that pre-run, which must itself be τ-accurate."""

    NPROCS = 2

    def __init__(self, seed: int):
        super().__init__(seed, m4_analogue, k=32)
        self.comm = {"bytes": 0.0, "msgs": 0.0}
        self.wall = 0.0
        self.modeled = 0.0

    def prepare(self) -> None:
        self.reference = {m: SolverLoop.solve(self, m)
                          for m in ("lu", "ilut")}
        self.mu = float(self.reference["ilut"].threshold)
        self.reference_ok = {m: SolverLoop.verify(self, m, r) == "ok"
                             for m, r in self.reference.items()}
        # the two ranks run on both cores: calibrate both at once
        self.calibrator = PairCalibrator()

    def close(self) -> None:
        if self.calibrator is not None:
            self.calibrator.close()

    def solve(self, method: str):
        import repro.parallel
        info: dict = {}
        res = repro.parallel.run_spmd_solver(
            method, self.A, self.NPROCS, k=self.k, tol=TAU, power=1,
            seed=SKETCH_SEED, backend="procs", kernel_tier=NATIVE,
            threshold=self.mu if method == "ilut" else 0.0, run_info=info)
        comm = info.get("comm") or {}
        self.comm["bytes"] += float(comm.get("bytes_sent", 0.0))
        self.comm["msgs"] += float(comm.get("msgs", 0.0))
        for op, v in (comm.get("by_op") or {}).items():
            for key in ("bytes", "msgs"):
                name = f"{op}.{key}"
                self.comm[name] = self.comm.get(name, 0.0) + float(
                    v.get("bytes_sent" if key == "bytes" else "msgs", 0.0))
        self.wall += float(info.get("wall_seconds") or 0.0)
        self.modeled += float(info.get("elapsed") or 0.0)
        return res

    def verify(self, method: str, res) -> str:
        if method == "randqb":
            # RandQB_EI's SPMD route dispatches no tiered kernel
            if res.kernel_tier is not None or not res.converged:
                return "unverified"
            return "ok" if res.error(self.A) < TAU else "unverified"
        ref = self.reference[method]
        if (res.kernel_tier != NATIVE or not res.converged
                or res.rank != ref.rank or not self.reference_ok[method]):
            return "unverified"
        return "ok"

    def solver_rss(self) -> float:
        # the rank processes do the solves; they are reaped children
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def loop(self, seconds: float, cycles: int | None = None):
        self.comm = {"bytes": 0.0, "msgs": 0.0}
        self.wall = self.modeled = 0.0
        return super().loop(seconds, cycles)

    def install(self, tracer: Tracer) -> None:
        from spans import install_spmd_layers
        install_spmd_layers(tracer)

    def add_layer_extras(self, layer: dict, cycles: int) -> None:
        for key in ("bytes", "msgs"):
            layer[f"parallel.comm.{key}"] = self.comm[key] / cycles
        for op in COMM_OPS:
            for key in ("bytes", "msgs"):
                layer[f"parallel.comm.{op}.{key}"] = (
                    self.comm.get(f"{op}.{key}", 0.0) / cycles)
        layer["parallel.wall_s"] = self.wall
        layer["parallel.modeled_s"] = self.modeled


#: Collective / point-to-point ops reported by the SPMD comm summary.
COMM_OPS = ("allgather", "allreduce", "bcast", "gather", "send")


def make(workload: str, seed: int):
    if workload == "fill_heavy":
        return SolverLoop(seed, m2_analogue, k=16)
    if workload == "sparse_circuit":
        return SolverLoop(seed, m4_analogue, k=32)
    if workload == "spmd_procs":
        return SpmdLoop(seed)
    if workload == "service_mix":
        from service_mix import ServiceMix
        return ServiceMix(seed)
    raise ValueError(f"unknown workload {workload!r}")
