"""``service_mix``: two closed-loop TCP connections to ``python -m repro
serve`` sending small mixed-class matrices inline as Matrix Market text.

Each connection owns its own matrices and repeats only its own earlier
requests, so whether a request hits the cache never depends on how the
two connections interleave.  As in :mod:`workloads`, the seed permutes
fixed generator instances instead of drawing new ones, so that the
matrices' ranks and solve costs do not change from seed to seed.

Every period of twelve requests holds three first-sight requests (one
per method: a solve plus a cache store), five exact repeats (cache hits)
and four repeats at a looser τ (τ-dominance hits).  A quarter of all
requests therefore run a solve, which puts the 90th latency percentile
in the miss mode.  The cache is sized so that nothing is evicted, and no
disk tier is used: fsync cost on a shared host would be measured instead
of the program.

The connections run in segments of ``SEGMENT_PERIODS`` periods.  At the
end of a segment both wait, with nothing in flight, while the host speed
is calibrated (:class:`calibrate.PairCalibrator`), so calibrations never
run alongside the program under test.  A segment's requests are scaled
by the median of the calibrations within ``WINDOW`` pauses of it.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

import stats
from calibrate import REFERENCE_S, PairCalibrator
from workloads import (METHODS, NATIVE, SKETCH_SEED, TAU, WINDOW,
                       check_layer_sum, layer_metrics, load_native_tier)

TAU_LOOSE = 3e-2
K = 16
CONNECTIONS = 2
#: F = first sight (miss), R = exact repeat (hit), D = looser-τ repeat
PERIOD = "FRDRFRDRFDRD"
EXPECTED = {"F": "miss", "R": "hit", "D": "dominated"}
#: Responses of the first PREFIX_PERIODS periods of each connection feed
#: ``rank_total`` / ``factor_nnz``, so those sums repeat exactly per seed.
#: A run must send that many; a 16 s run sent 3-8 times as many on a
#: 2-vCPU KVM guest.
PREFIX_PERIODS = 16
#: Generator seed offset of each connection's first-sight instances.
BASE_SEED = 100_000
#: Periods per connection between two calibration pauses.
SEGMENT_PERIODS = 2
#: Seconds a connection may take for one segment before the run fails.
SEGMENT_TIMEOUT_S = 120.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _classes():
    """Three small classes whose solves all reach τ at k=16: graded
    random (exponential and algebraic decay) and a hub-dominated
    circuit.  Smaller circuits without strong hubs are full rank at
    τ=1e-2 and ILUT_CRTP stops short of τ on about one in five of them,
    which would turn their repeats into misses."""
    from repro.matrices.generators import circuit_network, random_graded
    return (
        lambda s: random_graded(80, 80, nnz_per_row=6, decay_rate=6.0,
                                value_spread=1.0, seed=s),
        lambda s: random_graded(96, 96, nnz_per_row=6,
                                decay_kind="algebraic", decay_rate=2.0,
                                seed=s),
        lambda s: circuit_network(96, avg_degree=4.0, hubs=12,
                                  hub_scale=300.0, seed=s),
    )


class Stream:
    """The deterministic request sequence of one connection."""

    def __init__(self, seed: int, conn: int):
        self.rng = np.random.default_rng([seed, conn, 0x5E7])
        self.conn = conn
        self.classes = _classes()
        self.first: list = []   # first-sight (text, method) in issue order
        self.i = 0

    def next(self):
        """``(index, kind, pair index, tol)`` of the next request."""
        from repro.matrices import write_matrix_market
        kind = PERIOD[self.i % len(PERIOD)]
        if kind == "F":
            j = len(self.first)
            method = METHODS[j % len(METHODS)]
            make = self.classes[(j // len(METHODS)) % len(self.classes)]
            # a fixed instance per (connection, j), permuted by the seed
            A = make(BASE_SEED * (self.conn + 1) + j)
            rows = self.rng.permutation(A.shape[0])
            cols = self.rng.permutation(A.shape[1])
            buf = io.StringIO()
            write_matrix_market(A[rows][:, cols], buf)
            self.first.append((buf.getvalue(), method))
            pair, tol = j, TAU
        else:
            pair = int(self.rng.integers(len(self.first)))
            tol = TAU if kind == "R" else TAU_LOOSE
        out = (self.i, kind, pair, tol)
        self.i += 1
        return out

    def request(self, pair: int, tol: float):
        """The ``SolveRequest`` for first-sight matrix ``pair`` at ``tol``."""
        from repro.api import SolverConfig
        from repro.service.schema import MatrixSpec, SolveRequest
        text, method = self.first[pair]
        return SolveRequest(
            matrix=MatrixSpec(mmio=text), method=method,
            config=SolverConfig(k=K, tol=tol, power=1, seed=SKETCH_SEED,
                                kernel_tier=NATIVE))


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Server:
    """A ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, spans_out: str | None = None):
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", "2", "--cache-size", "1000000"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   "--spans-out", spans_out, *args]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        line = ""
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line or "listening on" in line:
                break
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0]
                        .rsplit(":", 1)[1])
        return self.port

    def stop(self) -> None:
        from repro.exceptions import ServiceError
        from repro.service import ServiceClient
        if self.proc.poll() is None and self.port is not None:
            try:
                # closing a TCP client sends the ``shutdown`` op
                ServiceClient.connect("127.0.0.1", self.port,
                                      reconnect_retries=0).close()
            except (OSError, ServiceError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServiceMix:
    def __init__(self, seed: int):
        self.seed = seed
        self.tally = stats.Tally()
        self.tiers: dict = {}   # resolved kernel tier -> responses
        self.server: Server | None = None
        self.calibrator: PairCalibrator | None = None
        self.rss_mb = None
        self.tmp = os.environ["PERFBENCH_TMP"]

    def setup(self) -> None:
        self.server = Server()
        load_native_tier()
        self.server.wait_ready()

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.stop_server()
        if self.calibrator is not None:
            self.calibrator.close()
            self.calibrator = None

    # -- the closed loop -------------------------------------------------
    def drive(self, seconds: float | None, segments: int | None = None):
        """Run both connections from the start of their request streams,
        segment by segment, until ``seconds`` have passed at a segment
        end or ``segments`` segments are done.  Returns ``(records per
        connection, [(active seconds, speed scale) per segment])``; a
        record is ``(request, segment, round trip, response, error)``."""
        from repro.exceptions import ServiceError
        from repro.service import ServiceClient
        self.streams = [Stream(self.seed, c) for c in range(CONNECTIONS)]
        records = [[] for _ in range(CONNECTIONS)]
        port = self.server.port
        per_segment = SEGMENT_PERIODS * len(PERIOD)
        arrive = threading.Barrier(CONNECTIONS + 1, timeout=SEGMENT_TIMEOUT_S)
        release = threading.Barrier(CONNECTIONS + 1,
                                    timeout=SEGMENT_TIMEOUT_S)
        stop = threading.Event()

        def connection(c: int) -> None:
            stream, out = self.streams[c], records[c]
            client = None
            try:
                client = ServiceClient.connect("127.0.0.1", port,
                                               reconnect_retries=0)
                seg = 0
                while True:
                    for _ in range(per_segment):
                        item = stream.next()
                        request = stream.request(item[2], item[3])
                        t0 = time.perf_counter()
                        try:
                            resp, err = client.solve(request), None
                        except (OSError, ValueError, ServiceError) as exc:
                            resp, err = None, exc
                        out.append((item, seg, time.perf_counter() - t0,
                                    resp, err))
                    seg += 1
                    arrive.wait()
                    release.wait()
                    if stop.is_set():
                        break
            except BaseException:
                arrive.abort()
                release.abort()
                raise
            finally:
                if client is not None:
                    # close() would send ``shutdown``: drop the socket only
                    client._drop_socket()

        cals = [self.calibrator.measure()]
        active = []
        threads = [threading.Thread(target=connection, args=(c,))
                   for c in range(CONNECTIONS)]
        start = t0 = time.perf_counter()
        for t in threads:
            t.start()
        try:
            while True:
                arrive.wait()
                active.append(time.perf_counter() - t0)
                if len(active) == PREFIX_PERIODS // SEGMENT_PERIODS:
                    # after a fixed amount of work, not a fixed time: the
                    # cache grows with every request served
                    self.rss_mb = peak_rss_mb(self.server.proc.pid)
                cals.append(self.calibrator.measure())
                done = (len(active) >= segments if segments is not None
                        else time.perf_counter() - start >= seconds)
                if done:
                    stop.set()
                release.wait()
                t0 = time.perf_counter()
                if done:
                    break
        except threading.BrokenBarrierError:
            raise RuntimeError("a service connection failed") from None
        finally:
            if not stop.is_set():
                arrive.abort()
                release.abort()
            for t in threads:
                t.join()
        timing = [(a, REFERENCE_S / stats.median(
                       cals[max(s - WINDOW, 0):s + 2 + WINDOW]))
                  for s, a in enumerate(active)]
        return records, timing

    # -- verification (after the loop, outside every timed span) --------
    def references(self, records) -> dict:
        """Sequential solves of every first-sight matrix, parsed from the
        same Matrix Market text the server received; ``None`` for one
        that is not τ-accurate, so that its responses count as
        unverified."""
        from repro.api import SolverConfig, make_solver
        from repro.matrices import read_matrix_market
        cfg = SolverConfig(k=K, tol=TAU, power=1, seed=SKETCH_SEED,
                           kernel_tier=NATIVE)
        refs = {}
        for c, recs in enumerate(records):
            for (_i, kind, pair, _tol), *_ in recs:
                if kind == "F":
                    text, method = self.streams[c].first[pair]
                    A = read_matrix_market(io.StringIO(text))
                    ref = make_solver(method, cfg).solve(A)
                    refs[(c, pair)] = (ref if ref.converged
                                       and ref.error(A) < TAU else None)
        return refs

    def verify(self, records, refs) -> list:
        """Outcome per record, counted into the tally: a response passes
        when it converged on the pinned tier and its rank and indicator
        equal those of a τ-accurate sequential reference.  A request the
        client raised a :class:`ServiceError` subclass for is a typed
        error; any other exception an error."""
        from repro.exceptions import ServiceError
        outcomes = []
        for c, recs in enumerate(records):
            per = []
            for (_i, _kind, pair, _tol), _seg, _rtt, resp, err in recs:
                if err is not None:
                    typed = (isinstance(err, ServiceError)
                             and type(err) is not ServiceError)
                    outcome = "typed_error" if typed else "error"
                elif resp.get("state") != "done" or resp.get("error"):
                    outcome = "typed_error" if resp.get("error_type") \
                        else "error"
                else:
                    ref = refs.get((c, pair))
                    res = resp.get("result") or {}
                    tier = str(res.get("kernel_tier"))
                    self.tiers[tier] = self.tiers.get(tier, 0) + 1
                    ok = (ref is not None
                          and res.get("converged") is True
                          and res.get("rank") == ref.rank
                          and res.get("kernel_tier") == NATIVE
                          and abs(res.get("indicator", np.inf)
                                  - ref.indicator)
                          <= 1e-12 * max(ref.indicator, 1e-300))
                    outcome = "ok" if ok else "unverified"
                self.tally.record(outcome)
                per.append(outcome)
            outcomes.append(per)
        return outcomes

    # -- metrics ---------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> dict:
        self.calibrator = PairCalibrator()
        if not trace:
            records, timing = self.drive(seconds)
            self.stop_server()
            outcomes = self.verify(records, self.references(records))
            return self.end_to_end(records, outcomes, timing)
        # untraced half, then the same requests against a traced server
        records, timing = self.drive(seconds / 2.0)
        self.stop_server()
        spans_out = os.path.join(self.tmp, "server-spans.json")
        self.server = Server(spans_out=spans_out)
        self.server.wait_ready()
        traced, _ = self.drive(None, segments=len(timing))
        self.stop_server()
        with open(spans_out, encoding="utf-8") as fh:
            dump = json.load(fh)
        refs = self.references(traced)
        self.verify(records, refs)
        self.verify(traced, refs)
        return self.per_layer(records, traced, dump)

    def end_to_end(self, records, outcomes, timing) -> dict:
        measured = {"hit": [], "miss": []}
        solve = {m: [] for m in METHODS}
        solve_measured = {m: [] for m in METHODS}
        everything = []
        prefix = PREFIX_PERIODS * len(PERIOD)
        if min(len(recs) for recs in records) < prefix:
            raise RuntimeError(
                f"a connection sent fewer than {prefix} requests; the run "
                "is too short for rank_total and factor_nnz")
        rank_total = factor_nnz = mismatched = 0
        for c, recs in enumerate(records):
            for n, ((_i, kind, _pair, _tol), seg, rtt, resp, _err) in \
                    enumerate(recs):
                if outcomes[c][n] != "ok":
                    continue
                everything.append(rtt)
                scaled = rtt * timing[seg][1]
                status = resp.get("cache")
                mismatched += status != EXPECTED[kind]
                if status == "miss":
                    measured["miss"].append(rtt)
                    solve[resp["method"]].append(scaled)
                    solve_measured[resp["method"]].append(rtt)
                    if n < prefix:
                        rank_total += resp["result"]["rank"]
                        factor_nnz += resp["result"]["factor_nnz"]
                else:
                    measured["hit"].append(rtt)
        # closed-loop throughput over the segments, calibration pauses
        # excluded, in reference-host seconds
        active = sum(a for a, _ in timing)
        metrics = {"solves_per_s": len(everything)
                   / sum(a * f for a, f in timing)}
        for m in METHODS:
            metrics[f"{m}.solve_s"] = (stats.median(solve[m])
                                       if solve[m] else 0.0)
        metrics["rank_total"] = rank_total
        metrics["factor_nnz"] = factor_nnz
        metrics["peak_rss_mb"] = self.rss_mb
        report = {"failed_ratio": self.tally.failed_ratio,
                  "requests": len(everything),
                  "solves_per_s.measured": len(everything) / active,
                  "segments": len(timing),
                  "tiers": self.tiers,
                  "cache_status_mismatches": mismatched,
                  "samples": {"hit": len(measured["hit"]),
                              "miss": len(measured["miss"]),
                              **{m: len(v) for m, v in solve.items()}}}
        for m in METHODS:
            if solve_measured[m]:
                report[f"{m}.solve_s.measured"] = stats.median(
                    solve_measured[m])
        for mode in ("hit", "miss"):
            if measured[mode]:
                report[f"latency_s.{mode}.p50"] = stats.median(
                    measured[mode])
        try:
            p90, beyond = stats.tail_percentile(everything, 90.0)
            report["latency_s.p90"] = p90
            report["latency_s.p90.beyond"] = beyond
        except ValueError as exc:
            report["latency_s.p90"] = f"unavailable: {exc}"
        return {"metrics": metrics, "report": report}

    def per_layer(self, plain, traced, dump) -> dict:
        snap = dump["snapshot"]
        periods = sum(len(r) // len(PERIOD) for r in traced)
        layer = layer_metrics(snap, max(periods, 1))
        answered = [x for recs in traced for x in recs if x[3] is not None]
        wire = [rtt - resp["latency"] for _i, _seg, rtt, resp, _e in answered]
        waits = dump["queue_waits"]
        layer["service.wire_s.p50"] = stats.median(wire) if wire else 0.0
        layer["service.queue_s.p50"] = stats.median(waits) if waits else 0.0
        lookups = hits = 0
        for recs in traced:
            whole = len(recs) // len(PERIOD) * len(PERIOD)
            for *_, resp, _err in recs[:whole]:
                if resp is not None and resp.get("cache"):
                    lookups += 1
                    hits += resp["cache"] in ("hit", "dominated")
        layer["service.cache.hit_ratio"] = hits / lookups if lookups else 0.0
        traced_wall = sum(x[2] for x in answered)
        server_self = sum(v[2] for v in snap["totals"].values())
        # server latency = queue wait + server spans + the rest
        unattributed = traced_wall - sum(wire) - sum(waits) - server_self
        if unattributed < 0:
            raise AssertionError(
                f"server spans and queue waits exceed the server latency "
                f"by {-unattributed:g} s")
        layer["unattributed_s"] = unattributed
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead"] = traced_wall / sum(
            x[2] for recs in plain for x in recs if x[3] is not None)
        layer_sum = (sum(v for k, v in layer.items() if k.endswith(".self_s"))
                     + sum(wire) + sum(waits) + unattributed)
        check_layer_sum(layer_sum, traced_wall)
        return {"metrics": layer,
                "report": {"periods": periods, "layer_sum_s": layer_sum,
                           "traced_wall_s": traced_wall,
                           "wire_s": sum(wire), "queue_s": sum(waits),
                           "server_self_s": server_self,
                           "failed_ratio": self.tally.failed_ratio}}
