"""Host-speed calibration for timings taken on a shared host.

On a small shared virtual machine the speed of a core changes by tens of
percent from one second to the next (other tenants' load), so raw solve
times of one code version spread by 15-35 % between runs.  The benchmark
therefore brackets each timed request with a short fixed calibration
kernel and scales the raw time by ``REFERENCE_S`` over the calibration
time: the result is the time the request would have taken on a host
where the kernel takes ``REFERENCE_S``.  The solver workloads and the
service take the median of the calibrations near a request (see
``workloads.WINDOW``), since one short pass is noisier than the drift it
has to follow; set-up samples take the mean of the two around them.
On a 2-vCPU KVM guest (Xeon, 2.1 GHz) this cut the run-to-run spread of
the solve-time medians from 13-34 % to 3-8 %.  A calibration on the other
core does not track a core's speed, so work that runs on both cores
(the SPMD ranks, the service with its two workers) is bracketed by
:class:`PairCalibrator`; the service's requests are too short and too
concurrent to bracket one by one, so its closed loop pauses at fixed
points for a calibration while nothing is in flight.

Set-up is mostly fresh interpreters importing NumPy and SciPy, which
the compute kernels track poorly (on the guest above, set-up scaled by
them spread 9-30 % between runs).  Set-up samples are therefore
bracketed by :func:`measure_imports`: the same imports in fresh
interpreters, as many at once as the set-up starts.

The kernel uses only the Python interpreter, NumPy and SciPy - never
``repro`` - so a change to the program under test cannot change the
scale it is measured with.  Its mix follows the solvers' own: small
NumPy calls dominated by interpreter overhead, pivoted LAPACK QR of a
tall block, a sparse column gather, Gram product and format round trip,
a dict-heavy Python loop, a dense product and a sort.  RandQB_EI's
sequential solves, which spend their time in BLAS on tall dense panels,
are scaled by a second, dense kernel instead: the general kernel tracked
them worse (7 % against 3 % windowed spread on the same guest).
"""

from __future__ import annotations

import multiprocessing
import subprocess
import sys
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

#: Calibration times of the reference host (general and dense kernel);
#: never change them, since every reported time is scaled by them.
REFERENCE_S = 0.005
REFERENCE_DENSE_S = 0.002
#: Wall time of :func:`measure_imports` on the reference host.
REFERENCE_IMPORT_S = 0.5
#: What :func:`measure_imports` runs in each fresh interpreter.
IMPORT_KERNEL = ("import numpy, scipy.linalg, scipy.sparse; "
                 "print('READY', flush=True)")


class Calibrator:
    """The calibration kernel on fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.standard_normal(16)
        self.tall = rng.standard_normal((200, 64))
        self.block = sp.random(800, 400, density=0.02, random_state=2,
                               format="csc")
        self.cols = rng.permutation(400)[:64]
        self.square = rng.standard_normal((128, 128))
        self.product = sp.random(1500, 1500, density=0.004, random_state=1,
                                 format="csr")
        self.keys = rng.standard_normal(50000)
        self.panels = None

    def measure(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += float(np.dot(self.vec, self.vec[::-1]))
            self.vec[i % 8:i % 8 + 8].copy()
        for _ in range(3):
            scipy.linalg.qr(self.tall, pivoting=True, mode="r")
        g = self.block[:, self.cols]
        (g.T @ g).toarray()
        self.block.tocsr().tocsc()
        counts: dict[int, int] = {}
        for i in range(8000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        for _ in range(4):
            self.square @ self.square
        self.product @ self.product
        np.sort(self.keys)
        return time.perf_counter() - t0

    def measure_dense(self) -> float:
        """Seconds one pass of the dense kernel takes now: BLAS products
        and a QR of tall panels, the mix of RandQB_EI's sketch, orth and
        re-orthogonalization steps."""
        if self.panels is None:
            rng = np.random.default_rng(5)
            self.panels = (rng.standard_normal((1600, 96)),
                           rng.standard_normal((1600, 32)))
        x, y = self.panels
        t0 = time.perf_counter()
        z = x.T @ y
        x @ z
        np.linalg.qr(y)
        (x * 2.0).sum()
        return time.perf_counter() - t0


def scale(before: float, after: float,
          reference: float = REFERENCE_S) -> float:
    """Factor from raw seconds to reference-host seconds for a request
    bracketed by calibrations taking ``before`` and ``after`` seconds."""
    return reference / (0.5 * (before + after))


def _pair_helper(conn) -> None:
    cal = Calibrator()
    while (kernel := conn.recv()) is not None:
        conn.send(getattr(cal, kernel)())


class PairCalibrator:
    """The calibration kernel on both cores at once: this process and a
    helper process each run it, for requests whose work runs on both
    cores (the SPMD ranks, the service).  :meth:`close` stops the
    helper."""

    def __init__(self):
        self.own = Calibrator()
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.helper = ctx.Process(target=_pair_helper, args=(child,),
                                  daemon=True)
        self.helper.start()
        child.close()

    def measure(self) -> float:
        """Mean seconds of two concurrent passes of the general kernel."""
        return self._both("measure")

    def measure_dense(self) -> float:
        """Mean seconds of two concurrent passes of the dense kernel."""
        return self._both("measure_dense")

    def _both(self, kernel: str) -> float:
        self.conn.send(kernel)
        own = getattr(self.own, kernel)()
        return 0.5 * (own + self.conn.recv())

    def close(self) -> None:
        self.conn.send(None)
        self.helper.join(timeout=30)
        if self.helper.is_alive():
            self.helper.kill()
            self.helper.join()
        self.conn.close()


def measure_imports(env: dict, procs: int) -> float:
    """Seconds until ``procs`` fresh interpreters, started at once with
    environment ``env``, have imported NumPy and SciPy: up to their
    ``READY`` lines, the way set-up is timed, so that interpreter
    teardown stays out of both."""
    t0 = time.perf_counter()
    started = [subprocess.Popen([sys.executable, "-c", IMPORT_KERNEL],
                                env=env, stdout=subprocess.PIPE, text=True)
               for _ in range(procs)]
    lines = [p.stdout.readline() for p in started]
    dt = time.perf_counter() - t0
    codes = [p.wait() for p in started]
    for p in started:
        p.stdout.close()
    if any(codes) or lines != ["READY\n"] * procs:
        raise RuntimeError(f"the import calibration failed: {codes}")
    return dt
