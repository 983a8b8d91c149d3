"""Span tracing installed from outside the library.

:class:`Tracer` keeps, per thread, a stack of open spans and folds each
closed span into per-name totals: call count, inclusive time and self
time (inclusive time minus the part its child spans cover, see
:func:`stats.self_time`).  The ``install_*`` functions wrap public
functions of the ``repro`` modules in spans by replacing every
module-level reference to the original function object, so callers that
imported a name directly (``from ..pivoting.select import
select_columns``) see the wrapper too.  Nothing under ``src/`` is
edited; the wrappers live only in the process that installed them (and
in processes forked from it).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

import scipy.sparse as sp

import stats

#: Relative tolerance of :func:`check_sums` (float rounding only).
SUM_REL_TOL = 1e-9

#: The ``repro.kernels`` dispatch functions timed one by one.
KERNEL_FUNCTIONS = (
    "schur_update_csc", "permuted_blocks", "gram_csc", "gather_columns",
    "threshold_mask", "apply_threshold_mask", "pivot_argmin_consume",
    "csr_to_csc", "csc_to_csr", "spgemm_csr",
)

#: Canonical method name per solver class, for the ``core.<method>`` spans.
SOLVER_CLASSES = (
    ("repro.core.lu_crtp", "LU_CRTP", "lu"),
    ("repro.core.ilut_crtp", "ILUT_CRTP", "ilut"),
    ("repro.core.randqb_ei", "RandQB_EI", "randqb"),
)


class Tracer:
    """Per-thread span stacks folded into per-name totals."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: free-form counters fed by wrapper hooks
        self.counters: dict[str, float] = {}
        self.root_inclusive = 0.0

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    @property
    def method(self) -> str | None:
        """The solver method the current thread is running (hook context)."""
        return getattr(self._tls, "method", None)

    @method.setter
    def method(self, value: str | None) -> None:
        self._tls.method = value

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), []]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, children = frame
        incl = end - start
        own = stats.self_time(start, end, children)
        if stack:
            stack[-1][2].append((start, end))
        with self._lock:
            t = self.totals.get(name)
            if t is None:
                t = self.totals[name] = [0, 0.0, 0.0]
            t[0] += 1
            t[1] += incl
            t[2] += own
            if not stack:
                self.root_inclusive += incl

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def open_spans(self) -> int:
        return len(self._stack())

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` is a string or a callable of the
        call's arguments; ``after(tracer, result, args, kwargs)`` runs
        after the span closes (hooks do not count towards any span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name if isinstance(name, str)
                                 else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, out, args, kwargs)
            return out

        return wrapper

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {"totals": {k: list(v) for k, v in self.totals.items()},
                    "counters": dict(self.counters),
                    "root_inclusive": self.root_inclusive}


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.frame)
        return False


def check_sums(snapshot: dict) -> float:
    """Check that the self times of all spans add up to the inclusive
    time of the root spans (no double counting, nothing lost) and that no
    self time is negative; returns the summed self time."""
    total_self = 0.0
    for name, (_calls, incl, own) in snapshot["totals"].items():
        if own < -1e-9 or own > incl + 1e-9:
            raise AssertionError(
                f"span {name!r}: self {own} outside [0, inclusive {incl}]")
        total_self += own
    root = snapshot["root_inclusive"]
    if abs(total_self - root) > SUM_REL_TOL * max(root, 1.0):
        raise AssertionError(
            f"self times sum to {total_self}, root spans to {root}")
    return total_self


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _replace_everywhere(orig, wrapper) -> int:
    """Point every ``repro.*`` module attribute bound to ``orig`` at
    ``wrapper``; returns the number of bindings replaced."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def wrap_function(tracer: Tracer, module: str, attr: str, name,
                  after=None) -> None:
    orig = getattr(importlib.import_module(module), attr)
    if _replace_everywhere(orig, tracer.wrap(orig, name, after)) == 0:
        raise RuntimeError(f"{module}.{attr} is bound nowhere")


def wrap_method(tracer: Tracer, module: str, cls_name: str, attr: str,
                name, after=None) -> None:
    cls = getattr(importlib.import_module(module), cls_name)
    orig = cls.__dict__[attr]
    setattr(cls, attr, tracer.wrap(orig, name, after))


def _count_match(tracer: Tracer, sel, args, kwargs) -> None:
    # column-tournament matches only: the row tournament selects on a
    # dense Q block and has no Gram route to fall back from
    if not sp.issparse(args[0]):
        return
    method = tracer.method or "other"
    tracer.count(f"pivoting.matches.{method}")
    if sel.used_fallback:
        tracer.count(f"pivoting.fallbacks.{method}")


def _count_iterations(method: str):
    def after(tracer: Tracer, result, args, kwargs) -> None:
        tracer.count(f"core.{method}.solves")
        tracer.count(f"core.{method}.iterations", result.iterations)
    return after


def install_solver_layers(tracer: Tracer) -> None:
    """Spans around the public entry points of the solver layers:
    ``core``, ``ordering``, ``pivoting``, ``linalg``, ``sparse`` and every
    ``repro.kernels`` dispatch function."""
    for module in ("repro.core", "repro.parallel", "repro.parallel.spmd",
                   "repro.parallel.comm", "repro.ordering.etree",
                   "repro.pivoting.tournament", "repro.pivoting.select",
                   "repro.linalg.cholqr", "repro.linalg.qrcp",
                   "repro.linalg.orth", "repro.sparse.thresholding",
                   "repro.sparse.ops", "repro.kernels"):
        importlib.import_module(module)
    for module, cls_name, method in SOLVER_CLASSES:
        wrap_method(tracer, module, cls_name, "solve", f"core.{method}",
                    after=_count_iterations(method))
    wrap_function(tracer, "repro.ordering.etree", "colamd_preprocess",
                  "ordering.colamd")
    wrap_function(tracer, "repro.pivoting.tournament", "qr_tp",
                  "pivoting.qr_tp")
    wrap_function(tracer, "repro.pivoting.tournament", "qr_tp_rows",
                  "pivoting.qr_tp_rows")
    wrap_function(tracer, "repro.pivoting.select", "select_columns",
                  "pivoting.select_columns", after=_count_match)
    wrap_function(tracer, "repro.linalg.cholqr", "gram_r_factor",
                  "linalg.gram_r_factor")
    wrap_function(tracer, "repro.linalg.cholqr", "cholqr2", "linalg.cholqr2")
    wrap_function(tracer, "repro.linalg.qrcp", "qrcp", "linalg.qrcp")
    wrap_function(tracer, "repro.linalg.orth", "orth", "linalg.orth")
    wrap_function(tracer, "repro.linalg.orth", "reorthogonalize",
                  "linalg.orth")
    wrap_function(tracer, "repro.sparse.thresholding", "drop_small",
                  "sparse.drop_small")
    wrap_function(tracer, "repro.sparse.thresholding", "drop_sorted_budget",
                  "sparse.drop_sorted_budget")
    wrap_function(tracer, "repro.sparse.ops", "assemble_L_global",
                  "sparse.assemble")
    wrap_function(tracer, "repro.sparse.ops", "assemble_U_global",
                  "sparse.assemble")
    for fn in KERNEL_FUNCTIONS:
        wrap_function(tracer, "repro.kernels.tiers", fn, f"kernels.{fn}")


def install_spmd_layers(tracer: Tracer) -> None:
    """Spans around the SPMD front door (``core.<method>``: parent-side
    driver and result assembly) and the parent's wait on the rank
    processes (``parallel.run_spmd``)."""
    from repro.api import resolve_method
    importlib.import_module("repro.parallel.spmd")
    wrap_function(tracer, "repro.parallel.spmd", "run_spmd_solver",
                  lambda args, kwargs: f"core.{resolve_method(args[0])}")
    wrap_function(tracer, "repro.parallel.comm", "run_spmd",
                  "parallel.run_spmd")


def install_service_layers(tracer: Tracer, queue_waits: list) -> None:
    """Spans inside the solve service: matrix load (wire payload parse)
    and fingerprint, cache lookup and store, and the solve itself.  The
    queue wait of every completed job is appended to ``queue_waits``."""
    importlib.import_module("repro.service.runner")

    def set_method(args, kwargs):
        # runs on the executor thread that performs the solve, so the
        # pivoting hooks attribute matches to the job's method
        tracer.method = args[1].request.method
        return "service.solve"

    wrap_method(tracer, "repro.service.runner", "SolveService",
                "_load_matrix", "service.load")
    wrap_function(tracer, "repro.service.cache", "matrix_fingerprint",
                  "service.fingerprint")
    wrap_method(tracer, "repro.service.cache", "FactorizationCache",
                "lookup", "service.cache.lookup")
    wrap_method(tracer, "repro.service.cache", "FactorizationCache",
                "store", "service.cache.store")
    wrap_method(tracer, "repro.service.runner", "SolveService",
                "_execute", set_method)
    cls = importlib.import_module("repro.service.runner").SolveService
    orig = cls.__dict__["_complete"]

    @functools.wraps(orig)
    def _complete(self, job):
        orig(self, job)
        if job.started_at is not None:
            queue_waits.append(job.started_at - job.submitted_at)

    cls._complete = _complete
