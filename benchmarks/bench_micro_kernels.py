"""Tracked micro-kernel benchmarks for the Schur-complement hot path.

Measures the before/after cost of every kernel the optimization layer
touches and serializes the results to ``BENCH_kernels.json`` at the repo
root (the committed copy documents the speedups on the reference machine):

- ``spgemm``            — the ``F @ A12`` product of the Schur update:
                          scipy's row-merge vs the native C row-merge
                          (tracked per tier; no pre-optimization route);
- ``permute_split``     — pure fused permute + 2x2 split vs the native
                          window scatter (dense-A11 variant included);
- ``schur_update``      — reference permute + ``split_2x2`` + scipy ``@``
                          vs the fused index-window ``permuted_blocks`` +
                          ``csr_matmul_nosym`` route; native = the fully
                          fused ``schur_update_csc`` dispatch;
- ``thresholding``      — copying :func:`drop_small` vs the fused
                          mask-then-apply-in-place route;
- ``tsqr``              — communication-avoiding tall-skinny QR (tracked
                          for drift; not changed by the optimization);
- ``lu_crtp_e2e`` / ``ilut_crtp_e2e`` — full solves on the fill-in-heavy
                          M2 analogue: the solver pinned to
                          ``kernel_tier="pure"`` on both columns, native
                          = the same solve with ``kernel_tier="native"``
                          (``auto`` would silently resolve to native on a
                          warm-cache host and measure native against
                          itself).

Schema v2: ``before_s`` / ``after_s`` / ``speedup`` compare a bench's
reference route with the route the library runs (the same pure-tier
number twice where the library has a single pure route).  On hosts with a
working C compiler each bench that has a native-tier kernel additionally
records a ``tiers.native`` sub-entry — ``after_s`` (native seconds),
``speedup`` (vs the bench's ``before_s``) and ``vs_pure`` (vs the pure
tier's ``after_s``); hosts without a compiler simply omit the ``tiers``
columns.

The solver iteration is bitwise-parity-checked against the test-only
reference LU iteration in ``tests/test_opt_parity.py``, and the native
tier against the pure tier in ``tests/test_kernel_tiers.py``; this
script only tracks *time*.

Usage::

    python benchmarks/bench_micro_kernels.py                # full, writes JSON
    python benchmarks/bench_micro_kernels.py --quick        # CI smoke mode
    python benchmarks/bench_micro_kernels.py --quick --check-regression

``--check-regression`` exits nonzero when any bench's route measures
more than 25% slower than its own reference route in the same run — a
machine-independent gate that catches optimizations rotting into
pessimizations.  The same gate applies per tier: a native kernel more
than 25% slower than its pure counterpart fails the run.  When a
previous ``BENCH_kernels.json`` exists it is also compared for drift
(warnings only, never a failure — absolute times are machine-bound).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import kernels  # noqa: E402
from repro.core.ilut_crtp import ILUT_CRTP  # noqa: E402
from repro.core.lu_crtp import LU_CRTP  # noqa: E402
from repro.linalg.tsqr import tsqr  # noqa: E402
from repro.sparse.ops import csr_matmul_nosym, permute, split_2x2  # noqa: E402
from repro.sparse.thresholding import (apply_threshold_mask,  # noqa: E402
                                       drop_small, threshold_mask)
from repro.sparse.window import permuted_blocks  # noqa: E402

#: regression gate: a bench's route may be at most this much slower than
#: its reference route before the run fails
REGRESSION_FACTOR = 1.25

#: results-file schema version: 2 = per-tier columns (``tiers.native``)
SCHEMA_VERSION = 2


def _add_native_tier(entry: dict, native_s: float) -> dict:
    """Attach the native-tier columns to a bench entry (schema v2):
    seconds, speedup vs the bench's reference route, and the ratio vs the
    pure tier's ``after_s`` (what the per-tier regression gate checks)."""
    entry.setdefault("tiers", {})["native"] = {
        "after_s": native_s,
        "speedup": (entry["before_s"] / native_s
                    if native_s > 0 else float("inf")),
        "vs_pure": (entry["after_s"] / native_s
                    if native_s > 0 else float("inf")),
    }
    return entry


def _mintime(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _m2_analogue(n: int) -> sp.csc_matrix:
    rng = np.random.default_rng(1)
    A = sp.random(n, n, density=0.02, random_state=rng, format="csc")
    return (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsc()


def bench_spgemm(quick: bool, repeats: int, native: bool) -> dict:
    """The Schur product ``F @ A12`` through ``kernels.spgemm_csr``: the
    pure route on both columns, the native row-merge in ``tiers.native``
    (bitwise identical output)."""
    n = 400 if quick else 1200
    rng = np.random.default_rng(2)
    F = sp.random(n, 64, density=0.20, random_state=rng, format="csr")
    A12 = sp.random(64, n, density=0.30, random_state=rng, format="csr")
    F.sort_indices()
    A12.sort_indices()

    t_pure = _mintime(lambda: kernels.spgemm_csr(F, A12, tier="pure"),
                      repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"F({n}x64, d=0.20) @ A12(64x{n}, d=0.30); scipy "
                       "row-merge on both columns, native = C row-merge "
                       "into a reused workspace"}
    if native:
        ws = kernels.SpGEMMWorkspace()
        C = kernels.spgemm_csr(F, A12, tier="native", workspace=ws)
        ref = kernels.spgemm_csr(F, A12, tier="pure")
        assert (np.array_equal(C.indptr, ref.indptr)
                and np.array_equal(C.indices, ref.indices)
                and np.array_equal(C.data, ref.data)), "spgemm tiers disagree"
        _add_native_tier(entry, _mintime(
            lambda: kernels.spgemm_csr(F, A12, tier="native", workspace=ws),
            repeats))
    return entry


def bench_permute_split(quick: bool, repeats: int, native: bool) -> dict:
    """The fused permute + 2x2 split window pass on its own (the
    ``schur_update`` bench measures it composed with the multiply).
    Quick mode still uses n=800: below that the pure radix pass is a
    sub-0.2ms blip and the gate would measure dispatch noise."""
    n = 800 if quick else 1200
    k = 32
    A = _m2_analogue(n)
    rng = np.random.default_rng(9)
    col_perm = rng.permutation(n)
    row_perm = rng.permutation(n)

    t_pure = _mintime(
        lambda: kernels.permuted_blocks(A, col_perm, row_perm, k,
                                        tier="pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"M2-analogue n={n}, k={k}; pure radix-sort window "
                       "split on both columns, native = single C scatter "
                       "pass (dense A11 written directly)"}
    if native:
        rp = kernels.permuted_blocks(A, col_perm, row_perm, k, tier="pure")
        rn = kernels.permuted_blocks(A, col_perm, row_perm, k, tier="native")
        assert np.array_equal(rp[0], rn[0]), "A11 blocks disagree"
        for bp, bn in zip(rp[1:], rn[1:]):
            assert (bp - bn).nnz == 0, "window tiers disagree"
        _add_native_tier(entry, _mintime(
            lambda: kernels.permuted_blocks(A, col_perm, row_perm, k,
                                            tier="native"), repeats))
    return entry


def bench_schur_update(quick: bool, repeats: int, native: bool) -> dict:
    n = 400 if quick else 900
    k = 32
    A = _m2_analogue(n)
    rng = np.random.default_rng(3)
    col_perm = rng.permutation(n)
    row_perm = rng.permutation(n)
    Fd = sp.random(n - k, k, density=0.25, random_state=rng, format="csr")

    def reference():
        P = permute(A, row_perm, col_perm).tocsc()
        _, A12, _, A22 = split_2x2(P, k)
        return (A22 - (Fd @ A12.tocsr())).tocsc()

    def fused():
        _, A12, _, A22 = permuted_blocks(A, col_perm, row_perm, k)
        return (A22 - csr_matmul_nosym(Fd, A12)).tocsc()

    ref = reference()
    opt = fused()
    assert abs(ref - opt).max() == 0.0, "schur routes disagree"
    entry = {"before_s": _mintime(reference, repeats),
             "after_s": _mintime(fused, repeats),
             "detail": f"M2-analogue n={n}, k={k}: permute+split+scipy-@ vs "
                       "index-window blocks + symbolic-free matmul; native "
                       "= fused schur_update_csc (C window scatter + "
                       "row-merge + one-pass diff/convert)"}
    if native:
        ws2 = kernels.SpGEMMWorkspace()

        def fused_native():
            _, A12, _, A22 = kernels.permuted_blocks(
                A, col_perm, row_perm, k, tier="native")
            return kernels.schur_update_csc(A22, Fd, A12, tol=None,
                                            tier="native", workspace=ws2)

        assert abs(ref - fused_native()).max() == 0.0, \
            "native schur route disagrees"
        _add_native_tier(entry, _mintime(fused_native, repeats))
    return entry


def bench_thresholding(quick: bool, repeats: int, native: bool) -> dict:
    n = 300 if quick else 800
    rng = np.random.default_rng(4)
    S = sp.random(n, n, density=0.30, random_state=rng, format="csc")
    mu = 0.3  # drops roughly a third of the uniform [0,1) entries

    res = drop_small(S, mu)
    mask, d_nnz, d_sq, _ = threshold_mask(S.copy(), mu)
    assert d_nnz == res.dropped_nnz and d_sq == res.dropped_norm_sq

    before = _mintime(lambda: drop_small(S, mu), repeats)

    def fused():
        # the copy stands in for the matrix the solver already owns; only
        # the mask + apply passes are the fused route's real work
        M = S.copy()
        t0 = time.perf_counter()
        mk, _, _, _ = threshold_mask(M, mu)
        apply_threshold_mask(M, mk)
        return time.perf_counter() - t0

    after = min(fused() for _ in range(repeats))
    entry = {"before_s": before, "after_s": after,
             "detail": f"Schur-like {n}x{n} d=0.30, mu={mu}: copying "
                       "drop_small vs fused mask+apply-in-place; native = "
                       "single-C-pass mask + in-place compaction"}
    if native:
        M0 = S.copy()
        mk0, d_nnz0, d_sq0, _ = kernels.threshold_mask(M0, mu, tier="native")
        assert d_nnz0 == res.dropped_nnz and d_sq0 == res.dropped_norm_sq

        def fused_native():
            M = S.copy()
            t0 = time.perf_counter()
            mk, _, _, _ = kernels.threshold_mask(M, mu, tier="native")
            kernels.apply_threshold_mask(M, mk, tier="native")
            return time.perf_counter() - t0

        _add_native_tier(entry, min(fused_native() for _ in range(repeats)))
    return entry


def bench_tsqr(quick: bool, repeats: int) -> dict:
    m = 2000 if quick else 20000
    rng = np.random.default_rng(5)
    W = rng.standard_normal((m, 32))
    t = _mintime(lambda: tsqr(W), repeats)
    return {"before_s": t, "after_s": t,
            "detail": f"{m}x32 dense block; unchanged kernel, tracked "
                      "for drift"}


def bench_e2e(cls, quick: bool, repeats: int, native: bool = False,
              **kw) -> dict:
    """A full solve on the pure tier on both columns (the library has one
    solver route), the same solve on the native tier in ``tiers.native``
    (bitwise identical pivots and indicator trajectory)."""
    n = 400 if quick else 900
    A = _m2_analogue(n)
    max_rank = 128 if quick else 320
    common = dict(k=32, tol=1e-6, max_rank=max_rank,
                  raise_on_failure=False, **kw)
    r_pure = cls(kernel_tier="pure", **common).solve(A)
    t_pure = _mintime(lambda: cls(kernel_tier="pure", **common).solve(A),
                      repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"M2-analogue n={n}, k=32, max_rank={max_rank}; "
                       "kernel_tier='pure' on both columns, native = "
                       "kernel_tier='native' (pivots and indicator "
                       "trajectories bitwise identical)"}
    if native:
        # warm-up solve: excludes any one-time JIT build/load from timing
        # and checks tier parity on this exact problem
        r_nat = cls(kernel_tier="native", **common).solve(A)
        assert np.array_equal(r_pure.row_perm, r_nat.row_perm)
        assert all(a.indicator == b.indicator
                   for a, b in zip(r_pure.history, r_nat.history))
        _add_native_tier(entry, _mintime(
            lambda: cls(kernel_tier="native", **common).solve(A), repeats))
    return entry


def run(quick: bool) -> dict:
    repeats = 1 if quick else 3
    # one availability probe up front: triggers the one-time JIT build (if
    # a compiler exists) so no timed region ever pays for compilation
    native = kernels.native_available()
    benches = {
        "spgemm": bench_spgemm(quick, max(repeats, 3), native),
        "permute_split": bench_permute_split(quick, max(repeats, 5), native),
        "schur_update": bench_schur_update(quick, max(repeats, 3), native),
        "thresholding": bench_thresholding(quick, max(repeats, 5), native),
        "tsqr": bench_tsqr(quick, max(repeats, 3)),
        # e2e columns gate in CI (--min-native-e2e); 3 quick repeats keep
        # the min-time stable enough for a >= 1.0 gate on shared runners
        "lu_crtp_e2e": bench_e2e(LU_CRTP, quick, 3 if quick else 5,
                                 native=native),
        "ilut_crtp_e2e": bench_e2e(ILUT_CRTP, quick, 3 if quick else 5,
                                   native=native,
                                   estimated_iterations=10),
    }
    for entry in benches.values():
        entry["speedup"] = (entry["before_s"] / entry["after_s"]
                            if entry["after_s"] > 0 else float("inf"))
    return {"config": {"quick": quick, "repeats": repeats,
                       "native_tier": native},
            "schema_version": SCHEMA_VERSION,
            "benches": benches}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small sizes / single repeats (CI smoke mode)")
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernels.json"),
                    help="JSON output path")
    ap.add_argument("--check-regression", action="store_true",
                    help="exit nonzero if any bench's route is >25%% "
                         "slower than its reference route")
    ap.add_argument("--min-native-e2e", type=float, default=None,
                    metavar="RATIO",
                    help="fail unless at least one *_e2e bench records "
                         "tiers.native.vs_pure >= RATIO (skipped with a "
                         "note when no native tier is available)")
    args = ap.parse_args(argv)

    out = Path(args.output)
    prior = None
    if args.check_regression and out.exists():
        try:
            prior = json.loads(out.read_text())
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            print(f"note: ignoring unreadable prior {out}: {exc}")

    results = run(args.quick)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    width = max(len(k) for k in results["benches"])
    for name, entry in results["benches"].items():
        line = (f"{name:{width}s}  before={entry['before_s'] * 1e3:9.2f}ms  "
                f"after={entry['after_s'] * 1e3:9.2f}ms  "
                f"speedup={entry['speedup']:5.2f}x")
        nat = entry.get("tiers", {}).get("native")
        if nat:
            line += (f"  native={nat['after_s'] * 1e3:9.2f}ms "
                     f"({nat['speedup']:.2f}x, {nat['vs_pure']:.2f}x "
                     "vs pure)")
        print(line)
    print(f"wrote {out}")

    if args.check_regression:
        bad = [name for name, e in results["benches"].items()
               if e["after_s"] > REGRESSION_FACTOR * e["before_s"]]
        # per-tier gate on the microkernels only: the e2e native columns
        # are noise-dominated at --quick scale (per-call dispatch overhead
        # vs sub-millisecond windows), so they stay informational
        bad += [f"{name}[native]"
                for name, e in results["benches"].items()
                if not name.endswith("_e2e")
                and e.get("tiers", {}).get("native", {}).get("after_s", 0.0)
                > REGRESSION_FACTOR * e["after_s"]]
        if bad:
            print(f"REGRESSION: route >{REGRESSION_FACTOR}x "
                  f"slower than reference in: {', '.join(bad)}",
                  file=sys.stderr)
            return 1
        # drift report vs the previously-committed results: informational
        # only (absolute times are machine-bound, never a CI failure)
        if prior is not None:
            for name, entry in results["benches"].items():
                old = prior["benches"].get(name)
                if not old:
                    continue
                if entry["speedup"] < old["speedup"] / REGRESSION_FACTOR:
                    print(f"drift: {name} speedup {entry['speedup']:.2f}x "
                          f"(was {old['speedup']:.2f}x)")
        print("regression check passed "
              f"(after <= {REGRESSION_FACTOR} * before for every kernel, "
              "native <= pure * factor where measured)")

    if args.min_native_e2e is not None:
        if not results["config"]["native_tier"]:
            print("native e2e gate skipped: no native tier on this host")
        else:
            ratios = {name: e["tiers"]["native"]["vs_pure"]
                      for name, e in results["benches"].items()
                      if name.endswith("_e2e")
                      and e.get("tiers", {}).get("native")}
            best = max(ratios.values(), default=0.0)
            if best < args.min_native_e2e:
                print("NATIVE E2E GATE: best tiers.native.vs_pure "
                      f"{best:.2f}x < required {args.min_native_e2e:.2f}x "
                      f"({', '.join(f'{k}={v:.2f}x' for k, v in ratios.items())})",
                      file=sys.stderr)
                return 1
            print(f"native e2e gate passed (best vs_pure {best:.2f}x >= "
                  f"{args.min_native_e2e:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
