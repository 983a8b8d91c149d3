"""Reusable scratch buffers of the native-tier kernels.

The row-merge SpGEMM, the fused Schur difference and the panel Gram of
:mod:`repro.kernels.native` each need ``O(n)`` accumulator or transpose
arrays per call.  When the kernels run once per block iteration (the
fixed-precision loop) those allocations dominate small calls, so the
dispatch layer keeps one :class:`SpGEMMWorkspace` per thread and reuses
its buffers:

>>> ws = SpGEMMWorkspace()
>>> mark, sums, touched = ws.matmat_buffers(500)
>>> ws.matmat_buffers(400)[0] is mark      # reused, not regrown
True
"""

from __future__ import annotations

import numpy as np


class SpGEMMWorkspace:
    """Scratch buffers of the native-tier kernels, grown geometrically
    and never shrunk, so a driver loop reallocates only on the
    highest-watermark iteration.

    Attributes
    ----------
    grown:
        How many times the buffers were (re)allocated — a diagnostic for
        verifying reuse in tests and benchmarks.
    """

    def __init__(self):
        self.grown = 0
        # native-tier csr_matmat accumulator buffers (see matmat_buffers)
        self._mm_acc_n = 0
        self._mm_mark: np.ndarray | None = None
        self._mm_sums: np.ndarray | None = None
        self._mm_touched: np.ndarray | None = None
        # counting-sort transpose buffers of the gram kernel (gram_buffers)
        self._gr_m = 0
        self._gr_ptr: np.ndarray | None = None
        self._gr_nnz = 0
        self._gr_ind: np.ndarray | None = None
        self._gr_val: np.ndarray | None = None

    @staticmethod
    def _grow_cap(current: int, needed: int) -> int:
        """Doubling growth schedule: never an exact-fit reallocation, so a
        slowly-rising watermark costs O(log) reallocations, not one per
        iteration."""
        cap = max(2 * current, 1024)
        while cap < needed:
            cap *= 2
        return cap

    def matmat_buffers(self, n: int):
        """Accumulator buffers for the native-tier row-merge SpGEMM
        (:func:`repro.kernels.native.spgemm_csr`) and the fused Schur
        difference, grown geometrically and reused across calls.

        Returns ``(mark, sums, touched)`` where ``mark`` (int64, ≥ ``n``)
        is all ``-1`` — the kernels restore every slot they dirty before
        returning, so the invariant holds across calls without
        re-initialization; ``sums``/``touched`` are scratch with no entry
        invariant.  The *output* arrays are allocated fresh per call (the
        result outlives the workspace; a bound-sized ``np.empty`` is
        cheaper than copying out of a reused buffer).
        """
        if self._mm_mark is None or self._mm_acc_n < n:
            self._mm_acc_n = self._grow_cap(self._mm_acc_n, n)
            self._mm_mark = np.full(self._mm_acc_n, -1, dtype=np.int64)
            self._mm_sums = np.empty(self._mm_acc_n, dtype=np.float64)
            self._mm_touched = np.empty(self._mm_acc_n, dtype=np.int64)
            self.grown += 1
        return (self._mm_mark, self._mm_sums, self._mm_touched)

    def gram_buffers(self, m: int, nnz: int):
        """Counting-sort transpose buffers of the native gram kernel
        (:func:`repro.kernels.native.gram_csc`): ``(tp, tj, tx)`` with
        ``tp`` int64 ≥ m and ``tj``/``tx`` int64/float64 ≥ nnz; scratch
        with no entry invariant."""
        if self._gr_ptr is None or self._gr_m < m:
            self._gr_m = self._grow_cap(self._gr_m, m)
            self._gr_ptr = np.empty(self._gr_m, dtype=np.int64)
            self.grown += 1
        if self._gr_ind is None or self._gr_nnz < nnz:
            self._gr_nnz = self._grow_cap(self._gr_nnz, nnz)
            self._gr_ind = np.empty(self._gr_nnz, dtype=np.int64)
            self._gr_val = np.empty(self._gr_nnz, dtype=np.float64)
            self.grown += 1
        return (self._gr_ptr, self._gr_ind, self._gr_val)
