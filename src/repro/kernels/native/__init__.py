"""Native (compiled C) kernel tier: build, load, and ctypes bindings.

Do not import this module directly from solver/runtime code — go through
the dispatch layer (:mod:`repro.kernels`), which resolves the active tier
and falls back to ``pure`` when no compiler is available.  Lint rule
SPMD004 enforces that boundary.

The shared library is built lazily by :mod:`repro.kernels.native.build`
(source-hash-keyed cache, atomic, stdlib-only) and loaded once per
process with :mod:`ctypes` — SPMD rank processes each perform their own
lazy load of the cached ``.so`` on first dispatched call.

Every wrapper below produces bitwise-identical results to its pure
counterpart (see the parity pins in ``tests/test_kernel_tiers.py``):

- :func:`spgemm_csr`       ≡ ``repro.sparse.ops.csr_matmul_nosym``
- :func:`threshold_mask` / :func:`apply_threshold_mask`
                           ≡ ``repro.sparse.thresholding`` pair
- :func:`permuted_blocks`  ≡ ``repro.sparse.window.permuted_blocks``
- :func:`gram_csc`         ≡ ``repro.linalg.cholqr._cross_gram_kernel``
- :func:`schur_diff_csc`   ≡ ``(A - C).tocsc()`` + ``drop_explicit_zeros``
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

from ...sparse.ops import _MATMUL_CAP
from ...sparse.utils import raw_csc, raw_csr
from ..workspace import SpGEMMWorkspace
from . import build

_INT32_MAX = np.iinfo(np.int32).max

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_load_attempted = False


def _ptr(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags=("C_CONTIGUOUS",))


#: Declarative ctypes contract for every exported symbol — the Python
#: side of the ABI.  :func:`_bind` materializes it at load time, and the
#: ``repro.lint`` KERN rules parse it *statically* (``ast`` — keep every
#: value a literal) and cross-check it against the C prototypes in
#: ``src/kernels.h``.
#:
#: Shape: ``name -> (restype, argtypes)``.  ``restype`` is a scalar
#: token or ``None`` for ``void``.  Tokens: ``"i64"``/``"f64"`` scalars
#: (``int64_t``/``double``); ``"i32*"``/``"i64*"``/``"f64*"``/``"u8*"``
#: contiguous-ndarray pointers; ``"&f64"`` a ``ctypes.POINTER(c_double)``
#: scalar out-param; ``"IDX*"`` the index dtype of the kernel's two
#: instantiations (``name_i32``/``name_i64``).  Entries whose argtypes
#: mention ``IDX`` bind both suffixed symbols; the rest bind ``name``
#: as-is.
_ABI: dict[str, tuple[str | None, tuple[str, ...]]] = {
    "rk_thresh_mask": ("i64", ("f64*", "i64", "f64", "u8*", "f64*", "&f64")),
    "rk_spgemm": ("i64", ("i64", "i64",
                          "IDX*", "IDX*", "f64*",
                          "IDX*", "IDX*", "f64*",
                          "IDX*", "IDX*", "f64*",
                          "i64*", "f64*", "i64*")),
    "rk_thresh_apply": ("i64", ("i64", "IDX*", "IDX*", "f64*", "u8*")),
    "rk_window_count": ("i64", ("i64", "i64", "i64", "IDX*", "IDX*",
                                "i64*", "i64*", "i64*")),
    "rk_window_fill": (None, ("i64", "i64", "i64", "IDX*", "IDX*", "f64*",
                              "i64*", "i64*", "i64*",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*")),
    "rk_window_fill_topdense": (None, ("i64", "i64", "i64",
                                       "IDX*", "IDX*", "f64*",
                                       "i64*", "i64*", "i64*", "f64*",
                                       "IDX*", "IDX*", "f64*")),
    "rk_csr_tocsc": (None, ("i64", "i64",
                            "IDX*", "IDX*", "f64*",
                            "IDX*", "IDX*", "f64*")),
    "rk_gram": (None, ("i64", "i64", "i64",
                       "IDX*", "IDX*", "f64*",
                       "IDX*", "IDX*", "f64*",
                       "f64*", "i64",
                       "i64*", "i64*", "f64*")),
    "rk_schur_diff": ("i64", ("i64", "i64",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*",
                              "i64*", "f64*", "f64")),
}

_SCALAR_CTYPES = {"i64": ctypes.c_int64, "f64": ctypes.c_double}
_PTR_DTYPES = {"i32": np.int32, "i64": np.int64,
               "f64": np.float64, "u8": np.uint8}


def _ctype(token: str, idx_dtype):
    """One ``_ABI`` token to its ctypes argtype (``idx_dtype`` resolves
    ``IDX`` for the current instantiation)."""
    if token == "IDX*":
        return _ptr(idx_dtype)
    if token.startswith("&"):
        return ctypes.POINTER(_SCALAR_CTYPES[token[1:]])
    if token.endswith("*"):
        return _ptr(_PTR_DTYPES[token[:-1]])
    return _SCALAR_CTYPES[token]


def abi_is_generic(argtypes: tuple[str, ...]) -> bool:
    """Whether an ``_ABI`` entry describes an index-generic kernel
    (bound as ``name_i32``/``name_i64``) or a single plain symbol."""
    return any("IDX" in tok for tok in argtypes)


def _bind(lib: ctypes.CDLL) -> None:
    for name, (res, args) in _ABI.items():
        restype = None if res is None else _SCALAR_CTYPES[res]
        if abi_is_generic(args):
            variants = (("_i32", np.int32), ("_i64", np.int64))
        else:
            variants = (("", np.int64),)
        for suffix, idt in variants:
            fn = getattr(lib, name + suffix)
            fn.restype = restype
            fn.argtypes = [_ctype(tok, idt) for tok in args]


def _sanitize_load_error(path, profiles: tuple[str, ...]) -> str | None:
    """Why the active sanitizer profile forbids dlopening ``path`` into
    this interpreter, or ``None`` when loading is safe.

    An ASan library whose runtime is not already loaded *aborts the
    process* inside dlopen, so it is refused up front instead of
    attempted.
    """
    if "asan" in profiles:
        preload = os.environ.get("LD_PRELOAD", "")
        if "asan" not in preload:
            return (f"asan build {path} needs the ASan runtime loaded "
                    "first: eval \"$(python -m repro.kernels.native "
                    "--sanitize-env)\" before starting python")
    return None


def load() -> ctypes.CDLL | None:
    """Build (if needed) and load the kernel library; ``None`` if the host
    cannot produce one.  Memoized per process; thread-safe."""
    global _lib, _load_attempted
    if _lib is not None or _load_attempted:
        return _lib
    with _lock:
        if _lib is not None or _load_attempted:
            return _lib
        path = build.build_library()
        lib = None
        if path is not None:
            refusal = _sanitize_load_error(path, build.sanitize_profiles())
            if refusal is not None:
                build.last_error = refusal
            else:
                try:
                    lib = ctypes.CDLL(str(path))
                    _bind(lib)
                except OSError as exc:  # corrupt cache entry, missing symbol
                    build.last_error = f"failed to load {path}: {exc}"
                    lib = None
        _lib = lib
        _load_attempted = True
        if lib is not None:
            _cache_probe.clear()  # a fresh build makes stale "no" answers wrong
    return _lib


def available() -> bool:
    return load() is not None


# env-keyed memo of the warm-cache stat probe: the probe re-hashes every C
# source, and the ``auto`` tier consults it on every dispatch made without
# a resolved tier.
# Invalidation: reset() (tests) and a successful in-process build (load()).
# A build finished by *another* process goes unseen until then — same
# "resolved once" behaviour solver configs already have.
_cache_probe: dict = {}


def cached_build_exists() -> bool:
    """True when the ``.so`` for the current sources is already on disk —
    a stat probe that never *runs* a compiler (the ``auto`` tier uses this
    so it cannot trigger a build).  The compiler is still *discovered*
    (PATH lookups only) because its path is part of the cache key."""
    key = (os.environ.get("REPRO_KERNEL_CACHE"),
           os.environ.get("XDG_CACHE_HOME"),
           os.environ.get("CC"),
           os.environ.get(build.SANITIZE_ENV))
    hit = _cache_probe.get(key)
    if hit is None:
        try:
            hit = any(p.exists() for p in build.cached_library_paths())
        except OSError:
            hit = False
        _cache_probe[key] = hit
    return hit


def reset() -> None:
    """Forget the memoized load (tests re-probe after monkeypatching)."""
    global _lib, _load_attempted
    with _lock:
        _lib = None
        _load_attempted = False
        _cache_probe.clear()


def _idx_suffix(dtype) -> str:
    return "_i32" if np.dtype(dtype) == np.int32 else "_i64"


# ---------------------------------------------------------------------------
# kernel wrappers (same contracts as the pure tier)
# ---------------------------------------------------------------------------

def spgemm_csr(A, B, workspace=None):
    """``A @ B`` for canonical CSR operands — scipy-accumulation-order
    row-merge in C, with all intermediates served from ``workspace``
    (:class:`repro.kernels.workspace.SpGEMMWorkspace`)."""
    lib = load()
    m = A.shape[0]
    n = B.shape[1]
    if lib is None or A.nnz == 0 or B.nnz == 0:
        return A @ B
    bound = int(np.diff(B.indptr)[A.indices].sum())
    cap = min(bound, m * n)
    if cap > _MATMUL_CAP:
        return A @ B
    idx_dtype = np.promote_types(A.indices.dtype, B.indices.dtype)
    if np.dtype(idx_dtype) not in (np.dtype(np.int32), np.dtype(np.int64)):
        return A @ B
    dt = np.result_type(A.dtype, B.dtype)
    if np.dtype(dt) != np.float64:
        return A @ B
    Ap = A.indptr.astype(idx_dtype, copy=False)
    Aj = A.indices.astype(idx_dtype, copy=False)
    Bp = B.indptr.astype(idx_dtype, copy=False)
    Bj = B.indices.astype(idx_dtype, copy=False)
    Ax = A.data.astype(dt, copy=False)
    Bx = B.data.astype(dt, copy=False)
    if workspace is None:
        workspace = SpGEMMWorkspace()
    Cp = np.empty(m + 1, dtype=idx_dtype)
    Cj = np.empty(cap, dtype=idx_dtype)
    Cx = np.empty(cap, dtype=np.float64)
    mark, sums, touched = workspace.matmat_buffers(n)
    fn = getattr(lib, "rk_spgemm" + _idx_suffix(idx_dtype))
    nnz = int(fn(m, n, Ap, Aj, Ax, Bp, Bj, Bx, Cp, Cj, Cx,
                 mark, sums, touched))
    # sorted_indices=None matches the pure route (rows are emitted in
    # scipy's reverse-insertion order, not sorted)
    return raw_csr(Cx[:nnz], Cj[:nnz], Cp, (m, n), sorted_indices=None)


def threshold_mask(A, mu: float):
    """Fused single-pass mask + perturbation accounting (pure contract:
    ``repro.sparse.thresholding.threshold_mask``)."""
    lib = load()
    if mu <= 0.0 or A.nnz == 0 or lib is None \
            or A.data.dtype != np.float64:
        from ...sparse import thresholding
        return thresholding.threshold_mask(A, mu)
    data = A.data
    mask = np.empty(data.size, dtype=np.uint8)
    dropped = np.empty(data.size, dtype=np.float64)
    dmax = ctypes.c_double(0.0)
    count = int(lib.rk_thresh_mask(data, data.size, float(mu), mask,
                                   dropped, ctypes.byref(dmax)))
    d = dropped[:count]
    # the reduction runs through the same np.dot as the pure tier, on the
    # same values in the same order — bitwise-identical statistic
    norm_sq = float(np.dot(d, d))
    return mask.view(bool), count, norm_sq, float(dmax.value)


def apply_threshold_mask(A, mask):
    """Apply a threshold mask in place and prune zeros (pure contract:
    ``repro.sparse.thresholding.apply_threshold_mask``)."""
    lib = load()
    if mask is None or lib is None or A.data.dtype != np.float64 \
            or A.indices.dtype != A.indptr.dtype \
            or np.dtype(A.indices.dtype) not in (np.dtype(np.int32),
                                                 np.dtype(np.int64)):
        from ...sparse import thresholding
        return thresholding.apply_threshold_mask(A, mask)
    m8 = np.ascontiguousarray(mask, dtype=np.uint8)
    fn = getattr(lib, "rk_thresh_apply" + _idx_suffix(A.indices.dtype))
    n_outer = A.indptr.size - 1
    nnz = int(fn(n_outer, A.indptr, A.indices, A.data, m8))
    A.data = A.data[:nnz]
    A.indices = A.indices[:nnz]
    return A


def _window_split(lib, active, cols, ipos, k, rowcount, idx_dtype):
    """Split one permuted column window into top/bottom canonical CSR."""
    m = active.shape[0]
    ncols = cols.size
    in_dtype = active.indices.dtype
    suffix = _idx_suffix(in_dtype)
    count = getattr(lib, "rk_window_count" + suffix)
    fill = getattr(lib, "rk_window_fill" + suffix)
    total = int((active.indptr[cols + 1] - active.indptr[cols]).sum())
    top = int(count(m, k, ncols, active.indptr, active.indices, cols,
                    ipos, rowcount))
    bot = total - top
    # the C instantiation types outputs like the inputs; downcast (always
    # lossless: max(shape) bounds every index) to the canonical output
    # dtype afterwards when they differ
    Bp = np.empty(k + 1, dtype=in_dtype)
    Bj = np.empty(top, dtype=in_dtype)
    Bx = np.empty(top, dtype=np.float64)
    Cp = np.empty(m - k + 1, dtype=in_dtype)
    Cj = np.empty(bot, dtype=in_dtype)
    Cx = np.empty(bot, dtype=np.float64)
    fill(m, k, ncols, active.indptr, active.indices, active.data, cols,
         ipos, rowcount, Bp, Bj, Bx, Cp, Cj, Cx)
    return (raw_csr(Bx, Bj.astype(idx_dtype, copy=False),
                    Bp.astype(idx_dtype, copy=False), (k, ncols)),
            raw_csr(Cx, Cj.astype(idx_dtype, copy=False),
                    Cp.astype(idx_dtype, copy=False), (m - k, ncols)))


def _window_split_topdense(lib, active, cols, ipos, k, rowcount, idx_dtype):
    """Split the pivot column window: top block straight to dense (it is
    inverted immediately — see rk_window_fill_topdense), bottom to CSR."""
    m = active.shape[0]
    ncols = cols.size
    in_dtype = active.indices.dtype
    suffix = _idx_suffix(in_dtype)
    count = getattr(lib, "rk_window_count" + suffix)
    fill = getattr(lib, "rk_window_fill_topdense" + suffix)
    total = int((active.indptr[cols + 1] - active.indptr[cols]).sum())
    top = int(count(m, k, ncols, active.indptr, active.indices, cols,
                    ipos, rowcount))
    bot = total - top
    D = np.empty((k, ncols), dtype=np.float64)
    Cp = np.empty(m - k + 1, dtype=in_dtype)
    Cj = np.empty(bot, dtype=in_dtype)
    Cx = np.empty(bot, dtype=np.float64)
    fill(m, k, ncols, active.indptr, active.indices, active.data, cols,
         ipos, rowcount, D, Cp, Cj, Cx)
    return D, raw_csr(Cx, Cj.astype(idx_dtype, copy=False),
                      Cp.astype(idx_dtype, copy=False), (m - k, ncols))


def permuted_blocks(active, col_perm, row_perm, k: int, rowcount=None):
    """Fused permute + 2x2 split (pure contract:
    ``repro.sparse.window.permuted_blocks``)."""
    lib = load()
    m, n = active.shape
    if lib is None or active.data.dtype != np.float64 \
            or active.indices.dtype != active.indptr.dtype \
            or np.dtype(active.indices.dtype) not in (np.dtype(np.int32),
                                                      np.dtype(np.int64)):
        from ...sparse import window
        return window.permuted_blocks(active, col_perm, row_perm, k)
    if not 0 < k <= min(m, n):
        raise ValueError(f"invalid split size k={k} for shape {active.shape}")
    q = np.ascontiguousarray(col_perm, dtype=np.int64)
    ipos = np.empty(m, dtype=np.int64)
    ipos[np.asarray(row_perm, dtype=np.int64)] = np.arange(m, dtype=np.int64)
    if rowcount is None or rowcount.size < m:
        rowcount = np.empty(max(m, 1), dtype=np.int64)
    idx_dtype = np.int32 if max(m, n) < 2**31 else np.int64

    A11d, A21 = _window_split_topdense(lib, active, q[:k], ipos, k,
                                       rowcount, idx_dtype)
    A12, A22 = _window_split(lib, active, q[k:], ipos, k, rowcount,
                             idx_dtype)
    return A11d, A12, A21, A22


# ---------------------------------------------------------------------------
# dense cross-Gram of CSC panels
# ---------------------------------------------------------------------------

def gram_csc(B1, B2, workspace=None):
    """Dense ``B1.T @ B2`` for canonical CSC panels (pure contract:
    ``repro.linalg.cholqr._cross_gram_kernel``), accumulating straight
    out of an internal counting-sort transpose of ``B2`` instead of the
    pure route's per-call ``tocsr`` + ``sort_indices`` + index upcasts."""
    lib = load()
    m, c1 = B1.shape
    if lib is None or B2.shape[0] != m \
            or B1.data.dtype != np.float64 or B2.data.dtype != np.float64 \
            or B1.indices.dtype != B1.indptr.dtype \
            or B2.indices.dtype != B2.indptr.dtype \
            or B1.indices.dtype != B2.indices.dtype \
            or np.dtype(B1.indices.dtype) not in (np.dtype(np.int32),
                                                  np.dtype(np.int64)):
        from ...linalg.cholqr import _cross_gram_kernel
        return _cross_gram_kernel(B1, B2)
    c2 = B2.shape[1]
    nnz2 = int(B2.indptr[-1])
    if workspace is None:
        workspace = SpGEMMWorkspace()
    tp, tj, tx = workspace.gram_buffers(m, nnz2)
    C = np.empty((c1, c2), dtype=np.float64)
    # self-Gram: B1^T B1 is exactly symmetric (IEEE multiplication is
    # commutative and both triangles accumulate the same products in the
    # same row order), so the kernel fills only the upper triangle and
    # mirrors — half the multiply-add work, bit-identical output
    sym = B1 is B2 or (B1.data is B2.data and B1.indices is B2.indices
                       and B1.indptr is B2.indptr)
    fn = getattr(lib, "rk_gram" + _idx_suffix(B1.indices.dtype))
    fn(m, c1, c2, B1.indptr, B1.indices, B1.data,
       B2.indptr, B2.indices, B2.data, C, int(sym), tp, tj, tx)
    return C


# ---------------------------------------------------------------------------
# fused Schur difference
# ---------------------------------------------------------------------------

def schur_diff_csc(A, C, tol: float, workspace=None):
    """``(A - C).tocsc()`` with the zero/threshold drop fused in; ``A``
    and ``C`` are same-shape CSR (``C``'s rows may be unsorted — it is
    typically SpGEMM output).  Composition contract: scipy's
    ``csr_binop_csr`` subtraction, ``drop_explicit_zeros(..., tol)`` and
    ``tocsc()`` — one pass plus one counting sort instead of three
    materialized intermediates.  Returns ``None`` when the inputs fall
    outside the kernel contract (the caller runs the pure composition)."""
    lib = load()
    m, n = A.shape
    if lib is None or A.data.dtype != np.float64 \
            or C.data.dtype != np.float64:
        return None
    for M in (A, C):
        if M.indices.dtype != M.indptr.dtype or \
                np.dtype(M.indices.dtype) not in (np.dtype(np.int32),
                                                  np.dtype(np.int64)):
            return None
    bound = int(A.indptr[-1]) + int(C.indptr[-1])
    if bound > _MATMUL_CAP:
        return None
    # scipy's binop computes at the common index dtype of the four input
    # index arrays, but the final ``tocsc()`` re-normalizes through the
    # validating constructor: int32 whenever both dimensions and the nnz
    # fit (``bound <= _MATMUL_CAP`` already guarantees nnz fits), int64
    # otherwise — independent of the binop intermediate's dtype.
    idx = np.promote_types(A.indices.dtype, C.indices.dtype)
    if np.dtype(idx) == np.dtype(np.int32) and max(bound, m) > _INT32_MAX:
        return None
    out_idx = np.dtype(np.int32) if max(m, n) <= _INT32_MAX \
        else np.dtype(np.int64)
    if workspace is None:
        workspace = SpGEMMWorkspace()
    mark, sums, _ = workspace.matmat_buffers(n)
    Dp = np.empty(m + 1, dtype=idx)
    Dj = np.empty(bound, dtype=idx)
    Dx = np.empty(bound, dtype=np.float64)
    fn = getattr(lib, "rk_schur_diff" + _idx_suffix(idx))
    nnz = int(fn(m, n,
                 A.indptr.astype(idx, copy=False),
                 A.indices.astype(idx, copy=False), A.data,
                 C.indptr.astype(idx, copy=False),
                 C.indices.astype(idx, copy=False), C.data,
                 Dp, Dj, Dx, mark, sums, float(tol)))
    if np.dtype(idx) != out_idx:
        Dp = Dp.astype(out_idx)
        Dj = Dj[:nnz].astype(out_idx)
    Sp = np.empty(n + 1, dtype=out_idx)
    Si = np.empty(nnz, dtype=out_idx)
    Sx = np.empty(nnz, dtype=np.float64)
    conv = getattr(lib, "rk_csr_tocsc" + _idx_suffix(out_idx))
    conv(m, n, Dp, Dj, Dx, Sp, Si, Sx)
    return raw_csc(Sx, Si, Sp, (m, n), sorted_indices=True)
