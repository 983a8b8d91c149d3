"""Format coercion and basic statistics for sparse matrices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def ensure_csc(A, *, dtype=np.float64) -> sp.csc_matrix:
    """Return ``A`` as CSC with ``dtype`` data (float64 by default).

    True no-op when ``A`` already is a CSC matrix of the right dtype with
    sorted indices: the input object is returned unchanged — no conversion,
    no hidden copy.  ``dtype=None`` preserves the input dtype (used by the
    dtype-preserving SpGEMM engine).
    """
    if isinstance(A, sp.csc_matrix):
        if (dtype is None or A.dtype == dtype) and A.has_sorted_indices:
            return A
        M = A
    elif isinstance(A, sp.csr_matrix):
        # the hot cross-format case: route through the kernel registry,
        # whose ``kernel_tier.convert_*`` counters see every conversion
        from .. import kernels
        M = kernels.csr_to_csc(A)
    elif sp.issparse(A):
        M = A.tocsc()
    else:
        M = sp.csc_matrix(np.asarray(
            A, dtype=np.float64 if dtype is None else dtype))
    if dtype is not None and M.dtype != dtype:
        M = M.astype(dtype)
    if not M.has_sorted_indices:
        if M is A:
            M = M.copy()
        M.sort_indices()
    return M


def ensure_csr(A, *, dtype=np.float64) -> sp.csr_matrix:
    """Return ``A`` as CSR with ``dtype`` data (float64 by default).

    True no-op (no conversion, no hidden copy) when ``A`` is already CSR
    with the right dtype and sorted indices; see :func:`ensure_csc`.
    """
    if isinstance(A, sp.csr_matrix):
        if (dtype is None or A.dtype == dtype) and A.has_sorted_indices:
            return A
        M = A
    elif isinstance(A, sp.csc_matrix):
        # registry conversion; see :func:`ensure_csc`
        from .. import kernels
        M = kernels.csc_to_csr(A)
    elif sp.issparse(A):
        M = A.tocsr()
    else:
        M = sp.csr_matrix(np.asarray(
            A, dtype=np.float64 if dtype is None else dtype))
    if dtype is not None and M.dtype != dtype:
        M = M.astype(dtype)
    if not M.has_sorted_indices:
        if M is A:
            M = M.copy()
        M.sort_indices()
    return M


def raw_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
            shape: tuple[int, int], *,
            sorted_indices: bool | None = True) -> sp.csr_matrix:
    """Wrap already-valid CSR arrays without scipy's constructor checks.

    The hot paths build their index arrays to be canonical by construction
    (verified by the parity suite); scipy's ``__init__`` validation —
    ``get_index_dtype`` scans, shape checks, dtype coercion — then costs
    more than the wrapping itself.  The caller guarantees: ``indptr`` has
    ``shape[0] + 1`` monotone entries, ``indices``/``data`` have
    ``indptr[-1]`` entries, and indices are in-range (and per-row sorted
    when ``sorted_indices``).
    """
    M = sp.csr_matrix.__new__(sp.csr_matrix)
    M.data = data
    M.indices = indices
    M.indptr = indptr
    M._shape = shape
    if sorted_indices is not None:  # None: leave scipy's lazy check in place
        M.has_sorted_indices = sorted_indices
    return M


def raw_csc(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
            shape: tuple[int, int], *,
            sorted_indices: bool | None = True) -> sp.csc_matrix:
    """CSC twin of :func:`raw_csr` (same caller contract, column-major)."""
    M = sp.csc_matrix.__new__(sp.csc_matrix)
    M.data = data
    M.indices = indices
    M.indptr = indptr
    M._shape = shape
    if sorted_indices is not None:
        M.has_sorted_indices = sorted_indices
    return M


def drop_explicit_zeros(A: sp.spmatrix, *, tol: float = 0.0) -> sp.spmatrix:
    """Remove stored entries with ``|a_ij| <= tol`` in place and return ``A``.

    The Schur-complement updates of LU_CRTP create exact cancellations whose
    explicit zeros would otherwise inflate every nnz-based statistic (and the
    fill-in plots of Fig. 1).
    """
    if tol > 0.0:
        A.data[np.abs(A.data) <= tol] = 0.0
    A.eliminate_zeros()
    return A


def nnz_of(A) -> int:
    """Stored nonzeros of a sparse matrix or element count of a dense array."""
    if sp.issparse(A):
        return int(A.nnz)
    return int(np.asarray(A).size)


def density(A) -> float:
    """``nnz / (rows * cols)`` — the fill-in measure of Fig. 1 (right)."""
    m, n = A.shape
    if m == 0 or n == 0:
        return 0.0
    return nnz_of(A) / (m * n)


def sparsity_summary(A) -> dict:
    """Human-readable structural statistics (used by examples and benches)."""
    A = ensure_csr(A)
    row_nnz = np.diff(A.indptr)
    return {
        "shape": A.shape,
        "nnz": int(A.nnz),
        "density": density(A),
        "avg_row_nnz": float(row_nnz.mean()) if A.shape[0] else 0.0,
        "max_row_nnz": int(row_nnz.max()) if A.shape[0] else 0,
        "empty_rows": int(np.sum(row_nnz == 0)),
    }
