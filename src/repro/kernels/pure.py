"""Pure tier: the existing NumPy/SciPy kernel routes, unchanged.

These are thin bindings of the solvers' NumPy/SciPy implementations onto
the dispatch signatures of :mod:`repro.kernels` — the always-available
fallback tier and the bitwise oracle the native tier is pinned against.
(The solver iteration itself is pinned against a materialized-permutation
reference kept in ``tests/lu_reference.py``.)
"""

from __future__ import annotations

from ..sparse import thresholding as _thresholding
from ..sparse import window as _window
from ..sparse.ops import csr_matmul_nosym
from ..sparse.utils import drop_explicit_zeros


def spgemm_csr(A, B):
    """``A @ B`` on canonical CSR operands (scipy accumulation order)."""
    return csr_matmul_nosym(A, B)


def gram_csc(B1, B2):
    """Dense ``B1.T @ B2`` of canonical float64 CSC panels (the PR-2
    ``_cross_gram_kernel`` route)."""
    from ..linalg.cholqr import _cross_gram_kernel
    return _cross_gram_kernel(B1, B2)


def schur_update_csc(A22, F, A12, tol: float | None = None):
    """The Schur-complement update ``(A22 - F @ A12).tocsc()`` with the
    explicit-zero drop applied when ``tol`` is not ``None`` — exactly the
    composition the solvers ran before this entry point existed."""
    schur = (A22 - csr_matmul_nosym(F, A12)).tocsc()
    if tol is not None:
        drop_explicit_zeros(schur, tol=tol)
    return schur


def threshold_mask(A, mu: float):
    return _thresholding.threshold_mask(A, mu)


def apply_threshold_mask(A, mask):
    return _thresholding.apply_threshold_mask(A, mask)


def permuted_blocks(active, col_perm, row_perm, k: int):
    return _window.permuted_blocks(active, col_perm, row_perm, k)
