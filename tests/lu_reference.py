"""Reference LU_CRTP block iteration: the test-only parity oracle.

:meth:`repro.core.lu_crtp.LU_CRTP._iteration` never materializes the
permuted active matrix — the permutations stay index maps, the 2x2 blocks
come out of one window pass and ``F`` is assembled straight into CSR.
This module keeps the textbook formulation of Algorithm 2's lines 4-12
that the solver must agree with *bitwise*: the column permutation applied
with :func:`permute_cols`, the row permutation with :func:`permute_rows`,
:func:`split_2x2` on the fully permuted matrix, ``F`` solved into a
``lil_matrix`` and the Schur complement as a plain scipy expression.

Install it over the solver's iteration with ``monkeypatch``::

    monkeypatch.setattr(LU_CRTP, "_iteration", reference_iteration)

``ILUT_CRTP`` inherits ``_iteration``, so the same patch turns an ILUT
solve into its reference run as well.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import RankDeficiencyBreakdown
from repro.core.lu_crtp import IterationArtifacts
from repro.linalg.cholqr import cholqr2
from repro.pivoting.tournament import qr_tp_rows
from repro.sparse.ops import permute_cols, permute_rows, split_2x2
from repro.sparse.utils import drop_explicit_zeros


def reference_iteration(self, active: sp.csc_matrix, k_i: int, i: int,
                        r11_first: float | None) -> IterationArtifacts:
    """Lines 4-12 of Algorithm 2 with materialized permutations."""
    # line 5: column tournament (optionally on a reduced candidate set)
    col_tp = self._column_tournament(active, k_i)
    Apc = permute_cols(active, col_tp.perm)

    # line 6: sparse QR of the k selected columns
    selected = Apc[:, :k_i]
    if self.qr_engine == "householder":
        from repro.linalg.sparse_qr import sparse_householder_qr
        fqr = sparse_householder_qr(selected)
        Qk = fqr.explicit_q()
    else:
        Qk, _Rk, _ = cholqr2(selected, recovery_log=self._recovery_log())

    # line 7: row tournament on Q_k^T
    row_tp = qr_tp_rows(Qk, k_i, tree=self.tree)

    # line 8: apply the row permutation
    Abar = permute_rows(Apc, row_tp.perm)

    A11, A12, A21, A22 = split_2x2(Abar, k_i)
    A11d = A11.toarray()

    # line 10/12: F = A21 A11^{-1} (or the orthogonal-formula variant)
    F = reference_compute_F(self, A11d, A21, Qk, row_tp.perm, k_i, i)

    schur = (A22 - F @ A12).tocsc()
    drop_explicit_zeros(schur, tol=self.zero_drop_tol)

    Lk = sp.vstack([sp.identity(k_i, format="csc"), F], format="csc")
    Uk = sp.hstack([A11, A12], format="csr")

    Fc = F.tocsc()
    A12r = A12.tocsr()
    schur_flops = 2.0 * float(
        np.dot(np.diff(Fc.indptr), np.diff(A12r.indptr)))
    stats = {
        "m_i": int(active.shape[0]),
        "n_i": int(active.shape[1]),
        "k_i": int(k_i),
        "active_nnz": int(active.nnz),
        "col_nnz": np.diff(active.indptr).astype(np.int64),
        "sel_nnz": int(selected.nnz),
        "f_rows": int(np.count_nonzero(np.diff(F.indptr))),
        "f_nnz": int(F.nnz),
        "a12_nnz": int(A12.nnz),
        "schur_nnz": int(schur.nnz),
        "schur_flops": schur_flops,
        "tournament_flops": float(col_tp.stats.total_flops),
    }
    return IterationArtifacts(
        Lk=Lk, Uk=Uk, schur=schur,
        row_perm_local=row_tp.perm, col_perm_local=col_tp.perm,
        r11_diag=col_tp.r11_diag, tournament_stats=col_tp.stats,
        stats=stats)


def reference_compute_F(self, A11d: np.ndarray, A21: sp.csc_matrix,
                        Qk: np.ndarray, row_perm: np.ndarray, k_i: int,
                        i: int) -> sp.csr_matrix:
    """``F = A21 A11^{-1}`` restricted to the nonzero rows of ``A21``,
    assembled through a ``lil_matrix``."""
    formula = self.l_formula
    cond = None
    if formula == "auto":
        cond = np.linalg.cond(A11d)
        formula = "orthogonal" if cond > 1e10 else "schur"

    if formula == "orthogonal":
        # Qbar = P_r Q_k; F = Qbar21 Qbar11^{-1}. Equal to A21 A11^{-1} in
        # exact arithmetic but bounded entries; dense (extra fill-in).
        Qbar = Qk[row_perm]
        Q11, Q21 = Qbar[:k_i], Qbar[k_i:]
        try:
            Fd = np.linalg.solve(Q11.T, Q21.T).T
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyBreakdown(
                "orthogonal pivot block singular", iteration=i) from exc
        Fs = sp.csr_matrix(Fd)
        Fs.data[np.abs(Fs.data) < 1e-300] = 0.0
        Fs.eliminate_zeros()
        return Fs

    A21r = A21.tocsr()
    rows = np.flatnonzero(np.diff(A21r.indptr))
    mrest = A21.shape[0]
    if rows.size == 0:
        return sp.csr_matrix((mrest, k_i))
    try:
        # solve X A11 = A21[rows]  <=>  A11^T X^T = A21[rows]^T
        Fsub = np.linalg.solve(A11d.T, A21r[rows].toarray().T).T
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyBreakdown(
            "pivot block A11 numerically singular", iteration=i) from exc
    if not np.all(np.isfinite(Fsub)):
        raise RankDeficiencyBreakdown(
            "pivot block A11 produced non-finite multipliers", iteration=i)
    F = sp.lil_matrix((mrest, k_i))
    F[rows] = Fsub
    F = F.tocsr()
    F.data[np.abs(F.data) < 1e-300] = 0.0
    F.eliminate_zeros()
    return F
