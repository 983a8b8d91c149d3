"""Bitwise parity of every hot-path route against its reference.

The hot path (index-window blocks, symbolic-free matmul, raw
constructors, fused thresholding, batched sketching, colamd argmin scan)
promises *identical values in identical canonical order* — not merely
"close".  These tests pin that contract against the textbook
formulations: the materialized-permutation LU iteration of
``tests/lu_reference.py`` for LU_CRTP/ILUT_CRTP, unbatched draws for
RandQB_EI, and the plain scipy compositions for each kernel.  Routes
must agree exactly (``== 0.0`` max difference, ``array_equal`` pivots,
``==`` indicator trajectories), so any future drift is a hard failure.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from lu_reference import reference_iteration
from repro.core.ilut_crtp import ILUT_CRTP
from repro.core.lu_crtp import LU_CRTP
from repro.core.randqb_ei import RandQB_EI
from repro.sparse.ops import csr_matmul_nosym, permute, split_2x2
from repro.sparse.thresholding import (apply_threshold_mask, drop_small,
                                       threshold_mask)
from repro.sparse.utils import raw_csc, raw_csr
from repro.sparse.window import (csr_rows_to_dense, dense_rows_to_csr,
                                 extract_leading_columns, permuted_blocks)


def _m2_analogue(n, seed=1, density=0.02):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format="csc")
    return (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsc()


def _assert_same_result(r1, r2):
    assert np.array_equal(r1.row_perm, r2.row_perm)
    assert np.array_equal(r1.col_perm, r2.col_perm)
    assert r1.rank == r2.rank and r1.iterations == r2.iterations
    assert abs(r1.L - r2.L).max() == 0.0
    assert abs(r1.U - r2.U).max() == 0.0
    assert len(r1.history) == len(r2.history)
    for a, b in zip(r1.history, r2.history):
        assert a.indicator == b.indicator


def _reference_solve(monkeypatch, cls, A, **kw):
    """Solve with the reference iteration installed, on the pure tier."""
    with monkeypatch.context() as m:
        m.setattr(LU_CRTP, "_iteration", reference_iteration)
        return cls(kernel_tier="pure", **kw).solve(A)


# -- end-to-end solver parity ------------------------------------------------

@pytest.mark.parametrize("n,k", [(120, 8), (250, 16)])
def test_lu_crtp_optimized_bitwise_parity(monkeypatch, n, k):
    A = _m2_analogue(n)
    common = dict(k=k, tol=1e-6, max_rank=min(4 * k, n),
                  raise_on_failure=False)
    _assert_same_result(_reference_solve(monkeypatch, LU_CRTP, A, **common),
                        LU_CRTP(**common).solve(A))


@pytest.mark.parametrize("n,k", [(120, 8), (250, 16)])
def test_ilut_crtp_optimized_bitwise_parity(monkeypatch, n, k):
    A = _m2_analogue(n)
    common = dict(k=k, tol=1e-6, max_rank=min(4 * k, n),
                  raise_on_failure=False, estimated_iterations=6)
    r_ref = _reference_solve(monkeypatch, ILUT_CRTP, A, **common)
    r_opt = ILUT_CRTP(**common).solve(A)
    _assert_same_result(r_ref, r_opt)


def test_ilut_crtp_parity_with_active_thresholding(monkeypatch):
    """A loose tolerance makes mu large enough that entries really drop,
    so the reference iteration runs on thresholded Schur complements
    (the drop itself is pinned against drop_small below)."""
    A = _m2_analogue(200, density=0.05)
    common = dict(k=16, tol=5e-2, max_rank=128, raise_on_failure=False,
                  estimated_iterations=4)
    r_ref = _reference_solve(monkeypatch, ILUT_CRTP, A, **common)
    r_opt = ILUT_CRTP(**common).solve(A)
    _assert_same_result(r_ref, r_opt)
    assert r_opt.threshold > 0
    assert sum(rec.dropped_nnz for rec in r_opt.history) > 0


@pytest.mark.parametrize("power", [0, 1])
def test_randqb_optimized_bitwise_parity(power):
    """Batched Gaussian draws (the default) against the unbatched
    per-iteration draws of a checkpointed run."""
    A = _m2_analogue(200, density=0.05)
    common = dict(k=16, tol=1e-4, power=power, seed=7, max_rank=96,
                  raise_on_failure=False)
    seen = []
    r_ref = RandQB_EI(checkpoint_callback=seen.append, **common).solve(A)
    r_opt = RandQB_EI(**common).solve(A)
    assert seen, "checkpoint callback never fired"
    assert r_ref.rank == r_opt.rank
    assert abs(r_ref.Q - r_opt.Q).max() == 0.0
    assert abs(r_ref.B - r_opt.B).max() == 0.0
    assert len(r_ref.history) == len(r_opt.history)
    for a, b in zip(r_ref.history, r_opt.history):
        assert a.indicator == b.indicator


# -- kernel-level parity -----------------------------------------------------

def test_permuted_blocks_matches_permute_split():
    A = _m2_analogue(150, seed=2, density=0.06)
    rng = np.random.default_rng(3)
    rp, cp = rng.permutation(150), rng.permutation(150)
    k = 24
    P = permute(A, rp, cp).tocsc()
    A11r, A12r, A21r, A22r = split_2x2(P, k)
    A11d, A12, A21, A22 = permuted_blocks(A, cp, rp, k)
    np.testing.assert_array_equal(A11d, A11r.toarray())  # A11 comes back dense
    for ref, opt in [(A12r, A12), (A21r, A21), (A22r, A22)]:
        assert ref.nnz == opt.nnz
        if ref.nnz:
            assert abs(ref - opt).max() == 0.0


def test_csr_matmul_nosym_matches_scipy():
    rng = np.random.default_rng(4)
    for m, k, n, d in [(50, 30, 40, 0.2), (200, 16, 200, 0.3),
                       (5, 5, 5, 0.8)]:
        A = sp.random(m, k, density=d, random_state=rng,
                      data_rvs=rng.standard_normal).tocsr()
        B = sp.random(k, n, density=d, random_state=rng,
                      data_rvs=rng.standard_normal).tocsr()
        C = csr_matmul_nosym(A, B)
        ref = A @ B
        assert C.shape == ref.shape
        assert abs(C - ref).max() == 0.0


def test_threshold_mask_matches_drop_small():
    rng = np.random.default_rng(5)
    S = sp.random(120, 120, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal).tocsc()
    for mu in (0.0, 1e-3, 0.5, 10.0):
        res = drop_small(S, mu)  # copies internally; S is not mutated
        M = S.copy()
        mask, d_nnz, d_sq, d_max = threshold_mask(M, mu)
        apply_threshold_mask(M, mask)
        assert d_nnz == res.dropped_nnz
        assert d_sq == res.dropped_norm_sq
        assert M.nnz == res.matrix.nnz
        if M.nnz:
            assert abs(M - res.matrix).max() == 0.0
        if d_nnz:
            assert 0 < d_max < mu


def test_raw_constructors_roundtrip():
    rng = np.random.default_rng(6)
    A = sp.random(40, 30, density=0.2, random_state=rng,
                  data_rvs=rng.standard_normal).tocsr()
    A.sort_indices()
    R = raw_csr(A.data, A.indices, A.indptr, A.shape)
    assert R.format == "csr" and R.shape == A.shape
    assert R.has_sorted_indices
    assert abs(R - A).max() == 0.0
    assert R.data is A.data  # no hidden copy

    C = A.tocsc()
    C.sort_indices()
    R2 = raw_csc(C.data, C.indices, C.indptr, C.shape)
    assert R2.format == "csc" and abs(R2 - C).max() == 0.0


def test_dense_roundtrip_through_window_helpers():
    rng = np.random.default_rng(7)
    A = sp.random(30, 25, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal).tocsr()
    rows = np.array([2, 7, 11, 29])
    D = csr_rows_to_dense(A, rows)
    np.testing.assert_array_equal(D, A[rows].toarray())
    S = dense_rows_to_csr(D, rows, 30)
    ref = sp.lil_matrix((30, 25))
    ref[rows] = D
    assert S.shape == (30, 25)
    assert abs(S - ref.tocsr()).max() == 0.0


def test_extract_leading_columns_matches_slicing():
    A = _m2_analogue(80, seed=8, density=0.1)
    cols = np.random.default_rng(9).permutation(80)[:12]
    E = extract_leading_columns(A, cols)
    ref = A[:, cols].tocsc()
    assert abs(E - ref).max() == 0.0


def test_colamd_scan_and_heap_agree():
    """The argmin-scan selection and the lazy-deletion heap are two
    implementations of the same lexicographic minimum — identical perms."""
    import importlib
    colamd_mod = importlib.import_module("repro.ordering.colamd")
    rng = np.random.default_rng(10)
    for _trial in range(5):
        A = sp.random(60, 60, density=0.08, random_state=rng,
                      format="csc")
        p_scan = colamd_mod.colamd(A)
        cutoff = colamd_mod._SCAN_CUTOFF
        try:
            colamd_mod._SCAN_CUTOFF = -1  # force the heap route
            p_heap = colamd_mod.colamd(A)
        finally:
            colamd_mod._SCAN_CUTOFF = cutoff
        assert np.array_equal(p_scan, p_heap)


def test_randqb_checkpointing_disables_batching_but_stays_exact(monkeypatch):
    """Checkpointed runs must not batch (RNG state capture) yet still
    reproduce the batched trajectory exactly."""
    import importlib
    randqb_mod = importlib.import_module("repro.core.randqb_ei")
    batches = []
    orig = randqb_mod.gaussian_batch

    def counting_batch(*args):
        batches.append(args[:3])
        return orig(*args)

    monkeypatch.setattr(randqb_mod, "gaussian_batch", counting_batch)
    A = _m2_analogue(150, density=0.05)
    seen = []
    common = dict(k=8, tol=1e-4, seed=3, max_rank=64,
                  raise_on_failure=False)
    r_ck = RandQB_EI(checkpoint_callback=seen.append, **common).solve(A)
    assert seen, "checkpoint callback never fired"
    assert not batches, "a checkpointed run drew a batch"
    r_batched = RandQB_EI(**common).solve(A)
    assert batches, "the default run did not batch"
    assert abs(r_ck.Q - r_batched.Q).max() == 0.0
    assert abs(r_ck.B - r_batched.B).max() == 0.0
