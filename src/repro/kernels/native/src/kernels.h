/* Shared declarations for the repro native kernel tier.
 *
 * Every kernel here is a bit-for-bit replication of the corresponding
 * pure (NumPy/SciPy) route — same arithmetic, same accumulation order,
 * same emission order — so the Python dispatch layer can swap tiers
 * without perturbing a single ulp.  See docs/performance.md ("Kernel
 * tiers") for the contract and tests/test_kernel_tiers.py for the pins.
 *
 * Index-generic kernels are instantiated twice (int32/int64 — scipy's
 * two index dtypes) from the .inc bodies; value arrays are float64.
 */
#ifndef REPRO_KERNELS_H
#define REPRO_KERNELS_H

#include <stdint.h>
#include <string.h>
#include <math.h>

#if defined(_WIN32)
#define RK_EXPORT __declspec(dllexport)
#else
#define RK_EXPORT __attribute__((visibility("default")))
#endif

/* ---------------------------------------------------------------------
 * Exported ABI.
 *
 * One prototype per exported symbol, in the exact types the ctypes
 * bindings in kernels/native/__init__.py declare.  This block is the C
 * side of the ABI contract: the compiler cross-checks each prototype
 * against the macro-instantiated definition in the .c/.inc files, and
 * `repro.lint` (rules KERN001–KERN003) parses it and cross-checks it
 * against the Python `_ABI` table.  Keep it machine-readable: one
 * symbol per `RK_EXPORT` prototype, fixed-width integer types only
 * (int32_t/int64_t/unsigned char — never int/long/size_t), and no
 * `restrict` qualifiers (those live on the definitions).
 * ------------------------------------------------------------------ */

/* Fused ILUT mu-threshold accounting pass (threshold.c). */
RK_EXPORT int64_t rk_thresh_mask(
    const double *data, int64_t nnz, double mu,
    unsigned char *mask, double *dropped, double *dmax);

/* Row-merge SpGEMM, C = A @ B on canonical CSR (spgemm_impl.inc). */
RK_EXPORT int64_t rk_spgemm_i32(
    int64_t n_row, int64_t n_col,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    const int32_t *Bp, const int32_t *Bj, const double *Bx,
    int32_t *Cp, int32_t *Cj, double *Cx,
    int64_t *mark, double *sums, int64_t *touched);
RK_EXPORT int64_t rk_spgemm_i64(
    int64_t n_row, int64_t n_col,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    const int64_t *Bp, const int64_t *Bj, const double *Bx,
    int64_t *Cp, int64_t *Cj, double *Cx,
    int64_t *mark, double *sums, int64_t *touched);

/* Fused ILUT mu-threshold apply+compact pass (threshold_impl.inc). */
RK_EXPORT int64_t rk_thresh_apply_i32(
    int64_t n_outer, int32_t *indptr, int32_t *indices, double *data,
    const unsigned char *mask);
RK_EXPORT int64_t rk_thresh_apply_i64(
    int64_t n_outer, int64_t *indptr, int64_t *indices, double *data,
    const unsigned char *mask);

/* Schur index-window occupancy count (window_impl.inc). */
RK_EXPORT int64_t rk_window_count_i32(
    int64_t m, int64_t k, int64_t ncols,
    const int32_t *Ap, const int32_t *Ai,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount);
RK_EXPORT int64_t rk_window_count_i64(
    int64_t m, int64_t k, int64_t ncols,
    const int64_t *Ap, const int64_t *Ai,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount);

/* Fused permute+split scatter, sparse top block (window_impl.inc). */
RK_EXPORT void rk_window_fill_i32(
    int64_t m, int64_t k, int64_t ncols,
    const int32_t *Ap, const int32_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    int32_t *Bp, int32_t *Bj, double *Bx,
    int32_t *Cp, int32_t *Cj, double *Cx);
RK_EXPORT void rk_window_fill_i64(
    int64_t m, int64_t k, int64_t ncols,
    const int64_t *Ap, const int64_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    int64_t *Bp, int64_t *Bj, double *Bx,
    int64_t *Cp, int64_t *Cj, double *Cx);

/* Fused permute+split scatter, dense top block (window_impl.inc). */
RK_EXPORT void rk_window_fill_topdense_i32(
    int64_t m, int64_t k, int64_t ncols,
    const int32_t *Ap, const int32_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    double *D, int32_t *Cp, int32_t *Cj, double *Cx);
RK_EXPORT void rk_window_fill_topdense_i64(
    int64_t m, int64_t k, int64_t ncols,
    const int64_t *Ap, const int64_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    double *D, int64_t *Cp, int64_t *Cj, double *Cx);

/* CSR -> CSC counting-sort conversion, scipy-bitwise (convert_impl.inc);
 * the final pass of the fused Schur difference. */
RK_EXPORT void rk_csr_tocsc_i32(
    int64_t n_row, int64_t n_col,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    int32_t *Bp, int32_t *Bi, double *Bx);
RK_EXPORT void rk_csr_tocsc_i64(
    int64_t n_row, int64_t n_col,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    int64_t *Bp, int64_t *Bi, double *Bx);

/* Half-work mirrored self-Gram / cross-Gram on CSC blocks
 * (gram_impl.inc). */
RK_EXPORT void rk_gram_i32(
    int64_t m, int64_t c1, int64_t c2,
    const int32_t *B1p, const int32_t *B1i, const double *B1x,
    const int32_t *B2p, const int32_t *B2i, const double *B2x,
    double *C, int64_t sym,
    int64_t *tp, int64_t *tj, double *tx);
RK_EXPORT void rk_gram_i64(
    int64_t m, int64_t c1, int64_t c2,
    const int64_t *B1p, const int64_t *B1i, const double *B1x,
    const int64_t *B2p, const int64_t *B2i, const double *B2x,
    double *C, int64_t sym,
    int64_t *tp, int64_t *tj, double *tx);

/* Fused Schur update difference, D = A - C with drop tol
 * (schur_impl.inc). */
RK_EXPORT int64_t rk_schur_diff_i32(
    int64_t n_row, int64_t n_col,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    const int32_t *Cp, const int32_t *Cj, const double *Cx,
    int32_t *Dp, int32_t *Dj, double *Dx,
    int64_t *mark, double *sums, double tol);
RK_EXPORT int64_t rk_schur_diff_i64(
    int64_t n_row, int64_t n_col,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    const int64_t *Cp, const int64_t *Cj, const double *Cx,
    int64_t *Dp, int64_t *Dj, double *Dx,
    int64_t *mark, double *sums, double tol);

#endif /* REPRO_KERNELS_H */
