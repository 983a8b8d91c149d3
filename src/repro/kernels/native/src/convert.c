/* CSR -> CSC conversion (counting sort) — native tier entry points.
 *
 * See convert_impl.inc for the algorithm; this translation unit only
 * instantiates it for scipy's two index dtypes.
 */
#include "kernels.h"

#define IDX int32_t
#define FN(name) name##_i32
#include "convert_impl.inc"
#undef IDX
#undef FN

#define IDX int64_t
#define FN(name) name##_i64
#include "convert_impl.inc"
#undef IDX
#undef FN
