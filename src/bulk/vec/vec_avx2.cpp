// AVX2 leg of the vector engine: the same vec_batch_impl.hpp, compiled with
// -mavx2 (see src/CMakeLists.txt — the flag is per-file, so the rest of the
// library stays baseline). The W-wide vector code lowers to 256-bit loads,
// gathers, vpsrlvd/vpsllvd variable shifts, and blends; dispatch.cpp only
// routes here after __builtin_cpu_supports("avx2") says the host can execute
// them (on an AVX-512 host only when a test pins VecIsa::kAvx2). This TU is only added to the build on x86-64 compilers that accept
// -mavx2 (BULKGCD_HAVE_AVX2_TU).
#define BULKGCD_VEC_IMPL_NS vec_avx2
#define BULKGCD_VEC_IMPL_ISA ::bulkgcd::bulk::VecIsa::kAvx2
#define BULKGCD_VEC_IMPL_BYTES 32  // W = 8
#include "bulk/vec/vec_batch_impl.hpp"

#include "bulk/vec/vec_factories.hpp"

namespace bulkgcd::bulk::detail {

std::unique_ptr<VecBatchBase> make_vec_batch_avx2(
    std::size_t lanes, std::size_t capacity_limbs, std::size_t warp_width) {
  return std::make_unique<vec_avx2::VecBatch>(lanes, capacity_limbs, warp_width);
}

}  // namespace bulkgcd::bulk::detail
