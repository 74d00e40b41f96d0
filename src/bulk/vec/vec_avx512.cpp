// AVX-512 leg of the vector engine: the same vec_batch_impl.hpp, compiled
// with -mavx512f -mavx512dq -mavx512vl -mavx512bw (see src/CMakeLists.txt —
// the flags are per-file, so the rest of the library stays baseline) at a
// 64-byte register width: W = 16 lanes of 32-bit scan limbs, twice the AVX2
// leg's. The W-wide vector code lowers to 512-bit loads, vpgatherdd zmm,
// per-lane variable shifts, and blends through mask registers; dispatch.cpp
// only routes here after __builtin_cpu_supports says the host has every one
// of those extensions. This TU is only added to the build on x86-64
// compilers that accept the flags (BULKGCD_HAVE_AVX512_TU).
#define BULKGCD_VEC_IMPL_NS vec_avx512
#define BULKGCD_VEC_IMPL_ISA ::bulkgcd::bulk::VecIsa::kAvx512
#define BULKGCD_VEC_IMPL_BYTES 64  // W = 16
#include "bulk/vec/vec_batch_impl.hpp"

#include "bulk/vec/vec_factories.hpp"

namespace bulkgcd::bulk::detail {

std::unique_ptr<VecBatchBase> make_vec_batch_avx512(
    std::size_t lanes, std::size_t capacity_limbs, std::size_t warp_width) {
  return std::make_unique<vec_avx512::VecBatch>(lanes, capacity_limbs,
                                                warp_width);
}

}  // namespace bulkgcd::bulk::detail
