// Internal factory seams between dispatch.cpp and the per-ISA translation
// units of the vector engine. Each TU compiles vec_batch_impl.hpp under its
// own namespace and exports exactly these constructors; dispatch.cpp picks
// one at runtime. Not installed / not part of the public surface.
#pragma once

#include <memory>

#include "bulk/vec/vec_backend.hpp"

namespace bulkgcd::bulk::detail {

std::unique_ptr<VecBatchBase> make_vec_batch_portable(
    std::size_t lanes, std::size_t capacity_limbs, std::size_t warp_width);

#if defined(BULKGCD_HAVE_AVX2_TU)
std::unique_ptr<VecBatchBase> make_vec_batch_avx2(
    std::size_t lanes, std::size_t capacity_limbs, std::size_t warp_width);
#endif

#if defined(BULKGCD_HAVE_AVX512_TU)
std::unique_ptr<VecBatchBase> make_vec_batch_avx512(
    std::size_t lanes, std::size_t capacity_limbs, std::size_t warp_width);
#endif

}  // namespace bulkgcd::bulk::detail
