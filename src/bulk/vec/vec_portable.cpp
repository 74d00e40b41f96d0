// Portable leg of the vector engine: vec_batch_impl.hpp compiled with the
// project's baseline flags. Same W-wide source as the SIMD legs — the
// compiler simply lowers the vector code to whatever the target has (scalar
// on a plain build), which keeps the engine's behavior identical on every
// platform and gives the bit-identity tests a second implementation to pin
// the SIMD legs against.
#define BULKGCD_VEC_IMPL_NS vec_portable
#define BULKGCD_VEC_IMPL_ISA ::bulkgcd::bulk::VecIsa::kPortable
#define BULKGCD_VEC_IMPL_BYTES 32  // W = 8
#include "bulk/vec/vec_batch_impl.hpp"

#include "bulk/vec/vec_factories.hpp"

namespace bulkgcd::bulk::detail {

std::unique_ptr<VecBatchBase> make_vec_batch_portable(
    std::size_t lanes, std::size_t capacity_limbs, std::size_t warp_width) {
  return std::make_unique<vec_portable::VecBatch>(lanes, capacity_limbs, warp_width);
}

}  // namespace bulkgcd::bulk::detail
