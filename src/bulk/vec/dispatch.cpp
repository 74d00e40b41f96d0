// Runtime CPU dispatch for the vector engine — the CPU analogue of picking a
// CUDA launch configuration for the device actually present. The binary
// carries every ISA leg the compiler could build (portable always, AVX2 on
// x86-64); detect_vec_isa() probes the executing CPU once and make_vec_batch
// routes to the best leg, so one build runs correctly on machines with and
// without AVX2. resolve_engine() maps kAuto and kVector on the same probe.

#include <stdexcept>
#include <string>

#include "bulk/backend.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "bulk/vec/vec_factories.hpp"

namespace bulkgcd::bulk {

VecIsa detect_vec_isa() noexcept {
#if defined(BULKGCD_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(_M_X64))
  if (__builtin_cpu_supports("avx2")) return VecIsa::kAvx2;
#endif
  return VecIsa::kPortable;
}

bool vec_isa_available(VecIsa isa) noexcept {
  switch (isa) {
    case VecIsa::kAuto:
    case VecIsa::kPortable:
      return true;
    case VecIsa::kAvx2:
      return detect_vec_isa() == VecIsa::kAvx2;
  }
  return false;
}

std::unique_ptr<VecBatchBase> make_vec_batch(std::size_t lanes,
                                             std::size_t capacity_limbs,
                                             std::size_t warp_width,
                                             VecIsa isa) {
  if (isa == VecIsa::kAuto) isa = detect_vec_isa();
  if (!vec_isa_available(isa)) {
    throw std::invalid_argument(
        std::string("vector ISA unavailable on this machine: ") +
        to_string(isa));
  }
#if defined(BULKGCD_HAVE_AVX2_TU)
  if (isa == VecIsa::kAvx2) {
    return detail::make_vec_batch_avx2(lanes, capacity_limbs, warp_width);
  }
#endif
  return detail::make_vec_batch_portable(lanes, capacity_limbs, warp_width);
}

Engine resolve_engine(Engine requested) noexcept {
  if (requested == Engine::kStaged || requested == Engine::kScalar) return requested;
  // The vector engine runs only where a real SIMD leg does: the portable leg
  // is ~4x slower than staged and exists as the tests' reference.
  return detect_vec_isa() == VecIsa::kAvx2 ? Engine::kVector : Engine::kStaged;
}

}  // namespace bulkgcd::bulk
