// Runtime CPU dispatch for the vector engine — the CPU analogue of picking a
// CUDA launch configuration for the device actually present. The binary
// carries every ISA leg the compiler could build (portable always, AVX2 and
// AVX-512 on x86-64); vec_isa_available() probes the executing CPU for each
// leg, detect_vec_isa() picks the widest one that runs here, and
// make_vec_batch routes to it, so one build runs correctly on machines with
// and without AVX2 or AVX-512. resolve_engine() maps kAuto and kVector on
// the same probe.

#include <stdexcept>
#include <string>

#include "bulk/backend.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "bulk/vec/vec_factories.hpp"

namespace bulkgcd::bulk {

bool vec_isa_available(VecIsa isa) noexcept {
  switch (isa) {
    case VecIsa::kAuto:
    case VecIsa::kPortable:
      return true;
    case VecIsa::kAvx2:
#if defined(BULKGCD_HAVE_AVX2_TU)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case VecIsa::kAvx512:
      // Every extension the TU is compiled with: gcc may emit VL/BW forms.
#if defined(BULKGCD_HAVE_AVX512_TU)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw");
#else
      return false;
#endif
  }
  return false;
}

VecIsa detect_vec_isa() noexcept {
  for (const VecIsa isa : {VecIsa::kAvx512, VecIsa::kAvx2}) {
    if (vec_isa_available(isa)) return isa;
  }
  return VecIsa::kPortable;
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
#if defined(BULKGCD_HAVE_AVX512_TU)
  if (isa == VecIsa::kAvx512) {
    return detail::make_vec_batch_avx512(lanes, capacity_limbs, warp_width);
  }
#endif
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
  return detect_vec_isa() != VecIsa::kPortable ? Engine::kVector
                                               : Engine::kStaged;
}

}  // namespace bulkgcd::bulk
