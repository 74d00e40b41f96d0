// Bulk engine selection (the CPU analogue of a CUDA launch configuration).
// One knob picks the engine the all-pairs sweep runs its Section-VI blocks
// with. The checkpoint journal identity records only "scalar or SIMT":
// kVector and kStaged produce bit-identical hits and statistics (asserted by
// the differential tests), so a checkpoint written under one resumes under
// the other.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace bulkgcd::bulk {

enum class Engine : std::uint8_t {
  kAuto,    ///< kVector when the CPU runs a SIMD leg, else kStaged
  kVector,  ///< corpus panels + W-lane SIMD warp engine (bulk/vec/) when the
            ///< CPU runs a SIMD leg (AVX-512 or AVX2), else kStaged (the
            ///< portable leg is test-only)
  kStaged,  ///< corpus panels + lane-serial SimtBatch::run_staged()
  kScalar,  ///< one GcdEngine per worker, pair by pair (the CPU column)
};

constexpr const char* to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kAuto: return "auto";
    case Engine::kVector: return "vector";
    case Engine::kStaged: return "staged";
    case Engine::kScalar: return "scalar";
  }
  return "?";
}

/// Inverse of to_string(Engine); nullopt for anything else. The weakscan
/// `--engine auto|vector|staged|scalar` flag.
constexpr std::optional<Engine> parse_engine(std::string_view name) noexcept {
  for (const Engine e :
       {Engine::kAuto, Engine::kVector, Engine::kStaged, Engine::kScalar}) {
    if (name == to_string(e)) return e;
  }
  return std::nullopt;
}

/// Collapse kAuto to the engine this CPU runs best (the cpuid probe of
/// detect_vec_isa()), and kVector to kStaged on a CPU without AVX2; kStaged
/// and kScalar are returned unchanged. Pure: no environment lookup, so the
/// intake path can call it per probe.
Engine resolve_engine(Engine requested) noexcept;

}  // namespace bulkgcd::bulk
