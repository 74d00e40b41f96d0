// The SIMD warp engine's public surface (docs/GPU_PORTING.md).
//
// VecBatchBase is the batch interface BlockSweeper drives — deliberately the
// same verbs as SimtBatch (load_panel / broadcast_y / reset_lane_state /
// disable / run / early_coprime / gcd_of) so the vector backend slots into
// the staged sweep without touching the scan driver, telemetry, or
// checkpoint identity. The implementation template (vec_batch_impl.hpp) is
// compiled up to three times into the library: once with baseline flags (the
// portable leg — the compiler lowers the W-wide vector code to baseline
// instructions, same source everywhere, W = 8), and on x86-64 once with
// -mavx2 (256-bit registers: W = 8 lanes of 32-bit scan limbs) and once with
// AVX-512 (512-bit registers: W = 16). make_vec_batch() picks the widest leg
// the CPU runs by cpuid probe; tests pin a leg with an explicit VecIsa.
//
// Virtual dispatch happens once per batch verb (a block round spans
// thousands of limb operations), never inside a kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "bulk/staged_corpus.hpp"
#include "bulk/simt_stats.hpp"
#include "gcd/algorithms.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::bulk {

/// Instruction-set leg of the vector engine. The sweep always lets
/// make_vec_batch() probe the CPU (kAuto); the explicit legs exist so tests
/// can pin every compiled leg against the others.
enum class VecIsa : std::uint8_t {
  kAuto,      ///< cpuid-probe the best compiled-in ISA
  kPortable,  ///< the same W-wide kernels compiled with baseline flags
  kAvx2,      ///< the -mavx2 translation unit (x86-64 with AVX2 only)
  kAvx512,    ///< the W = 16 AVX-512 F/DQ/VL/BW translation unit (x86-64)
};

constexpr const char* to_string(VecIsa isa) noexcept {
  switch (isa) {
    case VecIsa::kAuto: return "auto";
    case VecIsa::kPortable: return "portable";
    case VecIsa::kAvx2: return "avx2";
    case VecIsa::kAvx512: return "avx512";
  }
  return "?";
}

/// Widest vector ISA compiled into this binary AND supported by this CPU
/// (kAvx512, then kAvx2). Never returns kAuto; returns kPortable when no
/// SIMD leg applies.
VecIsa detect_vec_isa() noexcept;

/// Whether make_vec_batch(..., isa) can honor the request on this machine:
/// the leg is compiled in and the CPU runs it, whether or not it is the
/// widest one (kAvx2 is available on an AVX-512 host).
bool vec_isa_available(VecIsa isa) noexcept;

/// The vector engine runs on the scan limb only (bulk/staged_corpus.hpp).
class VecBatchBase {
 public:
  using Limb = ScanLimb;

  /// Sentinel for load()/reset_lane_state(): inherit run()'s early_bits.
  static constexpr std::size_t kInheritEarlyBits = std::size_t(-1);

  virtual ~VecBatchBase() = default;

  virtual std::size_t lanes() const noexcept = 0;
  virtual std::size_t capacity() const noexcept = 0;
  /// Input bytes a GPU would copy host→device for this batch.
  virtual std::size_t input_bytes() const noexcept = 0;

  /// Load one pair into a lane (and mark it active). Values must be odd.
  virtual void load(std::size_t lane, std::span<const Limb> x,
                    std::span<const Limb> y,
                    std::size_t early_bits = kInheritEarlyBits) = 0;
  /// Bulk-stage the X side from a column-major CorpusPanels panel.
  virtual void load_panel(std::span<const Limb> panel,
                          std::span<const std::size_t> sizes,
                          std::size_t rows) = 0;
  /// Broadcast one normalized value into every lane's Y side.
  virtual void broadcast_y(std::span<const Limb> y) = 0;
  /// Re-arm one lane after load_panel()/broadcast_y().
  virtual void reset_lane_state(std::size_t lane,
                                std::size_t early_bits = kInheritEarlyBits) = 0;
  /// Mask a lane off (padding at the tail of a block).
  virtual void disable(std::size_t lane) noexcept = 0;

  /// Run all active lanes to completion, one W-lane group at a time.
  /// Supported variants: kBinary, kFastBinary, kApproximate (Table V) and
  /// kDivsteps. A full group running kApproximate whose active lanes all
  /// keep early_bits >= 3 limbs (Section V: every round is Case 4), or
  /// kDivsteps whose active lanes all keep early_bits >= 1, runs
  /// vector-resident; every other group — Binary, Fast Binary, the rest of
  /// Approximate and Divsteps, and the lanes % W tail — runs lane by lane to
  /// completion exactly like SimtBatch::run_staged(). Results, branch traces
  /// and SimtStats are bit-identical to run_staged() either way.
  virtual void run(gcd::Variant variant, std::size_t early_bits = 0) = 0;

  virtual bool early_coprime(std::size_t lane) const noexcept = 0;
  virtual mp::BigInt gcd_of(std::size_t lane) const = 0;
  /// Iterations the lane executed in the most recent run() (branch-trace
  /// length — feeds the iterations-per-pair histogram like run_staged()).
  virtual std::size_t lane_iterations(std::size_t lane) const noexcept = 0;

  virtual const SimtStats& stats() const noexcept = 0;
  virtual void reset_stats() noexcept = 0;

  /// The ISA this batch executes with (resolved, never kAuto).
  virtual VecIsa isa() const noexcept = 0;
  /// Lanes per vector register (W = 8 portable and AVX2, 16 AVX-512).
  virtual std::size_t vector_width() const noexcept = 0;
};

/// Construct a vector batch. isa = kAuto probes the CPU; an explicit ISA
/// throws std::invalid_argument when unavailable (missing TU or CPU
/// support) so tests can pin each leg against the others.
std::unique_ptr<VecBatchBase> make_vec_batch(std::size_t lanes,
                                             std::size_t capacity_limbs,
                                             std::size_t warp_width = 32,
                                             VecIsa isa = VecIsa::kAuto);

}  // namespace bulkgcd::bulk
