// Scan-limb selection and the corpus conversion layer.
//
// mp::BigInt stays fixed at the paper's d = 32 word size (the RSA layer —
// Montgomery, prime sieve, corpus generation — is hard-wired to 32-bit
// limbs), but the bulk scan engines are generic over their limb type: the
// BULKGCD_LIMB32 CMake option (ON by default) picks 32-bit scan limbs, OFF
// picks 64-bit ones (W = 4 vector lanes instead of W = 8 in bulk/vec/).
// ScanCorpusT repacks a BigInt corpus into flat ScanLimb storage once per
// scan (mp::repack_limbs), so every hot path downstream — staging panels,
// Y broadcasts, scalar runs, the full-modulus check — works on scan limbs
// without per-pair conversions; hits go back to BigInt through mp::repack.
// GCDs and hits are value-level quantities, so results are bit-identical
// across limb widths; only SimtStats iteration counts differ (fewer, wider
// limb operations per value).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "mp/bigint.hpp"
#include "mp/limb_traits.hpp"

namespace bulkgcd::bulk {

/// The limb type both bulk engines are instantiated with; memory-traffic
/// accounting (AllPairsResult::input_bytes) derives from it. Selected by the
/// BULKGCD_LIMB32 CMake option; defaults to the paper's d = 32.
#if defined(BULKGCD_SCAN_LIMB_BITS) && BULKGCD_SCAN_LIMB_BITS == 64
using ScanLimb = std::uint64_t;
#else
using ScanLimb = std::uint32_t;
#endif

/// A BigInt corpus repacked once into flat Limb storage: per-modulus limb
/// spans (normalized), cached bit lengths, and the capacity every engine of
/// the scan is sized with. This is the single conversion point between the
/// d = 32 BigInt world and the configurable scan-limb world.
template <mp::LimbType Limb>
class ScanCorpusT {
 public:
  ScanCorpusT() = default;

  explicit ScanCorpusT(std::span<const mp::BigInt> moduli)
      : offsets_(moduli.size() + 1, 0),
        sizes_(moduli.size(), 0),
        bits_(moduli.size(), 0) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const std::size_t n = mp::limbs_for_bits<Limb>(moduli[i].bit_length());
      offsets_[i] = total;
      sizes_[i] = n;
      bits_[i] = moduli[i].bit_length();
      cap_ = std::max(cap_, n);
      total += n;
    }
    offsets_[moduli.size()] = total;
    data_.resize(total);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      Limb* out = data_.data() + offsets_[i];
      mp::repack_limbs<Limb>(moduli[i].limbs(), [&out](Limb limb) { *out++ = limb; });
    }
  }

  std::size_t size() const noexcept { return sizes_.size(); }
  /// Normalized limbs of modulus i (little-endian).
  std::span<const Limb> limbs(std::size_t i) const noexcept {
    return {data_.data() + offsets_[i], sizes_[i]};
  }
  /// Cached bit_length() of modulus i — identical across limb widths.
  std::size_t bits(std::size_t i) const noexcept { return bits_[i]; }
  std::span<const std::size_t> bit_lengths() const noexcept { return bits_; }
  /// Max limb count over the corpus, in Limb units (engine capacity).
  std::size_t max_limbs() const noexcept { return cap_; }

 private:
  std::vector<Limb> data_;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> bits_;
  std::size_t cap_ = 0;
};

using ScanCorpus = ScanCorpusT<ScanLimb>;

}  // namespace bulkgcd::bulk
