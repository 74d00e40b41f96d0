// The scan limb and the flattened scan corpus.
//
// The bulk scan engines run on the paper's d = 32-bit words (Section V),
// the limb mp::BigInt already carries. ScanCorpus flattens a BigInt corpus
// into one contiguous limb store, so every hot path downstream — staging
// panels, Y broadcasts, scalar runs, the full-modulus check — reads plain
// limb spans without per-pair conversions, and hits go back to BigInt
// without a repack. SimtBatch, the scalar lane loop and the
// gcd/ kernels stay generic over their limb type (bench_ablation_wordsize
// and the wordsize tests run them at u16/u64); the scan itself does not.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "mp/bigint.hpp"

namespace bulkgcd::bulk {

/// The limb type every scan engine is instantiated with; memory-traffic
/// accounting (AllPairsResult::input_bytes) derives from it.
using ScanLimb = std::uint32_t;
static_assert(std::is_same_v<mp::BigInt, mp::BigIntT<ScanLimb>>,
              "scan hits are BigInt values without a repack");

/// A BigInt corpus flattened once into contiguous limb storage: per-modulus
/// limb spans (normalized), cached bit lengths, and the capacity every
/// engine of the scan is sized with.
class ScanCorpus {
 public:
  ScanCorpus() = default;

  explicit ScanCorpus(std::span<const mp::BigInt> moduli)
      : offsets_(moduli.size() + 1, 0),
        sizes_(moduli.size(), 0),
        bits_(moduli.size(), 0) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const std::size_t n = moduli[i].size();
      offsets_[i] = total;
      sizes_[i] = n;
      bits_[i] = moduli[i].bit_length();
      cap_ = std::max(cap_, n);
      total += n;
    }
    offsets_[moduli.size()] = total;
    data_.resize(total);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      std::ranges::copy(moduli[i].limbs(), data_.begin() + offsets_[i]);
    }
  }

  std::size_t size() const noexcept { return sizes_.size(); }
  /// Normalized limbs of modulus i (little-endian).
  std::span<const ScanLimb> limbs(std::size_t i) const noexcept {
    return {data_.data() + offsets_[i], sizes_[i]};
  }
  /// Cached bit_length() of modulus i.
  std::size_t bits(std::size_t i) const noexcept { return bits_[i]; }
  /// Max limb count over the corpus (engine capacity).
  std::size_t max_limbs() const noexcept { return cap_; }

 private:
  std::vector<ScanLimb> data_;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> bits_;
  std::size_t cap_ = 0;
};

}  // namespace bulkgcd::bulk
