// Scan-limb selection and the corpus conversion layer.
//
// mp::BigInt stays fixed at the paper's d = 32 word size (the RSA layer —
// Montgomery, prime sieve, corpus generation — is hard-wired to 32-bit
// limbs), but the bulk scan engines are generic over their limb type: the
// BULKGCD_LIMB32 CMake option (ON by default) picks 32-bit scan limbs, OFF
// picks 64-bit ones (W = 4 vector lanes instead of W = 8 in bulk/vec/).
// ScanCorpusT repacks a BigInt corpus into flat ScanLimb storage once per
// scan, so every hot path downstream — staging panels, Y broadcasts, scalar
// runs, the full-modulus check — works on scan limbs without per-pair
// conversions.
// GCDs and hits are value-level quantities, so results are bit-identical
// across limb widths; only SimtStats iteration counts differ (fewer, wider
// limb operations per value).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
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

/// Repack a little-endian limb array from one limb width to another,
/// normalizing (no high zero limbs) on the way out. Value-preserving for any
/// source/destination width up to 64 bits; only runs at corpus staging and
/// hit conversion time, never per pair.
template <mp::LimbType Dst, mp::LimbType Src>
std::vector<Dst> repack_limbs(std::span<const Src> src) {
  constexpr int kSrcBits = mp::limb_bits<Src>;
  constexpr int kDstBits = mp::limb_bits<Dst>;
  std::vector<Dst> out;
  out.reserve((src.size() * kSrcBits + kDstBits - 1) / kDstBits);
  __extension__ using Acc = unsigned __int128;
  Acc acc = 0;
  int acc_bits = 0;
  for (const Src limb : src) {
    acc |= Acc(limb) << acc_bits;
    acc_bits += kSrcBits;
    while (acc_bits >= kDstBits) {
      out.push_back(Dst(acc));
      acc >>= kDstBits;
      acc_bits -= kDstBits;
    }
  }
  if (acc_bits > 0) out.push_back(Dst(acc));
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

/// Convert scan limbs back to the library-default BigInt (hit reporting,
/// factor verification — everything outside the hot loop speaks BigInt).
template <mp::LimbType Src>
mp::BigInt to_default_bigint(std::span<const Src> limbs) {
  if constexpr (std::is_same_v<Src, std::uint32_t>) {
    return mp::BigInt::from_limbs(limbs);
  } else {
    return mp::BigInt::from_limbs(repack_limbs<std::uint32_t, Src>(limbs));
  }
}

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
      const std::size_t n = repacked_size(moduli[i]);
      offsets_[i] = total;
      sizes_[i] = n;
      bits_[i] = moduli[i].bit_length();
      cap_ = std::max(cap_, n);
      total += n;
    }
    offsets_[moduli.size()] = total;
    data_.resize(total);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const auto src = moduli[i].limbs();
      if constexpr (std::is_same_v<Limb, std::uint32_t>) {
        std::copy(src.begin(), src.end(), data_.begin() + offsets_[i]);
      } else {
        const auto packed = repack_limbs<Limb>(src);
        std::copy(packed.begin(), packed.end(), data_.begin() + offsets_[i]);
      }
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
  static std::size_t repacked_size(const mp::BigInt& v) noexcept {
    constexpr std::size_t kLB = std::size_t(mp::limb_bits<Limb>);
    return (v.bit_length() + kLB - 1) / kLB;
  }

  std::vector<Limb> data_;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> bits_;
  std::size_t cap_ = 0;
};

using ScanCorpus = ScanCorpusT<ScanLimb>;

}  // namespace bulkgcd::bulk
