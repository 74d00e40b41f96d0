// The scan limb and the staged corpus — the one corpus store of the bulk
// layer: the all-pairs sweep, the resumable scan driver, the incremental
// probe and the streaming intake fold (docs/INTAKE_SERVICE.md) all read it.
//
// StagedCorpus flattens a BigInt corpus once into one contiguous limb store
// (normalized per-modulus limb spans, cached bit lengths) and lays the
// groups out column-major in CorpusPanels — the CPU analogue of the paper's
// single host→device corpus copy. Every hot path downstream (panel loads, Y
// broadcasts, scalar runs, per-pair thresholds, the full-modulus check)
// reads these flat spans, and hits go back to BigInt without a repack.
//
// The staged form stays live across arrivals: append() copies just the new
// modulus and writes it into its group panel, so the probe rides the same
// contiguous panel loads as the batch sweep with amortized O(1) staging per
// arrival. Capacity growth is the one re-staging event: when an arrival
// needs more padded limbs than the panels carry, the panels are rebuilt from
// the flat limb store with at least double the previous value capacity —
// classic amortized doubling, so a stream of mixed-size keys re-stages
// O(log max) times total, not per key.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "bulk/layout.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::bulk {

/// The limb type every scan engine is instantiated with — the paper's
/// d = 32-bit word (Section V). Memory-traffic accounting
/// (AllPairsResult::input_bytes) derives from it. SimtBatch, the scalar lane
/// loop and the gcd/ kernels stay generic over their limb type
/// (bench_ablation_wordsize and the wordsize tests run them at u16/u64);
/// the scan itself does not.
using ScanLimb = std::uint32_t;
static_assert(std::is_same_v<mp::BigInt, mp::BigIntT<ScanLimb>>,
              "scan hits are BigInt values without a repack");

class StagedCorpus {
 public:
  /// Stage `seed` in one pass, panels sized once at max limbs +
  /// kBatchPadLimbs. `group_size` is the panel lane count r and stays fixed
  /// for the lifetime of the object (a corpus smaller than r simply leaves
  /// tail lanes disabled). Every store keeps room for r more moduli of the
  /// seed's largest size, so the arrivals that follow a seed append without
  /// copying it (an exact fit cost the first arrival 70–130 µs at
  /// 1500 × 1024-bit).
  StagedCorpus(std::span<const mp::BigInt> seed, std::size_t group_size)
      : r_(std::max<std::size_t>(1, group_size)) {
    std::size_t total = 0;
    for (const auto& n : seed) {
      total += n.size();
      cap_ = std::max(cap_, n.size());
    }
    data_.reserve(total + r_ * cap_);
    offsets_.reserve(seed.size() + r_ + 1);
    bits_.reserve(seed.size() + r_);
    offsets_.push_back(0);
    for (const auto& n : seed) store(n);
    restage(cap_);
  }

  /// Stage one more modulus at index size(). Amortized O(limbs of n);
  /// rebuilds the panels (O(corpus)) only when n outsizes every value
  /// staged so far — and then with doubled capacity.
  void append(const mp::BigInt& n) {
    store(n);
    const std::size_t pad = panels_->padded_limbs();
    if (n.size() + kBatchPadLimbs > pad) {
      restage(std::max(n.size(), 2 * (pad - kBatchPadLimbs)));
    } else {
      panels_->append(n.limbs());
    }
  }

  std::size_t size() const noexcept { return bits_.size(); }
  /// Normalized limbs of modulus i (little-endian).
  std::span<const ScanLimb> limbs(std::size_t i) const noexcept {
    return {data_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  /// Cached bit_length() of modulus i.
  std::size_t bits(std::size_t i) const noexcept { return bits_[i]; }
  /// Max limb count over the corpus (engine capacity floor).
  std::size_t max_limbs() const noexcept { return cap_; }
  /// Panel lane count r — the block geometry.
  std::size_t group_size() const noexcept { return r_; }

  /// The live column-major panels. Valid only while no append() intervenes
  /// (appending can reallocate or rebuild); size() always equals
  /// panels().corpus_size().
  const CorpusPanels<ScanLimb>& panels() const noexcept { return *panels_; }

 private:
  void store(const mp::BigInt& n) {
    const auto words = n.limbs();
    data_.insert(data_.end(), words.begin(), words.end());
    offsets_.push_back(data_.size());
    bits_.push_back(n.bit_length());
    cap_ = std::max(cap_, words.size());
  }

  /// Rebuild the panels with room for values up to value_cap limbs.
  void restage(std::size_t value_cap) {
    panels_.emplace(r_, std::max<std::size_t>(1, value_cap) + kBatchPadLimbs);
    panels_->reserve(size() + r_);
    for (std::size_t i = 0; i < size(); ++i) panels_->append(limbs(i));
  }

  std::size_t r_;
  std::vector<ScanLimb> data_;        // flat normalized limbs
  std::vector<std::size_t> offsets_;  // size()+1 prefix offsets into data_
  std::vector<std::size_t> bits_;
  std::size_t cap_ = 0;  // max staged value size, in limbs
  std::optional<CorpusPanels<ScanLimb>> panels_;
};

}  // namespace bulkgcd::bulk
