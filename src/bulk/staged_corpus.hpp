// Incrementally growable staged corpus — the fold target of the streaming
// intake service (docs/INTAKE_SERVICE.md).
//
// The one-shot sweep stages its corpus once: ScanCorpus flattens every
// BigInt into one limb store, CorpusPanels lays the groups out
// column-major, and every batch refresh is a contiguous panel copy. The
// incremental probe path used to rebuild BOTH per arrival — O(corpus)
// staging work on top of the O(corpus) probe, every single key.
// StagedCorpus keeps the staged form *live* across arrivals: append()
// copies just the new modulus and writes it into its group panel, so
// probe_incremental's staged/vector engines ride the same contiguous panel
// loads as the batch sweep with amortized O(1) staging per arrival.
//
// Capacity growth is the one re-staging event: when an arrival needs more
// padded limbs than the panels carry, the panels are rebuilt from the flat
// limb store with at least double the previous value capacity — classic
// amortized doubling, so a stream of mixed-size keys re-stages O(log max)
// times total, not per key.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "bulk/layout.hpp"
#include "bulk/scan_corpus.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::bulk {

class StagedCorpus {
 public:
  /// Stage `seed` as the initial corpus. `group_size` is the panel lane
  /// count r and stays fixed for the lifetime of the object (it is the probe
  /// block geometry; the scheduler clamps nothing — a corpus smaller than r
  /// simply leaves tail lanes disabled).
  explicit StagedCorpus(std::span<const mp::BigInt> seed,
                        std::size_t group_size)
      : r_(std::max<std::size_t>(1, group_size)) {
    offsets_.push_back(0);
    for (const auto& n : seed) append(n);
    if (!panels_) restage(1);  // empty seed: panels() stays valid
  }

  /// Stage one more modulus at index size(). Amortized O(limbs of n);
  /// rebuilds the panels (O(corpus)) only when n outsizes every value
  /// staged so far — and then with doubled capacity.
  void append(const mp::BigInt& n) {
    const auto words = n.limbs();
    const std::size_t bits = n.bit_length();
    data_.insert(data_.end(), words.begin(), words.end());
    offsets_.push_back(data_.size());
    sizes_.push_back(words.size());
    bits_.push_back(bits);
    cap_ = std::max(cap_, words.size());
    if (!panels_ || words.size() + kBatchPadLimbs > panels_->padded_limbs()) {
      restage(std::max(words.size(), 2 * value_cap_));
    } else {
      panels_->append(words, bits);
    }
  }

  std::size_t size() const noexcept { return sizes_.size(); }
  /// Normalized limbs of modulus i (little-endian).
  std::span<const ScanLimb> limbs(std::size_t i) const noexcept {
    return {data_.data() + offsets_[i], sizes_[i]};
  }
  /// Cached bit_length() of modulus i.
  std::size_t bits(std::size_t i) const noexcept { return bits_[i]; }
  /// Max limb count over the corpus (engine capacity floor).
  std::size_t max_limbs() const noexcept { return cap_; }
  /// Panel lane count r — the probe block geometry.
  std::size_t group_size() const noexcept { return r_; }

  /// The live column-major panels. Valid only while no append() intervenes
  /// (appending can reallocate or rebuild); size() always equals
  /// panels().corpus_size().
  const CorpusPanels<ScanLimb>& panels() const noexcept { return *panels_; }

 private:
  /// Rebuild the panels with room for values up to value_cap limbs.
  void restage(std::size_t value_cap) {
    value_cap_ = std::max<std::size_t>(1, value_cap);
    panels_.emplace(r_, value_cap_ + kBatchPadLimbs);
    for (std::size_t i = 0; i < size(); ++i) {
      panels_->append(limbs(i), bits_[i]);
    }
  }

  std::size_t r_;
  std::vector<ScanLimb> data_;           // flat normalized limbs
  std::vector<std::size_t> offsets_;     // size()+1 prefix offsets into data_
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> bits_;
  std::size_t cap_ = 0;        // max staged value size, in limbs
  std::size_t value_cap_ = 0;  // panel value capacity (pad − kBatchPadLimbs)
  std::optional<CorpusPanels<ScanLimb>> panels_;
};

}  // namespace bulkgcd::bulk
