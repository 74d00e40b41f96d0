// Column-wise data arrangement for bulk execution (the paper's Figure 3).
//
// For p lanes each owning an n-limb array b, element b_t[i] is stored at
// flat index i·p + t: when all lanes touch element i in lockstep, the p
// accesses are consecutive — coalesced on a GPU, and replayed as one address
// group per warp by the UMM simulator. A row-wise matrix is provided as the
// anti-pattern baseline for bench_coalescing.
#pragma once

#include <cassert>
#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "mp/bigint.hpp"
#include "mp/limb_traits.hpp"

namespace bulkgcd::bulk {

/// Rows a batch matrix keeps above the longest input: the β > 0 kernel of
/// Approximate Euclidean writes one limb past the current size
/// (fused_submul_shifted_add_strip), plus one guard row. Shared between
/// SimtBatch and CorpusPanels so staged panels match the batch geometry.
inline constexpr std::size_t kBatchPadLimbs = 2;

/// View of one lane's array inside a lane-major or limb-major matrix:
/// lane element i lives at base[i * stride].
template <mp::LimbType Limb>
struct Strided {
  Limb* base;
  std::size_t stride;
  Limb& operator[](std::size_t i) const noexcept { return base[i * stride]; }
};

template <mp::LimbType Limb>
struct ConstStrided {
  const Limb* base;
  std::size_t stride;
  const Limb& operator[](std::size_t i) const noexcept {
    return base[i * stride];
  }
};

/// lanes × limbs matrix, column-wise (limb-major): limb i of lane t at
/// data[i * lanes + t].
template <mp::LimbType Limb>
class ColumnMatrix {
 public:
  ColumnMatrix(std::size_t lanes, std::size_t limbs)
      : lanes_(lanes), limbs_(limbs), data_(lanes * limbs, Limb{0}) {}

  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t limbs() const noexcept { return limbs_; }

  Strided<Limb> lane(std::size_t t) noexcept {
    assert(t < lanes_);
    return {data_.data() + t, lanes_};
  }
  ConstStrided<Limb> lane(std::size_t t) const noexcept {
    assert(t < lanes_);
    return {data_.data() + t, lanes_};
  }

  void fill_lane(std::size_t t, const Limb* src, std::size_t n) noexcept {
    assert(n <= limbs_);
    auto acc = lane(t);
    for (std::size_t i = 0; i < n; ++i) acc[i] = src[i];
    for (std::size_t i = n; i < limbs_; ++i) acc[i] = Limb{0};
  }

  std::size_t bytes() const noexcept { return data_.size() * sizeof(Limb); }

  /// Flat limb-major storage; row i (all lanes' limb i) is the contiguous
  /// range [i * lanes, (i + 1) * lanes). Exposed so staged panel refreshes
  /// can bulk-copy instead of filling lane by lane.
  std::span<Limb> storage() noexcept { return data_; }
  std::span<const Limb> storage() const noexcept { return data_; }

  static constexpr bool kColumnMajor = true;

 private:
  std::size_t lanes_, limbs_;
  std::vector<Limb> data_;
};

/// lanes × limbs matrix, row-wise (lane-major): limb i of lane t at
/// data[t * limbs + i]. Same interface so the engines are layout-generic.
template <mp::LimbType Limb>
class RowMatrix {
 public:
  RowMatrix(std::size_t lanes, std::size_t limbs)
      : lanes_(lanes), limbs_(limbs), data_(lanes * limbs, Limb{0}) {}

  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t limbs() const noexcept { return limbs_; }

  Strided<Limb> lane(std::size_t t) noexcept {
    assert(t < lanes_);
    return {data_.data() + t * limbs_, 1};
  }
  ConstStrided<Limb> lane(std::size_t t) const noexcept {
    assert(t < lanes_);
    return {data_.data() + t * limbs_, 1};
  }

  void fill_lane(std::size_t t, const Limb* src, std::size_t n) noexcept {
    assert(n <= limbs_);
    auto acc = lane(t);
    for (std::size_t i = 0; i < n; ++i) acc[i] = src[i];
    for (std::size_t i = n; i < limbs_; ++i) acc[i] = Limb{0};
  }

  std::size_t bytes() const noexcept { return data_.size() * sizeof(Limb); }

  /// Flat lane-major storage (anti-pattern baseline; staged panel loads are
  /// only supported on the column-major layout).
  std::span<Limb> storage() noexcept { return data_; }
  std::span<const Limb> storage() const noexcept { return data_; }

  static constexpr bool kColumnMajor = false;

 private:
  std::size_t lanes_, limbs_;
  std::vector<Limb> data_;
};

/// One-time staging of a scan corpus: per-group panels of limbs laid out
/// exactly like ColumnMatrix (limb i of group member t at panel[i·r + t]),
/// plus cached normalized sizes. This is the CPU analogue of the paper's
/// single host→device corpus copy — after construction, a sweep refreshes a
/// SimtBatch for the next block with one contiguous copy of the group panel
/// instead of r strided per-lane fills, each with its own normalization
/// scan and BigInt indirection. bulk::StagedCorpus owns the scan's panels
/// (and the bit lengths); the BigInt constructor stages a one-shot set.
template <mp::LimbType Limb>
class CorpusPanels {
 public:
  /// padded_limbs must be at least max limb count + kBatchPadLimbs, i.e. the
  /// capacity the consuming SimtBatch was constructed with.
  CorpusPanels(std::span<const mp::BigIntT<Limb>> moduli,
               std::size_t group_size, std::size_t padded_limbs)
      : CorpusPanels(moduli.size(), group_size, padded_limbs) {
    for (std::size_t idx = 0; idx < m_; ++idx) stage(idx, moduli[idx].limbs());
  }

  /// Empty panel set ready for incremental append() — the streaming-intake
  /// fold stages arrivals one by one instead of re-staging the whole corpus
  /// per probe (bulk/staged_corpus.hpp owns the growth policy).
  CorpusPanels(std::size_t group_size, std::size_t padded_limbs)
      : CorpusPanels(0, group_size, padded_limbs) {}

  /// Room for corpus_size members without reallocating on append().
  void reserve(std::size_t corpus_size) {
    const std::size_t groups = (corpus_size + r_ - 1) / r_;
    data_.reserve(panel_elements(groups, r_, pad_));
    sizes_.reserve(groups * r_);
    rows_.reserve(groups);
  }

  /// Stage one more modulus at index corpus_size(), growing a fresh group
  /// panel when the current one is full. Appending may reallocate the panel
  /// storage: spans returned by panel()/sizes() before the call are invalid
  /// afterwards (re-fetch per block, as the sweepers already do).
  void append(std::span<const Limb> limbs) {
    if (m_ == groups_ * r_) {
      data_.resize(panel_elements(groups_ + 1, r_, pad_), Limb{0});
      sizes_.resize(sizes_.size() + r_, 0);
      rows_.push_back(1);
      ++groups_;
    }
    ++m_;
    stage(m_ - 1, limbs);
  }

  std::size_t corpus_size() const noexcept { return m_; }
  std::size_t group_count() const noexcept { return groups_; }
  std::size_t lanes() const noexcept { return r_; }
  std::size_t padded_limbs() const noexcept { return pad_; }

  /// Column-major panel of group g (r_ lanes × pad_ limbs).
  std::span<const Limb> panel(std::size_t g) const noexcept {
    assert(g < groups_);
    return {data_.data() + g * r_ * pad_, r_ * pad_};
  }
  /// Normalized limb counts of group g's members (0 for tail lanes past the
  /// corpus end).
  std::span<const std::size_t> sizes(std::size_t g) const noexcept {
    assert(g < groups_);
    return {sizes_.data() + g * r_, r_};
  }
  /// Rows worth copying for group g: max member size + 1 (the β write row).
  std::size_t rows(std::size_t g) const noexcept {
    assert(g < groups_);
    return rows_[g];
  }

  std::size_t bytes() const noexcept {
    return data_.size() * sizeof(Limb) + sizes_.size() * sizeof(std::size_t);
  }

 private:
  CorpusPanels(std::size_t corpus_size, std::size_t group_size,
               std::size_t padded_limbs)
      : m_(corpus_size),
        r_(std::max<std::size_t>(1, group_size)),
        pad_(padded_limbs),
        groups_((m_ + r_ - 1) / r_),
        data_(panel_elements(groups_, r_, pad_), Limb{0}),
        sizes_(groups_ * r_, 0),
        rows_(groups_, 1) {}

  /// Limbs in `groups` panels of r × pad, checked against the largest
  /// vector a Limb allocation can hold (so the allocation size is bounded).
  static std::size_t panel_elements(std::size_t groups, std::size_t r,
                                    std::size_t pad) {
    constexpr std::size_t kMax =
        std::size_t(std::numeric_limits<std::ptrdiff_t>::max()) / sizeof(Limb);
    if ((r != 0 && groups > kMax / r) ||
        (pad != 0 && groups * r > kMax / pad)) {
      throw std::length_error("CorpusPanels: panel storage too large");
    }
    return groups * r * pad;
  }

  void stage(std::size_t idx, std::span<const Limb> limbs) {
    if (limbs.size() + kBatchPadLimbs > pad_) {
      throw std::length_error("CorpusPanels: modulus exceeds panel capacity");
    }
    const std::size_t g = idx / r_;
    const std::size_t lane = idx % r_;
    Limb* panel_base = data_.data() + g * r_ * pad_;
    for (std::size_t i = 0; i < limbs.size(); ++i) {
      panel_base[i * r_ + lane] = limbs[i];
    }
    sizes_[g * r_ + lane] = limbs.size();
    // One row above the longest member so the β > 0 write row is refreshed
    // along with the values.
    rows_[g] = std::max(rows_[g], limbs.size() + 1);
  }

  std::size_t m_, r_, pad_, groups_;
  std::vector<Limb> data_;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> rows_;
};

}  // namespace bulkgcd::bulk
