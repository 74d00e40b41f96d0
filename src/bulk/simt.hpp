// SIMT-style bulk GCD engine (Section VI).
//
// Emulates the paper's CUDA execution on the CPU: a batch of lanes (threads)
// advances in warp lockstep, one algorithm iteration per round, over
// column-wise state (bulk/layout.hpp). Finished lanes are predicated off,
// exactly like divergent threads in a warp. The engine
//   * runs the three GPU algorithms of Table V — Binary, Fast Binary,
//     Approximate — in non- and early-terminate modes;
//   * reuses the identical fused kernels as the scalar engine (they are
//     accessor-generic), so results are bit-identical by construction;
//   * records warp-divergence statistics: per warp round, how many distinct
//     branches the active lanes took (a SIMT machine serializes them), which
//     quantifies §VII's observation that branch divergence hurts Binary
//     Euclidean while Approximate Euclidean is essentially divergence-free.
//
// Two execution modes share one set of per-lane step functions
// (bulk/scalar_lane.hpp, also the vector engine's scalar path):
//   * run()        — the warp-lockstep round loop above (reference path);
//   * run_staged() — each lane runs to completion before the next starts,
//     like one CUDA thread looping its pair to termination (the kernel shape
//     in docs/GPU_PORTING.md). Per-lane branch traces are recorded and the
//     lockstep warp statistics are reconstructed exactly, so results AND
//     stats are bit-identical to run() while the hot loop keeps its state in
//     registers instead of re-reading lane vectors every round.
// Staged batches are refreshed from CorpusPanels via load_panel() /
// broadcast_y() / reset_lane_state() — one contiguous copy per block instead
// of r strided per-lane fills with their normalization scans.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bulk/layout.hpp"
#include "bulk/scalar_lane.hpp"
#include "bulk/simt_stats.hpp"
#include "gcd/algorithms.hpp"
#include "gcd/kernels.hpp"

namespace bulkgcd::bulk {

/// A batch of GCD lanes executed in warp lockstep.
/// Matrix selects the memory layout: ColumnMatrix (the paper's coalesced
/// arrangement, default) or RowMatrix (the serialized baseline).
template <mp::LimbType Limb, template <class> class Matrix = ColumnMatrix>
class SimtBatch {
 public:
  /// Sentinel for load(): the lane inherits run()'s batch-wide early_bits.
  static constexpr std::size_t kInheritEarlyBits = std::size_t(-1);

  /// capacity_limbs: max limb count of any input value.
  SimtBatch(std::size_t lanes, std::size_t capacity_limbs,
            std::size_t warp_width = 32)
      : lanes_(lanes),
        cap_(capacity_limbs + kBatchPadLimbs),
        warp_(warp_width),
        mat_a_(lanes, cap_),
        mat_b_(lanes, cap_),
        lx_(lanes, 0),
        ly_(lanes, 0),
        early_(lanes, kInheritEarlyBits),
        eff_early_(lanes, 0),
        swapped_(lanes, 0),
        active_(lanes, 0) {
    if (warp_width == 0) throw std::invalid_argument("warp width must be > 0");
  }

  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t capacity() const noexcept { return cap_ - kBatchPadLimbs; }
  /// Input bytes a GPU would copy host→device for this batch.
  std::size_t input_bytes() const noexcept {
    return mat_a_.bytes() + mat_b_.bytes();
  }

  /// Load one pair into a lane (and mark it active). Values must be odd.
  /// early_bits: per-lane early-terminate threshold (Section V defines s per
  /// key pair, so mixed-size batches need a per-lane value); the default
  /// inherits the batch-wide threshold passed to run().
  void load(std::size_t lane, std::span<const Limb> x, std::span<const Limb> y,
            std::size_t early_bits = kInheritEarlyBits) {
    assert(lane < lanes_);
    early_[lane] = early_bits;
    if (x.size() > capacity() || y.size() > capacity()) {
      throw std::length_error("SimtBatch: input exceeds capacity");
    }
    mat_a_.fill_lane(lane, x.data(), x.size());
    mat_b_.fill_lane(lane, y.data(), y.size());
    // fill_lane zeroes every row above the value, so the whole matrix must be
    // assumed dirty afterwards only up to capacity; panel refreshes that
    // follow a per-lane load fall back to a full-height copy.
    x_rows_ = cap_;
    y_rows_ = cap_;
    lx_[lane] = gcd::acc_normalized_size(mat_a_.lane(lane), x.size());
    ly_[lane] = gcd::acc_normalized_size(mat_b_.lane(lane), y.size());
    swapped_[lane] = 0;
    if (gcd::acc_compare(mat_a_.lane(lane), lx_[lane], mat_b_.lane(lane),
                         ly_[lane]) < 0) {
      swap_lane(lane);
    }
    active_[lane] = 1;
  }

  /// Stage the whole X side from a CorpusPanels panel in one contiguous copy
  /// (column-major layouts only — the panel and the matrix share their
  /// geometry, so rows [0, rows) transfer verbatim). sizes carries the
  /// pre-normalized limb counts, replacing the per-lane normalization scan of
  /// load(). Rows above `rows` that a previous run may have dirtied are
  /// zeroed lazily (tracked, so steady-state refreshes touch nothing extra).
  void load_panel(std::span<const Limb> panel,
                  std::span<const std::size_t> sizes, std::size_t rows) {
    if constexpr (!Matrix<Limb>::kColumnMajor) {
      throw std::logic_error("load_panel requires the column-major layout");
    } else {
      if (rows > cap_ || panel.size() < rows * lanes_ ||
          sizes.size() != lanes_) {
        throw std::invalid_argument(
            "SimtBatch: panel does not fit this batch");
      }
      auto dst = mat_a_.storage();
      std::copy_n(panel.data(), rows * lanes_, dst.data());
      if (x_rows_ > rows) {
        std::fill(dst.begin() + std::ptrdiff_t(rows * lanes_),
                  dst.begin() + std::ptrdiff_t(x_rows_ * lanes_), Limb{0});
      }
      x_rows_ = rows;
      std::copy_n(sizes.data(), lanes_, lx_.data());
    }
  }

  /// Stage the Y side: every lane of a block shares the same second operand
  /// (the j-group member of the current round), so a single row-wise fill
  /// replaces r strided fill_lane calls. y must be normalized (BigInt limbs).
  void broadcast_y(std::span<const Limb> y) {
    if constexpr (!Matrix<Limb>::kColumnMajor) {
      throw std::logic_error("broadcast_y requires the column-major layout");
    } else {
      if (y.size() > capacity()) {
        throw std::length_error("SimtBatch: input exceeds capacity");
      }
      auto dst = mat_b_.storage();
      for (std::size_t i = 0; i < y.size(); ++i) {
        std::fill_n(dst.data() + i * lanes_, lanes_, y[i]);
      }
      if (y_rows_ > y.size()) {
        std::fill(dst.begin() + std::ptrdiff_t(y.size() * lanes_),
                  dst.begin() + std::ptrdiff_t(y_rows_ * lanes_), Limb{0});
      }
      // A run may write one row above the staged value (β > 0 kernel).
      y_rows_ = std::min(cap_, y.size() + 1);
      std::fill_n(ly_.data(), lanes_, y.size());
    }
  }

  /// Re-arm one lane after load_panel()/broadcast_y(): set its threshold,
  /// restore the X ≥ Y invariant (same compare/swap as load()), and mark it
  /// active. Must be called for every lane that participates in the next run.
  void reset_lane_state(std::size_t lane,
                        std::size_t early_bits = kInheritEarlyBits) {
    assert(lane < lanes_);
    early_[lane] = early_bits;
    swapped_[lane] = 0;
    if (gcd::acc_compare(mat_a_.lane(lane), lx_[lane], mat_b_.lane(lane),
                         ly_[lane]) < 0) {
      swap_lane(lane);
    }
    active_[lane] = 1;
  }

  /// Mark a lane as unused (padding at the tail of a block).
  void disable(std::size_t lane) noexcept { active_[lane] = 0; }

  /// Run all active lanes to completion in warp lockstep.
  /// Supported variants: kBinary, kFastBinary, kApproximate (the GPU
  /// algorithms of Table V). kDivsteps runs under run_staged() only.
  void run(gcd::Variant variant, std::size_t early_bits = 0) {
    check_variant(variant, false);
    resolve_early(early_bits);
    bool any = true;
    while (any) {
      any = false;
      bool round_counted = false;
      for (std::size_t base = 0; base < lanes_; base += warp_) {
        const std::size_t end = std::min(base + warp_, lanes_);
        std::uint32_t branch_mask = 0;
        std::size_t active_count = 0;
        for (std::size_t lane = base; lane < end; ++lane) {
          if (!active_[lane]) continue;
          LaneState s = lane_state(lane);
          if (!scalar_lane::keeps_going(s, eff_early_[lane])) {
            active_[lane] = 0;
            continue;
          }
          const int branch = step(s, variant, eff_early_[lane]);
          store_lane(lane, s);
          branch_mask |= 1u << branch;
          ++active_count;
          ++stats_.lane_iterations;
          any = true;
        }
        if (active_count > 0) {
          if (!round_counted) {
            ++stats_.rounds;
            round_counted = true;
          }
          ++stats_.warp_rounds;
          const int branches = std::popcount(branch_mask);
          stats_.branch_slots += branches;
          if (branches > 1) ++stats_.divergent_warp_rounds;
          stats_.active_lane_slots += active_count;
          stats_.lane_slots += warp_;
        }
      }
    }
  }

  /// Run all active lanes to completion, one lane at a time — the shape of
  /// the real CUDA kernel, where each thread loops its own pair until done
  /// and the warp scheduler (not the host loop) interleaves them. Uses the
  /// identical LaneState step functions as run(), so final lane states and
  /// per-algorithm GcdStats match bit for bit; the warp-level counters
  /// (rounds, divergence, utilization) are reconstructed exactly from the
  /// recorded per-lane branch traces — see replay_warp_stats().
  void run_staged(gcd::Variant variant, std::size_t early_bits = 0) {
    check_variant(variant, true);
    resolve_early(early_bits);
    if (branch_log_.size() != lanes_) branch_log_.resize(lanes_);
    switch (variant) {
      case gcd::Variant::kBinary:
        run_staged_impl<gcd::Variant::kBinary>();
        break;
      case gcd::Variant::kFastBinary:
        run_staged_impl<gcd::Variant::kFastBinary>();
        break;
      case gcd::Variant::kDivsteps:
        run_staged_impl<gcd::Variant::kDivsteps>();
        break;
      default:
        run_staged_impl<gcd::Variant::kApproximate>();
        break;
    }
    replay_warp_stats(branch_log_, lanes_, warp_, stats_);
  }

  /// True when the lane's run terminated early with Y still nonzero — the
  /// pair is coprime (Section V).
  bool early_coprime(std::size_t lane) const noexcept { return ly_[lane] > 0; }

  /// The lane's GCD (valid when !early_coprime).
  mp::BigIntT<Limb> gcd_of(std::size_t lane) const {
    std::vector<Limb> limbs(lx_[lane]);
    auto x = x_lane(lane);
    for (std::size_t i = 0; i < lx_[lane]; ++i) limbs[i] = x[i];
    return mp::BigIntT<Limb>::from_limbs(limbs);
  }

  const SimtStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = SimtStats{}; }

  /// Iterations the lane executed in the most recent run_staged() — the
  /// length of its recorded branch trace (0 before any staged run, or for a
  /// disabled lane). This is the per-pair iteration count §IV aggregates
  /// into Table IV; the telemetry layer feeds it into the
  /// iterations-per-pair histogram without touching the hot loop.
  std::size_t lane_iterations(std::size_t lane) const noexcept {
    return lane < branch_log_.size() ? branch_log_[lane].size() : 0;
  }

 private:
  using LaneState = scalar_lane::State<Limb>;

  LaneState lane_state(std::size_t lane) noexcept {
    return {x_lane(lane), y_lane(lane), lx_[lane], ly_[lane], swapped_[lane]};
  }
  void store_lane(std::size_t lane, const LaneState& s) noexcept {
    lx_[lane] = s.lx;
    ly_[lane] = s.ly;
    swapped_[lane] = s.swapped;
  }

  static void check_variant(gcd::Variant variant, bool staged) {
    if (variant != gcd::Variant::kBinary &&
        variant != gcd::Variant::kFastBinary &&
        variant != gcd::Variant::kApproximate &&
        !(staged && variant == gcd::Variant::kDivsteps)) {
      throw std::invalid_argument("SimtBatch: unsupported variant");
    }
  }

  void resolve_early(std::size_t early_bits) noexcept {
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      eff_early_[lane] =
          early_[lane] == kInheritEarlyBits ? early_bits : early_[lane];
    }
  }

  // flatten: inline the step functions and fused kernels into the lane loop
  // so per-iteration state (accessor bases, sizes, carries) stays in
  // registers — the point of running each lane to completion.
  template <gcd::Variant V>
#if defined(__GNUC__)
  [[gnu::flatten]]
#endif
  void run_staged_impl() {
    // Accumulate algorithm stats in a local and fold into stats_ once: the
    // flattened loop keeps the counters in registers instead of issuing
    // read-modify-writes against the member on every iteration. Totals are
    // identical (pure sums).
    gcd::GcdStats tally;
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      auto& log = branch_log_[lane];
      if (log.capacity() < 160) log.reserve(160);
      log.clear();
      if (!active_[lane]) continue;
      LaneState s = lane_state(lane);
      if constexpr (V == gcd::Variant::kDivsteps) {
        // Divsteps writes a sign row above the larger value.
        const std::size_t rows = scalar_lane::divsteps_rows(s);
        x_rows_ = std::max(x_rows_, rows);
        y_rows_ = std::max(y_rows_, rows);
      }
      scalar_lane::run<V>(s, eff_early_[lane], tally, log);
      store_lane(lane, s);
      active_[lane] = 0;
      stats_.lane_iterations += log.size();
    }
    stats_.gcd += tally;
  }

  Strided<Limb> x_lane(std::size_t lane) noexcept {
    return swapped_[lane] ? mat_b_.lane(lane) : mat_a_.lane(lane);
  }
  Strided<Limb> y_lane(std::size_t lane) noexcept {
    return swapped_[lane] ? mat_a_.lane(lane) : mat_b_.lane(lane);
  }
  ConstStrided<Limb> x_lane(std::size_t lane) const noexcept {
    return swapped_[lane] ? mat_b_.lane(lane) : mat_a_.lane(lane);
  }

  void swap_lane(std::size_t lane) noexcept {
    swapped_[lane] ^= 1;
    std::swap(lx_[lane], ly_[lane]);
  }

  /// One algorithm iteration on one lane in lockstep mode; returns the
  /// branch id taken (0..2) for divergence accounting.
  int step(LaneState& s, gcd::Variant variant, std::size_t early_bits) {
    using gcd::Variant;
    ++stats_.gcd.iterations;
    switch (variant) {
      case Variant::kBinary:
        return scalar_lane::step<Variant::kBinary>(s, false, stats_.gcd);
      case Variant::kFastBinary:
        return scalar_lane::step<Variant::kFastBinary>(s, false, stats_.gcd);
      default:
        return scalar_lane::step<Variant::kApproximate>(
            s, scalar_lane::section_v<Limb>(early_bits), stats_.gcd);
    }
  }


  std::size_t lanes_, cap_, warp_;
  Matrix<Limb> mat_a_, mat_b_;
  std::vector<std::size_t> lx_, ly_;
  std::vector<std::size_t> early_;      ///< per-lane override from load()
  std::vector<std::size_t> eff_early_;  ///< resolved threshold for this run()
  std::vector<std::uint8_t> swapped_, active_;
  // Dirty-row watermarks: rows of mat_a_/mat_b_ that may hold nonzero limbs.
  // Kernel writes never land above a value's initial size (the β > 0 case
  // writes exactly one limb past the *current* size, which only shrinks), so
  // a panel refresh of `rows` rows leaves anything above untouched — and the
  // watermark tells load_panel()/broadcast_y() how much of that residue must
  // be zeroed. Divsteps also writes one sign row above the larger of a lane's
  // two values in both matrices; run_staged() raises both watermarks over it.
  // Fresh matrices are all-zero.
  std::size_t x_rows_ = 0, y_rows_ = 0;
  std::vector<std::vector<std::uint8_t>> branch_log_;  ///< staged traces
  SimtStats stats_;
};

extern template class SimtBatch<std::uint32_t, ColumnMatrix>;
extern template class SimtBatch<std::uint32_t, RowMatrix>;
extern template class SimtBatch<std::uint64_t, ColumnMatrix>;
extern template class SimtBatch<std::uint64_t, RowMatrix>;

}  // namespace bulkgcd::bulk
