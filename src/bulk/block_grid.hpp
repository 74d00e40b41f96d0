// Geometry of the Section-VI block triangle plus a reusable per-worker
// sweeper, shared by the one-shot all_pairs_gcd() and the resumable
// ScanDriver so both enumerate exactly the same pairs with exactly the same
// per-pair early-terminate rule (Section V defines the RSA bit size s per
// key pair, NOT per corpus — a corpus-wide threshold silently drops hits
// between small moduli whenever a larger key is present).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bulk/allpairs.hpp"
#include "bulk/scan_corpus.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "gcd/algorithms.hpp"
#include "obs/metrics.hpp"

namespace bulkgcd::bulk {

/// Upper-triangle block decomposition of the m×m pair matrix into
/// ⌈m/r⌉ groups of r. Blocks are indexed row-major: (0,0), (0,1), …,
/// (0,g−1), (1,1), … — the enumeration order all_pairs_gcd has always used.
struct BlockGrid {
  std::size_t m = 0;       ///< corpus size
  std::size_t r = 1;       ///< group size (lanes per block)
  std::size_t groups = 0;  ///< ⌈m/r⌉

  BlockGrid() = default;
  BlockGrid(std::size_t corpus_size, std::size_t group_size)
      : m(corpus_size),
        r(std::max<std::size_t>(
              1, std::min(group_size, std::max<std::size_t>(1, corpus_size)))),
        groups((corpus_size + r - 1) / r) {}

  std::size_t block_count() const noexcept {
    return groups * (groups + 1) / 2;
  }
  std::uint64_t total_pairs() const noexcept {
    return std::uint64_t(m) * (m - 1) / 2;
  }
  std::size_t group_size(std::size_t g) const noexcept {
    return std::min(r, m - g * r);
  }

  struct Block {
    std::size_t i, j;
  };

  /// Inverse of the row-major triangle enumeration (closed form + fixup, so
  /// it stays O(1) even for million-block grids).
  Block block(std::size_t index) const noexcept;

  /// Pairs tested inside one block (diagonal blocks test each unordered
  /// intra-group pair once).
  std::uint64_t pairs_in_block(Block b) const noexcept;

  /// Pairs covered by the block range [lo, hi).
  std::uint64_t pairs_in_range(std::size_t lo, std::size_t hi) const noexcept;
};

/// Fold engine statistics into the shared simt_*/gcd_* iteration counters.
/// Called at aggregation points only — per committed chunk in the resumable
/// driver (plus once for checkpoint-restored state) and per worker merge in
/// all_pairs_gcd — so the counter totals exactly equal the
/// SimtStats/GcdStats of the final report, with no double counting from
/// retried attempts. No-op when `metrics` is null.
void fold_engine_stats(obs::MetricsRegistry* metrics, const SimtStats& simt,
                       const gcd::GcdStats& scalar);

/// Execute a panel-refreshed batch to completion: lane-serial run_staged()
/// on the staged engine, the W-lane run() on the vector engine.
inline void run_lanes(SimtBatch<ScanLimb, ColumnMatrix>& batch,
                      gcd::Variant variant) {
  batch.run_staged(variant);
}
inline void run_lanes(VecBatchBase& batch, gcd::Variant variant) {
  batch.run(variant);
}

/// Per-worker sweep state: the configured engine, reused across the blocks
/// a worker processes. Accumulates hits, pair counts, and engine
/// statistics; take() hands them over and resets.
class BlockSweeper {
 public:
  struct Output {
    std::vector<FactorHit> hits;
    std::uint64_t pairs = 0;
    SimtStats simt;
    gcd::GcdStats scalar;
  };

  /// corpus: the flattened moduli (bulk/scan_corpus.hpp), carrying
  /// normalized limb spans and cached bit lengths so per-pair thresholds
  /// are O(1). Must outlive the sweeper.
  /// panels: the staged corpus (built once per scan with the same grid and
  /// capacity_limbs + kBatchPadLimbs padding); each block round of the
  /// vector and staged engines refreshes its batch from them by bulk panel
  /// copy + broadcast. The scalar engine reads the corpus directly.
  /// Both must outlive the sweeper. config.engine kAuto is resolved here.
  BlockSweeper(const ScanCorpus& corpus, const BlockGrid& grid,
               const AllPairsConfig& config, std::size_t capacity_limbs,
               const CorpusPanels<ScanLimb>& panels);

  void run_block(std::size_t block_index);
  void run_blocks(std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) run_block(b);
  }

  Output take();

 private:
  std::size_t pair_early_bits(std::size_t a, std::size_t b) const noexcept {
    return config_.early_terminate
               ? std::min(corpus_->bits(a), corpus_->bits(b)) / 2
               : 0;
  }

  /// One SIMT block sweep, generic over the executing batch (SimtBatch or
  /// a VecBatchBase) — the round structure, masking, and verification are
  /// engine-invariant; only the run entry point differs (run_lanes).
  template <typename Batch, typename Record>
  void simt_block_rounds(Batch& eng, std::size_t i, std::size_t i_begin,
                         std::size_t j, std::size_t j_begin, std::size_t j_end,
                         std::size_t i_count, Record&& record,
                         std::uint64_t& early_coprime);

  /// Handles into the optional metrics registry, resolved once per sweeper.
  /// Counters flush once per block from plain locals; the per-pair
  /// iteration histogram and the per-round phase spans accumulate into
  /// unsynchronized LocalHistograms, merged once in take(). sweep_* metrics
  /// count locally *executed* work — including blocks later retried or
  /// quarantined — while the exact committed totals live in the scan_* and
  /// simt_*/gcd_* counters fed at the aggregation points
  /// (fold_engine_stats).
  struct Telemetry {
    obs::Counter* blocks = nullptr;
    obs::Counter* pairs = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* full_modulus_hits = nullptr;
    obs::Counter* early_coprime = nullptr;
    obs::LocalHistogram iterations_per_pair;
    obs::LocalHistogram panel_load_seconds;
    obs::LocalHistogram lane_exec_seconds;
    obs::LocalHistogram verify_seconds;
    obs::HistogramMetric* iterations_per_pair_target = nullptr;
    obs::HistogramMetric* panel_load_target = nullptr;
    obs::HistogramMetric* lane_exec_target = nullptr;
    obs::HistogramMetric* verify_target = nullptr;
  };

  /// Interned event ids for the per-round trace spans (null-recorder safe:
  /// absent entirely when config.trace is null, like tele_). The spans
  /// reuse the ScopedLocalSpan phase sites, so the histogram and the
  /// timeline measure the same intervals.
  struct TraceHandles {
    obs::TraceRecorder* rec = nullptr;
    std::uint32_t panel_load = 0;
    std::uint32_t lane_exec = 0;
  };

  const ScanCorpus* corpus_;
  BlockGrid grid_;
  AllPairsConfig config_;
  const CorpusPanels<ScanLimb>* panels_;
  /// Exactly one engine exists, the one config.engine resolved to.
  std::unique_ptr<gcd::GcdEngine<ScanLimb>> scalar_;
  std::unique_ptr<SimtBatch<ScanLimb, ColumnMatrix>> staged_;
  std::unique_ptr<VecBatchBase> vec_;
  Output out_;
  std::unique_ptr<Telemetry> tele_;  ///< null on the null-registry path
  std::unique_ptr<TraceHandles> trace_;  ///< null on the null-recorder path
};

}  // namespace bulkgcd::bulk
