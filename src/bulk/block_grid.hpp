// Geometry of the Section-VI block triangle plus a reusable per-worker
// sweeper, shared by the one-shot all_pairs_gcd(), the resumable ScanDriver
// and the incremental probe so all three run exactly the same lane round
// with exactly the same per-pair early-terminate rule (Section V defines the
// RSA bit size s per key pair, NOT per corpus — a corpus-wide threshold
// silently drops hits between small moduli whenever a larger key is
// present). A probe block is a sweep block with the candidate broadcast as
// Y: one round instead of one per j-group member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bulk/allpairs.hpp"
#include "bulk/staged_corpus.hpp"
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
/// all_pairs_gcd and probe_incremental — so the counter totals exactly equal
/// the SimtStats/GcdStats of the final report, with no double counting from
/// retried attempts. No-op when `metrics` is null.
void fold_engine_stats(obs::MetricsRegistry* metrics, const SimtStats& simt,
                       const gcd::GcdStats& scalar);

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

  /// corpus: the staged moduli (bulk/staged_corpus.hpp) — flat limb spans
  /// and cached bit lengths for the per-pair thresholds and the
  /// full-modulus check, and the column-major panels each round of the
  /// vector and staged engines refreshes its batch from by bulk panel copy
  /// + broadcast. Its group_size() is the engines' lane count, and
  /// run_block() walks BlockGrid(corpus.size(), corpus.group_size()), so a
  /// sweep stages its corpus at the grid's (clamped) r. Must outlive the
  /// sweeper and not be appended to while it runs. capacity_limbs bounds
  /// every X and Y a round sees. config.engine kAuto is resolved here; this
  /// is the one place an Engine value becomes an engine.
  BlockSweeper(const StagedCorpus& corpus, const AllPairsConfig& config,
               std::size_t capacity_limbs);

  /// Block `block_index` of the triangle: one round per member n_jj of
  /// group j, with n_jj as Y.
  void run_block(std::size_t block_index);
  void run_blocks(std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) run_block(b);
  }

  /// Probe block g: group g's members against the candidate `y` in one
  /// round. Hits carry j = corpus.size(), the candidate's would-be index.
  void run_probe_block(std::size_t g, std::span<const ScanLimb> y,
                       std::size_t y_bits);

  Output take();

 private:
  /// One lane round: group g's members k < k_end against one Y (corpus
  /// index y_index, or the candidate's), on whichever engine exists. Records
  /// every pair with gcd > 1 as a hit, flagged full_modulus when the gcd is
  /// either operand.
  void round(std::size_t g, std::size_t y_index, std::span<const ScanLimb> y,
             std::size_t y_bits, std::size_t k_end);

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

  const StagedCorpus* corpus_;
  BlockGrid grid_;
  AllPairsConfig config_;
  /// Exactly one engine exists, the one config.engine resolved to.
  std::unique_ptr<gcd::GcdEngine<ScanLimb>> scalar_;
  std::unique_ptr<SimtBatch<ScanLimb, ColumnMatrix>> staged_;
  std::unique_ptr<VecBatchBase> vec_;
  Output out_;
  /// Block-local tallies for the sweep_* counters, flushed per block.
  std::uint64_t early_coprime_ = 0;
  std::uint64_t full_modulus_hits_ = 0;
  std::unique_ptr<Telemetry> tele_;  ///< null on the null-registry path
  std::unique_ptr<TraceHandles> trace_;  ///< null on the null-recorder path
};

}  // namespace bulkgcd::bulk
