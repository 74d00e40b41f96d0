#include "bulk/allpairs.hpp"

#include <algorithm>
#include <memory>

#include "bulk/block_grid.hpp"
#include "bulk/tile_scheduler.hpp"
#include "core/timer.hpp"

namespace bulkgcd::bulk {

namespace {

/// Sharded sweep: `work(sweeper, tile)` runs every tile of [0, items) on the
/// executor of cfg.pool_threads. Every worker owns a long-lived BlockSweeper
/// (engines, batch buffers, LocalHistograms) reused across all the tiles it
/// runs — its own contiguous home run plus whatever it steals. A worker slot
/// is only ever touched by its worker, so no lock guards the sweepers; the
/// scheduler joining all workers sequences the merge after the last body
/// call. Engine statistics fold into `metrics` once per worker merge, so
/// counter totals exactly equal the merged stats. Hits come back sorted by
/// (i, j).
template <class Work>
BlockSweeper::Output sweep_tiles(const StagedCorpus& corpus,
                                 const AllPairsConfig& cfg, std::size_t cap,
                                 std::size_t items,
                                 obs::MetricsRegistry* metrics,
                                 obs::TraceRecorder* trace, Work&& work) {
  SweepExecutor exec(cfg.pool_threads);
  const TileScheduler sched(items, cfg.tile_blocks, exec.workers);
  std::vector<std::unique_ptr<BlockSweeper>> sweepers(sched.worker_count());
  sched.run(
      exec.pool,
      [&](std::size_t w, const TileRange& t) {
        auto& sweeper = sweepers[w];
        if (!sweeper) {
          sweeper = std::make_unique<BlockSweeper>(corpus, cfg, cap);
        }
        work(*sweeper, t);
      },
      trace);
  BlockSweeper::Output total;
  for (auto& sweeper : sweepers) {
    if (!sweeper) continue;
    auto local = sweeper->take();
    fold_engine_stats(metrics, local.simt, local.scalar);
    total.pairs += local.pairs;
    total.simt += local.simt;
    total.scalar += local.scalar;
    total.hits.insert(total.hits.end(),
                      std::make_move_iterator(local.hits.begin()),
                      std::make_move_iterator(local.hits.end()));
  }
  std::sort(total.hits.begin(), total.hits.end(),
            [](const FactorHit& a, const FactorHit& b) {
              return std::pair(a.i, a.j) < std::pair(b.i, b.j);
            });
  return total;
}

}  // namespace

AllPairsResult all_pairs_gcd(std::span<const mp::BigInt> moduli,
                             const AllPairsConfig& config) {
  AllPairsResult result;
  const std::size_t m = moduli.size();
  if (m < 2) return result;

  // Stage the corpus once (the paper's single host→device copy); every
  // worker's sweeper then refreshes its batch from the shared read-only
  // panels.
  const BlockGrid grid(m, config.group_size);
  const StagedCorpus corpus(moduli, grid.r);
  const std::size_t cap = corpus.max_limbs();
  result.blocks_run = grid.block_count();
  result.input_bytes = m * cap * sizeof(ScanLimb);

  Timer timer;
  auto out = sweep_tiles(corpus, config, cap, grid.block_count(),
                         config.metrics, config.trace,
                         [](BlockSweeper& s, const TileRange& t) {
                           s.run_blocks(t.lo, t.hi);
                         });
  result.seconds = timer.seconds();
  result.hits = std::move(out.hits);
  result.pairs_tested = out.pairs;
  result.simt = out.simt;
  result.scalar = out.scalar;
  return result;
}

std::vector<IncrementalHit> probe_incremental(const mp::BigInt& candidate,
                                              std::span<const mp::BigInt> corpus,
                                              const AllPairsConfig& config,
                                              ProbeStats* stats) {
  const std::size_t r = std::min(config.group_size, corpus.size());
  return probe_incremental(candidate, StagedCorpus(corpus, r), config, stats);
}

std::vector<IncrementalHit> probe_incremental(const mp::BigInt& candidate,
                                              const StagedCorpus& corpus,
                                              const AllPairsConfig& config,
                                              ProbeStats* stats) {
  if (stats) *stats = ProbeStats{};
  if (corpus.size() == 0 || candidate.is_zero()) return {};

  // Candidate × every corpus member: probe block g is group g's panel
  // against a broadcast of the candidate, one round per block, on the
  // corpus's own lane count (not clamped to its size: tail lanes run
  // disabled). A probe feeds only the engine counters, folded per worker
  // merge; its sweepers keep no sweep_* series and record no round spans.
  AllPairsConfig cfg = config;
  cfg.metrics = nullptr;
  cfg.trace = nullptr;
  const auto y = candidate.limbs();
  const std::size_t y_bits = candidate.bit_length();
  auto out = sweep_tiles(corpus, cfg, std::max(corpus.max_limbs(), y.size()),
                         corpus.panels().group_count(), config.metrics,
                         config.trace,
                         [&](BlockSweeper& s, const TileRange& t) {
                           for (std::size_t g = t.lo; g < t.hi; ++g) {
                             s.run_probe_block(g, y, y_bits);
                           }
                         });
  if (stats) *stats = {out.pairs, out.simt, out.scalar};
  std::vector<IncrementalHit> hits;
  hits.reserve(out.hits.size());
  for (auto& hit : out.hits) {
    hits.push_back({hit.i, std::move(hit.factor), hit.full_modulus});
  }
  return hits;
}

}  // namespace bulkgcd::bulk
