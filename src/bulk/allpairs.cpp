#include "bulk/allpairs.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "bulk/block_grid.hpp"
#include "bulk/tile_scheduler.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"

namespace bulkgcd::bulk {

namespace {

/// Shared thread-placement contract of the sharded sweeps: pool_threads 1 =
/// inline on the caller (pool stays null, the scheduler runs serial), 0 =
/// one worker per global-pool thread, N = a private pool of N workers.
struct SweepExecutor {
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = nullptr;
  std::size_t workers = 1;

  explicit SweepExecutor(std::size_t pool_threads) {
    if (pool_threads == 1) return;
    if (pool_threads == 0) {
      pool = &global_pool();
      workers = pool->size();
    } else {
      local_pool.emplace(pool_threads);
      pool = &*local_pool;
      workers = pool_threads;
    }
  }
};

}  // namespace

AllPairsResult all_pairs_gcd(std::span<const mp::BigInt> moduli,
                             const AllPairsConfig& config) {
  AllPairsResult result;
  const std::size_t m = moduli.size();
  if (m < 2) return result;

  AllPairsConfig cfg = config;
  cfg.engine = resolve_engine(cfg.engine);

  // Flatten the BigInt corpus into one limb store (bulk/scan_corpus.hpp);
  // every hot-path access below — staging, loads, the full-modulus check —
  // reads these flat spans.
  const ScanCorpus scan(moduli);
  const std::size_t cap = scan.max_limbs();
  const BlockGrid grid(m, cfg.group_size);

  result.blocks_run = grid.block_count();
  result.input_bytes = m * cap * sizeof(ScanLimb);

  // Stage the corpus once (the paper's single host→device copy); every
  // worker's sweeper then refreshes its batch from the shared read-only
  // panels.
  const CorpusPanels<ScanLimb> panels(scan, grid.r, cap + kBatchPadLimbs);

  Timer timer;

  // Sharded sweep: every worker owns a long-lived BlockSweeper (engines,
  // batch buffers, LocalHistograms) reused across all the tiles it runs —
  // its own contiguous home run plus whatever it steals. A worker slot is
  // only ever touched by its worker, so no lock guards the sweepers; the
  // scheduler joining all workers sequences the merge below after the last
  // body call.
  SweepExecutor exec(cfg.pool_threads);
  const TileScheduler sched(grid.block_count(), cfg.tile_blocks, exec.workers);
  std::vector<std::unique_ptr<BlockSweeper>> sweepers(sched.worker_count());
  sched.run(
      exec.pool,
      [&](std::size_t w, const TileRange& t) {
        auto& sweeper = sweepers[w];
        if (!sweeper) {
          sweeper = std::make_unique<BlockSweeper>(scan, grid, cfg, cap,
                                                   panels);
        }
        sweeper->run_blocks(t.lo, t.hi);
      },
      cfg.trace);
  for (auto& sweeper : sweepers) {
    if (!sweeper) continue;
    auto local = sweeper->take();
    // Engine-statistics counters are fed once per worker merge, so their
    // totals exactly equal the final AllPairsResult stats.
    fold_engine_stats(cfg.metrics, local.simt, local.scalar);
    result.pairs_tested += local.pairs;
    result.simt += local.simt;
    result.scalar += local.scalar;
    result.hits.insert(result.hits.end(),
                       std::make_move_iterator(local.hits.begin()),
                       std::make_move_iterator(local.hits.end()));
  }

  result.seconds = timer.seconds();
  std::sort(result.hits.begin(), result.hits.end(),
            [](const FactorHit& a, const FactorHit& b) {
              return std::pair(a.i, a.j) < std::pair(b.i, b.j);
            });
  return result;
}

namespace {

/// Shared probe core: candidate × every corpus member, sharded over the tile
/// scheduler. Generic over the corpus view — ScanCorpus (flattened per call by
/// the span overload) or StagedCorpus (kept live across arrivals by the
/// streaming fold) — both exposing size()/limbs(i)/bits(i)/max_limbs().
/// `panels` must stage exactly the view's moduli with lane count `r`. cfg
/// must already be engine-resolved.
template <class CorpusView>
std::vector<IncrementalHit> probe_corpus(const mp::BigInt& candidate,
                                         const CorpusView& scan, std::size_t r,
                                         const CorpusPanels<ScanLimb>& panels,
                                         const AllPairsConfig& cfg,
                                         ProbeStats* stats) {
  std::vector<IncrementalHit> hits;
  const std::size_t m = scan.size();
  const ScanCorpus cand_scan(std::span(&candidate, 1));
  const auto cand = cand_scan.limbs(0);
  const std::size_t cand_bits = candidate.bit_length();
  const std::size_t cap = std::max(scan.max_limbs(), cand_scan.max_limbs());
  // Section V: the early-terminate threshold is a property of each PAIR, so
  // each corpus member gets min(bits(candidate), bits(member))/2 rather than
  // a corpus-wide bound that misses hits among the smaller keys.
  auto early = [&](std::size_t i) {
    return cfg.early_terminate ? std::min(cand_bits, scan.bits(i)) / 2 : 0;
  };

  auto push_hit = [&](std::vector<IncrementalHit>& local, std::size_t i,
                      mp::BigInt g) {
    if (g.bit_length() < 2) return;  // g > 1 ⟺ at least two bits
    const auto gl = g.limbs();
    const bool full =
        std::equal(gl.begin(), gl.end(), scan.limbs(i).begin(),
                   scan.limbs(i).end()) ||
        std::equal(gl.begin(), gl.end(), cand.begin(), cand.end());
    local.push_back({i, std::move(g), full});
  };

  // Generic over the executing batch (SimtBatch or the vector engine):
  // each probe block refreshes the batch from group `block`'s panel and a
  // broadcast of the candidate.
  auto probe_blocks = [&](auto& batch, std::size_t lo, std::size_t hi,
                          std::vector<IncrementalHit>& local,
                          std::uint64_t& pairs) {
    for (std::size_t block = lo; block < hi; ++block) {
      const std::size_t begin = block * r;
      const std::size_t end = std::min(begin + r, m);
      batch.load_panel(panels.panel(block), panels.sizes(block),
                       panels.rows(block));
      batch.broadcast_y(cand);
      for (std::size_t k = 0; begin + k < end; ++k) {
        batch.reset_lane_state(k, early(begin + k));
      }
      for (std::size_t k = end - begin; k < r; ++k) batch.disable(k);
      run_lanes(batch, cfg.variant);
      pairs += end - begin;
      for (std::size_t k = 0; begin + k < end; ++k) {
        if (batch.early_coprime(k)) continue;
        push_hit(local, begin + k, batch.gcd_of(k));
      }
    }
  };

  // Per-worker probe state: one engine of the configured kind plus local
  // hit/pair accumulators, created lazily on the worker's first tile and
  // reused across every tile it runs (home run + steals). Worker batches
  // start with zeroed statistics; after the schedule their accumulated
  // SimtStats are the worker's exact share of the probe.
  struct ProbeWorker {
    std::vector<IncrementalHit> hits;
    ProbeStats work;
    std::unique_ptr<VecBatchBase> vec;
    std::unique_ptr<SimtBatch<ScanLimb, ColumnMatrix>> simt;
    std::unique_ptr<gcd::GcdEngine<ScanLimb>> scalar_engine;
  };

  // Same thread-placement contract as all_pairs_gcd: 1 = inline on the
  // caller (no pool hop — the latency-sensitive intake path), 0 = global
  // pool, N = a private pool of N workers. Probe blocks are sharded over
  // the workers through the same work-stealing tile scheduler as the full
  // sweep (tile_blocks probe blocks per tile).
  const std::size_t blocks = (m + r - 1) / r;
  SweepExecutor exec(cfg.pool_threads);
  const TileScheduler sched(blocks, cfg.tile_blocks, exec.workers);
  std::vector<std::unique_ptr<ProbeWorker>> workers(sched.worker_count());
  sched.run(exec.pool, [&](std::size_t w, const TileRange& t) {
    auto& worker = workers[w];
    if (!worker) worker = std::make_unique<ProbeWorker>();
    if (cfg.engine == Engine::kVector) {
      if (!worker->vec) {
        worker->vec = make_vec_batch(r, cap, cfg.warp_width);
      }
      probe_blocks(*worker->vec, t.lo, t.hi, worker->hits,
                   worker->work.pairs_tested);
    } else if (cfg.engine == Engine::kStaged) {
      if (!worker->simt) {
        worker->simt = std::make_unique<SimtBatch<ScanLimb, ColumnMatrix>>(
            r, cap, cfg.warp_width);
      }
      probe_blocks(*worker->simt, t.lo, t.hi, worker->hits,
                   worker->work.pairs_tested);
    } else {
      if (!worker->scalar_engine) {
        worker->scalar_engine = std::make_unique<gcd::GcdEngine<ScanLimb>>(cap);
      }
      for (std::size_t block = t.lo; block < t.hi; ++block) {
        const std::size_t begin = block * r;
        const std::size_t end = std::min(begin + r, m);
        for (std::size_t i = begin; i < end; ++i) {
          const auto run =
              worker->scalar_engine->run(cfg.variant, scan.limbs(i), cand,
                                         early(i), &worker->work.scalar);
          ++worker->work.pairs_tested;
          if (run.early_coprime) continue;
          push_hit(worker->hits, i,
                   mp::BigInt::from_limbs(run.gcd));
        }
      }
    }
  }, cfg.trace);

  ProbeStats total;
  for (auto& worker : workers) {
    if (!worker) continue;
    if (worker->vec) worker->work.simt = worker->vec->stats();
    if (worker->simt) worker->work.simt = worker->simt->stats();
    // Same contract as all_pairs_gcd: engine counters are fed once per
    // worker merge, so their totals equal the returned ProbeStats.
    fold_engine_stats(cfg.metrics, worker->work.simt, worker->work.scalar);
    total.pairs_tested += worker->work.pairs_tested;
    total.simt += worker->work.simt;
    total.scalar += worker->work.scalar;
    hits.insert(hits.end(), std::make_move_iterator(worker->hits.begin()),
                std::make_move_iterator(worker->hits.end()));
  }
  if (stats) *stats = std::move(total);

  std::sort(hits.begin(), hits.end(),
            [](const IncrementalHit& a, const IncrementalHit& b) {
              return a.corpus_index < b.corpus_index;
            });
  return hits;
}

}  // namespace

std::vector<IncrementalHit> probe_incremental(const mp::BigInt& candidate,
                                              std::span<const mp::BigInt> corpus,
                                              const AllPairsConfig& config,
                                              ProbeStats* stats) {
  if (stats) *stats = ProbeStats{};
  if (corpus.empty() || candidate.is_zero()) return {};

  AllPairsConfig cfg = config;
  cfg.engine = resolve_engine(cfg.engine);

  const ScanCorpus scan(corpus);
  const std::size_t r = std::max<std::size_t>(1, std::min(cfg.group_size,
                                                          corpus.size()));
  // Stage the corpus once; each probe block then refreshes its batch with a
  // bulk panel copy + candidate broadcast (group g == probe block g).
  const CorpusPanels<ScanLimb> panels(scan, r,
                                      scan.max_limbs() + kBatchPadLimbs);
  return probe_corpus(candidate, scan, r, panels, cfg, stats);
}

std::vector<IncrementalHit> probe_incremental(const mp::BigInt& candidate,
                                              const StagedCorpus& corpus,
                                              const AllPairsConfig& config,
                                              ProbeStats* stats) {
  if (stats) *stats = ProbeStats{};
  if (corpus.size() == 0 || candidate.is_zero()) return {};

  AllPairsConfig cfg = config;
  cfg.engine = resolve_engine(cfg.engine);

  // The staged corpus already carries live panels with its own lane count;
  // the probe rides them directly — no copy, no panel rebuild. Lane count
  // is NOT clamped to the corpus size (tail lanes run disabled), which is
  // value-identical: r only shapes batching, never which pairs run.
  return probe_corpus(candidate, corpus, corpus.group_size(), corpus.panels(),
                      cfg, stats);
}

}  // namespace bulkgcd::bulk
