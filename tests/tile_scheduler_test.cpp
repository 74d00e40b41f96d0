// Work-stealing tile scheduler tests: partition/chunk-boundary properties,
// exactly-once execution under stealing, skewed-load steal traffic, and the
// headline determinism contract — the sharded sweep returns bit-identical
// hits, statistics, and telemetry counters for ANY worker count × tile
// shape × engine combination.
#include "bulk/tile_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <utility>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bulk/allpairs.hpp"
#include "core/thread_pool.hpp"
#include "gmp_oracle.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"

namespace bulkgcd::bulk {
namespace {

using mp::BigInt;

// ---- geometry / chunk-boundary properties ---------------------------------

TEST(TileSchedulerTest, TilesPartitionTheRangeExactly) {
  for (const std::size_t total : {0u, 1u, 5u, 63u, 64u, 65u, 257u}) {
    for (const std::size_t tile_items : {0u, 1u, 3u, 7u, 64u, 1000u}) {
      for (const std::size_t workers : {1u, 2u, 4u, 9u}) {
        const TileScheduler sched(total, tile_items, workers);
        SCOPED_TRACE("total=" + std::to_string(total) +
                     " tile_items=" + std::to_string(tile_items) +
                     " workers=" + std::to_string(workers));
        if (total == 0) {
          EXPECT_EQ(sched.tile_count(), 0u);
          continue;
        }
        // Tiles chain without gaps or overlap and cover [0, total).
        std::size_t expect_lo = 0;
        for (std::size_t t = 0; t < sched.tile_count(); ++t) {
          const TileRange r = sched.tile(t);
          EXPECT_EQ(r.index, t);
          EXPECT_EQ(r.lo, expect_lo);
          EXPECT_LT(r.lo, r.hi);
          EXPECT_LE(r.hi - r.lo, sched.tile_items());
          expect_lo = r.hi;
        }
        EXPECT_EQ(expect_lo, total);
        // Every tile but the last is exactly tile_items wide.
        for (std::size_t t = 0; t + 1 < sched.tile_count(); ++t) {
          EXPECT_EQ(sched.tile(t).hi - sched.tile(t).lo, sched.tile_items());
        }
      }
    }
  }
}

TEST(TileSchedulerTest, HomeAssignmentIsContiguousAndBalanced) {
  for (const std::size_t total : {1u, 16u, 63u, 100u}) {
    for (const std::size_t workers : {1u, 2u, 3u, 4u, 7u, 200u}) {
      const TileScheduler sched(total, /*tile_items=*/1, workers);
      SCOPED_TRACE("total=" + std::to_string(total) +
                   " workers=" + std::to_string(workers));
      std::vector<std::size_t> owned(sched.worker_count(), 0);
      std::size_t prev = 0;
      for (std::size_t t = 0; t < sched.tile_count(); ++t) {
        const std::size_t w = sched.home_worker(t);
        ASSERT_LT(w, sched.worker_count());
        EXPECT_GE(w, prev);  // contiguous runs: owner is non-decreasing
        prev = w;
        ++owned[w];
      }
      // Balanced: per-worker counts differ by at most one tile.
      std::size_t lo = sched.tile_count(), hi = 0;
      for (const std::size_t n : owned) {
        lo = std::min(lo, n);
        hi = std::max(hi, n);
      }
      if (sched.tile_count() >= sched.worker_count()) {
        EXPECT_LE(hi - lo, 1u);
      } else {
        EXPECT_LE(hi, 1u);
      }
    }
  }
}

TEST(TileSchedulerTest, AutoTileItemsGiveEachWorkerStealGranularity) {
  // ~4 tiles per worker, clamped to [1, total].
  EXPECT_EQ(TileScheduler::auto_tile_items(0, 4), 1u);
  EXPECT_EQ(TileScheduler::auto_tile_items(3, 4), 1u);
  EXPECT_EQ(TileScheduler::auto_tile_items(1600, 4), 100u);
  const TileScheduler sched(1600, 0, 4);
  EXPECT_EQ(sched.tile_count(), 16u);
}

// ---- exactly-once execution under stealing --------------------------------

TEST(TileSchedulerTest, RunVisitsEveryItemExactlyOnce) {
  for (const std::size_t total : {0u, 1u, 7u, 64u, 257u}) {
    for (const std::size_t tile_items : {0u, 1u, 3u, 8u}) {
      for (const std::size_t workers : {1u, 2u, 4u}) {
        SCOPED_TRACE("total=" + std::to_string(total) +
                     " tile_items=" + std::to_string(tile_items) +
                     " workers=" + std::to_string(workers));
        ThreadPool pool(workers);
        const TileScheduler sched(total, tile_items, workers);
        std::vector<std::atomic<int>> visits(total);
        for (auto& v : visits) v.store(0);
        const TileSchedulerStats stats =
            sched.run(&pool, [&](std::size_t worker, const TileRange& t) {
              ASSERT_LT(worker, sched.worker_count());
              for (std::size_t i = t.lo; i < t.hi; ++i) {
                visits[i].fetch_add(1);
              }
            });
        EXPECT_EQ(stats.tiles_executed, sched.tile_count());
        for (std::size_t i = 0; i < total; ++i) {
          EXPECT_EQ(visits[i].load(), 1) << "item " << i;
        }
      }
    }
  }
}

TEST(TileSchedulerTest, NullPoolAndNestedCallsRunInline) {
  const TileScheduler sched(32, 4, 4);
  // Null pool: serial on the caller, worker id always 0.
  std::size_t executed = 0;
  sched.run(nullptr, [&](std::size_t worker, const TileRange&) {
    EXPECT_EQ(worker, 0u);
    ++executed;
  });
  EXPECT_EQ(executed, sched.tile_count());
  // From inside a pool worker (the nested case), the schedule degrades to
  // inline execution instead of deadlocking on a saturated pool.
  ThreadPool pool(2);
  std::atomic<std::size_t> nested{0};
  pool.submit([&] {
      sched.run(&pool, [&](std::size_t worker, const TileRange&) {
        EXPECT_EQ(worker, 0u);
        nested.fetch_add(1);
      });
    }).get();
  EXPECT_EQ(nested.load(), sched.tile_count());
}

TEST(TileSchedulerTest, BodyExceptionIsRethrownOnce) {
  ThreadPool pool(4);
  const TileScheduler sched(64, 1, 4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      sched.run(&pool,
                [&](std::size_t, const TileRange& t) {
                  ran.fetch_add(1);
                  if (t.index == 5) throw std::runtime_error("tile 5 failed");
                }),
      std::runtime_error);
  // The abort flag stops remaining tiles; at minimum the throwing tile ran.
  EXPECT_GE(ran.load(), 1);
}

TEST(TileSchedulerTest, SkewedLoadTriggersStealsAndStaysExactlyOnce) {
  // Worker 0's home run is artificially slow; the other workers drain their
  // own tiles and must steal from worker 0's back to finish the schedule.
  ThreadPool pool(4);
  const TileScheduler sched(64, /*tile_items=*/1, 4);
  std::vector<std::atomic<int>> visits(sched.total_items());
  for (auto& v : visits) v.store(0);
  const TileSchedulerStats stats =
      sched.run(&pool, [&](std::size_t, const TileRange& t) {
        if (sched.home_worker(t.index) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        for (std::size_t i = t.lo; i < t.hi; ++i) visits[i].fetch_add(1);
      });
  EXPECT_EQ(stats.tiles_executed, sched.tile_count());
  for (std::size_t i = 0; i < sched.total_items(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "item " << i;
  }
  EXPECT_GE(stats.steals, 1u);
  EXPECT_GE(stats.tiles_stolen, stats.steals);
}

// ---- determinism of the sharded sweep -------------------------------------

rsa::WeakCorpus sweep_corpus() {
  rsa::CorpusSpec spec;
  spec.count = 96;
  spec.modulus_bits = 128;
  spec.weak_pairs = 3;
  spec.seed = 77;
  return rsa::generate_corpus(spec);
}

void expect_same_simt(const SimtStats& a, const SimtStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.warp_rounds, b.warp_rounds);
  EXPECT_EQ(a.lane_iterations, b.lane_iterations);
  EXPECT_EQ(a.branch_slots, b.branch_slots);
  EXPECT_EQ(a.divergent_warp_rounds, b.divergent_warp_rounds);
  EXPECT_EQ(a.active_lane_slots, b.active_lane_slots);
  EXPECT_EQ(a.lane_slots, b.lane_slots);
  EXPECT_EQ(a.gcd.iterations, b.gcd.iterations);
  EXPECT_EQ(a.gcd.swaps, b.gcd.swaps);
  EXPECT_EQ(a.gcd.divisions, b.gcd.divisions);
  EXPECT_EQ(a.gcd.approx_cases, b.gcd.approx_cases);
}

void expect_same_hits(const std::vector<FactorHit>& a,
                      const std::vector<FactorHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].i, b[k].i);
    EXPECT_EQ(a[k].j, b[k].j);
    EXPECT_EQ(a[k].factor, b[k].factor);
    EXPECT_EQ(a[k].full_modulus, b[k].full_modulus);
  }
}

std::map<std::string, std::uint64_t> counter_map(
    const obs::MetricsRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : registry.snapshot().counters) out[c.name] = c.value;
  return out;
}

TEST(ShardedSweepTest, BitIdenticalAcrossWorkersTilesAndBackends) {
  const rsa::WeakCorpus corpus = sweep_corpus();
  // The default (Divsteps) and the paper's Approximate Euclidean, whose
  // swap, division and case counters the comparison also covers.
  for (const auto [engine, variant] :
       {std::pair{Engine::kStaged, gcd::Variant::kDivsteps},
        std::pair{Engine::kVector, gcd::Variant::kDivsteps},
        std::pair{Engine::kStaged, gcd::Variant::kApproximate},
        std::pair{Engine::kVector, gcd::Variant::kApproximate}}) {
    AllPairsConfig ref_cfg;
    ref_cfg.group_size = 16;
    ref_cfg.engine = engine;
    ref_cfg.variant = variant;
    ref_cfg.pool_threads = 1;
    obs::MetricsRegistry ref_registry;
    ref_cfg.metrics = &ref_registry;
    const AllPairsResult ref = all_pairs_gcd(corpus.moduli, ref_cfg);
    ASSERT_GE(ref.hits.size(), 3u);

    for (const std::size_t workers : {2u, 4u}) {
      for (const std::size_t tile_blocks : {0u, 1u, 5u}) {
        SCOPED_TRACE(std::string("engine=") + to_string(engine) +
                     " variant=" + to_string(variant) +
                     " workers=" + std::to_string(workers) +
                     " tile_blocks=" + std::to_string(tile_blocks));
        AllPairsConfig cfg = ref_cfg;
        cfg.pool_threads = workers;
        cfg.tile_blocks = tile_blocks;
        obs::MetricsRegistry registry;
        cfg.metrics = &registry;
        const AllPairsResult sharded = all_pairs_gcd(corpus.moduli, cfg);
        expect_same_hits(ref.hits, sharded.hits);
        EXPECT_EQ(ref.pairs_tested, sharded.pairs_tested);
        EXPECT_EQ(ref.blocks_run, sharded.blocks_run);
        expect_same_simt(ref.simt, sharded.simt);
        EXPECT_EQ(ref.scalar.iterations, sharded.scalar.iterations);
        // The full telemetry story — every scan_*/simt_*/gcd_* counter the
        // sweep feeds — must match the single-worker run value for value.
        EXPECT_EQ(counter_map(ref_registry), counter_map(registry));
      }
    }
  }
}

TEST(ShardedSweepTest, HitsMatchTheGmpOracle) {
  const rsa::WeakCorpus corpus = sweep_corpus();
  AllPairsConfig cfg;
  cfg.group_size = 16;
  cfg.pool_threads = 4;
  cfg.tile_blocks = 2;
  const AllPairsResult result = all_pairs_gcd(corpus.moduli, cfg);
  ASSERT_GE(result.hits.size(), 3u);
  for (const FactorHit& hit : result.hits) {
    EXPECT_EQ(hit.factor, test::gmp_gcd(corpus.moduli[hit.i],
                                        corpus.moduli[hit.j]))
        << "pair (" << hit.i << ", " << hit.j << ")";
  }
}

TEST(ShardedSweepTest, ProbeIncrementalBitIdenticalAcrossWorkersAndTiles) {
  const rsa::WeakCorpus corpus = sweep_corpus();
  // A candidate that shares a prime with a corpus member: one of the planted
  // weak moduli probed against the rest of the corpus.
  const BigInt candidate = corpus.moduli[corpus.weak[0].first];
  std::vector<BigInt> rest;
  for (std::size_t i = 0; i < corpus.moduli.size(); ++i) {
    if (i != corpus.weak[0].first) rest.push_back(corpus.moduli[i]);
  }

  for (const auto variant :
       {gcd::Variant::kDivsteps, gcd::Variant::kApproximate}) {
    AllPairsConfig ref_cfg;
    ref_cfg.group_size = 16;
    ref_cfg.pool_threads = 1;
    ref_cfg.variant = variant;
    ProbeStats ref_stats;
    const auto ref = probe_incremental(candidate, rest, ref_cfg, &ref_stats);
    ASSERT_FALSE(ref.empty());

    for (const std::size_t workers : {2u, 4u}) {
      for (const std::size_t tile_blocks : {0u, 1u, 3u}) {
        SCOPED_TRACE(std::string("variant=") + to_string(variant) +
                     " workers=" + std::to_string(workers) +
                     " tile_blocks=" + std::to_string(tile_blocks));
        AllPairsConfig cfg = ref_cfg;
        cfg.pool_threads = workers;
        cfg.tile_blocks = tile_blocks;
        ProbeStats stats;
        const auto hits = probe_incremental(candidate, rest, cfg, &stats);
        ASSERT_EQ(ref.size(), hits.size());
        for (std::size_t k = 0; k < hits.size(); ++k) {
          EXPECT_EQ(ref[k].corpus_index, hits[k].corpus_index);
          EXPECT_EQ(ref[k].factor, hits[k].factor);
          EXPECT_EQ(ref[k].full_modulus, hits[k].full_modulus);
          EXPECT_EQ(hits[k].factor,
                    test::gmp_gcd(candidate, rest[hits[k].corpus_index]));
        }
        EXPECT_EQ(ref_stats.pairs_tested, stats.pairs_tested);
        expect_same_simt(ref_stats.simt, stats.simt);
      }
    }
  }
}

TEST(ShardedSweepTest, ScalarEngineShardsBitIdenticallyToo) {
  const rsa::WeakCorpus corpus = sweep_corpus();
  AllPairsConfig ref_cfg;
  ref_cfg.engine = Engine::kScalar;
  ref_cfg.group_size = 16;
  ref_cfg.pool_threads = 1;
  const AllPairsResult ref = all_pairs_gcd(corpus.moduli, ref_cfg);
  ASSERT_GE(ref.hits.size(), 3u);
  for (const std::size_t workers : {2u, 4u}) {
    AllPairsConfig cfg = ref_cfg;
    cfg.pool_threads = workers;
    const AllPairsResult sharded = all_pairs_gcd(corpus.moduli, cfg);
    expect_same_hits(ref.hits, sharded.hits);
    EXPECT_EQ(ref.pairs_tested, sharded.pairs_tested);
    EXPECT_EQ(ref.scalar.iterations, sharded.scalar.iterations);
    EXPECT_EQ(ref.scalar.swaps, sharded.scalar.swaps);
  }
}

}  // namespace
}  // namespace bulkgcd::bulk
