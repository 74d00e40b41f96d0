// TraceRecorder tests: ring-overflow drop accounting, cross-thread flow
// stitching, Chrome/NDJSON export shape, the forced-steal scheduler
// timeline, end-to-end scan/intake wiring, and the headline contract —
// hits, statistics, and telemetry counters are bit-identical with tracing
// on or off, for every engine × worker-count combination. The
// multi-threaded cases double as ThreadSanitizer workloads: the seqlock
// rings must stay race-free against a concurrent exporter.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bulk/allpairs.hpp"
#include "bulk/scan_driver.hpp"
#include "bulk/tile_scheduler.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "svc/intake_service.hpp"

namespace bulkgcd::obs {
namespace {

std::uint64_t counter_value(const MetricsRegistry& registry,
                            const std::string& name) {
  for (const auto& c : registry.snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::size_t count_events(const TraceRecorder::TraceSnapshot& snap,
                         const std::string& name,
                         TraceEventKind kind) {
  std::size_t n = 0;
  for (const auto& ev : snap.events) {
    if (ev.kind == kind && snap.names[ev.name_id] == name) ++n;
  }
  return n;
}

TEST(TraceTest, InternIsStableAndIdsAreDense) {
  TraceRecorder rec(16);
  const auto a = rec.intern("alpha");
  const auto b = rec.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.intern("alpha"), a);
  EXPECT_EQ(rec.intern("beta"), b);
  const auto snap = rec.snapshot();
  ASSERT_GT(snap.names.size(), std::max(a, b));
  EXPECT_EQ(snap.names[a], "alpha");
  EXPECT_EQ(snap.names[b], "beta");
}

TEST(TraceTest, FlowIdsAreUniqueAndNonzero) {
  TraceRecorder rec(16);
  std::vector<std::uint64_t> ids(64);
  for (auto& id : ids) id = rec.next_flow_id();
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), 0u);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceTest, RingOverflowDropsOldestWithExactAccounting) {
  MetricsRegistry registry;
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kWritten = 21;
  TraceRecorder rec(kCapacity, &registry);
  const auto id = rec.intern("tick");
  for (std::size_t i = 0; i < kWritten; ++i) rec.instant(id, 0, i);

  EXPECT_EQ(rec.events_recorded(), kWritten);
  EXPECT_EQ(rec.events_dropped(), kWritten - kCapacity);
  EXPECT_EQ(counter_value(registry, "trace_events_recorded_total"), kWritten);
  EXPECT_EQ(counter_value(registry, "trace_events_dropped_total"),
            kWritten - kCapacity);

  // Eviction is oldest-first: exactly the last kCapacity instants survive,
  // in order.
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.events.size(), kCapacity);
  for (std::size_t k = 0; k < kCapacity; ++k) {
    EXPECT_EQ(snap.events[k].args[0], kWritten - kCapacity + k);
  }
  EXPECT_EQ(snap.events_recorded, kWritten);
  EXPECT_EQ(snap.events_dropped, kWritten - kCapacity);
}

TEST(TraceTest, ExactlyFullRingDropsNothing) {
  TraceRecorder rec(4);
  const auto id = rec.intern("tick");
  for (std::size_t i = 0; i < 4; ++i) rec.instant(id, 0, i);
  EXPECT_EQ(rec.events_dropped(), 0u);
  EXPECT_EQ(rec.snapshot().events.size(), 4u);
}

TEST(TraceTest, CrossThreadFlowStitchesOneChainOverTwoRings) {
  TraceRecorder rec(64);
  const auto produce = rec.intern("produce");
  const auto consume = rec.intern("consume");
  const std::uint64_t flow = rec.next_flow_id();

  rec.set_thread_name("producer");
  rec.flow_begin(produce, flow, /*a0=*/7);
  std::thread consumer([&] {
    rec.set_thread_name("consumer");
    rec.flow_end(consume, flow, /*a0=*/7);
  });
  consumer.join();

  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.events[0].flow, flow);
  EXPECT_EQ(snap.events[1].flow, flow);
  // Two distinct rings — the chain genuinely crosses threads.
  EXPECT_NE(snap.events[0].ring_id, snap.events[1].ring_id);
  EXPECT_EQ(snap.events[0].kind, TraceEventKind::kFlowBegin);
  EXPECT_EQ(snap.events[1].kind, TraceEventKind::kFlowEnd);

  // The Chrome export binds the chain with s/f records sharing the id.
  const std::string json = rec.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":" + std::to_string(flow)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"producer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"consumer\""), std::string::npos) << json;
}

TEST(TraceTest, ChromeJsonShapeAndArgLabels) {
  TraceRecorder rec(64);
  const auto steal = rec.intern("steal");
  rec.set_arg_names(steal, "thief", "victim", "tiles");
  rec.set_thread_name("w0");
  rec.instant(steal, 0, 1, 2, 3);
  {
    TraceSpan span(&rec, rec.intern("work"));
    span.set_args(42);
  }
  const std::string json = rec.to_chrome_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"thief\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"victim\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tiles\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;

  const std::string ndjson = rec.to_ndjson();
  // One thread record per ring plus one line per event (trailing newline).
  EXPECT_EQ(std::count(ndjson.begin(), ndjson.end(), '\n'), 3);
  EXPECT_NE(ndjson.find("\"record\":\"thread\""), std::string::npos) << ndjson;
  EXPECT_NE(ndjson.find("\"name\":\"steal\""), std::string::npos) << ndjson;
  EXPECT_NE(ndjson.find("\"ts_ns\":"), std::string::npos) << ndjson;
}

TEST(TraceTest, NullRecorderSpanIsInertAndWriteReportsErrors) {
  {
    TraceSpan span(nullptr, 0);  // must not crash or record anywhere
    span.set_args(1, 2, 3);
    span.set_flow(9);
  }
  TraceRecorder rec(8);
  rec.instant(rec.intern("x"));
  std::string error;
  EXPECT_FALSE(rec.write_chrome_json("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());

  const auto path = std::filesystem::temp_directory_path() /
                    "bulkgcd_trace_test_export.json";
  ASSERT_TRUE(rec.write_chrome_json(path.string(), &error)) << error;
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST(TraceTest, ParallelForRecordingIsRaceFreeAgainstLiveExport) {
  // The TSan leg's workload: many pool threads recording through the seqlock
  // hot path while this thread snapshots and renders concurrently.
  MetricsRegistry registry;
  TraceRecorder rec(128, &registry);
  const auto id = rec.intern("work");
  constexpr std::size_t kRange = 20000;
  ThreadPool pool(8);
  std::thread exporter([&] {
    for (int k = 0; k < 50; ++k) {
      const std::string json = rec.to_chrome_json();
      EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
      std::this_thread::yield();
    }
  });
  pool.parallel_for(0, kRange, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      TraceSpan span(&rec, id);
      span.set_args(i);
    }
  }, /*chunks=*/64);
  exporter.join();
  EXPECT_EQ(rec.events_recorded(), kRange);
  EXPECT_EQ(counter_value(registry, "trace_events_recorded_total"), kRange);
  // Drop accounting stays exact across all rings.
  EXPECT_EQ(rec.events_recorded() - rec.events_dropped(),
            rec.snapshot().events.size());
}

// ---- scheduler / sweep wiring ---------------------------------------------

TEST(TraceSchedulerTest, ForcedStealRecordsInstantAndTileSpans) {
  // Same skewed-load shape as TileSchedulerTest: worker 0's home tiles are
  // slow, so the other workers must steal — deterministically producing at
  // least one steal instant regardless of host core count.
  ThreadPool pool(4);
  const bulk::TileScheduler sched(64, /*tile_items=*/1, 4);
  TraceRecorder rec(4096);
  const auto stats =
      sched.run(&pool,
                [&](std::size_t, const bulk::TileRange& t) {
                  if (sched.home_worker(t.index) == 0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                  }
                },
                &rec);
  ASSERT_GE(stats.steals, 1u);
  const auto snap = rec.snapshot();
  EXPECT_EQ(count_events(snap, "tile", TraceEventKind::kComplete),
            sched.tile_count());
  EXPECT_GE(count_events(snap, "steal", TraceEventKind::kInstant),
            stats.steals);
  EXPECT_EQ(count_events(snap, "worker_done", TraceEventKind::kInstant), 4u);
  // Worker tracks were named for the export.
  std::size_t named = 0;
  for (const auto& t : snap.threads) {
    if (t.name.rfind("worker-", 0) == 0) ++named;
  }
  EXPECT_GE(named, 2u);
}

TEST(TraceSchedulerTest, SerialPathRecordsTileSpansToo) {
  const bulk::TileScheduler sched(8, 1, 1);
  TraceRecorder rec(64);
  sched.run(nullptr, [&](std::size_t, const bulk::TileRange&) {}, &rec);
  const auto snap = rec.snapshot();
  EXPECT_EQ(count_events(snap, "tile", TraceEventKind::kComplete), 8u);
  EXPECT_EQ(count_events(snap, "worker_done", TraceEventKind::kInstant), 1u);
}

rsa::WeakCorpus trace_corpus() {
  rsa::CorpusSpec spec;
  spec.count = 64;
  spec.modulus_bits = 128;
  spec.weak_pairs = 3;
  spec.seed = 4242;
  return rsa::generate_corpus(spec);
}

void expect_same_result(const bulk::AllPairsResult& a,
                        const bulk::AllPairsResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].i, b.hits[k].i);
    EXPECT_EQ(a.hits[k].j, b.hits[k].j);
    EXPECT_EQ(a.hits[k].factor, b.hits[k].factor);
    EXPECT_EQ(a.hits[k].full_modulus, b.hits[k].full_modulus);
  }
  EXPECT_EQ(a.pairs_tested, b.pairs_tested);
  EXPECT_EQ(a.blocks_run, b.blocks_run);
  EXPECT_EQ(a.simt.rounds, b.simt.rounds);
  EXPECT_EQ(a.simt.lane_iterations, b.simt.lane_iterations);
  EXPECT_EQ(a.simt.gcd.iterations, b.simt.gcd.iterations);
  EXPECT_EQ(a.scalar.iterations, b.scalar.iterations);
}

std::map<std::string, std::uint64_t> nontrace_counters(
    const MetricsRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : registry.snapshot().counters) {
    // trace_* counters exist only on the traced run, by design.
    if (c.name.rfind("trace_", 0) == 0) continue;
    out[c.name] = c.value;
  }
  return out;
}

TEST(TraceSweepTest, ResultsBitIdenticalTracingOnOffAcrossBackends) {
  const rsa::WeakCorpus corpus = trace_corpus();
  for (const bulk::Engine engine :
       {bulk::Engine::kStaged, bulk::Engine::kVector}) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE(std::string("engine=") + to_string(engine) +
                   " workers=" + std::to_string(workers));
      bulk::AllPairsConfig off_cfg;
      off_cfg.group_size = 16;
      off_cfg.engine = engine;
      off_cfg.pool_threads = workers;
      MetricsRegistry off_registry;
      off_cfg.metrics = &off_registry;
      const auto off = bulk::all_pairs_gcd(corpus.moduli, off_cfg);
      ASSERT_GE(off.hits.size(), 3u);

      bulk::AllPairsConfig on_cfg = off_cfg;
      MetricsRegistry on_registry;
      on_cfg.metrics = &on_registry;
      TraceRecorder rec(1 << 16, &on_registry);
      on_cfg.trace = &rec;
      const auto on = bulk::all_pairs_gcd(corpus.moduli, on_cfg);

      expect_same_result(off, on);
      EXPECT_EQ(nontrace_counters(off_registry),
                nontrace_counters(on_registry));
      // The traced run actually recorded the sweep's phase spans.
      const auto snap = rec.snapshot();
      EXPECT_GT(count_events(snap, "tile", TraceEventKind::kComplete), 0u);
      EXPECT_GT(count_events(snap, "lane_exec", TraceEventKind::kComplete),
                0u);
    }
  }
}

// ---- resumable scan wiring ------------------------------------------------

class TraceScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("bulkgcd_trace_scan_" +
             std::to_string(
                 std::chrono::steady_clock::now().time_since_epoch().count()) +
             ".ckpt");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(TraceScanTest, DriverRecordsChunksCommitsAndFsyncs) {
  const rsa::WeakCorpus corpus = trace_corpus();

  bulk::ScanConfig off_cfg;
  off_cfg.chunk_blocks = 2;
  off_cfg.pairs.group_size = 16;
  off_cfg.pairs.pool_threads = 4;
  const auto off = bulk::run_resumable_scan(corpus.moduli, off_cfg);

  bulk::ScanConfig on_cfg = off_cfg;
  on_cfg.checkpoint = path_;
  TraceRecorder rec(1 << 16);
  on_cfg.pairs.trace = &rec;
  const auto on = bulk::run_resumable_scan(corpus.moduli, on_cfg);

  // Tracing does not perturb the scan's results.
  expect_same_result(off.result, on.result);
  ASSERT_TRUE(on.complete);

  const auto snap = rec.snapshot();
  EXPECT_EQ(count_events(snap, "chunk", TraceEventKind::kComplete),
            on.chunks_total);
  EXPECT_EQ(count_events(snap, "commit", TraceEventKind::kInstant),
            on.chunks_total);
  EXPECT_GT(count_events(snap, "journal_fsync", TraceEventKind::kComplete),
            0u);
  bool driver_named = false;
  for (const auto& t : snap.threads) driver_named |= t.name == "driver";
  EXPECT_TRUE(driver_named);
}

// ---- intake flow wiring ---------------------------------------------------

TEST(TraceIntakeTest, ArrivalFlowChainSpansSubmitterAndProbeWorker) {
  rsa::CorpusSpec spec;
  spec.count = 10;
  spec.modulus_bits = 96;
  spec.weak_pairs = 2;
  spec.seed = 515;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  MetricsRegistry registry;
  TraceRecorder rec(4096, &registry);
  svc::IntakeServiceConfig config;
  config.probe.pool_threads = 1;
  config.probe.metrics = &registry;
  config.probe.trace = &rec;
  svc::IntakeService service({}, std::move(config));

  std::vector<std::uint64_t> flows;
  for (const auto& n : corpus.moduli) {
    const std::uint64_t flow = rec.next_flow_id();
    ASSERT_EQ(service.submit(n, flow), svc::Admission::kAdmitted);
    flows.push_back(flow);
  }
  service.stop();

  const auto snap = rec.snapshot();
  // Every arrival's chain reaches the probe worker: a queued step and a
  // fold end carrying the flow minted at submission time.
  for (const std::uint64_t flow : flows) {
    bool queued = false, folded = false, probed = false;
    for (const auto& ev : snap.events) {
      if (ev.flow != flow) continue;
      const std::string& name = snap.names[ev.name_id];
      queued |= name == "queued" && ev.kind == TraceEventKind::kFlowStep;
      folded |= name == "fold" && ev.kind == TraceEventKind::kFlowEnd;
      probed |= name == "probe_key" && ev.kind == TraceEventKind::kComplete;
    }
    EXPECT_TRUE(queued) << "flow " << flow;
    EXPECT_TRUE(folded) << "flow " << flow;
    EXPECT_TRUE(probed) << "flow " << flow;
  }
  bool worker_named = false;
  for (const auto& t : snap.threads) {
    worker_named |= t.name == "intake-probe";
  }
  EXPECT_TRUE(worker_named);
}

TEST(TraceIntakeTest, TracedAndUntracedStreamsFoldIdenticalCorpora) {
  rsa::CorpusSpec spec;
  spec.count = 24;
  spec.modulus_bits = 96;
  spec.weak_pairs = 2;
  spec.seed = 909;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  auto run = [&](TraceRecorder* rec) {
    svc::IntakeServiceConfig config;
    config.probe.pool_threads = 1;
    config.probe.trace = rec;
    svc::IntakeService service({}, std::move(config));
    for (const auto& n : corpus.moduli) {
      service.submit(n, rec ? rec->next_flow_id() : 0);
    }
    service.stop();
    return std::pair(service.hits(), service.stats());
  };

  TraceRecorder rec(1 << 14);
  const auto [off_hits, off_stats] = run(nullptr);
  const auto [on_hits, on_stats] = run(&rec);

  ASSERT_EQ(off_hits.size(), on_hits.size());
  ASSERT_GE(off_hits.size(), 2u);
  for (std::size_t k = 0; k < off_hits.size(); ++k) {
    EXPECT_EQ(off_hits[k].i, on_hits[k].i);
    EXPECT_EQ(off_hits[k].j, on_hits[k].j);
    EXPECT_EQ(off_hits[k].factor, on_hits[k].factor);
  }
  EXPECT_EQ(off_stats.probed, on_stats.probed);
  EXPECT_EQ(off_stats.pairs, on_stats.pairs);
  EXPECT_EQ(off_stats.hits, on_stats.hits);
}

}  // namespace
}  // namespace bulkgcd::obs
