// A/B benchmark for the all-pairs sweep engines over the staged corpus
// panels: the lane-serial staged engine versus the SIMD vector engine.
// Prints a table and writes BENCH_allpairs.json so CI can archive the perf
// trajectory of the all-pairs hot path.
//
// Defaults match the acceptance setup: 1024 × 512-bit moduli, group size 64,
// Approximate Euclidean with early termination. Scale with
//   BULKGCD_BENCH_MODULI        — corpus size (default 1024)
//   BULKGCD_BENCH_STAGING_BITS  — modulus size (default 512)
//   BULKGCD_BENCH_REPS          — sweep repetitions, best-of (default 3)
//
// A further measurement re-runs the staged sweep with a live MetricsRegistry
// attached (docs/OBSERVABILITY.md) and reports the instrumentation overhead;
// set BULKGCD_BENCH_ASSERT_OVERHEAD to make an overhead above 2% a failure
// (CI quick-bench uses this as the telemetry-cost regression gate).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "bulk/allpairs.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "obs/metrics.hpp"

namespace {

struct SweepSample {
  double seconds = 0.0;
  double pairs_per_second = 0.0;
  double us_per_gcd = 0.0;
  std::uint64_t pairs = 0;
  std::size_t hits = 0;
};

SweepSample sweep_once(std::span<const bulkgcd::mp::BigInt> moduli,
                       bulkgcd::bulk::Engine engine,
                       bulkgcd::obs::MetricsRegistry* metrics = nullptr,
                       std::size_t pool_threads = 0) {
  bulkgcd::bulk::AllPairsConfig config;
  config.variant = bulkgcd::gcd::Variant::kApproximate;  // the JSON's label
  config.engine = engine;
  config.metrics = metrics;
  config.pool_threads = pool_threads;
  const auto result = bulkgcd::bulk::all_pairs_gcd(moduli, config);
  SweepSample s;
  s.seconds = result.seconds;
  s.pairs = result.pairs_tested;
  s.pairs_per_second =
      result.seconds > 0 ? double(result.pairs_tested) / result.seconds : 0.0;
  s.us_per_gcd = result.micros_per_gcd();
  s.hits = result.hits.size();
  return s;
}

void take_best(SweepSample& best, const SweepSample& sample) {
  if (best.seconds == 0.0 || sample.seconds < best.seconds) best = sample;
}

SweepSample measure(std::span<const bulkgcd::mp::BigInt> moduli,
                    bulkgcd::bulk::Engine engine, std::size_t reps) {
  SweepSample best;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    take_best(best, sweep_once(moduli, engine));
  }
  return best;
}

void put_sample(std::string& json, const char* key, const SweepSample& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"seconds\": %.6f, \"pairs_per_second\": %.1f, "
                "\"us_per_gcd\": %.4f, \"pairs\": %llu, \"hits\": %zu}",
                key, s.seconds, s.pairs_per_second, s.us_per_gcd,
                (unsigned long long)s.pairs, s.hits);
  json += buf;
}

}  // namespace

int main() {
  using namespace bulkgcd;

  const std::size_t m = bench::env_size("BULKGCD_BENCH_MODULI", 1024);
  const std::size_t bits = bench::env_size("BULKGCD_BENCH_STAGING_BITS", 512);
  const std::size_t reps = bench::env_size("BULKGCD_BENCH_REPS", 3);

  bench::banner("bench_staging — staged vs vector engine over corpus panels",
                "Section VI block sweep; staging added on top of the paper");
  std::printf("corpus: %zu moduli x %zu bits, group size 64, approximate "
              "euclidean, early terminate, best of %zu\n\n",
              m, bits, reps);

  const auto& moduli = bench::corpus(bits, m);

  // Pin each row to its engine explicitly so the comparison is meaningful
  // regardless of what auto-dispatch would pick on this machine.
  const SweepSample vectorized = measure(moduli, bulk::Engine::kVector, reps);
  // ISA leg of the vector row (portable everywhere, avx2 or avx512 on
  // capable x86-64)
  // — recorded so archived numbers are comparable across machines.
  const char* isa_leg = to_string(bulk::detect_vec_isa());
  // Interleave the plain and instrumented staged sweeps rep-by-rep so slow
  // thermal / scheduler drift hits both paths equally; best-of damps the
  // rest. Measuring them back-to-back instead makes the overhead figure
  // track whatever the machine was doing between the two batches.
  obs::MetricsRegistry registry;
  SweepSample staged, instrumented;
  auto interleaved_round = [&] {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      take_best(staged, sweep_once(moduli, bulk::Engine::kStaged));
      take_best(instrumented,
                sweep_once(moduli, bulk::Engine::kStaged, &registry));
    }
  };
  auto overhead = [&] {
    return staged.pairs_per_second > 0
               ? (1.0 -
                  instrumented.pairs_per_second / staged.pairs_per_second) *
                     100.0
               : 0.0;
  };
  interleaved_round();
  const bool assert_overhead =
      std::getenv("BULKGCD_BENCH_ASSERT_OVERHEAD") != nullptr;
  // Under the CI gate, a spurious >2% reading (scheduler noise on a shared
  // runner) gets more best-of rounds to converge before counting as real.
  for (int round = 0; assert_overhead && overhead() > 2.0 && round < 3;
       ++round) {
    interleaved_round();
  }
  const double overhead_pct = overhead();

  bench::Table table({"path", "pairs", "seconds", "pairs/s", "us/gcd"});
  table.add_row({"staged (panels + lane-serial)", bench::fmt_u(staged.pairs),
                 bench::fmt(staged.seconds, 3),
                 bench::fmt(staged.pairs_per_second, 0),
                 bench::fmt(staged.us_per_gcd, 3)});
  table.add_row({"staged + metrics registry",
                 bench::fmt_u(instrumented.pairs),
                 bench::fmt(instrumented.seconds, 3),
                 bench::fmt(instrumented.pairs_per_second, 0),
                 bench::fmt(instrumented.us_per_gcd, 3)});
  table.add_row({std::string("vector (panels + SIMD warp engine, ") + isa_leg +
                     ")",
                 bench::fmt_u(vectorized.pairs),
                 bench::fmt(vectorized.seconds, 3),
                 bench::fmt(vectorized.pairs_per_second, 0),
                 bench::fmt(vectorized.us_per_gcd, 3)});
  table.print();
  const double vector_speedup =
      staged.pairs_per_second > 0
          ? vectorized.pairs_per_second / staged.pairs_per_second
          : 0.0;
  std::printf("\nvector / staged speedup: %.2fx (%s)\n", vector_speedup,
              isa_leg);
  std::printf("telemetry overhead on the staged path: %.2f%%\n", overhead_pct);
  if (instrumented.pairs != staged.pairs || instrumented.hits != staged.hits ||
      vectorized.pairs != staged.pairs || vectorized.hits != staged.hits) {
    std::printf("!! sweeps disagree on pairs/hits\n");
    return 1;
  }
  if (assert_overhead && overhead_pct > 2.0) {
    std::printf("!! telemetry overhead %.2f%% exceeds the 2%% budget\n",
                overhead_pct);
    return 1;
  }

  // ---- scaling mode: the sharded tile sweep at 1/2/4/8 workers -----------
  // Each worker count runs a private pool (pool_threads = N, 1 = inline) on
  // the vector engine; pairs and hits must be bit-identical at every count
  // (the scheduler only moves tiles between workers). Skip with
  // BULKGCD_BENCH_SCALING=0; override the sweep points with
  // BULKGCD_BENCH_SCALING_WORKERS (comma-separated). pairs/s per worker
  // count is archived under the "scaling" JSON object together with the
  // machine's core count — read multi-worker numbers from a 1-core runner
  // accordingly.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  bool run_scaling = true;
  if (const char* env = std::getenv("BULKGCD_BENCH_SCALING")) {
    run_scaling = std::string(env) != "0";
  }
  if (const char* env = std::getenv("BULKGCD_BENCH_SCALING_WORKERS")) {
    worker_counts.clear();
    for (const char* p = env; *p != '\0';) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(p, &end, 10);
      if (end == p) break;
      if (v > 0) worker_counts.push_back(std::size_t(v));
      p = *end == ',' ? end + 1 : end;
    }
  }
  std::vector<SweepSample> scaling(worker_counts.size());
  if (run_scaling && !worker_counts.empty()) {
    std::printf("\nscaling (vector engine, private pool per worker count, "
                "%u hardware core%s):\n", cores, cores == 1 ? "" : "s");
    bench::Table scale_table({"workers", "pairs", "seconds", "pairs/s",
                              "speedup vs 1"});
    for (std::size_t k = 0; k < worker_counts.size(); ++k) {
      SweepSample best;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        take_best(best, sweep_once(moduli, bulk::Engine::kVector, nullptr,
                                   worker_counts[k]));
      }
      scaling[k] = best;
      const double rel = scaling[0].pairs_per_second > 0
                             ? best.pairs_per_second /
                                   scaling[0].pairs_per_second
                             : 0.0;
      scale_table.add_row({bench::fmt_u(worker_counts[k]),
                           bench::fmt_u(best.pairs),
                           bench::fmt(best.seconds, 3),
                           bench::fmt(best.pairs_per_second, 0),
                           bench::fmt(rel, 2) + "x"});
      if (best.pairs != staged.pairs || best.hits != staged.hits) {
        std::printf("!! scaling sweep at %zu workers disagrees on "
                    "pairs/hits\n", worker_counts[k]);
        return 1;
      }
    }
    scale_table.print();
  }

  std::string json = "{\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"benchmark\": \"bench_staging\",\n  \"moduli\": %zu,\n"
                  "  \"modulus_bits\": %zu,\n  \"group_size\": 64,\n"
                  "  \"variant\": \"approximate\",\n  \"repetitions\": %zu,\n",
                  m, bits, reps);
    json += buf;
  }
  put_sample(json, "staged", staged);
  json += ",\n";
  put_sample(json, "staged_instrumented", instrumented);
  json += ",\n";
  put_sample(json, "vector", vectorized);
  if (run_scaling && !worker_counts.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\n  \"scaling\": {\n    \"cores\": %u",
                  cores);
    json += buf;
    for (std::size_t k = 0; k < worker_counts.size(); ++k) {
      std::string row;
      put_sample(row, (std::string("workers_") +
                       std::to_string(worker_counts[k])).c_str(),
                 scaling[k]);
      json += ",\n  " + row;  // nested rows indent one level deeper
    }
    json += "\n  }";
  }
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"vector_isa\": \"%s\",\n"
                  "  \"vector_speedup\": %.3f,\n"
                  "  \"telemetry_overhead_pct\": %.2f\n}\n",
                  isa_leg, vector_speedup, overhead_pct);
    json += buf;
  }
  std::ofstream out("BENCH_allpairs.json");
  out << json;
  std::printf("wrote BENCH_allpairs.json\n");
  return 0;
}
