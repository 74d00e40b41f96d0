// Extension bench: the paper's pairwise bulk attack vs Bernstein-style batch
// GCD (the fastgcd lineage). Batch GCD does O(m log m) big multiplications
// and divisions; pairwise does m(m-1)/2 cheap GCDs. On a serial machine
// batch GCD wins quickly with corpus size; the paper's contribution is that
// massive GPU parallelism pushes the pairwise approach back into relevance.
//
// This bench sweeps the (corpus size × modulus bits) grid, locates the
// crossover on this machine, and writes BENCH_batchgcd.json so CI can trend
// both attacks (tools/compare_bench.py). The pairwise leg runs single
// threaded — the serial baseline the asymptotic argument is about — while
// the batch tree uses the global pool, exactly as both would be deployed;
// "cores" records how much hardware the tree had.
//
// Environment knobs (laptop defaults; CI quick mode shrinks them):
//   BULKGCD_BENCH_BATCH_SIZES  comma-separated corpus sizes (default
//                              8,16,32,64,128)
//   BULKGCD_BENCH_BATCH_BITS   comma-separated modulus bits (default
//                              512,1024)
//   BULKGCD_BENCH_REPS         best-of repetitions (default 3)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "batchgcd/batchgcd.hpp"
#include "bench_util.hpp"
#include "bulk/allpairs.hpp"
#include "core/timer.hpp"

using namespace bulkgcd;
using bench::Table;

namespace {

std::vector<std::size_t> env_list(const char* name,
                                  std::vector<std::size_t> fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  std::vector<std::size_t> out;
  for (const char* p = value; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) out.push_back(std::size_t(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out.empty() ? fallback : out;
}

}  // namespace

int main() {
  bench::banner("bench_batchgcd_crossover",
                "extension: all-pairs (paper) vs batch GCD (fastgcd baseline)");

  const auto sizes =
      env_list("BULKGCD_BENCH_BATCH_SIZES", {8, 16, 32, 64, 128});
  const auto bits_list = env_list("BULKGCD_BENCH_BATCH_BITS", {512, 1024});
  const std::size_t reps = bench::env_size("BULKGCD_BENCH_REPS", 3);
  const unsigned cores =
      std::max(1u, std::thread::hardware_concurrency());

  Table table({"bits", "moduli m", "pairs", "all-pairs s", "batch s",
               "ap pairs/s", "batch pairs/s", "all-pairs/batch"});
  std::string curve = "  \"curve\": {";
  std::string crossover = "  \"crossover\": {";
  bool first_curve = true, first_cross = true;

  for (const std::size_t bits : bits_list) {
    long crossover_m = -1;
    for (const std::size_t m : sizes) {
      const auto& moduli = bench::corpus(bits, m);
      const double pairs = double(m) * double(m - 1) / 2.0;

      double ap_s = 0.0, batch_s = 0.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        bulk::AllPairsConfig config;
        config.variant = gcd::Variant::kApproximate;  // the paper's sweep
        config.pool_threads = 1;
        Timer ap_timer;
        const auto pairwise = bulk::all_pairs_gcd(moduli, config);
        const double ap = ap_timer.seconds();

        Timer batch_timer;
        const auto batch = batchgcd::batch_gcd(moduli);
        const double bt = batch_timer.seconds();

        if (!batchgcd::weak_indices(batch).empty() ||
            !pairwise.hits.empty()) {
          std::printf("unexpected weak key in clean corpus!\n");
          return 1;
        }
        if (rep == 0 || ap < ap_s) ap_s = ap;
        if (rep == 0 || bt < batch_s) batch_s = bt;
      }
      // Both attacks answer the same question ("which of the m(m-1)/2 pairs
      // share a factor"), so pairs/s is the common throughput currency even
      // though the tree never touches pairs explicitly.
      const double ap_pps = pairs / ap_s;
      const double batch_pps = pairs / batch_s;
      if (crossover_m < 0 && batch_s < ap_s) crossover_m = long(m);

      table.add_row({std::to_string(bits), std::to_string(m),
                     bench::fmt(pairs, 0), bench::fmt(ap_s, 4),
                     bench::fmt(batch_s, 4), bench::fmt(ap_pps, 0),
                     bench::fmt(batch_pps, 0),
                     bench::fmt(ap_s / batch_s, 2)});

      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n    \"bits%zu_m%zu\": {\n"
          "      \"allpairs\": {\"seconds\": %.6f, \"pairs_per_second\": "
          "%.1f, \"pairs\": %.0f},\n"
          "      \"batch\": {\"seconds\": %.6f, \"pairs_per_second\": %.1f, "
          "\"pairs\": %.0f}\n    }",
          first_curve ? "" : ",", bits, m, ap_s, ap_pps, pairs, batch_s,
          batch_pps, pairs);
      curve += buf;
      first_curve = false;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\n    \"bits%zu\": %ld",
                  first_cross ? "" : ",", bits, crossover_m);
    crossover += buf;
    first_cross = false;
    if (crossover_m >= 0) {
      std::printf("crossover at %zu bits: batch GCD beats serial all-pairs "
                  "from m = %ld\n",
                  bits, crossover_m);
    } else {
      std::printf("crossover at %zu bits: not reached in this sweep\n", bits);
    }
  }
  table.print();

  std::string json = "{\n  \"benchmark\": \"bench_batchgcd_crossover\",\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  \"cores\": %u,\n  \"repetitions\": %zu,\n", cores, reps);
    json += buf;
  }
  json += curve + "\n  },\n";
  // First corpus size where the tree beat serial all-pairs (-1 = never in
  // this sweep). Plain numbers, so the trend guard skips them by design.
  json += crossover + "\n  }\n}\n";
  std::ofstream out("BENCH_batchgcd.json");
  out << json;
  std::printf("wrote BENCH_batchgcd.json\n");

  std::printf(
      "\nexpectation: all-pairs cost grows ~m^2, batch GCD ~m log m (with a\n"
      "large constant from huge-number arithmetic); the ratio climbs with m\n"
      "and crosses 1 at moderate corpus sizes — the reason the paper needs a\n"
      "GPU (~100x bulk parallelism) for the pairwise approach to compete at\n"
      "web scale.\n");
  return 0;
}
