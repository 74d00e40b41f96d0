// perfbench — the benchmark binary behind perfbench/run.py.
//
//   perfbench gen --workload W --seed N --seconds S [--smoke] --out DIR
//       write the workload's seeded inputs into DIR (untimed)
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --inputs DIR
//                 --work DIR [--smoke] [--inject-fault] [--trace-out FILE]
//       measure; prints the environment, human-readable figures, and as the
//       last line one JSON object {correct, attempted, failed, metrics}.
//       Exit 0 only when every correctness check passed.
//
// Workloads: allpairs_sweep, batch_tree, intake_stream.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "bulk/build_info.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; a run must report each one.
constexpr MetricSpec kEndToEnd[] = {
    {"pairs_per_s", "pairs/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kLayers[] = {
    {"rsa.load_s", "s"},
    {"rsa.digest_s", "s"},
    {"mp.mul_top_ms", "ms"},
    {"mp.mod_top_ms", "ms"},
    {"batchgcd.product_s", "s"},
    {"batchgcd.remainder_s", "s"},
    {"batchgcd.remainder_max_level_s", "s"},
    {"batchgcd.gcds_s", "s"},
    {"batchgcd.remainder_share", "fraction"},
    {"batchgcd.journal_mb", "MB"},
    {"gcd.iters_per_pair", "iters"},
    {"gcd.divisions_per_iter", "1/iter"},
    {"gcd.beta_nonzero", "1/iter"},
    {"bulk.pairs_per_s_1w", "pairs/s"},
    {"bulk.ns_per_lane_iter", "ns"},
    {"bulk.model_words_per_s", "words/s"},
    {"bulk.scaling_eff", "fraction"},
    {"bulk.serialization_factor", "ratio"},
    {"bulk.lane_utilization", "fraction"},
    {"bulk.probe_ms", "ms"},
    {"bulk.stage_append_us", "us"},
    {"scan.driver_overhead_frac", "fraction"},
    {"scan.worker_busy_frac", "fraction"},
    {"scan.chunks", "count"},
    {"scan.commit_gap_ms_max", "ms"},
    {"svc.parse_mb_per_s", "MB/s"},
    {"svc.submit_us_p50", "us"},
    {"svc.submit_us_p99", "us"},
    {"svc.queue_wait_ms_p50", "ms"},
    {"svc.probe_fold_ms_p50", "ms"},
    {"svc.arrival_ms_p99", "ms"},
    {"svc.batch_keys_mean", "keys"},
    {"svc.duplicates", "count"},
    {"svc.rejected", "count"},
    {"svc.shed", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.metrics_overhead_pct", "%"},
    {"obs.metrics_overhead_spread_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --seconds S "
               "[--smoke] --out DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR --work DIR [--smoke] "
               "[--inject-fault] [--trace-out FILE]\n");
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Orders `got` as `specs` and checks every spec is present with its unit
/// and a finite value; returns false (and says why) otherwise.
template <std::size_t N>
bool conform(std::vector<Metric>& got, const MetricSpec (&specs)[N]) {
  std::vector<Metric> out;
  bool ok = true;
  for (const auto& spec : specs) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const Metric& m) {
      return m.name == spec.name;
    });
    if (it == got.end() || it->unit != spec.unit || !std::isfinite(it->value)) {
      std::printf("METRIC MISSING OR INVALID: %s\n", spec.name);
      ok = false;
      continue;
    }
    out.push_back(*it);
  }
  got = std::move(out);
  return ok;
}

void print_environment(const Options& o) {
  const auto info = bulkgcd::bulk::query_build_info();
  std::string legs;
  for (const auto& leg : info.compiled_backends) {
    legs += (legs.empty() ? "" : ",") + leg;
  }
  std::printf("env: nproc=%u workers=%zu backend=%s compiled=%s limb_bits=%d "
              "compiler=\"%s\" build=%s version=%s\n",
              std::thread::hardware_concurrency(), o.workers,
              info.active_backend.c_str(), legs.c_str(), info.limb_bits,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, info.version.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
              int(o.trace), o.smoke ? "smoke" : "full");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Options o;
  fs::path out_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--inputs") {
      o.inputs = value();
    } else if (arg == "--work") {
      o.work = value();
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--inject-fault") {
      o.inject_fault = true;
    } else {
      return usage();
    }
  }
  if (o.workload != "allpairs_sweep" && o.workload != "batch_tree" &&
      o.workload != "intake_stream") {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  o.sizes = sizes_for(o.smoke);
  o.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);

  try {
    if (command == "gen") {
      if (out_dir.empty()) return usage();
      generate_inputs(o, out_dir);
      return 0;
    }
    if (command != "run" || o.inputs.empty() || o.work.empty()) return usage();
    fs::create_directories(o.work);
    print_environment(o);

    Report r;
    if (o.workload == "allpairs_sweep") {
      run_sweep_workload(o, r);
    } else if (o.workload == "batch_tree") {
      run_tree_workload(o, r);
    } else {
      run_intake_workload(o, r);
    }
    if (!o.trace) r.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
    for (const auto& line : r.notes) std::printf("%s\n", line.c_str());
    if (o.trace && !o.trace_out.empty()) r.spans.write_chrome_json(o.trace_out);

    auto& metrics = o.trace ? r.layers : r.end_to_end;
    const bool complete =
        o.trace ? conform(metrics, kLayers) : conform(metrics, kEndToEnd);
    for (const auto& m : metrics) {
      std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const double error_rate =
        double(r.gate.failed()) / double(std::max<std::uint64_t>(1, r.gate.attempted()));
    std::printf("error_rate = %.6g fraction (%llu failed of %llu checks)\n",
                error_rate, (unsigned long long)r.gate.failed(),
                (unsigned long long)r.gate.attempted());

    const bool correct =
        complete && r.gate.failed() == 0 && r.gate.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)r.gate.attempted(),
                (unsigned long long)r.gate.failed());
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k ? ", " : "", metrics[k].name.c_str(), metrics[k].value,
                  metrics[k].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
