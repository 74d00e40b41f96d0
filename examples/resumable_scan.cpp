// Resumable all-pairs scan CLI — the production shape of the paper's attack:
// load (or synthesize) a moduli corpus, sweep every pair with checkpointing,
// live progress, and crash recovery. Kill it mid-run and start it again with
// the same arguments: it picks up from the last committed chunk.
//
//   $ ./resumable_scan --generate 256 512 4        # demo corpus, then scan
//   $ ./resumable_scan harvested.keys              # scan a keystore file
//
// Options:
//   --checkpoint <path>    checkpoint journal (default: <corpus>.ckpt)
//   --chunk-blocks <n>     blocks per durable work unit (default 64)
//   --group-size <r>       moduli per block group (default 64)
//   --engine auto|vector|staged|scalar  bulk engine (default auto)
//   --threads <n>          worker threads (default: hardware; 1 = inline)
//   --tile-blocks <n>      blocks per work-stealing scheduler tile
//                          (default 0 = auto; purely a scheduling knob —
//                          results are bit-identical for any value)
//   --stop-after <n>       commit at most n chunks then exit 3 (time-sliced
//                          mode; rerun to continue)
//   --discard-checkpoint   start fresh if the checkpoint belongs to a
//                          different corpus or scan geometry
//   --generate <count> <bits> <weak> synthesize a corpus into corpus.keys
//   --metrics-out <file>   append NDJSON telemetry snapshots (one JSON
//                          object per line; schema in docs/metrics_schema.json)
//   --metrics-interval <s> seconds between periodic snapshots (default 0:
//                          a single final snapshot on exit)
//   --trace-out <file>     record a per-thread scan timeline (chunk spans,
//                          tile spans, steals, panel-load/lane-exec phases,
//                          journal fsyncs, commits) and write it as Chrome
//                          trace_event JSON — load in Perfetto or
//                          chrome://tracing, or feed tools/trace_report.py
//
// Value flags accept both `--flag value` and `--flag=value`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "bulkgcd.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [<moduli-file>] [--generate <count> <bits> <weak>]\n"
               "          [--checkpoint <path>] [--chunk-blocks <n>]\n"
               "          [--group-size <r>] [--engine auto|vector|staged|scalar]\n"
               "          [--threads <n>] [--tile-blocks <n>]\n"
               "          [--stop-after <n>]\n"
               "          [--discard-checkpoint]\n"
               "          [--metrics-out <file>] [--metrics-interval <sec>]\n"
               "          [--trace-out <file>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bulkgcd;

  std::string corpus_path;
  std::string checkpoint_path;
  std::string metrics_path;
  std::string trace_path;
  double metrics_interval = 0.0;
  bulk::ScanConfig config;
  std::size_t gen_count = 0, gen_bits = 512, gen_weak = 4;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both `--flag value` and `--flag=value`.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](const char* what) -> std::string {
      if (has_inline) {
        has_inline = false;
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_u64 = [&](const char* what) {
      return std::strtoull(next(what).c_str(), nullptr, 10);
    };
    if (arg == "--generate") {
      gen_count = next_u64("--generate");
      gen_bits = next_u64("--generate bits");
      gen_weak = next_u64("--generate weak");
    } else if (arg == "--checkpoint") {
      checkpoint_path = next("--checkpoint");
    } else if (arg == "--chunk-blocks") {
      config.chunk_blocks = next_u64("--chunk-blocks");
    } else if (arg == "--group-size") {
      config.pairs.group_size = next_u64("--group-size");
    } else if (arg == "--engine") {
      const auto engine = bulk::parse_engine(next("--engine"));
      if (!engine) return usage(argv[0]);
      config.pairs.engine = *engine;
    } else if (arg == "--threads") {
      config.pairs.pool_threads = next_u64("--threads");
    } else if (arg == "--tile-blocks") {
      config.pairs.tile_blocks = next_u64("--tile-blocks");
    } else if (arg == "--stop-after") {
      config.stop_after_chunks = next_u64("--stop-after");
    } else if (arg == "--metrics-out") {
      metrics_path = next("--metrics-out");
    } else if (arg == "--metrics-interval") {
      metrics_interval = std::strtod(next("--metrics-interval").c_str(),
                                     nullptr);
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--discard-checkpoint") {
      config.discard_mismatched_checkpoint = true;
    } else if (!arg.empty() && arg[0] != '-') {
      corpus_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (corpus_path.empty() && gen_count == 0) return usage(argv[0]);

  // One registry for the whole run; the null-registry path (no --metrics-out)
  // leaves config.pairs.metrics null and the scan hot loop instrument-free.
  std::optional<obs::MetricsRegistry> registry;
  if (!metrics_path.empty()) {
    registry.emplace();
    config.pairs.metrics = &*registry;
  }

  std::printf("%s\n",
              bulk::build_info_line(bulk::query_build_info()).c_str());

  // Tracing is opt-in like metrics: no --trace-out, no recorder, and every
  // trace site in the scan stays on the null-recorder branch.
  std::optional<obs::TraceRecorder> tracer;
  if (!trace_path.empty()) {
    tracer.emplace(/*ring_capacity=*/262144,
                   registry ? &*registry : nullptr);
    config.pairs.trace = &*tracer;
    std::printf("tracing -> %s\n", trace_path.c_str());
  }

  std::vector<mp::BigInt> moduli;
  if (gen_count > 0) {
    if (corpus_path.empty()) corpus_path = "corpus.keys";
    rsa::CorpusSpec spec;
    spec.count = gen_count;
    spec.modulus_bits = gen_bits;
    spec.weak_pairs = gen_weak;
    spec.seed = 20150525;  // the paper's conference date, for reproducibility
    std::printf("generating %zu %zu-bit moduli (%zu weak pairs) -> %s\n",
                gen_count, gen_bits, gen_weak, corpus_path.c_str());
    moduli = rsa::generate_corpus(spec).moduli;
    rsa::save_moduli(corpus_path, moduli, "resumable_scan demo corpus");
  } else {
    try {
      moduli = rsa::load_moduli(corpus_path,
                                registry ? &*registry : nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::printf("loaded %zu moduli from %s\n", moduli.size(),
                corpus_path.c_str());
  }

  if (checkpoint_path.empty()) checkpoint_path = corpus_path + ".ckpt";
  config.checkpoint = checkpoint_path;

  bulk::StreamProgressSink sink;
  config.sink = &sink;
  config.progress_every = 4;

  std::printf("corpus digest %016llx, checkpoint %s\n",
              (unsigned long long)rsa::corpus_digest(moduli),
              checkpoint_path.c_str());

  std::optional<obs::TelemetryEmitter> emitter;
  if (registry) {
    try {
      emitter.emplace(*registry, metrics_path, metrics_interval);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::printf("telemetry -> %s (interval %.1fs)\n", metrics_path.c_str(),
                metrics_interval);
  }

  bulk::ScanReport report;
  try {
    report = bulk::run_resumable_scan(moduli, config);
  } catch (const std::exception& e) {
    if (emitter) emitter->stop();  // final snapshot even on a failed scan
    std::fprintf(stderr,
                 "error: %s\n"
                 "(pass --discard-checkpoint to restart this scan from "
                 "scratch, or delete %s)\n",
                 e.what(), checkpoint_path.c_str());
    return 2;
  }

  if (emitter) emitter->stop();  // join + final snapshot before the summary

  if (tracer) {
    std::string error;
    if (tracer->write_chrome_json(trace_path, &error)) {
      std::printf("trace -> %s (%llu events, %llu dropped)\n",
                  trace_path.c_str(),
                  (unsigned long long)tracer->events_recorded(),
                  (unsigned long long)tracer->events_dropped());
    } else {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
  }

  std::printf("\n%s after %.2fs: %llu/%llu chunks, %llu pairs, %zu hits",
              report.complete ? "complete" : "interrupted",
              report.result.seconds, (unsigned long long)report.chunks_done,
              (unsigned long long)report.chunks_total,
              (unsigned long long)report.result.pairs_tested,
              report.result.hits.size());
  if (report.resumed) std::printf(" (resumed)");
  std::printf("\n");
  for (const auto& hit : report.result.hits) {
    std::printf("  keys %zu and %zu share a %zu-bit prime %s\n", hit.i, hit.j,
                hit.factor.bit_length(), hit.factor.to_hex().c_str());
  }
  for (const auto& q : report.quarantined) {
    std::printf("  QUARANTINED chunk %zu: %s\n", q.chunk_index,
                q.error.c_str());
  }
  if (registry) {
    // Structured end-of-run summary straight from the registry, so what is
    // printed is exactly what the last NDJSON line recorded.
    const obs::Snapshot snap = registry->snapshot();
    auto counter = [&](std::string_view name) -> unsigned long long {
      for (const auto& c : snap.counters) {
        if (c.name == name) return (unsigned long long)c.value;
      }
      return 0;
    };
    std::printf(
        "telemetry summary (%zu snapshot lines -> %s):\n"
        "  scan: %llu chunks committed, %llu restored, %llu retried, "
        "%llu quarantined\n"
        "  work: %llu pairs (%llu restored), %llu hits, "
        "%llu gcd iterations\n"
        "  keystore: %llu records, %llu duplicate moduli, %llu parse errors\n",
        emitter->lines_written(), metrics_path.c_str(),
        counter("scan_chunks_committed_total"),
        counter("scan_chunks_restored_total"),
        counter("scan_chunks_retried_total"),
        counter("scan_chunks_quarantined_total"), counter("scan_pairs_total"),
        counter("scan_pairs_restored_total"), counter("scan_hits_total"),
        counter("gcd_iterations_total"), counter("keystore_records_total"),
        counter("keystore_duplicate_moduli_total"),
        counter("keystore_parse_errors_total"));
    for (const auto& h : snap.histograms) {
      if (h.name == "scan_checkpoint_fsync_seconds" && h.count > 0) {
        std::printf("  checkpoint fsync: %llu syncs, p50 %.3fms, p99 %.3fms\n",
                    (unsigned long long)h.count, h.quantile(0.5) * 1e3,
                    h.quantile(0.99) * 1e3);
      }
    }
  }
  if (!report.complete) {
    std::printf("rerun with the same arguments to continue from %s\n",
                checkpoint_path.c_str());
    return 3;
  }
  return report.quarantined.empty() ? 0 : 1;
}
