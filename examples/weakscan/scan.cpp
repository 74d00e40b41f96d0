// `weakscan scan` — the production shape of the paper's attack: sweep every
// pair of a stored corpus with checkpointing, live progress and crash
// recovery. Kill it mid-run and start it again with the same arguments: it
// picks up from the last committed chunk.
#include <cstdio>
#include <string_view>

#include "cli.hpp"

namespace weakscan {

int run_scan(int argc, char** argv) {
  std::string corpus_path;
  std::string checkpoint_path;
  bulk::ScanConfig config;
  Telemetry telemetry(/*default_interval=*/0.0);
  for (Args args(argc, argv); args.next();) {
    if (args.positional() && corpus_path.empty()) {
      corpus_path = args.current();
    } else if (args.is("--checkpoint")) {
      checkpoint_path = args.value();
    } else if (args.is("--chunk-blocks")) {
      config.chunk_blocks = args.u64();
    } else if (args.is("--group-size")) {
      config.pairs.group_size = args.u64();
    } else if (args.is("--engine")) {
      const auto engine = bulk::parse_engine(args.value());
      if (!engine) throw UsageError("--engine takes auto|vector|staged|scalar");
      config.pairs.engine = *engine;
    } else if (args.is("--threads")) {
      config.pairs.pool_threads = args.u64();
    } else if (args.is("--tile-blocks")) {
      config.pairs.tile_blocks = args.u64();
    } else if (args.is("--stop-after")) {
      config.stop_after_chunks = args.u64();
    } else if (args.is("--discard-checkpoint")) {
      config.discard_mismatched_checkpoint = true;
    } else if (!telemetry.parse(args)) {
      args.unknown();
    }
  }
  if (corpus_path.empty()) throw UsageError("scan needs a corpus file");

  telemetry.start(/*ring_capacity=*/262144);
  config.pairs.metrics = telemetry.registry();
  config.pairs.trace = telemetry.trace();
  const auto moduli = load_corpus(corpus_path, telemetry.registry());

  if (checkpoint_path.empty()) checkpoint_path = corpus_path + ".ckpt";
  config.checkpoint = checkpoint_path;
  bulk::StreamProgressSink sink;
  config.sink = &sink;
  config.progress_every = 4;
  std::printf("corpus digest %016llx, checkpoint %s\n",
              (unsigned long long)rsa::corpus_digest(moduli),
              checkpoint_path.c_str());

  bulk::ScanReport report;
  try {
    report = bulk::run_resumable_scan(moduli, config);
  } catch (const std::exception& e) {
    throw std::runtime_error(
        std::string(e.what()) +
        "\n(pass --discard-checkpoint to restart this scan from scratch, or "
        "delete " + checkpoint_path + ")");
  }
  telemetry.finish();

  std::printf("\n%s after %.2fs: %llu/%llu chunks, %llu pairs, %zu hits",
              report.complete ? "complete" : "interrupted",
              report.result.seconds, (unsigned long long)report.chunks_done,
              (unsigned long long)report.chunks_total,
              (unsigned long long)report.result.pairs_tested,
              report.result.hits.size());
  if (report.resumed) std::printf(" (resumed)");
  std::printf("\n");
  for (const auto& hit : report.result.hits) print_hit(hit);
  for (const auto& q : report.quarantined) {
    std::printf("  QUARANTINED chunk %zu: %s\n", q.chunk_index,
                q.error.c_str());
  }
  if (const obs::MetricsRegistry* registry = telemetry.registry()) {
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
        "telemetry summary (%llu snapshot lines -> %s):\n"
        "  scan: %llu chunks committed, %llu restored, %llu retried, "
        "%llu quarantined\n"
        "  work: %llu pairs (%llu restored), %llu hits, "
        "%llu gcd iterations\n"
        "  keystore: %llu records, %llu duplicate moduli, %llu parse errors\n",
        (unsigned long long)telemetry.lines_written(),
        telemetry.metrics_path().c_str(),
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
    return kExitInterrupted;
  }
  return report.quarantined.empty() ? kExitDone : kExitFound;
}

}  // namespace weakscan
