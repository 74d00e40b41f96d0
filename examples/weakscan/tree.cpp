// `weakscan tree` — the Bernstein product/remainder-tree attack with
// per-level checkpointing. Kill it mid-tree (even SIGKILL) and run it again
// with the same arguments: finished levels replay from the journal and the
// final gcds come out bit-identical to an uninterrupted run.
#include <csignal>
#include <cstdio>
#include <fstream>

#include "cli.hpp"

namespace weakscan {

int run_tree(int argc, char** argv) {
  std::string corpus_path;
  std::string checkpoint_path;
  std::string gcds_path;
  std::size_t kill_after_levels = 0;
  batchgcd::BatchScanConfig config;
  Telemetry telemetry(/*default_interval=*/0.0);
  for (Args args(argc, argv); args.next();) {
    if (args.positional() && corpus_path.empty()) {
      corpus_path = args.current();
    } else if (args.is("--checkpoint")) {
      checkpoint_path = args.value();
    } else if (args.is("--fsync-every")) {
      config.fsync_every = args.u64();
    } else if (args.is("--stop-after-levels")) {
      config.stop_after_levels = args.u64();
    } else if (args.is("--kill-after-levels")) {
      kill_after_levels = args.u64();
    } else if (args.is("--gcds-out")) {
      gcds_path = args.value();
    } else if (!telemetry.parse(args)) {
      args.unknown();
    }
  }
  if (corpus_path.empty()) throw UsageError("tree needs a corpus file");

  telemetry.start(/*ring_capacity=*/262144);
  config.metrics = telemetry.registry();
  config.trace = telemetry.trace();
  const auto moduli = load_corpus(corpus_path, telemetry.registry());

  if (checkpoint_path.empty()) checkpoint_path = corpus_path + ".btr";
  config.checkpoint = checkpoint_path;
  std::printf("corpus digest %016llx, checkpoint %s\n",
              (unsigned long long)rsa::corpus_digest(moduli),
              checkpoint_path.c_str());
  config.level_hook = [kill_after_levels](std::size_t done,
                                          std::size_t total) {
    std::printf("  level %zu/%zu committed\n", done, total);
    if (kill_after_levels > 0 && done >= kill_after_levels) {
      // The hook runs on the journal's writer thread with exactly `done`
      // records synced and the pool possibly computing levels ahead: a
      // real crash, at the worst possible moment that still has this level
      // durable.
      std::fflush(stdout);
      std::raise(SIGKILL);
    }
  };

  batchgcd::BatchScanReport report;
  try {
    report = batchgcd::run_resumable_batch(moduli, config);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + "\n(delete " +
                             checkpoint_path +
                             " to restart this attack from scratch)");
  }
  telemetry.finish();

  std::printf("\n%s after %.2fs: %llu/%llu levels this run, %llu restored",
              report.complete ? "complete" : "interrupted",
              report.result.seconds, (unsigned long long)report.levels_done,
              (unsigned long long)report.levels_total,
              (unsigned long long)report.levels_restored);
  if (report.resumed) std::printf(" (resumed)");
  std::printf("\n");
  if (!report.complete) {
    std::printf("rerun with the same arguments to continue from %s\n",
                checkpoint_path.c_str());
    return kExitInterrupted;
  }

  const auto weak = batchgcd::weak_indices(report.result);
  const auto full = batchgcd::full_modulus_indices(report.result, moduli);
  std::printf("%zu weak moduli (%zu unfactorable full-modulus gcds)\n",
              weak.size(), full.size());
  for (const auto i : weak) {
    std::printf("  key %zu: gcd = %s (%zu bits)\n", i,
                report.result.gcds[i].to_hex().c_str(),
                report.result.gcds[i].bit_length());
  }
  if (!gcds_path.empty()) {
    std::ofstream out(gcds_path, std::ios::trunc);
    for (std::size_t i = 0; i < report.result.gcds.size(); ++i) {
      out << i << " " << report.result.gcds[i].to_hex() << "\n";
    }
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + gcds_path);
    std::printf("gcds -> %s\n", gcds_path.c_str());
  }
  return kExitDone;
}

}  // namespace weakscan
