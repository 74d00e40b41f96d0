// allpairs_sweep: a closed batch job. The corpus is swept by
// bulk::run_resumable_scan with the checkpoint on, default chunking and
// min(nproc, 4) workers, repeatedly until the run's time is used up.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench.hpp"
#include "bulk/allpairs.hpp"
#include "bulk/scan_driver.hpp"

namespace perfbench {

namespace bulk = bulkgcd::bulk;

namespace {

struct ScanRun {
  double wall = 0.0;
  double driver_setup = 0.0;  ///< call → first chunk_hook (journal, staging)
  bulk::ScanReport report;
  std::vector<double> starts;   ///< attempt-0 chunk starts, from the call
  std::vector<double> commits;  ///< chunk commits (ProgressSink), from the call
};

/// Records the time of every chunk commit.
class CommitSink : public bulk::ProgressSink {
 public:
  CommitSink(double t0, std::vector<double>& commits)
      : t0_(t0), commits_(commits) {}
  void on_progress(const bulk::ScanProgress&) override {
    commits_.push_back(now_s() - t0_);
  }

 private:
  double t0_;
  std::vector<double>& commits_;
};

ScanRun timed_scan(std::span<const BigInt> moduli, const Options& o,
                   bool traced, SpanLog* spans) {
  const fs::path ckpt = o.work / "sweep.ckpt";
  fs::remove(ckpt);
  bulk::ScanConfig cfg;
  cfg.pairs.pool_threads = o.workers;
  cfg.checkpoint = ckpt;

  ScanRun run;
  std::mutex mutex;
  double first_chunk = -1.0;
  const double t0 = now_s();
  cfg.chunk_hook = [&](std::size_t, int attempt) {
    const double t = now_s() - t0;
    std::lock_guard lock(mutex);
    if (first_chunk < 0.0) first_chunk = t;
    if (traced && attempt == 0) run.starts.push_back(t);
  };
  CommitSink sink(t0, run.commits);
  if (traced) cfg.sink = &sink;
  run.report = bulk::run_resumable_scan(moduli, cfg);
  run.wall = now_s() - t0;
  run.driver_setup = first_chunk < 0.0 ? run.wall : first_chunk;
  fs::remove(ckpt);

  if (spans) {
    const auto id = spans->add("run_resumable_scan", t0, t0 + run.wall);
    spans->add("scan_setup", t0, t0 + run.driver_setup, id);
    double prev = run.driver_setup;
    for (const double c : run.commits) {
      spans->add("until_commit", t0 + prev, t0 + c, id);
      prev = c;
    }
  }
  return run;
}

void check_scan(const ScanRun& run, std::span<const BigInt> moduli,
                std::span<const Planted> truth, const Options& o, Gate& gate) {
  gate.check(run.report.complete, "sweep: scan complete");
  // One check per chunk, so each quarantined chunk counts as one failure.
  for (std::uint64_t k = 0; k < run.report.chunks_total; ++k) {
    gate.check(k >= run.report.quarantined.size(),
               "sweep: chunk committed, not quarantined");
  }
  std::vector<PairHit> hits;
  for (const auto& h : run.report.result.hits) {
    hits.push_back({h.i, h.j, h.factor});
  }
  check_pair_hits(std::move(hits), moduli, truth, o.inject_fault, gate,
                  "sweep");
}

double timed_all_pairs(std::span<const BigInt> moduli, const Options& o) {
  bulk::AllPairsConfig cfg;
  cfg.pool_threads = o.workers;
  const double t0 = now_s();
  bulk::all_pairs_gcd(moduli, cfg);
  return now_s() - t0;
}

/// scan.* from one traced scan and the all_pairs_gcd time of the same sweep.
void scan_figures(const ScanRun& run, double scan_wall, double all_pairs_s,
                  const Options& o, Report& r) {
  std::vector<double> starts = run.starts, commits = run.commits;
  std::sort(starts.begin(), starts.end());
  std::sort(commits.begin(), commits.end());
  // Σ(commit − start) over chunks = Σ commits − Σ starts, whatever order
  // the chunks committed in.
  double busy = 0.0, gap_max = 0.0, prev = 0.0;
  for (std::size_t k = 0; k < std::min(starts.size(), commits.size()); ++k) {
    busy += commits[k] - starts[k];
  }
  for (const double c : commits) {
    gap_max = std::max(gap_max, c - prev);
    prev = c;
  }
  r.set_layer("scan.driver_overhead_frac", 1.0 - all_pairs_s / scan_wall,
              "fraction");
  r.set_layer("scan.worker_busy_frac", busy / (double(o.workers) * run.wall),
              "fraction");
  r.set_layer("scan.chunks", double(run.report.chunks_total), "count");
  r.set_layer("scan.commit_gap_ms_max", gap_max * 1e3, "ms");
}

}  // namespace

void scan_layers(std::span<const BigInt> moduli, std::span<const Planted> truth,
                 const Options& o, Report& r) {
  const ScanRun run = timed_scan(moduli, o, true, &r.spans);
  check_scan(run, moduli, truth, o, r.gate);
  scan_figures(run, run.wall, timed_all_pairs(moduli, o), o, r);
}

void run_sweep_workload(const Options& o, Report& r) {
  const auto truth = load_truth(o.inputs / "truth.txt");
  LoadTimer loads(o.inputs / "corpus.keys");
  const auto moduli = loads.sample();
  const double m = double(moduli.size());
  const double pairs = m * (m - 1) / 2;

  // Traced runs cycle an untraced scan, a traced scan and a bare
  // all_pairs_gcd of the same corpus, so the three medians see the same
  // machine conditions; the untraced scans give the end-to-end figures.
  std::vector<double> walls, traced_walls, bare_walls, setups;
  ScanRun traced_run;
  const int kinds = o.trace ? 3 : 1;
  const double start = now_s();
  double cycle = 0.0;
  do {
    const double cycle_start = now_s();
    for (std::size_t k = 0; k < kSetupSamplesPerRep; ++k) loads.sample();
    for (int kind = 0; kind < kinds; ++kind) {
      if (kind == 2) {
        bare_walls.push_back(timed_all_pairs(moduli, o));
        continue;
      }
      const bool traced = kind == 1;
      ScanRun run = timed_scan(moduli, o, traced, traced ? &r.spans : nullptr);
      check_scan(run, moduli, truth, o, r.gate);
      (traced ? traced_walls : walls).push_back(run.wall);
      setups.push_back(run.driver_setup);
      if (traced) traced_run = std::move(run);
    }
    cycle = now_s() - cycle_start;
  } while (more_reps(start, o.seconds, cycle, walls.size()));

  const double wall = median(walls);
  // The driver's own set-up (corpus digest, checkpoint open, staging) ends
  // where its first chunk starts.
  const double setup = loads.load_s() + median(setups);
  r.set_e2e("pairs_per_s", pairs / wall, "pairs/s");
  r.set_e2e("latency_p50_ms", wall * 1e3, "ms");
  r.set_e2e("setup_s", setup, "s");
  char line[256];
  std::snprintf(line, sizeof line,
                "sweep: %zu x %zu-bit moduli, %zu workers, %zu untraced "
                "sweeps, median %.3f s",
                moduli.size(), o.sizes.bits, o.workers, walls.size(), wall);
  r.note(line);
  r.note("sweep walls (s): " + join(walls));
  if (!o.trace) return;

  r.set_layer("rsa.load_s", loads.load_s(), "s");
  r.set_layer("rsa.digest_s", loads.digest_s(), "s");
  r.set_layer("obs.trace_overhead_pct",
              (median(traced_walls) / wall - 1.0) * 100.0, "%");
  scan_figures(traced_run, wall, median(bare_walls), o, r);
  report_counts(traced_run.report.result.simt,
                traced_run.report.result.pairs_tested, o, r);

  const std::size_t sub = std::min(o.sizes.subset, moduli.size());
  const std::span<const BigInt> subset(moduli.data(), sub);
  const auto sub_truth = truth_within(truth, sub);
  tree_layers(subset, sub_truth, o, r);
  intake_layers(subset, sub / 2, sub_truth, o, r);
  engine_layers(moduli, truth, o, r, /*with_counts=*/false);
}

}  // namespace perfbench
