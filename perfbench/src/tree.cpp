// batch_tree: the Bernstein product/remainder tree over the corpus through
// batchgcd::run_resumable_batch with the level journal on and the global
// pool, repeated until the run's time is used up.
#include <algorithm>
#include <cstdio>
#include <map>

#include "batchgcd/batch_journal.hpp"
#include "batchgcd/batchgcd.hpp"
#include "bench.hpp"
#include "rsa/keystore.hpp"

namespace perfbench {

namespace batchgcd = bulkgcd::batchgcd;

namespace {

struct TreeRun {
  double wall = 0.0;
  batchgcd::BatchScanReport report;
  std::vector<double> level_ends;  ///< level_hook times, from the call
  double journal_mb = 0.0;
};

TreeRun timed_tree(std::span<const BigInt> moduli, const Options& o,
                   bool traced, SpanLog* spans) {
  const fs::path journal = o.work / "tree.btr";
  fs::remove(journal);
  batchgcd::BatchScanConfig cfg;
  cfg.checkpoint = journal;
  TreeRun run;
  const double t0 = now_s();
  if (traced) {
    cfg.level_hook = [&](std::size_t, std::size_t) {
      run.level_ends.push_back(now_s() - t0);
    };
  }
  run.report = batchgcd::run_resumable_batch(moduli, cfg);
  run.wall = now_s() - t0;
  run.journal_mb = double(fs::file_size(journal)) / 1e6;
  fs::remove(journal);

  if (spans) {
    const auto id = spans->add("run_resumable_batch", t0, t0 + run.wall);
    const std::size_t product = run.level_ends.size() / 2;
    double prev = 0.0;
    for (std::size_t k = 0; k < run.level_ends.size(); ++k) {
      const char* name = k < product       ? "product_level"
                         : k < 2 * product ? "remainder_level"
                                           : "final_gcds";
      spans->add(name, t0 + prev, t0 + run.level_ends[k], id);
      prev = run.level_ends[k];
    }
  }
  return run;
}

void check_tree(const TreeRun& run, std::span<const BigInt> moduli,
                std::span<const Planted> truth, const Options& o, Gate& gate) {
  gate.check(run.report.complete, "tree: attack complete");
  if (!run.report.complete) return;
  const auto& gcds = run.report.result.gcds;
  std::map<std::size_t, std::size_t> partner;
  for (const auto& p : truth) {
    partner[p.i] = p.j;
    partner[p.j] = p.i;
  }
  // The weak set must equal the planted set: every weak modulus has a
  // planted partner, and every planted pair shows up as a hit below.
  std::vector<PairHit> hits;
  for (const auto w : batchgcd::weak_indices(run.report.result)) {
    const auto it = partner.find(w);
    gate.check(it != partner.end(), "tree: weak modulus is planted");
    if (it == partner.end()) continue;
    if (w < it->second) {
      hits.push_back({w, it->second, gcds[w]});
    } else {
      gate.check(factor_verifies(gcds[w], moduli[w], moduli[it->second]),
                 "tree: reported gcd re-verifies");
    }
  }
  check_pair_hits(std::move(hits), moduli, truth, o.inject_fault, gate, "tree");
}

/// batchgcd.* from the level_hook intervals of one traced run. Levels come
/// in order: product levels up, the same number of remainder levels down,
/// then the final gcds.
void tree_figures(const TreeRun& run, Report& r) {
  const auto& ends = run.level_ends;
  const std::size_t product = ends.size() / 2;
  double product_s = 0.0, remainder_s = 0.0, remainder_max = 0.0, gcds_s = 0.0;
  std::size_t max_step = 0;
  double prev = 0.0;
  for (std::size_t k = 0; k < ends.size(); ++k) {
    const double d = ends[k] - prev;
    prev = ends[k];
    if (k < product) {
      product_s += d;
    } else if (k < 2 * product) {
      remainder_s += d;
      if (d > remainder_max) {
        remainder_max = d;
        max_step = k - product + 1;
      }
    } else {
      gcds_s += d;
    }
  }
  r.set_layer("batchgcd.product_s", product_s, "s");
  r.set_layer("batchgcd.remainder_s", remainder_s, "s");
  r.set_layer("batchgcd.remainder_max_level_s", remainder_max, "s");
  r.set_layer("batchgcd.gcds_s", gcds_s, "s");
  r.set_layer("batchgcd.remainder_share", remainder_s / run.wall, "fraction");
  r.set_layer("batchgcd.journal_mb", run.journal_mb, "MB");
  char line[160];
  std::snprintf(line, sizeof line,
                "tree levels: %zu product, %zu remainder (heaviest: descent "
                "step %zu, %.3f s), gcds %.3f s",
                product, product, max_step, remainder_max, gcds_s);
  r.note(line);
}

}  // namespace

void tree_layers(std::span<const BigInt> moduli, std::span<const Planted> truth,
                 const Options& o, Report& r) {
  const TreeRun run = timed_tree(moduli, o, true, &r.spans);
  check_tree(run, moduli, truth, o, r.gate);
  tree_figures(run, r);
}

void run_tree_workload(const Options& o, Report& r) {
  const auto truth = load_truth(o.inputs / "truth.txt");
  LoadTimer loads(o.inputs / "corpus.keys");
  const auto moduli = loads.sample();
  const double m = double(moduli.size());
  const double pairs = m * (m - 1) / 2;

  // The driver's own set-up before its first product level: the corpus
  // digest (timed with the load) and opening a fresh level journal.
  std::vector<double> opens;
  const fs::path probe_journal = o.work / "setup.btr";
  const auto sample_setup = [&] {
    loads.sample();
    const double t0 = now_s();
    {
      batchgcd::BatchJournal journal(probe_journal,
                                     bulkgcd::rsa::corpus_digest(moduli),
                                     moduli.size());
    }
    opens.push_back(now_s() - t0);
    fs::remove(probe_journal);
  };

  // Traced runs alternate untraced and traced trees; the untraced ones give
  // the end-to-end figures.
  std::vector<double> walls, traced_walls;
  TreeRun traced_run;
  const int kinds = o.trace ? 2 : 1;
  const double start = now_s();
  double cycle = 0.0;
  do {
    const double cycle_start = now_s();
    for (std::size_t k = 0; k < kSetupSamplesPerRep; ++k) sample_setup();
    for (int kind = 0; kind < kinds; ++kind) {
      const bool traced = kind == 1;
      TreeRun run = timed_tree(moduli, o, traced, traced ? &r.spans : nullptr);
      check_tree(run, moduli, truth, o, r.gate);
      (traced ? traced_walls : walls).push_back(run.wall);
      if (traced) traced_run = std::move(run);
    }
    cycle = now_s() - cycle_start;
  } while (more_reps(start, o.seconds, cycle, walls.size()));

  const double wall = median(walls);
  const double setup = loads.load_s() + median(opens);
  r.set_e2e("pairs_per_s", pairs / wall, "pairs/s");
  r.set_e2e("latency_p50_ms", wall * 1e3, "ms");
  r.set_e2e("setup_s", setup, "s");
  char line[256];
  std::snprintf(line, sizeof line,
                "tree: %zu x %zu-bit moduli, global pool, %zu untraced runs",
                moduli.size(), o.sizes.bits, walls.size());
  r.note(line);
  std::snprintf(line, sizeof line, "tree_s = %.4f s (median)", wall);
  r.note(line);
  r.note("tree walls (s): " + join(walls));
  if (!o.trace) return;

  r.set_layer("rsa.load_s", loads.load_s(), "s");
  r.set_layer("rsa.digest_s", loads.digest_s(), "s");
  r.set_layer("obs.trace_overhead_pct",
              (median(traced_walls) / wall - 1.0) * 100.0, "%");
  tree_figures(traced_run, r);

  const std::size_t sub = std::min(o.sizes.subset, moduli.size());
  const std::span<const BigInt> subset(moduli.data(), sub);
  const auto sub_truth = truth_within(truth, sub);
  scan_layers(subset, sub_truth, o, r);
  intake_layers(subset, sub / 2, sub_truth, o, r);
  engine_layers(moduli, truth, o, r, /*with_counts=*/true);
}

}  // namespace perfbench
