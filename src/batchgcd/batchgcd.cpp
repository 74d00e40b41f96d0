#include "batchgcd/batchgcd.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "batchgcd/batch_journal.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "gcd/algorithms.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rsa/keystore.hpp"

namespace bulkgcd::batchgcd {

namespace {

/// Driver-level metric handles (docs/OBSERVABILITY.md), following the scan
/// driver's pattern: all null without a registry, every use one branch.
/// batchgcd_levels_committed_total + batchgcd_levels_restored_total together
/// reach levels_total exactly once per completed attack, however many runs
/// it took.
struct BatchTelemetry {
  obs::Counter* levels_committed = nullptr;
  obs::Counter* levels_restored = nullptr;
  obs::Counter* product_nodes = nullptr;
  obs::Counter* remainder_nodes = nullptr;
  obs::Counter* gcds = nullptr;
  obs::Counter* weak = nullptr;
  obs::HistogramMetric* level_seconds = nullptr;
  obs::HistogramMetric* fsync_seconds = nullptr;
  obs::Gauge* progress_ratio = nullptr;

  static BatchTelemetry resolve(obs::MetricsRegistry* m) {
    BatchTelemetry t;
    if (!m) return t;
    t.levels_committed = m->counter("batchgcd_levels_committed_total");
    t.levels_restored = m->counter("batchgcd_levels_restored_total");
    t.product_nodes = m->counter("batchgcd_product_nodes_total");
    t.remainder_nodes = m->counter("batchgcd_remainder_nodes_total");
    t.gcds = m->counter("batchgcd_gcds_total");
    t.weak = m->counter("batchgcd_weak_total");
    t.level_seconds = m->histogram("batchgcd_level_seconds", 0.0, 60.0, 120);
    t.fsync_seconds =
        m->histogram("batchgcd_checkpoint_fsync_seconds", 0.0, 0.1, 100);
    t.progress_ratio = m->gauge("batchgcd_progress_ratio");
    return t;
  }
};

/// Driver-level trace handles, one span per committed tree level.
struct BatchTrace {
  obs::TraceRecorder* rec = nullptr;
  std::uint32_t product_id = 0;
  std::uint32_t remainder_id = 0;
  std::uint32_t gcds_id = 0;

  static BatchTrace resolve(obs::TraceRecorder* rec) {
    BatchTrace t;
    t.rec = rec;
    if (rec == nullptr) return t;
    t.product_id = rec->intern("product_level");
    t.remainder_id = rec->intern("remainder_level");
    t.gcds_id = rec->intern("final_gcds");
    rec->set_arg_names(t.product_id, "level", "nodes");
    rec->set_arg_names(t.remainder_id, "level", "residues");
    rec->set_arg_names(t.gcds_id, "gcds", "weak");
    return t;
  }
};

/// Product-tree depth for m leaves: level 0 (the moduli) up to the root.
std::size_t tree_depth(std::size_t m) {
  std::size_t depth = 1;
  for (std::size_t width = m; width > 1; width = (width + 1) / 2) ++depth;
  return depth;
}

/// The same values at another limb width, at the tree's edges: the leaves
/// in, the gcds (and build_product_tree's levels) out.
template <mp::LimbType Dst, typename Values>
std::vector<mp::BigIntT<Dst>> repack_all(const Values& values) {
  std::vector<mp::BigIntT<Dst>> out;
  out.reserve(values.size());
  for (const auto& v : values) out.push_back(mp::repack<Dst>(v));
  return out;
}

/// The product-tree level above `prev`: pairwise products, an odd last node
/// promoted unchanged.
std::vector<TreeInt> product_level(const std::vector<TreeInt>& prev) {
  std::vector<TreeInt> next((prev.size() + 1) / 2);
  global_pool().parallel_for(0, next.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      next[i] = 2 * i + 1 < prev.size() ? prev[2 * i] * prev[2 * i + 1]
                                        : prev[2 * i];
    }
  });
  return next;
}

}  // namespace

ProductTree build_product_tree(std::span<const mp::BigInt> moduli) {
  if (moduli.empty()) throw std::invalid_argument("product tree: empty input");
  ProductTree tree;
  tree.emplace_back(moduli.begin(), moduli.end());
  std::vector<TreeInt> level = repack_all<std::uint64_t>(moduli);
  while (level.size() > 1) {
    level = product_level(level);
    tree.push_back(repack_all<std::uint32_t>(level));
  }
  return tree;
}

BatchScanReport run_resumable_batch(std::span<const mp::BigInt> moduli,
                                    const BatchScanConfig& config) {
  if (moduli.empty()) {
    throw std::invalid_argument("run_resumable_batch: empty corpus");
  }
  BatchScanReport report;
  Timer timer;
  const BatchTelemetry t = BatchTelemetry::resolve(config.metrics);
  const BatchTrace trace = BatchTrace::resolve(config.trace);

  const std::size_t depth = tree_depth(moduli.size());
  // Checkpoint units: depth−1 product levels going up, depth−1 remainder
  // levels coming down, plus the final gcds vector.
  report.levels_total = std::uint64_t(2 * (depth - 1) + 1);

  std::unique_ptr<BatchJournal> journal;
  BatchReplay replay;
  if (!config.checkpoint.empty()) {
    journal = std::make_unique<BatchJournal>(
        config.checkpoint, rsa::corpus_digest(moduli), moduli.size(),
        config.fsync_every, t.fsync_seconds);
    replay = journal->take_replay();
  }

  const auto set_progress = [&] {
    if (t.progress_ratio) {
      t.progress_ratio->set(double(report.levels_restored + report.levels_done) /
                            double(report.levels_total));
    }
  };
  // Account one freshly committed level; true when this run should stop.
  const auto committed_level = [&] {
    ++report.levels_done;
    if (t.levels_committed) t.levels_committed->inc();
    set_progress();
    if (config.level_hook) {
      config.level_hook(report.levels_done, report.levels_total);
    }
    return config.stop_after_levels != 0 &&
           report.levels_done >= config.stop_after_levels;
  };

  // A journal holding the gcds record is a finished attack: replay it.
  if (replay.gcds) {
    if (replay.gcds->size() != moduli.size()) {
      throw std::runtime_error("batch checkpoint: gcds record size mismatch");
    }
    report.result.gcds = repack_all<std::uint32_t>(*replay.gcds);
    report.levels_restored = report.levels_total;
    report.resumed = true;
    report.complete = true;
    set_progress();
    report.result.seconds = timer.seconds();
    return report;
  }

  // ---- product phase (up) -------------------------------------------------
  // Restore journaled levels, then compute the rest. Restored shapes are
  // re-checked against the corpus: the digest binds the leaves, the dense
  // level/size invariants bind everything above them. The tree computes on
  // 64-bit limbs: the leaves are repacked once here, replayed levels were
  // widened as they were decoded, and only the gcds are narrowed back.
  std::vector<std::vector<TreeInt>> tree;
  tree.push_back(repack_all<std::uint64_t>(moduli));
  for (auto& [level, nodes] : replay.product_levels) {
    const auto& prev = tree.back();
    if (level != tree.size() || nodes.size() != (prev.size() + 1) / 2) {
      throw std::runtime_error(
          "batch checkpoint: product level shape mismatch");
    }
    tree.push_back(std::move(nodes));
    ++report.levels_restored;
    if (t.levels_restored) t.levels_restored->inc();
  }
  report.resumed = report.levels_restored > 0 || replay.remainder.has_value();

  while (tree.back().size() > 1) {
    obs::ScopedSpan level_span(t.level_seconds);
    obs::TraceSpan tspan(trace.rec, trace.product_id);
    std::vector<TreeInt> next = product_level(tree.back());
    const std::uint32_t level = std::uint32_t(tree.size());
    tspan.set_args(level, next.size());
    if (t.product_nodes) t.product_nodes->add(next.size());
    tree.push_back(std::move(next));
    if (journal) journal->append_product_level(level, tree.back());
    if (committed_level()) {
      report.result.seconds = timer.seconds();
      return report;
    }
  }

  // ---- remainder phase (down) ---------------------------------------------
  // The descent carries each node's cofactor residue s_v = (P / N_v) mod N_v,
  // starting from s_root = 1. A child c with sibling d gets
  // s_c = ((s_v mod N_c) · N_d) mod N_c, exact because P / N_c = (P / N_v) · N_d
  // and N_c | N_v: two divisions by N_c and one product, all at the child's
  // size. A level is freed as soon as the step into it is done, so the
  // descent holds only the levels it has yet to reach, and the leaves for the
  // final gcds.
  std::vector<TreeInt> current;
  std::size_t next_level = depth - 1;  // the level the next step reduces into
  if (replay.remainder) {
    auto& [restored_level, residues] = *replay.remainder;
    if (restored_level >= depth - 1 ||
        residues.size() != tree[restored_level].size()) {
      throw std::runtime_error(
          "batch checkpoint: remainder level shape mismatch");
    }
    // Every residue is reduced modulo its node: one that is not was never
    // written by this descent, and resuming from it would yield wrong gcds.
    for (std::size_t i = 0; i < residues.size(); ++i) {
      if (!(residues[i] < tree[restored_level][i])) {
        throw std::runtime_error(
            "batch checkpoint: remainder level residue out of range");
      }
    }
    // Reducing into restored_level means levels depth−2 … restored_level
    // are already done: (depth−1) − restored_level descent steps.
    const std::uint64_t steps_done = std::uint64_t(depth - 1 - restored_level);
    report.levels_restored += steps_done;
    if (t.levels_restored) t.levels_restored->add(steps_done);
    set_progress();
    current = std::move(residues);
    next_level = restored_level;
  } else {
    current.push_back(TreeInt(1));  // (P / P) mod P
  }
  tree.resize(std::max<std::size_t>(next_level, 1));

  for (std::size_t level = next_level; level-- > 0;) {
    obs::ScopedSpan level_span(t.level_seconds);
    obs::TraceSpan tspan(trace.rec, trace.remainder_id);
    const auto& nodes = tree[level];
    std::vector<TreeInt> next(nodes.size());
    global_pool().parallel_for(0, nodes.size(), [&](std::size_t lo,
                                                    std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        // A node promoted from an odd-count level equals its parent, so it
        // shares the parent's cofactor residue.
        const bool promoted = i % 2 == 0 && i + 1 == nodes.size();
        const TreeInt& parent = current[i / 2];
        next[i] = promoted ? parent
                           : (parent % nodes[i]) * nodes[i ^ 1] % nodes[i];
      }
    });
    current = std::move(next);
    if (level > 0) tree.pop_back();
    tspan.set_args(level, current.size());
    if (t.remainder_nodes) t.remainder_nodes->add(current.size());
    if (journal) journal->append_remainder_level(std::uint32_t(level), current);
    if (committed_level()) {
      report.result.seconds = timer.seconds();
      return report;
    }
  }

  // ---- final gcds ---------------------------------------------------------
  {
    obs::ScopedSpan level_span(t.level_seconds);
    obs::TraceSpan tspan(trace.rec, trace.gcds_id);
    const auto& leaves = tree[0];
    std::vector<TreeInt> gcds(moduli.size());
    global_pool().parallel_for(0, moduli.size(), [&](std::size_t lo,
                                                     std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        // current[i] = (P / n_i) mod n_i.
        gcds[i] = gcd::gcd_general(leaves[i], current[i]);
      }
    });
    if (journal) journal->append_gcds(gcds);
    report.result.gcds = repack_all<std::uint32_t>(gcds);
    std::size_t weak = 0;
    for (const auto& g : report.result.gcds) {
      if (g > mp::BigInt(1)) ++weak;
    }
    tspan.set_args(moduli.size(), weak);
    if (t.gcds) t.gcds->add(moduli.size());
    if (t.weak) t.weak->add(weak);
    committed_level();  // the last level: the stop threshold no longer matters
  }

  report.complete = true;
  report.result.seconds = timer.seconds();
  return report;
}

BatchGcdResult batch_gcd(std::span<const mp::BigInt> moduli,
                         obs::MetricsRegistry* metrics) {
  BatchScanConfig config;
  config.metrics = metrics;
  return run_resumable_batch(moduli, config).result;
}

std::vector<std::size_t> weak_indices(const BatchGcdResult& result) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < result.gcds.size(); ++i) {
    if (result.gcds[i] > mp::BigInt(1)) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> full_modulus_indices(
    const BatchGcdResult& result, std::span<const mp::BigInt> moduli) {
  std::vector<std::size_t> out;
  const std::size_t n = std::min(result.gcds.size(), moduli.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (result.gcds[i] > mp::BigInt(1) && result.gcds[i] == moduli[i]) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace bulkgcd::batchgcd
