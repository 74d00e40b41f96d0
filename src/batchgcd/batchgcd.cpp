#include "batchgcd/batchgcd.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "batchgcd/batch_journal.hpp"
#include "batchgcd/fraction.hpp"
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

/// Driver-level trace handles: one span per computed tree level on the
/// driver, one per level record on the journal's writer thread.
struct BatchTrace {
  obs::TraceRecorder* rec = nullptr;
  std::uint32_t product_id = 0;
  std::uint32_t remainder_id = 0;
  std::uint32_t gcds_id = 0;
  std::uint32_t commit_id = 0;

  static BatchTrace resolve(obs::TraceRecorder* rec) {
    BatchTrace t;
    t.rec = rec;
    if (rec == nullptr) return t;
    t.product_id = rec->intern("product_level");
    t.remainder_id = rec->intern("remainder_level");
    t.gcds_id = rec->intern("final_gcds");
    t.commit_id = rec->intern("level_commit");
    rec->set_arg_names(t.product_id, "level", "nodes");
    rec->set_arg_names(t.remainder_id, "level", "residues");
    rec->set_arg_names(t.gcds_id, "gcds", "weak");
    rec->set_arg_names(t.commit_id, "level", "values");
    return t;
  }
};

/// The journal's one writer thread. The driver submits level records in
/// order and goes on computing; the writer appends them in that order,
/// reading each level in place, and runs `on_commit` once a record's append
/// and cadence fsync have returned — so when it runs for the k-th record,
/// the file holds exactly k records. The driver must drain() before it
/// frees or overwrites a level it has submitted. A failed append or a throw
/// from `on_commit` stops the writer before its next record, and the
/// driver's next submit() or drain() rethrows it. The writer itself
/// allocates nothing per record: records stream through a fixed buffer.
class LevelWriter {
 public:
  enum class Kind { kProduct, kFractions, kResidues };
  struct Record {
    Kind kind = Kind::kProduct;
    std::uint32_t level = 0;
    std::span<const TreeInt> values;
  };

  LevelWriter(BatchJournal& journal, std::size_t records,
              std::function<void()> on_commit, const BatchTrace& trace)
      : journal_(journal), on_commit_(std::move(on_commit)), trace_(trace) {
    pending_.reserve(records);
    thread_ = std::thread([this] { run(); });
  }

  /// Stops after the record in hand (records still queued are not written)
  /// and joins.
  ~LevelWriter() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    work_.notify_one();
    thread_.join();
  }

  LevelWriter(const LevelWriter&) = delete;
  LevelWriter& operator=(const LevelWriter&) = delete;

  void submit(const Record& record) {
    {
      std::lock_guard lock(mu_);
      if (error_) std::rethrow_exception(error_);
      pending_.push_back(record);
    }
    work_.notify_one();
  }

  /// Waits until every submitted record is committed.
  void drain() {
    std::unique_lock lock(mu_);
    done_.wait(lock, [this] { return error_ || committed_ == pending_.size(); });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void run() {
    try {
      if (trace_.rec != nullptr) trace_.rec->set_thread_name("journal-writer");
      std::unique_lock lock(mu_);
      while (true) {
        work_.wait(lock, [this] {
          return stopping_ || committed_ < pending_.size();
        });
        if (stopping_) return;
        const Record record = pending_[committed_];
        lock.unlock();
        {
          obs::TraceSpan span(trace_.rec, trace_.commit_id);
          span.set_args(record.level, record.values.size());
          switch (record.kind) {
            case Kind::kProduct:
              journal_.append_product_level(record.level, record.values);
              break;
            case Kind::kFractions:
              journal_.append_fraction_level(record.level, record.values);
              break;
            case Kind::kResidues:
              journal_.append_remainder_level(record.level, record.values);
              break;
          }
        }
        on_commit_();
        lock.lock();
        ++committed_;
        done_.notify_all();
      }
    } catch (...) {
      // `lock` is gone with the try block, so mu_ is free here.
      std::lock_guard lock(mu_);
      error_ = std::current_exception();
      done_.notify_all();
    }
  }

  BatchJournal& journal_;
  std::function<void()> on_commit_;
  BatchTrace trace_;
  std::mutex mu_;
  std::condition_variable work_;  // a record is queued, or stopping_
  std::condition_variable done_;  // a record committed, or error_
  std::vector<Record> pending_;   // every record submitted, in order
  std::size_t committed_ = 0;
  bool stopping_ = false;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once every member above is built
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

/// s_c = ((s_v mod N_c) · N_d) mod N_c for a node N_c with sibling N_d: the
/// descent's step below its exit size, by Knuth D (the entry of a tree too
/// small to scale takes it from s_root = 1).
TreeInt cofactor_step(const TreeInt& s, const TreeInt& node, const TreeInt& sibling) {
  return (s % node) * sibling % node;
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

  // The tree computes on 64-bit limbs: the leaves are repacked once here,
  // replayed levels were widened as they were decoded, and only the gcds
  // are narrowed back.
  std::vector<TreeInt> moduli64 = repack_all<std::uint64_t>(moduli);
  const std::size_t depth = tree_depth(moduli.size());
  // The descent's levels, top-down (docs/BATCHGCD.md): with fraction levels
  // it starts below the root's children (`top`), else at them.
  const std::size_t top = depth > 1 ? depth - 2 : 0;
  const std::size_t lowest_fraction = lowest_fraction_level(moduli64);
  const bool scaled = lowest_fraction != 0;
  const std::size_t first_descent = scaled ? top - 1 : top;
  // Checkpoint units: the product levels up to the root's children (the
  // descent never reads the root, so it is not computed), one per descent
  // level, plus the final gcds vector.
  const std::size_t product_levels = top;
  const std::size_t descent_levels = depth > 1 ? first_descent + 1 : 0;
  report.levels_total = std::uint64_t(product_levels + descent_levels + 1);

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
  // Account one freshly committed level: on the journal's writer thread
  // once the level is durable, on this thread without a journal (and for
  // the final gcds).
  const auto committed_level = [&] {
    ++report.levels_done;
    if (t.levels_committed) t.levels_committed->inc();
    set_progress();
    if (config.level_hook) {
      config.level_hook(report.levels_done, report.levels_total);
    }
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

  // The levels the writer reads in place, then the writer: declared after
  // them, it is joined before they are freed on every exit.
  std::vector<std::vector<TreeInt>> tree;
  std::vector<TreeInt> current;
  std::optional<LevelWriter> writer;
  std::uint64_t submitted = 0;
  // Hands one computed level on for commit; true when this run should
  // stop, with every level it submitted committed.
  using Kind = LevelWriter::Kind;
  const auto commit = [&](Kind kind, std::size_t level,
                          std::span<const TreeInt> values) {
    if (journal) {
      if (!writer) {
        writer.emplace(*journal, report.levels_total, committed_level, trace);
      }
      writer->submit({kind, std::uint32_t(level), values});
    } else {
      committed_level();
    }
    ++submitted;
    return config.stop_after_levels != 0 &&
           submitted >= config.stop_after_levels;
  };
  // Waits until the writer reads no level: before one is freed or replaced.
  const auto settle = [&] {
    if (writer) writer->drain();
  };
  const auto stopped = [&] {
    settle();
    report.result.seconds = timer.seconds();
    return report;
  };

  // ---- product phase (up) -------------------------------------------------
  // Restore journaled levels, then compute the rest, up to the root's two
  // children. Restored shapes are re-checked against the corpus: the digest
  // binds the leaves, the dense level/size invariants bind everything above
  // them.
  tree.push_back(std::move(moduli64));
  for (auto& [level, nodes] : replay.product_levels) {
    const auto& prev = tree.back();
    if (level != tree.size() || prev.size() <= 2 ||
        nodes.size() != (prev.size() + 1) / 2) {
      throw std::runtime_error(
          "batch checkpoint: product level shape mismatch");
    }
    tree.push_back(std::move(nodes));
    ++report.levels_restored;
    if (t.levels_restored) t.levels_restored->inc();
  }
  report.resumed = report.levels_restored > 0 || replay.remainder.has_value();

  while (tree.back().size() > 2) {
    const std::size_t level = tree.size();
    {
      obs::ScopedSpan level_span(t.level_seconds);
      obs::TraceSpan tspan(trace.rec, trace.product_id);
      tree.push_back(product_level(tree.back()));
      tspan.set_args(level, tree.back().size());
    }
    if (t.product_nodes) t.product_nodes->add(tree.back().size());
    if (commit(Kind::kProduct, level, tree.back())) return stopped();
  }

  // ---- remainder phase (down) ---------------------------------------------
  // Levels lowest_fraction … top − 1 carry scaled fractions
  // t_v = frac(P / N_v²) (fraction.hpp), to the precision
  // fraction_precision sets. The descent enters at level top − 1 with one
  // Newton divisor per node (entry_fraction), t_x = frac((P / N_x) / N_x),
  // where P / N_x is the node's sibling times the other child of the root. Each parent's scaled
  // step then gives its children t_c = frac(t_v · N_d²). The level below
  // the lowest fraction level (the exit) rounds its fractions to exact
  // cofactor residues s = (P / N) mod N = round(t·N) mod N, each checked
  // against the error bound fraction_ulps. Below the exit, and from the
  // root's children down in a tree with no fraction level, Knuth D
  // cofactor steps s_c = ((s_v mod N_c)·N_d) mod N_c carry residues down to
  // the leaves' (P / n_i) mod n_i, from s_root = 1. A level's nodes are
  // freed as soon as the step into it is done, so the descent holds only
  // the levels it has yet to reach, and the leaves for the final gcds.
  const auto precision = scaled ? fraction_precision(tree, lowest_fraction - 1)
                                : std::vector<std::vector<std::size_t>>{};
  const auto kind_of = [&](std::size_t level) {
    return scaled && level >= lowest_fraction ? Kind::kFractions : Kind::kResidues;
  };

  // The level above the next step: the descent reduces into first_descent
  // first.
  std::size_t next_level = depth > 1 ? first_descent + 1 : 0;
  if (replay.remainder) {
    auto& [restored_level, fractions, values] = *replay.remainder;
    if (replay.product_levels.size() != product_levels || restored_level >= next_level ||
        values.size() != tree[restored_level].size() ||
        fractions != (kind_of(restored_level) == Kind::kFractions)) {
      throw std::runtime_error(
          "batch checkpoint: remainder level shape mismatch");
    }
    // A fraction is at most its node's precision, and a residue below its
    // node: a value that is not was never written by this descent, and
    // resuming from it would yield wrong gcds. (A fraction's own error bound
    // is checked where the descent rounds it.)
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (fractions ? values[i].size() > precision[restored_level][i]
                    : !(values[i] < tree[restored_level][i])) {
        throw std::runtime_error(
            "batch checkpoint: remainder level value out of range");
      }
    }
    // Reducing into restored_level means the descent levels above it are
    // done too.
    const std::uint64_t steps_done = std::uint64_t(next_level - restored_level);
    report.levels_restored += steps_done;
    if (t.levels_restored) t.levels_restored->add(steps_done);
    set_progress();
    current = std::move(values);
    next_level = restored_level;
    tree.resize(std::max<std::size_t>(next_level, 1));
  } else if (depth == 1) {
    current.push_back(TreeInt(1));  // (P / n) mod n with P = n
  }

  for (std::size_t level = next_level; level-- > 0;) {
    std::vector<TreeInt> next;
    const Kind kind = kind_of(level);
    {
      obs::ScopedSpan level_span(t.level_seconds);
      obs::TraceSpan tspan(trace.rec, trace.remainder_id);
      const auto& nodes = tree[level];
      next.resize(nodes.size());
      auto& pool = global_pool();
      if (level == first_descent && scaled) {
        // The entry: P / N_x is x's sibling (if any) times x's uncle, the
        // other child of the root.
        const auto& roots = tree[top];
        pool.parallel_for(0, nodes.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const TreeInt& uncle = roots[(i / 2) ^ 1];
            const TreeInt one(1);
            const TreeInt& sibling = (i ^ 1) < nodes.size() ? nodes[i ^ 1] : one;
            next[i] = entry_fraction(nodes[i], uncle, sibling, precision[level][i]);
          }
        });
      } else if (level == first_descent) {
        // The root's children, from s_root = (P / P) mod P = 1.
        pool.parallel_for(0, 2, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            next[i] = cofactor_step(TreeInt(1), nodes[i], nodes[i ^ 1]);
          }
        });
      } else if (kind_of(level + 1) == Kind::kFractions) {
        // One scaled step per parent; at the exit, each child's fraction
        // is rounded to its residue.
        const std::uint64_t ulps = fraction_ulps(first_descent - level);
        pool.parallel_for(0, current.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t v = lo; v < hi; ++v) {
            const std::size_t c = 2 * v;
            const bool promoted = c + 1 == nodes.size();
            if (promoted) {
              // The node is its parent, and shares its fraction.
              next[c] = current[v];
            } else {
              std::tie(next[c], next[c + 1]) =
                  scaled_step(current[v], precision[level + 1][v], nodes[c],
                              precision[level][c], nodes[c + 1], precision[level][c + 1]);
            }
            if (kind == Kind::kFractions) continue;
            for (std::size_t i = c; i < c + (promoted ? 1 : 2); ++i) {
              auto residue = fraction_residue(next[i], precision[level][i], nodes[i], ulps);
              if (!residue) {
                throw std::runtime_error(
                    "batch descent: a fraction is outside its error bound");
              }
              next[i] = std::move(*residue);
            }
          }
        });
      } else {
        pool.parallel_for(0, nodes.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            // A node promoted from an odd-count level equals its parent, so
            // it shares the parent's cofactor residue.
            const bool promoted = i % 2 == 0 && i + 1 == nodes.size();
            const TreeInt& parent = current[i / 2];
            next[i] = promoted ? parent : cofactor_step(parent, nodes[i], nodes[i ^ 1]);
          }
        });
      }
      tspan.set_args(level, next.size());
    }
    // The writer may still be reading the values this step replaces, or
    // the product level it frees.
    settle();
    current = std::move(next);
    tree.resize(std::max<std::size_t>(level, 1));
    if (t.remainder_nodes) t.remainder_nodes->add(current.size());
    if (commit(kind, level, current)) return stopped();
  }

  // ---- final gcds ---------------------------------------------------------
  std::vector<TreeInt> gcds(moduli.size());
  std::size_t weak = 0;
  {
    obs::ScopedSpan level_span(t.level_seconds);
    obs::TraceSpan tspan(trace.rec, trace.gcds_id);
    const auto& leaves = tree[0];
    global_pool().parallel_for(0, moduli.size(), [&](std::size_t lo,
                                                     std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        // current[i] = (P / n_i) mod n_i.
        gcds[i] = gcd::gcd_general(leaves[i], current[i],
                                   gcd::Variant::kDivsteps);
      }
    });
    report.result.gcds = repack_all<std::uint32_t>(gcds);
    for (const auto& g : report.result.gcds) {
      if (g > mp::BigInt(1)) ++weak;
    }
    tspan.set_args(moduli.size(), weak);
  }
  // The completion record follows every level record, synchronously.
  settle();
  if (journal) journal->append_gcds(gcds);
  if (t.gcds) t.gcds->add(moduli.size());
  if (t.weak) t.weak->add(weak);
  committed_level();  // the last level: the stop threshold no longer matters

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
