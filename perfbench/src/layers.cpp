// Per-layer probes of the traced run, all on a corpus of the running
// workload: mp operations at the tree's top operand sizes, the bulk engine at
// one and at N workers, the staged-corpus probe and append, the engine's
// exact counts against the paper's models, and the cost of attaching an
// obs::MetricsRegistry.
#include <algorithm>
#include <cstdio>

#include "batchgcd/batchgcd.hpp"
#include "bench.hpp"
#include "bulk/allpairs.hpp"
#include "bulk/build_info.hpp"
#include "bulk/staged_corpus.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace bulk = bulkgcd::bulk;

namespace {

/// Table IV: mean iterations per 1024-bit GCD, Approximate Euclidean with
/// early termination.
constexpr double kTable4Iters1024 = 190.3;

template <class F>
double median_time(int reps, F&& f) {
  std::vector<double> times;
  for (int k = 0; k < reps; ++k) {
    const double t0 = now_s();
    f();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

/// One BigInt product at the root's operand size, and one x % (y*y) at the
/// operand sizes of the second descent step, where the dividend is about
/// twice the divisor (the heaviest remainder level of the tree).
void mp_layers(std::span<const BigInt> corpus, Report& r) {
  const auto tree = bulkgcd::batchgcd::build_product_tree(corpus);
  const std::size_t d = tree.size();
  if (d < 3) return;
  const BigInt& a = tree[d - 2][0];
  const BigInt& b = tree[d - 2].size() > 1 ? tree[d - 2][1] : a;
  BigInt sink;
  const double mul = median_time(3, [&] { sink = a * b; });
  const BigInt x = tree[d - 1][0] % (a * a);
  const BigInt& y = tree[d - 3][0];
  const double mod = median_time(3, [&] { sink = x % (y * y); });
  r.set_layer("mp.mul_top_ms", mul * 1e3, "ms");
  r.set_layer("mp.mod_top_ms", mod * 1e3, "ms");
  char line[160];
  std::snprintf(line, sizeof line,
                "mp: mul %zu x %zu bits; mod %zu bits by %zu bits",
                a.bit_length(), b.bit_length(), x.bit_length(),
                2 * y.bit_length());
  r.note(line);
}

bulk::AllPairsResult sweep(std::span<const BigInt> moduli, std::size_t workers,
                           bulkgcd::obs::MetricsRegistry* metrics = nullptr) {
  bulk::AllPairsConfig cfg;
  cfg.pool_threads = workers;
  cfg.metrics = metrics;
  return bulk::all_pairs_gcd(moduli, cfg);
}

void check_sweep(const bulk::AllPairsResult& res, std::span<const BigInt> moduli,
                 std::span<const Planted> truth, const Options& o, Gate& gate) {
  std::vector<PairHit> hits;
  for (const auto& h : res.hits) hits.push_back({h.i, h.j, h.factor});
  check_pair_hits(std::move(hits), moduli, truth, o.inject_fault, gate,
                  "engine sweep");
}

/// Probe and fold, as the intake service does per arrival, against a
/// staged corpus of the intake seed size.
void probe_layers(std::span<const BigInt> corpus, const Options& o, Report& r) {
  const std::size_t extra = std::min<std::size_t>(32, corpus.size() / 4);
  const std::size_t base = std::min(o.sizes.intake_seed, corpus.size() - extra);
  const bulk::AllPairsConfig cfg;  // the service's default probe config
  bulk::StagedCorpus staged(corpus.first(base), cfg.group_size);
  std::vector<double> probe_ms;
  double append_s = 0.0;
  for (std::size_t k = base; k < base + extra; ++k) {
    const double t0 = now_s();
    bulk::probe_incremental(corpus[k], staged, cfg);
    const double t1 = now_s();
    staged.append(corpus[k]);
    append_s += now_s() - t1;
    probe_ms.push_back((t1 - t0) * 1e3);
  }
  r.set_layer("bulk.probe_ms", median(probe_ms), "ms");
  r.set_layer("bulk.stage_append_us", append_s / double(extra) * 1e6, "us");
}

/// Interleaved sweeps with a registry attached and with none, alternating
/// which goes first; reports the median overhead and its quartile spread.
void metrics_overhead(std::span<const BigInt> moduli, const Options& o,
                      Report& r) {
  std::vector<double> pct;
  for (int k = 0; k < 8; ++k) {
    bulkgcd::obs::MetricsRegistry registry;
    double with = 0.0, without = 0.0;
    for (int side = 0; side < 2; ++side) {
      const bool attach = (side == 0) == (k % 2 == 0);
      const double t0 = now_s();
      sweep(moduli, o.workers, attach ? &registry : nullptr);
      (attach ? with : without) = now_s() - t0;
    }
    pct.push_back((with / without - 1.0) * 100.0);
  }
  const double spread = quantile(pct, 0.75) - quantile(pct, 0.25);
  r.set_layer("obs.metrics_overhead_pct", median(pct), "%");
  r.set_layer("obs.metrics_overhead_spread_pct", spread, "%");
  char line[160];
  std::snprintf(line, sizeof line,
                "obs.metrics_overhead_pct = %.3f %% (8 interleaved pairs, "
                "%zu moduli; quartile spread %.3f %%; the gate is 2 %%)",
                median(pct), moduli.size(), spread);
  r.note(line);
}

}  // namespace

void report_counts(const bulk::SimtStats& s, std::uint64_t pairs,
                   const Options& o, Report& r) {
  const double iters = double(s.gcd.iterations);
  const double per_pair = pairs ? iters / double(pairs) : 0.0;
  r.set_layer("gcd.iters_per_pair", per_pair, "iters");
  r.set_layer("gcd.divisions_per_iter",
              iters ? double(s.gcd.divisions) / iters : 0.0, "1/iter");
  r.set_layer("gcd.beta_nonzero", iters ? double(s.gcd.beta_nonzero) / iters : 0.0,
              "1/iter");
  r.set_layer("bulk.serialization_factor", s.serialization_factor(), "ratio");
  r.set_layer("bulk.lane_utilization", s.lane_utilization(), "fraction");
  char line[200];
  if (o.sizes.bits == 1024) {
    std::snprintf(line, sizeof line,
                  "model: gcd.iters_per_pair %.3f vs Table IV %.1f "
                  "(1024-bit, early termination): ratio %.4f [computed count]",
                  per_pair, kTable4Iters1024, per_pair / kTable4Iters1024);
    r.note(line);
  }
}

void engine_layers(std::span<const BigInt> corpus, std::span<const Planted> truth,
                   const Options& o, Report& r, bool with_counts) {
  mp_layers(corpus, r);

  const std::size_t sub = std::min(o.sizes.subset, corpus.size());
  const auto subset = corpus.first(sub);
  const auto sub_truth = truth_within(truth, sub);
  bulk::AllPairsResult one;
  const double t1 = median_time(2, [&] { one = sweep(subset, 1); });
  check_sweep(one, subset, sub_truth, o, r.gate);
  const double tn = median_time(2, [&] { sweep(subset, o.workers); });
  const double pairs = double(one.pairs_tested);
  const double lane_iters = double(one.simt.lane_iterations);
  // The paper's model: 3·s/d word accesses per iteration of an s-bit GCD on
  // d-bit words. Computed from the count, not measured memory traffic.
  const double words_per_iter =
      3.0 * double(o.sizes.bits) / double(bulk::query_build_info().limb_bits);
  r.set_layer("bulk.pairs_per_s_1w", pairs / t1, "pairs/s");
  r.set_layer("bulk.scaling_eff", t1 / (double(o.workers) * tn), "fraction");
  r.set_layer("bulk.ns_per_lane_iter", t1 * 1e9 / lane_iters, "ns");
  r.set_layer("bulk.model_words_per_s", lane_iters * words_per_iter / t1,
              "words/s");
  char line[200];
  std::snprintf(line, sizeof line,
                "model: bulk.model_words_per_s %.4g = lane iterations x "
                "3s/d (%.0f words per iteration) per one-worker engine "
                "second [computed, not measured traffic]",
                lane_iters * words_per_iter / t1, words_per_iter);
  r.note(line);
  if (with_counts) report_counts(one.simt, one.pairs_tested, o, r);

  probe_layers(corpus, o, r);
  metrics_overhead(subset, o, r);
}

}  // namespace perfbench
