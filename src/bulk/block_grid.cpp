#include "bulk/block_grid.hpp"

#include <algorithm>
#include <cmath>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bulkgcd::bulk {

namespace {

/// Execute a panel-refreshed batch to completion: lane-serial run_staged()
/// on the staged engine, the W-lane run() on the vector engine.
void run_lanes(SimtBatch<ScanLimb, ColumnMatrix>& batch, gcd::Variant variant) {
  batch.run_staged(variant);
}
void run_lanes(VecBatchBase& batch, gcd::Variant variant) {
  batch.run(variant);
}

}  // namespace

void fold_engine_stats(obs::MetricsRegistry* metrics, const SimtStats& simt,
                       const gcd::GcdStats& scalar) {
  if (!metrics) return;
  metrics->counter("simt_rounds_total")->add(simt.rounds);
  metrics->counter("simt_warp_rounds_total")->add(simt.warp_rounds);
  metrics->counter("simt_lane_iterations_total")->add(simt.lane_iterations);
  metrics->counter("simt_branch_slots_total")->add(simt.branch_slots);
  metrics->counter("simt_divergent_warp_rounds_total")
      ->add(simt.divergent_warp_rounds);
  metrics->counter("simt_active_lane_slots_total")
      ->add(simt.active_lane_slots);
  metrics->counter("simt_lane_slots_total")->add(simt.lane_slots);
  metrics->counter("gcd_iterations_total")
      ->add(simt.gcd.iterations + scalar.iterations);
  metrics->counter("gcd_swaps_total")->add(simt.gcd.swaps + scalar.swaps);
  metrics->counter("gcd_beta_nonzero_total")
      ->add(simt.gcd.beta_nonzero + scalar.beta_nonzero);
}

BlockGrid::Block BlockGrid::block(std::size_t index) const noexcept {
  // Row i starts at offset(i) = i·g − i·(i−1)/2. Invert with the quadratic
  // formula in double precision, then fix up (the sqrt can be off by one
  // ulp for huge grids).
  const double g = double(groups);
  const double t = double(index);
  std::size_t i = std::size_t(
      std::max(0.0, std::floor(g + 0.5 - std::sqrt((g + 0.5) * (g + 0.5) -
                                                   2.0 * t))));
  auto offset = [this](std::size_t row) {
    return row * groups - row * (row - 1) / 2;
  };
  while (i > 0 && offset(i) > index) --i;
  while (i + 1 < groups && offset(i + 1) <= index) ++i;
  return {i, i + (index - offset(i))};
}

std::uint64_t BlockGrid::pairs_in_block(Block b) const noexcept {
  const std::uint64_t ni = group_size(b.i);
  if (b.i == b.j) return ni * (ni - 1) / 2;
  return ni * std::uint64_t(group_size(b.j));
}

std::uint64_t BlockGrid::pairs_in_range(std::size_t lo,
                                        std::size_t hi) const noexcept {
  std::uint64_t pairs = 0;
  for (std::size_t b = lo; b < hi; ++b) pairs += pairs_in_block(block(b));
  return pairs;
}

BlockSweeper::BlockSweeper(const StagedCorpus& corpus,
                           const AllPairsConfig& config,
                           std::size_t capacity_limbs)
    : corpus_(&corpus),
      grid_(corpus.size(), corpus.group_size()),
      config_(config) {
  config_.engine = resolve_engine(config.engine);
  const std::size_t lanes = corpus.group_size();
  switch (config_.engine) {
    case Engine::kVector:
      vec_ = make_vec_batch(lanes, capacity_limbs, config.warp_width);
      break;
    case Engine::kStaged:
      staged_ = std::make_unique<SimtBatch<ScanLimb, ColumnMatrix>>(
          lanes, capacity_limbs, config.warp_width);
      break;
    default:
      scalar_ = std::make_unique<gcd::GcdEngine<ScanLimb>>(capacity_limbs);
      break;
  }
  if (config.metrics != nullptr) {
    obs::MetricsRegistry* m = config.metrics;
    tele_ = std::make_unique<Telemetry>();
    tele_->blocks = m->counter("sweep_blocks_total");
    tele_->pairs = m->counter("sweep_pairs_total");
    tele_->hits = m->counter("sweep_hits_total");
    tele_->full_modulus_hits = m->counter("sweep_full_modulus_hits_total");
    tele_->early_coprime = m->counter("sweep_early_coprime_total");
    tele_->iterations_per_pair_target =
        m->histogram("sweep_iterations_per_pair", 0.0, 4096.0, 128);
    tele_->panel_load_target =
        m->histogram("sweep_panel_load_seconds", 0.0, 1e-3, 100);
    tele_->lane_exec_target =
        m->histogram("sweep_lane_exec_seconds", 0.0, 1e-2, 100);
    tele_->verify_target =
        m->histogram("sweep_verify_seconds", 0.0, 1e-3, 100);
    tele_->iterations_per_pair =
        obs::LocalHistogram(*tele_->iterations_per_pair_target);
    tele_->panel_load_seconds = obs::LocalHistogram(*tele_->panel_load_target);
    tele_->lane_exec_seconds = obs::LocalHistogram(*tele_->lane_exec_target);
    tele_->verify_seconds = obs::LocalHistogram(*tele_->verify_target);
  }
  if (config.trace != nullptr) {
    trace_ = std::make_unique<TraceHandles>();
    trace_->rec = config.trace;
    trace_->panel_load = config.trace->intern("panel_load");
    trace_->lane_exec = config.trace->intern("lane_exec");
    config.trace->set_arg_names(trace_->panel_load, "gi", "gj", "round");
    config.trace->set_arg_names(trace_->lane_exec, "gi", "gj", "round");
  }
}

void BlockSweeper::round(std::size_t g, std::size_t y_index,
                         std::span<const ScanLimb> y, std::size_t y_bits,
                         std::size_t k_end) {
  const std::size_t r = corpus_->group_size();
  const std::size_t base = g * r;
  // Section V: the early-terminate threshold is a property of each pair.
  auto early_bits = [&](std::size_t k) {
    return config_.early_terminate
               ? std::min(corpus_->bits(base + k), y_bits) / 2
               : 0;
  };
  auto record = [&](std::size_t k, mp::BigInt gcd) {
    // gcd > 1 ⟺ at least two bits.
    if (gcd.bit_length() < 2) return;
    const auto gl = gcd.limbs();
    const bool full = std::ranges::equal(gl, corpus_->limbs(base + k)) ||
                      std::ranges::equal(gl, y);
    if (full) ++full_modulus_hits_;
    out_.hits.push_back({base + k, y_index, std::move(gcd), full});
  };
  obs::TraceRecorder* rec = trace_ ? trace_->rec : nullptr;
  out_.pairs += k_end;

  if (scalar_) {
    obs::ScopedLocalSpan exec_span(tele_ ? &tele_->lane_exec_seconds : nullptr);
    obs::TraceSpan exec_tspan(rec, trace_ ? trace_->lane_exec : 0);
    exec_tspan.set_args(g, y_index / r, y_index);
    for (std::size_t k = 0; k < k_end; ++k) {
      const std::uint64_t iters_before = out_.scalar.iterations;
      const auto run = scalar_->run(config_.variant, corpus_->limbs(base + k),
                                    y, early_bits(k), &out_.scalar);
      if (tele_) {
        tele_->iterations_per_pair.observe(
            double(out_.scalar.iterations - iters_before));
      }
      if (run.early_coprime) {
        ++early_coprime_;
      } else {
        record(k, mp::BigInt::from_limbs(run.gcd));
      }
    }
    return;
  }

  // Generic over the executing batch (SimtBatch or a VecBatchBase): the
  // refresh, masking and verification are engine-invariant.
  auto simt_round = [&](auto& eng) {
    {
      // One contiguous copy of the group-g panel + one broadcast of Y
      // replaces k_end strided loads with their normalization scans.
      obs::ScopedLocalSpan panel_span(
          tele_ ? &tele_->panel_load_seconds : nullptr);
      obs::TraceSpan panel_tspan(rec, trace_ ? trace_->panel_load : 0);
      panel_tspan.set_args(g, y_index / r, y_index);
      const auto& panels = corpus_->panels();
      eng.load_panel(panels.panel(g), panels.sizes(g), panels.rows(g));
      eng.broadcast_y(y);
      for (std::size_t k = 0; k < k_end; ++k) {
        eng.reset_lane_state(k, early_bits(k));
      }
      for (std::size_t k = k_end; k < r; ++k) eng.disable(k);
    }
    {
      obs::ScopedLocalSpan exec_span(
          tele_ ? &tele_->lane_exec_seconds : nullptr);
      obs::TraceSpan exec_tspan(rec, trace_ ? trace_->lane_exec : 0);
      exec_tspan.set_args(g, y_index / r, y_index);
      run_lanes(eng, config_.variant);
    }
    obs::ScopedLocalSpan verify_span(tele_ ? &tele_->verify_seconds : nullptr);
    for (std::size_t k = 0; k < k_end; ++k) {
      if (eng.early_coprime(k)) {
        ++early_coprime_;
      } else {
        record(k, eng.gcd_of(k));
      }
    }
    // Per-pair iteration counts come for free from the branch traces.
    if (tele_) {
      for (std::size_t k = 0; k < k_end; ++k) {
        tele_->iterations_per_pair.observe(double(eng.lane_iterations(k)));
      }
    }
  };
  if (vec_) {
    simt_round(*vec_);
  } else {
    simt_round(*staged_);
  }
}

void BlockSweeper::run_block(std::size_t block_index) {
  const auto [i, j] = grid_.block(block_index);
  const std::size_t i_count = grid_.group_size(i);
  const std::size_t j_begin = j * grid_.r;
  const std::size_t j_end = j_begin + grid_.group_size(j);

  // Block-local telemetry tallies, flushed into the sharded counters once
  // per block (a handful of adds) so the pair loops stay increment-free.
  const std::uint64_t pairs_before = out_.pairs;
  const std::size_t hits_before = out_.hits.size();
  early_coprime_ = 0;
  full_modulus_hits_ = 0;

  for (std::size_t jj = j_begin; jj < j_end; ++jj) {
    // Lanes: group-i members paired against n_jj this round. For the
    // diagonal block only k < u is live (each unordered pair once).
    const std::size_t k_end =
        i == j ? std::min(jj - j_begin, i_count) : i_count;
    if (k_end > 0) round(i, jj, corpus_->limbs(jj), corpus_->bits(jj), k_end);
  }

  if (tele_) {
    tele_->blocks->inc();
    tele_->pairs->add(out_.pairs - pairs_before);
    tele_->hits->add(out_.hits.size() - hits_before);
    tele_->full_modulus_hits->add(full_modulus_hits_);
    tele_->early_coprime->add(early_coprime_);
  }
}

void BlockSweeper::run_probe_block(std::size_t g, std::span<const ScanLimb> y,
                                   std::size_t y_bits) {
  const std::size_t r = corpus_->group_size();
  round(g, corpus_->size(), y, y_bits, std::min(r, corpus_->size() - g * r));
}

BlockSweeper::Output BlockSweeper::take() {
  if (vec_) {
    out_.simt = vec_->stats();
    vec_->reset_stats();
  } else if (staged_) {
    out_.simt = staged_->stats();
    staged_->reset_stats();
  }
  if (tele_) {
    tele_->iterations_per_pair_target->merge(tele_->iterations_per_pair);
    tele_->panel_load_target->merge(tele_->panel_load_seconds);
    tele_->lane_exec_target->merge(tele_->lane_exec_seconds);
    tele_->verify_target->merge(tele_->verify_seconds);
    tele_->iterations_per_pair.reset();
    tele_->panel_load_seconds.reset();
    tele_->lane_exec_seconds.reset();
    tele_->verify_seconds.reset();
  }
  Output result = std::move(out_);
  out_ = Output{};
  return result;
}

}  // namespace bulkgcd::bulk
