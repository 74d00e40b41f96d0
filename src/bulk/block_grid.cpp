#include "bulk/block_grid.hpp"

#include <algorithm>
#include <cmath>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bulkgcd::bulk {

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

BlockSweeper::BlockSweeper(const ScanCorpus& corpus, const BlockGrid& grid,
                           const AllPairsConfig& config,
                           std::size_t capacity_limbs,
                           const CorpusPanels<ScanLimb>& panels)
    : corpus_(&corpus), grid_(grid), config_(config), panels_(&panels) {
  config_.engine = resolve_engine(config.engine);
  switch (config_.engine) {
    case Engine::kVector:
      vec_ = make_vec_batch(grid.r, capacity_limbs, config.warp_width);
      break;
    case Engine::kStaged:
      staged_ = std::make_unique<SimtBatch<ScanLimb, ColumnMatrix>>(
          grid.r, capacity_limbs, config.warp_width);
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

template <typename Batch, typename Record>
void BlockSweeper::simt_block_rounds(Batch& eng, std::size_t i,
                                     std::size_t i_begin, std::size_t j,
                                     std::size_t j_begin, std::size_t j_end,
                                     std::size_t i_count, Record&& record,
                                     std::uint64_t& early_coprime) {
  const std::size_t r = grid_.r;
  for (std::size_t jj = j_begin; jj < j_end; ++jj) {
    const std::size_t u = jj - j_begin;
    // Lanes: group-i members paired against n_jj this round. For the
    // diagonal block only k < u is live (each unordered pair once).
    const std::size_t k_end = (i == j) ? std::min(u, i_count) : i_count;
    if (k_end == 0) continue;

    {
      // One contiguous copy of the group-i panel + one broadcast of n_jj
      // replaces k_end strided loads with their normalization scans.
      obs::ScopedLocalSpan panel_span(
          tele_ ? &tele_->panel_load_seconds : nullptr);
      obs::TraceSpan panel_tspan(trace_ ? trace_->rec : nullptr,
                                 trace_ ? trace_->panel_load : 0);
      panel_tspan.set_args(i, j, jj);
      eng.load_panel(panels_->panel(i), panels_->sizes(i), panels_->rows(i));
      eng.broadcast_y(corpus_->limbs(jj));
      for (std::size_t k = 0; k < k_end; ++k) {
        eng.reset_lane_state(k, pair_early_bits(i_begin + k, jj));
      }
      for (std::size_t k = k_end; k < r; ++k) eng.disable(k);
    }
    {
      obs::ScopedLocalSpan exec_span(
          tele_ ? &tele_->lane_exec_seconds : nullptr);
      obs::TraceSpan exec_tspan(trace_ ? trace_->rec : nullptr,
                                trace_ ? trace_->lane_exec : 0);
      exec_tspan.set_args(i, j, jj);
      run_lanes(eng, config_.variant);
    }
    obs::ScopedLocalSpan verify_span(tele_ ? &tele_->verify_seconds : nullptr);
    for (std::size_t k = 0; k < k_end; ++k) {
      ++out_.pairs;
      if (eng.early_coprime(k)) {
        ++early_coprime;
      } else {
        record(i_begin + k, jj, eng.gcd_of(k));
      }
    }
    // Per-pair iteration counts come for free from the branch traces.
    if (tele_) {
      for (std::size_t k = 0; k < k_end; ++k) {
        tele_->iterations_per_pair.observe(double(eng.lane_iterations(k)));
      }
    }
  }
}

void BlockSweeper::run_block(std::size_t block_index) {
  const auto [i, j] = grid_.block(block_index);
  const std::size_t r = grid_.r;
  const std::size_t i_begin = i * r, i_end = std::min(i_begin + r, grid_.m);
  const std::size_t j_begin = j * r, j_end = std::min(j_begin + r, grid_.m);

  // Block-local telemetry tallies, flushed into the sharded counters once
  // per block (a handful of adds) so the pair loops stay increment-free.
  const std::uint64_t pairs_before = out_.pairs;
  const std::size_t hits_before = out_.hits.size();
  std::uint64_t early_coprime = 0;
  std::uint64_t full_modulus_hits = 0;

  auto record = [&](std::size_t a, std::size_t b, mp::BigInt g) {
    // g > 1 ⟺ at least two bits.
    if (g.bit_length() < 2) return;
    const auto gl = g.limbs();
    const bool full =
        std::equal(gl.begin(), gl.end(), corpus_->limbs(a).begin(),
                   corpus_->limbs(a).end()) ||
        std::equal(gl.begin(), gl.end(), corpus_->limbs(b).begin(),
                   corpus_->limbs(b).end());
    if (full) ++full_modulus_hits;
    out_.hits.push_back({a, b, std::move(g), full});
  };

  if (vec_) {
    simt_block_rounds(*vec_, i, i_begin, j, j_begin, j_end, i_end - i_begin,
                      record, early_coprime);
  } else if (staged_) {
    simt_block_rounds(*staged_, i, i_begin, j, j_begin, j_end,
                      i_end - i_begin, record, early_coprime);
  } else {
    for (std::size_t jj = j_begin; jj < j_end; ++jj) {
      const std::size_t u = jj - j_begin;
      const std::size_t k_end =
          (i == j) ? std::min(u, i_end - i_begin) : i_end - i_begin;
      if (k_end == 0) continue;
      obs::ScopedLocalSpan exec_span(
          tele_ ? &tele_->lane_exec_seconds : nullptr);
      obs::TraceSpan exec_tspan(trace_ ? trace_->rec : nullptr,
                                trace_ ? trace_->lane_exec : 0);
      exec_tspan.set_args(i, j, jj);
      for (std::size_t k = 0; k < k_end; ++k) {
        ++out_.pairs;
        const std::uint64_t iters_before = out_.scalar.iterations;
        const auto run = scalar_->run(
            config_.variant, corpus_->limbs(i_begin + k), corpus_->limbs(jj),
            pair_early_bits(i_begin + k, jj), &out_.scalar);
        if (tele_) {
          tele_->iterations_per_pair.observe(
              double(out_.scalar.iterations - iters_before));
        }
        if (run.early_coprime) {
          ++early_coprime;
        } else {
          record(i_begin + k, jj, mp::BigInt::from_limbs(run.gcd));
        }
      }
    }
  }

  if (tele_) {
    tele_->blocks->inc();
    tele_->pairs->add(out_.pairs - pairs_before);
    tele_->hits->add(out_.hits.size() - hits_before);
    tele_->full_modulus_hits->add(full_modulus_hits);
    tele_->early_coprime->add(early_coprime);
  }
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
