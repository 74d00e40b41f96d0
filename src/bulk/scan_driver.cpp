#include "bulk/scan_driver.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "bulk/block_grid.hpp"
#include "bulk/tile_scheduler.hpp"
#include "core/record_log.hpp"
#include "core/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rsa/keystore.hpp"

namespace bulkgcd::bulk {

namespace {

/// Driver-level metric handles (docs/OBSERVABILITY.md). All null when the
/// scan runs without a registry; every use is guarded by a single branch.
/// scan_pairs_total / scan_hits_total count *committed* work including
/// checkpoint-restored chunks, so at the end of a run they exactly equal
/// the final ScanReport's pairs_tested and hit count.
struct DriverTelemetry {
  obs::Counter* chunks_committed = nullptr;
  obs::Counter* chunks_restored = nullptr;
  obs::Counter* chunks_retried = nullptr;
  obs::Counter* chunks_quarantined = nullptr;
  obs::Counter* pairs = nullptr;
  obs::Counter* pairs_restored = nullptr;
  obs::Counter* hits = nullptr;
  obs::HistogramMetric* chunk_seconds = nullptr;
  obs::HistogramMetric* fsync_seconds = nullptr;
  obs::Gauge* pairs_per_second = nullptr;
  obs::Gauge* blocks_per_second = nullptr;
  obs::Gauge* progress_ratio = nullptr;
  obs::Gauge* eta_seconds = nullptr;

  static DriverTelemetry resolve(obs::MetricsRegistry* m) {
    DriverTelemetry t;
    if (!m) return t;
    t.chunks_committed = m->counter("scan_chunks_committed_total");
    t.chunks_restored = m->counter("scan_chunks_restored_total");
    t.chunks_retried = m->counter("scan_chunks_retried_total");
    t.chunks_quarantined = m->counter("scan_chunks_quarantined_total");
    t.pairs = m->counter("scan_pairs_total");
    t.pairs_restored = m->counter("scan_pairs_restored_total");
    t.hits = m->counter("scan_hits_total");
    t.chunk_seconds = m->histogram("scan_chunk_seconds", 0.0, 30.0, 120);
    t.fsync_seconds =
        m->histogram("scan_checkpoint_fsync_seconds", 0.0, 0.1, 100);
    t.pairs_per_second = m->gauge("scan_pairs_per_second");
    t.blocks_per_second = m->gauge("scan_blocks_per_second");
    t.progress_ratio = m->gauge("scan_progress_ratio");
    t.eta_seconds = m->gauge("scan_eta_seconds");
    return t;
  }
};

/// Driver-level trace handles (obs/trace.hpp), resolved once per scan like
/// DriverTelemetry. Null recorder ⇒ every site is one never-taken branch.
struct DriverTrace {
  obs::TraceRecorder* rec = nullptr;
  std::uint32_t chunk_id = 0;
  std::uint32_t commit_id = 0;
  std::uint32_t fsync_id = 0;

  static DriverTrace resolve(obs::TraceRecorder* rec) {
    DriverTrace t;
    t.rec = rec;
    if (rec == nullptr) return t;
    t.chunk_id = rec->intern("chunk");
    t.commit_id = rec->intern("commit");
    t.fsync_id = rec->intern("journal_fsync");
    rec->set_arg_names(t.chunk_id, "chunk", "lo", "blocks");
    rec->set_arg_names(t.commit_id, "chunk", "quarantined", "hits");
    rec->set_arg_names(t.fsync_id, "", "", "");
    return t;
  }
};

// ---- checkpoint codec (docs/SCAN_DRIVER.md) --------------------------------
// The file discipline (header, torn tail, fsync cadence) is core/record_log's;
// this is the scan's identity and its two record kinds. Records are keyed by
// chunk index, never by file position, because chunks commit out of order.

constexpr std::string_view kMagic = "BGCDCKP1";
constexpr std::uint8_t kRecordChunk = 1;
constexpr std::uint8_t kRecordQuarantine = 2;

void put_gcd_stats(core::ByteWriter& w, const gcd::GcdStats& s) {
  w.u64(s.iterations);
  w.u64(s.swaps);
  w.u64(s.beta_nonzero);
  w.u64(s.divisions);
  for (const auto c : s.approx_cases) w.u64(c);
}

bool get_gcd_stats(core::ByteReader& r, gcd::GcdStats& s) {
  if (!r.u64(s.iterations) || !r.u64(s.swaps) || !r.u64(s.beta_nonzero) ||
      !r.u64(s.divisions)) {
    return false;
  }
  for (auto& c : s.approx_cases) {
    if (!r.u64(c)) return false;
  }
  return true;
}

void put_simt_stats(core::ByteWriter& w, const SimtStats& s) {
  w.u64(s.rounds);
  w.u64(s.warp_rounds);
  w.u64(s.lane_iterations);
  w.u64(s.branch_slots);
  w.u64(s.divergent_warp_rounds);
  w.u64(s.active_lane_slots);
  w.u64(s.lane_slots);
  put_gcd_stats(w, s.gcd);
}

bool get_simt_stats(core::ByteReader& r, SimtStats& s) {
  return r.u64(s.rounds) && r.u64(s.warp_rounds) && r.u64(s.lane_iterations) &&
         r.u64(s.branch_slots) && r.u64(s.divergent_warp_rounds) &&
         r.u64(s.active_lane_slots) && r.u64(s.lane_slots) &&
         get_gcd_stats(r, s.gcd);
}

/// Everything the driver needs to know about the corpus + config to decide
/// whether a checkpoint is resumable against it.
struct JournalIdentity {
  std::uint64_t digest = 0;
  std::uint64_t m = 0;
  std::uint64_t group_size = 0;
  std::uint64_t chunk_blocks = 0;
  std::uint64_t chunks_total = 0;
  std::uint32_t engine = 0;
  std::uint32_t variant = 0;
  std::uint32_t early_terminate = 0;

  std::string serialize() const {
    core::ByteWriter w;
    w.u64(digest);
    w.u64(m);
    w.u64(group_size);
    w.u64(chunk_blocks);
    w.u64(chunks_total);
    w.u32(engine);
    w.u32(variant);
    w.u32(early_terminate);
    w.u32(0);  // reserved
    return w.str();
  }

  /// The identity a checkpoint header records.
  static JournalIdentity parse(std::string_view stored) {
    core::ByteReader r(stored);
    JournalIdentity got;
    r.u64(got.digest);
    r.u64(got.m);
    r.u64(got.group_size);
    r.u64(got.chunk_blocks);
    r.u64(got.chunks_total);
    r.u32(got.engine);
    r.u32(got.variant);
    r.u32(got.early_terminate);
    return got;
  }

  /// Chunks of `blocks` blocks each (at least 1) over total_blocks.
  void set_chunk_blocks(std::uint64_t blocks, std::uint64_t total_blocks) {
    chunk_blocks = std::max<std::uint64_t>(1, blocks);
    chunks_total = (total_blocks + chunk_blocks - 1) / chunk_blocks;
  }

  /// Why a checkpoint carrying `stored` cannot resume this scan, naming
  /// every field that differs; empty when it can resume.
  std::string mismatch(std::string_view stored) const {
    const JournalIdentity got = parse(stored);
    if (got.digest != digest || got.m != m) {
      return "corpus digest mismatch (different moduli list)";
    }
    std::string diff;
    const auto field = [&diff](const char* name, const std::string& was,
                               const std::string& now) {
      if (was == now) return;
      diff += diff.empty() ? "" : ", ";
      diff += std::string(name) + " (checkpoint " + was + ", this scan " +
              now + ")";
    };
    const auto engine_name = [](std::uint32_t e) {
      return std::string(e == 0 ? "scalar" : "SIMT");
    };
    const auto variant_name = [](std::uint32_t v) {
      return v <= std::uint32_t(gcd::Variant::kDivsteps)
                 ? std::string(to_string(gcd::Variant(v)))
                 : std::to_string(v);
    };
    const auto on_off = [](std::uint32_t b) {
      return std::string(b ? "on" : "off");
    };
    field("group size", std::to_string(got.group_size),
          std::to_string(group_size));
    field("chunk blocks", std::to_string(got.chunk_blocks),
          std::to_string(chunk_blocks));
    field("chunk count", std::to_string(got.chunks_total),
          std::to_string(chunks_total));
    field("engine", engine_name(got.engine), engine_name(engine));
    field("variant", variant_name(got.variant), variant_name(variant));
    field("early termination", on_off(got.early_terminate),
          on_off(early_terminate));
    return diff.empty() ? diff : "scan configuration mismatch: " + diff;
  }
};

/// The per-chunk unit of work as produced by a worker and journaled on
/// commit.
struct ChunkOutcome {
  std::size_t chunk_index = 0;
  bool quarantined = false;
  std::string error;  // set when quarantined
  std::vector<FactorHit> hits;
  std::uint64_t pairs = 0;
  SimtStats simt;
  gcd::GcdStats scalar;
};

std::string serialize_outcome(const ChunkOutcome& o) {
  core::ByteWriter w;
  if (o.quarantined) {
    w.u8(kRecordQuarantine);
    w.u64(o.chunk_index);
    w.u32(std::uint32_t(o.error.size()));
    w.bytes(o.error);
    return w.str();
  }
  w.u8(kRecordChunk);
  w.u64(o.chunk_index);
  w.u64(o.pairs);
  put_simt_stats(w, o.simt);
  put_gcd_stats(w, o.scalar);
  w.u32(std::uint32_t(o.hits.size()));
  for (const auto& hit : o.hits) {
    w.u64(hit.i);
    w.u64(hit.j);
    w.bigint_limbs(hit.factor);
  }
  return w.str();
}

/// State reconstructed from a valid checkpoint journal.
struct RestoredState {
  std::vector<std::uint8_t> committed;  // per chunk: committed OK
  std::vector<std::uint8_t> handled;    // committed OK or quarantined
  std::vector<FactorHit> hits;
  std::vector<QuarantinedChunk> quarantined;
  std::uint64_t pairs = 0;
  std::uint64_t chunks_committed = 0;
  SimtStats simt;
  gcd::GcdStats scalar;

  /// Decode and apply one record; false (state untouched) on a torn or
  /// corrupt one.
  bool apply(core::ByteReader& r) {
    std::uint8_t kind = 0;
    std::uint64_t chunk = 0;
    if (!r.u8(kind) || !r.u64(chunk)) return false;
    if (chunk >= handled.size()) return false;  // corrupt record: stop here
    if (kind == kRecordChunk) {
      std::uint64_t rec_pairs = 0;
      SimtStats rec_simt;
      gcd::GcdStats rec_scalar;
      std::uint32_t nhits = 0;
      // A hit costs at least i, j and a limb count: 20 bytes.
      if (!r.u64(rec_pairs) || !get_simt_stats(r, rec_simt) ||
          !get_gcd_stats(r, rec_scalar) || !r.u32(nhits) ||
          !r.fits(nhits, 20)) {
        return false;
      }
      std::vector<FactorHit> rec_hits(nhits);
      for (auto& hit : rec_hits) {
        if (!r.u64(hit.i) || !r.u64(hit.j) || !r.bigint_limbs(hit.factor)) {
          return false;
        }
      }
      if (!handled[chunk]) {  // tolerate duplicates defensively
        committed[chunk] = handled[chunk] = 1;
        ++chunks_committed;
        pairs += rec_pairs;
        simt += rec_simt;
        scalar += rec_scalar;
        hits.insert(hits.end(), std::make_move_iterator(rec_hits.begin()),
                    std::make_move_iterator(rec_hits.end()));
      }
      return true;
    }
    if (kind == kRecordQuarantine) {
      std::uint32_t len = 0;
      std::string error;
      if (!r.u32(len) || !r.bytes(len, error)) return false;
      if (!handled[chunk]) {
        handled[chunk] = 1;
        quarantined.push_back({std::size_t(chunk), std::move(error)});
      }
      return true;
    }
    return false;  // unknown record kind: treat as corruption, drop the tail
  }
};

}  // namespace

// ---- StreamProgressSink ---------------------------------------------------

void StreamProgressSink::on_progress(const ScanProgress& p) {
  const double pct =
      p.pairs_total == 0 ? 100.0
                         : 100.0 * double(p.pairs_done) / double(p.pairs_total);
  // No throughput yet (first record of a run, or a pure-restore invocation
  // that committed nothing): the ETA is unknown, not zero seconds.
  char eta[32];
  if (p.pairs_per_second > 0.0 && std::isfinite(p.eta_seconds)) {
    std::snprintf(eta, sizeof(eta), "%.0fs", p.eta_seconds);
  } else {
    std::snprintf(eta, sizeof(eta), "--");
  }
  std::fprintf(out_,
               "[scan] chunks %llu/%llu  pairs %llu/%llu (%5.1f%%)  "
               "%.0f pairs/s  %.2f blocks/s  hits %llu  quarantined %llu  "
               "eta %s\n",
               (unsigned long long)p.chunks_done,
               (unsigned long long)p.chunks_total,
               (unsigned long long)p.pairs_done,
               (unsigned long long)p.pairs_total, pct, p.pairs_per_second,
               p.blocks_per_second, (unsigned long long)p.hits,
               (unsigned long long)p.quarantined, eta);
  std::fflush(out_);
}

void StreamProgressSink::on_hit(const FactorHit& hit) {
  std::fprintf(out_, "[hit] keys %zu and %zu share a %zu-bit prime\n", hit.i,
               hit.j, hit.factor.bit_length());
  std::fflush(out_);
}

void StreamProgressSink::on_quarantine(std::size_t chunk_index,
                                       const std::string& error) {
  std::fprintf(out_, "[quarantine] chunk %zu failed twice: %s\n", chunk_index,
               error.c_str());
  std::fflush(out_);
}

// ---- the driver -----------------------------------------------------------

std::size_t auto_chunk_blocks(std::size_t blocks, std::size_t workers) {
  const std::size_t pieces = ThreadPool::kPiecesPerWorker * std::max<std::size_t>(1, workers);
  return std::clamp<std::size_t>((blocks + pieces - 1) / pieces, 1, kMaxAutoChunkBlocks);
}

ScanReport run_resumable_scan(std::span<const mp::BigInt> moduli,
                              const ScanConfig& config) {
  ScanReport report;
  Timer timer;
  const std::size_t m = moduli.size();
  if (m < 2) {
    report.complete = true;
    return report;
  }

  // Resolve the engine once for the whole scan (CPU probe).
  AllPairsConfig pairs_cfg = config.pairs;
  pairs_cfg.engine = resolve_engine(pairs_cfg.engine);

  // Stage the corpus once for the whole scan.
  const BlockGrid grid(m, pairs_cfg.group_size);
  const StagedCorpus corpus(moduli, grid.r);
  const std::size_t cap = corpus.max_limbs();
  const std::size_t total_blocks = grid.block_count();
  SweepExecutor exec(pairs_cfg.pool_threads);

  DriverTelemetry tele = DriverTelemetry::resolve(config.pairs.metrics);
  const DriverTrace dtr = DriverTrace::resolve(pairs_cfg.trace);
  if (dtr.rec != nullptr) dtr.rec->set_thread_name("driver");

  JournalIdentity identity;
  identity.digest = rsa::corpus_digest(moduli);
  identity.m = m;
  identity.group_size = grid.r;
  identity.set_chunk_blocks(config.chunk_blocks != 0
                                ? config.chunk_blocks
                                : auto_chunk_blocks(total_blocks, exec.workers),
                            total_blocks);
  // The identity records only scalar (0) vs SIMT (1): the vector and staged
  // engines produce bit-identical hits and SimtStats, so a checkpoint
  // written under one resumes under the other — and under the 0/1 values
  // of journals that predate the single engine knob.
  identity.engine = pairs_cfg.engine == Engine::kScalar ? 0 : 1;
  identity.variant = std::uint32_t(config.pairs.variant);
  identity.early_terminate = config.pairs.early_terminate ? 1 : 0;

  // ---- restore ------------------------------------------------------------
  RestoredState state;
  std::optional<core::RecordLog> journal;
  if (!config.checkpoint.empty()) {
    journal.emplace(config.checkpoint, kMagic, "scan checkpoint",
                    config.fsync_every, tele.fsync_seconds, dtr.rec,
                    dtr.fsync_id);
    const std::string header = identity.serialize();
    if (const auto stored = journal->open(header)) {
      // A derived chunk size holds for a fresh scan only: a checkpoint of
      // this scan resumes at the size it was cut at, whatever the workers.
      if (config.chunk_blocks == 0) {
        JournalIdentity adopted = identity;
        adopted.set_chunk_blocks(JournalIdentity::parse(*stored).chunk_blocks,
                                 total_blocks);
        if (adopted.mismatch(*stored).empty()) identity = adopted;
      }
      if (const std::string why = identity.mismatch(*stored); why.empty()) {
        state.committed.assign(identity.chunks_total, 0);
        state.handled.assign(identity.chunks_total, 0);
        journal->replay([&](core::ByteReader& r) { return state.apply(r); });
        report.resumed = state.chunks_committed > 0 ||
                         !state.quarantined.empty();
      } else if (config.discard_mismatched_checkpoint) {
        journal->create(header);
      } else {
        throw std::runtime_error("scan_driver: checkpoint " +
                                 config.checkpoint.string() +
                                 " is not resumable for this scan: " + why);
      }
    }
  }

  const std::size_t chunk_blocks = identity.chunk_blocks;
  const std::size_t chunks_total = identity.chunks_total;
  report.chunks_total = chunks_total;
  state.committed.resize(chunks_total, 0);
  state.handled.resize(chunks_total, 0);
  auto chunk_range = [&](std::size_t chunk) {
    const std::size_t lo = chunk * chunk_blocks;
    return std::pair(lo, std::min(lo + chunk_blocks, total_blocks));
  };

  // Checkpoint-restored work counts as committed, so the scan_* counters
  // end the run exactly equal to the final report even after a resume.
  if (state.chunks_committed > 0 || !state.quarantined.empty()) {
    if (tele.chunks_restored) {
      tele.chunks_restored->add(state.chunks_committed);
      tele.chunks_committed->add(state.chunks_committed);
      tele.chunks_quarantined->add(state.quarantined.size());
      tele.pairs->add(state.pairs);
      tele.pairs_restored->add(state.pairs);
      tele.hits->add(state.hits.size());
    }
    fold_engine_stats(config.pairs.metrics, state.simt, state.scalar);
  }

  // ---- aggregation seeded from the checkpoint -----------------------------
  AllPairsResult& agg = report.result;
  agg.input_bytes = std::uint64_t(m) * cap * sizeof(ScanLimb);
  agg.pairs_tested = state.pairs;
  agg.simt = state.simt;
  agg.scalar = state.scalar;
  agg.hits = std::move(state.hits);
  // The journal doesn't persist full_modulus — it's derivable, and older
  // checkpoints predate the flag — so recompute it for restored hits.
  for (auto& hit : agg.hits) {
    hit.full_modulus = hit.i < m && hit.j < m &&
                       (hit.factor == moduli[hit.i] ||
                        hit.factor == moduli[hit.j]);
  }
  report.quarantined = std::move(state.quarantined);
  report.chunks_done = state.chunks_committed;

  std::uint64_t blocks_done = 0;
  for (std::size_t chunk = 0; chunk < chunks_total; ++chunk) {
    if (state.committed[chunk]) {
      const auto [lo, hi] = chunk_range(chunk);
      blocks_done += hi - lo;
    }
  }
  agg.blocks_run = blocks_done;

  std::vector<std::size_t> pending;
  for (std::size_t chunk = 0; chunk < chunks_total; ++chunk) {
    if (!state.handled[chunk]) pending.push_back(chunk);
  }
  const std::size_t launch_total =
      config.stop_after_chunks == 0
          ? pending.size()
          : std::min(pending.size(), config.stop_after_chunks);

  // ---- worker: process one chunk with retry-with-isolation ----------------
  auto process = [&](std::size_t chunk) {
    ChunkOutcome outcome;
    outcome.chunk_index = chunk;
    const auto [lo, hi] = chunk_range(chunk);
    obs::ScopedSpan chunk_span(tele.chunk_seconds);
    obs::TraceSpan chunk_tspan(dtr.rec, dtr.chunk_id);
    chunk_tspan.set_args(chunk, lo, hi - lo);
    std::string first_error;
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        if (attempt == 1 && tele.chunks_retried) tele.chunks_retried->inc();
        if (config.chunk_hook) config.chunk_hook(chunk, attempt);
        AllPairsConfig pairs_config = pairs_cfg;
        // Retry runs on the scalar engine: the simplest code path, isolated
        // from whatever state the first attempt died in.
        if (attempt == 1) pairs_config.engine = Engine::kScalar;
        BlockSweeper sweeper(corpus, pairs_config, cap);
        sweeper.run_blocks(lo, hi);
        auto out = sweeper.take();
        outcome.hits = std::move(out.hits);
        outcome.pairs = out.pairs;
        outcome.simt = out.simt;
        outcome.scalar = out.scalar;
        return outcome;
      } catch (const std::exception& e) {
        if (attempt == 0) {
          first_error = e.what();
        } else {
          outcome.quarantined = true;
          outcome.error = "attempt 1 (" + std::string(to_string(
                              config.pairs.variant)) + "): " + first_error +
                          "; scalar retry: " + e.what();
        }
      } catch (...) {
        if (attempt == 0) {
          first_error = "unknown error";
        } else {
          outcome.quarantined = true;
          outcome.error = first_error + "; scalar retry: unknown error";
        }
      }
    }
    return outcome;
  };

  // ---- commit path (driver thread only) -----------------------------------
  std::uint64_t pairs_this_run = 0;
  std::uint64_t blocks_this_run = 0;
  std::uint64_t committed_this_run = 0;

  auto emit_progress = [&] {
    if (!config.sink && !tele.pairs_per_second) return;
    ScanProgress p;
    p.chunks_done = report.chunks_done;
    p.chunks_total = chunks_total;
    p.blocks_done = blocks_done;
    p.blocks_total = total_blocks;
    p.pairs_done = agg.pairs_tested;
    p.pairs_total = grid.total_pairs();
    p.hits = agg.hits.size();
    p.quarantined = report.quarantined.size();
    p.elapsed_seconds = timer.seconds();
    // Rates stay 0 and eta_seconds stays 0 (rendered as "eta --") until this
    // run has committed work over a nonzero interval — a resumed run that
    // restored every chunk, or a first record fired before the clock ticks,
    // must not divide by zero into inf/NaN.
    if (p.elapsed_seconds > 0 && pairs_this_run > 0) {
      const std::uint64_t remaining =
          p.pairs_total > p.pairs_done ? p.pairs_total - p.pairs_done : 0;
      p.pairs_per_second = double(pairs_this_run) / p.elapsed_seconds;
      // Actual committed block count — NOT committed_this_run * chunk_blocks,
      // which overstates the rate (and skews the ETA) whenever the final
      // chunk is shorter than chunk_blocks or a chunk was quarantined.
      p.blocks_per_second = double(blocks_this_run) / p.elapsed_seconds;
      p.eta_seconds = double(remaining) / p.pairs_per_second;
    }
    // The progress pipeline doubles as the gauge feed: every record a sink
    // sees is also visible to metrics scrapes/snapshots.
    if (tele.pairs_per_second) {
      tele.pairs_per_second->set(p.pairs_per_second);
      tele.blocks_per_second->set(p.blocks_per_second);
      tele.progress_ratio->set(
          p.pairs_total == 0 ? 1.0
                             : double(p.pairs_done) / double(p.pairs_total));
      tele.eta_seconds->set(p.eta_seconds);
    }
    if (config.sink) config.sink->on_progress(p);
  };

  auto commit = [&](ChunkOutcome outcome) {
    if (dtr.rec != nullptr) {
      dtr.rec->instant(dtr.commit_id, 0, outcome.chunk_index,
                       outcome.quarantined ? 1 : 0, outcome.hits.size());
    }
    if (journal) journal->append(serialize_outcome(outcome));
    ++committed_this_run;
    if (outcome.quarantined) {
      if (tele.chunks_quarantined) tele.chunks_quarantined->inc();
      if (config.sink) {
        config.sink->on_quarantine(outcome.chunk_index, outcome.error);
      }
      report.quarantined.push_back(
          {outcome.chunk_index, std::move(outcome.error)});
    } else {
      if (tele.chunks_committed) {
        tele.chunks_committed->inc();
        tele.pairs->add(outcome.pairs);
        tele.hits->add(outcome.hits.size());
      }
      fold_engine_stats(config.pairs.metrics, outcome.simt, outcome.scalar);
      ++report.chunks_done;
      ++report.chunks_done_this_run;
      const auto [lo, hi] = chunk_range(outcome.chunk_index);
      blocks_done += hi - lo;
      blocks_this_run += hi - lo;
      agg.blocks_run = blocks_done;
      agg.pairs_tested += outcome.pairs;
      pairs_this_run += outcome.pairs;
      agg.simt += outcome.simt;
      agg.scalar += outcome.scalar;
      if (config.sink) {
        for (const auto& hit : outcome.hits) config.sink->on_hit(hit);
      }
      agg.hits.insert(agg.hits.end(),
                      std::make_move_iterator(outcome.hits.begin()),
                      std::make_move_iterator(outcome.hits.end()));
    }
    if (committed_this_run % std::max<std::size_t>(1, config.progress_every) ==
        0) {
      emit_progress();
    }
  };

  // ---- execution ----------------------------------------------------------
  // Chunks are sharded over the workers through the same work-stealing tile
  // scheduler as the raw sweep, one chunk per scheduler tile: each worker
  // walks its own contiguous run of pending chunks (cache-friendly panel
  // reuse) and steals from a loaded neighbour when it drains. Tiles
  // therefore complete OUT OF ORDER; every outcome flows through the
  // driver-thread commit queue below, so journal records stay whole
  // per-chunk appends (keyed by chunk_index under the corpus-digest header)
  // and the torn-tail recovery rule is untouched — replay indexes records
  // by chunk, never by position.
  if (launch_total > 0) {
    if (exec.pool == nullptr) {
      for (std::size_t k = 0; k < launch_total; ++k) {
        commit(process(pending[k]));
      }
    } else {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<ChunkOutcome> done_queue;

      const TileScheduler sched(launch_total, /*tile_items=*/1, exec.workers);
      // The schedule blocks until every chunk is processed, while commits
      // must keep flowing on this (the driver) thread — run it on a
      // sidecar thread and collect outcomes as they land. process() already
      // converts every failure into a quarantine outcome, so the scheduler
      // body never throws.
      std::thread orchestrator([&] {
        if (dtr.rec != nullptr) dtr.rec->set_thread_name("orchestrator");
        sched.run(
            exec.pool,
            [&](std::size_t, const TileRange& t) {
              for (std::size_t k = t.lo; k < t.hi; ++k) {
                ChunkOutcome outcome = process(pending[k]);
                {
                  std::lock_guard lock(mu);
                  done_queue.push_back(std::move(outcome));
                }
                cv.notify_one();
              }
            },
            dtr.rec);
      });

      std::size_t collected = 0;
      while (collected < launch_total) {
        ChunkOutcome outcome;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return !done_queue.empty(); });
          outcome = std::move(done_queue.front());
          done_queue.pop_front();
        }
        ++collected;
        commit(std::move(outcome));
      }
      orchestrator.join();
    }
  }

  if (journal) journal->flush();

  report.complete =
      report.chunks_done + report.quarantined.size() == chunks_total;
  // Final progress record (covers runs whose commit count isn't a multiple
  // of progress_every, and pure-restore invocations).
  emit_progress();

  agg.seconds = timer.seconds();
  std::sort(agg.hits.begin(), agg.hits.end(),
            [](const FactorHit& a, const FactorHit& b) {
              return std::pair(a.i, a.j) < std::pair(b.i, b.j);
            });
  return report;
}

}  // namespace bulkgcd::bulk
