#include "bulk/scan_driver.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>  // fsync

#include "bulk/block_grid.hpp"
#include "bulk/tile_scheduler.hpp"
#include "core/thread_pool.hpp"
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

// ---- journal wire format (docs/SCAN_DRIVER.md) ----------------------------
// All integers little-endian. Header is fixed-size; records are appended,
// each complete record committing one chunk. A torn tail (crash mid-write)
// is detected by running out of bytes mid-record and truncated on resume.

constexpr char kMagic[8] = {'B', 'G', 'C', 'D', 'C', 'K', 'P', '1'};
constexpr std::uint8_t kRecordChunk = 1;
constexpr std::uint8_t kRecordQuarantine = 2;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

/// Bounds-checked sequential reader over the journal bytes.
struct Cursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  bool u8(std::uint8_t& v) {
    if (pos + 1 > size) return false;
    v = data[pos++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos + 4 > size) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data[pos++]) << (8 * i);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos + 8 > size) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data[pos++]) << (8 * i);
    return true;
  }
};

void put_gcd_stats(std::string& out, const gcd::GcdStats& s) {
  put_u64(out, s.iterations);
  put_u64(out, s.swaps);
  put_u64(out, s.beta_nonzero);
  put_u64(out, s.divisions);
  for (const auto c : s.approx_cases) put_u64(out, c);
}

bool get_gcd_stats(Cursor& c, gcd::GcdStats& s) {
  if (!c.u64(s.iterations) || !c.u64(s.swaps) || !c.u64(s.beta_nonzero) ||
      !c.u64(s.divisions)) {
    return false;
  }
  for (auto& cc : s.approx_cases) {
    if (!c.u64(cc)) return false;
  }
  return true;
}

void put_simt_stats(std::string& out, const SimtStats& s) {
  put_u64(out, s.rounds);
  put_u64(out, s.warp_rounds);
  put_u64(out, s.lane_iterations);
  put_u64(out, s.branch_slots);
  put_u64(out, s.divergent_warp_rounds);
  put_u64(out, s.active_lane_slots);
  put_u64(out, s.lane_slots);
  put_gcd_stats(out, s.gcd);
}

bool get_simt_stats(Cursor& c, SimtStats& s) {
  return c.u64(s.rounds) && c.u64(s.warp_rounds) && c.u64(s.lane_iterations) &&
         c.u64(s.branch_slots) && c.u64(s.divergent_warp_rounds) &&
         c.u64(s.active_lane_slots) && c.u64(s.lane_slots) &&
         get_gcd_stats(c, s.gcd);
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

  std::string serialize_header() const {
    std::string out(kMagic, sizeof(kMagic));
    put_u64(out, digest);
    put_u64(out, m);
    put_u64(out, group_size);
    put_u64(out, chunk_blocks);
    put_u64(out, chunks_total);
    put_u32(out, engine);
    put_u32(out, variant);
    put_u32(out, early_terminate);
    put_u32(out, 0);  // reserved
    return out;
  }
  static constexpr std::size_t header_size() { return 8 + 5 * 8 + 4 * 4; }
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
  std::string out;
  if (o.quarantined) {
    out.push_back(char(kRecordQuarantine));
    put_u64(out, o.chunk_index);
    put_u32(out, std::uint32_t(o.error.size()));
    out.append(o.error);
    return out;
  }
  out.push_back(char(kRecordChunk));
  put_u64(out, o.chunk_index);
  put_u64(out, o.pairs);
  put_simt_stats(out, o.simt);
  put_gcd_stats(out, o.scalar);
  put_u32(out, std::uint32_t(o.hits.size()));
  for (const auto& hit : o.hits) {
    put_u64(out, hit.i);
    put_u64(out, hit.j);
    const auto limbs = hit.factor.limbs();
    put_u32(out, std::uint32_t(limbs.size()));
    for (const auto limb : limbs) put_u32(out, limb);
  }
  return out;
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
  std::size_t good_offset = 0;  // file prefix that parsed cleanly
};

/// Parse a journal; returns std::nullopt when the header doesn't match
/// `want` (digest/config mismatch). Throws only on I/O errors. A torn tail
/// is silently dropped (good_offset marks the keep-prefix).
std::optional<RestoredState> parse_journal(const std::string& bytes,
                                           const JournalIdentity& want,
                                           std::string* why) {
  Cursor c{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};
  if (bytes.size() < JournalIdentity::header_size() ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    if (why) *why = "not a scan checkpoint (bad magic)";
    return std::nullopt;
  }
  c.pos = sizeof(kMagic);
  JournalIdentity got;
  std::uint32_t reserved = 0;
  c.u64(got.digest);
  c.u64(got.m);
  c.u64(got.group_size);
  c.u64(got.chunk_blocks);
  c.u64(got.chunks_total);
  c.u32(got.engine);
  c.u32(got.variant);
  c.u32(got.early_terminate);
  c.u32(reserved);
  if (got.digest != want.digest || got.m != want.m) {
    if (why) *why = "corpus digest mismatch (different moduli list)";
    return std::nullopt;
  }
  if (got.group_size != want.group_size ||
      got.chunk_blocks != want.chunk_blocks ||
      got.chunks_total != want.chunks_total || got.engine != want.engine ||
      got.variant != want.variant ||
      got.early_terminate != want.early_terminate) {
    if (why) *why = "scan configuration mismatch (grid or engine changed)";
    return std::nullopt;
  }

  RestoredState state;
  state.committed.assign(want.chunks_total, 0);
  state.handled.assign(want.chunks_total, 0);
  state.good_offset = c.pos;

  while (c.pos < c.size) {
    std::uint8_t kind = 0;
    std::uint64_t chunk = 0;
    if (!c.u8(kind) || !c.u64(chunk)) break;
    if (chunk >= want.chunks_total) break;  // corrupt record: stop here
    if (kind == kRecordChunk) {
      std::uint64_t pairs = 0;
      SimtStats simt;
      gcd::GcdStats scalar;
      std::uint32_t nhits = 0;
      if (!c.u64(pairs) || !get_simt_stats(c, simt) ||
          !get_gcd_stats(c, scalar) || !c.u32(nhits)) {
        break;
      }
      std::vector<FactorHit> hits(nhits);
      bool ok = true;
      for (auto& hit : hits) {
        std::uint32_t nlimbs = 0;
        if (!c.u64(hit.i) || !c.u64(hit.j) || !c.u32(nlimbs)) {
          ok = false;
          break;
        }
        // Hit factors are journaled as 32-bit BigInt limbs regardless of the
        // scan limb width (BULKGCD_LIMB32), so checkpoints are portable
        // across limb configurations.
        std::vector<std::uint32_t> limbs(nlimbs);
        for (auto& limb : limbs) {
          if (!c.u32(limb)) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
        hit.factor = mp::BigInt::from_limbs(limbs);
      }
      if (!ok) break;
      if (!state.handled[chunk]) {  // tolerate duplicates defensively
        state.committed[chunk] = state.handled[chunk] = 1;
        ++state.chunks_committed;
        state.pairs += pairs;
        state.simt += simt;
        state.scalar += scalar;
        state.hits.insert(state.hits.end(),
                          std::make_move_iterator(hits.begin()),
                          std::make_move_iterator(hits.end()));
      }
    } else if (kind == kRecordQuarantine) {
      std::uint32_t len = 0;
      if (!c.u32(len) || c.pos + len > c.size) break;
      std::string error(bytes.data() + c.pos, len);
      c.pos += len;
      if (!state.handled[chunk]) {
        state.handled[chunk] = 1;
        state.quarantined.push_back({std::size_t(chunk), std::move(error)});
      }
    } else {
      break;  // unknown record kind: treat as corruption, drop the tail
    }
    state.good_offset = c.pos;  // full record parsed: advance the keep-mark
  }
  return state;
}

/// Open-for-append journal with fsync cadence.
class Journal {
 public:
  /// fsync_hist (optional) receives the latency of every flush+fsync — the
  /// durability cost a production deployment needs to watch.
  Journal(const std::filesystem::path& path, std::size_t fsync_every,
          obs::HistogramMetric* fsync_hist = nullptr,
          DriverTrace trace = {})
      : path_(path),
        fsync_every_(std::max<std::size_t>(1, fsync_every)),
        fsync_hist_(fsync_hist),
        trace_(trace) {}
  ~Journal() { close(); }

  void create_fresh(const JournalIdentity& id) {
    close();
    file_ = std::fopen(path_.string().c_str(), "wb");
    if (!file_) {
      throw std::runtime_error("scan_driver: cannot write checkpoint " +
                               path_.string());
    }
    const std::string header = id.serialize_header();
    write_all(header);
    flush_and_sync();
  }

  void open_for_resume(std::size_t good_offset) {
    close();
    // Drop any torn tail before appending so the next reader never sees a
    // partial record followed by complete ones.
    std::error_code ec;
    const auto actual = std::filesystem::file_size(path_, ec);
    if (!ec && actual > good_offset) {
      std::filesystem::resize_file(path_, good_offset);
    }
    file_ = std::fopen(path_.string().c_str(), "ab");
    if (!file_) {
      throw std::runtime_error("scan_driver: cannot append to checkpoint " +
                               path_.string());
    }
  }

  void commit(const ChunkOutcome& outcome) {
    write_all(serialize_outcome(outcome));
    if (++commits_since_sync_ >= fsync_every_) flush_and_sync();
  }

  void finish() {
    if (file_) flush_and_sync();
  }

 private:
  void write_all(const std::string& bytes) {
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      throw std::runtime_error("scan_driver: checkpoint write failed: " +
                               path_.string());
    }
  }
  void flush_and_sync() {
    obs::ScopedSpan span(fsync_hist_);
    obs::TraceSpan tspan(trace_.rec, trace_.fsync_id);
    if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
      throw std::runtime_error("scan_driver: checkpoint fsync failed: " +
                               path_.string());
    }
    commits_since_sync_ = 0;
  }
  void close() {
    if (file_) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }

  std::filesystem::path path_;
  std::size_t fsync_every_;
  obs::HistogramMetric* fsync_hist_;
  DriverTrace trace_;
  std::size_t commits_since_sync_ = 0;
  std::FILE* file_ = nullptr;
};

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

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

  const ScanCorpus scan(moduli);
  const std::size_t cap = scan.max_limbs();
  const BlockGrid grid(m, pairs_cfg.group_size);
  const std::size_t total_blocks = grid.block_count();
  const std::size_t chunk_blocks = std::max<std::size_t>(1, config.chunk_blocks);
  const std::size_t chunks_total =
      (total_blocks + chunk_blocks - 1) / chunk_blocks;
  report.chunks_total = chunks_total;

  auto chunk_range = [&](std::size_t chunk) {
    const std::size_t lo = chunk * chunk_blocks;
    return std::pair(lo, std::min(lo + chunk_blocks, total_blocks));
  };

  // Stage the corpus once for the whole scan.
  const CorpusPanels<ScanLimb> panels(scan, grid.r, cap + kBatchPadLimbs);

  DriverTelemetry tele = DriverTelemetry::resolve(config.pairs.metrics);
  const DriverTrace dtr = DriverTrace::resolve(pairs_cfg.trace);
  if (dtr.rec != nullptr) dtr.rec->set_thread_name("driver");

  JournalIdentity identity;
  identity.digest = rsa::corpus_digest(moduli);
  identity.m = m;
  identity.group_size = grid.r;
  identity.chunk_blocks = chunk_blocks;
  identity.chunks_total = chunks_total;
  // The identity records only scalar (0) vs SIMT (1): the vector and staged
  // engines produce bit-identical hits and SimtStats, so a checkpoint
  // written under one resumes under the other — and under the 0/1 values
  // of journals that predate the single engine knob.
  identity.engine = pairs_cfg.engine == Engine::kScalar ? 0 : 1;
  identity.variant = std::uint32_t(config.pairs.variant);
  identity.early_terminate = config.pairs.early_terminate ? 1 : 0;

  // ---- restore ------------------------------------------------------------
  RestoredState state;
  state.committed.assign(chunks_total, 0);
  state.handled.assign(chunks_total, 0);

  std::optional<Journal> journal;
  if (!config.checkpoint.empty()) {
    journal.emplace(config.checkpoint, config.fsync_every, tele.fsync_seconds,
                    dtr);
    std::error_code ec;
    if (std::filesystem::exists(config.checkpoint, ec)) {
      std::string why;
      auto restored =
          parse_journal(read_file_bytes(config.checkpoint), identity, &why);
      if (restored) {
        state = std::move(*restored);
        report.resumed = state.chunks_committed > 0 ||
                         !state.quarantined.empty();
        journal->open_for_resume(state.good_offset);
      } else if (config.discard_mismatched_checkpoint) {
        journal->create_fresh(identity);
      } else {
        throw std::runtime_error("scan_driver: checkpoint " +
                                 config.checkpoint.string() +
                                 " is not resumable for this scan: " + why);
      }
    } else {
      journal->create_fresh(identity);
    }
  }

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
        BlockSweeper sweeper(scan, grid, pairs_config, cap, panels);
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
    if (journal) journal->commit(outcome);
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
  // and the torn-tail recovery rule is untouched — parse_journal indexes
  // records by chunk, never by position.
  if (launch_total > 0) {
    if (config.pairs.pool_threads == 1) {
      for (std::size_t k = 0; k < launch_total; ++k) {
        commit(process(pending[k]));
      }
    } else {
      std::optional<ThreadPool> local_pool;
      if (config.pairs.pool_threads > 1) {
        local_pool.emplace(config.pairs.pool_threads);
      }
      ThreadPool& pool = local_pool ? *local_pool : global_pool();
      std::mutex mu;
      std::condition_variable cv;
      std::deque<ChunkOutcome> done_queue;

      const std::size_t workers =
          config.pairs.pool_threads > 1 ? config.pairs.pool_threads
                                        : pool.size();
      const TileScheduler sched(launch_total, /*tile_items=*/1, workers);
      // The schedule blocks until every chunk is processed, while commits
      // must keep flowing on this (the driver) thread — run it on a
      // sidecar thread and collect outcomes as they land. process() already
      // converts every failure into a quarantine outcome, so the scheduler
      // body never throws.
      std::thread orchestrator([&] {
        if (dtr.rec != nullptr) dtr.rec->set_thread_name("orchestrator");
        sched.run(
            &pool,
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

  if (journal) journal->finish();

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
