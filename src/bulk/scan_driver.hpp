// Resumable, fault-tolerant driver for the Section-VI all-pairs scan.
//
// The paper's attack is a weeks-long sweep over millions of moduli; at that
// scale the scan MUST survive crashes, preemption, and the occasional bad
// worker. The driver decomposes the block triangle (bulk/block_grid.hpp)
// into durable work units of `chunk_blocks` consecutive blocks and layers
// three robustness mechanisms on top of the raw sweep:
//
//   * Checkpointing — a core/record_log journal (docs/SCAN_DRIVER.md)
//     records every committed chunk with its hits and engine statistics,
//     fsynced at a configurable cadence. On restart the journal is validated
//     against a corpus digest (rsa::corpus_digest) and the scan resumes from
//     the committed set, re-running at most the chunks that were in flight.
//   * Retry with isolation — a chunk whose worker throws is retried once on
//     the scalar engine (the simplest, most conservative code path); a
//     second failure quarantines the chunk and the scan continues, instead
//     of one poisoned work unit aborting a multi-day run.
//   * Structured progress — blocks/s, pairs/s, ETA, and hit counts stream
//     through a pluggable ProgressSink (stdout line printer included).
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bulk/allpairs.hpp"

namespace bulkgcd::bulk {

/// One structured progress record, emitted after chunk commits.
struct ScanProgress {
  std::uint64_t chunks_done = 0;    ///< committed chunks (incl. restored)
  std::uint64_t chunks_total = 0;
  std::uint64_t blocks_done = 0;    ///< blocks covered by committed chunks
  std::uint64_t blocks_total = 0;
  std::uint64_t pairs_done = 0;     ///< pairs covered by committed chunks
  std::uint64_t pairs_total = 0;    ///< m(m−1)/2
  std::uint64_t hits = 0;           ///< factor hits found so far
  std::uint64_t quarantined = 0;    ///< chunks given up on
  double elapsed_seconds = 0.0;     ///< this run (excludes prior runs)
  double blocks_per_second = 0.0;   ///< this run's committed-block rate
  double pairs_per_second = 0.0;    ///< this run's committed-pair rate
  double eta_seconds = 0.0;         ///< remaining pairs / pairs_per_second
};

/// Receiver for scan telemetry. Callbacks fire on the driver thread, in
/// commit order; implementations must not throw.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void on_progress(const ScanProgress&) {}
  virtual void on_hit(const FactorHit&) {}
  virtual void on_quarantine(std::size_t /*chunk_index*/,
                             const std::string& /*error*/) {}
};

/// Line-oriented progress printer for CLIs (one status line per record).
class StreamProgressSink : public ProgressSink {
 public:
  explicit StreamProgressSink(std::FILE* out = stdout) : out_(out) {}
  void on_progress(const ScanProgress& p) override;
  void on_hit(const FactorHit& hit) override;
  void on_quarantine(std::size_t chunk_index, const std::string& error) override;

 private:
  std::FILE* out_;
};

/// A work unit the driver gave up on (failed on both engines). Its pair
/// range was NOT scanned; the indices let an operator re-run it offline.
struct QuarantinedChunk {
  std::size_t chunk_index = 0;
  std::string error;
};

struct ScanConfig {
  AllPairsConfig pairs;  ///< engine / variant / group size / threads

  /// Checkpoint journal path; empty runs the scan without durability.
  std::filesystem::path checkpoint;
  /// Blocks per durable work unit. Smaller = finer-grained resume and
  /// balance but more journal records. 0 (the default) derives the size
  /// from the corpus and the workers (auto_chunk_blocks); a resume then
  /// keeps the size its checkpoint records. A nonzero size that differs
  /// from the checkpoint's is refused.
  std::size_t chunk_blocks = 0;
  /// fsync the journal every N chunk commits (1 = every commit).
  std::size_t fsync_every = 1;
  /// Stop (cleanly, checkpoint intact) after launching N chunks this run;
  /// 0 = run to completion. This is the time-sliced / budgeted mode — and
  /// the hook the kill-and-resume tests use.
  std::size_t stop_after_chunks = 0;
  /// On checkpoint/corpus mismatch: true = discard and start fresh,
  /// false = throw std::runtime_error (default — never silently lose the
  /// association between checkpoint and corpus). A file that is not a scan
  /// checkpoint at all is refused either way and left untouched.
  bool discard_mismatched_checkpoint = false;

  ProgressSink* sink = nullptr;
  std::size_t progress_every = 1;  ///< emit a record every N chunk commits

  /// Observability/fault-injection hook, called at the start of every chunk
  /// attempt (attempt 0 = configured engine, 1 = scalar retry). Exceptions
  /// it throws flow through the retry/quarantine path exactly like engine
  /// failures — the tests use this to exercise both.
  std::function<void(std::size_t chunk_index, int attempt)> chunk_hook;
};

struct ScanReport {
  /// Aggregated sweep result including chunks restored from the checkpoint.
  /// `seconds` covers this run only; hits are sorted by (i, j).
  AllPairsResult result;
  bool complete = false;  ///< every chunk committed or quarantined
  bool resumed = false;   ///< a valid checkpoint contributed prior work
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_done = 0;           ///< committed (incl. restored)
  std::uint64_t chunks_done_this_run = 0;  ///< committed by this invocation
  std::vector<QuarantinedChunk> quarantined;
};

/// The largest chunk ScanConfig::chunk_blocks = 0 derives: at large m a
/// chunk of 64 blocks still commits every few hundred milliseconds.
inline constexpr std::size_t kMaxAutoChunkBlocks = 64;

/// The chunk size ScanConfig::chunk_blocks = 0 derives for `blocks` blocks
/// on `workers` workers: about ThreadPool::kPiecesPerWorker chunks per
/// worker, clamp(⌈blocks / (kPiecesPerWorker · workers)⌉, 1,
/// kMaxAutoChunkBlocks). At m = 512 (36 blocks of 64 moduli) on 4 workers
/// that is 36 chunks where 64-block chunks made one, which kept 3 of the 4
/// workers idle; at m = 2048 (528 blocks), 59 chunks of 9 blocks.
std::size_t auto_chunk_blocks(std::size_t blocks, std::size_t workers);

/// Run (or resume) the all-pairs scan over `moduli`. See ScanConfig for the
/// durability and fault-tolerance knobs; with an empty checkpoint path and
/// default config this is equivalent to all_pairs_gcd().
ScanReport run_resumable_scan(std::span<const mp::BigInt> moduli,
                              const ScanConfig& config = {});

}  // namespace bulkgcd::bulk
