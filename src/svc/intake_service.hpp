// Streaming key-intake service — the long-running front end the ROADMAP's
// north star names, built Click-style as a pipeline of small elements
// (docs/INTAKE_SERVICE.md has the element graph):
//
//   parse (svc/intake_parser) → dedup (limb-hash set, exact-verify) →
//   arrival journal (svc/arrival_journal, durable before probed) →
//   bounded admission queue (svc/bounded_queue, shed on overflow) →
//   batch accumulator → probe (bulk::probe_incremental over the live
//   staged corpus, new×corpus block columns on the configured engine) →
//   corpus fold → hit report
//
// Each newly admitted key is probed against every modulus that arrived
// before it (seed corpus + earlier arrivals), then folded into the corpus —
// so a streamed corpus covers exactly the pair set a one-shot all_pairs_gcd
// over the same list covers, pair by pair, GCD by GCD (asserted bit-identical
// in tests/svc_test.cpp). Overload is observable, not fatal: a full queue
// sheds the submission with Admission::kShed and a counter, never blocks the
// submitting connection, and never buffers unboundedly.
//
// With a journal configured, the invariant extends across process death:
// every admitted key is durable before it is probed, and a restarted service
// replays the journal — probed arrivals re-fold with their journaled hits,
// the unprobed tail re-enters the probe path — so crash + restart + resume
// yields the same FactorHit set as one uninterrupted stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bulk/allpairs.hpp"
#include "bulk/scan_driver.hpp"
#include "bulk/staged_corpus.hpp"
#include "svc/arrival_journal.hpp"
#include "svc/bounded_queue.hpp"

namespace bulkgcd::obs {
class MetricsRegistry;
}

namespace bulkgcd::svc {

/// Outcome of one submission, decided synchronously at the admission gate.
enum class Admission {
  kAdmitted,   ///< queued; will be probed and folded into the corpus
  kDuplicate,  ///< exact modulus already seen (seed, folded, or in flight)
  kShed,       ///< admission queue full — overload backpressure, try later
  kClosed,     ///< service is shutting down
};

struct IntakeServiceConfig {
  /// Engine/threads for the probe element. pool_threads follows the
  /// all_pairs_gcd contract (1 = inline on the probe worker, 0 = global
  /// pool, N = private pool). metrics (if set) also feeds the intake_*
  /// counters and queue-depth gauges.
  bulk::AllPairsConfig probe;
  /// Admission queue capacity — the only buffer between intake connections
  /// and the probe worker. Full ⇒ shed.
  std::size_t queue_capacity = 1024;
  /// Max keys the batch accumulator hands the probe element per wakeup.
  std::size_t batch_max = 64;
  /// Durable arrival journal (svc/arrival_journal.hpp). Empty = off. An
  /// existing journal at this path must have been written for the same seed
  /// corpus (the constructor throws otherwise); its arrivals are replayed
  /// before the worker starts.
  std::filesystem::path journal_path;
  /// Journal fsync cadence: flush + fsync every N appended records. 1 (the
  /// default) makes every admission durable before submit() returns.
  std::size_t journal_fsync_every = 1;
  /// Hit sink (bulk::ProgressSink::on_hit, called from the probe worker
  /// thread). FactorHit::i is the index of the earlier corpus member,
  /// FactorHit::j the index the new key was folded at. Hits restored from
  /// the journal at construction are NOT re-reported — the sink sees each
  /// hit at most once per discovery, not once per process lifetime.
  bulk::ProgressSink* sink = nullptr;
  /// Test/fault-injection hook, called by the probe worker before each
  /// batch (like ScanConfig::chunk_hook). Exceptions are not caught.
  std::function<void(std::size_t batch_keys)> batch_hook;
};

/// Monotonic totals over the service lifetime. Mirrored into intake_*
/// metrics when a registry is configured (docs/OBSERVABILITY.md). The four
/// gate outcomes partition the gate's decisions exactly:
/// submitted == admitted + duplicates + shed + closed (test-asserted).
struct IntakeStats {
  std::uint64_t submitted = 0;   ///< submit() calls
  std::uint64_t admitted = 0;    ///< entered the queue
  std::uint64_t duplicates = 0;  ///< rejected by the dedup element
  std::uint64_t shed = 0;        ///< rejected by the full queue
  std::uint64_t closed = 0;      ///< rejected because the service stopped
  std::uint64_t probed = 0;      ///< keys probed + folded into the corpus
  std::uint64_t pairs = 0;       ///< candidate×corpus GCDs executed
  std::uint64_t batches = 0;     ///< probe-element wakeups with work
  std::uint64_t hits = 0;        ///< shared-factor hits reported
  /// Journal replay at construction: arrivals re-folded from their probed
  /// records (no GCDs re-run) and unprobed-tail arrivals re-queued for
  /// probing. Both are set once, before the worker starts; resumed keys
  /// flow into probed/pairs/hits as the worker re-probes them.
  std::uint64_t restored = 0;
  std::uint64_t resumed = 0;
};

class IntakeService {
 public:
  /// Starts the probe worker. `seed_corpus` is the already-scanned base the
  /// stream grows from (arrivals are probed against it but seed-internal
  /// pairs are assumed covered by a prior batch scan). Throws
  /// std::runtime_error when config.journal_path names a journal written
  /// for a different seed corpus.
  IntakeService(std::vector<mp::BigInt> seed_corpus,
                IntakeServiceConfig config);
  ~IntakeService();  ///< stop(/*drain=*/true)

  IntakeService(const IntakeService&) = delete;
  IntakeService& operator=(const IntakeService&) = delete;

  /// Admission gate: dedup check + journal append + bounded enqueue.
  /// Thread-safe, never blocks on the probe element. The returned verdict
  /// is final except for kShed, which a client may retry after backoff.
  /// kAdmitted with a journal configured means the key is on disk.
  ///
  /// flow_id (optional) is a trace flow minted by the caller at parse time
  /// (obs::TraceRecorder::next_flow_id); when config.probe.trace is set and
  /// the id is nonzero, the arrival's journal append, queue admission,
  /// probe, and corpus fold all carry it, stitching the arrival into one
  /// connected chain in the exported timeline. 0 = no flow (default).
  Admission submit(const mp::BigInt& n, std::uint64_t flow_id = 0);

  /// Close intake, drain the queue through the probe element (every
  /// already-admitted key is still probed and folded), join the worker.
  /// Idempotent; submissions after stop() return kClosed.
  void stop();

  IntakeStats stats() const;
  std::size_t queue_depth() const { return queue_.size(); }

  /// Snapshot of the accumulated hit list (sorted by (i, j)). Indices refer
  /// to corpus() order: seed first, then arrivals in fold order. Includes
  /// hits restored from the journal.
  std::vector<bulk::FactorHit> hits() const;
  /// Snapshot of the accumulated corpus (seed + folded arrivals).
  std::vector<mp::BigInt> corpus() const;
  std::size_t corpus_size() const;

 private:
  /// A key in flight between the admission gate and the probe worker. seq
  /// is the dense arrival number the journal indexes by (assigned under
  /// dedup_mutex_ whether or not a journal is configured).
  struct PendingKey {
    std::uint64_t seq = 0;
    mp::BigInt value;
    /// Trace flow id following this arrival through the pipeline (0 = none).
    /// Replayed-tail arrivals mint a fresh flow at construction.
    std::uint64_t flow = 0;
  };

  void worker_loop();
  void probe_batch(std::vector<PendingKey>& batch);
  void replay_journal();
  std::uint64_t fingerprint(const mp::BigInt& n) const noexcept;

  IntakeServiceConfig config_;
  BoundedQueue<PendingKey> queue_;

  // Dedup element: 64-bit FNV-1a fingerprint (rsa::modulus_fingerprint, the
  // canonical-byte scheme shared with the keystore loader and the journal)
  // resolved exactly — colliding fingerprints fall back to value comparison,
  // so a hash collision can never drop a genuinely new key.
  mutable std::mutex dedup_mutex_;
  std::unordered_map<std::uint64_t, std::vector<mp::BigInt>> seen_;
  std::uint64_t next_seq_ = 0;  ///< next arrival seq (dense, journal-indexed)
  bool closed_ = false;

  // Corpus + hits: appended only by the probe worker; guarded for snapshot
  // readers. The probe itself runs on the staged corpus without the lock
  // (only the worker appends, and only behind it). corpus_ is the BigInt
  // snapshot readers copy; staged_ is the live flattened+panel-staged form
  // the probe rides (bulk/staged_corpus.hpp) — grown append-by-append so no
  // arrival pays an O(corpus) re-staging.
  mutable std::mutex state_mutex_;
  std::vector<mp::BigInt> corpus_;
  std::vector<bulk::FactorHit> hits_;
  std::optional<bulk::StagedCorpus> staged_;  ///< worker + ctor only
  std::size_t seed_count_ = 0;

  std::unique_ptr<ArrivalJournal> journal_;
  /// Journal arrivals that were never probed, re-queued for the worker at
  /// construction (consumed before the live queue; worker-only after ctor).
  /// A separate lane — not the BoundedQueue — so a long tail can never be
  /// shed by the admission capacity it already passed once.
  std::deque<PendingKey> replay_tail_;

  struct Telemetry;  ///< intake_* metric handles (null-registry safe)
  std::unique_ptr<Telemetry> tele_;
  struct TraceHooks;  ///< interned trace event ids (null-recorder safe)
  std::unique_ptr<TraceHooks> trace_;

  mutable std::mutex stats_mutex_;
  IntakeStats stats_;

  std::thread worker_;
};

}  // namespace bulkgcd::svc
