// Durable arrival journal for the streaming intake service — the element
// that makes a streamed corpus survive a crash (docs/INTAKE_SERVICE.md).
//
// A core/record_log file (header, torn-header and torn-tail rules, fsync
// cadence: docs/RECORD_LOG.md) whose identity is the seed corpus:
// rsa::corpus_digest + count. Three record kinds:
//
//   arrival(seq, value)      — written by the admission gate the moment a key
//                              enters the queue: the key is durable before it
//                              is probed.
//   probed(seq, hits)        — written by the probe worker after the key is
//                              probed and folded: the arrival's pair coverage
//                              is settled. Hit factors are journaled as
//                              canonical little-endian bytes (limb-width
//                              portable); the fold index j and the
//                              full_modulus flag are recomputed on replay
//                              (j = seed_count + seq).
//   retract(seq)             — the admission queue shed the key after the
//                              gate journaled it; cancels arrival(seq).
//
// Replay rebuilds exactly the state a restarted service needs: probed
// arrivals re-fold with their journaled hits (no GCDs re-run), the unprobed
// tail re-enters the probe path — so streamed-then-restarted coverage equals
// one uninterrupted stream, pair for pair (asserted in tests/svc_test.cpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <span>
#include <vector>

#include "bulk/allpairs.hpp"
#include "core/record_log.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class HistogramMetric;
}  // namespace bulkgcd::obs

namespace bulkgcd::svc {

/// One arrival reconstructed from the journal, in arrival-seq order.
struct ReplayedArrival {
  mp::BigInt value;
  /// A probed record was found (and every earlier arrival is probed too):
  /// the hits below are authoritative and the key needs no re-probe.
  bool probed = false;
  /// Journaled hits of this arrival's probe: index of the earlier corpus
  /// member + shared factor. j and full_modulus are the caller's to derive.
  std::vector<std::pair<std::uint64_t, mp::BigInt>> hits;
};

/// Everything parsed from an existing journal at open.
struct ArrivalReplay {
  std::vector<ReplayedArrival> arrivals;
};

/// Open-for-append arrival journal bound to one seed corpus identity.
/// Thread-safe: the admission gate and the probe worker append concurrently
/// (each append is one locked write; record bytes never interleave).
class ArrivalJournal {
 public:
  /// Opens `path`, creating it with a fresh header when absent, empty or
  /// torn inside the header (docs/RECORD_LOG.md). An existing journal must
  /// carry the same seed identity — digest (rsa::corpus_digest over the
  /// seed) and count — else this throws
  /// std::runtime_error: replaying someone else's arrivals into this corpus
  /// would silently mis-index every hit. On a match, all complete records
  /// are parsed (take_replay()), the torn tail is truncated, and the file is
  /// positioned for append. fsync_hist (optional) receives each
  /// flush+fsync latency.
  ArrivalJournal(std::filesystem::path path, std::uint64_t seed_digest,
                 std::uint64_t seed_count, std::size_t fsync_every = 1,
                 obs::HistogramMetric* fsync_hist = nullptr);

  /// The state parsed at open; meaningful once, immediately after
  /// construction (moves the arrivals out).
  ArrivalReplay take_replay();

  /// Journal one admitted key. seq must be the arrival's dense 0-based
  /// sequence number (the caller assigns them in admission order).
  void append_arrival(std::uint64_t seq, const mp::BigInt& value);

  /// Journal the probe outcome of arrival `seq`. Only FactorHit::i and
  /// ::factor are persisted; j/full_modulus are derivable on replay.
  void append_probed(std::uint64_t seq,
                     std::span<const bulk::FactorHit> hits);

  /// Undo the newest arrival record: the admission queue shed the key after
  /// the gate journaled it. `seq` must be the seq just passed to
  /// append_arrival; on replay the pair cancels out, so shed keys are never
  /// resurrected into the corpus.
  void append_retract(std::uint64_t seq);

  /// Flush + fsync anything buffered (also done by the destructor).
  void flush();

 private:
  void append(const core::ByteWriter& record);

  ArrivalReplay replay_;
  std::mutex mutex_;  // guards log_: the gate and the worker both append
  core::RecordLog log_;
};

}  // namespace bulkgcd::svc
