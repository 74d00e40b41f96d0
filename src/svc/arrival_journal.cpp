#include "svc/arrival_journal.hpp"

#include <stdexcept>

namespace bulkgcd::svc {

namespace {

// ---- journal codec (docs/INTAKE_SERVICE.md) ---------------------------------
// The file discipline (header, torn tail, fsync cadence) is core/record_log's.
// Record order invariants (docs/INTAKE_SERVICE.md):
//   - arrival seqs are dense and file-ordered (the admission gate assigns
//     and journals them under one lock);
//   - a retract record immediately follows its arrival logically (same
//     lock), so it always targets the newest arrival;
//   - probed(seq) appears after arrival(seq) — the worker only sees a key
//     after the gate journaled it.
// Any record breaking these is treated as corruption: the tail from it on
// is dropped, exactly like a torn write. Values are journaled as canonical
// little-endian bytes, so journals are portable across limb-width builds.

constexpr std::string_view kMagic = "BGCDARJ1";
constexpr std::uint8_t kRecordArrival = 1;
constexpr std::uint8_t kRecordProbed = 2;
constexpr std::uint8_t kRecordRetract = 3;

/// Decode and apply one record; false (arrivals untouched) on a torn or
/// invariant-breaking one.
bool apply(core::ByteReader& r, std::vector<ReplayedArrival>& arrivals) {
  std::uint8_t kind = 0;
  std::uint64_t seq = 0;
  if (!r.u8(kind) || !r.u64(seq)) return false;
  if (kind == kRecordArrival) {
    ReplayedArrival arrival;
    if (seq != arrivals.size() || !r.bigint_bytes(arrival.value)) return false;
    arrivals.push_back(std::move(arrival));
    return true;
  }
  if (kind == kRecordProbed) {
    std::uint32_t nhits = 0;
    // A hit costs at least its index and a byte count: 12 bytes.
    if (seq >= arrivals.size() || arrivals[seq].probed || !r.u32(nhits) ||
        !r.fits(nhits, 12)) {
      return false;
    }
    std::vector<std::pair<std::uint64_t, mp::BigInt>> hits(nhits);
    for (auto& [i, factor] : hits) {
      if (!r.u64(i) || !r.bigint_bytes(factor)) return false;
    }
    arrivals[seq].probed = true;
    arrivals[seq].hits = std::move(hits);
    return true;
  }
  if (kind == kRecordRetract) {
    // A shed submission: the gate journaled the arrival, then the queue
    // refused it. Always the newest arrival, never a probed one.
    if (arrivals.empty() || seq != arrivals.size() - 1 ||
        arrivals.back().probed) {
      return false;
    }
    arrivals.pop_back();
    return true;
  }
  return false;  // unknown record kind: treat as corruption, drop the tail
}

}  // namespace

ArrivalJournal::ArrivalJournal(std::filesystem::path path,
                               std::uint64_t seed_digest,
                               std::uint64_t seed_count,
                               std::size_t fsync_every,
                               obs::HistogramMetric* fsync_hist)
    : log_(path, kMagic, "arrival journal", fsync_every, fsync_hist) {
  core::ByteWriter identity;
  identity.u64(seed_digest);
  identity.u64(seed_count);
  const auto stored = log_.open(identity.str());
  if (!stored) return;
  if (*stored != identity.str()) {
    // Replaying someone else's arrivals would mis-index every journaled hit
    // against this seed — refuse loudly rather than resume wrongly.
    throw std::runtime_error("arrival_journal: " + path.string() +
                             " was written for a different seed corpus "
                             "(digest/count mismatch)");
  }
  auto& arrivals = replay_.arrivals;
  log_.replay([&](core::ByteReader& r) { return apply(r, arrivals); });

  // The worker probes strictly in arrival order, so probed records form a
  // seq prefix. Enforce it: past the first unprobed arrival everything is
  // tail — journaled hits there (possible only in a corrupt journal) are
  // discarded and those keys re-probed, which reproduces the same hits.
  bool prefix = true;
  for (auto& arrival : arrivals) {
    prefix = prefix && arrival.probed;
    if (!prefix && arrival.probed) {
      arrival.probed = false;
      arrival.hits.clear();
    }
  }
}

ArrivalReplay ArrivalJournal::take_replay() { return std::move(replay_); }

void ArrivalJournal::append_arrival(std::uint64_t seq,
                                    const mp::BigInt& value) {
  core::ByteWriter w;
  w.u8(kRecordArrival);
  w.u64(seq);
  w.bigint_bytes(value);
  append(w);
}

void ArrivalJournal::append_probed(std::uint64_t seq,
                                   std::span<const bulk::FactorHit> hits) {
  core::ByteWriter w;
  w.u8(kRecordProbed);
  w.u64(seq);
  w.u32(std::uint32_t(hits.size()));
  for (const auto& hit : hits) {
    w.u64(hit.i);
    w.bigint_bytes(hit.factor);
  }
  append(w);
}

void ArrivalJournal::append_retract(std::uint64_t seq) {
  core::ByteWriter w;
  w.u8(kRecordRetract);
  w.u64(seq);
  append(w);
}

void ArrivalJournal::flush() {
  std::lock_guard lock(mutex_);
  log_.flush();
}

void ArrivalJournal::append(const core::ByteWriter& record) {
  std::lock_guard lock(mutex_);
  log_.append(record.str());
}

}  // namespace bulkgcd::svc
