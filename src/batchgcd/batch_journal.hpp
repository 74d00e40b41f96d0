// Durable level journal for the resumable batch-GCD driver — the element
// that lets a million-moduli product/remainder tree survive a SIGKILL at any
// level (docs/BATCHGCD.md).
//
// A core/record_log file (header, torn-header and torn-tail rules, fsync
// cadence: docs/RECORD_LOG.md) whose identity is the corpus: rsa::corpus_digest
// + count. Three record kinds, one per completed tree level:
//
//   product(level, nodes)    — product-tree level `level` (1 = first pairing
//                              of the moduli; the leaves are never journaled,
//                              they ARE the corpus the header binds to).
//   remainder(level, nodes)  — the residues after the descent has reduced
//                              into tree level `level` (level L−2 first,
//                              level 0 last: the leaf residues P mod n_i²).
//   gcds(values)             — the final per-modulus gcd vector; its
//                              presence marks the attack complete.
//
// Values are journaled as canonical 32-bit BigInt limbs regardless of the
// build's scan limb width, so a checkpoint written by one build resumes
// under any other (mirrors the scan journal's portability rule).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/record_log.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class HistogramMetric;
}  // namespace bulkgcd::obs

namespace bulkgcd::batchgcd {

/// Everything parsed from an existing journal at open.
struct BatchReplay {
  /// Restored product-tree levels in append order (level index ≥ 1). A valid
  /// journal holds a dense prefix 1..k; the driver re-checks sizes anyway.
  std::vector<std::pair<std::uint32_t, std::vector<mp::BigInt>>> product_levels;
  /// Deepest (lowest-level) restored remainder vector — the descent resumes
  /// from here. Records are appended top-down, so the last one parsed wins.
  std::optional<std::pair<std::uint32_t, std::vector<mp::BigInt>>> remainder;
  /// Final gcd vector, present only when the attack finished.
  std::optional<std::vector<mp::BigInt>> gcds;
};

/// Open-for-append batch-tree journal bound to one corpus identity.
/// Single-writer: the level-serial driver appends from one thread.
class BatchJournal {
 public:
  /// Opens `path`, creating it with a fresh header when absent, empty or
  /// torn inside the header (docs/RECORD_LOG.md). An existing journal must
  /// carry the same corpus identity — digest (rsa::corpus_digest over the
  /// moduli) and count — else this throws
  /// std::runtime_error: resuming someone else's tree would deliver gcds
  /// against the wrong corpus. On a match, all complete records are parsed
  /// (take_replay()), the torn tail is truncated, and the file is positioned
  /// for append. fsync_hist (optional) receives each flush+fsync latency.
  BatchJournal(std::filesystem::path path, std::uint64_t corpus_digest,
               std::uint64_t corpus_count, std::size_t fsync_every = 1,
               obs::HistogramMetric* fsync_hist = nullptr);

  /// The state parsed at open; meaningful once, immediately after
  /// construction (moves the levels out).
  BatchReplay take_replay();

  /// Journal one completed product-tree level (level ≥ 1).
  void append_product_level(std::uint32_t level,
                            std::span<const mp::BigInt> nodes);
  /// Journal the residues after the descent reduced into tree `level`.
  void append_remainder_level(std::uint32_t level,
                              std::span<const mp::BigInt> residues);
  /// Journal the final gcd vector; marks the run complete on replay.
  void append_gcds(std::span<const mp::BigInt> gcds);

  /// Flush + fsync anything buffered (also done by the destructor).
  void flush();

 private:
  core::RecordLog log_;
  BatchReplay replay_;
};

}  // namespace bulkgcd::batchgcd
