// Durable level journal for the resumable batch-GCD driver — the element
// that lets a million-moduli product/remainder tree survive a SIGKILL at any
// level (docs/BATCHGCD.md).
//
// A core/record_log file (header, torn-header and torn-tail rules, fsync
// cadence: docs/RECORD_LOG.md) whose identity is the corpus: rsa::corpus_digest
// + count; magic BGCDBTR2. Three record kinds, one per completed tree level:
//
//   product(level, nodes)    — product-tree level `level` (1 = first pairing
//                              of the moduli; the leaves are never journaled,
//                              they ARE the corpus the header binds to).
//   remainder(level, nodes)  — the cofactor residues (P / N_v) mod N_v of
//                              tree level `level`'s nodes (level L−2 first,
//                              level 0 last: the leaf residues
//                              (P / n_i) mod n_i). Each is below its node.
//   gcds(values)             — the final per-modulus gcd vector; its
//                              presence marks the attack complete.
//
// Values are journaled as canonical 32-bit limbs (core::ByteWriter::
// bigint_limbs) whatever their in-memory width: the tree computes on 64-bit
// limbs (TreeInt) and writes each level straight from them, and the bytes
// equal those of the same values held as 32-bit mp::BigInt. A checkpoint
// written by one build resumes under any other, whatever the scan limb width
// (mirrors the scan journal's portability rule).
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

/// The tree's in-memory value type. On 64-bit limbs a product or a division
/// handles half the limbs it would on mp::BigInt's 32-bit ones, and a
/// 64×64→128-bit multiply costs about what a 32×32→64-bit one does.
using TreeInt = mp::BigInt64;

/// Everything parsed from an existing journal at open.
struct BatchReplay {
  /// Restored product-tree levels in append order (level index ≥ 1). A valid
  /// journal holds a dense prefix 1..k; the driver re-checks sizes anyway.
  std::vector<std::pair<std::uint32_t, std::vector<TreeInt>>> product_levels;
  /// Deepest (lowest-level) restored remainder vector — the descent resumes
  /// from here. Records are appended top-down, so the last one parsed wins.
  std::optional<std::pair<std::uint32_t, std::vector<TreeInt>>> remainder;
  /// Final gcd vector, present only when the attack finished.
  std::optional<std::vector<TreeInt>> gcds;
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
                            std::span<const TreeInt> nodes);
  /// Journal the residues after the descent reduced into tree `level`.
  void append_remainder_level(std::uint32_t level,
                              std::span<const TreeInt> residues);
  /// Journal the final gcd vector; marks the run complete on replay.
  void append_gcds(std::span<const TreeInt> gcds);

  /// Flush + fsync anything buffered (also done by the destructor).
  void flush();

 private:
  core::RecordLog log_;
  BatchReplay replay_;
};

}  // namespace bulkgcd::batchgcd
