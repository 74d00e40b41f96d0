#include "batchgcd/batch_journal.hpp"

#include <stdexcept>

namespace bulkgcd::batchgcd {

namespace {

// ---- journal codec (docs/BATCHGCD.md) ---------------------------------------
// The file discipline (header, torn tail, fsync cadence) is core/record_log's.
// Record order invariants:
//   - product levels appear in increasing level order starting at 1, each
//     exactly once;
//   - descent levels (fraction and residue records) appear in decreasing
//     level order, each exactly one below the one before it, and only after
//     every product level; a fraction record never follows a residue
//     record, and level 0 is never a fraction record;
//   - the gcds record, if present, is last.
// Any record breaking these is treated as corruption: the tail from it on
// is dropped, exactly like a torn write.

// Version 3: the descent carries scaled fractions above its exit size, in
// records of their own kind, and the root product is never journaled.
// Versions 1 (square residues P mod N²) and 2 (cofactor residues at every
// level, with the root) are refused at open.
constexpr std::string_view kMagic = "BGCDBTR3";
constexpr std::uint8_t kRecordProduct = 1;
constexpr std::uint8_t kRecordRemainder = 2;
constexpr std::uint8_t kRecordGcds = 3;
constexpr std::uint8_t kRecordFraction = 4;

void put_values(core::RecordStream& out, std::span<const TreeInt> values) {
  out.u64(values.size());
  for (const auto& v : values) out.bigint_limbs(v);
}

bool get_values(core::ByteReader& r, std::vector<TreeInt>& values) {
  std::uint64_t count = 0;
  // Each value costs at least its 4-byte limb count.
  if (!r.u64(count) || !r.fits(count, 4)) return false;
  values.resize(count);
  for (auto& v : values) {
    if (!r.bigint_limbs(v)) return false;
  }
  return true;
}

/// One level record, streamed: a level of any size is written without a
/// heap allocation (the tree's writer thread allocates nothing per record).
void append_level(core::RecordLog& log, std::uint8_t kind, std::uint32_t level,
                  std::span<const TreeInt> values) {
  core::RecordStream out(log);
  out.u8(kind);
  out.u32(level);
  put_values(out, values);
  out.finish();
}

}  // namespace

BatchJournal::BatchJournal(std::filesystem::path path,
                           std::uint64_t corpus_digest,
                           std::uint64_t corpus_count, std::size_t fsync_every,
                           obs::HistogramMetric* fsync_hist)
    : log_(path, kMagic, "batch-tree journal", fsync_every, fsync_hist) {
  core::ByteWriter identity;
  identity.u64(corpus_digest);
  identity.u64(corpus_count);
  const auto stored = log_.open(identity.str());
  if (!stored) return;
  if (*stored != identity.str()) {
    // A tree built over different moduli delivers gcds against the wrong
    // corpus — refuse loudly rather than resume wrongly.
    throw std::runtime_error("batch_journal: " + path.string() +
                             " was written for a different corpus "
                             "(digest/count mismatch)");
  }

  std::uint32_t next_product = 1;  // product levels are dense from 1
  log_.replay([&](core::ByteReader& r) {
    std::uint8_t kind = 0;
    if (!r.u8(kind)) return false;
    if (kind == kRecordProduct) {
      std::uint32_t level = 0;
      std::vector<TreeInt> nodes;
      if (replay_.remainder || replay_.gcds || !r.u32(level) ||
          level != next_product || !get_values(r, nodes)) {
        return false;
      }
      replay_.product_levels.emplace_back(level, std::move(nodes));
      ++next_product;
      return true;
    }
    if (kind == kRecordRemainder || kind == kRecordFraction) {
      const bool fractions = kind == kRecordFraction;
      DescentLevel next{0, fractions, {}};
      if (replay_.gcds || !r.u32(next.level) || (fractions && next.level == 0) ||
          !get_values(r, next.values)) {
        return false;
      }
      // Top-down descent: each level is exactly one below the previous
      // record's, and fractions never come back once residues have begun.
      if (const auto& last = replay_.remainder;
          last && (next.level + 1 != last->level || (fractions && !last->fractions))) {
        return false;
      }
      replay_.remainder = std::move(next);
      return true;
    }
    if (kind == kRecordGcds) {
      std::vector<TreeInt> gcds;
      if (replay_.gcds || !get_values(r, gcds)) return false;
      replay_.gcds = std::move(gcds);
      return true;
    }
    return false;  // unknown record kind: treat as corruption, drop the tail
  });
}

BatchReplay BatchJournal::take_replay() { return std::move(replay_); }

void BatchJournal::append_product_level(std::uint32_t level,
                                        std::span<const TreeInt> nodes) {
  append_level(log_, kRecordProduct, level, nodes);
}

void BatchJournal::append_remainder_level(std::uint32_t level,
                                          std::span<const TreeInt> residues) {
  append_level(log_, kRecordRemainder, level, residues);
}

void BatchJournal::append_fraction_level(std::uint32_t level,
                                         std::span<const TreeInt> fractions) {
  append_level(log_, kRecordFraction, level, fractions);
}

void BatchJournal::append_gcds(std::span<const TreeInt> gcds) {
  core::RecordStream out(log_);
  out.u8(kRecordGcds);
  put_values(out, gcds);
  out.finish();
  log_.flush();  // the completion record is always made durable
}

void BatchJournal::flush() { log_.flush(); }

}  // namespace bulkgcd::batchgcd
