#include "batchgcd/batch_journal.hpp"

#include <stdexcept>

namespace bulkgcd::batchgcd {

namespace {

// ---- journal codec (docs/BATCHGCD.md) ---------------------------------------
// The file discipline (header, torn tail, fsync cadence) is core/record_log's.
// Record order invariants:
//   - product levels appear in increasing level order starting at 1, each
//     exactly once;
//   - remainder levels appear in decreasing level order starting at L−2
//     (the descent walks top-down), each exactly once, and only after every
//     product level;
//   - the gcds record, if present, is last.
// Any record breaking these is treated as corruption: the tail from it on
// is dropped, exactly like a torn write.

// Version 2: remainder records hold cofactor residues (P / N) mod N. The
// square residues P mod N² of version 1 (BGCDBTR1) are refused at open.
constexpr std::string_view kMagic = "BGCDBTR2";
constexpr std::uint8_t kRecordProduct = 1;
constexpr std::uint8_t kRecordRemainder = 2;
constexpr std::uint8_t kRecordGcds = 3;

void put_values(core::ByteWriter& w, std::span<const TreeInt> values) {
  w.u64(values.size());
  for (const auto& v : values) w.bigint_limbs(v);
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

core::ByteWriter level_record(std::uint8_t kind, std::uint32_t level,
                              std::span<const TreeInt> values) {
  core::ByteWriter w;
  w.u8(kind);
  w.u32(level);
  put_values(w, values);
  return w;
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
  bool descending = false;
  std::uint32_t last_remainder = 0;
  log_.replay([&](core::ByteReader& r) {
    std::uint8_t kind = 0;
    if (!r.u8(kind)) return false;
    if (kind == kRecordProduct) {
      std::uint32_t level = 0;
      std::vector<TreeInt> nodes;
      if (descending || replay_.gcds || !r.u32(level) ||
          level != next_product || !get_values(r, nodes)) {
        return false;
      }
      replay_.product_levels.emplace_back(level, std::move(nodes));
      ++next_product;
      return true;
    }
    if (kind == kRecordRemainder) {
      std::uint32_t level = 0;
      std::vector<TreeInt> residues;
      if (replay_.gcds || !r.u32(level) || !get_values(r, residues)) {
        return false;
      }
      // Top-down descent: each remainder level is exactly one below the
      // previous record's level.
      if (descending && level + 1 != last_remainder) return false;
      descending = true;
      last_remainder = level;
      replay_.remainder.emplace(level, std::move(residues));
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
  log_.append(level_record(kRecordProduct, level, nodes).str());
}

void BatchJournal::append_remainder_level(std::uint32_t level,
                                          std::span<const TreeInt> residues) {
  log_.append(level_record(kRecordRemainder, level, residues).str());
}

void BatchJournal::append_gcds(std::span<const TreeInt> gcds) {
  core::ByteWriter w;
  w.u8(kRecordGcds);
  put_values(w, gcds);
  log_.append(w.str());
  log_.flush();  // the completion record is always made durable
}

void BatchJournal::flush() { log_.flush(); }

}  // namespace bulkgcd::batchgcd
