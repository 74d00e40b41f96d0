// Append-only durable record log: the one file discipline under the three
// journals — the scan checkpoint (BGCDCKP1, bulk/scan_driver.cpp), the batch
// tree journal (BGCDBTR2, batchgcd/batch_journal.cpp) and the intake arrival
// journal (BGCDARJ1, svc/arrival_journal.cpp). docs/RECORD_LOG.md states the
// same rules for readers of the file formats.
//
// File: an 8-byte magic, the journal's fixed-size identity bytes, then
// records back to back. Every integer is little-endian. There is no framing:
// each record starts with its kind byte and its codec, owned by the typed
// journal, determines its length.
//
// Open: an absent file, an empty file, or a file shorter than the header
// whose bytes are a prefix of the magic (a crash tore the header while the
// file was being created) is created fresh — header written and fsynced, then
// the parent directory fsynced so the new entry itself is durable. A file
// that is not ours (wrong magic, or too short to be ours) is refused with
// std::runtime_error and left untouched; a magic that differs from ours only
// in its last byte (another format version) is refused with an error naming
// both versions. Otherwise the stored identity comes
// back to the journal, which compares it and builds its own error text.
//
// Replay: the journal's decoder is called once per record until it rejects
// one or the bytes run out; the file is truncated to the end of the last
// record the decoder accepted (a torn tail from a crash mid-append, or an
// invariant-breaking record, and everything after it) and reopened for
// append.
//
// Append: one fwrite per record, flush + fsync after every `fsync_every`
// records. flush() syncs whatever is not yet synced; the destructor does the
// same, best effort. Not thread-safe: a journal with concurrent writers
// holds its own lock around every call.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class HistogramMetric;
class TraceRecorder;
}  // namespace bulkgcd::obs

namespace bulkgcd::core {

/// Little-endian encoder for one record (or a header).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(char(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::string_view b) { out_.append(b); }
  /// u32 limb count, then the value's canonical 32-bit limbs (normalized:
  /// no zero top limb) — the journal's canonical 32-bit limbs, whatever the
  /// in-memory width, so a 64-bit tree value and a 32-bit BigInt of the
  /// same value encode to the same bytes.
  template <mp::LimbType Limb>
  void bigint_limbs(const mp::BigIntT<Limb>& n);
  /// u32 byte count, then exactly ⌈bit_length / 8⌉ canonical little-endian
  /// bytes (the encoding rsa::modulus_fingerprint hashes).
  void bigint_bytes(const mp::BigInt& n);

  const std::string& str() const noexcept { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked sequential decoder. A read returns false when the bytes
/// run out; a scalar read then consumes nothing.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : bytes_(bytes) {}

  bool u8(std::uint8_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool bytes(std::size_t n, std::string& out);
  /// Decodes bigint_limbs' encoding at any in-memory limb width.
  template <mp::LimbType Limb>
  bool bigint_limbs(mp::BigIntT<Limb>& n);
  bool bigint_bytes(mp::BigInt& n);

  /// True when `count` items of at least `min_bytes` each can still fit —
  /// rejects a count a torn or corrupt field fabricated before anything is
  /// allocated for it.
  bool fits(std::uint64_t count, std::size_t min_bytes) const noexcept {
    return count <= remaining() / min_bytes;
  }
  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

class RecordLog {
 public:
  /// `what` names the file in error messages ("scan checkpoint").
  /// `fsync_hist` (optional) receives every flush + fsync latency;
  /// `trace` (optional) records each as a `fsync_span` span.
  RecordLog(std::filesystem::path path, std::string_view magic,
            std::string what, std::size_t fsync_every,
            obs::HistogramMetric* fsync_hist = nullptr,
            obs::TraceRecorder* trace = nullptr, std::uint32_t fsync_span = 0);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens the log against `identity`. Returns std::nullopt when the file
  /// was created fresh (ready for append). Otherwise returns the stored
  /// identity bytes, and the caller must follow with replay() to resume or
  /// create() to start over. Throws on a foreign file, leaving it untouched.
  std::optional<std::string> open(std::string_view identity);

  /// Creates the file fresh with this header, replacing any previous one.
  void create(std::string_view identity);

  /// Feeds the records after the header to `decode` (bool(ByteReader&),
  /// true = one whole valid record consumed and applied) until it returns
  /// false or the bytes run out, truncates the file after the last accepted
  /// record and reopens it for append.
  template <typename Decode>
  void replay(Decode&& decode) {
    ByteReader reader(std::string_view(bytes_).substr(header_size_));
    std::size_t good = 0;
    while (reader.remaining() > 0 && decode(reader)) good = reader.pos();
    resume(header_size_ + good);
  }

  /// Appends one whole record; syncs on the fsync_every cadence.
  void append(std::string_view record);
  /// Flush + fsync every record appended since the last sync.
  void flush();

 private:
  void resume(std::size_t keep);
  void write(std::string_view bytes);
  void sync();
  void sync_parent_dir();
  void close() noexcept;
  [[noreturn]] void fail(const std::string& reason) const;

  std::filesystem::path path_;
  std::string magic_;
  std::string what_;
  std::size_t fsync_every_;
  obs::HistogramMetric* fsync_hist_;
  obs::TraceRecorder* trace_;
  std::uint32_t fsync_span_;
  std::size_t header_size_ = 0;
  std::string bytes_;  // file contents between open() and replay()
  std::FILE* file_ = nullptr;
  std::size_t unsynced_ = 0;
};

}  // namespace bulkgcd::core
