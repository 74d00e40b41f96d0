#include "core/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bulkgcd::core {

// ---- ByteWriter / ByteReader ------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(char((v >> (8 * i)) & 0xff));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(char((v >> (8 * i)) & 0xff));
}

template <mp::LimbType Limb>
void ByteWriter::bigint_limbs(const mp::BigIntT<Limb>& n) {
  u32(std::uint32_t(mp::limbs_for_bits<std::uint32_t>(n.bit_length())));
  mp::repack_limbs<std::uint32_t>(n.limbs(),
                                  [this](std::uint32_t limb) { u32(limb); });
}

template void ByteWriter::bigint_limbs(const mp::BigInt&);
template void ByteWriter::bigint_limbs(const mp::BigInt64&);

void ByteWriter::bigint_bytes(const mp::BigInt& n) {
  const auto limbs = n.limbs();
  const std::size_t bytes = (n.bit_length() + 7) / 8;
  u32(std::uint32_t(bytes));
  for (std::size_t b = 0; b < bytes; ++b) {
    out_.push_back(char((limbs[b / 4] >> (8 * (b % 4))) & 0xff));
  }
}

bool ByteReader::u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = std::uint8_t(bytes_[pos_++]);
  return true;
}

bool ByteReader::u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t(std::uint8_t(bytes_[pos_++])) << (8 * i);
  }
  return true;
}

bool ByteReader::u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t(std::uint8_t(bytes_[pos_++])) << (8 * i);
  }
  return true;
}

bool ByteReader::bytes(std::size_t n, std::string& out) {
  if (remaining() < n) return false;
  out.assign(bytes_.substr(pos_, n));
  pos_ += n;
  return true;
}

template <mp::LimbType Limb>
bool ByteReader::bigint_limbs(mp::BigIntT<Limb>& n) {
  std::uint32_t count = 0;
  if (!u32(count) || !fits(count, 4)) return false;
  std::vector<std::uint32_t> limbs(count);
  for (auto& limb : limbs) u32(limb);
  n = mp::repack<Limb>(std::span<const std::uint32_t>(limbs));
  return true;
}

template bool ByteReader::bigint_limbs(mp::BigInt&);
template bool ByteReader::bigint_limbs(mp::BigInt64&);

bool ByteReader::bigint_bytes(mp::BigInt& n) {
  std::uint32_t count = 0;
  if (!u32(count) || remaining() < count) return false;
  std::vector<std::uint32_t> limbs((std::size_t(count) + 3) / 4, 0);
  for (std::uint32_t b = 0; b < count; ++b) {
    const auto byte = std::uint32_t(std::uint8_t(bytes_[pos_++]));
    limbs[b / 4] |= byte << (8 * (b % 4));
  }
  n = mp::BigInt::from_limbs(limbs);
  return true;
}

// ---- RecordLog --------------------------------------------------------------

RecordLog::RecordLog(std::filesystem::path path, std::string_view magic,
                     std::string what, std::size_t fsync_every,
                     obs::HistogramMetric* fsync_hist,
                     obs::TraceRecorder* trace, std::uint32_t fsync_span)
    : path_(std::move(path)),
      magic_(magic),
      what_(std::move(what)),
      fsync_every_(std::max<std::size_t>(1, fsync_every)),
      fsync_hist_(fsync_hist),
      trace_(trace),
      fsync_span_(fsync_span) {}

RecordLog::~RecordLog() {
  if (file_ != nullptr && unsynced_ > 0) {
    std::fflush(file_);
    ::fsync(::fileno(file_));
  }
  close();
}

std::optional<std::string> RecordLog::open(std::string_view identity) {
  header_size_ = magic_.size() + identity.size();
  std::string bytes;
  std::error_code ec;
  if (std::filesystem::exists(path_, ec)) {
    std::ifstream in(path_, std::ios::binary);
    if (!in) fail("cannot read");
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto head = std::string_view(bytes).substr(0, magic_.size());
  if (bytes.size() < header_size_ && magic_.starts_with(head)) {
    create(identity);
    return std::nullopt;
  }
  // A magic that differs only in its last byte is another version of this
  // journal's format: name both, so the refusal says what to do about it.
  if (head.size() == magic_.size() && head != magic_ &&
      head.substr(0, magic_.size() - 1) ==
          std::string_view(magic_).substr(0, magic_.size() - 1)) {
    fail("format " + std::string(head) + " is not supported (this build reads " +
         magic_ + "); file left untouched");
  }
  if (bytes.size() < header_size_ || head != magic_) {
    fail("bad magic, not written by this program; file left untouched");
  }
  bytes_ = std::move(bytes);
  return bytes_.substr(magic_.size(), identity.size());
}

void RecordLog::create(std::string_view identity) {
  close();
  bytes_.clear();
  file_ = std::fopen(path_.string().c_str(), "wb");
  if (file_ == nullptr) fail("cannot create");
  write(magic_);
  write(identity);
  sync();
  sync_parent_dir();
}

void RecordLog::resume(std::size_t keep) {
  bytes_.clear();
  bytes_.shrink_to_fit();
  // Drop the torn tail before appending so the next reader never sees a
  // partial record followed by complete ones.
  std::error_code ec;
  const auto actual = std::filesystem::file_size(path_, ec);
  if (!ec && actual > keep) std::filesystem::resize_file(path_, keep);
  file_ = std::fopen(path_.string().c_str(), "ab");
  if (file_ == nullptr) fail("cannot reopen for append");
}

void RecordLog::append(std::string_view record) {
  write(record);
  if (unsynced_ >= fsync_every_) sync();
}

void RecordLog::flush() {
  if (file_ != nullptr && unsynced_ > 0) sync();
}

void RecordLog::write(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    fail("write failed");
  }
  ++unsynced_;
}

void RecordLog::sync() {
  obs::ScopedSpan span(fsync_hist_);
  obs::TraceSpan tspan(trace_, fsync_span_);
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    fail("fsync failed");
  }
  unsynced_ = 0;
}

void RecordLog::sync_parent_dir() {
  // A freshly created file survives a power cut only once its directory
  // entry is durable too.
  std::filesystem::path dir = path_.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("cannot open its directory to fsync it");
  // EINVAL: the file system cannot sync directories; nothing more to do.
  const bool ok = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  if (!ok) fail("directory fsync failed");
}

void RecordLog::close() noexcept {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void RecordLog::fail(const std::string& reason) const {
  throw std::runtime_error(what_ + " " + path_.string() + ": " + reason);
}

}  // namespace bulkgcd::core
