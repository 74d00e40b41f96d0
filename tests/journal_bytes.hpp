// Test helpers for the journal wire-format pins and truncation sweeps: a
// hand-rolled little-endian encoder, written from the format tables in the
// docs and independent of core/record_log, plus whole-file read/write.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace bulkgcd::test {

/// Append the low `width` bytes of `v`, least significant first.
inline void put_le(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

inline std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void spit(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
}

}  // namespace bulkgcd::test
