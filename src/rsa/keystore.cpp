#include "rsa/keystore.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace bulkgcd::rsa {

namespace {

/// Loader-side counter handles, all null on the null-registry path.
/// Duplicate detection fingerprints each modulus (rsa::modulus_fingerprint,
/// the canonical-byte FNV-1a shared with the intake dedup element) into a
/// set — the set is only built when a registry is supplied, so
/// un-instrumented loads stay allocation-free.
struct LoaderTelemetry {
  obs::Counter* records = nullptr;
  obs::Counter* comment_lines = nullptr;
  obs::Counter* parse_errors = nullptr;
  obs::Counter* duplicate_moduli = nullptr;
  std::unordered_set<std::uint64_t> seen;

  static LoaderTelemetry resolve(obs::MetricsRegistry* metrics) {
    LoaderTelemetry t;
    if (metrics != nullptr) {
      t.records = metrics->counter("keystore_records_total");
      t.comment_lines = metrics->counter("keystore_comment_lines_total");
      t.parse_errors = metrics->counter("keystore_parse_errors_total");
      t.duplicate_moduli = metrics->counter("keystore_duplicate_moduli_total");
    }
    return t;
  }

  void note_modulus(const mp::BigInt& n) {
    if (records) records->inc();
    if (duplicate_moduli) {
      // The shared canonical-byte fingerprint (keystore.hpp) — the old
      // open-coded mix hardcoded 8 bytes per limb, so the same modulus
      // fingerprinted differently across limb widths and hashed phantom
      // zero bytes on u32 builds.
      if (!seen.insert(modulus_fingerprint(n)).second) duplicate_moduli->inc();
    }
  }
};

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("keystore: cannot write " + path.string());
  }
  return out;
}

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("keystore: cannot read " + path.string());
  }
  return in;
}

void write_comment(std::ofstream& out, const std::string& comment) {
  if (comment.empty()) return;
  std::istringstream lines(comment);
  std::string line;
  while (std::getline(lines, line)) out << "# " << line << "\n";
}

/// The whitespace-separated fields of one line, split as `istream >>`
/// splits them (space, \t, \n, \v, \f, \r), as views into the line.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// The next field; empty once the line has no more.
  std::string_view next() {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view field = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return field;
  }

 private:
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  std::string_view rest_;
};

[[noreturn]] void malformed(const std::filesystem::path& path, std::size_t line) {
  throw std::runtime_error("keystore: malformed record at " + path.string() +
                           ":" + std::to_string(line));
}

}  // namespace

std::uint64_t corpus_digest(std::span<const mp::BigInt> moduli) noexcept {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = kOffset;
  auto mix_u64 = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xff)) * kPrime;
    }
  };
  mix_u64(moduli.size());
  for (const auto& n : moduli) {
    mix_u64(n.size());
    for (const auto limb : n.limbs()) mix_u64(limb);
  }
  return h;
}

void save_moduli(const std::filesystem::path& path,
                 const std::vector<mp::BigInt>& moduli,
                 const std::string& comment) {
  auto out = open_out(path);
  write_comment(out, comment);
  for (const auto& n : moduli) out << "modulus " << n.to_hex() << "\n";
  if (!out) throw std::runtime_error("keystore: write failed: " + path.string());
}

std::vector<mp::BigInt> load_moduli(const std::filesystem::path& path,
                                    obs::MetricsRegistry* metrics) {
  auto in = open_in(path);
  LoaderTelemetry tele = LoaderTelemetry::resolve(metrics);
  // Counted before the throw so a load that dies on a malformed record
  // still shows the error in the last telemetry snapshot.
  auto fail = [&](std::size_t at) {
    if (tele.parse_errors) tele.parse_errors->inc();
    malformed(path, at);
  };
  std::vector<mp::BigInt> moduli;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    Fields fields(line);
    const std::string_view kind = fields.next();
    if (kind.empty() || kind[0] == '#') {
      if (tele.comment_lines) tele.comment_lines->inc();
      continue;
    }
    // n is the first field of both record kinds.
    if (kind != "modulus" && kind != "keypair") fail(line_no);
    const std::string_view hex = fields.next();
    if (hex.empty()) fail(line_no);
    moduli.push_back(mp::BigInt::from_hex(hex));
    tele.note_modulus(moduli.back());
  }
  return moduli;
}

void save_keypairs(const std::filesystem::path& path,
                   const std::vector<KeyPair>& keys,
                   const std::string& comment) {
  auto out = open_out(path);
  write_comment(out, comment);
  for (const auto& key : keys) {
    out << "keypair " << key.n.to_hex() << " " << key.e.to_hex() << " "
        << key.d.to_hex() << " " << key.p.to_hex() << " " << key.q.to_hex()
        << "\n";
  }
  if (!out) throw std::runtime_error("keystore: write failed: " + path.string());
}

std::vector<KeyPair> load_keypairs(const std::filesystem::path& path,
                                   obs::MetricsRegistry* metrics) {
  auto in = open_in(path);
  LoaderTelemetry tele = LoaderTelemetry::resolve(metrics);
  auto fail = [&](std::size_t at) {
    if (tele.parse_errors) tele.parse_errors->inc();
    malformed(path, at);
  };
  std::vector<KeyPair> keys;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    Fields fields(line);
    const std::string_view kind = fields.next();
    if (kind.empty() || kind[0] == '#') {
      if (tele.comment_lines) tele.comment_lines->inc();
      continue;
    }
    if (kind == "modulus") continue;  // tolerated in mixed files
    if (kind != "keypair") fail(line_no);
    std::string_view hex[5];
    for (auto& field : hex) {
      field = fields.next();
      if (field.empty()) fail(line_no);
    }
    KeyPair key;
    key.n = mp::BigInt::from_hex(hex[0]);
    key.e = mp::BigInt::from_hex(hex[1]);
    key.d = mp::BigInt::from_hex(hex[2]);
    key.p = mp::BigInt::from_hex(hex[3]);
    key.q = mp::BigInt::from_hex(hex[4]);
    tele.note_modulus(key.n);
    keys.push_back(std::move(key));
  }
  return keys;
}

}  // namespace bulkgcd::rsa
