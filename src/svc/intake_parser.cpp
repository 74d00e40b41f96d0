#include "svc/intake_parser.hpp"

#include <cctype>
#include <stdexcept>

#include "rsa/pem.hpp"

namespace bulkgcd::svc {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// First whitespace-delimited token (for keystore record keywords).
std::string_view first_token(std::string_view s) {
  std::size_t end = 0;
  while (end < s.size() && !std::isspace(static_cast<unsigned char>(s[end]))) {
    ++end;
  }
  return s.substr(0, end);
}

}  // namespace

void IntakeParser::feed(std::string_view chunk) {
  // Split on newlines, carrying a partial tail line across feeds so records
  // broken at arbitrary chunk boundaries reassemble.
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    const std::size_t nl = chunk.find('\n', pos);
    if (nl == std::string_view::npos) {
      pending_.append(chunk.substr(pos));
      break;
    }
    pending_.append(chunk.substr(pos, nl - pos));
    std::string line = std::move(pending_);
    pending_.clear();
    consume_line(line);
    pos = nl + 1;
  }
}

std::vector<IntakeRecord> IntakeParser::drain() {
  std::vector<IntakeRecord> taken = std::move(out_);
  out_.clear();
  return taken;
}

std::vector<IntakeRecord> IntakeParser::finish() {
  if (!pending_.empty()) {
    std::string line = std::move(pending_);
    pending_.clear();
    consume_line(line);
  }
  if (in_pem_) {
    in_pem_ = false;
    pem_.clear();
    reject(pem_start_line_, "unterminated PEM block (stream ended before END)");
  }
  return drain();
}

void IntakeParser::consume_line(std::string_view raw) {
  ++line_no_;
  // Tolerate CRLF feeds.
  if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
  const std::string_view line = trim(raw);

  if (in_pem_) {
    pem_.append(raw);
    pem_.push_back('\n');
    if (line.rfind("-----END", 0) == 0) {
      in_pem_ = false;
      try {
        const rsa::PublicKey key = rsa::pem_decode_public_key(pem_);
        accept(key.n, RecordKind::kPem, pem_start_line_);
      } catch (const std::exception& e) {
        reject(pem_start_line_, std::string("bad PEM block: ") + e.what());
      }
      pem_.clear();
    }
    return;
  }

  if (line.empty() || line.front() == '#') return;

  if (line.rfind("-----BEGIN", 0) == 0) {
    in_pem_ = true;
    pem_start_line_ = line_no_;
    pem_.assign(raw);
    pem_.push_back('\n');
    return;
  }

  const std::string_view keyword = first_token(line);
  if (keyword == "modulus" || keyword == "keypair") {
    // Keystore record: the modulus is the first field after the keyword
    // (keypair carries e/d/p/q behind it — an intake service only needs n).
    const std::string_view rest = trim(line.substr(keyword.size()));
    const std::string_view hex = first_token(rest);
    if (hex.empty()) {
      reject(line_no_, "keystore record without a modulus field");
      return;
    }
    try {
      accept(mp::BigInt::from_hex(hex), RecordKind::kKeystore,
             line_no_);
    } catch (const std::exception& e) {
      reject(line_no_, std::string("bad keystore record: ") + e.what());
    }
    return;
  }

  try {
    accept(rsa::hex_decode_modulus(line), RecordKind::kRawHex, line_no_);
  } catch (const std::exception& e) {
    reject(line_no_, std::string("unrecognized record: ") + e.what());
  }
}

void IntakeParser::accept(mp::BigInt n, RecordKind kind, std::size_t line) {
  // Value-level screen shared by every record shape: the bulk engines
  // require odd, nonzero inputs (an even "RSA modulus" is trivially broken
  // anyway, and 0/1 would poison the scan corpus).
  if (n.bit_length() < 2) {
    reject(line, "rejected modulus: value below 2");
    return;
  }
  if ((n.limbs()[0] & 1u) == 0) {
    reject(line, "rejected modulus: even value is not a valid RSA modulus");
    return;
  }
  IntakeRecord rec;
  rec.ok = true;
  rec.n = std::move(n);
  rec.kind = kind;
  rec.line = line;
  out_.push_back(std::move(rec));
}

void IntakeParser::reject(std::size_t line, std::string error) {
  IntakeRecord rec;
  rec.ok = false;
  rec.line = line;
  rec.error = std::move(error);
  out_.push_back(std::move(rec));
}

}  // namespace bulkgcd::svc
