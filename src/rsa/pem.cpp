#include "rsa/pem.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace bulkgcd::rsa {

namespace {

// rsaEncryption OID 1.2.840.113549.1.1.1, pre-encoded.
const std::uint8_t kRsaOid[] = {0x06, 0x09, 0x2a, 0x86, 0x48, 0x86,
                                0xf7, 0x0d, 0x01, 0x01, 0x01};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("pem/der: " + what);
}

// ---- DER writer -----------------------------------------------------------

void write_length(std::vector<std::uint8_t>& out, std::size_t length) {
  if (length < 0x80) {
    out.push_back(std::uint8_t(length));
    return;
  }
  std::vector<std::uint8_t> bytes;
  while (length > 0) {
    bytes.push_back(std::uint8_t(length & 0xFF));
    length >>= 8;
  }
  out.push_back(std::uint8_t(0x80 | bytes.size()));
  out.insert(out.end(), bytes.rbegin(), bytes.rend());
}

void write_tlv(std::vector<std::uint8_t>& out, std::uint8_t tag,
               const std::vector<std::uint8_t>& content) {
  out.push_back(tag);
  write_length(out, content.size());
  out.insert(out.end(), content.begin(), content.end());
}

/// Big-endian magnitude with a leading 0x00 when the high bit is set
/// (INTEGERs are signed in DER). One pass over the limbs, top limb first,
/// skipping the leading zero bytes of the top limb.
std::vector<std::uint8_t> integer_content(const mp::BigInt& value) {
  using Limb = mp::BigInt::limb_type;
  const auto limbs = value.limbs();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(limbs.size() * sizeof(Limb) + 1);
  for (std::size_t i = limbs.size(); i-- > 0;) {
    for (std::size_t b = sizeof(Limb); b-- > 0;) {
      const auto byte = std::uint8_t(limbs[i] >> (8 * b));
      if (bytes.empty() && byte == 0) continue;
      if (bytes.empty() && (byte & 0x80)) bytes.push_back(0x00);
      bytes.push_back(byte);
    }
  }
  if (bytes.empty()) bytes.push_back(0x00);  // zero
  return bytes;
}

std::vector<std::uint8_t> encode_rsa_public_key(const PublicKey& key) {
  std::vector<std::uint8_t> body;
  write_tlv(body, 0x02, integer_content(key.n));
  write_tlv(body, 0x02, integer_content(key.e));
  std::vector<std::uint8_t> out;
  write_tlv(out, 0x30, body);
  return out;
}

// ---- DER reader -----------------------------------------------------------

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t byte() {
    if (pos >= size) fail("truncated DER");
    return data[pos++];
  }

  std::size_t length() {
    const std::uint8_t first = byte();
    if ((first & 0x80) == 0) return first;
    const std::size_t count = first & 0x7F;
    if (count == 0 || count > sizeof(std::size_t)) fail("bad DER length");
    std::size_t value = 0;
    for (std::size_t i = 0; i < count; ++i) value = (value << 8) | byte();
    return value;
  }

  /// Expect `tag`; returns a sub-reader over the content.
  Reader tlv(std::uint8_t tag) {
    const std::uint8_t got = byte();
    if (got != tag) {
      fail("expected tag 0x" + std::to_string(tag) + " got 0x" +
           std::to_string(got) + " at offset " + std::to_string(pos - 1));
    }
    const std::size_t len = length();
    if (len > size - pos) fail("TLV overruns buffer");  // pos + len may wrap
    Reader sub{data + pos, len};
    pos += len;
    return sub;
  }

  bool done() const { return pos == size; }
};

mp::BigInt read_integer(Reader& reader) {
  Reader content = reader.tlv(0x02);
  if (content.size == 0) fail("empty INTEGER");
  if (content.data[0] & 0x80) fail("negative INTEGER in public key");
  return mp::BigInt::from_bytes_be({content.data, content.size});
}

PublicKey decode_rsa_public_key(Reader reader) {
  Reader seq = reader.tlv(0x30);
  PublicKey key;
  key.n = read_integer(seq);
  key.e = read_integer(seq);
  if (!seq.done()) fail("trailing bytes inside RSAPublicKey");
  return key;
}

}  // namespace

// ---- base64 ----------------------------------------------------------------

static const char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::string base64_encode(const std::vector<std::uint8_t>& data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  for (std::size_t i = 0; i < data.size(); i += 3) {
    const std::uint32_t b0 = data[i];
    const std::uint32_t b1 = i + 1 < data.size() ? data[i + 1] : 0;
    const std::uint32_t b2 = i + 2 < data.size() ? data[i + 2] : 0;
    const std::uint32_t triple = (b0 << 16) | (b1 << 8) | b2;
    out.push_back(kB64Alphabet[(triple >> 18) & 0x3F]);
    out.push_back(kB64Alphabet[(triple >> 12) & 0x3F]);
    out.push_back(i + 1 < data.size() ? kB64Alphabet[(triple >> 6) & 0x3F] : '=');
    out.push_back(i + 2 < data.size() ? kB64Alphabet[triple & 0x3F] : '=');
  }
  return out;
}

std::vector<std::uint8_t> base64_decode(std::string_view text) {
  int value_of[256];
  std::fill(std::begin(value_of), std::end(value_of), -1);
  for (int i = 0; i < 64; ++i) {
    value_of[std::uint8_t(kB64Alphabet[i])] = i;
  }
  std::vector<std::uint8_t> out;
  std::uint32_t acc = 0;
  int have_bits = 0;
  int padding = 0;
  for (const char c : text) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') continue;
    if (c == '=') {
      ++padding;
      continue;
    }
    if (padding > 0) fail("base64 data after padding");
    const int v = value_of[std::uint8_t(c)];
    if (v < 0) fail(std::string("bad base64 character '") + c + "'");
    acc = (acc << 6) | std::uint32_t(v);
    have_bits += 6;
    if (have_bits >= 8) {
      have_bits -= 8;
      out.push_back(std::uint8_t(acc >> have_bits));
    }
  }
  if (padding > 2) fail("too much base64 padding");
  return out;
}

// ---- DER public API ---------------------------------------------------------

std::vector<std::uint8_t> der_encode_public_key(const PublicKey& key,
                                                PemKind kind) {
  const std::vector<std::uint8_t> pkcs1 = encode_rsa_public_key(key);
  if (kind == PemKind::kPkcs1) return pkcs1;

  // SubjectPublicKeyInfo: SEQUENCE { SEQUENCE { OID, NULL }, BIT STRING }
  std::vector<std::uint8_t> alg(kRsaOid, kRsaOid + sizeof(kRsaOid));
  alg.push_back(0x05);  // NULL
  alg.push_back(0x00);
  std::vector<std::uint8_t> bitstring;
  bitstring.push_back(0x00);  // zero unused bits
  bitstring.insert(bitstring.end(), pkcs1.begin(), pkcs1.end());

  std::vector<std::uint8_t> body;
  write_tlv(body, 0x30, alg);
  write_tlv(body, 0x03, bitstring);
  std::vector<std::uint8_t> out;
  write_tlv(out, 0x30, body);
  return out;
}

PublicKey der_decode_public_key(const std::vector<std::uint8_t>& der) {
  Reader top{der.data(), der.size()};
  Reader seq = top.tlv(0x30);
  if (!top.done()) fail("trailing bytes after top-level SEQUENCE");
  if (seq.size > 0 && seq.data[0] == 0x30) {
    // SPKI: algorithm SEQUENCE then BIT STRING holding RSAPublicKey.
    Reader alg = seq.tlv(0x30);
    Reader oid = alg.tlv(0x06);
    if (oid.size != sizeof(kRsaOid) - 2 ||
        !std::equal(oid.data, oid.data + oid.size, kRsaOid + 2)) {
      fail("not an rsaEncryption key");
    }
    Reader bits = seq.tlv(0x03);
    if (bits.size < 1 || bits.data[0] != 0x00) fail("bad BIT STRING");
    Reader inner{bits.data + 1, bits.size - 1};
    return decode_rsa_public_key(inner);
  }
  // Bare PKCS#1: the outer SEQUENCE *is* RSAPublicKey.
  Reader whole{der.data(), der.size()};
  return decode_rsa_public_key(whole);
}

// ---- PEM --------------------------------------------------------------------

namespace {

const char* label_of(PemKind kind) {
  return kind == PemKind::kPkcs1 ? "RSA PUBLIC KEY" : "PUBLIC KEY";
}

}  // namespace

std::string pem_encode_public_key(const PublicKey& key, PemKind kind) {
  const std::string body = base64_encode(der_encode_public_key(key, kind));
  std::string out = std::string("-----BEGIN ") + label_of(kind) + "-----\n";
  for (std::size_t i = 0; i < body.size(); i += 64) {
    out += body.substr(i, 64);
    out += '\n';
  }
  out += std::string("-----END ") + label_of(kind) + "-----\n";
  return out;
}

PublicKey pem_decode_public_key(std::string_view pem) {
  const auto keys = pem_decode_bundle(pem);
  if (keys.empty()) fail("no PEM block found");
  if (keys.size() > 1) fail("multiple PEM blocks; use pem_decode_bundle");
  return keys.front();
}

std::vector<PublicKey> pem_decode_bundle(std::string_view text) {
  std::vector<PublicKey> keys;
  std::size_t cursor = 0;
  while (true) {
    const std::size_t begin = text.find("-----BEGIN ", cursor);
    if (begin == std::string_view::npos) break;
    const std::size_t label_end = text.find("-----", begin + 11);
    if (label_end == std::string_view::npos) fail("unterminated BEGIN line");
    const std::string_view label = text.substr(begin + 11, label_end - begin - 11);
    if (label != "RSA PUBLIC KEY" && label != "PUBLIC KEY") {
      fail("unsupported PEM label '" + std::string(label) + "'");
    }
    const std::size_t body_start = label_end + 5;
    const std::string end_marker = "-----END " + std::string(label) + "-----";
    const std::size_t end = text.find(end_marker, body_start);
    if (end == std::string_view::npos) fail("missing END marker");
    const std::vector<std::uint8_t> der =
        base64_decode(text.substr(body_start, end - body_start));
    keys.push_back(der_decode_public_key(der));
    cursor = end + end_marker.size();
  }
  return keys;
}

mp::BigInt hex_decode_modulus(std::string_view text) {
  // Strip the tolerated decorations first so position reports below refer to
  // the digit string a human sees.
  std::size_t start = 0;
  while (start < text.size() &&
         std::isspace(static_cast<unsigned char>(text[start]))) {
    ++start;
  }
  constexpr std::string_view kLabel = "Modulus=";
  if (text.substr(start, kLabel.size()) == kLabel) start += kLabel.size();
  if (start + 1 < text.size() && text[start] == '0' &&
      (text[start + 1] == 'x' || text[start + 1] == 'X')) {
    start += 2;
  }
  std::size_t digits = 0;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      throw std::runtime_error("hex modulus: non-hex character at offset " +
                               std::to_string(i));
    }
    ++digits;
  }
  if (digits == 0) throw std::runtime_error("hex modulus: empty input");
  if (digits % 2 != 0) {
    throw std::runtime_error("hex modulus: odd digit count (" +
                             std::to_string(digits) +
                             "); raw keys are byte strings");
  }
  return mp::BigInt::from_spaced_hex(text.substr(start));
}

}  // namespace bulkgcd::rsa
