// Differential and seeded mutational fuzz tests for key ingest: the hex and
// big-endian byte limb decoders against GMP at every limb width, and the
// keystore loader, the DER/PEM decoder and the intake parser on mutated
// input against reference models written here, independent of the code
// under test. A mutant must decode to the reference value or fail with the
// reference's exception type and message (which names the line).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "gmp_oracle.hpp"
#include "journal_bytes.hpp"
#include "obs/metrics.hpp"
#include "rsa/keystore.hpp"
#include "rsa/pem.hpp"
#include "svc/intake_parser.hpp"

namespace bulkgcd {
namespace {

using test::Mpz;

constexpr std::string_view kHexDigits = "0123456789abcdefABCDEF";
constexpr std::string_view kSpaces = " \t\n\v\f\r";

char pick(Xoshiro256& rng, std::string_view from) {
  return from[rng.below(from.size())];
}

std::string random_digits(Xoshiro256& rng, std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(pick(rng, kHexDigits));
  return out;
}

/// The value of bare hex digits; zero for none.
Mpz mpz_of_digits(const std::string& digits) {
  Mpz out;
  if (!digits.empty()) {
    EXPECT_EQ(mpz_set_str(out.get(), digits.c_str(), 16), 0) << digits;
  }
  return out;
}

/// What a decode did: "ok <decimal>" or "<exception type>: <message>".
template <typename Decode>
std::string outcome_of(Decode&& decode) {
  try {
    return "ok " + decode().to_dec();
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("other: ") + e.what();
  }
}

/// BigInt::from_hex's contract: an optional 0x/0X, then digits with '_'
/// and ',' ignored; empty text (after the prefix) and any other character
/// throw std::invalid_argument.
Mpz reference_from_hex(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
  if (text.empty()) throw std::invalid_argument("BigInt::from_hex: empty input");
  std::string digits;
  for (const char c : text) {
    if (c == '_' || c == ',') continue;
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("BigInt::from_hex: bad digit");
    }
    digits.push_back(c);
  }
  return mpz_of_digits(digits);
}

/// rsa::hex_decode_modulus's contract (pem.hpp).
Mpz reference_hex_modulus(std::string_view text) {
  std::size_t start = 0;
  while (start < text.size() && std::isspace(static_cast<unsigned char>(text[start]))) {
    ++start;
  }
  if (text.substr(start, 8) == "Modulus=") start += 8;
  if (start + 1 < text.size() && text[start] == '0' &&
      (text[start + 1] == 'x' || text[start + 1] == 'X')) {
    start += 2;
  }
  std::string digits;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      throw std::runtime_error("hex modulus: non-hex character at offset " +
                               std::to_string(i));
    }
    digits.push_back(c);
  }
  if (digits.empty()) throw std::runtime_error("hex modulus: empty input");
  if (digits.size() % 2 != 0) {
    throw std::runtime_error("hex modulus: odd digit count (" +
                             std::to_string(digits.size()) +
                             "); raw keys are byte strings");
  }
  return mpz_of_digits(digits);
}

/// Seeded mutations of a byte string: replaced, inserted, deleted and
/// duplicated bytes, biased toward the characters a tokenizer cares about.
std::string mutate(Xoshiro256& rng, std::string text, int count) {
  constexpr std::string_view kInteresting(" \t\r\n#_,xX0gG-=\0\xff", 16);
  auto any_byte = [&] {
    return rng.below(2) == 0 ? pick(rng, kInteresting) : char(rng.below(256));
  };
  for (int m = 0; m < count; ++m) {
    const std::size_t at = text.empty() ? 0 : rng.below(text.size());
    switch (rng.below(text.empty() ? 1 : 5)) {
      case 0: text.insert(text.begin() + std::ptrdiff_t(at), any_byte()); break;
      case 1: text[at] = any_byte(); break;
      case 2: text.erase(at, 1); break;
      case 3: text.insert(at, text.substr(at, 1 + rng.below(8))); break;
      case 4: text.resize(at); break;
    }
  }
  return text;
}

// ---- limb decoders against GMP ----------------------------------------------

template <typename Limb>
class LimbDecodeTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(LimbDecodeTest, LimbTypes);

TYPED_TEST(LimbDecodeTest, FromHexMatchesGmpAroundEveryLimbBoundary) {
  // Every digit count from 1 to three limbs and one digit, in mixed case,
  // with and without the prefix, with separators anywhere (leading,
  // trailing, doubled), leading zeros and all-zero strings.
  using Int = mp::BigIntT<TypeParam>;
  constexpr std::size_t kDigitsPerLimb = mp::limb_bits<TypeParam> / 4;
  Xoshiro256 rng(3301 + kDigitsPerLimb);
  for (std::size_t len = 1; len <= 3 * kDigitsPerLimb + 1; ++len) {
    for (int trial = 0; trial < 16; ++trial) {
      std::string digits = random_digits(rng, len);
      if (trial % 4 == 1) {
        const std::size_t zeros = rng.below(len + 1);
        digits.replace(0, zeros, zeros, '0');
      }
      if (trial % 8 == 2) digits.assign(len, '0');
      std::string text;
      const std::size_t prefix = rng.below(3);
      if (prefix == 1) text = "0x";
      if (prefix == 2) text = "0X";
      for (const char c : digits) {
        while (trial % 2 == 0 && rng.below(4) == 0) text.push_back(rng.below(2) ? '_' : ',');
        text.push_back(c);
      }
      if (trial % 2 == 0 && rng.below(2) == 0) text.push_back('_');
      SCOPED_TRACE(text);
      const Mpz want = mpz_of_digits(digits);
      EXPECT_EQ(test::to_mpz(Int::from_hex(text)), want);
      // Spaced hex takes whitespace where from_hex takes separators.
      std::string spaced;
      for (const char c : digits) {
        if (rng.below(3) == 0) spaced.push_back(pick(rng, kSpaces));
        spaced.push_back(c);
      }
      EXPECT_EQ(test::to_mpz(Int::from_spaced_hex(spaced)), want);
    }
  }
  // A 4096-bit value, the size of the largest real keys.
  const std::string big = random_digits(rng, 1024);
  EXPECT_EQ(test::to_mpz(Int::from_hex(big)), mpz_of_digits(big));
}

TYPED_TEST(LimbDecodeTest, FromHexRejectsLikeItsContract) {
  using Int = mp::BigIntT<TypeParam>;
  auto message = [](std::string_view text) {
    return outcome_of([&] { return test::to_mpz(Int::from_hex(text)); });
  };
  EXPECT_EQ(message(""), "invalid_argument: BigInt::from_hex: empty input");
  EXPECT_EQ(message("0x"), "invalid_argument: BigInt::from_hex: empty input");
  EXPECT_EQ(message("0X"), "invalid_argument: BigInt::from_hex: empty input");
  EXPECT_EQ(message("_"), "ok 0");
  EXPECT_EQ(message("0x_,"), "ok 0");
  EXPECT_EQ(message("0x0x1"), "invalid_argument: BigInt::from_hex: bad digit");
  EXPECT_EQ(message(" 1"), "invalid_argument: BigInt::from_hex: bad digit");
  EXPECT_EQ(message(std::string_view("1\0", 2)),
            "invalid_argument: BigInt::from_hex: bad digit");
  EXPECT_EQ(
      outcome_of([] { return test::to_mpz(Int::from_spaced_hex("ab_cd")); }),
      "invalid_argument: BigInt::from_hex: bad digit");
  EXPECT_EQ(outcome_of([] { return test::to_mpz(Int::from_spaced_hex(" \t")); }),
            "ok 0");
  // Mutated strings decode as the contract says, or throw its exception.
  Xoshiro256 rng(3302);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = rng.below(2) ? "0x" : "";
    text += random_digits(rng, 1 + rng.below(40));
    text = mutate(rng, text, 1 + int(rng.below(3)));
    SCOPED_TRACE(text);
    EXPECT_EQ(message(text),
              outcome_of([&] { return reference_from_hex(text); }));
  }
}

TYPED_TEST(LimbDecodeTest, FromBytesBeMatchesGmpImport) {
  using Int = mp::BigIntT<TypeParam>;
  constexpr std::size_t kBytesPerLimb = mp::limb_bits<TypeParam> / 8;
  Xoshiro256 rng(3303 + kBytesPerLimb);
  for (std::size_t len = 0; len <= 3 * kBytesPerLimb + 1; ++len) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::uint8_t> bytes(len);
      for (auto& b : bytes) b = std::uint8_t(rng());
      if (trial % 4 == 1) std::fill_n(bytes.begin(), rng.below(len + 1), 0);
      if (trial % 8 == 2) std::fill(bytes.begin(), bytes.end(), 0);
      Mpz want;
      mpz_import(want.get(), bytes.size(), 1, 1, 1, 0, bytes.data());
      EXPECT_EQ(test::to_mpz(Int::from_bytes_be(bytes)), want)
          << "len " << len << " trial " << trial;
    }
  }
}

// ---- DER / PEM ----------------------------------------------------------------

/// A TLV walk written from X.690, independent of the decoder: the content
/// of the next element if its tag is `tag` and it fits.
std::optional<std::span<const std::uint8_t>> next_tlv(std::span<const std::uint8_t>& in,
                                                     std::uint8_t tag) {
  if (in.size() < 2 || in[0] != tag) return std::nullopt;
  std::size_t length = in[1];
  std::size_t at = 2;
  if (length & 0x80) {
    const std::size_t count = length & 0x7f;
    if (count == 0 || count > 8 || in.size() < 2 + count) return std::nullopt;
    length = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (length >> 56) return std::nullopt;
      length = (length << 8) | in[at++];
    }
  }
  if (length > in.size() - at) return std::nullopt;
  const auto content = in.subspan(at, length);
  in = in.subspan(at + length);
  return content;
}

/// The modulus INTEGER's content in a PKCS#1 or SPKI encoding.
std::optional<std::span<const std::uint8_t>> modulus_bytes(
    std::span<const std::uint8_t> der) {
  auto seq = next_tlv(der, 0x30);
  if (!seq) return std::nullopt;
  if (!seq->empty() && (*seq)[0] == 0x30) {
    if (!next_tlv(*seq, 0x30)) return std::nullopt;  // AlgorithmIdentifier
    auto bits = next_tlv(*seq, 0x03);
    if (!bits || bits->empty()) return std::nullopt;
    std::span<const std::uint8_t> inner = bits->subspan(1);
    seq = next_tlv(inner, 0x30);
    if (!seq) return std::nullopt;
  }
  return next_tlv(*seq, 0x02);
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string armor(const std::vector<std::uint8_t>& der, rsa::PemKind kind) {
  const char* label = kind == rsa::PemKind::kPkcs1 ? "RSA PUBLIC KEY" : "PUBLIC KEY";
  return std::string("-----BEGIN ") + label + "-----\n" + rsa::base64_encode(der) +
         "\n-----END " + label + "-----\n";
}

/// Public keys whose DER has every modulus-length shape: short and long
/// lengths, a leading 0x00 (high bit set) and none.
std::vector<rsa::PublicKey> der_keys(Xoshiro256& rng) {
  std::vector<rsa::PublicKey> keys;
  for (const std::size_t bits : {8u, 15u, 16u, 255u, 256u, 1023u, 1024u, 2048u}) {
    keys.push_back({test::random_odd<std::uint32_t>(rng, bits), mp::BigInt(65537)});
  }
  return keys;
}

/// The DER INTEGER content of a non-negative value, from GMP: mpz_export's
/// big-endian magnitude with a 0x00 sign pad when the top byte is >= 0x80,
/// and a single 0x00 for zero.
std::vector<std::uint8_t> gmp_integer_content(const mp::BigInt& value) {
  const Mpz v = test::to_mpz(value);
  std::vector<std::uint8_t> out(mpz_sizeinbase(v.get(), 256));
  std::size_t count = 0;
  mpz_export(out.data(), &count, 1, 1, 1, 0, v.get());
  out.resize(count);
  if (out.empty() || (out[0] & 0x80)) out.insert(out.begin(), 0x00);
  return out;
}

TEST(DerFuzzTest, ModulusBytesDecodeToTheirGmpValue) {
  // Encode direction first: the writer's INTEGER content is GMP's bytes for
  // zero and for values of 1-13 bytes (around every 4-byte limb boundary),
  // with the top byte both below and at/above 0x80.
  {
    Xoshiro256 rng(3303);
    std::vector<mp::BigInt> values = {mp::BigInt()};
    for (std::size_t len = 1; len <= 13; ++len) {
      for (const int top : {0x01, 0x7f, 0x80, 0xff}) {
        std::vector<std::uint8_t> be(len);
        for (auto& b : be) b = std::uint8_t(rng());
        be[0] = std::uint8_t(top);
        values.push_back(mp::BigInt::from_bytes_be(be));
      }
    }
    for (const mp::BigInt& n : values) {
      for (const auto kind : {rsa::PemKind::kPkcs1, rsa::PemKind::kSpki}) {
        const auto der =
            rsa::der_encode_public_key({n, mp::BigInt(65537)}, kind);
        const auto content = modulus_bytes(der);
        ASSERT_TRUE(content.has_value());
        EXPECT_TRUE(std::ranges::equal(*content, gmp_integer_content(n)))
            << test::to_mpz(n).to_dec();
      }
    }
  }

  // Mutate only the modulus INTEGER's content, so the structure holds: the
  // decode must give mpz_import of those bytes, leading zeros and all, or
  // refuse a negative INTEGER.
  Xoshiro256 rng(3304);
  for (const rsa::PublicKey& key : der_keys(rng)) {
    for (const auto kind : {rsa::PemKind::kPkcs1, rsa::PemKind::kSpki}) {
      const std::vector<std::uint8_t> der = rsa::der_encode_public_key(key, kind);
      const auto original = modulus_bytes(der);
      ASSERT_TRUE(original.has_value());
      EXPECT_TRUE(std::ranges::equal(*original, gmp_integer_content(key.n)));
      const std::size_t offset = std::size_t(original->data() - der.data());
      for (int trial = 0; trial < 64; ++trial) {
        std::vector<std::uint8_t> mutant = der;
        std::uint8_t* content = mutant.data() + offset;
        for (std::size_t i = 0; i < original->size(); ++i) {
          if (rng.below(4) == 0) content[i] = std::uint8_t(rng());
        }
        if (trial % 4 == 0) content[0] = 0x00;
        if (trial % 4 == 1) content[0] &= 0x7f;
        if (trial % 8 == 2) std::fill(content, content + original->size(), 0);
        Mpz want;
        mpz_import(want.get(), original->size(), 1, 1, 1, 0, content);
        const std::string got = outcome_of(
            [&] { return test::to_mpz(rsa::der_decode_public_key(mutant).n); });
        if (content[0] & 0x80) {
          EXPECT_EQ(got, "runtime_error: pem/der: negative INTEGER in public key");
        } else {
          EXPECT_EQ(got, "ok " + want.to_dec());
        }
      }
    }
  }
}

TEST(DerFuzzTest, MutatedEncodingsDecodeOrThrowRuntimeError) {
  // Arbitrary mutations of the whole encoding, raw and PEM-armored: a
  // decode that succeeds returns the modulus an independent TLV walk finds;
  // one that fails throws std::runtime_error and nothing else.
  Xoshiro256 rng(3305);
  int decoded = 0;
  for (const rsa::PublicKey& key : der_keys(rng)) {
    for (const auto kind : {rsa::PemKind::kPkcs1, rsa::PemKind::kSpki}) {
      const std::vector<std::uint8_t> der = rsa::der_encode_public_key(key, kind);
      const std::string raw(der.begin(), der.end());
      for (int trial = 0; trial < 200; ++trial) {
        const std::vector<std::uint8_t> mutant =
            bytes_of(mutate(rng, raw, 1 + int(rng.below(3))));
        const std::string got = outcome_of(
            [&] { return test::to_mpz(rsa::der_decode_public_key(mutant).n); });
        const std::string armored = outcome_of([&] {
          return test::to_mpz(rsa::pem_decode_public_key(armor(mutant, kind)).n);
        });
        SCOPED_TRACE(got);
        EXPECT_EQ(armored, got);
        if (got.starts_with("ok ")) {
          ++decoded;
          const auto walked = modulus_bytes(mutant);
          ASSERT_TRUE(walked.has_value());
          Mpz want;
          mpz_import(want.get(), walked->size(), 1, 1, 1, 0, walked->data());
          EXPECT_EQ(got, "ok " + want.to_dec());
        } else {
          EXPECT_TRUE(got.starts_with("runtime_error: pem/der: "));
        }
      }
    }
  }
  EXPECT_GT(decoded, 0);  // some mutants keep a decodable structure
}

TEST(DerFuzzTest, LengthsThatWrapTheOffsetAreRefused) {
  // An eight-byte length near 2^64 must not wrap the bounds check: the
  // algorithm SEQUENCE below claims 2^64 - 1 bytes inside a 14-byte body.
  const std::vector<std::uint8_t> der = {0x30, 0x0e, 0x30, 0x88, 0xff, 0xff,
                                         0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                         0x06, 0x09, 0x2a, 0x86};
  EXPECT_EQ(outcome_of([&] { return test::to_mpz(rsa::der_decode_public_key(der).n); }),
            "runtime_error: pem/der: TLV overruns buffer");
}

// ---- keystore files ----------------------------------------------------------

struct LoadOutcome {
  std::string result;  ///< "ok" then the values, or the exception
  std::uint64_t records = 0, comments = 0, parse_errors = 0, duplicates = 0;
};

/// The keystore loaders' documented behaviour (keystore.hpp), modelled on
/// std::istringstream field splitting and GMP.
LoadOutcome reference_load(const std::string& text, const std::filesystem::path& path,
                           bool keypairs) {
  LoadOutcome out;
  std::set<std::string> seen;
  std::string values;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  try {
    while (std::getline(in, line)) {
      ++line_no;
      std::istringstream fields(line);
      std::string kind;
      if (!(fields >> kind) || kind[0] == '#') {
        ++out.comments;
        continue;
      }
      auto malformed = [&] {
        ++out.parse_errors;
        throw std::runtime_error("keystore: malformed record at " + path.string() + ":" +
                                 std::to_string(line_no));
      };
      std::vector<std::string> hex;
      if (keypairs) {
        if (kind == "modulus") continue;
        if (kind != "keypair") malformed();
        hex.resize(5);
        if (!(fields >> hex[0] >> hex[1] >> hex[2] >> hex[3] >> hex[4])) malformed();
      } else {
        if (kind != "modulus" && kind != "keypair") malformed();
        hex.resize(1);
        if (!(fields >> hex[0])) malformed();
      }
      std::string record;
      for (const auto& field : hex) record += " " + reference_from_hex(field).to_dec();
      const std::string n = reference_from_hex(hex[0]).to_dec();
      ++out.records;
      if (!seen.insert(n).second) ++out.duplicates;
      values += record + ";";
    }
    out.result = "ok" + values;
  } catch (const std::invalid_argument& e) {
    out.result = std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    out.result = std::string("runtime_error: ") + e.what();
  }
  return out;
}

LoadOutcome production_load(const std::filesystem::path& path, bool keypairs) {
  LoadOutcome out;
  obs::MetricsRegistry registry;
  try {
    std::string values;
    if (keypairs) {
      for (const auto& key : rsa::load_keypairs(path, &registry)) {
        values += " " + test::to_mpz(key.n).to_dec() + " " + test::to_mpz(key.e).to_dec() +
                  " " + test::to_mpz(key.d).to_dec() + " " + test::to_mpz(key.p).to_dec() +
                  " " + test::to_mpz(key.q).to_dec() + ";";
      }
    } else {
      for (const auto& n : rsa::load_moduli(path, &registry)) {
        values += " " + test::to_mpz(n).to_dec() + ";";
      }
    }
    out.result = "ok" + values;
  } catch (const std::invalid_argument& e) {
    out.result = std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    out.result = std::string("runtime_error: ") + e.what();
  }
  out.records = registry.counter("keystore_records_total")->value();
  out.comments = registry.counter("keystore_comment_lines_total")->value();
  out.parse_errors = registry.counter("keystore_parse_errors_total")->value();
  out.duplicates = registry.counter("keystore_duplicate_moduli_total")->value();
  return out;
}

class KeystoreFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("bulkgcd_ingest_fuzz_" + std::to_string(::getpid()) + ".keys");
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  std::filesystem::path path_;
};

TEST_F(KeystoreFuzzTest, MutatedFilesLoadAsTheReferenceSays) {
  Xoshiro256 rng(3306);
  std::string base = "# harvested keys\n\n";
  for (int i = 0; i < 6; ++i) {
    base += "modulus " + test::random_odd<std::uint32_t>(rng, 64 + 96 * i).to_hex() + "\n";
  }
  base += "keypair 23 5 3 5 7\n";
  base += "\tmodulus\t0xDEAD_BEEF,01\r\n";
  base += "keypair  " + random_digits(rng, 40) + " 10001 " + random_digits(rng, 9) + " 5 7  \r\n";
  base += "   \n#comment\nmodulus ff1 # trailing words are ignored\n";
  base += "modulus " + random_digits(rng, 33) + "\n";
  int errors = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = trial == 0 ? base : mutate(rng, base, 1 + int(rng.below(4)));
    test::spit(path_, text);
    for (const bool keypairs : {false, true}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " keypairs " << keypairs);
      const LoadOutcome want = reference_load(text, path_, keypairs);
      const LoadOutcome got = production_load(path_, keypairs);
      EXPECT_EQ(got.result, want.result);
      EXPECT_EQ(got.records, want.records);
      EXPECT_EQ(got.comments, want.comments);
      EXPECT_EQ(got.parse_errors, want.parse_errors);
      EXPECT_EQ(got.duplicates, want.duplicates);
      if (!want.result.starts_with("ok")) ++errors;
    }
  }
  EXPECT_GT(errors, 0);  // the mutants reach the error paths too
}

// ---- intake lines --------------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::string_view first_token(std::string_view s) {
  std::size_t end = 0;
  while (end < s.size() && !std::isspace(static_cast<unsigned char>(s[end]))) ++end;
  return s.substr(0, end);
}

/// One intake record as "<line> <kind> ok <decimal>" or "<line> <error>".
std::string describe(const svc::IntakeRecord& rec) {
  return std::to_string(rec.line) + " " +
         (rec.ok ? std::to_string(int(rec.kind)) + " ok " + test::to_mpz(rec.n).to_dec()
                 : rec.error);
}

/// IntakeParser's contract (intake_parser.hpp) for streams without PEM:
/// comments and blank lines skipped, keystore records by their first field,
/// anything else as raw hex, and odd values of at least 2 accepted.
std::vector<std::string> reference_intake(const std::string& stream) {
  std::vector<std::string> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t nl = stream.find('\n', pos);
    if (nl == std::string::npos) nl = stream.size();
    const std::string_view line = trim(std::string_view(stream).substr(pos, nl - pos));
    pos = nl + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    EXPECT_FALSE(line.starts_with("-----BEGIN")) << "no PEM in these streams";
    const std::string_view keyword = first_token(line);
    const bool keystore = keyword == "modulus" || keyword == "keypair";
    const std::string at = std::to_string(line_no) + " ";
    std::string value;
    if (keystore) {
      const std::string_view hex = first_token(trim(line.substr(keyword.size())));
      if (hex.empty()) {
        out.push_back(at + "keystore record without a modulus field");
        continue;
      }
      value = outcome_of([&] { return reference_from_hex(hex); });
      if (!value.starts_with("ok ")) {
        out.push_back(at + "bad keystore record: " + value.substr(value.find(": ") + 2));
        continue;
      }
    } else {
      value = outcome_of([&] { return reference_hex_modulus(line); });
      if (!value.starts_with("ok ")) {
        out.push_back(at + "unrecognized record: " + value.substr(value.find(": ") + 2));
        continue;
      }
    }
    const Mpz n(value.substr(3).c_str());
    if (mpz_sizeinbase(n.get(), 2) < 2) {
      out.push_back(at + "rejected modulus: value below 2");
    } else if (mpz_even_p(n.get())) {
      out.push_back(at + "rejected modulus: even value is not a valid RSA modulus");
    } else {
      const auto kind = keystore ? svc::RecordKind::kKeystore : svc::RecordKind::kRawHex;
      out.push_back(at + std::to_string(int(kind)) + " " + value);
    }
  }
  return out;
}

TEST(IntakeFuzzTest, MutatedStreamsParseAsTheReferenceSays) {
  // Keystore and raw-hex lines in every tolerated dress, mutated and fed in
  // random chunks: every record, accepted or rejected, names the line and
  // value or error the reference gives.
  Xoshiro256 rng(3307);
  std::string base;
  for (int i = 0; i < 4; ++i) {
    const std::string hex = test::random_odd<std::uint32_t>(rng, 200 + 8 * i).to_hex();
    base += "modulus " + hex + "\n";
    base += "keypair\t0x" + hex + " 3 5 7 11\r\n";
    base += "0X" + hex + "\n";
    base += "  Modulus=" + hex + "  \r\n";
    std::string spaced = hex.size() % 2 ? "0" + hex : hex;
    for (std::size_t at = spaced.size() - 2; at > 0; at -= 2) spaced.insert(at, " ");
    base += spaced + "\n# a comment\n\n";
  }
  base += "modulus 1_0000\nmodulus 10\n0001\n";  // even and below-2 values
  for (int trial = 0; trial < 300; ++trial) {
    const std::string stream = trial == 0 ? base : mutate(rng, base, 1 + int(rng.below(6)));
    SCOPED_TRACE(trial);
    svc::IntakeParser parser;
    std::vector<std::string> got;
    for (std::size_t pos = 0; pos < stream.size();) {
      const std::size_t take = 1 + rng.below(64);
      parser.feed(std::string_view(stream).substr(pos, take));
      pos += take;
      for (const auto& rec : parser.drain()) got.push_back(describe(rec));
    }
    for (const auto& rec : parser.finish()) got.push_back(describe(rec));
    EXPECT_EQ(got, reference_intake(stream));
  }
}

}  // namespace
}  // namespace bulkgcd
