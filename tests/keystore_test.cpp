// Keystore file-format tests: round trips, mixed files, comments, and
// malformed-input rejection.
#include "rsa/keystore.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"

namespace bulkgcd::rsa {
namespace {

using mp::BigInt;

class KeystoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("bulkgcd_keystore_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  std::filesystem::path path_;
};

TEST(ModulusFingerprintTest, IdenticalAcrossLimbWidths) {
  // The dedup fingerprint hashes canonical little-endian bytes, so the same
  // value must fingerprint identically at u16/u32/u64 limbs (regression: it
  // used to hash raw limb words, so builds with different limb widths
  // disagreed on what counted as a duplicate). Odd byte
  // counts matter: 0x1_00000000_00000001 is 9 bytes, which exercises the
  // partial top limb at every width.
  const char* const values[] = {
      "1",
      "ff",
      "100",
      "ffff",
      "10001",
      "fedcba9876543210",
      "10000000000000001",
      "c2a7d3f19b8e65041f2e3d4c5b6a7988aabbccddeeff0123",
  };
  for (const char* hex : values) {
    const auto n16 = mp::BigIntT<std::uint16_t>::from_hex(hex);
    const auto n32 = mp::BigIntT<std::uint32_t>::from_hex(hex);
    const auto n64 = mp::BigIntT<std::uint64_t>::from_hex(hex);
    const std::uint64_t f16 = modulus_fingerprint(n16);
    const std::uint64_t f32 = modulus_fingerprint(n32);
    const std::uint64_t f64 = modulus_fingerprint(n64);
    EXPECT_EQ(f16, f32) << "value " << hex;
    EXPECT_EQ(f32, f64) << "value " << hex;
  }
  // Distinct values must (for these inputs) fingerprint differently — the
  // hash is not degenerate.
  EXPECT_NE(modulus_fingerprint(mp::BigInt::from_hex("ff")),
            modulus_fingerprint(mp::BigInt::from_hex("100")));
  // Zero hashes the empty byte string; still stable across widths.
  EXPECT_EQ(modulus_fingerprint(mp::BigIntT<std::uint16_t>()),
            modulus_fingerprint(mp::BigIntT<std::uint64_t>()));
}

TEST_F(KeystoreTest, ModuliRoundTrip) {
  CorpusSpec spec;
  spec.count = 8;
  spec.modulus_bits = 128;
  const auto corpus = generate_corpus(spec);
  save_moduli(path_, corpus.moduli, "test corpus\nsecond comment line");
  EXPECT_EQ(load_moduli(path_), corpus.moduli);
}

TEST_F(KeystoreTest, KeypairRoundTrip) {
  Xoshiro256 rng(151);
  std::vector<KeyPair> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(generate_keypair(rng, 128));
  save_keypairs(path_, keys, "private material");
  const auto loaded = load_keypairs(path_);
  ASSERT_EQ(loaded.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(loaded[i].n, keys[i].n);
    EXPECT_EQ(loaded[i].e, keys[i].e);
    EXPECT_EQ(loaded[i].d, keys[i].d);
    EXPECT_EQ(loaded[i].p, keys[i].p);
    EXPECT_EQ(loaded[i].q, keys[i].q);
  }
}

TEST_F(KeystoreTest, LoadModuliReadsKeypairModuli) {
  Xoshiro256 rng(152);
  const KeyPair key = generate_keypair(rng, 128);
  save_keypairs(path_, {key});
  const auto moduli = load_moduli(path_);
  ASSERT_EQ(moduli.size(), 1u);
  EXPECT_EQ(moduli[0], key.n);
}

TEST_F(KeystoreTest, MixedFileAndComments) {
  std::ofstream out(path_);
  out << "# harvested keys\n\n";
  out << "modulus ff1\n";
  out << "keypair 23 5 3 5 7\n";  // 35 = 5*7, e=5, d=3 (toy values)
  out << "# trailing comment\n";
  out.close();
  const auto moduli = load_moduli(path_);
  ASSERT_EQ(moduli.size(), 2u);
  EXPECT_EQ(moduli[0], BigInt(0xff1));
  EXPECT_EQ(moduli[1], BigInt(0x23));
  const auto keys = load_keypairs(path_);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].q, BigInt(7));
}

TEST_F(KeystoreTest, CrlfTerminatedFilesLoadCleanly) {
  // Harvested key lists routinely arrive with Windows line endings; both
  // loaders must treat the trailing \r as insignificant whitespace.
  {
    std::ofstream out(path_, std::ios::binary);
    out << "# exported from a windows box\r\n";
    out << "modulus ff1\r\n";
    out << "keypair 23 5 3 5 7\r\n";
    out << "\r\n";
  }
  const auto moduli = load_moduli(path_);
  ASSERT_EQ(moduli.size(), 2u);
  EXPECT_EQ(moduli[0], BigInt(0xff1));
  EXPECT_EQ(moduli[1], BigInt(0x23));
  const auto keys = load_keypairs(path_);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].n, BigInt(0x23));
  EXPECT_EQ(keys[0].q, BigInt(7));
}

TEST_F(KeystoreTest, TabsTrailingSpacesAndPrefixesSplitLikeWhitespace) {
  // Fields split on any whitespace run: tabs between fields, trailing
  // spaces before a CRLF, and a 0x-prefixed value.
  {
    std::ofstream out(path_, std::ios::binary);
    out << "modulus\tff1\n";
    out << "keypair\t23\t5 \t3\t5\t7\n";
    out << "keypair 23 5 3 5 7   \r\n";
    out << "modulus 0xFF1\n";
  }
  const auto moduli = load_moduli(path_);
  EXPECT_EQ(moduli, (std::vector<BigInt>{BigInt(0xff1), BigInt(0x23), BigInt(0x23),
                                         BigInt(0xff1)}));
  const auto keys = load_keypairs(path_);
  ASSERT_EQ(keys.size(), 2u);
  for (const auto& key : keys) {
    EXPECT_EQ(key.n, BigInt(0x23));
    EXPECT_EQ(key.d, BigInt(3));
    EXPECT_EQ(key.q, BigInt(7));
  }
}

TEST_F(KeystoreTest, CommentAfterTheLastRecordWithoutFinalNewline) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "modulus ff1\nkeypair 23 5 3 5 7\n# end of harvest";
  }
  obs::MetricsRegistry registry;
  EXPECT_EQ(load_moduli(path_, &registry),
            (std::vector<BigInt>{BigInt(0xff1), BigInt(0x23)}));
  EXPECT_EQ(registry.counter("keystore_records_total")->value(), 2u);
  EXPECT_EQ(registry.counter("keystore_comment_lines_total")->value(), 1u);
  EXPECT_EQ(load_keypairs(path_).size(), 1u);
}

TEST_F(KeystoreTest, BadDigitSurfacesAsInvalidArgument) {
  // A record of the right shape with a non-hex digit is not "malformed":
  // the decoder's std::invalid_argument reaches the caller, uncounted.
  {
    std::ofstream out(path_);
    out << "modulus ff1\nmodulus ffg1\n";
  }
  obs::MetricsRegistry registry;
  EXPECT_THROW(load_moduli(path_, &registry), std::invalid_argument);
  EXPECT_EQ(registry.counter("keystore_parse_errors_total")->value(), 0u);
  {
    std::ofstream out(path_);
    out << "keypair 23 5 3 5 7z\n";
  }
  EXPECT_THROW(load_keypairs(path_), std::invalid_argument);
}

TEST_F(KeystoreTest, BlankAndCommentOnlyFilesLoadEmpty) {
  {
    std::ofstream out(path_);
    out << "\n   \n\t\n# only comments here\n#another\n\n";
  }
  EXPECT_TRUE(load_moduli(path_).empty());
  EXPECT_TRUE(load_keypairs(path_).empty());
}

TEST_F(KeystoreTest, MixedRecordRoundTripPreservesBothKinds) {
  Xoshiro256 rng(153);
  const KeyPair key = generate_keypair(rng, 128);
  CorpusSpec spec;
  spec.count = 3;
  spec.modulus_bits = 128;
  spec.seed = 154;
  const auto corpus = generate_corpus(spec);
  {
    // Mixed file: moduli then keypairs then more moduli, with comments.
    std::ofstream out(path_);
    out << "# mixed harvest\n";
    out << "modulus " << corpus.moduli[0].to_hex() << "\n";
    out << "keypair " << key.n.to_hex() << " " << key.e.to_hex() << " "
        << key.d.to_hex() << " " << key.p.to_hex() << " " << key.q.to_hex()
        << "\n";
    out << "modulus " << corpus.moduli[1].to_hex() << "\n";
    out << "modulus " << corpus.moduli[2].to_hex() << "\n";
  }
  const auto moduli = load_moduli(path_);
  ASSERT_EQ(moduli.size(), 4u);  // 3 plain + the keypair's n
  EXPECT_EQ(moduli[0], corpus.moduli[0]);
  EXPECT_EQ(moduli[1], key.n);
  const auto keys = load_keypairs(path_);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].d, key.d);
}

TEST_F(KeystoreTest, CorpusDigestBindsToContentAndOrder) {
  CorpusSpec spec;
  spec.count = 6;
  spec.modulus_bits = 128;
  spec.seed = 155;
  const auto corpus = generate_corpus(spec);
  const std::uint64_t digest = corpus_digest(corpus.moduli);
  EXPECT_EQ(corpus_digest(corpus.moduli), digest);  // deterministic

  std::vector<BigInt> reordered = corpus.moduli;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(corpus_digest(reordered), digest);  // order-sensitive

  std::vector<BigInt> grown = corpus.moduli;
  grown.push_back(corpus.moduli[0]);
  EXPECT_NE(corpus_digest(grown), digest);  // length-sensitive

  // Digest survives a keystore round trip: save + load yields the same
  // corpus identity, so checkpoints stay valid across restarts that reload
  // the moduli from disk.
  save_moduli(path_, corpus.moduli);
  EXPECT_EQ(corpus_digest(load_moduli(path_)), digest);

  EXPECT_NE(corpus_digest({}), 0u);  // empty corpus has a stable non-zero tag
}

TEST_F(KeystoreTest, RejectsMalformedRecords) {
  {
    std::ofstream out(path_);
    out << "modulus\n";  // missing value
  }
  EXPECT_THROW(load_moduli(path_), std::runtime_error);
  {
    std::ofstream out(path_);
    out << "certificate ff\n";  // unknown kind
  }
  EXPECT_THROW(load_moduli(path_), std::runtime_error);
  {
    std::ofstream out(path_);
    out << "keypair 23 5 3\n";  // too few fields
  }
  EXPECT_THROW(load_keypairs(path_), std::runtime_error);
}

TEST_F(KeystoreTest, MissingFileThrows) {
  EXPECT_THROW(load_moduli(path_ / "nope"), std::runtime_error);
  EXPECT_THROW(save_moduli(path_ / "no" / "dir" / "file", {}),
               std::runtime_error);
}

TEST_F(KeystoreTest, EmptyListsProduceLoadableFiles) {
  save_moduli(path_, {});
  EXPECT_TRUE(load_moduli(path_).empty());
  save_keypairs(path_, {});
  EXPECT_TRUE(load_keypairs(path_).empty());
}

TEST_F(KeystoreTest, LoaderMetricsCountRecordsCommentsAndDuplicates) {
  // A corpus with a repeated modulus: an all-pairs scan of it reports
  // full-modulus "hits" that factor nothing, so the loader flags it.
  std::ofstream out(path_);
  out << "# harvested keys\n"
      << "\n"
      << "modulus beef\n"
      << "modulus c0de\n"
      << "modulus beef\n";
  out.close();

  obs::MetricsRegistry registry;
  const auto moduli = load_moduli(path_, &registry);
  EXPECT_EQ(moduli.size(), 3u);
  EXPECT_EQ(registry.counter("keystore_records_total")->value(), 3u);
  EXPECT_EQ(registry.counter("keystore_comment_lines_total")->value(), 2u);
  EXPECT_EQ(registry.counter("keystore_duplicate_moduli_total")->value(), 1u);
  EXPECT_EQ(registry.counter("keystore_parse_errors_total")->value(), 0u);
}

TEST_F(KeystoreTest, LoaderMetricsRecordParseErrorBeforeThrow) {
  std::ofstream out(path_);
  out << "modulus beef\n"
      << "garbage line\n";
  out.close();

  obs::MetricsRegistry registry;
  EXPECT_THROW(load_moduli(path_, &registry), std::runtime_error);
  // The error is counted before the throw, so a crashed load still shows
  // it in the last telemetry snapshot.
  EXPECT_EQ(registry.counter("keystore_parse_errors_total")->value(), 1u);
  EXPECT_EQ(registry.counter("keystore_records_total")->value(), 1u);

  obs::MetricsRegistry keypair_registry;
  EXPECT_THROW(load_keypairs(path_, &keypair_registry), std::runtime_error);
  EXPECT_EQ(keypair_registry.counter("keystore_parse_errors_total")->value(),
            1u);
}

TEST_F(KeystoreTest, KeypairLoaderFeedsSameMetrics) {
  Xoshiro256 rng(42);
  std::vector<KeyPair> keys;
  for (int i = 0; i < 2; ++i) keys.push_back(generate_keypair(rng, 128));
  keys.push_back(keys.front());  // duplicate n
  save_keypairs(path_, keys, "test corpus");

  obs::MetricsRegistry registry;
  const auto loaded = load_keypairs(path_, &registry);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(registry.counter("keystore_records_total")->value(), 3u);
  EXPECT_EQ(registry.counter("keystore_duplicate_moduli_total")->value(), 1u);
  EXPECT_EQ(registry.counter("keystore_comment_lines_total")->value(), 1u);
}

}  // namespace
}  // namespace bulkgcd::rsa
