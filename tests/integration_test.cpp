// End-to-end integration: synthesize a weak-key corpus, break it with the
// bulk all-pairs GCD, recover the private keys, and decrypt an intercepted
// message — the full pipeline the paper motivates.
#include <gtest/gtest.h>

#include "batchgcd/batchgcd.hpp"
#include "bulk/allpairs.hpp"
#include "rsa/corpus.hpp"
#include "rsa/rsa.hpp"

namespace bulkgcd {
namespace {

using mp::BigInt;

TEST(IntegrationTest, BreakWeakKeysEndToEnd) {
  // 1. A corpus of 128-bit RSA keys, two of which share a prime.
  rsa::CorpusSpec spec;
  spec.count = 16;
  spec.modulus_bits = 128;
  spec.weak_pairs = 1;
  spec.seed = 2026;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  const auto& weak = corpus.weak[0];

  // 2. An "intercepted" ciphertext under one of the weak keys.
  const BigInt e(rsa::kDefaultPublicExponent);
  const std::string secret = "MEET AT NINE";
  const BigInt weak_modulus = corpus.moduli[weak.first];
  const BigInt cipher = rsa::encrypt(rsa::encode_message(secret), weak_modulus, e);

  // 3. The attack: all-pairs bulk GCD over the harvested moduli.
  const bulk::AllPairsResult attack = bulk::all_pairs_gcd(corpus.moduli);
  ASSERT_EQ(attack.hits.size(), 1u);
  const auto& hit = attack.hits[0];
  EXPECT_EQ(hit.i, weak.first);
  EXPECT_EQ(hit.j, weak.second);

  // 4. Factor the modulus, rebuild the private key, decrypt.
  const rsa::KeyPair recovered =
      rsa::recover_private_key(corpus.moduli[hit.i], e, hit.factor);
  EXPECT_EQ(rsa::decode_message(rsa::decrypt(cipher, recovered.n, recovered.d)),
            secret);

  // 5. Strong keys in the same corpus remain unbroken by this attack.
  for (std::size_t i = 0; i < corpus.moduli.size(); ++i) {
    if (i == hit.i || i == hit.j) continue;
    for (const auto& h : attack.hits) {
      EXPECT_NE(h.i, i);
      EXPECT_NE(h.j, i);
    }
  }
}

TEST(IntegrationTest, PairwiseAndBatchAttacksFindTheSameVictims) {
  rsa::CorpusSpec spec;
  spec.count = 20;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 2027;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  const bulk::AllPairsResult pairwise = bulk::all_pairs_gcd(corpus.moduli);
  const batchgcd::BatchGcdResult batch = batchgcd::batch_gcd(corpus.moduli);

  for (const auto& hit : pairwise.hits) {
    EXPECT_EQ(batch.gcds[hit.i], hit.factor);
    EXPECT_EQ(batch.gcds[hit.j], hit.factor);
  }
  EXPECT_EQ(batchgcd::weak_indices(batch).size(), 2 * pairwise.hits.size());
}

TEST(IntegrationTest, AllVariantsAgreeOnTheVictimSet) {
  rsa::CorpusSpec spec;
  spec.count = 14;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 2028;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  std::vector<bulk::FactorHit> reference;
  for (const gcd::Variant variant : gcd::kAllVariants) {
    bulk::AllPairsConfig config;
    config.variant = variant;
    config.engine = (variant == gcd::Variant::kOriginal ||
                     variant == gcd::Variant::kFast)
                        ? bulk::Engine::kScalar
                        : bulk::Engine::kAuto;
    const auto result = bulk::all_pairs_gcd(corpus.moduli, config);
    if (reference.empty()) {
      reference = result.hits;
      ASSERT_EQ(reference.size(), 2u);
    } else {
      ASSERT_EQ(result.hits.size(), reference.size()) << to_string(variant);
      for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(result.hits[k].i, reference[k].i);
        EXPECT_EQ(result.hits[k].j, reference[k].j);
        EXPECT_EQ(result.hits[k].factor, reference[k].factor);
      }
    }
  }
}

}  // namespace
}  // namespace bulkgcd
