// Tests for the extension features: CRT decryption, the inline-storage
// (CUDA-local-style) engine, streaming statistics, and the SIMT engine at
// non-default limb widths (u16/u64: the scan itself runs on u32 only, so
// these are the bulk engines' only coverage at other widths).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bulk/simt.hpp"
#include "core/stats.hpp"
#include "gcd/algorithms.hpp"
#include "gmp_oracle.hpp"
#include "rsa/prime.hpp"
#include "rsa/rsa.hpp"

namespace bulkgcd {
namespace {

using mp::BigInt;
using test::gmp_gcd;
using test::random_odd;
using test::random_value;

TEST(CrtDecryptTest, MatchesPlainDecryption) {
  Xoshiro256 rng(161);
  const rsa::KeyPair key = rsa::generate_keypair(rng, 256);
  for (int trial = 0; trial < 10; ++trial) {
    const BigInt msg = random_value<std::uint32_t>(rng, 200) % key.n;
    const BigInt cipher = rsa::encrypt(msg, key.n, key.e);
    EXPECT_EQ(rsa::decrypt_crt(cipher, key),
              rsa::decrypt(cipher, key.n, key.d));
    EXPECT_EQ(rsa::decrypt_crt(cipher, key), msg);
  }
}

TEST(CrtDecryptTest, WorksOnRecoveredKeys) {
  // The attack scenario: break a key via GCD, then use the fast CRT path.
  Xoshiro256 rng(162);
  const BigInt p = rsa::random_prime(rng, 128);
  const rsa::KeyPair victim =
      rsa::keypair_from_primes(p, rsa::random_prime(rng, 128));
  const BigInt other_n = p * rsa::random_prime(rng, 128);
  const auto probe = gcd::probe_moduli_pair(victim.n, other_n);
  ASSERT_TRUE(probe.shares_factor);
  const rsa::KeyPair recovered =
      rsa::recover_private_key(victim.n, victim.e, probe.factor);
  const BigInt cipher = rsa::encrypt(BigInt(123456789), victim.n, victim.e);
  EXPECT_EQ(rsa::decrypt_crt(cipher, recovered), BigInt(123456789));
}

TEST(CrtDecryptTest, RejectsKeysWithoutFactors) {
  rsa::KeyPair key;
  key.n = BigInt(35);
  key.d = BigInt(5);
  EXPECT_THROW(rsa::decrypt_crt(BigInt(2), key), std::invalid_argument);
  key.p = BigInt(5);
  key.q = BigInt(11);  // 5*11 != 35
  EXPECT_THROW(rsa::decrypt_crt(BigInt(2), key), std::invalid_argument);
}

TEST(FixedEngineTest, MatchesHeapEngineExactly) {
  Xoshiro256 rng(163);
  gcd::GcdEngine<std::uint32_t> heap(16);
  gcd::FixedGcdEngine<std::uint32_t, 16> fixed(16);
  for (int trial = 0; trial < 40; ++trial) {
    const BigInt x = random_odd<std::uint32_t>(rng, 1 + rng.below(512));
    const BigInt y = random_odd<std::uint32_t>(rng, 1 + rng.below(512));
    for (const gcd::Variant variant : gcd::kAllVariants) {
      gcd::GcdStats hs, fs;
      const auto hr = heap.run(variant, x.limbs(), y.limbs(), 0, &hs);
      const auto fr = fixed.run(variant, x.limbs(), y.limbs(), 0, &fs);
      ASSERT_EQ(BigInt::from_limbs(hr.gcd), BigInt::from_limbs(fr.gcd));
      ASSERT_EQ(hs.iterations, fs.iterations);
    }
  }
}

TEST(FixedEngineTest, CapacityIsCompileTimeBounded) {
  EXPECT_THROW((gcd::FixedGcdEngine<std::uint32_t, 4>(32)), std::length_error);
  gcd::FixedGcdEngine<std::uint32_t, 4> small(4);
  Xoshiro256 rng(164);
  const BigInt big = random_odd<std::uint32_t>(rng, 400);
  EXPECT_THROW(small.run(gcd::Variant::kApproximate, big.limbs(),
                         BigInt(3).limbs()),
               std::length_error);
}

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.sem(), stats.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 3.5);
  EXPECT_DOUBLE_EQ(stats.max(), 3.5);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0, 10, 5);
  h.add(0.5);   // bin 0
  h.add(3.0);   // bin 1
  h.add(9.99);  // bin 4
  h.add(-5.0);  // clamps to bin 0
  h.add(25.0);  // clamps to bin 4
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.render().empty());
}

/// One lane of a wordsize case: the pair and its early-terminate threshold.
template <mp::LimbType Limb>
struct WordsizeLane {
  mp::BigIntT<Limb> x, y;
  std::size_t early = 0;
};

/// Every bulk variant through both SimtBatch modes with per-lane early
/// termination: gcds against GMP, and the lockstep run() statistics equal to
/// the ones run_staged() replays from its branch traces.
template <mp::LimbType Limb>
void expect_simt_modes_agree(const std::vector<WordsizeLane<Limb>>& in,
                             std::size_t warp) {
  std::size_t cap = 0;
  for (const auto& lane : in) {
    cap = std::max({cap, lane.x.size(), lane.y.size()});
  }
  for (const gcd::Variant variant :
       {gcd::Variant::kBinary, gcd::Variant::kFastBinary,
        gcd::Variant::kApproximate}) {
    bulk::SimtBatch<Limb> lockstep(in.size(), cap, warp);
    bulk::SimtBatch<Limb> staged(in.size(), cap, warp);
    for (std::size_t i = 0; i < in.size(); ++i) {
      lockstep.load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
      staged.load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
    }
    lockstep.run(variant);
    staged.run_staged(variant);
    EXPECT_EQ(lockstep.stats(), staged.stats()) << to_string(variant);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const auto want = gmp_gcd(in[i].x, in[i].y);
      ASSERT_EQ(lockstep.early_coprime(i), staged.early_coprime(i))
          << to_string(variant) << " lane " << i;
      if (staged.early_coprime(i)) {
        // Stopped with 0 < y < 2^early, and the gcd divides y.
        EXPECT_LT(want.bit_length(), in[i].early)
            << to_string(variant) << " lane " << i;
        continue;
      }
      EXPECT_EQ(lockstep.gcd_of(i), want)
          << to_string(variant) << " lane " << i;
      EXPECT_EQ(staged.gcd_of(i), want)
          << to_string(variant) << " lane " << i;
    }
  }
}

template <typename Limb>
class SimtWordsizeTest : public ::testing::Test {};
using SimtLimbs = ::testing::Types<std::uint16_t, std::uint64_t>;
TYPED_TEST_SUITE(SimtWordsizeTest, SimtLimbs);

TYPED_TEST(SimtWordsizeTest, BulkEngineWorksAtNonDefaultWidths) {
  using Limb = TypeParam;
  Xoshiro256 rng(165);
  const std::size_t lanes = 9;
  constexpr std::size_t kBits = 256;
  constexpr std::size_t cap = kBits / mp::limb_bits<Limb> + 1;

  std::vector<std::pair<mp::BigIntT<Limb>, mp::BigIntT<Limb>>> pairs;
  for (std::size_t i = 0; i < lanes; ++i) {
    pairs.emplace_back(random_odd<Limb>(rng, kBits), random_odd<Limb>(rng, kBits));
  }
  bulk::SimtBatch<Limb> batch(lanes, cap, 4);
  for (std::size_t i = 0; i < lanes; ++i) {
    batch.load(i, pairs[i].first.limbs(), pairs[i].second.limbs());
  }
  batch.run(gcd::Variant::kApproximate, 0);
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(batch.gcd_of(i), gmp_gcd(pairs[i].first, pairs[i].second))
        << "lane " << i;
  }

  // Ragged mixed-size lanes (11 over warp 4) with early = min/2; every
  // third pair shares a 200-bit factor, so early termination still leaves
  // gcds to find.
  std::vector<WordsizeLane<Limb>> mixed;
  for (std::size_t i = 0; i < 11; ++i) {
    mp::BigIntT<Limb> x, y;
    if (i % 3 == 0) {
      const auto p = random_odd<Limb>(rng, 200);
      x = p * random_odd<Limb>(rng, 100 + rng.below(50));
      y = p * random_odd<Limb>(rng, 100 + rng.below(50));
    } else {
      x = random_odd<Limb>(rng, 1 + rng.below(600));
      y = random_odd<Limb>(rng, 1 + rng.below(600));
    }
    const std::size_t early = std::min(x.bit_length(), y.bit_length()) / 2;
    mixed.push_back({std::move(x), std::move(y), early});
  }
  expect_simt_modes_agree(mixed, 4);

  // One full Section-V group (8 lanes over warp 8): both operands >= 6
  // limbs with early = min/2 >= 3 limbs, and x at least two limbs longer
  // than y, so the first rounds take the beta > 0 shifted-add kernel.
  constexpr std::size_t lb = mp::limb_bits<Limb>;
  std::vector<WordsizeLane<Limb>> group;
  for (std::size_t l = 0; l < 8; ++l) {
    const std::size_t by = 6 * lb + rng.below(400);
    const std::size_t bx = by + 2 * lb + rng.below(200);
    group.push_back({random_odd<Limb>(rng, bx), random_odd<Limb>(rng, by),
                     by / 2});
  }
  expect_simt_modes_agree(group, 8);
}

}  // namespace
}  // namespace bulkgcd
