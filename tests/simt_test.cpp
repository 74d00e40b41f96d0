// SIMT bulk engine tests: bit-identical agreement with the scalar engine
// across variants, layouts and termination modes; divergence statistics.
#include "bulk/simt.hpp"

#include <gtest/gtest.h>

#include "gmp_oracle.hpp"
#include "rsa/prime.hpp"

namespace bulkgcd::bulk {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::gmp_gcd;
using bulkgcd::test::random_odd;
using gcd::Variant;
using mp::BigInt;

const Variant kGpuVariants[] = {Variant::kBinary, Variant::kFastBinary,
                                Variant::kApproximate};

// ctest names each parameterized case by its printed value. The default
// printer dumps the raw bytes of the struct, padding included, so those names
// used to depend on whatever the stack held. Each case now carries the name it
// is tracked under and prints exactly that.
struct SimtCase {
  Variant variant;
  std::size_t early_bits;
  bool row_wise;
  const char* ctest_name;
};

void PrintTo(const SimtCase& c, std::ostream* os) { *os << c.ctest_name; }

class SimtAgreementTest : public ::testing::TestWithParam<SimtCase> {};

TEST_P(SimtAgreementTest, MatchesScalarEngineLaneByLane) {
  const auto [variant, early_bits, row_wise, ctest_name] = GetParam();
  Xoshiro256 rng(111 + std::size_t(variant));
  const std::size_t lanes = 37;  // not a multiple of the warp width
  const std::size_t bits = 256;
  const std::size_t cap = bits / 32;

  std::vector<std::pair<BigInt, BigInt>> pairs;
  for (std::size_t i = 0; i < lanes; ++i) {
    if (i % 5 == 0) {
      // Plant shared factors in some lanes.
      const BigInt p = rsa::random_prime(rng, bits / 2);
      pairs.emplace_back(p * rsa::random_prime(rng, bits / 2),
                         p * rsa::random_prime(rng, bits / 2));
    } else {
      pairs.emplace_back(random_odd<std::uint32_t>(rng, bits),
                         random_odd<std::uint32_t>(rng, bits));
    }
  }

  gcd::GcdEngine<std::uint32_t> scalar(cap);
  auto check = [&](auto& batch) {
    for (std::size_t i = 0; i < lanes; ++i) {
      batch.load(i, pairs[i].first.limbs(), pairs[i].second.limbs());
    }
    batch.run(variant, early_bits);
    for (std::size_t i = 0; i < lanes; ++i) {
      const auto expected = scalar.run(variant, pairs[i].first.limbs(),
                                       pairs[i].second.limbs(), early_bits);
      ASSERT_EQ(batch.early_coprime(i), expected.early_coprime)
          << to_string(variant) << " lane " << i;
      if (!expected.early_coprime) {
        EXPECT_EQ(batch.gcd_of(i), BigInt::from_limbs(expected.gcd))
            << to_string(variant) << " lane " << i;
      }
    }
  };

  if (row_wise) {
    SimtBatch<std::uint32_t, RowMatrix> batch(lanes, cap, 8);
    check(batch);
  } else {
    SimtBatch<std::uint32_t, ColumnMatrix> batch(lanes, cap, 8);
    check(batch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsModesLayouts, SimtAgreementTest,
    ::testing::Values(
        SimtCase{Variant::kBinary, 0, false,
                 "24-byte object <02-00 00-00 00-00 00-00 00-00 00-00 "
                 "00-00 00-00 00-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kFastBinary, 0, false,
                 "24-byte object <03-00 00-00 00-00 00-00 00-00 00-00 "
                 "00-00 00-00 00-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kApproximate, 0, false,
                 "24-byte object <04-00 00-00 00-00 00-00 00-00 00-00 "
                 "00-00 00-00 00-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kBinary, 128, false,
                 "24-byte object <02-00 00-00 00-00 00-00 80-00 00-00 "
                 "00-00 00-00 00-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kFastBinary, 128, false,
                 "24-byte object <03-00 01-1B 03-00 00-00 80-00 00-00 "
                 "00-00 00-00 00-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kApproximate, 128, false,
                 "24-byte object <04-DA 55-00 00-00 00-00 80-00 00-00 "
                 "00-00 00-00 00-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kApproximate, 128, true,
                 "24-byte object <04-FF 48-00 00-00 00-00 80-00 00-00 "
                 "00-00 00-00 01-00 00-00 00-00 00-00>"},
        SimtCase{Variant::kBinary, 128, true,
                 "24-byte object <02-00 00-00 00-00 00-00 80-00 00-00 "
                 "00-00 00-00 01-00 00-00 00-00 00-00>"}));

TEST(SimtBatchTest, RejectsCpuOnlyVariants) {
  SimtBatch<std::uint32_t> batch(4, 8);
  EXPECT_THROW(batch.run(Variant::kOriginal), std::invalid_argument);
  EXPECT_THROW(batch.run(Variant::kFast), std::invalid_argument);
}

TEST(SimtBatchTest, DisabledLanesAreUntouched) {
  Xoshiro256 rng(112);
  SimtBatch<std::uint32_t> batch(8, 8, 4);
  const BigInt x = random_odd<std::uint32_t>(rng, 200);
  const BigInt y = random_odd<std::uint32_t>(rng, 200);
  batch.load(0, x.limbs(), y.limbs());
  for (std::size_t i = 1; i < 8; ++i) batch.disable(i);
  batch.run(Variant::kApproximate, 0);
  EXPECT_EQ(batch.gcd_of(0), gmp_gcd(x, y));
}

TEST(SimtBatchTest, FastBinaryHasNoBranchDivergence) {
  Xoshiro256 rng(113);
  SimtBatch<std::uint32_t> batch(16, 8, 8);
  for (std::size_t i = 0; i < 16; ++i) {
    batch.load(i, random_odd<std::uint32_t>(rng, 250).limbs(),
               random_odd<std::uint32_t>(rng, 250).limbs());
  }
  batch.run(Variant::kFastBinary, 0);
  EXPECT_EQ(batch.stats().divergent_warp_rounds, 0u);
  EXPECT_DOUBLE_EQ(batch.stats().serialization_factor(), 1.0);
}

TEST(SimtBatchTest, BinaryDivergesMoreThanApproximate) {
  // §VII: Binary Euclidean's 3-way branch serializes warps; Approximate
  // Euclidean's β > 0 branch fires with probability < 1e-8, so its warps
  // almost never diverge (while X and Y stay multi-word).
  Xoshiro256 rng(114);
  std::vector<std::pair<BigInt, BigInt>> pairs;
  for (int i = 0; i < 32; ++i) {
    pairs.emplace_back(
        rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128),
        rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128));
  }
  SimtStats binary, approx;
  for (const Variant variant : {Variant::kBinary, Variant::kApproximate}) {
    SimtBatch<std::uint32_t> batch(32, 8, 32);
    for (std::size_t i = 0; i < 32; ++i) {
      batch.load(i, pairs[i].first.limbs(), pairs[i].second.limbs());
    }
    batch.run(variant, 128);  // early terminate: operands stay multi-word
    (variant == Variant::kBinary ? binary : approx) = batch.stats();
  }
  EXPECT_GT(binary.serialization_factor(), 1.5);
  EXPECT_LT(approx.serialization_factor(), 1.05);
  EXPECT_GT(binary.divergent_warp_rounds, approx.divergent_warp_rounds);
}

TEST(SimtBatchTest, StatsIterationsMatchScalar) {
  Xoshiro256 rng(115);
  const std::size_t lanes = 10;
  std::vector<std::pair<BigInt, BigInt>> pairs;
  for (std::size_t i = 0; i < lanes; ++i) {
    pairs.emplace_back(random_odd<std::uint32_t>(rng, 300),
                       random_odd<std::uint32_t>(rng, 300));
  }
  SimtBatch<std::uint32_t> batch(lanes, 10, 4);
  for (std::size_t i = 0; i < lanes; ++i) {
    batch.load(i, pairs[i].first.limbs(), pairs[i].second.limbs());
  }
  batch.run(Variant::kApproximate, 0);

  gcd::GcdEngine<std::uint32_t> scalar(10);
  gcd::GcdStats total;
  for (const auto& [x, y] : pairs) {
    scalar.run(Variant::kApproximate, x.limbs(), y.limbs(), 0, &total);
  }
  EXPECT_EQ(batch.stats().gcd.iterations, total.iterations);
  EXPECT_EQ(batch.stats().gcd.beta_nonzero, total.beta_nonzero);
  EXPECT_EQ(batch.stats().lane_iterations, total.iterations);
}

TEST(SimtBatchTest, LaneUtilizationReflectsRaggedTermination) {
  Xoshiro256 rng(116);
  SimtBatch<std::uint32_t> batch(8, 20, 8);
  // One huge pair and seven tiny pairs: most lanes finish early, utilization
  // drops below 1.
  batch.load(0, random_odd<std::uint32_t>(rng, 600).limbs(),
             random_odd<std::uint32_t>(rng, 600).limbs());
  for (std::size_t i = 1; i < 8; ++i) {
    batch.load(i, random_odd<std::uint32_t>(rng, 40).limbs(),
               random_odd<std::uint32_t>(rng, 40).limbs());
  }
  batch.run(Variant::kFastBinary, 0);
  EXPECT_LT(batch.stats().lane_utilization(), 0.9);
  EXPECT_GT(batch.stats().lane_utilization(), 0.0);
}

TEST(SimtBatchTest, CapacityEnforced) {
  Xoshiro256 rng(117);
  SimtBatch<std::uint32_t> batch(2, 4);
  const BigInt big = random_odd<std::uint32_t>(rng, 400);
  EXPECT_THROW(batch.load(0, big.limbs(), BigInt(3).limbs()),
               std::length_error);
}

}  // namespace
}  // namespace bulkgcd::bulk
