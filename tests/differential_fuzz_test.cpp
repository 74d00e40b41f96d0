// Differential fuzzing across every GCD implementation in the repo: for the
// same random inputs, the five scalar engine variants, the pseudocode
// references (at several word sizes), Lehmer, the SIMT bulk engine and GMP
// must all agree. Parameterized over seeds so each seed is its own test case
// and failures name the reproducer directly.
#include <gtest/gtest.h>

#include "bulk/simt.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "gcd/algorithms.hpp"
#include "gcd/lehmer.hpp"
#include "gcd/reference.hpp"
#include "gmp_oracle.hpp"

namespace bulkgcd {
namespace {

using gcd::Variant;
using mp::BigInt;
using test::gmp_gcd;
using test::random_odd;
using test::random_value;

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, AllImplementationsAgreeOnOddInputs) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t bx = 1 + rng.below(700);
    const std::size_t by = 1 + rng.below(700);
    const BigInt x = random_odd<std::uint32_t>(rng, bx);
    const BigInt y = random_odd<std::uint32_t>(rng, by);
    const BigInt expected = gmp_gcd(x, y);

    for (const Variant variant : gcd::kAllVariants) {
      ASSERT_EQ(gcd::gcd_odd(x, y, variant), expected)
          << to_string(variant) << " x=" << x.to_hex() << " y=" << y.to_hex();
    }
    ASSERT_EQ(gcd::gcd_odd(x, y, Variant::kDivsteps), expected)
        << "Divsteps x=" << x.to_hex() << " y=" << y.to_hex();
    ASSERT_EQ(gcd::ref_binary(x, y).gcd, expected);
    ASSERT_EQ(gcd::ref_fast(x, y).gcd, expected);
    for (const unsigned d : {5u, 11u, 16u, 29u, 32u}) {
      ASSERT_EQ(gcd::ref_approximate(x, y, d).gcd, expected)
          << "d=" << d << " x=" << x.to_hex() << " y=" << y.to_hex();
    }
    ASSERT_EQ(gcd::gcd_lehmer(x, y), expected)
        << "x=" << x.to_hex() << " y=" << y.to_hex();
  }
}

TEST_P(DifferentialFuzz, GeneralGcdAgreesOnArbitraryInputs) {
  Xoshiro256 rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  for (int trial = 0; trial < 25; ++trial) {
    // Bias toward interesting shapes: shared factors, powers of two, tiny
    // values, equal inputs.
    BigInt x = random_value<std::uint32_t>(rng, 1 + rng.below(500));
    BigInt y = random_value<std::uint32_t>(rng, 1 + rng.below(500));
    switch (rng.below(5)) {
      case 0: {
        const BigInt g = random_value<std::uint32_t>(rng, 1 + rng.below(128));
        x = x * g;
        y = y * g;
        break;
      }
      case 1:
        x <<= rng.below(100);
        y <<= rng.below(100);
        break;
      case 2:
        y = x;
        break;
      case 3:
        y = BigInt(rng.below(4));  // 0..3
        break;
      default:
        break;
    }
    const BigInt expected = gmp_gcd(x, y);
    if (!x.is_zero() || !y.is_zero()) {
      ASSERT_EQ(gcd::gcd_general(x, y), expected)
          << "x=" << x.to_hex() << " y=" << y.to_hex();
      ASSERT_EQ(gcd::gcd_general(x, y, Variant::kDivsteps), expected)
          << "Divsteps x=" << x.to_hex() << " y=" << y.to_hex();
    }
    ASSERT_EQ(gcd::gcd_lehmer(x, y), expected)
        << "x=" << x.to_hex() << " y=" << y.to_hex();
  }
}

TEST_P(DifferentialFuzz, SimtMatchesScalarOnMixedBatch) {
  Xoshiro256 rng(GetParam() * 2654435761u + 1);
  const std::size_t lanes = 12;
  const std::size_t bits = 64 + rng.below(512);
  std::vector<std::pair<BigInt, BigInt>> pairs;
  for (std::size_t i = 0; i < lanes; ++i) {
    pairs.emplace_back(random_odd<std::uint32_t>(rng, 1 + rng.below(bits)),
                       random_odd<std::uint32_t>(rng, 1 + rng.below(bits)));
  }
  std::size_t cap = 0;
  for (const auto& [x, y] : pairs) cap = std::max({cap, x.size(), y.size()});

  for (const Variant variant :
       {Variant::kBinary, Variant::kFastBinary, Variant::kApproximate}) {
    bulk::SimtBatch<std::uint32_t> batch(lanes, cap, 4);
    for (std::size_t i = 0; i < lanes; ++i) {
      batch.load(i, pairs[i].first.limbs(), pairs[i].second.limbs());
    }
    batch.run(variant, 0);
    for (std::size_t i = 0; i < lanes; ++i) {
      ASSERT_EQ(batch.gcd_of(i), gmp_gcd(pairs[i].first, pairs[i].second))
          << to_string(variant) << " lane " << i;
    }
  }
}

TEST_P(DifferentialFuzz, VectorMatchesStagedOnMixedBatch) {
  // The SIMD warp engine against the staged scalar engine AND the GMP
  // oracle, on ragged mixed-size batches, every compiled-in ISA. Deeper
  // bit-identity (stats, iteration traces) lives in vec_backend_test; this
  // keeps the vector backend inside the all-implementations fuzz net.
  Xoshiro256 rng(GetParam() * 0x9e3779b9u + 17);
  // Two full W = 8 groups + a 3-lane tail; one W = 16 group + the same tail.
  const std::size_t lanes = 19;
  const auto check = [&](std::size_t min_bits, std::size_t bits,
                         bool early_terminate) {
    std::vector<std::pair<BigInt, BigInt>> pairs;
    std::vector<std::size_t> early;
    std::size_t cap = 0;
    for (std::size_t i = 0; i < lanes; ++i) {
      const std::size_t bx = min_bits + rng.below(bits);
      const std::size_t by = min_bits + rng.below(bits);
      pairs.emplace_back(random_odd<std::uint32_t>(rng, bx),
                         random_odd<std::uint32_t>(rng, by));
      early.push_back(early_terminate ? std::min(bx, by) / 2 : 0);
      cap = std::max({cap, pairs[i].first.size(), pairs[i].second.size()});
    }

    for (const Variant variant :
         {Variant::kBinary, Variant::kFastBinary, Variant::kApproximate}) {
      bulk::SimtBatch<std::uint32_t> staged(lanes, cap, 32);
      for (std::size_t i = 0; i < lanes; ++i) {
        staged.load(i, pairs[i].first.limbs(), pairs[i].second.limbs(),
                    early[i]);
      }
      staged.run_staged(variant);

      for (const bulk::VecIsa isa :
           {bulk::VecIsa::kPortable, bulk::VecIsa::kAvx2,
            bulk::VecIsa::kAvx512}) {
        if (!bulk::vec_isa_available(isa)) continue;
        auto vec = bulk::make_vec_batch(lanes, cap, 32, isa);
        ASSERT_EQ(vec->vector_width(),
                  isa == bulk::VecIsa::kAvx512 ? 16u : 8u);
        for (std::size_t i = 0; i < lanes; ++i) {
          vec->load(i, pairs[i].first.limbs(), pairs[i].second.limbs(),
                    early[i]);
        }
        vec->run(variant);
        ASSERT_EQ(vec->stats(), staged.stats())
            << to_string(variant) << " isa=" << to_string(isa);
        for (std::size_t i = 0; i < lanes; ++i) {
          ASSERT_EQ(vec->early_coprime(i), staged.early_coprime(i))
              << to_string(variant) << " isa=" << to_string(isa) << " lane "
              << i;
          if (vec->early_coprime(i)) continue;
          ASSERT_EQ(vec->gcd_of(i), staged.gcd_of(i))
              << to_string(variant) << " isa=" << to_string(isa) << " lane "
              << i;
          ASSERT_EQ(vec->gcd_of(i), gmp_gcd(pairs[i].first, pairs[i].second))
              << to_string(variant) << " isa=" << to_string(isa) << " lane "
              << i;
        }
      }
    }
  };
  check(1, 64 + rng.below(512), false);
  // Early-terminate input: every lane >= 192 bits with early = min/2, the
  // Section-V regime the vector-resident round runs.
  check(192, 1 + rng.below(512), true);
}

TEST_P(DifferentialFuzz, EarlyTerminateVerdictsAreSound) {
  // For random odd pairs (not RSA moduli!), early-terminate may only claim
  // "coprime" when no factor of >= early_bits bits exists.
  Xoshiro256 rng(GetParam() + 31337);
  gcd::GcdEngine<std::uint32_t> engine(64);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t bits = 128 + rng.below(512);
    const BigInt x = random_odd<std::uint32_t>(rng, bits);
    const BigInt y = random_odd<std::uint32_t>(rng, bits);
    const std::size_t early = bits / 2;
    const BigInt g = gmp_gcd(x, y);
    for (const Variant variant : gcd::kAllVariants) {
      const auto run = engine.run(variant, x.limbs(), y.limbs(), early);
      if (run.early_coprime) {
        ASSERT_LT(g.bit_length(), early) << to_string(variant);
      } else {
        ASSERT_EQ(BigInt::from_limbs(run.gcd), g) << to_string(variant);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

}  // namespace
}  // namespace bulkgcd
