// End-to-end correctness of the five Euclidean algorithm drivers:
// GMP-oracle GCDs across sizes and limb widths, early-terminate semantics on
// coprime and shared-factor RSA moduli, and exact agreement (results AND
// iteration counts) with the pseudocode-level reference implementations.
#include "gcd/algorithms.hpp"

#include <gtest/gtest.h>

#include "gcd/reference.hpp"
#include "gmp_oracle.hpp"
#include "rsa/prime.hpp"

namespace bulkgcd::gcd {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::gmp_gcd;
using bulkgcd::test::random_odd;
using mp::BigInt;

template <typename Limb>
class GcdVariantsTest : public ::testing::Test {};

using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(GcdVariantsTest, LimbTypes);

TYPED_TEST(GcdVariantsTest, MatchesGmpOnRandomOddInputs) {
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  Xoshiro256 rng(41);
  for (const Variant variant : kAllVariants) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t bx = 1 + rng.below(400);
      const std::size_t by = 1 + rng.below(400);
      const Big x = random_odd<Limb>(rng, bx);
      const Big y = random_odd<Limb>(rng, by);
      const Big expected = gmp_gcd(x, y);
      EXPECT_EQ(gcd_odd(x, y, variant), expected)
          << to_string(variant) << " x=" << x.to_hex() << " y=" << y.to_hex();
    }
  }
}

TYPED_TEST(GcdVariantsTest, SharedFactorInputs) {
  // Force nontrivial GCDs: x = g*a, y = g*b with random odd g.
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  Xoshiro256 rng(42);
  for (const Variant variant : kAllVariants) {
    for (int trial = 0; trial < 40; ++trial) {
      const Big g = random_odd<Limb>(rng, 1 + rng.below(100));
      const Big a = random_odd<Limb>(rng, 1 + rng.below(150));
      const Big b = random_odd<Limb>(rng, 1 + rng.below(150));
      const Big x = g * a;
      const Big y = g * b;
      const Big expected = gmp_gcd(x, y);
      EXPECT_EQ(gcd_odd(x, y, variant), expected) << to_string(variant);
    }
  }
}

TYPED_TEST(GcdVariantsTest, IdenticalInputsReturnThemselves) {
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  Xoshiro256 rng(43);
  for (const Variant variant : kAllVariants) {
    const Big x = random_odd<Limb>(rng, 123);
    EXPECT_EQ(gcd_odd(x, x, variant), x) << to_string(variant);
  }
}

TYPED_TEST(GcdVariantsTest, TinyValues) {
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  for (const Variant variant : kAllVariants) {
    EXPECT_EQ(gcd_odd(Big(1), Big(1), variant), Big(1));
    EXPECT_EQ(gcd_odd(Big(35), Big(21), variant), Big(7));
    EXPECT_EQ(gcd_odd(Big(17), Big(1), variant), Big(1));
    EXPECT_EQ(gcd_odd(Big(1), Big(17), variant), Big(1));
    EXPECT_EQ(gcd_odd(Big(39), Big(9), variant), Big(3));  // Section II example
  }
}

TYPED_TEST(GcdVariantsTest, RejectsEvenOrZeroInputs) {
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  EXPECT_THROW(gcd_odd(Big(4), Big(3)), std::invalid_argument);
  EXPECT_THROW(gcd_odd(Big(3), Big(4)), std::invalid_argument);
  EXPECT_THROW(gcd_odd(Big(), Big(3)), std::invalid_argument);
}

TYPED_TEST(GcdVariantsTest, GeneralGcdHandlesEvenInputs) {
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  Xoshiro256 rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    Big x = bulkgcd::test::random_value<Limb>(rng, 1 + rng.below(200));
    Big y = bulkgcd::test::random_value<Limb>(rng, 1 + rng.below(200));
    const Big expected = gmp_gcd(x, y);
    EXPECT_EQ(gcd_general(x, y), expected);
  }
  EXPECT_EQ(gcd_general(Big(), Big(12)), Big(12));
  EXPECT_EQ(gcd_general(Big(12), Big()), Big(12));
  EXPECT_EQ(gcd_general(Big(48), Big(36)), Big(12));
}

TEST(PaperWorkedExampleTest, IterationCountsMatchTablesOneAndTwo) {
  // X = 1043915, Y = 768955 (Tables I and II, d-independent algorithms).
  const BigInt x = BigInt::from_dec("1043915");
  const BigInt y = BigInt::from_dec("768955");
  GcdStats st;

  st = {};
  EXPECT_EQ(gcd_odd(x, y, Variant::kBinary, &st), BigInt(5));
  EXPECT_EQ(st.iterations, 24u);  // Table I, left column

  st = {};
  EXPECT_EQ(gcd_odd(x, y, Variant::kFastBinary, &st), BigInt(5));
  EXPECT_EQ(st.iterations, 16u);  // Table I, right column

  st = {};
  EXPECT_EQ(gcd_odd(x, y, Variant::kOriginal, &st), BigInt(5));
  EXPECT_EQ(st.iterations, 11u);  // Table II, left column

  st = {};
  EXPECT_EQ(gcd_odd(x, y, Variant::kFast, &st), BigInt(5));
  EXPECT_EQ(st.iterations, 8u);  // Table II, right column
}

TEST(PaperWorkedExampleTest, FastCanBeSlowerThanOriginal) {
  // Section II claims inputs exist where Fast Euclidean takes MORE
  // iterations than Original. (The paper's own example (39, 9) lists the
  // trace (39,9)→(12,9)→(9,3)→(3,0), which skips the rshift its pseudocode
  // prescribes — with rshift, 12 becomes 3 and both variants take 2
  // iterations. The qualitative claim still holds; verify it by search.)
  GcdStats original, fast;
  gcd_odd(BigInt(39), BigInt(9), Variant::kOriginal, &original);
  gcd_odd(BigInt(39), BigInt(9), Variant::kFast, &fast);
  EXPECT_EQ(original.iterations, 2u);
  EXPECT_EQ(fast.iterations, 2u);  // pseudocode semantics, not the text trace

  bool found = false;
  for (std::uint64_t x = 3; x < 400 && !found; x += 2) {
    for (std::uint64_t y = 3; y < x && !found; y += 2) {
      GcdStats so, sf;
      gcd_odd(BigInt(x), BigInt(y), Variant::kOriginal, &so);
      gcd_odd(BigInt(x), BigInt(y), Variant::kFast, &sf);
      if (sf.iterations > so.iterations) found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- engine vs pseudocode reference: results and step counts -------------

// ctest names each parameterized case by its printed value. The default
// printer dumps the raw bytes of the struct, padding included, so those names
// used to depend on whatever the stack held. Each case now carries the name it
// is tracked under and prints exactly that.
struct EngineVsReferenceCase {
  Variant variant;
  std::size_t early_bits;
  const char* ctest_name;
};

void PrintTo(const EngineVsReferenceCase& c, std::ostream* os) {
  *os << c.ctest_name;
}

class EngineVsReferenceTest
    : public ::testing::TestWithParam<EngineVsReferenceCase> {};

RefRun run_reference(Variant variant, const BigInt& x, const BigInt& y,
                     std::size_t early_bits) {
  const RefOptions opt{early_bits, false};
  switch (variant) {
    case Variant::kOriginal: return ref_original(x, y, opt);
    case Variant::kFast: return ref_fast(x, y, opt);
    case Variant::kBinary: return ref_binary(x, y, opt);
    case Variant::kFastBinary: return ref_fast_binary(x, y, opt);
    case Variant::kApproximate: return ref_approximate(x, y, 32, opt);
  }
  std::abort();
}

TEST_P(EngineVsReferenceTest, StepCountsAndResultsAgree) {
  const auto [variant, early_bits, ctest_name] = GetParam();
  Xoshiro256 rng(45 + std::size_t(variant));
  GcdEngine<std::uint32_t> engine(64);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t bits = std::max<std::size_t>(early_bits * 2, 64);
    const BigInt x = random_odd<std::uint32_t>(rng, bits);
    const BigInt y = random_odd<std::uint32_t>(rng, bits - rng.below(8));
    GcdStats st;
    const auto run = engine.run(variant, x.limbs(), y.limbs(), early_bits, &st);
    const RefRun ref = run_reference(variant, x, y, early_bits);
    EXPECT_EQ(st.iterations, ref.stats.iterations) << to_string(variant);
    EXPECT_EQ(st.beta_nonzero, ref.stats.beta_nonzero);
    EXPECT_EQ(run.early_coprime, ref.early_coprime);
    if (!run.early_coprime) {
      EXPECT_EQ(BigInt::from_limbs(run.gcd), ref.gcd) << to_string(variant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothModes, EngineVsReferenceTest,
    ::testing::Values(
        EngineVsReferenceCase{Variant::kOriginal, 0,
                              "16-byte object <00-00 00-00 00-00 00-00 "
                              "00-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kFast, 0,
                              "16-byte object <01-00 01-1B 03-00 00-00 "
                              "00-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kBinary, 0,
                              "16-byte object <02-00 00-00 00-00 00-00 "
                              "00-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kFastBinary, 0,
                              "16-byte object <03-00 00-00 00-00 00-00 "
                              "00-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kApproximate, 0,
                              "16-byte object <04-00 00-00 00-00 00-00 "
                              "00-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kOriginal, 128,
                              "16-byte object <00-00 01-1B 03-00 00-00 "
                              "80-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kFast, 128,
                              "16-byte object <01-DA 48-00 00-00 00-00 "
                              "80-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kBinary, 128,
                              "16-byte object <02-FF 48-00 00-00 00-00 "
                              "80-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kFastBinary, 128,
                              "16-byte object <03-00 00-00 00-00 00-00 "
                              "80-00 00-00 00-00 00-00>"},
        EngineVsReferenceCase{Variant::kApproximate, 128,
                              "16-byte object <04-00 00-00 00-00 00-00 "
                              "80-00 00-00 00-00 00-00>"}));

TYPED_TEST(GcdVariantsTest, DivstepsMatchesGmpOnEveryLimbWidthItRuns) {
  // Variant::kDivsteps (beyond the paper) reads 32 low bits per pass, so it
  // refuses 16-bit limbs; on 32- and 64-bit limbs the scalar engine's
  // non-terminating run is the plain gcd, reused engine buffers included.
  using Limb = TypeParam;
  using Big = mp::BigIntT<Limb>;
  if constexpr (mp::limb_bits<Limb> < 32) {
    EXPECT_THROW(gcd_odd(Big(35), Big(21), Variant::kDivsteps),
                 std::invalid_argument);
  } else {
    Xoshiro256 rng(45);
    GcdEngine<Limb> engine(20);
    for (int trial = 0; trial < 60; ++trial) {
      const Big g = random_odd<Limb>(rng, 1 + rng.below(200));
      const Big x = g * random_odd<Limb>(rng, 1 + rng.below(400));
      const Big y =
          trial % 7 == 0 ? x : g * random_odd<Limb>(rng, 1 + rng.below(400));
      if (x.size() > 20 || y.size() > 20) continue;
      const auto run = engine.run(Variant::kDivsteps, x.limbs(), y.limbs());
      EXPECT_EQ(Big::from_limbs(run.gcd), gmp_gcd(x, y))
          << "x=" << x.to_hex() << " y=" << y.to_hex();
    }
    EXPECT_EQ(gcd_odd(Big(1), Big(1), Variant::kDivsteps), Big(1));
    EXPECT_EQ(gcd_odd(Big(39), Big(9), Variant::kDivsteps), Big(3));
    EXPECT_EQ(gcd_odd(Big(1), Big(17), Variant::kDivsteps), Big(1));
  }
}

// ---- RSA-moduli early termination -----------------------------------------

TEST(ProbeModuliPairTest, DetectsPlantedSharedPrime) {
  Xoshiro256 rng(46);
  const BigInt p = rsa::random_prime(rng, 128);
  const BigInt q1 = rsa::random_prime(rng, 128);
  const BigInt q2 = rsa::random_prime(rng, 128);
  const BigInt n1 = p * q1;
  const BigInt n2 = p * q2;
  for (const Variant variant : kAllVariants) {
    const auto probe = probe_moduli_pair(n1, n2, variant);
    ASSERT_TRUE(probe.shares_factor) << to_string(variant);
    EXPECT_EQ(probe.factor, p) << to_string(variant);
  }
  const auto probe = probe_moduli_pair(n1, n2, Variant::kDivsteps);
  ASSERT_TRUE(probe.shares_factor);
  EXPECT_EQ(probe.factor, p);
}

TEST(ProbeModuliPairTest, ReportsCoprimeForIndependentModuli) {
  Xoshiro256 rng(47);
  const BigInt n1 = rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128);
  const BigInt n2 = rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128);
  for (const Variant variant : kAllVariants) {
    GcdStats st;
    const auto probe = probe_moduli_pair(n1, n2, variant, &st);
    EXPECT_FALSE(probe.shares_factor) << to_string(variant);
    EXPECT_GE(st.iterations, 1u);
  }
  EXPECT_FALSE(probe_moduli_pair(n1, n2, Variant::kDivsteps).shares_factor);
}

TEST(ProbeModuliPairTest, EarlyTerminationHalvesIterations) {
  // Section V: early-terminate cuts the iteration count roughly in half.
  Xoshiro256 rng(48);
  std::uint64_t full = 0, early = 0;
  GcdEngine<std::uint32_t> engine(40);
  for (int trial = 0; trial < 20; ++trial) {
    const BigInt n1 = rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256);
    const BigInt n2 = rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256);
    GcdStats st_full, st_early;
    engine.run(Variant::kApproximate, n1.limbs(), n2.limbs(), 0, &st_full);
    engine.run(Variant::kApproximate, n1.limbs(), n2.limbs(), 256, &st_early);
    full += st_full.iterations;
    early += st_early.iterations;
  }
  EXPECT_GT(full, early);
  const double ratio = double(early) / double(full);
  EXPECT_NEAR(ratio, 0.5, 0.07);
}

TEST(GcdStatsTest, ApproxCaseHistogramSumsToIterations) {
  Xoshiro256 rng(49);
  const BigInt x = random_odd<std::uint32_t>(rng, 512);
  const BigInt y = random_odd<std::uint32_t>(rng, 512);
  GcdStats st;
  gcd_odd(x, y, Variant::kApproximate, &st);
  std::uint64_t total = 0;
  for (const auto count : st.approx_cases) total += count;
  EXPECT_EQ(total, st.iterations);
  EXPECT_EQ(st.divisions, st.iterations);  // one Wide division per iteration
}

TEST(GcdEngineTest, CapacityIsEnforced) {
  GcdEngine<std::uint32_t> engine(4);
  Xoshiro256 rng(50);
  const BigInt big = random_odd<std::uint32_t>(rng, 400);
  const BigInt small(3);
  EXPECT_THROW(engine.run(Variant::kApproximate, big.limbs(), small.limbs()),
               std::length_error);
}

TEST(GcdEngineTest, EngineIsReusableAcrossRuns) {
  Xoshiro256 rng(51);
  GcdEngine<std::uint32_t> engine(32);
  for (int trial = 0; trial < 30; ++trial) {
    const BigInt x = random_odd<std::uint32_t>(rng, 500);
    const BigInt y = random_odd<std::uint32_t>(rng, 300);
    const auto run = engine.run(Variant::kApproximate, x.limbs(), y.limbs());
    EXPECT_EQ(BigInt::from_limbs(run.gcd), gmp_gcd(x, y));
  }
}

}  // namespace
}  // namespace bulkgcd::gcd
