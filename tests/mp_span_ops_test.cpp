// Unit + property tests for the low-level limb-span kernels, cross-checked
// against GMP over all three limb widths.
#include "mp/span_ops.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gmp_oracle.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::mp {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::from_mpz;
using bulkgcd::test::gmp_gcd;
using bulkgcd::test::Mpz;
using bulkgcd::test::random_value;
using bulkgcd::test::to_mpz;

template <typename Limb>
class SpanOpsTest : public ::testing::Test {};

using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(SpanOpsTest, LimbTypes);

TYPED_TEST(SpanOpsTest, NormalizedSizeStripsHighZeros) {
  using Limb = TypeParam;
  const Limb a[4] = {Limb{5}, Limb{0}, Limb{7}, Limb{0}};
  EXPECT_EQ(normalized_size(a, 4), 3u);
  const Limb z[3] = {Limb{0}, Limb{0}, Limb{0}};
  EXPECT_EQ(normalized_size(z, 3), 0u);
  EXPECT_EQ(normalized_size(a, 0), 0u);
}

TYPED_TEST(SpanOpsTest, CompareOrdersByValueNotStorage) {
  using Limb = TypeParam;
  const Limb a[2] = {Limb{1}, Limb{2}};
  const Limb b[2] = {Limb{2}, Limb{1}};
  EXPECT_EQ(compare(a, 2, b, 2), 1);   // high limb dominates
  EXPECT_EQ(compare(b, 2, a, 2), -1);
  EXPECT_EQ(compare(a, 2, a, 2), 0);
  const Limb c[1] = {Limb(~Limb{0})};
  EXPECT_EQ(compare(a, 2, c, 1), 1);   // more limbs wins
}

TYPED_TEST(SpanOpsTest, BitLengthMatchesDefinition) {
  using Limb = TypeParam;
  const Limb one[1] = {Limb{1}};
  EXPECT_EQ(bit_length(one, 1), 1u);
  const Limb v[2] = {Limb{0}, Limb{1}};
  EXPECT_EQ(bit_length(v, 2), std::size_t(limb_bits<Limb> + 1));
  EXPECT_EQ(bit_length(one, 0), 0u);
}

TYPED_TEST(SpanOpsTest, TrailingZeroBits) {
  using Limb = TypeParam;
  const Limb v[2] = {Limb{0}, Limb{4}};
  EXPECT_EQ(count_trailing_zero_bits(v, 2), std::size_t(limb_bits<Limb> + 2));
  const Limb odd[1] = {Limb{9}};
  EXPECT_EQ(count_trailing_zero_bits(odd, 1), 0u);
}

TYPED_TEST(SpanOpsTest, AddSubRoundTripRandom) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t bits_a = 1 + rng.below(300);
    const std::size_t bits_b = 1 + rng.below(300);
    Big a = random_value<Limb>(rng, bits_a);
    Big b = random_value<Limb>(rng, bits_b);
    Big sum = a + b;
    // Oracle check.
    Mpz expected;
    mpz_add(expected.get(), to_mpz(a).get(), to_mpz(b).get());
    EXPECT_EQ(to_mpz(sum), expected);
    // Round trip.
    EXPECT_EQ(sum - b, a);
    EXPECT_EQ(sum - a, b);
  }
}

TYPED_TEST(SpanOpsTest, MulMatchesGmp) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    Big a = random_value<Limb>(rng, 1 + rng.below(400));
    Big b = random_value<Limb>(rng, 1 + rng.below(400));
    Mpz expected;
    mpz_mul(expected.get(), to_mpz(a).get(), to_mpz(b).get());
    EXPECT_EQ(to_mpz(a * b), expected);
  }
}

TYPED_TEST(SpanOpsTest, MulWordMatchesGmp) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    Big a = random_value<Limb>(rng, 1 + rng.below(200));
    const Limb w = Limb(rng());
    std::vector<Limb> out(a.size() + 1);
    out.resize(mul_word(out.data(), a.data(), a.size(), w));
    Mpz expected;
    mpz_mul_ui(expected.get(), to_mpz(a).get(), (unsigned long)(w));
    EXPECT_EQ(to_mpz(Big::from_limbs(out)), expected);
  }
}

TYPED_TEST(SpanOpsTest, ShiftsMatchGmp) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    Big a = random_value<Limb>(rng, 1 + rng.below(300));
    const std::size_t shift = rng.below(3 * limb_bits<Limb> + 1);
    Mpz left, right;
    mpz_mul_2exp(left.get(), to_mpz(a).get(), shift);
    mpz_fdiv_q_2exp(right.get(), to_mpz(a).get(), shift);
    EXPECT_EQ(to_mpz(a << shift), left);
    EXPECT_EQ(to_mpz(a >> shift), right);
  }
}

TYPED_TEST(SpanOpsTest, DivRemMatchesGmpRandom) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(15);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t bits_a = 1 + rng.below(500);
    const std::size_t bits_b = 1 + rng.below(500);
    Big a = random_value<Limb>(rng, bits_a);
    Big b = random_value<Limb>(rng, bits_b);
    auto [q, r] = Big::divmod(a, b);
    Mpz eq, er;
    mpz_fdiv_qr(eq.get(), er.get(), to_mpz(a).get(), to_mpz(b).get());
    ASSERT_EQ(to_mpz(q), eq) << "bits_a=" << bits_a << " bits_b=" << bits_b;
    ASSERT_EQ(to_mpz(r), er);
    // Identity a = q*b + r, r < b.
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TYPED_TEST(SpanOpsTest, DivRemQhatCorrectionCases) {
  // Adversarial divisors with all-ones top limbs exercise the q̂ add-back
  // branch of Knuth D.
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  const Limb ones = Limb(~Limb{0});
  Xoshiro256 rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nb = 2 + rng.below(4);
    std::vector<Limb> blimbs(nb, ones);
    blimbs[0] = Limb(rng());  // vary the low limb
    Big b = Big::from_limbs(blimbs);
    // a = b * k + delta near the overflow boundary
    Big k = random_value<Limb>(rng, 1 + rng.below(64));
    Big a = b * k;
    if (trial % 2 == 0) a += random_value<Limb>(rng, 1 + rng.below(b.bit_length()));
    auto [q, r] = Big::divmod(a, b);
    Mpz eq, er;
    mpz_fdiv_qr(eq.get(), er.get(), to_mpz(a).get(), to_mpz(b).get());
    ASSERT_EQ(to_mpz(q), eq);
    ASSERT_EQ(to_mpz(r), er);
  }
}

TYPED_TEST(SpanOpsTest, DivRemAddBackMatchesGmp) {
  // Two dividend/divisor patterns (least significant limb first; H = B/2)
  // whose first quotient digit survives the q̂ correction one too large at
  // every limb width, so the multiply-subtract borrows out of the top limb
  // and the divisor is added back. Random low limbs under the dividend
  // keep that first step and vary the rest.
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  const Limb ones = Limb(~Limb{0});
  const Limb half = Limb(Limb{1} << (limb_bits<Limb> - 1));
  const std::vector<Limb> dividends[] = {{0, 0, half, Limb(half - 1)},
                                         {0, Limb(ones - 1), 0, half}};
  const std::vector<Limb> divisors[] = {{1, 0, half}, {ones, 0, half}};
  Xoshiro256 rng(18);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t low = 0; low < 6; ++low) {
      std::vector<Limb> u(low);
      for (auto& limb : u) limb = Limb(rng());
      u.insert(u.end(), dividends[c].begin(), dividends[c].end());
      const Big a = Big::from_limbs(u);
      const Big b = Big::from_limbs(divisors[c]);
      auto [q, r] = Big::divmod(a, b);
      Mpz eq, er;
      mpz_fdiv_qr(eq.get(), er.get(), to_mpz(a).get(), to_mpz(b).get());
      ASSERT_EQ(to_mpz(q), eq) << "case " << c << " low " << low;
      ASSERT_EQ(to_mpz(r), er) << "case " << c << " low " << low;
    }
  }
}

TYPED_TEST(SpanOpsTest, DivRemWordAgainstFullDiv) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    Big a = random_value<Limb>(rng, 1 + rng.below(300));
    Limb w = Limb(rng());
    if (w == 0) w = 1;
    std::vector<Limb> q(a.size());
    const Limb rem = divrem_word(q.data(), a.data(), a.size(), w);
    std::vector<Limb> wl = {w};
    auto [eq, er] = Big::divmod(a, Big::from_limbs(wl));
    EXPECT_EQ(Big::from_limbs(q), eq);
    EXPECT_EQ(Big(std::uint64_t(rem)) % Big::from_limbs(wl),
              er);  // rem may exceed 64 bits only for u64 limbs
  }
}

TYPED_TEST(SpanOpsTest, StripTrailingZeros) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(18);
  for (int trial = 0; trial < 100; ++trial) {
    Big odd = random_value<Limb>(rng, 1 + rng.below(200));
    if (odd.is_even()) odd += Big(1);
    const std::size_t shift = rng.below(2 * limb_bits<Limb>);
    Big shifted = odd << shift;
    shifted.strip_trailing_zeros();
    EXPECT_EQ(shifted, odd);
  }
  Big zero;
  zero.strip_trailing_zeros();
  EXPECT_TRUE(zero.is_zero());
}

TYPED_TEST(SpanOpsTest, DivisionByLargerGivesZeroQuotient) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Big a(5);
  Big b(7);
  auto [q, r] = Big::divmod(a, b);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, a);
}

TYPED_TEST(SpanOpsTest, SelfDivisionIsOneRemainderZero) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    Big a = random_value<Limb>(rng, 1 + rng.below(300));
    auto [q, r] = Big::divmod(a, a);
    EXPECT_EQ(q, Big(1));
    EXPECT_TRUE(r.is_zero());
  }
}

}  // namespace
}  // namespace bulkgcd::mp
