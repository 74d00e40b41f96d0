// BigInt class-level tests: string conversions, operators, Karatsuba.
#include "mp/bigint.hpp"

#include <gtest/gtest.h>

#include "gmp_oracle.hpp"
#include "mp/karatsuba.hpp"

namespace bulkgcd::mp {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::Mpz;
using bulkgcd::test::random_value;
using bulkgcd::test::to_mpz;

TEST(BigIntTest, DecimalRoundTrip) {
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(600));
    EXPECT_EQ(BigInt::from_dec(a.to_dec()), a);
    EXPECT_EQ(a.to_dec(), to_mpz(a).to_dec());  // oracle agreement
  }
  EXPECT_EQ(BigInt().to_dec(), "0");
  EXPECT_EQ(BigInt::from_dec("0"), BigInt());
}

TEST(BigIntTest, HexRoundTrip) {
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(600));
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
  }
  EXPECT_EQ(BigInt::from_hex("0xff"), BigInt(255));
  EXPECT_EQ(BigInt::from_hex("DEAD_beef"), BigInt(0xDEADBEEFull));
  EXPECT_EQ(BigInt().to_hex(), "0");
}

TEST(BigIntTest, ParseRejectsGarbage) {
  EXPECT_THROW(BigInt::from_dec(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_dec("12x"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("0x"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigIntTest, BinaryGroupedMatchesPaperNotation) {
  // The paper writes 223 as "1101,1111" and pads top groups ("0101" for 5).
  EXPECT_EQ(BigInt(223).to_binary_grouped(), "1101,1111");
  EXPECT_EQ(BigInt(5).to_binary_grouped(), "0101");
  EXPECT_EQ(BigInt(17185).to_binary_grouped(), "0100,0011,0010,0001");
  EXPECT_EQ(BigInt().to_binary_grouped(), "0");
}

TEST(BigIntTest, ComparisonOperators) {
  const BigInt a(100), b(200);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_EQ(a, BigInt(100));
  EXPECT_NE(a, b);
  EXPECT_LT(BigInt(), a);  // zero smallest
}

TEST(BigIntTest, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt(1) - BigInt(2), std::domain_error);
}

TEST(BigIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(), std::domain_error);
  EXPECT_THROW(BigInt(1) % BigInt(), std::domain_error);
}

TEST(BigIntTest, BitAccessors) {
  const BigInt v(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 4u);
  EXPECT_TRUE(v.is_odd());
  EXPECT_TRUE(BigInt(4).is_even());
  EXPECT_EQ(BigInt(12).trailing_zero_bits(), 2u);
}

TEST(BigIntTest, ToU64TruncatesHighBits) {
  const BigInt big = BigInt(1) << 100;
  EXPECT_EQ(big.to_u64(), 0u);
  const BigInt v = (BigInt(7) << 64) + BigInt(42);
  EXPECT_EQ(v.to_u64(), 42u);
}

TEST(KaratsubaTest, MatchesSchoolbookAcrossSizes) {
  Xoshiro256 rng(23);
  for (const std::size_t bits : {100u, 800u, 2000u, 5000u, 20000u}) {
    const BigInt a = random_value<std::uint32_t>(rng, bits);
    const BigInt b = random_value<std::uint32_t>(rng, bits + rng.below(bits));
    const auto k = mul_karatsuba(a.data(), a.size(), b.data(), b.size());
    std::vector<std::uint32_t> s(a.size() + b.size());
    s.resize(mul_schoolbook(s.data(), a.data(), a.size(), b.data(), b.size()));
    EXPECT_EQ(k, s) << "bits=" << bits;
  }
}

TEST(KaratsubaTest, UnbalancedOperands) {
  Xoshiro256 rng(24);
  const BigInt a = random_value<std::uint32_t>(rng, 10000);
  const BigInt b = random_value<std::uint32_t>(rng, 700);
  Mpz expected;
  mpz_mul(expected.get(), to_mpz(a).get(), to_mpz(b).get());
  EXPECT_EQ(to_mpz(a * b), expected);
}

TEST(KaratsubaTest, ZeroAndTinyOperands) {
  const BigInt zero;
  const BigInt one(1);
  EXPECT_TRUE(mul_karatsuba(zero.data(), 0, one.data(), 1).empty());
  Xoshiro256 rng(25);
  const BigInt a = random_value<std::uint32_t>(rng, 4000);
  const auto prod = mul_karatsuba(a.data(), a.size(), one.data(), 1);
  EXPECT_EQ(BigInt::from_limbs(prod), a);
}

TEST(BigIntTest, ShiftOperatorsComposeWithArithmetic) {
  Xoshiro256 rng(26);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(200));
    const std::size_t k = rng.below(70);
    EXPECT_EQ((a << k) >> k, a);
    EXPECT_EQ(a << k, a * (BigInt(1) << k));
  }
}

TEST(RepackTest, EveryWidthPairRoundTripsNormalizedAgainstGmp) {
  // Bit lengths around every limb boundary: a 64-bit value whose top half
  // is zero must narrow to an odd number of u32 limbs, never a zero top limb.
  Xoshiro256 rng(27);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t bits = trial < 8 ? std::size_t(trial) : 1 + rng.below(300);
    const BigInt v = random_value<std::uint32_t>(rng, bits);
    const BigInt16 v16 = repack<std::uint16_t>(v);
    const BigInt64 v64 = repack<std::uint64_t>(v);
    EXPECT_EQ(to_mpz(v16), to_mpz(v)) << bits;
    EXPECT_EQ(to_mpz(v64), to_mpz(v)) << bits;
    EXPECT_EQ(v16.size(), limbs_for_bits<std::uint16_t>(bits));
    EXPECT_EQ(v64.size(), limbs_for_bits<std::uint64_t>(bits));
    EXPECT_EQ(repack<std::uint32_t>(v64), v);
    EXPECT_EQ(repack<std::uint32_t>(v16), v);
    EXPECT_EQ(repack<std::uint64_t>(v16), v64);
    EXPECT_EQ(repack<std::uint16_t>(v64), v16);
    // High zero limbs in the source span are dropped on the way out.
    std::vector<std::uint64_t> padded(v64.limbs().begin(), v64.limbs().end());
    padded.resize(padded.size() + 2, 0);
    EXPECT_EQ(repack_limbs<std::uint32_t>(std::span<const std::uint64_t>(padded)),
              std::vector<std::uint32_t>(v.limbs().begin(), v.limbs().end()));
  }
}

}  // namespace
}  // namespace bulkgcd::mp
