// Algebraic stress tests for the multiprecision layer: identities that must
// hold for ALL inputs, driven with adversarial shapes (all-ones limbs, long
// zero runs, single bits, huge size imbalances). These complement the
// GMP-oracle tests with self-consistency that would catch a broken oracle
// conversion too.
#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "gmp_oracle.hpp"
#include "mp/bigint.hpp"
#include "mp/karatsuba.hpp"
#include "mp/newton_div.hpp"
#include "mp/ntt.hpp"

namespace bulkgcd::mp {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::random_value;

/// Adversarial value generator: mixes random, all-ones, single-bit, and
/// zero-run-heavy shapes.
template <typename Limb>
BigIntT<Limb> adversarial(Xoshiro256& rng) {
  using Big = BigIntT<Limb>;
  const std::size_t bits = 1 + rng.below(600);
  switch (rng.below(6)) {
    case 0:
      return random_value<Limb>(rng, bits);
    case 1: {  // 2^bits - 1: all ones
      return (Big(1) << bits) - Big(1);
    }
    case 2:  // single bit
      return Big(1) << bits;
    case 3: {  // low ones, long zero run, high ones
      return ((Big(1) << (bits / 3 + 1)) - Big(1)) +
             (random_value<Limb>(rng, bits / 3 + 1) << (2 * bits / 3 + 2));
    }
    case 4:  // small value
      return Big(rng.below(16));
    default:  // random with stripped low bits
      return random_value<Limb>(rng, bits) << rng.below(100);
  }
}

template <typename Limb>
class MpStressTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(MpStressTest, LimbTypes);

TYPED_TEST(MpStressTest, RingIdentities) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(171);
  for (int trial = 0; trial < 200; ++trial) {
    const Big a = adversarial<Limb>(rng);
    const Big b = adversarial<Limb>(rng);
    const Big c = adversarial<Limb>(rng);
    // commutativity / associativity / distributivity
    ASSERT_EQ(a + b, b + a);
    ASSERT_EQ(a * b, b * a);
    ASSERT_EQ((a + b) + c, a + (b + c));
    ASSERT_EQ((a * b) * c, a * (b * c));
    ASSERT_EQ(a * (b + c), a * b + a * c);
    // additive cancellation
    ASSERT_EQ((a + b) - b, a);
  }
}

TYPED_TEST(MpStressTest, DivModInvariants) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(172);
  for (int trial = 0; trial < 200; ++trial) {
    const Big a = adversarial<Limb>(rng);
    Big b = adversarial<Limb>(rng);
    if (b.is_zero()) b = Big(3);
    const auto [q, r] = Big::divmod(a, b);
    ASSERT_EQ(q * b + r, a);
    ASSERT_LT(r, b);
    // (a*b) / b == a exactly
    ASSERT_EQ((a * b) / b, a);
    ASSERT_TRUE(((a * b) % b).is_zero());
    // ((a*b) + r) / b == a with remainder r (r < b)
    ASSERT_EQ((a * b + r) / b, a);
    ASSERT_EQ((a * b + r) % b, r);
  }
}

TYPED_TEST(MpStressTest, ShiftMulEquivalence) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(173);
  for (int trial = 0; trial < 150; ++trial) {
    const Big a = adversarial<Limb>(rng);
    const std::size_t k = rng.below(200);
    ASSERT_EQ(a << k, a * (Big(1) << k));
    ASSERT_EQ((a << k) >> k, a);
    // floor division by 2^k == right shift
    ASSERT_EQ(a >> k, a / (Big(1) << k));
  }
}

TYPED_TEST(MpStressTest, StringsRoundTripAdversarial) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(174);
  for (int trial = 0; trial < 60; ++trial) {
    const Big a = adversarial<Limb>(rng);
    ASSERT_EQ(Big::from_hex(a.to_hex()), a);
    ASSERT_EQ(Big::from_dec(a.to_dec()), a);
  }
}

TYPED_TEST(MpStressTest, ComparisonIsATotalOrder) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(175);
  for (int trial = 0; trial < 150; ++trial) {
    const Big a = adversarial<Limb>(rng);
    const Big b = adversarial<Limb>(rng);
    // exactly one of <, ==, > holds
    const int rels = int(a < b) + int(a == b) + int(a > b);
    ASSERT_EQ(rels, 1);
    if (a < b) {
      ASSERT_LT(a + Big(0), b);
      ASSERT_LE(a, b - Big(1));  // integers: a < b implies a <= b-1
    }
    // adding anything nonzero grows the value
    const Big c = adversarial<Limb>(rng);
    if (!c.is_zero()) ASSERT_GT(a + c, a);
  }
}

TYPED_TEST(MpStressTest, KaratsubaSchoolbookConsistencyAdversarial) {
  using Limb = TypeParam;
  Xoshiro256 rng(176);
  for (int trial = 0; trial < 40; ++trial) {
    // sizes straddling the Karatsuba threshold on both sides
    const std::size_t bits_a =
        mp::limb_bits<Limb> * (kKaratsubaThreshold - 2 + rng.below(8));
    const auto a = random_value<Limb>(rng, bits_a) << rng.below(64);
    const auto b = random_value<Limb>(rng, 1 + rng.below(2 * bits_a));
    const auto kara = mul_karatsuba(a.data(), a.size(), b.data(), b.size());
    std::vector<Limb> school(a.size() + b.size());
    school.resize(
        mul_schoolbook(school.data(), a.data(), a.size(), b.data(), b.size()));
    ASSERT_EQ(kara, school);
  }
}

/// Limbs of width Limb in `words` 64-bit words.
template <typename Limb>
constexpr std::size_t limbs_in_words(std::size_t words) {
  return words * 64 / limb_bits<Limb>;
}

/// a * b through the transform rung directly and through BigInt's dispatch,
/// both against GMP.
template <typename Limb>
void expect_ntt_matches_gmp(const BigIntT<Limb>& a, const BigIntT<Limb>& b) {
  test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gp;
  mpz_mul(gp.get(), ga.get(), gb.get());
  const BigIntT<Limb> want = test::from_mpz<Limb>(gp);
  ASSERT_EQ(BigIntT<Limb>::from_limbs(mul_ntt(a.data(), a.size(), b.data(), b.size())),
            want);
  ASSERT_EQ(a * b, want);
}

TYPED_TEST(MpStressTest, NttDifferentialStraddlesTheThreshold) {
  using Limb = TypeParam;
  constexpr std::size_t lb = limb_bits<Limb>;
  Xoshiro256 rng(178);
  for (int trial = 0; trial < 8; ++trial) {
    // Both operands straddle kNttThreshold words independently: the
    // dispatch may take the transform only when both clear it, and the
    // transform itself must agree with Karatsuba and GMP on every shape.
    const std::size_t words_a = kNttThreshold - 3 + rng.below(6);
    const std::size_t words_b = kNttThreshold - 3 + rng.below(6);
    SCOPED_TRACE(::testing::Message() << words_a << " x " << words_b << " words");
    const auto a = random_value<Limb>(rng, limbs_in_words<Limb>(words_a) * lb -
                                                rng.below(lb));
    const auto b = random_value<Limb>(rng, limbs_in_words<Limb>(words_b) * lb);
    expect_ntt_matches_gmp(a, b);
    ASSERT_EQ(mul_ntt(a.data(), a.size(), b.data(), b.size()),
              mul_karatsuba(a.data(), a.size(), b.data(), b.size()));
  }
}

TYPED_TEST(MpStressTest, NttMatchesGmpAtEveryTransformLength) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  Xoshiro256 rng(179);
  // Products of N = na + nb − 1 words with N one below, at and one above
  // each power of two: the last product a transform length holds, and the
  // first that needs the next one (or a second chunk). Balanced and 1:3
  // shapes; random words, and all-ones words whose convolution
  // coefficients reach n·(2^64 − 1)², the most the CRT must rebuild.
  for (std::size_t len = 2; len <= (std::size_t{1} << 13); len *= 2) {
    for (const std::size_t total : {len - 1, len, len + 1}) {
      for (const std::size_t nb : {(total + 1) / 2, (total + 1) / 4}) {
        const std::size_t na = total + 1 - nb;
        if (nb == 0) continue;
        SCOPED_TRACE(::testing::Message() << na << " x " << nb << " words");
        const std::size_t bits_a = limbs_in_words<Limb>(na) * lb;
        const std::size_t bits_b = limbs_in_words<Limb>(nb) * lb;
        expect_ntt_matches_gmp(random_value<Limb>(rng, bits_a),
                               random_value<Limb>(rng, bits_b));
        expect_ntt_matches_gmp((Big(1) << bits_a) - Big(1),
                               (Big(1) << bits_b) - Big(1));
      }
    }
  }
}

TYPED_TEST(MpStressTest, NttSquareMatchesGmpAtEveryTransformLength) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  Xoshiro256 rng(181);
  // A square through the rung (the same limbs as both operands) takes one
  // forward and one inverse transform per prime: 2n − 1 coefficients one
  // below, at and past each power of two, random words and all-ones words
  // (the largest coefficients).
  for (std::size_t len = 2; len <= (std::size_t{1} << 13); len *= 2) {
    for (const std::size_t words : {len / 2, len / 2 + 1, len / 2 + 17}) {
      SCOPED_TRACE(::testing::Message() << words << " words");
      const std::size_t bits = limbs_in_words<Limb>(words) * lb;
      for (const Big& a : {random_value<Limb>(rng, bits), (Big(1) << bits) - Big(1)}) {
        test::Mpz ga = test::to_mpz(a), gp;
        mpz_mul(gp.get(), ga.get(), ga.get());
        ASSERT_EQ(Big::from_limbs(mul_ntt(a.data(), a.size(), a.data(), a.size())),
                  test::from_mpz<Limb>(gp));
        ASSERT_EQ(a * a, test::from_mpz<Limb>(gp));
      }
    }
  }
}

TYPED_TEST(MpStressTest, NttAdversarialShapes) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  const std::size_t T = limbs_in_words<Limb>(kNttThreshold);
  Xoshiro256 rng(180);
  std::vector<Big> shapes;
  // all ones, 16 threshold lengths: large coefficients at a long transform
  shapes.push_back((Big(1) << (16 * T * lb)) - Big(1));
  // single top bit: zero words everywhere else
  shapes.push_back(Big(1) << (3 * T * lb - 1));
  // low ones, hollow middle third, random high third
  shapes.push_back(((Big(1) << (T * lb)) - Big(1)) +
                   (random_value<Limb>(rng, T * lb) << (2 * T * lb)));
  // just above the threshold: unbalanced against every other shape
  shapes.push_back(random_value<Limb>(rng, (T + 1) * lb));
  // 1:2, the shape of a Newton block's Q·b against its divisor
  shapes.push_back(random_value<Limb>(rng, 2 * T * lb + 5));
  for (const auto& a : shapes) {
    for (const auto& b : shapes) {
      SCOPED_TRACE(::testing::Message() << a.bit_length() << " x " << b.bit_length());
      expect_ntt_matches_gmp(a, b);
    }
  }
  // Tiny × huge, straight into the rung (the dispatch sends these to
  // Karatsuba): many chunks of the long operand against one short one.
  const Big huge = random_value<Limb>(rng, 40 * T * lb);
  for (const std::size_t bits : {std::size_t{1}, lb, 7 * lb + 3, 64 * lb}) {
    SCOPED_TRACE(bits);
    const Big tiny = random_value<Limb>(rng, bits);
    test::Mpz gh = test::to_mpz(huge), gt = test::to_mpz(tiny), gp;
    mpz_mul(gp.get(), gh.get(), gt.get());
    ASSERT_EQ(Big::from_limbs(mul_ntt(huge.data(), huge.size(), tiny.data(), tiny.size())),
              test::from_mpz<Limb>(gp));
  }
  // An unbalanced shape just past a power of two (3000 × 5995 words).
  expect_ntt_matches_gmp(random_value<Limb>(rng, limbs_in_words<Limb>(3000) * lb),
                         random_value<Limb>(rng, limbs_in_words<Limb>(5995) * lb));
}

TYPED_TEST(MpStressTest, DispatchLadderMatchesGmpWellAboveBothThresholds) {
  using Limb = TypeParam;
  Xoshiro256 rng(180);
  for (int trial = 0; trial < 6; ++trial) {
    // Batch-GCD tree regime: one to three times the transform threshold.
    const std::size_t bits_a = mp::limb_bits<Limb> *
        limbs_in_words<Limb>(kNttThreshold + rng.below(2 * kNttThreshold));
    const std::size_t bits_b = mp::limb_bits<Limb> *
        limbs_in_words<Limb>(kNttThreshold + rng.below(2 * kNttThreshold));
    const auto a = random_value<Limb>(rng, bits_a);
    const auto b = random_value<Limb>(rng, bits_b);
    test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gp;
    mpz_mul(gp.get(), ga.get(), gb.get());
    ASSERT_EQ(a * b, test::from_mpz<Limb>(gp));
  }
}

/// a / b through the routed BigInt::divmod and through the Newton rung
/// directly, both against GMP; the Newton fix-up loop must stay within the
/// bound kNewtonDivMaxFixups documents.
template <typename Limb>
void expect_division_matches_gmp(const BigIntT<Limb>& a, const BigIntT<Limb>& b) {
  using Big = BigIntT<Limb>;
  test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gq, gr;
  mpz_tdiv_qr(gq.get(), gr.get(), ga.get(), gb.get());
  const Big want_q = test::from_mpz<Limb>(gq);
  const Big want_r = test::from_mpz<Limb>(gr);
  const auto [q, r] = Big::divmod(a, b);
  ASSERT_EQ(q, want_q);
  ASSERT_EQ(r, want_r);
  std::vector<Limb> qv(a.size() >= b.size() ? a.size() - b.size() + 1 : 1);
  std::vector<Limb> rv(b.size());
  const NewtonDivSizes sizes = divrem_newton(qv.data(), rv.data(), a.data(),
                                             a.size(), b.data(), b.size());
  ASSERT_EQ(Big::from_limbs({qv.data(), sizes.sizes.quotient}), want_q);
  ASSERT_EQ(Big::from_limbs({rv.data(), sizes.sizes.remainder}), want_r);
  ASSERT_LE(sizes.max_fixups, kNewtonDivMaxFixups);
}

TYPED_TEST(MpStressTest, NewtonDivisionStraddlesTheThreshold) {
  using Limb = TypeParam;
  constexpr std::size_t lb = limb_bits<Limb>;
  constexpr std::size_t T = kNewtonDivThreshold;
  Xoshiro256 rng(181);
  // Divisor and quotient each at T ± 2 limbs: both rungs of divrem_dispatch,
  // and the Newton rung itself on every shape. The top limbs carry a random
  // number of leading zero bits, so the normalizing shift varies.
  for (std::size_t nb = T - 2; nb <= T + 2; ++nb) {
    for (std::size_t qn = T - 2; qn <= T + 2; ++qn) {
      SCOPED_TRACE(::testing::Message() << "nb " << nb << " qn " << qn);
      const auto b = random_value<Limb>(rng, nb * lb - rng.below(lb));
      const auto a = random_value<Limb>(rng, (nb + qn - 1) * lb - rng.below(lb));
      expect_division_matches_gmp(a, b);
    }
  }
}

TYPED_TEST(MpStressTest, NewtonDivisionEdgeShapesMatchGmp) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  constexpr std::size_t T = kNewtonDivThreshold;
  Xoshiro256 rng(182);
  const std::size_t n = T + 3;
  const Big top_bit = Big(1) << (n * lb - 1);
  const Big ones_limb = (Big(1) << lb) - Big(1);
  const std::vector<Big> divisors = {
      top_bit,                                                  // 0x80…0, rest 0
      top_bit + random_value<Limb>(rng, (n - 1) * lb),          // top limb 0x80…0
      (Big(1) << (n * lb)) - Big(1),                            // all ones
      (ones_limb << ((n - 1) * lb)) + random_value<Limb>(rng, (n - 1) * lb),
      random_value<Limb>(rng, n * lb - 7),
  };
  for (const Big& b : divisors) {
    SCOPED_TRACE(b.bit_length());
    const Big q = random_value<Limb>(rng, (T + 5) * lb);
    expect_division_matches_gmp(q * b + (b - Big(1)), b);  // largest remainder
    expect_division_matches_gmp(q * b, b);                 // zero remainder
    expect_division_matches_gmp((Big(1) << (2 * n * lb)) - Big(1), b);
    expect_division_matches_gmp(random_value<Limb>(rng, 2 * n * lb), b);
  }
  // na ≫ 2·nb: many quotient blocks, each carrying the running remainder.
  const Big b = random_value<Limb>(rng, (T + 1) * lb - 3);
  expect_division_matches_gmp(random_value<Limb>(rng, (5 * (T + 1) + 3) * lb), b);
  const Big long_q = random_value<Limb>(rng, 4 * (T + 1) * lb);
  expect_division_matches_gmp(long_q * b + (b - Big(1)), b);
  // A divisor well above the threshold with a tiny quotient (Knuth D through
  // the dispatch; the Newton rung's one short block directly).
  const Big wide = random_value<Limb>(rng, 2 * T * lb);
  for (const std::size_t qbits : {std::size_t{1}, std::size_t{2}, lb + 1, 3 * lb, T / 2 * lb}) {
    SCOPED_TRACE(qbits);
    const Big q_small = random_value<Limb>(rng, qbits);
    expect_division_matches_gmp(q_small * wide + random_value<Limb>(rng, 2 * T * lb - 1),
                                wide);
  }
}

TYPED_TEST(MpStressTest, NewtonReciprocalMeetsItsBound) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  constexpr std::size_t T = kNewtonDivThreshold;
  Xoshiro256 rng(183);
  // a·X < β^{2n} ≤ a·(X + 2) for the seed size and one, two and three
  // Newton steps above it, on random, 0x80…0 and all-ones divisors; at
  // 4T ± 1 limbs the steps take a·X_h modulo 2^{64L} − 1 on each side of a
  // power of two.
  for (const std::size_t n : {T, T + 1, T + 2, 2 * T + 1, 3 * T + 5, 4 * T - 1, 4 * T,
                              4 * T + 1}) {
    const std::vector<Big> shapes = {
        random_value<Limb>(rng, n * lb),
        Big(1) << (n * lb - 1),
        (Big(1) << (n * lb)) - Big(1),
    };
    for (const Big& a : shapes) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " bits " << a.bit_length());
      const auto xl = reciprocal_newton(a.data(), n);
      ASSERT_LE(xl.size(), n + 1);
      const Big x = Big::from_limbs(xl);
      test::Mpz ga = test::to_mpz(a), gx = test::to_mpz(x), lo, hi, pow;
      mpz_mul(lo.get(), ga.get(), gx.get());
      mpz_add_ui(gx.get(), gx.get(), 2);
      mpz_mul(hi.get(), ga.get(), gx.get());
      mpz_ui_pow_ui(pow.get(), 2, 2 * n * lb);
      ASSERT_LT(mpz_cmp(lo.get(), pow.get()), 0);
      ASSERT_LE(mpz_cmp(pow.get(), hi.get()), 0);
    }
  }
}

TYPED_TEST(MpStressTest, SharedNewtonDivisorMatchesGmpAroundTwiceItsSize) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  constexpr std::size_t T = kNewtonDivThreshold;
  Xoshiro256 rng(184);
  // One prepared divisor divides dividends of 2n − 1, 2n and 2n + 1 limbs,
  // as the two divisions of a cofactor step do. A divisor whose top limb
  // has leading zeros makes the normalizing shift carry the longer
  // dividends into a further limb, and so a second, short block.
  for (const std::size_t n : {T, T + 1, 2 * T + 3}) {
    for (const std::size_t lead : {std::size_t{0}, lb / 2}) {
      const Big b = random_value<Limb>(rng, n * lb - lead);
      const NewtonDivisor<Limb> divisor(b.data(), b.size());
      for (const std::size_t na : {2 * n - 1, 2 * n, 2 * n + 1}) {
        for (const Big& a : {random_value<Limb>(rng, na * lb),
                             (Big(1) << (na * lb)) - Big(1)}) {
          SCOPED_TRACE(::testing::Message() << "n " << n << " lead " << lead
                                            << " na " << na);
          test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gq, gr;
          mpz_tdiv_qr(gq.get(), gr.get(), ga.get(), gb.get());
          std::vector<Limb> qv(a.size() - b.size() + 1), rv(b.size());
          const NewtonDivSizes sizes =
              divisor.divrem(qv.data(), rv.data(), a.data(), a.size());
          ASSERT_EQ(Big::from_limbs({qv.data(), sizes.sizes.quotient}),
                    test::from_mpz<Limb>(gq));
          ASSERT_EQ(Big::from_limbs({rv.data(), sizes.sizes.remainder}),
                    test::from_mpz<Limb>(gr));
          ASSERT_LE(sizes.max_fixups, kNewtonDivMaxFixups);
          // The remainder alone, as the batch tree asks for it.
          std::vector<Limb> r_only(b.size());
          const NewtonDivSizes rs =
              divisor.divrem(nullptr, r_only.data(), a.data(), a.size());
          ASSERT_EQ(Big::from_limbs({r_only.data(), rs.sizes.remainder}),
                    test::from_mpz<Limb>(gr));
        }
      }
    }
  }
}

TEST(MpDispatchTest, TransformPaysIsPricedPerLimbWidth) {
  // On 32-bit limbs Karatsuba is about twice as slow per word as on 64-bit
  // limbs, so the transform takes over at fewer words: at 512 and 1024
  // limbs (256 and 512 words) it is 1.9× and 2.9× ahead, and the 64-bit
  // price keeps 256 words on Karatsuba. At 384 limbs (192 words, below
  // kNttThreshold) Karatsuba stays.
  EXPECT_FALSE(ntt_detail::transform_pays<std::uint32_t>(384, 384));
  EXPECT_TRUE(ntt_detail::transform_pays<std::uint32_t>(512, 512));
  EXPECT_TRUE(ntt_detail::transform_pays<std::uint32_t>(1024, 1024));
  // 64-bit limbs at the same word counts keep Karatsuba.
  EXPECT_FALSE(ntt_detail::transform_pays<std::uint64_t>(256, 256));
  EXPECT_FALSE(ntt_detail::transform_pays<std::uint64_t>(384, 384));
}

/// a·b modulo 2^{64L} − 1 through a held transform of b at length L = 2^lg,
/// against GMP; a and b go in as the 64-bit words of Limb-wide values.
template <typename Limb>
void expect_cyclic_matches_gmp(const BigIntT<Limb>& a, const BigIntT<Limb>& b, int lg) {
  const std::size_t L = std::size_t{1} << lg;
  const ntt_detail::Words<Limb> aw(a.data(), a.size()), bw(b.data(), b.size());
  if (bw.size() == 0) return;
  const ntt_detail::HeldTransform held(bw.data(), bw.size(), lg);
  const ntt_detail::TransformBuffer scratch(held.scratch_words());
  const ntt_detail::u64* r = held.multiply_cyclic(aw.data(), aw.size(), scratch.data());
  for (std::size_t i = L; i < held.row_words(); ++i) ASSERT_EQ(r[i], 0u);
  test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gm, gp, got;
  mpz_ui_pow_ui(gm.get(), 2, 64 * L);
  mpz_sub_ui(gm.get(), gm.get(), 1);
  mpz_mul(gp.get(), ga.get(), gb.get());
  mpz_mod(gp.get(), gp.get(), gm.get());
  mpz_import(got.get(), L, -1, sizeof(ntt_detail::u64), 0, 0, r);
  mpz_mod(got.get(), got.get(), gm.get());  // 0 may come out as 2^{64L} − 1
  ASSERT_EQ(mpz_cmp(got.get(), gp.get()), 0);
}

TYPED_TEST(MpStressTest, CyclicProductMatchesGmpModuloMersenne) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  Xoshiro256 rng(185);
  const auto words = [](std::size_t w) { return limbs_in_words<Limb>(w) * lb; };
  for (const int lg : {4, 9, 12}) {
    const std::size_t L = std::size_t{1} << lg;
    SCOPED_TRACE(::testing::Message() << "L " << L);
    const Big ones = (Big(1) << words(L)) - Big(1);  // ≡ 0
    // b of L − 1 (L = n + 1), L, and a few words past L (held folded).
    for (const std::size_t nb : {L - 1, L, L + 1, L + 7}) {
      SCOPED_TRACE(::testing::Message() << "nb " << nb);
      const Big b = random_value<Limb>(rng, words(nb));
      expect_cyclic_matches_gmp(random_value<Limb>(rng, words(L / 2)), b, lg);
      expect_cyclic_matches_gmp(random_value<Limb>(rng, words(L)), b, lg);
      expect_cyclic_matches_gmp(random_value<Limb>(rng, words(L + 3)), b, lg);
      expect_cyclic_matches_gmp(ones, b, lg);                        // ≡ 0
      expect_cyclic_matches_gmp(ones * Big(5), b, lg);               // ≡ 0, longer
      expect_cyclic_matches_gmp(Big(0), b, lg);
      expect_cyclic_matches_gmp((Big(1) << words(nb)) - Big(1),     // all ones
                                (Big(1) << words(nb)) - Big(1), lg);
    }
  }
}

TEST(MpDispatchTest, FromResiduesRecoversTheValue) {
  using ntt_detail::u64;
  Xoshiro256 rng(188);
  // v from v mod (2^{64L} − 1) and v mod 2^{64w}, for v up to the bound
  // (max_top + 1)·2^{64(w−1)}·(2^{64L} − 1), zero given as either
  // representative, and a value past the bound refused.
  for (const std::size_t L : {std::size_t{4}, std::size_t{64}}) {
    for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE(::testing::Message() << "L " << L << " w " << w);
      test::Mpz m, bound, low_mod;
      mpz_ui_pow_ui(m.get(), 2, 64 * L);
      mpz_sub_ui(m.get(), m.get(), 1);
      mpz_ui_pow_ui(low_mod.get(), 2, 64 * w);
      mpz_ui_pow_ui(bound.get(), 2, 64 * (w - 1));
      mpz_mul_ui(bound.get(), bound.get(), 6);
      mpz_mul(bound.get(), bound.get(), m.get());  // 6·2^{64(w−1)}·M
      const auto check = [&](const test::Mpz& v, bool zero_as_ones, bool in_range) {
        std::vector<u64> buf(L + w, 0), low(w, 0);
        test::Mpz r, l;
        mpz_mod(r.get(), v.get(), m.get());
        mpz_export(buf.data(), nullptr, -1, sizeof(u64), 0, 0, r.get());
        if (zero_as_ones && mpz_sgn(r.get()) == 0) std::fill_n(buf.begin(), L, ~u64{0});
        mpz_mod(l.get(), v.get(), low_mod.get());
        mpz_export(low.data(), nullptr, -1, sizeof(u64), 0, 0, l.get());
        const auto n = ntt_detail::from_residues(buf.data(), L, low.data(), w, 5);
        ASSERT_EQ(n.has_value(), in_range);
        if (!in_range) return;
        test::Mpz got;
        mpz_import(got.get(), *n, -1, sizeof(u64), 0, 0, buf.data());
        ASSERT_EQ(mpz_cmp(got.get(), v.get()), 0);
      };
      test::Mpz v;
      for (const bool ones : {false, true}) {
        mpz_set_ui(v.get(), 0);
        check(v, ones, true);
        mpz_set(v.get(), m.get());  // ≡ 0, j = 1
        check(v, ones, true);
        mpz_mul_ui(v.get(), m.get(), 5);
        check(v, ones, true);
      }
      for (int trial = 0; trial < 50; ++trial) {
        test::Mpz t = test::to_mpz(random_value<std::uint64_t>(rng, 64 * (L + w) - 3));
        mpz_mod(v.get(), t.get(), bound.get());
        check(v, false, true);
      }
      mpz_mul_ui(v.get(), m.get(), 7);  // j = 7·2^{64(w−1)}… > 5 in its top word
      if (w == 1) check(v, false, false);
    }
  }
}

/// One NewtonDivisor (holding its transforms) divides every dividend of
/// `dividends`; q and r match GMP and no block takes more than
/// kNewtonDivMaxFixups fix-ups.
template <typename Limb>
void expect_held_division_matches_gmp(const NewtonDivisor<Limb>& divisor,
                                      const BigIntT<Limb>& b,
                                      const std::vector<BigIntT<Limb>>& dividends) {
  using Big = BigIntT<Limb>;
  for (const Big& a : dividends) {
    SCOPED_TRACE(::testing::Message() << "dividend bits " << a.bit_length());
    test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gq, gr;
    mpz_tdiv_qr(gq.get(), gr.get(), ga.get(), gb.get());
    std::vector<Limb> qv(a.size() >= b.size() ? a.size() - b.size() + 1 : 1), rv(b.size());
    const NewtonDivSizes sizes = divisor.divrem(qv.data(), rv.data(), a.data(), a.size());
    ASSERT_EQ(Big::from_limbs({qv.data(), sizes.sizes.quotient}), test::from_mpz<Limb>(gq));
    ASSERT_EQ(Big::from_limbs({rv.data(), sizes.sizes.remainder}), test::from_mpz<Limb>(gr));
    ASSERT_LE(sizes.max_fixups, kNewtonDivMaxFixups);
  }
}

TYPED_TEST(MpStressTest, HeldTransformDivisorMatchesGmpAroundPowersOfTwo) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  Xoshiro256 rng(186);
  // Divisors of 2^k − 1, 2^k and 2^k + 1 words: Q·b is taken modulo
  // 2^{64L} − 1 at L = n + 1, at L = n (one word settles the multiple of
  // 2^{64L} − 1) and at L = n − 1 (two words settle it). One divisor serves
  // dividends of 2n − 1, 2n and 2n + 1 limbs.
  for (int k = 9; k <= 13; ++k) {
    const std::size_t pow = std::size_t{1} << k;
    for (const std::size_t nw : {pow - 1, pow, pow + 1}) {
      const std::size_t n = limbs_in_words<Limb>(nw);
      SCOPED_TRACE(::testing::Message() << "divisor words " << nw);
      const Big b = random_value<Limb>(rng, n * lb - rng.below(lb));
      NewtonDivisor<Limb> divisor(b.data(), b.size());
      ASSERT_TRUE(divisor.holds_transforms());
      std::vector<Big> dividends;
      for (const std::size_t na : {2 * n - 1, 2 * n, 2 * n + 1}) {
        dividends.push_back(random_value<Limb>(rng, na * lb));
      }
      dividends.push_back((Big(1) << (2 * n * lb)) - Big(1));
      expect_held_division_matches_gmp(divisor, b, dividends);
    }
  }
}

TYPED_TEST(MpStressTest, HeldTransformDivisorOnTheFixupBoundary) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  constexpr std::size_t lb = limb_bits<Limb>;
  Xoshiro256 rng(187);
  // (Q + 1)·b − 1 leaves the largest remainder, b − 1, in every block's
  // worst case, and Q·b leaves none; 0x80…0 and all-ones divisors put the
  // estimate's error at its extremes. Blocks of n limbs take the full
  // reciprocal (p = n), whose estimate is never high and often exact, so
  // an exact multiple leaves c − Q·b = 0: a residue that the cyclic
  // product can return as 2^{64L} − 1.
  for (const std::size_t nw : {std::size_t{512}, std::size_t{1024}, std::size_t{1025}}) {
    const std::size_t n = limbs_in_words<Limb>(nw);
    SCOPED_TRACE(::testing::Message() << "divisor words " << nw);
    for (const Big& b : {random_value<Limb>(rng, n * lb), Big(1) << (n * lb - 1),
                         (Big(1) << (n * lb)) - Big(1)}) {
      const NewtonDivisor<Limb> divisor(b.data(), b.size());
      const NewtonDivisor<Limb> one_block(b.data(), b.size(), n);
      ASSERT_TRUE(divisor.holds_transforms());
      ASSERT_TRUE(one_block.holds_transforms());
      std::vector<Big> dividends;
      for (const std::size_t qn : {n - 1, n, n + 1}) {
        const Big q = random_value<Limb>(rng, qn * lb);
        dividends.push_back((q + Big(1)) * b - Big(1));
        dividends.push_back(q * b);
        dividends.push_back((Big(1) << (qn * lb)) * b - Big(1));  // Q all ones
      }
      expect_held_division_matches_gmp(divisor, b, dividends);
      expect_held_division_matches_gmp(one_block, b, dividends);
    }
  }
}

using ntt_detail::u64;

/// GMP's value of 64-bit words, least significant first.
test::Mpz words_to_mpz(const u64* w, std::size_t n) {
  test::Mpz out;
  mpz_import(out.get(), n, -1, sizeof(u64), 0, 0, w);
  return out;
}

std::vector<u64> random_words(Xoshiro256& rng, std::size_t n) {
  std::vector<u64> w(n);
  for (auto& x : w) x = rng();
  w.back() |= u64{1} << 63;
  return w;
}

/// mul_words, square_words, HeldTransform::multiply and multiply_cyclic at
/// transform lengths 2^lg, each against GMP.
void expect_word_products_match_gmp(int lg, Xoshiro256& rng) {
  const std::size_t L = std::size_t{1} << lg;
  SCOPED_TRACE(::testing::Message() << "L " << L);
  const auto product = [](const std::vector<u64>& a, const std::vector<u64>& b) {
    test::Mpz p;
    mpz_mul(p.get(), words_to_mpz(a.data(), a.size()).get(),
            words_to_mpz(b.data(), b.size()).get());
    return p;
  };
  // One chunk of L points (a balanced product just under L words), and a
  // 4:1 product that the plan cuts into chunks against b held at L.
  for (const auto& [na, nb] : {std::pair{L / 2, L / 2}, std::pair{2 * L, L / 2}}) {
    const auto a = random_words(rng, na), b = random_words(rng, nb);
    std::vector<u64> dst(na + nb);
    ntt_detail::mul_words(dst.data(), a.data(), na, b.data(), nb);
    ASSERT_EQ(words_to_mpz(dst.data(), dst.size()), product(a, b)) << na << " x " << nb;
  }
  {
    const auto a = random_words(rng, L / 2);
    std::vector<u64> dst(L);
    ntt_detail::square_words(dst.data(), a.data(), a.size());
    ASSERT_EQ(words_to_mpz(dst.data(), dst.size()), product(a, a));
  }
  const auto b = random_words(rng, L / 2);
  const ntt_detail::HeldTransform held(b.data(), b.size(), lg);
  ASSERT_EQ(held.length(), L);
  const ntt_detail::TransformBuffer scratch(held.scratch_words());
  {
    const auto a = random_words(rng, L / 2 + ntt_detail::kMaxWrap);
    const u64* r = held.multiply(a.data(), a.size(), scratch.data());
    ASSERT_EQ(words_to_mpz(r, a.size() + b.size()), product(a, b));
  }
  {
    const auto a = random_words(rng, L + 5);
    const u64* r = held.multiply_cyclic(a.data(), a.size(), scratch.data());
    test::Mpz m, want = product(a, b), got = words_to_mpz(r, L);
    mpz_ui_pow_ui(m.get(), 2, 64 * L);
    mpz_sub_ui(m.get(), m.get(), 1);
    mpz_mod(want.get(), want.get(), m.get());
    mpz_mod(got.get(), got.get(), m.get());  // 0 may come out as 2^{64L} − 1
    ASSERT_EQ(got, want);
  }
}

TEST(MpSplitTransformTest, ProductsAroundTheSplitLengthMatchGmpOnAnyThread) {
  // Transforms of kSplitLength points or more run one prime per pool piece,
  // shorter ones in turn: just below, at and above that length the
  // products must be the same whether called from this thread (the pool's
  // workers help) or from inside a pool worker (a nested call), where idle
  // workers help too.
  constexpr int kSplitLg = std::countr_zero(ntt_detail::kSplitLength);
  Xoshiro256 rng(188);
  for (const int lg : {kSplitLg - 1, kSplitLg, kSplitLg + 1}) {
    expect_word_products_match_gmp(lg, rng);
    Xoshiro256 worker_rng = rng.split();
    global_pool().submit([&] {
      ASSERT_TRUE(global_pool().inside_pool());
      expect_word_products_match_gmp(lg, worker_rng);
    }).get();
  }
}

TYPED_TEST(MpStressTest, BitLengthAndTrailingZerosConsistency) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(177);
  for (int trial = 0; trial < 150; ++trial) {
    const Big a = adversarial<Limb>(rng);
    if (a.is_zero()) continue;
    const std::size_t bl = a.bit_length();
    ASSERT_TRUE(a.bit(bl - 1));
    ASSERT_FALSE(a.bit(bl));
    ASSERT_GE(Big(1) << bl, a);
    ASSERT_LE(Big(1) << (bl - 1), a);
    const std::size_t tz = a.trailing_zero_bits();
    ASSERT_TRUE(a.bit(tz));
    if (tz > 0) ASSERT_FALSE(a.bit(tz - 1));
    Big stripped = a;
    stripped.strip_trailing_zeros();
    ASSERT_EQ(stripped << tz, a);
    ASSERT_TRUE(stripped.is_odd());
  }
}

}  // namespace
}  // namespace bulkgcd::mp
