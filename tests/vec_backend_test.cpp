// The SIMD warp engine (bulk/vec/) pinned three ways:
//  1. bit-identity against SimtBatch::run_staged — GCD limbs, early-coprime
//     verdicts, per-lane iteration counts, AND the full reconstructed
//     SimtStats must match exactly, for every compiled-in ISA leg, on W = 8
//     and W = 16 lane groups including masked tails;
//  2. GMP oracle on the values themselves;
//  3. dispatch: cpuid probe, explicit-ISA construction, Engine::kAuto
//     resolution, and end-to-end all_pairs_gcd / probe_incremental
//     equivalence between the vector and staged engines;
//  4. the Divsteps leg's Section-V verdicts against Approximate Euclidean's
//     and GMP's on every corpus shape, and its two edge cases (a lane done
//     mid-pass, a corrupt lane at its pass bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bulk/allpairs.hpp"
#include "bulk/build_info.hpp"
#include "bulk/layout.hpp"
#include "bulk/staged_corpus.hpp"
#include "bulk/simt.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "gmp_oracle.hpp"

namespace bulkgcd {
namespace {

using bulk::Engine;
using bulk::ScanLimb;
using bulk::VecIsa;
using gcd::Variant;
using mp::BigInt;
using test::gmp_gcd;
using test::random_odd;
using test::random_value;

constexpr Variant kBulkVariants[] = {Variant::kBinary, Variant::kFastBinary,
                                     Variant::kApproximate, Variant::kDivsteps};

/// Every leg the vector engine can be compiled as.
constexpr VecIsa kLegs[] = {VecIsa::kPortable, VecIsa::kAvx2,
                            VecIsa::kAvx512};

/// The legs this binary carries AND this CPU runs.
std::vector<VecIsa> available_isas() {
  std::vector<VecIsa> isas;
  for (const VecIsa isa : kLegs) {
    if (bulk::vec_isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Lanes per register of each leg: 256 bits of u32 limbs, 512 for AVX-512.
std::size_t leg_width(VecIsa isa) {
  return isa == VecIsa::kAvx512 ? 16 : 8;
}

/// One lane of a bit-identity input: the pair, its early-termination
/// threshold, whether the lane is disabled after loading, and whether its
/// planted common factor is long enough that the lane must report it.
struct LaneInput {
  BigInt x, y;
  std::size_t early = 0;
  bool disabled = false;
  bool must_find = false;
};

/// Load the same lanes into a staged SimtBatch and a vector batch of every
/// available ISA; everything observable must agree.
void expect_bit_identity(const std::vector<LaneInput>& in,
                         std::uint64_t seed) {
  const std::size_t lanes = in.size();
  std::size_t cap = 0;
  for (const auto& lane : in) {
    cap = std::max({cap, lane.x.size(), lane.y.size()});
  }

  for (const Variant variant : kBulkVariants) {
    bulk::SimtBatch<ScanLimb> ref(lanes, cap, 32);
    for (std::size_t i = 0; i < lanes; ++i) {
      ref.load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
      if (in[i].disabled) ref.disable(i);
    }
    ref.run_staged(variant);

    for (const VecIsa isa : available_isas()) {
      auto vec = bulk::make_vec_batch(lanes, cap, 32, isa);
      ASSERT_EQ(vec->isa(), isa);
      ASSERT_EQ(vec->vector_width(), leg_width(isa));
      for (std::size_t i = 0; i < lanes; ++i) {
        vec->load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
        if (in[i].disabled) vec->disable(i);
      }
      vec->run(variant);

      ASSERT_EQ(vec->stats(), ref.stats())
          << to_string(variant) << " isa=" << to_string(isa)
          << " lanes=" << lanes << " seed=" << seed;
      for (std::size_t i = 0; i < lanes; ++i) {
        ASSERT_EQ(vec->lane_iterations(i), ref.lane_iterations(i))
            << to_string(variant) << " isa=" << to_string(isa) << " lane "
            << i;
        if (in[i].disabled) continue;
        ASSERT_EQ(vec->early_coprime(i), ref.early_coprime(i))
            << to_string(variant) << " isa=" << to_string(isa) << " lane "
            << i;
        if (in[i].must_find) {
          ASSERT_FALSE(vec->early_coprime(i))
              << to_string(variant) << " isa=" << to_string(isa) << " lane "
              << i;
        }
        if (!vec->early_coprime(i)) {
          ASSERT_EQ(vec->gcd_of(i), ref.gcd_of(i))
              << to_string(variant) << " isa=" << to_string(isa) << " lane "
              << i;
          ASSERT_EQ(vec->gcd_of(i), gmp_gcd(in[i].x, in[i].y))
              << to_string(variant) << " isa=" << to_string(isa) << " lane "
              << i;
        }
      }
    }
  }
}

/// Random mixed-size pairs of 1..700 bits; early = min/2 when terminating.
void expect_bit_identity(std::uint64_t seed, std::size_t lanes,
                         bool early_terminate) {
  Xoshiro256 rng(seed);
  std::vector<LaneInput> in;
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::size_t bx = 1 + rng.below(700);
    const std::size_t by = 1 + rng.below(700);
    in.push_back({random_odd<ScanLimb>(rng, bx), random_odd<ScanLimb>(rng, by),
                  early_terminate ? std::min(bx, by) / 2 : 0});
  }
  expect_bit_identity(in, seed);
}

/// `lanes` lanes in the Section-V regime, the vector-resident round's input
/// (8 is one W = 8 group, 16 one W = 16 group): both operands >= 6 limbs
/// with early = min/2 >= 3 limbs, and x at least two limbs longer than y,
/// so the first rounds take the β > 0 escape and patch the branch trace.
std::vector<LaneInput> section_v_group(Xoshiro256& rng,
                                       std::size_t lanes = 8) {
  constexpr std::size_t lb = mp::limb_bits<ScanLimb>;
  std::vector<LaneInput> in;
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t by = 6 * lb + rng.below(400);
    const std::size_t bx = by + 2 * lb + rng.below(200);
    in.push_back({random_odd<ScanLimb>(rng, bx), random_odd<ScanLimb>(rng, by),
                  by / 2});
  }
  return in;
}

class VecBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VecBitIdentity, MatchesStagedScalar32) {
  // 37 lanes: 4 full W = 8 groups + a 5-lane masked tail.
  expect_bit_identity(GetParam(), 37, false);
}

void expect_section_v_identity(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  // A full Section-V group: the vector-resident round.
  expect_bit_identity(section_v_group(rng), seed);
  // The same shape with one non-Section-V lane (early < 3 limbs) and one
  // disabled lane: the group takes the scalar lane path instead.
  auto mixed = section_v_group(rng);
  mixed[1] = {random_odd<ScanLimb>(rng, 100 + rng.below(60)),
              random_odd<ScanLimb>(rng, 100 + rng.below(60)), 50};
  mixed.back().disabled = true;
  expect_bit_identity(mixed, seed);
  // A lane with x ≡ y mod 2^(2d) beside longer lanes: its first difference
  // has a zero low limb (the d0 = 0 escape), and the limb-shifting strip
  // leaves stale limbs above its new size that the group sweep then covers.
  auto zero_low = section_v_group(rng);
  const auto y = random_odd<ScanLimb>(rng, 400);
  const auto high = random_value<ScanLimb>(rng, 300)
                    << (2 * mp::limb_bits<ScanLimb>);
  zero_low[0] = {y + high, y, 200};
  expect_bit_identity(zero_low, seed);
}

TEST_P(VecBitIdentity, MatchesStagedScalarWithEarlyTerminate) {
  expect_bit_identity(GetParam() ^ 0xabcdef, 8 + 3, true);
  expect_section_v_identity(GetParam() ^ 0x5ec5);
}

/// A prime of exactly `bits` bits with its top two bits set, so a product
/// of two has exactly their summed bits (GMP's nextprime: fast enough to
/// plant dozens per test).
BigInt planted_prime(Xoshiro256& rng, std::size_t bits) {
  const BigInt start =
      random_value<ScanLimb>(rng, bits - 1) + (BigInt(1) << (bits - 1));
  test::Mpz p = test::to_mpz(start);
  mpz_nextprime(p.get(), p.get());
  return test::from_mpz<ScanLimb>(p);
}

/// Shapes sized for W = 16: the AVX-512 leg's resident round takes each
/// full 16-lane group, the W = 8 legs split the same lanes into two groups.
void expect_wide_group_identity(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  // 24 lanes: one full W = 16 group plus an 8-lane tail the AVX-512 leg
  // runs lane by lane (three full groups on the W = 8 legs).
  expect_bit_identity(section_v_group(rng, 24), seed);

  // One 16-lane group with disabled lanes at both ends and in the middle:
  // still resident, the disabled lanes masked off from the first round.
  auto holes = section_v_group(rng, 16);
  for (const std::size_t l : {0u, 7u, 8u, 15u}) holes[l].disabled = true;
  expect_bit_identity(holes, seed);

  // One group of 512-bit and 1024-bit lanes, early = min(bits)/2. Most
  // lanes share a planted unbalanced prime: above the threshold the lane
  // must report it, below it the Section-V verdict is "coprime".
  std::vector<LaneInput> mixed;
  for (std::size_t l = 0; l < 16; ++l) {
    const std::size_t bx = l % 2 ? 1024 : 512;
    const std::size_t by = l % 4 < 2 ? 1024 : 512;
    const std::size_t early = std::min(bx, by) / 2;
    if (l % 4 == 3) {  // coprime with overwhelming probability
      mixed.push_back({random_odd<ScanLimb>(rng, bx),
                       random_odd<ScanLimb>(rng, by), early});
      continue;
    }
    // The shared prime sits well above (l % 4 < 2) or below (l % 4 == 2)
    // the early-termination threshold; the cofactors fill the rest.
    const std::size_t pbits = l % 4 == 2 ? early - 64 : early + 96;
    const BigInt p = planted_prime(rng, pbits);
    const BigInt x = p * planted_prime(rng, bx - pbits);
    const BigInt y = p * planted_prime(rng, by - pbits);
    mixed.push_back({x, y, early, false, l % 4 < 2});
  }
  expect_bit_identity(mixed, seed);
}

TEST_P(VecBitIdentity, MatchesStagedOnWideGroups) {
  expect_wide_group_identity(GetParam() ^ 0x16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VecBitIdentity,
                         ::testing::Values(7u, 19u, 101u, 4242u));

/// Each leg by name, skipped where this binary or CPU lacks it: the leg
/// builds at its own width and runs a full resident group of its width.
class VecLeg : public ::testing::TestWithParam<VecIsa> {};

TEST_P(VecLeg, RunsAtItsWidth) {
  const VecIsa isa = GetParam();
  if (!bulk::vec_isa_available(isa)) {
    GTEST_SKIP() << to_string(isa) << " leg unavailable on this machine";
  }
  Xoshiro256 rng(0x1e9 + leg_width(isa));
  const auto in = section_v_group(rng, leg_width(isa));
  bulk::SimtBatch<ScanLimb> ref(in.size(), 40, 32);
  auto vec = bulk::make_vec_batch(in.size(), 40, 32, isa);
  EXPECT_EQ(vec->isa(), isa);
  EXPECT_EQ(vec->vector_width(), leg_width(isa));
  for (std::size_t i = 0; i < in.size(); ++i) {
    ref.load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
    vec->load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
  }
  ref.run_staged(Variant::kApproximate);
  vec->run(Variant::kApproximate);
  EXPECT_EQ(vec->stats(), ref.stats());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(vec->lane_iterations(i), ref.lane_iterations(i)) << i;
  }
}

TEST_P(VecLeg, CorruptLaneStopsAtItsRoundBound) {
  // A lane whose Y claims n limbs but holds zeros makes no progress: each
  // round subtracts nothing from X, and X stays the larger operand. The
  // resident round must give up with an error once a lane has run more
  // rounds than its operands have bits, not spin.
  const VecIsa isa = GetParam();
  if (!bulk::vec_isa_available(isa)) {
    GTEST_SKIP() << to_string(isa) << " leg unavailable on this machine";
  }
  constexpr std::size_t n = 8;
  constexpr std::size_t lb = mp::limb_bits<ScanLimb>;
  const std::size_t w = leg_width(isa);
  Xoshiro256 rng(0xb0d + w);
  const auto y = random_odd<ScanLimb>(rng, n * lb);
  ASSERT_EQ(y.size(), n);
  const std::vector<ScanLimb> zeros(n * w, 0);
  const std::vector<std::size_t> sizes(w, n);
  auto vec = bulk::make_vec_batch(w, n, 32, isa);
  vec->load_panel(zeros, sizes, n);
  vec->broadcast_y(y.limbs());
  for (std::size_t k = 0; k < w; ++k) vec->reset_lane_state(k, 3 * lb);
  EXPECT_THROW(vec->run(Variant::kApproximate), std::logic_error);
}

TEST_P(VecLeg, CorruptDivstepsLaneStopsAtItsPassBound) {
  // Lanes that claim one limb but carry a second, nonzero one above it: the
  // pass bound written for 32-bit operands is ⌈⌊(49·32 + 80)/17⌋ / 30⌉ = 4
  // passes, and 64-bit operands usually need more. The resident pass, and
  // the staged engine's scalar kernel on the same rows, must stop with an
  // error at the bound, not run on.
  const VecIsa isa = GetParam();
  if (!bulk::vec_isa_available(isa)) {
    GTEST_SKIP() << to_string(isa) << " leg unavailable on this machine";
  }
  const std::size_t w = leg_width(isa);
  ASSERT_EQ(gcd::divsteps_pass_bound(mp::limb_bits<ScanLimb>), 4u);
  Xoshiro256 rng(0xd5 + w);
  std::vector<ScanLimb> panel(2 * w);
  for (std::size_t k = 0; k < w; ++k) {
    panel[k] = ScanLimb(rng()) | 1u;          // row 0: odd
    panel[w + k] = ScanLimb(rng()) | 0x100u;  // row 1: above the claim
  }
  const std::vector<std::size_t> sizes(w, 1);
  const auto y = random_odd<ScanLimb>(rng, mp::limb_bits<ScanLimb>);
  auto vec = bulk::make_vec_batch(w, 1, 32, isa);
  bulk::SimtBatch<ScanLimb> ref(w, 1, 32);
  vec->load_panel(panel, sizes, 2);
  ref.load_panel(panel, sizes, 2);
  vec->broadcast_y(y.limbs());
  ref.broadcast_y(y.limbs());
  for (std::size_t k = 0; k < w; ++k) {
    vec->reset_lane_state(k, 1);
    ref.reset_lane_state(k, 1);
  }
  EXPECT_THROW(vec->run(Variant::kDivsteps), std::logic_error);
  EXPECT_THROW(ref.run_staged(Variant::kDivsteps), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Legs, VecLeg, ::testing::ValuesIn(kLegs),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- the Divsteps leg against Approximate Euclidean and GMP --------------

/// x = p·a and y = p·b: two `bits`-bit moduli sharing a planted prime of
/// `pbits` bits.
std::pair<BigInt, BigInt> shared_pair(Xoshiro256& rng, std::size_t pbits,
                                      std::size_t xbits, std::size_t ybits) {
  const BigInt p = planted_prime(rng, pbits);
  return {p * planted_prime(rng, xbits - pbits),
          p * planted_prime(rng, ybits - pbits)};
}

/// One lane of every shape the default leg must agree with (E) on, cycled
/// over `lanes`, each with early = min(bits)/2 (Section V): planted 512-bit
/// primes, an unbalanced 400-bit one under 1024-bit moduli (a miss), small
/// common factors 3 and 2^20 + 7 (misses), a duplicate modulus, mixed
/// 512/1024/2048-bit pairs sharing a prime above their threshold, and the
/// all-ones and 0x80…01 operands.
std::vector<LaneInput> verdict_lanes(Xoshiro256& rng, std::size_t lanes) {
  const BigInt ones = (BigInt(1) << 1024) - BigInt(1);
  const BigInt edge = (BigInt(1) << 1023) + BigInt(1);
  std::vector<LaneInput> in;
  for (std::size_t l = 0; l < lanes; ++l) {
    BigInt x, y;
    switch (l % 10) {
      case 0: std::tie(x, y) = shared_pair(rng, 512, 1024, 1024); break;
      case 1: std::tie(x, y) = shared_pair(rng, 400, 1024, 1024); break;
      case 2:
      case 3: {
        const BigInt small = l % 10 == 2 ? BigInt(3) : BigInt((1u << 20) + 7);
        const std::size_t sb = small.bit_length();
        x = small * random_odd<ScanLimb>(rng, 1024 - sb);
        y = small * random_odd<ScanLimb>(rng, 1024 - sb);
        break;
      }
      case 4: x = y = planted_prime(rng, 512) * planted_prime(rng, 512); break;
      case 5: std::tie(x, y) = shared_pair(rng, 300, 512, 1024); break;
      case 6: std::tie(x, y) = shared_pair(rng, 1100, 2048, 2048); break;
      case 7: std::tie(x, y) = shared_pair(rng, 300, 2048, 512); break;
      case 8:
        x = l % 20 == 8 ? ones : edge;
        y = l % 20 == 8 ? edge : ones;
        break;
      default: x = y = l % 20 == 9 ? ones : edge; break;
    }
    const std::size_t early = std::min(x.bit_length(), y.bit_length()) / 2;
    const BigInt g = gmp_gcd(x, y);
    in.push_back({x, y, early, false, g.bit_length() >= early});
  }
  return in;
}

/// Divsteps and Approximate Euclidean reach the same Section-V verdict on
/// every lane — a hit exactly when bitlen(gcd) >= early, with the GMP gcd —
/// on the staged engine and on every vector leg; and every engine is
/// bit-identical to the staged one within each variant.
void expect_same_verdicts(const std::vector<LaneInput>& in,
                          std::uint64_t seed) {
  std::size_t cap = 0;
  for (const auto& lane : in) {
    cap = std::max({cap, lane.x.size(), lane.y.size()});
  }
  for (const Variant variant : {Variant::kApproximate, Variant::kDivsteps}) {
    bulk::SimtBatch<ScanLimb> ref(in.size(), cap, 32);
    std::vector<std::unique_ptr<bulk::VecBatchBase>> legs;
    for (const VecIsa isa : available_isas()) {
      legs.push_back(bulk::make_vec_batch(in.size(), cap, 32, isa));
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      ref.load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
      for (auto& leg : legs) {
        leg->load(i, in[i].x.limbs(), in[i].y.limbs(), in[i].early);
      }
    }
    ref.run_staged(variant);
    for (auto& leg : legs) leg->run(variant);
    for (std::size_t i = 0; i < in.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << to_string(variant) << " lane " << i
                                        << " seed " << seed);
      ASSERT_EQ(!ref.early_coprime(i), in[i].must_find);
      if (in[i].must_find) {
        ASSERT_EQ(ref.gcd_of(i), gmp_gcd(in[i].x, in[i].y));
      }
      for (auto& leg : legs) {
        ASSERT_EQ(leg->early_coprime(i), ref.early_coprime(i))
            << to_string(leg->isa());
        ASSERT_EQ(leg->lane_iterations(i), ref.lane_iterations(i));
        if (in[i].must_find) ASSERT_EQ(leg->gcd_of(i), ref.gcd_of(i));
      }
    }
    for (auto& leg : legs) {
      ASSERT_EQ(leg->stats(), ref.stats()) << to_string(variant) << " "
                                           << to_string(leg->isa());
    }
  }
}

TEST(VecDivsteps, VerdictsMatchApproximateAndGmp) {
  Xoshiro256 rng(0xd1f5);
  // 32 lanes: full W = 8 and W = 16 groups on the resident pass.
  const auto full = verdict_lanes(rng, 32);
  // Planted, duplicate and mixed-size shares are hits; the unbalanced
  // 400-bit prime and the small factors are not.
  for (const std::size_t l : {0u, 4u, 5u, 6u, 7u}) {
    EXPECT_TRUE(full[l].must_find) << l;
  }
  for (const std::size_t l : {1u, 2u, 3u}) EXPECT_FALSE(full[l].must_find) << l;
  expect_same_verdicts(full, 0xd1f5);
  // 37 lanes: the same shapes with a masked tail on the scalar kernel.
  const auto tail = verdict_lanes(rng, 37);
  expect_same_verdicts(tail, 0xd1f6);
  // The bit-identity harness: GMP gcds, every variant, both shapes.
  expect_bit_identity(full, 0xd1f5);
}

TEST(VecDivsteps, LaneReachingZeroMidPassStaysFixed) {
  // 3p and 5p take the divsteps of 3 and 5 scaled by p, so g reaches 0
  // after six steps of the first pass. That lane stops after one pass,
  // holding gcd = p through the passes its group still runs for the other
  // lanes (the identity matrix keeps its limbs).
  Xoshiro256 rng(0x2e0);
  for (const VecIsa isa : available_isas()) {
    const std::size_t w = leg_width(isa);
    std::vector<LaneInput> in;
    for (std::size_t l = 0; l < w; ++l) {
      in.push_back({random_odd<ScanLimb>(rng, 1024),
                    random_odd<ScanLimb>(rng, 1024), 512});
    }
    const BigInt p = random_odd<ScanLimb>(rng, 900);
    in[3] = {p * BigInt(3), p * BigInt(5), 451, false, true};
    auto vec = bulk::make_vec_batch(w, 40, 32, isa);
    for (std::size_t l = 0; l < w; ++l) {
      vec->load(l, in[l].x.limbs(), in[l].y.limbs(), in[l].early);
    }
    vec->run(Variant::kDivsteps);
    EXPECT_EQ(vec->lane_iterations(3), 1u) << to_string(isa);
    ASSERT_FALSE(vec->early_coprime(3)) << to_string(isa);
    EXPECT_EQ(vec->gcd_of(3), p) << to_string(isa);
    for (std::size_t l = 0; l < w; ++l) {
      if (l != 3) EXPECT_GT(vec->lane_iterations(l), 30u) << l;
    }
    expect_bit_identity(in, 0x2e0 + w);
  }
}

/// Drive both engines through the exact BlockSweeper verb sequence:
/// load_panel + broadcast_y + reset_lane_state + disable, then run.
/// r lanes per batch: 8 fills one W = 8 group, 24 one W = 16 group plus a
/// tail; m = 21 is not a multiple of either.
void expect_panel_identity(std::uint64_t seed, std::size_t min_bits,
                           std::size_t early, std::size_t r = 8) {
  Xoshiro256 rng(seed);
  const std::size_t m = r == 8 ? 21 : 2 * r - 3;
  std::vector<BigInt> moduli;
  for (std::size_t i = 0; i < m; ++i) {
    moduli.push_back(random_odd<std::uint32_t>(rng, min_bits + rng.below(512)));
  }
  const bulk::StagedCorpus corpus(moduli, r);
  const std::size_t cap = corpus.max_limbs();
  const auto& panels = corpus.panels();
  const auto y = corpus.limbs(m - 1);

  for (const Variant variant : kBulkVariants) {
    for (std::size_t g = 0; g < panels.group_count(); ++g) {
      const std::size_t live = std::min(r, m - g * r);

      bulk::SimtBatch<ScanLimb> ref(r, cap, 32);
      ref.load_panel(panels.panel(g), panels.sizes(g), panels.rows(g));
      ref.broadcast_y(y);
      for (std::size_t k = 0; k < live; ++k) ref.reset_lane_state(k, early);
      for (std::size_t k = live; k < r; ++k) ref.disable(k);
      ref.run_staged(variant);

      for (const VecIsa isa : available_isas()) {
        auto vec = bulk::make_vec_batch(r, cap, 32, isa);
        vec->load_panel(panels.panel(g), panels.sizes(g), panels.rows(g));
        vec->broadcast_y(y);
        for (std::size_t k = 0; k < live; ++k) vec->reset_lane_state(k, early);
        for (std::size_t k = live; k < r; ++k) vec->disable(k);
        vec->run(variant);

        ASSERT_EQ(vec->stats(), ref.stats())
            << to_string(variant) << " group " << g << " isa "
            << to_string(isa);
        for (std::size_t k = 0; k < live; ++k) {
          ASSERT_EQ(vec->early_coprime(k), ref.early_coprime(k));
          ASSERT_EQ(vec->lane_iterations(k), ref.lane_iterations(k));
          if (!vec->early_coprime(k)) {
            ASSERT_EQ(vec->gcd_of(k), ref.gcd_of(k))
                << to_string(variant) << " group " << g << " lane " << k;
          }
        }
      }
    }
  }
}

TEST(VecBackend, PanelPathMatchesStagedScalar) {
  expect_panel_identity(515151, 64, 64);
  // Section-V corpus (early = 3 limbs, moduli >= 6 limbs): every group,
  // the last one with three disabled lanes, takes the vector-resident
  // round; the modulus paired with itself exercises the d0 = 0 escape.
  constexpr std::size_t kEarly = 3 * mp::limb_bits<ScanLimb>;
  expect_panel_identity(616161, 2 * kEarly, kEarly);
  // 24-lane blocks: a full W = 16 resident group and an 8-lane tail, the
  // second block with three disabled lanes in its tail.
  expect_panel_identity(717171, 2 * kEarly, kEarly, 24);
}

TEST(VecBackend, ReusedBatchStaysIdentical) {
  // Panel-refresh hygiene: a batch that just ran long values must produce
  // identical results when refreshed with shorter ones (dirty-row zeroing).
  Xoshiro256 rng(777);
  const std::size_t lanes = 8;  // one full group
  auto vec = bulk::make_vec_batch(lanes, 24, 32);
  bulk::SimtBatch<ScanLimb> ref(lanes, 24, 32);
  for (int round = 0; round < 6; ++round) {
    const std::size_t bits = round % 2 == 0 ? 700 : 40;  // long, short, …
    for (std::size_t i = 0; i < lanes; ++i) {
      const auto x = random_odd<ScanLimb>(rng, 1 + rng.below(bits));
      const auto y = random_odd<ScanLimb>(rng, 1 + rng.below(bits));
      vec->load(i, x.limbs(), y.limbs());
      ref.load(i, x.limbs(), y.limbs());
    }
    vec->run(Variant::kApproximate);
    ref.run_staged(Variant::kApproximate);
    for (std::size_t i = 0; i < lanes; ++i) {
      ASSERT_EQ(vec->gcd_of(i), ref.gcd_of(i)) << "round " << round;
    }
  }
  ASSERT_EQ(vec->stats(), ref.stats());
}

TEST(VecBackend, DispatchProbes) {
  const VecIsa best = bulk::detect_vec_isa();
  ASSERT_NE(best, VecIsa::kAuto);
  ASSERT_TRUE(bulk::vec_isa_available(VecIsa::kPortable));
  ASSERT_TRUE(bulk::vec_isa_available(best));
  auto batch = bulk::make_vec_batch(4, 8);
  ASSERT_EQ(batch->isa(), best);
  ASSERT_EQ(batch->vector_width(), leg_width(best));
  for (const VecIsa isa : {VecIsa::kAvx2, VecIsa::kAvx512}) {
    if (!bulk::vec_isa_available(isa)) {
      ASSERT_THROW(bulk::make_vec_batch(4, 8, 32, isa), std::invalid_argument)
          << to_string(isa);
    }
  }
  // An AVX-512 CPU also runs AVX2, so the narrower leg stays testable.
  if (bulk::vec_isa_available(VecIsa::kAvx512)) {
    EXPECT_EQ(best, VecIsa::kAvx512);
    EXPECT_TRUE(bulk::vec_isa_available(VecIsa::kAvx2));
  }
}

TEST(VecBackend, AutoResolvesByCpu) {
  // The probe picks the widest available leg; kAuto and an explicit
  // kVector pick the vector engine exactly when a SIMD leg runs here (the
  // portable leg is test-only); staged and scalar pass through untouched.
  const auto legs = available_isas();
  const VecIsa best = legs.back();
  EXPECT_EQ(bulk::detect_vec_isa(), best);
  const bulk::Engine want =
      best != VecIsa::kPortable ? Engine::kVector : Engine::kStaged;
  EXPECT_EQ(bulk::resolve_engine(Engine::kAuto), want);
  EXPECT_EQ(bulk::resolve_engine(Engine::kVector), want);
  for (const Engine e : {Engine::kStaged, Engine::kScalar}) {
    EXPECT_EQ(bulk::resolve_engine(e), e);
  }
  EXPECT_EQ(bulk::AllPairsConfig{}.engine, Engine::kAuto);
  // The CLI names round-trip, and nothing else parses.
  for (const Engine e :
       {Engine::kAuto, Engine::kVector, Engine::kStaged, Engine::kScalar}) {
    EXPECT_EQ(bulk::parse_engine(to_string(e)), e);
  }
  EXPECT_EQ(bulk::parse_engine("simt"), std::nullopt);
  EXPECT_EQ(bulk::parse_engine("lockstep"), std::nullopt);
  EXPECT_EQ(bulk::parse_engine(""), std::nullopt);
}

/// Corpus with planted shared factors for end-to-end backend equivalence.
std::vector<BigInt> planted_corpus(std::uint64_t seed, std::size_t m) {
  Xoshiro256 rng(seed);
  std::vector<BigInt> moduli;
  const BigInt shared = random_odd<std::uint32_t>(rng, 128);
  for (std::size_t i = 0; i < m; ++i) {
    BigInt n = random_odd<std::uint32_t>(rng, 128 + rng.below(384));
    if (i % 5 == 0) n = n * shared;  // every 5th key shares a "prime"
    moduli.push_back(std::move(n));
  }
  return moduli;
}

TEST(VecBackend, AllPairsBackendsAgree) {
  const auto moduli = planted_corpus(90210, 33);

  bulk::AllPairsConfig staged;
  staged.engine = Engine::kStaged;
  staged.group_size = 8;
  staged.pool_threads = 1;
  staged.early_terminate = false;
  const auto want = bulk::all_pairs_gcd(moduli, staged);
  ASSERT_GT(want.hits.size(), 0u);

  bulk::AllPairsConfig cfg = staged;
  cfg.engine = Engine::kVector;
  const auto got = bulk::all_pairs_gcd(moduli, cfg);
  ASSERT_EQ(got.hits.size(), want.hits.size());
  for (std::size_t h = 0; h < want.hits.size(); ++h) {
    EXPECT_EQ(got.hits[h].i, want.hits[h].i);
    EXPECT_EQ(got.hits[h].j, want.hits[h].j);
    EXPECT_EQ(got.hits[h].factor, want.hits[h].factor);
    EXPECT_EQ(got.hits[h].full_modulus, want.hits[h].full_modulus);
  }
  EXPECT_EQ(got.pairs_tested, want.pairs_tested);
  EXPECT_EQ(got.simt, want.simt);
}

TEST(VecBackend, BuildInfoNamesEveryRunnableLeg) {
  // /status and the CLI banners list every compiled leg; each leg this CPU
  // runs is compiled in, and a default scan runs the widest of them.
  const bulk::BuildInfo info = bulk::query_build_info();
  const auto& compiled = info.compiled_backends;
  for (const VecIsa isa : available_isas()) {
    const std::string name = std::string("vector-") + to_string(isa);
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), name),
              compiled.end())
        << name;
  }
  const VecIsa best = bulk::detect_vec_isa();
  EXPECT_EQ(info.active_backend,
            best == VecIsa::kPortable
                ? std::string("staged")
                : std::string("vector-") + to_string(best));
  if (bulk::vec_isa_available(VecIsa::kAvx512)) {
    EXPECT_EQ(info.active_backend, "vector-avx512");
  }
}

TEST(VecBackend, AllPairsBackendsAgreeOnFullWidthBlocks) {
  // 32-lane blocks in the Section-V regime: whichever leg the probe picks
  // runs its resident round on every full group. Hits, pair count and
  // SimtStats match the staged engine.
  Xoshiro256 rng(160416);
  std::vector<BigInt> moduli;
  const BigInt shared = planted_prime(rng, 256);
  for (std::size_t i = 0; i < 40; ++i) {
    const BigInt q = planted_prime(rng, 256);
    moduli.push_back(q * (i % 7 == 3 ? shared : planted_prime(rng, 256)));
  }
  bulk::AllPairsConfig staged;
  staged.engine = Engine::kStaged;
  staged.group_size = 32;
  staged.pool_threads = 1;
  const auto want = bulk::all_pairs_gcd(moduli, staged);
  ASSERT_EQ(want.hits.size(), 15u);  // C(6, 2) pairs share `shared`

  bulk::AllPairsConfig cfg = staged;
  cfg.engine = Engine::kVector;
  const auto got = bulk::all_pairs_gcd(moduli, cfg);
  ASSERT_EQ(got.hits.size(), want.hits.size());
  for (std::size_t h = 0; h < want.hits.size(); ++h) {
    EXPECT_EQ(got.hits[h].i, want.hits[h].i);
    EXPECT_EQ(got.hits[h].j, want.hits[h].j);
    EXPECT_EQ(got.hits[h].factor, want.hits[h].factor);
    EXPECT_EQ(got.hits[h].full_modulus, want.hits[h].full_modulus);
  }
  EXPECT_EQ(got.pairs_tested, want.pairs_tested);
  EXPECT_EQ(got.simt, want.simt);
}

TEST(VecBackend, ProbeIncrementalBackendsAgree) {
  auto moduli = planted_corpus(1729, 21);
  const BigInt candidate = moduli.back() * BigInt(3);
  moduli.pop_back();

  bulk::AllPairsConfig staged;
  staged.engine = Engine::kStaged;
  staged.group_size = 8;
  staged.early_terminate = false;
  const auto want = bulk::probe_incremental(candidate, moduli, staged);

  bulk::AllPairsConfig cfg = staged;
  cfg.engine = Engine::kVector;
  const auto got = bulk::probe_incremental(candidate, moduli, cfg);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t h = 0; h < want.size(); ++h) {
    EXPECT_EQ(got[h].corpus_index, want[h].corpus_index);
    EXPECT_EQ(got[h].factor, want[h].factor);
    EXPECT_EQ(got[h].full_modulus, want[h].full_modulus);
  }
}

TEST(VecBackend, StagedCorpusRoundTrips) {
  Xoshiro256 rng(31415);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 9; ++i) {
    moduli.push_back(random_odd<std::uint32_t>(rng, 1 + rng.below(600)));
  }
  const bulk::StagedCorpus corpus(moduli, 4);
  ASSERT_EQ(corpus.size(), moduli.size());
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    EXPECT_EQ(BigInt::from_limbs(corpus.limbs(i)), moduli[i]);
    EXPECT_EQ(corpus.bits(i), moduli[i].bit_length());
    // Normalized: no high zero limb.
    if (!corpus.limbs(i).empty()) EXPECT_NE(corpus.limbs(i).back(), 0u);
  }
}

}  // namespace
}  // namespace bulkgcd
