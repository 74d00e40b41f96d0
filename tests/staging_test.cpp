// Staged corpus-panel tests: the CorpusPanels layout mirrors ColumnMatrix
// geometry exactly; refreshing a SimtBatch via load_panel()/broadcast_y()/
// reset_lane_state() is indistinguishable from per-lane load(); run_staged()
// reproduces run() bit for bit INCLUDING the reconstructed warp statistics;
// and the staged all-pairs / incremental / resumable-scan paths return the
// same hits (verified against the GMP oracle), full_modulus classification
// and SimtStats as the vector engine, and the same hits as the scalar one.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "bulk/allpairs.hpp"
#include "bulk/block_grid.hpp"
#include "bulk/layout.hpp"
#include "bulk/scan_driver.hpp"
#include "bulk/staged_corpus.hpp"
#include "core/rng.hpp"
#include "gmp_oracle.hpp"
#include "rsa/corpus.hpp"
#include "rsa/prime.hpp"

namespace bulkgcd::bulk {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::gmp_gcd;
using bulkgcd::test::random_odd;
using gcd::Variant;
using mp::BigInt;

// ---------------------------------------------------------------------------
// CorpusPanels layout
// ---------------------------------------------------------------------------

TEST(CorpusPanelsTest, LayoutMatchesColumnMajorGeometry) {
  Xoshiro256 rng(91);
  // Mixed sizes on purpose: 96..192-bit values across 7 moduli, group size 3
  // → 3 groups with a ragged tail lane.
  std::vector<BigInt> moduli;
  for (std::size_t i = 0; i < 7; ++i) {
    moduli.push_back(random_odd<std::uint32_t>(rng, 96 + 32 * (i % 4)));
  }
  const std::size_t r = 3;
  std::size_t max_limbs = 0;
  for (const auto& n : moduli) max_limbs = std::max(max_limbs, n.limbs().size());
  const std::size_t pad = max_limbs + kBatchPadLimbs;

  // The BigInt one-shot constructor and the scan's one-pass StagedCorpus
  // seed must stage the same geometry, byte for byte.
  const CorpusPanels<std::uint32_t> oneshot(moduli, r, pad);
  const StagedCorpus staged(moduli, r);
  ASSERT_EQ(staged.size(), moduli.size());
  for (std::size_t idx = 0; idx < moduli.size(); ++idx) {
    EXPECT_EQ(staged.bits(idx), moduli[idx].bit_length());
  }
  for (const auto* panels : {&oneshot, &staged.panels()}) {
    EXPECT_EQ(panels->corpus_size(), moduli.size());
    EXPECT_EQ(panels->group_count(), 3u);
    EXPECT_EQ(panels->lanes(), r);
    EXPECT_EQ(panels->padded_limbs(), pad);
    EXPECT_GT(panels->bytes(), 0u);

    for (std::size_t g = 0; g < panels->group_count(); ++g) {
      const auto panel = panels->panel(g);
      ASSERT_EQ(panel.size(), r * pad);
      const auto sizes = panels->sizes(g);
      std::size_t expect_rows = 1;
      for (std::size_t lane = 0; lane < r; ++lane) {
        const std::size_t idx = g * r + lane;
        if (idx >= moduli.size()) {
          EXPECT_EQ(sizes[lane], 0u);
          continue;
        }
        const auto limbs = moduli[idx].limbs();
        EXPECT_EQ(sizes[lane], limbs.size());
        expect_rows = std::max(expect_rows, limbs.size() + 1);
        // Limb i of lane t lives at panel[i*r + t] — the ColumnMatrix rule.
        for (std::size_t i = 0; i < pad; ++i) {
          const std::uint32_t want = i < limbs.size() ? limbs[i] : 0u;
          ASSERT_EQ(panel[i * r + lane], want)
              << "group " << g << " lane " << lane << " limb " << i;
        }
      }
      EXPECT_EQ(panels->rows(g), expect_rows);
      EXPECT_LE(panels->rows(g), pad);
    }
  }
}

TEST(CorpusPanelsTest, IncrementalAppendMatchesOneShotConstruction) {
  Xoshiro256 rng(94);
  // Same mixed-size shape as the layout test: ragged tail group, varied
  // widths. Growing panels one append() at a time must land on the exact
  // bytes the one-shot constructor produces.
  std::vector<BigInt> moduli;
  for (std::size_t i = 0; i < 7; ++i) {
    moduli.push_back(random_odd<std::uint32_t>(rng, 96 + 32 * (i % 4)));
  }
  const std::size_t r = 3;
  std::size_t max_limbs = 0;
  for (const auto& n : moduli) max_limbs = std::max(max_limbs, n.limbs().size());
  const std::size_t pad = max_limbs + kBatchPadLimbs;

  const CorpusPanels<std::uint32_t> oneshot(moduli, r, pad);
  CorpusPanels<std::uint32_t> grown(r, pad);
  EXPECT_EQ(grown.corpus_size(), 0u);
  EXPECT_EQ(grown.group_count(), 0u);
  for (const auto& n : moduli) {
    grown.append(n.limbs());
    // Every intermediate state is a valid prefix staging: the newest group's
    // rows only ever grow, earlier groups are untouched.
    ASSERT_EQ(grown.corpus_size() % r == 0
                  ? grown.corpus_size() / r
                  : grown.corpus_size() / r + 1,
              grown.group_count());
  }

  ASSERT_EQ(grown.corpus_size(), oneshot.corpus_size());
  ASSERT_EQ(grown.group_count(), oneshot.group_count());
  EXPECT_EQ(grown.lanes(), oneshot.lanes());
  EXPECT_EQ(grown.padded_limbs(), oneshot.padded_limbs());
  for (std::size_t g = 0; g < oneshot.group_count(); ++g) {
    EXPECT_EQ(grown.rows(g), oneshot.rows(g)) << "group " << g;
    const auto grown_sizes = grown.sizes(g);
    const auto oneshot_sizes = oneshot.sizes(g);
    ASSERT_EQ(grown_sizes.size(), oneshot_sizes.size());
    const auto grown_panel = grown.panel(g);
    const auto oneshot_panel = oneshot.panel(g);
    ASSERT_EQ(grown_panel.size(), oneshot_panel.size());
    for (std::size_t lane = 0; lane < r; ++lane) {
      EXPECT_EQ(grown_sizes[lane], oneshot_sizes[lane])
          << "group " << g << " lane " << lane;
    }
    for (std::size_t k = 0; k < oneshot_panel.size(); ++k) {
      ASSERT_EQ(grown_panel[k], oneshot_panel[k])
          << "group " << g << " element " << k;
    }
  }
}

/// staged equals seeded, a StagedCorpus seeded in one pass with `moduli`:
/// flat limbs, bit lengths and panels.
void expect_same_staging(const StagedCorpus& staged, const StagedCorpus& seeded,
                         const std::vector<BigInt>& moduli) {
  ASSERT_EQ(staged.size(), seeded.size());
  EXPECT_EQ(staged.max_limbs(), seeded.max_limbs());
  EXPECT_EQ(staged.group_size(), seeded.group_size());
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    const auto got = staged.limbs(i);
    const auto want = seeded.limbs(i);
    ASSERT_EQ(got.size(), want.size()) << "modulus " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << "modulus " << i << " limb " << k;
    }
    EXPECT_EQ(staged.bits(i), seeded.bits(i)) << "modulus " << i;
    EXPECT_EQ(BigInt::from_limbs(got), moduli[i]) << "modulus " << i;
  }

  // Same padding, groups, rows, sizes and panel elements.
  const auto& live = staged.panels();
  const auto& oneshot = seeded.panels();
  ASSERT_EQ(live.padded_limbs(), oneshot.padded_limbs());
  ASSERT_EQ(live.corpus_size(), oneshot.corpus_size());
  ASSERT_EQ(live.group_count(), oneshot.group_count());
  for (std::size_t g = 0; g < oneshot.group_count(); ++g) {
    EXPECT_EQ(live.rows(g), oneshot.rows(g)) << "group " << g;
    const auto got_sizes = live.sizes(g);
    const auto want_sizes = oneshot.sizes(g);
    EXPECT_TRUE(std::ranges::equal(got_sizes, want_sizes)) << "group " << g;
    const auto got = live.panel(g);
    const auto want = oneshot.panel(g);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << "group " << g << " element " << k;
    }
  }
}

TEST(StagedCorpusTest, GrowthRestagesAndMatchesOnePassSeed) {
  Xoshiro256 rng(95);
  // Seed with small values, then append a much larger one: the capacity
  // doubling must re-stage without perturbing any already-staged member,
  // and the grown corpus must equal a StagedCorpus seeded in one pass with
  // the same moduli — flat limbs, bit lengths and panels.
  std::vector<BigInt> moduli;
  for (std::size_t i = 0; i < 4; ++i) {
    moduli.push_back(random_odd<std::uint32_t>(rng, 96));
  }
  StagedCorpus staged(moduli, 3);
  const std::size_t pad_before = staged.panels().padded_limbs();
  moduli.push_back(random_odd<std::uint32_t>(rng, 384));  // forces restage
  moduli.push_back(random_odd<std::uint32_t>(rng, 128));
  for (std::size_t i = 4; i < moduli.size(); ++i) staged.append(moduli[i]);
  EXPECT_GT(staged.panels().padded_limbs(), pad_before);

  // The jumbo append sets the grown padding to its own size + the pad rows,
  // which is the one-pass seed's geometry: the rebuilt panels are the
  // one-pass panels.
  expect_same_staging(staged, StagedCorpus(moduli, 3), moduli);
}

TEST(StagedCorpusTest, SeedLeavesRoomForOneMoreGroup) {
  // The seed reserves one group of its largest size past itself: the r
  // arrivals that follow it (here 1500 = 23·64 + 28, so they finish group 23
  // and start group 24) copy neither the flat store nor the panels, and the
  // result equals a one-pass seed of the same moduli.
  Xoshiro256 rng(96);
  constexpr std::size_t kGroup = 64;
  std::vector<BigInt> moduli;
  for (std::size_t i = 0; i < 1500; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 1024));
  StagedCorpus staged(moduli, kGroup);
  const ScanLimb* const flat = staged.limbs(0).data();
  const ScanLimb* const panel = staged.panels().panel(0).data();
  for (std::size_t k = 0; k < kGroup; ++k) {
    moduli.push_back(random_odd<std::uint32_t>(rng, 1024 - 32 * (k % 3)));
    staged.append(moduli.back());
    ASSERT_EQ(staged.limbs(0).data(), flat) << "append " << k << " copied the flat store";
    ASSERT_EQ(staged.panels().panel(0).data(), panel) << "append " << k << " copied the panels";
  }
  expect_same_staging(staged, StagedCorpus(moduli, kGroup), moduli);
}

TEST(CorpusPanelsTest, RejectsUndersizedPadding) {
  Xoshiro256 rng(92);
  std::vector<BigInt> moduli = {random_odd<std::uint32_t>(rng, 128)};
  const std::size_t limbs = moduli[0].limbs().size();
  EXPECT_THROW(CorpusPanels<std::uint32_t>(moduli, 4, limbs),
               std::length_error);
  EXPECT_NO_THROW(
      CorpusPanels<std::uint32_t>(moduli, 4, limbs + kBatchPadLimbs));
}

TEST(CorpusPanelsTest, RowMajorBatchRejectsPanelStaging) {
  SimtBatch<std::uint32_t, RowMatrix> batch(4, 8, 4);
  const std::vector<std::uint32_t> panel(4 * (8 + kBatchPadLimbs), 1u);
  const std::vector<std::size_t> sizes(4, 1);
  const std::vector<std::uint32_t> y = {3u};
  EXPECT_THROW(batch.load_panel(panel, sizes, 2), std::logic_error);
  EXPECT_THROW(batch.broadcast_y(y), std::logic_error);
}

// ---------------------------------------------------------------------------
// Batch refresh + lane-serial execution vs the per-lane reference
// ---------------------------------------------------------------------------

/// r moduli (one group), some sharing a prime with the probe y.
struct GroupFixture {
  std::vector<BigInt> xs;
  BigInt y;
  std::size_t cap = 0;  ///< max limbs across all values

  explicit GroupFixture(std::size_t r, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const BigInt shared = rsa::random_prime(rng, 64);
    y = shared * rsa::random_prime(rng, 64);
    for (std::size_t k = 0; k < r; ++k) {
      // Mixed sizes and a planted hit every third lane.
      if (k % 3 == 0) {
        xs.push_back(shared * rsa::random_prime(rng, 64 + 32 * (k % 2)));
      } else {
        xs.push_back(random_odd<std::uint32_t>(rng, 96 + 32 * (k % 3)));
      }
    }
    cap = y.limbs().size();
    for (const auto& x : xs) cap = std::max(cap, x.limbs().size());
  }
};

TEST(StagedBatchTest, PanelRefreshMatchesPerLaneLoads) {
  const std::size_t r = 13;
  const GroupFixture fx(r, 2024);
  const CorpusPanels<std::uint32_t> panels(fx.xs, r, fx.cap + kBatchPadLimbs);

  for (const std::size_t early : {std::size_t(0), std::size_t(48)}) {
    SimtBatch<std::uint32_t> reference(r, fx.cap, 8);
    SimtBatch<std::uint32_t> staged(r, fx.cap, 8);
    for (std::size_t k = 0; k < r; ++k) {
      reference.load(k, fx.xs[k].limbs(), fx.y.limbs());
    }
    staged.load_panel(panels.panel(0), panels.sizes(0), panels.rows(0));
    staged.broadcast_y(fx.y.limbs());
    for (std::size_t k = 0; k < r; ++k) staged.reset_lane_state(k);

    reference.run(Variant::kApproximate, early);
    staged.run(Variant::kApproximate, early);

    for (std::size_t k = 0; k < r; ++k) {
      ASSERT_EQ(staged.early_coprime(k), reference.early_coprime(k))
          << "early=" << early << " lane " << k;
      if (!reference.early_coprime(k)) {
        EXPECT_EQ(staged.gcd_of(k), reference.gcd_of(k))
            << "early=" << early << " lane " << k;
      }
    }
    EXPECT_TRUE(staged.stats() == reference.stats()) << "early=" << early;
  }
}

TEST(StagedBatchTest, RepeatedRefreshLeavesNoResidue) {
  // Run a round that dirties high rows (long values), then stage a group of
  // much shorter values: the watermark logic must zero the residue, so the
  // short round's results still match a fresh batch.
  const std::size_t r = 7;
  const GroupFixture longs(r, 31);
  GroupFixture shorts(r, 32);
  // Rebuild `shorts` values at half the size so its rows < longs' rows.
  {
    Xoshiro256 rng(33);
    const BigInt shared = rsa::random_prime(rng, 32);
    shorts.y = shared * rsa::random_prime(rng, 32);
    for (std::size_t k = 0; k < r; ++k) {
      shorts.xs[k] = k % 2 ? random_odd<std::uint32_t>(rng, 64)
                           : shared * rsa::random_prime(rng, 32);
    }
    shorts.cap = shorts.y.limbs().size();
    for (const auto& x : shorts.xs) {
      shorts.cap = std::max(shorts.cap, x.limbs().size());
    }
  }
  const std::size_t cap = std::max(longs.cap, shorts.cap);
  const CorpusPanels<std::uint32_t> long_p(longs.xs, r, cap + kBatchPadLimbs);
  const CorpusPanels<std::uint32_t> short_p(shorts.xs, r, cap + kBatchPadLimbs);

  SimtBatch<std::uint32_t> reused(r, cap, 8);
  auto stage_and_run = [&](SimtBatch<std::uint32_t>& b,
                           const CorpusPanels<std::uint32_t>& p,
                           const BigInt& y) {
    b.load_panel(p.panel(0), p.sizes(0), p.rows(0));
    b.broadcast_y(y.limbs());
    for (std::size_t k = 0; k < r; ++k) b.reset_lane_state(k);
    b.run_staged(Variant::kApproximate, 0);
  };
  stage_and_run(reused, long_p, longs.y);   // dirty the high rows
  stage_and_run(reused, short_p, shorts.y); // then the short group

  SimtBatch<std::uint32_t> fresh(r, cap, 8);
  stage_and_run(fresh, short_p, shorts.y);
  for (std::size_t k = 0; k < r; ++k) {
    ASSERT_EQ(reused.early_coprime(k), fresh.early_coprime(k)) << "lane " << k;
    if (!fresh.early_coprime(k)) {
      EXPECT_EQ(reused.gcd_of(k), fresh.gcd_of(k)) << "lane " << k;
    }
  }
}

// ctest names each parameterized case by its printed value. The default
// printer dumps the raw bytes of the struct, padding included, so those names
// used to depend on whatever the stack held. Each case now carries the name it
// is tracked under and prints exactly that.
struct StagedRunCase {
  Variant variant;
  std::size_t early_bits;
  const char* ctest_name;
};

void PrintTo(const StagedRunCase& c, std::ostream* os) { *os << c.ctest_name; }

class StagedRunTest : public ::testing::TestWithParam<StagedRunCase> {};

TEST_P(StagedRunTest, RunStagedMatchesRunBitForBitIncludingStats) {
  const auto [variant, early_bits, ctest_name] = GetParam();
  Xoshiro256 rng(555 + std::size_t(variant));
  const std::size_t lanes = 37;  // ragged: not a multiple of the warp width
  const std::size_t bits = 192;
  const std::size_t cap = bits / 32;

  SimtBatch<std::uint32_t> lockstep(lanes, cap, 8);
  SimtBatch<std::uint32_t> staged(lanes, cap, 8);
  for (std::size_t i = 0; i < lanes; ++i) {
    BigInt x, y;
    if (i % 5 == 0) {
      const BigInt p = rsa::random_prime(rng, bits / 2);
      x = p * rsa::random_prime(rng, bits / 2);
      y = p * rsa::random_prime(rng, bits / 2);
    } else {
      x = random_odd<std::uint32_t>(rng, bits);
      y = random_odd<std::uint32_t>(rng, bits);
    }
    lockstep.load(i, x.limbs(), y.limbs());
    staged.load(i, x.limbs(), y.limbs());
  }
  lockstep.run(variant, early_bits);
  staged.run_staged(variant, early_bits);

  for (std::size_t i = 0; i < lanes; ++i) {
    ASSERT_EQ(staged.early_coprime(i), lockstep.early_coprime(i))
        << to_string(variant) << " lane " << i;
    if (!lockstep.early_coprime(i)) {
      EXPECT_EQ(staged.gcd_of(i), lockstep.gcd_of(i))
          << to_string(variant) << " lane " << i;
    }
  }
  // The warp statistics are RECONSTRUCTED for run_staged — every counter
  // (rounds, warp rounds, branch slots, divergence, utilization, and the
  // whole GcdStats block) must equal the lockstep accounting exactly.
  EXPECT_TRUE(staged.stats() == lockstep.stats()) << to_string(variant);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndTermination, StagedRunTest,
    ::testing::Values(
        StagedRunCase{Variant::kBinary, 0,
                      "16-byte object <02-00 00-00 00-00 00-00 "
                      "00-00 00-00 00-00 00-00>"},
        StagedRunCase{Variant::kBinary, 96,
                      "16-byte object <02-00 00-00 00-00 00-00 "
                      "60-00 00-00 00-00 00-00>"},
        StagedRunCase{Variant::kFastBinary, 0,
                      "16-byte object <03-00 00-00 00-00 00-00 "
                      "00-00 00-00 00-00 00-00>"},
        StagedRunCase{Variant::kFastBinary, 96,
                      "16-byte object <03-DA 48-00 00-00 00-00 "
                      "60-00 00-00 00-00 00-00>"},
        StagedRunCase{Variant::kApproximate, 0,
                      "16-byte object <04-00 00-00 00-00 00-00 "
                      "00-00 00-00 00-00 00-00>"},
        StagedRunCase{Variant::kApproximate, 96,
                      "16-byte object <04-00 00-00 00-00 00-00 "
                      "60-00 00-00 00-00 00-00>"}));

// ---------------------------------------------------------------------------
// End-to-end differentials: staged vs vector vs scalar sweeps
// ---------------------------------------------------------------------------

/// Heterogeneous corpus with two planted shared-prime pairs (one between the
/// small moduli — the regression shape of PR 1), one exact duplicate
/// modulus, and larger bystanders.
std::vector<BigInt> mixed_corpus(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const BigInt shared_small = rsa::random_prime(rng, 64);
  const BigInt shared_big = rsa::random_prime(rng, 128);
  std::vector<BigInt> moduli = {
      shared_small * rsa::random_prime(rng, 64),    // 0: 128-bit weak
      shared_small * rsa::random_prime(rng, 64),    // 1: 128-bit weak
      rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128),  // 2
      shared_big * rsa::random_prime(rng, 128),     // 3: 256-bit weak
      rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128),  // 4
      shared_big * rsa::random_prime(rng, 128),     // 5: 256-bit weak
      rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128),  // 6
  };
  moduli.push_back(moduli[4]);  // 7: exact duplicate of 4
  return moduli;
}

/// Same pairs, same hits (each checked against the GMP oracle), same
/// full_modulus flags.
void expect_same_hits(const AllPairsResult& got, const AllPairsResult& want,
                      std::span<const BigInt> moduli) {
  EXPECT_EQ(got.pairs_tested, want.pairs_tested);
  EXPECT_EQ(got.blocks_run, want.blocks_run);
  ASSERT_EQ(got.hits.size(), want.hits.size());
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].i, want.hits[k].i);
    EXPECT_EQ(got.hits[k].j, want.hits[k].j);
    EXPECT_EQ(got.hits[k].factor, want.hits[k].factor);
    EXPECT_EQ(got.hits[k].full_modulus, want.hits[k].full_modulus);
    // GMP oracle: the reported factor is the true gcd of the pair.
    const auto& h = got.hits[k];
    EXPECT_EQ(h.factor, gmp_gcd(moduli[h.i], moduli[h.j])) << "hit " << k;
    EXPECT_EQ(h.full_modulus,
              h.factor == moduli[h.i] || h.factor == moduli[h.j]);
  }
}

/// The staged and vector engines do identical work, so beyond identical
/// hits they report identical statistics; the scalar engine agrees on hits.
void expect_engines_agree(const AllPairsResult& staged,
                          const AllPairsResult& vector,
                          const AllPairsResult& scalar,
                          std::span<const BigInt> moduli) {
  expect_same_hits(staged, vector, moduli);
  EXPECT_TRUE(staged.simt == vector.simt);
  EXPECT_GT(staged.simt.lane_iterations, 0u);
  expect_same_hits(staged, scalar, moduli);
}

TEST(StagingDifferentialTest, AllPairsStagedMatchesVector) {
  const std::vector<BigInt> moduli = mixed_corpus(777);
  for (const std::size_t group : {std::size_t(3), std::size_t(64)}) {
    AllPairsConfig config;
    config.group_size = group;
    config.warp_width = 8;
    config.early_terminate = true;
    config.engine = Engine::kStaged;
    const AllPairsResult staged = all_pairs_gcd(moduli, config);
    config.engine = Engine::kVector;
    const AllPairsResult vector = all_pairs_gcd(moduli, config);
    config.engine = Engine::kScalar;
    const AllPairsResult scalar = all_pairs_gcd(moduli, config);
    expect_engines_agree(staged, vector, scalar, moduli);
    // The corpus plants 2 proper pairs + 1 duplicate.
    ASSERT_EQ(staged.hits.size(), 3u) << "group " << group;
    std::size_t full = 0;
    for (const auto& h : staged.hits) full += h.full_modulus ? 1 : 0;
    EXPECT_EQ(full, 1u) << "group " << group;
  }
}

TEST(StagingDifferentialTest, ProbeIncrementalStagedMatchesVector) {
  Xoshiro256 rng(888);
  const BigInt shared = rsa::random_prime(rng, 64);
  std::vector<BigInt> corpus = {
      shared * rsa::random_prime(rng, 64),
      rsa::random_prime(rng, 96) * rsa::random_prime(rng, 96),
      rsa::random_prime(rng, 64) * rsa::random_prime(rng, 64),
  };
  const BigInt candidate = shared * rsa::random_prime(rng, 64);
  corpus.push_back(candidate);  // exact duplicate of the candidate

  AllPairsConfig config;
  config.group_size = 2;
  config.warp_width = 8;
  config.engine = Engine::kStaged;
  ProbeStats staged_stats, vector_stats;
  const auto staged = probe_incremental(candidate, corpus, config,
                                        &staged_stats);
  config.engine = Engine::kVector;
  const auto vector = probe_incremental(candidate, corpus, config,
                                        &vector_stats);
  config.engine = Engine::kScalar;
  const auto scalar = probe_incremental(candidate, corpus, config);

  for (const auto* other : {&vector, &scalar}) {
    ASSERT_EQ(other->size(), staged.size());
    for (std::size_t k = 0; k < staged.size(); ++k) {
      EXPECT_EQ((*other)[k].corpus_index, staged[k].corpus_index);
      EXPECT_EQ((*other)[k].factor, staged[k].factor);
      EXPECT_EQ((*other)[k].full_modulus, staged[k].full_modulus);
    }
  }
  EXPECT_EQ(vector_stats.pairs_tested, staged_stats.pairs_tested);
  EXPECT_TRUE(vector_stats.simt == staged_stats.simt);
  ASSERT_EQ(staged.size(), 2u);
  EXPECT_EQ(staged[0].corpus_index, 0u);
  EXPECT_EQ(staged[0].factor, shared);
  EXPECT_EQ(staged[0].factor, gmp_gcd(candidate, corpus[0]));
  EXPECT_FALSE(staged[0].full_modulus);
  EXPECT_EQ(staged[1].corpus_index, 3u);
  EXPECT_EQ(staged[1].factor, candidate);  // gcd(n, n) = n
  EXPECT_TRUE(staged[1].full_modulus);
}

TEST(StagingDifferentialTest, ResumableScanStagedMatchesVector) {
  const std::vector<BigInt> moduli = mixed_corpus(999);
  ScanConfig config;
  config.pairs.group_size = 3;
  config.pairs.warp_width = 8;
  config.chunk_blocks = 2;
  config.pairs.engine = Engine::kStaged;
  const ScanReport staged = run_resumable_scan(moduli, config);
  config.pairs.engine = Engine::kVector;
  const ScanReport vector = run_resumable_scan(moduli, config);
  config.pairs.engine = Engine::kScalar;
  const ScanReport scalar = run_resumable_scan(moduli, config);
  ASSERT_TRUE(staged.complete);
  ASSERT_TRUE(vector.complete);
  ASSERT_TRUE(scalar.complete);
  expect_engines_agree(staged.result, vector.result, scalar.result, moduli);
}

TEST(StagingDifferentialTest, ResumeRestoresFullModulusFlags) {
  // full_modulus is recomputed when hits are restored from a checkpoint (the
  // journal format predates the flag and stays unchanged): kill a scan after
  // one chunk, resume, and check the flags on the merged hit list.
  const std::vector<BigInt> moduli = mixed_corpus(1234);
  const auto path = std::filesystem::temp_directory_path() /
                    "bulkgcd_staging_resume_flags.ckpt";
  std::error_code ignored;
  std::filesystem::remove(path, ignored);

  ScanConfig config;
  config.pairs.group_size = 2;
  config.pairs.warp_width = 8;
  config.checkpoint = path;
  config.chunk_blocks = 1;
  config.stop_after_chunks = 3;
  const ScanReport partial = run_resumable_scan(moduli, config);
  ASSERT_FALSE(partial.complete);

  config.stop_after_chunks = 0;
  const ScanReport resumed = run_resumable_scan(moduli, config);
  ASSERT_TRUE(resumed.complete);
  ASSERT_TRUE(resumed.resumed);
  for (const auto& h : resumed.result.hits) {
    EXPECT_EQ(h.full_modulus,
              h.factor == moduli[h.i] || h.factor == moduli[h.j]);
  }
  std::size_t full = 0;
  for (const auto& h : resumed.result.hits) full += h.full_modulus ? 1 : 0;
  EXPECT_EQ(full, 1u);
  std::filesystem::remove(path, ignored);
}

}  // namespace
}  // namespace bulkgcd::bulk
