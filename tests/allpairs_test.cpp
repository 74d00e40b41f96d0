// All-pairs scheduler tests: the Section-VI block decomposition covers every
// pair exactly once and recovers exactly the planted weak pairs, on both
// engines and several group sizes.
#include "bulk/allpairs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "gmp_oracle.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "rsa/prime.hpp"

namespace bulkgcd::bulk {
namespace {

using gcd::Variant;
using mp::BigInt;
using rsa::CorpusSpec;
using rsa::WeakCorpus;

WeakCorpus test_corpus(std::size_t count, std::size_t weak, std::uint64_t seed) {
  CorpusSpec spec;
  spec.count = count;
  spec.modulus_bits = 128;
  spec.weak_pairs = weak;
  spec.seed = seed;
  return rsa::generate_corpus(spec);
}

void expect_hits_match_ground_truth(const AllPairsResult& result,
                                    const WeakCorpus& corpus) {
  ASSERT_EQ(result.hits.size(), corpus.weak.size());
  for (std::size_t k = 0; k < result.hits.size(); ++k) {
    EXPECT_EQ(result.hits[k].i, corpus.weak[k].first);
    EXPECT_EQ(result.hits[k].j, corpus.weak[k].second);
    EXPECT_EQ(result.hits[k].factor, corpus.weak[k].shared_prime);
  }
}

// ctest names each parameterized case by its printed value. The default
// printer dumps the raw bytes of the struct, padding included, so those names
// used to depend on whatever the stack held. Each case now carries the name it
// is tracked under and prints exactly that.
struct AllPairsCase {
  Engine engine;
  Variant variant;
  std::size_t group_size;
  bool early;
  const char* ctest_name;
};

void PrintTo(const AllPairsCase& c, std::ostream* os) { *os << c.ctest_name; }

class AllPairsTest : public ::testing::TestWithParam<AllPairsCase> {};

TEST_P(AllPairsTest, FindsExactlyThePlantedWeakPairs) {
  const AllPairsCase& c = GetParam();
  const WeakCorpus corpus = test_corpus(26, 4, 1234);
  AllPairsConfig config;
  config.engine = c.engine;
  config.variant = c.variant;
  config.group_size = c.group_size;
  config.early_terminate = c.early;
  config.warp_width = 8;
  const AllPairsResult result = all_pairs_gcd(corpus.moduli, config);
  EXPECT_EQ(result.pairs_tested, 26u * 25u / 2u);
  expect_hits_match_ground_truth(result, corpus);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesVariantsGroups, AllPairsTest,
    ::testing::Values(
        AllPairsCase{Engine::kAuto, Variant::kApproximate, 8, true,
                     "24-byte object <01-00 00-00 04-61 00-00 08-00 00-00 "
                     "00-00 00-00 01-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kAuto, Variant::kApproximate, 5, true,
                     "24-byte object <01-00 00-00 04-00 00-00 05-00 00-00 "
                     "00-00 00-00 01-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kAuto, Variant::kApproximate, 32, false,
                     "24-byte object <01-00 00-00 04-3B 00-00 20-00 00-00 "
                     "00-00 00-00 00-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kAuto, Variant::kFastBinary, 8, true,
                     "24-byte object <01-00 00-00 03-00 00-00 08-00 00-00 "
                     "00-00 00-00 01-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kAuto, Variant::kBinary, 8, true,
                     "24-byte object <01-00 00-00 02-00 00-00 08-00 00-00 "
                     "00-00 00-00 01-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kScalar, Variant::kApproximate, 8, true,
                     "24-byte object <00-00 00-00 04-00 00-00 08-00 00-00 "
                     "00-00 00-00 01-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kScalar, Variant::kOriginal, 8, true,
                     "24-byte object <00-00 00-00 00-00 00-00 08-00 00-00 "
                     "00-00 00-00 01-00 00-00 00-00 00-00>"},
        AllPairsCase{Engine::kScalar, Variant::kFast, 8, false,
                     "24-byte object <00-00 00-00 01-00 00-00 08-00 00-00 "
                     "00-00 00-00 00-00 00-00 00-00 00-00>"}));

TEST(AllPairsTest, GroupSizeLargerThanCorpusWorks) {
  const WeakCorpus corpus = test_corpus(6, 1, 5);
  AllPairsConfig config;
  config.group_size = 1000;
  const AllPairsResult result = all_pairs_gcd(corpus.moduli, config);
  EXPECT_EQ(result.pairs_tested, 15u);
  expect_hits_match_ground_truth(result, corpus);
}

TEST(AllPairsTest, GroupSizeOneDegeneratesToPairLoop) {
  const WeakCorpus corpus = test_corpus(7, 1, 6);
  AllPairsConfig config;
  config.group_size = 1;
  const AllPairsResult result = all_pairs_gcd(corpus.moduli, config);
  EXPECT_EQ(result.pairs_tested, 21u);
  expect_hits_match_ground_truth(result, corpus);
}

TEST(AllPairsTest, EmptyAndSingletonInputs) {
  const AllPairsResult empty = all_pairs_gcd({});
  EXPECT_EQ(empty.pairs_tested, 0u);
  EXPECT_TRUE(empty.hits.empty());
  const std::vector<BigInt> one = {BigInt(15)};
  const AllPairsResult single = all_pairs_gcd(one);
  EXPECT_EQ(single.pairs_tested, 0u);
}

TEST(AllPairsTest, DuplicateModuliAreReportedAsHits) {
  const WeakCorpus corpus = test_corpus(5, 0, 7);
  std::vector<BigInt> moduli = corpus.moduli;
  moduli.push_back(moduli[2]);  // exact duplicate
  const AllPairsResult result = all_pairs_gcd(moduli);
  ASSERT_EQ(result.hits.size(), 1u);
  EXPECT_EQ(result.hits[0].i, 2u);
  EXPECT_EQ(result.hits[0].j, 5u);
  EXPECT_EQ(result.hits[0].factor, moduli[2]);  // gcd(n, n) = n
  // Flagged so consumers don't try to split n by itself (n / gcd == 1).
  EXPECT_TRUE(result.hits[0].full_modulus);
}

TEST(AllPairsTest, ProperSharedPrimeHitsAreNotFlaggedFullModulus) {
  const WeakCorpus corpus = test_corpus(10, 2, 11);
  const AllPairsResult result = all_pairs_gcd(corpus.moduli);
  ASSERT_EQ(result.hits.size(), 2u);
  for (const auto& hit : result.hits) EXPECT_FALSE(hit.full_modulus);
}

TEST(AllPairsTest, MixedSizeCorpusRecoversSmallPairSharedFactor) {
  // Regression: the early-terminate threshold is per PAIR (Section V defines
  // the RSA bit size s per key pair). The seed code derived it from the
  // corpus-wide max bit length, so for two 256-bit moduli sharing a prime in
  // a corpus that also holds 512-bit bystanders, early_bits = 256 >= the
  // operands' size and the probe declared them coprime without testing —
  // silently dropping real shared factors on exactly the heterogeneous
  // corpora a real-world harvest produces.
  Xoshiro256 rng(4242);
  const BigInt shared = rsa::random_prime(rng, 128);
  const BigInt p1 = rsa::random_prime(rng, 128);
  const BigInt p2 = rsa::random_prime(rng, 128);
  std::vector<BigInt> moduli = {
      shared * p1,  // 256-bit weak modulus
      shared * p2,  // 256-bit weak modulus
      rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256),  // bystander
      rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256),  // bystander
      rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256),  // bystander
  };
  for (const auto engine : {Engine::kAuto, Engine::kScalar}) {
    AllPairsConfig config;
    config.engine = engine;
    config.early_terminate = true;
    config.group_size = 4;
    config.warp_width = 8;
    const AllPairsResult result = all_pairs_gcd(moduli, config);
    ASSERT_EQ(result.hits.size(), 1u) << "engine " << to_string(engine);
    EXPECT_EQ(result.hits[0].i, 0u);
    EXPECT_EQ(result.hits[0].j, 1u);
    EXPECT_EQ(result.hits[0].factor, shared);
  }
}

TEST(IncrementalProbeTest, MixedSizeCorpusFindsSmallCandidateHit) {
  // Same per-pair threshold regression for the incremental path: a small
  // candidate probed against a corpus holding larger members must still hit
  // its small partner.
  Xoshiro256 rng(5252);
  const BigInt shared = rsa::random_prime(rng, 128);
  const std::vector<BigInt> corpus = {
      shared * rsa::random_prime(rng, 128),                       // small weak
      rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256),  // big clean
      rsa::random_prime(rng, 256) * rsa::random_prime(rng, 256),  // big clean
  };
  const BigInt candidate = shared * rsa::random_prime(rng, 128);
  for (const auto engine : {Engine::kAuto, Engine::kScalar}) {
    AllPairsConfig config;
    config.engine = engine;
    config.group_size = 2;
    const auto hits = probe_incremental(candidate, corpus, config);
    ASSERT_EQ(hits.size(), 1u) << "engine " << to_string(engine);
    EXPECT_EQ(hits[0].corpus_index, 0u);
    EXPECT_EQ(hits[0].factor, shared);
  }
}

TEST(AllPairsTest, SingleThreadedPoolMatchesParallel) {
  const WeakCorpus corpus = test_corpus(20, 3, 8);
  AllPairsConfig config;
  config.group_size = 4;
  AllPairsConfig serial = config;
  serial.pool_threads = 1;
  const AllPairsResult a = all_pairs_gcd(corpus.moduli, config);
  const AllPairsResult b = all_pairs_gcd(corpus.moduli, serial);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].factor, b.hits[k].factor);
  }
  EXPECT_EQ(a.pairs_tested, b.pairs_tested);
}

TEST(AllPairsTest, SimtStatsArePopulated) {
  const WeakCorpus corpus = test_corpus(12, 1, 9);
  AllPairsConfig config;
  config.group_size = 4;
  const AllPairsResult result = all_pairs_gcd(corpus.moduli, config);
  EXPECT_GT(result.simt.lane_iterations, 0u);
  EXPECT_GT(result.blocks_run, 0u);
  EXPECT_GT(result.input_bytes, 0u);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.micros_per_gcd(), 0.0);
}

TEST(IncrementalProbeTest, FindsSharedFactorWithCorpusMember) {
  const WeakCorpus corpus = test_corpus(12, 0, 10);
  // Candidate shares a prime with corpus modulus #5: synthesize it by
  // re-multiplying one of its factors. Recover the factor by batch-gcd-free
  // construction: use the corpus member itself as the candidate first.
  for (const auto engine : {Engine::kAuto, Engine::kScalar}) {
    AllPairsConfig config;
    config.engine = engine;
    config.group_size = 4;
    const auto hits = probe_incremental(corpus.moduli[5], corpus.moduli, config);
    ASSERT_EQ(hits.size(), 1u) << "engine " << to_string(engine);
    EXPECT_EQ(hits[0].corpus_index, 5u);
    EXPECT_EQ(hits[0].factor, corpus.moduli[5]);  // gcd(n, n) = n
  }
}

TEST(IncrementalProbeTest, CleanCandidateYieldsNoHits) {
  const WeakCorpus corpus = test_corpus(10, 0, 11);
  const WeakCorpus other = test_corpus(2, 0, 12);
  const auto hits = probe_incremental(other.moduli[0], corpus.moduli);
  EXPECT_TRUE(hits.empty());
}

TEST(IncrementalProbeTest, MultipleHitsSortedByIndex) {
  // Candidate sharing a prime with two corpus members: plant a weak pair and
  // probe with one of its members (it hits the partner AND itself).
  const WeakCorpus corpus = test_corpus(14, 1, 13);
  const auto& weak = corpus.weak[0];
  const auto hits = probe_incremental(corpus.moduli[weak.first], corpus.moduli);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].corpus_index, weak.first);
  EXPECT_EQ(hits[0].factor, corpus.moduli[weak.first]);  // itself
  EXPECT_EQ(hits[1].corpus_index, weak.second);
  EXPECT_EQ(hits[1].factor, weak.shared_prime);
}

TEST(IncrementalProbeTest, EmptyCorpusAndZeroCandidate) {
  EXPECT_TRUE(probe_incremental(BigInt(15), {}).empty());
  const WeakCorpus corpus = test_corpus(4, 0, 14);
  EXPECT_TRUE(probe_incremental(BigInt(), corpus.moduli).empty());
}

TEST(IncrementalProbeTest, AgreesWithFullSweepAfterAppend) {
  // Appending the candidate and re-running the full sweep must find exactly
  // the incremental hits (restricted to pairs involving the candidate).
  WeakCorpus corpus = test_corpus(10, 1, 15);
  const auto& weak = corpus.weak[0];
  // Candidate: the planted shared prime times a fresh 64-bit partner, so it
  // collides with both members of the weak pair.
  Xoshiro256 rng(77);
  const mp::BigInt partner = rsa::random_prime(rng, 64);
  const mp::BigInt cand = weak.shared_prime * partner;

  const auto inc = probe_incremental(cand, corpus.moduli);
  ASSERT_EQ(inc.size(), 2u);  // both members of the planted weak pair
  EXPECT_EQ(inc[0].corpus_index, weak.first);
  EXPECT_EQ(inc[1].corpus_index, weak.second);
  EXPECT_EQ(inc[0].factor, weak.shared_prime);

  std::vector<mp::BigInt> extended = corpus.moduli;
  extended.push_back(cand);
  const auto sweep = all_pairs_gcd(extended);
  std::size_t candidate_hits = 0;
  for (const auto& hit : sweep.hits) {
    if (hit.j == extended.size() - 1) ++candidate_hits;
  }
  EXPECT_EQ(candidate_hits, inc.size());
}

TEST(IncrementalProbeTest, DifferentialAcrossBackendsAndThreadCounts) {
  // The probe path must honor the all_pairs_gcd thread-placement contract
  // (regression: it used to run on the global pool regardless of
  // pool_threads) and return identical hits AND bit-identical engine
  // statistics on every backend × thread-count combination. SimtStats are
  // per-block sums, so partitioning blocks across workers must not change
  // any total. Mixed-size corpus: the per-pair early-terminate threshold
  // must hold on heterogeneous harvests.
  Xoshiro256 rng(6161);
  const BigInt shared = rsa::random_prime(rng, 128);
  std::vector<BigInt> corpus;
  corpus.push_back(shared * rsa::random_prime(rng, 128));  // weak, 256-bit
  for (int k = 0; k < 2; ++k) {  // small bystanders (192-bit)
    corpus.push_back(rsa::random_prime(rng, 96) * rsa::random_prime(rng, 96));
  }
  for (int k = 0; k < 2; ++k) {  // large bystanders (256-bit)
    corpus.push_back(rsa::random_prime(rng, 128) * rsa::random_prime(rng, 128));
  }
  corpus.push_back(shared * rsa::random_prime(rng, 128));  // weak, 256-bit
  for (int k = 0; k < 3; ++k) {
    corpus.push_back(rsa::random_prime(rng, 96) * rsa::random_prime(rng, 96));
  }
  const BigInt candidate = shared * rsa::random_prime(rng, 128);

  AllPairsConfig base;
  base.engine = Engine::kStaged;
  base.group_size = 3;  // several blocks, so thread partitioning matters
  base.warp_width = 4;
  base.pool_threads = 1;
  ProbeStats ref_stats;
  const auto ref_hits = probe_incremental(candidate, corpus, base, &ref_stats);
  ASSERT_EQ(ref_hits.size(), 2u);
  EXPECT_EQ(ref_hits[0].corpus_index, 0u);
  EXPECT_EQ(ref_hits[1].corpus_index, 5u);
  EXPECT_EQ(ref_hits[0].factor, shared);
  EXPECT_EQ(ref_stats.pairs_tested, corpus.size());

  for (const auto engine : {Engine::kStaged, Engine::kVector}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(2)}) {
      AllPairsConfig config = base;
      config.engine = engine;
      config.pool_threads = threads;
      ProbeStats stats;
      const auto hits = probe_incremental(candidate, corpus, config, &stats);
      const std::string label = std::string("engine ") + to_string(engine) +
                                " threads " + std::to_string(threads);
      ASSERT_EQ(hits.size(), ref_hits.size()) << label;
      for (std::size_t k = 0; k < hits.size(); ++k) {
        EXPECT_EQ(hits[k].corpus_index, ref_hits[k].corpus_index) << label;
        EXPECT_EQ(hits[k].factor, ref_hits[k].factor) << label;
        EXPECT_EQ(hits[k].full_modulus, ref_hits[k].full_modulus) << label;
      }
      EXPECT_EQ(stats.pairs_tested, ref_stats.pairs_tested) << label;
      EXPECT_EQ(stats.simt, ref_stats.simt) << label;
    }
  }
}

TEST(IncrementalProbeTest, StagedCorpusOverloadMatchesSpanOverload) {
  // The StagedCorpus overload is the intake service's fast path: the corpus
  // is staged once and grown in place instead of being re-staged per probe.
  // Its hits and probe statistics must be bit-identical to the span overload
  // over the same moduli, on every engine, including after a mid-stream
  // capacity re-stage (the 384-bit append below outsizes the seed panels).
  // A staged corpus smaller than its group size keeps its own lane count
  // (the span overload clamps r to the corpus) and finds the same hits.
  Xoshiro256 rng(7272);
  const BigInt shared = rsa::random_prime(rng, 64);
  std::vector<BigInt> corpus;
  corpus.push_back(shared * rsa::random_prime(rng, 64));
  for (int k = 0; k < 3; ++k) {
    corpus.push_back(rsa::random_prime(rng, 64) * rsa::random_prime(rng, 64));
  }
  StagedCorpus staged(corpus, 3);
  // Grow past the seed: a jumbo key (forces panel re-staging) and a second
  // planted collision, appended exactly as the worker folds arrivals.
  corpus.push_back(rsa::random_prime(rng, 192) * rsa::random_prime(rng, 192));
  corpus.push_back(shared * rsa::random_prime(rng, 96));
  staged.append(corpus[4]);
  staged.append(corpus[5]);
  const BigInt candidate = shared * rsa::random_prime(rng, 64);
  const std::span<const BigInt> small_span(corpus.data(), 2);
  const StagedCorpus small(small_span, 3);
  ASSERT_EQ(small.group_size(), 3u);

  for (const auto engine :
       {Engine::kStaged, Engine::kVector, Engine::kScalar}) {
    AllPairsConfig config;
    config.engine = engine;
    config.group_size = 3;
    config.warp_width = 4;
    ProbeStats span_stats;
    const auto span_hits =
        probe_incremental(candidate, corpus, config, &span_stats);
    ProbeStats staged_stats;
    const auto staged_hits =
        probe_incremental(candidate, staged, config, &staged_stats);
    const std::string label = std::string("engine ") + to_string(engine);
    ASSERT_EQ(staged_hits.size(), span_hits.size()) << label;
    for (std::size_t k = 0; k < span_hits.size(); ++k) {
      EXPECT_EQ(staged_hits[k].corpus_index, span_hits[k].corpus_index)
          << label;
      EXPECT_EQ(staged_hits[k].factor, span_hits[k].factor) << label;
      EXPECT_EQ(staged_hits[k].full_modulus, span_hits[k].full_modulus)
          << label;
    }
    EXPECT_EQ(staged_stats.pairs_tested, span_stats.pairs_tested) << label;
    EXPECT_EQ(staged_stats.simt, span_stats.simt) << label;
    EXPECT_EQ(staged_stats.scalar, span_stats.scalar) << label;
    ASSERT_EQ(span_hits.size(), 2u) << label;
    EXPECT_EQ(span_hits[0].corpus_index, 0u) << label;
    EXPECT_EQ(span_hits[1].corpus_index, 5u) << label;
    EXPECT_EQ(span_hits[0].factor, shared) << label;

    ProbeStats small_stats;
    const auto small_hits =
        probe_incremental(candidate, small, config, &small_stats);
    ProbeStats small_span_stats;
    const auto small_span_hits =
        probe_incremental(candidate, small_span, config, &small_span_stats);
    EXPECT_EQ(small_stats.pairs_tested, 2u) << label;
    EXPECT_EQ(small_span_stats.pairs_tested, 2u) << label;
    ASSERT_EQ(small_hits.size(), 1u) << label;
    ASSERT_EQ(small_span_hits.size(), 1u) << label;
    EXPECT_EQ(small_hits[0].corpus_index, 0u) << label;
    EXPECT_EQ(small_hits[0].factor, shared) << label;
    EXPECT_EQ(small_span_hits[0].corpus_index, 0u) << label;
    EXPECT_EQ(small_span_hits[0].factor, shared) << label;
    EXPECT_EQ(small_hits[0].full_modulus, small_span_hits[0].full_modulus)
        << label;
  }
}

TEST(IncrementalProbeTest, ScalarDifferentialAcrossThreadCounts) {
  const WeakCorpus corpus = test_corpus(17, 2, 16);  // not a block multiple
  const auto& weak = corpus.weak[0];
  AllPairsConfig config;
  config.variant = gcd::Variant::kApproximate;  // swaps are (E)'s counter
  config.engine = Engine::kScalar;
  config.group_size = 4;
  config.pool_threads = 1;
  ProbeStats ref_stats;
  const auto ref_hits = probe_incremental(corpus.moduli[weak.first],
                                          corpus.moduli, config, &ref_stats);
  EXPECT_EQ(ref_stats.pairs_tested, corpus.moduli.size());
  EXPECT_GT(ref_stats.scalar.iterations, 0u);
  for (const std::size_t threads : {std::size_t(0), std::size_t(2)}) {
    config.pool_threads = threads;
    ProbeStats stats;
    const auto hits = probe_incremental(corpus.moduli[weak.first],
                                        corpus.moduli, config, &stats);
    ASSERT_EQ(hits.size(), ref_hits.size()) << "threads " << threads;
    for (std::size_t k = 0; k < hits.size(); ++k) {
      EXPECT_EQ(hits[k].corpus_index, ref_hits[k].corpus_index);
      EXPECT_EQ(hits[k].factor, ref_hits[k].factor);
    }
    EXPECT_EQ(stats.pairs_tested, ref_stats.pairs_tested);
    EXPECT_EQ(stats.scalar.iterations, ref_stats.scalar.iterations);
    EXPECT_EQ(stats.scalar.swaps, ref_stats.scalar.swaps);
  }
}

TEST(IncrementalProbeTest, StatsFoldIntoRegistryCounters) {
  // Regression: probe_incremental never called fold_engine_stats, so the
  // simt_*/gcd_* counters stayed at zero while all_pairs_gcd fed them —
  // telemetry silently undercounted all streamed work. Counter totals must
  // exactly equal the returned ProbeStats, on both engines.
  const WeakCorpus corpus = test_corpus(13, 1, 17);
  for (const auto engine : {Engine::kAuto, Engine::kScalar}) {
    obs::MetricsRegistry registry;
    AllPairsConfig config;
    config.variant = gcd::Variant::kApproximate;  // (E) feeds gcd_swaps_total
    config.engine = engine;
    config.group_size = 4;
    config.pool_threads = 2;
    config.metrics = &registry;
    ProbeStats stats;
    probe_incremental(corpus.moduli[3], corpus.moduli, config, &stats);
    const auto counter = [&](std::string_view name) {
      return registry.counter(name)->value();
    };
    if (engine != Engine::kScalar) {
      EXPECT_GT(stats.simt.lane_iterations, 0u);
      EXPECT_EQ(counter("simt_rounds_total"), stats.simt.rounds);
      EXPECT_EQ(counter("simt_warp_rounds_total"), stats.simt.warp_rounds);
      EXPECT_EQ(counter("simt_lane_iterations_total"),
                stats.simt.lane_iterations);
      EXPECT_EQ(counter("simt_lane_slots_total"), stats.simt.lane_slots);
    } else {
      EXPECT_GT(stats.scalar.iterations, 0u);
    }
    EXPECT_EQ(counter("gcd_iterations_total"),
              stats.simt.gcd.iterations + stats.scalar.iterations);
    EXPECT_EQ(counter("gcd_swaps_total"),
              stats.simt.gcd.swaps + stats.scalar.swaps);
    // A probe feeds only the engine counters: no sweep_* series.
    EXPECT_EQ(counter("sweep_pairs_total"), 0u);
  }
}

TEST(AllPairsTest, IterationHistogramCountsEveryPairOnEveryEngine) {
  // Every engine records each executed pair's iteration count into
  // sweep_iterations_per_pair (the SIMT engines from their branch traces,
  // the scalar engine from its GcdStats deltas).
  const WeakCorpus corpus = test_corpus(19, 2, 21);
  for (const auto engine : {Engine::kVector, Engine::kStaged,
                            Engine::kScalar}) {
    obs::MetricsRegistry registry;
    AllPairsConfig config;
    config.engine = engine;
    config.group_size = 4;
    config.pool_threads = 2;
    config.metrics = &registry;
    const AllPairsResult result = all_pairs_gcd(corpus.moduli, config);
    const obs::HistogramMetric* hist =
        registry.histogram("sweep_iterations_per_pair", 0.0, 4096.0, 128);
    EXPECT_EQ(result.pairs_tested, corpus.moduli.size() *
                                       (corpus.moduli.size() - 1) / 2);
    EXPECT_EQ(hist->count(), result.pairs_tested) << to_string(engine);
  }
}

// ---- the Divsteps default against Approximate Euclidean and GMP ----------

/// A prime of exactly `bits` bits (GMP's nextprime from a random start).
BigInt prime_of(Xoshiro256& rng, std::size_t bits) {
  test::Mpz p = test::to_mpz(test::random_value<ScanLimb>(rng, bits));
  mpz_nextprime(p.get(), p.get());
  return test::from_mpz<ScanLimb>(p);
}

/// Every corpus shape of the Section-V verdict, as a sweep corpus: planted
/// 512-bit primes under 1024-bit moduli, unbalanced primes (400 bits: a
/// miss, 512 bits: a hit), small common factors 3 and 2^20 + 7 (misses), a
/// duplicate modulus, mixed 512/1024/2048-bit moduli with shares above and
/// below their thresholds, and the all-ones and 0x80…01 operands — among
/// random 1024-bit moduli. Returned with the indices of each shape's pair.
struct VerdictCorpus {
  std::vector<BigInt> moduli;
  std::pair<std::size_t, std::size_t> planted, unbalanced_miss,
      unbalanced_hit, small3, small20, duplicate, mixed;
};

VerdictCorpus make_verdict_corpus() {
  Xoshiro256 rng(0xd5);
  VerdictCorpus c;
  auto& m = c.moduli;
  const auto pair_sharing = [&](const BigInt& p, std::size_t xbits,
                                std::size_t ybits) {
    m.push_back(p * prime_of(rng, xbits - p.bit_length()));
    m.push_back(p * prime_of(rng, ybits - p.bit_length()));
    return std::pair{m.size() - 2, m.size() - 1};
  };
  const auto random_1024 = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      m.push_back(prime_of(rng, 512) * prime_of(rng, 512));
    }
  };
  random_1024(3);
  c.planted = pair_sharing(prime_of(rng, 512), 1024, 1024);
  random_1024(2);
  c.unbalanced_miss = pair_sharing(prime_of(rng, 400), 1024, 1024);
  c.unbalanced_hit = pair_sharing(prime_of(rng, 512), 1024, 1024);
  c.small3 = pair_sharing(BigInt(3), 1024, 1024);
  random_1024(1);
  c.small20 = pair_sharing(BigInt((1u << 20) + 7), 1024, 1024);
  m.push_back(prime_of(rng, 512) * prime_of(rng, 512));
  m.push_back(m.back());
  c.duplicate = {m.size() - 2, m.size() - 1};
  c.mixed = pair_sharing(prime_of(rng, 300), 512, 2048);
  pair_sharing(prime_of(rng, 200), 2048, 512);  // below 256: a miss
  m.push_back(prime_of(rng, 1024) * prime_of(rng, 1024));
  m.push_back(prime_of(rng, 256) * prime_of(rng, 256));
  m.push_back((BigInt(1) << 1024) - BigInt(1));
  m.push_back((BigInt(1) << 1023) + BigInt(1));
  random_1024(4);
  return c;
}

/// Built once: its primes take GMP a second.
const VerdictCorpus& verdict_corpus() {
  static const VerdictCorpus corpus = make_verdict_corpus();
  return corpus;
}

/// The Section-V hits of all pairs by GMP: gcd > 1 with at least
/// min(bits)/2 bits.
std::vector<FactorHit> gmp_hits(const std::vector<BigInt>& moduli) {
  std::vector<FactorHit> hits;
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    for (std::size_t j = i + 1; j < moduli.size(); ++j) {
      BigInt g = test::gmp_gcd(moduli[i], moduli[j]);
      const std::size_t early =
          std::min(moduli[i].bit_length(), moduli[j].bit_length()) / 2;
      if (g.bit_length() < 2 || g.bit_length() < early) continue;
      const bool full = g == moduli[i] || g == moduli[j];
      hits.push_back({i, j, std::move(g), full});
    }
  }
  return hits;
}

bool has_hit(const AllPairsResult& r, std::pair<std::size_t, std::size_t> p) {
  return std::any_of(r.hits.begin(), r.hits.end(), [&](const FactorHit& h) {
    return h.i == p.first && h.j == p.second;
  });
}

TEST(AllPairsDivstepsTest, HitsMatchApproximateAndGmpOnEveryShape) {
  const VerdictCorpus& corpus = verdict_corpus();
  const auto want = gmp_hits(corpus.moduli);
  for (const Variant variant : {Variant::kDivsteps, Variant::kApproximate}) {
    SimtStats staged_stats;
    for (const Engine engine :
         {Engine::kStaged, Engine::kVector, Engine::kScalar}) {
      SCOPED_TRACE(std::string(to_string(variant)) + " on " +
                   to_string(engine));
      AllPairsConfig config;
      config.variant = variant;
      config.engine = engine;
      config.group_size = 16;  // full W = 8 and W = 16 resident groups
      config.pool_threads = 2;
      const AllPairsResult r = all_pairs_gcd(corpus.moduli, config);
      ASSERT_EQ(r.hits.size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(r.hits[k].i, want[k].i);
        EXPECT_EQ(r.hits[k].j, want[k].j);
        EXPECT_EQ(r.hits[k].factor, want[k].factor);
        EXPECT_EQ(r.hits[k].full_modulus, want[k].full_modulus);
      }
      EXPECT_TRUE(has_hit(r, corpus.planted));
      EXPECT_FALSE(has_hit(r, corpus.unbalanced_miss));
      EXPECT_TRUE(has_hit(r, corpus.unbalanced_hit));
      EXPECT_FALSE(has_hit(r, corpus.small3));
      EXPECT_FALSE(has_hit(r, corpus.small20));
      EXPECT_TRUE(has_hit(r, corpus.duplicate));
      EXPECT_TRUE(has_hit(r, corpus.mixed));
      if (engine == Engine::kStaged) staged_stats = r.simt;
      // The vector engine's SimtStats are the staged engine's, bit for bit.
      if (engine == Engine::kVector) EXPECT_TRUE(r.simt == staged_stats);
    }
  }
}

TEST(AllPairsDivstepsTest, DefaultProbeMatchesApproximate) {
  const VerdictCorpus& corpus = verdict_corpus();
  for (const std::size_t a : {corpus.planted.first, corpus.duplicate.first,
                              corpus.mixed.first, corpus.small3.first}) {
    AllPairsConfig approx;
    approx.variant = Variant::kApproximate;
    approx.pool_threads = 1;
    const auto want =
        probe_incremental(corpus.moduli[a], corpus.moduli, approx);
    const auto got = probe_incremental(corpus.moduli[a], corpus.moduli,
                                       AllPairsConfig{});
    ASSERT_EQ(got.size(), want.size()) << a;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].corpus_index, want[k].corpus_index);
      EXPECT_EQ(got[k].factor, want[k].factor);
      EXPECT_EQ(got[k].full_modulus, want[k].full_modulus);
    }
  }
}

TEST(IncrementalProbeTest, StatsResetBetweenCalls) {
  const WeakCorpus corpus = test_corpus(8, 1, 18);
  AllPairsConfig config;
  config.pool_threads = 1;
  ProbeStats stats;
  probe_incremental(corpus.moduli[0], corpus.moduli, config, &stats);
  const std::uint64_t first = stats.pairs_tested;
  EXPECT_EQ(first, corpus.moduli.size());
  probe_incremental(corpus.moduli[0], corpus.moduli, config, &stats);
  EXPECT_EQ(stats.pairs_tested, first);  // overwritten, not accumulated
}

}  // namespace
}  // namespace bulkgcd::bulk
