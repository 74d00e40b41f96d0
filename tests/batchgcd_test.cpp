// Batch-GCD (product/remainder tree) tests: tree invariants against GMP and
// agreement with the pairwise attack on planted corpora.
#include "batchgcd/batchgcd.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "batchgcd/batch_journal.hpp"
#include "bulk/allpairs.hpp"
#include "gmp_oracle.hpp"
#include "journal_bytes.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"

namespace bulkgcd::batchgcd {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::gmp_gcd;
using bulkgcd::test::random_odd;
using mp::BigInt;

TEST(ProductTreeTest, RootIsTheFullProduct) {
  Xoshiro256 rng(121);
  std::vector<BigInt> values;
  BigInt expected(1);
  for (int i = 0; i < 13; ++i) {  // odd count exercises the promoted node
    values.push_back(random_odd<std::uint32_t>(rng, 100));
    expected = expected * values.back();
  }
  const ProductTree tree = build_product_tree(values);
  EXPECT_EQ(tree.back().size(), 1u);
  EXPECT_EQ(tree.back()[0], expected);
  EXPECT_EQ(tree.front().size(), values.size());
}

TEST(ProductTreeTest, EveryParentIsProductOfChildren) {
  Xoshiro256 rng(122);
  std::vector<BigInt> values;
  for (int i = 0; i < 10; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 80));
  }
  const ProductTree tree = build_product_tree(values);
  for (std::size_t level = 0; level + 1 < tree.size(); ++level) {
    const auto& children = tree[level];
    const auto& parents = tree[level + 1];
    for (std::size_t i = 0; i < parents.size(); ++i) {
      if (2 * i + 1 < children.size()) {
        EXPECT_EQ(parents[i], children[2 * i] * children[2 * i + 1]);
      } else {
        EXPECT_EQ(parents[i], children[2 * i]);
      }
    }
  }
}

TEST(ProductTreeTest, SingleElementAndEmpty) {
  const std::vector<BigInt> one = {BigInt(17)};
  const ProductTree tree = build_product_tree(one);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0][0], BigInt(17));
  EXPECT_THROW(build_product_tree({}), std::invalid_argument);
}

TEST(RemainderTreeTest, LeavesAreRootModSquares) {
  Xoshiro256 rng(123);
  std::vector<BigInt> values;
  for (int i = 0; i < 9; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 120));
  }
  const ProductTree tree = build_product_tree(values);
  const auto residues = remainder_tree_mod_squares(tree);
  ASSERT_EQ(residues.size(), values.size());
  const BigInt& root = tree.back()[0];
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(residues[i], root % (values[i] * values[i])) << "leaf " << i;
  }
}

TEST(SquareTreeTest, EveryNodeIsTheSquareOfItsTreeNode) {
  Xoshiro256 rng(125);
  std::vector<BigInt> values;
  for (int i = 0; i < 13; ++i) {  // odd count: promoted nodes at two levels
    values.push_back(random_odd<std::uint32_t>(rng, 96));
  }
  const ProductTree tree = build_product_tree(values);
  const ProductTree squares = square_product_tree(tree);
  // Root level omitted — the descent never reduces modulo root².
  ASSERT_EQ(squares.size(), tree.size() - 1);
  for (std::size_t level = 0; level + 1 < tree.size(); ++level) {
    ASSERT_EQ(squares[level].size(), tree[level].size()) << "level " << level;
    for (std::size_t i = 0; i < tree[level].size(); ++i) {
      EXPECT_EQ(squares[level][i], tree[level][i] * tree[level][i])
          << "level " << level << " node " << i;
    }
  }
}

TEST(SquareTreeTest, PromotedChainReusesTheLeafSquare) {
  // 5 leaves: leaf 4 is promoted unchanged through level 1 (5 → 3 nodes) and
  // its level-1 copy pairs at level 2. The promoted node's square must equal
  // the leaf's square — the reuse path, not a recomputation.
  std::vector<BigInt> values;
  for (int v : {3, 5, 7, 11, 13}) values.push_back(BigInt(unsigned(v)));
  const ProductTree tree = build_product_tree(values);
  ASSERT_EQ(tree[1].size(), 3u);
  ASSERT_EQ(tree[1][2], values[4]);  // promoted unchanged
  const ProductTree squares = square_product_tree(tree);
  EXPECT_EQ(squares[1][2], squares[0][4]);
  EXPECT_EQ(squares[1][2], BigInt(169u));
}

TEST(SquareTreeTest, PrecomputedDescentMatchesConvenienceOverload) {
  Xoshiro256 rng(126);
  std::vector<BigInt> values;
  for (int i = 0; i < 11; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 110));
  }
  const ProductTree tree = build_product_tree(values);
  const ProductTree squares = square_product_tree(tree);
  EXPECT_EQ(remainder_tree_mod_squares(tree, squares),
            remainder_tree_mod_squares(tree));
}

TEST(SquareTreeTest, ShapeMismatchThrows) {
  std::vector<BigInt> values = {BigInt(3), BigInt(5), BigInt(7), BigInt(11)};
  const ProductTree tree = build_product_tree(values);
  ProductTree squares = square_product_tree(tree);
  squares[0].pop_back();
  EXPECT_THROW(remainder_tree_mod_squares(tree, squares),
               std::invalid_argument);
  EXPECT_THROW(remainder_tree_mod_squares(tree, ProductTree{}),
               std::invalid_argument);
  EXPECT_THROW(square_product_tree(ProductTree{}), std::invalid_argument);
}

TEST(BatchGcdTest, FindsExactlyThePlantedWeakModuli) {
  rsa::CorpusSpec spec;
  spec.count = 20;
  spec.modulus_bits = 128;
  spec.weak_pairs = 3;
  spec.seed = 31;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  const BatchGcdResult result = batch_gcd(corpus.moduli);
  std::set<std::size_t> expected_weak;
  for (const auto& weak : corpus.weak) {
    expected_weak.insert(weak.first);
    expected_weak.insert(weak.second);
  }
  const auto found = weak_indices(result);
  EXPECT_EQ(std::set<std::size_t>(found.begin(), found.end()), expected_weak);
  for (const auto& weak : corpus.weak) {
    EXPECT_EQ(result.gcds[weak.first], weak.shared_prime);
    EXPECT_EQ(result.gcds[weak.second], weak.shared_prime);
  }
}

TEST(BatchGcdTest, CleanCorpusYieldsAllOnes) {
  rsa::CorpusSpec spec;
  spec.count = 12;
  spec.modulus_bits = 128;
  spec.weak_pairs = 0;
  spec.seed = 32;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  EXPECT_TRUE(weak_indices(result).empty());
  for (const auto& g : result.gcds) EXPECT_EQ(g, BigInt(1));
}

TEST(BatchGcdTest, DuplicatedModulusIsFullyWeak) {
  Xoshiro256 rng(124);
  rsa::CorpusSpec spec;
  spec.count = 6;
  spec.modulus_bits = 128;
  spec.seed = 33;
  auto corpus = rsa::generate_corpus(spec);
  corpus.moduli.push_back(corpus.moduli[0]);  // duplicate key
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  // gcd(n, P/n) where n appears twice is n itself.
  EXPECT_EQ(result.gcds[0], corpus.moduli[0]);
  EXPECT_EQ(result.gcds.back(), corpus.moduli[0]);
  // Both duplicate slots are flagged unfactorable; nothing else is.
  const auto full = full_modulus_indices(result, corpus.moduli);
  EXPECT_EQ(full, (std::vector<std::size_t>{0, corpus.moduli.size() - 1}));
}

TEST(BatchGcdTest, FullModulusIndicesEmptyForProperWeakPairs) {
  rsa::CorpusSpec spec;
  spec.count = 10;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 35;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  EXPECT_FALSE(weak_indices(result).empty());
  EXPECT_TRUE(full_modulus_indices(result, corpus.moduli).empty());
}

TEST(BatchGcdTest, AgreesWithAllPairsSweep) {
  rsa::CorpusSpec spec;
  spec.count = 18;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 34;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  const BatchGcdResult batch = batch_gcd(corpus.moduli);
  const bulk::AllPairsResult pairwise = bulk::all_pairs_gcd(corpus.moduli);

  std::set<std::size_t> batch_weak;
  for (const auto i : weak_indices(batch)) batch_weak.insert(i);
  std::set<std::size_t> pairwise_weak;
  for (const auto& hit : pairwise.hits) {
    pairwise_weak.insert(hit.i);
    pairwise_weak.insert(hit.j);
  }
  EXPECT_EQ(batch_weak, pairwise_weak);
}

// ---- resumable driver + level journal --------------------------------------

class BatchResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("bulkgcd_batch_btr_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  static rsa::WeakCorpus test_corpus(std::size_t count, std::size_t weak,
                                     std::uint64_t seed) {
    rsa::CorpusSpec spec;
    spec.count = count;
    spec.modulus_bits = 128;
    spec.weak_pairs = weak;
    spec.seed = seed;
    return rsa::generate_corpus(spec);
  }

  std::filesystem::path path_;
};

TEST_F(BatchResumeTest, UncheckpointedDriverMatchesBatchGcd) {
  const auto corpus = test_corpus(21, 3, 201);
  const BatchGcdResult direct = batch_gcd(corpus.moduli);
  const BatchScanReport report = run_resumable_batch(corpus.moduli);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.levels_restored, 0u);
  EXPECT_EQ(report.levels_done, report.levels_total);
  EXPECT_EQ(report.result.gcds, direct.gcds);
}

TEST_F(BatchResumeTest, LevelsTotalCountsBothTreePassesPlusGcds) {
  // 21 leaves → product levels of 11, 6, 3, 2, 1 nodes (5 pairings), the
  // same 5 descent steps, plus the final gcds vector.
  const auto corpus = test_corpus(21, 0, 202);
  const BatchScanReport report = run_resumable_batch(corpus.moduli);
  EXPECT_EQ(report.levels_total, 11u);
  // Single modulus: no tree at all, just the (trivial) gcds level.
  const std::vector<BigInt> one = {corpus.moduli[0]};
  const BatchScanReport tiny = run_resumable_batch(one);
  EXPECT_TRUE(tiny.complete);
  EXPECT_EQ(tiny.levels_total, 1u);
  EXPECT_EQ(tiny.result.gcds, std::vector<BigInt>{BigInt(1)});
}

TEST_F(BatchResumeTest, SingleLevelSlicesReachTheSameGcds) {
  const auto corpus = test_corpus(19, 2, 203);
  const BatchGcdResult direct = batch_gcd(corpus.moduli);

  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 1;
  std::uint64_t total_done = 0;
  BatchScanReport report;
  for (int run = 0; run < 64; ++run) {  // bound: levels_total < 64
    report = run_resumable_batch(corpus.moduli, config);
    total_done += report.levels_done;
    if (run == 0) EXPECT_FALSE(report.resumed);
    if (report.complete) break;
    EXPECT_EQ(report.levels_done, 1u);
    EXPECT_TRUE(report.result.gcds.empty());
  }
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(total_done, report.levels_total);
  EXPECT_EQ(report.levels_restored + report.levels_done, report.levels_total);
  EXPECT_EQ(report.result.gcds, direct.gcds);
}

TEST_F(BatchResumeTest, CompletedJournalReplaysWithoutRecompute) {
  const auto corpus = test_corpus(14, 2, 204);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport first = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(first.complete);

  const BatchScanReport replay = run_resumable_batch(corpus.moduli, config);
  EXPECT_TRUE(replay.complete);
  EXPECT_TRUE(replay.resumed);
  EXPECT_EQ(replay.levels_done, 0u);
  EXPECT_EQ(replay.levels_restored, replay.levels_total);
  EXPECT_EQ(replay.result.gcds, first.result.gcds);
}

TEST_F(BatchResumeTest, TornTailIsTruncatedAndRecomputed) {
  const auto corpus = test_corpus(16, 2, 205);
  const BatchGcdResult direct = batch_gcd(corpus.moduli);

  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 3;
  ASSERT_FALSE(run_resumable_batch(corpus.moduli, config).complete);

  // Simulate a crash mid-write: a partial record (a valid kind byte, then
  // garbage shorter than its own length fields claim) at the tail.
  const auto intact_size = std::filesystem::file_size(path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.put(char(1));  // product-record kind
    out.write("\x07\x00\x00\x00torn", 8);
  }
  ASSERT_GT(std::filesystem::file_size(path_), intact_size);

  config.stop_after_levels = 0;
  const BatchScanReport resumed = run_resumable_batch(corpus.moduli, config);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.levels_restored, 3u);
  EXPECT_EQ(resumed.result.gcds, direct.gcds);
}

TEST_F(BatchResumeTest, JournalForADifferentCorpusIsRefused) {
  const auto corpus_a = test_corpus(12, 1, 206);
  const auto corpus_b = test_corpus(12, 1, 207);
  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 2;
  ASSERT_FALSE(run_resumable_batch(corpus_a.moduli, config).complete);
  // Same count, different moduli: the digest must catch it.
  EXPECT_THROW(run_resumable_batch(corpus_b.moduli, config),
               std::runtime_error);
  // Different count too.
  const std::vector<BigInt> truncated(corpus_a.moduli.begin(),
                                      corpus_a.moduli.end() - 1);
  EXPECT_THROW(run_resumable_batch(truncated, config), std::runtime_error);
  // The original corpus still resumes fine.
  config.stop_after_levels = 0;
  EXPECT_TRUE(run_resumable_batch(corpus_a.moduli, config).complete);
}

TEST_F(BatchResumeTest, ForeignFileIsRefusedNotTruncated) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a batch journal, long enough to pass the header";
  }
  const auto corpus = test_corpus(8, 1, 208);
  BatchScanConfig config;
  config.checkpoint = path_;
  EXPECT_THROW(run_resumable_batch(corpus.moduli, config), std::runtime_error);
  // Refusal must not have clobbered the file.
  EXPECT_GT(std::filesystem::file_size(path_), 0u);
}

TEST_F(BatchResumeTest, TornHeaderIsRecreatedFresh) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "BGCDBTR1\x01\x02";  // our magic, torn before the digest
  }
  const auto corpus = test_corpus(8, 1, 209);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.resumed);
}

TEST_F(BatchResumeTest, EveryTruncationPointResumesToTheSameResult) {
  // Cut a complete journal at every byte and resume: a cut inside the
  // header starts fresh, any other cut keeps its whole level records and
  // recomputes the rest. Each resume reaches the uninterrupted gcds and
  // rewrites the uninterrupted file byte for byte.
  const auto corpus = test_corpus(8, 1, 212);
  BatchScanConfig config;
  config.checkpoint = path_;
  config.fsync_every = 1000;
  const BatchScanReport reference = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(reference.complete);
  const std::string full = test::slurp(path_);
  const std::uint64_t digest = rsa::corpus_digest(corpus.moduli);
  constexpr std::size_t kHeader = 24;

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(cut);
    test::spit(path_, full.substr(0, cut));
    {
      BatchJournal journal(path_, digest, corpus.moduli.size(), 1000);
      const auto kept = std::filesystem::file_size(path_);
      if (cut < kHeader) {
        EXPECT_EQ(kept, kHeader);
      } else {
        EXPECT_LE(kept, cut);
      }
    }
    const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.levels_restored + report.levels_done,
              reference.levels_total);
    EXPECT_EQ(report.result.gcds, reference.result.gcds);
    ASSERT_EQ(test::slurp(path_), full);
  }
}

TEST_F(BatchResumeTest, LevelHookSeesEveryCommittedLevel) {
  const auto corpus = test_corpus(10, 1, 210);
  BatchScanConfig config;
  config.checkpoint = path_;
  std::vector<std::size_t> seen;
  std::size_t reported_total = 0;
  config.level_hook = [&](std::size_t done, std::size_t total) {
    seen.push_back(done);
    reported_total = total;
  };
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  EXPECT_EQ(reported_total, report.levels_total);
  ASSERT_EQ(seen.size(), report.levels_total);
  for (std::size_t k = 0; k < seen.size(); ++k) EXPECT_EQ(seen[k], k + 1);
}

TEST_F(BatchResumeTest, MetricsCoverTheBatchPath) {
  const auto corpus = test_corpus(15, 2, 211);
  obs::MetricsRegistry registry;
  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 2;
  config.metrics = &registry;
  ASSERT_FALSE(run_resumable_batch(corpus.moduli, config).complete);
  config.stop_after_levels = 0;
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(report.complete);

  const obs::Snapshot snap = registry.snapshot();
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  // Both runs together commit every level exactly once; the second run also
  // restores the first run's two levels.
  EXPECT_EQ(counter("batchgcd_levels_committed_total"), report.levels_total);
  EXPECT_EQ(counter("batchgcd_levels_restored_total"), 2u);
  EXPECT_EQ(counter("batchgcd_gcds_total"), corpus.moduli.size());
  EXPECT_EQ(counter("batchgcd_weak_total"),
            weak_indices(report.result).size());
  EXPECT_GT(counter("batchgcd_product_nodes_total"), 0u);
  EXPECT_GT(counter("batchgcd_remainder_nodes_total"), 0u);
  bool found_gauge = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "batchgcd_progress_ratio") {
      found_gauge = true;
      EXPECT_DOUBLE_EQ(g.value, 1.0);
    }
  }
  EXPECT_TRUE(found_gauge);
  bool found_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "batchgcd_level_seconds") {
      found_hist = true;
      EXPECT_EQ(h.count, report.levels_total);
    }
  }
  EXPECT_TRUE(found_hist);
}

TEST(BatchJournalTest, ReplayRoundTripsAllRecordKinds) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   "bulkgcd_batch_journal_roundtrip";
  std::error_code ignored;
  std::filesystem::remove(tmp, ignored);

  const std::vector<BigInt> level1 = {BigInt(0x123456789abcULL), BigInt(0)};
  const std::vector<BigInt> residues = {BigInt(7), BigInt(11), BigInt(13)};
  const std::vector<BigInt> gcds = {BigInt(1), BigInt(1), BigInt(17)};
  {
    BatchJournal journal(tmp, /*corpus_digest=*/0xfeedULL,
                         /*corpus_count=*/3);
    journal.append_product_level(1, level1);
    journal.append_remainder_level(1, residues);
    journal.append_remainder_level(0, residues);
    journal.append_gcds(gcds);
  }
  BatchJournal journal(tmp, 0xfeedULL, 3);
  BatchReplay replay = journal.take_replay();
  ASSERT_EQ(replay.product_levels.size(), 1u);
  EXPECT_EQ(replay.product_levels[0].first, 1u);
  EXPECT_EQ(replay.product_levels[0].second, level1);
  ASSERT_TRUE(replay.remainder.has_value());
  EXPECT_EQ(replay.remainder->first, 0u);  // deepest restored level wins
  EXPECT_EQ(replay.remainder->second, residues);
  ASSERT_TRUE(replay.gcds.has_value());
  EXPECT_EQ(*replay.gcds, gcds);
  std::filesystem::remove(tmp, ignored);
}

TEST(BatchJournalTest, BytesMatchTheDocumentedFormat) {
  // Encode the header and one record of each kind by hand from
  // docs/BATCHGCD.md and compare with what the journal wrote.
  const auto tmp = std::filesystem::temp_directory_path() /
                   "bulkgcd_batch_journal_format";
  std::error_code ignored;
  std::filesystem::remove(tmp, ignored);
  const BigInt big = BigInt::from_hex("123456789abcdef0fedcba98");
  const std::vector<BigInt> nodes = {big, BigInt(0)};
  const std::vector<BigInt> residues = {BigInt(7)};
  const std::vector<BigInt> gcds = {BigInt(1), BigInt(0x11)};
  {
    BatchJournal journal(tmp, 0x0123456789abcdefULL, 3);
    journal.append_product_level(1, nodes);
    journal.append_remainder_level(0, residues);
    journal.append_gcds(gcds);
  }

  using test::put_le;
  std::string want = "BGCDBTR1";
  put_le(want, 0x0123456789abcdefULL, 8);
  put_le(want, 3, 8);
  const auto put_values = [&](const std::vector<BigInt>& values) {
    put_le(want, values.size(), 8);
    for (const auto& v : values) {
      put_le(want, v.size(), 4);
      for (const auto limb : v.limbs()) put_le(want, limb, 4);
    }
  };
  want.push_back(char(1));  // product
  put_le(want, 1, 4);
  put_values(nodes);
  want.push_back(char(2));  // remainder
  put_le(want, 0, 4);
  put_values(residues);
  want.push_back(char(3));  // gcds: no level field
  put_values(gcds);
  // The limb encoding spelled out once: 3 limbs of 0x123456789abcdef0fedcba98.
  EXPECT_EQ(want.substr(24 + 1 + 4 + 8, 16),
            std::string("\x03\0\0\0\x98\xba\xdc\xfe\xf0\xde\xbc\x9a"
                        "\x78\x56\x34\x12",
                        16));

  EXPECT_EQ(test::slurp(tmp), want);
  std::filesystem::remove(tmp, ignored);
}

}  // namespace
}  // namespace bulkgcd::batchgcd
