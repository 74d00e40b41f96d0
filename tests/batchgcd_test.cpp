// Batch-GCD (product/remainder tree) tests: tree invariants against GMP and
// agreement with the pairwise attack on planted corpora.
#include "batchgcd/batchgcd.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "batchgcd/batch_journal.hpp"
#include "bulk/allpairs.hpp"
#include "gmp_oracle.hpp"
#include "journal_bytes.hpp"
#include "mp/newton_div.hpp"
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

/// A journal replay's 64-bit tree values as BigInt, for comparisons.
std::vector<BigInt> narrow(const std::vector<TreeInt>& values) {
  std::vector<BigInt> out;
  for (const auto& v : values) out.push_back(mp::repack<std::uint32_t>(v));
  return out;
}

/// The same values on the tree's 64-bit limbs.
std::vector<TreeInt> widen(const std::vector<BigInt>& values) {
  std::vector<TreeInt> out;
  for (const auto& v : values) out.push_back(mp::repack<std::uint64_t>(v));
  return out;
}

/// Every remainder level of the driver's descent, keyed by tree level, read
/// back from its journal one committed level at a time.
std::map<std::uint32_t, std::vector<BigInt>> journaled_remainder_levels(
    std::span<const BigInt> moduli, const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("bulkgcd_remainder_levels_" + name);
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  BatchScanConfig config;
  config.checkpoint = path;
  config.stop_after_levels = 1;
  std::map<std::uint32_t, std::vector<BigInt>> levels;
  for (int run = 0; run < 64; ++run) {  // bound: levels_total < 64
    if (run_resumable_batch(moduli, config).complete) break;
    BatchJournal journal(path, rsa::corpus_digest(moduli), moduli.size());
    BatchReplay replay = journal.take_replay();
    if (replay.remainder) {
      levels[replay.remainder->first] = narrow(replay.remainder->second);
    }
  }
  std::filesystem::remove(path, ignored);
  return levels;
}

/// P = Π n_i, by GMP.
test::Mpz gmp_product(std::span<const BigInt> moduli) {
  test::Mpz product(1ul);
  for (const auto& n : moduli) {
    mpz_mul(product.get(), product.get(), test::to_mpz(n).get());
  }
  return product;
}

/// (P / node) mod node by GMP: the cofactor residue the descent carries.
BigInt gmp_cofactor_residue(const test::Mpz& product, const BigInt& node) {
  const test::Mpz n = test::to_mpz(node);
  test::Mpz residue;
  mpz_divexact(residue.get(), product.get(), n.get());
  mpz_mod(residue.get(), residue.get(), n.get());
  return test::from_mpz<std::uint32_t>(residue);
}

TEST(RemainderTreeTest, LeavesAreCofactorResidues) {
  Xoshiro256 rng(123);
  std::vector<BigInt> values;
  for (int i = 0; i < 9; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 120));
  }
  const test::Mpz product = gmp_product(values);
  const auto levels = journaled_remainder_levels(values, "leaves");
  ASSERT_EQ(levels.count(0), 1u);
  const auto& residues = levels.at(0);
  ASSERT_EQ(residues.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(residues[i], gmp_cofactor_residue(product, values[i]))
        << "leaf " << i;
  }
}

TEST(RemainderTreeTest, EveryJournaledLevelIsCofactorModNode) {
  Xoshiro256 rng(125);
  std::vector<BigInt> values;
  for (int i = 0; i < 13; ++i) {  // odd count: promoted nodes at two levels
    values.push_back(random_odd<std::uint32_t>(rng, 96));
  }
  const ProductTree tree = build_product_tree(values);
  const test::Mpz product = gmp_product(values);
  const auto levels = journaled_remainder_levels(values, "every_level");
  // One record per descent step: every level but the root's.
  ASSERT_EQ(levels.size(), tree.size() - 1);
  for (const auto& [level, residues] : levels) {
    ASSERT_EQ(residues.size(), tree[level].size()) << "level " << level;
    for (std::size_t i = 0; i < residues.size(); ++i) {
      EXPECT_EQ(residues[i], gmp_cofactor_residue(product, tree[level][i]))
          << "level " << level << " node " << i;
      EXPECT_LT(residues[i], tree[level][i]);
    }
  }
}

TEST(RemainderTreeTest, PromotedNodeResidueRidesDownUnchanged) {
  // 5 leaves: leaf 4 is promoted unchanged into level 1 (5 → 3 nodes), so
  // its level-1 node is 13 itself and its residue passes down as is.
  std::vector<BigInt> values;
  for (int v : {3, 5, 7, 11, 13}) values.push_back(BigInt(unsigned(v)));
  const ProductTree tree = build_product_tree(values);
  ASSERT_EQ(tree[1].size(), 3u);
  ASSERT_EQ(tree[1][2], values[4]);  // promoted unchanged
  const auto levels = journaled_remainder_levels(values, "promoted");
  const BigInt expected = BigInt(3u * 5u * 7u * 11u % 13u);
  EXPECT_EQ(gmp_cofactor_residue(gmp_product(values), values[4]), expected);
  EXPECT_EQ(levels.at(1)[2], expected);
  EXPECT_EQ(levels.at(0)[4], expected);
}

TEST(RemainderTreeTest, SingleModulusAndSinglePair) {
  // m = 1: no descent step at all; the lone modulus's cofactor is 1.
  const std::vector<BigInt> one = {BigInt(35u)};
  EXPECT_TRUE(journaled_remainder_levels(one, "m1").empty());
  EXPECT_EQ(batch_gcd(one).gcds, std::vector<BigInt>{BigInt(1)});

  // m = 2: one step from the root, each leaf's residue is its sibling
  // reduced modulo itself.
  const std::vector<BigInt> two = {BigInt(35u), BigInt(3u * 7u * 11u)};
  const auto levels = journaled_remainder_levels(two, "m2");
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels.at(0),
            (std::vector<BigInt>{BigInt(231u % 35u), BigInt(35u)}));
  EXPECT_EQ(batch_gcd(two).gcds, (std::vector<BigInt>{BigInt(7u), BigInt(7u)}));
}

TEST(RemainderTreeTest, DuplicatedModulusHasZeroResidue) {
  // A modulus that occurs twice divides its own cofactor: residue 0 at both
  // leaves, and the gcd is the modulus itself.
  const std::vector<BigInt> values = {BigInt(3u * 5u), BigInt(7u * 11u),
                                      BigInt(7u * 11u), BigInt(13u * 17u),
                                      BigInt(19u * 23u)};
  const test::Mpz product = gmp_product(values);
  const auto levels = journaled_remainder_levels(values, "duplicate");
  ASSERT_EQ(levels.at(0).size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(levels.at(0)[i], gmp_cofactor_residue(product, values[i]))
        << "leaf " << i;
  }
  EXPECT_EQ(levels.at(0)[1], BigInt(0));
  EXPECT_EQ(levels.at(0)[2], BigInt(0));
  const BatchGcdResult result = batch_gcd(values);
  EXPECT_EQ(result.gcds[1], values[1]);
  EXPECT_EQ(result.gcds[2], values[2]);
  EXPECT_EQ(weak_indices(result), (std::vector<std::size_t>{1, 2}));
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
    out << "BGCDBTR2\x01\x02";  // our magic, torn before the digest
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

TEST_F(BatchResumeTest, RemainderLevelShapeMismatchIsRefused) {
  // A journal whose levels do not fit the corpus's tree shape is refused,
  // not descended: one residue short at the first remainder level, and in a
  // second journal one node short at the first product level.
  const auto corpus = test_corpus(8, 1, 213);
  const std::uint64_t digest = rsa::corpus_digest(corpus.moduli);
  const ProductTree tree = build_product_tree(corpus.moduli);
  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = tree.size() - 1;  // every product level
  ASSERT_FALSE(run_resumable_batch(corpus.moduli, config).complete);
  {
    BatchJournal journal(path_, digest, corpus.moduli.size());
    const std::size_t level = tree.size() - 2;
    journal.append_remainder_level(
        std::uint32_t(level),
        std::vector<TreeInt>(tree[level].size() - 1, TreeInt(1)));
  }
  EXPECT_THROW(run_resumable_batch(corpus.moduli, config), std::runtime_error);

  std::filesystem::remove(path_);
  {
    BatchJournal journal(path_, digest, corpus.moduli.size());
    journal.append_product_level(
        1, widen(std::vector<BigInt>(tree[1].begin(), tree[1].end() - 1)));
  }
  EXPECT_THROW(run_resumable_batch(corpus.moduli, config), std::runtime_error);
}

TEST_F(BatchResumeTest, ResidueNotBelowItsNodeIsRefused) {
  // Every journaled residue is reduced modulo its node. A record whose
  // residue equals its node (here: the first remainder level holding the
  // nodes themselves) was not written by this descent, and resuming from it
  // would deliver wrong gcds: the run is refused instead.
  const auto corpus = test_corpus(8, 1, 216);
  const std::uint64_t digest = rsa::corpus_digest(corpus.moduli);
  const ProductTree tree = build_product_tree(corpus.moduli);
  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = tree.size() - 1;  // every product level
  ASSERT_FALSE(run_resumable_batch(corpus.moduli, config).complete);
  const std::size_t level = tree.size() - 2;
  std::vector<TreeInt> residues(tree[level].size(), TreeInt(1));
  residues.back() = mp::repack<std::uint64_t>(tree[level].back());
  {
    BatchJournal journal(path_, digest, corpus.moduli.size());
    journal.append_remainder_level(std::uint32_t(level), residues);
  }
  const std::string before = test::slurp(path_);
  config.stop_after_levels = 0;
  EXPECT_THROW(run_resumable_batch(corpus.moduli, config), std::runtime_error);
  EXPECT_EQ(test::slurp(path_), before);
}

TEST_F(BatchResumeTest, VersionOneJournalIsRefusedByName) {
  // A BGCDBTR1 journal holds square residues P mod N², which this descent
  // cannot resume from. It is refused with an error naming both formats and
  // left as it was.
  const auto corpus = test_corpus(8, 1, 217);
  std::string v1 = "BGCDBTR1";
  test::put_le(v1, rsa::corpus_digest(corpus.moduli), 8);
  test::put_le(v1, corpus.moduli.size(), 8);
  test::spit(path_, v1);
  BatchScanConfig config;
  config.checkpoint = path_;
  try {
    run_resumable_batch(corpus.moduli, config);
    ADD_FAILURE() << "a BGCDBTR1 journal was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BGCDBTR1"), std::string::npos) << what;
    EXPECT_NE(what.find("BGCDBTR2"), std::string::npos) << what;
  }
  EXPECT_EQ(test::slurp(path_), v1);
}

/// The batch attack's answer by GMP: gcd(n_i, (P / n_i) mod n_i).
std::vector<BigInt> gmp_batch_gcds(std::span<const BigInt> moduli) {
  const test::Mpz product = gmp_product(moduli);
  std::vector<BigInt> gcds;
  for (const auto& n : moduli) {
    const test::Mpz gn = test::to_mpz(n);
    test::Mpz cofactor, g;
    mpz_divexact(cofactor.get(), product.get(), gn.get());
    mpz_mod(cofactor.get(), cofactor.get(), gn.get());
    mpz_gcd(g.get(), gn.get(), cofactor.get());
    gcds.push_back(test::from_mpz<std::uint32_t>(g));
  }
  return gcds;
}

TEST_F(BatchResumeTest, NewtonRungDescentMatchesGmpAndResumesBitIdentically) {
  // 256 random odd 1024-bit values: on the tree's 64-bit limbs the level-6
  // nodes are 1024 limbs, and the step into level 6 reduces the ~2048-limb
  // level-7 residue and the ~2048-limb product (s mod N_c) · N_d modulo
  // them, so both of its divisions take the Newton rung.
  Xoshiro256 rng(214);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 256; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 1024));
  const ProductTree tree = build_product_tree(moduli);
  ASSERT_EQ(tree.size(), 9u);
  // The step into level 6, node 0, from its parent's residue
  // s = (P / N_7[0]) mod N_7[0] = N_7[1] mod N_7[0].
  const auto wide = [](const BigInt& v) { return mp::repack<std::uint64_t>(v); };
  const TreeInt parent = wide(tree[7][1] % tree[7][0]);
  const TreeInt node = wide(tree[6][0]);
  const TreeInt product = (parent % node) * wide(tree[6][1]);
  const auto quotient_limbs = [&node](const TreeInt& dividend) {
    return dividend.size() - node.size() + 1;
  };
  ASSERT_GE(node.size(), mp::kNewtonDivThreshold);
  ASSERT_GE(quotient_limbs(parent), mp::kNewtonDivThreshold);
  ASSERT_GE(quotient_limbs(product), mp::kNewtonDivThreshold);

  // GMP oracle: the gcds, and (P / N) mod N for level 6.
  const test::Mpz root = gmp_product(moduli);
  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  std::vector<BigInt> level6;
  for (const auto& n : tree[6]) level6.push_back(gmp_cofactor_residue(root, n));

  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport reference = run_resumable_batch(moduli, config);
  ASSERT_TRUE(reference.complete);
  EXPECT_EQ(reference.result.gcds, want);
  const std::string full = test::slurp(path_);

  // The level-6 record holds the oracle's residues in the BGCDBTR2 layout.
  std::string record(1, char(2));
  test::put_le(record, 6, 4);
  test::put_le(record, level6.size(), 8);
  for (const auto& v : level6) {
    test::put_le(record, v.size(), 4);
    for (const auto limb : v.limbs()) test::put_le(record, limb, 4);
  }
  EXPECT_NE(full.find(record), std::string::npos);

  // Die right after the Newton-rung level commits (8 product levels, then
  // the steps into levels 7 and 6), resume, and finish bit-identically.
  std::filesystem::remove(path_);
  struct Killed {};
  config.level_hook = [](std::size_t done, std::size_t) {
    if (done == 10) throw Killed{};
  };
  EXPECT_THROW(run_resumable_batch(moduli, config), Killed);
  config.level_hook = nullptr;
  const BatchScanReport resumed = run_resumable_batch(moduli, config);
  ASSERT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.levels_restored, 10u);
  EXPECT_EQ(resumed.result.gcds, want);
  EXPECT_EQ(test::slurp(path_), full);
}

TEST_F(BatchResumeTest, LimbWidthEdgesMatchGmpAndResumeAfterEveryLevel) {
  // Bit lengths that are not multiples of 64 (values whose 64-bit top limb
  // is half empty), an odd count (promoted nodes at two levels) and a
  // duplicated modulus. Killed after every level and resumed, the run must
  // reach the GMP gcds and the uninterrupted journal byte for byte.
  constexpr std::size_t kBits[] = {96, 1000, 1056, 2047};
  Xoshiro256 rng(215);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 22; ++i) {
    moduli.push_back(random_odd<std::uint32_t>(rng, kBits[i % 4]));
  }
  moduli.push_back(moduli[5]);  // m = 23
  ASSERT_EQ(build_product_tree(moduli)[1].size(), 12u);  // leaf 22 promoted

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  EXPECT_EQ(want[5], moduli[5]);  // the duplicate is fully weak

  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport reference = run_resumable_batch(moduli, config);
  ASSERT_TRUE(reference.complete);
  EXPECT_EQ(reference.result.gcds, want);
  const std::string full = test::slurp(path_);

  struct Killed {};
  for (std::size_t kill = 1; kill <= reference.levels_total; ++kill) {
    SCOPED_TRACE(kill);
    std::filesystem::remove(path_);
    config.level_hook = [kill](std::size_t done, std::size_t) {
      if (done == kill) throw Killed{};
    };
    EXPECT_THROW(run_resumable_batch(moduli, config), Killed);
    config.level_hook = nullptr;
    const BatchScanReport resumed = run_resumable_batch(moduli, config);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.levels_restored, kill);
    EXPECT_EQ(resumed.result.gcds, want);
    EXPECT_EQ(test::slurp(path_), full);
  }
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
    journal.append_product_level(1, widen(level1));
    journal.append_remainder_level(1, widen(residues));
    journal.append_remainder_level(0, widen(residues));
    journal.append_gcds(widen(gcds));
  }
  BatchJournal journal(tmp, 0xfeedULL, 3);
  BatchReplay replay = journal.take_replay();
  ASSERT_EQ(replay.product_levels.size(), 1u);
  EXPECT_EQ(replay.product_levels[0].first, 1u);
  EXPECT_EQ(narrow(replay.product_levels[0].second), level1);
  ASSERT_TRUE(replay.remainder.has_value());
  EXPECT_EQ(replay.remainder->first, 0u);  // deepest restored level wins
  EXPECT_EQ(narrow(replay.remainder->second), residues);
  ASSERT_TRUE(replay.gcds.has_value());
  EXPECT_EQ(narrow(*replay.gcds), gcds);
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
  // The journal takes the tree's 64-bit values, and the expected bytes are
  // spelled from the 32-bit limbs of the same values. The 3-limb value is 2
  // limbs wide at 64 bits, its top half zero: it must still encode as 3
  // u32 limbs, with no zero top limb.
  ASSERT_EQ(mp::repack<std::uint64_t>(big).size(), 2u);
  {
    BatchJournal journal(tmp, 0x0123456789abcdefULL, 3);
    journal.append_product_level(1, widen(nodes));
    journal.append_remainder_level(0, widen(residues));
    journal.append_gcds(widen(gcds));
  }

  using test::put_le;
  std::string want = "BGCDBTR2";
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
