// Batch-GCD (product/remainder tree) tests: tree invariants against GMP and
// agreement with the pairwise attack on planted corpora.
#include "batchgcd/batchgcd.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "batchgcd/batch_journal.hpp"
#include "core/thread_pool.hpp"
#include "batchgcd/fraction.hpp"
#include "bulk/allpairs.hpp"
#include "gmp_oracle.hpp"
#include "journal_bytes.hpp"
#include "mp/newton_div.hpp"
#include "mp/ntt.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"
#include "rsa/prime.hpp"

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

/// Every descent record of the driver, keyed by tree level, read back from
/// its journal one committed level at a time.
std::map<std::uint32_t, DescentLevel> journaled_descent(std::span<const BigInt> moduli,
                                                        const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("bulkgcd_remainder_levels_" + name);
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  BatchScanConfig config;
  config.checkpoint = path;
  config.stop_after_levels = 1;
  std::map<std::uint32_t, DescentLevel> levels;
  for (int run = 0; run < 64; ++run) {  // bound: levels_total < 64
    if (run_resumable_batch(moduli, config).complete) break;
    BatchJournal journal(path, rsa::corpus_digest(moduli), moduli.size());
    BatchReplay replay = journal.take_replay();
    if (replay.remainder) levels[replay.remainder->level] = std::move(*replay.remainder);
  }
  std::filesystem::remove(path, ignored);
  return levels;
}

/// The descent's residue levels, for a tree too small to carry fractions.
std::map<std::uint32_t, std::vector<BigInt>> journaled_remainder_levels(
    std::span<const BigInt> moduli, const std::string& name) {
  std::map<std::uint32_t, std::vector<BigInt>> levels;
  for (const auto& [level, record] : journaled_descent(moduli, name)) {
    EXPECT_FALSE(record.fractions) << "level " << level;
    levels[level] = narrow(record.values);
  }
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

  /// Stops the checkpointed run after every level in turn and resumes it:
  /// each resume must reach `want` and the uninterrupted journal byte for
  /// byte.
  void expect_every_stop_resumes(std::span<const BigInt> moduli,
                                 const std::vector<BigInt>& want) {
    BatchScanConfig config;
    config.checkpoint = path_;
    std::filesystem::remove(path_);
    const BatchScanReport reference = run_resumable_batch(moduli, config);
    ASSERT_TRUE(reference.complete);
    EXPECT_EQ(reference.result.gcds, want);
    const std::string full = test::slurp(path_);
    for (std::size_t stop = 1; stop < reference.levels_total; ++stop) {
      SCOPED_TRACE(stop);
      std::filesystem::remove(path_);
      config.stop_after_levels = stop;
      const BatchScanReport first = run_resumable_batch(moduli, config);
      ASSERT_FALSE(first.complete);
      ASSERT_EQ(first.levels_done, stop);
      config.stop_after_levels = 0;
      const BatchScanReport resumed = run_resumable_batch(moduli, config);
      ASSERT_TRUE(resumed.complete);
      EXPECT_EQ(resumed.levels_restored, stop);
      EXPECT_EQ(resumed.result.gcds, want);
      EXPECT_EQ(test::slurp(path_), full);
    }
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
  // 21 leaves → product levels of 11, 6, 3 and 2 nodes (the root, a fifth
  // pairing, is never computed), 5 descent steps from the root's children
  // to the leaves, plus the final gcds vector.
  const auto corpus = test_corpus(21, 0, 202);
  const BatchScanReport report = run_resumable_batch(corpus.moduli);
  EXPECT_EQ(report.levels_total, 10u);
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
    out << "BGCDBTR3\x01\x02";  // our magic, torn before the digest
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
  config.stop_after_levels = tree.size() - 2;  // every product level
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
  config.stop_after_levels = tree.size() - 2;  // every product level
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

TEST_F(BatchResumeTest, OlderJournalVersionsAreRefusedByName) {
  // A BGCDBTR1 journal holds square residues P mod N², and a BGCDBTR2 one
  // cofactor residues at every level and the root product: this descent
  // resumes from neither. Each is refused with an error naming both
  // formats and left as it was.
  const auto corpus = test_corpus(8, 1, 217);
  for (const std::string magic : {"BGCDBTR1", "BGCDBTR2"}) {
    SCOPED_TRACE(magic);
    std::string old = magic;
    test::put_le(old, rsa::corpus_digest(corpus.moduli), 8);
    test::put_le(old, corpus.moduli.size(), 8);
    test::spit(path_, old);
    BatchScanConfig config;
    config.checkpoint = path_;
    try {
      run_resumable_batch(corpus.moduli, config);
      ADD_FAILURE() << "a " << magic << " journal was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(magic), std::string::npos) << what;
      EXPECT_NE(what.find("BGCDBTR3"), std::string::npos) << what;
    }
    EXPECT_EQ(test::slurp(path_), old);
  }
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

/// ⌊P·β^p / N²⌋ mod β^p by GMP (β = 2^64): a node's exact scaled
/// fraction, which its fraction record holds to within its error bound.
test::Mpz gmp_fraction(const test::Mpz& product, const BigInt& node, std::size_t p) {
  const test::Mpz n = test::to_mpz(node);
  test::Mpz square, scaled, fraction;
  mpz_mul(square.get(), n.get(), n.get());
  mpz_mul_2exp(scaled.get(), product.get(), 64 * p);
  mpz_fdiv_q(fraction.get(), scaled.get(), square.get());
  mpz_fdiv_r_2exp(fraction.get(), fraction.get(), 64 * p);
  return fraction;
}

/// Whether `held` is within `ulps` of `exact` modulo β^p.
bool fraction_within(const TreeInt& held, const test::Mpz& exact, std::size_t p,
                     std::uint64_t ulps) {
  test::Mpz up = test::to_mpz(held), down;
  mpz_sub(up.get(), up.get(), exact.get());
  mpz_fdiv_r_2exp(up.get(), up.get(), 64 * p);  // held − exact, in [0, β^p)
  mpz_setbit(down.get(), 64 * p);
  mpz_sub(down.get(), down.get(), up.get());  // exact − held
  return mpz_cmp_ui(up.get(), ulps) <= 0 || mpz_cmp_ui(down.get(), ulps) <= 0;
}

/// The descent's plan for `moduli`: the product levels below the root on
/// 64-bit limbs, the lowest fraction level (0: none), the first descent
/// level and each fraction level's precision.
struct DescentShape {
  std::vector<std::vector<TreeInt>> tree;
  std::size_t lowest_fraction = 0;
  std::size_t first = 0;
  std::vector<std::vector<std::size_t>> precision;

  explicit DescentShape(std::span<const BigInt> moduli) {
    ProductTree narrow_tree = build_product_tree(moduli);
    if (narrow_tree.size() > 1) narrow_tree.pop_back();  // the root
    for (const auto& level : narrow_tree) tree.push_back(widen(level));
    lowest_fraction = lowest_fraction_level(tree[0]);
    const std::size_t top = tree.size() - 1;
    first = lowest_fraction != 0 ? top - 1 : top;
    if (lowest_fraction != 0) precision = fraction_precision(tree, lowest_fraction - 1);
  }
};

/// Reads every descent record of `moduli`'s journal one committed level at
/// a time and checks it against GMP: a fraction within fraction_ulps of
/// ⌊P·β^p / N²⌋ mod β^p at its node's precision, a residue exactly
/// (P / N) mod N. Returns the number of fraction records.
std::size_t expect_descent_matches_gmp(std::span<const BigInt> moduli,
                                       const std::string& name) {
  const DescentShape shape(moduli);
  const test::Mpz product = gmp_product(moduli);
  const auto records = journaled_descent(moduli, name);
  EXPECT_EQ(records.size(), moduli.size() > 1 ? shape.first + 1 : 0u);
  std::size_t fraction_records = 0;
  for (const auto& [level, record] : records) {
    SCOPED_TRACE(::testing::Message() << "level " << level);
    const bool fractions = shape.lowest_fraction != 0 && level >= shape.lowest_fraction;
    EXPECT_EQ(record.fractions, fractions);
    const auto& nodes = shape.tree[level];
    EXPECT_EQ(record.values.size(), nodes.size());
    if (record.values.size() != nodes.size()) continue;
    fraction_records += fractions ? 1 : 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const BigInt node = mp::repack<std::uint32_t>(nodes[i]);
      if (!fractions) {
        EXPECT_EQ(mp::repack<std::uint32_t>(record.values[i]),
                  gmp_cofactor_residue(product, node))
            << "node " << i;
        continue;
      }
      const std::size_t p = shape.precision[level][i];
      EXPECT_LE(record.values[i].size(), p) << "node " << i;
      EXPECT_TRUE(fraction_within(record.values[i], gmp_fraction(product, node, p), p,
                                  fraction_ulps(shape.first - level)))
          << "node " << i;
    }
  }
  return fraction_records;
}

TEST_F(BatchResumeTest, NewtonRungDescentMatchesGmpAndResumesBitIdentically) {
  // 256 random odd 1024-bit values: on the tree's 64-bit limbs the root's
  // children are 2048 words and their children, the entry level 6, 1024
  // words. Each entry node divides its 3072-word cofactor, shifted by its
  // precision, by itself: divisor and quotient both take the Newton rung.
  // Levels 6 and 5 carry fractions, and level 4 (256-word nodes) is the
  // exit, where the scaled fractions are rounded to exact residues.
  Xoshiro256 rng(214);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 256; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 1024));
  const DescentShape shape(moduli);
  ASSERT_EQ(shape.tree.size(), 8u);  // levels 0 … 7, the root not computed
  EXPECT_EQ(shape.first, 6u);
  EXPECT_EQ(shape.lowest_fraction, 5u);
  const TreeInt& node = shape.tree[6][0];
  const std::size_t dividend = shape.precision[6][0] + 3 * node.size();
  ASSERT_GE(node.size(), mp::kNewtonDivThreshold);
  ASSERT_GE(dividend - node.size() + 1, mp::kNewtonDivThreshold);

  // Every descent record against GMP: fractions at levels 6 and 5 within
  // their bounds, exact residues from the exit down.
  EXPECT_EQ(expect_descent_matches_gmp(moduli, "newton_rung"), 2u);

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport reference = run_resumable_batch(moduli, config);
  ASSERT_TRUE(reference.complete);
  EXPECT_EQ(reference.result.gcds, want);
  const std::string full = test::slurp(path_);

  // Die right after the entry level commits (7 product levels, then the
  // entry), and right after the exit, resume, and finish bit-identically.
  struct Killed {};
  for (const std::size_t kill : {std::size_t{8}, std::size_t{10}}) {
    SCOPED_TRACE(kill);
    std::filesystem::remove(path_);
    config.level_hook = [kill](std::size_t done, std::size_t) {
      if (done == kill) throw Killed{};
    };
    EXPECT_THROW(run_resumable_batch(moduli, config), Killed);
    config.level_hook = nullptr;
    const BatchScanReport resumed = run_resumable_batch(moduli, config);
    ASSERT_TRUE(resumed.complete);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.levels_restored, kill);
    EXPECT_EQ(resumed.result.gcds, want);
    EXPECT_EQ(test::slurp(path_), full);
  }
}

TEST_F(BatchResumeTest, SmallTreesMatchGmpAndResumeAfterEveryLevel) {
  // m = 1, 2 and 3 have no level between the leaves and the root's
  // children, so no fractions. m = 5 and m = 7 of 16384-bit values carry
  // fractions at level 1, round them at the leaves, and have promoted
  // nodes: leaf 4 up to the root's children (m = 5), leaf 6 at level 1
  // (m = 7). Every record matches GMP, and a run stopped after any level
  // resumes to the same gcds and journal bytes.
  Xoshiro256 rng(222);
  for (const std::size_t m : {1u, 2u, 3u, 5u, 7u}) {
    SCOPED_TRACE(m);
    std::vector<BigInt> moduli;
    for (std::size_t i = 0; i < m; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 16384));
    if (m == 7) moduli[3] = moduli[0] * random_odd<std::uint32_t>(rng, 64);
    EXPECT_EQ(expect_descent_matches_gmp(moduli, "small_" + std::to_string(m)),
              m >= 5 ? 1u : 0u);
    expect_every_stop_resumes(moduli, gmp_batch_gcds(moduli));
  }
}

TEST_F(BatchResumeTest, MixedSizesInAnyOrderMatchGmpAndResumeAfterEveryLevel) {
  // 250 odd values of 512, 1024 and 2048 bits in shuffled order, four
  // pairs sharing a 256-bit factor: nodes of unequal sizes at every level,
  // promoted nodes at levels 2 and 3 (125 and 63 nodes), fraction levels 5
  // and 6 above an exit at level 4, and Knuth D below it.
  constexpr std::size_t kBits[] = {512, 1024, 2048};
  Xoshiro256 rng(223);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 242; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, kBits[rng.below(3)]));
  for (int pair = 0; pair < 4; ++pair) {
    const BigInt shared = random_odd<std::uint32_t>(rng, 256);
    for (int k = 0; k < 2; ++k) {
      const BigInt n = shared * random_odd<std::uint32_t>(rng, kBits[rng.below(3)] - 256);
      moduli.insert(moduli.begin() + std::ptrdiff_t(rng.below(moduli.size() + 1)), n);
    }
  }
  const DescentShape shape(moduli);
  ASSERT_EQ(shape.tree.size(), 8u);
  EXPECT_EQ(shape.lowest_fraction, 5u);
  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  EXPECT_GE(weak_indices({want, 0.0}).size(), 8u);
  EXPECT_EQ(expect_descent_matches_gmp(moduli, "mixed"), 2u);
  expect_every_stop_resumes(moduli, want);
}

TEST(BatchGcdTest, FinalGcdsMatchGmpOnEvenDuplicateAndUnbalancedLeaves) {
  // The final gcd(n_i, s_i) runs Divsteps through gcd_general: an even
  // modulus (common powers of two with another even one), a duplicated
  // modulus (s_i = 0, so the gcd is n_i) and a 200-bit prime planted in a
  // 1024-bit and a 2048-bit modulus (operands of unequal sizes).
  Xoshiro256 rng(224);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 24; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 1024));
  moduli[3] = (random_odd<std::uint32_t>(rng, 1000) << 5);
  moduli[17] = (random_odd<std::uint32_t>(rng, 1000) << 3);
  moduli[9] = moduli[20];
  const BigInt prime = rsa::random_prime(rng, 200);
  moduli[5] = prime * random_odd<std::uint32_t>(rng, 824);
  moduli.push_back(prime * random_odd<std::uint32_t>(rng, 1848));

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  EXPECT_EQ(want[3] % BigInt(8), BigInt(0));
  EXPECT_EQ(want[9], moduli[9]);
  EXPECT_EQ(want[5] % prime, BigInt(0));
  EXPECT_EQ(batch_gcd(moduli).gcds, want);
}

TEST(BatchGcdTest, TreeInsideASaturatedPoolMatchesTheTestThreadAndGmp) {
  // 1024 random odd 1024-bit values (sharing small factors) with a planted
  // 256-bit prime: the entry's four nodes are 4096 words (a product of two
  // takes kSplitLength points), so the held transforms of their Newton
  // divisions reach kSplitLength points, and their primes fan out over the
  // pool. The gcds are the same from
  // the test thread (the workers help), from a worker while the others
  // idle (a nested call they help), and from a worker while every other
  // worker is busy (each nested call runs on its caller alone).
  Xoshiro256 rng(226);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 1024; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 1024));
  const BigInt prime = rsa::random_prime(rng, 256);
  moduli[7] = prime * random_odd<std::uint32_t>(rng, 768);
  moduli[400] = prime * random_odd<std::uint32_t>(rng, 768);
  const ProductTree tree = build_product_tree(moduli);
  const std::size_t words = (tree[tree.size() - 3][0].size() + 1) / 2;
  ASSERT_GE(std::size_t{1} << mp::ntt_detail::plan_product(words, words).lg,
            mp::ntt_detail::kSplitLength);

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  EXPECT_EQ(want[7] % prime, BigInt(0));
  EXPECT_EQ(batch_gcd(moduli).gcds, want);

  ThreadPool& pool = global_pool();
  std::vector<BigInt> nested;
  pool.submit([&] { nested = batch_gcd(moduli).gcds; }).get();
  EXPECT_EQ(nested, want);

  std::vector<BigInt> saturated;
  std::atomic<bool> done{false};
  std::vector<std::future<void>> tasks;
  tasks.push_back(pool.submit([&] {
    saturated = batch_gcd(moduli).gcds;
    done = true;
  }));
  for (std::size_t i = 1; i < pool.size(); ++i) {
    tasks.push_back(pool.submit([&] {
      while (!done) std::this_thread::yield();
    }));
  }
  for (auto& t : tasks) t.get();
  EXPECT_EQ(saturated, want);
}

TEST_F(BatchResumeTest, ResiduesAtTheEdgesRoundExactly) {
  // Leaves whose cofactor residues sit at the edges of the rounding, with
  // the fractions rounded at the leaves (level 1 is the lowest fraction
  // level): s = 1 (t just above 0), s = n − 1 (t just below 1), and s = 0
  // (t = 0) for a duplicated modulus and for a modulus whose two factors
  // both divide other moduli. The last leaf is built by CRT to give the
  // first two their residues.
  Xoshiro256 rng(224);
  const auto odd = [&](std::size_t bits) { return random_odd<std::uint32_t>(rng, bits); };
  std::vector<BigInt> moduli = {odd(8192), odd(8192), odd(16384)};
  moduli.push_back(moduli[2]);  // duplicated
  const BigInt p = odd(8192), q = odd(8192);
  moduli.push_back(p * q);        // both factors shared: s = 0, gcd = n
  moduli.push_back(p * odd(8192));
  moduli.push_back(q * odd(8192));
  // n_7 ≡ A⁻¹ (mod n_0) and n_7 ≡ −B⁻¹ (mod n_1), where A and B are the
  // products of the other leaves but n_0 and but n_1.
  const auto others = [&](std::size_t skip) {
    test::Mpz product(1ul);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      if (i != skip) mpz_mul(product.get(), product.get(), test::to_mpz(moduli[i]).get());
    }
    return product;
  };
  // Random odd values share small factors; the first two leaves drop every
  // factor they share with the rest, so that A and B are invertible.
  for (const std::size_t i : {1u, 0u}) {
    test::Mpz n = test::to_mpz(moduli[i]), rest = others(i), g;
    for (mpz_gcd(g.get(), n.get(), rest.get()); mpz_cmp_ui(g.get(), 1) != 0;
         mpz_gcd(g.get(), n.get(), rest.get())) {
      mpz_divexact(n.get(), n.get(), g.get());
    }
    moduli[i] = test::from_mpz<std::uint32_t>(n);
  }
  const test::Mpz n0 = test::to_mpz(moduli[0]), n1 = test::to_mpz(moduli[1]);
  test::Mpz a = others(0), b = others(1), modulus, residue, step;
  ASSERT_NE(mpz_invert(a.get(), a.get(), n0.get()), 0);
  ASSERT_NE(mpz_invert(b.get(), b.get(), n1.get()), 0);
  mpz_neg(b.get(), b.get());
  // residue = a + n0·((b − a)·n0⁻¹ mod n1), then + n0·n1·r for size.
  ASSERT_NE(mpz_invert(step.get(), n0.get(), n1.get()), 0);
  mpz_sub(residue.get(), b.get(), a.get());
  mpz_mul(residue.get(), residue.get(), step.get());
  mpz_mod(residue.get(), residue.get(), n1.get());
  mpz_mul(residue.get(), residue.get(), n0.get());
  mpz_add(residue.get(), residue.get(), a.get());
  mpz_mul(modulus.get(), n0.get(), n1.get());
  mpz_addmul(residue.get(), modulus.get(), test::to_mpz(odd(128)).get());
  moduli.push_back(test::from_mpz<std::uint32_t>(residue));
  ASSERT_EQ(moduli.size(), 8u);

  const test::Mpz product = gmp_product(moduli);
  EXPECT_EQ(gmp_cofactor_residue(product, moduli[0]), BigInt(1));
  EXPECT_EQ(gmp_cofactor_residue(product, moduli[1]), moduli[1] - BigInt(1));
  for (const std::size_t i : {2u, 3u, 4u}) {
    EXPECT_TRUE(gmp_cofactor_residue(product, moduli[i]).is_zero()) << i;
  }
  const DescentShape shape(moduli);
  EXPECT_EQ(shape.lowest_fraction, 1u);
  EXPECT_EQ(expect_descent_matches_gmp(moduli, "edges"), 1u);

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  EXPECT_EQ(want[2], moduli[2]);
  EXPECT_EQ(want[4], moduli[4]);
  EXPECT_EQ(full_modulus_indices({want, 0.0}, moduli), (std::vector<std::size_t>{2, 3, 4}));
  expect_every_stop_resumes(moduli, want);
}

TEST_F(BatchResumeTest, BitFlipsInAFractionRecordEndInRefusalOrTheSameGcds) {
  // A journal cut right after its one fraction record (m = 5: the entry at
  // level 1), with one bit flipped: in the record's kind, level, count and
  // limb-count fields, and one bit in every 8th limb of its values. The
  // resumed run must either refuse (a parse that drops the record and
  // recomputes it is fine too) or reach the uninterrupted gcds; it must
  // never deliver other gcds.
  Xoshiro256 rng(225);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 5; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 16384));
  moduli[3] = moduli[1] * random_odd<std::uint32_t>(rng, 64);
  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  const DescentShape shape(moduli);
  ASSERT_EQ(shape.first, 1u);
  ASSERT_EQ(shape.lowest_fraction, 1u);

  BatchScanConfig config;
  config.checkpoint = path_;
  config.fsync_every = 1000;
  config.stop_after_levels = 3;  // the product levels 1 and 2, then the entry
  ASSERT_FALSE(run_resumable_batch(moduli, config).complete);
  const std::string cut = test::slurp(path_);
  // The fraction record is the file's tail, after the product records.
  std::size_t start = 24;
  for (const std::size_t level : {1u, 2u}) {
    start += 1 + 4 + 8;
    for (const auto& v : shape.tree[level]) {
      start += 4 + 4 * mp::repack<std::uint32_t>(v).size();
    }
  }
  ASSERT_EQ(cut[start], char(4));
  std::vector<std::size_t> bits;  // bit offsets into the file
  for (std::size_t b = 0; b < 8 * (1 + 4 + 8); ++b) bits.push_back(8 * start + b);
  for (std::size_t at = start + 1 + 4 + 8, limb = 0; at < cut.size(); ++limb) {
    const std::size_t count = std::uint8_t(cut[at]) | std::size_t(std::uint8_t(cut[at + 1])) << 8;
    for (std::size_t b = 0; b < 32; ++b) bits.push_back(8 * at + b);
    for (std::size_t k = 0; k < count; k += 8, limb += 8) {
      bits.push_back(8 * (at + 4 + 4 * k) + (limb % 32));
    }
    at += 4 + 4 * count;
  }

  config.stop_after_levels = 0;
  std::size_t refused = 0, same = 0;
  for (const std::size_t bit : bits) {
    SCOPED_TRACE(bit);
    std::string flipped = cut;
    flipped[bit / 8] = char(flipped[bit / 8] ^ (1 << (bit % 8)));
    test::spit(path_, flipped);
    try {
      const BatchScanReport report = run_resumable_batch(moduli, config);
      ASSERT_TRUE(report.complete);
      ASSERT_EQ(report.result.gcds, want);
      ++same;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  EXPECT_EQ(refused + same, bits.size());
  EXPECT_GT(refused, 0u);  // most flips of a fraction's high words
  EXPECT_GT(same, 0u);     // flips of its lowest bits, and dropped records
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

TEST_F(BatchResumeTest, TransformRungTreeMatchesGmpAndResumesAfterEveryLevel) {
  // 512 odd 1024-bit values, eight pairs of them sharing a 512-bit factor.
  // On 64-bit limbs the root is 8192 limbs: its product and the top levels'
  // products and Newton blocks take the transform rung. Stopped after
  // every level and resumed, the run reaches the GMP gcds and the
  // uninterrupted journal byte for byte.
  Xoshiro256 rng(216);
  std::vector<BigInt> moduli;
  for (int i = 0; i < 496; ++i) moduli.push_back(random_odd<std::uint32_t>(rng, 1024));
  std::vector<BigInt> shared_factors;
  for (int pair = 0; pair < 8; ++pair) {
    const BigInt& shared =
        shared_factors.emplace_back(random_odd<std::uint32_t>(rng, 512));
    for (int k = 0; k < 2; ++k) {
      moduli.insert(moduli.begin() + std::ptrdiff_t(rng.below(moduli.size() + 1)),
                    shared * random_odd<std::uint32_t>(rng, 512));
    }
  }
  const ProductTree tree = build_product_tree(moduli);
  const TreeInt top = mp::repack<std::uint64_t>(tree[tree.size() - 2][0]);
  const std::size_t root_limbs = mp::repack<std::uint64_t>(tree.back()[0]).size();
  ASSERT_GT(root_limbs, 8150u);  // 512 values of 1023 or 1024 bits
  ASSERT_TRUE(mp::ntt_detail::transform_pays<std::uint64_t>(top.size(), top.size()));
  ASSERT_GE(top.size(), mp::kNewtonDivThreshold);

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  for (const BigInt& shared : shared_factors) {
    std::size_t carriers = 0;
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      if (!(moduli[i] % shared).is_zero()) continue;
      ++carriers;
      EXPECT_TRUE((want[i] % shared).is_zero()) << i;
    }
    EXPECT_EQ(carriers, 2u);
  }

  expect_every_stop_resumes(moduli, want);
}

TEST_F(BatchResumeTest, PowerOfTwoNodesTakeTheWrapAroundEdgeAndResume) {
  // 512 odd 1024-bit values whose two 512-bit factors have their top 16
  // bits set, eight pairs sharing a factor. Every product of 2^j values
  // then has exactly 1024·2^j bits, so on 64-bit limbs the nodes of level j
  // are exactly 2^{j+4} words. Each fraction level's precision is then
  // 2·|N| − 255 (exit nodes of 256 words), and a parent's scaled step runs
  // at L = 2·|N_v| exactly: the widest wrap-around the cyclic product takes.
  // Stopped after every level and resumed, the run reaches the GMP gcds and
  // the uninterrupted journal byte for byte.
  Xoshiro256 rng(217);
  const BigInt top_bits = ((BigInt(1) << 16) - BigInt(1)) << 496;
  const auto factor = [&] { return top_bits + random_odd<std::uint32_t>(rng, 496); };
  std::vector<BigInt> moduli;
  for (int i = 0; i < 496; ++i) moduli.push_back(factor() * factor());
  std::vector<BigInt> shared_factors;
  for (int pair = 0; pair < 8; ++pair) {
    const BigInt& shared = shared_factors.emplace_back(factor());
    for (int k = 0; k < 2; ++k) {
      moduli.insert(moduli.begin() + std::ptrdiff_t(rng.below(moduli.size() + 1)),
                    shared * factor());
    }
  }
  const DescentShape shape(moduli);
  for (std::size_t level = 0; level < shape.tree.size(); ++level) {
    for (const TreeInt& node : shape.tree[level]) {
      ASSERT_EQ(node.size(), std::size_t{16} << level) << "level " << level;
    }
  }
  ASSERT_EQ(shape.lowest_fraction, 5u);  // 512-word nodes
  ASSERT_EQ(shape.first, 7u);
  for (std::size_t level = shape.lowest_fraction; level <= shape.first; ++level) {
    for (std::size_t i = 0; i < shape.tree[level].size(); ++i) {
      const std::size_t words = shape.tree[level][i].size();
      EXPECT_EQ(shape.precision[level][i], 2 * words - 255) << "level " << level;
      EXPECT_EQ(std::bit_ceil(shape.precision[level][i]), 2 * words) << "level " << level;
    }
  }

  const std::vector<BigInt> want = gmp_batch_gcds(moduli);
  for (const BigInt& shared : shared_factors) {
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      if ((moduli[i] % shared).is_zero()) EXPECT_TRUE((want[i] % shared).is_zero()) << i;
    }
  }
  EXPECT_EQ(expect_descent_matches_gmp(moduli, "power_of_two"), 3u);
  expect_every_stop_resumes(moduli, want);
}

// ---- the journal's writer thread -------------------------------------------

TEST_F(BatchResumeTest, LevelHookSeesExactlyItsRecordsOnDisk) {
  // The hook for level k runs once k records are appended and synced, and
  // before the (k+1)-th is: a copy of the journal taken inside the hook
  // replays to exactly k level records with no torn tail, the last one
  // (the gcds) included.
  const auto corpus = test_corpus(37, 3, 218);
  const std::uint64_t digest = rsa::corpus_digest(corpus.moduli);
  const auto copy = path_.string() + ".copy";
  struct Seen {
    std::size_t done = 0;
    std::size_t records = 0;
    bool gcds = false;
    bool torn = false;
  };
  std::vector<Seen> seen;
  std::size_t product_total = 0;
  BatchScanConfig config;
  config.checkpoint = path_;
  config.level_hook = [&](std::size_t done, std::size_t total) {
    product_total = (total - 2) / 2;
    std::filesystem::copy_file(path_, copy,
                               std::filesystem::copy_options::overwrite_existing);
    const auto bytes = std::filesystem::file_size(copy);
    BatchJournal journal(copy, digest, corpus.moduli.size());
    const BatchReplay replay = journal.take_replay();
    Seen s;
    s.done = done;
    s.records = replay.product_levels.size();
    if (replay.remainder) s.records += product_total + 1 - replay.remainder->level;
    s.gcds = replay.gcds.has_value();
    s.torn = std::filesystem::file_size(copy) != bytes;
    seen.push_back(s);
  };
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  std::filesystem::remove(copy);
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(seen.size(), report.levels_total);
  for (const Seen& s : seen) {
    SCOPED_TRACE(s.done);
    EXPECT_FALSE(s.torn);
    if (s.done < report.levels_total) {
      EXPECT_EQ(s.records, s.done);
      EXPECT_FALSE(s.gcds);
    } else {
      EXPECT_TRUE(s.gcds);
    }
  }
}

/// Lowers the process's file-size limit for its lifetime, with SIGXFSZ
/// ignored so that a write past the limit fails with EFBIG instead of
/// killing the process.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &old_);
    rlimit lowered = old_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit old_{};
  void (*old_handler_)(int) = nullptr;
};

TEST_F(BatchResumeTest, WriterSideWriteFailureThrowsAndLeavesACleanPrefix) {
  // The file-size limit cuts the journal mid-way through the product
  // phase: the writer thread's append fails, and the run throws the
  // journal's std::runtime_error rather than hanging or terminating. The
  // file is a prefix of the uninterrupted journal, and a rerun resumes
  // from it to the same gcds and bytes.
  const auto corpus = test_corpus(64, 3, 219);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport reference = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(reference.complete);
  const std::string full = test::slurp(path_);
  std::filesystem::remove(path_);

  {
    const FileSizeLimit limit(full.size() / 3);
    EXPECT_THROW(run_resumable_batch(corpus.moduli, config), std::runtime_error);
  }
  const std::string cut = test::slurp(path_);
  ASSERT_LT(cut.size(), full.size());
  EXPECT_EQ(cut, full.substr(0, cut.size()));

  const BatchScanReport resumed = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.result.gcds, reference.result.gcds);
  EXPECT_EQ(test::slurp(path_), full);
}

TEST_F(BatchResumeTest, LaggingWriterReadsNoFreedLevel) {
  // A hook that sleeps holds the writer thread after every record, so the
  // pool runs ahead of it: the driver must wait for the writer before it
  // frees a product level or replaces values the writer has yet to read (under
  // AddressSanitizer a read of a freed level fails this test). A hook that
  // then throws, at a product level and at a descent level, unwinds the
  // driver with records still queued; the file keeps exactly the records
  // committed before the throw.
  const auto corpus = test_corpus(96, 2, 220);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport reference = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(reference.complete);
  const std::string full = test::slurp(path_);
  const std::size_t descent_level = (reference.levels_total + 1) / 2 + 1;

  struct Killed {};
  for (const std::size_t kill : {std::size_t{0}, std::size_t{1}, descent_level}) {
    SCOPED_TRACE(kill);
    std::filesystem::remove(path_);
    config.level_hook = [kill](std::size_t done, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      if (done == kill) throw Killed{};
    };
    if (kill == 0) {
      const BatchScanReport lagged = run_resumable_batch(corpus.moduli, config);
      ASSERT_TRUE(lagged.complete);
      EXPECT_EQ(lagged.result.gcds, reference.result.gcds);
      EXPECT_EQ(test::slurp(path_), full);
      continue;
    }
    EXPECT_THROW(run_resumable_batch(corpus.moduli, config), Killed);
    config.level_hook = nullptr;
    const BatchScanReport resumed = run_resumable_batch(corpus.moduli, config);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.levels_restored, kill);
    EXPECT_EQ(resumed.result.gcds, reference.result.gcds);
    EXPECT_EQ(test::slurp(path_), full);
  }
}

TEST(BatchJournalTest, ReplayRoundTripsAllRecordKinds) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   "bulkgcd_batch_journal_roundtrip";
  std::error_code ignored;
  std::filesystem::remove(tmp, ignored);

  const std::vector<BigInt> level1 = {BigInt(0x123456789abcULL), BigInt(0)};
  const std::vector<BigInt> fractions = {BigInt::from_hex("fedcba9876543210f0e1d2c3"),
                                         BigInt(0)};
  const std::vector<BigInt> residues = {BigInt(7), BigInt(11), BigInt(13)};
  const std::vector<BigInt> gcds = {BigInt(1), BigInt(1), BigInt(17)};
  {
    BatchJournal journal(tmp, /*corpus_digest=*/0xfeedULL,
                         /*corpus_count=*/3);
    journal.append_product_level(1, widen(level1));
    journal.append_fraction_level(2, widen(fractions));
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
  EXPECT_EQ(replay.remainder->level, 0u);  // deepest restored level wins
  EXPECT_FALSE(replay.remainder->fractions);
  EXPECT_EQ(narrow(replay.remainder->values), residues);
  ASSERT_TRUE(replay.gcds.has_value());
  EXPECT_EQ(narrow(*replay.gcds), gcds);
  std::filesystem::remove(tmp, ignored);
}

TEST(BatchJournalTest, DescentRecordsOutOfOrderAreDropped) {
  // Descent records run one level at a time, top-down, fractions before
  // residues, and level 0 always holds residues. A record that breaks this
  // is dropped with everything after it, like a torn tail: the deepest
  // record kept is the one before it.
  const auto tmp = std::filesystem::temp_directory_path() /
                   "bulkgcd_batch_journal_descent_order";
  std::error_code ignored;
  const std::vector<TreeInt> values = {TreeInt(5), TreeInt(9)};
  struct Record {
    bool fractions;
    std::uint32_t level;
  };
  struct Case {
    std::vector<Record> records;
    std::size_t kept;
  };
  const std::vector<Case> cases = {
      {{{true, 3}, {true, 2}, {false, 1}, {false, 0}}, 4},
      {{{true, 2}, {false, 1}, {true, 0}}, 2},   // fractions after residues
      {{{false, 2}, {true, 1}, {false, 0}}, 1},  // fractions after residues
      {{{true, 3}, {true, 1}}, 1},               // a level skipped
      {{{true, 1}, {true, 0}}, 1},               // fractions at level 0
      {{{false, 1}, {false, 1}}, 1},             // a level repeated
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(k);
    const Case& c = cases[k];
    std::filesystem::remove(tmp, ignored);
    {
      BatchJournal journal(tmp, 0xfeedULL, 2);
      for (const Record& r : c.records) {
        if (r.fractions) {
          journal.append_fraction_level(r.level, values);
        } else {
          journal.append_remainder_level(r.level, values);
        }
      }
    }
    const BatchReplay replay = BatchJournal(tmp, 0xfeedULL, 2).take_replay();
    ASSERT_TRUE(replay.remainder.has_value());
    const Record& last = c.records[c.kept - 1];
    EXPECT_EQ(replay.remainder->level, last.level);
    EXPECT_EQ(replay.remainder->fractions, last.fractions);
    EXPECT_EQ(replay.remainder->values, values);
  }
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
  const std::vector<BigInt> fractions = {BigInt(0x1234), BigInt(0)};
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
    journal.append_fraction_level(1, widen(fractions));
    journal.append_remainder_level(0, widen(residues));
    journal.append_gcds(widen(gcds));
  }

  using test::put_le;
  std::string want = "BGCDBTR3";
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
  want.push_back(char(4));  // fraction
  put_le(want, 1, 4);
  put_values(fractions);
  want.push_back(char(2));  // remainder (exact residues)
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
