// Resumable scan driver tests: checkpoint/resume equivalence with the
// one-shot sweep, kill-and-resume determinism, retry-with-isolation,
// quarantine durability, corpus-digest validation, torn-tail and
// torn-header recovery, the checkpoint wire format, and structured progress
// reporting.
#include "bulk/scan_driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bulk/block_grid.hpp"
#include "journal_bytes.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"

namespace bulkgcd::bulk {
namespace {

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

void expect_same_hits(const std::vector<FactorHit>& a,
                      const std::vector<FactorHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].i, b[k].i);
    EXPECT_EQ(a[k].j, b[k].j);
    EXPECT_EQ(a[k].factor, b[k].factor);
  }
}

class ScanDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("bulkgcd_scan_ckpt_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  std::filesystem::path path_;
};

TEST(BlockGridTest, BlockIndexingMatchesRowMajorEnumeration) {
  for (const auto [m, r] : {std::pair<std::size_t, std::size_t>{26, 8},
                            {26, 5}, {7, 1}, {6, 1000}, {100, 7}}) {
    const BlockGrid grid(m, r);
    std::size_t index = 0;
    std::uint64_t pairs = 0;
    for (std::size_t i = 0; i < grid.groups; ++i) {
      for (std::size_t j = i; j < grid.groups; ++j, ++index) {
        const auto b = grid.block(index);
        ASSERT_EQ(b.i, i) << "m=" << m << " r=" << r << " index=" << index;
        ASSERT_EQ(b.j, j);
        pairs += grid.pairs_in_block(b);
      }
    }
    EXPECT_EQ(index, grid.block_count());
    EXPECT_EQ(pairs, grid.total_pairs());
    EXPECT_EQ(grid.pairs_in_range(0, grid.block_count()), grid.total_pairs());
  }
}

TEST_F(ScanDriverTest, NoCheckpointMatchesAllPairsSweep) {
  const WeakCorpus corpus = test_corpus(26, 4, 101);
  ScanConfig config;
  config.pairs.group_size = 8;
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  const AllPairsResult direct = all_pairs_gcd(corpus.moduli, config.pairs);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.result.pairs_tested, direct.pairs_tested);
  expect_same_hits(report.result.hits, direct.hits);
}

TEST_F(ScanDriverTest, KillAndResumeReportsSameHitSet) {
  const WeakCorpus corpus = test_corpus(26, 4, 102);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 3;
  config.checkpoint = path_;
  // Uninterrupted reference run (no checkpoint involved).
  ScanConfig uninterrupted = config;
  uninterrupted.checkpoint.clear();
  const ScanReport reference = run_resumable_scan(corpus.moduli, uninterrupted);
  ASSERT_TRUE(reference.complete);
  ASSERT_FALSE(reference.result.hits.empty());

  // Interrupt after every single chunk: the worst-case kill schedule.
  config.stop_after_chunks = 1;
  ScanReport report;
  int runs = 0;
  do {
    report = run_resumable_scan(corpus.moduli, config);
    ASSERT_LT(++runs, 500) << "scan never completed";
  } while (!report.complete);

  EXPECT_GT(runs, 2);  // the interruption actually happened
  EXPECT_TRUE(report.resumed);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.chunks_done, report.chunks_total);
  EXPECT_EQ(report.result.pairs_tested, reference.result.pairs_tested);
  expect_same_hits(report.result.hits, reference.result.hits);
}

TEST_F(ScanDriverTest, ResumeAfterCleanCompletionIsANoop) {
  const WeakCorpus corpus = test_corpus(12, 2, 103);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  const ScanReport first = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(first.complete);
  const ScanReport second = run_resumable_scan(corpus.moduli, config);
  EXPECT_TRUE(second.complete);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.chunks_done_this_run, 0u);
  EXPECT_EQ(second.result.pairs_tested, first.result.pairs_tested);
  expect_same_hits(second.result.hits, first.result.hits);
}

TEST_F(ScanDriverTest, FirstAttemptFailureFallsBackToScalarEngine) {
  const WeakCorpus corpus = test_corpus(16, 2, 104);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.chunk_hook = [](std::size_t, int attempt) {
    if (attempt == 0) throw std::runtime_error("injected first-attempt fault");
  };
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  const AllPairsResult direct = all_pairs_gcd(corpus.moduli, config.pairs);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.quarantined.empty());
  // Every chunk ran on the scalar retry path; the hit set is identical.
  EXPECT_GT(report.result.scalar.iterations, 0u);
  expect_same_hits(report.result.hits, direct.hits);
}

TEST_F(ScanDriverTest, ChunkFailingTwiceIsQuarantinedNotFatal) {
  const WeakCorpus corpus = test_corpus(16, 0, 105);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.chunk_hook = [](std::size_t chunk, int) {
    if (chunk == 1) throw std::runtime_error("poisoned chunk");
  };
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].chunk_index, 1u);
  EXPECT_NE(report.quarantined[0].error.find("poisoned chunk"),
            std::string::npos);
  EXPECT_EQ(report.chunks_done + 1, report.chunks_total);

  // Quarantine is durable: a resume without the fault does NOT silently
  // re-run the chunk — an operator re-runs it deliberately.
  ScanConfig clean = config;
  clean.chunk_hook = nullptr;
  const ScanReport resumed = run_resumable_scan(corpus.moduli, clean);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_EQ(resumed.quarantined.size(), 1u);
  EXPECT_EQ(resumed.chunks_done_this_run, 0u);
}

TEST_F(ScanDriverTest, CheckpointRejectsDifferentCorpus) {
  const WeakCorpus corpus_a = test_corpus(16, 1, 106);
  const WeakCorpus corpus_b = test_corpus(16, 1, 107);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.stop_after_chunks = 2;
  const ScanReport partial = run_resumable_scan(corpus_a.moduli, config);
  ASSERT_FALSE(partial.complete);

  config.stop_after_chunks = 0;
  EXPECT_THROW(run_resumable_scan(corpus_b.moduli, config),
               std::runtime_error);

  config.discard_mismatched_checkpoint = true;
  const ScanReport fresh = run_resumable_scan(corpus_b.moduli, config);
  EXPECT_TRUE(fresh.complete);
  EXPECT_FALSE(fresh.resumed);
  const AllPairsResult direct = all_pairs_gcd(corpus_b.moduli, config.pairs);
  expect_same_hits(fresh.result.hits, direct.hits);
}

TEST_F(ScanDriverTest, CheckpointRejectsChangedScanGeometry) {
  const WeakCorpus corpus = test_corpus(16, 1, 108);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.stop_after_chunks = 1;
  ASSERT_FALSE(run_resumable_scan(corpus.moduli, config).complete);

  ScanConfig changed = config;
  changed.stop_after_chunks = 0;
  changed.chunk_blocks = 5;  // different work-unit geometry
  EXPECT_THROW(run_resumable_scan(corpus.moduli, changed), std::runtime_error);
}

TEST_F(ScanDriverTest, VectorCheckpointResumesUnderStagedAndAuto) {
  // The journal identity records only scalar-vs-SIMT: a checkpoint written
  // by the vector engine resumes under the staged engine (and under kAuto,
  // whatever it resolves to here) into a report bit-identical to one
  // uninterrupted vector run — hits, flags, pair counts and SimtStats.
  const WeakCorpus corpus = test_corpus(26, 4, 112);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 3;
  config.pairs.engine = Engine::kVector;
  const ScanReport reference = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(reference.complete);
  ASSERT_FALSE(reference.result.hits.empty());

  for (const Engine resume_engine : {Engine::kStaged, Engine::kAuto}) {
    SCOPED_TRACE(to_string(resume_engine));
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
    ScanConfig first = config;
    first.checkpoint = path_;
    first.stop_after_chunks = 1;
    const ScanReport partial = run_resumable_scan(corpus.moduli, first);
    ASSERT_FALSE(partial.complete);
    ASSERT_EQ(partial.chunks_done, 1u);

    ScanConfig resume = first;
    resume.stop_after_chunks = 0;
    resume.pairs.engine = resume_engine;
    const ScanReport resumed = run_resumable_scan(corpus.moduli, resume);
    ASSERT_TRUE(resumed.complete);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_TRUE(resumed.quarantined.empty());
    EXPECT_EQ(resumed.chunks_done, reference.chunks_done);
    EXPECT_EQ(resumed.result.pairs_tested, reference.result.pairs_tested);
    EXPECT_EQ(resumed.result.blocks_run, reference.result.blocks_run);
    expect_same_hits(resumed.result.hits, reference.result.hits);
    for (std::size_t k = 0; k < reference.result.hits.size(); ++k) {
      EXPECT_EQ(resumed.result.hits[k].full_modulus,
                reference.result.hits[k].full_modulus);
    }
    EXPECT_TRUE(resumed.result.simt == reference.result.simt);
  }
}

TEST_F(ScanDriverTest, ScalarCheckpointIsRefusedBySimtResume) {
  const WeakCorpus corpus = test_corpus(16, 1, 113);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.stop_after_chunks = 1;
  config.pairs.engine = Engine::kScalar;
  ASSERT_FALSE(run_resumable_scan(corpus.moduli, config).complete);

  ScanConfig simt = config;
  simt.stop_after_chunks = 0;
  simt.pairs.engine = Engine::kVector;
  try {
    run_resumable_scan(corpus.moduli, simt);
    FAIL() << "a scalar checkpoint must not resume under a SIMT engine";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("grid or engine changed"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ScanDriverTest, TornTailIsDiscardedOnResume) {
  const WeakCorpus corpus = test_corpus(20, 3, 109);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.stop_after_chunks = 3;
  const ScanReport partial = run_resumable_scan(corpus.moduli, config);
  ASSERT_FALSE(partial.complete);

  // Simulate a crash mid-write: a record header with a truncated body.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const char torn[] = {1, 0x07, 0x00, 0x00};
    out.write(torn, sizeof(torn));
  }

  config.stop_after_chunks = 0;
  const ScanReport resumed = run_resumable_scan(corpus.moduli, config);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  const AllPairsResult direct = all_pairs_gcd(corpus.moduli, config.pairs);
  EXPECT_EQ(resumed.result.pairs_tested, direct.pairs_tested);
  expect_same_hits(resumed.result.hits, direct.hits);
}

TEST_F(ScanDriverTest, TornHeaderIsRecreatedFresh) {
  // A crash while the checkpoint was being created leaves an empty file or
  // a prefix of the header; the scan starts over instead of refusing it.
  const WeakCorpus corpus = test_corpus(16, 2, 114);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  const AllPairsResult direct = all_pairs_gcd(corpus.moduli, config.pairs);
  for (const std::string torn : {"", "BGCDCK", "BGCDCKP1\x01\x02"}) {
    SCOPED_TRACE(torn);
    test::spit(path_, torn);
    const ScanReport report = run_resumable_scan(corpus.moduli, config);
    EXPECT_TRUE(report.complete);
    EXPECT_FALSE(report.resumed);
    EXPECT_EQ(report.chunks_done_this_run, report.chunks_total);
    expect_same_hits(report.result.hits, direct.hits);
  }
}

TEST_F(ScanDriverTest, ForeignFileIsRefusedNotTruncated) {
  // Short (shorter than a header) and long foreign files alike: refused,
  // left byte for byte as they were — also under
  // discard_mismatched_checkpoint, which only discards our own checkpoints.
  const WeakCorpus corpus = test_corpus(8, 1, 115);
  for (const std::string foreign :
       {std::string("hello"),
        std::string(100, 'z') + "definitely not a scan checkpoint"}) {
    for (const bool discard : {false, true}) {
      test::spit(path_, foreign);
      ScanConfig config;
      config.checkpoint = path_;
      config.discard_mismatched_checkpoint = discard;
      EXPECT_THROW(run_resumable_scan(corpus.moduli, config),
                   std::runtime_error);
      EXPECT_EQ(test::slurp(path_), foreign);
    }
  }
}

TEST_F(ScanDriverTest, CheckpointBytesMatchTheDocumentedFormat) {
  // Encode the header, one chunk-commit record and one quarantine record by
  // hand from docs/SCAN_DRIVER.md and compare with what the driver wrote.
  const WeakCorpus corpus = test_corpus(12, 1, 116);
  ScanConfig config;
  config.pairs.group_size = 4;  // 3 groups → 6 blocks
  config.pairs.pool_threads = 1;
  config.chunk_blocks = 5;      // chunk 0 = blocks 0..4, chunk 1 = block 5
  config.checkpoint = path_;
  config.chunk_hook = [](std::size_t chunk, int) {
    if (chunk == 1) throw std::runtime_error("poisoned chunk");
  };
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(report.quarantined.size(), 1u);
  ASSERT_EQ(report.result.hits.size(), 1u);  // chunk 0 holds the weak pair

  using test::put_le;
  std::string want = "BGCDCKP1";
  put_le(want, rsa::corpus_digest(corpus.moduli), 8);
  put_le(want, 12, 8);  // m
  put_le(want, 4, 8);   // group_size
  put_le(want, 5, 8);   // chunk_blocks
  put_le(want, 2, 8);   // chunks_total
  put_le(want, 1, 4);   // engine: not scalar
  put_le(want, std::uint32_t(config.pairs.variant), 4);
  put_le(want, config.pairs.early_terminate ? 1 : 0, 4);
  put_le(want, 0, 4);  // reserved
  ASSERT_EQ(want.size(), 64u);

  const auto put_gcd = [&](const gcd::GcdStats& g) {
    put_le(want, g.iterations, 8);
    put_le(want, g.swaps, 8);
    put_le(want, g.beta_nonzero, 8);
    put_le(want, g.divisions, 8);
    ASSERT_EQ(g.approx_cases.size(), 8u);
    for (const auto c : g.approx_cases) put_le(want, c, 8);
  };
  const SimtStats& simt = report.result.simt;
  want.push_back(char(1));  // chunk commit
  put_le(want, 0, 8);
  put_le(want, report.result.pairs_tested, 8);
  for (const auto v : {simt.rounds, simt.warp_rounds, simt.lane_iterations,
                       simt.branch_slots, simt.divergent_warp_rounds,
                       simt.active_lane_slots, simt.lane_slots}) {
    put_le(want, v, 8);
  }
  put_gcd(simt.gcd);
  put_gcd(report.result.scalar);
  put_le(want, 1, 4);
  const FactorHit& hit = report.result.hits[0];
  put_le(want, hit.i, 8);
  put_le(want, hit.j, 8);
  put_le(want, hit.factor.size(), 4);
  for (const auto limb : hit.factor.limbs()) put_le(want, limb, 4);

  const std::string& error = report.quarantined[0].error;
  want.push_back(char(2));  // quarantine
  put_le(want, 1, 8);
  put_le(want, error.size(), 4);
  want += error;

  EXPECT_EQ(test::slurp(path_), want);
}

TEST_F(ScanDriverTest, EveryTruncationPointResumesToTheSameResult) {
  // Cut a complete checkpoint at every byte and resume: a cut inside the
  // header starts fresh, any other cut keeps its whole records and re-runs
  // the rest. Each resume ends in the uninterrupted report and rewrites the
  // uninterrupted file byte for byte (one worker: chunks commit in order).
  const WeakCorpus corpus = test_corpus(10, 2, 117);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.pairs.pool_threads = 1;
  config.chunk_blocks = 2;
  config.fsync_every = 1000;
  config.checkpoint = path_;
  std::int64_t kept = -1;  // file size when the first chunk starts
  config.chunk_hook = [&](std::size_t chunk, int) {
    if (kept < 0) kept = std::int64_t(std::filesystem::file_size(path_));
    if (chunk == 2) throw std::runtime_error("poisoned chunk");
  };
  const ScanReport reference = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(reference.complete);
  ASSERT_EQ(reference.chunks_total, 3u);
  ASSERT_EQ(reference.quarantined.size(), 1u);
  ASSERT_FALSE(reference.result.hits.empty());
  const std::string full = test::slurp(path_);
  constexpr std::size_t kHeader = 64;

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(cut);
    test::spit(path_, full.substr(0, cut));
    kept = -1;
    const ScanReport report = run_resumable_scan(corpus.moduli, config);
    ASSERT_TRUE(report.complete);
    if (cut < kHeader) {
      EXPECT_FALSE(report.resumed);
      EXPECT_EQ(kept, std::int64_t(kHeader));
    } else if (kept >= 0) {
      EXPECT_LE(kept, std::int64_t(cut));
    }
    EXPECT_EQ(report.result.pairs_tested, reference.result.pairs_tested);
    EXPECT_TRUE(report.result.simt == reference.result.simt);
    expect_same_hits(report.result.hits, reference.result.hits);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].chunk_index, 2u);
    EXPECT_EQ(report.quarantined[0].error, reference.quarantined[0].error);
    ASSERT_EQ(test::slurp(path_), full);
  }
}

TEST_F(ScanDriverTest, SingleThreadedDriverMatchesParallel) {
  const WeakCorpus corpus = test_corpus(20, 3, 110);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 3;
  ScanConfig serial = config;
  serial.pairs.pool_threads = 1;
  const ScanReport a = run_resumable_scan(corpus.moduli, config);
  const ScanReport b = run_resumable_scan(corpus.moduli, serial);
  EXPECT_EQ(a.result.pairs_tested, b.result.pairs_tested);
  expect_same_hits(a.result.hits, b.result.hits);
}

TEST_F(ScanDriverTest, EmptyAndSingletonCorpusCompleteImmediately) {
  EXPECT_TRUE(run_resumable_scan({}, {}).complete);
  const std::vector<BigInt> one = {BigInt(15)};
  const ScanReport report = run_resumable_scan(one, {});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.result.pairs_tested, 0u);
}

class CountingSink : public ProgressSink {
 public:
  void on_progress(const ScanProgress& p) override {
    EXPECT_GE(p.pairs_done, last_pairs_done_);
    last_pairs_done_ = p.pairs_done;
    last_ = p;
    ++progress_records_;
  }
  void on_hit(const FactorHit&) override { ++hits_; }
  void on_quarantine(std::size_t, const std::string&) override {
    ++quarantines_;
  }

  std::size_t progress_records_ = 0;
  std::size_t hits_ = 0;
  std::size_t quarantines_ = 0;
  std::uint64_t last_pairs_done_ = 0;
  ScanProgress last_;
};

TEST_F(ScanDriverTest, ProgressSinkSeesCommitsHitsAndTotals) {
  const WeakCorpus corpus = test_corpus(20, 3, 111);
  CountingSink sink;
  ScanConfig config;
  config.pairs.group_size = 4;
  config.pairs.pool_threads = 1;  // deterministic commit order
  config.chunk_blocks = 2;
  config.sink = &sink;
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  EXPECT_GT(sink.progress_records_, 1u);
  EXPECT_EQ(sink.hits_, report.result.hits.size());
  EXPECT_EQ(sink.quarantines_, 0u);
  EXPECT_EQ(sink.last_.pairs_done, sink.last_.pairs_total);
  EXPECT_EQ(sink.last_.pairs_total, 20u * 19u / 2u);
  EXPECT_EQ(sink.last_.chunks_done, report.chunks_total);
  EXPECT_EQ(sink.last_.blocks_done, sink.last_.blocks_total);
}

TEST_F(ScanDriverTest, BlockRateUsesActualCommittedBlocks) {
  // Regression: blocks_per_second was computed as
  // committed_this_run * chunk_blocks / elapsed, which overstates the rate
  // (and shrinks the ETA) whenever the final chunk is shorter than
  // chunk_blocks. Geometry chosen so chunk_blocks does NOT divide the block
  // count: 20 moduli / group 4 -> 5 groups -> 15 blocks; chunks of 4 cover
  // them as 4+4+4+3, and the old formula would claim 16 blocks of work.
  const WeakCorpus corpus = test_corpus(20, 1, 119);
  CountingSink sink;
  ScanConfig config;
  config.pairs.group_size = 4;
  config.pairs.pool_threads = 1;
  config.chunk_blocks = 4;
  config.sink = &sink;
  config.progress_every = 1;
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  const ScanProgress& last = sink.last_;
  EXPECT_EQ(last.blocks_total, 15u);
  EXPECT_EQ(last.blocks_done, 15u);
  ASSERT_GT(last.elapsed_seconds, 0.0);
  // Rate × elapsed must reconstruct the blocks actually committed, not a
  // chunk-granular overestimate.
  EXPECT_NEAR(last.blocks_per_second * last.elapsed_seconds, 15.0, 1e-6);
}

TEST(StreamProgressSinkTest, NonFiniteEtaRendersAsDashes) {
  // Regression: the first progress record of a run (or a resumed scan whose
  // run has committed nothing yet) has pairs_per_second == 0, which used to
  // print "eta inf"/"eta nan". The sink must guard the division's output.
  auto render = [](double pairs_per_second, double eta_seconds) {
    std::FILE* out = std::tmpfile();
    StreamProgressSink sink(out);
    ScanProgress p;
    p.pairs_total = 100;
    p.pairs_per_second = pairs_per_second;
    p.eta_seconds = eta_seconds;
    sink.on_progress(p);
    std::rewind(out);
    char buf[256] = {};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, out);
    std::fclose(out);
    return std::string(buf, n);
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NE(render(0.0, inf).find("eta --"), std::string::npos);
  EXPECT_NE(render(0.0, std::nan("")).find("eta --"), std::string::npos);
  EXPECT_NE(render(50.0, 42.0).find("eta 42s"), std::string::npos);
  EXPECT_EQ(render(50.0, 42.0).find("inf"), std::string::npos);
}

TEST_F(ScanDriverTest, MixedSizeCorpusRecoversSmallKeyHitsThroughDriver) {
  // End-to-end regression for the per-pair early-terminate threshold: the
  // planted shared prime lives in the SMALL moduli while larger bystanders
  // raise the corpus-wide maximum.
  const WeakCorpus small = test_corpus(8, 2, 112);   // 128-bit moduli
  CorpusSpec big_spec;
  big_spec.count = 4;
  big_spec.modulus_bits = 256;
  big_spec.seed = 113;
  const WeakCorpus big = rsa::generate_corpus(big_spec);

  std::vector<BigInt> moduli = small.moduli;
  moduli.insert(moduli.end(), big.moduli.begin(), big.moduli.end());

  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.stop_after_chunks = 1;  // and survive interruption while at it
  ScanReport report;
  int runs = 0;
  do {
    report = run_resumable_scan(moduli, config);
    ASSERT_LT(++runs, 500);
  } while (!report.complete);

  ASSERT_EQ(report.result.hits.size(), small.weak.size());
  for (std::size_t k = 0; k < small.weak.size(); ++k) {
    EXPECT_EQ(report.result.hits[k].i, small.weak[k].first);
    EXPECT_EQ(report.result.hits[k].j, small.weak[k].second);
    EXPECT_EQ(report.result.hits[k].factor, small.weak[k].shared_prime);
  }
}

// ---- telemetry (docs/OBSERVABILITY.md) ------------------------------------
// The scan_* counter family counts committed work including checkpoint-
// restored chunks, so after any run — fresh, resumed, retried, or partly
// quarantined — a per-run registry's totals must exactly equal the final
// ScanReport.

std::uint64_t counter_value(obs::MetricsRegistry& registry, const char* name) {
  return registry.counter(name)->value();
}

void expect_counters_match_report(obs::MetricsRegistry& registry,
                                  const ScanReport& report) {
  EXPECT_EQ(counter_value(registry, "scan_pairs_total"),
            report.result.pairs_tested);
  EXPECT_EQ(counter_value(registry, "scan_hits_total"),
            report.result.hits.size());
  EXPECT_EQ(counter_value(registry, "scan_chunks_committed_total"),
            report.chunks_done);
  EXPECT_EQ(counter_value(registry, "scan_chunks_quarantined_total"),
            report.quarantined.size());
  EXPECT_EQ(counter_value(registry, "gcd_iterations_total"),
            report.result.simt.gcd.iterations + report.result.scalar.iterations);
  EXPECT_EQ(counter_value(registry, "simt_lane_iterations_total"),
            report.result.simt.lane_iterations);
}

TEST_F(ScanDriverTest, MetricsExactlyMatchFinalReportOnFreshRun) {
  const WeakCorpus corpus = test_corpus(20, 3, 107);
  obs::MetricsRegistry registry;
  ScanConfig config;
  config.pairs.group_size = 4;
  config.pairs.metrics = &registry;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  expect_counters_match_report(registry, report);
  EXPECT_EQ(counter_value(registry, "scan_chunks_restored_total"), 0u);
  EXPECT_EQ(counter_value(registry, "scan_pairs_restored_total"), 0u);
  // No retries: the sweep executed exactly the committed pair set.
  EXPECT_EQ(counter_value(registry, "sweep_pairs_total"),
            report.result.pairs_tested);
  EXPECT_EQ(counter_value(registry, "sweep_hits_total"),
            report.result.hits.size());
  EXPECT_DOUBLE_EQ(registry.gauge("scan_progress_ratio")->value(), 1.0);
  // Checkpointed run: every commit cadence fsync landed in the histogram.
  EXPECT_GT(registry.histogram("scan_checkpoint_fsync_seconds", 0.0, 0.1, 100)
                ->count(),
            0u);
  EXPECT_EQ(registry.histogram("scan_chunk_seconds", 0.0, 30.0, 120)->count(),
            report.chunks_done);
}

TEST_F(ScanDriverTest, MetricsFoldRestoredWorkSoTotalsMatchAfterResume) {
  const WeakCorpus corpus = test_corpus(20, 3, 108);
  ScanConfig config;
  config.pairs.group_size = 4;
  config.chunk_blocks = 2;
  config.checkpoint = path_;

  // First slice: commit some chunks, then stop.
  obs::MetricsRegistry first_registry;
  config.pairs.metrics = &first_registry;
  config.stop_after_chunks = 2;
  const ScanReport first = run_resumable_scan(corpus.moduli, config);
  ASSERT_FALSE(first.complete);
  expect_counters_match_report(first_registry, first);

  // Resumed run with a FRESH registry: restored work is folded in at
  // restore time, so this run's counters still equal its final report.
  obs::MetricsRegistry second_registry;
  config.pairs.metrics = &second_registry;
  config.stop_after_chunks = 0;
  const ScanReport second = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(second.complete);
  ASSERT_TRUE(second.resumed);
  expect_counters_match_report(second_registry, second);
  EXPECT_EQ(counter_value(second_registry, "scan_chunks_restored_total"),
            first.chunks_done);
  EXPECT_EQ(counter_value(second_registry, "scan_pairs_restored_total"),
            first.result.pairs_tested);
  // Restored chunks were not executed here: the sweep counters cover only
  // this run's share.
  EXPECT_EQ(counter_value(second_registry, "sweep_pairs_total"),
            second.result.pairs_tested - first.result.pairs_tested);
}

TEST_F(ScanDriverTest, RetriedChunksCountOnceInScanCountersAndAreTallied) {
  const WeakCorpus corpus = test_corpus(16, 2, 109);
  obs::MetricsRegistry registry;
  ScanConfig config;
  config.pairs.group_size = 4;
  config.pairs.metrics = &registry;
  config.chunk_blocks = 2;
  config.chunk_hook = [](std::size_t chunk, int attempt) {
    if (chunk == 0 && attempt == 0) {
      throw std::runtime_error("injected first-attempt fault");
    }
  };
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  ASSERT_TRUE(report.quarantined.empty());
  EXPECT_EQ(counter_value(registry, "scan_chunks_retried_total"), 1u);
  expect_counters_match_report(registry, report);
}

TEST_F(ScanDriverTest, QuarantinedChunksAreCountedAndExcludedFromTotals) {
  const WeakCorpus corpus = test_corpus(16, 0, 110);
  obs::MetricsRegistry registry;
  ScanConfig config;
  config.pairs.group_size = 4;
  config.pairs.metrics = &registry;
  config.chunk_blocks = 2;
  config.checkpoint = path_;
  config.chunk_hook = [](std::size_t chunk, int) {
    if (chunk == 1) throw std::runtime_error("poisoned chunk");
  };
  const ScanReport report = run_resumable_scan(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(counter_value(registry, "scan_chunks_quarantined_total"), 1u);
  EXPECT_EQ(counter_value(registry, "scan_chunks_retried_total"), 1u);
  expect_counters_match_report(registry, report);
}

TEST(StreamProgressSinkTest, FormatsRatesHitsAndQuarantines) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  StreamProgressSink sink(out);

  ScanProgress p;
  p.chunks_done = 3;
  p.chunks_total = 8;
  p.pairs_done = 50;
  p.pairs_total = 200;
  p.pairs_per_second = 1234.25;
  p.blocks_per_second = 7.5;
  p.hits = 2;
  p.quarantined = 1;
  p.eta_seconds = 12.0;
  sink.on_progress(p);

  FactorHit hit;
  hit.i = 4;
  hit.j = 9;
  hit.factor = BigInt::from_hex("c000000000000001");
  sink.on_hit(hit);
  sink.on_quarantine(5, "engine exploded");

  // The sink flushes per record, so everything is readable immediately
  // (a killed scan must not lose its last status line to buffering).
  std::rewind(out);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, out);
  std::fclose(out);
  const std::string text(buf, n);

  EXPECT_NE(text.find("chunks 3/8"), std::string::npos) << text;
  EXPECT_NE(text.find("pairs 50/200 ( 25.0%)"), std::string::npos) << text;
  EXPECT_NE(text.find("1234 pairs/s"), std::string::npos) << text;
  EXPECT_NE(text.find("7.50 blocks/s"), std::string::npos) << text;
  EXPECT_NE(text.find("hits 2"), std::string::npos) << text;
  EXPECT_NE(text.find("quarantined 1"), std::string::npos) << text;
  EXPECT_NE(text.find("eta 12s"), std::string::npos) << text;
  EXPECT_NE(text.find("[hit] keys 4 and 9 share a 64-bit prime"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("[quarantine] chunk 5 failed twice: engine exploded"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace bulkgcd::bulk
