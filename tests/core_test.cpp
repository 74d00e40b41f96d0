// Core utilities: PRNG statistical sanity, thread-pool behaviour, and the
// record log's byte codecs and open / replay / fsync rules.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "core/record_log.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "obs/metrics.hpp"

namespace bulkgcd {
namespace {

TEST(XoshiroTest, DeterministicForSameSeed) {
  Xoshiro256 a(5), b(5), c(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Xoshiro256 a2(5);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(XoshiroTest, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(XoshiroTest, BelowIsRoughlyUniform) {
  Xoshiro256 rng(8);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int histogram[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.below(kBuckets)];
  for (const int count : histogram) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets / 5);
  }
}

TEST(XoshiroTest, SplitProducesIndependentStream) {
  Xoshiro256 parent(9);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++touched[i];
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkBoundariesPartitionAnyRange) {
  // Property sweep over awkward (begin, count, threads) combinations —
  // ranges smaller than the pool, prime-sized, and ones that do not divide
  // evenly. Chunks must tile [begin, end) with no gap, overlap, or
  // out-of-range index, whatever the boundary arithmetic rounds to.
  for (const std::size_t threads : {1u, 2u, 3u, 5u}) {
    ThreadPool pool(threads);
    for (const std::size_t begin : {0u, 1u, 17u}) {
      for (const std::size_t count : {0u, 1u, 2u, 7u, 64u, 101u}) {
        std::vector<std::atomic<int>> touched(count);
        for (auto& t : touched) t.store(0);
        std::atomic<bool> out_of_range{false};
        pool.parallel_for(begin, begin + count,
                          [&](std::size_t lo, std::size_t hi) {
                            if (lo < begin || hi > begin + count || lo > hi) {
                              out_of_range.store(true);
                              return;
                            }
                            for (std::size_t i = lo; i < hi; ++i) {
                              ++touched[i - begin];
                            }
                          });
        EXPECT_FALSE(out_of_range.load())
            << "threads=" << threads << " begin=" << begin
            << " count=" << count;
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(touched[i].load(), 1)
              << "threads=" << threads << " begin=" << begin
              << " count=" << count << " index=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A parallel_for issued from inside a pool worker used to enqueue chunks
  // no idle worker could ever run (every worker blocked on the inner
  // futures) — a guaranteed deadlock once the outer level saturated the
  // pool. Nested calls must detect the in-pool caller and execute inline.
  ThreadPool pool(2);
  std::atomic<int> inner_sum{0};
  std::atomic<int> outer_chunks{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    ++outer_chunks;
    EXPECT_TRUE(pool.inside_pool());
    pool.parallel_for(lo, hi, [&](std::size_t ilo, std::size_t ihi) {
      for (std::size_t i = ilo; i < ihi; ++i) inner_sum += int(i);
    });
  });
  EXPECT_EQ(inner_sum.load(), 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  EXPECT_GT(outer_chunks.load(), 0);
  EXPECT_FALSE(pool.inside_pool());  // the test thread is not a worker
}

TEST(ThreadPoolTest, NestedGlobalPoolUseCompletes) {
  // global_pool() is shared by every subsystem, so library code can end up
  // calling parallel_for from a task that is itself running on the global
  // pool (e.g. corpus generation inside a scan chunk).
  std::atomic<int> count{0};
  global_pool().parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) {
    global_pool().parallel_for(lo, hi, [&](std::size_t ilo, std::size_t ihi) {
      count += int(ihi - ilo);
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForStillPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 4,
                        [&](std::size_t, std::size_t) {
                          pool.parallel_for(0, 2, [](std::size_t, std::size_t) {
                            throw std::runtime_error("nested boom");
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, SubmitFuturePropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::logic_error("bad"); });
  EXPECT_THROW(future.get(), std::logic_error);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  const double t0 = timer.seconds();
  EXPECT_GE(t0, 0.0);
  // busy-wait a tiny bit
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), t0);
  EXPECT_GE(timer.micros(), t0 * 1e6);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

TEST(HistogramTest, ClampsOutOfRangeValuesIntoEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-3.0);   // below range -> bin 0
  h.add(0.0);    // lo edge -> bin 0
  h.add(5.0);    // middle -> bin 2
  h.add(99.0);   // above range -> last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(HistogramTest, DegenerateRangeLandsEverythingInBinZero) {
  // lo == hi would make the bin width zero; add() must not divide by the
  // zero span (NaN bin index = out-of-bounds write). Every value collapses
  // into bin 0 instead.
  Histogram flat(3.0, 3.0, 4);
  flat.add(-1.0);
  flat.add(3.0);
  flat.add(1e9);
  EXPECT_EQ(flat.total(), 3u);
  EXPECT_EQ(flat.count(0), 3u);
  for (std::size_t b = 1; b < flat.bins(); ++b) EXPECT_EQ(flat.count(b), 0u);

  // Inverted ranges (hi < lo) take the same guard.
  Histogram inverted(10.0, 0.0, 4);
  inverted.add(5.0);
  EXPECT_EQ(inverted.count(0), 1u);

  // Rendering a degenerate histogram stays well-formed too.
  EXPECT_NE(flat.render().find('#'), std::string::npos);
}

TEST(SplitMix64Test, KnownSequence) {
  // Reference values from the SplitMix64 definition with seed 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
}

// ---- record log -------------------------------------------------------------

TEST(ByteCodecTest, IntegersAndBothBigIntEncodingsRoundTripLittleEndian) {
  const mp::BigInt big = mp::BigInt::from_hex("0102030405060708090a");
  core::ByteWriter w;
  w.u8(0xab);
  w.u32(0x11223344u);
  w.u64(0x0102030405060708ull);
  w.bigint_limbs(big);
  w.bigint_bytes(big);
  w.bigint_bytes(mp::BigInt());
  const std::string expected =
      std::string("\xab\x44\x33\x22\x11\x08\x07\x06\x05\x04\x03\x02\x01", 13) +
      // limbs: count 3, then 0x0708090a, 0x03040506, 0x00000102
      std::string("\x03\0\0\0\x0a\x09\x08\x07\x06\x05\x04\x03\x02\x01\0\0", 16) +
      // canonical bytes: count 10, then the 10 value bytes, low first
      std::string("\x0a\0\0\0\x0a\x09\x08\x07\x06\x05\x04\x03\x02\x01", 14) +
      std::string("\0\0\0\0", 4);  // zero: no bytes at all
  EXPECT_EQ(w.str(), expected);

  core::ByteReader r(w.str());
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  mp::BigInt x, y, z(7);
  ASSERT_TRUE(r.u8(a) && r.u32(b) && r.u64(c));
  ASSERT_TRUE(r.bigint_limbs(x) && r.bigint_bytes(y) && r.bigint_bytes(z));
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0x11223344u);
  EXPECT_EQ(c, 0x0102030405060708ull);
  EXPECT_EQ(x, big);
  EXPECT_EQ(y, big);
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.u8(a));

  // On 64-bit limbs the 80-bit value is 2 limbs, the top one half empty:
  // the same 3 canonical u32 limbs go out, and come back at either width.
  const mp::BigInt64 big64 = mp::repack<std::uint64_t>(big);
  ASSERT_EQ(big64.size(), 2u);
  core::ByteWriter w64;
  w64.bigint_limbs(big64);
  EXPECT_EQ(w64.str(), expected.substr(13, 16));
  core::ByteReader r64(w64.str());
  mp::BigInt64 x64;
  ASSERT_TRUE(r64.bigint_limbs(x64));
  EXPECT_EQ(x64, big64);
}

TEST(ByteCodecTest, ShortInputAndFabricatedCountsAreRejected) {
  core::ByteReader r(std::string_view("\x01\x02\x03", 3));
  std::uint32_t v = 0;
  EXPECT_FALSE(r.u32(v));
  EXPECT_EQ(r.pos(), 0u);
  // A limb count of 0xffffffff over 4 remaining bytes must fail before
  // anything is allocated for it.
  core::ByteReader big(std::string_view("\xff\xff\xff\xff\0\0\0\0", 8));
  mp::BigInt n;
  EXPECT_FALSE(big.bigint_limbs(n));
  EXPECT_TRUE(big.fits(1, 4));
  EXPECT_FALSE(big.fits(2, 4));
  core::ByteReader bytes(std::string_view("\x05\0\0\0\x01\x02", 6));
  EXPECT_FALSE(bytes.bigint_bytes(n));
}

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("bulkgcd_record_log_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_, ignored_);
  }
  void TearDown() override { std::filesystem::remove(path_, ignored_); }

  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void spit(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
  }

  static constexpr std::string_view kMagic = "TESTLOG1";
  static constexpr std::string_view kIdentity = "identity";
  std::filesystem::path path_;
  std::error_code ignored_;
};

TEST_F(RecordLogTest, AbsentEmptyAndTornHeaderFilesAreCreatedFresh) {
  const std::string header = std::string(kMagic) + std::string(kIdentity);
  for (const std::string& before :
       {std::string("<absent>"), std::string(), std::string("TEST"),
        std::string(kMagic), header.substr(0, header.size() - 1)}) {
    SCOPED_TRACE(before);
    if (before == "<absent>") {
      std::filesystem::remove(path_, ignored_);
    } else {
      spit(before);
    }
    {
      core::RecordLog log(path_, kMagic, "test log", 1);
      EXPECT_FALSE(log.open(kIdentity).has_value());
      log.append("rec");
    }
    EXPECT_EQ(slurp(), header + "rec");
  }
}

TEST_F(RecordLogTest, ForeignFilesAreRefusedAndLeftUntouched) {
  // A magic differing only in its last byte is another version of the
  // format, and the refusal names both versions; anything else is foreign.
  for (const std::string& foreign :
       {std::string("x"), std::string("TESTLOGX"),
        std::string("TESTLOG2 and a long enough body to hold a header"),
        std::string("TESTING1 and a long enough body to hold a header")}) {
    SCOPED_TRACE(foreign);
    spit(foreign);
    core::RecordLog log(path_, kMagic, "test log", 1);
    const std::string other = foreign.substr(0, kMagic.size());
    const bool version = other.size() == kMagic.size() &&
                         other.substr(0, 7) == kMagic.substr(0, 7);
    try {
      log.open(kIdentity);
      ADD_FAILURE() << "opened a foreign file";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      if (version) {
        EXPECT_NE(what.find("format " + other), std::string::npos) << what;
        EXPECT_NE(what.find(std::string(kMagic)), std::string::npos) << what;
      } else {
        EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
      }
    }
    EXPECT_EQ(slurp(), foreign);
  }
}

TEST_F(RecordLogTest, ReplayStopsAtTheFirstRejectedRecordAndTruncates) {
  const std::string header = std::string(kMagic) + "stored!!";
  // Records are "k<byte>"; the decoder rejects kind 'x' and any torn one.
  spit(header + "k1k2xk3k");
  core::RecordLog log(path_, kMagic, "test log", 1);
  const auto stored = log.open(kIdentity);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*stored, "stored!!");
  std::string seen;
  log.replay([&](core::ByteReader& r) {
    std::uint8_t kind = 0, value = 0;
    if (!r.u8(kind) || kind != 'k' || !r.u8(value)) return false;
    seen.push_back(char(value));
    return true;
  });
  EXPECT_EQ(seen, "12");
  EXPECT_EQ(slurp(), header + "k1k2");
  log.append("k4");
  log.flush();
  EXPECT_EQ(slurp(), header + "k1k2k4");
}

TEST_F(RecordLogTest, CreateReplacesAMismatchedLog) {
  spit(std::string(kMagic) + "stored!!k1");
  core::RecordLog log(path_, kMagic, "test log", 1);
  ASSERT_TRUE(log.open(kIdentity).has_value());
  log.create(kIdentity);
  EXPECT_EQ(slurp(), std::string(kMagic) + std::string(kIdentity));
}

TEST_F(RecordLogTest, FsyncCadenceFeedsTheHistogramOncePerSync) {
  obs::MetricsRegistry registry;
  obs::HistogramMetric* hist = registry.histogram("test_fsync", 0.0, 0.1, 10);
  {
    core::RecordLog log(path_, kMagic, "test log", 3, hist);
    ASSERT_FALSE(log.open(kIdentity).has_value());
    EXPECT_EQ(hist->count(), 1u);  // the fresh header
    for (int k = 0; k < 7; ++k) log.append("r");
    EXPECT_EQ(hist->count(), 3u);  // after records 3 and 6
    log.flush();
    EXPECT_EQ(hist->count(), 4u);  // record 7
    log.flush();
    EXPECT_EQ(hist->count(), 4u);  // nothing left to sync
  }
  EXPECT_EQ(slurp().size(), kMagic.size() + kIdentity.size() + 7);
}

}  // namespace
}  // namespace bulkgcd
