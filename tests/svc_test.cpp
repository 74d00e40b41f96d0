// Streaming intake service tests: the parser survives hostile input
// (reject-and-continue, never throw-and-die), the bounded queue sheds
// visibly instead of buffering invisibly, and a streamed corpus finds the
// bit-identical hit set a one-shot all_pairs_gcd finds — including under
// overload, shutdown, and both SIMT probe engines.
#include "svc/intake_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bulk/allpairs.hpp"
#include "bulk/build_info.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "core/rng.hpp"
#include "journal_bytes.hpp"
#include "obs/http_exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"
#include "rsa/pem.hpp"
#include "rsa/prime.hpp"
#include "svc/bounded_queue.hpp"
#include "svc/intake_parser.hpp"
#include "svc/net_util.hpp"

namespace bulkgcd::svc {
namespace {

using mp::BigInt;
using rsa::CorpusSpec;
using rsa::WeakCorpus;

WeakCorpus test_corpus(std::size_t count, std::size_t weak,
                       std::uint64_t seed) {
  CorpusSpec spec;
  spec.count = count;
  spec.modulus_bits = 128;
  spec.weak_pairs = weak;
  spec.seed = seed;
  return rsa::generate_corpus(spec);
}

// ---- rsa::hex_decode_modulus ----------------------------------------------

TEST(HexDecodeModulusTest, AcceptsPrefixesLabelsAndWhitespace) {
  EXPECT_EQ(rsa::hex_decode_modulus("c3"), BigInt(0xc3));
  EXPECT_EQ(rsa::hex_decode_modulus("0xC3"), BigInt(0xc3));
  EXPECT_EQ(rsa::hex_decode_modulus("  0X00c3  "), BigInt(0xc3));
  EXPECT_EQ(rsa::hex_decode_modulus("Modulus=c3"), BigInt(0xc3));
  // openssl-style colon/whitespace-spread dumps collapse to one value.
  EXPECT_EQ(rsa::hex_decode_modulus("c0 ff ee 11"), BigInt(0xc0ffee11));
}

TEST(HexDecodeModulusTest, RejectsEmptyOddAndNonHex) {
  EXPECT_THROW(rsa::hex_decode_modulus(""), std::runtime_error);
  EXPECT_THROW(rsa::hex_decode_modulus("   "), std::runtime_error);
  EXPECT_THROW(rsa::hex_decode_modulus("abc"), std::runtime_error);  // odd
  EXPECT_THROW(rsa::hex_decode_modulus("zz"), std::runtime_error);
  EXPECT_THROW(rsa::hex_decode_modulus("0x"), std::runtime_error);
}

// ---- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueueTest, ShedsAtCapacityWithoutBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed, immediately
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));  // slot freed
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenReportsEmpty) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed: no new admissions
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // already-admitted items still drain
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));  // closed AND drained: consumer exits
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(q.pop(out));  // blocks until close, then exits false
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));
}

// ---- IntakeParser ----------------------------------------------------------

std::vector<IntakeRecord> parse_all(std::string_view text) {
  IntakeParser parser;
  parser.feed(text);
  return parser.finish();
}

TEST(IntakeParserTest, ParsesAllThreeRecordShapes) {
  const rsa::PublicKey key{BigInt(0xbcbf), BigInt(65537)};
  std::string input = rsa::pem_encode_public_key(key, rsa::PemKind::kPkcs1);
  input += "modulus cee1 deadbeef 10001\n";  // keystore line: first field wins
  input += "# a comment\n";
  input += "\n";
  input += "0xA0B1C2D3E4F5A6B7\n";
  const auto records = parse_all(input);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].ok);
  EXPECT_EQ(records[0].kind, RecordKind::kPem);
  EXPECT_EQ(records[0].n, BigInt(0xbcbf));
  EXPECT_TRUE(records[1].ok);
  EXPECT_EQ(records[1].kind, RecordKind::kKeystore);
  EXPECT_EQ(records[1].n, BigInt(0xcee1));
  EXPECT_TRUE(records[2].ok);
  EXPECT_EQ(records[2].kind, RecordKind::kRawHex);
  EXPECT_EQ(records[2].n, BigInt(0xA0B1C2D3E4F5A6B7ULL));
}

TEST(IntakeParserTest, TruncatedBase64RejectsAndParsingContinues) {
  const rsa::PublicKey key{BigInt(0xbcbf), BigInt(65537)};
  std::string pem = rsa::pem_encode_public_key(key, rsa::PemKind::kSpki);
  // Corrupt the body: drop a chunk of base64 but keep the END armor, so the
  // block completes structurally and fails to decode.
  const auto begin_end = pem.find('\n') + 1;
  pem.erase(begin_end, 8);
  std::string input = pem;
  input += "cee1\n";  // the stream continues with a good record
  const auto records = parse_all(input);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_NE(records[0].error.find("bad PEM block"), std::string::npos);
  EXPECT_TRUE(records[1].ok) << "parser must continue after a bad block";
  EXPECT_EQ(records[1].n, BigInt(0xcee1));
}

TEST(IntakeParserTest, NonPemInterleavingsInsideBlockRejectCleanly) {
  // Hostile interleaving: a BEGIN armor, then junk, then a fresh BEGIN. The
  // inner junk corrupts the first block; the second block must still parse.
  const rsa::PublicKey key{BigInt(0xcee1), BigInt(3)};
  std::string input = "-----BEGIN RSA PUBLIC KEY-----\n";
  input += "this is not base64 at all!!\n";
  input += "-----END RSA PUBLIC KEY-----\n";
  input += rsa::pem_encode_public_key(key);
  const auto records = parse_all(input);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_EQ(records[0].line, 1u) << "reject anchored at the BEGIN line";
  EXPECT_TRUE(records[1].ok);
  EXPECT_EQ(records[1].n, BigInt(0xcee1));
}

TEST(IntakeParserTest, UnterminatedPemAtEofRejects) {
  IntakeParser parser;
  parser.feed("-----BEGIN PUBLIC KEY-----\nAAAA\n");
  EXPECT_TRUE(parser.drain().empty());  // block still open: nothing complete
  const auto records = parser.finish();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_NE(records[0].error.find("unterminated"), std::string::npos);
}

TEST(IntakeParserTest, BadHexShapesRejectWithoutThrowing) {
  const auto records = parse_all(
      "abc\n"            // odd digit count
      "hello world\n"    // not hex at all
      "modulus\n"        // keystore record missing its field
      "modulus xyz\n"    // keystore record with bad hex
      "c0 ff 1\n"        // whitespace-spread hex, odd digit total -> reject
      "cee1\n");         // good record at the end
  ASSERT_EQ(records.size(), 6u);
  for (std::size_t k = 0; k + 1 < records.size(); ++k) {
    EXPECT_FALSE(records[k].ok) << "record " << k;
    EXPECT_FALSE(records[k].error.empty());
    EXPECT_EQ(records[k].line, k + 1);
  }
  EXPECT_TRUE(records.back().ok);
}

TEST(IntakeParserTest, ScreensDegenerateModuli) {
  const auto records = parse_all(
      "00\n"     // zero
      "01\n"     // one
      "c4\n"     // even
      "c3\n");   // odd, fine
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_FALSE(records[1].ok);
  EXPECT_FALSE(records[2].ok);
  EXPECT_NE(records[2].error.find("even"), std::string::npos);
  EXPECT_TRUE(records[3].ok);
}

TEST(IntakeParserTest, RecordsSplitAcrossFeedChunksReassemble) {
  const rsa::PublicKey key{BigInt(0xbcbf), BigInt(65537)};
  std::string input = rsa::pem_encode_public_key(key);
  input += "ce";  // raw-hex record split mid-value
  IntakeParser parser;
  // Feed one byte at a time — the worst possible TCP fragmentation.
  for (const char c : input) parser.feed(std::string_view(&c, 1));
  parser.feed("e1\r\n");  // CRLF line ending, to boot
  const auto records = parser.finish();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].ok);
  EXPECT_EQ(records[0].n, BigInt(0xbcbf));
  EXPECT_TRUE(records[1].ok);
  EXPECT_EQ(records[1].n, BigInt(0xcee1));
}

// ---- IntakeService ---------------------------------------------------------

IntakeServiceConfig probe_config(bulk::Engine engine,
                                 std::size_t pool_threads) {
  IntakeServiceConfig config;
  config.probe.engine = engine;
  config.probe.pool_threads = pool_threads;
  config.probe.group_size = 4;
  return config;
}

void expect_hits_equal(const std::vector<bulk::FactorHit>& streamed,
                       const std::vector<bulk::FactorHit>& oneshot) {
  ASSERT_EQ(streamed.size(), oneshot.size());
  for (std::size_t k = 0; k < streamed.size(); ++k) {
    EXPECT_EQ(streamed[k].i, oneshot[k].i) << "hit " << k;
    EXPECT_EQ(streamed[k].j, oneshot[k].j) << "hit " << k;
    EXPECT_EQ(streamed[k].factor, oneshot[k].factor) << "hit " << k;
    EXPECT_EQ(streamed[k].full_modulus, oneshot[k].full_modulus)
        << "hit " << k;
  }
}

TEST(IntakeServiceTest, StreamedCorpusMatchesOneShotSweepBitForBit) {
  // The acceptance bar: stream a corpus key by key into an empty service and
  // the accumulated hit set must be bit-identical to one all_pairs_gcd sweep
  // over the same corpus — every (i, j) pair is covered exactly once, when
  // key j arrives. Exercised on both SIMT engines and both thread placements.
  const WeakCorpus corpus = test_corpus(20, 3, 2121);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  ASSERT_EQ(oneshot.size(), 3u);

  for (const auto engine : {bulk::Engine::kStaged, bulk::Engine::kVector}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(2)}) {
      IntakeService service({}, probe_config(engine, threads));
      for (const auto& n : corpus.moduli) {
        ASSERT_EQ(service.submit(n), Admission::kAdmitted);
      }
      service.stop();  // drains the queue through the probe element
      EXPECT_EQ(service.corpus_size(), corpus.moduli.size());
      expect_hits_equal(service.hits(), oneshot);
      const IntakeStats stats = service.stats();
      EXPECT_EQ(stats.admitted, corpus.moduli.size());
      EXPECT_EQ(stats.probed, corpus.moduli.size());
      // Pair count telescopes to the full triangle: Σ_j j = n(n-1)/2.
      EXPECT_EQ(stats.pairs, 20u * 19u / 2u);
      EXPECT_EQ(stats.hits, oneshot.size());
    }
  }
}

TEST(IntakeServiceTest, SeedCorpusIsProbedAgainstButNotInternallyRescanned) {
  // Seed-internal pairs are the prior batch scan's job; arrivals must be
  // probed against every seed member AND earlier arrivals.
  Xoshiro256 rng(3131);
  const BigInt shared = rsa::random_prime(rng, 64);
  const std::vector<BigInt> seed = {
      shared * rsa::random_prime(rng, 64),
      shared * rsa::random_prime(rng, 64),  // seed-internal weak pair
      rsa::random_prime(rng, 64) * rsa::random_prime(rng, 64),
  };
  IntakeService service(seed, probe_config(bulk::Engine::kStaged, 1));
  const BigInt arrival = shared * rsa::random_prime(rng, 64);
  ASSERT_EQ(service.submit(arrival), Admission::kAdmitted);
  service.stop();
  const auto hits = service.hits();
  // The arrival (index 3) hits both weak seed members; the seed-internal
  // pair (0, 1) is NOT reported.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].i, 0u);
  EXPECT_EQ(hits[0].j, 3u);
  EXPECT_EQ(hits[1].i, 1u);
  EXPECT_EQ(hits[1].j, 3u);
  EXPECT_EQ(hits[0].factor, shared);
}

TEST(IntakeServiceTest, DuplicatesAreRejectedAgainstSeedAndArrivals) {
  const WeakCorpus corpus = test_corpus(6, 0, 4141);
  std::vector<BigInt> seed(corpus.moduli.begin(), corpus.moduli.begin() + 3);
  IntakeService service(seed, probe_config(bulk::Engine::kStaged, 1));
  EXPECT_EQ(service.submit(seed[1]), Admission::kDuplicate);
  EXPECT_EQ(service.submit(corpus.moduli[4]), Admission::kAdmitted);
  EXPECT_EQ(service.submit(corpus.moduli[4]), Admission::kDuplicate);
  service.stop();
  const IntakeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(service.corpus_size(), 4u);
}

TEST(IntakeServiceTest, SubmitAfterStopReturnsClosed) {
  const WeakCorpus corpus = test_corpus(3, 0, 5151);
  IntakeService service({}, probe_config(bulk::Engine::kStaged, 1));
  service.stop();
  EXPECT_EQ(service.submit(corpus.moduli[0]), Admission::kClosed);
  service.stop();  // idempotent
}

TEST(IntakeServiceTest, OverloadShedsVisiblyAndNeverDeadlocks) {
  // Deterministic overload: a batch_hook blocks the probe worker while the
  // test floods the tiny admission queue. The flood must shed — counted,
  // non-blocking — and every key that WAS admitted must still be probed
  // after the worker resumes.
  const WeakCorpus corpus = test_corpus(12, 1, 6161);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> worker_blocked{false};

  IntakeServiceConfig config =
      probe_config(bulk::Engine::kStaged, 1);
  config.queue_capacity = 2;
  config.batch_max = 1;
  config.batch_hook = [&](std::size_t) {
    worker_blocked.store(true);
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  IntakeService service({}, std::move(config));

  // First key wakes the worker, which parks in the hook.
  ASSERT_EQ(service.submit(corpus.moduli[0]), Admission::kAdmitted);
  while (!worker_blocked.load()) std::this_thread::yield();

  // Fill the queue behind the parked worker, then overflow it.
  std::size_t admitted = 1, shed = 0;
  for (std::size_t k = 1; k < corpus.moduli.size(); ++k) {
    const Admission a = service.submit(corpus.moduli[k]);
    ASSERT_NE(a, Admission::kDuplicate);
    if (a == Admission::kAdmitted) {
      ++admitted;
    } else {
      ASSERT_EQ(a, Admission::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 3u);  // 1 in flight + queue capacity 2
  EXPECT_EQ(shed, corpus.moduli.size() - 3u);
  EXPECT_LE(service.queue_depth(), 2u) << "queue must stay bounded";

  // A shed key is NOT poisoned: retry succeeds once capacity frees up.
  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  service.stop();  // drain + join, must not deadlock

  const IntakeStats stats = service.stats();
  EXPECT_EQ(stats.admitted, admitted);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.probed, admitted) << "every admitted key was probed";
  EXPECT_EQ(service.corpus_size(), admitted);
}

TEST(IntakeServiceTest, ShedKeyCanBeResubmittedSuccessfully) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> worker_blocked{false};
  IntakeServiceConfig config =
      probe_config(bulk::Engine::kStaged, 1);
  config.queue_capacity = 1;
  config.batch_max = 1;
  config.batch_hook = [&](std::size_t) {
    worker_blocked.store(true);
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  const WeakCorpus corpus = test_corpus(4, 0, 7171);
  IntakeService service({}, std::move(config));
  ASSERT_EQ(service.submit(corpus.moduli[0]), Admission::kAdmitted);
  while (!worker_blocked.load()) std::this_thread::yield();
  ASSERT_EQ(service.submit(corpus.moduli[1]), Admission::kAdmitted);
  ASSERT_EQ(service.submit(corpus.moduli[2]), Admission::kShed);
  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  // Wait until the queue drains, then the shed key must be admittable —
  // shedding must not have left it registered as "seen".
  while (service.queue_depth() > 0) std::this_thread::yield();
  Admission retry = Admission::kShed;
  for (int attempt = 0; attempt < 1000 && retry == Admission::kShed;
       ++attempt) {
    retry = service.submit(corpus.moduli[2]);
    if (retry == Admission::kShed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(retry, Admission::kAdmitted);
  service.stop();
  EXPECT_EQ(service.corpus_size(), 3u);  // moduli[0], [1], and the retried [2]
}

TEST(IntakeServiceTest, MetricsMirrorStatsAndHitSink) {
  struct RecordingSink : bulk::ProgressSink {
    void on_hit(const bulk::FactorHit& hit) override {
      std::lock_guard lock(mutex);
      hits.push_back(hit);
    }
    std::mutex mutex;
    std::vector<bulk::FactorHit> hits;
  };
  const WeakCorpus corpus = test_corpus(10, 2, 8181);
  obs::MetricsRegistry registry;
  RecordingSink sink;
  IntakeServiceConfig config =
      probe_config(bulk::Engine::kStaged, 1);
  config.probe.metrics = &registry;
  config.sink = &sink;
  IntakeService service({}, std::move(config));
  for (const auto& n : corpus.moduli) service.submit(n);
  service.stop();

  const IntakeStats stats = service.stats();
  const auto counter = [&](std::string_view name) {
    return registry.counter(name)->value();
  };
  EXPECT_EQ(counter("intake_submitted_total"), stats.submitted);
  EXPECT_EQ(counter("intake_admitted_total"), stats.admitted);
  EXPECT_EQ(counter("intake_probed_total"), stats.probed);
  EXPECT_EQ(counter("intake_pairs_total"), stats.pairs);
  EXPECT_EQ(counter("intake_hits_total"), stats.hits);
  EXPECT_EQ(counter("intake_shed_total"), 0u);
  EXPECT_EQ(stats.hits, 2u);
  // The sink saw exactly the hits the service accumulated, as they landed.
  std::lock_guard lock(sink.mutex);
  ASSERT_EQ(sink.hits.size(), 2u);
  // probe_incremental also feeds the engine counters now (the satellite
  // fix), so streamed work is visible in the same simt_*/gcd_* series the
  // batch scan uses.
  EXPECT_GT(counter("gcd_iterations_total"), 0u);
}

// ---- Intake accounting + concurrency ---------------------------------------

TEST(IntakeServiceTest, GateOutcomesPartitionSubmissionsUnderStop) {
  // The satellite accounting fix: every submit() lands in exactly one outcome
  // counter, INCLUDING kClosed — so the four outcomes partition submissions
  // even when stop() races live submitters.
  const WeakCorpus corpus = test_corpus(24, 2, 1414);
  obs::MetricsRegistry registry;
  IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
  config.probe.metrics = &registry;
  config.queue_capacity = 2;  // small enough that shed can happen too
  IntakeService service({}, std::move(config));

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= corpus.moduli.size()) return;
        service.submit(corpus.moduli[k]);
      }
    });
  }
  service.stop();  // races the submitters: some land before the gate closes
  for (auto& thread : submitters) thread.join();
  // Deterministic closed outcome on top of whatever the race produced (the
  // gate checks closed_ before dedup, so a known key still reports kClosed).
  EXPECT_EQ(service.submit(corpus.moduli[0]), Admission::kClosed);

  const IntakeStats stats = service.stats();
  EXPECT_GE(stats.closed, 1u);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.duplicates + stats.shed + stats.closed)
      << "gate outcomes must partition submissions exactly";
  EXPECT_EQ(registry.counter("intake_closed_total")->value(), stats.closed);
  EXPECT_EQ(stats.probed, stats.admitted) << "stop() drains every admission";
}

TEST(IntakeServiceTest, BacklogGaugesReadZeroAfterDrain) {
  // The stale-gauge fix: after stop() drains the pipeline, BOTH backlog
  // gauges must read zero — the old worker left intake_batch_fill frozen at
  // the last batch's size, a phantom in-flight batch on the final scrape.
  const WeakCorpus corpus = test_corpus(9, 1, 2323);
  obs::MetricsRegistry registry;
  IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
  config.probe.metrics = &registry;
  IntakeService service({}, std::move(config));
  for (const auto& n : corpus.moduli) {
    ASSERT_EQ(service.submit(n), Admission::kAdmitted);
  }
  service.stop();
  EXPECT_EQ(registry.gauge("intake_queue_depth")->value(), 0.0);
  EXPECT_EQ(registry.gauge("intake_batch_fill")->value(), 0.0);
  EXPECT_EQ(service.stats().probed, corpus.moduli.size());
}

/// Hits keyed by modulus VALUES instead of fold indices: concurrent
/// submitters make the fold order nondeterministic, so two runs agree on
/// which unordered key pairs share which factor, not on (i, j).
std::vector<std::string> value_hits(const std::vector<bulk::FactorHit>& hits,
                                    const std::vector<BigInt>& corpus) {
  std::vector<std::string> out;
  out.reserve(hits.size());
  for (const auto& hit : hits) {
    std::string a = corpus[hit.i].to_hex();
    std::string b = corpus[hit.j].to_hex();
    if (b < a) std::swap(a, b);
    out.push_back(a + "|" + b + "|" + hit.factor.to_hex() +
                  (hit.full_modulus ? "|full" : ""));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(IntakeServiceTest, ConcurrentSubmittersCoverEveryPairExactlyOnce) {
  // ≥4 clients hammering submit() concurrently: the dedup/journal/queue gate
  // is the single synchronization point, so whatever interleaving happens,
  // the folded corpus is a permutation of the stream and the hit set equals
  // one all_pairs_gcd sweep at the value level. Both SIMT engines.
  const WeakCorpus corpus = test_corpus(24, 4, 2424);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  ASSERT_EQ(oneshot.size(), 4u);
  const auto expected = value_hits(oneshot, corpus.moduli);

  for (const auto engine : {bulk::Engine::kStaged, bulk::Engine::kVector}) {
    IntakeService service({}, probe_config(engine, 1));
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t k = t; k < corpus.moduli.size(); k += 4) {
          Admission a = Admission::kShed;
          while (a == Admission::kShed) a = service.submit(corpus.moduli[k]);
          EXPECT_EQ(a, Admission::kAdmitted);
        }
      });
    }
    for (auto& thread : submitters) thread.join();
    service.stop();

    std::vector<BigInt> folded = service.corpus();
    EXPECT_EQ(value_hits(service.hits(), folded), expected);
    std::vector<BigInt> sorted_stream = corpus.moduli;
    auto by_hex = [](const BigInt& a, const BigInt& b) {
      return a.to_hex() < b.to_hex();
    };
    std::sort(folded.begin(), folded.end(), by_hex);
    std::sort(sorted_stream.begin(), sorted_stream.end(), by_hex);
    EXPECT_EQ(folded, sorted_stream) << "corpus must be a permutation";
  }
}

// ---- Arrival journal -------------------------------------------------------

/// Unique temp path per test + tag, removed on scope exit.
struct TempJournal {
  explicit TempJournal(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("bulkgcd_svc_journal_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + tag);
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  ~TempJournal() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  std::filesystem::path path;
};

using test::slurp;
using test::spit;

TEST(ArrivalJournalTest, RestartReplaysCorpusAndHitsBitForBit) {
  // Stream half the corpus, stop, restart against the same journal: the new
  // service must wake up with the identical corpus and hit list (restored
  // from journaled probe records — no GCDs re-run), then streaming the rest
  // must land exactly where an uninterrupted stream would. Both SIMT engines.
  const WeakCorpus corpus = test_corpus(18, 3, 3434);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  ASSERT_EQ(oneshot.size(), 3u);
  const std::size_t half = corpus.moduli.size() / 2;

  for (const auto engine : {bulk::Engine::kStaged, bulk::Engine::kVector}) {
    TempJournal journal(engine == bulk::Engine::kStaged ? "s" : "v");
    std::vector<BigInt> corpus_before;
    std::vector<bulk::FactorHit> hits_before;
    {
      IntakeServiceConfig config = probe_config(engine, 1);
      config.journal_path = journal.path;
      IntakeService service({}, std::move(config));
      for (std::size_t k = 0; k < half; ++k) {
        ASSERT_EQ(service.submit(corpus.moduli[k]), Admission::kAdmitted);
      }
      service.stop();
      corpus_before = service.corpus();
      hits_before = service.hits();
    }
    {
      IntakeServiceConfig config = probe_config(engine, 1);
      config.journal_path = journal.path;
      IntakeService service({}, std::move(config));
      EXPECT_EQ(service.corpus(), corpus_before)
          << "replay must rebuild the folded corpus bit-for-bit";
      expect_hits_equal(service.hits(), hits_before);
      const IntakeStats boot = service.stats();
      EXPECT_EQ(boot.restored, half);
      EXPECT_EQ(boot.resumed, 0u);
      EXPECT_EQ(boot.probed, 0u) << "restored keys re-fold without re-probing";
      // A replayed key is still a known duplicate.
      EXPECT_EQ(service.submit(corpus.moduli[0]), Admission::kDuplicate);
      for (std::size_t k = half; k < corpus.moduli.size(); ++k) {
        ASSERT_EQ(service.submit(corpus.moduli[k]), Admission::kAdmitted);
      }
      service.stop();
      EXPECT_EQ(service.corpus(), corpus.moduli);
      expect_hits_equal(service.hits(), oneshot);
    }
  }
}

TEST(ArrivalJournalTest, UnprobedTailIsResumedAndReprobed) {
  // Crash window: keys admitted (arrival records on disk) but not yet
  // probed. Simulated by snapshotting the journal file while the probe
  // worker is parked in the batch hook — the snapshot holds 6 arrivals and
  // zero probed records, exactly what a SIGKILL at that moment leaves.
  const WeakCorpus corpus = test_corpus(6, 1, 4545);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  TempJournal live("live");
  TempJournal snapshot("snap");

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> worker_blocked{false};
  {
    IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
    config.journal_path = live.path;
    config.batch_max = 1;
    config.batch_hook = [&](std::size_t) {
      worker_blocked.store(true);
      std::unique_lock lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    };
    IntakeService service({}, std::move(config));
    for (const auto& n : corpus.moduli) {
      ASSERT_EQ(service.submit(n), Admission::kAdmitted);
    }
    while (!worker_blocked.load()) std::this_thread::yield();
    // Every arrival is fsynced at admission (journal_fsync_every = 1), so
    // the crash image is complete the moment submit() returned.
    spit(snapshot.path, slurp(live.path));
    {
      std::lock_guard lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
    service.stop();
  }

  IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
  config.journal_path = snapshot.path;
  config.batch_hook = {};
  IntakeService service({}, std::move(config));
  service.stop();  // waits for the resumed tail to be probed and folded
  const IntakeStats stats = service.stats();
  EXPECT_EQ(stats.restored, 0u);
  EXPECT_EQ(stats.resumed, corpus.moduli.size());
  EXPECT_EQ(stats.probed, corpus.moduli.size())
      << "every resumed key is re-probed";
  EXPECT_EQ(service.corpus(), corpus.moduli);
  expect_hits_equal(service.hits(), oneshot);
}

TEST(ArrivalJournalTest, TornTailIsDroppedAndStreamRecovers) {
  // Crash mid-write: the journal ends in a partial record (or trailing
  // garbage). Restart must not throw, must keep every complete record, and
  // re-streaming the full corpus must converge on the one-shot hit set —
  // replayed keys dedup, lost-tail keys re-admit.
  const WeakCorpus corpus = test_corpus(10, 2, 5656);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  TempJournal pristine("pristine");
  {
    IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
    config.journal_path = pristine.path;
    IntakeService service({}, std::move(config));
    for (const auto& n : corpus.moduli) {
      ASSERT_EQ(service.submit(n), Admission::kAdmitted);
    }
    service.stop();
  }
  const std::string bytes = slurp(pristine.path);
  constexpr std::size_t kHeaderSize = 8 + 2 * 8;
  ASSERT_GT(bytes.size(), kHeaderSize + 8);

  const std::string torn_cases[] = {
      bytes.substr(0, kHeaderSize),                       // only the header
      bytes.substr(0, kHeaderSize + 3),                   // torn first record
      bytes.substr(0, (kHeaderSize + bytes.size()) / 2),  // torn mid-journal
      bytes.substr(0, bytes.size() - 5),                  // torn last record
      bytes + "GARBAGE TRAILING BYTES",                   // corrupt tail
      bytes.substr(0, 4),                                 // torn header
  };
  for (std::size_t c = 0; c < std::size(torn_cases); ++c) {
    TempJournal torn("case" + std::to_string(c));
    spit(torn.path, torn_cases[c]);
    IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
    config.journal_path = torn.path;
    IntakeService service({}, std::move(config));
    for (const auto& n : corpus.moduli) {
      const Admission a = service.submit(n);
      EXPECT_TRUE(a == Admission::kAdmitted || a == Admission::kDuplicate);
    }
    service.stop();
    EXPECT_EQ(service.corpus(), corpus.moduli) << "torn case " << c;
    expect_hits_equal(service.hits(), oneshot);
  }
}

TEST(ArrivalJournalTest, JournalForDifferentSeedIsRefused) {
  // Arrival indices are relative to the seed corpus; replaying a journal
  // against a different seed would silently mis-index every hit. The header
  // binds digest + count, and a mismatch is a loud constructor failure.
  const WeakCorpus corpus = test_corpus(6, 0, 6767);
  std::vector<BigInt> seed_a(corpus.moduli.begin(), corpus.moduli.begin() + 2);
  std::vector<BigInt> seed_b(corpus.moduli.begin() + 2,
                             corpus.moduli.begin() + 4);
  TempJournal journal("seed");
  {
    IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
    config.journal_path = journal.path;
    IntakeService service(seed_a, std::move(config));
    ASSERT_EQ(service.submit(corpus.moduli[5]), Admission::kAdmitted);
    service.stop();
  }
  IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
  config.journal_path = journal.path;
  EXPECT_THROW(IntakeService(seed_b, std::move(config)), std::runtime_error);
}

TEST(ArrivalJournalTest, TornHeaderIsRecreatedFresh) {
  // A crash while the journal was being created leaves an empty file or a
  // prefix of the header: the service starts a fresh journal over it.
  const WeakCorpus corpus = test_corpus(6, 1, 6868);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  for (const std::string torn : {"", "BGCDAR", "BGCDARJ1\x05"}) {
    SCOPED_TRACE(torn);
    TempJournal journal("torn");
    spit(journal.path, torn);
    IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
    config.journal_path = journal.path;
    IntakeService service({}, std::move(config));
    EXPECT_EQ(service.stats().restored, 0u);
    EXPECT_EQ(service.stats().resumed, 0u);
    for (const auto& n : corpus.moduli) {
      ASSERT_EQ(service.submit(n), Admission::kAdmitted);
    }
    service.stop();
    EXPECT_EQ(service.corpus(), corpus.moduli);
    expect_hits_equal(service.hits(), oneshot);
  }
}

TEST(ArrivalJournalTest, BytesMatchTheDocumentedFormat) {
  // Encode the header and one record of each kind by hand from
  // docs/INTAKE_SERVICE.md and compare with what the journal wrote.
  TempJournal journal("format");
  const BigInt value = BigInt::from_hex("0102030405");  // 5 value bytes
  const BigInt factor = BigInt::from_hex("e3");
  bulk::FactorHit hit;
  hit.i = 9;
  hit.j = 42;  // not journaled: j is derived on replay
  hit.factor = factor;
  {
    ArrivalJournal writer(journal.path, 0xfedcba9876543210ULL, 4);
    writer.append_arrival(0, value);
    writer.append_probed(0, std::span<const bulk::FactorHit>(&hit, 1));
    writer.append_arrival(1, factor);
    writer.append_retract(1);
  }

  using test::put_le;
  std::string want = "BGCDARJ1";
  put_le(want, 0xfedcba9876543210ULL, 8);
  put_le(want, 4, 8);
  want += std::string("\x01", 1);  // arrival(0, 0x0102030405)
  put_le(want, 0, 8);
  want += std::string("\x05\0\0\0\x05\x04\x03\x02\x01", 9);
  want += std::string("\x02", 1);  // probed(0, [(9, 0xe3)])
  put_le(want, 0, 8);
  put_le(want, 1, 4);
  put_le(want, 9, 8);
  want += std::string("\x01\0\0\0\xe3", 5);
  want += std::string("\x01", 1);  // arrival(1, 0xe3)
  put_le(want, 1, 8);
  want += std::string("\x01\0\0\0\xe3", 5);
  want += std::string("\x03", 1);  // retract(1)
  put_le(want, 1, 8);

  EXPECT_EQ(slurp(journal.path), want);
}

TEST(ArrivalJournalTest, EveryTruncationPointRecoversTheStream) {
  // Cut a complete journal at every byte. A cut inside the header starts a
  // fresh journal; any other cut keeps its whole records (the file shrinks
  // to at most the cut) — and re-streaming the full corpus converges on the
  // one-shot hit set either way, leaving a journal that replays whole.
  const WeakCorpus corpus = test_corpus(5, 1, 6969);
  const auto oneshot = bulk::all_pairs_gcd(corpus.moduli).hits;
  const std::uint64_t seed_digest =
      rsa::corpus_digest(std::span<const BigInt>());
  TempJournal pristine("pristine");
  {
    IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
    config.journal_path = pristine.path;
    IntakeService service({}, std::move(config));
    for (const auto& n : corpus.moduli) {
      ASSERT_EQ(service.submit(n), Admission::kAdmitted);
    }
    service.stop();
  }
  const std::string full = slurp(pristine.path);
  constexpr std::size_t kHeader = 24;

  TempJournal torn("torn");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(cut);
    spit(torn.path, full.substr(0, cut));
    {
      ArrivalJournal journal(torn.path, seed_digest, 0);
      const auto kept = std::filesystem::file_size(torn.path);
      if (cut < kHeader) {
        EXPECT_EQ(kept, kHeader);
      } else {
        EXPECT_LE(kept, cut);
      }
    }
    {
      IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
      config.journal_path = torn.path;
      config.journal_fsync_every = 1000;
      IntakeService service({}, std::move(config));
      for (const auto& n : corpus.moduli) {
        const Admission a = service.submit(n);
        EXPECT_TRUE(a == Admission::kAdmitted || a == Admission::kDuplicate);
      }
      service.stop();
      ASSERT_EQ(service.corpus(), corpus.moduli);
      expect_hits_equal(service.hits(), oneshot);
    }  // the journal flushes its unsynced records on destruction

    // The journal the resumed stream left behind replays whole: every key
    // restored with its hits, nothing to re-probe.
    IntakeServiceConfig again = probe_config(bulk::Engine::kStaged, 1);
    again.journal_path = torn.path;
    IntakeService restarted({}, std::move(again));
    restarted.stop();
    EXPECT_EQ(restarted.stats().restored, corpus.moduli.size());
    ASSERT_EQ(restarted.corpus(), corpus.moduli);
    expect_hits_equal(restarted.hits(), oneshot);
  }
}

TEST(ArrivalJournalTest, FsyncHistogramCountsEverySync) {
  // journal_fsync_every = 1: the fresh header plus one sync per record —
  // an arrival and a probed record per admitted key.
  const WeakCorpus corpus = test_corpus(6, 1, 7070);
  TempJournal journal("fsync");
  obs::MetricsRegistry registry;
  IntakeServiceConfig config = probe_config(bulk::Engine::kStaged, 1);
  config.journal_path = journal.path;
  config.probe.metrics = &registry;
  IntakeService service({}, std::move(config));
  for (const auto& n : corpus.moduli) {
    ASSERT_EQ(service.submit(n), Admission::kAdmitted);
  }
  ASSERT_EQ(service.submit(corpus.moduli[0]), Admission::kDuplicate);
  service.stop();
  const IntakeStats stats = service.stats();
  ASSERT_EQ(stats.probed, corpus.moduli.size());
  EXPECT_EQ(registry.histogram("intake_journal_fsync_seconds", 0.0, 0.1, 100)
                ->count(),
            1 + stats.admitted + stats.probed);
}

TEST(IntakeServiceTest, MixedSizeArrivalsRestageAndMatchOneShot) {
  // Arrivals that outgrow the staged panels force an amortized re-stage
  // (bulk/staged_corpus.hpp); the probe must keep matching the one-shot
  // sweep across the growth boundary, on both SIMT engines.
  Xoshiro256 rng(7878);
  const BigInt shared = rsa::random_prime(rng, 33);
  const std::vector<BigInt> stream = {
      shared * rsa::random_prime(rng, 33),                        // 66-bit
      rsa::random_prime(rng, 70) * rsa::random_prime(rng, 70),    // 140-bit
      rsa::random_prime(rng, 150) * rsa::random_prime(rng, 150),  // 300-bit
      shared * rsa::random_prime(rng, 260),  // 293-bit, shares with key 0
  };
  bulk::AllPairsConfig sweep;
  sweep.group_size = 2;
  const auto oneshot = bulk::all_pairs_gcd(stream, sweep).hits;
  ASSERT_EQ(oneshot.size(), 1u);
  EXPECT_EQ(oneshot[0].factor, shared);

  for (const auto engine : {bulk::Engine::kStaged, bulk::Engine::kVector}) {
    IntakeServiceConfig config = probe_config(engine, 1);
    config.probe.group_size = 2;
    IntakeService service({}, std::move(config));
    for (const auto& n : stream) {
      ASSERT_EQ(service.submit(n), Admission::kAdmitted);
    }
    service.stop();
    expect_hits_equal(service.hits(), oneshot);
  }
}

// ---- MetricsHttpServer -----------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, std::size_t(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesPrometheusTextHealthzAnd404) {
  obs::MetricsRegistry registry;
  registry.counter("svc_test_requests_total")->add(7);
  obs::MetricsHttpServer server(registry, 0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("svc_test_requests_total 7"), std::string::npos)
      << metrics;

  const std::string healthz = http_get(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_EQ(server.requests(), 3u);
  server.stop();
  server.stop();  // idempotent
}

TEST(MetricsHttpServerTest, StatusAndTraceEndpoints404UntilConfigured) {
  obs::MetricsRegistry registry;
  obs::MetricsHttpServer server(registry, 0);
  EXPECT_NE(http_get(server.port(), "/status").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/trace").find("404"), std::string::npos);
}

TEST(MetricsHttpServerTest, StatusServesBuildInfoJson) {
  obs::MetricsRegistry registry;
  obs::MetricsHttpServer server(registry, 0);
  const bulk::BuildInfo info = bulk::query_build_info();
  server.set_status_provider(
      [info] { return bulk::build_info_json(info, /*uptime_seconds=*/1.5); });

  const std::string status = http_get(server.port(), "/status");
  EXPECT_NE(status.find("200 OK"), std::string::npos) << status;
  EXPECT_NE(status.find("application/json"), std::string::npos) << status;
  EXPECT_NE(status.find("\"service\":\"bulkgcd\""), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"uptime_seconds\":1.500"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"limb_bits\":32"), std::string::npos) << status;
  EXPECT_NE(status.find("\"compiled_backends\":"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"active_backend\":\"" + info.active_backend + "\""),
            std::string::npos)
      << status;
  // On an AVX-512 host the W = 16 leg is compiled in and is what runs.
  if (bulk::vec_isa_available(bulk::VecIsa::kAvx512)) {
    EXPECT_NE(status.find("\"vector-avx512\""), std::string::npos) << status;
    EXPECT_EQ(info.active_backend, "vector-avx512");
  }
  // The one-line banner renders the same fields for CLI startup.
  const std::string line = bulk::build_info_line(info);
  EXPECT_NE(line.find("bulkgcd "), std::string::npos) << line;
  EXPECT_NE(line.find("active "), std::string::npos) << line;
}

TEST(MetricsHttpServerTest, TraceEndpointServesLiveChromeJson) {
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder(256, &registry);
  recorder.set_thread_name("svc-test");
  recorder.instant(recorder.intern("ping"), 0, 11);

  obs::MetricsHttpServer server(registry, 0);
  server.set_trace(&recorder);
  const std::string trace = http_get(server.port(), "/trace");
  EXPECT_NE(trace.find("200 OK"), std::string::npos) << trace;
  EXPECT_NE(trace.find("application/json"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ping\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"svc-test\""), std::string::npos) << trace;

  // Live: a scrape between recordings sees the newer event too.
  recorder.instant(recorder.intern("pong"), 0, 22);
  EXPECT_NE(http_get(server.port(), "/trace").find("\"pong\""),
            std::string::npos);
}

TEST(MetricsHttpServerTest, ScrapeSeesLiveIntakeCounters) {
  // The integration the daemon relies on: service counters flow through the
  // shared registry to the scrape endpoint while the service is running.
  const WeakCorpus corpus = test_corpus(6, 1, 9191);
  obs::MetricsRegistry registry;
  IntakeServiceConfig config =
      probe_config(bulk::Engine::kStaged, 1);
  config.probe.metrics = &registry;
  IntakeService service({}, std::move(config));
  obs::MetricsHttpServer server(registry, 0);
  for (const auto& n : corpus.moduli) service.submit(n);
  service.stop();
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("intake_admitted_total 6"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("intake_hits_total 1"), std::string::npos) << metrics;
}

// ---- svc::send_all (net_util.hpp) -----------------------------------------
// The daemon mirrors hit lines and per-record statuses through send_all; the
// regression of record is a client that disconnects mid-batch (send_all must
// report failure so the daemon stops writing to the dead fd) and spurious
// short/interrupted writes being treated as fatal.

TEST(SendAllTest, DeliversPayloadsLargerThanTheSocketBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the send buffer so the payload needs many short writes.
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  std::string payload;
  for (int i = 0; payload.size() < 1 << 20; ++i) {
    payload += "hit " + std::to_string(i) + " deadbeef\n";
  }
  bool sent = false;
  std::thread writer([&] { sent = send_all(fds[0], payload); });
  std::string received;
  char buf[8192];
  while (received.size() < payload.size()) {
    const ssize_t n = ::read(fds[1], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    received.append(buf, std::size_t(n));
  }
  writer.join();
  EXPECT_TRUE(sent);
  EXPECT_EQ(received, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SendAllTest, ReportsAClientThatDisconnectedMidBatch) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  EXPECT_TRUE(send_all(fds[0], "hit 0 1 cafe\n"));  // client still there
  ::close(fds[1]);                                  // client vanishes
  // A payload larger than the buffers cannot be absorbed by the kernel, so
  // the dead peer MUST surface as failure (EPIPE via MSG_NOSIGNAL — the
  // process must not die on SIGPIPE either) rather than a silent no-op.
  const std::string big(1 << 20, 'x');
  EXPECT_FALSE(send_all(fds[0], big));
  ::close(fds[0]);
}

TEST(SendAllTest, SurvivesSignalInterruptionsMidTransfer) {
  // A non-SA_RESTART handler makes a blocked send() fail with EINTR; the
  // old daemon helper treated that as a dead peer and dropped the rest of
  // the payload. Pepper the writer with signals while it pushes a payload
  // much larger than the socket buffer and assert nothing is lost.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  const std::string payload(1 << 20, 'y');
  bool sent = false;
  std::thread writer([&] { sent = send_all(fds[0], payload); });
  const pthread_t writer_handle = writer.native_handle();
  // Let the writer fill the socket buffer and block, then interrupt it
  // repeatedly while slowly draining from the other end.
  std::string received;
  char buf[8192];
  while (received.size() < payload.size()) {
    ::pthread_kill(writer_handle, SIGUSR1);
    const ssize_t n = ::read(fds[1], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    received.append(buf, std::size_t(n));
  }
  writer.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(sent);
  EXPECT_EQ(received, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace bulkgcd::svc
