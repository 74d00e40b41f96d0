// intake_stream: a seed corpus, then a record stream parsed with
// svc::IntakeParser and submitted to an in-process svc::IntakeService
// (journal on, per-record fsync, default queue and batch_max) from one
// generator thread. Two phases:
//   paced — open loop at a fixed arrival rate; each arrival is timed from its
//           due time to its fold (probed, journaled, in the corpus);
//   burst — back to back, holding the queue between empty and half full, so
//           folds per second measure the service's capacity.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "bulk/allpairs.hpp"
#include "svc/intake_parser.hpp"
#include "svc/intake_service.hpp"

namespace perfbench {

namespace svc = bulkgcd::svc;

namespace {

struct Session {
  std::size_t seed_count = 0;
  // Per admitted arrival, in admission (= fold) order.
  std::vector<double> due, submit_begin, submit_end, fold;
  std::size_t paced_admitted = 0;
  std::vector<double> late;  ///< generator lateness per paced record
  // batch_hook calls (traced): time and cumulative keys handed to the probe.
  std::vector<double> hook_time;
  std::vector<std::uint64_t> hook_keys;
  double burst_begin = 0.0, burst_end = 0.0;
  std::uint64_t burst_pairs = 0;
  std::size_t burst_keys = 0;
  std::size_t rejected = 0;  ///< records the parser rejected
  svc::IntakeStats stats;

  double burst_seconds() const { return burst_end - burst_begin; }
};

void pause_briefly() { std::this_thread::sleep_for(std::chrono::microseconds(100)); }

Session run_session(std::span<const BigInt> seed,
                    std::span<const StreamRecord> records, std::size_t paced,
                    std::span<const Planted> truth, const Options& o,
                    bool traced, Report& r) {
  Gate& gate = r.gate;
  const fs::path journal = o.work / "intake.journal";
  fs::remove(journal);
  svc::IntakeServiceConfig cfg;
  cfg.journal_path = journal;
  Session s;
  s.seed_count = seed.size();
  std::mutex hook_mutex;
  std::uint64_t hooked = 0;
  if (traced) {
    cfg.batch_hook = [&](std::size_t keys) {
      const double t = now_s();
      std::lock_guard lock(hook_mutex);
      hooked += keys;
      s.hook_time.push_back(t);
      s.hook_keys.push_back(hooked);
    };
  }
  const double t_open = now_s();
  svc::IntakeService service(std::vector<BigInt>(seed.begin(), seed.end()),
                             cfg);
  svc::IntakeParser parser;

  // Fold detection: the corpus grows by one as each arrival folds, in
  // admission order.
  std::size_t folded = 0;
  const auto poll = [&] {
    const std::size_t now_folded = service.corpus_size() - s.seed_count;
    if (now_folded == folded) return;
    const double t = now_s();
    while (folded < now_folded && folded < s.fold.size()) s.fold[folded++] = t;
  };
  const auto wait_folded = [&] {
    const double limit = now_s() + 60.0;
    while (folded < s.fold.size() && now_s() < limit) {
      poll();
      pause_briefly();
    }
  };
  const auto submit_record = [&](const StreamRecord& rec, double due) {
    using Kind = StreamRecord::Kind;
    parser.feed(rec.text);
    const auto out = parser.drain();
    if (rec.kind == Kind::kMalformed) {
      gate.check(out.size() == 1 && !out[0].ok,
                 "intake: malformed record rejected");
    } else {
      gate.check(out.size() == 1 && out[0].ok && out[0].n == rec.n,
                 "intake: record parses to its modulus");
    }
    for (const auto& parsed : out) {
      if (!parsed.ok) {
        ++s.rejected;
        continue;
      }
      const double t0 = now_s();
      const auto verdict = service.submit(parsed.n);
      const double t1 = now_s();
      if (rec.kind == Kind::kValid) {
        gate.check(verdict == svc::Admission::kAdmitted,
                   "intake: valid arrival admitted (not shed or lost)");
      } else {
        gate.check(verdict == svc::Admission::kDuplicate,
                   "intake: duplicate recognized");
      }
      if (verdict == svc::Admission::kAdmitted) {
        s.due.push_back(due);
        s.submit_begin.push_back(t0);
        s.submit_end.push_back(t1);
        s.fold.push_back(-1.0);
      }
    }
  };

  const double t_start = now_s() + 0.01;
  const double rate = o.sizes.paced_rate;
  for (std::size_t k = 0; k < paced; ++k) {
    const double due = t_start + double(k) / rate;
    for (double t = now_s(); t < due; t = now_s()) {
      poll();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(due - t, 1e-4)));
    }
    s.late.push_back(now_s() - due);
    submit_record(records[k], due);
    poll();
  }
  s.paced_admitted = s.due.size();
  wait_folded();

  const std::uint64_t pairs_before = service.stats().pairs;
  const std::size_t burst_first = s.due.size();
  s.burst_begin = now_s();
  for (std::size_t k = paced; k < records.size(); ++k) {
    while (service.queue_depth() >= cfg.queue_capacity / 2) {
      poll();
      pause_briefly();
    }
    submit_record(records[k], now_s());
    poll();
  }
  wait_folded();
  s.burst_keys = s.due.size() - burst_first;
  s.burst_end = s.burst_keys ? s.fold.back() : now_s();
  // IntakeStats counts a batch once its last key has folded.
  const double limit = now_s() + 10.0;
  while (service.stats().probed < s.due.size() && now_s() < limit) {
    pause_briefly();
  }
  s.burst_pairs = service.stats().pairs - pairs_before;
  service.stop();
  s.stats = service.stats();
  const double t_close = now_s();

  for (const double f : s.fold) {
    gate.check(f >= 0.0, "intake: admitted arrival folded");
  }
  gate.check(s.stats.probed == s.due.size(),
             "intake: every admitted arrival probed");
  const auto corpus = service.corpus();
  std::vector<PairHit> hits;
  for (const auto& h : service.hits()) hits.push_back({h.i, h.j, h.factor});
  check_pair_hits(std::move(hits), corpus, truth, o.inject_fault, gate,
                  "intake");
  fs::remove(journal);

  if (traced) {
    const auto id = r.spans.add("intake_session", t_open, t_close);
    for (std::size_t a = 0; a < s.due.size(); ++a) {
      const auto arrival = r.spans.add("arrival", s.due[a], s.fold[a], id);
      r.spans.add("submit", s.submit_begin[a], s.submit_end[a], arrival);
    }
  }
  return s;
}

double parse_mb_per_s(std::span<const StreamRecord> records) {
  std::string text;
  for (const auto& rec : records) text += rec.text;
  std::vector<double> times;
  for (int k = 0; k < 3; ++k) {
    svc::IntakeParser parser;
    const double t0 = now_s();
    parser.feed(text);
    parser.finish();
    times.push_back(now_s() - t0);
  }
  return double(text.size()) / 1e6 / median(times);
}

/// svc.* from one traced session. The latency split uses the paced
/// arrivals when there are any, else every arrival.
void intake_figures(const Session& s, double parse_rate, Report& r) {
  const std::size_t n = s.paced_admitted ? s.paced_admitted : s.due.size();
  std::vector<double> submit_us, queue_ms, probe_ms, arrival_ms;
  for (std::size_t a = 0; a < n; ++a) {
    submit_us.push_back((s.submit_end[a] - s.submit_begin[a]) * 1e6);
    arrival_ms.push_back((s.fold[a] - s.due[a]) * 1e3);
    // The batch holding arrival a: the first hook whose running key count
    // passes a.
    const auto b = std::upper_bound(s.hook_keys.begin(), s.hook_keys.end(),
                                    std::uint64_t(a)) -
                   s.hook_keys.begin();
    if (std::size_t(b) >= s.hook_time.size()) continue;
    queue_ms.push_back((s.hook_time[b] - s.submit_end[a]) * 1e3);
    probe_ms.push_back((s.fold[a] - s.hook_time[b]) * 1e3);
  }
  r.set_layer("svc.parse_mb_per_s", parse_rate, "MB/s");
  r.set_layer("svc.submit_us_p50", quantile(submit_us, 0.5), "us");
  r.set_layer("svc.submit_us_p99", quantile(submit_us, 0.99), "us");
  r.set_layer("svc.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms");
  r.set_layer("svc.probe_fold_ms_p50", quantile(probe_ms, 0.5), "ms");
  r.set_layer("svc.arrival_ms_p99", quantile(arrival_ms, 0.99), "ms");
  r.set_layer("svc.batch_keys_mean",
              s.stats.batches ? double(s.stats.probed) / double(s.stats.batches)
                              : 0.0,
              "keys");
  r.set_layer("svc.duplicates", double(s.stats.duplicates), "count");
  r.set_layer("svc.rejected", double(s.rejected), "count");
  r.set_layer("svc.shed", double(s.stats.shed), "count");
}

}  // namespace

void intake_layers(std::span<const BigInt> corpus, std::size_t split,
                   std::span<const Planted> truth, const Options& o, Report& r) {
  const auto records = render_records(corpus.subspan(split));
  std::vector<Planted> stream_truth;
  for (const auto& p : truth) {
    if (p.j >= split && p.j < corpus.size()) stream_truth.push_back(p);
  }
  const Session s = run_session(corpus.first(split), records, 0, stream_truth,
                                o, true, r);
  intake_figures(s, parse_mb_per_s(records), r);
}

void run_intake_workload(const Options& o, Report& r) {
  const auto truth = load_truth(o.inputs / "truth.txt");
  const IntakeInputs inputs = load_intake_inputs(o.inputs);
  LoadTimer loads(o.inputs / "seed.keys");
  const auto seed = loads.sample();
  for (std::size_t k = 1; k < o.sizes.reps_setup; ++k) loads.sample();

  // The service's own set-up: seed dedup index and staging, journal open,
  // probe worker start.
  std::vector<double> opens;
  for (std::size_t k = 0; k < o.sizes.reps_setup; ++k) {
    svc::IntakeServiceConfig cfg;
    cfg.journal_path = o.work / "setup.journal";
    const double t0 = now_s();
    {
      svc::IntakeService service(seed, cfg);
      opens.push_back(now_s() - t0);
    }
    fs::remove(cfg.journal_path);
  }

  const Session s =
      run_session(seed, inputs.records, inputs.paced, truth, o, false, r);
  std::vector<double> latency_ms;
  for (std::size_t a = 0; a < s.paced_admitted; ++a) {
    latency_ms.push_back((s.fold[a] - s.due[a]) * 1e3);
  }
  const double pairs_per_s = double(s.burst_pairs) / s.burst_seconds();
  const double setup = loads.load_s() + median(opens);
  r.set_e2e("pairs_per_s", pairs_per_s, "pairs/s");
  r.set_e2e("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  r.set_e2e("setup_s", setup, "s");

  char line[256];
  std::snprintf(line, sizeof line,
                "intake: seed %zu keys; paced %zu records at %.0f/s (%zu "
                "admitted), burst %zu records (%zu admitted); %llu "
                "duplicates, %zu rejected, %llu shed",
                seed.size(), inputs.paced, o.sizes.paced_rate,
                s.paced_admitted, inputs.records.size() - inputs.paced,
                s.burst_keys, (unsigned long long)s.stats.duplicates,
                s.rejected, (unsigned long long)s.stats.shed);
  r.note(line);
  std::snprintf(line, sizeof line,
                "intake_p50_ms = %.4f ms, intake_p95_ms = %.4f ms, "
                "intake_p99_ms = %.4f ms (%zu paced arrivals, due time to "
                "fold)",
                quantile(latency_ms, 0.5), quantile(latency_ms, 0.95),
                quantile(latency_ms, 0.99), latency_ms.size());
  r.note(line);
  std::snprintf(line, sizeof line,
                "intake_keys_per_s = %.2f keys/s (burst: %zu folds in %.3f s; "
                "%.0f pairs/s)",
                double(s.burst_keys) / s.burst_seconds(), s.burst_keys,
                s.burst_seconds(), pairs_per_s);
  r.note(line);
  std::snprintf(line, sizeof line,
                "generator lateness: p50 %.4f ms, p99 %.4f ms, max %.4f ms",
                quantile(s.late, 0.5) * 1e3, quantile(s.late, 0.99) * 1e3,
                quantile(s.late, 1.0) * 1e3);
  r.note(line);
  if (!o.trace) return;

  const Session t =
      run_session(seed, inputs.records, inputs.paced, truth, o, true, r);
  const double traced_pairs_per_s = double(t.burst_pairs) / t.burst_seconds();
  r.set_layer("rsa.load_s", loads.load_s(), "s");
  r.set_layer("rsa.digest_s", loads.digest_s(), "s");
  r.set_layer("obs.trace_overhead_pct",
              (pairs_per_s / traced_pairs_per_s - 1.0) * 100.0, "%");
  intake_figures(t, parse_mb_per_s(inputs.records), r);

  const std::size_t sub = std::min(o.sizes.subset, seed.size());
  const std::span<const BigInt> subset(seed.data(), sub);
  const auto sub_truth = truth_within(truth, sub);
  scan_layers(subset, sub_truth, o, r);
  tree_layers(subset, sub_truth, o, r);
  engine_layers(seed, truth_within(truth, seed.size()), o, r,
                /*with_counts=*/true);
}

}  // namespace perfbench
