#include "svc/intake_service.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rsa/keystore.hpp"

namespace bulkgcd::svc {

/// intake_* metric handles (docs/OBSERVABILITY.md). All null without a
/// registry; every use is guarded by a single branch. Queue-depth and
/// batch-fill gauges give each pipeline element its own live backlog signal.
struct IntakeService::Telemetry {
  obs::Counter* submitted = nullptr;
  obs::Counter* admitted = nullptr;
  obs::Counter* duplicates = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* closed = nullptr;
  obs::Counter* probed = nullptr;
  obs::Counter* pairs = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* hits = nullptr;
  obs::Counter* restored = nullptr;
  obs::Counter* resumed = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* batch_fill = nullptr;
  obs::Gauge* corpus_size = nullptr;
  obs::HistogramMetric* probe_seconds = nullptr;
  obs::HistogramMetric* journal_fsync_seconds = nullptr;

  static std::unique_ptr<Telemetry> resolve(obs::MetricsRegistry* m) {
    if (!m) return nullptr;
    auto t = std::make_unique<Telemetry>();
    t->submitted = m->counter("intake_submitted_total");
    t->admitted = m->counter("intake_admitted_total");
    t->duplicates = m->counter("intake_duplicates_total");
    t->shed = m->counter("intake_shed_total");
    t->closed = m->counter("intake_closed_total");
    t->probed = m->counter("intake_probed_total");
    t->pairs = m->counter("intake_pairs_total");
    t->batches = m->counter("intake_batches_total");
    t->hits = m->counter("intake_hits_total");
    t->restored = m->counter("intake_restored_total");
    t->resumed = m->counter("intake_resumed_total");
    t->queue_depth = m->gauge("intake_queue_depth");
    t->batch_fill = m->gauge("intake_batch_fill");
    t->corpus_size = m->gauge("intake_corpus_size");
    t->probe_seconds = m->histogram("intake_probe_seconds", 0.0, 10.0, 100);
    t->journal_fsync_seconds =
        m->histogram("intake_journal_fsync_seconds", 0.0, 0.1, 100);
    return t;
  }
};

/// Interned trace event ids for the arrival pipeline (obs/trace.hpp). Each
/// admitted arrival's flow chain reads: [flow_begin at the caller's parse
/// site] → journal_append span → queued step → probe span → fold end, all
/// carrying the same flow id, so the exported timeline connects one key's
/// path across the submitting thread and the probe worker.
struct IntakeService::TraceHooks {
  obs::TraceRecorder* rec = nullptr;
  std::uint32_t journal_append = 0;
  std::uint32_t queued = 0;
  std::uint32_t replayed = 0;
  std::uint32_t probe_key = 0;
  std::uint32_t fold = 0;

  static std::unique_ptr<TraceHooks> resolve(obs::TraceRecorder* rec) {
    if (!rec) return nullptr;
    auto t = std::make_unique<TraceHooks>();
    t->rec = rec;
    t->journal_append = rec->intern("journal_append");
    t->queued = rec->intern("queued");
    t->replayed = rec->intern("replayed");
    t->probe_key = rec->intern("probe_key");
    t->fold = rec->intern("fold");
    rec->set_arg_names(t->journal_append, "seq", "", "");
    rec->set_arg_names(t->queued, "seq", "depth", "");
    rec->set_arg_names(t->replayed, "seq", "", "");
    rec->set_arg_names(t->probe_key, "seq", "fold_index", "hits");
    rec->set_arg_names(t->fold, "seq", "fold_index", "hits");
    return t;
  }
};

IntakeService::IntakeService(std::vector<mp::BigInt> seed_corpus,
                             IntakeServiceConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      corpus_(std::move(seed_corpus)),
      tele_(Telemetry::resolve(config_.probe.metrics)) {
  if (config_.batch_max == 0) config_.batch_max = 1;
  config_.probe.engine = bulk::resolve_engine(config_.probe.engine);
  trace_ = TraceHooks::resolve(config_.probe.trace);
  seed_count_ = corpus_.size();
  // Seed the dedup element so a re-submitted seed key is recognized.
  for (const auto& n : corpus_) seen_[fingerprint(n)].push_back(n);
  // The live staged form of the corpus the probe rides: seed now, every
  // fold appended in place (bulk/staged_corpus.hpp).
  staged_.emplace(std::span<const mp::BigInt>(corpus_),
                  std::max<std::size_t>(1, config_.probe.group_size));
  if (!config_.journal_path.empty()) replay_journal();
  if (tele_) {
    tele_->corpus_size->set(double(corpus_.size()));
    if (stats_.restored) tele_->restored->add(stats_.restored);
    if (stats_.resumed) tele_->resumed->add(stats_.resumed);
  }
  worker_ = std::thread([this] { worker_loop(); });
}

IntakeService::~IntakeService() { stop(); }

std::uint64_t IntakeService::fingerprint(const mp::BigInt& n) const noexcept {
  // The canonical-byte FNV-1a shared with the keystore loader and the
  // journal encoding (rsa/keystore.hpp) — one definition of "same modulus"
  // across every dedup layer, identical on every limb-width build.
  return rsa::modulus_fingerprint(n);
}

/// Rebuild streamed state from the arrival journal: probed arrivals re-fold
/// exactly as the previous process folded them (their journaled hits are
/// authoritative — no GCDs re-run), unprobed-tail arrivals go to
/// replay_tail_ for the worker to probe first. Runs before the worker
/// starts, so no locks are needed.
void IntakeService::replay_journal() {
  journal_ = std::make_unique<ArrivalJournal>(
      config_.journal_path,
      rsa::corpus_digest(std::span<const mp::BigInt>(corpus_)), seed_count_,
      config_.journal_fsync_every,
      tele_ ? tele_->journal_fsync_seconds : nullptr);
  ArrivalReplay replay = journal_->take_replay();
  for (std::size_t seq = 0; seq < replay.arrivals.size(); ++seq) {
    auto& arrival = replay.arrivals[seq];
    seen_[fingerprint(arrival.value)].push_back(arrival.value);
    if (!arrival.probed) {
      replay_tail_.push_back({seq, std::move(arrival.value)});
      ++stats_.resumed;
      continue;
    }
    const std::size_t j = corpus_.size();  // fold index == seed_count_ + seq
    for (auto& [i, factor] : arrival.hits) {
      bulk::FactorHit fh;
      fh.i = std::size_t(i);
      fh.j = j;
      // full_modulus is not journaled — it is a property of the values,
      // recomputed here exactly as the probe computed it.
      fh.full_modulus = (fh.i < corpus_.size() && factor == corpus_[fh.i]) ||
                        factor == arrival.value;
      fh.factor = std::move(factor);
      hits_.push_back(std::move(fh));
    }
    staged_->append(arrival.value);
    corpus_.push_back(std::move(arrival.value));
    ++stats_.restored;
  }
  next_seq_ = replay.arrivals.size();
}

Admission IntakeService::submit(const mp::BigInt& n, std::uint64_t flow_id) {
  if (tele_) tele_->submitted->inc();
  {
    std::lock_guard stats_lock(stats_mutex_);
    ++stats_.submitted;
  }
  std::lock_guard lock(dedup_mutex_);
  if (closed_) {
    if (tele_) tele_->closed->inc();
    std::lock_guard stats_lock(stats_mutex_);
    ++stats_.closed;
    return Admission::kClosed;
  }
  auto& bucket = seen_[fingerprint(n)];
  if (std::find(bucket.begin(), bucket.end(), n) != bucket.end()) {
    if (tele_) tele_->duplicates->inc();
    std::lock_guard stats_lock(stats_mutex_);
    ++stats_.duplicates;
    return Admission::kDuplicate;
  }
  // Durability before admission: the arrival is journaled, THEN offered to
  // the queue — a key the worker can see is always on disk first, so a
  // probed record can never orphan its arrival. A shed key is retracted in
  // the same critical section (arrival + retract cancel on replay) and its
  // seq reused: shed means "never admitted", on disk as in memory.
  const std::uint64_t seq = next_seq_;
  if (journal_) {
    obs::TraceSpan append_span(trace_ ? trace_->rec : nullptr,
                               trace_ ? trace_->journal_append : 0, flow_id);
    append_span.set_args(seq);
    journal_->append_arrival(seq, n);
  }
  if (!queue_.try_push(PendingKey{seq, n, flow_id})) {
    if (journal_) journal_->append_retract(seq);
    if (bucket.empty()) seen_.erase(fingerprint(n));
    if (tele_) {
      tele_->shed->inc();
      tele_->queue_depth->set(double(queue_.size()));
    }
    std::lock_guard stats_lock(stats_mutex_);
    ++stats_.shed;
    return Admission::kShed;
  }
  ++next_seq_;
  bucket.push_back(n);
  if (trace_ && flow_id != 0) {
    trace_->rec->flow_step(trace_->queued, flow_id, seq, queue_.size());
  }
  if (tele_) {
    tele_->admitted->inc();
    tele_->queue_depth->set(double(queue_.size()));
  }
  std::lock_guard stats_lock(stats_mutex_);
  ++stats_.admitted;
  return Admission::kAdmitted;
}

void IntakeService::worker_loop() {
  if (trace_) trace_->rec->set_thread_name("intake-probe");
  std::vector<PendingKey> batch;
  // Resumed tail first: journaled arrivals the previous process admitted
  // but never probed. They already passed admission once, so they bypass
  // the bounded queue (a long tail must not be shed by it) and keep their
  // original seqs — the re-probe journals fresh probed records under them.
  while (!replay_tail_.empty()) {
    batch.clear();
    while (batch.size() < config_.batch_max && !replay_tail_.empty()) {
      PendingKey pending = std::move(replay_tail_.front());
      replay_tail_.pop_front();
      // Replayed arrivals never saw the live parse site, so their flow
      // chains begin here: replayed → probe → fold.
      if (trace_) {
        pending.flow = trace_->rec->next_flow_id();
        trace_->rec->flow_begin(trace_->replayed, pending.flow, pending.seq);
      }
      batch.push_back(std::move(pending));
    }
    if (tele_) tele_->batch_fill->set(double(batch.size()));
    if (config_.batch_hook) config_.batch_hook(batch.size());
    probe_batch(batch);
  }
  PendingKey key;
  // Blocking first pop per batch; then the accumulator greedily tops up to
  // batch_max so a burst is probed in one wakeup. pop() returning false
  // means closed AND drained — the graceful-shutdown exit.
  while (queue_.pop(key)) {
    batch.clear();
    batch.push_back(std::move(key));
    while (batch.size() < config_.batch_max && queue_.try_pop(key)) {
      batch.push_back(std::move(key));
    }
    if (tele_) {
      tele_->queue_depth->set(double(queue_.size()));
      tele_->batch_fill->set(double(batch.size()));
    }
    if (config_.batch_hook) config_.batch_hook(batch.size());
    probe_batch(batch);
  }
  // Drained for good: both backlog gauges read zero after shutdown, so a
  // final scrape never shows a phantom in-flight batch.
  if (tele_) {
    tele_->queue_depth->set(0.0);
    tele_->batch_fill->set(0.0);
  }
}

void IntakeService::probe_batch(std::vector<PendingKey>& batch) {
  obs::ScopedSpan span(tele_ ? tele_->probe_seconds : nullptr);
  std::uint64_t batch_pairs = 0;
  std::uint64_t batch_hits = 0;
  for (auto& pending : batch) {
    mp::BigInt& n = pending.value;
    obs::TraceSpan key_span(trace_ ? trace_->rec : nullptr,
                            trace_ ? trace_->probe_key : 0, pending.flow);
    // The staged corpus is only ever grown by this thread, so the probe
    // rides it without holding state_mutex_.
    bulk::ProbeStats probe_stats;
    const auto incremental =
        bulk::probe_incremental(n, *staged_, config_.probe, &probe_stats);
    batch_pairs += probe_stats.pairs_tested;

    const std::size_t j = corpus_.size();  // fold index of this arrival
    key_span.set_args(pending.seq, j, incremental.size());
    std::vector<bulk::FactorHit> found;
    found.reserve(incremental.size());
    for (const auto& hit : incremental) {
      bulk::FactorHit fh;
      fh.i = hit.corpus_index;
      fh.j = j;
      fh.factor = hit.factor;
      fh.full_modulus = hit.full_modulus;
      found.push_back(std::move(fh));
    }
    const std::size_t key_hits = found.size();
    batch_hits += key_hits;
    // Settle the probe on disk before reporting or folding: after this
    // append a restart re-folds the key from the journal instead of
    // re-probing it.
    if (journal_) journal_->append_probed(pending.seq, found);
    if (config_.sink) {
      for (const auto& fh : found) config_.sink->on_hit(fh);
    }
    staged_->append(n);
    {
      // Corpus fold + hit record are one atomic step for snapshot readers.
      std::lock_guard lock(state_mutex_);
      corpus_.push_back(std::move(n));
      hits_.insert(hits_.end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
    }
    if (trace_ && pending.flow != 0) {
      trace_->rec->flow_end(trace_->fold, pending.flow, pending.seq, j,
                            key_hits);
    }
  }

  if (tele_) {
    tele_->probed->add(batch.size());
    tele_->pairs->add(batch_pairs);
    tele_->hits->add(batch_hits);
    tele_->batches->inc();
    tele_->corpus_size->set(double(corpus_.size()));
  }
  std::lock_guard stats_lock(stats_mutex_);
  stats_.probed += batch.size();
  stats_.pairs += batch_pairs;
  stats_.hits += batch_hits;
  ++stats_.batches;
}

void IntakeService::stop() {
  {
    std::lock_guard lock(dedup_mutex_);
    closed_ = true;
  }
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

IntakeStats IntakeService::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::vector<bulk::FactorHit> IntakeService::hits() const {
  std::lock_guard lock(state_mutex_);
  std::vector<bulk::FactorHit> out = hits_;
  std::sort(out.begin(), out.end(),
            [](const bulk::FactorHit& a, const bulk::FactorHit& b) {
              return std::pair(a.i, a.j) < std::pair(b.i, b.j);
            });
  return out;
}

std::vector<mp::BigInt> IntakeService::corpus() const {
  std::lock_guard lock(state_mutex_);
  return corpus_;
}

std::size_t IntakeService::corpus_size() const {
  std::lock_guard lock(state_mutex_);
  return corpus_.size();
}

}  // namespace bulkgcd::svc
