#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"

namespace bulkgcd::obs {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t steady_ns() noexcept {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

// Word 4 packs name id and kind; words 0..3 and 5..7 are seq, ts, dur, flow,
// and the three args.
std::uint64_t pack_meta(std::uint32_t name_id, TraceEventKind kind) noexcept {
  return std::uint64_t(name_id) | (std::uint64_t(std::uint8_t(kind)) << 32);
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

/// Chrome timestamps are microseconds; keep nanosecond precision as a
/// 3-decimal fraction so adjacent sub-microsecond events stay ordered.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                (unsigned long long)(ns / 1000),
                (unsigned long long)(ns % 1000));
  out += buf;
}

const char* phase_of(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kComplete:
      return "X";
    case TraceEventKind::kInstant:
      return "i";
    case TraceEventKind::kFlowBegin:
      return "s";
    case TraceEventKind::kFlowStep:
      return "t";
    case TraceEventKind::kFlowEnd:
      return "f";
  }
  return "i";
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t ring_capacity,
                             MetricsRegistry* metrics)
    : id_(next_recorder_id()),
      capacity_(std::max<std::size_t>(1, ring_capacity)),
      epoch_ns_(steady_ns()) {
  if (metrics != nullptr) {
    recorded_counter_ = metrics->counter("trace_events_recorded_total");
    dropped_counter_ = metrics->counter("trace_events_dropped_total");
  }
}

TraceRecorder::~TraceRecorder() = default;

std::uint64_t TraceRecorder::now_ns() const noexcept {
  const std::uint64_t now = steady_ns();
  return now >= epoch_ns_ ? now - epoch_ns_ : 0;
}

std::uint64_t TraceRecorder::next_flow_id() noexcept {
  return next_flow_.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t TraceRecorder::intern(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return std::uint32_t(i);
  }
  names_.emplace_back(name);
  return std::uint32_t(names_.size() - 1);
}

void TraceRecorder::set_arg_names(std::uint32_t name_id, std::string_view a0,
                                  std::string_view a1, std::string_view a2) {
  std::lock_guard lock(mutex_);
  for (auto& entry : arg_names_) {
    if (entry.name_id == name_id) {
      entry.labels[0] = a0;
      entry.labels[1] = a1;
      entry.labels[2] = a2;
      return;
    }
  }
  arg_names_.push_back(
      {name_id, {std::string(a0), std::string(a1), std::string(a2)}});
}

void TraceRecorder::set_thread_name(std::string_view name) {
  ThreadRing* ring = this_thread_ring();
  std::lock_guard lock(mutex_);
  ring->name = std::string(name);
}

/// Per-thread map recorder-id → ThreadRing*. Recorder ids are process-unique
/// and never reused, so a stale pointer left by a destroyed recorder is never
/// dereferenced (its index is simply never looked up again) — the same
/// scheme as MetricsRegistry::thread_block_map.
std::vector<TraceRecorder::ThreadRing*>& TraceRecorder::thread_ring_map() {
  thread_local std::vector<ThreadRing*> map;
  return map;
}

TraceRecorder::ThreadRing* TraceRecorder::this_thread_ring() {
  auto& map = thread_ring_map();
  if (id_ < map.size() && map[id_] != nullptr) return map[id_];
  if (map.size() <= id_) map.resize(id_ + 1, nullptr);
  std::lock_guard lock(mutex_);
  auto ring =
      std::make_unique<ThreadRing>(std::uint32_t(rings_.size()), capacity_);
  ThreadRing* raw = ring.get();
  rings_.push_back(std::move(ring));
  map[id_] = raw;
  return raw;
}

void TraceRecorder::record(TraceEventKind kind, std::uint32_t name_id,
                           std::uint64_t ts_ns, std::uint64_t dur_ns,
                           std::uint64_t flow, std::uint64_t a0,
                           std::uint64_t a1, std::uint64_t a2) noexcept {
  ThreadRing* ring = this_thread_ring();
  const std::uint64_t h = ring->written.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[h % capacity_];
  // Per-slot seqlock write: odd marks in-progress, every payload word is a
  // release store, the even publish releases. A reader whose acquire load
  // observed any payload word of this write therefore also observes the odd
  // seq on its re-check (and discards the read as torn). No fences: TSan
  // does not model them, and on x86 release stores are plain moves.
  const std::uint64_t seq = slot.w[0].load(std::memory_order_relaxed);
  slot.w[0].store(seq + 1, std::memory_order_relaxed);
  slot.w[1].store(ts_ns, std::memory_order_release);
  slot.w[2].store(dur_ns, std::memory_order_release);
  slot.w[3].store(flow, std::memory_order_release);
  slot.w[4].store(pack_meta(name_id, kind), std::memory_order_release);
  slot.w[5].store(a0, std::memory_order_release);
  slot.w[6].store(a1, std::memory_order_release);
  slot.w[7].store(a2, std::memory_order_release);
  slot.w[0].store(seq + 2, std::memory_order_release);
  ring->written.store(h + 1, std::memory_order_release);
  if (recorded_counter_ != nullptr) {
    recorded_counter_->inc();
    if (h >= capacity_) dropped_counter_->inc();
  }
}

void TraceRecorder::complete(std::uint32_t name_id, std::uint64_t ts_ns,
                             std::uint64_t dur_ns, std::uint64_t flow,
                             std::uint64_t a0, std::uint64_t a1,
                             std::uint64_t a2) noexcept {
  record(TraceEventKind::kComplete, name_id, ts_ns, dur_ns, flow, a0, a1, a2);
}

void TraceRecorder::instant(std::uint32_t name_id, std::uint64_t flow,
                            std::uint64_t a0, std::uint64_t a1,
                            std::uint64_t a2) noexcept {
  record(TraceEventKind::kInstant, name_id, now_ns(), 0, flow, a0, a1, a2);
}

void TraceRecorder::flow_begin(std::uint32_t name_id, std::uint64_t flow,
                               std::uint64_t a0, std::uint64_t a1,
                               std::uint64_t a2) noexcept {
  record(TraceEventKind::kFlowBegin, name_id, now_ns(), 0, flow, a0, a1, a2);
}

void TraceRecorder::flow_step(std::uint32_t name_id, std::uint64_t flow,
                              std::uint64_t a0, std::uint64_t a1,
                              std::uint64_t a2) noexcept {
  record(TraceEventKind::kFlowStep, name_id, now_ns(), 0, flow, a0, a1, a2);
}

void TraceRecorder::flow_end(std::uint32_t name_id, std::uint64_t flow,
                             std::uint64_t a0, std::uint64_t a1,
                             std::uint64_t a2) noexcept {
  record(TraceEventKind::kFlowEnd, name_id, now_ns(), 0, flow, a0, a1, a2);
}

std::uint64_t TraceRecorder::events_recorded() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->written.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TraceRecorder::events_dropped() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t w = ring->written.load(std::memory_order_relaxed);
    total += w > capacity_ ? w - capacity_ : 0;
  }
  return total;
}

TraceRecorder::TraceSnapshot TraceRecorder::snapshot() const {
  TraceSnapshot snap;
  std::lock_guard lock(mutex_);
  snap.names = names_;
  snap.arg_labels.resize(names_.size());
  for (const auto& entry : arg_names_) {
    if (entry.name_id >= snap.arg_labels.size()) continue;
    for (int k = 0; k < 3; ++k) {
      if (entry.labels[k].empty()) {
        snap.arg_labels[entry.name_id].used[k] = false;
      } else {
        snap.arg_labels[entry.name_id].labels[k] = entry.labels[k];
      }
    }
  }
  snap.threads.reserve(rings_.size());
  for (const auto& ring : rings_) {
    const std::uint64_t written = ring->written.load(std::memory_order_acquire);
    const std::uint64_t dropped = written > capacity_ ? written - capacity_ : 0;
    snap.threads.push_back({ring->id, ring->name, written, dropped});
    snap.events_recorded += written;
    snap.events_dropped += dropped;

    // Copy the retained window [dropped, written). Slots still being written
    // (odd or changed seq) are skipped — a racing writer can only be
    // touching the oldest retained slots, so the skip costs the events that
    // were about to be evicted anyway.
    const std::uint64_t lo = dropped;
    for (std::uint64_t e = lo; e < written; ++e) {
      const Slot& slot = ring->slots[e % capacity_];
      const std::uint64_t s1 = slot.w[0].load(std::memory_order_acquire);
      if (s1 & 1) continue;
      Event ev;
      ev.ring_id = ring->id;
      // Acquire payload loads: seeing any word of a racing write makes its
      // odd seq visible to the re-check below.
      ev.ts_ns = slot.w[1].load(std::memory_order_acquire);
      ev.dur_ns = slot.w[2].load(std::memory_order_acquire);
      ev.flow = slot.w[3].load(std::memory_order_acquire);
      const std::uint64_t meta = slot.w[4].load(std::memory_order_acquire);
      ev.args[0] = slot.w[5].load(std::memory_order_acquire);
      ev.args[1] = slot.w[6].load(std::memory_order_acquire);
      ev.args[2] = slot.w[7].load(std::memory_order_acquire);
      if (slot.w[0].load(std::memory_order_relaxed) != s1) continue;  // torn
      ev.name_id = std::uint32_t(meta & 0xffffffffu);
      const std::uint8_t kind = std::uint8_t((meta >> 32) & 0xff);
      if (kind < std::uint8_t(TraceEventKind::kComplete) ||
          kind > std::uint8_t(TraceEventKind::kFlowEnd)) {
        continue;  // never-written slot (meta 0) inside a counted window
      }
      ev.kind = TraceEventKind(kind);
      if (ev.name_id >= snap.names.size()) continue;
      snap.events.push_back(ev);
    }
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return snap;
}

namespace {

void append_args_json(std::string& out, const TraceRecorder::Event& ev,
                      const TraceRecorder::NameArgs& labels) {
  out += "\"args\":{";
  bool first = true;
  for (int k = 0; k < 3; ++k) {
    if (!labels.used[k]) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_escaped(out, labels.labels[k]);
    out += "\":" + std::to_string(ev.args[k]);
  }
  if (ev.flow != 0) {
    if (!first) out += ",";
    first = false;
    out += "\"flow\":" + std::to_string(ev.flow);
  }
  out += "}";
}

}  // namespace

std::string TraceRecorder::to_chrome_json() const {
  const TraceSnapshot snap = snapshot();

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& thread : snap.threads) {
    if (thread.name.empty()) continue;
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(thread.ring_id) + ",\"args\":{\"name\":\"";
    append_json_escaped(out, thread.name);
    out += "\"}}";
  }
  for (const auto& ev : snap.events) {
    const std::string& name = snap.names[ev.name_id];
    const NameArgs& lbl = snap.arg_labels[ev.name_id];
    const bool is_flow = ev.kind == TraceEventKind::kFlowBegin ||
                         ev.kind == TraceEventKind::kFlowStep ||
                         ev.kind == TraceEventKind::kFlowEnd;
    sep();
    out += "{\"name\":\"";
    append_json_escaped(out, name);
    out += "\",\"ph\":\"";
    out += is_flow ? "i" : phase_of(ev.kind);
    out += "\",\"pid\":1,\"tid\":" + std::to_string(ev.ring_id) +
           ",\"ts\":";
    append_us(out, ev.ts_ns);
    if (ev.kind == TraceEventKind::kComplete) {
      out += ",\"dur\":";
      append_us(out, ev.dur_ns);
    }
    if (ev.kind == TraceEventKind::kInstant || is_flow) {
      out += ",\"s\":\"t\"";
    }
    out += ",";
    append_args_json(out, ev, lbl);
    out += "}";
    if (is_flow) {
      // The flow edge itself: a companion s/t/f record at the same spot
      // binds this thread's instant into the flow's cross-thread chain.
      sep();
      out += "{\"name\":\"";
      append_json_escaped(out, name);
      out += "\",\"cat\":\"flow\",\"ph\":\"";
      out += phase_of(ev.kind);
      out += "\",\"id\":" + std::to_string(ev.flow) +
             ",\"pid\":1,\"tid\":" + std::to_string(ev.ring_id) + ",\"ts\":";
      append_us(out, ev.ts_ns);
      if (ev.kind == TraceEventKind::kFlowEnd) out += ",\"bp\":\"e\"";
      out += "}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
         "\"trace_events_recorded\":" +
         std::to_string(snap.events_recorded) +
         ",\"trace_events_dropped\":" + std::to_string(snap.events_dropped) +
         "}}";
  return out;
}

std::string TraceRecorder::to_ndjson() const {
  const TraceSnapshot snap = snapshot();
  std::string out;
  for (const auto& thread : snap.threads) {
    out += "{\"record\":\"thread\",\"tid\":" + std::to_string(thread.ring_id) +
           ",\"name\":\"";
    append_json_escaped(out, thread.name);
    out += "\",\"recorded\":" + std::to_string(thread.recorded) +
           ",\"dropped\":" + std::to_string(thread.dropped) + "}\n";
  }
  for (const auto& ev : snap.events) {
    const NameArgs& lbl = snap.arg_labels[ev.name_id];
    out += "{\"record\":\"event\",\"name\":\"";
    append_json_escaped(out, snap.names[ev.name_id]);
    out += "\",\"ph\":\"";
    out += phase_of(ev.kind);
    out += "\",\"tid\":" + std::to_string(ev.ring_id) +
           ",\"ts_ns\":" + std::to_string(ev.ts_ns);
    if (ev.kind == TraceEventKind::kComplete) {
      out += ",\"dur_ns\":" + std::to_string(ev.dur_ns);
    }
    out += ",";
    append_args_json(out, ev, lbl);
    out += "}\n";
  }
  return out;
}

namespace {

bool write_text_file(const std::string& path, const std::string& body,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace

bool TraceRecorder::write_chrome_json(const std::string& path,
                                      std::string* error) const {
  return write_text_file(path, to_chrome_json(), error);
}

bool TraceRecorder::write_ndjson(const std::string& path,
                                 std::string* error) const {
  return write_text_file(path, to_ndjson(), error);
}

}  // namespace bulkgcd::obs
