// Streaming key-intake daemon — the long-running front end of the bulk-GCD
// pipeline (docs/INTAKE_SERVICE.md). Clients connect over TCP and stream key
// records (PEM public keys, keystore `modulus`/`keypair` lines, or raw hex
// moduli); every parsed modulus flows through the svc::IntakeService pipeline:
//
//   parse → dedup → arrival journal → bounded admission queue → batch →
//   probe → corpus fold
//
// Connections are served concurrently by a bounded worker pool: up to
// --max-conns clients stream at once with no head-of-line blocking, and a
// saturated pool sheds the connection with a `busy` line instead of queueing
// it unboundedly — the same shed-don't-block discipline the admission queue
// applies to keys. The daemon answers one status line per record so a
// submitting client sees exactly what happened to each key:
//
//   admitted          queued for probing against the accumulated corpus
//   duplicate         exact modulus already known
//   shed              admission queue full (overload backpressure; retry)
//   closed            daemon is shutting down
//   reject <reason>   parse/validation failure (bad PEM, even modulus, ...)
//   hit <i> <j> <p>   factor found (pushed asynchronously as probes land,
//                     mirrored to every connected client)
//   busy              connection pool saturated (sent once, then closed)
//
// Usage:
//   $ ./keyintake_daemon --port 7411 --metrics-port 9100 \
//         --seed corpus.keys --journal intake.journal \
//         --metrics-out intake.ndjson
//
// Options:
//   --port <n>             intake listener port on 127.0.0.1 (0 = ephemeral;
//                          the bound port is printed as `listening ...`)
//   --metrics-port <n>     serve GET /metrics (Prometheus) + /healthz +
//                          /status (build/uptime JSON) + /trace (live Chrome
//                          trace JSON when --trace-out is on) on
//                          127.0.0.1:<n> (0 = ephemeral; off when omitted)
//   --seed <file>          keystore file preloaded as the base corpus
//   --journal <file>       durable arrival journal: every admitted key is
//                          fsynced before it is acknowledged, and a restart
//                          replays the file (probed keys re-fold, the
//                          unprobed tail is re-probed) — a SIGKILL loses no
//                          admitted key
//   --journal-fsync-every <n>  fsync cadence in records (default 1)
//   --max-conns <n>        connection worker pool size (default 8); up to
//                          2n connections in flight (n served + n queued),
//                          beyond that new connections get `busy`
//   --queue-capacity <n>   admission queue bound (default 1024; full = shed)
//   --batch-max <n>        max keys per probe-element wakeup (default 64)
//   --engine auto|vector|staged|scalar  probe engine (default auto)
//   --threads <n>          probe pool threads (1 = inline, 0 = global pool)
//   --metrics-out <file>   append NDJSON telemetry snapshots
//   --metrics-interval <s> seconds between snapshots (default 5)
//   --trace-out <file>     record a pipeline timeline (obs/trace.hpp) and
//                          write it as Chrome trace_event JSON at shutdown;
//                          every arrival carries a flow id from parse
//                          through journal, queue, probe, and fold
//   --exit-after-idle <s>  exit after <s> seconds with no connections
//                          (testing hook; default: run until SIGINT/SIGTERM)
//
// Shutdown (SIGINT/SIGTERM or idle timeout): the listener closes, in-flight
// connections finish, the admission queue drains through the probe element
// (every admitted key is still probed and folded), the final telemetry
// snapshot is flushed, and a summary with every hit is printed. Exit code 0.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bulkgcd.hpp"
#include "svc/net_util.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port <n>] [--metrics-port <n>] [--seed <file>]\n"
               "          [--journal <file>] [--journal-fsync-every <n>]\n"
               "          [--max-conns <n>] [--queue-capacity <n>]\n"
               "          [--batch-max <n>] [--engine auto|vector|staged|scalar]\n"
               "          [--threads <n>] [--metrics-out <file>]\n"
               "          [--metrics-interval <sec>] [--trace-out <file>]\n"
               "          [--exit-after-idle <sec>]\n",
               argv0);
  return 2;
}

/// Prints hits as they land (probe-worker thread) and mirrors them to every
/// connected client. A failed mirror write means that client vanished
/// mid-batch: its fd is dropped immediately so later hits from the same
/// batch don't keep writing into a dead socket (the connection worker still
/// owns and closes the fd).
class HitReporter : public bulkgcd::bulk::ProgressSink {
 public:
  void on_hit(const bulkgcd::bulk::FactorHit& hit) override {
    const std::string line = "hit " + std::to_string(hit.i) + " " +
                             std::to_string(hit.j) + " " + hit.factor.to_hex();
    std::lock_guard lock(mutex_);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    for (auto it = fds_.begin(); it != fds_.end();) {
      if (!bulkgcd::svc::send_all(*it, line + "\n")) {
        it = fds_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void attach(int fd) {
    std::lock_guard lock(mutex_);
    fds_.insert(fd);
  }
  void detach(int fd) {
    std::lock_guard lock(mutex_);
    fds_.erase(fd);
  }

 private:
  std::mutex mutex_;
  std::set<int> fds_;
};

const char* admission_word(bulkgcd::svc::Admission a) {
  using bulkgcd::svc::Admission;
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kDuplicate: return "duplicate";
    case Admission::kShed: return "shed";
    case Admission::kClosed: return "closed";
  }
  return "closed";
}

/// One client connection: stream chunks into the parser, submit every parsed
/// record, answer one status line per record. Parse failures get `reject` —
/// the connection (and the daemon) keep going.
void serve_connection(int fd, bulkgcd::svc::IntakeService& service,
                      HitReporter& reporter,
                      bulkgcd::obs::TraceRecorder* trace,
                      std::uint32_t parse_event) {
  reporter.attach(fd);
  bulkgcd::svc::IntakeParser parser;
  char buf[4096];
  bool peer_alive = true;
  auto respond = [&](const std::vector<bulkgcd::svc::IntakeRecord>& records) {
    std::string out;
    for (const auto& rec : records) {
      if (!rec.ok) {
        out += "reject line " + std::to_string(rec.line) + ": " + rec.error +
               "\n";
        continue;
      }
      // Mint the arrival's flow at the parse site: the exported chain then
      // follows this key parse → journal_append → queued → probe → fold.
      std::uint64_t flow = 0;
      if (trace != nullptr) {
        flow = trace->next_flow_id();
        trace->flow_begin(parse_event, flow, rec.line);
      }
      out += admission_word(service.submit(rec.n, flow));
      out += '\n';
    }
    if (!out.empty() && !bulkgcd::svc::send_all(fd, out)) peer_alive = false;
  };
  while (peer_alive) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (g_stop.load()) break;
    if (ready < 0) break;
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    parser.feed(std::string_view(buf, std::size_t(n)));
    respond(parser.drain());
  }
  if (peer_alive) respond(parser.finish());
  reporter.detach(fd);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bulkgcd;

  std::uint16_t port = 7411;
  int metrics_port = -1;  // -1 = disabled
  std::string seed_path;
  std::string metrics_path;
  std::string trace_path;
  double metrics_interval = 5.0;
  double exit_after_idle = 0.0;
  std::size_t max_conns = 8;
  svc::IntakeServiceConfig config;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](const char* what) -> std::string {
      if (has_inline) {
        has_inline = false;
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_u64 = [&](const char* what) {
      return std::strtoull(next(what).c_str(), nullptr, 10);
    };
    if (arg == "--port") {
      port = std::uint16_t(next_u64("--port"));
    } else if (arg == "--metrics-port") {
      metrics_port = int(next_u64("--metrics-port"));
    } else if (arg == "--seed") {
      seed_path = next("--seed");
    } else if (arg == "--journal") {
      config.journal_path = next("--journal");
    } else if (arg == "--journal-fsync-every") {
      config.journal_fsync_every = next_u64("--journal-fsync-every");
    } else if (arg == "--max-conns") {
      max_conns = std::max<std::size_t>(1, next_u64("--max-conns"));
    } else if (arg == "--queue-capacity") {
      config.queue_capacity = next_u64("--queue-capacity");
    } else if (arg == "--batch-max") {
      config.batch_max = next_u64("--batch-max");
    } else if (arg == "--engine") {
      const auto engine = bulk::parse_engine(next("--engine"));
      if (!engine) return usage(argv[0]);
      config.probe.engine = *engine;
    } else if (arg == "--threads") {
      config.probe.pool_threads = next_u64("--threads");
    } else if (arg == "--metrics-out") {
      metrics_path = next("--metrics-out");
    } else if (arg == "--metrics-interval") {
      metrics_interval = std::strtod(next("--metrics-interval").c_str(),
                                     nullptr);
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--exit-after-idle") {
      exit_after_idle = std::strtod(next("--exit-after-idle").c_str(),
                                    nullptr);
    } else {
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // One registry feeds the probe-path counters, the intake_* pipeline gauges,
  // the /metrics scrape endpoint, and the NDJSON emitter.
  obs::MetricsRegistry registry;
  config.probe.metrics = &registry;

  const bulk::BuildInfo build = bulk::query_build_info();
  std::printf("%s\n", bulk::build_info_line(build).c_str());
  const auto start_time = std::chrono::steady_clock::now();

  // Tracing is opt-in: the recorder exists only under --trace-out, so the
  // default daemon keeps every trace site on the null-recorder branch.
  std::optional<obs::TraceRecorder> tracer;
  std::uint32_t parse_event = 0;
  if (!trace_path.empty()) {
    tracer.emplace(/*ring_capacity=*/65536, &registry);
    parse_event = tracer->intern("parse");
    tracer->set_arg_names(parse_event, "line", "", "");
    config.probe.trace = &*tracer;
    std::printf("tracing -> %s\n", trace_path.c_str());
  }

  std::vector<mp::BigInt> seed;
  if (!seed_path.empty()) {
    try {
      seed = rsa::load_moduli(seed_path, &registry);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::printf("seed corpus: %zu moduli from %s\n", seed.size(),
                seed_path.c_str());
  }

  HitReporter reporter;
  config.sink = &reporter;
  std::optional<svc::IntakeService> service;
  try {
    service.emplace(std::move(seed), std::move(config));
  } catch (const std::exception& e) {
    // Typically: the journal belongs to a different seed corpus.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  {
    const svc::IntakeStats boot = service->stats();
    if (boot.restored || boot.resumed) {
      std::printf("journal replay: %llu probed keys restored, "
                  "%llu unprobed keys resumed\n",
                  (unsigned long long)boot.restored,
                  (unsigned long long)boot.resumed);
    }
  }

  std::optional<obs::MetricsHttpServer> metrics_server;
  if (metrics_port >= 0) {
    try {
      metrics_server.emplace(registry, std::uint16_t(metrics_port));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    metrics_server->set_status_provider([build, start_time] {
      const double uptime =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_time)
              .count();
      return bulk::build_info_json(build, uptime);
    });
    if (tracer) metrics_server->set_trace(&*tracer);
    std::printf("metrics on 127.0.0.1:%u (/metrics, /healthz, /status%s)\n",
                unsigned(metrics_server->port()),
                tracer ? ", /trace" : "");
  }

  std::optional<obs::TelemetryEmitter> emitter;
  if (!metrics_path.empty()) {
    try {
      emitter.emplace(registry, metrics_path, metrics_interval);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::printf("telemetry -> %s (interval %.1fs)\n", metrics_path.c_str(),
                metrics_interval);
  }

  // Connection worker pool: the accept loop hands each new fd to a bounded
  // queue drained by max_conns workers, so clients stream concurrently and a
  // slow client never head-of-line-blocks the others. The queue mirrors the
  // admission queue's semantics — try_push, shed on saturation (the client
  // gets one `busy` line), never an unbounded backlog or thread explosion.
  obs::Counter* conn_accepted = registry.counter("intake_conn_accepted_total");
  obs::Counter* conn_shed = registry.counter("intake_conn_shed_total");
  obs::Counter* conn_closed = registry.counter("intake_conn_closed_total");
  obs::Gauge* conn_active = registry.gauge("intake_conn_active");

  svc::BoundedQueue<int> conn_queue(max_conns);
  std::atomic<long> active_conns{0};
  std::vector<std::thread> conn_workers;
  conn_workers.reserve(max_conns);
  for (std::size_t w = 0; w < max_conns; ++w) {
    conn_workers.emplace_back([&] {
      int fd = -1;
      while (conn_queue.pop(fd)) {
        conn_active->set(double(active_conns.fetch_add(1) + 1));
        serve_connection(fd, *service, reporter, tracer ? &*tracer : nullptr,
                         parse_event);
        ::close(fd);
        conn_active->set(double(active_conns.fetch_sub(1) - 1));
        conn_closed->inc();
      }
    });
  }

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 2;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%u: %s\n",
                 unsigned(port), std::strerror(errno));
    ::close(listen_fd);
    g_stop.store(true);
    conn_queue.close();
    for (auto& worker : conn_workers) worker.join();
    return 2;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::printf("listening on 127.0.0.1:%u\n", unsigned(ntohs(addr.sin_port)));
  std::fflush(stdout);

  double idle_ms = 0.0;
  while (!g_stop.load()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (g_stop.load()) break;
    if (ready <= 0) {
      // Idle means nothing accepted AND nothing being served: a long-lived
      // quiet connection keeps the daemon alive.
      if (active_conns.load() == 0 && conn_queue.size() == 0) {
        idle_ms += 200.0;
        if (exit_after_idle > 0.0 && idle_ms >= exit_after_idle * 1000.0) {
          std::printf("idle for %.1fs, shutting down\n", idle_ms / 1000.0);
          break;
        }
      }
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    idle_ms = 0.0;
    conn_accepted->inc();
    if (!conn_queue.try_push(int(fd))) {
      // Pool saturated: shed the connection, don't backlog it. One status
      // line so the client can tell "busy" from a refused/reset socket.
      svc::send_all(fd, "busy\n");
      ::close(fd);
      conn_shed->inc();
    }
  }
  // Stop the connection workers before draining the service: g_stop makes
  // in-flight serve_connection loops finish their current buffer and exit.
  g_stop.store(true);
  ::close(listen_fd);
  conn_queue.close();
  for (auto& worker : conn_workers) worker.join();

  // Graceful shutdown: drain every admitted key through the probe element,
  // then flush the final telemetry snapshot before the summary prints.
  std::printf("draining %zu queued keys...\n", service->queue_depth());
  service->stop();
  if (emitter) emitter->stop();
  if (metrics_server) metrics_server->stop();

  if (tracer) {
    std::string error;
    if (tracer->write_chrome_json(trace_path, &error)) {
      std::printf("trace -> %s (%llu events, %llu dropped)\n",
                  trace_path.c_str(),
                  (unsigned long long)tracer->events_recorded(),
                  (unsigned long long)tracer->events_dropped());
    } else {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
  }

  const svc::IntakeStats stats = service->stats();
  std::printf(
      "intake summary: %llu submitted, %llu admitted, %llu duplicates, "
      "%llu shed, %llu closed, %llu probed (%llu pairs in %llu batches), "
      "%llu hits, %llu restored, %llu resumed\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.admitted,
      (unsigned long long)stats.duplicates, (unsigned long long)stats.shed,
      (unsigned long long)stats.closed, (unsigned long long)stats.probed,
      (unsigned long long)stats.pairs, (unsigned long long)stats.batches,
      (unsigned long long)stats.hits, (unsigned long long)stats.restored,
      (unsigned long long)stats.resumed);
  for (const auto& hit : service->hits()) {
    std::printf("  keys %zu and %zu share a %zu-bit prime %s\n", hit.i, hit.j,
                hit.factor.bit_length(), hit.factor.to_hex().c_str());
  }
  return 0;
}
