// `weakscan intake` — the long-running front end of the bulk-GCD pipeline
// (docs/INTAKE_SERVICE.md). Clients connect over TCP and stream key records
// (PEM public keys, keystore `modulus`/`keypair` lines, or raw hex moduli);
// every parsed modulus flows through the svc::IntakeService pipeline:
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
// Shutdown (SIGINT/SIGTERM or --exit-after-idle): the listener closes,
// in-flight connections finish, the admission queue drains through the probe
// element (every admitted key is still probed and folded), the final
// telemetry snapshot is flushed, and a summary with every hit is printed.
// Exit code 0.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cli.hpp"
#include "svc/net_util.hpp"

namespace weakscan {
namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// Prints hits as they land (probe-worker thread) and mirrors them to every
/// connected client. A failed mirror write means that client vanished
/// mid-batch: its fd is dropped immediately so later hits from the same
/// batch don't keep writing into a dead socket (the connection worker still
/// owns and closes the fd).
class HitReporter : public bulk::ProgressSink {
 public:
  void on_hit(const bulk::FactorHit& hit) override {
    const std::string line = "hit " + std::to_string(hit.i) + " " +
                             std::to_string(hit.j) + " " + hit.factor.to_hex();
    std::lock_guard lock(mutex_);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    for (auto it = fds_.begin(); it != fds_.end();) {
      if (!svc::send_all(*it, line + "\n")) {
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

const char* admission_word(svc::Admission a) {
  using svc::Admission;
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
void serve_connection(int fd, svc::IntakeService& service,
                      HitReporter& reporter, obs::TraceRecorder* trace,
                      std::uint32_t parse_event) {
  reporter.attach(fd);
  svc::IntakeParser parser;
  char buf[4096];
  bool peer_alive = true;
  auto respond = [&](const std::vector<svc::IntakeRecord>& records) {
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
    if (!out.empty() && !svc::send_all(fd, out)) peer_alive = false;
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

int run_intake(int argc, char** argv) {
  std::uint16_t port = 7411;
  std::optional<std::uint16_t> metrics_port;
  std::string seed_path;
  double exit_after_idle = 0.0;
  std::size_t max_conns = 8;
  svc::IntakeServiceConfig config;
  Telemetry telemetry(/*default_interval=*/5.0);
  for (Args args(argc, argv); args.next();) {
    if (args.is("--port")) {
      port = std::uint16_t(args.u64(65535));
    } else if (args.is("--metrics-port")) {
      metrics_port = std::uint16_t(args.u64(65535));
    } else if (args.is("--seed")) {
      seed_path = args.value();
    } else if (args.is("--journal")) {
      config.journal_path = args.value();
    } else if (args.is("--journal-fsync-every")) {
      config.journal_fsync_every = args.u64();
    } else if (args.is("--max-conns")) {
      max_conns = std::max<std::size_t>(1, args.u64());
    } else if (args.is("--queue-capacity")) {
      config.queue_capacity = args.u64();
    } else if (args.is("--batch-max")) {
      config.batch_max = args.u64();
    } else if (args.is("--engine")) {
      const auto engine = bulk::parse_engine(args.value());
      if (!engine) throw UsageError("--engine takes auto|vector|staged|scalar");
      config.probe.engine = *engine;
    } else if (args.is("--threads")) {
      config.probe.pool_threads = args.u64();
    } else if (args.is("--exit-after-idle")) {
      exit_after_idle = args.seconds();
    } else if (!telemetry.parse(args)) {
      args.unknown();
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // One registry feeds the probe-path counters, the intake_* pipeline gauges,
  // the /metrics scrape endpoint, and the NDJSON emitter.
  const auto start_time = std::chrono::steady_clock::now();
  telemetry.start(/*ring_capacity=*/65536, /*always_registry=*/true);
  obs::MetricsRegistry& registry = *telemetry.registry();
  obs::TraceRecorder* tracer = telemetry.trace();
  config.probe.metrics = &registry;
  config.probe.trace = tracer;
  std::uint32_t parse_event = 0;
  if (tracer != nullptr) {
    parse_event = tracer->intern("parse");
    tracer->set_arg_names(parse_event, "line", "", "");
  }

  std::vector<mp::BigInt> seed;
  if (!seed_path.empty()) seed = load_corpus(seed_path, &registry);

  HitReporter reporter;
  config.sink = &reporter;
  // Throws when the journal belongs to a different seed corpus.
  svc::IntakeService service(std::move(seed), std::move(config));
  {
    const svc::IntakeStats boot = service.stats();
    if (boot.restored || boot.resumed) {
      std::printf("journal replay: %llu probed keys restored, "
                  "%llu unprobed keys resumed\n",
                  (unsigned long long)boot.restored,
                  (unsigned long long)boot.resumed);
    }
  }

  std::optional<obs::MetricsHttpServer> metrics_server;
  if (metrics_port) {
    metrics_server.emplace(registry, *metrics_port);
    metrics_server->set_status_provider(
        [build = bulk::query_build_info(), start_time] {
          const double uptime = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    start_time)
                                    .count();
          return bulk::build_info_json(build, uptime);
        });
    if (tracer != nullptr) metrics_server->set_trace(tracer);
    std::printf("metrics on 127.0.0.1:%u (/metrics, /healthz, /status%s)\n",
                unsigned(metrics_server->port()),
                tracer != nullptr ? ", /trace" : "");
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
        serve_connection(fd, service, reporter, tracer, parse_event);
        ::close(fd);
        conn_active->set(double(active_conns.fetch_sub(1) - 1));
        conn_closed->inc();
      }
    });
  }
  auto stop_workers = [&] {
    g_stop.store(true);
    conn_queue.close();
    for (auto& worker : conn_workers) worker.join();
  };

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int one = 1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (listen_fd < 0 ||
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
          0 ||
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    const std::string reason = std::strerror(errno);
    if (listen_fd >= 0) ::close(listen_fd);
    stop_workers();
    throw std::runtime_error("cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + reason);
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
  ::close(listen_fd);
  stop_workers();

  // Graceful shutdown: drain every admitted key through the probe element,
  // then flush the final telemetry snapshot before the summary prints.
  std::printf("draining %zu queued keys...\n", service.queue_depth());
  service.stop();
  if (metrics_server) metrics_server->stop();
  telemetry.finish();

  const svc::IntakeStats stats = service.stats();
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
  for (const auto& hit : service.hits()) print_hit(hit);
  return kExitDone;
}

}  // namespace weakscan
