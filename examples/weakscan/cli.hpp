// The skeleton every weakscan command shares: the exit-code table, one flag
// parser, one run-telemetry harness, one corpus loader and one hit printer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bulkgcd.hpp"

namespace weakscan {

using namespace bulkgcd;

// Exit codes (main.cpp's usage text and the README carry the same table).
inline constexpr int kExitDone = 0;
inline constexpr int kExitFound = 1;  // scan quarantined a chunk; probe hit
inline constexpr int kExitError = 2;  // usage, flag, I/O or journal error
inline constexpr int kExitInterrupted = 3;  // --stop-after(-levels) reached

/// A malformed command line. main() prints it with the usage; exit 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Strict unsigned decimal: one or more digits and nothing else, at most
/// `max`. Anything else (empty, a sign, junk, overflow) throws UsageError
/// naming `what`.
std::uint64_t parse_u64(const std::string& text, const std::string& what,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max());

/// Walks one command's arguments. Flags take `--flag value` or
/// `--flag=value`; anything not starting with `--` is a positional.
///
///   for (Args args(argc, argv); args.next();) {
///     if (args.positional()) file = args.current();
///     else if (args.is("--threads")) threads = args.u64();
///     else args.unknown();
///   }
class Args {
 public:
  Args(int argc, char** argv) : argv_(argv, argv + argc) {}

  /// Advance to the next argument; false when none remain. Throws when the
  /// previous flag was given an `=value` it does not take.
  bool next();
  bool positional() const { return arg_.rfind("--", 0) != 0; }
  bool is(const char* flag) const { return arg_ == flag; }
  const std::string& current() const { return arg_; }

  /// The current flag's value (inline or the next argument).
  std::string value();
  std::uint64_t u64(std::uint64_t max =
                        std::numeric_limits<std::uint64_t>::max());
  /// A finite, non-negative number of seconds.
  double seconds();
  [[noreturn]] void unknown() const;

 private:
  std::vector<std::string> argv_;
  std::size_t i_ = 0;
  std::string arg_;
  std::optional<std::string> inline_value_;
};

/// Exactly `min`..`max` positionals and no flags (the corpus-file commands).
std::vector<std::string> operands(int argc, char** argv, std::size_t min,
                                  std::size_t max);

/// The run-telemetry lifecycle of scan, tree and intake:
/// --metrics-out/--metrics-interval/--trace-out → an optional registry, a
/// trace recorder, an NDJSON emitter, and the Chrome-JSON trace export.
/// Without the flags (and without `always_registry`) nothing exists and every
/// instrumented site stays on its null branch.
class Telemetry {
 public:
  explicit Telemetry(double default_interval) : interval_(default_interval) {}

  /// Consume the current argument when it is one of the telemetry flags.
  bool parse(Args& args);

  /// Print the build banner, then create what the flags asked for. Throws
  /// when the NDJSON file cannot be opened.
  void start(std::size_t ring_capacity, bool always_registry = false);

  obs::MetricsRegistry* registry() { return registry_ ? &*registry_ : nullptr; }
  obs::TraceRecorder* trace() { return tracer_ ? &*tracer_ : nullptr; }
  const std::string& metrics_path() const { return metrics_path_; }
  std::uint64_t lines_written() const {
    return emitter_ ? emitter_->lines_written() : 0;
  }

  /// Final snapshot, then the trace export; call before the summary. On an
  /// error path the emitter's destructor writes the final snapshot instead.
  void finish();

 private:
  std::string metrics_path_;
  std::string trace_path_;
  double interval_;
  // Declaration order is teardown order in reverse: the emitter and the
  // recorder both point into the registry.
  std::optional<obs::MetricsRegistry> registry_;
  std::optional<obs::TraceRecorder> tracer_;
  std::optional<obs::TelemetryEmitter> emitter_;
};

/// Load a keystore file, counting records into `registry` when given.
std::vector<mp::BigInt> load_corpus(const std::string& path,
                                    obs::MetricsRegistry* registry = nullptr);

/// "  keys i and j share a b-bit prime <hex>".
void print_hit(const bulk::FactorHit& hit);

int run_generate(int argc, char** argv);
int run_import_pem(int argc, char** argv);
int run_export_pem(int argc, char** argv);
int run_probe(int argc, char** argv);
int run_scan(int argc, char** argv);
int run_tree(int argc, char** argv);
int run_intake(int argc, char** argv);

}  // namespace weakscan
