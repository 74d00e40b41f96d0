// Shared pieces of the perfbench driver: options, the correctness gate, the
// in-memory span log, small statistics helpers, and the entry points of the
// three workloads (sweep.cpp, tree.cpp, intake.cpp) plus the per-layer suite
// (layers.cpp). Every timing is taken here, from outside the library, around
// calls into its public functions and hooks.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bulk/simt_stats.hpp"
#include "mp/bigint.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using bulkgcd::mp::BigInt;
using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (one epoch for all spans).
double now_s();
double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]: with n < 1/(1−q) samples this is the
/// largest sample.
double quantile(std::vector<double> v, double q);
/// The values, space-separated with four decimals, for the human lines.
std::string join(const std::vector<double>& v);

/// Corpus and stream sizes of one scale. The full scale is what the
/// benchmark measures; the smoke scale only exercises every code path.
/// intake_stream's length is set by its record counts, not by --seconds.
struct Sizes {
  std::size_t bits = 1024;
  std::size_t corpus = 2048;        ///< allpairs_sweep and batch_tree moduli
  std::size_t planted = 8;          ///< shared-prime pairs per workload
  std::size_t intake_seed = 1500;   ///< intake_stream seed corpus
  std::size_t paced = 1200;         ///< paced-phase records (>1000 valid)
  std::size_t burst = 900;          ///< burst-phase records
  /// Arrivals per second in the paced phase: about a third of the service's
  /// capacity at the grown corpus on a 4-core box, so a slower machine
  /// still leaves the queue stable.
  double paced_rate = 50.0;
  std::size_t subset = 512;         ///< corpus prefix for the layer probes
  std::size_t reps_setup = 15;      ///< intake_stream set-up repetitions
};
Sizes sizes_for(bool smoke);

/// Whether a timed loop begun at `start` runs another cycle of repetitions:
/// always until it has three, then only while one more (as long as the last
/// cycle) ends within `seconds`.
bool more_reps(double start, double seconds, double last_cycle, std::size_t reps);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool inject_fault = false;  ///< corrupt one reported factor: the gate must fail
  fs::path inputs;            ///< generated inputs of (workload, seed, scale)
  fs::path work;              ///< scratch for journals, removed at exit
  fs::path trace_out;         ///< Chrome trace of the spans (traced runs)
  std::size_t workers = 4;    ///< program workers: min(nproc, 4)
  Sizes sizes;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness gate: every check is one attempt; a failed check is printed
/// and counted. error_rate = failed / attempted.
class Gate {
 public:
  void check(bool ok, std::string_view what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans recorded by the benchmark around its calls into the library (and
/// from the library's hooks), kept in memory and written out at the end.
class SpanLog {
 public:
  /// Returns the span id (for children's `parent`). Thread-safe.
  std::uint64_t add(std::string name, double start, double end,
                    std::uint64_t parent = 0);
  bool write_chrome_json(const fs::path& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    std::uint64_t id = 0, parent = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// What one run produces: the metrics of its mode, the gate, human lines.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  Gate gate;
  SpanLog spans;
  /// Sets a metric, replacing any earlier value of the same name.
  void set_e2e(const std::string& name, double value, const std::string& unit);
  void set_layer(const std::string& name, double value, const std::string& unit);
  /// Human-readable line printed before the JSON result.
  void note(std::string line);
  std::vector<std::string> notes;
};

/// A planted shared-prime pair: moduli i < j share `prime`.
struct Planted {
  std::size_t i = 0;
  std::size_t j = 0;
  BigInt prime;
};

// ---- inputs.cpp ------------------------------------------------------------
/// Write the workload's inputs for o.seed into `dir` (corpus key files,
/// intake stream, ground truth). Deterministic in (workload, seed, sizes).
void generate_inputs(const Options& o, const fs::path& dir);
std::vector<Planted> load_truth(const fs::path& file);

/// One intake record as generated: its text and what the parser and the
/// dedup element must make of it.
struct StreamRecord {
  enum class Kind { kValid, kDuplicate, kMalformed };
  Kind kind = Kind::kValid;
  std::string text;
  BigInt n;  ///< expected modulus (valid and duplicate records)
};
struct IntakeInputs {
  std::vector<StreamRecord> records;
  std::size_t paced = 0;  ///< records[0, paced) are the paced phase
};
IntakeInputs load_intake_inputs(const fs::path& dir);
/// Render moduli as intake records in rotating PEM / keystore / raw-hex form.
std::vector<StreamRecord> render_records(std::span<const BigInt> moduli);

// ---- shared checks -----------------------------------------------------------
/// Re-verify a reported factor of n_i and n_j: 1 < p < n and p | n for both.
bool factor_verifies(const BigInt& p, const BigInt& ni, const BigInt& nj);
struct PairHit {
  std::size_t i = 0, j = 0;
  BigInt factor;
};
/// Every planted pair is reported, every reported factor re-verifies, and no
/// hit lies outside the planted set.
void check_pair_hits(std::vector<PairHit> hits, std::span<const BigInt> moduli,
                     std::span<const Planted> truth, bool inject_fault,
                     Gate& gate, std::string_view what);

// ---- workloads -----------------------------------------------------------------
void run_sweep_workload(const Options& o, Report& r);
void run_tree_workload(const Options& o, Report& r);
void run_intake_workload(const Options& o, Report& r);

// ---- per-layer probes (each on a corpus of the running workload) ---------------
/// Set-up timing shared by the workloads: each sample() is one timed
/// rsa::load_moduli + corpus digest of `keys`. The batch workloads sample
/// between their repetitions, so set-up is timed under the same machine
/// conditions as the job rather than only at process start.
class LoadTimer {
 public:
  explicit LoadTimer(fs::path keys) : keys_(std::move(keys)) {}
  /// Loads and times once; returns the corpus.
  std::vector<BigInt> sample();
  double load_s() const { return median(load_); }
  double digest_s() const { return median(digest_); }

 private:
  fs::path keys_;
  std::vector<double> load_, digest_;
};
/// Set-up samples a batch workload takes per repetition.
constexpr std::size_t kSetupSamplesPerRep = 3;

/// The planted pairs lying wholly inside the first n moduli.
std::vector<Planted> truth_within(std::span<const Planted> truth, std::size_t n);

// The layer suite of a traced run measures every module on a corpus of the
// running workload; the workload's own path is measured at full size and the
// other two paths on its first `subset` moduli. Each call is correctness-
// gated against `truth` (corpus indices) like the full-size runs.

/// Scan-driver layer figures (scan.*) from one traced run_resumable_scan.
void scan_layers(std::span<const BigInt> moduli, std::span<const Planted> truth,
                 const Options& o, Report& r);
/// Batch-tree layer figures (batchgcd.*) from one traced run_resumable_batch.
void tree_layers(std::span<const BigInt> moduli, std::span<const Planted> truth,
                 const Options& o, Report& r);
/// Intake-service layer figures (svc.*) from a burst of corpus[split, end)
/// into a service seeded with corpus[0, split).
void intake_layers(std::span<const BigInt> corpus, std::size_t split,
                   std::span<const Planted> truth, const Options& o, Report& r);
/// mp, bulk and obs layers on `corpus`; with `with_counts` also the gcd.* and
/// warp counts of a one-worker sweep (a sweep workload reports its own).
void engine_layers(std::span<const BigInt> corpus, std::span<const Planted> truth,
                   const Options& o, Report& r, bool with_counts);
/// gcd.* and warp-shape figures from the engine's exact counts, printed next
/// to the paper's models.
void report_counts(const bulkgcd::bulk::SimtStats& s, std::uint64_t pairs,
                   const Options& o, Report& r);

}  // namespace perfbench
