// All-pairs GCD over a corpus of RSA moduli — the paper's CUDA grid
// decomposition (Section VI) on top of the SIMT batch engine (or the scalar
// engine as the CPU baseline of Table V).
//
// m moduli are split into ⌈m/r⌉ groups of r. Block (i, j) with i < j covers
// the r×r cross pairs: in round u, lane k computes gcd(n_{i,k}, n_{j,u}).
// Block (i, i) covers the intra-group pairs (lane k active in round u only
// when k < u). Blocks with i > j exit immediately — exactly the paper's
// kernel. Blocks are distributed over the thread pool. The corpus is staged
// once into a StagedCorpus (bulk/staged_corpus.hpp); the incremental probe
// runs the same round with a broadcast candidate as Y.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bulk/backend.hpp"
#include "bulk/simt.hpp"
#include "bulk/staged_corpus.hpp"
#include "gcd/algorithms.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace bulkgcd::bulk {

struct AllPairsConfig {
  /// kDivsteps (the default) finds exactly (E)'s Section-V hits in ~5× fewer
  /// full-width passes; kApproximate is the paper's algorithm and Table V's
  /// row, kBinary / kFastBinary its other GPU rows.
  gcd::Variant variant = gcd::Variant::kDivsteps;
  /// The one engine knob (bulk/backend.hpp). Every engine reads the corpus
  /// staged once (bulk/staged_corpus.hpp); kVector and kStaged refresh each
  /// round's batch from its column-major panels by bulk panel copy (the
  /// CUDA kernel shape); kScalar runs the plain GcdEngine pair by pair.
  /// Every engine finds the same hits, and the two SIMT engines also give
  /// bit-identical SimtStats, so the checkpoint identity records only
  /// scalar-or-not.
  Engine engine = Engine::kAuto;
  bool early_terminate = true;  ///< Section V termination for RSA moduli
  std::size_t group_size = 64;  ///< r: moduli per group == lanes per block
  std::size_t warp_width = 32;
  /// Worker count for the sharded tile sweep: 0 = one worker per global-pool
  /// thread, 1 = inline on the caller (no pool hop — the latency-sensitive
  /// probe path), N = a private pool of N workers.
  std::size_t pool_threads = 0;
  /// Blocks per work-stealing scheduler tile (bulk/tile_scheduler.hpp).
  /// 0 = auto (~4 tiles per worker). Purely a scheduling knob: results are
  /// bit-identical across tile shapes and worker counts, so neither is part
  /// of the checkpoint identity.
  std::size_t tile_blocks = 0;
  /// Telemetry sink (src/obs/). Null — the "null registry" path — keeps the
  /// sweep free of instrumentation work beyond a handful of branches; when
  /// set, the sweep feeds the sweep_*/simt_*/gcd_* metrics documented in
  /// docs/OBSERVABILITY.md. Not part of the scan identity (a checkpoint
  /// written with metrics off resumes with them on, and vice versa).
  obs::MetricsRegistry* metrics = nullptr;
  /// Timeline sink (obs/trace.hpp). Null — the null-recorder path — keeps
  /// every trace site a single never-taken branch. When set, the sweep
  /// records per-worker tile spans, steal instants, and panel-load /
  /// lane-exec phase spans on each worker's track. Purely observational:
  /// results, stats, and counters are bit-identical with tracing on or off
  /// (tests/trace_test.cpp), and like `metrics` it is NOT part of the
  /// checkpoint identity.
  obs::TraceRecorder* trace = nullptr;
};

/// A factored pair: moduli[i] and moduli[j] share `factor`.
struct FactorHit {
  std::size_t i = 0;
  std::size_t j = 0;
  mp::BigInt factor;
  /// factor equals moduli[i] or moduli[j] — a duplicate modulus (or a pair
  /// sharing both primes). The affected key cannot be split this way:
  /// n / factor == 1 on that side, so key recovery must skip it.
  bool full_modulus = false;
};

struct AllPairsResult {
  std::vector<FactorHit> hits;     ///< sorted by (i, j)
  std::uint64_t pairs_tested = 0;
  std::uint64_t blocks_run = 0;
  std::uint64_t input_bytes = 0;   ///< host→device traffic a GPU would pay
  double seconds = 0.0;            ///< wall-clock for the whole sweep
  SimtStats simt;                  ///< filled by the vector/staged engines
  gcd::GcdStats scalar;            ///< filled by Engine::kScalar
  double micros_per_gcd() const noexcept {
    return pairs_tested == 0 ? 0.0 : seconds * 1e6 / double(pairs_tested);
  }
};

/// Probe all m(m−1)/2 pairs of `moduli` for shared prime factors.
AllPairsResult all_pairs_gcd(std::span<const mp::BigInt> moduli,
                             const AllPairsConfig& config = {});

/// Incremental scan: probe ONE newly harvested modulus against an existing
/// corpus (m cheap GCDs instead of re-running the full m(m−1)/2 sweep —
/// the daily-update mode of a web-scale scanner). Hits carry the corpus
/// index sharing a factor with `candidate`.
struct IncrementalHit {
  std::size_t corpus_index = 0;
  mp::BigInt factor;
  /// factor equals the candidate or the corpus member (duplicate modulus);
  /// see FactorHit::full_modulus.
  bool full_modulus = false;
};

/// Work accounting for one probe_incremental call, mirroring the
/// AllPairsResult stats block. When config.metrics is set, the same values
/// are folded into the simt_*/gcd_* counters at the worker merge
/// points (fold_engine_stats), so counter totals exactly equal the returned
/// stats — the probe path feeds telemetry like the full sweep does.
struct ProbeStats {
  std::uint64_t pairs_tested = 0;  ///< candidate × corpus pairs executed
  SimtStats simt;                  ///< filled by the vector/staged engines
  gcd::GcdStats scalar;            ///< filled by Engine::kScalar
};

std::vector<IncrementalHit> probe_incremental(
    const mp::BigInt& candidate, std::span<const mp::BigInt> corpus,
    const AllPairsConfig& config = {}, ProbeStats* stats = nullptr);

/// Amortized-staging variant for streaming callers: the corpus is already
/// staged (bulk/staged_corpus.hpp, grown append-by-append as keys fold in),
/// so the probe rides its live panels without restaging. The span overload
/// stages StagedCorpus(corpus, min(group_size, m)) and calls this one. Each
/// probe block is one sweep round (bulk/block_grid.hpp) of group g's panel
/// against the broadcast candidate, on the corpus's own lane count. Hits and
/// pair counts are bit-identical to the span overload over the same moduli
/// (asserted in tests/allpairs_test.cpp) — the two differ only in who pays
/// the staging cost and when. config.metrics receives only the engine
/// counters (no sweep_* series); config.trace only the scheduler's tiles.
std::vector<IncrementalHit> probe_incremental(
    const mp::BigInt& candidate, const StagedCorpus& corpus,
    const AllPairsConfig& config = {}, ProbeStats* stats = nullptr);

}  // namespace bulkgcd::bulk
