// Bernstein-style batch GCD (product tree + remainder tree) — the published
// batch attack (Heninger et al. / fastgcd) and one of the three production
// paths, next to the pairwise sweep and the intake daemon. It is
// asymptotically better in the number of moduli; the paper's bulk pairwise
// Approximate Euclidean wins on parallel hardware for small corpora, and
// bench_batchgcd_crossover measures where the two cross.
//
// Identity used: with P = Π n_i and n_i | P,
//   gcd(n_i, Π_{k≠i} n_k) = gcd(n_i, (P / n_i) mod n_i).
// The product tree stops at the root's two children: P itself is never
// computed. Above an exit size the descent carries each node's fraction
// t_v = frac(P / N_v²) = ((P / N_v) mod N_v) / N_v (batchgcd/fraction.hpp,
// Bernstein's scaled remainder tree): the nodes below the root's children
// start with one division each, and a child c with sibling d then gets
// t_c = frac(t_v · N_d²), the middle words of one cyclic product, with no
// division. The exit rounds fractions to exact residues s = round(t·N)
// mod N, checked against a written error bound, and below it each child
// gets s_c = ((s_v mod N_c) · N_d) mod N_c by Knuth D, since
// P / N_c = (P / N_v) · N_d. The leaves hold (P / n_i) mod n_i in
// O(M(total bits) log m).
// The tree computes on 64-bit limbs (TreeInt = mp::BigInt64, half the limbs
// of mp::BigInt per product and per division): the moduli are repacked once
// on the way in and the gcds narrowed once on the way out, so the API below
// stays on mp::BigInt. Products climb the multiply ladder to the NTT (a
// square takes two transforms per prime, where a product takes three), and
// the entry's divisions the Newton rung (mp/newton_div.hpp).
//
// Two entry points:
//   batch_gcd            — one-shot, in-memory (the bench/test workhorse).
//   run_resumable_batch  — the checkpointed driver: each completed tree
//     level (product levels up, remainder levels down, final gcds) commits
//     to an append-only journal (batch_journal.hpp), so a SIGKILL at any
//     level resumes without recomputing finished levels. batch_gcd is this
//     driver with the journal switched off. It is the only descent: the
//     remainder levels are journaled, not returned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <vector>

#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace bulkgcd::obs

namespace bulkgcd::batchgcd {

/// Levels of the product tree: level 0 = the moduli, each higher level the
/// pairwise products, top level a single root Π n_i (which the driver
/// itself never computes). Computed by the driver's own product step and
/// narrowed to mp::BigInt level by level.
using ProductTree = std::vector<std::vector<mp::BigInt>>;

ProductTree build_product_tree(std::span<const mp::BigInt> moduli);

struct BatchGcdResult {
  /// gcds[i] = gcd(n_i, Π_{k≠i} n_k): 1 when n_i shares no factor, the
  /// shared prime when it shares one factor, possibly n_i itself when both
  /// factors are shared (or the modulus is duplicated).
  std::vector<mp::BigInt> gcds;
  double seconds = 0.0;
};

/// Run the full batch-GCD attack over the corpus, in memory. With a registry
/// the run feeds the batchgcd_* metrics (docs/OBSERVABILITY.md).
BatchGcdResult batch_gcd(std::span<const mp::BigInt> moduli,
                         obs::MetricsRegistry* metrics = nullptr);

/// Configuration for the checkpointed driver. Defaults reproduce batch_gcd.
struct BatchScanConfig {
  /// Journal path. Empty ⇒ no checkpointing (pure in-memory run). The file
  /// is bound to the corpus identity (rsa::corpus_digest + count); opening
  /// a journal written for a different corpus throws std::runtime_error.
  std::filesystem::path checkpoint;
  /// fsync the journal after every this-many level commits (min 1). The
  /// final gcds record always syncs regardless.
  std::size_t fsync_every = 1;
  /// Stop (cleanly, complete=false) after committing this many levels in
  /// THIS run; 0 = run to completion. The final gcds level always finishes
  /// once started. Lets tests and the CLI exercise resume deterministically.
  std::size_t stop_after_levels = 0;
  /// Optional batchgcd_* metrics sink (null ⇒ zero-cost).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional trace sink: one span per tree level (product_level /
  /// remainder_level / final_gcds) on the calling thread, and one
  /// level_commit span per level record on the journal's writer thread.
  obs::TraceRecorder* trace = nullptr;
  /// Called after every level committed this run with
  /// (levels_done_this_run, levels_total). With a checkpoint it runs on the
  /// journal's writer thread once the level's record is appended (and
  /// synced on the fsync_every cadence), before the next record: the file
  /// then holds exactly levels_done_this_run records of this run. Only the
  /// final gcds level's call runs on the calling thread. The SIGKILL resume
  /// smoke raises its signal from here; an exception thrown here stops the
  /// writer and is rethrown by run_resumable_batch.
  std::function<void(std::size_t, std::size_t)> level_hook;
};

/// Outcome of one driver run (possibly a partial leg of a resumed attack).
struct BatchScanReport {
  /// gcds filled only when complete; seconds covers this run only.
  BatchGcdResult result;
  bool complete = false;
  /// True when any journaled state was restored (including a finished run
  /// whose gcds replayed straight from the journal).
  bool resumed = false;
  /// Total checkpointable levels for this corpus: (product levels below
  /// the root) + (descent levels) + 1 for the final gcds.
  std::uint64_t levels_total = 0;
  /// Levels computed and committed by THIS run.
  std::uint64_t levels_done = 0;
  /// Levels restored from the journal instead of recomputed.
  std::uint64_t levels_restored = 0;
};

/// The checkpointed batch-GCD driver. Computes level by level and hands
/// each completed level to the journal's writer thread, which appends it
/// while the next level computes (docs/BATCHGCD.md "Durability"), so the
/// process can die (SIGKILL included) at any point and a rerun with the same
/// corpus and checkpoint path resumes at the first uncommitted level — the
/// final gcds are bit-identical to an uninterrupted run. A journal write or
/// fsync failure throws std::runtime_error.
BatchScanReport run_resumable_batch(std::span<const mp::BigInt> moduli,
                                    const BatchScanConfig& config = {});

/// Indices i with gcds[i] > 1 (weak moduli).
std::vector<std::size_t> weak_indices(const BatchGcdResult& result);

/// Indices i with gcds[i] == n_i: the batch-GCD analogue of
/// FactorHit::full_modulus. A duplicated modulus (or one sharing both primes
/// with the rest of the corpus) shows up weak, but n_i / gcds[i] == 1, so
/// these keys cannot be factored from the batch result alone.
std::vector<std::size_t> full_modulus_indices(const BatchGcdResult& result,
                                              std::span<const mp::BigInt> moduli);

}  // namespace bulkgcd::batchgcd
