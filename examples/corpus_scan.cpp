// Large-corpus scan comparing the two published attacks side by side:
// the paper's bulk pairwise GCD (all m(m−1)/2 pairs, Approximate Euclidean,
// SIMT bulk engine) against Bernstein-style batch GCD (the fastgcd lineage),
// with a CSV report of per-method timing and the victims each one finds.
//
//   $ ./corpus_scan [num_keys] [modulus_bits] [weak_pairs] [csv_path]
//   defaults:        128        512            4            (stdout only)
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bulkgcd.hpp"

int main(int argc, char** argv) {
  using namespace bulkgcd;

  const std::size_t num_keys = argc > 1 ? std::atoi(argv[1]) : 128;
  const std::size_t bits = argc > 2 ? std::atoi(argv[2]) : 512;
  const std::size_t weak_pairs = argc > 3 ? std::atoi(argv[3]) : 4;
  const char* csv_path = argc > 4 ? argv[4] : nullptr;

  rsa::CorpusSpec spec;
  spec.count = num_keys;
  spec.modulus_bits = bits;
  spec.weak_pairs = weak_pairs;
  spec.seed = 424242;
  std::printf("generating %zu %zu-bit moduli (%zu weak pairs)...\n", num_keys,
              bits, weak_pairs);
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  // Method 1: bulk pairwise GCD (the paper).
  bulk::AllPairsConfig config;
  config.engine = bulk::Engine::kAuto;
  const bulk::AllPairsResult pairwise = bulk::all_pairs_gcd(corpus.moduli, config);

  // Method 2: batch GCD (product + remainder tree).
  Timer batch_timer;
  const batchgcd::BatchGcdResult batch = batchgcd::batch_gcd(corpus.moduli);
  const double batch_seconds = batch_timer.seconds();
  const auto batch_weak = batchgcd::weak_indices(batch);

  std::printf("\nmethod            time (s)   victims found\n");
  std::printf("pairwise (paper)  %8.3f   %zu pairs -> %zu keys\n",
              pairwise.seconds, pairwise.hits.size(), 2 * pairwise.hits.size());
  std::printf("batch gcd         %8.3f   %zu keys\n", batch_seconds,
              batch_weak.size());

  // The two methods must agree on the victim set.
  std::vector<bool> pairwise_weak(num_keys, false);
  for (const auto& hit : pairwise.hits) {
    pairwise_weak[hit.i] = pairwise_weak[hit.j] = true;
  }
  std::size_t agreement = 0;
  for (const std::size_t idx : batch_weak) {
    if (pairwise_weak[idx]) ++agreement;
  }
  std::printf("victim-set agreement: %zu / %zu\n", agreement, batch_weak.size());

  // Per-victim report (+ optional CSV).
  std::ofstream csv;
  if (csv_path) {
    csv.open(csv_path);
    csv << "key_index,shared_with,factor_bits,method\n";
  }
  std::printf("\nvictims:\n");
  for (const auto& hit : pairwise.hits) {
    std::printf("  keys %3zu and %3zu share a %zu-bit prime\n", hit.i, hit.j,
                hit.factor.bit_length());
    if (csv) {
      csv << hit.i << "," << hit.j << "," << hit.factor.bit_length()
          << ",pairwise\n";
      csv << hit.j << "," << hit.i << "," << hit.factor.bit_length()
          << ",pairwise\n";
    }
  }
  if (csv_path) std::printf("CSV written to %s\n", csv_path);

  const bool ok = pairwise.hits.size() == corpus.weak.size() &&
                  batch_weak.size() == 2 * corpus.weak.size() &&
                  agreement == batch_weak.size();
  std::printf("\nground truth %s\n", ok ? "matched" : "MISMATCH");
  return ok ? 0 : 1;
}
