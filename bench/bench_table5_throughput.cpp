// Reproduces Table V: time per GCD for the three GPU-suitable algorithms
// (C) Binary, (D) Fast Binary, (E) Approximate over all pairs of a corpus of
// RSA moduli, in non- and early-terminate modes.
//
// Columns (hardware substitution per DESIGN.md):
//   CPU us/gcd   — real wall-clock of the scalar engine on this machine
//                  (the paper's Xeon X7460 column analogue);
//   SIMT us/gcd  — real wall-clock of the Engine::kAuto bulk sweep over the
//                  column-wise layout: the SIMD vector engine when the CPU
//                  has AVX-512 or AVX2, else the staged scalar-lane engine. In the
//                  vector engine only the early-terminate Approximate rows
//                  run the vector-resident Section-V round; the other five
//                  rows run each lane to completion on the scalar kernels
//                  (the GPU code path executed on CPU — structural analogue,
//                  not a speed claim). Its pairs and hits are checked
//                  against the CPU column's; a mismatch exits nonzero;
//   UMM us/gcd   — modelled GPU time: measured per-GCD memory-access traces
//                  replayed iteration-lockstep on the paper's UMM cost model
//                  with p = 16384 threads, w = 32, l = 200, 1 ns per unit;
//   CPU/UMM      — the modelled bulk-GPU speedup (paper: CPU/GPU column).
//
// Paper (1024-bit, early-terminate): CPU 56.2/33.6/28.6 us,
// GPU 2.93/0.583/0.346 us, ratio 19.2/57.6/82.7 for (C)/(D)/(E).
// Expected shape: (E) < (D) < (C) in every column; (C)'s speedup is much
// smaller than (D)/(E) because of warp divergence.
//
// Beyond the paper, the early-terminate table ends each size with one
// Divsteps row: the sweep's default leg (30 Bernstein–Yang divsteps per
// full-width pass), which finds the same hits as (E).
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bulk/allpairs.hpp"
#include "umm/oblivious.hpp"

using namespace bulkgcd;
using bench::Table;

namespace {

constexpr std::size_t kUmmThreads = 16384;
constexpr std::size_t kUmmWidth = 32;
constexpr std::size_t kUmmLatency = 200;
constexpr double kNsPerTimeUnit = 1.0;

struct Cell {
  double cpu_us;
  double simt_us;
  double umm_us;
  double transfer_us_total;
  std::uint64_t pairs;
  bool agree;  ///< CPU and SIMT sweeps found the same pairs and hits
};

bool same_hits(const std::vector<bulk::FactorHit>& a,
               const std::vector<bulk::FactorHit>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const bulk::FactorHit& x, const bulk::FactorHit& y) {
                      return x.i == y.i && x.j == y.j && x.factor == y.factor &&
                             x.full_modulus == y.full_modulus;
                    });
}

std::size_t moduli_for_bits(std::size_t base, std::size_t bits) {
  if (bits <= 1024) return base;
  if (bits == 2048) return std::max<std::size_t>(12, base / 2);
  return std::max<std::size_t>(8, base / 4);
}

Cell run_cell(gcd::Variant variant, std::size_t bits, std::size_t m, bool early) {
  const auto& moduli = bench::corpus(bits, m);
  Cell cell{};

  bulk::AllPairsConfig config;
  config.variant = variant;
  config.early_terminate = early;
  config.group_size = 32;
  config.pool_threads = 1;  // timing: keep it on one core for clean ratios

  config.engine = bulk::Engine::kScalar;
  const auto cpu = bulk::all_pairs_gcd(moduli, config);
  cell.cpu_us = cpu.micros_per_gcd();
  cell.pairs = cpu.pairs_tested;

  config.engine = bulk::Engine::kAuto;
  const auto simt = bulk::all_pairs_gcd(moduli, config);
  cell.simt_us = simt.micros_per_gcd();
  cell.agree = simt.pairs_tested == cpu.pairs_tested &&
               same_hits(simt.hits, cpu.hits);

  // UMM model: trace a sample of pairs, replay column-wise, extrapolate the
  // warp-coalescing factor phi to p = kUmmThreads.
  std::vector<std::pair<mp::BigInt, mp::BigInt>> sample;
  const std::size_t sample_size = std::min<std::size_t>(24, m - 1);
  for (std::size_t i = 0; i < sample_size; ++i) {
    sample.emplace_back(moduli[i], moduli[i + 1]);
  }
  const auto traces = umm::collect_traces(variant, sample, early ? bits / 2 : 0,
                                          moduli.front().size() + 2);
  const umm::UmmSimulator sim({kUmmWidth, kUmmLatency});
  const auto replay = sim.replay_iteration_aligned(
      traces, umm::Layout::kColumnWise, 2 * (moduli.front().size() + 2));
  const double phi =
      double(replay.stage_slots) / double(std::max<std::uint64_t>(1, replay.warp_dispatches));
  const double steps = double(replay.steps);
  const double time_units_bulk =
      steps * (phi * double(kUmmThreads) / double(kUmmWidth) +
               double(kUmmLatency) - 1.0);
  cell.umm_us = time_units_bulk / double(kUmmThreads) * kNsPerTimeUnit / 1000.0;

  // Host->device transfer accounting (the paper: 16K 4096-bit moduli move in
  // 0.002 s, negligible). PCIe 3.0 x16 ~ 12 GB/s.
  cell.transfer_us_total = double(cpu.input_bytes) / 12e9 * 1e6;
  return cell;
}

}  // namespace

int main() {
  bench::banner("bench_table5_throughput",
                "Table V (us per GCD, CPU vs bulk-GPU model) + transfer note");

  const std::size_t base_m = bench::env_size("BULKGCD_BENCH_MODULI", 48);
  const auto sizes = bench::bit_sizes();
  const gcd::Variant variants[] = {gcd::Variant::kBinary,
                                   gcd::Variant::kFastBinary,
                                   gcd::Variant::kApproximate};

  std::printf("UMM model parameters: p=%zu threads, w=%zu, l=%zu, %.1f ns/unit\n",
              kUmmThreads, kUmmWidth, kUmmLatency, kNsPerTimeUnit);

  for (const bool early : {false, true}) {
    std::printf("\n-- %s versions\n", early ? "Early-terminate" : "Non-terminate");
    Table table({"bits", "algorithm", "pairs", "CPU us/gcd", "SIMT us/gcd",
                 "UMM us/gcd", "CPU/UMM", "transfer us (total)"});
    for (const auto bits : sizes) {
      const std::size_t m = moduli_for_bits(base_m, bits);
      std::vector<gcd::Variant> rows(std::begin(variants), std::end(variants));
      if (early) rows.push_back(gcd::Variant::kDivsteps);
      for (const auto variant : rows) {
        const Cell cell = run_cell(variant, bits, m, early);
        if (!cell.agree) {
          std::printf("!! CPU and SIMT sweeps disagree on pairs/hits (%s, "
                      "%zu bits, %s)\n",
                      to_string(variant), bits,
                      early ? "early-terminate" : "non-terminate");
          return 1;
        }
        const std::string name =
            variant == gcd::Variant::kDivsteps
                ? std::string(to_string(variant)) + " (beyond the paper)"
                : to_string(variant);
        table.add_row({std::to_string(bits), name,
                       bench::fmt_u(cell.pairs), bench::fmt(cell.cpu_us, 3),
                       bench::fmt(cell.simt_us, 3), bench::fmt(cell.umm_us, 3),
                       bench::fmt(cell.cpu_us / cell.umm_us, 1),
                       bench::fmt(cell.transfer_us_total, 1)});
      }
    }
    table.print();
  }

  // The paper's Table V for side-by-side reading (Xeon X7460 / GTX 780 Ti).
  std::printf("\npaper reference (1024-bit rows of Table V):\n");
  Table paper({"mode", "algorithm", "CPU us/gcd", "GPU us/gcd", "CPU/GPU"});
  paper.add_row({"non-term", "Binary", "81.0", "3.54", "22.9"});
  paper.add_row({"non-term", "FastBinary", "49.7", "0.683", "72.7"});
  paper.add_row({"non-term", "Approximate", "43.4", "0.437", "99.3"});
  paper.add_row({"early", "Binary", "56.2", "2.93", "19.2"});
  paper.add_row({"early", "FastBinary", "33.6", "0.583", "57.6"});
  paper.add_row({"early", "Approximate", "28.6", "0.346", "82.7"});
  paper.print();

  std::printf(
      "\npaper expectation: (E) < (D) < (C) in every column; CPU/GPU ratio of\n"
      "(C) well below (D) and (E) (branch divergence); transfer time\n"
      "negligible next to the GCD sweep. Absolute ratios differ from the\n"
      "paper's (modern CPU baseline; memory-side-only UMM model) — see\n"
      "EXPERIMENTS.md.\n");
  return 0;
}
