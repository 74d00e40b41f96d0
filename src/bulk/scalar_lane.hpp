// One bulk-engine lane stepped on the scalar kernels (Section VI).
//
// SimtBatch (lockstep and staged) and the vector engine's scalar path
// advance lanes only through these functions, so every engine takes the
// same branches and records the same branch ids: results, and the SimtStats
// replayed from branch traces, are bit-identical by construction.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "bulk/layout.hpp"
#include "gcd/algorithms.hpp"
#include "gcd/approx.hpp"
#include "gcd/kernels.hpp"

namespace bulkgcd::bulk::scalar_lane {

/// Register-resident view of one lane's algorithm state.
template <mp::LimbType Limb>
struct State {
  Strided<Limb> x{nullptr, 0}, y{nullptr, 0};  ///< current X/Y roles
  std::size_t lx = 0, ly = 0;
  std::uint8_t swapped = 0;  ///< X lives in the B operand matrix
};

/// Whether the lane runs another iteration: Y is nonzero and, under early
/// termination, still has >= early_bits bits.
template <mp::LimbType Limb>
bool keeps_going(const State<Limb>& s, std::size_t early_bits) noexcept {
  constexpr std::size_t LB = mp::limb_bits<Limb>;
  if (s.ly == 0) return false;
  if (early_bits == 0) return true;
  const std::size_t top = s.ly - 1;
  // The top limb holds 1..LB bits, so the limb count alone usually decides
  // — only read the (strided) top limb when Y straddles the threshold.
  if (top * LB >= early_bits) return true;
  if (s.ly * LB < early_bits) return false;
  const std::size_t bits = top * LB + (LB - std::countl_zero(s.y[top]));
  return bits >= early_bits;
}

/// Section V: with early termination both operands keep >= early_bits
/// bits, so when that guarantees > 2 words the restricted Case-4-only
/// approx (the paper's actual CUDA kernel) is used. Per lane, since lanes
/// may carry different thresholds in a mixed-size batch.
template <mp::LimbType Limb>
constexpr bool section_v(std::size_t early_bits) noexcept {
  return early_bits >= 3u * std::size_t(mp::limb_bits<Limb>);
}

/// Restore X >= Y by flipping the roles (never moving limbs).
template <mp::LimbType Limb>
void swap_if_less(State<Limb>& s, gcd::GcdStats& gs) {
  if (gcd::acc_compare(s.x, s.lx, s.y, s.ly) < 0) {
    std::swap(s.x, s.y);
    std::swap(s.lx, s.ly);
    s.swapped ^= 1;
    ++gs.swaps;
  }
}

/// One iteration of variant V on one lane; returns the branch id taken
/// (0..2) for divergence accounting. use_case4 = section_v(early_bits).
template <gcd::Variant V, mp::LimbType Limb>
int step(State<Limb>& s, bool use_case4, gcd::GcdStats& gs) {
  using Wide = typename mp::LimbTraits<Limb>::Wide;
  constexpr int LB = mp::limb_bits<Limb>;
  gcd::NullTracer tracer;
  int branch = 0;
  if constexpr (V == gcd::Variant::kBinary) {
    if ((s.x[0] & 1u) == 0) {
      s.lx = gcd::halve(s.x, s.lx, tracer);
    } else if ((s.y[0] & 1u) == 0) {
      s.ly = gcd::halve(s.y, s.ly, tracer);
      branch = 1;
    } else {
      s.lx = gcd::sub_halve(s.x, s.lx, s.y, s.ly, tracer);
      branch = 2;
    }
  } else if constexpr (V == gcd::Variant::kFastBinary) {
    s.lx = gcd::fused_submul_strip(s.x, s.lx, s.y, s.ly, Limb{1}, tracer);
  } else {
    static_assert(V == gcd::Variant::kApproximate);
    const auto ar = use_case4 ? gcd::approx_case4_only(s.x, s.lx, s.y, s.ly)
                              : gcd::approx(s.x, s.lx, s.y, s.ly);
    gs.count_case(ar.which);
    ++gs.divisions;
    if (ar.which == gcd::ApproxCase::k1) {
      // Register-resident tail (only reachable in non-terminate runs).
      const Wide xv = s.lx == 2 ? gcd::top_two_words(s.x, 2) : Wide(s.x[0]);
      const Wide yv = s.ly == 2 ? gcd::top_two_words(s.y, 2) : Wide(s.y[0]);
      Wide alpha = ar.alpha;
      if ((alpha & 1u) == 0) --alpha;
      Wide t = xv - yv * alpha;
      if (t != 0) t >>= gcd::wide_ctz(t);
      std::size_t n = 0;
      while (t != 0) {
        s.x[n++] = Limb(t);
        t >>= LB;
      }
      s.lx = n;
      branch = 2;
    } else if (ar.beta == 0) {
      Limb alpha = Limb(ar.alpha);
      if ((alpha & 1u) == 0) --alpha;
      s.lx = gcd::fused_submul_strip(s.x, s.lx, s.y, s.ly, alpha, tracer);
    } else {
      ++gs.beta_nonzero;
      s.lx = gcd::fused_submul_shifted_add_strip(
          s.x, s.lx, s.y, s.ly, Limb(ar.alpha), ar.beta, tracer);
      branch = 1;
    }
  }
  swap_if_less(s, gs);
  return branch;
}

/// Rows Variant::kDivsteps works in for a lane: both values plus one sign
/// row. The batch matrices must hold zeros there above each value, and the
/// run writes every one of these rows.
template <mp::LimbType Limb>
std::size_t divsteps_rows(const State<Limb>& s) noexcept {
  return std::max(s.lx, s.ly) + 1;
}

/// Variant::kDivsteps on one lane (gcd/divsteps.hpp): f is the A-side
/// operand and g the B-side one, whatever the swap flag says, so every
/// engine takes the same steps. Each pass is one iteration on branch 0.
template <mp::LimbType Limb>
void run_divsteps(State<Limb>& s, std::size_t early_bits, gcd::GcdStats& gs,
                  std::vector<std::uint8_t>& log) {
  const Strided<Limb> f = s.swapped ? s.y : s.x;
  const Strided<Limb> g = s.swapped ? s.x : s.y;
  gcd::NullTracer tracer;
  const auto run =
      gcd::divsteps_run(f, g, divsteps_rows(s), early_bits, tracer);
  gs.iterations += run.passes;
  log.insert(log.end(), run.passes, std::uint8_t{0});
  s.x = run.end.swapped ? g : f;
  s.y = run.end.swapped ? f : g;
  s.lx = run.end.lx;
  s.ly = run.end.ly;
  s.swapped = run.end.swapped ? 1 : 0;
}

/// Run one lane to completion — the shape of one CUDA thread looping its
/// pair until done — appending each iteration's branch id to `log`.
template <gcd::Variant V, mp::LimbType Limb>
void run(State<Limb>& s, std::size_t early_bits, gcd::GcdStats& gs,
         std::vector<std::uint8_t>& log) {
  if constexpr (V == gcd::Variant::kDivsteps) {
    run_divsteps(s, early_bits, gs, log);
  } else {
    const bool use_case4 = section_v<Limb>(early_bits);  // loop-invariant
    while (keeps_going(s, early_bits)) {
      ++gs.iterations;
      log.push_back(std::uint8_t(step<V>(s, use_case4, gs)));
    }
  }
}

}  // namespace bulkgcd::bulk::scalar_lane
