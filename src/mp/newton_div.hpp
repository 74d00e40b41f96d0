// Newton-reciprocal division: the top rung of the division ladder (Knuth D →
// Newton), as mul_dispatch climbs schoolbook → Karatsuba → Toom-3. Knuth
// Algorithm D (span_ops.hpp divrem) costs Θ(q·n) word operations for a
// q-limb quotient by an n-limb divisor. Each batch-GCD descent step divides a
// ~2n-limb residue by an n-limb square, so there that is Θ(n²) next to the
// multiply ladder's O(n^1.465). Here a division costs a few multiplications:
//
//   1. reciprocal_newton: X ≈ β^{2p}/b' for the top p limbs b' of the
//      normalized divisor (β = 2^limb_bits), grown from a Knuth-D seed by
//      precision-doubling Newton steps over mul_dispatch (Brent &
//      Zimmermann, "Modern Computer Arithmetic", Algorithm 3.5). It
//      guarantees b'·X < β^{2p} ≤ b'·(X + 2).
//   2. The quotient is produced in blocks of k ≤ ⌈n/2⌉ limbs, top block
//      first, with p = min(n, k + 1). For a 2n/n division that is two
//      half-size blocks over one (n/2)-limb reciprocal, about 3 M(n) in
//      all, where one n-limb block over an n-limb reciprocal costs 4 M(n).
//   3. Per block c (the running remainder with k more dividend limbs
//      brought in), a Barrett step: Q = ⌊⌊c/β^n⌋·X / β^p⌋ estimates ⌊c/b⌋
//      from below. With p = n it is never above it. With p < n b' is a
//      truncation of b, Q can be one above, and one is subtracted.
//   4. c − Q·b exactly, then a fix-up loop that subtracts b while the
//      remainder is ≥ b, at most kNewtonDivMaxFixups times per block.
//
// Every step is exact: q and r equal divrem's, bit for bit.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mp/span_ops.hpp"
#include "mp/toom3.hpp"

namespace bulkgcd::mp {

/// Below this many limbs (divisor, or quotient) Knuth D wins: a 2n/n Newton
/// division costs about three same-size multiplications plus allocations,
/// which beat Knuth D's tight quadratic loop only once Toom-3 is well under
/// way. Also the reciprocal's seed size: up to it the seed is an exact
/// Knuth-D quotient. (bench_microkernels BM_DivRemKnuthD vs BM_DivRemNewton,
/// 2n/n divisions with 32-bit limbs on a 4-vCPU AVX-512 Xeon: Knuth D is
/// 1.3–1.5× ahead at a 512-limb divisor, the two are within 10% at 1024 and
/// Newton is 1.5–1.9× ahead at 2048. On 64-bit limbs, the batch tree's
/// width, Newton is within the rows' noise from 256 to 768 limbs and 1.6–
/// 1.8× ahead from 1024; a tree timed with the threshold at 512 gained
/// nothing measurable, so one value serves every width (docs/BATCHGCD.md).
/// The mp_stress differential suite straddles it on every limb width.)
inline constexpr std::size_t kNewtonDivThreshold = 1024;

/// Most fix-up steps one block can need. A block has c < β^{n+p−1} (p < n)
/// or c < β^{2n} (p = n). Its estimate loses less than 2 units to the floor
/// ⌊c/β^n⌋ (as b ≥ β^n/2), less than 1 to the final floor, and less than
/// 2·⌊c/β^n⌋/β^p to the error of X: under 2 units when p = n, under 2/β
/// when p < n. So with p = n, Q is at most 4 low. With p < n the truncated
/// divisor raises Q by less than 8/β, so Q is at most one high and 3 low,
/// and 4 low after the decrement. Either way c − Q·b < 5b enters the loop.
inline constexpr std::size_t kNewtonDivMaxFixups = 4;

namespace newton_detail {

/// value −= 1; requires value > 0.
template <LimbType Limb>
void decrement(std::vector<Limb>& value) {
  const Limb one[1] = {Limb{1}};
  value.resize(sub(value.data(), value.data(), value.size(), one, 1));
}

/// value += 1.
template <LimbType Limb>
void increment(std::vector<Limb>& value) {
  const Limb one[1] = {Limb{1}};
  value.push_back(Limb{0});
  (void)add_in_place(value.data(), value.size(), one, 1);
  value.resize(normalized_size(value.data(), value.size()));
}

}  // namespace newton_detail

/// Approximate reciprocal of a normalized n-limb `a` (top bit set):
/// returns X, at most n + 1 limbs, with a·X < β^{2n} ≤ a·(X + 2).
template <LimbType Limb>
std::vector<Limb> reciprocal_newton(const Limb* a, std::size_t n) {
  assert(n > 0 && (a[n - 1] >> (limb_bits<Limb> - 1)) == 1);
  if (n <= kNewtonDivThreshold) {
    // Seed: the exact ⌈β^{2n}/a⌉ − 1 = ⌊(β^{2n} − 1)/a⌋.
    const std::vector<Limb> ones(2 * n, std::numeric_limits<Limb>::max());
    std::vector<Limb> x(n + 1), rem(n);
    x.resize(divrem(x.data(), rem.data(), ones.data(), ones.size(), a, n).quotient);
    return x;
  }
  // One Newton step from the reciprocal X_h of the top h limbs:
  //   T = β^{n+h} − a·X_h (X_h first lowered until a·X_h < β^{n+h})
  //   X = X_h·β^l + ⌊⌊T/β^l⌋·X_h / β^{2h−l}⌋
  const std::size_t l = (n - 1) / 2;
  const std::size_t h = n - l;
  std::vector<Limb> xh = reciprocal_newton(a + l, h);
  std::vector<Limb> t = mul_dispatch(a, n, xh.data(), xh.size());
  while (t.size() > n + h) {  // t ≥ β^{n+h}; at most a few rounds
    newton_detail::decrement(xh);
    t.resize(sub(t.data(), t.data(), t.size(), a, n));
  }
  {
    std::vector<Limb> e(n + h + 1, Limb{0});  // β^{n+h}
    e[n + h] = Limb{1};
    e.resize(sub(e.data(), e.data(), e.size(), t.data(), t.size()));
    t = std::move(e);
  }
  const std::size_t nt = t.size() > l ? t.size() - l : 0;
  std::vector<Limb> u = mul_dispatch(t.data() + l, nt, xh.data(), xh.size());
  t = {};
  std::vector<Limb> x(n + 1, Limb{0});
  std::copy(xh.begin(), xh.end(), x.begin() + std::ptrdiff_t(l));
  const std::size_t shift = 2 * h - l;
  if (u.size() > shift) {
    const Limb carry =
        add_in_place(x.data(), x.size(), u.data() + shift, u.size() - shift);
    (void)carry;
    assert(carry == 0 && "reciprocal exceeds n + 1 limbs");
  }
  x.resize(normalized_size(x.data(), x.size()));
  return x;
}

/// Sizes of a Newton division plus the most fix-up steps any block took
/// (never more than kNewtonDivMaxFixups).
struct NewtonDivSizes {
  DivSizes sizes;
  std::size_t max_fixups = 0;
};

/// a = q * b + r with 0 <= r < b, by Newton reciprocal and Barrett steps.
/// Same contract as divrem: q capacity na - nb + 1 (when na >= nb), r
/// capacity nb, b != 0, no aliasing; returns normalized sizes. Exact for all
/// sizes; divrem_dispatch routes here only where it is the faster rung.
template <LimbType Limb>
NewtonDivSizes divrem_newton(Limb* q, Limb* r, const Limb* a, std::size_t na,
                             const Limb* b, std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  assert(nb > 0 && "division by zero");
  if (compare(a, na, b, nb) < 0) {  // q = 0, r = a
    std::copy(a, a + na, r);
    return {{0, na}, 0};
  }

  // Normalize: shift both so the divisor's top bit is set. The quotient is
  // unchanged; the remainder shifts back at the end.
  const auto s = static_cast<std::size_t>(std::countl_zero(b[nb - 1]));
  std::vector<Limb> bn(nb + 1);  // +1: shl writes a (zero) spill limb
  shl(bn.data(), b, nb, s);
  bn.resize(nb);
  std::vector<Limb> an(na + 1);
  an.resize(shl(an.data(), a, na, s));
  const std::size_t n = nb;
  const std::size_t N = an.size();

  // Balanced quotient blocks of k ≤ ⌈n/2⌉ limbs over a reciprocal of the
  // divisor's top p = k + 1 limbs (all n of them for a tiny divisor).
  const std::size_t qn = N - n + 1;
  const std::size_t half = (n + 1) / 2;
  const std::size_t blocks = (qn + half - 1) / half;
  const std::size_t k = (qn + blocks - 1) / blocks;
  const std::size_t p = std::min(n, k + 1);
  const std::vector<Limb> x = reciprocal_newton(bn.data() + (n - p), p);

  // The first block is the top n + k limbs; each later one brings the
  // running remainder (< b) up by min(k, pos) more limbs. So every block is
  // below β^{n+k} and its quotient lands at limb pos.
  std::vector<Limb> qv(qn, Limb{0});
  std::size_t pos = N > n + k ? N - n - k : 0;
  std::vector<Limb> c = pos == 0 ? std::move(an)
                                 : std::vector<Limb>(an.begin() + std::ptrdiff_t(pos),
                                                     an.end());
  std::size_t max_fixups = 0;
  for (;;) {
    std::vector<Limb> qb;
    if (c.size() > n) {
      const std::vector<Limb> est =
          mul_dispatch(c.data() + n, c.size() - n, x.data(), x.size());
      if (est.size() > p) qb.assign(est.begin() + std::ptrdiff_t(p), est.end());
    }
    if (p < n && !qb.empty()) newton_detail::decrement(qb);
    if (!qb.empty()) {
      const std::vector<Limb> qbn = mul_dispatch(qb.data(), qb.size(), bn.data(), n);
      if (compare(c.data(), c.size(), qbn.data(), qbn.size()) < 0) {
        throw std::logic_error("divrem_newton: quotient estimate too high");
      }
      c.resize(sub(c.data(), c.data(), c.size(), qbn.data(), qbn.size()));
    }
    std::size_t fixups = 0;
    while (compare(c.data(), c.size(), bn.data(), n) >= 0) {
      c.resize(sub(c.data(), c.data(), c.size(), bn.data(), n));
      newton_detail::increment(qb);
      ++fixups;
    }
    max_fixups = std::max(max_fixups, fixups);
    assert(pos + qb.size() <= qv.size());
    std::copy(qb.begin(), qb.end(), qv.begin() + std::ptrdiff_t(pos));
    if (pos == 0) break;
    const std::size_t step = std::min(k, pos);
    pos -= step;
    c.insert(c.begin(), an.begin() + std::ptrdiff_t(pos),
             an.begin() + std::ptrdiff_t(pos + step));
    c.resize(normalized_size(c.data(), c.size()));
  }

  const std::size_t rsize = shr(c.data(), c.data(), c.size(), s);
  std::copy(c.data(), c.data() + rsize, r);
  const std::size_t qsize = normalized_size(qv.data(), qv.size());
  std::copy(qv.data(), qv.data() + qsize, q);
  return {{qsize, rsize}, max_fixups};
}

/// Full division ladder: Newton once both the divisor and the quotient
/// reach kNewtonDivThreshold limbs, Knuth D otherwise. Same contract as
/// divrem.
template <LimbType Limb>
DivSizes divrem_dispatch(Limb* q, Limb* r, const Limb* a, std::size_t na,
                         const Limb* b, std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (nb >= kNewtonDivThreshold && na >= nb &&
      na - nb + 1 >= kNewtonDivThreshold) {
    return divrem_newton(q, r, a, na, b, nb).sizes;
  }
  return divrem(q, r, a, na, b, nb);
}

}  // namespace bulkgcd::mp
