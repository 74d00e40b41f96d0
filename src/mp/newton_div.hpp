// Newton-reciprocal division: the top rung of the division ladder (Knuth D →
// Newton), as mul_dispatch climbs schoolbook → Karatsuba → NTT. Knuth
// Algorithm D (span_ops.hpp divrem) costs Θ(q·n) word operations for a
// q-limb quotient by an n-limb divisor. Each batch-GCD descent step divides
// ~2n-limb values by an n-limb node, so there that is Θ(n²) next to the
// transform's O(n log n). Here a division costs a few multiplications:
//
//   1. reciprocal_newton: X ≈ β^{2p}/b' for the top p limbs b' of the
//      normalized divisor (β = 2^limb_bits), grown from a Knuth-D seed by
//      precision-doubling Newton steps over mul_dispatch (Brent &
//      Zimmermann, "Modern Computer Arithmetic", Algorithm 3.5). It
//      guarantees b'·X < β^{2p} ≤ b'·(X + 2).
//   2. The quotient is produced in blocks of k limbs, top block first, with
//      p = min(n, k + 1). NewtonDivisor holds the normalized divisor and X
//      for one k, so several dividends share one reciprocal: the batch tree
//      takes k = ⌈(n + 1)/2⌉, two blocks for each of a cofactor step's two
//      divisions. divrem_newton sizes balanced blocks of k ≤ ⌈n/2⌉ for its
//      one quotient.
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

#include "mp/ntt.hpp"
#include "mp/span_ops.hpp"

namespace bulkgcd::mp {

/// Below this many limbs (divisor, or quotient) Knuth D wins: a 2n/n Newton
/// division costs a few same-size multiplications plus allocations, which
/// beat Knuth D's tight quadratic loop once the products take the
/// transform. Also the reciprocal's seed size: up to it the seed is an
/// exact Knuth-D quotient. (Interleaved 2n/n divisions through
/// divrem_dispatch, 64-bit limbs, a 4-vCPU AVX-512 Xeon, with the threshold
/// at 256, 512 and 1024: at a 256-limb divisor the rungs tie, at 512 Newton
/// is 1.3–1.9× ahead and at 768 1.3–1.8×; 32-bit limbs tie at 512 and
/// Newton leads from 768. The tree timed with the threshold at 512 was
/// ahead of 1024 in three of four interleaved rounds; docs/BATCHGCD.md.
/// The mp_stress differential suite straddles it on every limb width.)
inline constexpr std::size_t kNewtonDivThreshold = 512;

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

/// A divisor prepared for Newton division: normalized, with the reciprocal
/// of its top p = min(n, k + 1) limbs for quotient blocks of k limbs. Built
/// once, it serves any number of dividends, so a caller dividing several
/// values by one divisor pays for one reciprocal.
template <LimbType Limb>
class NewtonDivisor {
 public:
  /// Blocks of k = ⌈(n + 1)/2⌉ limbs, so any dividend below β^{2n+1}
  /// (after the normalizing shift) takes two blocks.
  NewtonDivisor(const Limb* b, std::size_t nb)
      : NewtonDivisor(b, nb, (normalized_size(b, nb) + 2) / 2) {}

  /// Blocks of `block` limbs (1 ≤ block).
  NewtonDivisor(const Limb* b, std::size_t nb, std::size_t block) {
    nb = normalized_size(b, nb);
    assert(nb > 0 && block > 0 && "division by zero");
    shift_ = static_cast<std::size_t>(std::countl_zero(b[nb - 1]));
    bn_.resize(nb + 1);  // +1: shl writes a (zero) spill limb
    shl(bn_.data(), b, nb, shift_);
    bn_.resize(nb);
    k_ = block;
    p_ = std::min(nb, k_ + 1);
    x_ = reciprocal_newton(bn_.data() + (nb - p_), p_);
  }

  std::size_t size() const noexcept { return bn_.size(); }

  /// a = q * b + r with 0 <= r < b. q capacity na - nb + 1 (when na >= nb),
  /// or null when only r is wanted; r capacity nb; no aliasing. Returns
  /// normalized sizes.
  NewtonDivSizes divrem(Limb* q, Limb* r, const Limb* a, std::size_t na) const;

 private:
  std::vector<Limb> bn_;  // the divisor shifted so its top bit is set
  std::size_t shift_ = 0;
  std::size_t k_ = 0, p_ = 0;
  std::vector<Limb> x_;  // reciprocal of bn_'s top p_ limbs
};

template <LimbType Limb>
NewtonDivSizes NewtonDivisor<Limb>::divrem(Limb* q, Limb* r, const Limb* a,
                                           std::size_t na) const {
  const std::size_t n = bn_.size();
  const std::size_t k = k_, p = p_;
  const Limb* const bn = bn_.data();
  na = normalized_size(a, na);
  // Normalize the dividend by the divisor's shift. The quotient is
  // unchanged; the remainder shifts back at the end.
  std::vector<Limb> an(na + 1);
  an.resize(shl(an.data(), a, na, shift_));
  const std::size_t N = an.size();
  if (compare(an.data(), N, bn, n) < 0) {  // q = 0, r = a
    std::copy(a, a + na, r);
    return {{0, na}, 0};
  }

  // The first block is the top n + k limbs; each later one brings the
  // running remainder (< b) up by min(k, pos) more limbs. So every block is
  // below β^{n+k} and its quotient lands at limb pos. The block is
  // an[pos, pos + len): each remainder is left in place, just above the
  // dividend limbs the next block brings in.
  const std::size_t qn = N - n + 1;
  std::vector<Limb> qv(q != nullptr ? qn : 0, Limb{0});
  std::size_t pos = N > n + k ? N - n - k : 0;
  std::size_t len = N - pos;
  std::size_t max_fixups = 0;
  for (;;) {
    Limb* const c = an.data() + pos;
    len = normalized_size(c, len);
    std::vector<Limb> qb;
    if (len > n) {
      const std::vector<Limb> est =
          mul_dispatch(c + n, len - n, x_.data(), x_.size());
      if (est.size() > p) qb.assign(est.begin() + std::ptrdiff_t(p), est.end());
    }
    if (p < n && !qb.empty()) newton_detail::decrement(qb);
    if (!qb.empty()) {
      const std::vector<Limb> qbn = mul_dispatch(qb.data(), qb.size(), bn, n);
      if (compare(c, len, qbn.data(), qbn.size()) < 0) {
        throw std::logic_error("divrem_newton: quotient estimate too high");
      }
      len = sub(c, c, len, qbn.data(), qbn.size());
    }
    std::size_t fixups = 0;
    while (compare(c, len, bn, n) >= 0) {
      len = sub(c, c, len, bn, n);
      newton_detail::increment(qb);
      ++fixups;
    }
    max_fixups = std::max(max_fixups, fixups);
    if (q != nullptr) {
      assert(pos + qb.size() <= qv.size());
      std::copy(qb.begin(), qb.end(), qv.begin() + std::ptrdiff_t(pos));
    }
    if (pos == 0) break;
    const std::size_t step = std::min(k, pos);
    pos -= step;
    len += step;
  }

  const std::size_t rsize = shr(an.data(), an.data(), len, shift_);
  std::copy(an.data(), an.data() + rsize, r);
  const std::size_t qsize = normalized_size(qv.data(), qv.size());
  if (q != nullptr) std::copy(qv.data(), qv.data() + qsize, q);
  return {{qsize, rsize}, max_fixups};
}

/// a = q * b + r with 0 <= r < b, by Newton reciprocal and Barrett steps.
/// Same contract as divrem: q capacity na - nb + 1 (when na >= nb), r
/// capacity nb, b != 0, no aliasing; returns normalized sizes. Exact for all
/// sizes; divrem_dispatch routes here only where it is the faster rung.
/// Sizes its blocks for this one quotient: k ≤ ⌈n/2⌉ limbs each, balanced,
/// over a reciprocal of the divisor's top k + 1 limbs.
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
  // Quotient limbs after normalization: the shift may carry a into one more
  // limb.
  const std::size_t s = static_cast<std::size_t>(std::countl_zero(b[nb - 1]));
  const std::size_t N = limbs_for_bits<Limb>(bit_length(a, na) + s);
  const std::size_t qn = N - nb + 1;
  const std::size_t half = (nb + 1) / 2;
  const std::size_t blocks = (qn + half - 1) / half;
  const std::size_t k = (qn + blocks - 1) / blocks;
  return NewtonDivisor<Limb>(b, nb, k).divrem(q, r, a, na);
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
