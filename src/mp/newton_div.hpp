// Newton-reciprocal division: the top rung of the division ladder (Knuth D →
// Newton), as mul_dispatch climbs schoolbook → Karatsuba → NTT. Knuth
// Algorithm D (span_ops.hpp divrem) costs Θ(q·n) word operations for a
// q-limb quotient by an n-limb divisor. Each batch-GCD descent step divides
// ~2n-limb values by an n-limb node, so there that is Θ(n²) next to the
// transform's O(n log n). Here a division costs a few multiplications:
//
//   1. reciprocal_newton: X ≈ β^{2p}/b' for the top p limbs b' of the
//      normalized divisor (β = 2^limb_bits), grown from a Knuth-D seed by
//      precision-doubling Newton steps (Brent & Zimmermann, "Modern
//      Computer Arithmetic", Algorithm 3.5). It guarantees
//      b'·X < β^{2p} ≤ b'·(X + 2). A step's two products go through
//      mul_dispatch, or above the transform rung through one held transform
//      of the half-size reciprocal, the first taken modulo 2^{64L} − 1.
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
//      Above the transform rung NewtonDivisor holds the forward transforms
//      of b and X, and takes Q·b modulo 2^{64L} − 1 at L ≈ n words:
//      c − Q·b < 5b then follows from that residue and its low words.
//
// Every step is exact: q and r equal divrem's, bit for bit.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <optional>
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
/// ahead of 1024 in three of four interleaved rounds. With the divisor's
/// transforms held, one cofactor step of 384 u64 words ran 1.2–1.9×
/// faster on Newton than on Knuth D (a Newton cofactor-step row, since
/// removed with that step, vs BM_CofactorStepKnuthD), and the tree with the
/// threshold at 384 matched 512; docs/BATCHGCD.md. The mp_stress
/// differential suite straddles it on every limb width.)
inline constexpr std::size_t kNewtonDivThreshold = 384;

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

/// (c − x·y) modulo β^w on 64-bit words (β = 2^64): the low words of a
/// difference whose residue modulo β^L − 1 is known, for from_residues.
inline std::vector<ntt_detail::u64> low_difference(
    const ntt_detail::u64* c, std::size_t nc, const ntt_detail::u64* x, std::size_t nx,
    const ntt_detail::u64* y, std::size_t ny, std::size_t w) {
  using ntt_detail::u64;
  nx = std::min(nx, w);
  ny = std::min(ny, w);
  std::vector<u64> xy(std::max(nx + ny, w), u64{0});
  mul_schoolbook(xy.data(), x, nx, y, ny);
  std::vector<u64> out(w, u64{0});
  std::copy(c, c + std::min(nc, w), out.begin());
  u64 borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const ntt_detail::u128 diff = ntt_detail::u128(out[i]) - xy[i] - borrow;
    out[i] = u64(diff);
    borrow = u64(diff >> 64) & 1;
  }
  return out;
}

/// The transform length for a Newton step of reciprocal_newton from X_h
/// (xh limbs) to n limbs, or −1 where mul_dispatch's two products cost
/// less: X_h's transform is held for both products, a·X_h modulo
/// β^L − 1 at L ≈ n words and ⌊T/β^l⌋·X_h (below h + 1 limbs) unfolded.
template <LimbType Limb>
int reciprocal_step_length(std::size_t n, std::size_t h, std::size_t xh) {
  using ntt_detail::words_for_limbs;
  const std::size_t nw = words_for_limbs<Limb>(n), xw = words_for_limbs<Limb>(xh);
  if (nw < kNttThreshold) return -1;
  const int lg = std::max(ntt_detail::cyclic_length(nw, xw),
                          ntt_detail::unfold_length(words_for_limbs<Limb>(h + 1), xw));
  const double held = 5 * ntt_detail::transform_units(lg);
  const double direct = ntt_detail::product_units<Limb>(n, xh) +
                        ntt_detail::product_units<Limb>(h + 1, xh);
  return held < direct ? lg : -1;
}

/// A Newton step's two products on X_h's transform (reciprocal_newton):
/// lowers X_h until T = β^{n+h} − a·X_h > 0 and returns ⌊T/β^l⌋·X_h. a·X_h is taken modulo β_w^L − 1 (β_w = 2^64): T lies in
/// (−2β^n, 2β^n), so V = T + 4a (a ≥ β^n/2) lies in (0, 6β^n) and follows
/// from its residue and its low words (ntt_detail::from_residues). Then
/// V = T + m·a with m = 4, and a is taken back out while V stays above a:
/// X_h is lowered by the m that is left.
template <LimbType Limb>
std::vector<Limb> reciprocal_step_held(const Limb* a, std::size_t n, std::size_t l,
                                       std::vector<Limb>& xh, int lg) {
  using ntt_detail::u64;
  const std::size_t h = n - l;
  const ntt_detail::Words<Limb> aw(a, n), xw(xh.data(), xh.size());
  const ntt_detail::HeldTransform xt(xw.data(), xw.size(), lg);
  const ntt_detail::TransformBuffer scratch(xt.scratch_words());
  const std::size_t L = xt.length();
  const std::size_t w = aw.size() >= L ? aw.size() - L + 1 : 1;
  // V modulo β_w^L − 1: β^{n+h} − a·X_h + 4a.
  u64* const v = xt.multiply_cyclic(aw.data(), aw.size(), scratch.data());
  for (std::size_t i = 0; i < L; ++i) v[i] = ~v[i];
  std::vector<u64> a4(aw.size() + 1);
  a4.resize(shl(a4.data(), aw.data(), aw.size(), 2));
  ntt_detail::add_mod_mersenne(v, L, a4.data(), a4.size());
  const std::size_t bit = (n + h) * limb_bits<Limb> % (64 * L);  // β^{n+h}
  const u64 one_hot = u64{1} << (bit % 64);
  ntt_detail::add_mod_mersenne(v, L, &one_hot, 1, bit / 64);
  // V modulo β_w^w: 4a − a·X_h, as β^{n+h} spans more than w words.
  const std::vector<u64> low =
      low_difference(a4.data(), a4.size(), aw.data(), aw.size(), xw.data(), xw.size(), w);
  const auto vn = ntt_detail::from_residues(v, L, low.data(), w, 6);
  if (!vn) throw std::logic_error("reciprocal_newton: residue out of range");
  std::vector<Limb> t(*vn * (64 / limb_bits<Limb>));
  ntt_detail::unpack(t.data(), t.size(), v, *vn);
  t.resize(normalized_size(t.data(), t.size()));
  Limb m = 4;
  while (m > 0 && compare(t.data(), t.size(), a, n) > 0) {
    t.resize(sub(t.data(), t.data(), t.size(), a, n));
    --m;
  }
  // U = ⌊T/β^l⌋·X_h on the held transform of X_h before the lowering,
  // minus m·⌊T/β^l⌋.
  const std::size_t nt = t.size() > l ? t.size() - l : 0;
  std::vector<Limb> u;
  if (nt > 0) {
    const ntt_detail::Words<Limb> tw(t.data() + l, nt);
    const std::size_t nu = tw.size() + xw.size();
    const u64* const uw = xt.multiply(tw.data(), tw.size(), scratch.data());
    u.resize(nu * (64 / limb_bits<Limb>));
    ntt_detail::unpack(u.data(), u.size(), uw, nu);
    u.resize(normalized_size(u.data(), u.size()));
    if (m > 0) {
      std::vector<Limb> mt(nt + 1);
      mt.resize(mul_word(mt.data(), t.data() + l, nt, m));
      u.resize(sub(u.data(), u.data(), u.size(), mt.data(), mt.size()));
    }
  }
  for (; m > 0; --m) decrement(xh);
  return u;
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
  std::vector<Limb> u;
  if (const int lg = newton_detail::reciprocal_step_length<Limb>(n, h, xh.size()); lg >= 0) {
    u = newton_detail::reciprocal_step_held(a, n, l, xh, lg);
  } else {
    std::vector<Limb> t = mul_dispatch(a, n, xh.data(), xh.size());
    while (t.size() > n + h) {  // t ≥ β^{n+h}; at most a few rounds
      newton_detail::decrement(xh);
      t.resize(sub(t.data(), t.data(), t.size(), a, n));
    }
    std::vector<Limb> e(n + h + 1, Limb{0});  // β^{n+h}
    e[n + h] = Limb{1};
    e.resize(sub(e.data(), e.data(), e.size(), t.data(), t.size()));
    const std::size_t nt = e.size() > l ? e.size() - l : 0;
    u = mul_dispatch(e.data() + l, nt, xh.data(), xh.size());
  }
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
///
/// Above the transform rung it also holds the forward transforms of the
/// normalized divisor and of the reciprocal (ntt_detail::HeldTransform),
/// so each block's two products take two transforms each instead of three
/// or five: the estimate ⌊c/β^n⌋·X against the held X, and Q·b as one
/// cyclic product modulo 2^{64L} − 1 at L ≈ n words, as c − Q·b is known
/// to lie in [0, 5b) (see subtract_product). Below the rung both products
/// go through mul_dispatch.
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
    hold_transforms();
  }

  std::size_t size() const noexcept { return bn_.size(); }

  /// Whether the blocks' products take the held transforms.
  bool holds_transforms() const noexcept { return bt_.has_value(); }

  /// a = q * b + r with 0 <= r < b. q capacity na - nb + 1 (when na >= nb),
  /// or null when only r is wanted; r capacity nb; no aliasing. Returns
  /// normalized sizes.
  NewtonDivSizes divrem(Limb* q, Limb* r, const Limb* a, std::size_t na) const;

 private:
  using u64 = ntt_detail::u64;

  /// Builds the held transforms where they pay (the constructor's last step).
  void hold_transforms();

  /// Q = ⌊⌊c/β^n⌋·X / β^p⌋ for the block's top limbs top[0, nt).
  std::vector<Limb> estimate(const Limb* top, std::size_t nt, u64* scratch) const;
  /// c[0, len) −= Q·b; returns the new normalized length.
  std::size_t subtract_product(Limb* c, std::size_t len, const std::vector<Limb>& q,
                               u64* scratch) const;

  std::vector<Limb> bn_;  // the divisor shifted so its top bit is set
  std::size_t shift_ = 0;
  std::size_t k_ = 0, p_ = 0;
  std::vector<Limb> x_;  // reciprocal of bn_'s top p_ limbs
  // Above the transform rung: bn_ (modulo 2^{64L} − 1 when it is a few
  // words past L) and x_, transformed once.
  std::optional<ntt_detail::HeldTransform> bt_, xt_;
};

template <LimbType Limb>
void NewtonDivisor<Limb>::hold_transforms() {
  using ntt_detail::transform_units;
  using ntt_detail::words_for_limbs;
  const std::size_t nw = words_for_limbs<Limb>(bn_.size());
  const std::size_t kw = words_for_limbs<Limb>(k_);      // a block's ⌊c/β^n⌋
  const std::size_t qw = words_for_limbs<Limb>(k_ + 1);  // a block's Q
  const std::size_t xw = words_for_limbs<Limb>(x_.size());
  const int lg_b = ntt_detail::cyclic_length(nw, qw);
  const int lg_x = ntt_detail::unfold_length(kw, xw);
  // Per block, two transforms at each length against mul_dispatch's two
  // products.
  const double held = 2 * (transform_units(lg_b) + transform_units(lg_x));
  const double direct = ntt_detail::product_units<Limb>(k_, x_.size()) +
                        ntt_detail::product_units<Limb>(k_ + 1, bn_.size());
  if (nw < kNttThreshold || held >= direct) return;
  const ntt_detail::Words<Limb> bw(bn_.data(), bn_.size()), xwords(x_.data(), x_.size());
  bt_.emplace(bw.data(), bw.size(), lg_b);
  xt_.emplace(xwords.data(), xwords.size(), lg_x);
}

template <LimbType Limb>
std::vector<Limb> NewtonDivisor<Limb>::estimate(const Limb* top, std::size_t nt,
                                                u64* scratch) const {
  std::vector<Limb> est;
  if (!xt_) {
    est = mul_dispatch(top, nt, x_.data(), x_.size());
  } else {
    const ntt_detail::Words<Limb> tw(top, nt);
    const std::size_t nw = tw.size() + xt_->size();
    const u64* const w = xt_->multiply(tw.data(), tw.size(), scratch);
    const std::size_t limbs = nw * (64 / limb_bits<Limb>);
    if (limbs <= p_) return {};
    est.resize(limbs - p_);  // the limbs from p_ up
    ntt_detail::unpack(est.data(), est.size(), w, nw, p_);
    est.resize(normalized_size(est.data(), est.size()));
    return est;
  }
  if (est.size() <= p_) return {};
  return std::vector<Limb>(est.begin() + std::ptrdiff_t(p_), est.end());
}

template <LimbType Limb>
std::size_t NewtonDivisor<Limb>::subtract_product(Limb* c, std::size_t len,
                                                  const std::vector<Limb>& q,
                                                  u64* scratch) const {
  if (!bt_) {
    const std::vector<Limb> qb = mul_dispatch(q.data(), q.size(), bn_.data(), bn_.size());
    if (compare(c, len, qb.data(), qb.size()) < 0) {
      throw std::logic_error("divrem_newton: quotient estimate too high");
    }
    return sub(c, c, len, qb.data(), qb.size());
  }
  // From here on β = 2^64 and sizes are in words. The difference
  // d = c − Q·b lies in [0, 5b) ⊂ [0, 5·β^nw), and L + kMaxWrap ≥ nw, so
  // d follows from its residue modulo β^L − 1 and its low
  // w = max(1, nw − L + 1) words (ntt_detail::from_residues), whose
  // multiple j of β^L − 1 is at most 5·β^{w−1}. When nw is a power of two,
  // L = nw and one word decides j ≤ 5.
  const std::size_t L = bt_->length();
  const std::size_t nw = bt_->size();
  const std::size_t w = nw >= L ? nw - L + 1 : 1;
  const ntt_detail::Words<Limb> qw(q.data(), q.size()), cw(c, len);
  u64* const d = bt_->multiply_cyclic(qw.data(), qw.size(), scratch);  // Q·b
  for (std::size_t i = 0; i < L; ++i) d[i] = ~d[i];  // β^L − 1 − Q·b
  ntt_detail::add_mod_mersenne(d, L, cw.data(), cw.size());
  // d modulo β^w, from the low w words of c, Q and b.
  const ntt_detail::Words<Limb> bw(bn_.data(), std::min(bn_.size(), w * (64 / limb_bits<Limb>)));
  const std::vector<u64> low = newton_detail::low_difference(
      cw.data(), cw.size(), qw.data(), qw.size(), bw.data(), bw.size(), w);
  const auto dn = ntt_detail::from_residues(d, L, low.data(), w, 5);
  if (!dn) throw std::logic_error("divrem_newton: quotient estimate too high");
  ntt_detail::unpack(c, len, d, *dn);
  return normalized_size(c, len);
}

template <LimbType Limb>
NewtonDivSizes NewtonDivisor<Limb>::divrem(Limb* q, Limb* r, const Limb* a,
                                           std::size_t na) const {
  const std::size_t n = bn_.size();
  const std::size_t k = k_, p = p_;
  const Limb* const bn = bn_.data();
  na = normalized_size(a, na);
  // Normalize the dividend by the divisor's shift. The quotient is
  // unchanged; the remainder shifts back at the end. The dividend, like the
  // transforms' scratch, is a TransformBuffer, so a long one goes back to
  // the system when the division ends instead of staying in a worker's heap.
  const ntt_detail::TransformBuffer an_buf(ntt_detail::words_for_limbs<Limb>(na + 1));
  Limb* const an = an_buf.as<Limb>();
  const std::size_t N = shl(an, a, na, shift_);
  if (compare(an, N, bn, n) < 0) {  // q = 0, r = a
    std::copy(a, a + na, r);
    return {{0, na}, 0};
  }
  std::optional<ntt_detail::TransformBuffer> scratch;
  if (bt_) scratch.emplace(std::max(bt_->scratch_words(), xt_->scratch_words()));
  u64* const sc = scratch ? scratch->data() : nullptr;

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
    Limb* const c = an + pos;
    len = normalized_size(c, len);
    std::vector<Limb> qb;
    if (len > n) qb = estimate(c + n, len - n, sc);
    if (p < n && !qb.empty()) newton_detail::decrement(qb);
    if (!qb.empty()) len = subtract_product(c, len, qb, sc);
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

  const std::size_t rsize = shr(an, an, len, shift_);
  std::copy(an, an + rsize, r);
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
