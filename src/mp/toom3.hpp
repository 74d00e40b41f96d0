// Toom-3 multiplication. One rung above Karatsuba on the threshold ladder
// (schoolbook → Karatsuba → Toom-3): splits each operand into three parts
// and recovers the product from five pointwise multiplications of ~1/3 size,
// O(n^1.465) versus Karatsuba's O(n^1.585). The batch-GCD product tree
// multiplies values of hundreds of thousands of bits — exactly the regime
// where the extra evaluation/interpolation traffic pays for itself.
//
// Evaluation points are 0, 1, 2, 3, ∞ rather than the textbook 0, ±1, 2, ∞:
// with unsigned-only span kernels every evaluation and every interpolation
// intermediate stays non-negative (a product of polynomials with unsigned
// coefficients has unsigned coefficients), so the whole algorithm runs on
// add/sub/mul_word/divrem_word from span_ops.hpp — no signed temporaries,
// no borrow bookkeeping. The interpolation's small divisions (by 2 and 6)
// are exact by construction and done with divrem_word.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "mp/karatsuba.hpp"
#include "mp/span_ops.hpp"

namespace bulkgcd::mp {

/// Below this many limbs (smaller operand) Karatsuba wins: the five
/// pointwise products plus evaluation/interpolation passes only beat three
/// Karatsuba halves once the linear work is amortized over large operands.
/// (bench_microkernels puts the 32-bit-limb crossover near this size; on
/// 64-bit limbs the two rungs stay within about 15% from 96 to 192 limbs
/// and the batch tree times the same with the threshold at 128 or 192, so
/// one value serves every width. The mp_stress differential suite
/// straddles it on every limb width.)
inline constexpr std::size_t kToom3Threshold = 96;

template <LimbType Limb>
std::vector<Limb> mul_toom3(const Limb* a, std::size_t na, const Limb* b,
                            std::size_t nb);

/// Full threshold dispatch: schoolbook below kKaratsubaThreshold, Karatsuba
/// below kToom3Threshold, Toom-3 above. The recursive algorithms call this
/// for their subproducts, so a huge multiplication descends the whole ladder.
template <LimbType Limb>
std::vector<Limb> mul_dispatch(const Limb* a, std::size_t na, const Limb* b,
                               std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (std::min(na, nb) >= kToom3Threshold) return mul_toom3(a, na, b, nb);
  return mul_karatsuba(a, na, b, nb);
}

namespace toom3_detail {

/// value += piece, in place, growing by at most one limb.
template <LimbType Limb>
void add_into(std::vector<Limb>& value, const Limb* piece, std::size_t n) {
  if (n == 0) return;
  value.resize(std::max(value.size(), n) + 1, Limb{0});
  value.resize(add(value.data(), value.data(), value.size() - 1, piece, n));
}

/// Evaluate p(t) = p0 + p1·t + p2·t² at a small unsigned point t via Horner:
/// (p2·t + p1)·t + p0 — two mul_word passes, two adds, all non-negative.
template <LimbType Limb>
std::vector<Limb> eval_at(const Limb* p0, std::size_t n0, const Limb* p1,
                          std::size_t n1, const Limb* p2, std::size_t n2,
                          Limb t) {
  std::vector<Limb> acc(p2, p2 + n2);
  acc.resize(normalized_size(acc.data(), acc.size()));
  acc.resize(acc.size() + 1);
  acc.resize(mul_word(acc.data(), acc.data(), acc.size() - 1, t));
  add_into(acc, p1, n1);
  acc.resize(acc.size() + 1);
  acc.resize(mul_word(acc.data(), acc.data(), acc.size() - 1, t));
  add_into(acc, p0, n0);
  return acc;
}

/// value -= piece (requires value >= piece; guaranteed by the interpolation
/// identities below).
template <LimbType Limb>
void sub_from(std::vector<Limb>& value, const std::vector<Limb>& piece) {
  value.resize(
      sub(value.data(), value.data(), value.size(), piece.data(), piece.size()));
}

/// value = value / w, exact (remainder asserted zero by the algebra).
template <LimbType Limb>
void div_exact(std::vector<Limb>& value, Limb w) {
  const Limb rem = divrem_word(value.data(), value.data(), value.size(), w);
  (void)rem;
  assert(rem == 0 && "toom3 interpolation division must be exact");
  value.resize(normalized_size(value.data(), value.size()));
}

/// value = value * w in place.
template <LimbType Limb>
void mul_small(std::vector<Limb>& value, Limb w) {
  value.resize(value.size() + 1);
  value.resize(mul_word(value.data(), value.data(), value.size() - 1, w));
}

}  // namespace toom3_detail

/// Returns a * b as a normalized limb vector.
template <LimbType Limb>
std::vector<Limb> mul_toom3(const Limb* a, std::size_t na, const Limb* b,
                            std::size_t nb) {
  using namespace toom3_detail;
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (na == 0 || nb == 0) return {};
  if (std::min(na, nb) < kToom3Threshold) return mul_karatsuba(a, na, b, nb);

  // Split on the larger operand: x = x2·B^{2h} + x1·B^h + x0 with h limbs
  // per low part. A shorter operand simply has empty high parts.
  const std::size_t h = (std::max(na, nb) + 2) / 3;
  const auto part = [h](const Limb* p, std::size_t n, std::size_t k) {
    const std::size_t lo = std::min(n, k * h);
    const std::size_t hi = std::min(n, (k + 1) * h);
    return std::pair(p + lo, normalized_size(p + lo, hi - lo));
  };
  const auto [a0, na0] = part(a, na, 0);
  const auto [a1, na1] = part(a, na, 1);
  const auto [a2, na2] = part(a, na, 2);
  const auto [b0, nb0] = part(b, nb, 0);
  const auto [b1, nb1] = part(b, nb, 1);
  const auto [b2, nb2] = part(b, nb, 2);

  // Five pointwise products at t = 0, 1, 2, 3, ∞.
  const std::vector<Limb> w0 = mul_dispatch(a0, na0, b0, nb0);
  const std::vector<Limb> w4 = mul_dispatch(a2, na2, b2, nb2);
  std::vector<Limb> w1, w2, w3;
  {
    const auto ea = eval_at(a0, na0, a1, na1, a2, na2, Limb{1});
    const auto eb = eval_at(b0, nb0, b1, nb1, b2, nb2, Limb{1});
    w1 = mul_dispatch(ea.data(), ea.size(), eb.data(), eb.size());
  }
  {
    const auto ea = eval_at(a0, na0, a1, na1, a2, na2, Limb{2});
    const auto eb = eval_at(b0, nb0, b1, nb1, b2, nb2, Limb{2});
    w2 = mul_dispatch(ea.data(), ea.size(), eb.data(), eb.size());
  }
  {
    const auto ea = eval_at(a0, na0, a1, na1, a2, na2, Limb{3});
    const auto eb = eval_at(b0, nb0, b1, nb1, b2, nb2, Limb{3});
    w3 = mul_dispatch(ea.data(), ea.size(), eb.data(), eb.size());
  }

  // Interpolation. With c(x) = c4·x⁴ + … + c0 (every cᵢ ≥ 0):
  //   c0 = w0,  c4 = w4
  //   t1 = w1 − c0 −  c4 =  c1 +  c2 +  c3
  //   t2 = w2 − c0 − 16c4 = 2c1 + 4c2 + 8c3
  //   t3 = w3 − c0 − 81c4 = 3c1 + 9c2 + 27c3
  //   u  = t2 − 2t1 = 2(c2 + 3c3)      v = t3 − 3t1 = 6(c2 + 4c3)
  //   c3 = v/6 − u/2   c2 = u/2 − 3c3   c1 = t1 − c2 − c3
  // Every subtrahend is bounded by its minuend term-by-term, so the
  // unsigned sub() precondition holds throughout.
  std::vector<Limb> t1 = std::move(w1);
  sub_from(t1, w0);
  sub_from(t1, w4);

  std::vector<Limb> t2 = std::move(w2);
  sub_from(t2, w0);
  {
    std::vector<Limb> c4_16 = w4;
    mul_small(c4_16, Limb{16});
    sub_from(t2, c4_16);
  }
  std::vector<Limb> t3 = std::move(w3);
  sub_from(t3, w0);
  {
    std::vector<Limb> c4_81 = w4;
    mul_small(c4_81, Limb{81});
    sub_from(t3, c4_81);
  }

  std::vector<Limb> u = std::move(t2);  // u = t2 − 2t1
  {
    std::vector<Limb> t1_2 = t1;
    mul_small(t1_2, Limb{2});
    sub_from(u, t1_2);
  }
  std::vector<Limb> v = std::move(t3);  // v = t3 − 3t1
  {
    std::vector<Limb> t1_3 = t1;
    mul_small(t1_3, Limb{3});
    sub_from(v, t1_3);
  }

  div_exact(v, Limb{6});  // v = c2 + 4c3
  div_exact(u, Limb{2});  // u = c2 + 3c3
  std::vector<Limb> c3 = std::move(v);
  sub_from(c3, u);  // c3
  std::vector<Limb> c2 = std::move(u);
  {
    std::vector<Limb> c3_3 = c3;
    mul_small(c3_3, Limb{3});
    sub_from(c2, c3_3);
  }
  std::vector<Limb> c1 = std::move(t1);
  sub_from(c1, c2);
  sub_from(c1, c3);

  // result = Σ cᵢ · B^{i·h}. Adjacent coefficients overlap (each cᵢ spans up
  // to 2h+1 limbs) so accumulate with carry-propagating adds at offsets.
  std::vector<Limb> out(na + nb, Limb{0});
  // The adds run in place: each partial sum is at most the product, so cᵢ
  // fits the tail and no carry leaves it.
  const auto add_at = [&out](std::size_t offset, const std::vector<Limb>& c) {
    if (c.empty()) return;
    assert(offset + c.size() <= out.size());
    const Limb carry = add_in_place(out.data() + offset, out.size() - offset,
                                    c.data(), c.size());
    (void)carry;
    assert(carry == 0 && "partial sum exceeds the product");
  };
  add_at(0, w0);
  add_at(h, c1);
  add_at(2 * h, c2);
  add_at(3 * h, c3);
  add_at(4 * h, w4);
  out.resize(normalized_size(out.data(), out.size()));
  return out;
}

}  // namespace bulkgcd::mp
