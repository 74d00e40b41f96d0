// Three-prime number-theoretic-transform multiplication: the top rung of
// the multiply ladder (schoolbook → Karatsuba → NTT). A product of two
// n-limb values is the convolution of their limb sequences followed by
// carry propagation. The convolution is computed modulo three primes
// p < 2^62 by transforms of a power-of-two length L, which costs
// O(L log L) word operations where Karatsuba's recursion costs O(n^1.585).
// The coefficients, each below L·2^128, are rebuilt from their three
// residues by Garner's CRT (p1·p2·p3 ≈ 2^183.7 leaves room for any L below
// 2^55) and carried into the limb result. (Brent & Zimmermann, "Modern
// Computer Arithmetic", §2.3 and §2.7.)
//
// Arithmetic is Montgomery with R = 2^64 and lazy reduction: every value in
// a transform stays in [0, 2p), as 4p < 2^64 lets a sum or a difference
// plus 2p stand unreduced before the next multiplication. The forward
// transform decimates in frequency (natural order in, bit-reversed out) and
// the inverse in time (bit-reversed in, natural out), so no permutation
// pass is needed. Each prime has one twiddle table shared by every thread
// and every transform length; see Twiddles.
//
// The core runs on 64-bit words. Narrower limbs are packed into words at
// the rung's edge, so every limb width takes the same transform.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "mp/karatsuba.hpp"
#include "mp/span_ops.hpp"

namespace bulkgcd::mp {

/// Below this many 64-bit words (smaller operand) Karatsuba always wins;
/// above it mul_dispatch compares the two rungs' modelled costs (see
/// ntt_detail::transform_pays), as the transform's cost steps up at each
/// power of two while Karatsuba's grows smoothly (docs/BATCHGCD.md).
inline constexpr std::size_t kNttThreshold = 256;

namespace ntt_detail {

using u64 = std::uint64_t;
__extension__ using u128 = unsigned __int128;

/// An NTT prime p = c·2^k + 1 < 2^62 with its Montgomery constants.
struct Prime {
  u64 p;
  u64 g;      ///< generates the 2-power subgroup of (Z/p)^*
  u64 p_inv;  ///< p^{-1} mod 2^64
  u64 r2;     ///< R² mod p

  constexpr Prime(u64 prime, u64 generator)
      : p(prime), g(generator), p_inv(inverse_mod_r(prime)), r2(r_squared(prime)) {}

  static constexpr u64 inverse_mod_r(u64 p) {
    u64 x = p;  // correct to 3 bits; each Newton step doubles that
    for (int i = 0; i < 5; ++i) x *= 2 - p * x;
    return x;
  }
  static constexpr u64 r_squared(u64 p) {
    const u128 r = (u128(1) << 64) % p;
    return u64(r * r % p);
  }
};

inline constexpr std::array<Prime, 3> kPrimes = {
    Prime(4179340454199820289ull, 3),  // 29·2^57 + 1
    Prime(2485986994308513793ull, 5),  // 69·2^55 + 1
    Prime(1945555039024054273ull, 5),  // 27·2^56 + 1
};

/// Longest transform the three primes support: 2^55 | p − 1 for each.
inline constexpr int kMaxLog2Length = 55;

/// a·b·R^{-1} mod p in [0, 2p), for a·b < p·R (a < 4p and b < p, or both
/// below 2p). The low words of a·b and m·p cancel exactly, so the result is
/// the difference of the high words, which lies in (−p, p).
inline u64 mont_mul(u64 a, u64 b, u64 p, u64 p_inv) {
  const u128 t = u128(a) * b;
  const u64 m = u64(t) * p_inv;
  return u64(t >> 64) - u64((u128(m) * p) >> 64) + p;
}
inline u64 mont_mul(u64 a, u64 b, const Prime& f) {
  return mont_mul(a, b, f.p, f.p_inv);
}

/// x mod p for x < 2p.
inline u64 reduce_once(u64 x, u64 p) { return x >= p ? x - p : x; }

/// a^e mod p (set-up only).
inline u64 pow_mod(u64 a, u64 e, u64 p) {
  u64 r = 1;
  for (; e != 0; e >>= 1, a = u64(u128(a) * a % p)) {
    if (e & 1) r = u64(u128(r) * a % p);
  }
  return r;
}

/// Longest twiddle row stored whole. A longer row h stores only its first
/// h / kFullRow entries, and its other twiddles are those times an entry of
/// row kFullRow (see for_each_twiddle): one more multiplication per
/// butterfly in the top stages of long transforms, for a table that grows
/// with the square root of the transform length instead of with it.
inline constexpr std::size_t kFullRow = std::size_t{1} << 11;

/// Twiddle factors of one prime in the layout w[h + j] = ω_{2h}^j (h a
/// power of two, Montgomery form, reduced below p), where ω_{2h} is a
/// primitive 2h-th root of unity: the stage of half-width h reads its
/// entries from w + h, for every transform length. Inverse twiddles come
/// from the same entries, as ω_{2h}^{−j} = −ω_{2h}^{h−j}. Each row is its
/// own allocation, built once, the first time a transform needs it, and
/// read without a lock after that.
class Twiddles {
 public:
  explicit Twiddles(const Prime& f) : f_(f) {}
  Twiddles(const Twiddles&) = delete;
  Twiddles& operator=(const Twiddles&) = delete;

  /// The stored entries w[h + j]: j < h up to kFullRow, j < h / kFullRow
  /// above it.
  const u64* row(std::size_t h) {
    const int level = std::countr_zero(h);
    const u64* w = rows_[level].load(std::memory_order_acquire);
    return w != nullptr ? w : build(level);
  }

 private:
  const u64* build(int level) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const u64* w = rows_[level].load(std::memory_order_relaxed)) return w;
    const std::size_t h = std::size_t{1} << level;
    const std::size_t stored = h <= kFullRow ? h : h / kFullRow;
    auto w = std::make_unique<u64[]>(stored);
    const u64 root = pow_mod(f_.g, (f_.p - 1) >> (level + 1), f_.p);  // ω_{2h}
    const u64 step = reduce_once(mont_mul(root, f_.r2, f_), f_.p);
    w[0] = reduce_once(mont_mul(1, f_.r2, f_), f_.p);  // R mod p
    for (std::size_t j = 1; j < stored; ++j) {
      w[j] = reduce_once(mont_mul(w[j - 1], step, f_), f_.p);
    }
    storage_[level] = std::move(w);
    rows_[level].store(storage_[level].get(), std::memory_order_release);
    return storage_[level].get();
  }

  const Prime& f_;
  std::array<std::atomic<const u64*>, kMaxLog2Length> rows_{};
  std::mutex mutex_;  // guards storage_ and the building of rows_
  std::array<std::unique_ptr<u64[]>, kMaxLog2Length> storage_;
};

/// The process-wide twiddle table of kPrimes[i].
inline Twiddles& twiddles(std::size_t i) {
  static std::array<Twiddles, 3> tables = {Twiddles(kPrimes[0]),
                                           Twiddles(kPrimes[1]),
                                           Twiddles(kPrimes[2])};
  return tables[i];
}

/// fn(j, ω_{2h}^j) for every j < h, in increasing j. A row longer than
/// kFullRow is rebuilt from its stored head: with s = h / kFullRow and
/// j = u·s + v, ω_{2h}^j = ω_{2·kFullRow}^u · ω_{2h}^v.
template <typename Fn>
void for_each_twiddle(std::size_t h, const Prime& f, Twiddles& tw, Fn&& fn) {
  const u64* w = tw.row(h);
  if (h <= kFullRow) {
    for (std::size_t j = 0; j < h; ++j) fn(j, w[j]);
    return;
  }
  const u64* coarse = tw.row(kFullRow);
  const std::size_t s = h / kFullRow;
  const u64 p = f.p, p_inv = f.p_inv;
  for (std::size_t u = 0; u < kFullRow; ++u) {
    for (std::size_t v = 0; v < s; ++v) {
      fn(u * s + v, reduce_once(mont_mul(coarse[u], w[v], p, p_inv), p));
    }
  }
}

/// Transforms at most this long run stage by stage; longer ones run their
/// top stage and recurse into the halves, which then fit in cache.
inline constexpr std::size_t kBlockLength = 2 * kFullRow;

/// One decimation-in-frequency stage of half-width h over a[0, n):
/// (x, y) → (x + y, (x − y)·ω^j). The prime's constants are copied to
/// locals: stores through a would otherwise force their reload.
inline void forward_stage(u64* a, std::size_t n, std::size_t h,
                          const Prime& f, Twiddles& tw) {
  const u64 p = f.p, p_inv = f.p_inv, p2 = 2 * p;
  if (h == 1) {  // ω^0 = 1: no multiplication
    for (std::size_t i = 0; i < n; i += 2) {
      const u64 x = a[i], y = a[i + 1];
      a[i] = reduce_once(x + y, p2);
      a[i + 1] = reduce_once(x - y + p2, p2);
    }
    return;
  }
  for (std::size_t i = 0; i < n; i += 2 * h) {
    u64* lo = a + i;
    u64* hi = lo + h;
    for_each_twiddle(h, f, tw, [=](std::size_t j, u64 w) {
      const u64 x = lo[j], y = hi[j];
      lo[j] = reduce_once(x + y, p2);
      hi[j] = mont_mul(x - y + p2, w, p, p_inv);
    });
  }
}

/// One decimation-in-time stage of half-width h, the inverse of
/// forward_stage up to a factor 2: (x, y) → (x + y·ω^{−j}, x − y·ω^{−j}).
/// With t = y·ω^{h−j} = −y·ω^{−j} (j > 0) that is (x − t, x + t).
inline void inverse_stage(u64* a, std::size_t n, std::size_t h,
                          const Prime& f, Twiddles& tw) {
  const u64 p = f.p, p_inv = f.p_inv, p2 = 2 * p;
  for (std::size_t i = 0; i < n; i += 2 * h) {
    u64* lo = a + i;
    u64* hi = lo + h;
    const u64 x = lo[0], y = hi[0];
    lo[0] = reduce_once(x + y, p2);
    hi[0] = reduce_once(x - y + p2, p2);
    if (h == 1) continue;
    for_each_twiddle(h, f, tw, [=](std::size_t k, u64 w) {
      if (k == 0) return;
      const std::size_t j = h - k;
      const u64 u = lo[j];
      const u64 t = mont_mul(hi[j], w, p, p_inv);
      lo[j] = reduce_once(u - t + p2, p2);
      hi[j] = reduce_once(u + t, p2);
    });
  }
}

/// Forward transform of a[0, n), n a power of two, values in [0, 2p).
inline void forward(u64* a, std::size_t n, const Prime& f, Twiddles& tw) {
  if (n > kBlockLength) {
    forward_stage(a, n, n / 2, f, tw);
    forward(a, n / 2, f, tw);
    forward(a + n / 2, n / 2, f, tw);
    return;
  }
  for (std::size_t h = n / 2; h > 0; h /= 2) forward_stage(a, n, h, f, tw);
}

/// Inverse of forward, times n.
inline void inverse(u64* a, std::size_t n, const Prime& f, Twiddles& tw) {
  if (n > kBlockLength) {
    inverse(a, n / 2, f, tw);
    inverse(a + n / 2, n / 2, f, tw);
    inverse_stage(a, n, n / 2, f, tw);
    return;
  }
  for (std::size_t h = 1; h < n; h *= 2) inverse_stage(a, n, h, f, tw);
}

/// out[0, L) = the words of a[0, na) times `scale`·R^{-1} mod p (in
/// [0, 2p)), zero-padded.
inline void load(u64* out, std::size_t L, const u64* a, std::size_t na,
                 u64 scale, const Prime& f) {
  const u64 p = f.p, p_inv = f.p_inv;
  for (std::size_t i = 0; i < na; ++i) out[i] = mont_mul(a[i], scale, p, p_inv);
  std::fill(out + na, out + L, u64{0});
}

/// Transform buffers. Through malloc, the first free of a buffer this long
/// raises glibc's mmap threshold past it, and every later one stays
/// resident in the freeing thread's heap: one per worker thread. So a
/// buffer of kMapBytes or more is mapped straight from the operating
/// system, populated in one call, and unmapped when the product ends.
class TransformBuffer {
 public:
  static constexpr std::size_t kMapBytes = std::size_t{128} << 10;  // glibc's default threshold

  explicit TransformBuffer(std::size_t words) : bytes_(words * sizeof(u64)) {
    if (bytes_ < kMapBytes) {
      heap_.reset(new u64[words]);
      data_ = heap_.get();
      return;
    }
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<u64*>(p);
  }
  ~TransformBuffer() {
    if (!heap_) ::munmap(data_, bytes_);
  }
  TransformBuffer(const TransformBuffer&) = delete;
  TransformBuffer& operator=(const TransformBuffer&) = delete;

  u64* data() const noexcept { return data_; }

 private:
  std::size_t bytes_;
  std::unique_ptr<u64[]> heap_;
  u64* data_ = nullptr;
};

/// Garner's constants: inverses in Montgomery form, and p1·p2.
struct Crt {
  u64 inv12;  ///< p1^{-1} mod p2, Montgomery form
  u64 inv13;  ///< p1^{-1} mod p3, Montgomery form
  u64 inv23;  ///< p2^{-1} mod p3, Montgomery form
  u64 p12_lo, p12_hi;
};

inline const Crt& crt() {
  static const Crt c = [] {
    const Prime &f1 = kPrimes[0], &f2 = kPrimes[1], &f3 = kPrimes[2];
    const auto mont_inverse = [](u64 x, const Prime& f) {
      const u64 inv = pow_mod(x % f.p, f.p - 2, f.p);
      return reduce_once(mont_mul(inv, f.r2, f), f.p);
    };
    const u128 p12 = u128(f1.p) * f2.p;
    return Crt{mont_inverse(f1.p, f2), mont_inverse(f1.p, f3),
               mont_inverse(f2.p, f3), u64(p12), u64(p12 >> 64)};
  }();
  return c;
}

/// dst[0, size) += Σ_i c_i·β^i, where coefficient i has the residues
/// r1[i], r2[i], r3[i] (each in [0, 2p)) for i < count. The sum must fit
/// in size words; the carry is propagated to its end.
inline void add_coefficients(u64* dst, std::size_t size, const u64* r1,
                             const u64* r2, const u64* r3, std::size_t count) {
  const Prime &f1 = kPrimes[0], &f2 = kPrimes[1], &f3 = kPrimes[2];
  const Crt& k = crt();
  u128 carry = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // c = x1 + p1·(t2 + p2·t3) with t2 < p2 and t3 < p3, the unique
    // coefficient below p1·p2·p3. Every mont_mul operand is below 4p: x1 < p1
    // < 2·p2 < 3·p3, and t2 < p2 < 2·p3.
    const u64 x1 = reduce_once(r1[i], f1.p);
    const u64 x2 = reduce_once(r2[i], f2.p);
    const u64 x3 = reduce_once(r3[i], f3.p);
    const u64 t2 =
        reduce_once(mont_mul(x2 + 2 * f2.p - x1, k.inv12, f2), f2.p);
    const u64 y = mont_mul(x3 + 3 * f3.p - x1, k.inv13, f3);  // < 2·p3
    const u64 t3 =
        reduce_once(mont_mul(y + 2 * f3.p - t2, k.inv23, f3), f3.p);
    const u128 low = u128(f1.p) * t2 + x1;    // < 2^124
    const u128 mid = u128(k.p12_lo) * t3;     // p1·p2·t3 = mid + top·2^64
    const u128 top = u128(k.p12_hi) * t3;     // < 2^120
    const u128 s = u128(dst[i]) + u64(low) + u64(mid) + u64(carry);
    dst[i] = u64(s);
    carry = (s >> 64) + (low >> 64) + (mid >> 64) + (carry >> 64) + top;
  }
  const u64 rest[2] = {u64(carry), u64(carry >> 64)};
  const std::size_t nrest = normalized_size(rest, 2);
  assert(count + nrest <= size);
  const u64 out = add_in_place(dst + count, size - count, rest, nrest);
  (void)out;
  assert(out == 0 && "partial sum exceeds the product");
}

/// Coefficients a chunk's product may run past the transform length L.
/// The cyclic product folds c_{L+t} onto c_t; the folded ones come from the
/// top words of both operands, and are recomputed directly and taken back
/// out. So a product a few words longer than a power of two does not pay
/// for a transform twice as long.
inline constexpr std::size_t kMaxWrap = 32;

/// How mul_words cuts a (na ≥ nb) into chunks, each multiplied by b with
/// transforms of length 2^lg.
struct Plan {
  int lg;
  std::size_t chunk;
  double cost;  ///< transform work, in words × (lg + 1)
};

/// The plan with the least transform work: b's forward transform plus a
/// forward and an inverse transform per chunk, or three transforms for a
/// single chunk. Chunks keep an unbalanced product, or one just past a
/// power of two, from paying for a transform nearly twice its length.
inline Plan plan_product(std::size_t na, std::size_t nb) {
  Plan best{0, 0, 0};
  for (int lg = std::bit_width(nb - 1);; ++lg) {
    const std::size_t L = std::size_t{1} << lg;
    const std::size_t chunk = std::min({na, L, L - nb + 1 + kMaxWrap});
    const std::size_t chunks = (na + chunk - 1) / chunk;
    const double cost =
        double(chunks == 1 ? 3 : 2 * chunks + 1) * std::ldexp(double(lg + 1), lg);
    if (best.chunk == 0 || cost < best.cost) best = {lg, chunk, cost};
    if (L >= na + nb - 1) return best;  // longer transforms only cost more
  }
}

/// Karatsuba's time for na·nb^0.585 (na ≥ nb) over the transform's for one
/// unit of Plan::cost: 0.0088 and 0.0053 µs on 64-bit words, fitted to
/// products from 256 × 256 to 8192 × 8192 words, balanced and up to 1:4,
/// each within ±10% (docs/BATCHGCD.md). Narrower limbs only make
/// Karatsuba slower per word.
inline constexpr double kKaratsubaPerTransformUnit = 1.6;

/// Whether the transform beats Karatsuba on na × nb words (na ≥ nb). A
/// product a little past a power of two pays for twice the transform, so
/// the crossover is not one size.
inline bool transform_pays(std::size_t na, std::size_t nb) {
  return plan_product(na, nb).cost <
         kKaratsubaPerTransformUnit * double(na) * std::pow(double(nb), 0.585);
}

/// dst[0, na + nb) = a · b on 64-bit words; na ≥ nb ≥ 1, no aliasing.
inline void mul_words(u64* dst, const u64* a, std::size_t na, const u64* b,
                      std::size_t nb) {
  const Plan plan = plan_product(na, nb);
  assert(plan.lg <= kMaxLog2Length);
  const std::size_t L = std::size_t{1} << plan.lg;
  const bool one_chunk = plan.chunk == na;
  // Per prime: the current chunk's coefficients (the transform, then up to
  // kMaxWrap unfolded ones), and b's transform, kept across chunks. A
  // single chunk needs b's transform for one prime at a time, in dst when
  // dst is long enough: it is written only after the last transform.
  const std::size_t cl = L + kMaxWrap;
  const bool b_in_dst = one_chunk && na + nb >= L;
  const TransformBuffer buf(3 * cl + (b_in_dst ? 0 : one_chunk ? L : 3 * L));
  std::array<u64*, 3> bt{}, ct{};
  for (std::size_t i = 0; i < 3; ++i) {
    ct[i] = buf.data() + i * cl;
    bt[i] = b_in_dst ? dst : buf.data() + 3 * cl + (one_chunk ? 0 : i * L);
  }
  // b carries the inverse transform's 1/L, so each product comes out exact.
  std::array<u64, 3> b_scale{};
  for (std::size_t i = 0; i < 3; ++i) {
    const Prime& f = kPrimes[i];
    const u64 inv_len = f.p - (f.p - 1) / L;  // L·inv_len ≡ 1 (mod p)
    b_scale[i] = reduce_once(mont_mul(inv_len, f.r2, f), f.p);
    if (!one_chunk) {
      load(bt[i], L, b, nb, b_scale[i], f);
      forward(bt[i], L, f, twiddles(i));
    }
  }
  for (std::size_t off = 0; off < na; off += plan.chunk) {
    const u64* ac = a + off;
    const std::size_t nc = std::min(plan.chunk, na - off);
    const std::size_t count = nc + nb - 1;
    for (std::size_t i = 0; i < 3; ++i) {
      const Prime& f = kPrimes[i];
      Twiddles& tw = twiddles(i);
      if (one_chunk) {
        load(bt[i], L, b, nb, b_scale[i], f);
        forward(bt[i], L, f, tw);
      }
      u64* c = ct[i];
      load(c, L, ac, nc, f.r2, f);
      forward(c, L, f, tw);
      const u64* const bw = bt[i];
      for (std::size_t j = 0; j < L; ++j) c[j] = mont_mul(c[j], bw[j], f.p, f.p_inv);
      inverse(c, L, f, tw);
      // Unfold c_{L+t} = Σ ac_j·b_{L+t−j} over the top words, in [0, 2p).
      for (std::size_t t = 0; t + L < count; ++t) {
        u64 top = 0;
        for (std::size_t j = L + t - nb + 1; j < nc; ++j) {
          const u64 x = mont_mul(ac[j], f.r2, f);  // ac_j·R
          top = reduce_once(top + mont_mul(x, b[L + t - j] % f.p, f), 2 * f.p);
        }
        c[L + t] = top;
        c[t] = reduce_once(c[t] + 2 * f.p - top, 2 * f.p);
      }
    }
    if (off == 0) std::fill(dst, dst + na + nb, u64{0});
    add_coefficients(dst + off, na + nb - off, ct[0], ct[1], ct[2], count);
  }
}

/// Limbs packed into 64-bit words, least significant first.
template <LimbType Limb>
std::vector<u64> pack(const Limb* a, std::size_t na) {
  constexpr std::size_t per = 64 / limb_bits<Limb>;
  std::vector<u64> out((na + per - 1) / per, u64{0});
  for (std::size_t i = 0; i < na; ++i) {
    out[i / per] |= u64(a[i]) << (i % per * limb_bits<Limb>);
  }
  return out;
}

}  // namespace ntt_detail

/// Returns a * b as a normalized limb vector, by the three-prime transform.
template <LimbType Limb>
std::vector<Limb> mul_ntt(const Limb* a, std::size_t na, const Limb* b,
                          std::size_t nb) {
  using ntt_detail::u64;
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (na == 0 || nb == 0) return {};
  if (na < nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  std::vector<Limb> out(na + nb);
  if constexpr (limb_bits<Limb> == 64) {
    ntt_detail::mul_words(out.data(), a, na, b, nb);
  } else {
    constexpr std::size_t per = 64 / limb_bits<Limb>;
    const std::vector<u64> wa = ntt_detail::pack(a, na);
    const std::vector<u64> wb = ntt_detail::pack(b, nb);
    std::vector<u64> wp(wa.size() + wb.size());
    ntt_detail::mul_words(wp.data(), wa.data(), wa.size(), wb.data(), wb.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = Limb(wp[i / per] >> (i % per * limb_bits<Limb>));
    }
  }
  out.resize(normalized_size(out.data(), out.size()));
  return out;
}

/// Full dispatch: schoolbook below kKaratsubaThreshold limbs, Karatsuba
/// below kNttThreshold 64-bit words (smaller operand), and above it
/// whichever of Karatsuba and the transform costs less for the shape.
template <LimbType Limb>
std::vector<Limb> mul_dispatch(const Limb* a, std::size_t na, const Limb* b,
                               std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  const auto words = [](std::size_t n) { return (n * limb_bits<Limb> + 63) / 64; };
  const std::size_t lo = words(std::min(na, nb)), hi = words(std::max(na, nb));
  if (lo >= kNttThreshold && ntt_detail::transform_pays(hi, lo)) {
    return mul_ntt(a, na, b, nb);
  }
  return mul_karatsuba(a, na, b, nb);
}

}  // namespace bulkgcd::mp
