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
#include <optional>
#include <vector>

#include <sys/mman.h>

#include "core/thread_pool.hpp"
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
/// row kFullRow (see forward_stage): one more multiplication per
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

/// Transforms at most this long run stage by stage; longer ones run their
/// top stage and recurse into the halves, which then fit in cache.
inline constexpr std::size_t kBlockLength = 2 * kFullRow;

/// One decimation-in-frequency stage of half-width h over a[0, n):
/// (x, y) → (x + y, (x − y)·ω^j). The prime's constants are copied to
/// locals: stores through a would otherwise force their reload. A row
/// longer than kFullRow is rebuilt from its stored head: with
/// s = h / kFullRow and j = u·s + v, ω_{2h}^j = ω_{2·kFullRow}^u · ω_{2h}^v.
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
  const auto butterfly = [=](u64& lo, u64& hi, u64 w) {
    const u64 x = lo, y = hi;
    lo = reduce_once(x + y, p2);
    hi = mont_mul(x - y + p2, w, p, p_inv);
  };
  const u64* w = tw.row(h);
  const u64* coarse = h > kFullRow ? tw.row(kFullRow) : nullptr;
  for (std::size_t i = 0; i < n; i += 2 * h) {
    u64* __restrict lo = a + i;  // the halves never overlap
    u64* __restrict hi = lo + h;
    if (h <= kFullRow) {
      for (std::size_t j = 0; j < h; ++j) butterfly(lo[j], hi[j], w[j]);
      continue;
    }
    const std::size_t s = h / kFullRow;
    for (std::size_t u = 0, j = 0; u < kFullRow; ++u) {
      for (std::size_t v = 0; v < s; ++v, ++j) {
        butterfly(lo[j], hi[j], reduce_once(mont_mul(coarse[u], w[v], p, p_inv), p));
      }
    }
  }
}

/// One decimation-in-time stage of half-width h, the inverse of
/// forward_stage up to a factor 2: (x, y) → (x + y·ω^{−j}, x − y·ω^{−j}).
/// With t = y·ω^{h−j} = −y·ω^{−j} (j > 0) that is (x − t, x + t). The
/// butterflies run in increasing j, so the twiddles ω^{h−j} run down (a
/// long row's as in forward_stage, with h − j = u·s + v).
inline void inverse_stage(u64* a, std::size_t n, std::size_t h,
                          const Prime& f, Twiddles& tw) {
  const u64 p = f.p, p_inv = f.p_inv, p2 = 2 * p;
  const auto butterfly = [=](u64& lo, u64& hi, u64 w) {
    const u64 u = lo;
    const u64 t = mont_mul(hi, w, p, p_inv);
    lo = reduce_once(u - t + p2, p2);
    hi = reduce_once(u + t, p2);
  };
  const u64* w = tw.row(h);
  const u64* coarse = h > kFullRow ? tw.row(kFullRow) : nullptr;
  for (std::size_t i = 0; i < n; i += 2 * h) {
    u64* __restrict lo = a + i;  // the halves never overlap
    u64* __restrict hi = lo + h;
    const u64 x = lo[0], y = hi[0];
    lo[0] = reduce_once(x + y, p2);
    hi[0] = reduce_once(x - y + p2, p2);
    if (h <= kFullRow) {
      for (std::size_t j = 1; j < h; ++j) butterfly(lo[j], hi[j], w[h - j]);
      continue;
    }
    const std::size_t s = h / kFullRow;
    std::size_t j = 1;
    for (std::size_t u = kFullRow; u-- > 0;) {
      for (std::size_t v = s; v-- > (u == 0 ? 1 : 0); ++j) {
        butterfly(lo[j], hi[j], reduce_once(mont_mul(coarse[u], w[v], p, p_inv), p));
      }
    }
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

/// Transform buffers and other large mp temporaries. Through malloc, the
/// first free of a buffer this long raises glibc's mmap threshold past it,
/// and every later one stays resident in the freeing thread's heap: one per
/// worker thread. So a buffer of kMapBytes or more is mapped straight from
/// the operating system, populated in one call, and unmapped when it is
/// destroyed. The storage is untyped: as<T>() serves limbs of any width.
class TransformBuffer {
 public:
  static constexpr std::size_t kMapBytes = std::size_t{128} << 10;  // glibc's default threshold

  explicit TransformBuffer(std::size_t words) : bytes_(words * sizeof(u64)) {
    if (bytes_ < kMapBytes) {
      heap_.reset(new std::byte[bytes_]);
      data_ = heap_.get();
      return;
    }
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = p;
  }
  ~TransformBuffer() {
    if (!heap_) ::munmap(data_, bytes_);
  }
  TransformBuffer(const TransformBuffer&) = delete;
  TransformBuffer& operator=(const TransformBuffer&) = delete;

  u64* data() const noexcept { return as<u64>(); }
  template <typename T>
  T* as() const noexcept {
    return static_cast<T*>(data_);
  }

 private:
  std::size_t bytes_;
  std::unique_ptr<std::byte[]> heap_;
  void* data_ = nullptr;
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

/// r1[0, count + 2) = Σ_i c_i·β^i, where coefficient i has the residues
/// r1[i], r2[i], r3[i] (each in [0, 2p)) for i < count, written over r1:
/// coefficient i is read before word i is written, and the carry takes the
/// last two words. r1 must hold count + 2 words.
inline void coefficients_in_place(u64* r1, const u64* r2, const u64* r3,
                                  std::size_t count) {
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
    const u128 s = u128(u64(low)) + u64(mid) + u64(carry);
    r1[i] = u64(s);
    carry = (s >> 64) + (low >> 64) + (mid >> 64) + (carry >> 64) + top;
  }
  r1[count] = u64(carry);
  r1[count + 1] = u64(carry >> 64);
}

/// Coefficients a chunk's product may run past the transform length L.
/// The cyclic product folds c_{L+t} onto c_t; the folded ones come from the
/// top words of both operands, and are recomputed directly and taken back
/// out. So a product a few words longer than a power of two does not pay
/// for a transform twice as long.
inline constexpr std::size_t kMaxWrap = 32;

/// Work of one transform of length 2^lg: words × (lg + 1).
inline double transform_units(int lg) { return std::ldexp(double(lg + 1), lg); }

/// How mul_words cuts a (na ≥ nb) into chunks, each multiplied by b with
/// transforms of length 2^lg.
struct Plan {
  int lg;
  std::size_t chunk;
  double cost;  ///< transform work, in transform_units
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
    const double cost = double(chunks == 1 ? 3 : 2 * chunks + 1) * transform_units(lg);
    if (best.chunk == 0 || cost < best.cost) best = {lg, chunk, cost};
    if (L >= na + nb - 1) return best;  // longer transforms only cost more
  }
}

/// Transforms at least this long run their three primes on the pool, one
/// prime per piece (for_each_prime). Shorter ones serve tree levels wide
/// enough to fill the pool on their own, where a split only adds
/// hand-offs. In the batch tree (seed-1 2048 × 1024-bit corpus, 12
/// interleaved rounds) thresholds of 2^12 and 2^13 points tied at 132 ms
/// a tree, ahead of 2^11 (135 ms), 2^14 (136 ms) and no split (143 ms);
/// EXPERIMENTS.md "Balanced pool and per-prime fan-out".
inline constexpr std::size_t kSplitLength = std::size_t{1} << 13;

/// step(i) for each prime i: one per parallel_for piece on the global pool
/// for a transform of L ≥ kSplitLength points (nested calls help, see
/// ThreadPool::parallel_for), in turn otherwise. The steps must touch
/// disjoint rows.
template <typename Step>
void for_each_prime(std::size_t L, const Step& step) {
  if (L < kSplitLength) {
    for (std::size_t i = 0; i < 3; ++i) step(i);
    return;
  }
  global_pool().parallel_for(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) step(i);
  });
}

// A product in three steps, each one prime at a time:
//   1. forward_operand: an operand's forward transform. HeldTransform keeps
//      all three primes' transforms of one operand, so a divisor or a
//      reciprocal is transformed once and multiplied against many times.
//   2. multiply_inverse: the pointwise product with the other operand's
//      transform, then the inverse transform: the cyclic convolution.
//      unfold recovers an acyclic product's few coefficients past L.
//   3. coefficients_in_place: Garner's CRT and the carry into words,
//      over the first prime's row.

/// 1/L for kPrimes[i] in Montgomery form: an operand loaded with it carries
/// the inverse transform's 1/L, so a product against it comes out exact.
inline u64 inverse_length_scale(std::size_t L, std::size_t i) {
  const Prime& f = kPrimes[i];
  const u64 inv_len = f.p - (f.p - 1) / L;  // L·inv_len ≡ 1 (mod p)
  return reduce_once(mont_mul(inv_len, f.r2, f), f.p);
}

/// t[0, L) = the forward transform modulo kPrimes[i] of a[0, na) (na ≤ L),
/// zero-padded, times scale·R^{-1}.
inline void forward_operand(u64* t, std::size_t L, const u64* a, std::size_t na,
                            u64 scale, std::size_t i) {
  assert(na <= L);
  load(t, L, a, na, scale, kPrimes[i]);
  forward(t, L, kPrimes[i], twiddles(i));
}

/// c = inverse(c · t) modulo kPrimes[i], for the transforms c and t of two
/// operands: their cyclic convolution, exact when t carries the 1/L.
inline void multiply_inverse(u64* c, std::size_t L, const u64* t, std::size_t i) {
  const Prime& f = kPrimes[i];
  for (std::size_t j = 0; j < L; ++j) c[j] = mont_mul(c[j], t[j], f.p, f.p_inv);
  inverse(c, L, f, twiddles(i));
}

/// Turns the cyclic convolution c of a[0, na) and b[0, nb) modulo
/// kPrimes[i] into the acyclic one, for na + nb − 1 ≤ L + kMaxWrap: each
/// coefficient L + t is computed directly into c[L + t] and taken back out
/// of c[t]. It reads only the top kMaxWrap words of each operand, and b
/// through b_top, which holds b[b_from, nb).
inline void unfold(u64* c, std::size_t L, const u64* a, std::size_t na,
                   const u64* b_top, std::size_t b_from, std::size_t nb,
                   std::size_t i) {
  const Prime& f = kPrimes[i];
  for (std::size_t t = 0; t + L < na + nb - 1; ++t) {
    assert(L + t + 1 >= na + b_from);  // every b word read is in b_top
    u64 top = 0;
    for (std::size_t j = L + t - nb + 1; j < na; ++j) {
      const u64 x = mont_mul(a[j], f.r2, f);  // a_j·R
      top = reduce_once(top + mont_mul(x, b_top[L + t - j - b_from] % f.p, f),
                        2 * f.p);
    }
    c[L + t] = top;
    c[t] = reduce_once(c[t] + 2 * f.p - top, 2 * f.p);
  }
}

/// dst[0, L) += a[0, na)·β^at modulo β^L − 1 (β = 2^64, at < L): a is
/// added in pieces that wrap around at L, with each carry out of the top
/// word brought around to the bottom, as β^L ≡ 1. The result is below
/// β^L, so 0 may come out as β^L − 1.
inline void add_mod_mersenne(u64* dst, std::size_t L, const u64* a, std::size_t na,
                             std::size_t at = 0) {
  const u64 one = 1;
  for (std::size_t i = 0; i < na; at = 0) {
    const std::size_t piece = std::min(L - at, na - i);
    u64 carry = add_in_place(dst + at, L - at, a + i, piece);
    while (carry != 0) carry = add_in_place(dst, L, &one, 1);
    i += piece;
  }
}

/// The forward transforms of one operand b at a length L = 2^lg, one per
/// prime, carrying 1/L: step 1 of a product, done once for an operand that
/// multiplies many others (Bernstein, "Scaled remainder trees", 2004). A
/// product against it runs in a caller's scratch of scratch_words(), and
/// its result is left in the scratch's first row_words().
class HeldTransform {
 public:
  /// b[0, nb) at length 2^lg. An operand longer than L is held modulo
  /// β^L − 1, and serves only cyclic products.
  HeldTransform(const u64* b, std::size_t nb, int lg)
      : lg_(lg), nb_(nb), top_from_(nb - std::min(nb, kMaxWrap)), buf_(3 * length()) {
    assert(lg <= kMaxLog2Length && nb > 0);
    const std::size_t L = length();
    std::copy(b + top_from_, b + nb, top_.begin());
    std::vector<u64> folded;
    if (nb > L) {
      folded.assign(L, u64{0});
      add_mod_mersenne(folded.data(), L, b, nb);
      b = folded.data();
      nb = L;
    }
    for_each_prime(L, [&](std::size_t i) {
      forward_operand(spectrum(i), L, b, nb, inverse_length_scale(L, i), i);
    });
  }

  std::size_t length() const noexcept { return std::size_t{1} << lg_; }
  /// Words of the operand.
  std::size_t size() const noexcept { return nb_; }
  /// Words of one scratch row: a transform, the coefficients unfolded past
  /// it, and the carry.
  std::size_t row_words() const noexcept { return length() + kMaxWrap + 2; }
  std::size_t scratch_words() const noexcept { return 3 * row_words(); }

  /// a[0, na) · b, for 1 ≤ na ≤ L, nb ≤ L and na + nb − 1 ≤ L + kMaxWrap:
  /// two transforms per prime, where a full product takes three. Returns
  /// the product's na + nb words, at the start of scratch.
  const u64* multiply(const u64* a, std::size_t na, u64* scratch) const {
    const std::size_t L = length();
    assert(nb_ <= L && na + nb_ - 1 <= L + kMaxWrap);
    const auto c = transform_times(a, na, scratch);
    for (std::size_t i = 0; i < 3; ++i) {
      unfold(c[i], L, a, na, top_.data(), top_from_, nb_, i);
    }
    coefficients_in_place(c[0], c[1], c[2], na + nb_ - 1);
    return c[0];
  }

  /// a[0, na) · b modulo β^L − 1. Returns it in the first L words of
  /// scratch (0 may come out as β^L − 1), with the rest of the row zero.
  u64* multiply_cyclic(const u64* a, std::size_t na, u64* scratch) const {
    const std::size_t L = length();
    std::vector<u64> folded;
    if (na > L) {
      folded.assign(L, u64{0});
      add_mod_mersenne(folded.data(), L, a, na);
      a = folded.data();
      na = L;
    }
    const auto c = transform_times(a, na, scratch);
    // Each coefficient is below L·β², so their sum fits L + 2 words.
    coefficients_in_place(c[0], c[1], c[2], L);
    const u64 high[2] = {c[0][L], c[0][L + 1]};
    std::fill(c[0] + L, c[0] + row_words(), u64{0});
    add_mod_mersenne(c[0], L, high, 2);
    return c[0];
  }

 private:
  u64* spectrum(std::size_t i) const noexcept { return buf_.data() + i * length(); }

  /// Steps 1 and 2 for a[0, na): the cyclic convolution with b, one prime
  /// per scratch row.
  std::array<u64*, 3> transform_times(const u64* a, std::size_t na, u64* scratch) const {
    const std::size_t L = length();
    std::array<u64*, 3> c{};
    for (std::size_t i = 0; i < 3; ++i) c[i] = scratch + i * row_words();
    for_each_prime(L, [&](std::size_t i) {
      forward_operand(c[i], L, a, na, kPrimes[i].r2, i);
      multiply_inverse(c[i], L, spectrum(i), i);
    });
    return c;
  }

  int lg_;
  std::size_t nb_;
  std::size_t top_from_;            // b's top words are b[top_from_, nb_)
  std::array<u64, kMaxWrap> top_{};
  TransformBuffer buf_;             // the three transforms, L words each
};

/// The shortest length 2^lg that holds an operand of `operand` words and
/// takes products modulo β^L − 1 of values below a small multiple of
/// β^n_words: L ≥ operand, and L + kMaxWrap ≥ n_words, so the value is
/// fixed by its residue and at most kMaxWrap + 1 low words
/// (from_residues).
inline int cyclic_length(std::size_t n_words, std::size_t operand) {
  int lg = std::bit_width(operand - 1);
  while ((std::size_t{1} << lg) + kMaxWrap < n_words) ++lg;
  return lg;
}

/// The shortest length 2^lg at which HeldTransform::multiply takes
/// na × nb words: both operands fit, and the product unfolds.
inline int unfold_length(std::size_t na, std::size_t nb) {
  int lg = std::bit_width(std::max(na, nb) - 1);
  while ((std::size_t{1} << lg) + kMaxWrap + 1 < na + nb) ++lg;
  return lg;
}

/// Recovers v ≥ 0 from its residue modulo β^L − 1, in v[0, L) (any
/// representative below β^L), and low = v modulo β^w (w ≤ L): with R the
/// residue in [0, β^L − 1), v = R + j·(β^L − 1), and as β^L − 1 ≡ −1
/// modulo β^w, j ≡ R − v there. v must have room for L + w words, zero
/// above L. Returns v's normalized size, or nothing when j's top word
/// exceeds max_top: v was out of the range the caller proved (v < 0, or
/// v ≥ (max_top + 1)·β^{w−1}·(β^L − 1)).
inline std::optional<std::size_t> from_residues(u64* v, std::size_t L, const u64* low,
                                                std::size_t w, u64 max_top) {
  if (std::all_of(v, v + L, [](u64 x) { return x == ~u64{0}; })) {
    std::fill(v, v + L, u64{0});
  }
  u64* const j = v + L;  // j = R − low modulo β^w, built in place
  u64 borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 diff = u128(v[i]) - low[i] - borrow;
    j[i] = u64(diff);
    borrow = u64(diff >> 64) & 1;
  }
  if (j[w - 1] > max_top) return std::nullopt;
  return sub(v, v, L + w, j, w);  // R + j·β^L − j: j already sits at β^L
}

/// dst[0, na + nb) = a · b on 64-bit words; na ≥ nb ≥ 1, no aliasing.
inline void mul_words(u64* dst, const u64* a, std::size_t na, const u64* b,
                      std::size_t nb) {
  const Plan plan = plan_product(na, nb);
  assert(plan.lg <= kMaxLog2Length);
  const std::size_t L = std::size_t{1} << plan.lg;
  if (plan.chunk < na) {  // b's transform is held across the chunks
    const HeldTransform bt(b, nb, plan.lg);
    std::fill(dst, dst + na + nb, u64{0});
    const TransformBuffer scratch(bt.scratch_words());
    for (std::size_t off = 0; off < na; off += plan.chunk) {
      const std::size_t nc = std::min(plan.chunk, na - off);
      const u64* const part = bt.multiply(a + off, nc, scratch.data());
      const u64 carry = add_in_place(dst + off, na + nb - off, part, nc + nb);
      (void)carry;
      assert(carry == 0 && "partial sum exceeds the product");
    }
    return;
  }
  // One chunk needs b's transform for one prime at a time, in dst when dst
  // is long enough: dst is written only after the last transform. The
  // primes run in turn even past kSplitLength: at once they would need a
  // b row each, which raised the batch tree's peak RSS by 5% for no gain
  // beyond noise (EXPERIMENTS.md "Balanced pool and per-prime fan-out").
  const std::size_t cl = L + kMaxWrap + 2;
  const bool b_in_dst = na + nb >= L;
  const TransformBuffer buf(3 * cl + (b_in_dst ? 0 : L));
  u64* const bt = b_in_dst ? dst : buf.data() + 3 * cl;
  std::array<u64*, 3> c{};
  for (std::size_t i = 0; i < 3; ++i) {
    c[i] = buf.data() + i * cl;
    forward_operand(bt, L, b, nb, inverse_length_scale(L, i), i);
    forward_operand(c[i], L, a, na, kPrimes[i].r2, i);
    multiply_inverse(c[i], L, bt, i);
    unfold(c[i], L, a, na, b, 0, nb, i);
  }
  coefficients_in_place(c[0], c[1], c[2], na + nb - 1);
  std::copy(c[0], c[0] + na + nb, dst);
}

/// dst[0, 2·na) = a², one forward and one inverse transform per prime where
/// mul_words takes three: the pointwise square needs one operand's
/// transform. a is loaded in Montgomery form (a·R), so the square comes out
/// as a²·R and one more multiplication by 1/L (not in Montgomery form)
/// brings it to a²/L, the inverse transform's 1/L included.
inline void square_words(u64* dst, const u64* a, std::size_t na) {
  const int lg = unfold_length(na, na);
  assert(lg <= kMaxLog2Length);
  const std::size_t L = std::size_t{1} << lg;
  const std::size_t cl = L + kMaxWrap + 2;
  const TransformBuffer buf(3 * cl);
  std::array<u64*, 3> c{};
  for (std::size_t i = 0; i < 3; ++i) c[i] = buf.data() + i * cl;
  for_each_prime(L, [&](std::size_t i) {
    const Prime& f = kPrimes[i];
    forward_operand(c[i], L, a, na, f.r2, i);
    const u64 inv_len = f.p - (f.p - 1) / L;
    for (std::size_t j = 0; j < L; ++j) {
      c[i][j] = mont_mul(mont_mul(c[i][j], c[i][j], f), inv_len, f);
    }
    inverse(c[i], L, f, twiddles(i));
    unfold(c[i], L, a, na, a, 0, na, i);
  });
  coefficients_in_place(c[0], c[1], c[2], 2 * na - 1);
  std::copy(c[0], c[0] + 2 * na, dst);
}

/// 64-bit words holding n limbs.
template <LimbType Limb>
constexpr std::size_t words_for_limbs(std::size_t n) noexcept {
  return (n * limb_bits<Limb> + 63) / 64;
}

/// Karatsuba's time for hi·lo^0.585 words (hi ≥ lo) over the transform's
/// for one transform unit, per limb width: the ratio at which the two
/// rungs' measured times meet the model. Narrower limbs make Karatsuba
/// slower per word while the transform packs them into words. Balanced
/// and unbalanced products from 256 to 8192 words, nine interleaved runs
/// each, put it at 1.6–2.5 on 64-bit limbs (median 2.1), 4.0–5.1 on 32-bit
/// limbs and 12–17 on 16-bit limbs (docs/BATCHGCD.md).
template <LimbType Limb>
inline constexpr double kKaratsubaPerTransformUnit =
    limb_bits<Limb> == 64 ? 2.1 : limb_bits<Limb> == 32 ? 4.5 : 15.0;

/// Karatsuba's modelled cost for hi × lo words (hi ≥ lo), in transform units.
template <LimbType Limb>
double karatsuba_units(std::size_t hi, std::size_t lo) {
  return kKaratsubaPerTransformUnit<Limb> * double(hi) * std::pow(double(lo), 0.585);
}

/// Whether mul_dispatch takes the transform for na × nb limbs: from
/// kNttThreshold words (smaller operand) up, where its modelled cost is
/// below Karatsuba's. A product a little past a power of two pays for twice
/// the transform, so the crossover is not one size.
template <LimbType Limb>
bool transform_pays(std::size_t na, std::size_t nb) {
  const std::size_t lo = words_for_limbs<Limb>(std::min(na, nb));
  const std::size_t hi = words_for_limbs<Limb>(std::max(na, nb));
  return lo >= kNttThreshold && plan_product(hi, lo).cost < karatsuba_units<Limb>(hi, lo);
}

/// mul_dispatch's modelled cost for na × nb limbs, in transform units.
template <LimbType Limb>
double product_units(std::size_t na, std::size_t nb) {
  const std::size_t lo = words_for_limbs<Limb>(std::min(na, nb));
  const std::size_t hi = words_for_limbs<Limb>(std::max(na, nb));
  return transform_pays<Limb>(na, nb) ? plan_product(hi, lo).cost
                                      : karatsuba_units<Limb>(hi, lo);
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

/// dst[0, n) = limbs from, from + 1, … of w[0, nw), least significant
/// first; limbs past w's end are zero.
template <LimbType Limb>
void unpack(Limb* dst, std::size_t n, const u64* w, std::size_t nw, std::size_t from = 0) {
  constexpr std::size_t per = 64 / limb_bits<Limb>;
  for (std::size_t i = from; i < from + n; ++i) {
    dst[i - from] = i / per < nw ? Limb(w[i / per] >> (i % per * limb_bits<Limb>)) : Limb{0};
  }
}

/// Limbs as 64-bit words: the limbs themselves when they are 64 bits wide,
/// a packed copy otherwise.
template <LimbType Limb>
class Words {
 public:
  Words(const Limb* a, std::size_t n) {
    if constexpr (limb_bits<Limb> == 64) {
      data_ = a;
      size_ = n;
    } else {
      copy_ = pack(a, n);
      data_ = copy_.data();
      size_ = copy_.size();
    }
  }
  const u64* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  std::vector<u64> copy_;
  const u64* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ntt_detail

/// Returns a * b as a normalized limb vector, by the three-prime transform.
/// A square (a and b the same limbs) takes ntt_detail::square_words.
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
  const bool square = a == b && na == nb;
  const ntt_detail::Words<Limb> wa(a, na), wb(b, square ? 0 : nb);
  const auto words = [&](u64* dst) {
    if (square) {
      ntt_detail::square_words(dst, wa.data(), wa.size());
    } else {
      ntt_detail::mul_words(dst, wa.data(), wa.size(), wb.data(), wb.size());
    }
  };
  if constexpr (limb_bits<Limb> == 64) {
    words(out.data());
  } else {
    std::vector<u64> wp(wa.size() + (square ? wa.size() : wb.size()));
    words(wp.data());
    ntt_detail::unpack(out.data(), out.size(), wp.data(), wp.size());
  }
  out.resize(normalized_size(out.data(), out.size()));
  return out;
}

/// Full dispatch: schoolbook below kKaratsubaThreshold limbs, Karatsuba
/// below kNttThreshold 64-bit words (smaller operand), and above it
/// whichever of Karatsuba and the transform costs less for the shape and
/// the limb width (ntt_detail::transform_pays).
template <LimbType Limb>
std::vector<Limb> mul_dispatch(const Limb* a, std::size_t na, const Limb* b,
                               std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (ntt_detail::transform_pays<Limb>(na, nb)) return mul_ntt(a, na, b, nb);
  return mul_karatsuba(a, na, b, nb);
}

}  // namespace bulkgcd::mp
