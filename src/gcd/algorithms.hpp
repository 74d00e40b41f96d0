// The five Euclidean algorithms of the paper (Section II, III, V):
//   (A) Original   — X ← X mod Y; swap
//   (B) Fast       — exact quotient forced odd, X ← rshift(X − Y·Q)
//   (C) Binary     — Stein's algorithm
//   (D) FastBinary — X ← rshift(X − Y)
//   (E) Approximate — quotient approximation α·D^β from the top two words
// each in a non-terminate and an early-terminate (RSA-moduli) flavor, plus
// one algorithm beyond the paper: Bernstein–Yang divsteps, 30 per full-width
// pass (gcd/divsteps.hpp), the bulk sweep's default.
//
// GcdEngine owns the two working buffers of Figure 1 plus the division
// scratch; swap(X, Y) exchanges pointers only. Inputs to run() must be odd
// and positive (RSA moduli always are); use gcd_general() for arbitrary
// values.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "gcd/approx.hpp"
#include "gcd/divsteps.hpp"
#include "gcd/kernels.hpp"
#include "gcd/stats.hpp"
#include "gcd/tracer.hpp"
#include "mp/bigint.hpp"
#include "mp/span_ops.hpp"

namespace bulkgcd::gcd {

enum class Variant : std::uint8_t {
  kOriginal,     ///< (A)
  kFast,         ///< (B)
  kBinary,       ///< (C)
  kFastBinary,   ///< (D)
  kApproximate,  ///< (E) — the paper's contribution
  /// Beyond the paper: 30 Bernstein–Yang divsteps per full-width pass
  /// (gcd/divsteps.hpp) — same hits as (E), ~5× fewer passes.
  kDivsteps,
};

constexpr const char* to_string(Variant v) noexcept {
  switch (v) {
    case Variant::kOriginal: return "Original";
    case Variant::kFast: return "Fast";
    case Variant::kBinary: return "Binary";
    case Variant::kFastBinary: return "FastBinary";
    case Variant::kApproximate: return "Approximate";
    case Variant::kDivsteps: return "Divsteps";
    default: return "?";
  }
}

/// The paper's five algorithms (Table IV's rows); kDivsteps is not one.
inline constexpr Variant kAllVariants[] = {
    Variant::kOriginal, Variant::kFast, Variant::kBinary, Variant::kFastBinary,
    Variant::kApproximate};

/// Count trailing zeros of a Wide value (> 0).
template <typename Wide>
constexpr int wide_ctz(Wide v) noexcept {
  const auto low = static_cast<std::uint64_t>(v);
  if (low != 0) return std::countr_zero(low);
  if constexpr (sizeof(Wide) > 8) {
    return 64 + std::countr_zero(static_cast<std::uint64_t>(v >> 64));
  }
  return sizeof(Wide) * 8;  // unreachable for v > 0 when Wide <= 64 bits
}

template <mp::LimbType Limb>
struct RunResult {
  bool early_coprime = false;     ///< early-terminate proved the pair coprime
  std::span<const Limb> gcd;      ///< valid until the engine's next run()
};

/// Inline (stack/member) storage for GcdEngine — the CUDA-kernel layout,
/// where every thread's working set has a compile-time-bounded size and no
/// allocation happens per GCD. Use via FixedGcdEngine below.
template <typename Limb, std::size_t N>
struct InlineStorage {
  explicit InlineStorage(std::size_t n) {
    if (n > N) throw std::length_error("InlineStorage: capacity exceeded");
  }
  Limb* data() noexcept { return buffer.data(); }
  const Limb* data() const noexcept { return buffer.data(); }
  auto begin() noexcept { return buffer.begin(); }
  Limb& operator[](std::size_t i) noexcept { return buffer[i]; }
  const Limb& operator[](std::size_t i) const noexcept { return buffer[i]; }
  std::array<Limb, N> buffer{};
};

template <mp::LimbType Limb, typename Storage = std::vector<Limb>>
class GcdEngine {
  using Wide = typename mp::LimbTraits<Limb>::Wide;
  static constexpr int LB = mp::limb_bits<Limb>;

 public:
  /// capacity_limbs: max limb count of either input.
  explicit GcdEngine(std::size_t capacity_limbs)
      : cap_(capacity_limbs + 2),
        buf_a_(cap_),
        buf_b_(cap_),
        scratch_q_(cap_),
        scratch_r_(cap_),
        scratch_m_(2 * cap_) {}

  /// Compute gcd (or prove coprimality when early_bits > 0).
  /// Inputs must be odd, nonzero, with at most capacity limbs.
  /// early_bits: 0 = non-terminate; s/2 for s-bit RSA moduli (Section V).
  template <typename Tracer = NullTracer>
  RunResult<Limb> run(Variant variant, std::span<const Limb> x,
                      std::span<const Limb> y, std::size_t early_bits = 0,
                      GcdStats* stats = nullptr, Tracer* tracer = nullptr) {
    load(x, y);
    GcdStats local;
    GcdStats& st = stats ? *stats : local;
    NullTracer null_tracer;
    if constexpr (std::is_same_v<Tracer, NullTracer>) {
      (void)tracer;
      dispatch(variant, early_bits, st, null_tracer);
    } else {
      assert(tracer != nullptr);
      dispatch(variant, early_bits, st, *tracer);
    }
    RunResult<Limb> out;
    out.early_coprime = early_bits > 0 && ly_ > 0;
    out.gcd = std::span<const Limb>(x_, lx_);
    return out;
  }

  std::size_t capacity() const noexcept { return cap_ - 2; }

 private:
  template <typename Tracer>
  void dispatch(Variant variant, std::size_t early_bits, GcdStats& st,
                Tracer& tr) {
    switch (variant) {
      case Variant::kOriginal: original_loop(early_bits, st); break;
      case Variant::kFast: fast_loop(early_bits, st, tr); break;
      case Variant::kBinary: binary_loop(early_bits, st, tr); break;
      case Variant::kFastBinary: fast_binary_loop(early_bits, st, tr); break;
      case Variant::kApproximate: approximate_loop(early_bits, st, tr); break;
      case Variant::kDivsteps: divsteps_loop(early_bits, st, tr); break;
    }
  }

  void load(std::span<const Limb> x, std::span<const Limb> y) {
    if (x.size() > capacity() || y.size() > capacity()) {
      throw std::length_error("GcdEngine: input exceeds capacity");
    }
    std::copy(x.begin(), x.end(), buf_a_.begin());
    std::copy(y.begin(), y.end(), buf_b_.begin());
    x_ = buf_a_.data();
    y_ = buf_b_.data();
    xbuf_ = Buffer::kA;
    ybuf_ = Buffer::kB;
    lx_ = mp::normalized_size(x_, x.size());
    ly_ = mp::normalized_size(y_, y.size());
    if (lx_ == 0 || ly_ == 0) {
      throw std::invalid_argument("GcdEngine: inputs must be nonzero");
    }
    if (mp::compare(x_, lx_, y_, ly_) < 0) swap_xy();
  }

  void swap_xy() noexcept {
    std::swap(x_, y_);
    std::swap(lx_, ly_);
    std::swap(xbuf_, ybuf_);
  }

  bool keep_going(std::size_t early_bits) const noexcept {
    if (ly_ == 0) return false;
    if (early_bits == 0) return true;
    return mp::bit_length(y_, ly_) >= early_bits;
  }

  template <typename Tracer>
  void swap_if_less(GcdStats& st, Tracer& tr) {
    if (compare_traced(x_, lx_, y_, ly_, tr, xbuf_, ybuf_) < 0) {
      swap_xy();
      ++st.swaps;
    }
  }

  // ---- (A) Original Euclidean -------------------------------------------
  void original_loop(std::size_t early_bits, GcdStats& st) {
    while (keep_going(early_bits)) {
      ++st.iterations;
      ++st.divisions;
      const mp::DivSizes sizes = mp::divrem(scratch_q_.data(), scratch_r_.data(),
                                            x_, lx_, y_, ly_);
      std::copy(scratch_r_.data(), scratch_r_.data() + sizes.remainder, x_);
      lx_ = sizes.remainder;
      swap_xy();  // X ← Y, Y ← X mod Y
      ++st.swaps;
    }
  }

  // ---- (B) Fast Euclidean ------------------------------------------------
  template <typename Tracer>
  void fast_loop(std::size_t early_bits, GcdStats& st, Tracer& tr) {
    while (keep_going(early_bits)) {
      ++st.iterations;
      tr.mark();
      ++st.divisions;
      const mp::DivSizes sizes = mp::divrem(scratch_q_.data(), scratch_r_.data(),
                                            x_, lx_, y_, ly_);
      std::size_t lq = sizes.quotient;
      assert(lq >= 1 && "X >= Y implies Q >= 1");
      if ((scratch_q_[0] & 1u) == 0) lq = decrement(scratch_q_.data(), lq);
      if (lq == 1) {
        lx_ = fused_submul_strip(x_, lx_, y_, ly_, scratch_q_[0], tr, xbuf_, ybuf_);
      } else {
        // Multi-word quotient: X ← rshift(X − Y·Q) via scratch product.
        const std::size_t lm = mp::mul_schoolbook(scratch_m_.data(), y_, ly_,
                                                  scratch_q_.data(), lq);
        lx_ = mp::sub(x_, x_, lx_, scratch_m_.data(), lm);
        lx_ = mp::strip_trailing_zeros(x_, lx_);
      }
      swap_if_less(st, tr);
    }
  }

  // ---- (C) Binary Euclidean ----------------------------------------------
  template <typename Tracer>
  void binary_loop(std::size_t early_bits, GcdStats& st, Tracer& tr) {
    while (keep_going(early_bits)) {
      ++st.iterations;
      tr.mark();
      tr.read(xbuf_, 0);  // parity test of X
      if ((x_[0] & 1u) == 0) {
        lx_ = halve(x_, lx_, tr, xbuf_);
      } else {
        tr.read(ybuf_, 0);  // parity test of Y
        if ((y_[0] & 1u) == 0) {
          ly_ = halve(y_, ly_, tr, ybuf_);
        } else {
          lx_ = sub_halve(x_, lx_, y_, ly_, tr, xbuf_, ybuf_);
        }
      }
      swap_if_less(st, tr);
    }
  }

  // ---- (D) Fast Binary Euclidean -----------------------------------------
  template <typename Tracer>
  void fast_binary_loop(std::size_t early_bits, GcdStats& st, Tracer& tr) {
    while (keep_going(early_bits)) {
      ++st.iterations;
      tr.mark();
      lx_ = fused_submul_strip(x_, lx_, y_, ly_, Limb{1}, tr, xbuf_, ybuf_);
      swap_if_less(st, tr);
    }
  }

  // ---- (E) Approximate Euclidean -----------------------------------------
  template <typename Tracer>
  void approximate_loop(std::size_t early_bits, GcdStats& st, Tracer& tr) {
    while (keep_going(early_bits)) {
      ++st.iterations;
      tr.mark();
      const ApproxResult<Limb> ar = approx(x_, lx_, y_, ly_);
      st.count_case(ar.which);
      ++st.divisions;
      if (ar.which == ApproxCase::k1) {
        // Whole values fit in 2d bits: finish the step in registers.
        case1_step(ar.alpha, tr);
      } else if (ar.beta == 0) {
        Limb alpha = Limb(ar.alpha);
        if ((alpha & 1u) == 0) --alpha;  // force odd; alpha >= 1 stays
        lx_ = fused_submul_strip(x_, lx_, y_, ly_, alpha, tr, xbuf_, ybuf_);
      } else {
        ++st.beta_nonzero;
        lx_ = fused_submul_shifted_add_strip(x_, lx_, y_, ly_, Limb(ar.alpha),
                                             ar.beta, tr, xbuf_, ybuf_);
      }
      swap_if_less(st, tr);
    }
  }

  // ---- Bernstein–Yang divsteps (beyond the paper) -----------------------
  // f is the first operand as passed (buffer A), g the second: the order
  // every bulk engine uses, so pass counts agree across engines.
  template <typename Tracer>
  void divsteps_loop(std::size_t early_bits, GcdStats& st, Tracer& tr) {
    Limb* f = buf_a_.data();
    Limb* g = buf_b_.data();
    const std::size_t n = std::max(lx_, ly_) + 1;
    std::fill(f + (xbuf_ == Buffer::kA ? lx_ : ly_), f + n, Limb{0});
    std::fill(g + (xbuf_ == Buffer::kA ? ly_ : lx_), g + n, Limb{0});
    const DivstepsRun run = divsteps_run(f, g, n, early_bits, tr);
    st.iterations += run.passes;
    x_ = run.end.swapped ? g : f;
    y_ = run.end.swapped ? f : g;
    xbuf_ = run.end.swapped ? Buffer::kB : Buffer::kA;
    ybuf_ = run.end.swapped ? Buffer::kA : Buffer::kB;
    lx_ = run.end.lx;
    ly_ = run.end.ly;
  }

  /// Case-1 update: X, Y both fit in a Wide register.
  template <typename Tracer>
  void case1_step(Wide alpha, Tracer& tr) {
    for (std::size_t i = 0; i < lx_; ++i) tr.read(xbuf_, i);
    for (std::size_t i = 0; i < ly_; ++i) tr.read(ybuf_, i);
    const Wide xv = lx_ == 2 ? top_two_words(x_, 2) : Wide(x_[0]);
    const Wide yv = ly_ == 2 ? top_two_words(y_, 2) : Wide(y_[0]);
    if ((alpha & 1u) == 0) --alpha;  // exact quotient >= 1, keep it odd
    Wide t = xv - yv * alpha;
    if (t != 0) t >>= wide_ctz(t);
    lx_ = 0;
    while (t != 0) {
      x_[lx_] = Limb(t);
      tr.write(xbuf_, lx_);
      ++lx_;
      t >>= LB;
    }
  }

  /// In-place decrement of an even, nonzero multi-limb value; returns the
  /// normalized size (forcing the Fast-Euclidean quotient odd).
  static std::size_t decrement(Limb* v, std::size_t n) noexcept {
    std::size_t i = 0;
    while (v[i] == 0) {
      v[i] = Limb(~Limb{0});
      ++i;
      assert(i < n);
    }
    --v[i];
    return mp::normalized_size(v, n);
  }

  std::size_t cap_;
  Storage buf_a_, buf_b_;                  // Figure-1 value arrays
  Storage scratch_q_, scratch_r_, scratch_m_;  // division scratch
  Limb* x_ = nullptr;
  Limb* y_ = nullptr;
  std::size_t lx_ = 0, ly_ = 0;
  Buffer xbuf_ = Buffer::kA, ybuf_ = Buffer::kB;
};

/// GcdEngine with inline storage sized for NLimbs-limb inputs: zero heap
/// traffic per construction or run — how the per-thread state lives in the
/// paper's CUDA kernel (local memory with compile-time bounds). Benchmarked
/// against the heap engine in bench_ablation_storage.
template <mp::LimbType Limb, std::size_t NLimbs>
using FixedGcdEngine =
    GcdEngine<Limb, InlineStorage<Limb, 2 * (NLimbs + 2)>>;

// ---- Convenience BigInt-level API ----------------------------------------

/// GCD of two odd positive values via the chosen variant (non-terminate).
template <mp::LimbType Limb>
mp::BigIntT<Limb> gcd_odd(const mp::BigIntT<Limb>& a, const mp::BigIntT<Limb>& b,
                          Variant variant = Variant::kApproximate,
                          GcdStats* stats = nullptr) {
  if (a.is_zero() || b.is_zero() || a.is_even() || b.is_even()) {
    throw std::invalid_argument("gcd_odd: inputs must be odd and positive");
  }
  GcdEngine<Limb> engine(std::max(a.size(), b.size()));
  const auto result = engine.run(variant, a.limbs(), b.limbs(), 0, stats);
  return mp::BigIntT<Limb>::from_limbs(result.gcd);
}

/// General GCD for arbitrary non-negative values: factors out common powers
/// of two (Section II's remark), strips per-operand trailing zeros, then runs
/// the odd-odd engine.
template <mp::LimbType Limb>
mp::BigIntT<Limb> gcd_general(const mp::BigIntT<Limb>& a,
                              const mp::BigIntT<Limb>& b,
                              Variant variant = Variant::kApproximate,
                              GcdStats* stats = nullptr) {
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  const std::size_t tza = a.trailing_zero_bits();
  const std::size_t tzb = b.trailing_zero_bits();
  const std::size_t common = std::min(tza, tzb);
  mp::BigIntT<Limb> ao = a >> tza;
  mp::BigIntT<Limb> bo = b >> tzb;
  mp::BigIntT<Limb> g = gcd_odd(ao, bo, variant, stats);
  return g << common;
}

/// Outcome of probing one pair of RSA moduli.
template <mp::LimbType Limb>
struct PairProbe {
  bool shares_factor = false;
  mp::BigIntT<Limb> factor;  ///< the common divisor when shares_factor
};

/// Early-terminate GCD of two RSA moduli (Section V): stops as soon as
/// Y drops below s/2 bits, which proves coprimality for products of two
/// ~s/2-bit primes. s is the bit size of the SMALLER modulus: a shared prime
/// divides both, so its size is bounded by the smaller key's prime size —
/// taking the larger modulus would declare mixed-size pairs coprime without
/// testing them.
template <mp::LimbType Limb>
PairProbe<Limb> probe_moduli_pair(const mp::BigIntT<Limb>& n1,
                                  const mp::BigIntT<Limb>& n2,
                                  Variant variant = Variant::kApproximate,
                                  GcdStats* stats = nullptr) {
  const std::size_t s = std::min(n1.bit_length(), n2.bit_length());
  GcdEngine<Limb> engine(std::max(n1.size(), n2.size()));
  const auto result = engine.run(variant, n1.limbs(), n2.limbs(), s / 2, stats);
  PairProbe<Limb> probe;
  if (!result.early_coprime) {
    auto g = mp::BigIntT<Limb>::from_limbs(result.gcd);
    if (g > mp::BigIntT<Limb>(1)) {
      probe.shares_factor = true;
      probe.factor = std::move(g);
    }
  }
  return probe;
}

}  // namespace bulkgcd::gcd
