// W-lane SIMD warp engine — the implementation (Section VI on vector
// registers instead of CUDA warps; see docs/GPU_PORTING.md).
//
// This header is the single source of the vector backend and is compiled
// into the library up to THREE times under distinct namespaces:
// vec_portable.cpp with baseline flags and vec_avx2.cpp with -mavx2 (both
// 32-byte registers, W = 8), and vec_avx512.cpp with -mavx512f/dq/vl/bw
// (64-byte registers, W = 16; x86-64 only). The round is written in GNU
// vector extensions over the contiguous column-major limb rows of the batch
// matrices — exactly the loads a CUDA warp coalesces (Figure 3) — so the
// SIMD TUs lower it to 256- or 512-bit vector loads/stores, gathers and
// blends, while the portable TU lowers the same source to baseline code. No
// ODR violation: the including TU defines BULKGCD_VEC_IMPL_NS,
// BULKGCD_VEC_IMPL_ISA and the register width BULKGCD_VEC_IMPL_BYTES.
//
// Execution model per W-lane group (the "vector warp"):
//   * a full group running Approximate Euclidean in the Section-V regime
//     (every active lane keeps early termination >= 3 limbs, so the
//     quotient head is always Case 4 — the all-pairs scan configuration and
//     the paper's GPU kernel) runs FULLY vector-resident on 32-bit limbs:
//     lane sizes, swap flags, live masks and iteration counts stay in vector
//     registers for the whole group run; the round head (termination test,
//     Case-4 classification, the quotient via W/2-lane double division +
//     exact fixup, the d0 classify) computes all W lanes at once from
//     register-carried top words plus two gathers per round; the masked
//     submul sweep tracks the normalized result size in-register — the
//     common path does no per-lane scalar work at all. Finished lanes are
//     masked off exactly like predicated-off CUDA threads (stores blend the
//     computed limb against the lane's previous value);
//   * rare lanes of that round — the d0 = 0 slow strip (probability ~2^-d
//     per iteration), the β > 0 shifted-add kernel and full-compare swap
//     ties — drop to the identical scalar kernels of gcd/kernels.hpp on
//     strided accessors;
//   * a full group running Divsteps (the sweep's default, gcd/divsteps.hpp)
//     with every active lane terminating early runs its passes fully
//     vector-resident too: a 30-divstep head on limb row 0, then one sweep
//     writing both operands, with no gathers and no per-lane branches;
//   * every other group — Binary, Fast Binary, the rest of Approximate and
//     Divsteps, and the tail group when lanes % W != 0 — runs each lane to
//     completion on the same scalar kernels, exactly run_staged(). Both
//     paths are bit-identical to the staged scalar engine by construction
//     rather than by re-derivation.
//
// Ragged lane sizes inside a group are handled by sweeping every masked
// lane to the group's maximum size: rows above a lane's own size hold zero
// limbs (the SimtBatch dirty-row invariant, maintained identically here),
// and zero rows are arithmetic fixed points of the sweep — it computes and
// stores zeros there, and the final store of a short lane lands at its own
// top row with the same value the scalar kernel writes.
//
// Statistics: per-lane branch traces are recorded exactly as run_staged()
// records them, and replay_warp_stats() (bulk/simt_stats.hpp) reconstructs
// the lockstep SimtStats from the traces — the accounting warp width stays
// the configured warp_width, NOT W, so stats are bit-identical to both
// SimtBatch modes no matter the vector width.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#if defined(__AVX2__)  // -mavx512f implies it
#include <immintrin.h>
#endif
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bulk/layout.hpp"
#include "bulk/scalar_lane.hpp"
#include "bulk/simt_stats.hpp"
#include "bulk/vec/vec_backend.hpp"
#include "gcd/algorithms.hpp"
#include "gcd/kernels.hpp"

#ifndef BULKGCD_VEC_IMPL_NS
#error "vec_batch_impl.hpp must be included with BULKGCD_VEC_IMPL_NS defined"
#endif
#if !defined(__GNUC__)
#error "the vector engine is written in GNU vector extensions (GCC or Clang)"
#endif

#if defined(__GNUC__) && !defined(__clang__)
// The v_load/v_store helpers pass vector-extension values in and out of
// functions that are always inlined into this TU; no real ABI boundary is
// crossed, so gcc's psABI note about vector returns is noise here.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif
#ifndef BULKGCD_VEC_IMPL_ISA
#error "vec_batch_impl.hpp must be included with BULKGCD_VEC_IMPL_ISA defined"
#endif
#if !defined(BULKGCD_VEC_IMPL_BYTES) || \
    (BULKGCD_VEC_IMPL_BYTES != 32 && BULKGCD_VEC_IMPL_BYTES != 64)
#error "vec_batch_impl.hpp must be included with BULKGCD_VEC_IMPL_BYTES 32 or 64"
#endif

namespace bulkgcd::bulk {
namespace BULKGCD_VEC_IMPL_NS {

/// GNU vector extensions express the resident round directly as W-wide
/// SIMD values over 32-bit scan limbs, W = BULKGCD_VEC_IMPL_BYTES / 4: the
/// -mavx2 TU lowers them to 256-bit loads, gathers, blends and per-lane
/// variable shifts, the AVX-512 TU to the same on 512-bit registers, while
/// the portable TU lowers the identical source to baseline (SSE2 or scalar)
/// code. The three intrinsic seams below pick their form by register width,
/// never by ISA macro alone, so a baseline TU built with -march=native still
/// gets intrinsics that match its width.
struct VecTraits {
  static constexpr int kBytes = BULKGCD_VEC_IMPL_BYTES;
  static constexpr int kLanes = kBytes / 4;

  typedef std::uint32_t LimbVec __attribute__((vector_size(kBytes)));
  // Lane sizes fit far below 2^31, so the per-row "i < ly" test uses the
  // single-instruction signed compare instead of the unsigned sequence.
  typedef std::int32_t SignedVec __attribute__((vector_size(kBytes)));
  // The carry/borrow chains run as two u64 half-chains (even and odd
  // lanes), keeping every value in native registers AND giving the
  // out-of-order core two independent dependency chains per row.
  typedef std::uint64_t PairVec __attribute__((vector_size(kBytes)));

  typedef std::int64_t SignedPairVec __attribute__((vector_size(kBytes)));
  typedef double DblVec __attribute__((vector_size(kBytes)));
  typedef float FloatVec __attribute__((vector_size(kBytes)));

  /// {0, 1, …, W-1}: each lane's column offset inside its group.
  static constexpr LimbVec iota() noexcept {
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return LimbVec{std::uint32_t(I)...};
    }(std::make_index_sequence<kLanes>{});
  }

  /// W per-lane loads from arbitrary 32-bit element offsets off one base
  /// (vpgatherdd) — how the vector-resident round reads the strided top
  /// words of all lanes at once. Offsets must stay below 2^31 elements.
  static LimbVec gather(const std::uint32_t* b, LimbVec idx) noexcept {
#if BULKGCD_VEC_IMPL_BYTES == 64 && defined(__AVX512F__)
    // The masked form with a zeroed source: the unmasked intrinsic passes
    // _mm512_undefined_epi32() through, which gcc 12 flags as
    // maybe-uninitialized.
    return (LimbVec)_mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), __mmask16(0xFFFF), (__m512i)idx, b, 4);
#elif BULKGCD_VEC_IMPL_BYTES == 32 && defined(__AVX2__)
    return (LimbVec)_mm256_i32gather_epi32(reinterpret_cast<const int*>(b),
                                           (__m256i)idx, 4);
#else
    LimbVec r;
    for (int l = 0; l < kLanes; ++l) r[l] = b[idx[l]];
    return r;
#endif
  }

  /// One bit per 32-bit lane from a 0/~0 mask vector (vmovmskps, or a
  /// sign compare into a mask register on 512-bit lanes).
  static int movemask(LimbVec m) noexcept {
#if BULKGCD_VEC_IMPL_BYTES == 64 && defined(__AVX512F__)
    return int(_mm512_cmplt_epi32_mask((__m512i)m, _mm512_setzero_si512()));
#elif BULKGCD_VEC_IMPL_BYTES == 32 && defined(__AVX2__)
    return _mm256_movemask_ps((__m256)m);
#else
    int r = 0;
    for (int l = 0; l < kLanes; ++l) r |= int(m[l] >> 31) << l;
    return r;
#endif
  }

  /// Full 64-bit product of the low 32 bits of each 64-bit lane (vpmuludq).
  /// gcc has no pattern that simplifies the generic u64 vector multiply
  /// when the operands' high words are known zero — it always expands the
  /// 64 x 64 sequence — so the SIMD TUs use the intrinsic; everything else
  /// in the kernels stays plain vector-extension arithmetic.
  static PairVec mul32(PairVec a, PairVec b) noexcept {
#if BULKGCD_VEC_IMPL_BYTES == 64 && defined(__AVX512F__)
    // The zero-masked form with every lane selected is the same vpmuludq;
    // the unmasked intrinsic's _mm512_undefined_epi32() pass-through (its
    // self-initialized __Y) is what gcc 12 flags as maybe-uninitialized.
    return (PairVec)_mm512_maskz_mul_epu32(__mmask8(0xFF), (__m512i)a,
                                           (__m512i)b);
#elif BULKGCD_VEC_IMPL_BYTES == 32 && defined(__AVX2__)
    return (PairVec)_mm256_mul_epu32((__m256i)a, (__m256i)b);
#else
    return (a & 0xffffffffu) * (b & 0xffffffffu);
#endif
  }
};

class VecBatch final : public VecBatchBase {
  static_assert(sizeof(Limb) == 4,
                "the resident round is written for 32-bit limbs, "
                "W = BULKGCD_VEC_IMPL_BYTES / 4 lanes");
  using Wide = mp::LimbTraits<Limb>::Wide;
  static constexpr int LB = mp::limb_bits<Limb>;
  static constexpr Wide kMask = mp::limb_base<Limb> - 1;

 public:
  /// Lanes per vector register (8 in 256 bits, 16 in 512 bits).
  static constexpr std::size_t W = VecTraits::kBytes / sizeof(Limb);

  VecBatch(std::size_t lanes, std::size_t capacity_limbs,
           std::size_t warp_width)
      : lanes_(lanes),
        cap_(capacity_limbs + kBatchPadLimbs),
        warp_(warp_width),
        mat_(lanes, 2 * cap_),
        lx_(lanes, 0),
        ly_(lanes, 0),
        early_(lanes, kInheritEarlyBits),
        eff_early_(lanes, 0),
        swapped_(lanes, 0),
        active_(lanes, 0) {
    if (warp_width == 0) throw std::invalid_argument("warp width must be > 0");
  }

  std::size_t lanes() const noexcept override { return lanes_; }
  std::size_t capacity() const noexcept override {
    return cap_ - kBatchPadLimbs;
  }
  std::size_t input_bytes() const noexcept override { return mat_.bytes(); }
  VecIsa isa() const noexcept override { return BULKGCD_VEC_IMPL_ISA; }
  std::size_t vector_width() const noexcept override { return W; }

  void load(std::size_t lane, std::span<const Limb> x, std::span<const Limb> y,
            std::size_t early_bits) override {
    assert(lane < lanes_);
    early_[lane] = early_bits;
    if (x.size() > capacity() || y.size() > capacity()) {
      throw std::length_error("VecBatch: input exceeds capacity");
    }
    fill_half(a_data(), lane, x.data(), x.size());
    fill_half(b_data(), lane, y.data(), y.size());
    x_rows_ = cap_;
    y_rows_ = cap_;
    lx_[lane] = gcd::acc_normalized_size(lane_a(lane), x.size());
    ly_[lane] = gcd::acc_normalized_size(lane_b(lane), y.size());
    swapped_[lane] = 0;
    if (gcd::acc_compare(lane_a(lane), lx_[lane], lane_b(lane),
                         ly_[lane]) < 0) {
      swapped_[lane] ^= 1;
      std::swap(lx_[lane], ly_[lane]);
    }
    active_[lane] = 1;
  }

  void load_panel(std::span<const Limb> panel,
                  std::span<const std::size_t> sizes,
                  std::size_t rows) override {
    if (rows > cap_ || panel.size() < rows * lanes_ ||
        sizes.size() != lanes_) {
      throw std::invalid_argument("VecBatch: panel does not fit this batch");
    }
    Limb* dst = a_data();
    std::copy_n(panel.data(), rows * lanes_, dst);
    if (x_rows_ > rows) {
      std::fill(dst + rows * lanes_, dst + x_rows_ * lanes_, Limb{0});
    }
    x_rows_ = rows;
    std::copy_n(sizes.data(), lanes_, lx_.data());
  }

  void broadcast_y(std::span<const Limb> y) override {
    if (y.size() > capacity()) {
      throw std::length_error("VecBatch: input exceeds capacity");
    }
    Limb* dst = b_data();
    for (std::size_t i = 0; i < y.size(); ++i) {
      std::fill_n(dst + i * lanes_, lanes_, y[i]);
    }
    if (y_rows_ > y.size()) {
      std::fill(dst + y.size() * lanes_, dst + y_rows_ * lanes_, Limb{0});
    }
    y_rows_ = std::min(cap_, y.size() + 1);
    std::fill_n(ly_.data(), lanes_, y.size());
  }

  void reset_lane_state(std::size_t lane, std::size_t early_bits) override {
    assert(lane < lanes_);
    early_[lane] = early_bits;
    swapped_[lane] = 0;
    if (gcd::acc_compare(lane_a(lane), lx_[lane], lane_b(lane),
                         ly_[lane]) < 0) {
      swapped_[lane] ^= 1;
      std::swap(lx_[lane], ly_[lane]);
    }
    active_[lane] = 1;
  }

  void disable(std::size_t lane) noexcept override { active_[lane] = 0; }

  void run(gcd::Variant variant, std::size_t early_bits) override {
    if (variant != gcd::Variant::kBinary &&
        variant != gcd::Variant::kFastBinary &&
        variant != gcd::Variant::kApproximate &&
        variant != gcd::Variant::kDivsteps) {
      throw std::invalid_argument("VecBatch: unsupported variant");
    }
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      eff_early_[lane] =
          early_[lane] == kInheritEarlyBits ? early_bits : early_[lane];
    }
    if (branch_log_.size() != lanes_) branch_log_.resize(lanes_);
    for (auto& log : branch_log_) {
      if (log.capacity() < 160) log.reserve(160);
      log.clear();
    }
    switch (variant) {
      case gcd::Variant::kBinary:
        run_impl<gcd::Variant::kBinary>();
        break;
      case gcd::Variant::kFastBinary:
        run_impl<gcd::Variant::kFastBinary>();
        break;
      case gcd::Variant::kDivsteps:
        run_impl<gcd::Variant::kDivsteps>();
        break;
      default:
        run_impl<gcd::Variant::kApproximate>();
        break;
    }
    replay_warp_stats(branch_log_, lanes_, warp_, stats_);
  }

  bool early_coprime(std::size_t lane) const noexcept override {
    return ly_[lane] > 0;
  }

  mp::BigInt gcd_of(std::size_t lane) const override {
    std::vector<Limb> limbs(lx_[lane]);
    auto x = swapped_[lane] ? lane_b(lane) : lane_a(lane);
    for (std::size_t i = 0; i < lx_[lane]; ++i) limbs[i] = x[i];
    return mp::BigInt::from_limbs(limbs);
  }

  std::size_t lane_iterations(std::size_t lane) const noexcept override {
    return lane < branch_log_.size() ? branch_log_[lane].size() : 0;
  }

  const SimtStats& stats() const noexcept override { return stats_; }
  void reset_stats() noexcept override { stats_ = SimtStats{}; }

 private:
  using LaneState = scalar_lane::State<Limb>;

  // The A and B operand matrices live in the two halves of ONE column-major
  // allocation (A rows [0, cap_), B rows [cap_, 2·cap_)): the vector-resident
  // round addresses the current X/Y role of every lane as a single gather
  // from one base pointer plus a per-lane half offset.
  Limb* a_data() noexcept { return mat_.storage().data(); }
  Limb* b_data() noexcept { return mat_.storage().data() + cap_ * lanes_; }
  const Limb* a_data() const noexcept { return mat_.storage().data(); }
  const Limb* b_data() const noexcept {
    return mat_.storage().data() + cap_ * lanes_;
  }
  Strided<Limb> lane_a(std::size_t lane) noexcept {
    return {a_data() + lane, lanes_};
  }
  Strided<Limb> lane_b(std::size_t lane) noexcept {
    return {b_data() + lane, lanes_};
  }
  ConstStrided<Limb> lane_a(std::size_t lane) const noexcept {
    return {a_data() + lane, lanes_};
  }
  ConstStrided<Limb> lane_b(std::size_t lane) const noexcept {
    return {b_data() + lane, lanes_};
  }
  /// ColumnMatrix::fill_lane for one half of the shared allocation (the
  /// matrix's own would zero-pad across both operands).
  void fill_half(Limb* half, std::size_t lane, const Limb* src,
                 std::size_t n) noexcept {
    Limb* p = half + lane;
    std::size_t i = 0;
    for (; i < n; ++i) p[i * lanes_] = src[i];
    for (; i < cap_; ++i) p[i * lanes_] = Limb{0};
  }

  LaneState lane_state(std::size_t lane) noexcept {
    auto a = lane_a(lane);
    auto b = lane_b(lane);
    if (swapped_[lane]) std::swap(a, b);
    return {a, b, lx_[lane], ly_[lane], swapped_[lane]};
  }
  void store_lane(std::size_t lane, const LaneState& s) noexcept {
    lx_[lane] = s.lx;
    ly_[lane] = s.ly;
    swapped_[lane] = s.swapped;
  }

  // ---- group driver -------------------------------------------------------

  template <gcd::Variant V>
  [[gnu::flatten]] void run_impl() {
    gcd::GcdStats tally;
    for (std::size_t base = 0; base < lanes_; base += W) {
      const std::size_t n = std::min(W, lanes_ - base);
      if constexpr (V == gcd::Variant::kApproximate) {
        if (n == W && resident_group(base)) {
          run_group_approx_vec(base, tally);
          continue;
        }
      }
      if constexpr (V == gcd::Variant::kDivsteps) {
        if (n == W && divsteps_resident_group(base)) {
          run_group_divsteps_vec(base, tally);
          continue;
        }
      }
      run_group_scalar<V>(base, n, tally);
    }
    stats_.gcd += tally;
  }

  /// Whether the vector-resident round takes the full group at `base`:
  /// every active lane is in the Section-V regime (early >= 3 limbs, so the
  /// quotient head is always Case 4) and the batch fits 32-bit gather
  /// offsets. Disabled lanes do not count.
  bool resident_group(std::size_t base) const noexcept {
    if (2 * cap_ * lanes_ >= (std::size_t(1) << 31)) return false;
    for (std::size_t l = 0; l < W; ++l) {
      const std::size_t lane = base + l;
      if (active_[lane] && !scalar_lane::section_v<Limb>(eff_early_[lane])) {
        return false;
      }
    }
    return true;
  }

  /// Whether the resident divsteps pass takes the full group at `base`:
  /// every active lane terminates early (early >= 1 bit, so g = 0 is caught
  /// by the same top-row scan as a small operand). Disabled lanes do not
  /// count.
  bool divsteps_resident_group(std::size_t base) const noexcept {
    for (std::size_t l = 0; l < W; ++l) {
      if (active_[base + l] && eff_early_[base + l] == 0) return false;
    }
    return true;
  }

  /// Divsteps writes one sign row above the larger of a lane's values in
  /// both matrices: raise the dirty-row watermarks over it.
  void cover_divsteps_rows(std::size_t rows) noexcept {
    x_rows_ = std::max(x_rows_, rows);
    y_rows_ = std::max(y_rows_, rows);
  }

  /// Every group the resident round does not take: pure scalar
  /// lane-to-completion, exactly run_staged(), on the scalar kernels every
  /// other engine already uses.
  template <gcd::Variant V>
  void run_group_scalar(std::size_t base, std::size_t n,
                        gcd::GcdStats& tally) {
    for (std::size_t l = 0; l < n; ++l) {
      const std::size_t lane = base + l;
      if (!active_[lane]) continue;
      auto& log = branch_log_[lane];
      LaneState s = lane_state(lane);
      if constexpr (V == gcd::Variant::kDivsteps) {
        cover_divsteps_rows(scalar_lane::divsteps_rows(s));
      }
      scalar_lane::run<V>(s, eff_early_[lane], tally, log);
      store_lane(lane, s);
      active_[lane] = 0;
      stats_.lane_iterations += log.size();
    }
  }

  /// Fully vector-resident Approximate Euclidean driver for one W-lane
  /// group in the Section-V regime (early termination >= 3 limbs, the
  /// all-pairs scan configuration): lane sizes, swap flags, live masks and
  /// iteration counts live in vector registers for the whole group run, the
  /// per-round head (keeps_going, the Case-4 classification, the quotient,
  /// the d0 classify) is computed for all W lanes at once from five gathers
  /// and two row-0 loads, and the submul sweep tracks the normalized result
  /// size in-register — no per-lane scalar work at all on the common path.
  /// Rare lanes (β > 0, d0 = 0, full-compare ties) extract to the scalar
  /// kernels of run_staged(), preserving bit-identity.
  ///
  /// In the Section-V regime the quotient head is always Case 4
  /// (approx_case4_only's contract: keeps_going keeps ly >= 3 limbs and the
  /// swap invariant keeps lx >= ly), Case 1 is unreachable, and every
  /// vector-handled iteration logs branch 0 — so the branch trace is a bulk
  /// fill plus one patch per rare β > 0 event.
  void run_group_approx_vec(std::size_t base, gcd::GcdStats& tally) {
    using VT = VecTraits;
    using VL = VT::LimbVec;
    using SL = VT::SignedVec;
    using U64V = VT::PairVec;
    using S64V = VT::SignedPairVec;
    using F64V = VT::DblVec;

    const std::size_t L = lanes_;
    Limb* __restrict__ Sd = mat_.storage().data();
    const Limb capL = Limb(cap_ * L);

    // ---- scalar -> vector state load ----
    alignas(VecTraits::kBytes) Limb t32[W];
    std::array<std::uint8_t, W> init_live{};
    std::array<std::size_t, W> log_base{};
    for (std::size_t l = 0; l < W; ++l) {
      init_live[l] = active_[base + l];
      log_base[l] = branch_log_[base + l].size();
    }
    for (std::size_t l = 0; l < W; ++l) t32[l] = Limb(lx_[base + l]);
    VL lxv = v_load<VL>(t32);
    for (std::size_t l = 0; l < W; ++l) t32[l] = Limb(ly_[base + l]);
    VL lyv = v_load<VL>(t32);
    for (std::size_t l = 0; l < W; ++l) {
      t32[l] = swapped_[base + l] ? ~Limb{0} : Limb{0};
    }
    VL swm = v_load<VL>(t32);
    for (std::size_t l = 0; l < W; ++l) {
      t32[l] = init_live[l] ? ~Limb{0} : Limb{0};
    }
    VL livem = v_load<VL>(t32);
    for (std::size_t l = 0; l < W; ++l) t32[l] = Limb(eff_early_[base + l]);
    const VL earlyv = v_load<VL>(t32);

    constexpr VL iota = VT::iota();
    const VL lanecol = iota + Limb(base);
    const VL capLv = VL{} + capL;
    const VL rowmul = VL{} + Limb(L);
    const VL one = VL{} + 1;
    const VL two = VL{} + 2;
    const VL kLBv = VL{} + Limb(LB);
    const U64V kMaskV = U64V{} + kMask;
    const U64V hiKeep = U64V{} + (Wide(kMask) << LB);
    const U64V bias = U64V{} + (Wide(1) << 63);
    const U64V kexp = U64V{} + 0x4330000000000000ull;  // double bits of 2^52
    const F64V k52 = F64V{} + 4503599627370496.0;      // 2^52
    const F64V kscale = F64V{} + 4294967296.0;         // 2^32
    // Each round takes at least one bit off the larger operand (the
    // progress bound in docs/ALGORITHMS.md), so a sound lane runs at most
    // as many rounds as its operands have bits. A lane past that has a
    // corrupt state and would spin forever.
    const VL round_bound = (lxv + lyv) * kLBv;

    // Exact 64/64 -> floor quotient q = ⌊x/d⌋ for quotients < 2^32: the
    // divide of approx_case4_only, bit-identical but never serialized
    // through the divider unit. Each u64 operand converts to double by
    // halves (or the u32 half into a 2^52-biased mantissa, subtract the
    // bias: both halves exact, one rounding on the recombine); with the
    // division's own rounding the estimate is within < 2^-19 of x/d
    // (the quotient fits a limb), so rounding it to an integer (+ 2^52)
    // gives q or q + 1. Starting from that minus one, at most two
    // predicated increments against the exact 64-bit remainder land on q.
    const auto divq = [&](U64V xv, U64V dv) noexcept -> U64V {
      const F64V xd = ((F64V)((xv >> LB) | kexp) - k52) * kscale +
                    ((F64V)((xv & kMask) | kexp) - k52);
      const F64V dd = ((F64V)((dv >> LB) | kexp) - k52) * kscale +
                    ((F64V)((dv & kMask) | kexp) - k52);
      const F64V qd = xd / dd + k52;  // + 2^52 rounds to the nearest integer
      U64V q = ((U64V)qd & ((Wide(1) << 52) - 1)) - 1;
      const U64V dm1 = (dv - 1) ^ bias;
      const U64V low = VT::mul32(q, dv) + (VT::mul32(q, dv >> LB) << LB);
      U64V r = xv - low;
      const U64V f1 = (U64V)((S64V)(r ^ bias) > (S64V)dm1);  // r >= dv, biased cmp
      q -= f1;
      r -= dv & f1;
      const U64V f2 = (U64V)((S64V)(r ^ bias) > (S64V)dm1);
      q -= f2;
      return q;
    };

    VL iters{};                              // per-lane iteration counts
    VL n4a{}, n4b{}, n4c{}, nswap{}, nbnz{};  // per-lane stat counters
    std::vector<std::pair<std::uint8_t, Limb>> patches;  // (lane, iter idx)

    // The top two words of X and Y ride across rounds in registers: the
    // new X words come from the two post-sweep gathers at the bottom of
    // the loop, and a swap just exchanges the X and Y registers — the
    // round head issues no gathers at all. (The values are junk for dead
    // lanes and for X sides about to die, where every consumer is masked;
    // clamped offsets keep the gathers themselves in bounds.)
    VL y1, x1, y2, x2;
    {
      const VL lyc0 = (VL)((SL)lyv > (SL)two) ? lyv : two;
      const VL lxc0 = (VL)((SL)lxv > (SL)two) ? lxv : two;
      const VL yoff0 = ((VL)(swm ? VL{} : capLv)) + lanecol;
      const VL xoff0 = ((VL)(swm ? capLv : VL{})) + lanecol;
      y1 = VT::gather(Sd, yoff0 + (lyc0 - one) * rowmul);
      x1 = VT::gather(Sd, xoff0 + (lxc0 - one) * rowmul);
      y2 = VT::gather(Sd, yoff0 + (lyc0 - two) * rowmul);
      x2 = VT::gather(Sd, xoff0 + (lxc0 - two) * rowmul);
    }

    while (true) {
      // ---- keeps_going, vectorized ----
      // ly > 0 and: (ly-1)*LB >= early, or ly*LB >= early and the top
      // word still reaches bit (early - (ly-1)*LB - 1). Lane sizes and
      // early bounds are far below 2^31: signed compares.
      const VL topbits = (lyv - one) * kLBv;
      const VL c1 = (VL)((SL)topbits >= (SL)earlyv);
      const VL c2 = (VL)((SL)(lyv * kLBv) < (SL)earlyv);
      const VL sh = (earlyv - topbits - one) & (kLBv - one);
      const VL mid = (VL)((y1 >> sh) != VL{});
      const VL going = (VL)(lyv != VL{}) & (c1 | (~c2 & mid));
      livem &= going;
      if (!VT::movemask(livem)) break;
      iters -= livem;  // masks are 0/~0: subtracting counts the live lanes
      if (VT::movemask((VL)((SL)iters > (SL)round_bound))) [[unlikely]] {
        throw std::logic_error(
            "vector GCD round: a lane ran past its operands' bit count");
      }

      // ---- Case-4 classification + quotient, all lanes at once ----
      const U64V x12e = ((U64V)x1 << LB) | ((U64V)x2 & kMaskV);
      const U64V x12o = ((U64V)x1 & hiKeep) | ((U64V)x2 >> LB);
      const U64V y12e = ((U64V)y1 << LB) | ((U64V)y2 & kMaskV);
      const U64V y12o = ((U64V)y1 & hiKeep) | ((U64V)y2 >> LB);
      const U64V c4ae = (U64V)((S64V)(x12e ^ bias) > (S64V)(y12e ^ bias));
      const U64V c4ao = (U64V)((S64V)(x12o ^ bias) > (S64V)(y12o ^ bias));
      const VL c4a = (VL)((c4ae & kMaskV) | (c4ao << LB));
      const VL szeq = (VL)(lxv == lyv);
      const VL c4c = ~c4a & szeq;  // x12 <= y12 and lx == ly: alpha = 1
      const U64V dve = ((U64V)(c4ae ? y12e : ((U64V)y1 & kMaskV))) + 1;
      const U64V dvo = ((U64V)(c4ao ? y12o : ((U64V)y1 >> LB))) + 1;
      const U64V qe = divq(x12e, dve);
      const U64V qo = divq(x12o, dvo);
      VL q = (VL)((qe & kMask) | (qo << LB));
      q = (VL)(c4c ? one : q);
      const VL alphav = (q - one) | one;  // the scalar head's odd-adjust
      VL beta = lxv - lyv - (~c4a & one);
      beta = (VL)(c4c ? VL{} : beta);
      const VL bnz = (VL)(beta != VL{}) & livem;
      n4a -= c4a & livem;
      n4b -= ~c4a & ~szeq & livem;
      n4c -= c4c & livem;
      nbnz -= bnz;

      // ---- classify: the submul launch state from limb row 0 ----
      VL A0 = v_load<VL>(Sd + base);
      VL B0 = v_load<VL>(Sd + cap_ * L + base);
      const VL x0 = (VL)(swm ? B0 : A0);
      const VL y0 = (VL)(swm ? A0 : B0);
      const VL plo = y0 * alphav;
      const U64V alpha_o = (U64V)alphav >> LB;
      const U64V pe = VT::mul32((U64V)y0, (U64V)alphav);
      const U64V po = VT::mul32((U64V)y0 >> LB, alpha_o);
      const VL phi = (VL)(((U64V)pe >> LB) | (po & hiKeep));
      const VL d0 = x0 - plo;
      const VL bor0 = (VL)(x0 < plo);
      const VL dzm = (VL)(d0 == VL{}) & livem & ~bnz;
      const VL swept = livem & ~bnz & ~dzm;
      VL lxw = lxv;  // post-kernel sizes, filled per class below

      // ---- rare lanes: the exact scalar kernels, this lane only ----
      if (VT::movemask(bnz | dzm)) [[unlikely]] {
        alignas(VecTraits::kBytes) Limb lxa[W], lya[W], swa[W], qa[W], ala[W], bza[W],
            dza[W], bta[W], itc[W], y1a[W], y2a[W];
        v_store(lxa, lxv);
        v_store(lya, lyv);
        v_store(swa, swm);
        v_store(qa, q);
        v_store(ala, alphav);
        v_store(bza, bnz);
        v_store(dza, dzm);
        v_store(bta, beta);
        v_store(itc, iters);
        v_store(y1a, y1);
        v_store(y2a, y2);
        for (std::size_t l = 0; l < W; ++l) {
          if (!(bza[l] | dza[l])) continue;
          LaneState t;
          const std::size_t xo = swa[l] ? std::size_t(capL) : 0;
          t.x = Strided<Limb>{Sd + xo + base + l, L};
          t.y = Strided<Limb>{Sd + (std::size_t(capL) - xo) + base + l, L};
          t.lx = lxa[l];
          t.ly = lya[l];
          t.swapped = swa[l] & 1u;
          const std::size_t lx0 = t.lx;
          if (bza[l]) {
            // β > 0 passes the RAW quotient (the scalar head only
            // odd-adjusts alpha on the β = 0 branch).
            t.lx = gcd::fused_submul_shifted_add_strip(
                t.x, t.lx, t.y, t.ly, Limb(qa[l]), std::size_t(bta[l]),
                null_tracer_);
            patches.emplace_back(std::uint8_t(l), itc[l] - 1);
          } else {
            t.lx = gcd::fused_submul_strip(t.x, t.lx, t.y, t.ly, ala[l],
                                           null_tracer_);
          }
          // A limb-shifting strip leaves stale limbs above the new size
          // (up to row lx0, the β kernel's extra limb); the sweep reads X
          // rows unmasked up to the group maximum, so restore the zeros.
          for (std::size_t i = t.lx; i <= lx0; ++i) t.x[i] = Limb{0};
          scalar_lane::swap_if_less(t, tally);
          lxa[l] = Limb(t.lx);
          lya[l] = Limb(t.ly);
          swa[l] = t.swapped ? ~Limb{0} : Limb{0};
          y1a[l] = t.ly ? t.y[t.ly - 1] : Limb{0};
          y2a[l] = t.ly > 1 ? t.y[t.ly - 2] : Limb{0};
        }
        lxw = v_load<VL>(lxa);
        lyv = v_load<VL>(lya);
        swm = v_load<VL>(swa);
        y1 = v_load<VL>(y1a);
        y2 = v_load<VL>(y2a);
        // The escapes rewrote limb row 0 of their lanes; the sweep's
        // blended row-0 store must write those values back, not the ones
        // loaded before the escape.
        A0 = v_load<VL>(Sd + base);
        B0 = v_load<VL>(Sd + cap_ * L + base);
      }

      // ---- the masked submul sweep, result size tracked in-register ----
      if (VT::movemask(swept)) {
        v_store(t32, (VL)(swept ? lxv : VL{}));
        std::size_t n_max = 0;
        for (std::size_t l = 0; l < W; ++l) {
          n_max = std::max(n_max, std::size_t(t32[l]));
        }
        Limb* __restrict__ A = Sd + base;
        Limb* __restrict__ B = Sd + cap_ * L + base;
        const VL sa = swept & ~swm;
        const VL sb = swept & swm;
        const SL lysv = (SL)lyv;
        // countr_zero(d0) from the float exponent of the isolated lowest
        // set bit (d0 is even and nonzero on swept lanes, so the result
        // is exact and in [1, LB-1]).
        const VL lsb = d0 & (VL{} - d0);
        const VL fb =
            (VL)__builtin_convertvector((SL)lsb, VT::FloatVec);
        VL rshv = ((fb >> 23) & 0xff) - 127;
        rshv = (VL)(swept ? rshv : one);  // benign shifts on junk lanes
        const VL lshv = kLBv - rshv;
        VL carry = phi;
        VL bor = bor0;
        VL dp = d0;
        VL apv = A0;
        VL bpv = B0;
        VL newlx{};
        SL iv = SL{} + 1;
        for (std::size_t i = 1; i < n_max; ++i) {
          const VL a = v_load<VL>(A + i * L);
          const VL b = v_load<VL>(B + i * L);
          const VL xi = (VL)(swm ? b : a);
          const VL yb = a ^ b ^ xi;
          const VL ym = (VL)(iv < lysv);
          const VL yi = yb & ym;
          const VL lo = yi * alphav;
          const U64V pei = VT::mul32((U64V)yi, (U64V)alphav);
          const U64V poi = VT::mul32((U64V)yi >> LB, alpha_o);
          const VL hi = (VL)(((U64V)pei >> LB) | (poi & hiKeep));
          const VL pl = lo + carry;
          carry = hi - (VL)(pl < carry);
          const VL t = xi - pl;
          const VL d = t + bor;
          bor = (VL)(xi < pl) | ((VL)(t == VL{}) & bor);
          const VL out = (dp >> rshv) | (d << lshv);
          dp = d;
          // iv doubles as the output-row index + 1: out lands at row i-1.
          newlx = (VL)((VL)(out != VL{}) ? (VL)iv : newlx);
          iv += 1;
          v_store(A + (i - 1) * L, (VL)(sa ? out : apv));
          v_store(B + (i - 1) * L, (VL)(sb ? out : bpv));
          apv = a;
          bpv = b;
        }
        const VL outf = dp >> rshv;
        newlx = (VL)((VL)(outf != VL{}) ? (VL)iv : newlx);
        v_store(A + (n_max - 1) * L, (VL)(sa ? outf : apv));
        v_store(B + (n_max - 1) * L, (VL)(sb ? outf : bpv));
        lxw = (VL)(swept ? newlx : lxw);
      }

      // ---- swap_if_less, vectorized on the top words ----
      const VL lxc2 = (VL)((SL)lxw > (SL)two) ? lxw : two;
      const VL xb2 = ((VL)(swm ? capLv : VL{})) + lanecol;
      const VL xt = VT::gather(Sd, xb2 + (lxc2 - one) * rowmul);
      const VL xt2 = VT::gather(Sd, xb2 + (lxc2 - two) * rowmul);
      const VL szlt = (VL)((SL)lxw < (SL)lyv);
      const VL szeq2 = (VL)(lxw == lyv);
      const VL wlt = (VL)(xt < y1);
      const VL weq = (VL)(xt == y1);
      VL less = (szlt | (szeq2 & wlt)) & swept;
      const VL tie = szeq2 & weq & swept;
      if (VT::movemask(tie)) [[unlikely]] {
        // Equal sizes AND equal top words: only the full limb walk can
        // order the values (Y is unchanged this round, X just shrank).
        alignas(VecTraits::kBytes) Limb ta[W], la[W], lxa[W], lya[W], swa[W];
        v_store(ta, tie);
        v_store(la, less);
        v_store(lxa, lxw);
        v_store(lya, lyv);
        v_store(swa, swm);
        for (std::size_t l = 0; l < W; ++l) {
          if (!ta[l]) continue;
          const std::size_t xo = swa[l] ? std::size_t(capL) : 0;
          const Strided<Limb> tx{Sd + xo + base + l, L};
          const Strided<Limb> ty{Sd + (std::size_t(capL) - xo) + base + l,
                                 L};
          la[l] = gcd::acc_compare(tx, lxa[l], ty, lya[l]) < 0 ? ~Limb{0}
                                                               : Limb{0};
        }
        less = v_load<VL>(la);
      }
      nswap -= less;
      swm ^= less;
      const VL nlx = (VL)(less ? lyv : lxw);
      lyv = (VL)(less ? lxw : lyv);
      lxv = nlx;
      // Register-carried top words: the new X words are the post-sweep
      // gathers (rare lanes included — lxw and swm were already patched),
      // and a swapping round exchanges the X and Y registers.
      const VL ny1 = (VL)(less ? xt : y1);
      const VL ny2 = (VL)(less ? xt2 : y2);
      x1 = (VL)(less ? y1 : xt);
      x2 = (VL)(less ? y2 : xt2);
      y1 = ny1;
      y2 = ny2;
    }

    // ---- group epilogue: state, stats and branch traces write-back ----
    alignas(VecTraits::kBytes) Limb itc[W], lxa[W], lya[W], swa[W], c4aa[W], c4ba[W],
        c4ca[W], swc[W], bzc[W];
    v_store(itc, iters);
    v_store(lxa, lxv);
    v_store(lya, lyv);
    v_store(swa, swm);
    v_store(c4aa, n4a);
    v_store(c4ba, n4b);
    v_store(c4ca, n4c);
    v_store(swc, nswap);
    v_store(bzc, nbnz);
    std::uint64_t itsum = 0;
    for (std::size_t l = 0; l < W; ++l) {
      if (!init_live[l]) continue;
      const std::size_t lane = base + l;
      lx_[lane] = lxa[l];
      ly_[lane] = lya[l];
      swapped_[lane] = swa[l] & 1u;
      active_[lane] = 0;
      auto& log = branch_log_[lane];
      log.insert(log.end(), itc[l], std::uint8_t{0});
      stats_.lane_iterations += log.size();
      itsum += itc[l];
      tally.swaps += swc[l];
      tally.beta_nonzero += bzc[l];
      tally.approx_cases[std::size_t(gcd::ApproxCase::k4A)] += c4aa[l];
      tally.approx_cases[std::size_t(gcd::ApproxCase::k4B)] += c4ba[l];
      tally.approx_cases[std::size_t(gcd::ApproxCase::k4C)] += c4ca[l];
    }
    tally.iterations += itsum;
    tally.divisions += itsum;  // one Case-4 division per live iteration
    for (const auto& [l, idx] : patches) {
      branch_log_[base + l][log_base[l] + idx] = 1;
    }
  }

  /// Fully vector-resident Variant::kDivsteps driver for one W-lane group
  /// (gcd/divsteps.hpp has the arithmetic, docs/GPU_PORTING.md the shape).
  /// f lives in the A matrix and g in B on every lane, so nothing is
  /// gathered or blended by role. Each pass
  ///   1. stops the lanes that meet the stop rule — a scan down from the top
  ///      row for x ⊕ sign(x) < 2^early — and drops the top rows no live
  ///      lane needs;
  ///   2. runs 30 divsteps on all W lanes from limb row 0 (the head);
  ///   3. sweeps rows [0, R) once, computing both new operands.
  /// Stopped and disabled lanes get the matrix 2^30·I, which the sweep maps
  /// onto the limbs they already hold, so no store is blended. A lane keeps
  /// the rows it had when it stopped, and the epilogue finishes it on the
  /// scalar divsteps_finish of every other engine.
  void run_group_divsteps_vec(std::size_t base, gcd::GcdStats& tally) {
    using VT = VecTraits;
    using VL = VT::LimbVec;
    using SL = VT::SignedVec;
    using U64V = VT::PairVec;

    const std::size_t L = lanes_;
    Limb* __restrict__ A = a_data() + base;
    Limb* __restrict__ B = b_data() + base;

    // ---- scalar -> vector state load ----
    alignas(VecTraits::kBytes) Limb t32[W];
    std::array<std::uint8_t, W> init_live{};
    std::size_t R = 1;  // rows every live lane's operands fit, sign included
    for (std::size_t l = 0; l < W; ++l) {
      init_live[l] = active_[base + l];
      if (init_live[l]) {
        R = std::max(R, std::max(lx_[base + l], ly_[base + l]) + 1);
      }
    }
    cover_divsteps_rows(R);
    for (std::size_t l = 0; l < W; ++l) t32[l] = init_live[l] ? ~Limb{0} : 0;
    VL livem = v_load<VL>(t32);
    // bitlen(w) >= early ⟺ w has a bit at position early − 1 or above: the
    // row and in-row shift of that bit (early >= 1 on resident groups).
    for (std::size_t l = 0; l < W; ++l) {
      t32[l] = Limb((eff_early_[base + l] - 1) / LB);
    }
    const SL krow = (SL)v_load<VL>(t32);
    for (std::size_t l = 0; l < W; ++l) {
      t32[l] = Limb((eff_early_[base + l] - 1) % LB);
    }
    const VL kbit = v_load<VL>(t32);
    for (std::size_t l = 0; l < W; ++l) {
      t32[l] = Limb(gcd::divsteps_pass_bound(
          std::max(lx_[base + l], ly_[base + l]) * LB));
    }
    const SL bound = (SL)v_load<VL>(t32);

    const VL one = VL{} + 1;
    const VL k2p30 = VL{} + (Limb(1) << 30);
    const VL topbit = VL{} + (Limb(1) << 31);
    const U64V lowmask = U64V{} + kMask;
    const U64V hikeep = U64V{} + (Wide(kMask) << LB);
    // Each accumulator holds its true signed value + 2^63, so the carry is a
    // logical shift (no 64-bit arithmetic shift on AVX2): carry + 2^31. The
    // per-row offset term absorbs the 2^63 − 2^31 that keeps the bias.
    const U64V acc0 = U64V{} + (Wide(1) << 63);
    const U64V rebias = U64V{} + ((Wide(1) << 63) - (Wide(1) << 31));

    SL eta = SL{} - 1;  // −δ per lane, δ = 1 at the start
    VL passes{};
    VL rstop{};  // R when each lane stopped

    while (true) {
      // ---- stop rule: bitlen(x ⊕ sign(x)) < early, scanned from the top ---
      // The same scan finds the rows the live lanes need: the first row from
      // the top where some x ⊕ sign(x) is nonzero, plus a sign row when that
      // word's top bit is set.
      {
        const VL sf = (VL)((SL)v_load<VL>(A + (R - 1) * L) >> 31);
        const VL sg = (VL)((SL)v_load<VL>(B + (R - 1) * L) >> 31);
        VL bigf{}, bigg{};
        std::size_t need = 1;
        for (std::size_t i = R; i-- > 0;) {
          const VL fa = v_load<VL>(A + i * L) ^ sf;
          const VL ga = v_load<VL>(B + i * L) ^ sg;
          if (need == 1) {
            const VL top = (fa | ga) & livem;
            if (VT::movemask((VL)(top != VL{}))) {
              need = i + 1 + (VT::movemask(top) ? 1 : 0);
            }
          }
          const SL iv = SL{} + std::int32_t(i);
          const VL above = (VL)(krow < iv);
          const VL at = (VL)(krow == iv);
          bigf |= (above & (VL)(fa != VL{})) |
                  (at & (VL)((fa >> kbit) != VL{}));
          bigg |= (above & (VL)(ga != VL{})) |
                  (at & (VL)((ga >> kbit) != VL{}));
          // Settled: both operands reach `early` bits, or the scan has
          // covered the lane's early row.
          const VL settled = (bigf & bigg) | (VL)(krow >= iv) | ~livem;
          if (!VT::movemask(~settled)) break;
        }
        const VL stop = livem & ~(bigf & bigg);
        rstop = stop ? VL{} + Limb(R) : rstop;
        livem &= ~stop;
        R = need;
      }
      if (!VT::movemask(livem)) break;
      passes -= livem;  // masks are 0/~0: subtracting counts the live lanes
      if (VT::movemask((VL)((SL)passes > bound))) [[unlikely]] {
        throw std::logic_error(
            "vector divsteps pass: a lane ran past its operands' pass bound");
      }

      // ---- head: 30 divsteps on limb row 0, all lanes at once ----
      VL f = v_load<VL>(A);
      VL g = v_load<VL>(B);
      VL u = one, v{}, q{}, r = one;
      VL e = (VL)eta;
      for (int step = 0; step < gcd::kDivstepsPerPass; ++step) {
        const VL c1 = (VL)((SL)e >> 31);  // δ > 0
        const VL c2 = VL{} - (g & one);   // g odd
        g += ((f ^ c1) - c1) & c2;
        q += ((u ^ c1) - c1) & c2;
        r += ((v ^ c1) - c1) & c2;
        const VL c3 = c1 & c2;
        e = (e ^ c3) + ~c3;
        f += g & c3;
        u += q & c3;
        v += r & c3;
        g >>= 1;
        u <<= 1;
        v <<= 1;
      }
      eta = (SL)e;
      u = livem ? u : k2p30;
      v = livem ? v : VL{};
      q = livem ? q : VL{};
      r = livem ? r : k2p30;

      // ---- one sweep: (u·f + v·g) / 2^30 and (q·f + r·g) / 2^30 ----
      // Matrix entries offset by 2^30 are in [0, 2^31], so each product is
      // one unsigned 32 × 32 multiply; 2^30·(f_i + g_i) takes the offsets
      // back out. Even lanes sit in the low half of each 64-bit pair, odd
      // lanes in the high half.
      const U64V ue = (U64V)(u + k2p30), ve = (U64V)(v + k2p30);
      const U64V qe = (U64V)(q + k2p30), re = (U64V)(r + k2p30);
      const U64V uo = ue >> LB, vo = ve >> LB, qo = qe >> LB, ro = re >> LB;
      U64V afe = acc0, afo = acc0, age = acc0, ago = acc0;
      VL pf{}, pg{}, fv{}, gv{};
      for (std::size_t i = 0; i < R; ++i) {
        fv = v_load<VL>(A + i * L);
        gv = v_load<VL>(B + i * L);
        const U64V fo = (U64V)fv >> LB;
        const U64V go = (U64V)gv >> LB;
        const U64V se =
            ((((U64V)fv & lowmask) + ((U64V)gv & lowmask)) << 30) - rebias;
        const U64V so = ((fo + go) << 30) - rebias;
        afe = VT::mul32(ue, (U64V)fv) + VT::mul32(ve, (U64V)gv) - se +
              (afe >> LB);
        afo = VT::mul32(uo, fo) + VT::mul32(vo, go) - so + (afo >> LB);
        age = VT::mul32(qe, (U64V)fv) + VT::mul32(re, (U64V)gv) - se +
              (age >> LB);
        ago = VT::mul32(qo, fo) + VT::mul32(ro, go) - so + (ago >> LB);
        const VL tf = (VL)((afe & lowmask) | (afo << LB));
        const VL tg = (VL)((age & lowmask) | (ago << LB));
        if (i > 0) {
          v_store(A + (i - 1) * L, (pf >> 30) | (tf << (LB - 30)));
          v_store(B + (i - 1) * L, (pg >> 30) | (tg << (LB - 30)));
        }
        pf = tf;
        pg = tg;
      }
      // The carry out of row R − 1, unbiased, less what the unsigned read
      // of the signed top row added: u·[f < 0] + v·[g < 0] (times 2^32R).
      const VL msf = (VL)((SL)fv >> 31);
      const VL msg = (VL)((SL)gv >> 31);
      const VL hf = ((VL)((afe >> LB) | (afo & hikeep)) ^ topbit) -
                    (u & msf) - (v & msg);
      const VL hg = ((VL)((age >> LB) | (ago & hikeep)) ^ topbit) -
                    (q & msf) - (r & msg);
      v_store(A + (R - 1) * L, (pf >> 30) | (hf << (LB - 30)));
      v_store(B + (R - 1) * L, (pg >> 30) | (hg << (LB - 30)));
    }

    // ---- group epilogue: finish each lane, stats and branch traces ----
    alignas(VecTraits::kBytes) Limb pa[W], ra[W];
    v_store(pa, passes);
    v_store(ra, rstop);
    for (std::size_t l = 0; l < W; ++l) {
      if (!init_live[l]) continue;
      const std::size_t lane = base + l;
      const auto end = gcd::divsteps_finish(Strided<Limb>{A + l, L},
                                            Strided<Limb>{B + l, L}, ra[l],
                                            eff_early_[lane]);
      lx_[lane] = end.lx;
      ly_[lane] = end.ly;
      swapped_[lane] = end.swapped ? 1 : 0;
      active_[lane] = 0;
      auto& log = branch_log_[lane];
      log.insert(log.end(), pa[l], std::uint8_t{0});
      stats_.lane_iterations += log.size();
      tally.iterations += pa[l];
    }
  }

  /// Unaligned vector load/store (the batch matrices only guarantee the
  /// allocator's alignment); compiles to vmovdqu / vmovdqu32.
  template <class V, class T>
  static V v_load(const T* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
  }
  template <class V, class T>
  static void v_store(T* p, V v) noexcept {
    std::memcpy(p, &v, sizeof(V));
  }

  std::size_t lanes_, cap_, warp_;
  ColumnMatrix<Limb> mat_;
  std::vector<std::size_t> lx_, ly_;
  std::vector<std::size_t> early_;
  std::vector<std::size_t> eff_early_;
  std::vector<std::uint8_t> swapped_, active_;
  // Dirty-row watermarks — identical invariant to SimtBatch: kernel writes
  // never land above a value's staged size + 1 (the β write row), so panel
  // refreshes only zero what a previous run may have touched.
  std::size_t x_rows_ = 0, y_rows_ = 0;
  std::vector<std::vector<std::uint8_t>> branch_log_;
  SimtStats stats_;
  gcd::NullTracer null_tracer_;
};

}  // namespace BULKGCD_VEC_IMPL_NS
}  // namespace bulkgcd::bulk
