// Bernstein–Yang divsteps batched thirty to a full-width pass
// (Variant::kDivsteps) — the reference kernel every engine runs lane by lane,
// and the arithmetic the vector engine's resident pass reproduces on W lanes
// (bulk/vec/vec_batch_impl.hpp; docs/ALGORITHMS.md has the proofs).
//
// A divstep maps (δ, f, g) with f odd to
//   (1 − δ, g, (g − f)/2)   if δ > 0 and g is odd,
//   (1 + δ, f, (g + f)/2)   if g is odd,
//   (1 + δ, f, g/2)         otherwise,
// starting from δ = 1 (D. J. Bernstein and B.-Y. Yang, "Fast constant-time
// gcd computation and modular inversion", 2019). f and g stay multiples of
// the odd gcd, max(|f|, |g|) never grows, and g reaches 0 with f = ±gcd.
// The first 30 decisions depend only on the low 32 bits of f and g, so a pass
// takes them from limb row 0 alone, collects them in a signed 2×2 matrix
// scaled by 2^30 (|u| + |v| ≤ 2^30, |q| + |r| ≤ 2^30 — the int32 batching of
// libsecp256k1's modinv32), and then sweeps the operands once to form
// ((u·f + v·g) / 2^30, (q·f + r·g) / 2^30) exactly.
//
// Operands are two's complement over n limb rows, row n − 1 read as signed;
// both always fit the rows they started in, and n shrinks as they do.
//
// Stop rule, checked before every pass: g = 0, or (early > 0) an operand x
// has bitlen(x ⊕ sign(x)) < early. A stopped lane reports a hit — not
// early-coprime, gcd = |f| — exactly when g = 0 and bitlen(|f|) ≥ early: the
// Section-V outcome of Approximate Euclidean for every early ≥ 2.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "gcd/kernels.hpp"
#include "gcd/tracer.hpp"
#include "mp/limb_traits.hpp"

namespace bulkgcd::gcd {

/// Divsteps per full-width pass: the most an int32 matrix holds.
inline constexpr int kDivstepsPerPass = 30;

/// One pass's transition matrix, scaled by 2^30.
struct DivstepsMatrix {
  std::int32_t u = 0, v = 0, q = 0, r = 0;
};

/// 30 divsteps on the low 32 bits of f (odd) and g. η = −δ is carried
/// between passes (η = −1 at the start); returns the new η. Every operation
/// is the same for either branch (masks, not jumps) — the form the vector
/// engine runs on all W lanes at once.
inline std::int32_t divsteps_30(std::int32_t eta, std::uint32_t f,
                                std::uint32_t g, DivstepsMatrix& t) noexcept {
  std::uint32_t u = 1, v = 0, q = 0, r = 1;  // arithmetic mod 2^32
  std::uint32_t e = std::uint32_t(eta);
  for (int i = 0; i < kDivstepsPerPass; ++i) {
    const std::uint32_t c1 = std::uint32_t(std::int32_t(e) >> 31);  // δ > 0
    const std::uint32_t c2 = 0u - (g & 1u);                         // g odd
    g += ((f ^ c1) - c1) & c2;  // g ± f
    q += ((u ^ c1) - c1) & c2;
    r += ((v ^ c1) - c1) & c2;
    const std::uint32_t c3 = c1 & c2;  // the swapping branch
    e = (e ^ c3) + ~c3;                // δ → 1 − δ, or δ → 1 + δ
    f += g & c3;                       // f → g (the old g)
    u += q & c3;
    v += r & c3;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {std::int32_t(u), std::int32_t(v), std::int32_t(q), std::int32_t(r)};
  return std::int32_t(e);
}

/// (f, g) ← ((u·f + v·g) / 2^30, (q·f + r·g) / 2^30) over n two's-complement
/// rows, in place, least significant row first: one read and one write of
/// every row of both operands (f in buffer A, g in B for the tracer). The
/// divisions are exact when the matrix came from divsteps_30 on these
/// operands.
template <LimbAccessor FA, LimbAccessor GA, typename Tracer = NullTracer>
void divsteps_update(FA f, GA g, std::size_t n, const DivstepsMatrix& t,
                     Tracer& tracer) noexcept {
  using Limb = accessor_limb_t<FA>;
  using WideS = typename mp::LimbTraits<Limb>::WideS;
  using SLimb = std::make_signed_t<Limb>;
  constexpr int LB = mp::limb_bits<Limb>;
  static_assert(LB >= 32, "a pass reads 32 low bits from limb row 0");
  WideS cf = 0, cg = 0;
  Limb pf = 0, pg = 0;  // the previous row of u·f + v·g and q·f + r·g
  for (std::size_t i = 0; i < n; ++i) {
    tracer.read(Buffer::kA, i);
    tracer.read(Buffer::kB, i);
    const bool top = i + 1 == n;
    const WideS fi = top ? WideS(SLimb(f[i])) : WideS(f[i]);
    const WideS gi = top ? WideS(SLimb(g[i])) : WideS(g[i]);
    cf += WideS(t.u) * fi + WideS(t.v) * gi;
    cg += WideS(t.q) * fi + WideS(t.r) * gi;
    const Limb lf = Limb(cf), lg = Limb(cg);
    cf >>= LB;  // arithmetic: the carries are signed
    cg >>= LB;
    if (i > 0) {
      f[i - 1] = Limb(pf >> 30) | Limb(lf << (LB - 30));
      g[i - 1] = Limb(pg >> 30) | Limb(lg << (LB - 30));
      tracer.write(Buffer::kA, i - 1);
      tracer.write(Buffer::kB, i - 1);
    }
    pf = lf;
    pg = lg;
  }
  f[n - 1] = Limb(pf >> 30) | Limb(Limb(cf) << (LB - 30));
  g[n - 1] = Limb(pg >> 30) | Limb(Limb(cg) << (LB - 30));
  tracer.write(Buffer::kA, n - 1);
  tracer.write(Buffer::kB, n - 1);
}

/// Sign fill of a two's-complement value over n rows: 0 or all ones.
template <LimbAccessor XA>
accessor_limb_t<XA> twos_sign(const XA& x, std::size_t n) noexcept {
  using Limb = accessor_limb_t<XA>;
  return Limb(Limb{0} - Limb(x[n - 1] >> (mp::limb_bits<Limb> - 1)));
}

/// bitlen(x ⊕ sign(x)) of a two's-complement value over n rows: the bit
/// length of x for x ≥ 0, of |x| − 1 for x < 0.
template <LimbAccessor XA>
std::size_t twos_bit_length(const XA& x, std::size_t n) noexcept {
  using Limb = accessor_limb_t<XA>;
  constexpr std::size_t LB = mp::limb_bits<Limb>;
  const Limb s = twos_sign(x, n);
  for (std::size_t i = n; i-- > 0;) {
    if (const Limb w = Limb(x[i] ^ s); w != 0) {
      return i * LB + std::size_t(std::bit_width(w));
    }
  }
  return 0;
}

/// The stop rule (header comment), on operands over n rows.
template <LimbAccessor FA, LimbAccessor GA>
bool divsteps_stopped(const FA& f, const GA& g, std::size_t n,
                      std::size_t early_bits) noexcept {
  if (early_bits == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (g[i] != 0) return false;
    }
    return true;
  }
  return twos_bit_length(f, n) < early_bits ||
         twos_bit_length(g, n) < early_bits;
}

/// Rows both operands still need: drops row n − 1 while it is the sign
/// extension of row n − 2 in f and in g.
template <LimbAccessor FA, LimbAccessor GA>
std::size_t divsteps_rows(const FA& f, const GA& g, std::size_t n) noexcept {
  using Limb = accessor_limb_t<FA>;
  using SLimb = std::make_signed_t<Limb>;
  constexpr int LB = mp::limb_bits<Limb>;
  auto sext = [](Limb w) { return Limb(SLimb(w) >> (LB - 1)); };
  while (n > 1 && f[n - 1] == sext(f[n - 2]) && g[n - 1] == sext(g[n - 2])) {
    --n;
  }
  return n;
}

/// Passes a sound lane can run on operands below 2^bits: g is 0 after
/// ⌊(49·bits + 80) / 17⌋ divsteps (Bernstein–Yang, Theorem 11.2, taken for
/// every bits since it exceeds the small-input bound), and the stop rule
/// fires there at the latest.
constexpr std::size_t divsteps_pass_bound(std::size_t bits) noexcept {
  const std::size_t steps = (49 * bits + 80) / 17;
  return (steps + kDivstepsPerPass - 1) / kDivstepsPerPass;
}

/// In-place |x| over n rows; returns its normalized size (rows above it
/// become zero).
template <LimbAccessor XA>
std::size_t twos_magnitude(XA x, std::size_t n) noexcept {
  using Limb = accessor_limb_t<XA>;
  if (twos_sign(x, n) != 0) {
    Limb carry = 1;
    for (std::size_t i = 0; i < n; ++i) {
      const Limb w = Limb(~x[i] + carry);
      carry = Limb(carry & (w == 0 ? 1u : 0u));
      x[i] = w;
    }
  }
  return acc_normalized_size(x, n);
}

/// A stopped lane in the shape every engine reports (X, Y, swapped): X = |f|
/// and Y = 0 for a hit (gcd = |f|); otherwise Y is a nonzero operand below
/// early bits — |g|, or |f| (then X = g = 0 and the roles swap) — so
/// "Y > 0" is the early-coprime verdict, as for Approximate Euclidean.
struct DivstepsEnd {
  std::size_t lx = 0, ly = 0;
  bool swapped = false;  ///< X is the g operand
};

template <LimbAccessor FA, LimbAccessor GA>
DivstepsEnd divsteps_finish(FA f, GA g, std::size_t n,
                            std::size_t early_bits) noexcept {
  using Limb = accessor_limb_t<FA>;
  constexpr std::size_t LB = mp::limb_bits<Limb>;
  const std::size_t lf = twos_magnitude(f, n);
  const std::size_t lg = twos_magnitude(g, n);
  if (lg != 0) return {lf, lg, false};
  const std::size_t bits =
      lf == 0 ? 0 : (lf - 1) * LB + std::size_t(std::bit_width(f[lf - 1]));
  if (bits >= early_bits) return {lf, 0, false};
  return {0, lf, true};
}

/// One lane of Variant::kDivsteps from start to stop: f and g hold the two
/// positive operands (f odd) over n rows, the top one zero.
struct DivstepsRun {
  std::size_t passes = 0;
  DivstepsEnd end;
};

/// Throws std::invalid_argument for limbs narrower than the 32 bits a pass
/// reads, and std::logic_error past the pass bound.
template <LimbAccessor FA, LimbAccessor GA, typename Tracer = NullTracer>
DivstepsRun divsteps_run(FA f, GA g, std::size_t n, std::size_t early_bits,
                         Tracer& tracer) {
  constexpr std::size_t LB = mp::limb_bits<accessor_limb_t<FA>>;
  if constexpr (LB < 32) {
    throw std::invalid_argument("divsteps needs limbs of at least 32 bits");
  } else {
    const std::size_t bound = divsteps_pass_bound((n - 1) * LB);
    DivstepsRun run;
    std::int32_t eta = -1;
    while (!divsteps_stopped(f, g, n, early_bits)) {
      if (++run.passes > bound) {
        throw std::logic_error(
            "divsteps: a lane ran past its operands' pass bound");
      }
      tracer.mark();
      tracer.read(Buffer::kA, 0);  // the head's row 0
      tracer.read(Buffer::kB, 0);
      DivstepsMatrix t;
      eta = divsteps_30(eta, std::uint32_t(f[0]), std::uint32_t(g[0]), t);
      divsteps_update(f, g, n, t, tracer);
      n = divsteps_rows(f, g, n);
    }
    run.end = divsteps_finish(f, g, n, early_bits);
    return run;
  }
}

}  // namespace bulkgcd::gcd
