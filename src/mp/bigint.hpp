// Arbitrary-precision unsigned integer built on the span kernels.
//
// BigIntT<Limb> owns a normalized little-endian limb vector (empty == 0).
// The default alias `BigInt` uses 32-bit limbs, the paper's d = 32 word size.
// Heavy inner loops (the GCD family, the SIMT engine) do NOT use this class —
// they run on raw limb buffers via src/gcd and src/bulk; BigInt is the
// convenience layer for RSA, corpus generation and tests. The batch tree
// computes on BigInt64, whose products and divisions touch half the limbs.
// repack_limbs / repack move values between limb widths.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/limb_traits.hpp"
#include "mp/span_ops.hpp"

namespace bulkgcd::mp {

template <LimbType Limb>
class BigIntT {
 public:
  using limb_type = Limb;
  static constexpr int kLimbBits = limb_bits<Limb>;

  BigIntT() = default;

  /// From a machine word.
  explicit BigIntT(std::uint64_t value) {
    while (value != 0) {
      limbs_.push_back(Limb(value));
      if constexpr (kLimbBits >= 64) {
        value = 0;
      } else {
        value >>= kLimbBits;
      }
    }
  }

  /// From little-endian limbs, copied or taken over (normalizes).
  static BigIntT from_limbs(std::span<const Limb> limbs) {
    BigIntT out;
    out.limbs_.assign(limbs.begin(), limbs.end());
    out.trim();
    return out;
  }
  static BigIntT from_limbs(std::vector<Limb>&& limbs) {
    BigIntT out;
    out.limbs_ = std::move(limbs);
    out.trim();
    return out;
  }

  /// Parse "0x..."-optional hex; '_' and ',' between digits are ignored.
  /// Throws std::invalid_argument on bad input. One pass, linear in the text.
  static BigIntT from_hex(std::string_view text);
  /// Parse bare hex digits with ASCII whitespace between them (a hex dump);
  /// no prefix, and no digits at all is zero. Throws std::invalid_argument
  /// on any other character.
  static BigIntT from_spaced_hex(std::string_view text);
  /// The big-endian magnitude `bytes` (a DER INTEGER's content, raw key
  /// bytes); leading zero bytes are allowed and normalized away.
  static BigIntT from_bytes_be(std::span<const std::uint8_t> bytes);
  /// Parse decimal. Throws std::invalid_argument on bad input.
  static BigIntT from_dec(std::string_view text);

  std::string to_hex() const;
  std::string to_dec() const;
  /// The paper's comma-grouped binary rendering, e.g. "1101,1111".
  std::string to_binary_grouped(std::size_t group = 4) const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1u); }
  bool is_even() const noexcept { return !is_odd(); }

  std::size_t size() const noexcept { return limbs_.size(); }
  std::size_t bit_length() const noexcept {
    return mp::bit_length(limbs_.data(), limbs_.size());
  }
  bool bit(std::size_t i) const noexcept {
    return mp::get_bit(limbs_.data(), limbs_.size(), i);
  }
  std::size_t trailing_zero_bits() const noexcept {
    return is_zero() ? 0
                     : mp::count_trailing_zero_bits(limbs_.data(), limbs_.size());
  }

  const Limb* data() const noexcept { return limbs_.data(); }
  std::span<const Limb> limbs() const noexcept { return limbs_; }
  Limb limb(std::size_t i) const noexcept {
    return i < limbs_.size() ? limbs_[i] : Limb{0};
  }

  /// Low 64 bits of the value.
  std::uint64_t to_u64() const noexcept {
    std::uint64_t out = 0;
    const std::size_t n = 64 / kLimbBits == 0 ? 1 : 64 / kLimbBits;
    for (std::size_t i = 0; i < n && i < limbs_.size(); ++i) {
      out |= std::uint64_t(limbs_[i]) << (i * kLimbBits);
    }
    return out;
  }

  friend bool operator==(const BigIntT& a, const BigIntT& b) noexcept {
    return a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigIntT& a, const BigIntT& b) noexcept {
    const int c = compare(a.limbs_.data(), a.limbs_.size(), b.limbs_.data(),
                          b.limbs_.size());
    return c < 0   ? std::strong_ordering::less
           : c > 0 ? std::strong_ordering::greater
                   : std::strong_ordering::equal;
  }

  BigIntT& operator+=(const BigIntT& other);
  BigIntT& operator-=(const BigIntT& other);  ///< requires *this >= other
  BigIntT& operator<<=(std::size_t bits);
  BigIntT& operator>>=(std::size_t bits);

  friend BigIntT operator+(BigIntT a, const BigIntT& b) { return a += b; }
  friend BigIntT operator-(BigIntT a, const BigIntT& b) { return a -= b; }
  friend BigIntT operator<<(BigIntT a, std::size_t bits) { return a <<= bits; }
  friend BigIntT operator>>(BigIntT a, std::size_t bits) { return a >>= bits; }

  friend BigIntT operator*(const BigIntT& a, const BigIntT& b) { return mul(a, b); }
  friend BigIntT operator/(const BigIntT& a, const BigIntT& b) {
    return divmod(a, b).first;
  }
  friend BigIntT operator%(const BigIntT& a, const BigIntT& b) {
    return divmod(a, b).second;
  }

  /// Product; dispatches to Karatsuba above a size threshold.
  static BigIntT mul(const BigIntT& a, const BigIntT& b);
  /// (quotient, remainder); throws std::domain_error on division by zero.
  /// Dispatches to Newton-reciprocal division above a size threshold.
  static std::pair<BigIntT, BigIntT> divmod(const BigIntT& a, const BigIntT& b);

  /// Strip trailing zero bits — the paper's rshift(X).
  BigIntT& strip_trailing_zeros() {
    limbs_.resize(mp::strip_trailing_zeros(limbs_.data(), limbs_.size()));
    return *this;
  }

 private:
  void trim() { limbs_.resize(normalized_size(limbs_.data(), limbs_.size())); }

  std::vector<Limb> limbs_;  // little-endian, normalized
};

/// Repack little-endian limbs from one width to another: calls emit(Dst)
/// once per limb of the value's normalized Dst encoding, least significant
/// first — exactly limbs_for_bits<Dst>(bit length) limbs, so a value whose
/// top half-limb is zero never emits a zero top limb. This is the one width
/// converter: corpus staging, hit reporting, the batch tree's edges and the
/// journals' canonical 32-bit limb encoding all go through it.
template <LimbType Dst, LimbType Src, typename Emit>
void repack_limbs(std::span<const Src> src, Emit&& emit) {
  constexpr int kSrcBits = limb_bits<Src>;
  constexpr int kDstBits = limb_bits<Dst>;
  std::size_t left =
      limbs_for_bits<Dst>(mp::bit_length(src.data(), src.size()));
  __extension__ using Acc = unsigned __int128;
  Acc acc = 0;
  int acc_bits = 0;
  for (const Src limb : src) {
    if (left == 0) return;
    acc |= Acc(limb) << acc_bits;
    acc_bits += kSrcBits;
    while (acc_bits >= kDstBits && left > 0) {
      emit(Dst(acc));
      acc >>= kDstBits;
      acc_bits -= kDstBits;
      --left;
    }
  }
  if (left > 0) emit(Dst(acc));
}

template <LimbType Dst, LimbType Src>
std::vector<Dst> repack_limbs(std::span<const Src> src) {
  std::vector<Dst> out;
  out.reserve(limbs_for_bits<Dst>(mp::bit_length(src.data(), src.size())));
  repack_limbs<Dst>(src, [&out](Dst limb) { out.push_back(limb); });
  return out;
}

/// The value of little-endian `limbs` at limb width Dst.
template <LimbType Dst, LimbType Src>
BigIntT<Dst> repack(std::span<const Src> limbs) {
  return BigIntT<Dst>::from_limbs(repack_limbs<Dst>(limbs));
}

/// The same value at limb width Dst.
template <LimbType Dst, LimbType Src>
BigIntT<Dst> repack(const BigIntT<Src>& value) {
  if constexpr (std::is_same_v<Dst, Src>) {
    return value;
  } else {
    return repack<Dst>(value.limbs());
  }
}

using BigInt = BigIntT<std::uint32_t>;
using BigInt16 = BigIntT<std::uint16_t>;
using BigInt64 = BigIntT<std::uint64_t>;

extern template class BigIntT<std::uint16_t>;
extern template class BigIntT<std::uint32_t>;
extern template class BigIntT<std::uint64_t>;

}  // namespace bulkgcd::mp
