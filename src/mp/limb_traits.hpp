// Limb-type traits. The paper stores numbers in d-bit words and performs the
// quotient approximation with one 2d-bit division; parameterizing every kernel
// on the limb type gives the d = 16/32/64 ablation (bench_ablation_wordsize)
// while d = 32 (the paper's choice) remains the library default.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace bulkgcd::mp {

template <typename Limb>
struct LimbTraits;

template <>
struct LimbTraits<std::uint16_t> {
  using Wide = std::uint32_t;          ///< holds a 2d-bit value
  using WideS = std::int32_t;          ///< signed 2d-bit (borrow math)
  static constexpr int bits = 16;
};

template <>
struct LimbTraits<std::uint32_t> {
  using Wide = std::uint64_t;
  using WideS = std::int64_t;
  static constexpr int bits = 32;
};

template <>
struct LimbTraits<std::uint64_t> {
  __extension__ using Wide = unsigned __int128;
  __extension__ using WideS = __int128;
  static constexpr int bits = 64;
};

template <typename Limb>
concept LimbType = requires { typename LimbTraits<Limb>::Wide; } &&
                   std::is_unsigned_v<Limb>;

template <LimbType Limb>
inline constexpr int limb_bits = LimbTraits<Limb>::bits;

/// 2^d as a Wide value ("D" in the paper).
template <LimbType Limb>
inline constexpr typename LimbTraits<Limb>::Wide limb_base =
    typename LimbTraits<Limb>::Wide{1} << limb_bits<Limb>;

/// Limbs in the normalized encoding of a `bits`-bit value.
template <LimbType Limb>
constexpr std::size_t limbs_for_bits(std::size_t bits) noexcept {
  return (bits + std::size_t(limb_bits<Limb>) - 1) / std::size_t(limb_bits<Limb>);
}

}  // namespace bulkgcd::mp
