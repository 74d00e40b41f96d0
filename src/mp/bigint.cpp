#include "mp/bigint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <stdexcept>

#include "mp/newton_div.hpp"

namespace bulkgcd::mp {

namespace {

constexpr std::int8_t kBadDigit = -1;
constexpr std::int8_t kSkipDigit = -2;

/// Digit value of every byte: 0..15, kSkipDigit for the separators
/// `skip` names, kBadDigit for the rest.
using HexTable = std::array<std::int8_t, 256>;

constexpr HexTable make_hex_table(std::string_view skip) {
  HexTable table{};
  table.fill(kBadDigit);
  for (int c = 0; c < 10; ++c) table['0' + c] = std::int8_t(c);
  for (int c = 0; c < 6; ++c) {
    table['a' + c] = std::int8_t(10 + c);
    table['A' + c] = std::int8_t(10 + c);
  }
  for (const char c : skip) table[std::uint8_t(c)] = kSkipDigit;
  return table;
}

constexpr HexTable kGroupedHex = make_hex_table("_,");
constexpr HexTable kSpacedHex = make_hex_table(" \t\n\v\f\r");

/// One pass from the last digit to the first: each limb fills in a register,
/// kLimbBits / 4 digits at a time, and is stored once into a vector sized
/// from the text.
template <LimbType Limb>
std::vector<Limb> hex_limbs(std::string_view text, const HexTable& table) {
  constexpr int kBits = limb_bits<Limb>;
  constexpr std::size_t kDigitsPerLimb = kBits / 4;
  std::vector<Limb> limbs((text.size() + kDigitsPerLimb - 1) / kDigitsPerLimb);
  std::size_t stored = 0;
  Limb acc = 0;
  int shift = 0;
  for (std::size_t i = text.size(); i-- > 0;) {
    const std::int8_t digit = table[std::uint8_t(text[i])];
    if (digit < 0) {
      if (digit == kSkipDigit) continue;
      throw std::invalid_argument("BigInt::from_hex: bad digit");
    }
    acc |= Limb(Limb(digit) << shift);
    shift += 4;
    if (shift == kBits) {
      limbs[stored++] = acc;
      acc = 0;
      shift = 0;
    }
  }
  if (shift != 0) limbs[stored++] = acc;
  limbs.resize(stored);
  return limbs;
}

}  // namespace

template <LimbType Limb>
BigIntT<Limb> BigIntT<Limb>::from_hex(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
  if (text.empty()) throw std::invalid_argument("BigInt::from_hex: empty input");
  return from_limbs(hex_limbs<Limb>(text, kGroupedHex));
}

template <LimbType Limb>
BigIntT<Limb> BigIntT<Limb>::from_spaced_hex(std::string_view text) {
  return from_limbs(hex_limbs<Limb>(text, kSpacedHex));
}

template <LimbType Limb>
BigIntT<Limb> BigIntT<Limb>::from_bytes_be(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kBytesPerLimb = kLimbBits / 8;
  std::vector<Limb> limbs((bytes.size() + kBytesPerLimb - 1) / kBytesPerLimb);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t at = bytes.size() - 1 - i;  // byte i from the bottom
    limbs[i / kBytesPerLimb] |=
        Limb(Limb(bytes[at]) << (8 * (i % kBytesPerLimb)));
  }
  return from_limbs(std::move(limbs));
}

template <LimbType Limb>
BigIntT<Limb> BigIntT<Limb>::from_dec(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt::from_dec: empty input");
  BigIntT out;
  for (char c : text) {
    if (c == '_' || c == ',') continue;
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("BigInt::from_dec: bad digit");
    }
    // out = out * 10 + digit
    std::vector<Limb> tmp(out.limbs_.size() + 1);
    tmp.resize(mul_word(tmp.data(), out.limbs_.data(), out.limbs_.size(), Limb{10}));
    out.limbs_ = std::move(tmp);
    const Limb digit = Limb(c - '0');
    if (digit != 0) {
      const Limb d[1] = {digit};
      out.limbs_.resize(out.limbs_.size() + 1);
      out.limbs_.resize(add(out.limbs_.data(), out.limbs_.data(),
                            out.limbs_.size() - 1, d, 1));
    }
  }
  return out;
}

template <LimbType Limb>
std::string BigIntT<Limb>::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(limbs_.size() * std::size_t(kLimbBits / 4));
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = kLimbBits - 4; shift >= 0; shift -= 4) {
      const int nibble = int((limbs_[i] >> shift) & 0xF);
      if (leading && nibble == 0) continue;
      leading = false;
      out.push_back(kDigits[nibble]);
    }
  }
  return out;
}

template <LimbType Limb>
std::string BigIntT<Limb>::to_dec() const {
  if (is_zero()) return "0";
  std::vector<Limb> work(limbs_);
  std::string out;
  // Peel off the largest power of ten fitting a limb per division.
  constexpr int kDigitsPerChunk = kLimbBits == 16 ? 4 : kLimbBits == 32 ? 9 : 19;
  Limb chunk_div = 1;
  for (int i = 0; i < kDigitsPerChunk; ++i) chunk_div = Limb(chunk_div * 10);
  while (!work.empty()) {
    const Limb rem = divrem_word(work.data(), work.data(), work.size(), chunk_div);
    work.resize(normalized_size(work.data(), work.size()));
    std::uint64_t r = rem;
    for (int i = 0; i < kDigitsPerChunk; ++i) {
      out.push_back(char('0' + r % 10));
      r /= 10;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  std::reverse(out.begin(), out.end());
  return out;
}

template <LimbType Limb>
std::string BigIntT<Limb>::to_binary_grouped(std::size_t group) const {
  if (is_zero()) return "0";
  // Pad to a whole number of groups, as the paper prints d-bit words
  // ("0100,0011,0010,0001" keeps the leading zero of its top nibble).
  const std::size_t bits = (bit_length() + group - 1) / group * group;
  std::string out;
  for (std::size_t i = bits; i-- > 0;) {
    out.push_back(bit(i) ? '1' : '0');
    if (i != 0 && i % group == 0) out.push_back(',');
  }
  return out;
}

template <LimbType Limb>
BigIntT<Limb>& BigIntT<Limb>::operator+=(const BigIntT& other) {
  limbs_.resize(std::max(limbs_.size(), other.limbs_.size()) + 1, Limb{0});
  limbs_.resize(add(limbs_.data(), limbs_.data(), limbs_.size() - 1,
                    other.limbs_.data(), other.limbs_.size()));
  return *this;
}

template <LimbType Limb>
BigIntT<Limb>& BigIntT<Limb>::operator-=(const BigIntT& other) {
  if (*this < other) throw std::domain_error("BigInt subtraction underflow");
  limbs_.resize(sub(limbs_.data(), limbs_.data(), limbs_.size(),
                    other.limbs_.data(), other.limbs_.size()));
  return *this;
}

template <LimbType Limb>
BigIntT<Limb>& BigIntT<Limb>::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  std::vector<Limb> out(limbs_.size() + bits / kLimbBits + 1);
  out.resize(shl(out.data(), limbs_.data(), limbs_.size(), bits));
  limbs_ = std::move(out);
  return *this;
}

template <LimbType Limb>
BigIntT<Limb>& BigIntT<Limb>::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  limbs_.resize(shr(limbs_.data(), limbs_.data(), limbs_.size(), bits));
  return *this;
}

template <LimbType Limb>
BigIntT<Limb> BigIntT<Limb>::mul(const BigIntT& a, const BigIntT& b) {
  BigIntT out;
  if (a.is_zero() || b.is_zero()) return out;
  if (std::min(a.size(), b.size()) >= kKaratsubaThreshold) {
    // mul_dispatch climbs the full ladder: Karatsuba here, the NTT once
    // both operands clear kNttThreshold words and it pays (the batch-GCD
    // tree regime).
    out.limbs_ = mul_dispatch(a.limbs_.data(), a.size(), b.limbs_.data(), b.size());
    return out;
  }
  out.limbs_.resize(a.size() + b.size());
  out.limbs_.resize(mul_schoolbook(out.limbs_.data(), a.limbs_.data(), a.size(),
                                   b.limbs_.data(), b.size()));
  return out;
}

template <LimbType Limb>
std::pair<BigIntT<Limb>, BigIntT<Limb>> BigIntT<Limb>::divmod(const BigIntT& a,
                                                              const BigIntT& b) {
  if (b.is_zero()) throw std::domain_error("BigInt division by zero");
  BigIntT q, r;
  if (a < b) {
    r = a;
    return {std::move(q), std::move(r)};
  }
  q.limbs_.resize(a.size() - b.size() + 1);
  r.limbs_.resize(b.size());
  // divrem_dispatch climbs the division ladder: Knuth D, then Newton once
  // divisor and quotient clear kNewtonDivThreshold (the tree descent).
  const DivSizes sizes = divrem_dispatch(q.limbs_.data(), r.limbs_.data(),
                                         a.limbs_.data(), a.size(),
                                         b.limbs_.data(), b.size());
  q.limbs_.resize(sizes.quotient);
  r.limbs_.resize(sizes.remainder);
  return {std::move(q), std::move(r)};
}

template class BigIntT<std::uint16_t>;
template class BigIntT<std::uint32_t>;
template class BigIntT<std::uint64_t>;

}  // namespace bulkgcd::mp
