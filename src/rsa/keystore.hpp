// Key material file I/O — the glue a practitioner needs around the attack:
// persist harvested moduli / generated corpora / broken keys as plain text
// and load them back. Format is deliberately simple (inspectable with any
// editor, diff-friendly):
//
//   # comments and blank lines ignored
//   modulus <hex>                       — one public modulus
//   keypair <n-hex> <e-hex> <d-hex> <p-hex> <q-hex>
//
// Files may mix both record kinds; loaders filter by what they need.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "rsa/rsa.hpp"

namespace bulkgcd::obs {
class MetricsRegistry;
}

namespace bulkgcd::rsa {

/// Order-sensitive 64-bit FNV-1a digest of a moduli list (limb data plus
/// per-modulus length plus count). The resumable scan driver stores it in
/// checkpoint headers to bind a checkpoint to the exact corpus it was taken
/// against — resuming against a reordered, grown, or edited corpus would
/// silently mislabel hit indices otherwise.
std::uint64_t corpus_digest(std::span<const mp::BigInt> moduli) noexcept;

/// 64-bit FNV-1a fingerprint of ONE modulus, hashed over the canonical
/// little-endian byte encoding of the value — exactly ⌈bit_length/8⌉ bytes,
/// no per-limb zero padding — so the same value fingerprints identically
/// whether the BigInt carries u16, u32, or u64 limbs. This is the shared
/// dedup fingerprint: the keystore loader's duplicate detection, the intake
/// service's dedup element, and the arrival journal's replayed dedup set all
/// use it, so "duplicate" means the same thing in every layer. Not a cryptographic hash — callers that must never
/// drop a key on a collision resolve it with an exact value compare
/// (svc::IntakeService does).
template <mp::LimbType Limb>
std::uint64_t modulus_fingerprint(const mp::BigIntT<Limb>& n) noexcept {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::size_t kLimbBytes = std::size_t(mp::limb_bits<Limb>) / 8;
  const auto limbs = n.limbs();
  const std::size_t bytes = (n.bit_length() + 7) / 8;
  std::uint64_t h = kOffset;
  for (std::size_t b = 0; b < bytes; ++b) {
    const std::uint64_t limb = std::uint64_t(limbs[b / kLimbBytes]);
    h = (h ^ ((limb >> (8 * (b % kLimbBytes))) & 0xff)) * kPrime;
  }
  return h;
}

/// Write moduli as `modulus <hex>` lines. Throws std::runtime_error on I/O
/// failure.
void save_moduli(const std::filesystem::path& path,
                 const std::vector<mp::BigInt>& moduli,
                 const std::string& comment = {});

/// Read every `modulus` record (and the n of every `keypair` record).
/// Throws std::runtime_error on I/O failure or malformed records.
/// With a metrics registry (docs/OBSERVABILITY.md) the load feeds
/// keystore_records_total / keystore_comment_lines_total /
/// keystore_duplicate_moduli_total, and keystore_parse_errors_total is
/// incremented before the malformed-record throw — a crashed load still
/// leaves the error visible in the last telemetry snapshot.
std::vector<mp::BigInt> load_moduli(const std::filesystem::path& path,
                                    obs::MetricsRegistry* metrics = nullptr);

/// Write full key pairs as `keypair` records.
void save_keypairs(const std::filesystem::path& path,
                   const std::vector<KeyPair>& keys,
                   const std::string& comment = {});

/// Read every `keypair` record. Feeds the same keystore_* metrics as
/// load_moduli when a registry is supplied.
std::vector<KeyPair> load_keypairs(const std::filesystem::path& path,
                                   obs::MetricsRegistry* metrics = nullptr);

}  // namespace bulkgcd::rsa
