#include "rsa/rsa.hpp"

#include <stdexcept>
#include <string>

#include "rsa/modmath.hpp"
#include "rsa/montgomery.hpp"
#include "rsa/prime.hpp"

namespace bulkgcd::rsa {

KeyPair keypair_from_primes(const mp::BigInt& p, const mp::BigInt& q,
                            std::uint64_t public_exponent) {
  KeyPair key;
  key.p = p;
  key.q = q;
  key.n = p * q;
  key.e = mp::BigInt(public_exponent);
  const mp::BigInt one(1);
  const mp::BigInt phi = (p - one) * (q - one);
  key.d = modinv(key.e, phi);
  return key;
}

KeyPair generate_keypair(Xoshiro256& rng, std::size_t modulus_bits,
                         std::uint64_t public_exponent) {
  if (modulus_bits < 16 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("generate_keypair: modulus_bits must be even and >= 16");
  }
  const std::size_t prime_bits = modulus_bits / 2;
  const mp::BigInt one(1);
  const mp::BigInt e(public_exponent);
  while (true) {
    const mp::BigInt p = random_prime(rng, prime_bits);
    mp::BigInt q = random_prime(rng, prime_bits);
    while (q == p) q = random_prime(rng, prime_bits);
    // e must be coprime to (p-1)(q-1); with e = 65537 (prime) this only
    // fails when e divides p-1 or q-1 — just redraw.
    const mp::BigInt phi = (p - one) * (q - one);
    if (phi % e == mp::BigInt()) continue;
    return keypair_from_primes(p, q, public_exponent);
  }
}

mp::BigInt encrypt(const mp::BigInt& message, const mp::BigInt& n,
                   const mp::BigInt& e) {
  if (message >= n) throw std::invalid_argument("encrypt: message >= modulus");
  // RSA moduli are odd: Montgomery exponentiation applies.
  return MontgomeryContext(n).pow(message, e);
}

mp::BigInt decrypt(const mp::BigInt& cipher, const mp::BigInt& n,
                   const mp::BigInt& d) {
  return MontgomeryContext(n).pow(cipher, d);
}

mp::BigInt decrypt_crt(const mp::BigInt& cipher, const KeyPair& key) {
  const mp::BigInt one(1);
  if (key.p.is_zero() || key.q.is_zero() || key.p * key.q != key.n) {
    throw std::invalid_argument("decrypt_crt: key lacks valid factors");
  }
  // dp = d mod (p-1), dq = d mod (q-1), qinv = q^{-1} mod p
  const mp::BigInt dp = key.d % (key.p - one);
  const mp::BigInt dq = key.d % (key.q - one);
  const mp::BigInt m1 = MontgomeryContext(key.p).pow(cipher % key.p, dp);
  const mp::BigInt m2 = MontgomeryContext(key.q).pow(cipher % key.q, dq);
  const mp::BigInt qinv = modinv(key.q, key.p);
  // Garner: m = m2 + q * ((m1 - m2) * qinv mod p)
  const mp::BigInt diff = m1 >= m2 ? (m1 - m2) : (key.p - ((m2 - m1) % key.p));
  const mp::BigInt h = (diff * qinv) % key.p;
  return m2 + key.q * h;
}

KeyPair recover_private_key(const mp::BigInt& n, const mp::BigInt& e,
                            const mp::BigInt& factor) {
  auto [q, rem] = mp::BigInt::divmod(n, factor);
  if (!rem.is_zero() || factor <= mp::BigInt(1) || q <= mp::BigInt(1)) {
    throw std::invalid_argument("recover_private_key: factor does not split n");
  }
  KeyPair key;
  key.n = n;
  key.e = e;
  key.p = factor;
  key.q = q;
  const mp::BigInt one(1);
  const mp::BigInt phi = (key.p - one) * (key.q - one);
  key.d = modinv(e, phi);
  return key;
}

mp::BigInt encode_message(std::string_view text) {
  return mp::BigInt::from_bytes_be(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::string decode_message(const mp::BigInt& value) {
  std::string out;
  mp::BigInt v = value;
  const mp::BigInt base(256);
  while (!v.is_zero()) {
    auto [q, r] = mp::BigInt::divmod(v, base);
    out.push_back(char(static_cast<unsigned char>(r.to_u64())));
    v = std::move(q);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace bulkgcd::rsa
