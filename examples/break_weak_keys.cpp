// End-to-end weak-key hunt — the scenario the paper's introduction motivates:
// a pile of RSA public keys harvested from the Web, some generated with a
// broken PRNG, and an intercepted ciphertext. The bulk all-pairs GCD sweep
// (Section VI's grid decomposition on the SIMT engine) finds every pair of
// moduli sharing a prime, factors them, rebuilds the private keys, and
// decrypts the traffic.
//
//   $ ./break_weak_keys [num_keys] [modulus_bits] [weak_pairs]
//   defaults:            64         512            3
#include <cstdio>
#include <cstdlib>

#include "bulkgcd.hpp"

int main(int argc, char** argv) {
  using namespace bulkgcd;

  const std::size_t num_keys = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::size_t bits = argc > 2 ? std::atoi(argv[2]) : 512;
  const std::size_t weak_pairs = argc > 3 ? std::atoi(argv[3]) : 3;

  std::printf("== harvesting corpus: %zu keys, %zu-bit moduli, %zu weak pair(s) "
              "planted\n",
              num_keys, bits, weak_pairs);
  rsa::CorpusSpec spec;
  spec.count = num_keys;
  spec.modulus_bits = bits;
  spec.weak_pairs = weak_pairs;
  spec.seed = 20150525;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  // Intercepted traffic: one ciphertext per key (we will only be able to
  // read the ones whose keys are weak).
  const mp::BigInt e(rsa::kDefaultPublicExponent);
  std::vector<mp::BigInt> ciphertexts;
  ciphertexts.reserve(num_keys);
  for (std::size_t i = 0; i < num_keys; ++i) {
    const std::string msg = "secret #" + std::to_string(i);
    ciphertexts.push_back(rsa::encrypt(rsa::encode_message(msg),
                                       corpus.moduli[i], e));
  }

  std::printf("== running the bulk all-pairs GCD sweep (%zu pairs)\n",
              num_keys * (num_keys - 1) / 2);
  bulk::AllPairsConfig config;
  config.variant = gcd::Variant::kApproximate;
  config.engine = bulk::Engine::kAuto;
  config.early_terminate = true;
  const bulk::AllPairsResult sweep = bulk::all_pairs_gcd(corpus.moduli, config);

  std::printf("   %llu pairs in %.3f s (%.2f us/gcd), %llu hit(s)\n",
              (unsigned long long)sweep.pairs_tested, sweep.seconds,
              sweep.micros_per_gcd(), (unsigned long long)sweep.hits.size());
  std::printf("   SIMT stats: %.3f branch groups/warp round, %.1f%% lane "
              "utilization\n",
              sweep.simt.serialization_factor(),
              100.0 * sweep.simt.lane_utilization());

  std::printf("== breaking the victims\n");
  std::size_t decrypted = 0;
  std::size_t proper_hits = 0;
  for (const auto& hit : sweep.hits) {
    // gcd == the modulus itself: keys hit.i and hit.j are duplicates (or
    // share both primes). The GCD can't split n into p·q — recovery would
    // divide n by itself — so report and move on.
    if (hit.full_modulus) {
      std::printf("   keys %2zu and %2zu are identical moduli (gcd = n); "
                  "cannot factor from this pair\n",
                  hit.i, hit.j);
      continue;
    }
    ++proper_hits;
    for (const std::size_t victim : {hit.i, hit.j}) {
      const rsa::KeyPair key =
          rsa::recover_private_key(corpus.moduli[victim], e, hit.factor);
      const std::string plain =
          rsa::decode_message(rsa::decrypt(ciphertexts[victim], key.n, key.d));
      std::printf("   key %2zu broken (shares a prime with key %2zu): \"%s\"\n",
                  victim, victim == hit.i ? hit.j : hit.i, plain.c_str());
      ++decrypted;
    }
  }

  // Cross-check against the generator's ground truth (which never plants
  // duplicate moduli, only single-prime overlaps).
  if (proper_hits != corpus.weak.size()) {
    std::printf("!! expected %zu weak pairs, found %zu\n", corpus.weak.size(),
                proper_hits);
    return 1;
  }
  std::printf("== done: %zu ciphertexts decrypted, ground truth matched\n",
              decrypted);
  return 0;
}
