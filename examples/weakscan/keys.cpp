// The corpus-file commands: make a corpus, move it to and from PEM, and vet
// one newly harvested modulus against it.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli.hpp"

namespace weakscan {

int run_generate(int argc, char** argv) {
  const auto ops = operands(argc, argv, 4, 5);
  rsa::CorpusSpec spec;
  spec.count = parse_u64(ops[1], "count");
  spec.modulus_bits = parse_u64(ops[2], "bits");
  spec.weak_pairs = parse_u64(ops[3], "weak_pairs");
  spec.seed = ops.size() > 4 ? parse_u64(ops[4], "seed") : 1;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  rsa::save_moduli(ops[0], corpus.moduli,
                   "weakscan corpus: " + std::to_string(spec.count) + " x " +
                       std::to_string(spec.modulus_bits) + " bits, " +
                       std::to_string(spec.weak_pairs) + " weak pair(s)");
  std::printf("wrote %zu moduli to %s (%zu weak pairs planted)\n",
              corpus.moduli.size(), ops[0].c_str(), corpus.weak.size());
  return kExitDone;
}

int run_import_pem(int argc, char** argv) {
  const auto ops = operands(argc, argv, 2, 2);
  std::ifstream in(ops[0]);
  if (!in) throw std::runtime_error("cannot read " + ops[0]);
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<mp::BigInt> moduli;
  for (auto& key : rsa::pem_decode_bundle(text.str())) {
    moduli.push_back(std::move(key.n));
  }
  rsa::save_moduli(ops[1], moduli, "weakscan corpus imported from " + ops[0]);
  std::printf("wrote %zu moduli from %s to %s\n", moduli.size(),
              ops[0].c_str(), ops[1].c_str());
  return kExitDone;
}

int run_export_pem(int argc, char** argv) {
  const auto ops = operands(argc, argv, 2, 2);
  const auto moduli = load_corpus(ops[0]);
  std::ofstream out(ops[1]);
  const mp::BigInt e(rsa::kDefaultPublicExponent);
  for (const auto& n : moduli) {
    out << rsa::pem_encode_public_key({n, e}, rsa::PemKind::kSpki);
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + ops[1]);
  std::printf("wrote %zu PEM public keys to %s\n", moduli.size(),
              ops[1].c_str());
  return kExitDone;
}

int run_probe(int argc, char** argv) {
  const auto ops = operands(argc, argv, 2, 2);
  const auto corpus = load_corpus(ops[0]);
  const mp::BigInt candidate = mp::BigInt::from_hex(ops[1]);
  const auto hits = bulk::probe_incremental(candidate, corpus);
  if (hits.empty()) {
    std::printf("candidate shares no factor with the %zu stored moduli\n",
                corpus.size());
    return kExitDone;
  }
  for (const auto& hit : hits) {
    std::printf("WEAK: candidate shares %zu-bit factor with stored modulus "
                "%zu: %s...\n",
                hit.factor.bit_length(), hit.corpus_index,
                hit.factor.to_hex().substr(0, 24).c_str());
  }
  return kExitFound;
}

}  // namespace weakscan
