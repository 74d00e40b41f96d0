// Seeded input generation. Corpora come from rsa::generate_corpus with the
// GMP prime backend; the program under test only ever sees the files written
// here (key files, the intake record stream), never the seed.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/rng.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"
#include "rsa/pem.hpp"

namespace perfbench {

namespace rsa = bulkgcd::rsa;

namespace {

std::uint64_t workload_tag(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) h = (h ^ std::uint8_t(c)) * 0x100000001b3ULL;
  return h;
}

rsa::WeakCorpus make_corpus(std::size_t count, const Options& o) {
  rsa::CorpusSpec spec;
  spec.count = count;
  spec.modulus_bits = o.sizes.bits;
  spec.weak_pairs = o.sizes.planted;
  spec.seed = o.seed * 0x9e3779b97f4a7c15ULL ^ workload_tag(o.workload);
  spec.backend = rsa::CorpusBackend::kGmp;
  return rsa::generate_corpus(spec);
}

void write_truth(const fs::path& file, std::vector<Planted> truth) {
  std::sort(truth.begin(), truth.end(),
            [](const Planted& a, const Planted& b) { return a.i < b.i; });
  std::ofstream out(file, std::ios::trunc);
  for (const auto& p : truth) {
    out << p.i << " " << p.j << " " << p.prime.to_hex() << "\n";
  }
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::string render(const BigInt& n, unsigned format) {
  switch (format % 4) {
    case 0:
      return rsa::pem_encode_public_key({n, BigInt(65537)}, rsa::PemKind::kPkcs1);
    case 1:
      return rsa::pem_encode_public_key({n, BigInt(65537)}, rsa::PemKind::kSpki);
    case 2:
      return "modulus " + n.to_hex() + "\n";
    default:
      return "0x" + n.to_hex() + "\n";
  }
}

std::string render_malformed(const BigInt& n, unsigned variant) {
  const std::string hex = n.to_hex();
  if (variant % 2 == 0) return hex.substr(1) + "\n";  // odd-length hex
  return "modulus " + hex.substr(0, 40) + "zz" + hex.substr(42) + "\n";
}

void write_text(const fs::path& file, const std::string& text) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::string read_text(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void generate_pairs_corpus(const Options& o, const fs::path& dir) {
  const auto wc = make_corpus(o.sizes.corpus, o);
  std::vector<Planted> truth;
  for (const auto& w : wc.weak) {
    truth.push_back({std::min(w.first, w.second), std::max(w.first, w.second),
                     w.shared_prime});
  }
  rsa::save_moduli(dir / "corpus.keys", wc.moduli, "perfbench " + o.workload);
  write_truth(dir / "truth.txt", truth);
}

// Seed corpus plus a record stream. One member of each planted pair sits in
// the seed, the other arrives in the stream; ~5% of records repeat an earlier
// key exactly and ~2% are malformed.
void generate_intake(const Options& o, const fs::path& dir) {
  const Sizes& s = o.sizes;
  bulkgcd::Xoshiro256 rng(o.seed ^ workload_tag("intake-records"));
  const std::size_t total = s.paced + s.burst;
  std::vector<StreamRecord::Kind> kinds(total, StreamRecord::Kind::kValid);
  std::size_t valid = 0;
  for (auto& kind : kinds) {
    const auto u = rng() % 1000;
    if (u < 20) {
      kind = StreamRecord::Kind::kMalformed;
    } else if (u < 70) {
      kind = StreamRecord::Kind::kDuplicate;
    } else {
      ++valid;
    }
  }
  if (valid < s.planted) throw std::runtime_error("intake stream too short");

  const auto wc = make_corpus(s.intake_seed + valid, o);
  std::vector<std::size_t> seed_idx, stream_idx;
  std::vector<bool> paired(wc.moduli.size(), false);
  for (const auto& w : wc.weak) {
    paired[w.first] = paired[w.second] = true;
    seed_idx.push_back(w.first);
    stream_idx.push_back(w.second);
  }
  for (std::size_t k = 0; k < wc.moduli.size(); ++k) {
    if (paired[k]) continue;
    (seed_idx.size() < s.intake_seed ? seed_idx : stream_idx).push_back(k);
  }
  std::shuffle(seed_idx.begin(), seed_idx.end(), rng);
  std::shuffle(stream_idx.begin(), stream_idx.end(), rng);

  std::vector<Planted> truth;
  for (const auto& w : wc.weak) {
    const auto si = std::find(seed_idx.begin(), seed_idx.end(), w.first);
    const auto ai = std::find(stream_idx.begin(), stream_idx.end(), w.second);
    truth.push_back({std::size_t(si - seed_idx.begin()),
                     s.intake_seed + std::size_t(ai - stream_idx.begin()),
                     w.shared_prime});
  }

  std::vector<BigInt> seed;
  for (const auto k : seed_idx) seed.push_back(wc.moduli[k]);
  std::vector<BigInt> seen = seed;  // duplicate candidates: seed + emitted
  std::string stream;
  std::ostringstream index;
  index << "paced " << s.paced << "\n";
  std::size_t next = 0;
  for (const auto kind : kinds) {
    std::string text;
    BigInt n;
    char tag = 'v';
    if (kind == StreamRecord::Kind::kValid) {
      n = wc.moduli[stream_idx[next++]];
      text = render(n, unsigned(rng()));
      seen.push_back(n);
    } else if (kind == StreamRecord::Kind::kDuplicate) {
      n = seen[rng() % seen.size()];
      text = render(n, unsigned(rng()));
      tag = 'd';
    } else {
      text = render_malformed(seen[rng() % seen.size()], unsigned(rng()));
      tag = 'm';
    }
    index << tag << " " << text.size() << " "
          << (kind == StreamRecord::Kind::kMalformed ? "-" : n.to_hex()) << "\n";
    stream += text;
  }
  rsa::save_moduli(dir / "seed.keys", seed, "perfbench intake seed");
  write_text(dir / "stream.txt", stream);
  write_text(dir / "records.txt", index.str());
  write_truth(dir / "truth.txt", truth);
}

}  // namespace

void generate_inputs(const Options& o, const fs::path& dir) {
  fs::create_directories(dir);
  if (o.workload == "intake_stream") {
    generate_intake(o, dir);
  } else {
    generate_pairs_corpus(o, dir);
  }
}

std::vector<Planted> load_truth(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::vector<Planted> truth;
  Planted p;
  std::string hex;
  while (in >> p.i >> p.j >> hex) {
    p.prime = BigInt::from_hex(hex);
    truth.push_back(p);
  }
  return truth;
}

IntakeInputs load_intake_inputs(const fs::path& dir) {
  const std::string stream = read_text(dir / "stream.txt");
  std::ifstream index(dir / "records.txt");
  IntakeInputs out;
  std::string word;
  if (!(index >> word >> out.paced) || word != "paced") {
    throw std::runtime_error("malformed records.txt in " + dir.string());
  }
  char tag = 0;
  std::size_t bytes = 0, offset = 0;
  std::string hex;
  while (index >> tag >> bytes >> hex) {
    if (offset + bytes > stream.size()) {
      throw std::runtime_error("records.txt overruns stream.txt");
    }
    StreamRecord rec;
    rec.kind = tag == 'v'   ? StreamRecord::Kind::kValid
               : tag == 'd' ? StreamRecord::Kind::kDuplicate
                            : StreamRecord::Kind::kMalformed;
    rec.text = stream.substr(offset, bytes);
    if (hex != "-") rec.n = BigInt::from_hex(hex);
    offset += bytes;
    out.records.push_back(std::move(rec));
  }
  if (offset != stream.size() || out.paced > out.records.size()) {
    throw std::runtime_error("records.txt does not match stream.txt");
  }
  return out;
}

std::vector<StreamRecord> render_records(std::span<const BigInt> moduli) {
  std::vector<StreamRecord> out;
  for (std::size_t k = 0; k < moduli.size(); ++k) {
    out.push_back({StreamRecord::Kind::kValid, render(moduli[k], unsigned(k)),
                   moduli[k]});
  }
  return out;
}

}  // namespace perfbench
