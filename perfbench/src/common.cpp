#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "bench.hpp"
#include "rsa/keystore.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * double(v.size()));
  const std::size_t k = std::size_t(std::clamp(rank, 1.0, double(v.size())));
  return v[k - 1];
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

bool more_reps(double start, double seconds, double last_cycle,
               std::size_t reps) {
  return reps < 3 || now_s() - start + last_cycle <= seconds;
}

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (smoke) {
    s.corpus = 160;
    s.planted = 4;
    s.intake_seed = 96;
    s.paced = 60;
    s.burst = 60;
    s.paced_rate = 200.0;
    s.subset = 96;
    s.reps_setup = 3;
  }
  return s;
}

void Gate::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) {
    std::printf("CHECK FAILED: %.*s\n", int(what.size()), what.data());
  }
}

std::uint64_t SpanLog::add(std::string name, double start, double end,
                           std::uint64_t parent) {
  std::lock_guard lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({std::move(name), start, end, id, parent});
  return id;
}

bool SpanLog::write_chrome_json(const fs::path& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  k ? "," : "", s.name.c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6, (unsigned long long)s.id,
                  (unsigned long long)s.parent);
    out << buf;
  }
  out << "]}\n";
  return bool(out);
}

namespace {
void set_metric(std::vector<Metric>& list, const std::string& name,
                double value, const std::string& unit) {
  for (auto& m : list) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  list.push_back({name, value, unit});
}
}  // namespace

void Report::set_e2e(const std::string& name, double value,
                     const std::string& unit) {
  set_metric(end_to_end, name, value, unit);
}

void Report::set_layer(const std::string& name, double value,
                       const std::string& unit) {
  set_metric(layers, name, value, unit);
}

void Report::note(std::string line) { notes.push_back(std::move(line)); }

bool factor_verifies(const BigInt& p, const BigInt& ni, const BigInt& nj) {
  const BigInt one(1);
  return p > one && p < ni && p < nj && (ni % p).is_zero() &&
         (nj % p).is_zero();
}

void check_pair_hits(std::vector<PairHit> hits, std::span<const BigInt> moduli,
                     std::span<const Planted> truth, bool inject_fault,
                     Gate& gate, std::string_view what) {
  if (inject_fault && !hits.empty()) hits.front().factor += BigInt(2);
  const std::string label(what);
  std::set<std::pair<std::size_t, std::size_t>> planted, found;
  for (const auto& p : truth) planted.insert({p.i, p.j});
  for (const auto& h : hits) {
    const bool in_range = h.i < moduli.size() && h.j < moduli.size();
    gate.check(in_range && factor_verifies(h.factor, moduli[h.i], moduli[h.j]),
               label + ": reported factor re-verifies");
    gate.check(planted.count({h.i, h.j}) == 1, label + ": hit is a planted pair");
    found.insert({h.i, h.j});
  }
  for (const auto& p : planted) {
    gate.check(found.count(p) == 1, label + ": planted pair found");
  }
}

std::vector<Planted> truth_within(std::span<const Planted> truth,
                                  std::size_t n) {
  std::vector<Planted> out;
  for (const auto& p : truth) {
    if (p.j < n) out.push_back(p);
  }
  return out;
}

std::vector<BigInt> LoadTimer::sample() {
  namespace rsa = bulkgcd::rsa;
  const double t0 = now_s();
  auto moduli = rsa::load_moduli(keys_);
  const double t1 = now_s();
  volatile std::uint64_t d = rsa::corpus_digest(moduli);
  (void)d;
  load_.push_back(t1 - t0);
  digest_.push_back(now_s() - t1);
  return moduli;
}

}  // namespace perfbench
