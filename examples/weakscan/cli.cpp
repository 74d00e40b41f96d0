#include "cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace weakscan {

std::uint64_t parse_u64(const std::string& text, const std::string& what,
                        std::uint64_t max) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    throw UsageError(what + " expects a non-negative integer, got '" + text +
                     "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || v > max) {
    throw UsageError(what + " is out of range: " + text + " (max " +
                     std::to_string(max) + ")");
  }
  return v;
}

bool Args::next() {
  if (inline_value_) throw UsageError(arg_ + " takes no value");
  if (i_ == argv_.size()) return false;
  arg_ = argv_[i_++];
  const auto eq = arg_.find('=');
  const bool has_inline = !positional() && eq != arg_.npos;  // --flag=value
  if (has_inline) {
    inline_value_ = arg_.substr(eq + 1);
    arg_.resize(eq);
  }
  return true;
}

std::string Args::value() {
  if (inline_value_) {
    std::string v = std::move(*inline_value_);
    inline_value_.reset();
    return v;
  }
  if (i_ == argv_.size()) throw UsageError(arg_ + " requires a value");
  return argv_[i_++];
}

std::uint64_t Args::u64(std::uint64_t max) {
  const std::string flag = arg_;
  return parse_u64(value(), flag, max);
}

double Args::seconds() {
  const std::string flag = arg_;
  const std::string text = value();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < 0.0 || text.find_first_of(" \t\n") != text.npos) {
    throw UsageError(flag + " expects a non-negative number of seconds, got '" +
                     text + "'");
  }
  return v;
}

void Args::unknown() const {
  throw UsageError(positional() ? "unexpected argument '" + arg_ + "'"
                                : "unknown flag " + arg_);
}

std::vector<std::string> operands(int argc, char** argv, std::size_t min,
                                  std::size_t max) {
  std::vector<std::string> out;
  for (Args args(argc, argv); args.next();) {
    if (!args.positional() || out.size() == max) args.unknown();
    out.push_back(args.current());
  }
  if (out.size() < min) throw UsageError("missing arguments");
  return out;
}

bool Telemetry::parse(Args& args) {
  if (args.is("--metrics-out")) {
    metrics_path_ = args.value();
  } else if (args.is("--metrics-interval")) {
    interval_ = args.seconds();
  } else if (args.is("--trace-out")) {
    trace_path_ = args.value();
  } else {
    return false;
  }
  return true;
}

void Telemetry::start(std::size_t ring_capacity, bool always_registry) {
  std::printf("%s\n", bulk::build_info_line(bulk::query_build_info()).c_str());
  if (always_registry || !metrics_path_.empty()) registry_.emplace();
  if (!trace_path_.empty()) {
    tracer_.emplace(ring_capacity, registry());
    std::printf("tracing -> %s\n", trace_path_.c_str());
  }
  if (!metrics_path_.empty()) {
    emitter_.emplace(*registry_, metrics_path_, interval_);
    std::printf("telemetry -> %s (interval %.1fs)\n", metrics_path_.c_str(),
                interval_);
  }
}

void Telemetry::finish() {
  if (emitter_) emitter_->stop();
  if (!tracer_) return;
  std::string error;
  if (tracer_->write_chrome_json(trace_path_, &error)) {
    std::printf("trace -> %s (%llu events, %llu dropped)\n",
                trace_path_.c_str(),
                (unsigned long long)tracer_->events_recorded(),
                (unsigned long long)tracer_->events_dropped());
  } else {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
}

std::vector<mp::BigInt> load_corpus(const std::string& path,
                                    obs::MetricsRegistry* registry) {
  auto moduli = rsa::load_moduli(path, registry);
  std::printf("loaded %zu moduli from %s\n", moduli.size(), path.c_str());
  return moduli;
}

void print_hit(const bulk::FactorHit& hit) {
  std::printf("  keys %zu and %zu share a %zu-bit prime %s\n", hit.i, hit.j,
              hit.factor.bit_length(), hit.factor.to_hex().c_str());
}

}  // namespace weakscan
