// Build/runtime identity of this bulkgcd process — the one description of
// "what exactly is running here" shared by the CLI startup banners
// (weakscan scan, tree and intake) and the MetricsHttpServer GET /status
// endpoint, so the version an operator sees in a log line and the version a
// monitor scrapes can never disagree.
#pragma once

#include <string>
#include <vector>

namespace bulkgcd::bulk {

struct BuildInfo {
  std::string version;        ///< project version (CMake PROJECT_VERSION)
  int limb_bits = 0;          ///< ScanLimb width (always 32)
  /// Every engine leg compiled into this binary ("staged", "scalar",
  /// "vector-portable", then "vector-avx2" and "vector-avx512" when those
  /// TUs are built in).
  std::vector<std::string> compiled_backends;
  /// The engine Engine::kAuto resolves to on THIS machine ("vector-avx512",
  /// "vector-avx2" or "staged") — exactly what a default scan launched here
  /// would run.
  std::string active_backend;
};

/// Probe the running process (resolve_engine(Engine::kAuto) + cpuid).
BuildInfo query_build_info();

/// One-object JSON status document; uptime_seconds is the caller's (the
/// registry's, typically) so /status matches /metrics.
std::string build_info_json(const BuildInfo& info, double uptime_seconds);

/// One-line human banner for CLI startup:
/// "bulkgcd 1.0.0 | limbs 32-bit | backends staged,... | active staged".
std::string build_info_line(const BuildInfo& info);

}  // namespace bulkgcd::bulk
