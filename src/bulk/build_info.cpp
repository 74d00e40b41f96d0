#include "bulk/build_info.hpp"

#include <cstdio>

#include "bulk/backend.hpp"
#include "bulk/staged_corpus.hpp"
#include "bulk/vec/vec_backend.hpp"

#ifndef BULKGCD_VERSION
#define BULKGCD_VERSION "0.0.0-unversioned"
#endif

namespace bulkgcd::bulk {

BuildInfo query_build_info() {
  BuildInfo info;
  info.version = BULKGCD_VERSION;
  info.limb_bits = int(sizeof(ScanLimb) * 8);
  info.compiled_backends = {"staged", "scalar", "vector-portable"};
#if defined(BULKGCD_HAVE_AVX2_TU)
  info.compiled_backends.push_back("vector-avx2");
#endif
#if defined(BULKGCD_HAVE_AVX512_TU)
  info.compiled_backends.push_back("vector-avx512");
#endif
  // What a default scan would actually run here: Engine::kAuto resolved the
  // same way all_pairs_gcd resolves it, with the ISA leg make_vec_batch
  // picks by the same cpuid probe.
  const Engine active = resolve_engine(Engine::kAuto);
  info.active_backend =
      active == Engine::kVector
          ? std::string("vector-") + to_string(detect_vec_isa())
          : std::string(to_string(active));
  return info;
}

std::string build_info_json(const BuildInfo& info, double uptime_seconds) {
  char uptime[40];
  std::snprintf(uptime, sizeof(uptime), "%.3f", uptime_seconds);
  std::string out = "{\"service\":\"bulkgcd\",\"version\":\"" + info.version +
                    "\",\"uptime_seconds\":" + uptime +
                    ",\"limb_bits\":" + std::to_string(info.limb_bits) +
                    ",\"compiled_backends\":[";
  for (std::size_t i = 0; i < info.compiled_backends.size(); ++i) {
    if (i) out += ",";
    out += "\"" + info.compiled_backends[i] + "\"";
  }
  out += "],\"active_backend\":\"" + info.active_backend + "\"}";
  return out;
}

std::string build_info_line(const BuildInfo& info) {
  std::string out = "bulkgcd " + info.version + " | limbs " +
                    std::to_string(info.limb_bits) + "-bit | backends ";
  for (std::size_t i = 0; i < info.compiled_backends.size(); ++i) {
    if (i) out += ",";
    out += info.compiled_backends[i];
  }
  out += " | active " + info.active_backend;
  return out;
}

}  // namespace bulkgcd::bulk
