// Shared plumbing for the paper-reproduction benches: flag parsing, the
// report file, and aligned table printing of the per-method report
// entries every figure bench makes.
//
// These benches measure SIMULATED time (the discrete-event clock), not
// wall time, which is why they use a custom main() rather than
// google-benchmark; the micro-benches (real computation: dataloop
// processing, packing) use google-benchmark.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/run_report.h"

namespace dtio::bench {

// ---- Flags -------------------------------------------------------------------

inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return std::string(fallback);
}

inline std::int64_t flag_int(int argc, char** argv, const char* name,
                             std::int64_t fallback) {
  const std::string value = flag_str(argc, argv, name, "");
  return value.empty() ? fallback : std::atoll(value.c_str());
}

inline bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Benches attach observability by default; --no-obs runs bare (useful for
/// checking that instrumentation does not perturb simulated results).
inline bool obs_enabled(int argc, char** argv) {
  return !flag_set(argc, argv, "--no-obs");
}

// ---- Results -----------------------------------------------------------------

inline double to_mb(double bytes) { return bytes / 1e6; }

/// Write the report to BENCH_<name>.json (or --json=PATH); prints where it
/// went. Skipped entirely under --no-obs.
inline void write_report(const obs::RunReport& report, int argc, char** argv,
                         const std::string& default_path) {
  if (!obs_enabled(argc, argv)) return;
  const std::string path =
      flag_str(argc, argv, "--json", default_path.c_str());
  if (report.write_file(path)) {
    std::fprintf(stderr, "bench report: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: could not write bench report %s\n",
                 path.c_str());
  }
}

/// "Figure 8"-style row: method, aggregate MB/s, simulated seconds.
inline void print_figure_row(const obs::MethodReport& r) {
  if (!r.supported) {
    std::printf("  %-18s %12s %12s\n", r.method.c_str(), "n/a", "n/a");
    return;
  }
  std::printf("  %-18s %12.2f %12.2f\n", r.method.c_str(), r.bandwidth_mb_s,
              r.sim_seconds);
}

inline void print_figure_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("  %-18s %12s %12s\n", "method", "agg MB/s", "sim sec");
}

/// "Table 1/2/3"-style row: per-client desired/accessed/ops/resent.
inline void print_table_row(const obs::MethodReport& r) {
  if (!r.supported) {
    std::printf("  %-18s %11s %11s %11s %11s\n", r.method.c_str(), "-", "-",
                "-", "-");
    return;
  }
  char resent[32];
  if (r.per_client.resent_bytes == 0) {
    std::snprintf(resent, sizeof resent, "-");
  } else {
    std::snprintf(resent, sizeof resent, "%.2f MB",
                  to_mb(static_cast<double>(r.per_client.resent_bytes)));
  }
  std::printf("  %-18s %8.2f MB %8.2f MB %11llu %11s\n", r.method.c_str(),
              to_mb(static_cast<double>(r.per_client.desired_bytes)),
              to_mb(static_cast<double>(r.per_client.accessed_bytes)),
              static_cast<unsigned long long>(r.per_client.io_ops), resent);
}

inline void print_table_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("  %-18s %11s %11s %11s %11s\n", "method", "desired/cli",
              "accessed", "io ops/cli", "resent/cli");
}

}  // namespace dtio::bench
