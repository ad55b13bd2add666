// Shared configuration for the figure-regeneration harnesses.
//
// The paper's IPUMS experiments run at 0.1M–12.5M tuples; the default here
// is 1/100 of those ticks (1k–125k) so the whole bench directory finishes
// in minutes on a laptop. Set MAYWSD_SCALE=<multiplier> to scale the sizes
// up (e.g. MAYWSD_SCALE=10 runs 10k–1.25M).

#ifndef MAYWSD_BENCH_BENCH_UTIL_H_
#define MAYWSD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "census/queries.h"
#include "common/timer.h"
#include "core/wsdt.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_chase.h"

namespace maywsd::bench {

/// Multiplier from MAYWSD_SCALE (default 1).
inline double ScaleFactor() {
  const char* env = std::getenv("MAYWSD_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// Writes the `"host": {...},` member of a harness's JSON document: the
/// hardware concurrency, the build type and the MAYWSD_SCALE multiplier,
/// so a recorded number names the host and build it came from.
inline void WriteHostJson(std::FILE* f) {
#ifdef MAYWSD_BUILD_TYPE
  const char* build_type = MAYWSD_BUILD_TYPE;
#else
  const char* build_type = "";
#endif
  std::fprintf(f,
               "  \"host\": {\"hardware_concurrency\": %u, "
               "\"build_type\": \"%s\", \"scale\": %g},\n",
               std::thread::hardware_concurrency(),
               *build_type != '\0' ? build_type : "unspecified",
               ScaleFactor());
}

/// The paper's size ticks (in tuples), scaled 1/100 by default:
/// 0.1, 0.5, 0.75, 1, 5, 7.5, 10, 12.5 million → 1k … 125k.
inline std::vector<size_t> SizeTicks() {
  double s = ScaleFactor();
  std::vector<size_t> out;
  for (double m : {0.1, 0.5, 0.75, 1.0, 5.0, 7.5, 10.0, 12.5}) {
    out.push_back(static_cast<size_t>(m * 1e4 * s));
  }
  return out;
}

/// The paper's placeholder densities (fractions, not percent).
inline std::vector<double> Densities() {
  return {0.00005, 0.0001, 0.0005, 0.001};
}

inline const char* DensityLabel(double d) {
  if (d == 0.0) return "0%";
  if (d == 0.00005) return "0.005%";
  if (d == 0.0001) return "0.01%";
  if (d == 0.0005) return "0.05%";
  if (d == 0.001) return "0.1%";
  return "?";
}

/// Builds the noisy census WSDT for one experimental cell. Deterministic.
inline core::Wsdt MakeCensusWsdt(const census::CensusSchema& schema,
                                 size_t rows, double density,
                                 census::NoiseReport* report = nullptr) {
  rel::Relation base =
      census::GenerateCensus(schema, rows, /*seed=*/0xC0FFEE ^ rows);
  auto wsdt = census::MakeNoisyWsdt(base, schema, density,
                                    /*seed=*/0xBEEF ^ rows, report);
  if (!wsdt.ok()) {
    std::fprintf(stderr, "noise injection failed: %s\n",
                 wsdt.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(wsdt).value();
}

/// Chases the 12 Figure 25 dependencies, aborting on error.
inline void ChaseCensus(core::Wsdt& wsdt) {
  Status st = core::WsdtChase(wsdt, census::CensusDependencies("R"));
  if (!st.ok()) {
    std::fprintf(stderr, "chase failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace maywsd::bench

#endif  // MAYWSD_BENCH_BENCH_UTIL_H_
