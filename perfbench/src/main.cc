// perfbench: runs one workload of the repository benchmark and prints its
// report. perfbench/run.py builds this binary and is the documented entry
// point; see perfbench/README.md.
//
// Output: a `{"provenance": ...}` line, then as the last line
// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
// with every metric the workload measured. Exit status 0 only when every
// answer check passed.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) return 2;

  WorkloadResult result;
  if (args->workload == "census_query") {
    result = RunCensusQuery(*args);
  } else if (args->workload == "serve_mixed") {
    result = RunServeMixed(*args);
  } else if (args->workload == "belief_game") {
    result = RunBeliefGame(*args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
    return 2;
  }

  std::string trace_file;
  if (args->trace) {
    ::mkdir(args->out_dir.c_str(), 0755);
    trace_file = args->out_dir + "/trace-" + args->workload + "-" +
                 std::to_string(args->seed) + ".jsonl";
    if (!Tracer::Get().WriteJsonl(trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      trace_file.clear();
    }
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  for (const std::string& m : result.mismatches) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());
  }
  for (const std::string& t : result.thin) {
    std::fprintf(stderr, "warning: p90 has fewer than ten samples beyond it: %s\n",
                 t.c_str());
  }

  std::string prov = "{\"provenance\": {";
  prov += "\"workload\": " + JsonQuote(args->workload);
  prov += ", \"seed\": " + std::to_string(args->seed);
  prov += ", \"seconds\": " + Num(args->seconds);
  prov += ", \"trace\": " + std::string(args->trace ? "1" : "0");
  prov += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  prov += ", \"compiler\": " + JsonQuote(PERFBENCH_COMPILER);
  prov += ", \"build_type\": " + JsonQuote(PERFBENCH_BUILD_TYPE);
  prov += ", \"error_rate\": " +
          Num(result.attempted ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 1.0);
  if (!trace_file.empty()) prov += ", \"trace_file\": " + JsonQuote(trace_file);
  std::string thin;
  for (const std::string& t : result.thin) {
    thin += (thin.empty() ? "" : "; ") + t;
  }
  prov += ", \"thin_tails\": " + JsonQuote(thin);
  for (const auto& [k, v] : result.info) {
    prov += ", " + JsonQuote(k) + ": " + JsonQuote(v);
  }
  prov += "}}";
  std::printf("%s\n", prov.c_str());

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics.all()) {
    line += (first ? "" : ", ") + JsonQuote(name) + ": {\"value\": " +
            Num(metric.value) + ", \"unit\": " + JsonQuote(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
