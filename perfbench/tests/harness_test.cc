// Tests of the benchmark's helpers: the percentile rule, metric-name
// validation, request-stream determinism, argument parsing, and the answer
// checks that turn a perturbed answer into a failed operation.

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check.h"
#include "harness.h"
#include "rel/relation.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using maywsd::rel::Relation;
using maywsd::rel::Schema;
using maywsd::rel::Value;

void TestPercentiles() {
  // Nearest rank: index ceil(p·n) − 1.
  CHECK_EQ(PercentileIndex(100, 0.9), 89u);
  CHECK_EQ(PercentileIndex(100, 0.5), 49u);
  CHECK_EQ(PercentileIndex(1, 0.5), 0u);
  CHECK_EQ(PercentileIndex(10, 0.99), 9u);
  CHECK_EQ(PercentileIndex(0, 0.9), 0u);
  // At least ten samples beyond the index.
  CHECK_EQ(SamplesBeyond(100, 0.9), 10u);
  CHECK(SupportsPercentile(100, 0.9));
  CHECK(!SupportsPercentile(99, 0.9));
  CHECK(SupportsPercentile(1000, 0.99));
  CHECK(!SupportsPercentile(999, 0.99));
  CHECK(SupportsPercentile(20, 0.5));
  CHECK(!SupportsPercentile(19, 0.5));

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK_EQ(Percentile(v, 0.5), 50.0);
  CHECK_EQ(Percentile(v, 0.9), 90.0);
  CHECK_EQ(Percentile({}, 0.9), 0.0);
  CHECK_EQ(Median({3, 1, 2}), 2.0);
  CHECK_EQ(Median({4, 1, 2, 3}), 2.5);

  // A thin tail is flagged per class, a sufficient one is not.
  MetricSet m;
  std::vector<std::string> thin;
  ClassLatencies lat;
  for (int i = 0; i < 50; ++i) lat.Add("small", 1.0);
  for (int i = 0; i < 100; ++i) lat.Add("big", 4.0);
  lat.Report("answer", 1.0, m, &thin);
  CHECK_EQ(thin.size(), 1u);
  CHECK(thin[0].find("answer.small") == 0);
  CHECK(m.all().count("answer_p90_ms") == 1);
  // Class-balanced: the geometric mean of the class percentiles (1 and 4),
  // whatever the classes' sample counts; divided by the host factor.
  CHECK(std::fabs(m.all().at("answer_p50_ms").value - 2.0) < 1e-12);
  MetricSet slow;
  lat.Report("answer", 2.0, slow, nullptr);
  CHECK(std::fabs(slow.all().at("answer_p90_ms").value - 1.0) < 1e-12);
  // Merged samples join their class; a new class joins the mean.
  ClassLatencies more;
  for (int i = 0; i < 900; ++i) more.Add("big", 4.0);
  more.Add("tiny", 0.25);
  lat.Merge(more);
  CHECK(std::fabs(lat.Summary(0.5) - 1.0) < 1e-12);
  CHECK_EQ(ClassLatencies().Summary(0.5), 0.0);
}

void TestHostSpeed() {
  // The reference parts are deterministic; the factor is the geometric
  // mean of each part's median over its nominal time.
  CHECK_EQ(ReferenceCompute(), ReferenceCompute());
  CHECK_EQ(ReferenceStream(), ReferenceStream());
  HostSpeed idle;
  CHECK_EQ(idle.Factor(), 1.0);
  HostSpeed host(1e9);
  host.Sample();
  host.MaybeSample();  // within the period: no second sample
  CHECK_EQ(host.Samples(), 1u);
  std::map<std::string, std::string> info;
  host.Describe(info);
  const double compute = std::stod(info.at("host.compute_ms"));
  const double stream = std::stod(info.at("host.stream_ms"));
  CHECK(compute > 0 && stream > 0);
  CHECK(std::fabs(host.Factor() -
                  std::sqrt(compute / HostSpeed::kNominalComputeMs * stream /
                            HostSpeed::kNominalStreamMs)) < 1e-9);
  CHECK(std::fabs(host.TotalMs() - compute - stream) < 1e-9);

  // setup_s: the median set-up over the set-up factor, raw times kept.
  WorkloadResult r;
  PutSetup({3.0, 1.0, 2.0}, idle, r);
  CHECK_EQ(r.metrics.all().at("setup_s").value, 2.0);
  CHECK(r.info.at("setup.raw_s") == "3 1 2");

  // peak RSS is read once, at the first observation past the target.
  RssAtWork rss(10);
  rss.Observe(9);
  rss.Describe(info);
  CHECK(info.at("rss.reached") == "false");
  rss.Observe(10);
  rss.Describe(info);
  CHECK(info.at("rss.reached") == "true");
  CHECK(rss.Mb() > 0);
}

void TestMetricNames() {
  CHECK(ValidMetricName("throughput_ops_s"));
  CHECK(ValidMetricName("engine.op_ms.select_pred.wsdt"));
  CHECK(ValidMetricName("9lives-x.y_z"));
  CHECK(ValidMetricName(std::string(64, 'a')));
  CHECK(!ValidMetricName(""));
  CHECK(!ValidMetricName(std::string(65, 'a')));
  CHECK(!ValidMetricName(".leading_dot"));
  CHECK(!ValidMetricName("_leading_underscore"));
  CHECK(!ValidMetricName("-leading-dash"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidMetricName("slash/name"));
  CHECK(!ValidMetricName("quote\"name"));
  CHECK(!ValidMetricName("caf\xc3\xa9"));

  MetricSet m;
  CHECK(m.Set("a.b", 1.0, "ms"));
  CHECK(!m.Set("a.b", 2.0, "ms"));  // used once
  CHECK(!m.Set("bad name", 1.0, "ms"));
  CHECK_EQ(m.all().size(), 1u);
}

std::vector<size_t> Draw(uint64_t seed, size_t n) {
  BlockStream s({3, 1, 2}, seed);
  std::vector<size_t> out;
  for (size_t i = 0; i < n; ++i) out.push_back(s.Next());
  return out;
}

void TestStreams() {
  // Same seed, same stream; another seed, another stream.
  CHECK(Draw(7, 600) == Draw(7, 600));
  CHECK(Draw(7, 600) != Draw(8, 600));
  // Every block holds the exact mix.
  std::vector<size_t> d = Draw(9, 600);
  CHECK_EQ(BlockStream({3, 1, 2}, 1).BlockSize(), 6u);
  for (size_t b = 0; b < d.size(); b += 6) {
    size_t counts[3] = {0, 0, 0};
    for (size_t i = b; i < b + 6; ++i) counts[d[i]]++;
    CHECK(counts[0] == 3 && counts[1] == 1 && counts[2] == 2);
  }
  Rng a(42), b(42), c(43);
  bool same = true, differ = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next();
    same = same && x == b.Next();
    differ = differ || x != c.Next();
  }
  CHECK(same);
  CHECK(differ);
}

void TestArgs() {
  const char* good[] = {"perfbench", "--workload", "census_query", "--seed",
                        "12", "--seconds", "2.5", "--trace", "1"};
  auto args = ParseArgs(9, const_cast<char**>(good));
  CHECK(args.has_value());
  if (args) {
    CHECK_EQ(args->workload, "census_query");
    CHECK_EQ(args->seed, 12u);
    CHECK_EQ(args->seconds, 2.5);
    CHECK(args->trace);
  }
  const char* bad_trace[] = {"perfbench", "--workload", "w", "--trace", "2"};
  CHECK(!ParseArgs(5, const_cast<char**>(bad_trace)));
  const char* bad_seed[] = {"perfbench", "--workload", "w", "--seed", "x1"};
  CHECK(!ParseArgs(5, const_cast<char**>(bad_seed)));
  const char* no_workload[] = {"perfbench", "--seed", "1"};
  CHECK(!ParseArgs(3, const_cast<char**>(no_workload)));
  const char* dangling[] = {"perfbench", "--workload"};
  CHECK(!ParseArgs(2, const_cast<char**>(dangling)));
}

Relation PossibleWithConf(double conf_of_second) {
  Relation r(Schema::FromNames({"A", "B", "conf"}), "P");
  r.AppendRow({Value::Int(1), Value::Int(2), Value::Double(1.0)});
  r.AppendRow({Value::Int(3), Value::Int(4), Value::Double(conf_of_second)});
  return r;
}

void TestPerturbedAnswersFail() {
  Relation a = PossibleWithConf(0.25);
  CHECK(CompareConfidences(a, PossibleWithConf(0.25), 1e-9).empty());
  CHECK(CompareConfidences(a, PossibleWithConf(0.25 + 1e-12), 1e-9).empty());
  CHECK(!CompareConfidences(a, PossibleWithConf(0.25 + 1e-6), 1e-9).empty());

  Relation other(Schema::FromNames({"A", "B", "conf"}), "P");
  other.AppendRow({Value::Int(1), Value::Int(2), Value::Double(1.0)});
  other.AppendRow({Value::Int(3), Value::Int(5), Value::Double(0.25)});
  CHECK(!CompareConfidences(a, other, 1e-9).empty());
  CHECK(!CompareSets(a, other).empty());
  CHECK(CompareSets(a, PossibleWithConf(0.25)).empty());

  Relation certain(Schema::FromNames({"A", "B"}), "C");
  certain.AppendRow({Value::Int(1), Value::Int(2)});
  CHECK(CheckSubset(certain, a).empty());
  certain.AppendRow({Value::Int(9), Value::Int(9)});
  CHECK(!CheckSubset(certain, a).empty());

  // A mismatch is a failed operation, which makes the run incorrect.
  WorkloadResult result;
  result.attempted = 10;
  std::string d = CompareConfidences(a, PossibleWithConf(0.5), 1e-9);
  if (!d.empty()) result.Fail(d);
  CHECK_EQ(result.failed, 1u);
  CHECK_EQ(result.mismatches.size(), 1u);
}

}  // namespace

int main() {
  TestPercentiles();
  TestHostSpeed();
  TestMetricNames();
  TestStreams();
  TestArgs();
  TestPerturbedAnswersFail();
  return CheckResult("harness_test");
}
