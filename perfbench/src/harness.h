// Shared machinery of the repository benchmark: command-line arguments,
// percentiles, metric sets, seeded request streams, the in-memory span
// tracer and the per-run provenance record.
//
// Every workload (census_query.cc, serve_mixed.cc, belief_game.cc) fills a
// WorkloadResult; main.cc prints it. Spans and counters are taken only
// here, around calls into the maywsd layers' public functions — the
// program under test carries no tracing of its own.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_out";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
/// Returns nullopt (after printing why to stderr) on anything malformed.
std::optional<Args> ParseArgs(int argc, char** argv);

// -- Percentiles -------------------------------------------------------------

/// Index of the p-quantile (0 < p < 1) in a sorted sample of n values:
/// the nearest rank ceil(p·n) − 1, so that exactly n − 1 − index samples
/// lie beyond it.
size_t PercentileIndex(size_t n, double p);

/// Samples strictly beyond the p-quantile's index in a sample of n.
size_t SamplesBeyond(size_t n, double p);

/// True when a sample of n supports reporting the p-quantile: at least ten
/// samples lie beyond it (the rule every reported tail follows).
bool SupportsPercentile(size_t n, double p);

/// The p-quantile of `values` by PercentileIndex (sorts a copy); 0 when
/// empty.
double Percentile(std::vector<double> values, double p);

// -- Metrics -----------------------------------------------------------------

/// True for a metric name the benchmark contract accepts: starts with a
/// letter or digit, at most 64 characters from letters, digits, '_', '.'
/// and '-'.
bool ValidMetricName(std::string_view name);

/// An ordered set of named metrics with units. Set() rejects invalid
/// names and repeated names (returns false) so a typo cannot reach the
/// report.
class MetricSet {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  bool Set(const std::string& name, double value, const std::string& unit);
  /// Set() that aborts the run on an invalid or repeated name.
  void Put(const std::string& name, double value, const std::string& unit);

  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Latencies in milliseconds, grouped by request class (for example
/// "certain.wsdt.q3"). A workload's classes cost from tens of microseconds
/// to tens of milliseconds, so a percentile of the pooled sample sits in
/// whichever class's band the mix puts it and jumps between bands when the
/// data or the host shift slightly. The reported summary is therefore
/// class-balanced: the geometric mean over classes of each class's own
/// percentile. A change that makes every class k times faster moves it by
/// k; one that speeds up a single class of n moves it by that class's
/// factor to the power 1/n.
class ClassLatencies {
 public:
  void Add(const std::string& cls, double ms) { ms_[cls].push_back(ms); }
  /// Appends every sample of `other`.
  void Merge(const ClassLatencies& other);

  /// Geometric mean over classes of each class's p-quantile; 0 when empty.
  double Summary(double p) const;

  /// Puts `<prefix>_p50_ms` and `<prefix>_p90_ms`, each Summary() scaled
  /// by `scale` (the host-speed factor). Classes whose sample does not
  /// support the p90 (SupportsPercentile) are listed in `*thin`.
  void Report(const std::string& prefix, double scale, MetricSet& out,
              std::vector<std::string>* thin) const;

 private:
  std::map<std::string, std::vector<double>> ms_;
};

// -- Host speed -------------------------------------------------------------

/// The two parts of the reference computation, written in the benchmark's
/// own files so that no change to the program under test can make them
/// faster or slower. Each returns a checksum, so the work cannot be elided.
///   Compute: hash-table builds and probes, sorts and string allocations
///            over about 1.5 MB (fits in a core's L2 cache).
///   Stream:  a sum over a 16 MB buffer (beyond L2; shared-cache and
///            memory bandwidth).
uint64_t ReferenceCompute();
uint64_t ReferenceStream();

/// Times the reference computation between requests, at most once per
/// `every_ms`, so that a run can report its times at a fixed host speed.
///
/// The benchmark runs on shared virtual machines whose speed for the same
/// code drifts by ±20% and more over minutes as other tenants come and go;
/// the whole latency distribution moves, its fastest samples too. The
/// run's slowdown, Factor(), is the geometric mean over the two parts of
/// (median time of the run ÷ the part's time on the nominal host). Over
/// sets of 30 s runs it tracked the workloads better than either part
/// alone. The end-to-end times are divided by it (throughputs multiplied);
/// the provenance record keeps it, so the raw values can be recovered.
class HostSpeed {
 public:
  /// The parts' times on the nominal host, a 4-vCPU Intel Xeon (Sapphire
  /// Rapids, 2.0 GHz) KVM guest: fixed scale constants, the same for every
  /// commit measured.
  static constexpr double kNominalComputeMs = 4.0;
  static constexpr double kNominalStreamMs = 2.5;

  explicit HostSpeed(double every_ms = 250.0) : every_ms_(every_ms) {}

  /// Samples when at least `every_ms` passed since the last sample.
  /// Thread-safe; a call that finds another thread sampling returns.
  void MaybeSample();
  /// Samples now.
  void Sample();

  size_t Samples() const;
  /// Time spent in the reference computation so far, in ms.
  double TotalMs() const;
  /// 1 when nothing was sampled; above 1 when the host ran slower than
  /// the nominal one.
  double Factor() const;
  /// Puts host.factor, host.compute_ms and host.stream_ms (medians) and
  /// host.samples into a provenance record; a reported time times
  /// host.factor is the raw one.
  void Describe(std::map<std::string, std::string>& info) const;

 private:
  double every_ms_;
  mutable std::mutex mu_;
  std::vector<double> compute_ms_, stream_ms_;
  int64_t last_ns_ = -1;
};

// -- Request streams -----------------------------------------------------------

/// splitmix64: the seeded generator every workload draws from.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// A weighted stream of class indices with exact proportions: each block
/// of sum(weights) draws holds every class exactly weights[i] times, in a
/// seeded shuffled order. The mix is therefore the same for every seed;
/// only the order (and the data the workload derives from the seed)
/// changes.
class BlockStream {
 public:
  BlockStream(std::vector<int> weights, uint64_t seed);
  size_t Next();
  /// Draws per block: sum(weights). A traced run alternates whole blocks
  /// between traced and untraced, so both halves see the exact mix.
  uint64_t BlockSize() const;

 private:
  void Refill();

  std::vector<int> weights_;
  Rng rng_;
  std::vector<size_t> block_;
  size_t pos_ = 0;
};

// -- Tracing -------------------------------------------------------------------

/// One recorded span.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   ///< 0 = request root
  int64_t request = 0;  ///< shared by every span of one request
  double Ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span store. Recording is enabled per thread with
/// ScopedRequest; a SpanScope on a thread with no active request records
/// nothing and costs two clock reads. WriteJsonl() dumps every span at the
/// end of the run.
class Tracer {
 public:
  static Tracer& Get();

  void Record(Span span);
  std::vector<Span> Spans() const;
  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;
  int64_t NextId();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

/// Marks the calling thread as tracing request `request` for its lifetime.
class ScopedRequest {
 public:
  ScopedRequest(int64_t request, bool enabled);
  ~ScopedRequest();
  ScopedRequest(const ScopedRequest&) = delete;
  ScopedRequest& operator=(const ScopedRequest&) = delete;

 private:
  bool enabled_;
};

/// Records one span (named `name`, parented to the enclosing SpanScope)
/// when the thread is tracing.
class SpanScope {
 public:
  explicit SpanScope(std::string name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_;
  Span span_;
  int64_t saved_parent_ = 0;
};

/// Puts trace.untraced_ops_s, trace.traced_ops_s and trace.overhead_ops_s
/// (traced minus untraced) from the ops and summed request time of each
/// half of an interleaved traced run ([0] untraced, [1] traced) driven by
/// `clients` closed-loop clients.
void PutTraceOverhead(const uint64_t ops[2], const double request_ms[2],
                      int clients, MetricSet& out);

// -- Run record ----------------------------------------------------------------

/// What every workload returns to main.
struct WorkloadResult {
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Descriptions of failed answer checks (first few are printed).
  std::vector<std::string> mismatches;
  /// Request classes whose sample is too thin for the reported tail.
  std::vector<std::string> thin;
  /// Provenance: sizes, mix, repeated-input shares, catalog size, ...
  std::map<std::string, std::string> info;

  void Fail(std::string what);
};

/// Puts setup_s, the median of the run's set-up times divided by the host
/// factor of the reference samples taken just before them (`setup_host`),
/// and records the raw times and that factor in the provenance.
void PutSetup(const std::vector<double>& setup_s, const HostSpeed& setup_host,
              WorkloadResult& result);

/// Process high-water resident set size in MB (getrusage).
double PeakRssMb();

/// Process high-water RSS once a loop has completed a fixed number of
/// operations. Heaps here grow with the work done (belief_game's by about
/// 7 MB per thousand rounds), so the high-water mark at the end of a timed
/// run would follow the host's speed; taken at a fixed amount of work it
/// does not.
class RssAtWork {
 public:
  explicit RssAtWork(uint64_t at_ops) : at_ops_(at_ops) {}
  /// Takes the reading at the first call with `ops` ≥ the target.
  void Observe(uint64_t ops) {
    if (!taken_ && ops >= at_ops_) {
      mb_ = PeakRssMb();
      taken_ = true;
    }
  }
  /// The reading, or the current high-water mark when the run ended
  /// before the target (reported in the provenance by Describe()).
  double Mb() const { return taken_ ? mb_ : PeakRssMb(); }
  /// Puts rss.at_ops, rss.reached and rss.peak_mb_at_end.
  void Describe(std::map<std::string, std::string>& info) const;

 private:
  uint64_t at_ops_;
  bool taken_ = false;
  double mb_ = 0.0;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Formats `v` with full precision for the JSON report.
std::string Num(double v);

/// `s` as a JSON string literal (control characters become spaces).
std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
