#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return std::nullopt;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end == '\0' && !(args.seconds > 0 && args.seconds <= 600)) {
        std::fprintf(stderr, "--seconds must be in (0, 600]\n");
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return std::nullopt;
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "bad number for %s: %s\n", flag.c_str(),
                   value.c_str());
      return std::nullopt;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "--workload is required\n");
    return std::nullopt;
  }
  return args;
}

size_t PercentileIndex(size_t n, double p) {
  if (n == 0) return 0;
  double rank = std::ceil(p * static_cast<double>(n));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, p);
}

bool SupportsPercentile(size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t idx = PercentileIndex(values.size(), p);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name) || metrics_.count(name) != 0) return false;
  metrics_[name] = Metric{value, unit};
  return true;
}

void MetricSet::Put(const std::string& name, double value,
                    const std::string& unit) {
  if (!Set(name, value, unit)) {
    std::fprintf(stderr, "invalid or repeated metric name: %s\n",
                 name.c_str());
    std::exit(3);
  }
}

void ClassLatencies::Merge(const ClassLatencies& other) {
  for (const auto& [cls, ms] : other.ms_) {
    std::vector<double>& mine = ms_[cls];
    mine.insert(mine.end(), ms.begin(), ms.end());
  }
}

double ClassLatencies::Summary(double p) const {
  if (ms_.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [cls, ms] : ms_) {
    log_sum += std::log(std::max(Percentile(ms, p), 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(ms_.size()));
}

void ClassLatencies::Report(const std::string& prefix, double scale,
                            MetricSet& out,
                            std::vector<std::string>* thin) const {
  out.Put(prefix + "_p50_ms", Summary(0.5) / scale, "ms");
  out.Put(prefix + "_p90_ms", Summary(0.9) / scale, "ms");
  if (thin == nullptr) return;
  for (const auto& [cls, ms] : ms_) {
    if (!SupportsPercentile(ms.size(), 0.9)) {
      thin->push_back(prefix + "." + cls + " (" + std::to_string(ms.size()) +
                      " samples)");
    }
  }
}

uint64_t ReferenceCompute() {
  constexpr size_t kKeys = 1 << 14;
  std::vector<uint64_t> keys(kKeys);
  Rng rng(42);
  for (uint64_t& k : keys) k = rng.Next();
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < kKeys; ++i) table[keys[i] >> 4] += i;
  uint64_t sum = 0;
  for (size_t i = 0; i < kKeys; i += 2) {
    auto it = table.find(keys[(i * 7) % kKeys] >> 4);
    if (it != table.end()) sum += it->second;
  }
  std::vector<std::string> words;
  words.reserve(kKeys / 4);
  for (size_t i = 0; i < kKeys; i += 4) {
    words.push_back(std::to_string(keys[i]));
  }
  std::sort(keys.begin(), keys.end());
  std::sort(words.begin(), words.end());
  return sum + keys[kKeys / 2] + words.front().size();
}

namespace {

const std::vector<uint64_t>& StreamBuffer() {
  static const std::vector<uint64_t> buffer = [] {
    std::vector<uint64_t> b((16u << 20) / sizeof(uint64_t));
    Rng rng(43);
    for (uint64_t& v : b) v = rng.Next() & 0xff;
    return b;
  }();
  return buffer;
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

uint64_t ReferenceStream() {
  uint64_t sum = 0;
  for (uint64_t v : StreamBuffer()) sum += v;
  return sum;
}

void HostSpeed::MaybeSample() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (last_ns_ >= 0 &&
      static_cast<double>(SteadyNs() - last_ns_) < every_ms_ * 1e6) {
    return;
  }
  lock.unlock();
  Sample();
}

void HostSpeed::Sample() {
  static volatile uint64_t sink = 0;
  StreamBuffer();  // built on first use, outside the timing
  const int64_t t0 = SteadyNs();
  sink = sink + ReferenceCompute();
  const int64_t t1 = SteadyNs();
  sink = sink + ReferenceStream();
  const int64_t t2 = SteadyNs();
  std::lock_guard<std::mutex> lock(mu_);
  compute_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
  stream_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
  last_ns_ = t2;
}

size_t HostSpeed::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compute_ms_.size();
}

double HostSpeed::TotalMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (double ms : compute_ms_) total += ms;
  for (double ms : stream_ms_) total += ms;
  return total;
}

double HostSpeed::Factor() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (compute_ms_.empty()) return 1.0;
  return std::sqrt(Median(compute_ms_) / kNominalComputeMs *
                   Median(stream_ms_) / kNominalStreamMs);
}

void HostSpeed::Describe(std::map<std::string, std::string>& info) const {
  info["host.factor"] = Num(Factor());
  std::lock_guard<std::mutex> lock(mu_);
  info["host.compute_ms"] = Num(Median(compute_ms_));
  info["host.stream_ms"] = Num(Median(stream_ms_));
  info["host.samples"] = std::to_string(compute_ms_.size());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

BlockStream::BlockStream(std::vector<int> weights, uint64_t seed)
    : weights_(std::move(weights)), rng_(seed) {}

void BlockStream::Refill() {
  block_.clear();
  for (size_t i = 0; i < weights_.size(); ++i) {
    block_.insert(block_.end(), static_cast<size_t>(weights_[i]), i);
  }
  for (size_t i = block_.size(); i > 1; --i) {
    std::swap(block_[i - 1], block_[rng_.Below(i)]);
  }
  pos_ = 0;
}

uint64_t BlockStream::BlockSize() const {
  uint64_t n = 0;
  for (int w : weights_) n += static_cast<uint64_t>(w);
  return n;
}

size_t BlockStream::Next() {
  if (pos_ >= block_.size()) Refill();
  return block_[pos_++];
}

namespace {

/// Nanoseconds since the first span of the run.
int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               epoch)
      .count();
}

struct ThreadTrace {
  bool enabled = false;
  int64_t request = 0;
  int64_t parent = 0;
};

thread_local ThreadTrace tls_trace;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\":" << JsonQuote(s.name) << ",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedRequest::ScopedRequest(int64_t request, bool enabled)
    : enabled_(enabled) {
  if (enabled_) tls_trace = ThreadTrace{true, request, 0};
}

ScopedRequest::~ScopedRequest() {
  if (enabled_) tls_trace = ThreadTrace{};
}

SpanScope::SpanScope(std::string name) : active_(tls_trace.enabled) {
  if (!active_) return;
  span_.name = std::move(name);
  span_.id = Tracer::Get().NextId();
  span_.parent = tls_trace.parent;
  span_.request = tls_trace.request;
  saved_parent_ = tls_trace.parent;
  tls_trace.parent = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tls_trace.parent = saved_parent_;
  Tracer::Get().Record(std::move(span_));
}

void PutTraceOverhead(const uint64_t ops[2], const double request_ms[2],
                      int clients, MetricSet& out) {
  double rate[2];
  for (int i = 0; i < 2; ++i) {
    double busy_s = request_ms[i] / 1e3 / clients;
    rate[i] = busy_s > 0 ? static_cast<double>(ops[i]) / busy_s : 0.0;
  }
  out.Put("trace.untraced_ops_s", rate[0], "ops/s");
  out.Put("trace.traced_ops_s", rate[1], "ops/s");
  out.Put("trace.overhead_ops_s", rate[1] - rate[0], "ops/s");
}

void WorkloadResult::Fail(std::string what) {
  failed++;
  if (mismatches.size() < 16) mismatches.push_back(std::move(what));
}

void PutSetup(const std::vector<double>& setup_s, const HostSpeed& setup_host,
              WorkloadResult& result) {
  result.metrics.Put("setup_s", Median(setup_s) / setup_host.Factor(), "s");
  std::string raw;
  for (double s : setup_s) raw += (raw.empty() ? "" : " ") + Num(s);
  result.info["setup.raw_s"] = raw;
  result.info["setup.host_factor"] = Num(setup_host.Factor());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RssAtWork::Describe(std::map<std::string, std::string>& info) const {
  info["rss.at_ops"] = std::to_string(at_ops_);
  info["rss.reached"] = taken_ ? "true" : "false";
  info["rss.peak_mb_at_end"] = Num(PeakRssMb());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
