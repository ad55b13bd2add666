// census_query: Figure 30 as a closed loop.
//
// One client, default SessionOptions (threads = 1), read-only. Sessions
// over chased noisy census data (0.1% placeholder density, the twelve
// Figure 25 dependencies): kWsdtDraws WSDT sessions of kWsdtRows and one
// U-relations session of kUrelRows. U-relations answer the same query
// several times faster per row, so its session holds four times the rows
// and the two backends' request costs overlap instead of forming two
// separate latency bands. The WSDT sessions hold the same records under
// different noise draws and take turns per query: at 16k rows a
// selective query's answer time depends on where the few or-sets of its
// output fall, up to 2× between draws, so the workload covers several
// placements rather than one.
//
// A request runs Run(Qi) on one session, asks possible-with-confidence
// and certain on the output, probes two of its tuples with
// TupleConfidence, and drops the output. The (backend, query) pair is
// drawn from a BlockStream that serves every pair once per block, and the
// answer and query latencies are summarized per class (ClassLatencies).
//
// Time goes to the plan driver, the WSDT and U-relation operators,
// component forcing and confidence computation; none to the server,
// protocol, update or belief layers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "census/queries.h"
#include "common/timer.h"
#include "core/component_store.h"
#include "core/engine/plan_driver.h"
#include "core/wsdt_chase.h"
#include "rel/database.h"
#include "rel/eval.h"
#include "traced_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace maywsd;

constexpr size_t kWsdtRows = 16000;
constexpr size_t kUrelRows = 4 * kWsdtRows;
constexpr double kDensity = 0.001;
/// The noisy census is one fixed data set, as the paper's IPUMS extract
/// with its injected noise is; the seed draws the request order and the
/// probed tuples. With seeded records and noise, the selective queries'
/// answer sizes and or-set placements on the WSDT side changed from seed
/// to seed, their answer times by up to 2×, and the answer p90 of runs
/// with different seeds spread twice as far as that of one seed's runs.
constexpr uint64_t kCensusSeed = 1990;
constexpr int kWsdtDraws = 4;
constexpr int kSetupRepeats = 5;
constexpr int kProbes = 2;
constexpr double kConfTolerance = 1e-9;
/// Operations after which peak_rss_mb is read (RssAtWork).
constexpr uint64_t kRssOps = 4000;

/// One session of the workload.
struct Side {
  const char* name = "";  ///< the backend
  rel::Relation base;  ///< the certain census before noise (one-world input)
  uint64_t noise_seed = 0;
  std::optional<api::Session> session;
  /// Row counts of every query's possible and certain answer, taken at
  /// warm-up: the data never changes, so every request must repeat them.
  std::map<int, std::pair<size_t, size_t>> expected;
};

struct Setup {
  std::vector<Side> wsdt;  ///< kWsdtDraws noise draws of the same records
  Side urel;
};

/// The (backend, query) request mix: index = backend * 6 + (query - 1),
/// each pair once per block of 12, so that every latency class gets the
/// same share of the run's samples.
const std::vector<int>& MixWeights() {
  static const std::vector<int> kWeights(12, 1);
  return kWeights;
}

uint64_t DataSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x100000001B3ull + salt);
  return rng.Next();
}

/// Generates, noises and chases `rows` census records into a WSDT.
Result<core::Wsdt> MakeChasedWsdt(const census::CensusSchema& schema,
                                  const rel::Relation& base, uint64_t seed) {
  MAYWSD_ASSIGN_OR_RETURN(
      core::Wsdt wsdt, census::MakeNoisyWsdt(base, schema, kDensity, seed));
  MAYWSD_RETURN_IF_ERROR(
      core::WsdtChase(wsdt, census::CensusDependencies("R")));
  return wsdt;
}

Result<Side> BuildSide(const char* name, api::BackendKind kind,
                       const rel::Relation& base, uint64_t noise_seed) {
  census::CensusSchema schema = census::CensusSchema::Standard();
  Side side;
  side.name = name;
  side.base = base;
  side.noise_seed = noise_seed;
  MAYWSD_ASSIGN_OR_RETURN(core::Wsdt wsdt,
                          MakeChasedWsdt(schema, side.base, noise_seed));
  if (kind == api::BackendKind::kWsdt) {
    side.session = api::Session::Open(std::move(wsdt));
  } else {
    MAYWSD_ASSIGN_OR_RETURN(api::Session s, api::Session::Open(kind, wsdt));
    side.session = std::move(s);
  }
  // Warm-up: every query once, recording the answer sizes every later
  // request must reproduce.
  for (int q = 1; q <= 6; ++q) {
    MAYWSD_RETURN_IF_ERROR(
        side.session->Run(census::CensusQuery(q, "R"), "WARM"));
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation pc,
                            side.session->PossibleTuplesWithConfidence("WARM"));
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation ce,
                            side.session->CertainTuples("WARM"));
    side.expected[q] = {pc.NumRows(), ce.NumRows()};
    MAYWSD_RETURN_IF_ERROR(side.session->Drop("WARM"));
  }
  return side;
}

Result<Setup> BuildSetup() {
  census::CensusSchema schema = census::CensusSchema::Standard();
  Setup setup;
  rel::Relation records = census::GenerateCensus(
      schema, kWsdtRows, DataSeed(kCensusSeed, kWsdtRows));
  for (int d = 0; d < kWsdtDraws; ++d) {
    MAYWSD_ASSIGN_OR_RETURN(
        Side side, BuildSide("wsdt", api::BackendKind::kWsdt, records,
                             DataSeed(kCensusSeed, kWsdtRows + 1 + 1000 * d)));
    setup.wsdt.push_back(std::move(side));
  }
  records = census::GenerateCensus(schema, kUrelRows,
                                   DataSeed(kCensusSeed, kUrelRows));
  MAYWSD_ASSIGN_OR_RETURN(setup.urel,
                          BuildSide("urel", api::BackendKind::kUrel, records,
                                    DataSeed(kCensusSeed, kUrelRows + 1)));
  return setup;
}

/// Per-backend accumulators of the traced run (counters diffed around
/// each call; times come from the spans afterwards).
struct LayerAcc {
  uint64_t queries = 0;
  uint64_t forced_evals = 0;
  uint64_t compose_nodes = 0;
  uint64_t round_trips = 0;
  uint64_t answer_hits = 0;
  uint64_t answer_lookups = 0;
};

/// Final agreement check over identical data: the U-relations twin and the
/// WSDT session give the same possible and certain answers and
/// confidences (within 1e-9) for every query, and certain ⊆ possible on
/// both.
void CheckAgreement(const api::Session& a, const api::Session& b,
                    const std::string& label, WorkloadResult& result) {
  for (int q = 1; q <= 6; ++q) {
    std::string what = label + " Q" + std::to_string(q) + ": ";
    std::vector<rel::Relation> pcs, ces;
    for (const api::Session* s : {&a, &b}) {
      api::Snapshot snap = s->Snapshot();
      Status st = snap.Run(census::CensusQuery(q, "R"), "CHECK");
      auto pc = snap.PossibleTuplesWithConfidence("CHECK");
      auto ce = snap.CertainTuples("CHECK");
      if (!st.ok() || !pc.ok() || !ce.ok()) {
        result.Fail(what + "evaluation failed");
        return;
      }
      pcs.push_back(std::move(pc).value());
      ces.push_back(std::move(ce).value());
    }
    std::string d = CompareConfidences(pcs[0], pcs[1], kConfTolerance);
    if (d.empty()) d = CompareSets(ces[0], ces[1]);
    if (d.empty()) d = CheckSubset(ces[0], pcs[0]);
    if (d.empty()) d = CheckSubset(ces[1], pcs[1]);
    if (!d.empty()) result.Fail(what + d);
  }
}

/// Rebuilds `side`'s chased WSDT (deterministic in its noise seed) as a
/// WSDT session and checks it against the measured session.
void CheckSide(const Side& side, WorkloadResult& result) {
  census::CensusSchema schema = census::CensusSchema::Standard();
  auto wsdt = MakeChasedWsdt(schema, side.base, side.noise_seed);
  if (!wsdt.ok()) {
    result.Fail("rebuild for check: " + wsdt.status().ToString());
    return;
  }
  api::Session twin = api::Session::Open(std::move(wsdt).value());
  CheckAgreement(*side.session, twin,
                 std::string(side.name) + " vs wsdt twin", result);
}

}  // namespace

WorkloadResult RunCensusQuery(const Args& args) {
  WorkloadResult result;

  // -- Set-up, repeated; the median is reported ----------------------------
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  HostSpeed setup_host;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    setup_host.Sample();
    Timer t;
    auto built = BuildSetup();
    setup_s.push_back(t.Seconds());
    if (!built.ok()) {
      result.Fail("setup: " + built.status().ToString());
      return result;
    }
    setup = std::move(built).value();
  }

  // The traced run alternates whole blocks of the mix between traced and
  // untraced. A traced request sends its plan through core::engine::Evaluate
  // over a TracedOps wrapping the session's own backend (what Session::Run
  // does at threads = 1), and afterwards evaluates the same plan on the
  // certain base with the one-world evaluator.
  std::map<const Side*, std::unique_ptr<TracedOps>> traced;
  std::array<rel::Database, 2> oneworld;
  if (args.trace) {
    for (Side& side : setup->wsdt) {
      traced[&side] = std::make_unique<TracedOps>(side.session->ops());
    }
    traced[&setup->urel] =
        std::make_unique<TracedOps>(setup->urel.session->ops());
    oneworld[0].PutRelation(setup->wsdt[0].base);
    oneworld[1].PutRelation(setup->urel.base);
  }

  // -- Closed loop ------------------------------------------------------------
  BlockStream mix(MixWeights(), DataSeed(args.seed, 7));
  Rng probe_rng(DataSeed(args.seed, 11));
  // Latencies of untraced requests (all of them with tracing off), by
  // class: backend.q<i> for queries, kind.backend.q<i> for answers.
  ClassLatencies query, answer;
  std::array<LayerAcc, 2> acc;
  std::map<int64_t, std::pair<int, int>> traced_requests;  // id → (b, q)
  double mode_ms[2] = {0, 0};  // request time [untraced, traced]
  uint64_t mode_ops[2] = {0, 0};
  uint64_t requests = 0;
  uint64_t ops = 0;
  uint64_t probes = 0, repeated_probes = 0;
  std::map<std::string, uint64_t> served;
  std::array<uint64_t, 7> wsdt_turn{};  // per query: the next WSDT draw

  HostSpeed host;  // the loop's reference samples
  RssAtWork rss(kRssOps);
  Timer wall;
  while (wall.Seconds() < args.seconds) {
    size_t pick = mix.Next();
    int b = static_cast<int>(pick / 6);
    int q = static_cast<int>(pick % 6) + 1;
    Side& side = b == 0 ? setup->wsdt[wsdt_turn[q]++ % kWsdtDraws]
                        : setup->urel;
    api::Session& session = *side.session;
    const std::string label =
        std::string(side.name) + ".q" + std::to_string(q);
    const bool tr = args.trace && (requests / mix.BlockSize()) % 2 == 0;
    const int64_t request_id = static_cast<int64_t>(requests) + 1;
    const std::string out = "OUT" + std::to_string(requests);
    const rel::Plan plan = census::CensusQuery(q, "R");
    served[label]++;
    requests++;
    uint64_t request_ops = 0;
    ScopedRequest rq(request_id, tr);
    if (tr) traced_requests[request_id] = {b, q};
    std::optional<SpanScope> root;
    if (tr) root.emplace("census.request." + label);
    Timer request_timer;

    // Run(Qi).
    Status st;
    {
      core::store::StoreStats s0{};
      uint64_t rt0 = 0;
      if (tr) {
        s0 = core::store::GetStoreStats();
        rt0 = session.Stats().round_trips;
      }
      Timer t;
      if (tr) {
        SpanScope span("engine.evaluate");
        st = core::engine::Evaluate(*traced.at(&side), plan, out);
      } else {
        st = session.Run(plan, out);
      }
      double ms = t.Millis();
      if (!tr) query.Add(label, ms);
      request_ops++;
      if (tr) {
        core::store::StoreStats s1 = core::store::GetStoreStats();
        LayerAcc& a = acc[b];
        a.queries++;
        a.forced_evals += s1.forced_evals - s0.forced_evals;
        a.compose_nodes += s1.compose_nodes - s0.compose_nodes;
        a.round_trips += session.Stats().round_trips - rt0;
      }
    }
    if (!st.ok()) {
      result.Fail(label + " run: " + st.ToString());
      ops += request_ops;
      continue;
    }

    // The answer surface on the output.
    auto timed_answer = [&](const char* kind, auto&& fn) {
      api::SessionStats s0;
      if (tr) s0 = session.Stats();
      Timer t;
      auto r = [&] {
        SpanScope span(std::string("api.answer.") + kind);
        return fn();
      }();
      if (!tr) answer.Add(std::string(kind) + "." + label, t.Millis());
      request_ops++;
      if (tr) {
        api::SessionStats s1 = session.Stats();
        uint64_t hits = s1.answer_cache_hits - s0.answer_cache_hits;
        acc[b].answer_hits += hits;
        acc[b].answer_lookups +=
            hits + s1.answer_cache_misses - s0.answer_cache_misses;
      }
      return r;
    };
    auto pc = timed_answer("possible_conf", [&] {
      return session.PossibleTuplesWithConfidence(out);
    });
    auto ce =
        timed_answer("certain", [&] { return session.CertainTuples(out); });
    const auto& expect = side.expected[q];
    if (!pc.ok() || !ce.ok()) {
      result.Fail(label + " answer failed");
    } else if (pc->NumRows() != expect.first ||
               ce->NumRows() != expect.second) {
      result.Fail(label + " answer sizes differ from warm-up");
    } else if (pc->NumRows() > 0) {
      size_t arity = pc->arity() - 1;
      std::set<size_t> probed;
      for (int k = 0; k < kProbes; ++k) {
        size_t r = probe_rng.Below(pc->NumRows());
        repeated_probes += probed.count(r);
        probed.insert(r);
        probes++;
        rel::TupleRef row = pc->row(r);
        std::span<const rel::Value> tuple(row.data(), arity);
        auto conf = timed_answer("tuple_conf", [&] {
          return session.TupleConfidence(out, tuple);
        });
        if (!conf.ok() ||
            std::fabs(conf.value() - row[arity].AsDouble()) > kConfTolerance) {
          result.Fail(label + " conf(t) disagrees with possible-with-conf");
        }
      }
    }
    double request_ms = request_timer.Millis();
    mode_ms[tr ? 1 : 0] += request_ms;
    mode_ops[tr ? 1 : 0] += request_ops;
    ops += request_ops;
    Status dropped = session.Drop(out);
    if (!dropped.ok()) result.Fail("drop: " + dropped.ToString());
    root.reset();

    if (tr) {
      // Outside the request's time: the one-world reference.
      SpanScope span("rel.evaluate");
      if (!rel::Evaluate(plan, oneworld[b]).ok()) {
        result.Fail(label + " one-world evaluate failed");
      }
    }
    host.MaybeSample();
    rss.Observe(ops);
  }
  // The loop's own time, without the reference samples taken in it.
  const double elapsed = wall.Seconds() - host.TotalMs() / 1e3;
  const uint64_t peak_cells = core::store::GetStoreStats().peak_cells;
  result.attempted = ops;

  // -- Answer checks -----------------------------------------------------------
  // WSDT and U-relations over the same data: a U-relations twin of the WSDT
  // side, and a WSDT twin of the measured U-relations side.
  for (const Side& side : setup->wsdt) {
    auto twin =
        api::Session::Open(api::BackendKind::kUrel, *side.session->wsdt());
    if (twin.ok()) {
      CheckAgreement(*side.session, twin.value(), "wsdt vs urel twin",
                     result);
    } else {
      result.Fail("open urel twin: " + twin.status().ToString());
    }
  }
  CheckSide(setup->urel, result);

  // -- Report -------------------------------------------------------------------
  MetricSet& m = result.metrics;
  const double slow = host.Factor();
  PutSetup(setup_s, setup_host, result);
  m.Put("throughput_ops_s", static_cast<double>(ops) / elapsed * slow,
        "ops/s");
  m.Put("peak_rss_mb", rss.Mb(), "MB");
  answer.Report("answer", slow, m, &result.thin);
  query.Report("latency.query", slow, m, &result.thin);

  if (args.trace) {
    // Per (backend) span totals: the evaluate span, its operator children
    // (self time = evaluate minus operators), the answer kinds, and the
    // one-world reference.
    struct Times {
      double evaluate = 0, oneworld = 0;
      std::array<double, kNumOps> op_ms{};
      std::array<uint64_t, kNumOps> op_calls{};
      std::map<std::string, std::pair<double, uint64_t>> answers;
    };
    std::array<Times, 2> times;
    std::array<std::pair<double, uint64_t>, 7> oneworld_q{};  // wsdt base
    std::map<std::string, Op> op_of;
    for (size_t i = 0; i < kNumOps; ++i) {
      op_of["engine.op." + std::string(OpName(static_cast<Op>(i)))] =
          static_cast<Op>(i);
    }
    for (const Span& s : Tracer::Get().Spans()) {
      auto it = traced_requests.find(s.request);
      if (it == traced_requests.end()) continue;
      auto [b, q] = it->second;
      Times& t = times[b];
      if (s.name == "engine.evaluate") {
        t.evaluate += s.Ms();
      } else if (s.name == "rel.evaluate") {
        t.oneworld += s.Ms();
        if (b == 0) {
          oneworld_q[q].first += s.Ms();
          oneworld_q[q].second++;
        }
      } else if (auto op = op_of.find(s.name); op != op_of.end()) {
        t.op_ms[static_cast<size_t>(op->second)] += s.Ms();
        t.op_calls[static_cast<size_t>(op->second)]++;
      } else if (s.name.rfind("api.answer.", 0) == 0) {
        auto& [sum, n] = t.answers[s.name.substr(11)];
        sum += s.Ms();
        n++;
      }
    }
    const char* names[2] = {"wsdt", "urel"};
    for (int b = 0; b < 2; ++b) {
      const LayerAcc& a = acc[b];
      const Times& t = times[b];
      const std::string be = names[b];
      const double qn = std::max<double>(1.0, static_cast<double>(a.queries));
      double op_total = 0;
      for (size_t i = 0; i < kNumOps; ++i) {
        if (t.op_calls[i] == 0) continue;
        std::string op(OpName(static_cast<Op>(i)));
        op_total += t.op_ms[i];
        m.Put("engine.op_ms." + op + "." + be,
              t.op_ms[i] / static_cast<double>(t.op_calls[i]), "ms");
        m.Put("engine.op_calls." + op + "." + be,
              static_cast<double>(t.op_calls[i]) / qn, "count");
      }
      m.Put("engine.driver_self_ms." + be, (t.evaluate - op_total) / qn, "ms");
      m.Put("engine.overhead_vs_oneworld." + be,
            t.oneworld > 0 ? t.evaluate / t.oneworld : 0.0, "ratio");
      m.Put("store.forced_evals_per_query." + be,
            static_cast<double>(a.forced_evals) / qn, "count");
      m.Put("store.compose_nodes_per_query." + be,
            static_cast<double>(a.compose_nodes) / qn, "count");
      m.Put("api.round_trips_per_1k." + be,
            1000.0 * static_cast<double>(a.round_trips) / qn, "count");
      for (const auto& [kind, sn] : t.answers) {
        m.Put("api.answer_ms." + kind + "." + be,
              sn.first / static_cast<double>(sn.second), "ms");
      }
    }
    for (int q = 1; q <= 6; ++q) {
      if (oneworld_q[q].second == 0) continue;
      m.Put("rel.oneworld_query_ms.q" + std::to_string(q),
            oneworld_q[q].first / static_cast<double>(oneworld_q[q].second),
            "ms");
    }
    uint64_t hits = acc[0].answer_hits + acc[1].answer_hits;
    uint64_t lookups = acc[0].answer_lookups + acc[1].answer_lookups;
    m.Put("api.answer_cache_hit_ratio.census",
          lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0,
          "ratio");
    m.Put("store.peak_cells", static_cast<double>(peak_cells), "count");
    PutTraceOverhead(mode_ops, mode_ms, 1, m);
  }

  host.Describe(result.info);
  rss.Describe(result.info);
  size_t catalog = setup->urel.session->RelationNames().size();
  for (const Side& side : setup->wsdt) {
    catalog += side.session->RelationNames().size();
  }
  result.info["census_rows.wsdt"] = std::to_string(kWsdtRows);
  result.info["wsdt_noise_draws"] = std::to_string(kWsdtDraws);
  result.info["census_data_seed"] = std::to_string(kCensusSeed);
  result.info["census_rows.urel"] = std::to_string(kUrelRows);
  result.info["placeholder_density"] = "0.001";
  result.info["clients"] = "1";
  result.info["requests"] = std::to_string(requests);
  std::string mix_text;
  for (const auto& [k, n] : served) {
    mix_text += (mix_text.empty() ? "" : " ") + k + "=" + std::to_string(n);
  }
  result.info["mix_served"] = mix_text;
  // Outputs are fresh per request; only a probe repeating an earlier probe
  // of the same request can hit the answer cache.
  result.info["repeated_input_share.answer_cache"] =
      Num(probes ? static_cast<double>(repeated_probes) /
                       static_cast<double>(probes)
                 : 0.0);
  result.info["catalog_relations_at_end"] =
      std::to_string(catalog);
  return result;
}

}  // namespace perfbench
