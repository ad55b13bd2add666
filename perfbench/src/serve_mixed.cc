// serve_mixed: a WorldServer under concurrent clients.
//
// One session per backend (wsd, wsdt, uniform, urel), each over a
// registered census relation R, served to kClients client threads in a
// closed loop of episodes, each from a fresh server. Every request the
// line protocol can express goes FormatRequest → ParseRequest → Execute →
// FormatResponse; guarded modifies and join / difference plans, which the
// grammar cannot express, are sent as value-typed Requests straight to
// Execute.
//
// The mix is read-heavy (snapshot read, possible, certain, conf) with runs
// and writes beside the reads. Each session's writes and runs come from
// one owner client, so a one-world shadow database per session, replayed
// with rel::ApplyUpdate in that order, is the oracle for the owner's own
// reads and for the final state. Reads from other clients race the owner's
// writes, which is what api.reader_blocked_waits measures.
//
// Time goes to protocol formatting, the registry and session locks,
// snapshot pins, the answer cache, update lowering, the WSD backend and the
// uniform store's Difference fallback; little to the large-data operators.
//
// Two server facts are recorded rather than hidden: the request API can
// only register certain relations, so every world set here has one world;
// and there is no drop verb, so every run leaves its output in the catalog
// (api.catalog_relations).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "census/ipums.h"
#include "common/timer.h"
#include "core/component_store.h"
#include "rel/database.h"
#include "rel/update.h"
#include "server/protocol.h"
#include "server/world_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using rel::Value;
using server::Request;
using server::Response;

constexpr size_t kRows = 2000;
/// WSD materializes |R|max-sized intermediates and enumerates components
/// for certain(): at 256 rows a select run takes ~0.2 s and certain ~0.5 s,
/// so its session stays far smaller.
constexpr size_t kWsdRows = 24;
/// Two closed-loop clients: on a shared 4-vCPU host, four busy client
/// threads measured the scheduler more than the server.
constexpr int kClients = 2;
/// Requests per client per episode. The server has no drop verb, so every
/// run leaves its output in the catalog and the WSD and uniform sessions
/// slow down as it grows; each episode therefore starts from a fresh
/// server, and the catalog never holds more than one episode's outputs.
constexpr uint64_t kEpisodeRequests = 320;
/// Operations after which peak_rss_mb is read (RssAtWork), checked at the
/// end of each episode.
constexpr uint64_t kRssOps = 4096;
constexpr int kSetupRepeats = 9;
/// Inserted rows carry AGE = kMarkerBase + n (outside the census domain);
/// the delete kLag inserts later removes row n, so |R| stays near
/// rows + kLag.
constexpr int64_t kMarkerBase = 100000;
constexpr int kLag = 4;
/// The owner's reads of its own session are checked against the shadow
/// every kCheckEvery-th time (outside the timed request).
constexpr int kCheckEvery = 4;

struct BackendSpec {
  const char* sid;
  api::BackendKind kind;
  size_t rows;
};
constexpr BackendSpec kBackends[] = {
    {"wsd", api::BackendKind::kWsd, kWsdRows},
    {"wsdt", api::BackendKind::kWsdt, kRows},
    {"uniform", api::BackendKind::kUniform, kRows},
    {"urel", api::BackendKind::kUrel, kRows},
};
constexpr int kNumSessions = 4;

enum Verb {
  kRead,
  kPossible,
  kCertain,
  kConf,
  kRun,
  kInsert,
  kDelete,
  kModify,
  kGuardedModify,
  kNumVerbs
};
constexpr const char* kVerbNames[kNumVerbs] = {
    "read",   "possible", "certain", "conf",          "run",
    "insert", "delete",   "modify",  "guarded_modify"};
/// Requests per block of 80 for each verb: 75% reads, spread evenly over
/// the four sessions; 5% runs and 20% writes, to the client's own
/// sessions. The read weights put the answer p50 inside the 3–9 ms band of
/// possible / read / certain on the small sessions, and the p90 inside the
/// band of `certain` on the 2000-row wsdt and uniform sessions, instead of
/// on the edge between two bands. Runs are rare because every output stays
/// in the catalog and the WSD and uniform sessions slow down as it grows;
/// at 10% their latencies drifted several-fold within a 30 s run.
constexpr int kVerbWeights[kNumVerbs] = {8, 8, 16, 28, 4, 4, 4, 4, 4};

/// The client's request stream: entry v * kNumSessions + s is read verb v
/// on session s; entry kReads + w is write verb kRun + w.
constexpr int kReads = 4 * kNumSessions;
std::vector<int> MixWeights() {
  std::vector<int> w;
  for (int v = kRead; v <= kConf; ++v) {
    w.insert(w.end(), kNumSessions, kVerbWeights[v] / kNumSessions);
  }
  for (int v = kRun; v < kNumVerbs; ++v) w.push_back(kVerbWeights[v]);
  return w;
}

enum class Class { kAnswer, kQuery, kUpdate };
Class ClassOf(Verb v) {
  if (v <= kConf) return Class::kAnswer;
  return v == kRun ? Class::kQuery : Class::kUpdate;
}
/// The server.execute_ms.<verb> name of a request kind.
const char* ExecVerb(Verb v) {
  switch (ClassOf(v)) {
    case Class::kAnswer:
      return kVerbNames[v];
    case Class::kQuery:
      return "run";
    case Class::kUpdate:
      return "apply";
  }
  return "apply";
}

uint64_t DataSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.Next();
}

/// Per-thread measurements, merged after the clients join.
struct ClientStats {
  /// Latencies by class, verb.session (runs: run.<shape>.session). Query
  /// and update latencies count untraced requests only (all of them when
  /// tracing is off).
  ClassLatencies answer, query, update;

  uint64_t ops = 0;
  uint64_t updates = 0;
  uint64_t failed = 0;
  uint64_t runs_ok = 0;
  uint64_t reads = 0;
  double mode_ms[2] = {0, 0};
  uint64_t mode_ops[2] = {0, 0};
  std::vector<std::string> mismatches;
  uint64_t response_bytes = 0;
  uint64_t responses = 0;
  /// Answer-cache attribution of the sequential replay: hits, lookups.
  std::map<std::string, std::pair<uint64_t, uint64_t>> cache;
};

/// The world the clients share.
struct Fixture {
  std::unique_ptr<server::WorldServer> server;
  /// One-world shadow of each session's R, written only by its owner.
  std::vector<rel::Database> shadow;
  std::vector<rel::Relation> base;  ///< registered R per session
};

Result<Fixture> BuildFixture(uint64_t seed) {
  Fixture fx;
  fx.server = std::make_unique<server::WorldServer>();
  census::CensusSchema schema = census::CensusSchema::Standard();
  for (const BackendSpec& b : kBackends) {
    Request open;
    open.kind = Request::Kind::kOpenSession;
    open.session = b.sid;
    open.backend = b.kind;
    MAYWSD_RETURN_IF_ERROR(fx.server->Execute(open).status);
    rel::Relation r =
        census::GenerateCensus(schema, b.rows, DataSeed(seed, b.rows));
    Request reg;
    reg.kind = Request::Kind::kRegister;
    reg.session = b.sid;
    reg.relation = r;
    MAYWSD_RETURN_IF_ERROR(fx.server->Execute(reg).status);
    rel::Relation ping(rel::Schema({rel::Attribute("K", rel::AttrType::kInt)}),
                       "PING");
    ping.AppendRow({Value::Int(1)});
    reg.relation = ping;
    MAYWSD_RETURN_IF_ERROR(fx.server->Execute(reg).status);
    rel::Database db;
    db.PutRelation(r);
    fx.shadow.push_back(std::move(db));
    fx.base.push_back(std::move(r));
    // Warm-up: one of each answer kind.
    for (Request::Kind k :
         {Request::Kind::kPossible, Request::Kind::kCertain,
          Request::Kind::kSnapshotRead}) {
      Request warm;
      warm.kind = k;
      warm.session = b.sid;
      warm.target = "R";
      MAYWSD_RETURN_IF_ERROR(fx.server->Execute(warm).status);
    }
  }
  return fx;
}

/// One closed-loop client: draws verbs from its BlockStream, sends reads to
/// any session and writes / runs to the sessions it owns.
class Client {
 public:
  /// Client `id` of `clients` owns the sessions s with s % clients ==
  /// id % clients; `id` also names its run outputs and seeds its stream.
  Client(int id, int clients, Fixture& fx, uint64_t seed)
      : id_(id),
        fx_(&fx),
        mix_(MixWeights(), DataSeed(seed, 100 + id)),
        rng_(DataSeed(seed, 200 + id)) {
    for (int s = 0; s < kNumSessions; ++s) {
      if (s % clients == id % clients) owned_.push_back(s);
    }
  }

  /// Points the client at the next episode's fixture.
  void Rebind(Fixture& fx) { fx_ = &fx; }

  /// Sends one request. In a traced run every other block of the mix
  /// records spans; `attribute_cache` diffs the target session's stats
  /// around answer requests (sequential use only).
  void Step(bool trace_run, bool attribute_cache, ClientStats& st) {
    const bool traced = trace_run && (steps_++ / mix_.BlockSize()) % 2 == 0;
    const int pick = static_cast<int>(mix_.Next());
    const bool write = pick >= kReads;
    const Verb verb =
        static_cast<Verb>(write ? kRun + (pick - kReads) : pick / kNumSessions);
    const int s = write ? owned_[write_turn_++ % owned_.size()]
                        : pick % kNumSessions;
    std::string shape;
    Request req = MakeRequest(verb, s, &shape);
    bool owner = std::find(owned_.begin(), owned_.end(), s) != owned_.end();
    uint64_t hits0 = 0, misses0 = 0;
    if (attribute_cache && !write) StatsOf(s, &hits0, &misses0);

    int64_t rid = (static_cast<int64_t>(id_) << 40) | static_cast<int64_t>(++seq_);
    ScopedRequest rq(rid, traced);
    Timer t;
    Response resp;
    std::string wire;
    {
      SpanScope root(std::string("serve.request.") + kVerbNames[verb] + "." +
                     kBackends[s].sid);
      Result<std::string> line = [&] {
        SpanScope span("protocol.encode");
        return server::FormatRequest(req);
      }();
      std::optional<Request> parsed;
      if (line.ok()) {
        SpanScope span("protocol.parse");
        auto p = server::ParseRequest(line.value());
        if (p.ok()) parsed = std::move(p).value();
      }
      if (line.ok() && !parsed) {
        resp.status = Status::Internal("protocol round trip failed");
      } else {
        SpanScope span(std::string("server.execute.") + ExecVerb(verb));
        resp = fx_->server->Execute(parsed ? *parsed : req);
      }
      SpanScope span("protocol.format");
      wire = server::FormatResponse(resp);
    }
    double ms = t.Millis();
    st.ops++;
    st.mode_ms[traced ? 1 : 0] += ms;
    st.mode_ops[traced ? 1 : 0]++;
    st.response_bytes += wire.size();
    st.responses++;
    const std::string cls =
        (verb == kRun ? "run." + shape : std::string(kVerbNames[verb])) + "." +
        kBackends[s].sid;
    switch (ClassOf(verb)) {
      case Class::kAnswer:
        st.answer.Add(cls, ms);
        st.reads++;
        break;
      case Class::kQuery:
        if (!traced) st.query.Add(cls, ms);
        break;
      case Class::kUpdate:
        st.updates++;
        if (!traced) st.update.Add(cls, ms);
        break;
    }
    if (attribute_cache && !write) {
      uint64_t hits1 = 0, misses1 = 0;
      StatsOf(s, &hits1, &misses1);
      auto& [h, n] = st.cache[kVerbNames[verb]];
      h += hits1 - hits0;
      n += (hits1 - hits0) + (misses1 - misses0);
    }
    if (!resp.status.ok()) {
      Fail(st, std::string(kVerbNames[verb]) + " on " + kBackends[s].sid +
                   ": " + resp.status.ToString());
      return;
    }
    if (verb == kRun) st.runs_ok++;
    if (write && verb != kRun) {
      Status applied = rel::ApplyUpdate(fx_->shadow[s], *req.update);
      if (!applied.ok()) Fail(st, "shadow replay: " + applied.ToString());
    }
    if (owner && !write) CheckOwnerRead(verb, s, resp, st);
  }

 private:
  void Fail(ClientStats& st, std::string what) {
    st.failed++;
    if (st.mismatches.size() < 8) st.mismatches.push_back(std::move(what));
  }

  const rel::Relation& Shadow(int s) const {
    return *fx_->shadow[s].GetRelation("R").value();
  }

  /// A row of the session's R: the owner knows the current contents; other
  /// clients probe the registered base.
  std::vector<Value> SomeRow(int s) {
    const rel::Relation& r =
        std::find(owned_.begin(), owned_.end(), s) != owned_.end()
            ? Shadow(s)
            : fx_->base[s];
    return r.row(rng_.Below(r.NumRows())).ToRow();
  }

  /// The next run plan; its shape (select, project, join, difference)
  /// goes to `*shape`.
  Plan RunPlan(std::string* shape) {
    static const char* kAttrs[] = {"FERTIL", "MARITAL", "RSPOUSE", "ENGLISH"};
    static const char* kShapes[] = {"select", "project", "join", "difference"};
    const char* a = kAttrs[rng_.Below(4)];
    int64_t c = static_cast<int64_t>(rng_.Below(4));
    *shape = kShapes[runs_ % 4];
    switch (runs_++ % 4) {
      case 0:
        return Plan::Select(Predicate::Cmp(a, CmpOp::kEq, Value::Int(c)),
                            Plan::Scan("R"));
      case 1:
        return Plan::Project({"POWSTATE", "CITIZEN", a}, Plan::Scan("R"));
      case 2: {
        // Q5-shaped join of two selections on the work state.
        Plan left = Plan::Rename(
            {{"POWSTATE", "P1"}},
            Plan::Project({"POWSTATE", "CITIZEN"},
                          Plan::Select(Predicate::Cmp("POWSTATE", CmpOp::kGt,
                                                      Value::Int(50)),
                                       Plan::Scan("R"))));
        Plan right = Plan::Rename(
            {{"POWSTATE", "P2"}},
            Plan::Project({"POWSTATE", "MARITAL"},
                          Plan::Select(Predicate::Cmp(a, CmpOp::kEq,
                                                      Value::Int(c)),
                                       Plan::Scan("R"))));
        return Plan::Join(Predicate::CmpAttr("P1", CmpOp::kEq, "P2"),
                          std::move(left), std::move(right));
      }
      default:
        return Plan::Difference(
            Plan::Project({"POWSTATE", "CITIZEN"}, Plan::Scan("R")),
            Plan::Project({"POWSTATE", "CITIZEN"},
                          Plan::Select(Predicate::Cmp(a, CmpOp::kEq,
                                                      Value::Int(c)),
                                       Plan::Scan("R"))));
    }
  }

  Request MakeRequest(Verb verb, int s, std::string* shape) {
    Request req;
    req.session = kBackends[s].sid;
    req.target = "R";
    switch (verb) {
      case kRead:
        req.kind = Request::Kind::kSnapshotRead;
        break;
      case kPossible:
        req.kind = Request::Kind::kPossible;
        break;
      case kCertain:
        req.kind = Request::Kind::kCertain;
        break;
      case kConf:
        req.kind = Request::Kind::kConfidence;
        req.tuple = SomeRow(s);
        break;
      case kRun:
        req.kind = Request::Kind::kRun;
        req.plan = RunPlan(shape);
        req.target = "O" + std::to_string(id_) + "_" + std::to_string(seq_);
        break;
      case kInsert: {
        req.kind = Request::Kind::kApply;
        rel::Relation row(Shadow(s).schema(), "R");
        std::vector<Value> values = fx_->base[s].row(rng_.Below(
                                                        fx_->base[s].NumRows()))
                                        .ToRow();
        values[AgeColumn(s)] = Value::Int(kMarkerBase + inserts_++);
        row.AppendRow(values);
        req.update = UpdateOp::InsertTuples("R", std::move(row));
        break;
      }
      case kDelete:
        req.kind = Request::Kind::kApply;
        req.update = UpdateOp::DeleteWhere(
            "R", Predicate::Cmp("AGE", CmpOp::kEq,
                                Value::Int(kMarkerBase + inserts_ - kLag)));
        break;
      case kModify:
      case kGuardedModify: {
        req.kind = Request::Kind::kApply;
        UpdateOp op = UpdateOp::ModifyWhere(
            "R",
            Predicate::Cmp("AGE", CmpOp::kEq,
                           Value::Int(static_cast<int64_t>(rng_.Below(91)))),
            {{"FERTIL", Value::Int(static_cast<int64_t>(rng_.Below(14)))}});
        if (verb == kGuardedModify) {
          op = op.When(Plan::Select(
              Predicate::Cmp("CITIZEN", CmpOp::kEq, Value::Int(0)),
              Plan::Scan("R")));
        }
        req.update = std::move(op);
        break;
      }
      case kNumVerbs:
        break;
    }
    return req;
  }

  size_t AgeColumn(int s) const {
    return fx_->base[s].schema().IndexOf("AGE").value_or(0);
  }

  void CheckOwnerRead(Verb verb, int s, const Response& resp,
                      ClientStats& st) {
    if (++owner_reads_ % kCheckEvery != 0) return;
    if (verb == kConf) {
      if (!resp.number || *resp.number != 1.0) {
        Fail(st, std::string("conf of a present tuple != 1 on ") +
                     kBackends[s].sid);
      }
      return;
    }
    if (!resp.relation) {
      Fail(st, "missing relation answer");
      return;
    }
    std::string d = CompareSets(*resp.relation, Shadow(s));
    if (!d.empty()) {
      Fail(st, std::string(kVerbNames[verb]) + " on " + kBackends[s].sid +
                   " vs shadow: " + d);
    }
  }

  /// answer_cache_hits / misses of session `s` from a `stats` request.
  void StatsOf(int s, uint64_t* hits, uint64_t* misses) {
    Request req;
    req.kind = Request::Kind::kStats;
    req.session = kBackends[s].sid;
    Response r = fx_->server->Execute(req);
    *hits = ParseCounter(r.text, "answer_cache_hits");
    *misses = ParseCounter(r.text, "answer_cache_misses");
  }

 public:
  static uint64_t ParseCounter(const std::string& text,
                               const std::string& key) {
    size_t at = text.find(key + "=");
    if (at == std::string::npos) return 0;
    return std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
  }

 private:
  int id_;
  Fixture* fx_;
  BlockStream mix_;
  Rng rng_;
  std::vector<int> owned_;
  size_t write_turn_ = 0;
  uint64_t seq_ = 0;
  uint64_t steps_ = 0;
  uint64_t runs_ = 0;
  int64_t inserts_ = 0;
  uint64_t owner_reads_ = 0;
};

/// Every session's possible and certain R equal its shadow.
void CheckFinalState(Fixture& fx, WorkloadResult& result) {
  for (int s = 0; s < kNumSessions; ++s) {
    for (Request::Kind k :
         {Request::Kind::kPossible, Request::Kind::kCertain}) {
      Request req;
      req.kind = k;
      req.session = kBackends[s].sid;
      req.target = "R";
      Response r = fx.server->Execute(req);
      const rel::Relation& shadow = *fx.shadow[s].GetRelation("R").value();
      std::string d = r.status.ok() && r.relation
                          ? CompareSets(*r.relation, shadow)
                          : "request failed";
      if (!d.empty()) {
        result.Fail(std::string("final R on ") + kBackends[s].sid + ": " + d);
      }
    }
  }
}

}  // namespace

WorkloadResult RunServeMixed(const Args& args) {
  WorkloadResult result;
  const int clients = kClients;

  std::vector<double> setup_s;
  std::optional<Fixture> fx;
  HostSpeed setup_host;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fx.reset();
    setup_host.Sample();
    Timer t;
    auto built = BuildFixture(args.seed);
    setup_s.push_back(t.Seconds());
    if (!built.ok()) {
      result.Fail("setup: " + built.status().ToString());
      return result;
    }
    fx = std::move(built).value();
  }

  std::vector<std::unique_ptr<Client>> pool;
  for (int c = 0; c < clients; ++c) {
    pool.push_back(std::make_unique<Client>(c, clients, *fx, args.seed));
  }
  std::vector<ClientStats> stats(clients);
  const uint64_t cow0 = core::store::GetStoreStats().cow_breaks;

  // Counters of the concurrent loop, one `stats` request per session at
  // the end of each episode.
  uint64_t blocked = 0, server_errors = 0;
  auto collect = [&] {
    for (const BackendSpec& b : kBackends) {
      Request req;
      req.kind = Request::Kind::kStats;
      req.session = b.sid;
      blocked += Client::ParseCounter(fx->server->Execute(req).text,
                                      "reader_blocked_waits");
    }
    server_errors += fx->server->Stats().errors;
  };

  HostSpeed host;  // the loop's reference samples
  RssAtWork rss(kRssOps);
  double between_s = 0;  // episode checks and new fixtures, not measured
  uint64_t episodes = 0;
  uint64_t runs_before_episode = 0;  // runs of the episodes before the last
  Timer wall;
  while (wall.Seconds() < args.seconds) {
    if (episodes > 0) {
      Timer t;
      collect();
      CheckFinalState(*fx, result);
      auto built = BuildFixture(args.seed);
      if (!built.ok()) {
        result.Fail("new episode: " + built.status().ToString());
        break;
      }
      fx = std::move(built).value();
      for (auto& c : pool) c->Rebind(*fx);
      runs_before_episode = 0;
      for (const ClientStats& st : stats) runs_before_episode += st.runs_ok;
      between_s += t.Seconds();
    }
    episodes++;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (uint64_t i = 0;
             i < kEpisodeRequests && wall.Seconds() < args.seconds; ++i) {
          pool[c]->Step(args.trace, false, stats[c]);
          host.MaybeSample();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    uint64_t ops = 0;
    for (const ClientStats& st : stats) ops += st.ops;
    rss.Observe(ops);
  }
  collect();
  // The loop's own time: without the work between episodes, and a
  // reference sample stalls one client of `clients`.
  const double elapsed = wall.Seconds() - between_s -
                         host.TotalMs() / 1e3 / clients;
  ClientStats all;
  for (ClientStats& s : stats) {
    all.answer.Merge(s.answer);
    all.query.Merge(s.query);
    all.update.Merge(s.update);
    all.ops += s.ops;
    all.updates += s.updates;
    all.failed += s.failed;
    all.runs_ok += s.runs_ok;
    all.reads += s.reads;
    all.response_bytes += s.response_bytes;
    all.responses += s.responses;
    for (int i = 0; i < 2; ++i) {
      all.mode_ms[i] += s.mode_ms[i];
      all.mode_ops[i] += s.mode_ops[i];
    }
    for (std::string& m : s.mismatches) result.mismatches.push_back(std::move(m));
  }
  result.failed = all.failed;
  result.attempted = all.ops;
  const uint64_t cow_breaks = core::store::GetStoreStats().cow_breaks - cow0;
  // R and PING per session, plus the last episode's run outputs.
  const uint64_t catalog =
      2 * kNumSessions + all.runs_ok - runs_before_episode;


  MetricSet& m = result.metrics;
  const double slow = host.Factor();
  PutSetup(setup_s, setup_host, result);
  m.Put("throughput_ops_s", static_cast<double>(all.ops) / elapsed * slow,
        "ops/s");
  m.Put("peak_rss_mb", rss.Mb(), "MB");
  all.answer.Report("answer", slow, m, &result.thin);
  all.query.Report("latency.query", slow, m, &result.thin);
  all.update.Report("latency.update", slow, m, &result.thin);

  if (args.trace) {
    std::vector<Span> spans = Tracer::Get().Spans();
    std::map<std::string, std::vector<double>> by_name;
    for (const Span& s : spans) by_name[s.name].push_back(s.Ms());
    m.Put("protocol.parse_us", 1e3 * Percentile(by_name["protocol.parse"], 0.5),
          "us");
    m.Put("protocol.format_ms", Percentile(by_name["protocol.format"], 0.5),
          "ms");
    m.Put("protocol.response_kb",
          all.responses ? static_cast<double>(all.response_bytes) / 1024.0 /
                              static_cast<double>(all.responses)
                        : 0.0,
          "KB");
    for (const char* verb :
         {"read", "possible", "certain", "conf", "run", "apply"}) {
      m.Put(std::string("server.execute_ms.") + verb,
            Percentile(by_name[std::string("server.execute.") + verb], 0.5),
            "ms");
    }
    m.Put("server.errors", static_cast<double>(server_errors), "count");
    m.Put("api.reader_blocked_waits_per_1k",
          all.reads ? 1000.0 * static_cast<double>(blocked) /
                          static_cast<double>(all.reads)
                    : 0.0,
          "count");
    m.Put("api.catalog_relations", static_cast<double>(catalog), "count");
    m.Put("store.cow_breaks_per_update",
          all.updates ? static_cast<double>(cow_breaks) /
                            static_cast<double>(all.updates)
                      : 0.0,
          "count");
    m.Put("store.peak_cells",
          static_cast<double>(core::store::GetStoreStats().peak_cells),
          "count");
    PutTraceOverhead(all.mode_ops, all.mode_ms, clients, m);

    // Sequential replay of the same mix: the server reports answer-cache
    // counters per session only, so per-verb hit ratios are attributed by
    // diffing `stats` around each answer request with no other client
    // running. Then the snapshot pin: a snapshot read of the one-row PING
    // relation at the end-of-run catalog size.
    ClientStats replay;
    Client solo(clients, 1, *fx, args.seed);
    for (int i = 0; i < 200; ++i) solo.Step(false, true, replay);
    result.attempted += replay.ops;
    result.failed += replay.failed;
    for (std::string& mm : replay.mismatches) {
      result.mismatches.push_back(std::move(mm));
    }
    for (const char* verb : {"read", "possible", "certain", "conf"}) {
      auto [h, n] = replay.cache[verb];
      m.Put(std::string("api.answer_cache_hit_ratio.") + verb,
            n ? static_cast<double>(h) / static_cast<double>(n) : 0.0,
            "ratio");
    }
    std::vector<double> pin_us;
    for (const BackendSpec& b : kBackends) {
      Request req;
      req.kind = Request::Kind::kSnapshotRead;
      req.session = b.sid;
      req.target = "PING";
      for (int i = 0; i < 20; ++i) {
        Timer t;
        Response r = fx->server->Execute(req);
        pin_us.push_back(t.Millis() * 1e3);
        if (!r.status.ok()) result.Fail("snapshot read of PING failed");
      }
    }
    m.Put("api.snapshot_pin_us", Percentile(pin_us, 0.5), "us");
  }

  CheckFinalState(*fx, result);

  host.Describe(result.info);
  rss.Describe(result.info);
  result.info["clients"] = std::to_string(clients);
  result.info["runs"] = std::to_string(all.runs_ok);
  result.info["episodes"] = std::to_string(episodes);
  result.info["requests_per_client_per_episode"] =
      std::to_string(kEpisodeRequests);
  result.info["rows"] = std::to_string(kRows);
  result.info["rows.wsd"] = std::to_string(kWsdRows);
  std::string mix;
  for (int v = 0; v < kNumVerbs; ++v) {
    mix += (v ? " " : "") + std::string(kVerbNames[v]) + "=" +
           std::to_string(kVerbWeights[v]);
  }
  result.info["mix_weights_per_80"] = mix;
  result.info["requests"] = std::to_string(all.ops);
  result.info["reads"] = std::to_string(all.reads);
  result.info["catalog_relations_at_end"] = std::to_string(catalog);
  result.info["reader_blocked_waits"] = std::to_string(blocked);
  return result;
}

}  // namespace perfbench
