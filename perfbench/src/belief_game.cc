// belief_game: writes beside reads on uncertain data.
//
// One client, closed loop. A belief::Game holds three agents — WSDT,
// uniform and U-relations sessions over the same chased noisy census world
// set (WSD is left out: its cold Knows takes about half a second at 64
// rows). The loop plays games of kRoundsPerGame rounds, each from a fresh
// Game: the agents keep one witness relation per distinct question, so a
// single endless game would slow down with its length and the metrics
// would depend on how many rounds the host managed. The games cycle
// through kWorlds world sets built from the seed; at 64 rows one world
// set's question costs depend on where its few or-sets fall, and a run
// that averages over several varies much less from seed to seed.
// One round:
//
//   Step      a public move: a guarded modify plus a narrow delete
//   Observe   a private move for one agent (round-robin)
//   Knows / ConsidersPossible / Confidence   per agent, on one probe tuple
//   Speculate kSpeculations expansions for one agent: the kPoolSize
//             candidate batches once each (cold) and one of them again
//             (a successor-cache hit), in a seeded order
//
// The three agents see the same moves, so every knowledge answer must agree
// across them (confidences within 1e-9). Time goes to guarded-update
// lowering (uniform and U-relations pay a WSDT round trip per guarded op),
// copy-on-write forks, and the witness and successor caches; none to the
// server or protocol layers, and the large-data query operators are
// bypassed.

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "belief/belief.h"
#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "common/timer.h"
#include "core/component_store.h"
#include "core/wsdt_chase.h"
#include "rel/update.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using rel::Value;

constexpr size_t kRows = 64;
constexpr double kDensity = 0.001;
/// Or-set fields per world set: the expectation of kDensity at kRows rows.
/// The noise process picks every field independently, so at 64 rows the
/// count varies from seed to seed (0 to 8), and with it the cost of every
/// question; BuildWorld draws noise seeds until it is exactly this.
constexpr size_t kPlaceholders = 3;
constexpr uint64_t kNoiseAttempts = 256;
/// World sets per run; game g plays on world set g mod kWorlds.
constexpr uint64_t kWorlds = 8;
constexpr int kSetupRepeats = 7;
/// Each round expands the kPoolSize candidate batches once each plus one
/// seeded repeat, in a seeded order: exactly one speculation in
/// kSpeculations hits the successor cache, whatever the seed.
constexpr int kPoolSize = 3;
constexpr int kSpeculations = kPoolSize + 1;
constexpr double kConfTolerance = 1e-9;
constexpr const char* kAgents[] = {"wsdt", "uniform", "urel"};
constexpr api::BackendKind kKinds[] = {api::BackendKind::kWsdt,
                                       api::BackendKind::kUniform,
                                       api::BackendKind::kUrel};
constexpr int kNumAgents = 3;

uint64_t DataSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + salt);
  return rng.Next();
}

Plan AlwaysGuard() {
  return Plan::Select(Predicate::Cmp("AGE", CmpOp::kGe, Value::Int(0)),
                      Plan::Scan("R"));
}

/// The public move of round k: a guarded modify plus a narrow delete.
std::vector<UpdateOp> MoveBatch(uint64_t k, Rng& rng) {
  std::vector<UpdateOp> batch;
  batch.push_back(
      UpdateOp::ModifyWhere(
          "R",
          Predicate::Cmp("AGE", CmpOp::kLt,
                         Value::Int(static_cast<int64_t>(rng.Below(91)))),
          {{"FERTIL", Value::Int(static_cast<int64_t>(k % 13))}})
          .When(AlwaysGuard()));
  batch.push_back(UpdateOp::DeleteWhere(
      "R", Predicate::Cmp("AGE", CmpOp::kEq,
                          Value::Int(200 + static_cast<int64_t>(k)))));
  return batch;
}

/// A private move: deletes nothing but bumps the agent's relation version,
/// so its witness relations are re-materialized on the next question.
std::vector<UpdateOp> ObserveBatch(uint64_t k) {
  return {UpdateOp::DeleteWhere(
      "R", Predicate::Cmp("AGE", CmpOp::kEq,
                          Value::Int(-1 - static_cast<int64_t>(k))))};
}

/// Candidate speculation j of a round.
std::vector<UpdateOp> ScenarioBatch(int j) {
  return {UpdateOp::ModifyWhere("R",
                                Predicate::Cmp("AGE", CmpOp::kGe,
                                               Value::Int(60 - 10 * j)),
                                {{"FERTIL", Value::Int(100 + j)}})
              .When(AlwaysGuard())};
}

/// Rounds per game; the next round starts a fresh game.
constexpr uint64_t kRoundsPerGame = 32;
/// Operations after which peak_rss_mb is read (RssAtWork).
constexpr uint64_t kRssOps = 16000;

/// The chased census world set `index` of a run.
Result<core::Wsdt> BuildWorld(uint64_t seed, uint64_t index) {
  seed = DataSeed(seed, 1000 + index);
  census::CensusSchema schema = census::CensusSchema::Standard();
  rel::Relation base =
      census::GenerateCensus(schema, kRows, DataSeed(seed, kRows));
  std::optional<core::Wsdt> noisy;
  for (uint64_t a = 0; a < kNoiseAttempts && !noisy; ++a) {
    census::NoiseReport report;
    MAYWSD_ASSIGN_OR_RETURN(
        core::Wsdt wsdt,
        census::MakeNoisyWsdt(base, schema, kDensity,
                              DataSeed(seed, kRows + 1 + a), &report));
    if (report.placeholders == kPlaceholders) noisy = std::move(wsdt);
  }
  if (!noisy) return Status::Internal("no noise seed gave the placeholders");
  core::Wsdt wsdt = std::move(*noisy);
  MAYWSD_RETURN_IF_ERROR(
      core::WsdtChase(wsdt, census::CensusDependencies("R")));
  return wsdt;
}

/// A game with the three agents over `world`, warmed up.
Result<std::unique_ptr<belief::Game>> NewGame(const core::Wsdt& world) {
  auto game = std::make_unique<belief::Game>();
  for (int a = 0; a < kNumAgents; ++a) {
    MAYWSD_ASSIGN_OR_RETURN(api::Session s,
                            api::Session::Open(kKinds[a], world));
    MAYWSD_ASSIGN_OR_RETURN(belief::Agent * agent,
                            game->AddAgent(kAgents[a], std::move(s)));
    // Warm-up: the witness relations and answer caches of one question.
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation possible,
                            agent->session().PossibleTuples("R"));
    if (possible.NumRows() == 0) return Status::Internal("empty census");
    std::vector<Value> probe = possible.row(0).ToRow();
    MAYWSD_RETURN_IF_ERROR(agent->Knows("R", probe).status());
  }
  return game;
}

/// The counters a game accumulates, summed over the games of a run.
struct GameCounters {
  belief::BeliefStats belief;
  std::array<api::SessionStats, kNumAgents> session;

  static GameCounters Of(const belief::Game& game) {
    GameCounters c;
    c.belief = game.Stats();
    for (int a = 0; a < kNumAgents; ++a) {
      c.session[a] = game.agent(kAgents[a])->session().Stats();
    }
    return c;
  }

  /// Adds `end` − `start` of one game.
  void AddGame(const GameCounters& start, const GameCounters& end) {
    auto add = [](uint64_t& to, uint64_t from, uint64_t till) {
      to += till - from;
    };
    const belief::BeliefStats &b0 = start.belief, &b1 = end.belief;
    add(belief.knowledge_cache_hits, b0.knowledge_cache_hits,
        b1.knowledge_cache_hits);
    add(belief.knowledge_cache_misses, b0.knowledge_cache_misses,
        b1.knowledge_cache_misses);
    add(belief.successor_hits, b0.successor_hits, b1.successor_hits);
    add(belief.successor_misses, b0.successor_misses, b1.successor_misses);
    add(belief.answer_cache_hits, b0.answer_cache_hits, b1.answer_cache_hits);
    add(belief.answer_cache_misses, b0.answer_cache_misses,
        b1.answer_cache_misses);
    add(belief.forks, b0.forks, b1.forks);
    add(belief.speculations, b0.speculations, b1.speculations);
    add(belief.applies, b0.applies, b1.applies);
    add(belief.steps, b0.steps, b1.steps);
    for (int a = 0; a < kNumAgents; ++a) {
      const api::SessionStats &s0 = start.session[a], &s1 = end.session[a];
      add(session[a].round_trips, s0.round_trips, s1.round_trips);
      add(session[a].guard_shares, s0.guard_shares, s1.guard_shares);
      add(session[a].guard_materializations, s0.guard_materializations,
          s1.guard_materializations);
    }
  }
};

}  // namespace

WorkloadResult RunBeliefGame(const Args& args) {
  WorkloadResult result;

  // Set-up, repeated: the world sets and a warmed-up game on each; the
  // game on the first one is played first.
  std::vector<double> setup_s;
  std::vector<core::Wsdt> worlds;
  std::unique_ptr<belief::Game> game;
  HostSpeed setup_host;
  for (int i = 0; i < kSetupRepeats; ++i) {
    game.reset();
    worlds.clear();
    setup_host.Sample();
    Timer t;
    Status st = Status::Ok();
    for (uint64_t w = 0; w < kWorlds; ++w) {
      auto built = BuildWorld(args.seed, w);
      auto warm = built.ok() ? NewGame(built.value())
                             : Result<std::unique_ptr<belief::Game>>(
                                   built.status());
      if (!warm.ok()) {
        st = warm.status();
        break;
      }
      worlds.push_back(std::move(built).value());
      if (w == 0) game = std::move(warm).value();
    }
    setup_s.push_back(t.Seconds());
    if (!st.ok()) {
      result.Fail("setup: " + st.ToString());
      return result;
    }
  }

  Rng rng(DataSeed(args.seed, 5));
  // Latencies of untraced operations (all of them with tracing off), by
  // class: the span name, plus cold / repeat for speculations.
  ClassLatencies answer, update, speculate;
  double mode_ms[2] = {0, 0};
  uint64_t mode_ops[2] = {0, 0};
  uint64_t ops = 0, updates = 0, rounds = 0, repeats = 0, speculations = 0;
  // Per-agent session counters and the game's belief counters, diffed over
  // each game and summed.
  GameCounters counted;
  GameCounters game_start = GameCounters::Of(*game);
  const uint64_t cow0 = core::store::GetStoreStats().cow_breaks;
  std::map<std::string, std::pair<double, uint64_t>> traced_ms;  // per span

  // One timed call: latency into `lat` under `cls`, a span when traced.
  auto timed = [&](bool tr, ClassLatencies& lat, const std::string& cls,
                   const std::string& span_name, auto&& fn) {
    Timer t;
    auto r = [&] {
      SpanScope span(span_name);
      return fn();
    }();
    double ms = t.Millis();
    if (!tr) lat.Add(cls, ms);
    mode_ms[tr ? 1 : 0] += ms;
    mode_ops[tr ? 1 : 0]++;
    ops++;
    if (tr) {
      auto& [sum, n] = traced_ms[span_name];
      sum += ms;
      n++;
    }
    return r;
  };
  auto fail_if = [&](const Status& st, const std::string& what) {
    if (!st.ok()) result.Fail(what + ": " + st.ToString());
  };

  HostSpeed host;  // the loop's reference samples
  RssAtWork rss(kRssOps);
  double new_game_s = 0;  // starting games after the first, not measured
  Timer wall;
  while (wall.Seconds() < args.seconds) {
    const uint64_t k = rounds++;
    if (k > 0 && k % kRoundsPerGame == 0) {
      counted.AddGame(game_start, GameCounters::Of(*game));
      Timer t;
      game.reset();
      auto next = NewGame(worlds[(k / kRoundsPerGame) % kWorlds]);
      new_game_s += t.Seconds();
      if (!next.ok()) {
        result.Fail("new game: " + next.status().ToString());
        break;
      }
      game = std::move(next).value();
      game_start = GameCounters::Of(*game);
    }
    const bool tr = args.trace && k % 2 == 0;
    ScopedRequest rq(static_cast<int64_t>(k) + 1, tr);
    SpanScope root("belief.round");

    std::vector<UpdateOp> move = MoveBatch(k, rng);
    updates += 2;
    fail_if(timed(tr, update, "step", "belief.step",
                  [&] { return game->Step(move); }),
            "step");
    const char* observer = kAgents[k % kNumAgents];
    std::vector<UpdateOp> seen = ObserveBatch(k);
    fail_if(timed(tr, update, "observe", "belief.observe",
                  [&] { return game->Observe(observer, seen); }),
            "observe");

    // A probe tuple possible in the current state (outside the timing).
    auto possible = game->agent(kAgents[0])->session().PossibleTuples("R");
    if (!possible.ok() || possible->NumRows() == 0) {
      result.Fail("no probe tuple");
      continue;
    }
    std::vector<Value> probe =
        possible->row(rng.Below(possible->NumRows())).ToRow();
    std::array<bool, kNumAgents> knows{}, considers{};
    std::array<double, kNumAgents> conf{};
    bool answered = true;
    for (int a = 0; a < kNumAgents; ++a) {
      belief::Agent* agent = game->agent(kAgents[a]);
      std::string be = kAgents[a];
      auto kn = timed(tr, answer, "knows." + be, "belief.knows." + be,
                      [&] { return agent->Knows("R", probe); });
      auto cp = timed(tr, answer, "considers_possible." + be,
                      "belief.considers_possible." + be,
                      [&] { return agent->ConsidersPossible("R", probe); });
      auto cf = timed(tr, answer, "confidence." + be,
                      "belief.confidence." + be,
                      [&] { return agent->Confidence("R", probe); });
      if (!kn.ok() || !cp.ok() || !cf.ok()) {
        result.Fail(be + " knowledge query failed");
        answered = false;
        continue;
      }
      knows[a] = kn.value();
      considers[a] = cp.value();
      conf[a] = cf.value();
    }
    if (answered) {
      for (int a = 1; a < kNumAgents; ++a) {
        if (knows[a] != knows[0] || considers[a] != considers[0] ||
            std::fabs(conf[a] - conf[0]) > kConfTolerance) {
          result.Fail(std::string("agents disagree: ") + kAgents[0] + " vs " +
                      kAgents[a]);
        }
      }
      if (!considers[0]) result.Fail("a possible probe is not possible");
    }

    const char* speculator = kAgents[(k + 1) % kNumAgents];
    std::vector<int> order;
    for (int j = 0; j < kPoolSize; ++j) order.push_back(j);
    order.push_back(static_cast<int>(rng.Below(kPoolSize)));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    std::set<int> expanded;
    for (int j : order) {
      const bool repeat = expanded.count(j) != 0;
      repeats += repeat;
      expanded.insert(j);
      speculations++;
      std::vector<UpdateOp> batch = ScenarioBatch(j);
      auto succ = timed(tr, speculate, repeat ? "repeat" : "cold",
                        "belief.speculate",
                        [&] { return game->Speculate(speculator, batch); });
      if (!succ.ok()) result.Fail("speculate: " + succ.status().ToString());
    }
    host.MaybeSample();
    rss.Observe(ops);
  }
  counted.AddGame(game_start, GameCounters::Of(*game));
  // The loop's own time, without new games and reference samples.
  const double elapsed =
      wall.Seconds() - new_game_s - host.TotalMs() / 1e3;
  result.attempted = ops;

  MetricSet& m = result.metrics;
  const double slow = host.Factor();
  PutSetup(setup_s, setup_host, result);
  m.Put("throughput_ops_s", static_cast<double>(ops) / elapsed * slow,
        "ops/s");
  m.Put("peak_rss_mb", rss.Mb(), "MB");
  answer.Report("answer", slow, m, &result.thin);
  update.Report("latency.update", slow, m, &result.thin);
  speculate.Report("latency.speculate", slow, m, &result.thin);

  const double repeat_share =
      speculations ? static_cast<double>(repeats) /
                         static_cast<double>(speculations)
                   : 0.0;
  if (args.trace) {
    const belief::BeliefStats& b = counted.belief;
    auto ratio = [](uint64_t num, uint64_t den) {
      return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    };
    m.Put("belief.knowledge_cache_hit_ratio",
          ratio(b.knowledge_cache_hits,
                b.knowledge_cache_hits + b.knowledge_cache_misses),
          "ratio");
    m.Put("belief.successor_hit_ratio",
          ratio(b.successor_hits, b.successor_hits + b.successor_misses),
          "ratio");
    m.Put("belief.forks_per_speculate", ratio(b.forks, b.speculations),
          "count");
    m.Put("belief.applies_per_step", ratio(b.applies, b.steps), "count");
    m.Put("api.answer_cache_hit_ratio.belief",
          ratio(b.answer_cache_hits,
                b.answer_cache_hits + b.answer_cache_misses),
          "ratio");
    uint64_t shares = 0, mats = 0;
    for (int a = 0; a < kNumAgents; ++a) {
      const api::SessionStats& sa = counted.session[a];
      m.Put(std::string("api.round_trips_per_1k.") + kAgents[a],
            1000.0 * ratio(sa.round_trips, ops), "count");
      shares += sa.guard_shares;
      mats += sa.guard_materializations;
      const std::string be = kAgents[a];
      auto [sum, n] = traced_ms["belief.knows." + be];
      m.Put("belief.knows_ms." + be, n ? sum / static_cast<double>(n) : 0.0,
            "ms");
    }
    m.Put("api.guard_share_ratio", ratio(shares, shares + mats), "ratio");
    m.Put("store.cow_breaks_per_update",
          ratio(core::store::GetStoreStats().cow_breaks - cow0,
                updates),
          "count");
    m.Put("store.peak_cells",
          static_cast<double>(core::store::GetStoreStats().peak_cells),
          "count");
    PutTraceOverhead(mode_ops, mode_ms, 1, m);
  }

  host.Describe(result.info);
  rss.Describe(result.info);
  result.info["census_rows"] = std::to_string(kRows);
  result.info["placeholder_density"] = "0.001";
  result.info["placeholders"] = std::to_string(kPlaceholders);
  result.info["world_sets"] = std::to_string(kWorlds);
  result.info["agents"] = "wsdt uniform urel";
  result.info["clients"] = "1";
  result.info["rounds"] = std::to_string(rounds);
  result.info["rounds_per_game"] = std::to_string(kRoundsPerGame);
  result.info["mix_per_round"] =
      "step=1 observe=1 knowledge=9 speculate=" +
      std::to_string(kSpeculations);
  result.info["repeated_input_share.successor"] = Num(repeat_share);
  return result;
}

}  // namespace perfbench
