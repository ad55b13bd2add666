// TracedOps must not change what the engine does. For Q1–Q6 and a
// difference plan on all four backends, core::engine::Evaluate over a
// TracedOps (with spans recorded) and over the bare backend must
//   - give identical possible-with-confidence and certain answers, and
//   - materialize the same sequence of relations (same count, same
//     schemas in creation order), i.e. lower the plan identically;
// and the per-operator call counts of a traced and an untraced evaluation
// through TracedOps must be identical, match the recorded spans one for
// one, and account for every relation the evaluation created and dropped.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "census/queries.h"
#include "check.h"
#include "core/engine/plan_driver.h"
#include "core/wsdt_chase.h"
#include "harness.h"
#include "traced_ops.h"

namespace {

using namespace maywsd;
using perfbench::Op;
using perfbench::OpName;
using perfbench::TracedOps;

std::vector<rel::Plan> Plans() {
  std::vector<rel::Plan> plans = census::AllCensusQueries("R");
  plans.push_back(rel::Plan::Difference(
      rel::Plan::Project({"POWSTATE", "CITIZEN"}, rel::Plan::Scan("R")),
      rel::Plan::Project(
          {"POWSTATE", "CITIZEN"},
          rel::Plan::Select(
              rel::Predicate::Cmp("CITIZEN", rel::CmpOp::kEq,
                                  rel::Value::Int(0)),
              rel::Plan::Scan("R")))));
  return plans;
}

core::Wsdt ChasedCensus(size_t rows, double density) {
  census::CensusSchema schema = census::CensusSchema::Standard();
  rel::Relation base = census::GenerateCensus(schema, rows, 17);
  core::Wsdt wsdt =
      census::MakeNoisyWsdt(base, schema, density, 23).value();
  CHECK(core::WsdtChase(wsdt, census::CensusDependencies("R")).ok());
  return wsdt;
}

/// Scratch relations have process-unique increasing numeric suffixes;
/// order the created relations by creation.
uint64_t CreationKey(const std::string& name) {
  const std::string prefix = "__eng_tmp";
  if (name.rfind(prefix, 0) != 0) return UINT64_MAX;  // the output comes last
  return std::stoull(name.substr(prefix.size()));
}

struct Outcome {
  std::vector<std::string> schemas;  // created relations, creation order
  rel::Relation possible_conf;
  rel::Relation certain;
};

Outcome EvaluateKeepingTemps(api::Session& session,
                             core::engine::WorldSetOps& ops,
                             const rel::Plan& plan) {
  std::vector<std::string> before = session.RelationNames();
  Status st = core::engine::Evaluate(ops, plan, "OUT", /*keep_temps=*/true);
  CHECK(st.ok());
  std::vector<std::string> after = session.RelationNames();
  std::set<std::string> old(before.begin(), before.end());
  std::vector<std::string> created;
  for (const std::string& n : after) {
    if (old.count(n) == 0) created.push_back(n);
  }
  std::sort(created.begin(), created.end(),
            [](const std::string& a, const std::string& b) {
              return CreationKey(a) < CreationKey(b);
            });
  Outcome out;
  for (const std::string& n : created) {
    out.schemas.push_back(session.RelationSchema(n).value().ToString());
  }
  out.possible_conf = session.PossibleTuplesWithConfidence("OUT").value();
  out.certain = session.CertainTuples("OUT").value();
  for (const std::string& n : created) CHECK(session.Drop(n).ok());
  return out;
}

void CheckBackend(api::BackendKind kind, const core::Wsdt& wsdt) {
  auto open = [&] { return api::Session::Open(kind, wsdt).value(); };
  api::Session plain = open();
  api::Session decorated = open();
  api::Session untraced = open();
  TracedOps traced_ops(decorated.ops());
  TracedOps quiet_ops(untraced.ops());
  core::engine::WorldSetOps& bare = plain.ops();

  // Capabilities are forwarded unchanged.
  CHECK_EQ(traced_ops.SupportsPredicateSelect(), bare.SupportsPredicateSelect());
  CHECK_EQ(traced_ops.SupportsProjectExists(), bare.SupportsProjectExists());
  CHECK_EQ(traced_ops.SupportsHashJoin(), bare.SupportsHashJoin());
  CHECK_EQ(traced_ops.BackendName(), bare.BackendName());

  int64_t request = 0;
  for (const rel::Plan& plan : Plans()) {
    Outcome want = EvaluateKeepingTemps(plain, bare, plan);

    traced_ops.ResetCounts();
    size_t spans_before = perfbench::Tracer::Get().Spans().size();
    Outcome got;
    {
      perfbench::ScopedRequest rq(++request, /*enabled=*/true);
      got = EvaluateKeepingTemps(decorated, traced_ops, plan);
    }
    CHECK(want.schemas == got.schemas);
    CHECK(want.possible_conf.EqualsAsSet(got.possible_conf));
    CHECK(want.certain.EqualsAsSet(got.certain));

    // Every materializing call created exactly one relation; the spans
    // recorded match the counters one for one.
    std::array<uint64_t, perfbench::kNumOps> traced_calls = traced_ops.calls();
    uint64_t materializing = 0;
    for (size_t i = 0; i < perfbench::kNumOps; ++i) {
      if (static_cast<Op>(i) != Op::kDrop) materializing += traced_calls[i];
    }
    CHECK_EQ(materializing, got.schemas.size());
    std::map<std::string, uint64_t> span_counts;
    std::vector<perfbench::Span> spans = perfbench::Tracer::Get().Spans();
    for (size_t i = spans_before; i < spans.size(); ++i) {
      span_counts[spans[i].name]++;
    }
    for (size_t i = 0; i < perfbench::kNumOps; ++i) {
      std::string name = "engine.op." + std::string(OpName(static_cast<Op>(i)));
      CHECK_EQ(span_counts[name], traced_calls[i]);
    }

    // Tracing on and off through TracedOps: identical per-operator counts,
    // including the scratch drops of a normal (temp-dropping) evaluation.
    traced_ops.ResetCounts();
    quiet_ops.ResetCounts();
    {
      perfbench::ScopedRequest rq(++request, /*enabled=*/true);
      CHECK(core::engine::Evaluate(traced_ops, plan, "OUT2").ok());
    }
    CHECK(core::engine::Evaluate(quiet_ops, plan, "OUT2").ok());
    CHECK(traced_ops.calls() == quiet_ops.calls());
    CHECK_EQ(traced_ops.calls()[static_cast<size_t>(Op::kDrop)],
             got.schemas.size() - 1);  // every scratch relation, not OUT2
    CHECK(decorated.Drop("OUT2").ok());
    CHECK(untraced.Drop("OUT2").ok());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: traced_ops_test <wsd|wsdt|uniform|urel>\n");
    return 2;
  }
  auto kind = api::ParseBackendKind(argv[1]);
  if (!kind.ok()) return 2;
  // WSD composes components quadratically on Q5's product and Difference,
  // so it gets a world set of a dozen rows.
  core::Wsdt wsdt = kind.value() == api::BackendKind::kWsd
                        ? ChasedCensus(12, 0.005)
                        : ChasedCensus(300, 0.002);
  CheckBackend(kind.value(), wsdt);
  return CheckResult(argv[1]);
}
