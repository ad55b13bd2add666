// Randomized whole-plan property tests: random relational algebra trees
// are evaluated through (a) per-world brute force, (b) WsdEvaluate over a
// WSD (converted to a WSDT and back at the boundary), and (c) the
// Section 5 WSDT operators — all three must agree on every seed
// (Theorem 1 end to end, including operator composition effects like
// ⊥-propagation across stacked operators).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>

#include "api/session.h"
#include "rel/eval.h"
#include "rel/optimizer.h"
#include "core/component_store.h"
#include "core/engine/plan_driver.h"
#include "core/engine/uniform_backend.h"
#include "core/engine/urel_backend.h"
#include "core/engine/wsdt_backend.h"
#include "core/uniform.h"
#include "core/urel.h"
#include "core/wsd_algebra.h"
#include "core/wsdt_algebra.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::I;
using testutil::Q;
using testutil::RelSpec;
using testutil::SeededRng;

/// Draws a random comparison predicate over attributes of `attrs`.
Predicate RandomPredicate(Rng& rng, const std::vector<std::string>& attrs,
                          int depth) {
  auto random_cmp = [&]() {
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
    CmpOp op = ops[rng.Uniform(4)];
    const std::string& lhs = attrs[rng.Uniform(attrs.size())];
    if (attrs.size() > 1 && rng.Bernoulli(0.3)) {
      const std::string& rhs = attrs[rng.Uniform(attrs.size())];
      return Predicate::CmpAttr(lhs, op, rhs);
    }
    return Predicate::Cmp(lhs, op, I(static_cast<int64_t>(rng.Uniform(3))));
  };
  if (depth <= 0 || rng.Bernoulli(0.5)) return random_cmp();
  switch (rng.Uniform(3)) {
    case 0:
      return Predicate::And(RandomPredicate(rng, attrs, depth - 1),
                            RandomPredicate(rng, attrs, depth - 1));
    case 1:
      return Predicate::Or(RandomPredicate(rng, attrs, depth - 1),
                           RandomPredicate(rng, attrs, depth - 1));
    default:
      return Predicate::Not(RandomPredicate(rng, attrs, depth - 1));
  }
}

/// Draws a random plan. Attribute bookkeeping: R and R2 have {A,B},
/// S has {C,D}; combining operators are chosen so schemas stay valid.
Plan RandomPlan(Rng& rng, int depth, std::vector<std::string>* out_attrs) {
  if (depth <= 0) {
    switch (rng.Uniform(3)) {
      case 0:
        *out_attrs = {"A", "B"};
        return Plan::Scan("R");
      case 1:
        *out_attrs = {"A", "B"};
        return Plan::Scan("R2");
      default:
        *out_attrs = {"C", "D"};
        return Plan::Scan("S");
    }
  }
  switch (rng.Uniform(5)) {
    case 0: {  // selection
      Plan child = RandomPlan(rng, depth - 1, out_attrs);
      return Plan::Select(RandomPredicate(rng, *out_attrs, 1),
                          std::move(child));
    }
    case 1: {  // projection to one attribute
      Plan child = RandomPlan(rng, depth - 1, out_attrs);
      std::string keep = (*out_attrs)[rng.Uniform(out_attrs->size())];
      *out_attrs = {keep};
      return Plan::Project({keep}, std::move(child));
    }
    case 2: {  // union of two same-leaf subplans
      *out_attrs = {"A", "B"};
      return Plan::Union(Plan::Scan("R"), Plan::Scan("R2"));
    }
    case 3: {  // difference
      *out_attrs = {"A", "B"};
      Plan left = Plan::Select(RandomPredicate(rng, *out_attrs, 0),
                               Plan::Scan("R"));
      return Plan::Difference(std::move(left), Plan::Scan("R2"));
    }
    default: {  // join R ⋈ S
      *out_attrs = {"A", "B", "C", "D"};
      return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                        Plan::Scan("R"), Plan::Scan("S"));
    }
  }
}

class RandomPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanProperty, AllThreePathsAgree) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 3; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);

    auto worlds = wsd.EnumerateWorlds(100000);
    ASSERT_TRUE(worlds.ok());
    auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
    ASSERT_TRUE(expected.ok()) << plan.ToString();

    // Path (b): WsdEvaluate, converting at the boundary.
    Wsd wsd_copy = wsd;
    Status st = WsdEvaluate(wsd_copy, plan, "OUT");
    ASSERT_TRUE(st.ok()) << plan.ToString() << ": " << st;
    auto wsd_out = wsd_copy.EnumerateWorlds(4000000, {"OUT"});
    ASSERT_TRUE(wsd_out.ok()) << plan.ToString();
    EXPECT_TRUE(WorldSetsEquivalent(*expected, *wsd_out))
        << "WSD path disagrees on " << plan.ToString() << " seed "
        << GetParam();

    // Path (c): WSDT operators.
    auto wsdt_or = Wsdt::FromWsd(wsd);
    ASSERT_TRUE(wsdt_or.ok());
    Wsdt wsdt = std::move(wsdt_or).value();
    st = WsdtEvaluate(wsdt, plan, "OUT");
    ASSERT_TRUE(st.ok()) << plan.ToString() << ": " << st;
    ASSERT_TRUE(wsdt.Validate().ok()) << plan.ToString();
    auto wsdt_out =
        wsdt.ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
    ASSERT_TRUE(wsdt_out.ok()) << plan.ToString();
    EXPECT_TRUE(WorldSetsEquivalent(*expected, *wsdt_out))
        << "WSDT path disagrees on " << plan.ToString() << " seed "
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanProperty, ::testing::Range(0, 20));

// Cross-backend equivalence oracle: the SAME engine driver
// (core/engine/plan_driver.h) runs the SAME random plan over every
// enrolled backend (testutil::AllBackendKinds — Wsd, Wsdt, the C/F/W
// uniform store, and the columnar U-relations store); all must produce
// identical world-sets, both on the plain plan and after the Section 5
// logical optimizations (which reshape the plan into joins some backends
// execute natively and others lower to product + selections).
class CrossBackendProperty : public ::testing::TestWithParam<int> {};

TEST_P(CrossBackendProperty, UnifiedDriverAgreesOnAllBackends) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 104729 + 71);
  MAYWSD_SEED_TRACE(rng);
  // Companion to the scratch-relation leak check below: every payload
  // node and materialized cell the whole test allocates in the interned
  // component store must be released by the time the stores die.
  store::StoreStats store_before = store::GetStoreStats();
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 3; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);

    for (bool optimized : {false, true}) {
      // The first enrolled backend's answer is the reference the rest are
      // compared against.
      std::vector<PossibleWorld> reference;
      bool have_reference = false;
      for (api::BackendKind kind : testutil::AllBackendKinds()) {
        SCOPED_TRACE(::testing::Message()
                     << "backend " << api::BackendKindName(kind)
                     << (optimized ? " (optimized)" : " (plain)"));
        // Per-kind store + backend; only the pair for `kind` is used. The
        // WSD route is a kWsd session: Session::Open(Wsd) converts at the
        // boundary and drives the WSDT engine.
        std::optional<api::Session> wsd_session;
        Wsdt wsdt_store;
        rel::Database udb_store;
        Urel urel_store;
        std::unique_ptr<engine::WorldSetOps> owned_backend;
        engine::WorldSetOps* backend = nullptr;
        switch (kind) {
          case api::BackendKind::kWsd:
            wsd_session.emplace(api::Session::Open(Wsd(wsd)).value());
            backend = &wsd_session->ops();
            break;
          case api::BackendKind::kWsdt: {
            auto wsdt_or = Wsdt::FromWsd(wsd);
            ASSERT_TRUE(wsdt_or.ok());
            wsdt_store = std::move(wsdt_or).value();
            owned_backend = std::make_unique<engine::WsdtBackend>(wsdt_store);
            backend = owned_backend.get();
            break;
          }
          case api::BackendKind::kUniform: {
            auto udb_or = ExportUniform(Wsdt::FromWsd(wsd).value());
            ASSERT_TRUE(udb_or.ok());
            udb_store = std::move(udb_or).value();
            owned_backend = std::make_unique<engine::UniformBackend>(udb_store);
            backend = owned_backend.get();
            break;
          }
          case api::BackendKind::kUrel: {
            auto urel_or = ExportUrel(Wsdt::FromWsd(wsd).value());
            ASSERT_TRUE(urel_or.ok());
            urel_store = std::move(urel_or).value();
            owned_backend = std::make_unique<engine::UrelBackend>(urel_store);
            backend = owned_backend.get();
            break;
          }
        }
        ASSERT_NE(backend, nullptr);

        Status st = optimized ? engine::EvaluateOptimized(*backend, plan,
                                                          "OUT")
                              : engine::Evaluate(*backend, plan, "OUT");
        ASSERT_TRUE(st.ok()) << plan.ToString() << ": " << st;

        // Representation integrity after the whole plan ran.
        Status valid;
        Result<std::vector<PossibleWorld>> out =
            Status::Internal("unset");
        switch (kind) {
          case api::BackendKind::kWsd: {
            const Wsdt& held = *std::as_const(*wsd_session).wsdt();
            valid = held.Validate();
            out = held.ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
            break;
          }
          case api::BackendKind::kWsdt:
            valid = wsdt_store.Validate();
            out = wsdt_store.ToWsd().value().EnumerateWorlds(4000000,
                                                             {"OUT"});
            break;
          case api::BackendKind::kUniform: {
            valid = ValidateUniform(udb_store);
            auto back = ImportUniform(udb_store);
            ASSERT_TRUE(back.ok()) << plan.ToString() << ": "
                                   << back.status();
            out = back->ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
            break;
          }
          case api::BackendKind::kUrel: {
            valid = ValidateUrel(urel_store);
            auto back = ImportUrel(urel_store);
            ASSERT_TRUE(back.ok()) << plan.ToString() << ": "
                                   << back.status();
            out = back->ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
            break;
          }
        }
        ASSERT_TRUE(valid.ok()) << plan.ToString() << ": " << valid;
        ASSERT_TRUE(out.ok()) << plan.ToString();

        if (!have_reference) {
          reference = std::move(out).value();
          have_reference = true;
        } else {
          EXPECT_TRUE(WorldSetsEquivalent(reference, *out))
              << "backends disagree on " << plan.ToString() << " seed "
              << GetParam();
        }

        // The scratch-relation lifecycle must not leak intermediates into
        // any representation.
        for (const std::string& name : backend->RelationNames()) {
          EXPECT_NE(name.rfind("__eng_tmp", 0), 0u)
              << "leaked scratch relation " << name;
        }
      }
    }
  }
  store::StoreStats store_after = store::GetStoreStats();
  EXPECT_EQ(store_after.live_nodes, store_before.live_nodes)
      << "leaked component-store nodes";
  EXPECT_EQ(store_after.live_cells, store_before.live_cells)
      << "leaked component-store cells";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendProperty, ::testing::Range(0, 15));

// Select-kernel oracle: σ_pred over mixed-kind uncertain data on every
// backend equals per-world evaluation. The predicates cover all six
// comparison operators against constants and between attributes, nested
// under And/Or/Not. Constants include values no world holds (so the
// U-relations dictionary lacks them), int 1 against double 1.0, and
// strings. Odd seeds add a certain padding relation whose distinct values
// make the U-relations dictionary far larger than R, which moves ordered
// comparisons off the flat per-id verdict table onto per-row comparison.
class SelectKernelProperty : public ::testing::TestWithParam<int> {};

std::vector<PossibleWorld> MixedWorlds(Rng& rng, bool pad) {
  const rel::Value pool[] = {I(0),
                             I(1),
                             I(2),
                             rel::Value::Double(2.5),
                             rel::Value::String("a"),
                             rel::Value::String("b")};
  auto draw = [&] { return pool[rng.Uniform(std::size(pool))]; };
  // Rows in every world become certain template rows; the rest vary.
  rel::Relation common(rel::Schema::FromNames({"A", "B"}), "R");
  for (int i = 0; i < 3; ++i) common.AppendRow({draw(), draw()});
  std::vector<PossibleWorld> worlds(3);
  for (PossibleWorld& world : worlds) {
    world.prob = 1.0 / static_cast<double>(worlds.size());
    rel::Relation r = common;
    for (uint64_t i = rng.Uniform(4); i > 0; --i) {
      r.AppendRow({draw(), draw()});
    }
    r.SortDedup();
    world.db.PutRelation(std::move(r));
    if (pad) {
      rel::Relation p(rel::Schema::FromNames({"P"}), "PAD");
      for (int64_t v = 100; v < 300; ++v) p.AppendRow({I(v)});
      world.db.PutRelation(std::move(p));
    }
  }
  return worlds;
}

Predicate RandomSelectPredicate(Rng& rng, int depth) {
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  const rel::Value constants[] = {
      I(1),     rel::Value::Double(1.0),    I(2),
      I(7),     rel::Value::Double(1.5),    rel::Value::Double(2.5),
      I(-3),    rel::Value::String("a"),    rel::Value::String("zz")};
  const char* attrs[] = {"A", "B"};
  CmpOp op = ops[rng.Uniform(std::size(ops))];
  switch (depth > 0 ? rng.Uniform(5) : rng.Uniform(2)) {
    case 0:
      return Predicate::Cmp(attrs[rng.Uniform(2)], op,
                            constants[rng.Uniform(std::size(constants))]);
    case 1:
      return Predicate::CmpAttr("A", op, "B");
    case 2:
      return Predicate::And(RandomSelectPredicate(rng, depth - 1),
                            RandomSelectPredicate(rng, depth - 1));
    case 3:
      return Predicate::Or(RandomSelectPredicate(rng, depth - 1),
                           RandomSelectPredicate(rng, depth - 1));
    default:
      return Predicate::Not(RandomSelectPredicate(rng, depth - 1));
  }
}

TEST_P(SelectKernelProperty, EveryBackendMatchesPerWorldSelection) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 6151 + 29);
  MAYWSD_SEED_TRACE(rng);
  const std::vector<PossibleWorld> worlds =
      MixedWorlds(rng, GetParam() % 2 == 1);
  auto wsd_or = core::WsdFromWorlds(worlds);
  ASSERT_TRUE(wsd_or.ok());
  Wsd wsd = std::move(wsd_or).value();
  ASSERT_TRUE(core::NormalizeWsd(wsd).ok());

  // Every operator against a dictionary value, an absent value and a
  // string, and between attributes, plain and negated; then random Kleene
  // trees.
  std::vector<Predicate> preds;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    preds.push_back(Predicate::Cmp("A", op, rel::Value::Double(1.0)));
    preds.push_back(Predicate::Cmp("B", op, I(7)));
    preds.push_back(Predicate::Cmp("A", op, rel::Value::String("a")));
    preds.push_back(Predicate::CmpAttr("A", op, "B"));
    preds.push_back(Predicate::Not(Predicate::Cmp("B", op, I(2))));
    preds.push_back(Predicate::Not(Predicate::CmpAttr("A", op, "B")));
  }
  for (int i = 0; i < 8; ++i) preds.push_back(RandomSelectPredicate(rng, 2));

  std::vector<std::vector<PossibleWorld>> expected;
  for (const Predicate& pred : preds) {
    auto want = EvaluatePerWorld(
        worlds, Plan::Select(pred, Plan::Scan("R")), "OUT");
    ASSERT_TRUE(want.ok()) << pred.ToString();
    expected.push_back(std::move(want).value());
  }
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(api::BackendKindName(kind));
    auto session = testutil::OpenSessionOver(kind, wsd);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < preds.size(); ++i) {
      SCOPED_TRACE(preds[i].ToString());
      const std::string out = "OUT" + std::to_string(i);
      ASSERT_TRUE(
          session->Run(Plan::Select(preds[i], Plan::Scan("R")), out).ok());
      auto got = testutil::SessionWorlds(*session, 1000000, {out});
      ASSERT_TRUE(got.ok());
      // Rename the answer to the reference's name before comparing.
      for (PossibleWorld& w : *got) {
        auto r = w.db.GetRelation(out);
        ASSERT_TRUE(r.ok());
        rel::Relation renamed = **r;
        renamed.set_name("OUT");
        w.db = rel::Database();
        w.db.PutRelation(std::move(renamed));
      }
      EXPECT_TRUE(WorldSetsEquivalent(expected[i], *got));
    }
    EXPECT_TRUE(testutil::ValidateSession(*session).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectKernelProperty, ::testing::Range(0, 12));

// Difference-kernel oracle: L − S on every backend equals per-world
// evaluation. The WSDT is built by hand so every case of the kernel shows
// up across seeds: certain − certain (equal and unequal rows),
// certain − uncertain (the left row becomes conditional), uncertain −
// certain, and uncertain − uncertain with both rows in one component or
// in different ones. Placeholder columns carry ⊥ (rows present in some
// worlds only, on both sides, and rows present in none), and cells mix
// ints, doubles (1.0 equals int 1) and strings. Each seed also checks
// L − L, S − L, an empty right side and a disjoint right side.
class DifferenceKernelProperty : public ::testing::TestWithParam<int> {};

Wsdt RandomDifferenceInput(Rng& rng) {
  const rel::Value pool[] = {I(0), I(1), rel::Value::Double(1.0),
                             rel::Value::Double(2.5),
                             rel::Value::String("a")};
  auto draw = [&] { return pool[rng.Uniform(std::size(pool))]; };
  const rel::Schema schema = rel::Schema::FromNames({"A", "B"});
  // Fields of '?' cells, each assigned to one of a few components.
  const size_t num_comps = 1 + rng.Uniform(3);
  std::vector<std::vector<FieldKey>> comp_fields(num_comps);
  Wsdt wsdt;
  std::vector<rel::Relation> templates;
  for (const char* name : {"L", "S"}) {
    rel::Relation tmpl(schema, name);
    size_t rows = rng.Uniform(5);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<rel::Value> row(2);
      // Some S rows restate an L row's certain cells, so matches are
      // frequent.
      if (std::string(name) == "S" && !templates[0].empty() &&
          rng.Bernoulli(0.4)) {
        rel::TupleRef src =
            templates[0].row(rng.Uniform(templates[0].NumRows()));
        row.assign(src.data(), src.data() + 2);
      } else {
        for (rel::Value& v : row) v = rng.Bernoulli(0.5) ? draw() : Q();
      }
      for (size_t a = 0; a < 2; ++a) {
        if (!row[a].is_question()) continue;
        comp_fields[rng.Uniform(num_comps)].push_back(FieldKey(
            name, static_cast<TupleId>(r), schema.attr(a).name_view()));
      }
      tmpl.AppendRow(row);
    }
    templates.push_back(std::move(tmpl));
  }
  for (rel::Relation& tmpl : templates) {
    EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  }
  for (std::vector<FieldKey>& fields : comp_fields) {
    if (fields.empty()) continue;
    Component comp(fields);
    const size_t worlds = 1 + rng.Uniform(3);
    std::vector<rel::Value> values(fields.size());
    for (size_t w = 0; w < worlds; ++w) {
      for (rel::Value& v : values) {
        v = rng.Bernoulli(0.2) ? testutil::Bot() : draw();
      }
      comp.AddWorld(values, 1.0 / static_cast<double>(worlds));
    }
    comp.PropagateBottom();
    EXPECT_TRUE(wsdt.AddComponent(std::move(comp)).ok());
  }
  return wsdt;
}

TEST_P(DifferenceKernelProperty, EveryBackendMatchesPerWorldDifference) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 3571 + 17);
  MAYWSD_SEED_TRACE(rng);
  for (int round = 0; round < 4; ++round) {
    Wsdt wsdt = RandomDifferenceInput(rng);
    ASSERT_TRUE(wsdt.Validate().ok()) << wsdt.ToString();
    rel::Relation empty(rel::Schema::FromNames({"A", "B"}), "E");
    rel::Relation disjoint(rel::Schema::FromNames({"A", "B"}), "D");
    disjoint.AppendRow({rel::Value::String("zz"), I(7)});
    ASSERT_TRUE(wsdt.AddTemplateRelation(empty).ok());
    ASSERT_TRUE(wsdt.AddTemplateRelation(disjoint).ok());
    auto worlds = wsdt.ToWsd().value().EnumerateWorlds(100000);
    ASSERT_TRUE(worlds.ok());

    const std::vector<std::pair<const char*, const char*>> cases = {
        {"L", "S"}, {"S", "L"}, {"L", "L"}, {"L", "E"}, {"L", "D"}};
    for (api::BackendKind kind : testutil::AllBackendKinds()) {
      SCOPED_TRACE(::testing::Message() << api::BackendKindName(kind)
                                        << " round " << round << "\n"
                                        << wsdt.ToString());
      auto session = api::Session::Open(kind, wsdt);
      ASSERT_TRUE(session.ok());
      for (const auto& [left, right] : cases) {
        SCOPED_TRACE(std::string(left) + " - " + right);
        Plan plan = Plan::Difference(Plan::Scan(left), Plan::Scan(right));
        auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
        ASSERT_TRUE(expected.ok());
        const std::string out = std::string("OUT_") + left + right;
        Status st = session->Run(plan, out);
        ASSERT_TRUE(st.ok()) << st;
        auto got = testutil::SessionWorlds(*session, 1000000, {out});
        ASSERT_TRUE(got.ok()) << got.status();
        for (PossibleWorld& w : *got) {
          rel::Relation renamed = *w.db.GetRelation(out).value();
          renamed.set_name("OUT");
          w.db = rel::Database();
          w.db.PutRelation(std::move(renamed));
        }
        EXPECT_TRUE(WorldSetsEquivalent(*expected, *got));
        ASSERT_TRUE(testutil::ValidateSession(*session).ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferenceKernelProperty,
                         ::testing::Range(0, 16));

// Randomized pin-teardown leak oracle: pinning a Snapshot and a Fork over
// a random store, reading through both and running a random plan inside
// the fork must release every component-store node and cell once the whole
// session family dies. This is the COW-handle analogue of the scratch
// leak checks above — a dead pin that retains arena growth fails here.
class SnapshotForkLeakProperty : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotForkLeakProperty, PinReadForkRunTeardownReleasesStore) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 50021 + 13);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  store::StoreStats store_before = store::GetStoreStats();
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(api::BackendKindName(kind));
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    auto session_or = testutil::OpenSessionOver(kind, wsd);
    ASSERT_TRUE(session_or.ok());
    api::Session session = std::move(session_or.value());

    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);
    {
      api::Snapshot snapshot = session.Snapshot();
      api::Session fork = session.Fork();
      // The fork runs (and keeps) a materialized plan result; the
      // snapshot and the parent only read. All of it must die cleanly.
      ASSERT_TRUE(fork.Run(plan, "FORK_OUT").ok()) << plan.ToString();
      ASSERT_TRUE(fork.PossibleTuples("FORK_OUT").ok());
      ASSERT_TRUE(snapshot.PossibleTuples("R").ok());
      ASSERT_TRUE(snapshot.CertainTuples("S").ok());
      EXPECT_FALSE(session.HasRelation("FORK_OUT"));
    }
    ASSERT_TRUE(session.PossibleTuples("R").ok());
  }
  store::StoreStats store_after = store::GetStoreStats();
  EXPECT_EQ(store_after.live_nodes, store_before.live_nodes)
      << "snapshot/fork teardown leaked component-store nodes";
  EXPECT_EQ(store_after.live_cells, store_before.live_cells)
      << "snapshot/fork teardown leaked component-store cells";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotForkLeakProperty,
                         ::testing::Range(0, 10));

class OptimizerProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerProperty, OptimizedPlansAgreeOnPlainEvaluation) {
  // The engine optimizer must preserve set-semantics results on random
  // plans and random instances.
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 3, 3},
                                RelSpec{"S", {"C", "D"}, 3, 3},
                                RelSpec{"R2", {"A", "B"}, 3, 3}};
  for (int round = 0; round < 5; ++round) {
    auto worlds = testutil::RandomWorlds(rng, specs, 1);
    const rel::Database& db = worlds[0].db;
    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);
    // Wrap in one more selection so the optimizer has something to push.
    plan = Plan::Select(RandomPredicate(rng, attrs, 1), std::move(plan));
    auto opt = rel::Optimize(plan, db);
    ASSERT_TRUE(opt.ok()) << plan.ToString();
    auto a = rel::Evaluate(plan, db);
    auto b = rel::Evaluate(*opt, db);
    ASSERT_TRUE(a.ok()) << plan.ToString();
    ASSERT_TRUE(b.ok()) << opt->ToString();
    EXPECT_TRUE(a->EqualsAsSet(*b))
        << "plan: " << plan.ToString() << "\nopt: " << opt->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProperty, ::testing::Range(0, 15));

// RunAll column of the oracle: a batched workload with shared subtrees
// evaluated through Session::RunAll (one scratch lifecycle, common-subplan
// cache) must produce, per output, exactly the world set of plan-by-plan
// Run on a fresh session — and the shared subtrees must actually hit the
// cache (Session::Stats()).
class RunAllBatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(RunAllBatchProperty, BatchedWithCacheMatchesPlanByPlan) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 52361 + 29);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 2; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan base = RandomPlan(rng, 2, &attrs);
    // A workload sharing `base` as a subtree: the batch must evaluate it
    // once and reuse the materialization for the later plans.
    std::vector<Plan> workload;
    workload.push_back(base);
    workload.push_back(Plan::Select(RandomPredicate(rng, attrs, 1), base));
    workload.push_back(Plan::Project({attrs[rng.Uniform(attrs.size())]},
                                     base));
    std::vector<std::string> outs = {"OUT0", "OUT1", "OUT2"};

    for (api::BackendKind kind : testutil::AllBackendKinds()) {
      auto batch_or = testutil::OpenSessionOver(kind, wsd);
      auto single_or = testutil::OpenSessionOver(kind, wsd);
      ASSERT_TRUE(batch_or.ok() && single_or.ok());
      api::Session batch = std::move(batch_or).value();
      api::Session single = std::move(single_or).value();

      Status st = batch.RunAll(workload, outs);
      ASSERT_TRUE(st.ok()) << base.ToString() << " on "
                           << api::BackendKindName(kind) << ": " << st;
      EXPECT_GT(batch.Stats().cache_hits, 0u)
          << "shared subtree missed the cache on "
          << api::BackendKindName(kind);

      for (size_t i = 0; i < workload.size(); ++i) {
        ASSERT_TRUE(single.Run(workload[i], outs[i]).ok())
            << workload[i].ToString();
      }

      for (const std::string& out : outs) {
        auto batched = testutil::SessionWorlds(batch, 4000000, {out});
        auto plain = testutil::SessionWorlds(single, 4000000, {out});
        ASSERT_TRUE(batched.ok()) << batched.status();
        ASSERT_TRUE(plain.ok()) << plain.status();
        EXPECT_TRUE(WorldSetsEquivalent(*batched, *plain))
            << "RunAll vs Run disagree on " << out << " for "
            << base.ToString() << " over " << api::BackendKindName(kind);
      }
      // No scratch relation may survive the batch lifecycle.
      for (const std::string& name : batch.RelationNames()) {
        EXPECT_NE(name.rfind("__eng_tmp", 0), 0u)
            << "leaked scratch relation " << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunAllBatchProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace maywsd::core
