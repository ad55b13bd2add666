#include "core/wsdt_algebra.h"

#include <gtest/gtest.h>

#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::I;
using testutil::RelSpec;

/// Oracle check: WsdtEvaluate against per-world evaluation of the same
/// world-set (via the WSD expansion).
void ExpectWsdtOracleEquivalent(const Wsd& wsd_in, const Plan& plan,
                                const char* label = "") {
  auto worlds = wsd_in.EnumerateWorlds(100000);
  ASSERT_TRUE(worlds.ok()) << label;
  auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
  ASSERT_TRUE(expected.ok()) << label;

  auto wsdt_or = Wsdt::FromWsd(wsd_in);
  ASSERT_TRUE(wsdt_or.ok()) << label;
  Wsdt wsdt = std::move(wsdt_or).value();
  Status st = WsdtEvaluate(wsdt, plan, "OUT");
  ASSERT_TRUE(st.ok()) << label << ": " << st;
  ASSERT_TRUE(wsdt.Validate().ok()) << label;

  auto expanded = wsdt.ToWsd();
  ASSERT_TRUE(expanded.ok()) << label;
  auto actual = expanded->EnumerateWorlds(1000000, {"OUT"});
  ASSERT_TRUE(actual.ok()) << label;
  EXPECT_TRUE(WorldSetsEquivalent(*expected, *actual)) << label;
}

/// Three-valued verdict of `pred` bound to `schema` on `row`.
rel::Tri EvalTri(const Predicate& pred, const rel::Schema& schema,
                 rel::TupleRef row) {
  return rel::BoundPredicate::Bind(pred, schema).value().EvalTri(row);
}

TEST(BoundPredicateTriTest, ThreeValuedLogic) {
  rel::Schema schema = rel::Schema::FromNames({"A", "B"});
  rel::Relation r(schema, "T");
  r.AppendRow({I(1), testutil::Q()});
  rel::TupleRef row = r.row(0);
  // Certain comparisons.
  EXPECT_EQ(EvalTri(Predicate::Cmp("A", CmpOp::kEq, I(1)), schema, row),
            rel::Tri::kTrue);
  // Unknown comparisons.
  EXPECT_EQ(EvalTri(Predicate::Cmp("B", CmpOp::kEq, I(1)), schema, row),
            rel::Tri::kUnknown);
  // Kleene: false AND unknown = false; true OR unknown = true.
  EXPECT_EQ(EvalTri(Predicate::And(Predicate::Cmp("A", CmpOp::kEq, I(9)),
                                   Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kFalse);
  EXPECT_EQ(EvalTri(Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                  Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kTrue);
  EXPECT_EQ(EvalTri(Predicate::Not(Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kUnknown);
  // Kleene: false OR unknown = unknown; NOT of a known value flips it.
  EXPECT_EQ(EvalTri(Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(9)),
                                  Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kUnknown);
  EXPECT_EQ(EvalTri(Predicate::Not(Predicate::Cmp("A", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kFalse);
  EXPECT_EQ(EvalTri(Predicate::Not(Predicate::Cmp("A", CmpOp::kGt, I(1))),
                    schema, row),
            rel::Tri::kTrue);
  // Attribute-attribute with an unknown side.
  EXPECT_EQ(EvalTri(Predicate::CmpAttr("A", CmpOp::kEq, "B"), schema, row),
            rel::Tri::kUnknown);
}

class WsdtAlgebraProperty : public ::testing::TestWithParam<int> {};

std::vector<RelSpec> Specs() {
  return {RelSpec{"R", {"A", "B"}, 2, 3}, RelSpec{"S", {"C", "D"}, 2, 3},
          RelSpec{"R2", {"A", "B"}, 2, 3}};
}

TEST_P(WsdtAlgebraProperty, SelectOracle) {
  Rng rng(GetParam());
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)), Plan::Scan("R")),
      "select-const");
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "B"), Plan::Scan("R")),
      "select-attr");
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Select(Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(0)),
                                 Predicate::Cmp("B", CmpOp::kGt, I(1))),
                   Plan::Scan("R")),
      "select-or");
}

TEST_P(WsdtAlgebraProperty, ProjectOracle) {
  Rng rng(GetParam() + 100);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(wsd, Plan::Project({"A"}, Plan::Scan("R")),
                             "project");
  // Projection after a selection exercises the ⊥-presence machinery
  // (including the presence-helper path).
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Project({"A"},
                    Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(1)),
                                 Plan::Scan("R"))),
      "project-after-select");
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Project({"B"},
                    Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)),
                                 Plan::Scan("R"))),
      "project-kept-placeholder");
}

TEST_P(WsdtAlgebraProperty, UnionProductOracle) {
  Rng rng(GetParam() + 200);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Union(Plan::Scan("R"), Plan::Scan("R2")), "union");
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Product(Plan::Scan("R"), Plan::Scan("S")), "product");
}

TEST_P(WsdtAlgebraProperty, JoinOracle) {
  Rng rng(GetParam() + 300);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"), Plan::Scan("R"),
                 Plan::Scan("S")),
      "join");
  // Join with residual condition.
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Join(Predicate::And(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                                Predicate::Cmp("B", CmpOp::kGt, I(0))),
                 Plan::Scan("R"), Plan::Scan("S")),
      "join-residual");
}

TEST_P(WsdtAlgebraProperty, DifferenceOracle) {
  Rng rng(GetParam() + 400);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Difference(Plan::Scan("R"), Plan::Scan("R2")), "difference");
}

TEST_P(WsdtAlgebraProperty, RenameAndComplexOracle) {
  Rng rng(GetParam() + 500);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(wsd, Plan::Rename({{"A", "X"}}, Plan::Scan("R")),
                             "rename");
  // Q5-shaped query: join of two renamed selections.
  Plan left = Plan::Rename(
      {{"A", "P1"}},
      Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)), Plan::Scan("R")));
  Plan right = Plan::Rename(
      {{"C", "P2"}},
      Plan::Select(Predicate::Cmp("D", CmpOp::kGt, I(0)), Plan::Scan("S")));
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Join(Predicate::CmpAttr("P1", CmpOp::kEq, "P2"), left, right),
      "q5-shape");
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsdtAlgebraProperty, ::testing::Range(0, 12));

TEST(WsdtAlgebraTest, SelectCopiesOnlySurvivingRows) {
  // Certain rows failing the predicate do not reach the output template.
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A"}), "R");
  tmpl.AppendRow({I(1)});
  tmpl.AppendRow({I(2)});
  tmpl.AppendRow({I(3)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  ASSERT_TRUE(WsdtSelect(wsdt, "R", "P",
                         Predicate::Cmp("A", CmpOp::kGe, I(2)))
                  .ok());
  EXPECT_EQ(wsdt.Template("P").value()->NumRows(), 2u);
  EXPECT_EQ(wsdt.ComputeStats().num_components, 0u);
}

TEST(WsdtAlgebraTest, ProjectMergesCertainDuplicates) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({I(1), I(10)});
  tmpl.AppendRow({I(1), I(20)});
  tmpl.AppendRow({I(2), I(30)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  ASSERT_TRUE(WsdtProject(wsdt, "R", "P", {"A"}).ok());
  // Set semantics: π_A = {1, 2}.
  EXPECT_EQ(wsdt.Template("P").value()->NumRows(), 2u);
}

TEST(WsdtAlgebraTest, OptimizedEvaluationFusesProductSelect) {
  // σ_{A=C}(R × S) written as product+selection must give the same result
  // through WsdtEvaluateOptimized, which fuses it into the native join.
  Rng rng(21);
  Wsd wsd = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 2, 3}, {"S", {"C", "D"}, 2, 3}}, 3);
  Plan naive = Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                            Plan::Product(Plan::Scan("R"), Plan::Scan("S")));
  auto worlds = wsd.EnumerateWorlds(100000).value();
  auto expected = EvaluatePerWorld(worlds, naive, "OUT").value();
  Wsdt wsdt = Wsdt::FromWsd(wsd).value();
  ASSERT_TRUE(WsdtEvaluateOptimized(wsdt, naive, "OUT").ok());
  auto actual =
      wsdt.ToWsd().value().EnumerateWorlds(1000000, {"OUT"}).value();
  EXPECT_TRUE(WorldSetsEquivalent(expected, actual));
}

TEST(WsdtAlgebraTest, EvaluateDropsTemporaries) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({I(1), I(10)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Plan q = Plan::Project(
      {"A"},
      Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)), Plan::Scan("R")));
  ASSERT_TRUE(WsdtEvaluate(wsdt, q, "OUT").ok());
  auto names = wsdt.RelationNames();
  EXPECT_EQ(names.size(), 2u);  // R and OUT only
  EXPECT_TRUE(wsdt.HasRelation("OUT"));
}

}  // namespace
}  // namespace maywsd::core
