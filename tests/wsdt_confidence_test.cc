#include "core/wsdt_confidence.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "census/queries.h"
#include "core/confidence.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_chase.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using testutil::I;
using testutil::Q;
using testutil::S;

/// Figure 5's WSDT (see wsdt_test.cc).
Wsdt Figure5() {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"S", "N", "M"}), "R");
  tmpl.AppendRow({Q(), S("Smith"), Q()});
  tmpl.AppendRow({Q(), S("Brown"), Q()});
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Component c1({FieldKey("R", 0, "S"), FieldKey("R", 1, "S")});
  c1.AddWorld({I(185), I(186)}, 0.2);
  c1.AddWorld({I(785), I(185)}, 0.4);
  c1.AddWorld({I(785), I(186)}, 0.4);
  EXPECT_TRUE(wsdt.AddComponent(std::move(c1)).ok());
  Component c2({FieldKey("R", 0, "M")});
  c2.AddWorld({I(1)}, 0.7);
  c2.AddWorld({I(2)}, 0.3);
  EXPECT_TRUE(wsdt.AddComponent(std::move(c2)).ok());
  Component c3({FieldKey("R", 1, "M")});
  for (int i = 1; i <= 4; ++i) c3.AddWorld({I(i)}, 0.25);
  EXPECT_TRUE(wsdt.AddComponent(std::move(c3)).ok());
  return wsdt;
}

TEST(WsdtConfidenceTest, Example11OnTheTemplatePath) {
  // π_S over Figure 5 then possibleᵖ: (185,0.6), (186,0.6), (785,0.8).
  Wsdt wsdt = Figure5();
  ASSERT_TRUE(WsdtProject(wsdt, "R", "QS", {"S"}).ok());
  auto result = WsdtPossibleTuplesWithConfidence(wsdt, "QS");
  ASSERT_TRUE(result.ok());
  std::map<int64_t, double> conf;
  for (size_t i = 0; i < result->NumRows(); ++i) {
    conf[result->row(i)[0].AsInt()] = result->row(i)[1].AsDouble();
  }
  ASSERT_EQ(conf.size(), 3u);
  EXPECT_NEAR(conf[185], 0.6, 1e-9);
  EXPECT_NEAR(conf[186], 0.6, 1e-9);
  EXPECT_NEAR(conf[785], 0.8, 1e-9);
}

TEST(WsdtConfidenceTest, CertainTupleShortCircuits) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A"}), "R");
  tmpl.AppendRow({I(5)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  std::vector<rel::Value> probe{I(5)};
  EXPECT_NEAR(WsdtTupleConfidence(wsdt, "R", probe).value(), 1.0, 1e-12);
  std::vector<rel::Value> absent{I(6)};
  EXPECT_NEAR(WsdtTupleConfidence(wsdt, "R", absent).value(), 0.0, 1e-12);
}

class WsdtConfidenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(WsdtConfidenceProperty, MatchesWsdPath) {
  Rng rng(GetParam());
  Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 3, 2}}, 4);
  auto wsdt = Wsdt::FromWsd(wsd).value();
  // possible(R) agrees between the two paths.
  auto a = PossibleTuples(wsd, "R").value();
  auto b = WsdtPossibleTuples(wsdt, "R").value();
  EXPECT_TRUE(a.EqualsAsSet(b)) << "seed " << GetParam();
  // conf(t) agrees on every possible tuple.
  for (size_t i = 0; i < a.NumRows(); ++i) {
    auto ca = TupleConfidence(wsd, "R", a.row(i).span());
    auto cb = WsdtTupleConfidence(wsdt, "R", a.row(i).span());
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    EXPECT_NEAR(*ca, *cb, 1e-9)
        << "seed " << GetParam() << " tuple " << a.row(i).ToString();
  }
}

TEST_P(WsdtConfidenceProperty, MatchesWsdPathAfterQuery) {
  Rng rng(GetParam() + 100);
  Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 2, 2}}, 3);
  auto wsdt = Wsdt::FromWsd(wsd).value();
  rel::Plan q = rel::Plan::Project(
      {"A"}, rel::Plan::Select(
                 rel::Predicate::Cmp("B", rel::CmpOp::kGt, I(0)),
                 rel::Plan::Scan("R")));
  ASSERT_TRUE(WsdtEvaluate(wsdt, q, "OUT").ok());
  auto possible = WsdtPossibleTuplesWithConfidence(wsdt, "OUT").value();
  // Brute force on the expanded representation.
  Wsd expanded = wsdt.ToWsd().value();
  auto worlds = expanded.EnumerateWorlds(1000000).value();
  for (size_t i = 0; i < possible.NumRows(); ++i) {
    std::vector<rel::Value> t{possible.row(i)[0]};
    double brute = 0;
    for (const auto& w : worlds) {
      if (w.db.GetRelation("OUT").value()->ContainsRow(t)) brute += w.prob;
    }
    EXPECT_NEAR(possible.row(i)[1].AsDouble(), brute, 1e-9)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsdtConfidenceProperty,
                         ::testing::Range(0, 10));

// -- The grouped answer pass --------------------------------------------------

TEST(WsdtConfidenceTest, GroupedPassOnSharedAndCertainProducers) {
  // R(A, B): rows 0 and 1 share a component; rows 0, 1 and the certain row
  // 2 all produce (1,2); rows 0 and 4 both produce (1,3) from independent
  // components; ⊥ drops row 1 in one local world and row 3 in another.
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({I(1), Q()});
  tmpl.AppendRow({Q(), I(2)});
  tmpl.AppendRow({I(1), I(2)});
  tmpl.AppendRow({Q(), I(5)});
  tmpl.AppendRow({Q(), I(3)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Component shared({FieldKey("R", 0, "B"), FieldKey("R", 1, "A")});
  shared.AddWorld({I(2), I(1)}, 0.5);
  shared.AddWorld({I(3), testutil::Bot()}, 0.3);
  shared.AddWorld({I(2), I(2)}, 0.2);
  ASSERT_TRUE(wsdt.AddComponent(std::move(shared)).ok());
  Component c3({FieldKey("R", 3, "A")});
  c3.AddWorld({I(1)}, 0.6);
  c3.AddWorld({testutil::Bot()}, 0.4);
  ASSERT_TRUE(wsdt.AddComponent(std::move(c3)).ok());
  Component c4({FieldKey("R", 4, "A")});
  c4.AddWorld({I(1)}, 0.5);
  c4.AddWorld({I(4)}, 0.5);
  ASSERT_TRUE(wsdt.AddComponent(std::move(c4)).ok());
  ASSERT_TRUE(wsdt.Validate().ok());

  auto graded = WsdtPossibleTuplesWithConfidence(wsdt, "R");
  ASSERT_TRUE(graded.ok()) << graded.status();
  ASSERT_TRUE(graded->IsSetNormalized());
  std::map<std::pair<int64_t, int64_t>, double> conf;
  for (size_t i = 0; i < graded->NumRows(); ++i) {
    rel::TupleRef row = graded->row(i);
    conf[{row[0].AsInt(), row[1].AsInt()}] = row[2].AsDouble();
  }
  std::map<std::pair<int64_t, int64_t>, double> expected = {
      {{1, 2}, 1.0}, {{1, 3}, 1 - 0.7 * 0.5}, {{1, 5}, 0.6},
      {{2, 2}, 0.2}, {{4, 3}, 0.5}};
  ASSERT_EQ(conf.size(), expected.size());
  for (const auto& [t, c] : expected) {
    EXPECT_NEAR(conf[t], c, 1e-12) << t.first << "," << t.second;
  }
  auto certain = WsdtCertainTuples(wsdt, "R");
  ASSERT_TRUE(certain.ok());
  ASSERT_EQ(certain->NumRows(), 1u);
  EXPECT_EQ(certain->row(0)[0], I(1));
  EXPECT_EQ(certain->row(0)[1], I(2));
  auto possible = WsdtPossibleTuples(wsdt, "R");
  ASSERT_TRUE(possible.ok());
  EXPECT_EQ(possible->NumRows(), expected.size());
  EXPECT_TRUE(possible->IsSetNormalized());
}

/// A random WSDT over R(A, B) whose two-value domain makes rows collide on
/// tuples: each cell is a '?' with probability 0.45; the '?' fields,
/// shuffled, form components of up to three fields (so components often
/// span rows); a local world drops a row it covers (⊥ in all of that
/// row's fields there) with probability 0.2. Counts the multi-row
/// components and ⊥ worlds drawn.
Wsdt RandomGroupingWsdt(Rng& rng, size_t& multi_row_comps,
                        size_t& bottom_worlds) {
  Wsdt wsdt;
  const char* attrs[] = {"A", "B"};
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  std::vector<FieldKey> holes;
  size_t rows = 3 + rng.Uniform(6);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<rel::Value> row;
    for (const char* attr : attrs) {
      if (rng.Bernoulli(0.45)) {
        row.push_back(Q());
        holes.emplace_back("R", static_cast<TupleId>(r), attr);
      } else {
        row.push_back(I(static_cast<int64_t>(rng.Uniform(2))));
      }
    }
    tmpl.AppendRow(row);
  }
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  for (size_t i = holes.size(); i > 1; --i) {
    std::swap(holes[i - 1], holes[rng.Uniform(i)]);
  }
  for (size_t i = 0; i < holes.size();) {
    size_t k = std::min<size_t>(1 + rng.Uniform(3), holes.size() - i);
    std::vector<FieldKey> fields(holes.begin() + i, holes.begin() + i + k);
    i += k;
    std::set<TupleId> tuples;
    for (const FieldKey& f : fields) tuples.insert(f.tuple);
    if (tuples.size() > 1) ++multi_row_comps;
    Component comp(fields);
    size_t worlds = 1 + rng.Uniform(4);
    std::vector<double> weights;
    double total = 0;
    for (size_t w = 0; w < worlds; ++w) {
      weights.push_back(1.0 + static_cast<double>(rng.Uniform(4)));
      total += weights.back();
    }
    for (size_t w = 0; w < worlds; ++w) {
      std::set<TupleId> dropped;
      for (TupleId t : tuples) {
        if (rng.Bernoulli(0.2)) dropped.insert(t);
      }
      if (!dropped.empty()) ++bottom_worlds;
      std::vector<rel::Value> values;
      for (const FieldKey& f : fields) {
        values.push_back(dropped.count(f.tuple)
                             ? testutil::Bot()
                             : I(static_cast<int64_t>(rng.Uniform(2))));
      }
      comp.AddWorld(values, weights[w] / total);
    }
    EXPECT_TRUE(wsdt.AddComponent(std::move(comp)).ok());
  }
  return wsdt;
}

TEST(WsdtConfidenceTest, GroupedPassMatchesPerTupleOracle) {
  size_t multi_row_comps = 0;
  size_t bottom_worlds = 0;
  size_t shared_tuples = 0;  // possible tuples some certain row produces
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Wsdt wsdt = RandomGroupingWsdt(rng, multi_row_comps, bottom_worlds);
    ASSERT_TRUE(wsdt.Validate().ok());
    auto graded = WsdtPossibleTuplesWithConfidence(wsdt, "R");
    auto possible = WsdtPossibleTuples(wsdt, "R");
    auto certain = WsdtCertainTuples(wsdt, "R");
    ASSERT_TRUE(graded.ok() && possible.ok() && certain.ok());
    ASSERT_TRUE(graded->IsSetNormalized());
    ASSERT_EQ(graded->NumRows(), possible->NumRows());

    // Brute force over the expanded worlds.
    auto worlds = wsdt.ToWsd().value().EnumerateWorlds(1000000).value();
    std::map<std::vector<rel::Value>, double> brute;
    for (const auto& w : worlds) {
      const rel::Relation* r = w.db.GetRelation("R").value();
      rel::Relation distinct = *r;
      distinct.SortDedup();
      for (size_t i = 0; i < distinct.NumRows(); ++i) {
        brute[distinct.row(i).ToRow()] += w.prob;
      }
    }
    size_t brute_possible = 0;
    for (const auto& [t, p] : brute) brute_possible += p > 0.0;
    EXPECT_EQ(graded->NumRows(), brute_possible);

    const rel::Relation* tmpl = wsdt.Template("R").value();
    rel::Relation expected_certain(possible->schema());
    for (size_t i = 0; i < graded->NumRows(); ++i) {
      rel::TupleRef row = graded->row(i);
      std::span<const rel::Value> tuple(row.data(), 2);
      EXPECT_TRUE(possible->row(i) == rel::TupleRef(tuple.data(), 2));
      double conf = row[2].AsDouble();
      auto per_tuple = WsdtTupleConfidence(wsdt, "R", tuple);
      ASSERT_TRUE(per_tuple.ok());
      EXPECT_NEAR(conf, *per_tuple, 1e-12) << row.ToString();
      EXPECT_NEAR(conf, brute[std::vector<rel::Value>(tuple.begin(),
                                                      tuple.end())],
                  1e-9)
          << row.ToString();
      if (conf >= kCertainConfidence) expected_certain.AppendRow(tuple);
      if (tmpl->ContainsRow(tuple)) ++shared_tuples;
    }
    EXPECT_TRUE(certain->EqualsAsSet(expected_certain));
    EXPECT_TRUE(certain->IsSetNormalized());
    // A tuple outside the domain is not possible.
    std::vector<rel::Value> absent{I(7), I(7)};
    EXPECT_EQ(WsdtTupleConfidence(wsdt, "R", absent).value(), 0.0);
  }
  EXPECT_GT(multi_row_comps, 0u);
  EXPECT_GT(bottom_worlds, 0u);
  EXPECT_GT(shared_tuples, 0u);
}

TEST(WsdtConfidenceTest, CensusScalePossibleAnswers) {
  // The operators run directly at a scale where expanding to a Wsd (one
  // singleton component per certain field) would be prohibitive.
  census::CensusSchema schema = census::CensusSchema::Standard();
  rel::Relation base = census::GenerateCensus(schema, 20000, 5);
  auto wsdt = census::MakeNoisyWsdt(base, schema, 0.001, 6).value();
  ASSERT_TRUE(WsdtChase(wsdt, census::CensusDependencies("R")).ok());
  ASSERT_TRUE(WsdtEvaluate(wsdt, census::CensusQuery(6, "R"), "OUT").ok());
  auto possible = WsdtPossibleTuples(wsdt, "OUT");
  ASSERT_TRUE(possible.ok());
  EXPECT_GT(possible->NumRows(), 0u);
  // Every fully-certain answer row is possible (placeholder rows may
  // overlap certain ones, so |possible| can be below the row count).
  const rel::Relation* tmpl = wsdt.Template("OUT").value();
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    rel::TupleRef row = tmpl->row(r);
    bool certain = true;
    for (size_t a = 0; a < row.arity(); ++a) {
      if (row[a].is_question()) certain = false;
    }
    if (certain) {
      ASSERT_TRUE(possible->ContainsRow(row.span())) << r;
    }
  }
  // Spot-check confidences of the first few possible answers.
  for (size_t i = 0; i < std::min<size_t>(possible->NumRows(), 20); ++i) {
    auto conf = WsdtTupleConfidence(wsdt, "OUT", possible->row(i).span());
    ASSERT_TRUE(conf.ok());
    EXPECT_GT(*conf, 0.0);
    EXPECT_LE(*conf, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace maywsd::core
