// api::Session: the representation-agnostic facade must behave
// identically over every backend — same catalog semantics, same
// query results, same Section 6 answers — and manage the scratch
// lifecycle so no engine temporaries leak into any representation.

#include "api/session.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/interner.h"
#include "core/uniform.h"
#include "core/wsd_algebra.h"
#include "core/wsdt.h"
#include "rel/eval.h"
#include "tests/test_util.h"

namespace maywsd::api {
namespace {

using core::Wsd;
using core::Wsdt;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::I;

/// One session per enrolled backend over one random world set.
std::vector<Session> SessionsOver(const Wsd& wsd) {
  std::vector<Session> sessions;
  for (BackendKind kind : testutil::AllBackendKinds()) {
    auto session = testutil::OpenSessionOver(kind, wsd);
    EXPECT_TRUE(session.ok()) << BackendKindName(kind);
    sessions.push_back(std::move(session).value());
  }
  return sessions;
}

TEST(SessionTest, KindAndRepresentationAccess) {
  std::vector<Session> sessions = SessionsOver(Wsd());
  ASSERT_EQ(sessions.size(), 4u);
  EXPECT_EQ(sessions[0].kind(), BackendKind::kWsd);
  EXPECT_EQ(sessions[1].kind(), BackendKind::kWsdt);
  EXPECT_EQ(sessions[2].kind(), BackendKind::kUniform);
  EXPECT_EQ(sessions[3].kind(), BackendKind::kUrel);
  for (const Session& s : sessions) {
    EXPECT_EQ(s.BackendName(), BackendKindName(s.kind()));
  }
  // A kWsd session holds its world set as a WSDT and runs on the WSDT
  // engine; only kind() and BackendName() still say "wsd".
  EXPECT_NE(sessions[0].wsdt(), nullptr);
  EXPECT_EQ(sessions[0].uniform(), nullptr);
  EXPECT_EQ(sessions[0].urel(), nullptr);
  EXPECT_EQ(sessions[0].BackendName(), "wsd");
  EXPECT_EQ(sessions[0].ops().BackendName(), "wsdt");
  EXPECT_NE(sessions[1].wsdt(), nullptr);
  EXPECT_NE(sessions[2].uniform(), nullptr);
  EXPECT_EQ(sessions[2].wsdt(), nullptr);
  EXPECT_NE(sessions[3].urel(), nullptr);
  EXPECT_EQ(sessions[3].wsdt(), nullptr);
}

TEST(SessionTest, ParseBackendKindRoundTripsAndRejects) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    auto parsed = ParseBackendKind(BackendKindName(kind));
    ASSERT_TRUE(parsed.ok()) << BackendKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  auto bad = ParseBackendKind("no-such-backend");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, OpenByKindStartsEmpty) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    EXPECT_EQ(session.kind(), kind);
    EXPECT_TRUE(session.RelationNames().empty()) << BackendKindName(kind);
  }
}

TEST(SessionTest, OpenAdoptsExistingRepresentations) {
  // The adopt-existing overloads must open the matching backend kind
  // (the old Over* factory shims promised this; Open(repr) carries it).
  Result<Session> from_wsd = Session::Open(Wsd());
  ASSERT_TRUE(from_wsd.ok()) << from_wsd.status();
  EXPECT_EQ(from_wsd->kind(), BackendKind::kWsd);
  EXPECT_EQ(Session::Open(Wsdt()).kind(), BackendKind::kWsdt);
  EXPECT_EQ(Session::Open(rel::Database()).kind(), BackendKind::kUniform);
  EXPECT_EQ(Session::Open(core::Urel()).kind(), BackendKind::kUrel);
  for (BackendKind kind : testutil::AllBackendKinds()) {
    auto converted = Session::Open(kind, Wsdt());
    ASSERT_TRUE(converted.ok()) << BackendKindName(kind);
    EXPECT_EQ(converted->kind(), kind);
  }
}

// Session::Open(Wsd) is the boundary of the WSD route: it converts once
// (Wsdt::FromWsd) and the session then holds a WSDT. Whatever the WSD
// carries — presence fields from the exists-column projection, tuple
// slots invalid in every world, worlds of different sizes — the session
// must hold exactly the worlds core::Wsd::EnumerateWorlds lists.
TEST(SessionTest, OpenWsdKeepsExactlyTheWorldsOfTheWsd) {
  bool saw_presence = false;
  bool saw_invalid_slot = false;
  bool saw_sizes_differ = false;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    testutil::SeededRng rng(seed * 6151 + 7);
    MAYWSD_SEED_TRACE(rng);
    Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 3, 3}}, 3);
    // S: R's rows with A = 1 (⊥ where A ≠ 1, so worlds differ in size);
    // P: π_B(S) through the exists column (presence fields); E: rows
    // with A < 0, none in any world (every slot invalid everywhere).
    ASSERT_TRUE(WsdSelectConst(wsd, "R", "S", "A", CmpOp::kEq, I(1)).ok());
    ASSERT_TRUE(WsdProjectExists(wsd, "S", "P", {"B"}).ok());
    ASSERT_TRUE(WsdSelectConst(wsd, "R", "E", "A", CmpOp::kLt, I(0)).ok());
    ASSERT_TRUE(wsd.Validate().ok());

    auto expected = wsd.EnumerateWorlds(1000000);
    ASSERT_TRUE(expected.ok()) << expected.status();
    saw_presence |= wsd.HasPresenceFields();
    saw_invalid_slot |= wsd.FindRelation("E").value()->max_tuples > 0;
    auto s_rows = [](const core::PossibleWorld& w) {
      return w.db.GetRelation("S").value()->NumRows();
    };
    for (const core::PossibleWorld& w : *expected) {
      if (s_rows(w) != s_rows(expected->front())) saw_sizes_differ = true;
    }

    Result<Session> session = Session::Open(wsd);
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_EQ(session->kind(), BackendKind::kWsd);
    const Wsdt* held = std::as_const(*session).wsdt();
    ASSERT_NE(held, nullptr);
    EXPECT_TRUE(testutil::ValidateSession(*session).ok());
    EXPECT_EQ(held->Template("E").value()->NumRows(), 0u);
    auto actual = testutil::SessionWorlds(*session, 1000000);
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_TRUE(core::WorldSetsEquivalent(*expected, *actual));

    // Snapshots and forks of a kWsd session stay kWsd.
    EXPECT_EQ(session->Snapshot().kind(), BackendKind::kWsd);
    EXPECT_EQ(session->Fork().kind(), BackendKind::kWsd);
  }
  EXPECT_TRUE(saw_presence);
  EXPECT_TRUE(saw_invalid_slot);
  EXPECT_TRUE(saw_sizes_differ);
}

TEST(SessionTest, OpenRejectsAnInvalidWsd) {
  // A partial tuple slot: R.t0 has A but no B.
  Wsd partial;
  rel::Schema ab = rel::Schema::FromNames({"A", "B"});
  ASSERT_TRUE(partial.AddRelation("R", ab, 1).ok());
  ASSERT_TRUE(partial.AddCertainField(core::FieldKey("R", 0, "A"), I(1)).ok());
  Result<Session> from_partial = Session::Open(std::move(partial));
  ASSERT_FALSE(from_partial.ok());
  EXPECT_EQ(from_partial.status().code(), StatusCode::kInvalidArgument);

  // Probabilities that do not sum to 1.
  Wsd unnormalized;
  rel::Schema a = rel::Schema::FromNames({"A"});
  ASSERT_TRUE(unnormalized.AddRelation("R", a, 1).ok());
  core::Component c({core::FieldKey("R", 0, "A")});
  c.AddWorld({I(1)}, 0.5);
  c.AddWorld({I(2)}, 0.25);
  ASSERT_TRUE(unnormalized.AddComponent(std::move(c)).ok());
  Result<Session> from_unnormalized = Session::Open(std::move(unnormalized));
  ASSERT_FALSE(from_unnormalized.ok());
  EXPECT_EQ(from_unnormalized.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ScratchNamesDoNotGrowTheInterner) {
  // Every scratch relation name is interned for the process lifetime, so
  // the engine reuses __eng_tmp<k> names across evaluations instead of
  // minting new ones per run.
  Session session = Session::Open(BackendKind::kWsdt);
  rel::Relation base(rel::Schema::FromNames({"A", "B"}), "R");
  base.AppendRow({I(1), I(2)});
  base.AppendRow({I(3), I(4)});
  ASSERT_TRUE(session.Register(base).ok());
  Plan plan = Plan::Project(
      {"B"}, Plan::Select(Predicate::Cmp("A", CmpOp::kGe, I(2)),
                          Plan::Scan("R")));
  ASSERT_TRUE(session.Run(plan, "OUT").ok());
  ASSERT_TRUE(session.Drop("OUT").ok());
  size_t before = StringInterner::Global().size();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(session.Run(plan, "OUT").ok()) << i;
    ASSERT_TRUE(session.Drop("OUT").ok()) << i;
  }
  EXPECT_EQ(StringInterner::Global().size(), before);
}

TEST(SessionTest, SnapshotPinsAViewAcrossApplies) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    rel::Relation base(rel::Schema::FromNames({"A"}), "R");
    base.AppendRow({I(1)});
    base.AppendRow({I(2)});
    ASSERT_TRUE(session.Register(base).ok()) << BackendKindName(kind);

    Snapshot snapshot = session.Snapshot();
    uint64_t pinned = snapshot.RelationVersion("R");
    EXPECT_EQ(pinned, session.RelationVersion("R"));

    // Mutate the parent after the snapshot: the snapshot keeps answering
    // from its pinned view, the parent sees the update.
    ASSERT_TRUE(session
                    .Apply(rel::UpdateOp::DeleteWhere(
                        "R", Predicate::Cmp("A", CmpOp::kEq, I(1))))
                    .ok())
        << BackendKindName(kind);
    auto snap_rows = snapshot.PossibleTuples("R");
    auto live_rows = session.PossibleTuples("R");
    ASSERT_TRUE(snap_rows.ok() && live_rows.ok()) << BackendKindName(kind);
    EXPECT_EQ(snap_rows->NumRows(), 2u) << BackendKindName(kind);
    EXPECT_EQ(live_rows->NumRows(), 1u) << BackendKindName(kind);
    EXPECT_EQ(snapshot.RelationVersion("R"), pinned);
    EXPECT_NE(session.RelationVersion("R"), pinned);

    // Snapshot-local Run materializes only inside the snapshot.
    ASSERT_TRUE(snapshot.Run(Plan::Scan("R"), "LOCAL").ok());
    EXPECT_TRUE(snapshot.HasRelation("LOCAL"));
    EXPECT_FALSE(session.HasRelation("LOCAL"));

    EXPECT_EQ(snapshot.Stats().reader_blocked_waits, 0u);
    EXPECT_EQ(session.Stats().snapshots, 1u);
  }
}

TEST(SessionTest, RegisterRunAnswerOnEveryBackend) {
  rel::Relation base(rel::Schema::FromNames({"A", "B"}), "R");
  base.AppendRow({I(1), I(10)});
  base.AppendRow({I(2), I(20)});
  base.AppendRow({I(3), I(30)});

  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    SCOPED_TRACE(std::string(session.BackendName()));
    ASSERT_TRUE(session.Register(base).ok());
    EXPECT_FALSE(session.Register(base).ok());  // name collision
    EXPECT_TRUE(session.HasRelation("R"));
    auto schema = session.RelationSchema("R");
    ASSERT_TRUE(schema.ok());
    EXPECT_EQ(*schema, base.schema());  // uniform hides its TID column
    EXPECT_EQ(session.RelationNames(), std::vector<std::string>{"R"});

    Plan plan = Plan::Project(
        {"A"}, Plan::Select(Predicate::Cmp("B", CmpOp::kGe, I(20)),
                            Plan::Scan("R")));
    ASSERT_TRUE(session.Run(plan, "OUT").ok());

    auto possible = session.PossibleTuples("OUT");
    ASSERT_TRUE(possible.ok());
    rel::Relation expected(rel::Schema::FromNames({"A"}), "expected");
    expected.AppendRow({I(2)});
    expected.AppendRow({I(3)});
    EXPECT_TRUE(possible->EqualsAsSet(expected));

    // Certain data: certain answers coincide with possible ones, and every
    // tuple has confidence 1.
    auto certain = session.CertainTuples("OUT");
    ASSERT_TRUE(certain.ok());
    EXPECT_TRUE(certain->EqualsAsSet(expected));
    for (size_t i = 0; i < expected.NumRows(); ++i) {
      auto conf = session.TupleConfidence("OUT", expected.row(i).span());
      ASSERT_TRUE(conf.ok());
      EXPECT_NEAR(*conf, 1.0, 1e-12);
      EXPECT_TRUE(session.TupleCertain("OUT", expected.row(i).span()).value());
    }

    // No engine scratch relations leaked into the catalog.
    for (const std::string& name : session.RelationNames()) {
      EXPECT_NE(name.rfind("__eng_tmp", 0), 0u) << name;
    }

    // Drop removes the result from the catalog.
    ASSERT_TRUE(session.Drop("OUT").ok());
    EXPECT_FALSE(session.HasRelation("OUT"));
  }
}

/// Duplicate merging compares values, not their printed forms: 1.0000001
/// and 1.0 both print as "1" at 6 significant digits but are distinct
/// tuples, so project and union keep both on every backend, exactly as
/// the one-world evaluator does.
TEST(SessionTest, ProjectAndUnionKeepNearEqualDoubles) {
  rel::Relation base(rel::Schema::FromNames({"A"}), "R");
  base.AppendRow({rel::Value::Double(1.0000001)});
  base.AppendRow({rel::Value::Double(1.0)});
  rel::Database db;
  ASSERT_TRUE(db.AddRelation(base).ok());
  const std::vector<Plan> plans = {
      Plan::Project({"A"}, Plan::Scan("R")),
      Plan::Union(Plan::Scan("R"), Plan::Scan("R"))};
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    SCOPED_TRACE(std::string(session.BackendName()));
    ASSERT_TRUE(session.Register(base).ok());
    for (size_t i = 0; i < plans.size(); ++i) {
      SCOPED_TRACE(plans[i].ToString());
      auto expected = rel::Evaluate(plans[i], db);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(expected->NumRows(), 2u);
      const std::string out = "OUT" + std::to_string(i);
      ASSERT_TRUE(session.Run(plans[i], out).ok());
      auto possible = session.PossibleTuples(out);
      ASSERT_TRUE(possible.ok());
      EXPECT_TRUE(possible->EqualsAsSet(*expected));
      auto certain = session.CertainTuples(out);
      ASSERT_TRUE(certain.ok());
      EXPECT_TRUE(certain->EqualsAsSet(*expected));
    }
  }
}

TEST(SessionTest, RegisterRejectsPlaceholdersAndBottom) {
  rel::Relation bad(rel::Schema::FromNames({"A"}), "R");
  bad.AppendRow({rel::Value::Question()});
  rel::Relation bot(rel::Schema::FromNames({"A"}), "R");
  bot.AppendRow({rel::Value::Bottom()});
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    SCOPED_TRACE(std::string(session.BackendName()));
    EXPECT_FALSE(session.Register(bad).ok());
    EXPECT_FALSE(session.Register(bot).ok());
  }
}

TEST(SessionTest, AnswersAgreeAcrossBackendsOnUncertainData) {
  Rng rng(977);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 2, 3},
                                          {"S", {"C", "D"}, 2, 3}};
  for (int round = 0; round < 5; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<Session> sessions = SessionsOver(wsd);

    Plan plan = Plan::Project(
        {"A"}, Plan::Select(Predicate::Cmp("B", CmpOp::kLt, I(2)),
                            Plan::Scan("R")));
    for (Session& session : sessions) {
      ASSERT_TRUE(session.Run(plan, "OUT").ok())
          << session.BackendName();
    }

    auto reference = sessions[0].PossibleTuples("OUT");
    ASSERT_TRUE(reference.ok());
    auto reference_certain = sessions[0].CertainTuples("OUT");
    ASSERT_TRUE(reference_certain.ok());
    for (size_t s = 1; s < sessions.size(); ++s) {
      SCOPED_TRACE(std::string(sessions[s].BackendName()));
      auto possible = sessions[s].PossibleTuples("OUT");
      ASSERT_TRUE(possible.ok());
      EXPECT_TRUE(possible->EqualsAsSet(*reference));
      auto certain = sessions[s].CertainTuples("OUT");
      ASSERT_TRUE(certain.ok());
      EXPECT_TRUE(certain->EqualsAsSet(*reference_certain));
      for (size_t i = 0; i < reference->NumRows(); ++i) {
        auto a = sessions[0].TupleConfidence("OUT", reference->row(i).span());
        auto b = sessions[s].TupleConfidence("OUT", reference->row(i).span());
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_NEAR(*a, *b, 1e-9);
      }
    }
  }
}

TEST(SessionTest, RunOptimizedMatchesRun) {
  Rng rng(31337);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 2, 3},
                                          {"S", {"C", "D"}, 2, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 3);
  // σ(×) — the optimizer fuses this into a join on every backend.
  Plan plan = Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                           Plan::Product(Plan::Scan("R"), Plan::Scan("S")));
  for (Session& session : SessionsOver(wsd)) {
    SCOPED_TRACE(std::string(session.BackendName()));
    ASSERT_TRUE(session.Run(plan, "PLAIN").ok());
    ASSERT_TRUE(session.RunOptimized(plan, "OPT").ok());
    auto plain = session.PossibleTuples("PLAIN");
    auto opt = session.PossibleTuples("OPT");
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(opt.ok());
    EXPECT_TRUE(plain->EqualsAsSet(*opt));
    // Confidences are compared with a tolerance: the two plans associate
    // the 1−Π(1−c) combination differently.
    for (size_t i = 0; i < plain->NumRows(); ++i) {
      auto a = session.TupleConfidence("PLAIN", plain->row(i).span());
      auto b = session.TupleConfidence("OPT", plain->row(i).span());
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_NEAR(*a, *b, 1e-9);
    }
  }
}

TEST(SessionTest, UniformSessionKeepsStoreImportable) {
  Rng rng(555);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 2, 3},
                                          {"R2", {"A", "B"}, 2, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 2);
  auto session_or =
      Session::Open(BackendKind::kUniform, Wsdt::FromWsd(wsd).value());
  ASSERT_TRUE(session_or.ok());
  Session session = std::move(session_or).value();
  Plan plan = Plan::Difference(Plan::Scan("R"), Plan::Scan("R2"));
  ASSERT_TRUE(session.Run(plan, "OUT").ok());
  // The store still satisfies the C/F/W referential invariants and
  // re-imports as a valid WSDT.
  ASSERT_TRUE(core::ValidateUniform(*session.uniform()).ok());
  auto back = core::ImportUniform(*session.uniform());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Validate().ok());
}

/// The placeholder components of every '?' cell of `relation`, by cell:
/// each component rendered with its fields, local worlds and
/// probabilities.
std::vector<std::string> ComponentsOf(const Wsdt& wsdt,
                                      const std::string& relation) {
  std::vector<std::string> out;
  const rel::Relation& tmpl = *wsdt.Template(relation).value();
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    for (size_t a = 0; a < tmpl.arity(); ++a) {
      if (!tmpl.row(r)[a].is_question()) continue;
      core::FieldKey f(relation, static_cast<core::TupleId>(r),
                       tmpl.schema().attr(a).name_view());
      out.push_back(wsdt.component(wsdt.Locate(f).value().comp).ToString());
    }
  }
  return out;
}

TEST(SessionTest, WsdtDifferenceTouchesOnlyItsOutput) {
  // L − S composes the components of L.t0 and S.t0. U is unrelated: its
  // dead row 0 (⊥ in every local world) keeps its TID, and its component
  // keeps two identical local worlds — no other relation is renormalized.
  Wsdt wsdt;
  rel::Schema ab = rel::Schema::FromNames({"A", "B"});
  rel::Relation l(ab, "L"), s(ab, "S"), u(ab, "U");
  l.AppendRow({testutil::Q(), I(1)});
  l.AppendRow({I(5), I(5)});
  s.AppendRow({testutil::Q(), I(1)});
  u.AppendRow({testutil::Q(), I(0)});
  u.AppendRow({I(9), testutil::Q()});
  for (rel::Relation* r : {&l, &s, &u}) {
    ASSERT_TRUE(wsdt.AddTemplateRelation(*r).ok());
  }
  auto add = [&](std::vector<core::FieldKey> fields,
                 std::vector<std::vector<rel::Value>> worlds) {
    core::Component c(std::move(fields));
    for (const auto& w : worlds) {
      c.AddWorld(w, 1.0 / static_cast<double>(worlds.size()));
    }
    ASSERT_TRUE(wsdt.AddComponent(std::move(c)).ok());
  };
  add({core::FieldKey("L", 0, "A")}, {{I(1)}, {I(2)}});
  add({core::FieldKey("S", 0, "A")}, {{I(1)}, {I(3)}});
  add({core::FieldKey("U", 0, "A")}, {{testutil::Bot()}, {testutil::Bot()}});
  add({core::FieldKey("U", 1, "B")}, {{I(4)}, {I(4)}, {I(6)}});
  ASSERT_TRUE(wsdt.Validate().ok());

  Session session = Session::Open(std::move(wsdt));
  const Wsdt& held = *std::as_const(session).wsdt();
  const rel::Relation u_before = *held.Template("U").value();
  const std::vector<std::string> u_comps = ComponentsOf(held, "U");
  ASSERT_TRUE(
      session.Run(Plan::Difference(Plan::Scan("L"), Plan::Scan("S")), "OUT")
          .ok());
  const Wsdt& after = *std::as_const(session).wsdt();
  ASSERT_TRUE(after.Validate().ok());
  const rel::Relation& u_after = *after.Template("U").value();
  EXPECT_EQ(u_after.data(), u_before.data());
  EXPECT_EQ(ComponentsOf(after, "U"), u_comps);
  // (1, 1) survives only where S.t0's A is 3; (2, 1) is never subtracted.
  const rel::Value t0[] = {I(1), I(1)};
  EXPECT_NEAR(session.TupleConfidence("OUT", t0).value(), 0.25, 1e-12);
  const rel::Value t0b[] = {I(2), I(1)};
  EXPECT_NEAR(session.TupleConfidence("OUT", t0b).value(), 0.5, 1e-12);
  const rel::Value t1[] = {I(5), I(5)};
  EXPECT_NEAR(session.TupleConfidence("OUT", t1).value(), 1.0, 1e-12);
}

TEST(SessionTest, CertainDifferenceOnUniformPaysNoRoundTrip) {
  Session session = Session::Open(BackendKind::kUniform);
  rel::Relation l(rel::Schema::FromNames({"A", "B"}), "L");
  rel::Relation s(rel::Schema::FromNames({"A", "B"}), "S");
  for (int64_t i = 0; i < 6; ++i) l.AppendRow({I(i), I(i % 2)});
  for (int64_t i = 0; i < 6; i += 2) s.AppendRow({I(i), I(0)});
  s.AppendRow({I(1), I(0)});  // no L row equals it
  ASSERT_TRUE(session.Register(l).ok());
  ASSERT_TRUE(session.Register(s).ok());
  ASSERT_TRUE(
      session.Run(Plan::Difference(Plan::Scan("L"), Plan::Scan("S")), "OUT")
          .ok());
  EXPECT_EQ(session.Stats().round_trips, 0u);
  EXPECT_TRUE(core::ValidateUniform(*session.uniform()).ok());
  auto rows = session.CertainTuples("OUT");
  ASSERT_TRUE(rows.ok());
  rel::Relation want(rel::Schema::FromNames({"A", "B"}), "OUT");
  for (int64_t i = 1; i < 6; i += 2) want.AppendRow({I(i), I(1)});
  EXPECT_TRUE(rows->EqualsAsSet(want)) << rows->ToString();
}

// -- certain / conf(t) derived from a memoized possible-with-confidence -------

/// Every possible tuple of `graded` (the conf column dropped) plus one tuple
/// no world holds.
std::vector<std::vector<rel::Value>> ProbeTuples(const rel::Relation& graded) {
  std::vector<std::vector<rel::Value>> probes;
  size_t arity = graded.arity() - 1;
  for (size_t i = 0; i < graded.NumRows(); ++i) {
    rel::TupleRef row = graded.row(i);
    probes.emplace_back(row.data(), row.data() + arity);
  }
  probes.emplace_back(arity, I(99));
  return probes;
}

/// Asks `session` for certain(R) and conf(t) of every probe, checking each
/// call against the cache-off `raw` twin and that it counts exactly one
/// hit or miss; returns how many of the calls were hits.
uint64_t CheckDerivedAnswers(const Session& session, const Session& raw,
                             const std::string& relation) {
  auto expected_graded = raw.PossibleTuplesWithConfidence(relation);
  auto expected_certain = raw.CertainTuples(relation);
  EXPECT_TRUE(expected_graded.ok() && expected_certain.ok());
  if (!expected_graded.ok() || !expected_certain.ok()) return 0;
  uint64_t hits = 0;
  auto count_one = [&](const SessionStats& before) {
    SessionStats after = session.Stats();
    uint64_t h = after.answer_cache_hits - before.answer_cache_hits;
    EXPECT_EQ(h + after.answer_cache_misses - before.answer_cache_misses, 1u);
    hits += h;
  };

  SessionStats before = session.Stats();
  auto certain = session.CertainTuples(relation);
  count_one(before);
  EXPECT_TRUE(certain.ok());
  if (certain.ok()) {
    EXPECT_EQ(certain->schema(), expected_certain->schema());
    EXPECT_EQ(certain->data(), expected_certain->data());
  }
  for (const std::vector<rel::Value>& t : ProbeTuples(*expected_graded)) {
    auto want = raw.TupleConfidence(relation, t);
    before = session.Stats();
    auto got = session.TupleConfidence(relation, t);
    count_one(before);
    EXPECT_TRUE(want.ok() && got.ok());
    if (want.ok() && got.ok()) {
      EXPECT_NEAR(*got, *want, 1e-12);
    }
  }
  return hits;
}

TEST(SessionTest, DerivedCertainAndConfMatchBackendAnswers) {
  Rng rng(4242);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 3, 3}};
  for (int round = 0; round < 4; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    for (BackendKind kind : testutil::AllBackendKinds()) {
      SCOPED_TRACE(::testing::Message()
                   << BackendKindName(kind) << " round " << round);
      Session raw = testutil::OpenSessionOver(kind, wsd, {.cache = false})
                        .value();
      size_t probes = ProbeTuples(*raw.PossibleTuplesWithConfidence("R"))
                          .size();

      // possible_conf first: certain and every conf(t) are derived from
      // it, all hits, and nothing else reaches the backend.
      Session graded_first = testutil::OpenSessionOver(kind, wsd).value();
      ASSERT_TRUE(graded_first.PossibleTuplesWithConfidence("R").ok());
      EXPECT_EQ(CheckDerivedAnswers(graded_first, raw, "R"), 1 + probes);
      EXPECT_EQ(graded_first.Stats().answer_cache_misses, 1u);

      // certain and conf(t) first: each goes to the backend and none of
      // them publishes a possible-with-confidence nobody asked for.
      Session answers_first = testutil::OpenSessionOver(kind, wsd).value();
      EXPECT_EQ(CheckDerivedAnswers(answers_first, raw, "R"), 0u);
      SessionStats before = answers_first.Stats();
      ASSERT_TRUE(answers_first.PossibleTuplesWithConfidence("R").ok());
      EXPECT_EQ(answers_first.Stats().answer_cache_misses,
                before.answer_cache_misses + 1);
      // Now memoized: certain and conf(t) are served without the backend.
      EXPECT_EQ(CheckDerivedAnswers(answers_first, raw, "R"), 1 + probes);
    }
  }
}

TEST(SessionTest, DerivedAnswersNeverOutliveAnApply) {
  Rng rng(5150);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 3, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 3);
  std::vector<rel::UpdateOp> updates = {
      rel::UpdateOp::DeleteWhere("R", Predicate::Cmp("B", CmpOp::kLt, I(1))),
      rel::UpdateOp::InsertTuples(
          "R", [] {
            rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
            r.AppendRow({I(0), I(2)});
            return r;
          }())};
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(std::string(BackendKindName(kind)));
    Session session = testutil::OpenSessionOver(kind, wsd).value();
    Session raw =
        testutil::OpenSessionOver(kind, wsd, {.cache = false}).value();
    ASSERT_TRUE(session.PossibleTuplesWithConfidence("R").ok());
    CheckDerivedAnswers(session, raw, "R");
    for (const rel::UpdateOp& op : updates) {
      ASSERT_TRUE(session.Apply(op).ok());
      ASSERT_TRUE(raw.Apply(op).ok());
      // The memoized answers of the old version are gone: certain and
      // conf(t) go to the backend until possible_conf is asked again.
      EXPECT_EQ(CheckDerivedAnswers(session, raw, "R"), 0u);
      ASSERT_TRUE(session.PossibleTuplesWithConfidence("R").ok());
      CheckDerivedAnswers(session, raw, "R");
    }
  }
}

}  // namespace
}  // namespace maywsd::api
