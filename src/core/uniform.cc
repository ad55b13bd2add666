#include "core/uniform.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "rel/eval.h"
#include "rel/index.h"
#include "rel/predicate.h"
#include "rel/row_set.h"

namespace maywsd::core {

namespace {

rel::Schema CSchema() {
  return rel::Schema({rel::Attribute("REL", rel::AttrType::kString),
                      rel::Attribute("TID", rel::AttrType::kInt),
                      rel::Attribute("ATTR", rel::AttrType::kString),
                      rel::Attribute("LWID", rel::AttrType::kInt),
                      rel::Attribute("VAL", rel::AttrType::kAny)});
}

rel::Schema FSchema() {
  return rel::Schema({rel::Attribute("REL", rel::AttrType::kString),
                      rel::Attribute("TID", rel::AttrType::kInt),
                      rel::Attribute("ATTR", rel::AttrType::kString),
                      rel::Attribute("CID", rel::AttrType::kInt)});
}

rel::Schema WSchema() {
  return rel::Schema({rel::Attribute("CID", rel::AttrType::kInt),
                      rel::Attribute("LWID", rel::AttrType::kInt),
                      rel::Attribute("PR", rel::AttrType::kDouble)});
}

/// Cap on the local-world count of a component product (select[AθB] over
/// placeholders of independent components) — the same blow-up class the
/// world-enumeration guards protect against.
constexpr size_t kMaxComposedWorlds = size_t{1} << 20;

/// Steps 4–6 of the Figure 16 select rewritings, shared by the Aθc and AθB
/// variants: propagate-⊥ among same-component same-tuple placeholders of
/// `out_rel` (a placeholder losing its value in a world pads the whole
/// tuple there), then remove tuples whose `required_attrs` placeholder
/// lost every value, and finally register the template.
Status FinishUniformSelect(rel::Database& db, rel::Relation p0,
                           const std::string& out_rel,
                           const std::vector<std::string>& required_attrs) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value out_sym = rel::Value::String(out_rel);
  // Step 4: remove incomplete world tuples — if placeholder (P,t,X) shares
  // component k with (P,t,Y) and world w has no value for Y, drop the other
  // placeholders' values for w too. (This is the relational propagate-⊥.)
  // Index the P-entries of C and F.
  std::map<int64_t, std::vector<std::pair<int64_t, std::string>>> cid_fields;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == out_sym)) continue;
    cid_fields[row[3].AsInt()].push_back(
        {row[1].AsInt(), std::string(row[2].AsStringView())});
  }
  // Values present per (t, attr): set of worlds.
  std::map<std::pair<int64_t, std::string>, std::set<int64_t>> have;
  for (size_t r = 0; r < c_rel->NumRows(); ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == out_sym)) continue;
    have[{row[1].AsInt(), std::string(row[2].AsStringView())}].insert(
        row[3].AsInt());
  }
  // Worlds to drop per (t, attr): those where a same-tuple same-component
  // sibling lacks a value.
  std::map<std::pair<int64_t, std::string>, std::set<int64_t>> drop;
  for (const auto& [cid, fields] : cid_fields) {
    for (const auto& fx : fields) {
      for (const auto& fy : fields) {
        if (fx == fy || fx.first != fy.first) continue;
        // Worlds where fx has a value but fy does not.
        const std::set<int64_t>& wx = have[fx];
        const std::set<int64_t>& wy = have[fy];
        for (int64_t w : wx) {
          if (!wy.count(w)) drop[fx].insert(w);
        }
      }
    }
  }
  if (!drop.empty()) {
    rel::Relation next(c_rel->schema(), c_rel->name());
    for (size_t r = 0; r < c_rel->NumRows(); ++r) {
      rel::TupleRef row = c_rel->row(r);
      if (row[0] == out_sym) {
        auto it = drop.find(
            {row[1].AsInt(), std::string(row[2].AsStringView())});
        if (it != drop.end() && it->second.count(row[3].AsInt())) continue;
      }
      next.AppendRow(row.span());
    }
    *c_rel = std::move(next);
    // Recompute surviving worlds.
    have.clear();
    for (size_t r = 0; r < c_rel->NumRows(); ++r) {
      rel::TupleRef row = c_rel->row(r);
      if (!(row[0] == out_sym)) continue;
      have[{row[1].AsInt(), std::string(row[2].AsStringView())}].insert(
          row[3].AsInt());
    }
  }
  // Steps 5–6: tuples whose required placeholder lost every value disappear;
  // drop their placeholders from F and their values from C.
  std::set<int64_t> dead_tids;
  for (const std::string& attr : required_attrs) {
    auto a_idx = p0.schema().IndexOf(attr);
    if (!a_idx) return Status::NotFound("attribute " + attr);
    for (size_t r = 0; r < p0.NumRows(); ++r) {
      rel::TupleRef row = p0.row(r);
      if (!row[*a_idx].is_question()) continue;
      if (have[{row[0].AsInt(), attr}].empty()) {
        dead_tids.insert(row[0].AsInt());
      }
    }
  }
  if (!dead_tids.empty()) {
    rel::Relation next_c(c_rel->schema(), c_rel->name());
    for (size_t r = 0; r < c_rel->NumRows(); ++r) {
      rel::TupleRef row = c_rel->row(r);
      if (row[0] == out_sym && dead_tids.count(row[1].AsInt())) continue;
      next_c.AppendRow(row.span());
    }
    *c_rel = std::move(next_c);
    rel::Relation next_f(f_rel->schema(), f_rel->name());
    for (size_t r = 0; r < f_rel->NumRows(); ++r) {
      rel::TupleRef row = f_rel->row(r);
      if (row[0] == out_sym && dead_tids.count(row[1].AsInt())) continue;
      next_f.AppendRow(row.span());
    }
    *f_rel = std::move(next_f);
    rel::Relation next_p(p0.schema(), p0.name());
    for (size_t r = 0; r < p0.NumRows(); ++r) {
      if (dead_tids.count(p0.row(r)[0].AsInt())) continue;
      next_p.AppendRow(p0.row(r).span());
    }
    p0 = std::move(next_p);
  }
  return db.AddRelation(std::move(p0));
}

}  // namespace

Result<rel::Database> ExportUniform(const Wsdt& wsdt) {
  rel::Database db;
  // Template relations with an explicit TID column.
  for (const std::string& name : wsdt.RelationNames()) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, wsdt.Template(name));
    std::vector<rel::Attribute> attrs;
    attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
    for (const rel::Attribute& a : tmpl->schema().attrs()) attrs.push_back(a);
    rel::Relation out{rel::Schema(std::move(attrs)), name};
    std::vector<rel::Value> row(out.arity());
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      row[0] = rel::Value::Int(static_cast<int64_t>(r));
      for (size_t a = 0; a < tmpl->arity(); ++a) row[a + 1] = tmpl->row(r)[a];
      out.AppendRow(row);
    }
    MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(out)));
  }
  // System relations.
  rel::Relation c_rel(CSchema(), kUniformC);
  rel::Relation f_rel(FSchema(), kUniformF);
  rel::Relation w_rel(WSchema(), kUniformW);
  int64_t cid = 0;
  for (size_t i : wsdt.LiveComponents()) {
    const Component& comp = wsdt.component(i);
    for (size_t col = 0; col < comp.NumFields(); ++col) {
      const FieldKey& f = comp.field(col);
      f_rel.AppendRow({rel::Value::StringSymbol(f.rel),
                       rel::Value::Int(f.tuple),
                       rel::Value::StringSymbol(f.attr),
                       rel::Value::Int(cid)});
    }
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      w_rel.AppendRow({rel::Value::Int(cid),
                       rel::Value::Int(static_cast<int64_t>(w)),
                       rel::Value::Double(comp.prob(w))});
      for (size_t col = 0; col < comp.NumFields(); ++col) {
        const rel::Value& v = comp.at(w, col);
        if (v.is_bottom()) continue;  // absence encodes ⊥
        const FieldKey& f = comp.field(col);
        c_rel.AppendRow({rel::Value::StringSymbol(f.rel),
                         rel::Value::Int(f.tuple),
                         rel::Value::StringSymbol(f.attr),
                         rel::Value::Int(static_cast<int64_t>(w)),
                         v});
      }
    }
    ++cid;
  }
  MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(c_rel)));
  MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(f_rel)));
  MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(w_rel)));
  return db;
}

Result<Wsdt> ImportUniform(const rel::Database& db,
                           std::vector<std::string> templates) {
  // With an explicit list, C/F rows of other relations are skipped.
  const bool scoped = !templates.empty();
  if (!scoped) {
    for (const std::string& name : db.Names()) {
      if (name != kUniformC && name != kUniformF && name != kUniformW) {
        templates.push_back(name);
      }
    }
  }
  Wsdt wsdt;
  // Template relations: strip the TID column; remember tid → row mapping.
  std::set<Symbol> in_scope;
  std::map<std::pair<Symbol, int64_t>, TupleId> tid_map;
  for (const std::string& name : templates) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(name));
    auto tid_idx = in->schema().IndexOf(kTidColumn);
    if (!tid_idx || *tid_idx != 0) {
      return Status::InvalidArgument("template " + name +
                                     " lacks a leading TID column");
    }
    std::vector<rel::Attribute> attrs(in->schema().attrs().begin() + 1,
                                      in->schema().attrs().end());
    rel::Relation tmpl{rel::Schema(std::move(attrs)), name};
    std::vector<rel::Value> row(tmpl.arity());
    Symbol sym = InternString(name);
    in_scope.insert(sym);
    for (size_t r = 0; r < in->NumRows(); ++r) {
      tid_map[{sym, in->row(r)[0].AsInt()}] = static_cast<TupleId>(r);
      for (size_t a = 0; a < tmpl.arity(); ++a) row[a] = in->row(r)[a + 1];
      tmpl.AppendRow(row);
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddTemplateRelation(std::move(tmpl)));
  }
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_rel,
                          db.GetRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* c_rel,
                          db.GetRelation(kUniformC));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* w_rel,
                          db.GetRelation(kUniformW));
  // Row of the template tuple a C/F row references; nullopt for a skipped
  // out-of-scope relation.
  auto resolve = [&](rel::TupleRef row,
                     const char* what) -> Result<std::optional<TupleId>> {
    Symbol rel_sym = row[0].AsSymbol();
    if (scoped && !in_scope.count(rel_sym)) return std::optional<TupleId>();
    auto it = tid_map.find({rel_sym, row[1].AsInt()});
    if (it == tid_map.end()) {
      return Status::InvalidArgument(std::string(what) +
                                     " references unknown tuple in " +
                                     std::string(SymbolName(rel_sym)));
    }
    return std::optional<TupleId>(it->second);
  };

  // Group fields by CID (sorted for determinism).
  std::map<int64_t, std::vector<FieldKey>> comp_fields;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    rel::TupleRef row = f_rel->row(r);
    MAYWSD_ASSIGN_OR_RETURN(std::optional<TupleId> tid, resolve(row, "F"));
    if (!tid) continue;
    comp_fields[row[3].AsInt()].push_back(
        FieldKey(row[0].AsSymbol(), *tid, row[2].AsSymbol()));
  }
  for (auto& [cid, fields] : comp_fields) {
    std::sort(fields.begin(), fields.end());
  }
  // Local worlds per component.
  std::map<int64_t, std::vector<std::pair<int64_t, double>>> comp_worlds;
  for (size_t r = 0; r < w_rel->NumRows(); ++r) {
    rel::TupleRef row = w_rel->row(r);
    comp_worlds[row[0].AsInt()].emplace_back(row[1].AsInt(),
                                             row[2].AsDouble());
  }
  for (auto& [cid, worlds] : comp_worlds) {
    std::sort(worlds.begin(), worlds.end());
  }
  // Values: (rel, tid, attr, lwid) → value.
  std::map<std::tuple<Symbol, TupleId, Symbol, int64_t>, rel::Value> values;
  for (size_t r = 0; r < c_rel->NumRows(); ++r) {
    rel::TupleRef row = c_rel->row(r);
    MAYWSD_ASSIGN_OR_RETURN(std::optional<TupleId> tid, resolve(row, "C"));
    if (!tid) continue;
    values[{row[0].AsSymbol(), *tid, row[2].AsSymbol(), row[3].AsInt()}] =
        row[4];
  }
  for (const auto& [cid, fields] : comp_fields) {
    auto worlds_it = comp_worlds.find(cid);
    if (worlds_it == comp_worlds.end()) {
      return Status::InvalidArgument("component " + std::to_string(cid) +
                                     " has no worlds in W");
    }
    Component comp(fields);
    std::vector<rel::Value> row(fields.size());
    for (const auto& [lwid, prob] : worlds_it->second) {
      for (size_t c = 0; c < fields.size(); ++c) {
        auto v = values.find(
            {fields[c].rel, fields[c].tuple, fields[c].attr, lwid});
        row[c] = (v == values.end()) ? rel::Value::Bottom() : v->second;
      }
      comp.AddWorld(row, prob);
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddComponent(std::move(comp)));
  }
  return wsdt;
}

Status UniformSelectConst(rel::Database& db, const std::string& in_rel,
                          const std::string& out_rel, const std::string& attr,
                          rel::CmpOp op, const rel::Value& constant) {
  using rel::Plan;
  using rel::Predicate;
  // Step 1: P⁰ := σ_{Aθc ∨ A=?}(R⁰).
  Plan step1 = Plan::Select(
      Predicate::Or(Predicate::Cmp(attr, op, constant),
                    Predicate::Cmp(attr, rel::CmpOp::kEq,
                                   rel::Value::Question())),
      Plan::Scan(in_rel));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation p0, rel::Evaluate(step1, db));
  p0.set_name(out_rel);

  // Tuple ids surviving step 1.
  std::set<int64_t> tids;
  for (size_t r = 0; r < p0.NumRows(); ++r) {
    tids.insert(p0.row(r)[0].AsInt());
  }

  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);

  // Step 2: F := F ∪ {(P.t.B, k) | (R.t.B, k) ∈ F, t ∈ P⁰}.
  size_t f_rows = f_rel->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym) || !tids.count(row[1].AsInt())) continue;
    f_rel->AppendRow({out_sym, row[1], row[2], row[3]});
  }
  // Step 3: C := C ∪ {(P.t.B, w, v) | (R.t.B, w, v) ∈ C, t ∈ P⁰,
  //                     (B = A ⇒ v θ c)}.
  rel::Value attr_sym = rel::Value::String(attr);
  size_t c_rows = c_rel->NumRows();
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym) || !tids.count(row[1].AsInt())) continue;
    if (row[2] == attr_sym && !row[4].Satisfies(op, constant)) continue;
    c_rel->AppendRow({out_sym, row[1], row[2], row[3], row[4]});
  }

  // Steps 4–6 are shared with the AθB variant: propagate-⊥ among
  // same-component siblings, then drop tuples whose A-placeholder lost
  // every value.
  return FinishUniformSelect(db, std::move(p0), out_rel, {attr});
}

Status UniformSelectAttrAttr(rel::Database& db, const std::string& in_rel,
                             const std::string& out_rel,
                             const std::string& attr_a, rel::CmpOp op,
                             const std::string& attr_b) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  auto tid_idx = in->schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + in_rel +
                                   " lacks a leading TID column");
  }
  rel::Schema logical(std::vector<rel::Attribute>(
      in->schema().attrs().begin() + 1, in->schema().attrs().end()));
  auto a_col = logical.IndexOf(attr_a);
  auto b_col = logical.IndexOf(attr_b);
  if (!a_col) return Status::NotFound("attribute " + attr_a);
  if (!b_col) return Status::NotFound("attribute " + attr_b);
  MAYWSD_ASSIGN_OR_RETURN(
      rel::BoundPredicate pred,
      rel::BoundPredicate::Bind(rel::Predicate::CmpAttr(attr_a, op, attr_b),
                                logical));

  // Step 1: P⁰ keeps the decided-true rows as-is and the undecided rows
  // (a placeholder at A or B) for per-local-world filtering; decided-false
  // rows disappear in every world.
  rel::Relation p0(in->schema(), out_rel);
  std::set<int64_t> tids;
  std::vector<size_t> undecided;  // row indexes into p0
  for (size_t r = 0; r < in->NumRows(); ++r) {
    rel::TupleRef row = in->row(r);
    rel::TupleRef logical_row(row.data() + 1, logical.arity());
    rel::Tri tri = pred.EvalTri(logical_row);
    if (tri == rel::Tri::kFalse) continue;
    if (tri == rel::Tri::kUnknown) undecided.push_back(p0.NumRows());
    p0.AppendRow(row.span());
    tids.insert(row[0].AsInt());
  }

  // Steps 2–3: copy the surviving tuples' F and C entries under the output
  // name unfiltered — the undecided rows lose values world by world below.
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);
  size_t f_rows = f_rel->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym) || !tids.count(row[1].AsInt())) continue;
    f_rel->AppendRow({out_sym, row[1], row[2], row[3]});
  }
  size_t c_rows = c_rel->NumRows();
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym) || !tids.count(row[1].AsInt())) continue;
    c_rel->AppendRow({out_sym, row[1], row[2], row[3], row[4]});
  }

  // Undecided rows whose A and B placeholders live in different components
  // correlate them: merge those components (the relational compose — an
  // independence product that rewrites W and remaps F/C globally, exactly
  // what the template semantics' ComposeInPlace does).
  std::map<std::pair<int64_t, std::string>, int64_t> f_cid;  // (t,attr)→cid
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == out_sym)) continue;
    f_cid[{row[1].AsInt(), std::string(row[2].AsStringView())}] =
        row[3].AsInt();
  }
  std::map<int64_t, int64_t> parent;
  auto find = [&parent](int64_t x) {
    parent.try_emplace(x, x);
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  bool any_merge = false;
  for (size_t r : undecided) {
    rel::TupleRef row = p0.row(r);
    if (!row[1 + *a_col].is_question() || !row[1 + *b_col].is_question()) {
      continue;
    }
    auto ca = f_cid.find({row[0].AsInt(), attr_a});
    auto cb = f_cid.find({row[0].AsInt(), attr_b});
    if (ca == f_cid.end() || cb == f_cid.end()) {
      return Status::Internal("placeholder of " + in_rel + " has no F row");
    }
    int64_t ra = find(ca->second);
    int64_t rb = find(cb->second);
    if (ra != rb) {
      parent[rb] = ra;
      any_merge = true;
    }
  }
  if (any_merge) {
    std::map<int64_t, std::vector<int64_t>> classes;
    for (const auto& [cid, unused] : parent) {
      (void)unused;
      classes[find(cid)].push_back(cid);
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation* w_rel,
                            db.GetMutableRelation(kUniformW));
    std::map<int64_t, std::vector<std::pair<int64_t, double>>> worlds;
    for (size_t r = 0; r < w_rel->NumRows(); ++r) {
      rel::TupleRef row = w_rel->row(r);
      worlds[row[0].AsInt()].emplace_back(row[1].AsInt(), row[2].AsDouble());
    }
    for (auto& [cid, lws] : worlds) std::sort(lws.begin(), lws.end());
    // member cid → old LWID → the product LWIDs it participates in.
    std::map<int64_t, std::map<int64_t, std::vector<int64_t>>> fanout;
    std::set<int64_t> members_all;
    std::vector<std::array<rel::Value, 3>> product_rows;
    for (auto& [rep, members] : classes) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end());
      size_t total = 1;
      for (int64_t m : members) {
        total *= worlds[m].size();
        if (total > kMaxComposedWorlds) {
          return Status::ResourceExhausted(
              "select[AθB] component product exceeds " +
              std::to_string(kMaxComposedWorlds) + " local worlds");
        }
      }
      // Mixed-radix enumeration, last member varying fastest; the product
      // world's probability is the product of its members' (independence).
      for (size_t flat = 0; flat < total; ++flat) {
        double pr = 1.0;
        size_t rem = flat;
        for (size_t p = members.size(); p-- > 0;) {
          const auto& lws = worlds[members[p]];
          size_t i = rem % lws.size();
          rem /= lws.size();
          pr *= lws[i].second;
          fanout[members[p]][lws[i].first].push_back(
              static_cast<int64_t>(flat));
        }
        product_rows.push_back({rel::Value::Int(rep),
                                rel::Value::Int(static_cast<int64_t>(flat)),
                                rel::Value::Double(pr)});
      }
      for (int64_t m : members) members_all.insert(m);
    }
    // Rewrite W: the merged members' rows become the product rows.
    rel::Relation next_w(w_rel->schema(), w_rel->name());
    for (size_t r = 0; r < w_rel->NumRows(); ++r) {
      if (members_all.count(w_rel->row(r)[0].AsInt())) continue;
      next_w.AppendRow(w_rel->row(r).span());
    }
    for (const auto& row : product_rows) {
      next_w.AppendRow({row[0], row[1], row[2]});
    }
    *w_rel = std::move(next_w);
    // Remap every F row of a merged member (all relations — the merge is a
    // global re-factorization) to the class representative, remembering
    // which member each field belonged to.
    std::map<std::tuple<std::string, int64_t, std::string>, int64_t>
        field_member;
    for (size_t r = 0; r < f_rel->NumRows(); ++r) {
      rel::TupleRef row = f_rel->row(r);
      int64_t cid = row[3].AsInt();
      if (!members_all.count(cid)) continue;
      field_member[{std::string(row[0].AsStringView()), row[1].AsInt(),
                    std::string(row[2].AsStringView())}] = cid;
      f_rel->SetCell(r, 3, rel::Value::Int(find(cid)));
    }
    // Expand the members' C rows across the product worlds they survive in.
    rel::Relation next_c(c_rel->schema(), c_rel->name());
    for (size_t r = 0; r < c_rel->NumRows(); ++r) {
      rel::TupleRef row = c_rel->row(r);
      auto it = field_member.find({std::string(row[0].AsStringView()),
                                   row[1].AsInt(),
                                   std::string(row[2].AsStringView())});
      if (it == field_member.end()) {
        next_c.AppendRow(row.span());
        continue;
      }
      for (int64_t lwid : fanout[it->second][row[3].AsInt()]) {
        next_c.AppendRow(
            {row[0], row[1], row[2], rel::Value::Int(lwid), row[4]});
      }
    }
    *c_rel = std::move(next_c);
    // The copied out_rel fields moved components too.
    f_cid.clear();
    for (size_t r = 0; r < f_rel->NumRows(); ++r) {
      rel::TupleRef row = f_rel->row(r);
      if (!(row[0] == out_sym)) continue;
      f_cid[{row[1].AsInt(), std::string(row[2].AsStringView())}] =
          row[3].AsInt();
    }
  }

  // Per-local-world filtering of the undecided rows: resolve A and B in
  // each world of the (now single) deciding component and drop the output
  // copy's placeholder values where the comparison fails. A ⊥ on either
  // side means the source tuple is absent there — the output is too.
  std::map<int64_t, std::vector<int64_t>> cid_lwids;
  {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* w_ro,
                            db.GetRelation(kUniformW));
    for (size_t r = 0; r < w_ro->NumRows(); ++r) {
      cid_lwids[w_ro->row(r)[0].AsInt()].push_back(w_ro->row(r)[1].AsInt());
    }
  }
  std::map<std::tuple<int64_t, std::string, int64_t>, rel::Value> out_vals;
  for (size_t r = 0; r < c_rel->NumRows(); ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == out_sym)) continue;
    out_vals[{row[1].AsInt(), std::string(row[2].AsStringView()),
              row[3].AsInt()}] = row[4];
  }
  std::set<std::tuple<int64_t, std::string, int64_t>> drop;
  for (size_t r : undecided) {
    rel::TupleRef row = p0.row(r);
    int64_t tid = row[0].AsInt();
    bool qa = row[1 + *a_col].is_question();
    bool qb = row[1 + *b_col].is_question();
    if (!qa && !qb) continue;  // unreachable: certain rows tri-decide
    int64_t cid = qa ? f_cid.at({tid, attr_a}) : f_cid.at({tid, attr_b});
    auto value_at = [&](const std::string& attr,
                        int64_t lwid) -> rel::Value {
      auto it = out_vals.find({tid, attr, lwid});
      return it == out_vals.end() ? rel::Value::Bottom() : it->second;
    };
    for (int64_t lwid : cid_lwids[cid]) {
      rel::Value va = qa ? value_at(attr_a, lwid) : row[1 + *a_col];
      rel::Value vb = qb ? value_at(attr_b, lwid) : row[1 + *b_col];
      bool keep =
          !va.is_bottom() && !vb.is_bottom() && va.Satisfies(op, vb);
      if (keep) continue;
      if (qa) drop.insert({tid, attr_a, lwid});
      if (qb) drop.insert({tid, attr_b, lwid});
    }
  }
  if (!drop.empty()) {
    rel::Relation next_c(c_rel->schema(), c_rel->name());
    for (size_t r = 0; r < c_rel->NumRows(); ++r) {
      rel::TupleRef row = c_rel->row(r);
      if (row[0] == out_sym &&
          drop.count({row[1].AsInt(), std::string(row[2].AsStringView()),
                      row[3].AsInt()})) {
        continue;
      }
      next_c.AppendRow(row.span());
    }
    *c_rel = std::move(next_c);
  }

  return FinishUniformSelect(db, std::move(p0), out_rel, {attr_a, attr_b});
}

namespace {

/// Copies the F and C entries of tuple (in_rel, old_tid) under
/// (out_rel, new_tid), optionally renaming attributes.
void CopyUniformEntries(
    rel::Relation* f_rel, rel::Relation* c_rel, size_t f_rows, size_t c_rows,
    const rel::Value& in_sym, const rel::Value& out_sym, int64_t old_tid,
    int64_t new_tid,
    const std::map<std::string, std::string>* attr_renames = nullptr) {
  auto rename = [&](const rel::Value& attr) -> rel::Value {
    if (attr_renames == nullptr) return attr;
    auto it = attr_renames->find(std::string(attr.AsStringView()));
    return it == attr_renames->end() ? attr
                                     : rel::Value::String(it->second);
  };
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym) || row[1].AsInt() != old_tid) continue;
    f_rel->AppendRow({out_sym, rel::Value::Int(new_tid), rename(row[2]),
                      row[3]});
  }
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym) || row[1].AsInt() != old_tid) continue;
    c_rel->AppendRow({out_sym, rel::Value::Int(new_tid), rename(row[2]),
                      row[3], row[4]});
  }
}

}  // namespace

Status UniformUnion(rel::Database& db, const std::string& left,
                    const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l, db.GetRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r, db.GetRelation(right));
  if (l->schema() != r->schema()) {
    return Status::InvalidArgument("uniform union of incompatible schemas");
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out_rel(l->schema(), out);
  rel::Value l_sym = rel::Value::String(left);
  rel::Value r_sym = rel::Value::String(right);
  rel::Value out_sym = rel::Value::String(out);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  std::vector<rel::Value> buf(out_rel.arity());
  int64_t next = 0;
  for (const rel::Relation* side : {l, r}) {
    const rel::Value& sym = side == l ? l_sym : r_sym;
    for (size_t i = 0; i < side->NumRows(); ++i) {
      rel::TupleRef row = side->row(i);
      buf[0] = rel::Value::Int(next);
      for (size_t a = 1; a < buf.size(); ++a) buf[a] = row[a];
      out_rel.AppendRow(buf);
      CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, sym, out_sym,
                         row[0].AsInt(), next);
      ++next;
    }
  }
  return db.AddRelation(std::move(out_rel));
}

Status UniformRename(
    rel::Database& db, const std::string& in_rel, const std::string& out_rel,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  rel::Schema schema = in->schema();
  std::map<std::string, std::string> rename_map;
  for (const auto& [from, to] : renames) {
    MAYWSD_ASSIGN_OR_RETURN(schema, schema.Rename(from, to));
    rename_map[from] = to;
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out(schema, out_rel);
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  for (size_t i = 0; i < in->NumRows(); ++i) {
    out.AppendRow(in->row(i).span());
    CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, in_sym, out_sym,
                       in->row(i)[0].AsInt(), in->row(i)[0].AsInt(),
                       &rename_map);
  }
  return db.AddRelation(std::move(out));
}

Status UniformProduct(rel::Database& db, const std::string& left,
                      const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l, db.GetRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r, db.GetRelation(right));
  // Output schema: TID + left attrs + right attrs (attrs must be disjoint;
  // both inputs carry their own TID column which is not duplicated).
  std::vector<rel::Attribute> attrs;
  attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
  for (size_t a = 1; a < l->schema().arity(); ++a) {
    attrs.push_back(l->schema().attr(a));
  }
  for (size_t a = 1; a < r->schema().arity(); ++a) {
    rel::Attribute attr = r->schema().attr(a);
    for (const rel::Attribute& existing : attrs) {
      if (existing.name == attr.name) {
        return Status::InvalidArgument(
            "uniform product requires disjoint attribute sets");
      }
    }
    attrs.push_back(attr);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out_rel{rel::Schema(std::move(attrs)), out};
  rel::Value l_sym = rel::Value::String(left);
  rel::Value r_sym = rel::Value::String(right);
  rel::Value out_sym = rel::Value::String(out);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  int64_t nr = static_cast<int64_t>(r->NumRows());
  std::vector<rel::Value> buf(out_rel.arity());
  for (size_t i = 0; i < l->NumRows(); ++i) {
    rel::TupleRef lr = l->row(i);
    for (size_t j = 0; j < r->NumRows(); ++j) {
      rel::TupleRef rr = r->row(j);
      int64_t tij = static_cast<int64_t>(i) * nr + static_cast<int64_t>(j);
      buf[0] = rel::Value::Int(tij);
      size_t pos = 1;
      for (size_t a = 1; a < lr.arity(); ++a) buf[pos++] = lr[a];
      for (size_t a = 1; a < rr.arity(); ++a) buf[pos++] = rr[a];
      out_rel.AppendRow(buf);
      CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, l_sym, out_sym,
                         lr[0].AsInt(), tij);
      CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, r_sym, out_sym,
                         rr[0].AsInt(), tij);
    }
  }
  return db.AddRelation(std::move(out_rel));
}

namespace {

/// Re-registers every F/C entry of `in_rel` under `out_rel` with the same
/// TIDs, sharing CIDs so the copy stays correlated with its source: one
/// filtered pass, linear in |F|+|C|.
Status CopyRelationEntries(rel::Database& db, const std::string& in_rel,
                           const std::string& out_rel) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym)) continue;
    f_rel->AppendRow({out_sym, row[1], row[2], row[3]});
  }
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym)) continue;
    c_rel->AppendRow({out_sym, row[1], row[2], row[3], row[4]});
  }
  return Status::Ok();
}

}  // namespace

Status UniformCopy(rel::Database& db, const std::string& in_rel,
                   const std::string& out_rel) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  if (db.Contains(out_rel)) {
    return Status::AlreadyExists("relation " + out_rel);
  }
  rel::Relation out(in->schema(), out_rel);
  for (size_t i = 0; i < in->NumRows(); ++i) {
    out.AppendRow(in->row(i).span());
  }
  // TIDs are unchanged (the driver's materializing Copy runs once per
  // evaluation — keep it linear in |F|+|C|).
  MAYWSD_RETURN_IF_ERROR(CopyRelationEntries(db, in_rel, out_rel));
  return db.AddRelation(std::move(out));
}

Status UniformDifference(rel::Database& db, const std::string& left,
                         const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l, db.GetRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r, db.GetRelation(right));
  if (l->schema() != r->schema()) {
    return Status::InvalidArgument("uniform difference of incompatible "
                                   "schemas");
  }
  if (db.Contains(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  auto tid_idx = l->schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + left +
                                   " lacks a leading TID column");
  }
  rel::Schema logical(std::vector<rel::Attribute>(
      l->schema().attrs().begin() + 1, l->schema().attrs().end()));
  const size_t arity = logical.arity();
  auto cells = [arity](const rel::Relation& tmpl, size_t i) {
    return rel::TupleRef(tmpl.row(i).data() + 1, arity);
  };
  auto certain = [](rel::TupleRef row) {
    for (size_t a = 0; a < row.arity(); ++a) {
      if (row[a].is_question()) return false;
    }
    return true;
  };
  // Two rows may be one tuple in some world unless a certain cell differs.
  auto may_match = [](rel::TupleRef a, rel::TupleRef b) {
    for (size_t k = 0; k < a.arity(); ++k) {
      if (!a[k].is_question() && !b[k].is_question() && !(a[k] == b[k])) {
        return false;
      }
    }
    return true;
  };

  rel::Relation r_rows(logical);
  rel::RowSet r_certain(r_rows);
  std::vector<size_t> r_uncertain;
  for (size_t j = 0; j < r->NumRows(); ++j) {
    if (certain(cells(*r, j))) {
      r_certain.Insert(cells(*r, j).span());
    } else {
      r_uncertain.push_back(j);
    }
  }
  // The certain fragment only: a placeholder row that may equal a row of
  // the other side is subtracted per local world, which composes
  // components.
  auto unsupported = [&] {
    return Status::Unsupported("uniform difference: a placeholder row of " +
                               left + " or " + right +
                               " may match the other side; needs the "
                               "template semantics");
  };
  std::vector<size_t> l_certain;
  for (size_t i = 0; i < l->NumRows(); ++i) {
    if (certain(cells(*l, i))) {
      l_certain.push_back(i);
      continue;
    }
    for (size_t j = 0; j < r->NumRows(); ++j) {
      if (may_match(cells(*l, i), cells(*r, j))) return unsupported();
    }
  }
  for (size_t j : r_uncertain) {
    for (size_t i : l_certain) {
      if (may_match(cells(*l, i), cells(*r, j))) return unsupported();
    }
  }

  // Certain rows with a certain match are gone in every world; every
  // other row is kept under its TID, so the F/C entries of L carry over.
  rel::Relation out_rel(l->schema(), out);
  out_rel.Reserve(l->NumRows());
  for (size_t i = 0; i < l->NumRows(); ++i) {
    rel::TupleRef lr = cells(*l, i);
    if (certain(lr) && r_certain.Contains(lr.span())) continue;
    out_rel.AppendRow(l->row(i).span());
  }
  MAYWSD_RETURN_IF_ERROR(CopyRelationEntries(db, left, out));
  return db.AddRelation(std::move(out_rel));
}

Status UniformProject(rel::Database& db, const std::string& in_rel,
                      const std::string& out_rel,
                      const std::vector<std::string>& attrs) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  if (db.Contains(out_rel)) {
    return Status::AlreadyExists("relation " + out_rel);
  }
  auto tid_idx = in->schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + in_rel +
                                   " lacks a leading TID column");
  }
  rel::Schema logical(std::vector<rel::Attribute>(
      in->schema().attrs().begin() + 1, in->schema().attrs().end()));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema kept, logical.Project(attrs));
  std::set<std::string> kept_set(attrs.begin(), attrs.end());

  // A dropped placeholder with a ⊥ (a local world of its component with no
  // C row) encodes conditional tuple presence; projecting it away needs
  // component composition, which is not a pure row rewriting.
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_ro, db.GetRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* c_ro, db.GetRelation(kUniformC));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* w_ro, db.GetRelation(kUniformW));
  rel::Value in_sym = rel::Value::String(in_rel);
  std::map<int64_t, size_t> w_counts;
  for (size_t r = 0; r < w_ro->NumRows(); ++r) {
    ++w_counts[w_ro->row(r)[0].AsInt()];
  }
  std::map<std::pair<int64_t, std::string>, int64_t> dropped_holes;
  for (size_t r = 0; r < f_ro->NumRows(); ++r) {
    rel::TupleRef row = f_ro->row(r);
    std::string attr(row[2].AsStringView());
    if (!(row[0] == in_sym) || kept_set.count(attr)) continue;
    dropped_holes[{row[1].AsInt(), attr}] = row[3].AsInt();
  }
  std::map<std::pair<int64_t, std::string>, size_t> have;
  for (size_t r = 0; r < c_ro->NumRows(); ++r) {
    rel::TupleRef row = c_ro->row(r);
    std::string attr(row[2].AsStringView());
    if (!(row[0] == in_sym) || kept_set.count(attr)) continue;
    ++have[{row[1].AsInt(), attr}];
  }
  for (const auto& [key, cid] : dropped_holes) {
    auto it = have.find(key);
    size_t values = it == have.end() ? 0 : it->second;
    if (values < w_counts[cid]) {
      return Status::Unsupported(
          "uniform projection drops the ⊥-carrying placeholder " + in_rel +
          ".t" + std::to_string(key.first) + "." + key.second);
    }
  }

  // Template: TID + kept attributes, in the requested order.
  std::vector<rel::Attribute> out_attrs;
  out_attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
  for (const rel::Attribute& a : kept.attrs()) out_attrs.push_back(a);
  rel::Relation out{rel::Schema(std::move(out_attrs)), out_rel};
  std::vector<size_t> cols;
  for (const std::string& a : attrs) cols.push_back(1 + *logical.IndexOf(a));
  std::vector<rel::Value> buf(out.arity());
  for (size_t r = 0; r < in->NumRows(); ++r) {
    rel::TupleRef row = in->row(r);
    buf[0] = row[0];
    for (size_t i = 0; i < cols.size(); ++i) buf[i + 1] = row[cols[i]];
    out.AppendRow(buf);
  }
  // F/C entries of the kept attributes only — dropping the other columns
  // from their components is exact marginalization.
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value out_sym = rel::Value::String(out_rel);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym) ||
        !kept_set.count(std::string(row[2].AsStringView()))) {
      continue;
    }
    f_rel->AppendRow({out_sym, row[1], row[2], row[3]});
  }
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym) ||
        !kept_set.count(std::string(row[2].AsStringView()))) {
      continue;
    }
    c_rel->AppendRow({out_sym, row[1], row[2], row[3], row[4]});
  }
  return db.AddRelation(std::move(out));
}

Status UniformDrop(rel::Database& db, const std::string& name) {
  if (name == kUniformC || name == kUniformF || name == kUniformW) {
    return Status::InvalidArgument("cannot drop system relation " + name);
  }
  MAYWSD_RETURN_IF_ERROR(db.DropRelation(name));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value sym = rel::Value::String(name);
  for (rel::Relation* sys : {f_rel, c_rel}) {
    rel::Relation next(sys->schema(), sys->name());
    for (size_t r = 0; r < sys->NumRows(); ++r) {
      if (sys->row(r)[0] == sym) continue;
      next.AppendRow(sys->row(r).span());
    }
    *sys = std::move(next);
  }
  return Status::Ok();
}

Status UniformInsert(rel::Database& db, const std::string& rel,
                     const rel::Relation& tuples) {
  if (rel == kUniformC || rel == kUniformF || rel == kUniformW) {
    return Status::InvalidArgument("cannot insert into system relation " +
                                   rel);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, db.GetMutableRelation(rel));
  auto tid_idx = tmpl->schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + rel +
                                   " lacks a leading TID column");
  }
  if (tuples.arity() + 1 != tmpl->arity()) {
    return Status::InvalidArgument("insert arity mismatch on " + rel);
  }
  int64_t next_tid = 0;
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    next_tid = std::max(next_tid, tmpl->row(r)[0].AsInt() + 1);
  }
  std::vector<rel::Value> row(tmpl->arity());
  for (size_t r = 0; r < tuples.NumRows(); ++r) {
    row[0] = rel::Value::Int(next_tid++);
    for (size_t a = 0; a < tuples.arity(); ++a) row[a + 1] = tuples.row(r)[a];
    tmpl->AppendRow(row);
  }
  return Status::Ok();
}

namespace {

/// Tri-evaluates `pred` on every template row (TID column stripped);
/// kUnsupported when any row's decision needs component values.
Result<std::vector<rel::Tri>> DecideRows(const rel::Relation& tmpl,
                                         const rel::Predicate& pred) {
  rel::Schema logical(std::vector<rel::Attribute>(
      tmpl.schema().attrs().begin() + 1, tmpl.schema().attrs().end()));
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, logical));
  std::vector<rel::Tri> out;
  out.reserve(tmpl.NumRows());
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef logical_row(tmpl.row(r).data() + 1, logical.arity());
    rel::Tri tri = bound.EvalTri(logical_row);
    if (tri == rel::Tri::kUnknown) {
      return Status::Unsupported(
          "predicate on " + tmpl.name() +
          " touches placeholder cells; needs the template semantics");
    }
    out.push_back(tri);
  }
  return out;
}

/// Removes the F and C rows of the given (relation, TID) fields.
Status DropFieldRows(rel::Database& db, const std::string& rel,
                     const std::set<int64_t>& tids) {
  rel::Value sym = rel::Value::String(rel);
  for (const char* name : {kUniformF, kUniformC}) {
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation * sys, db.GetMutableRelation(name));
    rel::Relation next(sys->schema(), sys->name());
    for (size_t r = 0; r < sys->NumRows(); ++r) {
      if (sys->row(r)[0] == sym && tids.count(sys->row(r)[1].AsInt())) {
        continue;
      }
      next.AppendRow(sys->row(r).span());
    }
    *sys = std::move(next);
  }
  return Status::Ok();
}

}  // namespace

Status UniformDeleteWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred) {
  if (rel == kUniformC || rel == kUniformF || rel == kUniformW) {
    return Status::InvalidArgument("cannot delete from system relation " +
                                   rel);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, db.GetMutableRelation(rel));
  MAYWSD_ASSIGN_OR_RETURN(std::vector<rel::Tri> decided,
                          DecideRows(*tmpl, pred));
  std::set<int64_t> removed_tids;
  bool removed_placeholder = false;
  rel::Relation kept(tmpl->schema(), tmpl->name());
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided[r] == rel::Tri::kTrue) {
      removed_tids.insert(tmpl->row(r)[0].AsInt());
      for (size_t a = 1; a < tmpl->arity(); ++a) {
        if (tmpl->row(r)[a].is_question()) removed_placeholder = true;
      }
    } else {
      kept.AppendRow(tmpl->row(r).span());
    }
  }
  if (removed_tids.empty()) return Status::Ok();
  *tmpl = std::move(kept);
  // F/C rows exist only for placeholder fields: a delete of fully certain
  // rows (the common native case) skips the system-relation rebuild and
  // the W garbage-collection scan entirely.
  if (!removed_placeholder) return Status::Ok();
  MAYWSD_RETURN_IF_ERROR(DropFieldRows(db, rel, removed_tids));
  return UniformCompact(db);
}

Status UniformModifyWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred,
                          std::span<const rel::Assignment> assignments) {
  if (rel == kUniformC || rel == kUniformF || rel == kUniformW) {
    return Status::InvalidArgument("cannot modify system relation " + rel);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, db.GetMutableRelation(rel));
  MAYWSD_ASSIGN_OR_RETURN(std::vector<rel::Tri> decided,
                          DecideRows(*tmpl, pred));
  std::vector<std::pair<size_t, rel::Value>> cols;  // template column → value
  for (const rel::Assignment& a : assignments) {
    auto idx = tmpl->schema().IndexOf(a.attr);
    if (!idx || *idx == 0) {
      return Status::NotFound("assignment attribute " + a.attr + " not in " +
                              rel);
    }
    cols.emplace_back(*idx, a.value);
  }
  // Pass 1: an assignment to a '?' cell needs component surgery.
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided[r] != rel::Tri::kTrue) continue;
    for (const auto& [col, v] : cols) {
      if (tmpl->row(r)[col].is_question()) {
        return Status::Unsupported(
            "assignment to a placeholder cell of " + rel +
            "; needs the template semantics");
      }
    }
  }
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided[r] != rel::Tri::kTrue) continue;
    for (const auto& [col, v] : cols) tmpl->SetCell(r, col, v);
  }
  return Status::Ok();
}

Status UniformCompact(rel::Database& db) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_rel,
                          db.GetRelation(kUniformF));
  std::set<int64_t> live;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    live.insert(f_rel->row(r)[3].AsInt());
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* w_rel,
                          db.GetMutableRelation(kUniformW));
  rel::Relation next(w_rel->schema(), w_rel->name());
  for (size_t r = 0; r < w_rel->NumRows(); ++r) {
    if (!live.count(w_rel->row(r)[0].AsInt())) continue;
    next.AppendRow(w_rel->row(r).span());
  }
  *w_rel = std::move(next);
  return Status::Ok();
}

Status ValidateUniform(const rel::Database& db) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_rel,
                          db.GetRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* c_rel,
                          db.GetRelation(kUniformC));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* w_rel,
                          db.GetRelation(kUniformW));

  // Templates: leading unique TIDs; remember '?' cells awaiting coverage.
  std::set<std::pair<std::string, int64_t>> tuples;
  std::set<std::tuple<std::string, int64_t, std::string>> holes;
  for (const std::string& name : db.Names()) {
    if (name == kUniformC || name == kUniformF || name == kUniformW) continue;
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db.GetRelation(name));
    auto tid_idx = tmpl->schema().IndexOf(kTidColumn);
    if (!tid_idx || *tid_idx != 0) {
      return Status::InvalidArgument("template " + name +
                                     " lacks a leading TID column");
    }
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      rel::TupleRef row = tmpl->row(r);
      if (!tuples.insert({name, row[0].AsInt()}).second) {
        return Status::InvalidArgument("template " + name + " repeats TID " +
                                       std::to_string(row[0].AsInt()));
      }
      for (size_t a = 1; a < row.arity(); ++a) {
        if (row[a].is_question()) {
          holes.insert({name, row[0].AsInt(),
                        std::string(tmpl->schema().attr(a).name_view())});
        } else if (row[a].is_bottom()) {
          return Status::InvalidArgument("template " + name +
                                         " stores a ⊥ cell");
        }
      }
    }
  }

  // W: local worlds and probability mass per component.
  std::map<int64_t, std::set<int64_t>> w_lwids;
  std::map<int64_t, double> w_mass;
  for (size_t r = 0; r < w_rel->NumRows(); ++r) {
    rel::TupleRef row = w_rel->row(r);
    if (!w_lwids[row[0].AsInt()].insert(row[1].AsInt()).second) {
      return Status::InvalidArgument(
          "W repeats (CID,LWID) = (" + std::to_string(row[0].AsInt()) + "," +
          std::to_string(row[1].AsInt()) + ")");
    }
    w_mass[row[0].AsInt()] += row[2].AsDouble();
  }
  for (const auto& [cid, mass] : w_mass) {
    if (std::abs(mass - 1.0) > 1e-6) {
      return Status::InvalidArgument("component " + std::to_string(cid) +
                                     " has probability mass " +
                                     std::to_string(mass));
    }
  }

  // F: every row covers an existing '?' cell exactly once and names a
  // component that W declares.
  std::map<std::tuple<std::string, int64_t, std::string>, int64_t> f_cid;
  std::set<int64_t> f_cids;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    rel::TupleRef row = f_rel->row(r);
    std::tuple<std::string, int64_t, std::string> key{
        std::string(row[0].AsStringView()), row[1].AsInt(),
        std::string(row[2].AsStringView())};
    if (!holes.count(key)) {
      return Status::InvalidArgument(
          "F row " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key) +
          " does not point at a '?' cell");
    }
    if (!f_cid.emplace(key, row[3].AsInt()).second) {
      return Status::InvalidArgument(
          "F covers " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key) +
          " twice");
    }
    if (!w_lwids.count(row[3].AsInt())) {
      return Status::InvalidArgument("F references CID " +
                                     std::to_string(row[3].AsInt()) +
                                     " absent from W");
    }
    f_cids.insert(row[3].AsInt());
  }
  for (const auto& hole : holes) {
    if (!f_cid.count(hole)) {
      return Status::InvalidArgument(
          "placeholder " + std::get<0>(hole) + ".t" +
          std::to_string(std::get<1>(hole)) + "." + std::get<2>(hole) +
          " has no F row");
    }
  }

  // C: values belong to a declared placeholder and local world.
  std::set<std::tuple<std::string, int64_t, std::string, int64_t>> c_seen;
  for (size_t r = 0; r < c_rel->NumRows(); ++r) {
    rel::TupleRef row = c_rel->row(r);
    std::tuple<std::string, int64_t, std::string> key{
        std::string(row[0].AsStringView()), row[1].AsInt(),
        std::string(row[2].AsStringView())};
    auto it = f_cid.find(key);
    if (it == f_cid.end()) {
      return Status::InvalidArgument(
          "orphaned C row for " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key));
    }
    if (!w_lwids[it->second].count(row[3].AsInt())) {
      return Status::InvalidArgument(
          "C row for " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key) +
          " names LWID " + std::to_string(row[3].AsInt()) +
          " absent from its component");
    }
    if (row[4].is_bottom() || row[4].is_question()) {
      return Status::InvalidArgument("C stores a ⊥/'?' value");
    }
    if (!c_seen.insert({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                        row[3].AsInt()})
             .second) {
      return Status::InvalidArgument(
          "C repeats a (field, LWID) value for " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key));
    }
  }

  // W: no orphaned local worlds.
  for (const auto& [cid, lwids] : w_lwids) {
    if (!f_cids.count(cid)) {
      return Status::InvalidArgument("W declares CID " + std::to_string(cid) +
                                     " that no F row references");
    }
  }
  return Status::Ok();
}

}  // namespace maywsd::core
