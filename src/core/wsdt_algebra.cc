#include "core/wsdt_algebra.h"

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/engine/plan_driver.h"
#include "core/engine/wsdt_backend.h"
#include "rel/row_set.h"

namespace maywsd::core {

namespace {

/// Distinct non-⊥ values of a component column, in first-seen order.
std::vector<rel::Value> PossibleColumnValues(const Wsdt& wsdt,
                                             const FieldKey& field) {
  std::vector<rel::Value> out;
  auto loc_or = wsdt.Locate(field);
  if (!loc_or.ok()) return out;
  FieldLoc loc = loc_or.value();
  const Component& comp = wsdt.component(loc.comp);
  size_t col = static_cast<size_t>(loc.col);
  std::unordered_set<rel::Value> seen;
  for (size_t w = 0; w < comp.NumWorlds(); ++w) {
    const rel::Value& v = comp.at(w, col);
    if (!v.is_bottom() && seen.insert(v).second) out.push_back(v);
  }
  return out;
}

/// Copies template row `r` of `src` into `out_tmpl` (appending), copying
/// the '?' component columns under the new tuple id. Returns the new id.
Result<TupleId> CopyRowInto(Wsdt& wsdt, const rel::Relation& src_tmpl,
                            Symbol src_sym, size_t r,
                            rel::Relation* out_tmpl, Symbol out_sym) {
  TupleId n = static_cast<TupleId>(out_tmpl->NumRows());
  rel::TupleRef row = src_tmpl.row(r);
  out_tmpl->AppendRow(row.span());
  for (size_t a = 0; a < src_tmpl.arity(); ++a) {
    if (!row[a].is_question()) continue;
    FieldKey sf(src_sym, static_cast<TupleId>(r),
                src_tmpl.schema().attr(a).name);
    FieldKey df(out_sym, n, src_tmpl.schema().attr(a).name);
    MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, df));
  }
  return n;
}

bool RowFullyCertain(rel::TupleRef row) {
  for (size_t a = 0; a < row.arity(); ++a) {
    if (row[a].is_question()) return false;
  }
  return true;
}

/// True when row `r` of `tmpl` exists in no world: one of its placeholder
/// columns is ⊥ in every local world.
Result<bool> RowDeadEverywhere(const Wsdt& wsdt, const rel::Relation& tmpl,
                               Symbol sym, size_t r) {
  rel::TupleRef row = tmpl.row(r);
  for (size_t a = 0; a < tmpl.arity(); ++a) {
    if (!row[a].is_question()) continue;
    MAYWSD_ASSIGN_OR_RETURN(
        FieldLoc loc, wsdt.Locate(FieldKey(sym, static_cast<TupleId>(r),
                                           tmpl.schema().attr(a).name)));
    if (wsdt.component(loc.comp).ColumnAllBottom(
            static_cast<size_t>(loc.col))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status WsdtCopy(Wsdt& wsdt, const std::string& src, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_tmpl, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(src_tmpl->schema(), out);
  out_tmpl.Reserve(src_tmpl->NumRows());
  for (size_t r = 0; r < src_tmpl->NumRows(); ++r) {
    // Normalization on the way out (Figure 20's remove-invalid-tuples):
    // a row that exists in no world is not copied.
    MAYWSD_ASSIGN_OR_RETURN(bool dead,
                            RowDeadEverywhere(wsdt, *src_tmpl, src_sym, r));
    if (dead) continue;
    MAYWSD_RETURN_IF_ERROR(
        CopyRowInto(wsdt, *src_tmpl, src_sym, r, &out_tmpl, out_sym)
            .status());
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtSelect(Wsdt& wsdt, const std::string& src, const std::string& out,
                  const rel::Predicate& pred) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& src_tmpl = *src_ptr;
  const rel::Schema schema = src_tmpl.schema();
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, schema));
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);

  // Verdicts for every row first, so the output is sized exactly.
  const size_t num_rows = src_tmpl.NumRows();
  std::vector<rel::Tri> verdicts(num_rows);
  size_t kept = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    verdicts[r] = bound.EvalTri(src_tmpl.row(r));
    if (verdicts[r] != rel::Tri::kFalse) ++kept;
  }

  rel::Relation out_tmpl(schema, out);
  out_tmpl.Reserve(kept);
  std::vector<rel::Value> buf(schema.arity());
  std::vector<int32_t> comps;
  std::vector<std::pair<size_t, size_t>> hole_cols;  // (attr, comp column)
  for (size_t r = 0; r < num_rows; ++r) {
    if (verdicts[r] == rel::Tri::kFalse) continue;
    MAYWSD_ASSIGN_OR_RETURN(
        TupleId n, CopyRowInto(wsdt, src_tmpl, src_sym, r, &out_tmpl, out_sym));
    if (verdicts[r] == rel::Tri::kTrue) continue;

    // Unknown: compose the components of the referenced placeholders of
    // this tuple (usually a single one) and ⊥-mark failing local worlds.
    rel::TupleRef row = src_tmpl.row(r);
    comps.clear();
    for (size_t a : bound.columns()) {
      if (!row[a].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(out_sym, n, schema.attr(a).name)));
      comps.push_back(loc.comp);
    }
    std::sort(comps.begin(), comps.end());
    comps.erase(std::unique(comps.begin(), comps.end()), comps.end());
    size_t target = static_cast<size_t>(comps.front());
    for (size_t i = 1; i < comps.size(); ++i) {
      MAYWSD_RETURN_IF_ERROR(
          wsdt.ComposeInPlace(target, static_cast<size_t>(comps[i])));
    }
    // Column positions of the unknown attributes in the composed component.
    hole_cols.clear();
    for (size_t a : bound.columns()) {
      if (!row[a].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(out_sym, n, schema.attr(a).name)));
      hole_cols.emplace_back(a, static_cast<size_t>(loc.col));
    }
    std::copy(row.data(), row.data() + row.arity(), buf.begin());
    Component& comp = wsdt.mutable_component(target);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      bool absent = false;
      for (const auto& [a, col] : hole_cols) {
        buf[a] = comp.at(w, col);
        if (buf[a].is_bottom()) absent = true;
      }
      if (absent) continue;  // tuple already absent in this local world
      if (!bound.Eval(rel::TupleRef(buf.data(), buf.size()))) {
        for (const auto& [a, col] : hole_cols) {
          comp.at(w, col) = rel::Value::Bottom();
        }
      }
    }
    comp.PropagateBottom();
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtProject(Wsdt& wsdt, const std::string& src, const std::string& out,
                   const std::vector<std::string>& attrs) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& src_tmpl = *src_ptr;
  const rel::Schema schema = src_tmpl.schema();
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema, schema.Project(attrs));
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);

  std::vector<size_t> keep_cols;
  for (const std::string& a : attrs) keep_cols.push_back(*schema.IndexOf(a));
  std::vector<size_t> drop_cols;
  for (size_t a = 0; a < schema.arity(); ++a) {
    if (std::find(keep_cols.begin(), keep_cols.end(), a) == keep_cols.end()) {
      drop_cols.push_back(a);
    }
  }

  rel::Relation out_tmpl(out_schema, out);
  rel::RowSet certain_rows(out_tmpl);
  std::vector<rel::Value> buf(out_schema.arity());

  for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
    rel::TupleRef row = src_tmpl.row(r);
    for (size_t i = 0; i < keep_cols.size(); ++i) buf[i] = row[keep_cols[i]];

    // Dropped placeholders whose column carries a ⊥ encode conditional
    // presence and must survive the projection.
    std::vector<size_t> drop_bottom;
    for (size_t a : drop_cols) {
      if (!row[a].is_question()) continue;
      FieldKey f(src_sym, static_cast<TupleId>(r), schema.attr(a).name);
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
      if (wsdt.component(loc.comp).ColumnHasBottom(
              static_cast<size_t>(loc.col))) {
        drop_bottom.push_back(a);
      }
    }
    bool certain = drop_bottom.empty();
    for (size_t i = 0; i < keep_cols.size() && certain; ++i) {
      if (buf[i].is_question()) certain = false;
    }
    if (certain) {
      // Fully certain result tuple: set semantics merges duplicates.
      certain_rows.Insert(buf);
      continue;
    }

    TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
    out_tmpl.AppendRow(buf);
    // Copy the kept placeholders.
    std::vector<FieldKey> kept_fields;
    for (size_t i = 0; i < keep_cols.size(); ++i) {
      if (!buf[i].is_question()) continue;
      FieldKey sf(src_sym, static_cast<TupleId>(r),
                  schema.attr(keep_cols[i]).name);
      FieldKey df(out_sym, n, out_schema.attr(i).name);
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, df));
      kept_fields.push_back(df);
    }
    if (drop_bottom.empty()) continue;

    // Presence of this tuple depends on dropped columns: bring their ⊥
    // patterns into the kept columns via shadow copies + composition.
    FieldKey target_field;
    if (!kept_fields.empty()) {
      target_field = kept_fields[0];
    } else {
      // Only certain kept fields: materialize a presence helper on the
      // first kept attribute, correlated with the first dropped column.
      size_t d0 = drop_bottom[0];
      FieldKey sf(src_sym, static_cast<TupleId>(r), schema.attr(d0).name);
      FieldKey hf(out_sym, n, out_schema.attr(0).name);
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, hf));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(hf));
      Component& comp = wsdt.mutable_component(loc.comp);
      size_t col = static_cast<size_t>(loc.col);
      rel::Value kept_value = buf[0];
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        if (!comp.at(w, col).is_bottom()) comp.at(w, col) = kept_value;
      }
      out_tmpl.SetCell(static_cast<size_t>(n), 0, rel::Value::Question());
      target_field = hf;
      drop_bottom.erase(drop_bottom.begin());
    }
    // Shadow-copy the remaining ⊥-carrying dropped columns, compose them
    // with the target, propagate ⊥ to the whole tuple, drop the shadows.
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc tloc, wsdt.Locate(target_field));
    for (size_t a : drop_bottom) {
      FieldKey sf(src_sym, static_cast<TupleId>(r), schema.attr(a).name);
      FieldKey shadow(out_sym, n,
                      InternString("__shadow_" +
                                   std::string(schema.attr(a).name_view())));
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, shadow));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc sloc, wsdt.Locate(shadow));
      if (sloc.comp != tloc.comp) {
        MAYWSD_RETURN_IF_ERROR(
            wsdt.ComposeInPlace(static_cast<size_t>(tloc.comp),
                                static_cast<size_t>(sloc.comp)));
      }
      MAYWSD_ASSIGN_OR_RETURN(tloc, wsdt.Locate(target_field));
    }
    wsdt.mutable_component(static_cast<size_t>(tloc.comp)).PropagateBottom();
    for (size_t a : drop_bottom) {
      FieldKey shadow(out_sym, n,
                      InternString("__shadow_" +
                                   std::string(schema.attr(a).name_view())));
      MAYWSD_RETURN_IF_ERROR(wsdt.DropField(shadow));
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtUnion(Wsdt& wsdt, const std::string& left, const std::string& right,
                 const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  if (l_ptr->schema() != r_ptr->schema()) {
    return Status::InvalidArgument("union of incompatible schemas");
  }
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(l_ptr->schema(), out);
  rel::RowSet certain_rows(out_tmpl);
  for (const std::string& side : {left, right}) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr,
                            wsdt.Template(side));
    const rel::Relation& src_tmpl = *src_ptr;
    Symbol src_sym = InternString(side);
    for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
      rel::TupleRef row = src_tmpl.row(r);
      if (RowFullyCertain(row)) {
        // Set semantics merges duplicate certain rows.
        certain_rows.Insert(row.span());
        continue;
      }
      MAYWSD_RETURN_IF_ERROR(
          CopyRowInto(wsdt, src_tmpl, src_sym, r, &out_tmpl, out_sym)
              .status());
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtProduct(Wsdt& wsdt, const std::string& left,
                   const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema,
                          l_ptr->schema().Concat(r_ptr->schema()));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& l_tmpl = *l_ptr;
  const rel::Relation& r_tmpl = *r_ptr;
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(out_schema, out);
  std::vector<rel::Value> buf(out_schema.arity());
  for (size_t i = 0; i < l_tmpl.NumRows(); ++i) {
    rel::TupleRef lr = l_tmpl.row(i);
    for (size_t j = 0; j < r_tmpl.NumRows(); ++j) {
      rel::TupleRef rr = r_tmpl.row(j);
      std::copy(lr.data(), lr.data() + lr.arity(), buf.begin());
      std::copy(rr.data(), rr.data() + rr.arity(),
                buf.begin() + static_cast<long>(lr.arity()));
      TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
      out_tmpl.AppendRow(buf);
      for (size_t a = 0; a < l_tmpl.arity(); ++a) {
        if (!lr[a].is_question()) continue;
        MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
            FieldKey(l_sym, static_cast<TupleId>(i),
                     l_tmpl.schema().attr(a).name),
            FieldKey(out_sym, n, out_schema.attr(a).name)));
      }
      for (size_t a = 0; a < r_tmpl.arity(); ++a) {
        if (!rr[a].is_question()) continue;
        MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
            FieldKey(r_sym, static_cast<TupleId>(j),
                     r_tmpl.schema().attr(a).name),
            FieldKey(out_sym, n, out_schema.attr(l_tmpl.arity() + a).name)));
      }
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

namespace {

/// Enforces `out.tn.A == out.tn.B`-style equality between a possibly
/// uncertain output field and either a certain value or another output
/// field, ⊥-marking local worlds that violate it.
Status EnforceFieldEquality(Wsdt& wsdt, const FieldKey& a_field,
                            bool a_uncertain, const rel::Value& a_certain,
                            const FieldKey& b_field, bool b_uncertain,
                            const rel::Value& b_certain) {
  if (!a_uncertain && !b_uncertain) {
    return Status::Internal("certain-certain equality must be pre-filtered");
  }
  if (a_uncertain && b_uncertain) {
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc la, wsdt.Locate(a_field));
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc lb, wsdt.Locate(b_field));
    if (la.comp != lb.comp) {
      MAYWSD_RETURN_IF_ERROR(
          wsdt.ComposeInPlace(static_cast<size_t>(la.comp),
                              static_cast<size_t>(lb.comp)));
      MAYWSD_ASSIGN_OR_RETURN(la, wsdt.Locate(a_field));
      MAYWSD_ASSIGN_OR_RETURN(lb, wsdt.Locate(b_field));
    }
    Component& comp = wsdt.mutable_component(la.comp);
    size_t ca = static_cast<size_t>(la.col);
    size_t cb = static_cast<size_t>(lb.col);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      const rel::Value& va = comp.at(w, ca);
      const rel::Value& vb = comp.at(w, cb);
      if (va.is_bottom() || vb.is_bottom()) {
        // Either side absent: the pair tuple does not exist in this world;
        // make that explicit on the a-side.
        comp.at(w, ca) = rel::Value::Bottom();
      } else if (!(va == vb)) {
        comp.at(w, ca) = rel::Value::Bottom();
      }
    }
    comp.PropagateBottom();
    return Status::Ok();
  }
  // Exactly one side uncertain.
  const FieldKey& field = a_uncertain ? a_field : b_field;
  const rel::Value& constant = a_uncertain ? b_certain : a_certain;
  MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(field));
  Component& comp = wsdt.mutable_component(loc.comp);
  size_t col = static_cast<size_t>(loc.col);
  for (size_t w = 0; w < comp.NumWorlds(); ++w) {
    const rel::Value& v = comp.at(w, col);
    if (!v.is_bottom() && !(v == constant)) {
      comp.at(w, col) = rel::Value::Bottom();
    }
  }
  comp.PropagateBottom();
  return Status::Ok();
}

}  // namespace

Status WsdtJoin(Wsdt& wsdt, const std::string& left, const std::string& right,
                const std::string& out, const std::string& left_attr,
                const std::string& right_attr) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema,
                          l_ptr->schema().Concat(r_ptr->schema()));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& l_tmpl = *l_ptr;
  const rel::Relation& r_tmpl = *r_ptr;
  auto lcol_or = l_tmpl.schema().IndexOf(left_attr);
  auto rcol_or = r_tmpl.schema().IndexOf(right_attr);
  if (!lcol_or || !rcol_or) {
    return Status::NotFound("join attribute " + left_attr + "/" + right_attr);
  }
  size_t lcol = *lcol_or;
  size_t rcol = *rcol_or;
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);
  Symbol la_sym = l_tmpl.schema().attr(lcol).name;
  Symbol ra_sym = r_tmpl.schema().attr(rcol).name;

  // Index the right side: certain rows by key value; uncertain rows by
  // every possible value.
  std::unordered_map<rel::Value, std::vector<size_t>> certain_r;
  std::unordered_map<rel::Value, std::vector<size_t>> possible_r;
  for (size_t j = 0; j < r_tmpl.NumRows(); ++j) {
    const rel::Value& v = r_tmpl.row(j)[rcol];
    if (v.is_question()) {
      for (const rel::Value& pv : PossibleColumnValues(
               wsdt, FieldKey(r_sym, static_cast<TupleId>(j), ra_sym))) {
        possible_r[pv].push_back(j);
      }
    } else {
      certain_r[v].push_back(j);
    }
  }

  rel::Relation out_tmpl(out_schema, out);
  std::vector<rel::Value> buf(out_schema.arity());

  // Emits the pair (i, j); `cond` = the key equality is not certain.
  auto emit = [&](size_t i, size_t j, bool cond) -> Status {
    rel::TupleRef lr = l_tmpl.row(i);
    rel::TupleRef rr = r_tmpl.row(j);
    std::copy(lr.data(), lr.data() + lr.arity(), buf.begin());
    std::copy(rr.data(), rr.data() + rr.arity(),
              buf.begin() + static_cast<long>(lr.arity()));
    TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
    out_tmpl.AppendRow(buf);
    for (size_t a = 0; a < l_tmpl.arity(); ++a) {
      if (!lr[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
          FieldKey(l_sym, static_cast<TupleId>(i),
                   l_tmpl.schema().attr(a).name),
          FieldKey(out_sym, n, out_schema.attr(a).name)));
    }
    for (size_t a = 0; a < r_tmpl.arity(); ++a) {
      if (!rr[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
          FieldKey(r_sym, static_cast<TupleId>(j),
                   r_tmpl.schema().attr(a).name),
          FieldKey(out_sym, n, out_schema.attr(l_tmpl.arity() + a).name)));
    }
    if (!cond) return Status::Ok();
    bool l_unc = lr[lcol].is_question();
    bool r_unc = rr[rcol].is_question();
    return EnforceFieldEquality(
        wsdt, FieldKey(out_sym, n, out_schema.attr(lcol).name), l_unc,
        lr[lcol],
        FieldKey(out_sym, n, out_schema.attr(l_tmpl.arity() + rcol).name),
        r_unc, rr[rcol]);
  };

  for (size_t i = 0; i < l_tmpl.NumRows(); ++i) {
    const rel::Value& lv = l_tmpl.row(i)[lcol];
    if (!lv.is_question()) {
      auto it = certain_r.find(lv);
      if (it != certain_r.end()) {
        for (size_t j : it->second) {
          MAYWSD_RETURN_IF_ERROR(emit(i, j, false));
        }
      }
      auto pit = possible_r.find(lv);
      if (pit != possible_r.end()) {
        for (size_t j : pit->second) {
          MAYWSD_RETURN_IF_ERROR(emit(i, j, true));
        }
      }
    } else {
      std::vector<rel::Value> pv = PossibleColumnValues(
          wsdt, FieldKey(l_sym, static_cast<TupleId>(i), la_sym));
      std::set<size_t> uncertain_matches;
      for (const rel::Value& v : pv) {
        auto it = certain_r.find(v);
        if (it != certain_r.end()) {
          for (size_t j : it->second) {
            MAYWSD_RETURN_IF_ERROR(emit(i, j, true));
          }
        }
        auto pit = possible_r.find(v);
        if (pit != possible_r.end()) {
          for (size_t j : pit->second) uncertain_matches.insert(j);
        }
      }
      for (size_t j : uncertain_matches) {
        MAYWSD_RETURN_IF_ERROR(emit(i, j, true));
      }
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtRename(Wsdt& wsdt, const std::string& src, const std::string& out,
                  const std::vector<std::pair<std::string, std::string>>&
                      renames) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& src_tmpl = *src_ptr;
  rel::Schema out_schema = src_tmpl.schema();
  for (const auto& [from, to] : renames) {
    MAYWSD_ASSIGN_OR_RETURN(out_schema, out_schema.Rename(from, to));
  }
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(out_schema, out);
  for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
    rel::TupleRef row = src_tmpl.row(r);
    out_tmpl.AppendRow(row.span());
    for (size_t a = 0; a < src_tmpl.arity(); ++a) {
      if (!row[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
          FieldKey(src_sym, static_cast<TupleId>(r),
                   src_tmpl.schema().attr(a).name),
          FieldKey(out_sym, static_cast<TupleId>(r),
                   out_schema.attr(a).name)));
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

namespace {

/// True when placeholder `field` takes the value `v` in some local world.
Result<bool> ColumnMayHold(const Wsdt& wsdt, const FieldKey& field,
                           const rel::Value& v) {
  MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(field));
  const Component& comp = wsdt.component(loc.comp);
  size_t col = static_cast<size_t>(loc.col);
  if (const rel::Value* cv = comp.ColumnConstantValue(col)) return *cv == v;
  for (size_t w = 0; w < comp.NumWorlds(); ++w) {
    if (comp.at(w, col) == v) return true;
  }
  return false;
}

}  // namespace

Status WsdtDifference(Wsdt& wsdt, const std::string& left,
                      const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  if (l_ptr->schema() != r_ptr->schema()) {
    return Status::InvalidArgument("difference of incompatible schemas: " +
                                   l_ptr->schema().ToString() + " vs " +
                                   r_ptr->schema().ToString());
  }
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& l_tmpl = *l_ptr;
  const rel::Relation& r_tmpl = *r_ptr;
  const rel::Schema& schema = l_tmpl.schema();
  const size_t arity = schema.arity();
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);
  auto l_field = [&](size_t i, size_t a) {
    return FieldKey(l_sym, static_cast<TupleId>(i), schema.attr(a).name);
  };
  auto r_field = [&](size_t j, size_t a) {
    return FieldKey(r_sym, static_cast<TupleId>(j), schema.attr(a).name);
  };

  // The right side: certain rows by value (present in every world — ⊥
  // lives only in components), and every live row by the possible values
  // of one column, indexed per column on first use. by_col[c][0] holds
  // certain rows, by_col[c][1] rows with a placeholder anywhere.
  rel::Relation r_certain_rows(schema);
  rel::RowSet r_certain(r_certain_rows);
  std::vector<size_t> r_live;
  for (size_t j = 0; j < r_tmpl.NumRows(); ++j) {
    MAYWSD_ASSIGN_OR_RETURN(bool dead,
                            RowDeadEverywhere(wsdt, r_tmpl, r_sym, j));
    if (dead) continue;
    r_live.push_back(j);
    if (RowFullyCertain(r_tmpl.row(j))) r_certain.Insert(r_tmpl.row(j).span());
  }
  const bool r_all_certain = r_certain.size() == r_live.size();
  using ColumnIndex =
      std::array<std::unordered_map<rel::Value, std::vector<size_t>>, 2>;
  std::vector<std::optional<ColumnIndex>> by_col(arity);
  auto index_column = [&](size_t c) -> const ColumnIndex& {
    if (by_col[c]) return *by_col[c];
    ColumnIndex& idx = by_col[c].emplace();
    for (size_t j : r_live) {
      rel::TupleRef row = r_tmpl.row(j);
      bool certain = RowFullyCertain(row);
      if (!row[c].is_question()) {
        idx[certain ? 0 : 1][row[c]].push_back(j);
        continue;
      }
      for (const rel::Value& v : PossibleColumnValues(wsdt, r_field(j, c))) {
        idx[1][v].push_back(j);
      }
    }
    return idx;
  };

  // Could L.i and S.j be the same tuple in some world? Certain cells must
  // be equal, and a placeholder facing a certain cell must hold its value
  // somewhere; two placeholders are left to the per-world check.
  auto may_match = [&](size_t i, size_t j) -> Result<bool> {
    rel::TupleRef lr = l_tmpl.row(i);
    rel::TupleRef rr = r_tmpl.row(j);
    for (size_t a = 0; a < arity; ++a) {
      bool lq = lr[a].is_question();
      bool rq = rr[a].is_question();
      if (!lq && !rq) {
        if (!(lr[a] == rr[a])) return false;
      } else if (lq != rq) {
        MAYWSD_ASSIGN_OR_RETURN(
            bool hold, lq ? ColumnMayHold(wsdt, l_field(i, a), rr[a])
                          : ColumnMayHold(wsdt, r_field(j, a), lr[a]));
        if (!hold) return false;
      }
    }
    return true;
  };

  rel::Relation out_tmpl(schema, out);
  out_tmpl.Reserve(l_tmpl.NumRows());
  std::vector<size_t> candidates;
  std::vector<size_t> matches;
  std::vector<int32_t> comps;
  std::vector<std::pair<size_t, size_t>> l_cols;  // (attr, comp column)
  std::vector<size_t> r_cols;  // per match, one comp column per attribute
  std::vector<rel::Value> buf(arity);
  std::vector<uint8_t> killed;
  for (size_t i = 0; i < l_tmpl.NumRows(); ++i) {
    rel::TupleRef lr = l_tmpl.row(i);
    const bool l_certain = RowFullyCertain(lr);
    if (l_certain && r_certain.Contains(lr.span())) continue;  // everywhere
    if (l_certain && r_all_certain) {  // the certain fragment: kept as is
      out_tmpl.AppendRow(lr.span());
      continue;
    }
    MAYWSD_ASSIGN_OR_RETURN(bool dead,
                            RowDeadEverywhere(wsdt, l_tmpl, l_sym, i));
    if (dead) continue;

    // Candidates by the first certain column of L.i (or the possible
    // values of its first column when it has none), then filtered.
    size_t key = 0;
    while (key < arity && lr[key].is_question()) ++key;
    std::vector<rel::Value> key_values;
    if (key < arity) {
      key_values.push_back(lr[key]);
    } else {
      key = 0;
      key_values = PossibleColumnValues(wsdt, l_field(i, 0));
    }
    const ColumnIndex& idx = index_column(key);
    candidates.clear();
    for (const rel::Value& v : key_values) {
      for (size_t side = l_certain ? 1 : 0; side < 2; ++side) {
        auto it = idx[side].find(v);
        if (it == idx[side].end()) continue;
        candidates.insert(candidates.end(), it->second.begin(),
                          it->second.end());
      }
    }
    if (key_values.size() > 1) {
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    matches.clear();
    for (size_t j : candidates) {
      MAYWSD_ASSIGN_OR_RETURN(bool may, may_match(i, j));
      if (may) matches.push_back(j);
    }
    if (matches.empty()) {
      // No right row can equal L.i: it is kept exactly as it is.
      MAYWSD_RETURN_IF_ERROR(
          CopyRowInto(wsdt, l_tmpl, l_sym, i, &out_tmpl, out_sym).status());
      continue;
    }

    // The uncertain residual: compose the components of L.i's copy and of
    // its matches only, then ⊥-mark the copy in the local worlds where
    // some match is present and equal to it. The copy's fields are added
    // before composing, so the composed payload is materialized once.
    const TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
    auto out_field = [&](size_t a) {
      return FieldKey(out_sym, n, schema.attr(a).name);
    };
    comps.clear();
    for (size_t a = 0; a < arity; ++a) {
      if (!lr[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(l_field(i, a), out_field(a)));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(out_field(a)));
      comps.push_back(loc.comp);
    }
    for (size_t j : matches) {
      rel::TupleRef rr = r_tmpl.row(j);
      for (size_t a = 0; a < arity; ++a) {
        if (!rr[a].is_question()) continue;
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(r_field(j, a)));
        comps.push_back(loc.comp);
      }
    }
    std::sort(comps.begin(), comps.end());
    comps.erase(std::unique(comps.begin(), comps.end()), comps.end());
    const size_t target = static_cast<size_t>(comps.front());
    for (size_t k = 1; k < comps.size(); ++k) {
      MAYWSD_RETURN_IF_ERROR(
          wsdt.ComposeInPlace(target, static_cast<size_t>(comps[k])));
    }
    l_cols.clear();
    for (size_t a = 0; a < arity; ++a) {
      if (!lr[a].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(out_field(a)));
      l_cols.emplace_back(a, static_cast<size_t>(loc.col));
    }
    r_cols.assign(matches.size() * arity, 0);
    for (size_t m = 0; m < matches.size(); ++m) {
      rel::TupleRef rr = r_tmpl.row(matches[m]);
      for (size_t a = 0; a < arity; ++a) {
        if (!rr[a].is_question()) continue;
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc,
                                wsdt.Locate(r_field(matches[m], a)));
        r_cols[m * arity + a] = static_cast<size_t>(loc.col);
      }
    }
    // A certain L.i is only read here; an uncertain copy is marked in place.
    Component& comp = wsdt.mutable_component(target);
    const Component& view = comp;
    std::copy(lr.data(), lr.data() + arity, buf.begin());
    killed.assign(view.NumWorlds(), 0);
    size_t alive = 0;
    size_t num_killed = 0;
    for (size_t w = 0; w < killed.size(); ++w) {
      bool present = true;
      for (const auto& [a, col] : l_cols) {
        buf[a] = view.at(w, col);
        if (buf[a].is_bottom()) present = false;
      }
      if (!present) continue;
      ++alive;
      for (size_t m = 0; m < matches.size() && !killed[w]; ++m) {
        // Equal to a non-⊥ L.i on every attribute also means S.j is
        // present in this local world.
        rel::TupleRef rr = r_tmpl.row(matches[m]);
        bool equal = true;
        for (size_t a = 0; a < arity && equal; ++a) {
          const rel::Value& rv = rr[a].is_question()
                                     ? view.at(w, r_cols[m * arity + a])
                                     : rr[a];
          equal = rv == buf[a];
        }
        if (equal) {
          killed[w] = 1;
          ++num_killed;
        }
      }
    }
    if (num_killed == alive) {
      // Subtracted wherever L.i exists: the copy goes.
      for (const auto& [a, col] : l_cols) {
        MAYWSD_RETURN_IF_ERROR(wsdt.DropField(out_field(a)));
      }
      continue;
    }
    out_tmpl.AppendRow(lr.span());
    if (num_killed == 0) continue;
    if (l_certain) {
      // A certain row subtracted in some worlds only becomes conditional:
      // a placeholder on its first attribute, correlated with the matches.
      std::vector<rel::Value> values(killed.size(), lr[0]);
      for (size_t w = 0; w < values.size(); ++w) {
        if (killed[w]) values[w] = rel::Value::Bottom();
      }
      out_tmpl.SetCell(static_cast<size_t>(n), 0, rel::Value::Question());
      MAYWSD_RETURN_IF_ERROR(
          wsdt.AddColumnToComponent(target, out_field(0), values));
      continue;
    }
    for (size_t w = 0; w < killed.size(); ++w) {
      if (!killed[w]) continue;
      for (const auto& [a, col] : l_cols) {
        comp.at(w, col) = rel::Value::Bottom();
      }
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtEvaluate(Wsdt& wsdt, const rel::Plan& plan, const std::string& out,
                    bool keep_temps) {
  engine::WsdtBackend backend(wsdt);
  return engine::Evaluate(backend, plan, out, keep_temps);
}

Status WsdtEvaluateOptimized(Wsdt& wsdt, const rel::Plan& plan,
                             const std::string& out) {
  engine::WsdtBackend backend(wsdt);
  return engine::EvaluateOptimized(backend, plan, out);
}

}  // namespace maywsd::core
