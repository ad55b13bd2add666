#include "core/wsd_update.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "rel/predicate.h"

namespace maywsd::core {

namespace {

/// Schema plus presence fields of slot (rel, tid); empty for removed slots.
std::vector<FieldKey> AllSlotFields(const Wsd& wsd, const WsdRelation& rel,
                                    TupleId tid) {
  std::vector<FieldKey> fields = wsd.FieldsOfTuple(rel, tid);
  if (fields.empty()) return fields;
  for (const FieldKey& pf : wsd.PresenceFieldsOfTuple(rel, tid)) {
    fields.push_back(pf);
  }
  return fields;
}

}  // namespace

Result<std::vector<std::vector<FieldKey>>> GuardSlotCandidates(
    const Wsd& wsd, const std::string& guard_rel) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* g, wsd.FindRelation(guard_rel));
  std::vector<std::vector<FieldKey>> slots;
  for (TupleId t = 0; t < g->max_tuples; ++t) {
    std::vector<FieldKey> fields = AllSlotFields(wsd, *g, t);
    if (fields.empty()) continue;  // slot removed by normalization
    slots.push_back(std::move(fields));
  }
  return slots;
}

Status WsdInsertTuples(Wsd& wsd, const std::string& rel,
                       const rel::Relation& tuples,
                       const WsdUpdateGuard& guard) {
  if (guard.mode() == WsdUpdateGuard::Mode::kNever) return Status::Ok();
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(rel));
  if (tuples.arity() != r->schema.arity()) {
    return Status::InvalidArgument("insert arity mismatch on " + rel);
  }
  rel::Schema schema = r->schema;
  Symbol rel_sym = r->name_sym;
  TupleId base = r->max_tuples;
  MAYWSD_RETURN_IF_ERROR(
      wsd.GrowRelation(rel, static_cast<TupleId>(tuples.NumRows())));

  const bool conditional =
      guard.mode() == WsdUpdateGuard::Mode::kConditional;
  for (size_t i = 0; i < tuples.NumRows(); ++i) {
    TupleId tid = base + static_cast<TupleId>(i);
    rel::TupleRef row = tuples.row(i);
    for (size_t a = 0; a < schema.arity(); ++a) {
      FieldKey f(rel_sym, tid, schema.attr(a).name);
      MAYWSD_RETURN_IF_ERROR(wsd.AddCertainField(f, row[a]));
    }
    if (!conditional) continue;
    // Correlate the tuple's presence with the guard: compose the first
    // attribute's fresh singleton into the guard component and ⊥ it in
    // the unselected worlds.
    FieldKey f0(rel_sym, tid, schema.attr(0).name);
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f0));
    MAYWSD_RETURN_IF_ERROR(
        wsd.ComposeInPlace(guard.comp(), static_cast<size_t>(loc.comp)));
    MAYWSD_ASSIGN_OR_RETURN(loc, wsd.Locate(f0));
    MAYWSD_ASSIGN_OR_RETURN(std::vector<bool> selected, guard.Selected(wsd));
    Component& comp = wsd.mutable_component(guard.comp());
    size_t col = static_cast<size_t>(loc.col);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (!selected[w]) comp.at(w, col) = rel::Value::Bottom();
    }
  }
  return Status::Ok();
}

namespace {

/// Shared core of delete and modify: per alive slot of `rel`, composes the
/// components carrying the schema columns `cols` (plus the guard
/// component), then calls `apply(comp, attr_cols, selected)` to rewrite
/// local worlds in place. `attr_cols` pairs every column of `cols` with its
/// column in `comp`; `selected` is empty for unconditional updates (all
/// worlds selected).
Status ForEachSlotComposed(
    Wsd& wsd, const WsdRelation& r, const std::vector<size_t>& cols,
    const WsdUpdateGuard& guard,
    const std::function<Status(
        Component& comp,
        const std::vector<std::pair<size_t, size_t>>& attr_cols,
        const std::vector<bool>& selected)>& apply) {
  const bool conditional =
      guard.mode() == WsdUpdateGuard::Mode::kConditional;
  Symbol rel_sym = r.name_sym;
  TupleId max_tuples = r.max_tuples;
  rel::Schema schema = r.schema;
  // The guard's selection bitmap only changes when a composition grows the
  // guard component's local-world set; recompute it lazily instead of per
  // slot.
  std::vector<bool> selected;
  bool selected_valid = false;
  std::set<int32_t> comps;
  std::vector<std::pair<size_t, size_t>> attr_cols;
  for (TupleId t = 0; t < max_tuples; ++t) {
    FieldKey probe(rel_sym, t, schema.attr(0).name);
    if (!wsd.HasField(probe)) continue;  // removed slot
    comps.clear();
    for (size_t a : cols) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsd.Locate(FieldKey(rel_sym, t, schema.attr(a).name)));
      comps.insert(loc.comp);
    }
    size_t target = conditional ? guard.comp()
                                : static_cast<size_t>(*comps.begin());
    for (int32_t c : comps) {
      if (static_cast<size_t>(c) == target) continue;
      MAYWSD_RETURN_IF_ERROR(
          wsd.ComposeInPlace(target, static_cast<size_t>(c)));
      if (target == guard.comp()) selected_valid = false;
    }
    attr_cols.clear();
    for (size_t a : cols) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsd.Locate(FieldKey(rel_sym, t, schema.attr(a).name)));
      attr_cols.emplace_back(a, static_cast<size_t>(loc.col));
    }
    if (conditional && !selected_valid) {
      MAYWSD_ASSIGN_OR_RETURN(selected, guard.Selected(wsd));
      selected_valid = true;
    }
    MAYWSD_RETURN_IF_ERROR(
        apply(wsd.mutable_component(target), attr_cols, selected));
  }
  return Status::Ok();
}

/// Fills `row` with local world `w`'s values of the columns in
/// `attr_cols`; false when the tuple is absent there (some value is ⊥).
bool LoadWorldRow(const Component& comp, size_t w,
                  const std::vector<std::pair<size_t, size_t>>& attr_cols,
                  std::vector<rel::Value>& row) {
  for (const auto& [a, col] : attr_cols) {
    row[a] = comp.at(w, col);
    if (row[a].is_bottom()) return false;
  }
  return true;
}

}  // namespace

Status WsdDeleteWhere(Wsd& wsd, const std::string& rel,
                      const rel::Predicate& pred,
                      const WsdUpdateGuard& guard) {
  if (guard.mode() == WsdUpdateGuard::Mode::kNever) return Status::Ok();
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(rel));
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, r->schema));
  std::vector<size_t> cols = bound.columns();
  // σ_true-style delete: any column works as the deletion mark.
  if (cols.empty()) cols.push_back(0);
  std::vector<rel::Value> row(r->schema.arity());
  return ForEachSlotComposed(
      wsd, *r, cols, guard,
      [&](Component& comp,
          const std::vector<std::pair<size_t, size_t>>& attr_cols,
          const std::vector<bool>& selected) -> Status {
        for (size_t w = 0; w < comp.NumWorlds(); ++w) {
          if (!selected.empty() && !selected[w]) continue;
          if (!LoadWorldRow(comp, w, attr_cols, row)) continue;
          if (bound.Eval(rel::TupleRef(row.data(), row.size()))) {
            for (const auto& [a, col] : attr_cols) {
              comp.at(w, col) = rel::Value::Bottom();
            }
          }
        }
        comp.PropagateBottom();
        return Status::Ok();
      });
}

Status WsdModifyWhere(Wsd& wsd, const std::string& rel,
                      const rel::Predicate& pred,
                      std::span<const rel::Assignment> assignments,
                      const WsdUpdateGuard& guard) {
  if (guard.mode() == WsdUpdateGuard::Mode::kNever) return Status::Ok();
  if (assignments.empty()) return Status::Ok();
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(rel));
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, r->schema));
  std::vector<size_t> cols = bound.columns();
  std::vector<std::pair<size_t, rel::Value>> assigned;  // attr → value
  for (const rel::Assignment& as : assignments) {
    auto idx = r->schema.IndexOf(as.attr);
    if (!idx) {
      return Status::NotFound("attribute " + as.attr + " not in " + rel);
    }
    assigned.emplace_back(*idx, as.value);
    cols.push_back(*idx);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  std::vector<rel::Value> row(r->schema.arity());
  std::vector<std::pair<size_t, rel::Value>> assigned_cols;
  return ForEachSlotComposed(
      wsd, *r, cols, guard,
      [&](Component& comp,
          const std::vector<std::pair<size_t, size_t>>& attr_cols,
          const std::vector<bool>& selected) -> Status {
        assigned_cols.clear();
        for (const auto& [attr, v] : assigned) {
          for (const auto& [a, col] : attr_cols) {
            if (a == attr) {
              assigned_cols.emplace_back(col, v);
              break;
            }
          }
        }
        for (size_t w = 0; w < comp.NumWorlds(); ++w) {
          if (!selected.empty() && !selected[w]) continue;
          if (!LoadWorldRow(comp, w, attr_cols, row)) continue;
          if (bound.Eval(rel::TupleRef(row.data(), row.size()))) {
            for (const auto& [col, v] : assigned_cols) comp.at(w, col) = v;
          }
        }
        return Status::Ok();
      });
}

Status WsdApplyUpdate(Wsd& wsd, const rel::UpdateOp& op,
                      const std::string& guard_rel) {
  WsdUpdateGuard guard = WsdUpdateGuard::Always();
  if (!guard_rel.empty()) {
    MAYWSD_ASSIGN_OR_RETURN(guard, WsdUpdateGuard::Analyze(wsd, guard_rel));
  }
  switch (op.kind()) {
    case rel::UpdateOp::Kind::kInsert:
      return WsdInsertTuples(wsd, op.relation(), op.tuples(), guard);
    case rel::UpdateOp::Kind::kDelete:
      return WsdDeleteWhere(wsd, op.relation(), op.predicate(), guard);
    case rel::UpdateOp::Kind::kModify:
      return WsdModifyWhere(wsd, op.relation(), op.predicate(),
                            op.assignments(), guard);
  }
  return Status::Internal("unknown update kind");
}

}  // namespace maywsd::core
