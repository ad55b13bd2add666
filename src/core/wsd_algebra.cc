#include "core/wsd_algebra.h"

#include <algorithm>
#include <set>

#include "core/engine/plan_driver.h"
#include "core/engine/wsdt_backend.h"
#include "core/wsdt.h"
#include "core/wsdt_algebra.h"

namespace maywsd::core {

namespace {

/// Fields of relation `rel` for slot `tid`, one per schema attribute, in
/// schema order; empty if the slot was removed.
std::vector<FieldKey> SlotFields(const Wsd& wsd, const WsdRelation& rel,
                                 TupleId tid) {
  std::vector<FieldKey> out;
  for (size_t a = 0; a < rel.schema.arity(); ++a) {
    FieldKey f(rel.name_sym, tid, rel.schema.attr(a).name);
    if (!wsd.HasField(f)) return {};
    out.push_back(f);
  }
  return out;
}

/// Copies the presence ("exists") fields of slot (src, src_tid) to slot
/// (out, out_tid), creating fresh presence attributes on `out`.
Status CopyPresenceFields(Wsd& wsd, const WsdRelation& src_rel,
                          TupleId src_tid, const std::string& out,
                          TupleId out_tid) {
  for (const FieldKey& pf : wsd.PresenceFieldsOfTuple(src_rel, src_tid)) {
    MAYWSD_ASSIGN_OR_RETURN(FieldKey dst, wsd.MakePresenceField(out, out_tid));
    MAYWSD_RETURN_IF_ERROR(wsd.CopyFieldInto(pf, dst));
  }
  return Status::Ok();
}

}  // namespace

Status WsdCopy(Wsd& wsd, const std::string& src, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(src));
  rel::Schema schema = r->schema;
  TupleId max_tuples = r->max_tuples;
  Symbol src_sym = r->name_sym;
  MAYWSD_RETURN_IF_ERROR(wsd.AddRelation(out, schema, max_tuples));
  Symbol out_sym = InternString(out);
  for (TupleId t = 0; t < max_tuples; ++t) {
    bool present = false;
    for (size_t a = 0; a < schema.arity(); ++a) {
      FieldKey sf(src_sym, t, schema.attr(a).name);
      if (!wsd.HasField(sf)) continue;  // removed slot stays removed
      present = true;
      MAYWSD_RETURN_IF_ERROR(
          wsd.CopyFieldInto(sf, FieldKey(out_sym, t, schema.attr(a).name)));
    }
    if (present) {
      MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* src_rel,
                              wsd.FindRelation(src));
      MAYWSD_RETURN_IF_ERROR(CopyPresenceFields(wsd, *src_rel, t, out, t));
    }
  }
  return Status::Ok();
}

Status WsdSelectConst(Wsd& wsd, const std::string& src, const std::string& out,
                      const std::string& attr, rel::CmpOp op,
                      const rel::Value& constant) {
  MAYWSD_RETURN_IF_ERROR(WsdCopy(wsd, src, out));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(out));
  if (!r->schema.Contains(attr)) {
    return Status::NotFound("no attribute " + attr + " in " + src);
  }
  Symbol attr_sym = InternString(attr);
  for (TupleId t = 0; t < r->max_tuples; ++t) {
    FieldKey f(r->name_sym, t, attr_sym);
    auto loc_or = wsd.Locate(f);
    if (!loc_or.ok()) continue;  // removed slot
    FieldLoc loc = loc_or.value();
    Component& comp = wsd.mutable_component(loc.comp);
    size_t col = static_cast<size_t>(loc.col);
    // Certain column: one evaluation decides every local world. A pass is
    // a no-op (no forcing, no write); a fail deletes the tuple everywhere.
    if (const rel::Value* cv = comp.ColumnConstantValue(col)) {
      if (cv->Satisfies(op, constant)) continue;
    }
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (!comp.at(w, col).Satisfies(op, constant)) {
        comp.at(w, col) = rel::Value::Bottom();
      }
    }
    comp.PropagateBottom();
  }
  return Status::Ok();
}

Status WsdSelectAttrAttr(Wsd& wsd, const std::string& src,
                         const std::string& out, const std::string& attr_a,
                         rel::CmpOp op, const std::string& attr_b) {
  MAYWSD_RETURN_IF_ERROR(WsdCopy(wsd, src, out));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(out));
  if (!r->schema.Contains(attr_a) || !r->schema.Contains(attr_b)) {
    return Status::NotFound("no attribute " + attr_a + "/" + attr_b + " in " +
                            src);
  }
  Symbol a_sym = InternString(attr_a);
  Symbol b_sym = InternString(attr_b);
  for (TupleId t = 0; t < r->max_tuples; ++t) {
    FieldKey fa(r->name_sym, t, a_sym);
    FieldKey fb(r->name_sym, t, b_sym);
    auto la_or = wsd.Locate(fa);
    if (!la_or.ok()) continue;
    FieldLoc la = la_or.value();
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc lb, wsd.Locate(fb));
    if (la.comp != lb.comp) {
      // Certain-column fast paths: a ⊥ in any one field deletes the tuple
      // (EnumerateWorlds), so the predicate can be decided — and a failing
      // world marked — inside a single component, with no compose.
      const Component& ca_ref = wsd.component(la.comp);
      const Component& cb_ref = wsd.component(lb.comp);
      const rel::Value* av =
          ca_ref.ColumnConstantValue(static_cast<size_t>(la.col));
      const rel::Value* bv =
          cb_ref.ColumnConstantValue(static_cast<size_t>(lb.col));
      if (av != nullptr && bv != nullptr) {
        if (av->Satisfies(op, *bv)) continue;  // holds in every world
        // Fails everywhere: delete the tuple in all of A's local worlds.
        Component& comp = wsd.mutable_component(la.comp);
        size_t col = static_cast<size_t>(la.col);
        for (size_t w = 0; w < comp.NumWorlds(); ++w) {
          comp.at(w, col) = rel::Value::Bottom();
        }
        comp.PropagateBottom();
        continue;
      }
      if (av != nullptr || bv != nullptr) {
        // Exactly one side is certain: the outcome depends only on the
        // uncertain component's local world, so mark ⊥ there.
        const rel::Value* cv = av != nullptr ? av : bv;
        FieldLoc lu = av != nullptr ? lb : la;
        Component& comp = wsd.mutable_component(lu.comp);
        size_t col = static_cast<size_t>(lu.col);
        bool a_const = av != nullptr;
        for (size_t w = 0; w < comp.NumWorlds(); ++w) {
          const rel::Value& uv = comp.at(w, col);
          bool pass = a_const ? cv->Satisfies(op, uv) : uv.Satisfies(op, *cv);
          if (!pass) comp.at(w, col) = rel::Value::Bottom();
        }
        comp.PropagateBottom();
        continue;
      }
      MAYWSD_RETURN_IF_ERROR(
          wsd.ComposeInPlace(static_cast<size_t>(la.comp),
                             static_cast<size_t>(lb.comp)));
      MAYWSD_ASSIGN_OR_RETURN(la, wsd.Locate(fa));
      MAYWSD_ASSIGN_OR_RETURN(lb, wsd.Locate(fb));
    }
    Component& comp = wsd.mutable_component(la.comp);
    size_t ca = static_cast<size_t>(la.col);
    size_t cb = static_cast<size_t>(lb.col);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (!comp.at(w, ca).Satisfies(op, comp.at(w, cb))) {
        comp.at(w, ca) = rel::Value::Bottom();
      }
    }
    comp.PropagateBottom();
  }
  return Status::Ok();
}

Status WsdProduct(Wsd& wsd, const std::string& left, const std::string& right,
                  const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* l, wsd.FindRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(right));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema,
                          l->schema.Concat(r->schema));
  TupleId lmax = l->max_tuples;
  TupleId rmax = r->max_tuples;
  rel::Schema l_schema = l->schema;
  rel::Schema r_schema = r->schema;
  MAYWSD_RETURN_IF_ERROR(wsd.AddRelation(out, out_schema, lmax * rmax));
  Symbol out_sym = InternString(out);
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* l2, wsd.FindRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r2, wsd.FindRelation(right));
  for (TupleId i = 0; i < lmax; ++i) {
    std::vector<FieldKey> lf = SlotFields(wsd, *l2, i);
    if (lf.empty()) continue;
    for (TupleId j = 0; j < rmax; ++j) {
      std::vector<FieldKey> rf = SlotFields(wsd, *r2, j);
      if (rf.empty()) continue;
      TupleId tij = i * rmax + j;
      for (size_t a = 0; a < l_schema.arity(); ++a) {
        MAYWSD_RETURN_IF_ERROR(wsd.CopyFieldInto(
            lf[a], FieldKey(out_sym, tij, l_schema.attr(a).name)));
      }
      for (size_t a = 0; a < r_schema.arity(); ++a) {
        MAYWSD_RETURN_IF_ERROR(wsd.CopyFieldInto(
            rf[a], FieldKey(out_sym, tij, r_schema.attr(a).name)));
      }
      // tᵢⱼ exists iff both factors exist: inherit both presence sets.
      MAYWSD_RETURN_IF_ERROR(CopyPresenceFields(wsd, *l2, i, out, tij));
      MAYWSD_RETURN_IF_ERROR(CopyPresenceFields(wsd, *r2, j, out, tij));
    }
  }
  return Status::Ok();
}

Status WsdUnion(Wsd& wsd, const std::string& left, const std::string& right,
                const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* l, wsd.FindRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(right));
  if (l->schema != r->schema) {
    return Status::InvalidArgument("union of incompatible schemas: " +
                                   l->schema.ToString() + " vs " +
                                   r->schema.ToString());
  }
  rel::Schema schema = l->schema;
  TupleId lmax = l->max_tuples;
  TupleId rmax = r->max_tuples;
  MAYWSD_RETURN_IF_ERROR(wsd.AddRelation(out, schema, lmax + rmax));
  Symbol out_sym = InternString(out);
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* l2, wsd.FindRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r2, wsd.FindRelation(right));
  for (TupleId i = 0; i < lmax; ++i) {
    std::vector<FieldKey> lf = SlotFields(wsd, *l2, i);
    if (lf.empty()) continue;
    for (size_t a = 0; a < schema.arity(); ++a) {
      MAYWSD_RETURN_IF_ERROR(wsd.CopyFieldInto(
          lf[a], FieldKey(out_sym, i, schema.attr(a).name)));
    }
    MAYWSD_RETURN_IF_ERROR(CopyPresenceFields(wsd, *l2, i, out, i));
  }
  for (TupleId j = 0; j < rmax; ++j) {
    std::vector<FieldKey> rf = SlotFields(wsd, *r2, j);
    if (rf.empty()) continue;
    for (size_t a = 0; a < schema.arity(); ++a) {
      MAYWSD_RETURN_IF_ERROR(wsd.CopyFieldInto(
          rf[a], FieldKey(out_sym, lmax + j, schema.attr(a).name)));
    }
    MAYWSD_RETURN_IF_ERROR(CopyPresenceFields(wsd, *r2, j, out, lmax + j));
  }
  return Status::Ok();
}

Status WsdProject(Wsd& wsd, const std::string& src, const std::string& out,
                  const std::vector<std::string>& attrs) {
  MAYWSD_RETURN_IF_ERROR(WsdCopy(wsd, src, out));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(out));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema, r->schema.Project(attrs));
  Symbol out_sym = r->name_sym;
  TupleId max_tuples = r->max_tuples;
  rel::Schema full_schema = r->schema;

  std::set<Symbol> keep;
  for (const std::string& a : attrs) keep.insert(InternString(a));
  std::vector<Symbol> drop_attrs;
  for (size_t a = 0; a < full_schema.arity(); ++a) {
    Symbol s = full_schema.attr(a).name;
    if (!keep.count(s)) drop_attrs.push_back(s);
  }

  for (TupleId t = 0; t < max_tuples; ++t) {
    // Skip removed slots.
    FieldKey probe(out_sym, t, full_schema.attr(0).name);
    if (!wsd.HasField(probe)) continue;

    // Fixpoint: while some dropped attribute with a ⊥ lives outside every
    // kept component of this tuple, compose it into the first kept one
    // (Figure 9's project[U] inner loop).
    while (true) {
      std::set<int32_t> keep_comps;
      for (Symbol a : keep) {
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc,
                                wsd.Locate(FieldKey(out_sym, t, a)));
        keep_comps.insert(loc.comp);
      }
      bool composed = false;
      for (Symbol b : drop_attrs) {
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc,
                                wsd.Locate(FieldKey(out_sym, t, b)));
        if (keep_comps.count(loc.comp)) continue;
        const Component& comp = wsd.component(loc.comp);
        if (!comp.ColumnHasBottom(static_cast<size_t>(loc.col))) continue;
        MAYWSD_RETURN_IF_ERROR(wsd.ComposeInPlace(
            static_cast<size_t>(*keep_comps.begin()),
            static_cast<size_t>(loc.comp)));
        composed = true;
        break;
      }
      if (!composed) break;
    }

    // Propagate ⊥ within every component touching this tuple, so dropping
    // the non-projected columns cannot resurrect deleted tuples.
    std::set<int32_t> tuple_comps;
    for (size_t a = 0; a < full_schema.arity(); ++a) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc,
          wsd.Locate(FieldKey(out_sym, t, full_schema.attr(a).name)));
      tuple_comps.insert(loc.comp);
    }
    for (int32_t c : tuple_comps) {
      wsd.mutable_component(static_cast<size_t>(c)).PropagateBottom();
    }
    for (Symbol b : drop_attrs) {
      MAYWSD_RETURN_IF_ERROR(wsd.DropField(FieldKey(out_sym, t, b)));
    }
  }
  return wsd.UpdateRelationSchema(out, out_schema);
}

Status WsdProjectExists(Wsd& wsd, const std::string& src,
                        const std::string& out,
                        const std::vector<std::string>& attrs) {
  MAYWSD_RETURN_IF_ERROR(WsdCopy(wsd, src, out));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(out));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema, r->schema.Project(attrs));
  Symbol out_sym = r->name_sym;
  TupleId max_tuples = r->max_tuples;
  rel::Schema full_schema = r->schema;

  std::set<Symbol> keep;
  for (const std::string& a : attrs) keep.insert(InternString(a));
  std::vector<Symbol> drop_attrs;
  for (size_t a = 0; a < full_schema.arity(); ++a) {
    Symbol s = full_schema.attr(a).name;
    if (!keep.count(s)) drop_attrs.push_back(s);
  }

  for (TupleId t = 0; t < max_tuples; ++t) {
    FieldKey probe(out_sym, t, full_schema.attr(0).name);
    if (!wsd.HasField(probe)) continue;

    std::set<int32_t> keep_comps;
    for (Symbol a : keep) {
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc,
                              wsd.Locate(FieldKey(out_sym, t, a)));
      keep_comps.insert(loc.comp);
    }
    for (Symbol b : drop_attrs) {
      FieldKey f(out_sym, t, b);
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f));
      Component& comp = wsd.mutable_component(loc.comp);
      size_t col = static_cast<size_t>(loc.col);
      if (comp.ColumnHasBottom(col) && !keep_comps.count(loc.comp)) {
        // Keep the ⊥ pattern as an extra-schema presence field: rename the
        // column in place and collapse its values to a marker.
        MAYWSD_ASSIGN_OR_RETURN(FieldKey pf, wsd.MakePresenceField(out, t));
        MAYWSD_RETURN_IF_ERROR(wsd.RenameField(f, pf));
        for (size_t w = 0; w < comp.NumWorlds(); ++w) {
          if (!comp.at(w, col).is_bottom()) {
            comp.at(w, col) = rel::Value::Int(1);
          }
        }
      } else {
        // ⊥s (if any) live next to kept fields: propagate, then drop.
        comp.PropagateBottom();
        MAYWSD_RETURN_IF_ERROR(wsd.DropField(f));
      }
    }
  }
  return wsd.UpdateRelationSchema(out, out_schema);
}

Status WsdRename(Wsd& wsd, const std::string& src, const std::string& out,
                 const std::vector<std::pair<std::string, std::string>>&
                     renames) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(src));
  rel::Schema out_schema = r->schema;
  for (const auto& [from, to] : renames) {
    MAYWSD_ASSIGN_OR_RETURN(out_schema, out_schema.Rename(from, to));
  }
  rel::Schema src_schema = r->schema;
  Symbol src_sym = r->name_sym;
  TupleId max_tuples = r->max_tuples;
  MAYWSD_RETURN_IF_ERROR(wsd.AddRelation(out, out_schema, max_tuples));
  Symbol out_sym = InternString(out);
  for (TupleId t = 0; t < max_tuples; ++t) {
    bool present = false;
    for (size_t a = 0; a < src_schema.arity(); ++a) {
      FieldKey sf(src_sym, t, src_schema.attr(a).name);
      if (!wsd.HasField(sf)) continue;
      present = true;
      MAYWSD_RETURN_IF_ERROR(wsd.CopyFieldInto(
          sf, FieldKey(out_sym, t, out_schema.attr(a).name)));
    }
    if (present) {
      MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* src_rel,
                              wsd.FindRelation(src));
      MAYWSD_RETURN_IF_ERROR(CopyPresenceFields(wsd, *src_rel, t, out, t));
    }
  }
  return Status::Ok();
}

Status WsdDifference(Wsd& wsd, const std::string& left,
                     const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Wsdt::FromWsd(wsd));
  MAYWSD_RETURN_IF_ERROR(WsdtDifference(wsdt, left, right, out));
  MAYWSD_ASSIGN_OR_RETURN(wsd, wsdt.ToWsd());
  return Status::Ok();
}

Status WsdEvaluate(Wsd& wsd, const rel::Plan& plan, const std::string& out,
                   bool keep_temps) {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Wsdt::FromWsd(wsd));
  engine::WsdtBackend backend(wsdt);
  MAYWSD_RETURN_IF_ERROR(engine::Evaluate(backend, plan, out, keep_temps));
  MAYWSD_ASSIGN_OR_RETURN(wsd, wsdt.ToWsd());
  return Status::Ok();
}

}  // namespace maywsd::core
