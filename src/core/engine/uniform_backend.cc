#include "core/engine/uniform_backend.h"

#include "core/engine/shard_plan.h"
#include "core/uniform.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_confidence.h"
#include "core/wsdt_update.h"

namespace maywsd::core::engine {

namespace {

bool IsSystemRelation(const std::string& name) {
  return name == kUniformC || name == kUniformF || name == kUniformW;
}

}  // namespace

bool UniformBackend::HasRelation(const std::string& name) const {
  return !IsSystemRelation(name) && db_->Contains(name);
}

std::vector<std::string> UniformBackend::RelationNames() const {
  std::vector<std::string> names;
  for (const std::string& name : db_->Names()) {
    if (!IsSystemRelation(name)) names.push_back(name);
  }
  return names;
}

Result<rel::Schema> UniformBackend::RelationSchema(
    const std::string& name) const {
  if (IsSystemRelation(name)) {
    return Status::NotFound("relation " + name + " is a system relation");
  }
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db_->GetRelation(name));
  auto tid_idx = tmpl->schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + name +
                                   " lacks a leading TID column");
  }
  // The certain schema the driver reasons about excludes the TID column.
  return rel::Schema(std::vector<rel::Attribute>(
      tmpl->schema().attrs().begin() + 1, tmpl->schema().attrs().end()));
}

Status UniformBackend::AddCertainRelation(const rel::Relation& relation) {
  if (IsSystemRelation(relation.name())) {
    return Status::InvalidArgument("relation name " + relation.name() +
                                   " is reserved");
  }
  if (db_->Contains(relation.name())) {
    return Status::AlreadyExists("relation " + relation.name());
  }
  MAYWSD_RETURN_IF_ERROR(CheckCertainRelation(relation));
  std::vector<rel::Attribute> attrs;
  attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
  for (const rel::Attribute& a : relation.schema().attrs()) {
    attrs.push_back(a);
  }
  rel::Relation tmpl{rel::Schema(std::move(attrs)), relation.name()};
  std::vector<rel::Value> row(tmpl.arity());
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    row[0] = rel::Value::Int(static_cast<int64_t>(r));
    for (size_t a = 0; a < relation.arity(); ++a) {
      row[a + 1] = relation.row(r)[a];
    }
    tmpl.AppendRow(row);
  }
  return db_->AddRelation(std::move(tmpl));
}

Status UniformBackend::Copy(const std::string& src, const std::string& out) {
  return UniformCopy(*db_, src, out);
}

Status UniformBackend::SelectConst(const std::string& src,
                                   const std::string& out,
                                   const std::string& attr, rel::CmpOp op,
                                   const rel::Value& constant) {
  return UniformSelectConst(*db_, src, out, attr, op, constant);
}

Status UniformBackend::SelectAttrAttr(const std::string& src,
                                      const std::string& out,
                                      const std::string& attr_a, rel::CmpOp op,
                                      const std::string& attr_b) {
  return UniformSelectAttrAttr(*db_, src, out, attr_a, op, attr_b);
}

Status UniformBackend::Product(const std::string& left,
                               const std::string& right,
                               const std::string& out) {
  return UniformProduct(*db_, left, right, out);
}

Status UniformBackend::Union(const std::string& left, const std::string& right,
                             const std::string& out) {
  return UniformUnion(*db_, left, right, out);
}

Status UniformBackend::Project(const std::string& src, const std::string& out,
                               const std::vector<std::string>& attrs) {
  Status st = UniformProject(*db_, src, out, attrs);
  if (st.code() != StatusCode::kUnsupported) return st;
  // A dropped placeholder carries ⊥ (conditional presence): compose in the
  // template semantics instead.
  return Fallback(
      [&](Wsdt& wsdt) { return WsdtProject(wsdt, src, out, attrs); });
}

Status UniformBackend::Rename(
    const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  return UniformRename(*db_, src, out, renames);
}

Status UniformBackend::Difference(const std::string& left,
                                  const std::string& right,
                                  const std::string& out) {
  Status st = UniformDifference(*db_, left, right, out);
  if (st.code() != StatusCode::kUnsupported) return st;
  // A placeholder row may match the other side: subtract per local world
  // in the template semantics.
  return Fallback(
      [&](Wsdt& wsdt) { return WsdtDifference(wsdt, left, right, out); });
}

Status UniformBackend::ApplyUpdate(const rel::UpdateOp& op,
                                   const std::string& guard) {
  if (guard.empty()) {
    // The purely relational fragment runs directly on the store.
    Status st;
    switch (op.kind()) {
      case rel::UpdateOp::Kind::kInsert:
        return UniformInsert(*db_, op.relation(), op.tuples());
      case rel::UpdateOp::Kind::kDelete:
        st = UniformDeleteWhere(*db_, op.relation(), op.predicate());
        break;
      case rel::UpdateOp::Kind::kModify:
        st = UniformModifyWhere(*db_, op.relation(), op.predicate(),
                                op.assignments());
        break;
    }
    if (st.code() != StatusCode::kUnsupported) return st;
  }
  // World-conditional updates and '?'-cell mutations compose components:
  // one import → WSDT update → export round trip, like the query fallback.
  return Fallback(
      [&](Wsdt& wsdt) { return WsdtApplyUpdate(wsdt, op, guard); });
}

Status UniformBackend::Drop(const std::string& name) {
  return UniformDrop(*db_, name);
}

void UniformBackend::Compact() { (void)UniformCompact(*db_); }

Result<rel::Relation> UniformBackend::PossibleTuples(
    const std::string& relation) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Import(relation));
  return WsdtPossibleTuples(wsdt, relation);
}

Result<rel::Relation> UniformBackend::PossibleTuplesWithConfidence(
    const std::string& relation) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Import(relation));
  return WsdtPossibleTuplesWithConfidence(wsdt, relation);
}

Result<rel::Relation> UniformBackend::CertainTuples(
    const std::string& relation) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Import(relation));
  return WsdtCertainTuples(wsdt, relation);
}

Result<double> UniformBackend::TupleConfidence(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Import(relation));
  return WsdtTupleConfidence(wsdt, relation, tuple);
}

Result<bool> UniformBackend::TupleCertain(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, Import(relation));
  return WsdtTupleCertain(wsdt, relation, tuple);
}

Result<bool> UniformBackend::RelationCertain(const std::string& name) const {
  if (IsSystemRelation(name)) return false;
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db_->GetRelation(name));
  return TemplateIsCertain(*tmpl);
}

Result<std::unique_ptr<ShardPlan>> UniformBackend::PlanShards(
    const ShardRequest& req) {
  return MakeUniformShardPlan(*db_, req);
}

Result<Wsdt> UniformBackend::Import(const std::string& relation) const {
  // C/F/W are not answerable relations (NotFound, like unknown names).
  if (IsSystemRelation(relation)) {
    return Status::NotFound("template relation " + relation);
  }
  return ImportUniform(*db_, {relation});
}

Status UniformBackend::Fallback(const std::function<Status(Wsdt&)>& op) {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUniform(*db_));
  MAYWSD_RETURN_IF_ERROR(op(wsdt));
  MAYWSD_ASSIGN_OR_RETURN(rel::Database out, ExportUniform(wsdt));
  *db_ = std::move(out);
  ++round_trips_;
  return Status::Ok();
}

}  // namespace maywsd::core::engine
