#include "traced_ops.h"

#include "harness.h"

namespace perfbench {

using maywsd::Result;
using maywsd::Status;
namespace rel = maywsd::rel;
namespace engine = maywsd::core::engine;

std::string_view OpName(Op op) {
  static constexpr std::array<std::string_view, kNumOps> kNames = {
      "select_const", "select_attr", "select_pred", "project",
      "project_exists", "hash_join", "product", "union",
      "difference", "rename", "copy", "drop"};
  return kNames[static_cast<size_t>(op)];
}

template <typename Fn>
Status TracedOps::Timed(Op op, Fn&& fn) {
  calls_[static_cast<size_t>(op)]++;
  SpanScope span("engine.op." + std::string(OpName(op)));
  return fn();
}

std::string_view TracedOps::BackendName() const {
  return inner_->BackendName();
}
bool TracedOps::HasRelation(const std::string& name) const {
  return inner_->HasRelation(name);
}
std::vector<std::string> TracedOps::RelationNames() const {
  return inner_->RelationNames();
}
Result<rel::Schema> TracedOps::RelationSchema(const std::string& name) const {
  return inner_->RelationSchema(name);
}
Status TracedOps::AddCertainRelation(const rel::Relation& relation) {
  return inner_->AddCertainRelation(relation);
}

Status TracedOps::Copy(const std::string& src, const std::string& out) {
  return Timed(Op::kCopy, [&] { return inner_->Copy(src, out); });
}
Status TracedOps::SelectConst(const std::string& src, const std::string& out,
                              const std::string& attr, rel::CmpOp op,
                              const rel::Value& constant) {
  return Timed(Op::kSelectConst, [&] {
    return inner_->SelectConst(src, out, attr, op, constant);
  });
}
Status TracedOps::SelectAttrAttr(const std::string& src,
                                 const std::string& out,
                                 const std::string& attr_a, rel::CmpOp op,
                                 const std::string& attr_b) {
  return Timed(Op::kSelectAttr, [&] {
    return inner_->SelectAttrAttr(src, out, attr_a, op, attr_b);
  });
}
Status TracedOps::Product(const std::string& left, const std::string& right,
                          const std::string& out) {
  return Timed(Op::kProduct,
               [&] { return inner_->Product(left, right, out); });
}
Status TracedOps::Union(const std::string& left, const std::string& right,
                        const std::string& out) {
  return Timed(Op::kUnion, [&] { return inner_->Union(left, right, out); });
}
Status TracedOps::Project(const std::string& src, const std::string& out,
                          const std::vector<std::string>& attrs) {
  return Timed(Op::kProject,
               [&] { return inner_->Project(src, out, attrs); });
}
Status TracedOps::Rename(
    const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  return Timed(Op::kRename,
               [&] { return inner_->Rename(src, out, renames); });
}
Status TracedOps::Difference(const std::string& left,
                             const std::string& right,
                             const std::string& out) {
  return Timed(Op::kDifference,
               [&] { return inner_->Difference(left, right, out); });
}
Status TracedOps::Drop(const std::string& name) {
  return Timed(Op::kDrop, [&] { return inner_->Drop(name); });
}
void TracedOps::Compact() { inner_->Compact(); }

Result<rel::Relation> TracedOps::PossibleTuples(
    const std::string& relation) const {
  return inner_->PossibleTuples(relation);
}
Result<rel::Relation> TracedOps::PossibleTuplesWithConfidence(
    const std::string& relation) const {
  return inner_->PossibleTuplesWithConfidence(relation);
}
Result<rel::Relation> TracedOps::CertainTuples(
    const std::string& relation) const {
  return inner_->CertainTuples(relation);
}
Result<double> TracedOps::TupleConfidence(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  return inner_->TupleConfidence(relation, tuple);
}
Result<bool> TracedOps::TupleCertain(const std::string& relation,
                                     std::span<const rel::Value> tuple) const {
  return inner_->TupleCertain(relation, tuple);
}

Status TracedOps::ApplyUpdate(const rel::UpdateOp& op,
                              const std::string& guard) {
  return inner_->ApplyUpdate(op, guard);
}
uint64_t TracedOps::RoundTrips() const { return inner_->RoundTrips(); }

bool TracedOps::SupportsPredicateSelect() const {
  return inner_->SupportsPredicateSelect();
}
Status TracedOps::SelectPredicate(const std::string& src,
                                  const std::string& out,
                                  const rel::Predicate& pred) {
  return Timed(Op::kSelectPred,
               [&] { return inner_->SelectPredicate(src, out, pred); });
}
bool TracedOps::SupportsProjectExists() const {
  return inner_->SupportsProjectExists();
}
Status TracedOps::ProjectExists(const std::string& src,
                                const std::string& out,
                                const std::vector<std::string>& attrs) {
  return Timed(Op::kProjectExists,
               [&] { return inner_->ProjectExists(src, out, attrs); });
}
bool TracedOps::SupportsHashJoin() const { return inner_->SupportsHashJoin(); }
Status TracedOps::HashJoin(const std::string& left, const std::string& right,
                           const std::string& out,
                           const std::string& left_attr,
                           const std::string& right_attr) {
  return Timed(Op::kHashJoin, [&] {
    return inner_->HashJoin(left, right, out, left_attr, right_attr);
  });
}

bool TracedOps::ShardableOperator(rel::Plan::Kind kind) const {
  return inner_->ShardableOperator(kind);
}
Result<bool> TracedOps::RelationCertain(const std::string& name) const {
  return inner_->RelationCertain(name);
}
Result<std::unique_ptr<engine::ShardPlan>> TracedOps::PlanShards(
    const engine::ShardRequest& req) {
  return inner_->PlanShards(req);
}

}  // namespace perfbench
