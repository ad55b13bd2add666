// TracedOps: a forwarding core::engine::WorldSetOps that wraps a backend
// and records one span per operator call.
//
// The traced census_query run sends each plan through
// core::engine::Evaluate over a TracedOps wrapping the session's own
// backend, so the engine's lowering is exactly the one Session::Run uses
// at threads=1: every Supports* capability and the sharding surface are
// forwarded unchanged. Each Figure 9 operator call is counted (always) and
// timed as a span "engine.op.<op>" when the calling thread is tracing a
// request (ScopedRequest in harness.h).

#ifndef PERFBENCH_TRACED_OPS_H_
#define PERFBENCH_TRACED_OPS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine/world_set_ops.h"

namespace perfbench {

/// The operator calls TracedOps counts and times, in report order.
enum class Op {
  kSelectConst,
  kSelectAttr,
  kSelectPred,
  kProject,
  kProjectExists,
  kHashJoin,
  kProduct,
  kUnion,
  kDifference,
  kRename,
  kCopy,
  kDrop,
};
inline constexpr size_t kNumOps = 12;

/// "select_const", "hash_join", ... — the <op> of engine.op_ms.<op>.*.
std::string_view OpName(Op op);

class TracedOps : public maywsd::core::engine::WorldSetOps {
 public:
  /// Wraps `inner`, which must outlive this object.
  explicit TracedOps(maywsd::core::engine::WorldSetOps& inner)
      : inner_(&inner) {}

  /// Calls per operator since construction (or the last ResetCounts).
  const std::array<uint64_t, kNumOps>& calls() const { return calls_; }
  void ResetCounts() { calls_.fill(0); }

  std::string_view BackendName() const override;
  bool HasRelation(const std::string& name) const override;
  std::vector<std::string> RelationNames() const override;
  maywsd::Result<maywsd::rel::Schema> RelationSchema(
      const std::string& name) const override;
  maywsd::Status AddCertainRelation(
      const maywsd::rel::Relation& relation) override;

  maywsd::Status Copy(const std::string& src, const std::string& out) override;
  maywsd::Status SelectConst(const std::string& src, const std::string& out,
                             const std::string& attr, maywsd::rel::CmpOp op,
                             const maywsd::rel::Value& constant) override;
  maywsd::Status SelectAttrAttr(const std::string& src, const std::string& out,
                                const std::string& attr_a,
                                maywsd::rel::CmpOp op,
                                const std::string& attr_b) override;
  maywsd::Status Product(const std::string& left, const std::string& right,
                         const std::string& out) override;
  maywsd::Status Union(const std::string& left, const std::string& right,
                       const std::string& out) override;
  maywsd::Status Project(const std::string& src, const std::string& out,
                         const std::vector<std::string>& attrs) override;
  maywsd::Status Rename(
      const std::string& src, const std::string& out,
      const std::vector<std::pair<std::string, std::string>>& renames)
      override;
  maywsd::Status Difference(const std::string& left, const std::string& right,
                            const std::string& out) override;
  maywsd::Status Drop(const std::string& name) override;
  void Compact() override;

  maywsd::Result<maywsd::rel::Relation> PossibleTuples(
      const std::string& relation) const override;
  maywsd::Result<maywsd::rel::Relation> PossibleTuplesWithConfidence(
      const std::string& relation) const override;
  maywsd::Result<maywsd::rel::Relation> CertainTuples(
      const std::string& relation) const override;
  maywsd::Result<double> TupleConfidence(
      const std::string& relation,
      std::span<const maywsd::rel::Value> tuple) const override;
  maywsd::Result<bool> TupleCertain(
      const std::string& relation,
      std::span<const maywsd::rel::Value> tuple) const override;

  maywsd::Status ApplyUpdate(const maywsd::rel::UpdateOp& op,
                             const std::string& guard) override;
  uint64_t RoundTrips() const override;

  bool SupportsPredicateSelect() const override;
  maywsd::Status SelectPredicate(const std::string& src,
                                 const std::string& out,
                                 const maywsd::rel::Predicate& pred) override;
  bool SupportsProjectExists() const override;
  maywsd::Status ProjectExists(const std::string& src, const std::string& out,
                               const std::vector<std::string>& attrs) override;
  bool SupportsHashJoin() const override;
  maywsd::Status HashJoin(const std::string& left, const std::string& right,
                          const std::string& out, const std::string& left_attr,
                          const std::string& right_attr) override;

  bool ShardableOperator(maywsd::rel::Plan::Kind kind) const override;
  maywsd::Result<bool> RelationCertain(const std::string& name) const override;
  maywsd::Result<std::unique_ptr<maywsd::core::engine::ShardPlan>> PlanShards(
      const maywsd::core::engine::ShardRequest& req) override;

 private:
  template <typename Fn>
  maywsd::Status Timed(Op op, Fn&& fn);

  maywsd::core::engine::WorldSetOps* inner_;
  std::array<uint64_t, kNumOps> calls_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_OPS_H_
