// Selection predicates: boolean trees over attribute/constant comparisons.
//
// Predicate is an immutable value type (shared subtrees) referencing
// attributes by name; Bind() resolves names against a schema once, yielding
// a BoundPredicate that evaluates per row without lookups.

#ifndef MAYWSD_REL_PREDICATE_H_
#define MAYWSD_REL_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace maywsd::rel {

/// Boolean predicate tree.
class Predicate {
 public:
  enum class Kind : uint8_t { kTrue, kCmpConst, kCmpAttr, kAnd, kOr, kNot };

  /// Always-true predicate (σ_true = identity).
  static Predicate True();
  /// Attribute-θ-constant comparison: `attr θ constant`.
  static Predicate Cmp(std::string attr, CmpOp op, Value constant);
  /// Attribute-θ-attribute comparison: `lhs θ rhs` (join-style condition).
  static Predicate CmpAttr(std::string lhs, CmpOp op, std::string rhs);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);

  /// Conjunction of a list (True when empty).
  static Predicate AndAll(std::vector<Predicate> preds);

  Kind kind() const { return node_->kind; }
  bool is_true() const { return kind() == Kind::kTrue; }

  /// Accessors for leaf comparisons (valid per kind).
  const std::string& lhs_attr() const { return node_->lhs; }
  const std::string& rhs_attr() const { return node_->rhs; }
  CmpOp op() const { return node_->op; }
  const Value& constant() const { return node_->constant; }

  /// Children for kAnd/kOr/kNot.
  const Predicate& left() const { return *node_->left; }
  const Predicate& right() const { return *node_->right; }

  /// Names of all attributes referenced by the predicate.
  std::vector<std::string> ReferencedAttributes() const;

  /// Splits a conjunction into its flat list of conjuncts.
  std::vector<Predicate> Conjuncts() const;

  /// True when both values wrap the same underlying node; identity fast
  /// path for PredicateEqual.
  bool SharesNodeWith(const Predicate& o) const { return node_ == o.node_; }

  std::string ToString() const;

 private:
  struct Node {
    Kind kind = Kind::kTrue;
    std::string lhs;
    std::string rhs;
    CmpOp op = CmpOp::kEq;
    Value constant;
    std::shared_ptr<const Predicate> left;
    std::shared_ptr<const Predicate> right;
  };

  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Kleene three-valued truth over template rows: '?' fields are unknown.
enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

/// A predicate with attribute references resolved to column indexes.
/// Bind once per operator call; evaluation then does no name lookups.
class BoundPredicate {
 public:
  /// One node of the flattened tree; children precede their parent.
  struct Node {
    Predicate::Kind kind = Predicate::Kind::kTrue;
    CmpOp cmp = CmpOp::kEq;
    size_t lhs_col = 0;
    size_t rhs_col = 0;
    Value constant;
    // Children are indexes into nodes().
    int left = -1;
    int right = -1;
  };

  /// Resolves `pred` against `schema`; NotFound on unknown attributes.
  static Result<BoundPredicate> Bind(const Predicate& pred,
                                     const Schema& schema);

  /// Evaluates the predicate on one row. '?' and ⊥ compare as ordinary
  /// markers (equal only to themselves), so a per-world check runs this on
  /// a template row whose '?' columns hold the local world's values.
  bool Eval(TupleRef row) const { return EvalNode(root_, row); }

  /// Three-valued evaluation on a template row: a comparison reading a '?'
  /// field is unknown; And/Or/Not follow Kleene logic.
  Tri EvalTri(TupleRef row) const { return EvalTriNode(root_, row); }

  /// Distinct columns the predicate reads, ascending.
  const std::vector<size_t>& columns() const { return columns_; }

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }

 private:
  bool EvalNode(int node, TupleRef row) const;
  Tri EvalTriNode(int node, TupleRef row) const;

  std::vector<Node> nodes_;
  std::vector<size_t> columns_;
  int root_ = -1;
};

}  // namespace maywsd::rel

#endif  // MAYWSD_REL_PREDICATE_H_
