#include "rel/predicate.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace maywsd::rel {

Predicate Predicate::True() {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kTrue;
  return Predicate(std::move(node));
}

Predicate Predicate::Cmp(std::string attr, CmpOp op, Value constant) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCmpConst;
  node->lhs = std::move(attr);
  node->op = op;
  node->constant = constant;
  return Predicate(std::move(node));
}

Predicate Predicate::CmpAttr(std::string lhs, CmpOp op, std::string rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCmpAttr;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  node->op = op;
  return Predicate(std::move(node));
}

Predicate Predicate::And(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = std::make_shared<Predicate>(std::move(a));
  node->right = std::make_shared<Predicate>(std::move(b));
  return Predicate(std::move(node));
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = std::make_shared<Predicate>(std::move(a));
  node->right = std::make_shared<Predicate>(std::move(b));
  return Predicate(std::move(node));
}

Predicate Predicate::Not(Predicate a) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = std::make_shared<Predicate>(std::move(a));
  return Predicate(std::move(node));
}

Predicate Predicate::AndAll(std::vector<Predicate> preds) {
  if (preds.empty()) return True();
  Predicate acc = std::move(preds[0]);
  for (size_t i = 1; i < preds.size(); ++i) {
    acc = And(std::move(acc), std::move(preds[i]));
  }
  return acc;
}

namespace {

void CollectAttributes(const Predicate& p, std::vector<std::string>* out) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return;
    case Predicate::Kind::kCmpConst:
      out->push_back(p.lhs_attr());
      return;
    case Predicate::Kind::kCmpAttr:
      out->push_back(p.lhs_attr());
      out->push_back(p.rhs_attr());
      return;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      CollectAttributes(p.left(), out);
      CollectAttributes(p.right(), out);
      return;
    case Predicate::Kind::kNot:
      CollectAttributes(p.left(), out);
      return;
  }
}

void CollectConjuncts(const Predicate& p, std::vector<Predicate>* out) {
  if (p.kind() == Predicate::Kind::kAnd) {
    CollectConjuncts(p.left(), out);
    CollectConjuncts(p.right(), out);
  } else if (!p.is_true()) {
    out->push_back(p);
  }
}

}  // namespace

std::vector<std::string> Predicate::ReferencedAttributes() const {
  std::vector<std::string> out;
  CollectAttributes(*this, &out);
  return out;
}

std::vector<Predicate> Predicate::Conjuncts() const {
  std::vector<Predicate> out;
  CollectConjuncts(*this, &out);
  return out;
}

std::string Predicate::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::kTrue:
      os << "true";
      break;
    case Kind::kCmpConst:
      os << lhs_attr() << CmpOpName(op()) << constant();
      break;
    case Kind::kCmpAttr:
      os << lhs_attr() << CmpOpName(op()) << rhs_attr();
      break;
    case Kind::kAnd:
      os << "(" << left().ToString() << " AND " << right().ToString() << ")";
      break;
    case Kind::kOr:
      os << "(" << left().ToString() << " OR " << right().ToString() << ")";
      break;
    case Kind::kNot:
      os << "NOT (" << left().ToString() << ")";
      break;
  }
  return os.str();
}

Result<BoundPredicate> BoundPredicate::Bind(const Predicate& pred,
                                            const Schema& schema) {
  BoundPredicate bound;
  Status error = Status::Ok();
  auto resolve = [&](const std::string& name) -> int {
    auto idx = schema.IndexOf(name);
    if (!idx) {
      if (error.ok()) {
        error = Status::NotFound("predicate references unknown attribute " +
                                 name + " in " + schema.ToString());
      }
      return -1;
    }
    bound.columns_.push_back(*idx);
    return static_cast<int>(*idx);
  };
  // Post-order flattening into nodes_; returns the node index or -1 on
  // error. Predicate trees are tiny.
  std::function<int(const Predicate&)> build =
      [&](const Predicate& p) -> int {
    Node node;
    node.kind = p.kind();
    switch (p.kind()) {
      case Predicate::Kind::kTrue:
        break;
      case Predicate::Kind::kCmpConst: {
        int col = resolve(p.lhs_attr());
        if (col < 0) return -1;
        node.lhs_col = static_cast<size_t>(col);
        node.cmp = p.op();
        node.constant = p.constant();
        break;
      }
      case Predicate::Kind::kCmpAttr: {
        int l = resolve(p.lhs_attr());
        int r = resolve(p.rhs_attr());
        if (l < 0 || r < 0) return -1;
        node.lhs_col = static_cast<size_t>(l);
        node.rhs_col = static_cast<size_t>(r);
        node.cmp = p.op();
        break;
      }
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr: {
        node.left = build(p.left());
        node.right = build(p.right());
        if (node.left < 0 || node.right < 0) return -1;
        break;
      }
      case Predicate::Kind::kNot: {
        node.left = build(p.left());
        if (node.left < 0) return -1;
        break;
      }
    }
    bound.nodes_.push_back(std::move(node));
    return static_cast<int>(bound.nodes_.size() - 1);
  };
  bound.root_ = build(pred);
  if (bound.root_ < 0) return error;
  std::sort(bound.columns_.begin(), bound.columns_.end());
  bound.columns_.erase(
      std::unique(bound.columns_.begin(), bound.columns_.end()),
      bound.columns_.end());
  return bound;
}

bool BoundPredicate::EvalNode(int node, TupleRef row) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCmpConst:
      return row[n.lhs_col].Satisfies(n.cmp, n.constant);
    case Predicate::Kind::kCmpAttr:
      return row[n.lhs_col].Satisfies(n.cmp, row[n.rhs_col]);
    case Predicate::Kind::kAnd:
      return EvalNode(n.left, row) && EvalNode(n.right, row);
    case Predicate::Kind::kOr:
      return EvalNode(n.left, row) || EvalNode(n.right, row);
    case Predicate::Kind::kNot:
      return !EvalNode(n.left, row);
  }
  return false;
}

Tri BoundPredicate::EvalTriNode(int node, TupleRef row) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Predicate::Kind::kTrue:
      return Tri::kTrue;
    case Predicate::Kind::kCmpConst: {
      const Value& v = row[n.lhs_col];
      if (v.is_question()) return Tri::kUnknown;
      return v.Satisfies(n.cmp, n.constant) ? Tri::kTrue : Tri::kFalse;
    }
    case Predicate::Kind::kCmpAttr: {
      const Value& l = row[n.lhs_col];
      const Value& r = row[n.rhs_col];
      if (l.is_question() || r.is_question()) return Tri::kUnknown;
      return l.Satisfies(n.cmp, r) ? Tri::kTrue : Tri::kFalse;
    }
    case Predicate::Kind::kAnd: {
      Tri l = EvalTriNode(n.left, row);
      if (l == Tri::kFalse) return Tri::kFalse;
      Tri r = EvalTriNode(n.right, row);
      if (r == Tri::kFalse) return Tri::kFalse;
      return l == Tri::kTrue && r == Tri::kTrue ? Tri::kTrue : Tri::kUnknown;
    }
    case Predicate::Kind::kOr: {
      Tri l = EvalTriNode(n.left, row);
      if (l == Tri::kTrue) return Tri::kTrue;
      Tri r = EvalTriNode(n.right, row);
      if (r == Tri::kTrue) return Tri::kTrue;
      return l == Tri::kFalse && r == Tri::kFalse ? Tri::kFalse
                                                  : Tri::kUnknown;
    }
    case Predicate::Kind::kNot: {
      Tri l = EvalTriNode(n.left, row);
      if (l == Tri::kUnknown) return Tri::kUnknown;
      return l == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
    }
  }
  return Tri::kFalse;
}

}  // namespace maywsd::rel
