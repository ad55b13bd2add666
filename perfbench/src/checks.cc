#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "workloads.h"

namespace perfbench {

using maywsd::rel::Relation;
using maywsd::rel::Value;

std::string CompareSets(const Relation& a, const Relation& b) {
  if (a.EqualsAsSet(b)) return "";
  return "answers differ (" + std::to_string(a.NumRows()) + " vs " +
         std::to_string(b.NumRows()) + " rows)";
}

namespace {

/// Tuple (without its trailing conf column) → confidence.
std::map<std::vector<Value>, double> ConfMap(const Relation& pc) {
  std::map<std::vector<Value>, double> out;
  size_t arity = pc.arity() - 1;
  for (size_t r = 0; r < pc.NumRows(); ++r) {
    auto row = pc.row(r);
    out[std::vector<Value>(row.data(), row.data() + arity)] =
        row[arity].AsDouble();
  }
  return out;
}

}  // namespace

std::string CompareConfidences(const Relation& a, const Relation& b,
                               double tolerance) {
  if (a.arity() != b.arity() || a.arity() == 0) return "conf schemas differ";
  auto ma = ConfMap(a);
  auto mb = ConfMap(b);
  if (ma.size() != mb.size()) {
    return "possible tuples differ (" + std::to_string(ma.size()) + " vs " +
           std::to_string(mb.size()) + ")";
  }
  for (const auto& [tuple, conf] : ma) {
    auto it = mb.find(tuple);
    if (it == mb.end()) return "possible tuples differ";
    if (std::fabs(it->second - conf) > tolerance) {
      return "confidences differ (" + std::to_string(conf) + " vs " +
             std::to_string(it->second) + ")";
    }
  }
  return "";
}

std::string CheckSubset(const Relation& certain, const Relation& possible) {
  size_t arity = certain.arity();
  if (possible.arity() < arity) return "certain wider than possible";
  std::vector<std::vector<Value>> rows;
  rows.reserve(possible.NumRows());
  for (size_t r = 0; r < possible.NumRows(); ++r) {
    auto row = possible.row(r);
    rows.emplace_back(row.data(), row.data() + arity);
  }
  std::sort(rows.begin(), rows.end());
  for (size_t r = 0; r < certain.NumRows(); ++r) {
    auto row = certain.row(r);
    std::vector<Value> t(row.data(), row.data() + arity);
    if (!std::binary_search(rows.begin(), rows.end(), t)) {
      return "a certain tuple is not possible";
    }
  }
  return "";
}

}  // namespace perfbench
