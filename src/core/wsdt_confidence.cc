#include "core/wsdt_confidence.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "rel/row_set.h"

namespace maywsd::core {

namespace {

/// (attr index, field location) of each placeholder of one template row.
using Holes = std::vector<std::pair<size_t, FieldLoc>>;

/// A template row with placeholders.
struct UncertainRow {
  size_t row;
  Holes holes;
};

/// The placeholder columns of template row r.
Result<Holes> PlaceholderCols(const Wsdt& wsdt, const rel::Relation& tmpl,
                              Symbol rel_sym, size_t r) {
  Holes out;
  rel::TupleRef row = tmpl.row(r);
  for (size_t a = 0; a < tmpl.arity(); ++a) {
    if (!row[a].is_question()) continue;
    FieldKey f(rel_sym, static_cast<TupleId>(r), tmpl.schema().attr(a).name);
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
    out.emplace_back(a, loc);
  }
  return out;
}

/// The components the holes of `rows` live in (first-appearance order) and,
/// per component, the columns they use.
struct CompColumns {
  std::vector<int32_t> comps;
  std::map<int32_t, std::set<size_t>> cols;

  void Add(const Holes& holes) {
    for (const auto& [attr, loc] : holes) {
      if (std::find(comps.begin(), comps.end(), loc.comp) == comps.end()) {
        comps.push_back(loc.comp);
      }
      cols[loc.comp].insert(static_cast<size_t>(loc.col));
    }
  }
};

/// Composes the projections of the components onto the listed columns,
/// compressing intermediates.
Result<Component> ComposeProjected(const Wsdt& wsdt, const CompColumns& cc) {
  Component acc;
  bool first = true;
  for (int32_t ci : cc.comps) {
    const Component& comp = wsdt.component(static_cast<size_t>(ci));
    const std::set<size_t>& cols = cc.cols.at(ci);
    Component proj = comp.ProjectColumns({cols.begin(), cols.end()});
    proj.Compress();
    if (first) {
      acc = std::move(proj);
      first = false;
    } else {
      if (static_cast<uint64_t>(acc.NumWorlds()) * proj.NumWorlds() >
          kMaxTupleLevelWorlds) {
        return Status::ResourceExhausted(
            "tuple-level normalization exceeds the blow-up guard");
      }
      acc = Component::Compose(acc, proj);
      acc.Compress();
    }
  }
  return acc;
}

/// (attr index, column in a composed component) of each placeholder of one
/// template row; column -1 marks a field the component does not carry.
using HoleCols = std::vector<std::pair<size_t, int>>;

/// The columns in `combined` of the holes of `row`.
HoleCols HoleColumns(const Component& combined, const rel::Relation& tmpl,
                     Symbol rel_sym, const UncertainRow& row) {
  HoleCols out;
  out.reserve(row.holes.size());
  for (const auto& [attr, loc] : row.holes) {
    FieldKey f(rel_sym, static_cast<TupleId>(row.row),
               tmpl.schema().attr(attr).name);
    out.emplace_back(attr, combined.FindField(f));
  }
  return out;
}

/// Union-find over component ids.
class CompUnionFind {
 public:
  int32_t Find(int32_t x) {
    parent_.try_emplace(x, x);
    int32_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      int32_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }
  void Union(int32_t a, int32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::map<int32_t, int32_t> parent_;
};

/// conf(t) given every uncertain template row that may produce `tuple`
/// (none of them certain; the caller has already answered 1 for a certain
/// row equal to `tuple`). Rows are grouped by the components they share;
/// each group's components are composed over the rows' columns and its
/// worlds producing `tuple` summed, and the independent groups combine as
/// 1 − Π(1 − conf_group).
Result<double> ConfidenceOverRows(const Wsdt& wsdt, const rel::Relation& tmpl,
                                  Symbol rel_sym,
                                  std::span<const UncertainRow* const> rows,
                                  std::span<const rel::Value> tuple) {
  CompUnionFind uf;
  for (const UncertainRow* row : rows) {
    for (size_t i = 1; i < row->holes.size(); ++i) {
      uf.Union(row->holes[0].second.comp, row->holes[i].second.comp);
    }
  }
  std::map<int32_t, std::vector<const UncertainRow*>> groups;
  for (const UncertainRow* row : rows) {
    groups[uf.Find(row->holes[0].second.comp)].push_back(row);
  }

  double not_conf = 1.0;
  for (const auto& [root, members] : groups) {
    CompColumns cc;
    for (const UncertainRow* row : members) cc.Add(row->holes);
    MAYWSD_ASSIGN_OR_RETURN(Component combined, ComposeProjected(wsdt, cc));
    std::vector<HoleCols> cols;
    cols.reserve(members.size());
    for (const UncertainRow* row : members) {
      cols.push_back(HoleColumns(combined, tmpl, rel_sym, *row));
    }
    auto produces = [&](size_t w, const HoleCols& hole_cols) {
      for (const auto& [attr, col] : hole_cols) {
        if (col < 0 ||
            !(combined.at(w, static_cast<size_t>(col)) == tuple[attr])) {
          return false;
        }
      }
      return true;
    };
    double conf_c = 0.0;
    for (size_t w = 0; w < combined.NumWorlds(); ++w) {
      for (const HoleCols& hole_cols : cols) {
        if (produces(w, hole_cols)) {
          conf_c += combined.prob(w);
          break;
        }
      }
    }
    not_conf *= (1.0 - conf_c);
  }
  return 1.0 - not_conf;
}

/// One pass over a template: each row instantiated once, the distinct
/// possible tuples grouped by content, and for each tuple whether a
/// certain row produces it and which uncertain rows do.
struct Instantiations {
  const rel::Relation* tmpl = nullptr;
  Symbol rel_sym;
  /// The distinct possible tuples, in first-seen order.
  rel::Relation tuples;
  /// Per tuple: a certain row equals it.
  std::vector<bool> certain;
  std::vector<UncertainRow> uncertain;
  /// (tuple, index into `uncertain`): which uncertain rows produce which
  /// tuple in a world of positive probability; sorted, distinct.
  std::vector<std::pair<uint32_t, uint32_t>> produced;

  /// Tuple numbers in the relation's sort order.
  std::vector<uint32_t> SortedOrder() const {
    std::vector<uint32_t> order(tuples.NumRows());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return tuples.row(a).Compare(tuples.row(b)) < 0;
    });
    return order;
  }
};

Result<Instantiations> Instantiate(const Wsdt& wsdt,
                                   const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                          wsdt.Template(relation));
  const rel::Relation& tmpl = *tmpl_ptr;
  Instantiations inst;
  inst.tmpl = tmpl_ptr;
  inst.rel_sym = InternString(relation);
  inst.tuples = rel::Relation(tmpl.schema());
  rel::RowSet index(inst.tuples);
  std::vector<rel::Value> buf(tmpl.arity());
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef row = tmpl.row(r);
    MAYWSD_ASSIGN_OR_RETURN(Holes holes,
                            PlaceholderCols(wsdt, tmpl, inst.rel_sym, r));
    if (holes.empty()) {
      uint32_t t = index.Insert(row.span()).first;
      if (t >= inst.certain.size()) inst.certain.resize(t + 1);
      inst.certain[t] = true;
      continue;
    }
    auto u = static_cast<uint32_t>(inst.uncertain.size());
    inst.uncertain.push_back({r, std::move(holes)});
    const UncertainRow& urow = inst.uncertain.back();
    CompColumns cc;
    cc.Add(urow.holes);
    MAYWSD_ASSIGN_OR_RETURN(Component combined, ComposeProjected(wsdt, cc));
    auto hole_cols = HoleColumns(combined, tmpl, inst.rel_sym, urow);
    for (size_t a = 0; a < tmpl.arity(); ++a) buf[a] = row[a];
    for (size_t w = 0; w < combined.NumWorlds(); ++w) {
      if (combined.prob(w) <= 0.0) continue;
      bool absent = false;
      for (const auto& [attr, col] : hole_cols) {
        const rel::Value& v = combined.at(w, static_cast<size_t>(col));
        if (v.is_bottom()) {
          absent = true;
          break;
        }
        buf[attr] = v;
      }
      if (!absent) inst.produced.emplace_back(index.Insert(buf).first, u);
    }
  }
  inst.certain.resize(index.size());
  std::sort(inst.produced.begin(), inst.produced.end());
  inst.produced.erase(
      std::unique(inst.produced.begin(), inst.produced.end()),
      inst.produced.end());
  return inst;
}

/// conf of every tuple of `inst`, by tuple number. Tuples a certain row
/// produces have conf 1 without touching a component; the others are
/// computed over the uncertain rows that produce them.
Result<std::vector<double>> Confidences(const Wsdt& wsdt,
                                        const Instantiations& inst) {
  std::vector<double> conf(inst.tuples.NumRows(), 1.0);
  std::vector<const UncertainRow*> rows;
  for (size_t i = 0; i < inst.produced.size();) {
    uint32_t t = inst.produced[i].first;
    rows.clear();
    for (; i < inst.produced.size() && inst.produced[i].first == t; ++i) {
      rows.push_back(&inst.uncertain[inst.produced[i].second]);
    }
    if (inst.certain[t]) continue;
    MAYWSD_ASSIGN_OR_RETURN(
        conf[t], ConfidenceOverRows(wsdt, *inst.tmpl, inst.rel_sym, rows,
                                    inst.tuples.row(t).span()));
  }
  return conf;
}

}  // namespace

Result<double> WsdtTupleConfidence(const Wsdt& wsdt,
                                   const std::string& relation,
                                   std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                          wsdt.Template(relation));
  const rel::Relation& tmpl = *tmpl_ptr;
  if (tuple.size() != tmpl.arity()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  Symbol rel_sym = InternString(relation);

  // Candidate rows: certain attributes equal; placeholder attributes have
  // the probe value among their possible values.
  std::vector<UncertainRow> candidates;
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef row = tmpl.row(r);
    bool possible = true;
    UncertainRow cand{r, {}};
    for (size_t a = 0; a < tmpl.arity() && possible; ++a) {
      if (row[a].is_question()) {
        FieldKey f(rel_sym, static_cast<TupleId>(r),
                   tmpl.schema().attr(a).name);
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
        const Component& comp = wsdt.component(loc.comp);
        size_t col = static_cast<size_t>(loc.col);
        bool found = false;
        for (size_t w = 0; w < comp.NumWorlds() && !found; ++w) {
          if (comp.at(w, col) == tuple[a]) found = true;
        }
        possible = found;
        cand.holes.emplace_back(a, loc);
      } else if (!(row[a] == tuple[a])) {
        possible = false;
      }
    }
    if (!possible) continue;
    if (cand.holes.empty()) return 1.0;  // certain tuple equal to the probe
    candidates.push_back(std::move(cand));
  }
  if (candidates.empty()) return 0.0;
  std::vector<const UncertainRow*> rows;
  for (const UncertainRow& cand : candidates) rows.push_back(&cand);
  return ConfidenceOverRows(wsdt, tmpl, rel_sym, rows, tuple);
}

Result<rel::Relation> WsdtPossibleTuples(const Wsdt& wsdt,
                                         const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(Instantiations inst, Instantiate(wsdt, relation));
  rel::Relation out(inst.tuples.schema(), "possible_" + relation);
  out.Reserve(inst.tuples.NumRows());
  for (uint32_t t : inst.SortedOrder()) {
    out.AppendRow(inst.tuples.row(t).span());
  }
  return out;
}

Result<rel::Relation> WsdtPossibleTuplesWithConfidence(
    const Wsdt& wsdt, const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(Instantiations inst, Instantiate(wsdt, relation));
  rel::Schema out_schema = inst.tuples.schema();
  MAYWSD_RETURN_IF_ERROR(
      out_schema.AddAttribute(rel::Attribute("conf", rel::AttrType::kDouble)));
  MAYWSD_ASSIGN_OR_RETURN(std::vector<double> conf, Confidences(wsdt, inst));
  rel::Relation out(out_schema, "possible_p_" + relation);
  out.Reserve(inst.tuples.NumRows());
  std::vector<rel::Value> row(out_schema.arity());
  for (uint32_t t : inst.SortedOrder()) {
    rel::TupleRef tuple = inst.tuples.row(t);
    std::copy(tuple.data(), tuple.data() + tuple.arity(), row.begin());
    row.back() = rel::Value::Double(conf[t]);
    out.AppendRow(row);
  }
  return out;
}

Result<bool> WsdtTupleCertain(const Wsdt& wsdt, const std::string& relation,
                              std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(double conf,
                          WsdtTupleConfidence(wsdt, relation, tuple));
  return conf >= kCertainConfidence;
}

Result<rel::Relation> WsdtCertainTuples(const Wsdt& wsdt,
                                        const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(Instantiations inst, Instantiate(wsdt, relation));
  MAYWSD_ASSIGN_OR_RETURN(std::vector<double> conf, Confidences(wsdt, inst));
  rel::Relation out(inst.tuples.schema(), "certain_" + relation);
  for (uint32_t t : inst.SortedOrder()) {
    if (conf[t] >= kCertainConfidence) {
      out.AppendRow(inst.tuples.row(t).span());
    }
  }
  return out;
}

}  // namespace maywsd::core
