// U-relations: the columnar world-set representation of the authors'
// follow-up work ("Fast and Simple Relational Processing of Uncertain
// Data" — see PAPERS.md).
//
// Where a WSDT keeps uncertainty in components composed on demand, a
// U-relation annotates every tuple with a *world-set descriptor*: a
// conjunction of (variable = domain-value) assignments over independent
// finite random variables. A tuple exists exactly in the worlds whose
// total assignment satisfies its descriptor; an empty descriptor means the
// tuple is certain. The payoff is structural: every positive relational
// algebra operator is a pure relational rewriting — selections filter
// rows, products/joins concatenate descriptors (dropping pairs whose
// descriptors assign one variable two values), unions and projections
// copy descriptors verbatim. No component composition, no representation
// round trips.
//
// The store is columnar: per relation, one structure-of-arrays value
// vector per attribute holding ids into a store-wide interned value
// dictionary, a TID column (stable across deletes, like core/uniform's
// __TID), and the descriptors in CSR layout. Descriptors are canonical —
// sorted by variable, one assignment per variable.
//
// ExportUrel/ImportUrel convert ⇄ WSDT (components become variables and
// vice versa), plugging the representation into the existing
// cross-backend machinery; engine/urel_backend.h adapts the store to the
// WorldSetOps contract.

#ifndef MAYWSD_CORE_UREL_H_
#define MAYWSD_CORE_UREL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cow.h"
#include "common/status.h"
#include "rel/predicate.h"
#include "rel/relation.h"
#include "rel/update.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// Index of an independent finite random variable of a Urel store.
using VarId = uint32_t;
/// Index into a Urel store's interned value dictionary.
using UrelValueId = uint32_t;

/// One conjunct of a world-set descriptor: variable `var` takes domain
/// value `world` (an index into the variable's probability vector).
struct UrelDescEntry {
  VarId var = 0;
  uint32_t world = 0;

  bool operator==(const UrelDescEntry& o) const {
    return var == o.var && world == o.world;
  }
};

/// One columnar relation: per-attribute value-id vectors, a stable TID
/// column, and per-tuple world-set descriptors in CSR layout.
struct UrelRelation {
  std::string name;
  rel::Schema schema;
  /// columns[a][row] — column-major value ids, one vector per attribute.
  std::vector<std::vector<UrelValueId>> columns;
  /// Stable tuple ids; deletes remove rows without renumbering survivors.
  std::vector<int64_t> tids;
  /// CSR descriptor index: tuple `row`'s descriptor is
  /// desc_entries[desc_offsets[row] .. desc_offsets[row + 1]).
  std::vector<uint32_t> desc_offsets = {0};
  std::vector<UrelDescEntry> desc_entries;
  int64_t next_tid = 0;

  size_t NumRows() const { return tids.size(); }

  std::span<const UrelDescEntry> Descriptor(size_t row) const {
    return std::span<const UrelDescEntry>(
        desc_entries.data() + desc_offsets[row],
        desc_offsets[row + 1] - desc_offsets[row]);
  }

  /// Appends one tuple; `desc` must be canonical (sorted by var, unique).
  void AppendTuple(std::span<const UrelValueId> values,
                   std::span<const UrelDescEntry> desc);
};

/// A U-relational database: the variable table (each variable's domain is
/// the index range of its probability vector), the interned value
/// dictionary shared by all relations, and the relation catalog.
class Urel {
 public:
  Urel() : symbols_(SymbolTable{}) {}

  // -- Value dictionary -------------------------------------------------------

  /// Interns `v`, returning its stable id (injective modulo Value
  /// equality). ⊥ and '?' are rejected by the operators, not here.
  /// Interning a value already in the dictionary is a read-only lookup;
  /// only a genuinely new value privatizes a shared symbol table.
  UrelValueId Intern(const rel::Value& v);

  /// Id of `v` when the dictionary holds it; never adds an entry.
  std::optional<UrelValueId> Find(const rel::Value& v) const;

  const rel::Value& ValueAt(UrelValueId id) const {
    return symbols().dict[id];
  }
  size_t DictionarySize() const { return symbols().dict.size(); }

  // -- Variables --------------------------------------------------------------

  /// Registers an independent variable with the given domain-value
  /// probabilities (must sum to 1; validated by ValidateUrel).
  VarId AddVariable(std::vector<double> probs);

  size_t NumVariables() const { return symbols().vars.size(); }
  const std::vector<double>& Domain(VarId var) const {
    return symbols().vars[var];
  }

  // -- Symbol-table sharing ---------------------------------------------------
  //
  // The dictionary and the variable table live behind one refcounted,
  // copy-on-write table (common::Cow, whose shared-or-unique probe is a
  // genuine acquire/release synchronization point): copying a Urel (and
  // shard slices built via ShareSymbolsFrom, and sessions pinned via
  // Snapshot()/Fork()) share it, so dictionary ids and VarIds transfer
  // verbatim between sharers; the first divergent Intern/AddVariable
  // privatizes. Ids are append-only, so ids minted before a split stay
  // valid in every sharer.

  /// Makes this store share `other`'s symbol table (this store's
  /// dictionary and variables must not be referenced by its relations —
  /// typically a freshly constructed slice).
  void ShareSymbolsFrom(const Urel& other) { symbols_ = other.symbols_; }

  /// True while both stores still reference the same symbol table, i.e.
  /// value ids and variable ids agree verbatim.
  bool SharesSymbolsWith(const Urel& other) const {
    return symbols_.SharesWith(other.symbols_);
  }

  // -- Catalog ----------------------------------------------------------------
  //
  // Relations are held behind per-relation copy-on-write handles: copying
  // a Urel shares every relation's columns/TIDs/CSR descriptors in O(1),
  // and GetMutable breaks sharing for that relation only. Raw pointers
  // returned by Get/GetMutable are valid until the catalog entry is
  // dropped or (for Get) the relation is next privatized — do not hold
  // them across a session-lock release.

  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;
  Result<const UrelRelation*> Get(const std::string& name) const;
  Result<UrelRelation*> GetMutable(const std::string& name);
  Status Add(UrelRelation relation);
  Status Drop(const std::string& name);

  /// Materializes row `row` of `r` as engine values.
  void MaterializeRow(const UrelRelation& r, size_t row,
                      std::vector<rel::Value>& out) const;

 private:
  struct SymbolTable {
    std::vector<rel::Value> dict;
    std::unordered_map<rel::Value, UrelValueId> dict_index;
    std::vector<std::vector<double>> vars;
  };

  /// The symbol table, privatized for writing (copied when shared).
  SymbolTable& MutableSymbols();
  const SymbolTable& symbols() const { return symbols_.get(); }

  Cow<SymbolTable> symbols_;
  std::map<std::string, Cow<UrelRelation>> relations_;
};

// -- Figure 9 operator core as pure columnar rewritings ----------------------
//
// Every operator extends the store with a fresh relation `out` (which must
// not exist yet), mirroring the WorldSetOps contract. Descriptors are
// copied or merged; no operator composes probabilities.

/// out := src (descriptors copied verbatim — the copy stays correlated
/// with its source through the shared variables).
Status UrelCopy(Urel& u, const std::string& src, const std::string& out);

/// out := σ_pred(src) for an arbitrary predicate tree, bound to columns
/// once and evaluated as column kernels: (in)equality compares dictionary
/// ids, ordered constant comparisons run once per distinct value, and the
/// kept rows are gathered one column at a time.
Status UrelSelectPredicate(Urel& u, const std::string& src,
                           const std::string& out, const rel::Predicate& pred);

/// out := σ_{attr θ c}(src).
Status UrelSelectConst(Urel& u, const std::string& src, const std::string& out,
                       const std::string& attr, rel::CmpOp op,
                       const rel::Value& constant);

/// out := σ_{a θ b}(src).
Status UrelSelectAttrAttr(Urel& u, const std::string& src,
                          const std::string& out, const std::string& attr_a,
                          rel::CmpOp op, const std::string& attr_b);

/// out := left × right: data columns concatenated, descriptors merged;
/// pairs whose descriptors assign one variable two different values exist
/// in no world and are dropped.
Status UrelProduct(Urel& u, const std::string& left, const std::string& right,
                   const std::string& out);

/// out := left ⋈_{left_attr = right_attr} right — the fused σ(×) hash
/// join, probing on dictionary ids (id equality ⟺ value equality).
Status UrelJoin(Urel& u, const std::string& left, const std::string& right,
                const std::string& out, const std::string& left_attr,
                const std::string& right_attr);

/// out := left ∪ right (schemas must match; descriptors copied).
Status UrelUnion(Urel& u, const std::string& left, const std::string& right,
                 const std::string& out);

/// out := π_attrs(src): column subset, descriptors verbatim (a U-relation
/// has no ⊥-carrying placeholders, so projection never composes).
Status UrelProject(Urel& u, const std::string& src, const std::string& out,
                   const std::vector<std::string>& attrs);

/// out := δ(src) for every (from, to) pair.
Status UrelRename(
    Urel& u, const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames);

/// out := left − right. Not positive RA: a left tuple matched by uncertain
/// right tuples is expanded over the assignments of the involved variables
/// (kept where no matching right descriptor is satisfied). Returns
/// kUnsupported when that expansion exceeds an internal cap — callers
/// fall back to the template semantics.
Status UrelDifference(Urel& u, const std::string& left,
                      const std::string& right, const std::string& out);

/// Removes a relation (variables and dictionary entries are shared and
/// stay).
Status UrelDrop(Urel& u, const std::string& name);

// -- Native update fragment ---------------------------------------------------
//
// With no '?' cells and no ⊥, the whole unconditional update surface is a
// pure row rewriting: predicates always decide on concrete data.
// World-conditional mutations compose with the guard's variables and take
// the established one-round-trip fallback in the backend instead.

/// Appends `tuples` (a fully certain instance) with empty descriptors
/// under fresh TIDs — insert-in-every-world.
Status UrelInsert(Urel& u, const std::string& rel, const rel::Relation& tuples);

/// delete from `rel` where `pred`: matching rows are removed outright (a
/// tuple satisfying `pred` is deleted in every world it exists in).
Status UrelDeleteWhere(Urel& u, const std::string& rel,
                       const rel::Predicate& pred);

/// update `rel` set `assignments` where `pred`: matching rows' cells are
/// rewritten in place; descriptors are untouched.
Status UrelModifyWhere(Urel& u, const std::string& rel,
                       const rel::Predicate& pred,
                       std::span<const rel::Assignment> assignments);

// -- Answer surface (Section 6) via descriptor-aware aggregation --------------

/// possible(R): the distinct data tuples (every stored tuple's descriptor
/// is satisfiable by construction).
Result<rel::Relation> UrelPossibleTuples(const Urel& u,
                                         const std::string& relation);

/// possibleᵖ(R): possible tuples with a trailing "conf" column.
Result<rel::Relation> UrelPossibleTuplesWithConfidence(
    const Urel& u, const std::string& relation);

/// certain(R): tuples whose descriptor-union probability is 1.
Result<rel::Relation> UrelCertainTuples(const Urel& u,
                                        const std::string& relation);

/// conf(t): probability of the union of the worlds selected by the
/// descriptors of the tuples equal to `tuple` — computed by enumerating
/// assignments of the involved variables only.
Result<double> UrelTupleConfidence(const Urel& u, const std::string& relation,
                                   std::span<const rel::Value> tuple);

/// certain(t): true iff conf(t) = 1.
Result<bool> UrelTupleCertain(const Urel& u, const std::string& relation,
                              std::span<const rel::Value> tuple);

// -- Conversions ⇄ WSDT -------------------------------------------------------

/// Encodes a WSDT as a U-relational store: every live component becomes a
/// variable (local worlds → domain values), every template row expands
/// into one tuple per combination of its covering components' local
/// worlds (combinations where a covered cell is ⊥ encode absence and emit
/// nothing); certain rows become certain tuples.
Result<Urel> ExportUrel(const Wsdt& wsdt);

/// Rebuilds a WSDT: variables co-occurring in a descriptor are grouped
/// (union-find) and each used group becomes one component whose local
/// worlds are the group's joint assignments; a conditional tuple becomes a
/// template row whose first attribute is a '?' backed by a component
/// column holding the value in satisfying assignments and ⊥ elsewhere.
Result<Wsdt> ImportUrel(const Urel& u);

/// Structural integrity: column lengths agree with the TID column,
/// dictionary ids are in range and materialize to concrete values (no ⊥,
/// no '?'), TIDs are unique and below next_tid, descriptors are canonical
/// (sorted by var, unique) with in-range variables and domain values, and
/// every variable's probabilities sum to 1 (within kProbEpsilon).
Status ValidateUrel(const Urel& u);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_UREL_H_
