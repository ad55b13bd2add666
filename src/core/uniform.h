// The uniform relational encoding of WSDTs — UWSDTs (Section 3, Figure 8).
//
// DBMSs do not support relations of data-dependent arity, so the paper
// stores all components in three fixed-schema relations
//
//   C[REL, TID, ATTR, LWID, VAL]   — component values per local world
//   F[REL, TID, ATTR, CID]         — field → component mapping
//   W[CID, LWID, PR]               — local worlds and their probabilities
//
// plus one template relation R⁰ per database relation (placeholder '?' for
// uncertain fields). A placeholder missing its value in some local world
// (no C row for that LWID) encodes the tuple's absence in those worlds —
// "worlds of different sizes are represented by allowing for a same
// placeholder different amounts of values in different worlds".
//
// Exported template relations carry an explicit leading TID column so the
// F/C references are expressible relationally.
//
// UniformSelectConst implements the select[Aθc] rewriting of Figure 16
// literally against these relations through the rel:: engine, as the
// PostgreSQL prototype did with SQL.

#ifndef MAYWSD_CORE_UNIFORM_H_
#define MAYWSD_CORE_UNIFORM_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/database.h"
#include "rel/predicate.h"
#include "rel/update.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// Names of the three system relations in a uniform database.
inline constexpr const char* kUniformC = "C";
inline constexpr const char* kUniformF = "F";
inline constexpr const char* kUniformW = "W";
/// Name of the leading tuple-id column added to exported templates.
inline constexpr const char* kTidColumn = "__TID";

/// Exports a WSDT into the uniform encoding: template relations (with a
/// leading TID column) under their own names plus C, F, W.
Result<rel::Database> ExportUniform(const Wsdt& wsdt);

/// Rebuilds a WSDT from a uniform database. `templates` lists the template
/// relation names (defaults to every relation except C, F, W). With a list,
/// C and F rows of other relations are skipped: a component spanning a
/// listed and an unlisted relation keeps only the listed fields, which is
/// exact for any answer over the listed relations.
Result<Wsdt> ImportUniform(const rel::Database& db,
                           std::vector<std::string> templates = {});

/// Figure 16: evaluates P := σ_{AθC}(R) directly on the uniform relations
/// of `db`, adding template P and extending C and F (steps 1–6).
Status UniformSelectConst(rel::Database& db, const std::string& in_rel,
                          const std::string& out_rel, const std::string& attr,
                          rel::CmpOp op, const rel::Value& constant);

/// The Figure 16 rewriting generalized to attribute–attribute selections:
/// P := σ_{AθB}(R) directly on the uniform relations. Rows whose decision
/// rests on placeholder values are filtered per local world; when A and B
/// live in different components those components are first merged via
/// their independence product (the relational compose: W is rewritten to
/// the mixed-radix product, F is remapped and C expanded globally), so no
/// import → template → export round trip is paid.
Status UniformSelectAttrAttr(rel::Database& db, const std::string& in_rel,
                             const std::string& out_rel,
                             const std::string& attr_a, rel::CmpOp op,
                             const std::string& attr_b);

/// T := R ∪ S on the uniform relations: template rows are concatenated
/// with re-numbered TIDs; F and C entries are copied under the new FIDs
/// (Section 5's pure-SQL rewriting of the union of Figure 9).
Status UniformUnion(rel::Database& db, const std::string& left,
                    const std::string& right, const std::string& out);

/// P := δ(R) on the uniform relations: the template's columns and the
/// ATTR values in F and C are renamed.
Status UniformRename(
    rel::Database& db, const std::string& in_rel, const std::string& out_rel,
    const std::vector<std::pair<std::string, std::string>>& renames);

/// T := R × S on the uniform relations: the product of the templates with
/// TID pairing tᵢⱼ = i·|S| + j, F/C entries duplicated per partner tuple
/// (the paper's product of Figure 9, expressed relationally).
Status UniformProduct(rel::Database& db, const std::string& left,
                      const std::string& right, const std::string& out);

/// P := R on the uniform relations: the template is duplicated (same TIDs)
/// and the F/C entries are copied under the new name, sharing CIDs so the
/// copy stays correlated with its source.
Status UniformCopy(rel::Database& db, const std::string& in_rel,
                   const std::string& out_rel);

/// P := R − S on the uniform relations, for the certain fragment: when no
/// row with a placeholder on either side can equal a row of the other side
/// (a certain cell differs), every certain row of R with a certain match
/// in S is dropped and every other row is copied as UniformCopy does.
/// Returns Unsupported otherwise: subtracting per local world composes
/// components, and callers fall back to the template semantics.
Status UniformDifference(rel::Database& db, const std::string& left,
                         const std::string& right, const std::string& out);

/// P := π_attrs(R) on the uniform relations: the template's columns are
/// projected (TID kept) and only the kept attributes' F/C entries are
/// copied — exact marginalization of the dropped component columns.
/// Returns Unsupported when a dropped placeholder encodes conditional
/// tuple presence (a ⊥, i.e. a local world with no C row): that projection
/// needs component composition, which is not expressible as a pure row
/// rewriting — callers fall back to the template semantics.
Status UniformProject(rel::Database& db, const std::string& in_rel,
                      const std::string& out_rel,
                      const std::vector<std::string>& attrs);

/// Removes a template relation and its F/C rows. Local worlds whose
/// component no longer has any field are garbage-collected by
/// UniformCompact, not here.
Status UniformDrop(rel::Database& db, const std::string& name);

// -- Native update fragment (see core/wsdt_update.h for the semantics) ------
//
// The purely relational slice of the update subsystem: operations that are
// row rewritings of the template (plus F/C bookkeeping) run directly on the
// store, exactly like the Figure 16 query rewritings. Anything needing
// component composition — a world condition, a predicate touching '?'
// cells, an assignment to a '?' cell — returns kUnsupported and the caller
// falls back to the template semantics (import → WSDT update → export).

/// Appends `tuples` (a fully certain instance) to template `rel` under
/// fresh TIDs — insert-in-every-world as a pure row rewriting.
Status UniformInsert(rel::Database& db, const std::string& rel,
                     const rel::Relation& tuples);

/// delete from `rel` where `pred` when every row's predicate decides on
/// certain template cells alone: decided-true rows are removed with their
/// F/C entries (explicit TIDs keep the others stable). kUnsupported when
/// any row's predicate is unknown.
Status UniformDeleteWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred);

/// update `rel` set `assignments` where `pred` when every row decides
/// certainly and no affected row has a '?' in an assigned cell; otherwise
/// kUnsupported.
Status UniformModifyWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred,
                          std::span<const rel::Assignment> assignments);

/// Garbage-collects W rows whose CID no longer appears in F (components
/// fully dropped with their last relation).
Status UniformCompact(rel::Database& db);

/// Referential-integrity check of a uniform database: templates carry a
/// leading unique TID column; every F row points at an existing '?' cell
/// and a CID present in W; every '?' cell is covered by exactly one F row;
/// every C row has a matching F row and an LWID declared in W; every W row's
/// CID appears in F (no orphans); per-CID probabilities sum to 1.
Status ValidateUniform(const rel::Database& db);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_UNIFORM_H_
