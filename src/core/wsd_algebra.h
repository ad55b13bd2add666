// Relational algebra on world-set decompositions — Section 4 / Figure 9.
//
// Every operation extends the input WSD with a new result relation; the
// input relations are preserved so that subquery results stay correlated
// with their inputs (the WSD after the op represents {(A, Q₀(A)) | A ∈
// rep(W)}). Deleted tuples are marked with ⊥ and propagated within
// components (Figure 12); projection and attribute-attribute selection may
// compose components.
//
// These operators are the paper-figure reference implementation; plans
// run on the WSDT engine. WsdEvaluate() converts at the boundary
// (Wsdt::FromWsd, the shared engine driver over a WSDT, Wsdt::ToWsd).

#ifndef MAYWSD_CORE_WSD_ALGEBRA_H_
#define MAYWSD_CORE_WSD_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rel/algebra.h"
#include "core/wsd.h"

namespace maywsd::core {

/// copy(R, P): P becomes a fresh relation that equals R in every world.
Status WsdCopy(Wsd& wsd, const std::string& src, const std::string& out);

/// P := σ_{Aθc}(R) — select[Aθc] of Figure 9.
Status WsdSelectConst(Wsd& wsd, const std::string& src, const std::string& out,
                      const std::string& attr, rel::CmpOp op,
                      const rel::Value& constant);

/// P := σ_{AθB}(R) — select[AθB] of Figure 9 (may compose components).
Status WsdSelectAttrAttr(Wsd& wsd, const std::string& src,
                         const std::string& out, const std::string& attr_a,
                         rel::CmpOp op, const std::string& attr_b);

/// T := R × S — product of Figure 9. Attribute sets must be disjoint.
Status WsdProduct(Wsd& wsd, const std::string& left, const std::string& right,
                  const std::string& out);

/// T := R ∪ S — union of Figure 9. Schemas must be equal.
Status WsdUnion(Wsd& wsd, const std::string& left, const std::string& right,
                const std::string& out);

/// P := π_U(R) — project[U] of Figure 9 (fixpoint ⊥-propagation).
Status WsdProject(Wsd& wsd, const std::string& src, const std::string& out,
                  const std::vector<std::string>& attrs);

/// P := π_U(R) with the "exists column" optimization (Section 4
/// Discussion): instead of composing components, a projected-away column
/// that carries ⊥ deletions is turned into an extra-schema presence field
/// of P (⊥ stays ⊥, values become the marker 1). No composition happens,
/// so this projection is polynomial; rep() treats a ⊥ presence field as
/// tuple deletion. Wsd::EliminatePresenceFields() converts back.
Status WsdProjectExists(Wsd& wsd, const std::string& src,
                        const std::string& out,
                        const std::vector<std::string>& attrs);

/// P := δ_{A→A'}(R) applied for every pair in `renames` — rename of
/// Figure 9, materialized as a fresh relation for compositionality.
Status WsdRename(Wsd& wsd, const std::string& src, const std::string& out,
                 const std::vector<std::pair<std::string, std::string>>&
                     renames);

/// P := R − S — difference of Figure 9 (composes components per tuple
/// pair; exponential in the worst case, as the paper notes). Runs on the
/// WSDT engine like WsdEvaluate: `wsd` is converted with Wsdt::FromWsd,
/// WsdtDifference runs, and `wsd` is replaced by the ToWsd of the result.
Status WsdDifference(Wsd& wsd, const std::string& left,
                     const std::string& right, const std::string& out);

/// Evaluates an arbitrary relational algebra plan over the WSD, adding the
/// result under `out`. Leaf scans refer to relations already in the WSD.
/// Intermediate temporaries are dropped unless `keep_temps`. Runs on the
/// WSDT engine: `wsd` is converted with Wsdt::FromWsd, the plan is
/// evaluated through the shared engine driver, and `wsd` is replaced by
/// the ToWsd of the result — the same world set for every relation, but a
/// different decomposition (slots invalid in every world are gone,
/// presence fields are folded into ⊥s, certain fields are singleton
/// components). On error `wsd` is left unchanged.
///
/// Compatibility shim: new code should open an api::Session over the Wsd
/// (Session::Open) and call Run(); this entry point remains for callers
/// that already hold a bare Wsd.
Status WsdEvaluate(Wsd& wsd, const rel::Plan& plan, const std::string& out,
                   bool keep_temps = false);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSD_ALGEBRA_H_
