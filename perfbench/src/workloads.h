// The benchmark's three workloads and the answer checks they share.
//
//   census_query  Figure 30 as a closed loop: Q1–Q6 plus the answer surface
//                 over a chased noisy census on WSDT and U-relations.
//   serve_mixed   WorldServer under two clients: the line protocol, the
//                 registry and session locks, snapshots and the answer
//                 cache over all four backends.
//   belief_game   belief::Game with three agents: guarded moves,
//                 observations, knowledge queries and speculation.
//
// Each takes everything it generates from Args::seed, measures a closed
// loop for Args::seconds, checks its answers, and with Args::trace runs
// the traced variant that fills the per-layer metrics instead.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"
#include "rel/relation.h"

namespace perfbench {

WorkloadResult RunCensusQuery(const Args& args);
WorkloadResult RunServeMixed(const Args& args);
WorkloadResult RunBeliefGame(const Args& args);

/// Empty when `a` and `b` hold the same rows as sets; else a description.
std::string CompareSets(const maywsd::rel::Relation& a,
                        const maywsd::rel::Relation& b);

/// Empty when two possible-with-confidence answers hold the same tuples
/// with confidences within `tolerance`; else a description.
std::string CompareConfidences(const maywsd::rel::Relation& a,
                               const maywsd::rel::Relation& b,
                               double tolerance);

/// Empty when every row of `certain` occurs in `possible` (which may carry
/// a trailing conf column); else a description.
std::string CheckSubset(const maywsd::rel::Relation& certain,
                        const maywsd::rel::Relation& possible);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
