// The benchmark's three workloads. Each builds its deployment from the
// generated inputs, warms it up, measures for options.seconds, checks
// every answer against the oracle, runs the after-run checks, and
// returns its end-to-end metrics (untraced run) or per-layer metrics
// (traced run).

#ifndef BWPERF_WORKLOADS_H_
#define BWPERF_WORKLOADS_H_

#include "common.h"

namespace bwperf {

/// knn-memory (cold_pool = false) and knn-cold-pool (true): a closed
/// loop of 4 clients over an in-process QueryService on a durable XJB
/// index, then an open-loop write phase.
RunResult RunKnnWorkload(const RunOptions& options, bool cold_pool,
                         Checker* checker);

/// fleet-wire-mixed: an open loop of k-NN and inserts through
/// net::Client -> net::Server -> shard::Router over 2 shards x 2
/// replicas of durable XJB indexes, then a closed loop of k-NN.
RunResult RunFleetWorkload(const RunOptions& options, Checker* checker);

/// Reopens the durable index at (base, wal), as a restart would, and
/// checks that it holds every acked insert among pool `rows`.
void CheckReopenedStore(const std::string& base, const std::string& wal,
                        const Inputs& inputs, const std::vector<char>& acked,
                        const std::vector<size_t>& rows, Checker* checker);

}  // namespace bwperf

#endif  // BWPERF_WORKLOADS_H_
