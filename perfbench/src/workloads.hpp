// The benchmark's workloads. Each fills a RunResult with every metric it
// can measure; run.py picks the end-to-end or per-layer set.
#pragma once

#include "common.hpp"

namespace perfbench {

/// query_hot, query_cold and publish_churn: the built daemon under
/// open-loop load from this process.
RunResult run_daemon_workload(const Options& options);

/// backbone_route: an in-process DiscoveryNetwork on the simulator.
RunResult run_backbone(const Options& options);

}  // namespace perfbench
