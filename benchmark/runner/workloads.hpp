// The benchmark's five workloads, generated from the benchmark seed. The
// library only ever sees the generated SweepSpec / WorkloadSpec inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "coll/plan.hpp"
#include "pacc/campaign.hpp"

namespace bench {

/// One apps::run_workload call of the app64 workload.
struct AppRun {
  std::string label;
  pacc::ClusterConfig cluster;
  pacc::apps::WorkloadSpec spec;
  pacc::coll::PowerScheme scheme = pacc::coll::PowerScheme::kNone;
};

/// A cluster the workload stands up, with one of its cells' specs for
/// sym::decide to pick the multiplicity from.
struct SetupCluster {
  pacc::ClusterConfig cluster;
  pacc::CollectiveBenchSpec spec;
};

struct Workload {
  std::string name;
  /// Collective cells (every workload but app64), in run order.
  pacc::SweepSpec sweep;
  /// Application runs (app64 only), in run order.
  std::vector<AppRun> apps;
  /// sweep_faults: each pass adds a journaled run and resumes from it.
  bool journaled = false;
  /// The distinct clusters the cells run on.
  std::vector<SetupCluster> clusters;
  /// Plan kinds the cells dispatch, built cold during set-up.
  std::vector<pacc::coll::PlanKind> plan_kinds;
  /// The probe cell: one call of `probe.op` through Simulation::run, at
  /// the multiplicity sym::decide picks (1:1 everywhere but scale16k).
  pacc::ClusterConfig probe_cluster;
  pacc::CollectiveBenchSpec probe;
};

/// Generates the inputs of workload `name` for `seed`. `root` is the
/// checkout the example workload files are read from. Throws
/// std::invalid_argument for unknown names or unreadable inputs.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& root);

}  // namespace bench
