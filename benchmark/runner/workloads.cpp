#include "workloads.hpp"

#include <stdexcept>
#include <utility>

#include "apps/trace.hpp"

namespace bench {

namespace {

using pacc::Bytes;
using pacc::ClusterConfig;
using pacc::CollectiveBenchSpec;
using pacc::coll::Op;
using pacc::coll::PlanKind;
using pacc::coll::PowerScheme;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string size_label(Bytes n) {
  if (n % (1 << 20) == 0) return std::to_string(n >> 20) + "M";
  return std::to_string(n >> 10) + "K";
}

CollectiveBenchSpec spec(Op op, Bytes message, PowerScheme scheme,
                         int iterations, int warmup) {
  CollectiveBenchSpec s;
  s.op = op;
  s.message = message;
  s.scheme = scheme;
  s.iterations = iterations;
  s.warmup = warmup;
  return s;
}

std::string cell_label(const CollectiveBenchSpec& s) {
  return pacc::coll::to_string(s.op) + "/" +
         pacc::coll::to_string(s.scheme) + "/" + size_label(s.message);
}

/// The paper testbed (§VII-A): 8 nodes × 8 ppn on the flat QDR switch,
/// simulated 1:1 so the symmetry collapse never shortcuts it.
ClusterConfig testbed() {
  ClusterConfig c;
  c.nodes = 8;
  c.ranks = 64;
  c.ranks_per_node = 8;
  c.collapse_multiplicity = 1;
  return c;
}

constexpr Bytes kLatencySizes[] = {16 << 10, 64 << 10, 256 << 10, 1 << 20};

/// Timed iterations per testbed64 cell: enough that a pass lasts several
/// seconds and short slow phases of the host average out within it.
constexpr int kTestbedIterations = 15;

Workload testbed64() {
  Workload w;
  w.name = "testbed64";
  const ClusterConfig polling = testbed();
  ClusterConfig blocking = testbed();
  blocking.progress = pacc::mpi::ProgressMode::kBlocking;
  for (const Op op : {Op::kAlltoall, Op::kAlltoallv, Op::kBcast}) {
    for (const PowerScheme scheme : pacc::coll::kAllSchemes) {
      for (const Bytes n : kLatencySizes) {
        const CollectiveBenchSpec s =
            spec(op, n, scheme, kTestbedIterations, 2);
        w.sweep.add(polling, s, cell_label(s));
      }
    }
  }
  for (const Bytes n : kLatencySizes) {
    const CollectiveBenchSpec s =
        spec(Op::kAlltoall, n, PowerScheme::kNone, kTestbedIterations, 2);
    w.sweep.add(blocking, s, cell_label(s) + "/blocking");
  }
  const CollectiveBenchSpec big =
      spec(Op::kAlltoall, 1 << 20, PowerScheme::kNone, kTestbedIterations, 2);
  w.clusters = {{polling, big}, {blocking, big}};
  w.plan_kinds = {PlanKind::kAlltoallPairwise, PlanKind::kAlltoallvPairwise,
                  PlanKind::kPowerExchange, PlanKind::kBcastBinomial,
                  PlanKind::kBarrierDissemination};
  w.probe_cluster = polling;
  w.probe = big;
  return w;
}

Workload datapath64() {
  Workload w;
  w.name = "datapath64";
  const ClusterConfig cluster = testbed();
  for (const Op op : {Op::kReduce, Op::kAllreduce, Op::kAllgather,
                      Op::kReduceScatter, Op::kScan, Op::kGather,
                      Op::kScatter}) {
    for (const Bytes n : {Bytes{16 << 10}, Bytes{64 << 10}, Bytes{256 << 10}}) {
      const CollectiveBenchSpec s = spec(op, n, PowerScheme::kNone, 1, 1);
      w.sweep.add(cluster, s, cell_label(s));
    }
  }
  // The Fig 8 power loop: a long run of 1 MiB broadcasts per scheme.
  for (const PowerScheme scheme : pacc::coll::kAllSchemes) {
    const CollectiveBenchSpec s = spec(Op::kBcast, 1 << 20, scheme, 100, 1);
    w.sweep.add(cluster, s, cell_label(s) + "/loop");
  }
  w.probe_cluster = cluster;
  w.probe = spec(Op::kReduceScatter, 256 << 10, PowerScheme::kNone, 1, 1);
  w.clusters = {{cluster, w.probe}};
  w.plan_kinds = {PlanKind::kBcastBinomial, PlanKind::kBarrierDissemination};
  return w;
}

/// 4096 ranks on a 2:1 fat tree of 32-node groups (E18).
ClusterConfig fattree4096() {
  ClusterConfig c;
  c.nodes = 512;
  c.ranks = 4096;
  c.ranks_per_node = 8;
  c.fabric = {{32, 2.0}};
  return c;
}

/// 16384 ranks on a 64-group dragonfly of 8 routers × 4 nodes (E20).
ClusterConfig dragonfly16384() {
  ClusterConfig c;
  c.nodes = 2048;
  c.ranks = 16384;
  c.ranks_per_node = 8;
  c.dragonfly.routers_per_group = 8;
  c.dragonfly.nodes_per_router = 4;
  return c;
}

Workload scale16k() {
  Workload w;
  w.name = "scale16k";
  const ClusterConfig fattree = fattree4096();
  const ClusterConfig dragonfly = dragonfly16384();
  const CollectiveBenchSpec proposed =
      spec(Op::kAlltoall, 1 << 20, PowerScheme::kProposed, 1, 0);
  const CollectiveBenchSpec none =
      spec(Op::kAlltoall, 1 << 20, PowerScheme::kNone, 1, 0);
  const CollectiveBenchSpec dragonfly_proposed =
      spec(Op::kAlltoall, 256 << 10, PowerScheme::kProposed, 1, 0);
  w.sweep.add(fattree, proposed, "fattree4096/" + cell_label(proposed));
  w.sweep.add(fattree, none, "fattree4096/" + cell_label(none));
  w.sweep.add(dragonfly, dragonfly_proposed,
              "dragonfly16384/" + cell_label(dragonfly_proposed));
  w.clusters = {{fattree, proposed}, {dragonfly, dragonfly_proposed}};
  w.plan_kinds = {PlanKind::kAlltoallPairwise, PlanKind::kPowerExchange,
                  PlanKind::kBarrierDissemination};
  w.probe_cluster = fattree;
  w.probe = spec(Op::kAlltoall, 64 << 10, PowerScheme::kNone, 1, 0);
  return w;
}

/// Low enough that every message survives its retry budget (a drop
/// streak of 7 has probability 1e-14), high enough that most cells see
/// drops, late deliveries or rejected P/T transitions.
pacc::fault::FaultSpec sweep_faults_spec(std::uint64_t seed) {
  pacc::fault::FaultSpec f;
  f.seed = splitmix64(seed ^ 0x5eedfa17ull);
  f.drop_rate = 0.01;
  f.delay_rate = 0.02;
  f.transition_fail_rate = 0.05;
  return f;
}

constexpr int kSweepRepeats = 128;  // × 32 combinations = 4096 cells

Workload sweep_faults(std::uint64_t seed) {
  Workload w;
  w.name = "sweep_faults";
  w.journaled = true;
  const pacc::fault::FaultSpec faults = sweep_faults_spec(seed);
  struct Shape {
    const char* tag;
    ClusterConfig cluster;
    PowerScheme scheme;
  };
  std::vector<Shape> shapes;
  for (const int ranks : {16, 32}) {
    ClusterConfig c;
    c.nodes = ranks / 8;
    c.ranks = ranks;
    c.ranks_per_node = 8;
    c.faults = faults;
    ClusterConfig governed = c;
    governed.governor.enabled = true;
    governed.governor.kind = pacc::mpi::GovernorKind::kSlack;
    // Short enough that the tiny cells' waits actually park cores.
    governed.governor.slack_threshold = pacc::Duration::micros(5.0);
    shapes.push_back({"proposed", c, PowerScheme::kProposed});
    shapes.push_back({"slack", governed, PowerScheme::kNone});
    w.clusters.push_back(
        {c, spec(Op::kAlltoall, 16 << 10, PowerScheme::kProposed, 1, 0)});
    w.clusters.push_back(
        {governed, spec(Op::kAlltoall, 16 << 10, PowerScheme::kNone, 1, 0)});
  }
  for (int rep = 0; rep < kSweepRepeats; ++rep) {
    for (const Shape& shape : shapes) {
      for (const Bytes n : {Bytes{4 << 10}, Bytes{16 << 10}}) {
        for (const Op op :
             {Op::kAlltoall, Op::kBcast, Op::kAllreduce, Op::kBarrier}) {
          const CollectiveBenchSpec s = spec(op, n, shape.scheme, 1, 0);
          w.sweep.add(shape.cluster, s,
                      "r" + std::to_string(shape.cluster.ranks) + "/" +
                          pacc::coll::to_string(op) + "/" + size_label(n) +
                          "/" + shape.tag + "/" + std::to_string(rep));
        }
      }
    }
  }
  w.plan_kinds = {PlanKind::kAlltoallPairwise, PlanKind::kPowerExchange,
                  PlanKind::kBcastBinomial, PlanKind::kBarrierDissemination};
  w.probe_cluster = shapes.front().cluster;
  w.probe = spec(Op::kAlltoall, 16 << 10, PowerScheme::kProposed, 1, 0);
  return w;
}

pacc::apps::WorkloadSpec load(const std::string& root, const char* file) {
  const std::string path = root + "/examples/workloads/" + file;
  pacc::apps::ParseResult parsed = pacc::apps::load_workload(path);
  if (!parsed.ok()) throw std::invalid_argument(parsed.error);
  return parsed.spec;
}

/// Simulated iterations per application run: enough for the plan cache
/// and the compute/communication interleaving to reach steady state.
constexpr int kAppIterations = 2;

Workload app64(std::uint64_t seed, const std::string& root) {
  Workload w;
  w.name = "app64";
  const ClusterConfig cluster = testbed();
  const pacc::apps::WorkloadSpec cpmd = load(root, "cpmd_like.wl");
  const pacc::apps::WorkloadSpec halo = load(root, "halo_solver.wl");
  const std::pair<const pacc::apps::WorkloadSpec*, PowerScheme> runs[] = {
      {&cpmd, PowerScheme::kProposed},
      {&halo, PowerScheme::kNone},
      {&halo, PowerScheme::kProposed}};
  for (const auto& [base, scheme] : runs) {
    AppRun run;
    run.label = base->name + "/" + pacc::coll::to_string(scheme);
    run.cluster = cluster;
    run.spec = *base;
    run.spec.simulated_iterations = kAppIterations;
    // The seed drives the compute imbalance (and alltoallv skew).
    run.spec.seed = splitmix64(seed ^ splitmix64(base->seed));
    run.scheme = scheme;
    w.apps.push_back(std::move(run));
  }
  w.clusters = {{cluster, spec(Op::kAlltoall, 128 << 10,
                               PowerScheme::kProposed, 1, 0)}};
  w.plan_kinds = {PlanKind::kAlltoallPairwise, PlanKind::kAlltoallvPairwise,
                  PlanKind::kPowerExchange, PlanKind::kBcastBinomial,
                  PlanKind::kBarrierDissemination};
  w.probe_cluster = cluster;
  w.probe = spec(Op::kAlltoall, 128 << 10, PowerScheme::kNone, 1, 0);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& root) {
  // The seed changes only the fault draws and the compute imbalance. Cell
  // order stays fixed: reordering cells changed host time and peak RSS
  // through allocator and plan-cache state, so the benchmark would measure
  // the order rather than the code.
  if (name == "testbed64") return testbed64();
  if (name == "datapath64") return datapath64();
  if (name == "app64") return app64(seed, root);
  if (name == "scale16k") return scale16k();
  if (name == "sweep_faults") return sweep_faults(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace bench
