// High-level facade: build a simulated cluster, run MPI-style programs on
// it, and read back latency / power / energy reports.
//
// Quickstart:
//
//   pacc::ClusterConfig cfg;                      // the paper's testbed
//   cfg.ranks = 64; cfg.ranks_per_node = 8;
//   pacc::Simulation sim(cfg);
//   auto report = sim.run([&](pacc::mpi::Rank& r) {
//     return body(r, sim.runtime().world());      // any Task<> coroutine
//   });
//   report.elapsed, report.energy, report.power.samples() …
//
// For OSU-style collective measurements use measure_collective(), which
// handles warmup, timing barriers and per-iteration averaging.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/algo.hpp"
#include "fault/fault.hpp"
#include "hw/machine.hpp"
#include "hw/meter.hpp"
#include "mpi/runtime.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "pacc/presets.hpp"
#include "pacc/status.hpp"
#include "sim/engine.hpp"
#include "sim/watchdog.hpp"
#include "util/stats.hpp"

namespace pacc {

/// Observability knobs, grouped so ClusterConfig stays a flat description
/// of the cluster itself. Designated-initializer friendly:
///   cfg.obs = {.trace = true};
struct ObsOptions {
  /// Attach an obs::TraceRecorder: Chrome-trace spans for collective
  /// phases / power transitions / sends+recvs, plus exact per-phase energy
  /// attribution. Off by default — the hooks then cost one pointer test.
  bool trace = false;
  /// Record per-node meter channels in addition to the system series.
  bool per_node_meter = false;
  /// Clamp-meter sampling period (the paper's MASTECH MS2205 samples at
  /// 0.5 s; shorten for finer power series on sub-second runs).
  Duration meter_interval = Duration::millis(500.0);
};

/// Everything needed to stand up a simulated cluster.
struct ClusterConfig {
  int nodes = 8;
  int ranks = 64;
  int ranks_per_node = 8;
  /// Rack layer for the topology-aware extension (§VIII); 0 disables it.
  int nodes_per_rack = 0;
  /// Multi-level fat-tree fabric, bottom-up (see hw::FabricLevelSpec).
  /// Empty keeps the legacy flat switch (+ optional rack layer); non-empty
  /// requires nodes_per_rack == 0 and the cumulative group sizes to divide
  /// `nodes`.
  std::vector<hw::FabricLevelSpec> fabric;
  /// Dragonfly interconnect (see hw::DragonflySpec); disabled by default.
  /// Mutually exclusive with `fabric` and the rack layer. Minimal routing
  /// collapses like a fat tree (one group survives as the quotient);
  /// adaptive routing de-collapses with a descriptive reason.
  hw::DragonflySpec dragonfly;
  /// Rank-symmetry collapse (see src/sym/collapse.hpp): 0 lets
  /// measure_collective collapse eligible runs automatically, 1 forces the
  /// full 1:1 simulation, >1 demands exactly that multiplicity (and errors
  /// if the fabric's top level does not provide it). Only
  /// measure_collective honors this; Simulation::run is always 1:1.
  int collapse_multiplicity = 0;
  hw::AffinityPolicy affinity = hw::AffinityPolicy::kBunch;
  mpi::ProgressMode progress = mpi::ProgressMode::kPolling;
  bool core_level_throttling = false;  ///< §V-B "future architectures"
  /// Runtime power governor (mpi/governor.hpp): reactive black-box, slack
  /// (COUNTDOWN-style), or per-node power cap; off by default. Requires
  /// polling progress — measure_collective / Campaign report an error for
  /// governor + blocking mode (and for kPowerCap with a §V scheme or a
  /// non-positive budget).
  mpi::GovernorParams governor;
  /// Ship message sizes without contents (see
  /// mpi::RuntimeParams::synthetic_payloads). The collectives then skip
  /// their scratch allocation, local copies and reductions as well, and the
  /// contents of every output buffer are unspecified. measure_collective
  /// turns this on for its own runs — the harness never reads received
  /// bytes — which removes the copy and page-fault traffic that dominated
  /// wall time at MiB block sizes. Leave off for programs that read what
  /// they receive.
  bool synthetic_payloads = false;
  /// Build collective plans as historical rank-indexed tables instead of
  /// class-compressed templates (see coll/plan.hpp and
  /// mpi::RuntimeParams::materialized_plans). Byte-identical results;
  /// exists for the equivalence suite and costs O(ranks) memory per plan.
  bool materialized_plans = false;
  /// Tracing / metering options (see ObsOptions above).
  ObsOptions obs;
  /// Fault injection (drops, flaps, stragglers, transition failures) plus
  /// the recovery knobs — all-zero rates (the default) disable the whole
  /// subsystem and leave the run byte-identical to a fault-free build.
  /// See docs/FAULTS.md.
  fault::FaultSpec faults;
  /// Collective plan cache to attach to the run's Runtime. Null (the
  /// default) gives the Simulation a private cache; a Campaign injects one
  /// shared cache so sweep cells with equal cluster configs reuse each
  /// other's schedules (plans are keyed on a structural fingerprint, so
  /// sharing is always safe).
  std::shared_ptr<coll::PlanCache> plan_cache;
  /// Tuned-decision table (coll/tuner.hpp) to attach to the run's Runtime.
  /// Null (the default) keeps dispatch purely static and byte-identical to
  /// the untuned library. Like the plan cache, a single Tuner is safely
  /// shared across Campaign cells — decisions are keyed on the comm's
  /// structural fingerprint.
  std::shared_ptr<coll::Tuner> tuner;
  /// Quiescence-watchdog thresholds (sim/watchdog.hpp) — only consulted
  /// when `faults` is active, since a fault-free run's deadlock detection
  /// is the engine's drained-queue signal. The defaults (50 ms interval ×
  /// 4 stalls) comfortably exceed the reliable path's maximum backoff;
  /// shorten them to cut time wasted in deadlocked faulted sweeps, or
  /// stretch them for fault specs with extreme ack timeouts. Plumbed
  /// through mpi::RuntimeParams::watchdog; paccbench exposes it as
  /// --watchdog MS:COUNT.
  sim::Watchdog::Params watchdog;
  /// Safety bound on simulated time: a deadlocked program is reported as
  /// incomplete instead of letting the meter tick forever.
  Duration max_sim_time = Duration::seconds(3600.0);
  std::optional<hw::MachineParams> machine;   ///< default: paper_machine(nodes)
  std::optional<net::NetworkParams> network;  ///< default: paper_network()
};

/// Outcome of one simulated program run.
struct RunReport {
  /// Structured outcome: kOk, or kDeadlock / kTimeout with a detail
  /// message naming the stuck tasks. Replaces the old `completed` bool.
  RunStatus status;
  Duration elapsed;
  Joules energy = 0.0;
  Watts mean_power = 0.0;
  PowerSeries power;        ///< clamp-meter samples (0.5 s)
  /// Per-node meter channels (only with ObsOptions::per_node_meter).
  std::vector<PowerSeries> node_power;
  /// Exact per-phase energy buckets (only with ObsOptions::trace); the
  /// joules sum to `energy` exactly — see docs/OBSERVABILITY.md.
  std::vector<obs::PhaseEnergy> energy_phases;
  /// Injected-fault / recovery counters (all zero on a fault-free run).
  fault::FaultStats faults;
  /// Governor transition counters (all zero without a governor).
  mpi::GovernorStats governor;

  [[deprecated("use status.ok() / status.outcome")]] bool completed() const {
    return status.ok();
  }
};

/// How a measurement's rank-symmetry collapse went (see
/// src/sym/collapse.hpp). Default-constructed = ran 1:1 with no reason
/// recorded (ops that never consult the gate).
struct CollapseStats {
  int multiplicity = 1;       ///< logical ranks per simulated rank
  int classes = 0;            ///< representative ranks simulated (0 = 1:1)
  int logical_ranks = 0;      ///< what the report describes
  int simulated_ranks = 0;    ///< what actually ran
  std::string reason;         ///< why the run stayed 1:1 ("" when collapsed)
  /// Node classes whose symmetry the fault spec broke (straggler blame).
  std::vector<int> broken_classes;
  /// Flows the simulation actually started; each stands for `multiplicity`
  /// logical flows, so logical_flows() is the full cluster's count.
  std::uint64_t representative_flows = 0;

  bool active() const { return multiplicity > 1; }
  std::uint64_t logical_flows() const {
    return representative_flows * static_cast<std::uint64_t>(multiplicity);
  }
};

/// Outcome of an OSU-style collective measurement.
struct CollectiveReport {
  /// Structured outcome (kError also covers unsupported op×scheme
  /// combinations — see coll::supported()).
  RunStatus status;
  Duration latency;         ///< average per-operation latency
  Joules energy_per_op = 0.0;
  Watts mean_power = 0.0;   ///< mean sampled power during the timed loop
  PowerSeries power;
  /// Exact per-phase energy buckets over the whole run, incl. warmup
  /// (only with ObsOptions::trace).
  std::vector<obs::PhaseEnergy> energy_phases;
  /// Chrome-trace JSON of the run (only with ObsOptions::trace);
  /// serialised before the Simulation is torn down.
  std::string trace_json;
  /// Injected-fault / recovery counters (all zero on a fault-free run).
  fault::FaultStats faults;
  /// Governor transition counters (all zero without a governor).
  mpi::GovernorStats governor;
  /// Rank-symmetry collapse outcome; energy_per_op / mean_power / power
  /// are already scaled back up to the logical cluster when it is active.
  CollapseStats collapse;

  [[deprecated("use status.ok() / status.outcome")]] bool completed() const {
    return status.ok();
  }
};

/// Parameters of an OSU-style collective measurement.
struct CollectiveBenchSpec {
  coll::Op op = coll::Op::kAlltoall;
  Bytes message = 1 << 20;  ///< block size (alltoall) or buffer size (bcast…)
  coll::PowerScheme scheme = coll::PowerScheme::kNone;
  int iterations = 10;
  int warmup = 2;
  int root = 0;             ///< rooted collectives
  /// Force a specific registered algorithm (coll::algorithms() names, e.g.
  /// "bcast_tree_binary") instead of the op's default dispatcher. Must
  /// match `op`; unknown names report kError listing the registry. A
  /// forced algorithm never consults the tuner — that is what the racing
  /// driver relies on.
  std::string algo;
  /// Segment size for segmented algorithms (only with a non-empty `algo`
  /// whose descriptor is segmented; 0 = unsegmented).
  Bytes seg = 0;
};

/// One simulated cluster plus its runtime; single-run, single-threaded.
class Simulation {
 public:
  explicit Simulation(const ClusterConfig& config);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  const ClusterConfig& config() const { return config_; }
  sim::Engine& engine() { return *engine_; }
  hw::Machine& machine() { return *machine_; }
  net::FlowNetwork& network() { return *network_; }
  mpi::Runtime& runtime() { return *runtime_; }
  hw::SamplingMeter& meter() { return *meter_; }
  /// Null unless ObsOptions::trace was set.
  obs::TraceRecorder* tracer() { return tracer_.get(); }
  /// Null unless ClusterConfig::faults is active.
  fault::FaultInjector* injector() { return injector_.get(); }

  /// Spawns `body` on every rank, runs to completion with the power meter
  /// sampling, and reports elapsed time / energy / power.
  RunReport run(const std::function<sim::Task<>(mpi::Rank&)>& body);

 private:
  ClusterConfig config_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<net::FlowNetwork> network_;
  std::unique_ptr<mpi::Runtime> runtime_;
  std::unique_ptr<hw::SamplingMeter> meter_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<sim::Watchdog> watchdog_;
};

/// The cluster shape `config` describes: its machine's shape (the paper
/// testbed's by default) with the config's node count, fabric and
/// dragonfly, and its rack layer when nodes_per_rack > 0 (0 keeps the
/// machine's). Simulation builds this shape; sym::decide and Campaign's
/// cell validation judge it.
hw::ClusterShape cluster_shape(const ClusterConfig& config);

/// Rounds up to a whole number of doubles — the size actually dispatched
/// for a CollectiveBenchSpec::message (reductions operate on doubles).
/// Exposed because tuned-decision keys (coll/tuner.hpp) must be recorded
/// at this rounded size to match the dispatch-time lookup.
Bytes round_to_doubles(Bytes n);

/// Builds a cluster, runs `spec.warmup + spec.iterations` matched calls of
/// the collective on the world communicator, and reports the averaged
/// latency and the power during the timed region.
CollectiveReport measure_collective(const ClusterConfig& config,
                                    const CollectiveBenchSpec& spec);

}  // namespace pacc
