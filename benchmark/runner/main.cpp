// Workload runner of the repo benchmark. One invocation measures one thing
// for one workload and prints it as lines benchmark/bench.py parses:
//
//   metric NAME VALUE   a number (bench.py aggregates across passes)
//   cell SECONDS        host time of one executed cell
//   golden LINE         one cell's outputs, checked against benchmark/golden
//   mismatch N          artifact lines that differ between sweep passes
//   info NAME VALUE     diagnostics bench.py ignores
//
// Modes:
//   setup   time the set-up work
//   pass    one timed pass with tracing off
//   traced  one pass with spans around every public library call, plus
//           the plan-layer and probe measurements; the spans are written
//           to --trace-out as Chrome-trace JSON
//
//   pacc_bench --workload NAME --seed S --mode MODE --dir SCRATCH_DIR
//              [--jobs N] [--root CHECKOUT] [--trace-out FILE]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/plan.hpp"
#include "pacc/journal.hpp"
#include "spans.hpp"
#include "sym/collapse.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace pacc;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode;
  std::string dir;
  std::string root = ".";
  std::string trace_out;
  int jobs = 1;
};

/// Resume passes per sweep_faults pass; resumed_cells_per_s is their median.
constexpr int kResumePasses = 20;

void metric(const std::string& name, double value) {
  std::printf("metric %s %.17g\n", name.c_str(), value);
}

/// Linearly interpolated percentile, as bench.py computes it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string golden_line(const CellResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s %s %lld %s %s %d", r.label.c_str(),
                to_string(r.status.outcome).c_str(),
                static_cast<long long>(r.report.latency.ns()),
                hex(r.report.energy_per_op).c_str(),
                hex(r.report.mean_power).c_str(),
                r.report.collapse.multiplicity);
  return buf;
}

std::string golden_line(const std::string& label, const apps::AppReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s %s %lld %lld %lld %s", label.c_str(),
                to_string(r.status.outcome).c_str(),
                static_cast<long long>(r.total_time.ns()),
                static_cast<long long>(r.comm_time.ns()),
                static_cast<long long>(r.alltoall_time.ns()),
                hex(r.energy).c_str());
  return buf;
}

std::shared_ptr<CellJournal> open_journal(const std::string& path) {
  ScopedSpan span("CellJournal::open", "pacc");
  std::string error;
  std::shared_ptr<CellJournal> journal = CellJournal::open(path, &error);
  if (!journal) throw std::runtime_error("journal " + path + ": " + error);
  return journal;
}

std::vector<CellResult> run_campaign(Campaign& campaign) {
  ScopedSpan span("Campaign::run", "pacc");
  return campaign.run();
}

std::string artifact(const SweepSpec& sweep,
                     const std::vector<CellResult>& results) {
  std::ostringstream out;
  write_campaign_json(out, sweep, results);
  return std::move(out).str();
}

/// Lines that differ between two artifacts of the same sweep.
std::size_t artifact_mismatches(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t differing = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return differing;
    if (more_a != more_b || la != lb) ++differing;
  }
}

// ------------------------------------------------------------ passes ----

struct Settings {
  int jobs = 1;
  /// Injected into every cell of the plain run when set, so its hit/miss
  /// counters are observable.
  std::shared_ptr<coll::PlanCache> plans;
  std::string dir;
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> cell_s;
  std::vector<CellResult> cells;  ///< the plain run's results
  std::vector<apps::AppReport> apps;
  std::size_t mismatches = 0;
  double plain_s = 0.0;
  double journaled_s = 0.0;
  std::vector<double> resume_s;
  double replayed_frac = 0.0;
};

/// Per-thread bracket of the cell a Campaign worker is executing:
/// before_cell opens it, on_progress (same thread, after the cell) closes
/// it. Only fresh cells get a before_cell, so only plain runs use it.
thread_local double t_cell_start = 0.0;
thread_local int cell_span = -1;

void bracket_cells(CampaignOptions& options, std::vector<double>& cell_s) {
  options.before_cell = [](std::size_t index) {
    t_cell_start = now_s();
    if (SpanRecorder* rec = SpanRecorder::active()) {
      cell_span = rec->begin("measure_collective", "pacc",
                             static_cast<long>(index));
    }
  };
  // on_progress calls are serialized by the Campaign.
  options.on_progress = [&cell_s](const CampaignProgress&) {
    cell_s.push_back(now_s() - t_cell_start);
    if (SpanRecorder* rec = SpanRecorder::active()) rec->end(cell_span);
  };
}

/// sweep_faults passes (b) and (c): a journaled run that doubles as the
/// result cache (one durable append per cell), then kResumePasses resumes
/// from its file. Both must reproduce the plain run's artifact bytes.
void run_journaled(const Workload& w, const Settings& s, PassResult& out) {
  const std::string path = s.dir + "/" + w.name + ".journal";
  std::filesystem::remove(path);
  const std::string plain = artifact(w.sweep, out.cells);

  double t0 = now_s();
  const std::shared_ptr<CellJournal> journal = open_journal(path);
  const double open_s = now_s() - t0;
  CampaignOptions options;
  options.jobs = s.jobs;
  options.journal = journal;
  options.result_cache = journal;
  Campaign journaled(w.sweep, options);
  t0 = now_s();
  const std::vector<CellResult> written = run_campaign(journaled);
  out.journaled_s = open_s + (now_s() - t0);
  out.mismatches += artifact_mismatches(plain, artifact(w.sweep, written));

  for (int k = 0; k < kResumePasses; ++k) {
    t0 = now_s();
    CampaignOptions resume;
    resume.jobs = s.jobs;
    resume.journal = open_journal(path);
    resume.resume = true;
    const double reopen_s = now_s() - t0;
    Campaign resumed(w.sweep, resume);
    t0 = now_s();
    const std::vector<CellResult> replayed = run_campaign(resumed);
    out.resume_s.push_back(reopen_s + (now_s() - t0));
    if (k == 0) {
      out.mismatches += artifact_mismatches(plain, artifact(w.sweep, replayed));
      const auto from_journal = std::count_if(
          replayed.begin(), replayed.end(), [](const CellResult& r) {
            return r.source == CellSource::kJournal;
          });
      out.replayed_frac = static_cast<double>(from_journal) /
                          static_cast<double>(replayed.size());
    }
  }
}

PassResult run_sweep(const Workload& w, const Settings& s) {
  PassResult out;
  SweepSpec sweep = w.sweep;
  if (s.plans) {
    for (SweepCell& cell : sweep.cells) cell.cluster.plan_cache = s.plans;
  }
  out.cell_s.reserve(sweep.size());
  CampaignOptions options;
  options.jobs = s.jobs;
  bracket_cells(options, out.cell_s);
  Campaign plain(std::move(sweep), options);
  const double t0 = now_s();
  out.cells = run_campaign(plain);
  out.plain_s = now_s() - t0;
  out.wall_s = out.plain_s;
  if (w.journaled) {
    run_journaled(w, s, out);
    out.wall_s += out.journaled_s;
    for (const double r : out.resume_s) out.wall_s += r;
  }
  return out;
}

PassResult run_apps(const Workload& w, const Settings& s) {
  PassResult out;
  std::vector<AppRun> runs = w.apps;
  if (s.plans) {
    for (AppRun& run : runs) run.cluster.plan_cache = s.plans;
  }
  out.apps.resize(runs.size());
  std::vector<RunStatus> statuses;
  const double t0 = now_s();
  {
    ScopedSpan span("Campaign::for_each", "pacc");
    statuses = Campaign::for_each(runs.size(), 1, [&](std::size_t i) {
      ScopedSpan run_span("apps::run_workload", "apps", static_cast<long>(i));
      const double start = now_s();
      out.apps[i] =
          apps::run_workload(runs[i].cluster, runs[i].spec, runs[i].scheme);
      out.cell_s.push_back(now_s() - start);
    });
  }
  out.wall_s = now_s() - t0;
  out.plain_s = out.wall_s;
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) out.apps[i].status = statuses[i];
  }
  return out;
}

PassResult run_pass(const Workload& w, const Settings& s) {
  return w.apps.empty() ? run_sweep(w, s) : run_apps(w, s);
}

void print_outputs(const Workload& w, const PassResult& r) {
  for (const CellResult& cell : r.cells) {
    std::printf("golden %s\n", golden_line(cell).c_str());
  }
  for (std::size_t i = 0; i < r.apps.size(); ++i) {
    std::printf("golden %s\n", golden_line(w.apps[i].label, r.apps[i]).c_str());
  }
  std::printf("mismatch %zu\n", r.mismatches);
}

// ------------------------------------------------------------- set-up ----

/// A non-representative member of every row's class (the row's own rank
/// on a materialized plan), so PlanView relabels as executors do.
std::vector<int> row_members(const coll::CollPlan& plan, int size) {
  const std::size_t rows = std::max(plan.pair_steps.size(), plan.actions.size());
  std::vector<int> member(rows, 0);
  for (int me = 0; me < size; ++me) {
    const std::size_t row =
        plan.class_of_rank.empty()
            ? static_cast<std::size_t>(me)
            : static_cast<std::size_t>(
                  plan.class_of_rank[static_cast<std::size_t>(me)]);
    if (row < rows) member[row] = me;
  }
  return member;
}

struct PlanStats {
  double build_s = 0.0;
  std::size_t bytes = 0;
  double walk_s = 0.0;
  std::uint64_t peers = 0;
  std::uint64_t checksum = 0;
};

/// Walks every row × peer of `plan` through PlanView::peer.
void walk_plan(const coll::CollPlan& plan, int size, PlanStats& stats) {
  ScopedSpan span("PlanView::peer", "coll");
  const double t0 = now_s();
  const std::vector<int> member = row_members(plan, size);
  for (const int me : member) {
    const coll::PlanView view(plan, me, size);
    if (view.row() < plan.pair_steps.size()) {
      for (const coll::PairStep& step : plan.pair_steps[view.row()]) {
        stats.checksum += static_cast<std::uint64_t>(view.peer(step.dst)) +
                          static_cast<std::uint64_t>(view.peer(step.src));
        stats.peers += 2;
      }
    }
    if (view.row() < plan.actions.size()) {
      for (const coll::PowerAction& a : plan.actions[view.row()]) {
        if (a.kind == coll::PowerAction::kSend ||
            a.kind == coll::PowerAction::kRecv) {
          stats.checksum += static_cast<std::uint64_t>(view.peer(a.arg));
          ++stats.peers;
        }
      }
    }
  }
  stats.walk_s += now_s() - t0;
}

/// The set-up work, minus input generation: stand up each distinct
/// cluster at the multiplicity sym::decide picks and build every plan
/// kind the cells dispatch, cold. `walk` adds the PlanView walk.
PlanStats stand_up_clusters(const Workload& w, bool walk) {
  PlanStats stats;
  for (const SetupCluster& sc : w.clusters) {
    sym::CollapseDecision decision;
    {
      ScopedSpan span("sym::decide", "sym");
      decision = sym::decide(sc.cluster, sc.spec);
    }
    ClusterConfig cfg = sc.cluster;
    cfg.collapse_multiplicity = decision.multiplicity;
    std::unique_ptr<Simulation> sim;
    {
      ScopedSpan span("Simulation::Simulation", "sim");
      sim = std::make_unique<Simulation>(cfg);
    }
    const mpi::Comm& world = sim->runtime().world();
    for (const coll::PlanKind kind : w.plan_kinds) {
      coll::PlanPtr plan;
      const double t0 = now_s();
      {
        ScopedSpan span("coll::build_plan", "coll");
        plan = coll::build_plan(world, kind);
      }
      stats.build_s += now_s() - t0;
      stats.bytes += plan->bytes();
      if (walk) walk_plan(*plan, world.size(), stats);
    }
    ScopedSpan span("Simulation::~Simulation", "sim");
    sim.reset();
  }
  return stats;
}

double set_up(const Options& o) {
  const double t0 = now_s();
  const Workload w = make_workload(o.workload, o.seed, o.root);
  stand_up_clusters(w, false);
  // The journal the last timed pass wrote: reopening it is what a resumed
  // campaign pays before its first cell.
  if (w.journaled) open_journal(o.dir + "/" + w.name + ".journal");
  return now_s() - t0;
}

/// Prints one sample of the per-set-up time; bench.py takes the median
/// over several processes, because the figure varies more between
/// processes than within one. Set-ups are repeated back to back until the
/// sample lasts about kSetupSampleS: the host has fast and slow phases
/// that last up to a second, in which the 64-rank set-ups differ by half,
/// and a sample of a few milliseconds would land in just one of them.
constexpr double kSetupSampleS = 0.25;

int run_setup(const Options& o) {
  const double first = set_up(o);
  const int batch =
      std::clamp(static_cast<int>(kSetupSampleS / first), 1, 10000);
  const double t0 = now_s();
  for (int i = 0; i < batch; ++i) set_up(o);
  metric("setup_s", (now_s() - t0) / batch);
  return 0;
}

int run_timed(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed, o.root);
  const PassResult r = run_pass(w, {o.jobs, nullptr, o.dir});
  print_outputs(w, r);
  for (const double c : r.cell_s) std::printf("cell %.9g\n", c);
  metric("wall_s", r.wall_s);
  if (w.journaled) {
    const auto n = static_cast<double>(w.sweep.size());
    metric("cells_per_s", n / r.plain_s);
    metric("journaled_cells_per_s", n / r.journaled_s);
    metric("resumed_cells_per_s", n / median(r.resume_s));
    metric("pacc.replayed_frac", r.replayed_frac);
  }
  return 0;
}

// ------------------------------------------------------------- traced ----

struct ProbeStats {
  double run_s = 0.0;
  RunStatus status;
  std::uint64_t events = 0, deliveries = 0, flows = 0, recomputes = 0,
                coalesced = 0, batches = 0, batched = 0, noops = 0;
};

/// The probe cell: one call of the op's public coll:: entry point on every
/// rank, through Simulation::run, with the counters read off the parts.
ProbeStats run_probe(const Workload& w) {
  ScopedSpan probe_span("probe", "bench");
  ClusterConfig cfg = w.probe_cluster;
  cfg.collapse_multiplicity = sym::decide(cfg, w.probe).multiplicity;
  // app64's runs ship real bytes; every other workload measures through
  // measure_collective, which ships sizes only.
  cfg.synthetic_payloads = w.apps.empty();
  std::unique_ptr<Simulation> sim;
  {
    ScopedSpan span("Simulation::Simulation", "sim");
    sim = std::make_unique<Simulation>(cfg);
  }
  mpi::Comm& world = sim->runtime().world();
  const auto ranks = static_cast<std::size_t>(world.size());
  const auto block = static_cast<std::size_t>(w.probe.message);
  coll::AlgoCall call;
  call.block = w.probe.message;
  call.scheme = w.probe.scheme;
  // Alltoall never computes on its buffers, so they stay untouched until
  // a rank copies into them; reductions read them and get zeroed memory.
  std::unique_ptr<std::byte[]> arena;
  std::vector<std::byte> send, recv;
  if (w.probe.op == coll::Op::kAlltoall) {
    arena.reset(new std::byte[2 * ranks * block]);
    call.send = {arena.get(), ranks * block};
    call.recv = {arena.get() + ranks * block, ranks * block};
  } else {
    send.resize(ranks * block);
    recv.resize(block);
    call.send = send;
    call.recv = recv;
  }
  const coll::AlgoDesc& algo = coll::default_algorithm(w.probe.op);
  ProbeStats stats;
  RunReport report;
  const double t0 = now_s();
  {
    ScopedSpan span("Simulation::run", "sim");
    report = sim->run([&](mpi::Rank& self) -> sim::Task<> {
      co_await algo.exec(self, world, call);
    });
  }
  stats.run_s = now_s() - t0;
  stats.status = report.status;
  stats.events = sim->engine().events_dispatched();
  stats.deliveries = sim->runtime().deliveries();
  const net::FlowNetwork& net = sim->network();
  stats.flows = net.flows_started();
  stats.recomputes = net.rate_recomputes();
  stats.coalesced = net.coalesced_recomputes();
  stats.batches = net.completion_batches();
  stats.batched = net.batched_completions();
  stats.noops = net.noop_recomputes();
  ScopedSpan span("Simulation::~Simulation", "sim");
  sim.reset();
  return stats;
}

/// sweep_faults' journal and artifact layers in isolation: hash every
/// effective cell, append the pass's records to a fresh journal, reopen
/// it, and round-trip the artifact through its writer and strict loader.
void journal_layer(const Workload& w, const std::vector<CellResult>& cells,
                   const std::string& dir) {
  std::vector<double> hash_s, append_s;
  std::vector<CellRecord> records;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // The effective cell, as Campaign hashes it (no cell_timeout override).
    ClusterConfig cfg = w.sweep.cells[i].cluster;
    if (cfg.faults.active()) {
      cfg.faults.seed = fault::derive_cell_seed(cfg.faults.seed, i);
    }
    std::optional<std::uint64_t> key;
    const double t0 = now_s();
    {
      ScopedSpan span("canonical_cell_hash", "pacc", static_cast<long>(i));
      key = canonical_cell_hash(cfg, w.sweep.cells[i].bench);
    }
    hash_s.push_back(now_s() - t0);
    const CollectiveReport& r = cells[i].report;
    CellRecord rec;
    rec.key = key.value_or(0);
    rec.status = cells[i].status;
    rec.latency = r.latency;
    rec.energy_per_op = r.energy_per_op;
    rec.mean_power = r.mean_power;
    rec.collapse_multiplicity = r.collapse.multiplicity;
    rec.collapse_classes = r.collapse.classes;
    rec.faults = r.faults;
    rec.governor = r.governor;
    records.push_back(rec);
  }
  const std::string path = dir + "/" + w.name + ".layer.journal";
  std::filesystem::remove(path);
  {
    const std::shared_ptr<CellJournal> journal = open_journal(path);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const double t0 = now_s();
      bool ok = false;
      {
        ScopedSpan span("CellJournal::append", "pacc", static_cast<long>(i));
        ok = journal->append(records[i]);
      }
      append_s.push_back(now_s() - t0);
      if (!ok) throw std::runtime_error("journal append failed: " + path);
    }
  }
  double t0 = now_s();
  const std::shared_ptr<CellJournal> reopened = open_journal(path);
  metric("pacc.journal_open_s", now_s() - t0);
  metric("pacc.journal_bytes",
         static_cast<double>(std::filesystem::file_size(path)));
  metric("pacc.cell_hash_us", 1e6 * median(hash_s));
  metric("pacc.journal_append_p50_us", 1e6 * percentile(append_s, 0.5));
  metric("pacc.journal_append_p90_us", 1e6 * percentile(append_s, 0.9));

  const std::string artifact_path = dir + "/" + w.name + ".campaign.json";
  t0 = now_s();
  {
    ScopedSpan span("write_campaign_json", "pacc");
    std::ofstream out(artifact_path);
    write_campaign_json(out, w.sweep, cells);
  }
  metric("pacc.artifact_write_s", now_s() - t0);
  t0 = now_s();
  std::optional<LoadedCampaign> loaded;
  std::string error;
  {
    ScopedSpan span("load_campaign_json", "pacc");
    std::ifstream in(artifact_path);
    loaded = load_campaign_json(in, &error);
  }
  metric("pacc.artifact_load_s", now_s() - t0);
  if (!loaded || loaded->cells.size() != cells.size()) {
    throw std::runtime_error("artifact does not load back: " + error);
  }
}

void print_cell_counters(const Workload& w, const PassResult& r) {
  fault::FaultStats f;
  mpi::GovernorStats g;
  double flows = 0.0, simulated = 0.0, logical = 0.0;
  for (const CellResult& cell : r.cells) {
    const CollectiveReport& rep = cell.report;
    f.drops += rep.faults.drops;
    f.delays += rep.faults.delays;
    f.retransmits += rep.faults.retransmits;
    f.transition_failures += rep.faults.transition_failures;
    f.scheme_fallbacks += rep.faults.scheme_fallbacks;
    g.downclocks += rep.governor.downclocks;
    g.restores += rep.governor.restores;
    flows += static_cast<double>(rep.collapse.representative_flows);
    simulated += rep.collapse.simulated_ranks;
    logical += rep.collapse.logical_ranks;
  }
  metric("mpi.gov_downclocks", static_cast<double>(g.downclocks));
  metric("mpi.gov_restores", static_cast<double>(g.restores));
  metric("net.flows", flows);
  metric("fault.drops", static_cast<double>(f.drops));
  metric("fault.delays", static_cast<double>(f.delays));
  metric("fault.retransmits", static_cast<double>(f.retransmits));
  metric("fault.transition_failures",
         static_cast<double>(f.transition_failures));
  metric("fault.scheme_fallbacks", static_cast<double>(f.scheme_fallbacks));
  // Application runs are always 1:1.
  metric("sym.simulated_rank_frac", logical > 0 ? simulated / logical : 1.0);
  double calls = 0.0;
  for (const apps::AppReport& app : r.apps) {
    for (const auto& [name, stats] : app.profile) {
      calls += static_cast<double>(stats.calls);
    }
  }
  metric("apps.collective_calls", calls);
  double cell_total = 0.0;
  for (const double c : r.cell_s) cell_total += c;
  metric(w.apps.empty() ? "pacc.measure_collective_s" : "apps.run_workload_s",
         cell_total);
  metric("pacc.campaign_overhead_s", r.plain_s - cell_total);
}

/// The traced pass: spans around every public call, with Campaigns at
/// jobs 1 so spans nest on one thread. bench.py compares its pass time
/// with untraced passes at the same settings.
int run_traced(const Options& o) {
  if (o.jobs != 1) throw std::invalid_argument("traced passes run at --jobs 1");
  SpanRecorder recorder;
  SpanRecorder::set_active(&recorder);
  const int root = recorder.begin("traced_run", "bench");
  Workload traced;
  {
    ScopedSpan span("generate_inputs", "bench");
    traced = make_workload(o.workload, o.seed, o.root);
  }
  const PlanStats plans = stand_up_clusters(traced, true);

  std::vector<double> decide_s;
  const auto time_decide = [&decide_s](const ClusterConfig& c,
                                       const CollectiveBenchSpec& s, long i) {
    const double t0 = now_s();
    ScopedSpan span("sym::decide", "sym", i);
    sym::decide(c, s);
    decide_s.push_back(now_s() - t0);
  };
  for (std::size_t i = 0; i < traced.sweep.size(); ++i) {
    time_decide(traced.sweep.cells[i].cluster, traced.sweep.cells[i].bench,
                static_cast<long>(i));
  }
  if (traced.sweep.size() == 0) {
    time_decide(traced.probe_cluster, traced.probe, -1);
  }

  const auto cache = std::make_shared<coll::PlanCache>();
  const int pass_span = recorder.begin("pass", "bench");
  const PassResult r = run_pass(traced, {1, cache, o.dir});
  recorder.end(pass_span);
  const double pass_s =
      recorder.spans()[static_cast<std::size_t>(pass_span)].end_s -
      recorder.spans()[static_cast<std::size_t>(pass_span)].start_s;

  const ProbeStats probe = run_probe(traced);
  if (traced.journaled) journal_layer(traced, r.cells, o.dir);
  recorder.end(root);
  SpanRecorder::set_active(nullptr);

  print_outputs(traced, r);
  if (!probe.status.usable()) {
    std::fprintf(stderr, "probe cell failed: %s\n",
                 probe.status.describe().c_str());
    return 1;
  }
  metric("sim.events", static_cast<double>(probe.events));
  metric("sim.host_ns_per_event",
         1e9 * probe.run_s / static_cast<double>(probe.events));
  metric("mpi.deliveries", static_cast<double>(probe.deliveries));
  metric("net.host_ns_per_flow",
         1e9 * probe.run_s / static_cast<double>(probe.flows));
  metric("net.rate_recomputes", static_cast<double>(probe.recomputes));
  metric("net.coalesced_recomputes", static_cast<double>(probe.coalesced));
  metric("net.completion_batches", static_cast<double>(probe.batches));
  metric("net.batched_completions", static_cast<double>(probe.batched));
  metric("net.noop_recomputes", static_cast<double>(probe.noops));
  metric("coll.plan_build_s", plans.build_s);
  metric("coll.plan_bytes", static_cast<double>(plans.bytes));
  metric("coll.planview_ns_per_peer",
         1e9 * plans.walk_s / static_cast<double>(plans.peers));
  std::printf("info coll.planview_checksum %llu\n",
              static_cast<unsigned long long>(plans.checksum));
  metric("coll.plan_hits", static_cast<double>(cache->hits()));
  metric("coll.plan_misses", static_cast<double>(cache->misses()));
  metric("coll.plan_cache_peak_bytes", static_cast<double>(cache->peak_bytes()));
  metric("sym.decide_us", 1e6 * median(decide_s));
  print_cell_counters(traced, r);
  if (traced.journaled) metric("pacc.replayed_frac", r.replayed_frac);

  const Span& whole = recorder.spans()[static_cast<std::size_t>(root)];
  metric("trace.total_s", whole.end_s - whole.start_s);
  metric("trace.pass_s", pass_s);
  metric("trace.spans", static_cast<double>(recorder.spans().size()));
  for (const auto& [layer, seconds] : recorder.self_seconds_by_layer()) {
    metric("self." + layer + "_s", seconds);
  }
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    recorder.write_chrome_trace(out);
    if (!out) throw std::runtime_error("cannot write " + o.trace_out);
  }
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--mode") {
      o.mode = value;
    } else if (flag == "--dir") {
      o.dir = value;
    } else if (flag == "--root") {
      o.root = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--jobs") {
      o.jobs = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.mode.empty() || o.dir.empty()) {
    throw std::invalid_argument("--workload, --mode and --dir are required");
  }
  return o;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  try {
    const bench::Options o = bench::parse(argc, argv);
    if (o.mode == "setup") return bench::run_setup(o);
    if (o.mode == "pass") return bench::run_timed(o);
    if (o.mode == "traced") return bench::run_traced(o);
    throw std::invalid_argument("unknown mode " + o.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pacc_bench: %s\n", e.what());
    return 1;
  }
}
