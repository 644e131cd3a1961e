// Topology goldens: every fabric shape's simulated outputs, byte for byte.
//
// The repo benchmark pins the flat testbed, the 4096-rank single-level fat
// tree and the 16384-rank minimal dragonfly. This suite pins the shapes and
// paths it does not run: uniform racks, a partial last rack, a rack layer
// disabled by rack_bandwidth = 0, a two-level fat tree, minimal and
// adaptive dragonflies, collapsed fat-tree and dragonfly runs (whose
// representatives route via the top of the fabric), one traced cell per
// shape, and link-flap faults on every kind of fault unit.
//
// Each cell prints one line in the benchmark's golden format — label,
// status, latency in ns, energy and power as IEEE-754 bit patterns,
// collapse multiplicity — followed by the nine fault counters and an
// FNV-1a digest of the Chrome-trace JSON ("-" for untraced cells). The
// lines must match tests/golden/topology.txt exactly. On a mismatch the
// actual output is written to topology_golden.actual in the working
// directory; copy it over the golden file only for an intended change of
// simulated behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pacc/simulation.hpp"

#ifndef PACC_TEST_GOLDEN_DIR
#error "PACC_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace pacc {
namespace {

struct Cell {
  std::string label;
  ClusterConfig cluster;
  CollectiveBenchSpec bench;
};

std::string hex(std::uint64_t bits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return hex(bits);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string golden_line(const Cell& cell, const CollectiveReport& r) {
  std::ostringstream out;
  out << cell.label << ' ' << to_string(r.status.outcome) << ' '
      << r.latency.ns() << ' ' << hex(r.energy_per_op) << ' '
      << hex(r.mean_power) << ' ' << r.collapse.multiplicity;
  const fault::FaultStats& f = r.faults;
  for (const std::uint64_t v :
       {f.drops, f.delays, f.retransmits, f.messages_abandoned, f.link_flaps,
        f.flows_preempted, f.transition_failures, f.transition_stretches,
        f.scheme_fallbacks}) {
    out << ' ' << v;
  }
  out << ' ' << (r.trace_json.empty() ? "-" : hex(fnv1a(r.trace_json)));
  return out.str();
}

// ------------------------------------------------------------- shapes ----

ClusterConfig cluster(int nodes, int ranks_per_node) {
  ClusterConfig c;
  c.nodes = nodes;
  c.ranks_per_node = ranks_per_node;
  c.ranks = nodes * ranks_per_node;
  return c;
}

ClusterConfig flat8() { return cluster(8, 8); }

ClusterConfig racks(int nodes, int nodes_per_rack) {
  ClusterConfig c = cluster(nodes, 8);
  c.nodes_per_rack = nodes_per_rack;
  return c;
}

ClusterConfig racks_unprovisioned() {
  ClusterConfig c = racks(8, 4);
  net::NetworkParams network = presets::paper_network();
  network.rack_bandwidth = 0.0;  // rack links exist but are never routed
  c.network = network;
  return c;
}

/// 16 nodes: pairs at level 0, four pairs per top-level group at level 1
/// (oversubscribed 2:1), so two top-level groups.
ClusterConfig fattree16() {
  ClusterConfig c = cluster(16, 8);
  c.fabric = {{2, 1.0}, {4, 2.0}};
  return c;
}

/// 16 nodes: 4 groups of 2 routers × 2 nodes.
ClusterConfig dragonfly16(bool adaptive) {
  ClusterConfig c = cluster(16, 8);
  c.dragonfly.routers_per_group = 2;
  c.dragonfly.nodes_per_router = 2;
  c.dragonfly.adaptive = adaptive;
  return c;
}

ClusterConfig full(ClusterConfig c) {
  c.collapse_multiplicity = 1;
  return c;
}

ClusterConfig traced(ClusterConfig c) {
  c.obs.trace = true;
  return c;
}

ClusterConfig flapping(ClusterConfig c) {
  c.faults = *fault::FaultSpec::parse(
      "seed=7,drop=0.01,flap=300,down-us=100,retries=10");
  return c;
}

CollectiveBenchSpec bench(coll::Op op, coll::PowerScheme scheme,
                          Bytes message) {
  CollectiveBenchSpec b;
  b.op = op;
  b.scheme = scheme;
  b.message = message;
  b.iterations = 2;
  b.warmup = 1;
  return b;
}

std::vector<Cell> cells() {
  using coll::Op;
  using coll::PowerScheme;
  const auto a2a_none = bench(Op::kAlltoall, PowerScheme::kNone, 16 << 10);
  const auto a2a_prop = bench(Op::kAlltoall, PowerScheme::kProposed, 16 << 10);
  const auto bcast = bench(Op::kBcast, PowerScheme::kNone, 64 << 10);
  const auto allreduce = bench(Op::kAllreduce, PowerScheme::kNone, 16 << 10);
  const auto barrier = bench(Op::kBarrier, PowerScheme::kNone, 0);

  std::vector<Cell> out;
  auto add = [&out](std::string label, ClusterConfig c,
                    CollectiveBenchSpec b) {
    out.push_back({std::move(label), std::move(c), std::move(b)});
  };

  // Racks: uniform, partial last rack, and unprovisioned rack links.
  add("racks8x4/alltoall/none", racks(8, 4), a2a_none);
  add("racks8x4/alltoall/proposed", racks(8, 4), a2a_prop);
  add("racks8x4/bcast/none", racks(8, 4), bcast);
  add("racks8x4/allreduce/none", racks(8, 4), allreduce);
  add("racks6x4/alltoall/none", racks(6, 4), a2a_none);
  add("racks6x4/bcast/none", racks(6, 4), bcast);
  add("racks8x4-rackbw0/alltoall/none", racks_unprovisioned(), a2a_none);

  // Two-level fat tree: 1:1 and collapsed (representatives route via_top).
  add("fattree16/alltoall/none/full", full(fattree16()), a2a_none);
  add("fattree16/alltoall/none", fattree16(), a2a_none);
  add("fattree16/alltoall/proposed/full", full(fattree16()), a2a_prop);
  add("fattree16/alltoall/proposed", fattree16(), a2a_prop);
  add("fattree16/barrier/none", fattree16(), barrier);
  add("fattree16/bcast/none", fattree16(), bcast);

  // Dragonfly: minimal (1:1 and collapsed) and adaptive (always 1:1).
  add("df16/alltoall/none/full", full(dragonfly16(false)), a2a_none);
  add("df16/alltoall/none", dragonfly16(false), a2a_none);
  add("df16/alltoall/proposed/full", full(dragonfly16(false)), a2a_prop);
  add("df16/alltoall/proposed", dragonfly16(false), a2a_prop);
  add("df16/barrier/none", dragonfly16(false), barrier);
  add("df16-adaptive/alltoall/none", dragonfly16(true), a2a_none);
  add("df16-adaptive/alltoall/proposed", dragonfly16(true), a2a_prop);

  // One traced cell per shape.
  add("flat8/alltoall/proposed/trace", traced(flat8()), a2a_prop);
  add("racks8x4/alltoall/proposed/trace", traced(racks(8, 4)), a2a_prop);
  add("fattree16/alltoall/proposed/trace", traced(fattree16()), a2a_prop);
  add("df16/alltoall/proposed/trace", traced(dragonfly16(false)), a2a_prop);
  add("df16-adaptive/alltoall/none/trace", traced(dragonfly16(true)),
      a2a_none);

  // Link flaps on every kind of fault unit; the traced ones pin the
  // fabric track names and outage span names.
  add("flat8/alltoall/none/flap", flapping(flat8()), a2a_none);
  add("racks8x4/alltoall/none/flap", flapping(racks(8, 4)), a2a_none);
  add("racks6x4/alltoall/none/flap", flapping(racks(6, 4)), a2a_none);
  add("racks8x4-rackbw0/alltoall/none/flap", flapping(racks_unprovisioned()),
      a2a_none);
  add("df16/alltoall/none/flap", flapping(dragonfly16(false)), a2a_none);
  add("df16-adaptive/alltoall/none/flap", flapping(dragonfly16(true)),
      a2a_none);
  add("fattree16/alltoall/none/flap", flapping(fattree16()), a2a_none);
  add("racks8x4/alltoall/none/flap/trace", traced(flapping(racks(8, 4))),
      a2a_none);
  add("df16/alltoall/none/flap/trace", traced(flapping(dragonfly16(false))),
      a2a_none);
  add("fattree16/alltoall/none/flap/trace", traced(flapping(fattree16())),
      a2a_none);
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TopologyGolden, EveryShapeMatchesItsGoldenLine) {
  const std::string path = std::string(PACC_TEST_GOLDEN_DIR) + "/topology.txt";
  const std::vector<std::string> expected = read_lines(path);
  std::vector<std::string> actual;
  for (const Cell& cell : cells()) {
    actual.push_back(golden_line(cell, measure_collective(cell.cluster,
                                                          cell.bench)));
  }
  if (actual != expected) {
    std::ofstream dump("topology_golden.actual");
    for (const std::string& line : actual) dump << line << '\n';
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "golden file " << path << " has a different cell count";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace pacc
