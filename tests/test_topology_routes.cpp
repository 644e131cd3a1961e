// hw::Topology suite: link tables, routes and fault units of every shape.
//
// Contracts under test. Every builder's routes agree with the network that
// runs on them: under random unit outages, path_up() is true exactly when
// every link of route() has bandwidth, and a started flow crosses exactly
// the links route() names, in route() order. The link-id layouts of racks
// (uniform, partial, unprovisioned) and of a two-level fat tree are pinned
// next to the dragonfly ids in test_dragonfly.cpp; so are the fault-unit
// order and the top-level translation group each shape reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "hw/topology.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace pacc {
namespace {

hw::ClusterShape nodes(int count) {
  hw::ClusterShape shape;
  shape.nodes = count;
  return shape;
}

hw::ClusterShape racks(int count, int nodes_per_rack) {
  hw::ClusterShape shape = nodes(count);
  shape.nodes_per_rack = nodes_per_rack;
  return shape;
}

hw::ClusterShape fat_tree(int count, std::vector<hw::FabricLevelSpec> levels) {
  hw::ClusterShape shape = nodes(count);
  shape.fabric = std::move(levels);
  return shape;
}

hw::ClusterShape dragonfly(int count, int routers_per_group,
                           int nodes_per_router, bool adaptive) {
  hw::ClusterShape shape = nodes(count);
  shape.dragonfly.routers_per_group = routers_per_group;
  shape.dragonfly.nodes_per_router = nodes_per_router;
  shape.dragonfly.adaptive = adaptive;
  return shape;
}

net::NetworkParams params(double rack_bandwidth = 1.5e9) {
  net::NetworkParams p;
  p.link_bandwidth = 1e9;
  p.shm_bandwidth = 2e9;
  p.rack_bandwidth = rack_bandwidth;
  return p;
}

struct Instance {
  std::string name;
  hw::ClusterShape shape;
  net::NetworkParams params;
};

/// A small instance of every builder, plus the variants that change its
/// routes: a partial last rack, unprovisioned rack links, one to three
/// fat-tree levels, minimal and adaptive dragonflies (with and without a
/// spare group for the Valiant detour).
std::vector<Instance> instances() {
  return {
      {"flat", nodes(4), params()},
      {"racks", racks(8, 4), params()},
      {"racks-partial", racks(6, 4), params()},
      {"racks-unprovisioned", racks(6, 4), params(0.0)},
      {"fattree1", fat_tree(6, {{3, 2.0}}), params()},
      {"fattree2", fat_tree(8, {{2, 1.0}, {2, 2.0}}), params()},
      {"fattree3", fat_tree(8, {{2, 1.0}, {2, 1.0}, {2, 2.0}}), params()},
      {"dragonfly", dragonfly(12, 2, 2, false), params()},
      {"dragonfly-adaptive", dragonfly(12, 2, 2, true), params()},
      {"dragonfly-adaptive-2groups", dragonfly(8, 2, 2, true), params()},
  };
}

std::vector<int> route(const hw::Topology& topo, int src, int dst,
                       bool force_loopback, bool via_top) {
  std::int32_t links[hw::Topology::kMaxRoute];
  const int n = topo.route(src, dst, force_loopback, via_top, links);
  return {links, links + n};
}

/// Every link's current efficiency: its fault unit's, or 1 for the links
/// no unit owns (shared-memory channels, unrouted rack pairs).
std::vector<double> link_efficiency(const net::FlowNetwork& net) {
  const hw::Topology& topo = net.topology();
  std::vector<double> eff(static_cast<std::size_t>(topo.links()), 1.0);
  for (std::size_t u = 0; u < topo.units().size(); ++u) {
    const double e = net.unit_efficiency(static_cast<int>(u));
    eff[static_cast<std::size_t>(topo.units()[u].up)] = e;
    eff[static_cast<std::size_t>(topo.units()[u].down)] = e;
  }
  return eff;
}

TEST(TopologyRoutes, PathUpAndStartedFlowsAgreeWithRoute) {
  for (const Instance& inst : instances()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(inst.name + " seed " + std::to_string(seed));
      sim::Engine engine;
      net::FlowNetwork net(engine, inst.shape, inst.params);
      const hw::Topology& topo = net.topology();
      // Random outages: each unit down, degraded or healthy.
      Rng rng(seed);
      for (std::size_t u = 0; u < topo.units().size(); ++u) {
        const std::uint64_t pick = rng.next_below(4);
        if (pick == 0) net.set_unit_efficiency(static_cast<int>(u), 0.0);
        if (pick == 1) net.set_unit_efficiency(static_cast<int>(u), 0.5);
      }
      const std::vector<double> eff = link_efficiency(net);

      std::vector<std::vector<int>> started;
      for (int src = 0; src < topo.nodes(); ++src) {
        for (int dst = 0; dst < topo.nodes(); ++dst) {
          for (const bool loopback : {false, true}) {
            for (const bool via_top : {false, true}) {
              const std::vector<int> links =
                  route(topo, src, dst, loopback, via_top);
              ASSERT_FALSE(links.empty());
              EXPECT_EQ(std::set<int>(links.begin(), links.end()).size(),
                        links.size())
                  << "route repeats a link";
              const bool all_up =
                  std::all_of(links.begin(), links.end(), [&eff](int l) {
                    return eff[static_cast<std::size_t>(l)] > 0.0;
                  });
              EXPECT_EQ(net.path_up(src, dst, loopback, via_top), all_up)
                  << src << "->" << dst << " loopback=" << loopback
                  << " via_top=" << via_top;
              if (!all_up) continue;
              net.start_flow(src, dst, 1024, loopback, 1.0, {}, via_top);
              started.push_back(links);
            }
          }
        }
      }
      // Nothing has completed, so the slab holds the flows in start order.
      const auto flows = net.snapshot_flows();
      EXPECT_FALSE(started.empty());
      ASSERT_EQ(flows.size(), started.size());
      for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_EQ(flows[i].links, started[i]) << "flow " << i;
      }
    }
  }
}

TEST(TopologyRoutes, OnlyHcaLinksAreContended) {
  for (const Instance& inst : instances()) {
    const hw::Topology topo(inst.shape, 1e9, 2e9, 1.5e9);
    for (int l = 0; l < topo.links(); ++l) {
      EXPECT_EQ(topo.link(l).contended, l < 2 * topo.nodes())
          << inst.name << " link " << l;
    }
  }
}

// ------------------------------------------------------- pinned layouts ----

std::vector<int> flow_links(const hw::ClusterShape& shape,
                            const net::NetworkParams& p, int src, int dst,
                            bool force_loopback = false,
                            bool via_top = false) {
  sim::Engine e;
  net::FlowNetwork net(e, shape, p);
  net.start_flow(src, dst, 1024, force_loopback, 1.0, {}, via_top);
  const auto flows = net.snapshot_flows();
  EXPECT_EQ(flows.size(), 1u);
  return flows.empty() ? std::vector<int>{} : flows.front().links;
}

TEST(TopologyLayout, RackLinkIds) {
  // 8 nodes in racks of 4: HCA up = node, down = 8 + node, shm = 16 + node,
  // rack up = 24 + rack, rack down = 26 + rack.
  const hw::ClusterShape shape = racks(8, 4);
  EXPECT_EQ(flow_links(shape, params(), 1, 6),
            (std::vector<int>{1, 14, 24, 27}));
  EXPECT_EQ(flow_links(shape, params(), 0, 3), (std::vector<int>{0, 11}));
  EXPECT_EQ(flow_links(shape, params(), 2, 2), (std::vector<int>{18}));
  EXPECT_EQ(flow_links(shape, params(), 2, 2, /*force_loopback=*/true),
            (std::vector<int>{2, 10}));
  EXPECT_EQ(flow_links(shape, params(), 0, 0, false, /*via_top=*/true),
            (std::vector<int>{0, 8, 24, 26}));
  // A partial last rack (6 nodes: racks of 4 and 2): rack up = 18 + rack,
  // rack down = 20 + rack.
  EXPECT_EQ(flow_links(racks(6, 4), params(), 5, 0),
            (std::vector<int>{5, 6, 19, 20}));
  // Unprovisioned rack links keep their ids but carry nothing.
  EXPECT_EQ(flow_links(shape, params(0.0), 1, 6), (std::vector<int>{1, 14}));
  EXPECT_EQ(hw::Topology(shape, 1e9, 2e9, 0.0).links(), 28);
}

TEST(TopologyLayout, TwoLevelFatTreeLinkIds) {
  // 8 nodes, pairs at level 0, pairs of pairs at level 1: HCA up = node,
  // down = 8 + node, shm = 16 + node, the implicit rack pair 24/25, level-0
  // up = 26 + g, down = 30 + g, level-1 up = 34 + g, down = 36 + g.
  const hw::ClusterShape shape = fat_tree(8, {{2, 1.0}, {2, 2.0}});
  EXPECT_EQ(flow_links(shape, params(), 0, 1), (std::vector<int>{0, 9}));
  EXPECT_EQ(flow_links(shape, params(), 0, 2),
            (std::vector<int>{0, 10, 26, 31}));
  EXPECT_EQ(flow_links(shape, params(), 0, 5),
            (std::vector<int>{0, 13, 26, 32, 34, 37}));
  EXPECT_EQ(flow_links(shape, params(), 0, 1, false, /*via_top=*/true),
            (std::vector<int>{0, 9, 26, 30, 34, 36}));
}

TEST(TopologyLayout, FaultUnitsInIdOrder) {
  auto kinds = [](const hw::ClusterShape& shape, double rack_bandwidth) {
    const hw::Topology topo(shape, 1e9, 2e9, rack_bandwidth);
    std::vector<std::string> out;
    for (const hw::Topology::Unit& unit : topo.units()) {
      out.push_back(std::string(unit.kind) + " " +
                    std::to_string(unit.index));
    }
    return out;
  };
  EXPECT_EQ(kinds(nodes(2), 1.5e9),
            (std::vector<std::string>{"hca node 0", "hca node 1"}));
  EXPECT_EQ(kinds(racks(3, 2), 1.5e9),
            (std::vector<std::string>{"hca node 0", "hca node 1", "hca node 2",
                                      "rack link 0", "rack link 1"}));
  EXPECT_EQ(kinds(racks(3, 2), 0.0).size(), 3u);  // no rack units
  EXPECT_EQ(kinds(fat_tree(4, {{2, 1.0}, {2, 1.0}}), 1.5e9),
            (std::vector<std::string>{"hca node 0", "hca node 1", "hca node 2",
                                      "hca node 3", "fabric l0 group 0",
                                      "fabric l0 group 1",
                                      "fabric l1 group 0"}));
  EXPECT_EQ(kinds(dragonfly(4, 1, 2, false), 1.5e9),
            (std::vector<std::string>{"hca node 0", "hca node 1", "hca node 2",
                                      "hca node 3", "df router 0",
                                      "df router 1", "df global 0",
                                      "df global 1"}));
}

TEST(TopologyLayout, TranslationGroups) {
  const hw::TranslationGroup flat = hw::translation_group(nodes(8));
  EXPECT_EQ(flat.nodes, 1);
  EXPECT_FALSE(flat.grouped);
  EXPECT_EQ(flat.refusal, nullptr);

  const hw::TranslationGroup racked = hw::translation_group(racks(8, 4));
  EXPECT_EQ(racked.nodes, 0);
  ASSERT_NE(racked.refusal, nullptr);
  EXPECT_NE(std::string(racked.refusal).find("rack"), std::string::npos);

  const hw::TranslationGroup tree =
      hw::translation_group(fat_tree(16, {{2, 1.0}, {4, 2.0}}));
  EXPECT_EQ(tree.nodes, 8);
  EXPECT_TRUE(tree.grouped);
  EXPECT_EQ(tree.refusal, nullptr);

  const hw::TranslationGroup df =
      hw::translation_group(dragonfly(16, 2, 2, false));
  EXPECT_EQ(df.nodes, 4);
  EXPECT_TRUE(df.grouped);
  EXPECT_EQ(df.refusal, nullptr);
  const hw::TranslationGroup adaptive =
      hw::translation_group(dragonfly(16, 2, 2, true));
  EXPECT_EQ(adaptive.nodes, 4);
  ASSERT_NE(adaptive.refusal, nullptr);
  EXPECT_NE(std::string(adaptive.refusal).find("adaptive"),
            std::string::npos);
}

}  // namespace
}  // namespace pacc
