// Synthetic payloads are content-blind end to end: every registered
// algorithm × scheme it implements reports bit-identical latency, energy,
// power and profile with and without payload contents. Under synthetic
// payloads the collectives' scratch is PROT_NONE address space
// (mpi::Runtime::blind_bytes), so a collective that still touched its
// scratch would crash this suite instead of passing it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coll/copy.hpp"
#include "coll/registry.hpp"
#include "coll/topo_aware.hpp"
#include "test_support.hpp"

namespace pacc::coll {
namespace {

/// What one measured call reports; compared bit for bit across modes.
struct Outcome {
  bool ok = false;
  std::int64_t latency_ns = 0;
  std::uint64_t energy_bits = 0;
  std::uint64_t power_bits = 0;
  /// op → (calls, bytes, total ns, max ns)
  std::map<std::string, std::tuple<std::uint64_t, std::uint64_t, std::int64_t,
                                   std::int64_t>>
      profile;
};

/// The (send, recv) lengths of one rank's buffers, as measure_collective
/// sizes them.
std::pair<std::size_t, std::size_t> lengths(Op op, std::size_t P,
                                            std::size_t m) {
  switch (op) {
    case Op::kAlltoall:
    case Op::kAlltoallv:
      return {P * m, P * m};
    case Op::kBcast:
      return {m, 0};
    case Op::kReduce:
    case Op::kAllreduce:
    case Op::kScan:
      return {m, m};
    case Op::kAllgather:
    case Op::kGather:
      return {m, P * m};
    case Op::kScatter:
    case Op::kReduceScatter:
      return {P * m, m};
    case Op::kBarrier:
      break;
  }
  return {0, 0};
}

/// Times one call of `exec` (root 1, `msg`-byte blocks) between two
/// barriers, like measure_collective's window, with private per-rank
/// buffers whose send side holds real doubles.
Outcome measure(ClusterConfig cfg, bool synthetic, Op op, AlgoExec exec,
                PowerScheme scheme, Bytes msg) {
  cfg.synthetic_payloads = synthetic;
  Simulation sim(cfg);
  const auto P = static_cast<std::size_t>(cfg.ranks);
  const auto len = lengths(op, P, static_cast<std::size_t>(msg));
  std::vector<std::vector<std::byte>> sends(P), recvs(P);
  const std::vector<Bytes> counts(P, msg);
  TimePoint t0, t1;
  Joules e0 = 0.0, e1 = 0.0;

  auto body = [&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    auto& send = sends[static_cast<std::size_t>(self.id())];
    auto& recv = recvs[static_cast<std::size_t>(self.id())];
    send.resize(len.first);
    recv.resize(len.second);
    for (std::size_t i = 0; i + sizeof(double) <= send.size();
         i += sizeof(double)) {
      const double v = self.id() + static_cast<double>(i);
      std::memcpy(send.data() + i, &v, sizeof v);
    }
    AlgoCall call;
    call.send = send;
    call.recv = recv;
    if (op == Op::kAlltoallv) {
      call.send_counts = counts;
      call.recv_counts = counts;
    }
    call.block = msg;
    call.root = 1;
    call.scheme = scheme;
    co_await barrier(self, world);
    if (self.id() == 0) {
      t0 = self.engine().now();
      e0 = self.machine().total_energy();
    }
    co_await exec(self, world, call);
    co_await barrier(self, world);
    if (self.id() == 0) {
      t1 = self.engine().now();
      e1 = self.machine().total_energy();
    }
  };
  const RunReport run = sim.run(body);

  Outcome out;
  out.ok = run.status.ok();
  out.latency_ns = (t1 - t0).ns();
  out.energy_bits = std::bit_cast<std::uint64_t>(e1 - e0);
  out.power_bits = std::bit_cast<std::uint64_t>((e1 - e0) / (t1 - t0).sec());
  for (const auto& [name, s] : sim.runtime().profiler().stats()) {
    out.profile[name] = {s.calls, s.bytes, s.total_time.ns(),
                         s.max_time.ns()};
  }
  return out;
}

void expect_content_blind(const ClusterConfig& cfg, Op op, AlgoExec exec,
                          PowerScheme scheme) {
  // One sub-eager size (also Bruck's regime) and one rendezvous size (also
  // the scatter-allgather bcast's and Rabenseifner's).
  for (const Bytes msg : {Bytes{256}, Bytes{64 * 1024}}) {
    SCOPED_TRACE(std::to_string(cfg.nodes) + " nodes x " +
                 std::to_string(cfg.ranks_per_node) + " ppn, " +
                 std::to_string(msg) + " B");
    const Outcome real = measure(cfg, false, op, exec, scheme, msg);
    const Outcome blind = measure(cfg, true, op, exec, scheme, msg);
    ASSERT_TRUE(real.ok);
    ASSERT_TRUE(blind.ok);
    EXPECT_GT(real.latency_ns, 0);
    EXPECT_EQ(real.latency_ns, blind.latency_ns);
    EXPECT_EQ(real.energy_bits, blind.energy_bits);
    EXPECT_EQ(real.power_bits, blind.power_bits);
    EXPECT_EQ(real.profile, blind.profile);
  }
}

struct Cell {
  const AlgoDesc* desc;
  PowerScheme scheme;
};

std::vector<Cell> every_algorithm_and_scheme() {
  std::vector<Cell> cells;
  for (const AlgoDesc& desc : algorithms()) {
    for (const PowerScheme scheme : kAllSchemes) {
      if (algo_supports(desc, scheme)) cells.push_back({&desc, scheme});
    }
  }
  return cells;
}

class SyntheticPayloads : public ::testing::TestWithParam<Cell> {};

TEST_P(SyntheticPayloads, BitIdenticalToRealPayloads) {
  const Cell cell = GetParam();
  // A power-of-two and a non-power-of-two two-level cluster, plus a single
  // node, whose flat paths (Rabenseifner, flat scatter-allgather bcast,
  // recursive-doubling allgather) the two-level dispatch never takes.
  for (const ClusterConfig& cfg :
       {test::small_cluster(2, 16, 8), test::small_cluster(3, 12, 4),
        test::small_cluster(1, 8, 8)}) {
    expect_content_blind(cfg, cell.desc->op, cell.desc->exec, cell.scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SyntheticPayloads,
    ::testing::ValuesIn(every_algorithm_and_scheme()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(info.param.desc->name) + "_" +
             test::scheme_tag(info.param.scheme);
    });

sim::Task<> exec_scatter_topo(mpi::Rank& self, mpi::Comm& comm,
                              const AlgoCall& call) {
  co_await scatter_topo_aware(self, comm, call.send, call.recv, call.block,
                              call.root, {.scheme = call.scheme});
}

sim::Task<> exec_gather_topo(mpi::Rank& self, mpi::Comm& comm,
                             const AlgoCall& call) {
  co_await gather_topo_aware(self, comm, call.send, call.recv, call.block,
                             call.root, {.scheme = call.scheme});
}

TEST(SyntheticPayloadsTopoAware, BitIdenticalToRealPayloads) {
  // The rack-aware scatter/gather are not registry entries.
  ClusterConfig racked = test::small_cluster(4, 8, 2);
  racked.nodes_per_rack = 2;
  for (const PowerScheme scheme : kAllSchemes) {
    SCOPED_TRACE(to_string(scheme));
    expect_content_blind(racked, Op::kScatter, exec_scatter_topo, scheme);
    expect_content_blind(racked, Op::kGather, exec_gather_topo, scheme);
  }
}

TEST(Scratch, OwnsZeroedOrCopiedBytesWithLivePayloads) {
  Simulation sim(test::small_cluster(1, 2, 2));
  mpi::Rank& self = sim.runtime().rank(0);
  const Scratch zeroed(self, 64);
  ASSERT_EQ(zeroed.size(), 64u);
  for (const std::byte b : zeroed) EXPECT_EQ(b, std::byte{0});

  std::vector<std::byte> init(24);
  test::fill_pattern(init, 3, 4);
  const Scratch copy(self, init);
  EXPECT_NE(copy.data(), init.data());
  EXPECT_TRUE(test::check_pattern(copy, 3, 4));

  Scratch accum(self, std::vector<std::byte>(16));
  std::vector<std::byte> ones(16);
  const double one = 1.0;
  std::memcpy(ones.data(), &one, sizeof one);
  std::memcpy(ones.data() + sizeof one, &one, sizeof one);
  reduce_bytes(self, ReduceOp::kSum, accum, ones);
  copy_bytes(self, init.data(), accum.data(), accum.size());
  EXPECT_EQ(std::memcmp(init.data(), ones.data(), ones.size()), 0);
}

TEST(Scratch, ViewsUntouchableBytesUnderSyntheticPayloads) {
  ClusterConfig cfg = test::small_cluster(1, 2, 2);
  cfg.synthetic_payloads = true;
  Simulation sim(cfg);
  mpi::Rank& self = sim.runtime().rank(0);
  const Scratch small(self, 64);
  const Scratch large(self, std::vector<std::byte>(1 << 20));
  ASSERT_EQ(small.size(), 64u);
  ASSERT_EQ(large.size(), std::size_t{1} << 20);
  // Growing maps a new reservation; the old view stays valid address space.
  EXPECT_NE(small.data(), large.data());
  // Copies and reductions over the views are no-ops; any touch would fault.
  std::vector<std::byte> host(64, std::byte{7});
  copy_bytes(self, host.data(), small.data(), host.size());
  copy_bytes(self, small.data(), host.data(), host.size());
  reduce_bytes(self, ReduceOp::kSum,
               std::span<std::byte>(large).first(64), host);
  EXPECT_EQ(host, std::vector<std::byte>(64, std::byte{7}));
  EXPECT_DEATH(*static_cast<volatile std::byte*>(large.data()) = std::byte{1},
               "");
}

TEST(Scratch, BlindBytesRequireSyntheticPayloads) {
  Simulation sim(test::small_cluster(1, 2, 2));
  EXPECT_DEATH(sim.runtime().blind_bytes(8), "no one reads payloads");
}

}  // namespace
}  // namespace pacc::coll
