// Tests for the collective MPI_Comm_split and communicator interning.
#include "coll/comm_split.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "test_support.hpp"
#include "coll/registry.hpp"

namespace pacc::coll {
namespace {

using test::check_pattern;
using test::fill_pattern;
using test::run_all;

TEST(InternComm, SameMembersSameObject) {
  Simulation sim(test::small_cluster(2, 4, 2));
  auto& a = sim.runtime().intern_comm({0, 2});
  auto& b = sim.runtime().intern_comm({0, 2});
  auto& c = sim.runtime().intern_comm({0, 1, 2});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Order matters: a different rank order is a different communicator.
  auto& d = sim.runtime().intern_comm({2, 0});
  EXPECT_NE(&a, &d);
}

TEST(CommSplit, PartitionsByColorOrderedByKey) {
  Simulation sim(test::small_cluster(2, 8, 4));
  std::vector<mpi::Comm*> result(8, nullptr);

  auto body = [&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    const int me = world.comm_rank_of(self.id());
    // Even/odd split; key reverses the order within each group.
    result[static_cast<std::size_t>(me)] =
        co_await comm_split(self, world, me % 2, /*key=*/-me);
  };
  ASSERT_TRUE(run_all(sim, body).all_tasks_finished);

  // All evens share one comm; all odds another.
  for (int r = 2; r < 8; r += 2) EXPECT_EQ(result[0], result[static_cast<std::size_t>(r)]);
  for (int r = 3; r < 8; r += 2) EXPECT_EQ(result[1], result[static_cast<std::size_t>(r)]);
  EXPECT_NE(result[0], result[1]);
  ASSERT_NE(result[0], nullptr);
  EXPECT_EQ(result[0]->size(), 4);
  // key = -rank → descending rank order inside the group.
  EXPECT_EQ(result[0]->global_rank(0), 6);
  EXPECT_EQ(result[0]->global_rank(3), 0);
}

TEST(CommSplit, UndefinedColorGetsNull) {
  Simulation sim(test::small_cluster(2, 4, 2));
  std::vector<mpi::Comm*> result(4, reinterpret_cast<mpi::Comm*>(1));
  auto body = [&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    const int me = world.comm_rank_of(self.id());
    const int color = (me == 3) ? kUndefinedColor : 0;
    result[static_cast<std::size_t>(me)] =
        co_await comm_split(self, world, color, 0);
  };
  ASSERT_TRUE(run_all(sim, body).all_tasks_finished);
  EXPECT_EQ(result[3], nullptr);
  ASSERT_NE(result[0], nullptr);
  EXPECT_EQ(result[0]->size(), 3);
}

TEST(CommSplit, CollectivesRunConcurrentlyOnSplitComms) {
  // The two halves broadcast different payloads at the same time; context
  // isolation must keep the traffic apart.
  Simulation sim(test::small_cluster(2, 8, 4));
  std::vector<int> ok(8, 0);

  auto body = [&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    const int me = world.comm_rank_of(self.id());
    const int color = me % 2;
    mpi::Comm* half = co_await comm_split(self, world, color, me);
    if (half == nullptr) co_return;  // would fail the ok[] check below

    std::vector<std::byte> buf(16 * 1024);
    const int sub_me = half->comm_rank_of(self.id());
    if (sub_me == 0) fill_pattern(buf, color, 0x5A);
    co_await bcast(self, *half, buf, 0, {.scheme = PowerScheme::kProposed});
    ok[static_cast<std::size_t>(me)] = check_pattern(buf, color, 0x5A);
  };
  ASSERT_TRUE(run_all(sim, body).all_tasks_finished);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1);
}

TEST(CommSplit, RepeatedSplitsReuseTheSameComm) {
  Simulation sim(test::small_cluster(2, 4, 2));
  std::vector<mpi::Comm*> first(4), second(4);
  auto body = [&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    const int me = world.comm_rank_of(self.id());
    first[static_cast<std::size_t>(me)] =
        co_await comm_split(self, world, 0, me);
    second[static_cast<std::size_t>(me)] =
        co_await comm_split(self, world, 0, me);
  };
  ASSERT_TRUE(run_all(sim, body).all_tasks_finished);
  EXPECT_EQ(first[0], second[0]);
}

TEST(CommSplitDeath, RefusesSyntheticPayloads) {
  // Synthetic payloads never deliver the gathered (color, key) entries, so
  // a split would silently group ranks by whatever the buffer held.
  ClusterConfig cfg = test::small_cluster(2, 4, 2);
  cfg.synthetic_payloads = true;
  Simulation sim(cfg);
  auto body = [&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    co_await comm_split(self, world, self.id() % 2, 0);
  };
  EXPECT_DEATH(run_all(sim, body), "synthetic payloads never deliver them");
}

}  // namespace
}  // namespace pacc::coll
