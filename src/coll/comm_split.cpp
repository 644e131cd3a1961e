#include "coll/comm_split.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "coll/allgather.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

sim::Task<mpi::Comm*> comm_split(mpi::Rank& self, mpi::Comm& comm, int color,
                                 int key) {
  PACC_EXPECTS(color >= kUndefinedColor);
  PACC_EXPECTS_MSG(!self.runtime().params().synthetic_payloads,
                   "comm_split reads the (color, key) entries it gathers, "
                   "and synthetic payloads never deliver them");
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);

  // Allgather everyone's (color, key) — the real MPI implementation's
  // approach, using the ring so it works for any P.
  struct Entry {
    int color;
    int key;
  };
  std::vector<std::byte> mine(sizeof(Entry));
  const Entry my_entry{color, key};
  std::memcpy(mine.data(), &my_entry, sizeof(Entry));
  std::vector<std::byte> all(static_cast<std::size_t>(P) * sizeof(Entry));
  co_await allgather_ring(self, comm, mine, all,
                          static_cast<Bytes>(sizeof(Entry)));

  if (color == kUndefinedColor) co_return nullptr;

  // Collect my color group, ordered by (key, original comm rank).
  struct Member {
    int key;
    int comm_rank;
  };
  std::vector<Member> group;
  const auto* entries = reinterpret_cast<const Entry*>(all.data());
  for (int r = 0; r < P; ++r) {
    if (entries[r].color == color) {
      group.push_back(Member{entries[r].key, r});
    }
  }
  std::sort(group.begin(), group.end(), [](const Member& a, const Member& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.comm_rank < b.comm_rank;
  });

  std::vector<int> globals;
  globals.reserve(group.size());
  for (const auto& m : group) {
    globals.push_back(comm.global_rank(m.comm_rank));
  }
  // Every member computes the identical list, so interning yields the same
  // Comm object (and context id) for the whole group.
  co_return &self.runtime().intern_comm(globals);
}

}  // namespace pacc::coll
