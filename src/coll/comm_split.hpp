// MPI_Comm_split: collectively partition a communicator by color, ordering
// each group by (key, rank). Every member of a group receives the SAME
// Comm object (interned in the runtime), so subsequent collectives on the
// split comm share one context id and matched call counters.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

/// MPI's MPI_UNDEFINED: a rank passing this color receives nullptr.
inline constexpr int kUndefinedColor = -1;

/// Collective over `comm`: all members must call with matching order.
/// Returns the caller's new sub-communicator (or nullptr for
/// kUndefinedColor). Implemented as an allgather of (color, key) followed
/// by a deterministic local grouping, so it reads payload contents and
/// refuses a synthetic-payload runtime.
sim::Task<mpi::Comm*> comm_split(mpi::Rank& self, mpi::Comm& comm, int color,
                                 int key);

}  // namespace pacc::coll
