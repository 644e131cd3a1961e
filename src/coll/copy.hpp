// The collective data path: per-call scratch buffers and the local copies
// and reductions over them.
//
// Whether the bytes are live is one runtime-owned decision,
// mpi::RuntimeParams::synthetic_payloads. With live payloads a Scratch owns
// zeroed (or copied) bytes and copy_bytes / reduce_bytes move and combine
// them. Under synthetic payloads no rank ever reads what it receives, so a
// Scratch is a view of the runtime's never-committed reservation
// (mpi::Runtime::blind_bytes) and copy_bytes / reduce_bytes do nothing:
// only sizes reach the wire, and any touch of a Scratch faults.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>

#include "coll/types.hpp"

namespace pacc::coll {

/// Whether `self`'s runtime carries payload contents.
inline bool payloads_live(mpi::Rank& self) {
  return !self.runtime().params().synthetic_payloads;
}

/// A collective's per-call working buffer: a contiguous range of size()
/// bytes that converts to std::span like the byte vector it replaces. Its
/// contents exist only when payloads are live.
class Scratch {
 public:
  /// `n` zeroed bytes.
  Scratch(mpi::Rank& self, std::size_t n) {
    if (payloads_live(self)) {
      owned_ = std::make_unique<std::byte[]>(n);
      view_ = {owned_.get(), n};
    } else {
      view_ = self.runtime().blind_bytes(n);
    }
  }

  /// A copy of `init`.
  Scratch(mpi::Rank& self, std::span<const std::byte> init) {
    if (payloads_live(self)) {
      owned_ = std::make_unique_for_overwrite<std::byte[]>(init.size());
      view_ = {owned_.get(), init.size()};
      if (!init.empty()) std::memcpy(view_.data(), init.data(), init.size());
    } else {
      view_ = self.runtime().blind_bytes(init.size());
    }
  }

  std::byte* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  std::byte* begin() const { return view_.data(); }
  std::byte* end() const { return view_.data() + view_.size(); }

 private:
  std::unique_ptr<std::byte[]> owned_;
  std::span<std::byte> view_;
};

/// Copies `n` bytes between collective buffers; a no-op under synthetic
/// payloads. memcpy requires non-null pointers even for n == 0, and an
/// all-zero segment over an empty buffer is exactly a null span — so every
/// self-block and pack/unpack copy in the collectives must go through this
/// guard. dst == src (a caller passing one buffer as both send and receive)
/// is equally off-limits for memcpy, and the copy is then a no-op by
/// definition.
inline void copy_bytes(mpi::Rank& self, std::byte* dst, const std::byte* src,
                       std::size_t n) {
  if (n > 0 && dst != src && payloads_live(self)) std::memcpy(dst, src, n);
}

/// reduce_bytes over collective buffers: checks the operands, then combines
/// them only when payloads are live.
inline void reduce_bytes(mpi::Rank& self, ReduceOp op,
                         std::span<std::byte> accum,
                         std::span<const std::byte> in) {
  check_reduce_operands(accum, in);
  if (payloads_live(self)) reduce_bytes(op, accum, in);
}

}  // namespace pacc::coll
