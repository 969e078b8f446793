// mpx/dtype/pack_engine.hpp
//
// Asynchronous pack/unpack work items. Large non-contiguous transfers (and,
// on real systems, GPU pack kernels) do not finish inline: MPICH moves them
// in chunks from its Datatype_engine_progress hook. PackEngine is that
// subsystem: a list of in-flight PackWork items advanced one chunk per poll.
//
// The engine is per-VCI (one serial context owns it), so it needs no locking
// of its own; the VCI lock covers it.
#pragma once

#include <cstddef>
#include <list>
#include <memory>

#include "mpx/base/buffer.hpp"
#include "mpx/dtype/segment.hpp"

namespace mpx::dtype {

/// Direction of an async datatype operation.
enum class PackDir { pack, unpack };

/// One in-flight chunked pack/unpack. Completion is observable through the
/// owner-supplied on_done callback (the core wires it to a Request).
class PackWork {
 public:
  /// For pack: typed -> `packed`. For unpack: `packed` -> typed.
  /// `chunk` bytes are moved per poll (0 means "all at once").
  PackWork(PackDir dir, void* typed_buf, std::size_t count, Datatype dt,
           base::ByteSpan packed, std::size_t chunk);

  /// Advance by one chunk. Returns true when the work completed on this poll.
  bool poll();

  bool done() const { return seg_.done(); }
  std::size_t bytes_moved() const { return seg_.position(); }
  std::size_t total_bytes() const { return seg_.packed_size(); }

 private:
  PackDir dir_;
  Segment seg_;
  base::ByteSpan packed_;
  std::size_t chunk_;
};

/// The per-VCI datatype subsystem: first hook of the collated progress
/// function. Owns its work items.
class PackEngine {
 public:
  /// Completion callback invoked (under the owning VCI's lock) when a work
  /// item finishes.
  using DoneFn = void (*)(void* cookie);

  /// Enqueue new work; `on_done(cookie)` fires when it completes.
  void submit(std::unique_ptr<PackWork> work, DoneFn on_done, void* cookie);

  /// Advance every active work item by one chunk.
  /// Sets *made_progress when any bytes moved. Returns number completed.
  int progress(int* made_progress);

  bool idle() const { return active_.empty(); }

 private:
  struct Entry {
    std::unique_ptr<PackWork> work;
    DoneFn on_done;
    void* cookie;
  };
  std::list<Entry> active_;
};

}  // namespace mpx::dtype
