// mpx/core/stream.hpp
//
// MPIX_Stream (§3.1) and MPIX_Stream_progress (§3.2).
//
// A Stream names a serial execution context inside the runtime — a VCI with
// its own lock, pending-operation lists, and transport endpoints. Operations
// and progress targeted at different streams never contend. The default
// stream (null_stream) is VCI 0, shared by every thread of a rank: progress
// on it takes the shared lock, which is exactly the contention the paper's
// Fig. 9 measures and Fig. 11 removes.
#pragma once

#include "mpx/base/status.hpp"

namespace mpx {

class World;

/// Which progress subsystems a progress call should poll. Streams carry a
/// default mask derived from Info hints (e.g. {"mpx_skip_netmod","1"}),
/// mirroring the paper's suggestion that latency-sensitive subsystems can
/// opt out of collation (§3.2).
enum ProgressMask : unsigned {
  progress_dtype = 1u << 0,
  progress_coll = 1u << 1,
  progress_async = 1u << 2,
  progress_shm = 1u << 3,
  progress_net = 1u << 4,
  /// Out-of-tree ProgressSources and Transports registered through
  /// WorldConfig::extra_sources/extra_transports share this bit unless
  /// they override mask_bit()/progress_bit().
  progress_user = 1u << 5,
  progress_all = 0x3F,
};

/// Value handle for an execution stream. Obtain from World::stream_create or
/// World::null_stream. Copyable; does not own the underlying VCI (streams
/// are freed explicitly via World::stream_free, MPIX_Stream_free analog).
class Stream {
 public:
  /// Invalid handle.
  Stream() = default;

  bool valid() const { return world_ != nullptr; }
  World& world() const {
    expects(world_ != nullptr, "Stream: invalid handle");
    return *world_;
  }
  int rank() const { return rank_; }
  int vci() const { return vci_; }

  /// Subsystem mask used by progress on this stream.
  unsigned mask() const { return mask_; }

  friend bool operator==(const Stream& a, const Stream& b) {
    return a.world_ == b.world_ && a.rank_ == b.rank_ && a.vci_ == b.vci_;
  }

 private:
  friend class World;
  friend class Comm;
  Stream(World* w, int rank, int vci, unsigned mask)
      : world_(w), rank_(rank), vci_(vci), mask_(mask) {}

  World* world_ = nullptr;
  int rank_ = -1;
  int vci_ = -1;
  unsigned mask_ = progress_all;
};

/// MPIX_Stream_progress: advance all work attached to `stream` — the
/// collated progress function of Listing 1.1. Polls the VCI's compiled
/// stage table (datatype engine, user async hooks, registered extra sources
/// such as the collective executor, then one stage per transport, in
/// registry order), early-exiting once progress is made. Successive calls
/// resume the scan after the last productive stage, so a chatty early stage
/// cannot starve the transports.
///
/// Returns nonzero when any progress was made.
int stream_progress(const Stream& stream);

/// As above with an explicit subsystem mask overriding the stream's own.
int stream_progress(const Stream& stream, unsigned mask);

}  // namespace mpx
