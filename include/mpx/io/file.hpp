// mpx/io/file.hpp
//
// Asynchronous storage I/O — the paper's §2.6 names MPI-IO as one of the
// asynchronous subsystems an MPI library collates progress for, and its
// related-work discussion (ROMIO, extended generalized requests [7]) is
// about exactly this layer. mpx::io is deliberately built ENTIRELY on the
// public extension APIs: every operation is a generalized request whose
// progression is an MPIX_Async hook (ext::grequest_start_with_poll), so
// storage completions flow through the same stream_progress calls as
// messages — interoperable progress in action (§2.7).
//
// The "disk" is a simulated device: an in-memory object store behind an
// access-latency + bandwidth cost model. Operations exist in time and are
// observed by progress, like the simulated NIC.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpx/base/buffer.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/core/comm.hpp"
#include "mpx/core/request.hpp"
#include "mpx/core/world.hpp"

namespace mpx::io {

/// Timing model for the simulated storage device.
struct DiskModel {
  double access_latency = 50e-6;   ///< per-op fixed cost (50 us)
  double read_bw_Bps = 2e9;        ///< 2 GB/s
  double write_bw_Bps = 1e9;       ///< 1 GB/s
};

/// A simulated storage device holding named byte objects ("files").
/// Thread-safe; shared by any number of File handles.
class SimDisk {
 public:
  explicit SimDisk(World& world, DiskModel model = DiskModel{});

  World& world() const { return *world_; }
  const DiskModel& model() const { return model_; }

  /// Current size of an object (0 if absent).
  std::uint64_t size(const std::string& name) const;
  bool exists(const std::string& name) const;
  void remove(const std::string& name);

  /// Immediate (un-timed) access for tests and verification.
  void raw_write(const std::string& name, std::uint64_t offset,
                 base::ConstByteSpan data);
  std::vector<std::byte> raw_read(const std::string& name,
                                  std::uint64_t offset,
                                  std::uint64_t len) const;

  /// Completed writes.
  std::uint64_t writes_completed() const;

  /// Internal: write accounting (called by the io engine at completion).
  void note_write_completed();

 private:
  friend class File;
  World* world_;      // mpxlint: allow(tsa-ratchet) immutable after construction
  DiskModel model_;   // mpxlint: allow(tsa-ratchet) immutable after construction
  mutable base::Spinlock mu_;
  std::map<std::string, std::vector<std::byte>> objects_ MPX_GUARDED_BY(mu_);
  std::uint64_t writes_ MPX_GUARDED_BY(mu_) = 0;
};

/// Handle to one object on a SimDisk, bound to a stream whose progress
/// drives the handle's operations.
class File {
 public:
  /// Open (creating if absent) object `name`, operations progressed on
  /// `stream`.
  static File open(std::shared_ptr<SimDisk> disk, std::string name,
                   const Stream& stream);

  File() = default;
  bool valid() const { return disk_ != nullptr; }
  const std::string& name() const { return name_; }
  std::uint64_t size() const;

  /// Nonblocking write: `data` is captured at call time (the caller's
  /// buffer is immediately reusable, like a buffered send); the object is
  /// updated — and the request completes — when the simulated device
  /// finishes, observed via progress on the file's stream.
  Request iwrite_at(std::uint64_t offset, base::ConstByteSpan data);

  /// Nonblocking read into `out` (must stay valid until completion). Bytes
  /// land at completion time; Status::count_bytes reports how many were
  /// actually available.
  Request iread_at(std::uint64_t offset, base::ByteSpan out);

  /// Collective variants over `comm` (every member calls; completes when
  /// all members' ops and a barrier finish — MPI_File_*_at_all shape).
  void write_at_all(const Comm& comm, std::uint64_t offset,
                    base::ConstByteSpan data);
  void read_at_all(const Comm& comm, std::uint64_t offset, base::ByteSpan out);

 private:
  std::shared_ptr<SimDisk> disk_;
  std::string name_;
  Stream stream_;
};

}  // namespace mpx::io
