// mpx/trace/tracer.hpp
//
// Protocol/progress event tracing. The paper's §2.5: "Managing MPI progress
// can feel almost magical when it works, but extremely frustrating when it
// fails." The tracer makes the engine observable: the runtime emits a
// timestamped record at every protocol transition (post, match, handshake
// legs, completion), captured in a bounded ring per World.
//
// Off by default (zero records, one branch per emit site). Enable via
// WorldConfig::trace_capacity.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mpx/base/spinlock.hpp"

namespace mpx::trace {

/// Traced event kinds, in rough protocol order.
enum class Event : std::uint8_t {
  post_send = 0,   ///< isend issued (detail = SendProto)
  post_recv,       ///< irecv posted
  match,           ///< arrival matched a posted receive
  unexpected,      ///< arrival parked on the unexpected queue
  rts,             ///< rendezvous ready-to-send seen at the receiver
  cts,             ///< clear-to-send seen at the sender
  data,            ///< data chunk landed (detail = chunk bytes)
  ack,             ///< LMT ack seen at the sender
  complete,        ///< a request completed (detail = ReqKind)
  cancel,          ///< a posted receive was cancelled
  progress,        ///< a progress stage made progress (detail = stage index)
};

std::string to_string(Event e);

/// One trace record. `rank`/`vci` name the context that emitted it.
struct Record {
  double t = 0.0;  ///< World::wtime() at emission
  Event ev = Event::post_send;
  std::int32_t rank = -1;
  std::int32_t vci = 0;
  std::int32_t peer = -1;
  std::int32_t tag = -1;
  std::uint64_t bytes = 0;
  std::uint64_t detail = 0;
};

/// Bounded ring of records; concurrent emitters, snapshot readers.
class Tracer {
 public:
  /// capacity 0 disables tracing (emit() is a single branch).
  explicit Tracer(std::size_t capacity) : cap_(capacity) {
    if (cap_ != 0) ring_.resize(cap_);
  }

  bool enabled() const { return cap_ != 0; }

  void emit(const Record& r) {
    if (cap_ == 0) return;
    base::LockGuard<base::Spinlock> g(mu_);
    ring_[next_ % cap_] = r;
    ++next_;
  }

  /// Records in emission order (oldest first); at most `capacity` entries.
  std::vector<Record> snapshot() const;

  /// Total records emitted (including overwritten ones).
  std::uint64_t emitted() const {
    base::LockGuard<base::Spinlock> g(mu_);
    return next_;
  }

  /// Human-readable dump, one record per line.
  void dump(std::ostream& os) const;

 private:
  const std::size_t cap_;  // ring capacity, frozen at construction
  mutable base::Spinlock mu_;
  std::vector<Record> ring_ MPX_GUARDED_BY(mu_);
  std::uint64_t next_ MPX_GUARDED_BY(mu_) = 0;
};

}  // namespace mpx::trace
