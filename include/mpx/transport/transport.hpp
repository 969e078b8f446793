// mpx/transport/transport.hpp
//
// The unified transport interface. A Transport is a dumb carrier of Msg
// values between (rank, vci) endpoints; all protocol logic (matching,
// eager/rendezvous state machines) lives in mpx::core, which talks to
// transports ONLY through this interface. World owns an ordered transport
// list and routes each (src, dst) rank pair to the first transport whose
// reaches() claims it — adding a backend (a self/loopback fastpath, a
// socket netmod, ...) is registry-only: no core surgery.
//
// Capability bits tell the protocol layer which message modes a backend
// supports; limits() carries the size cutovers the protocol applies. The
// shared-memory transport and the simulated NIC are the two in-tree
// implementations (constructed by transport::make_builtin_transports);
// out-of-tree backends register through WorldConfig::extra_transports.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpx/base/buffer.hpp"
#include "mpx/transport/msg.hpp"

namespace mpx::transport {

/// Capability bits a transport advertises. The protocol layer selects the
/// send protocol (paper Fig. 1 message modes) from these plus limits().
enum TransportCaps : unsigned {
  /// send_eager() copies the payload before returning (in-slot or into
  /// transport-owned storage), so an eager send is locally complete at
  /// initiation even when it parks (Fig. 1a with zero envelopes).
  cap_eager_local = 1u << 0,
  /// Endpoints share an address space: an RTS may carry the exporter's
  /// buffer pointer (MsgHeader::shm_src) and the data is copied directly
  /// between the user buffers, by both sides' progress (the LMT
  /// rendezvous — one wait block on the sender).
  cap_mapped_memory = 1u << 1,
  /// Sender-side completion queue: a nonzero send cookie is reported via
  /// TransportSink::on_send_complete when the local injection finishes
  /// (Fig. 1b eager and the Fig. 1c pipeline window both need this).
  cap_send_cq = 1u << 2,
};

/// Protocol size cutovers, chosen per transport (WorldConfig-derived for
/// the in-tree backends).
struct TransportLimits {
  /// Above this, sends go rendezvous (mapped LMT or CTS/DATA handshake).
  std::size_t eager_max = 64 * 1024;
  /// cap_send_cq transports: at or below this, eager sends are buffered
  /// fire-and-forget (no completion event).
  std::size_t lightweight_max = 1024;
  /// Rendezvous payloads above this are chunked into a bounded-window
  /// pipeline (indeterminate number of wait blocks, paper §2.1).
  std::size_t pipeline_min = 1024 * 1024;
  std::size_t pipeline_chunk = 256 * 1024;
  int pipeline_inflight = 4;
};

/// Uniform counters every transport reports (concrete backends may expose
/// richer typed stats of their own alongside).
struct TransportStats {
  std::uint64_t sends = 0;        ///< injection attempts accepted
  std::uint64_t delivered = 0;    ///< messages handed to a sink
  std::uint64_t backlogged = 0;   ///< sends that could not place immediately
  std::uint64_t completions = 0;  ///< sender-side completion events fired
};

/// Abstract transport. Implementations must be safe for concurrent send()
/// from any thread holding some VCI lock of the source rank; poll() for one
/// (rank, vci) is externally serialized by that VCI's lock.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Stable identity used by World::find_transport and observability.
  virtual const char* name() const = 0;

  /// TransportCaps bitmask.
  virtual unsigned caps() const = 0;

  /// Protocol size cutovers for this backend.
  virtual const TransportLimits& limits() const = 0;

  /// ProgressMask bit gating this transport's progress stage (core
  /// compiles one stage per transport into each VCI's pipeline). In-tree:
  /// progress_shm / progress_net; out-of-tree backends default to the
  /// shared progress_user bit (1 << 5).
  virtual unsigned progress_bit() const { return 1u << 5; }

  /// True when this transport connects world ranks src -> dst. Routing is
  /// first-match over World's ordered transport list; must be pure (the
  /// route table is compiled once at World construction).
  virtual bool reaches(int src, int dst) const = 0;

  /// Send m from m.h.src_rank to (m.h.dst_rank, m.h.dst_vci). Returns true
  /// when the operation is locally complete (payload copied or owned by the
  /// transport, no completion event will fire). Returns false when
  /// completion is deferred: a nonzero `cookie` is reported through
  /// TransportSink::on_send_complete on a later poll of the source endpoint.
  virtual bool send(Msg&& m, std::uint64_t cookie) = 0;

  /// Zero-envelope eager send: the payload is copied out of `payload`
  /// before return (never owned), so the operation is locally complete
  /// even when the send parks. Only meaningful on cap_eager_local
  /// transports; the default materializes an owned Msg.
  virtual bool send_eager(const MsgHeader& h, base::ConstByteSpan payload,
                          std::uint64_t cookie) {
    Msg m;
    m.h = h;
    m.payload = base::Buffer::copy_of(payload);
    return send(std::move(m), cookie);
  }

  /// Poll endpoint (rank, vci): retry backlogged sends from this side,
  /// deliver arrivals into `sink`, fire due completion events. Sets
  /// *made_progress when anything moved.
  virtual void poll(int rank, int vci, TransportSink& sink,
                    int* made_progress) = 0;

  /// True when the endpoint has nothing queued in any direction (cheap
  /// empty-poll check, paper §2.6).
  virtual bool idle(int rank, int vci) const = 0;

  /// Uniform counters (see TransportStats).
  virtual TransportStats transport_stats() const = 0;
};

}  // namespace mpx::transport
