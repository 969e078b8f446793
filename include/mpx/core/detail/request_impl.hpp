// mpx/core/detail/request_impl.hpp
//
// Internal request object. Public code uses mpx::Request (a refcounted
// handle); the runtime manipulates RequestImpl directly. One struct serves
// every operation kind (send, recv, pack, collective, generalized, user) —
// the MPICH approach — so completion, waiting, and the is_complete fast path
// are uniform.
//
// Lifetime: born with one reference owned by the creator's Request handle.
// The protocol layer takes additional references while an operation is in
// flight (message cookies are pointers to referenced impls).
//
// Completion contract: fill `status`, run `on_complete`, then store
// `complete` with release order. MPIX_Request_is_complete is a single
// acquire load with no side effects (paper §3.4).
//
// THREADING. Every mutable field except `complete` is guarded by the owning
// VCI's lock (`vci->mu`): protocol state machines, matching, and completion
// all run inside that VCI's progress. The fields intentionally carry no
// MPX_GUARDED_BY annotations — clang's thread-safety analysis cannot name a
// capability through a pointer member that aliases per-object (`vci->mu` is
// a different mutex per request, and requests reach the protocol layer via
// type-erased cookies), so annotating would force NO_THREAD_SAFETY_ANALYSIS
// escapes on the whole protocol layer. The contract is enforced dynamically
// instead: the lock-rank validator checks the VCI lock is ordered first,
// and the tsan preset checks the data itself. Readers outside the lock may
// touch ONLY `complete` (acquire) and, after observing it true, `status`
// (the release store orders it). The one exception is `lmt`, the shared
// copy state of a mapped-memory rendezvous: the receiver's VCI and the
// sender's VCI both claim chunks from it, each under its own lock, so it
// synchronizes through its own atomics (LmtShare below).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>

#include "mpx/base/buffer.hpp"
#include "mpx/base/intrusive.hpp"
#include "mpx/base/pool.hpp"
#include "mpx/base/status.hpp"
#include "mpx/dtype/datatype.hpp"
#include "mpx/dtype/segment.hpp"
#include "mpx/mc/sync.hpp"

namespace mpx {
class World;
}

namespace mpx::core_detail {

struct Vci;
struct CommImpl;

enum class ReqKind : std::uint8_t {
  send = 0,
  recv,
  pack,       ///< async datatype pack/unpack
  grequest,   ///< generalized request
  user,       ///< ext-layer custom request
  psend,      ///< persistent send (MPI_Send_init)
  precv,      ///< persistent receive (MPI_Recv_init)
  pgeneric,   ///< persistent generic op (persistent collectives)
};

/// Which send protocol an operation chose (paper Fig. 1 message modes).
/// Transport-neutral: the protocol layer picks from the routed transport's
/// capability bits + limits, never from its concrete type.
enum class SendProto : std::uint8_t {
  none = 0,
  eager_local,  ///< cap_eager_local eager: copied out, complete at initiation
  light,        ///< buffered fire-and-forget eager (Fig. 1a), complete now
  eager_cq,     ///< eager over cap_send_cq, completes at injection-done (1b)
  rndv_lmt,     ///< mapped-memory rendezvous: RTS(ptr) -> shared copy -> ACK
  rndv,         ///< CTS/DATA rendezvous / pipeline (Fig. 1c, multiple waits)
};

/// Shared copy state of one mapped-memory rendezvous (SendProto::rndv_lmt),
/// embedded in the sender's request. The RTS cookie reference keeps it alive
/// until the sender handles the ACK.
///
/// Once the receiver has matched the RTS it writes `clip` and publishes its
/// buffer in `dst` (release). From then on every LMT poll on either side
/// claims the next chunk from `cursor`, copies it and adds its length to
/// `copied` (acq_rel, so the count carries every earlier claimer's bytes).
/// The receiver completes and acks once `copied` reads `total` (acquire):
/// every chunk has landed by then, whichever side copied it. A receiver
/// that never publishes (non-contiguous, zero-capacity or zero-byte
/// receive) copies alone and leaves this untouched.
struct LmtShare {
  /// Bytes of the message that fit the receive buffer (min(total,
  /// capacity)). Plain: written before `dst` is published, read after.
  std::uint64_t clip = 0;
  mc::atomic<std::byte*> dst{nullptr};
  mc::atomic<std::uint64_t> cursor{0};  ///< next offset to claim
  mc::atomic<std::uint64_t> copied{0};  ///< bytes of finished chunks

  /// Receiver: open the copy to both sides.
  void publish(std::byte* buf, std::uint64_t clip_bytes) {
    MPX_MC_PLAIN_WRITE(&clip, "LmtShare::clip");
    clip = clip_bytes;
    dst.store(buf, std::memory_order_release);
  }

  /// Claim the next chunk of at most `chunk` bytes of `src`'s `total` and
  /// copy the part below `clip`. Returns the claimed length: 0 when the
  /// copy is not published yet or every chunk is already claimed.
  std::uint64_t copy_chunk(const std::byte* src, std::uint64_t total,
                           std::uint64_t chunk) {
    std::byte* const to = dst.load(std::memory_order_acquire);
    if (to == nullptr || cursor.load(std::memory_order_relaxed) >= total) {
      return 0;
    }
    const std::uint64_t off = cursor.fetch_add(chunk, std::memory_order_relaxed);
    if (off >= total) return 0;
    const std::uint64_t len = std::min(chunk, total - off);
    MPX_MC_PLAIN_READ(&clip, "LmtShare::clip");
    if (off < clip) {
      MPX_MC_PLAIN_WRITE(to + off, "LMT chunk");
      std::memcpy(to + off, src + off,
                  static_cast<std::size_t>(std::min(len, clip - off)));
    }
    copied.fetch_add(len, done_order(std::memory_order_acq_rel));
    return len;
  }

  /// Bytes of finished chunks; reading `total` orders every chunk's copy
  /// before the caller.
  std::uint64_t copied_bytes() const {
    return copied.load(done_order(std::memory_order_acquire));
  }

 private:
  static std::memory_order done_order(std::memory_order mo) {
#if MPX_MODEL_CHECK
    // Seeded-mutation self-test hook: mc::mut::weak_lmt_done weakens the
    // count's ordering to relaxed, so reaching the total no longer orders
    // the peer's chunk copies. The mc suite must catch the data race.
    if (mc::mut::weak_lmt_done) return std::memory_order_relaxed;
#endif
    return mo;
  }
};

/// Generalized-request callbacks (MPI_Grequest_start analog).
struct GrequestFns {
  Err (*query_fn)(void* extra_state, Status* status) = nullptr;
  Err (*free_fn)(void* extra_state) = nullptr;
  Err (*cancel_fn)(void* extra_state, bool complete) = nullptr;
  void* extra_state = nullptr;
};

struct RequestImpl : base::RefCounted {
  explicit RequestImpl(ReqKind k) : kind(k) {}

  /// Requests are the hot currency of the datapath: storage is recycled
  /// through a process-wide, per-thread-sharded freelist (declared below).
  /// The pool is not per-VCI because the last reference to a refcounted
  /// request can drop on any thread (a user thread destroying a Request
  /// handle), not just under the owning VCI's lock. Its summed `live`
  /// count is the tripwire for protocol reference-count leaks: tests
  /// assert request_pool().stats().live returns to its baseline.
  static void* operator new(std::size_t n);
  static void operator delete(void* p) noexcept;

  ReqKind kind;
  /// mc::atomic so the model checker can verify the completion contract:
  /// the release store here is the ONLY thing ordering `status` (and the
  /// received payload) for a polling thread.
  mc::atomic<bool> complete{false};
  World* world = nullptr;
  Vci* vci = nullptr;  ///< VCI whose progress completes this request
  Status status;

  // --- matching (posted receives live in the VCI's matching bins) ---
  base::ListHook match_hook;
  std::int32_t context_id = 0;
  std::int32_t match_src = -1;  ///< world rank or any_source (-1)
  std::int32_t match_tag = -1;  ///< tag or any_tag (-1)
  /// Bin index this receive is filed under; -1 = the wildcard list.
  std::int32_t match_bin = -1;
  /// Per-VCI post order, assigned when the receive enters the matcher;
  /// orders a bin candidate against a wildcard candidate (exact MPI FIFO).
  std::uint64_t match_seq = 0;

  // --- user buffer ---
  void* buf = nullptr;
  std::size_t count = 0;
  dtype::Datatype dt;
  base::Buffer staging;  ///< packed send staging / pipeline assembly

  /// Owning reference to the communicator, held by receives (rank
  /// translation for Status) and persistent operations (re-arming). Sends
  /// leave it empty: copying the shared refcount would write one line per
  /// message that every thread sending on the communicator shares.
  /// shared_ptr's type-erased deleter permits the incomplete type here.
  std::shared_ptr<CommImpl> comm;

  /// Receive-side incremental unpack cursor (in-order data chunks).
  std::unique_ptr<dtype::Segment> seg;

  // --- p2p protocol state ---
  std::int32_t peer = -1;      ///< world rank of the peer
  std::int32_t self = -1;      ///< world rank owning this request
  std::int32_t peer_vci = 0;   ///< destination VCI at the peer
  bool uses_staging = false;  ///< send_src points into `staging`
  SendProto proto = SendProto::none;
  std::uint64_t total_bytes = 0;
  std::uint64_t bytes_moved = 0;   ///< pipeline/assembly progress
  std::uint64_t next_offset = 0;   ///< next pipeline chunk to inject
  const std::byte* send_src = nullptr;  ///< contiguous source bytes
  std::uint64_t peer_cookie = 0;  ///< receiver cookie echoed into data chunks
  std::int32_t chunks_inflight = 0;
  /// Pipeline geometry pinned at CTS time from the then-routed carrier's
  /// limits. Chunk injection and completion accounting use ONLY these, so a
  /// mid-rendezvous topology swap (new carrier, new limits) cannot desync
  /// the sender's acked-bytes reconstruction from the chunks it injected.
  std::int32_t pipe_window = 1;
  std::uint64_t pipe_chunk = 0;
  /// rndv_lmt sends: the copy both sides' LMT progress shares.
  LmtShare lmt;

  // --- completion hook (continuations, collective internals) ---
  using CompleteFn = void (*)(RequestImpl*, void* arg);
  CompleteFn on_complete = nullptr;
  void* on_complete_arg = nullptr;

  // --- generalized request ---
  GrequestFns greq;

  // --- persistent operation (psend/precv/pgeneric): re-armed by start() ---
  std::int32_t my_comm_rank = -1;     ///< caller's rank within `comm`
  base::Ref<RequestImpl> child;       ///< the active cycle's inner request
  bool sync_mode = false;             ///< ssend semantics for psend
  /// pgeneric: launches one cycle's inner operation (persistent
  /// collectives re-run their schedule factory here).
  std::function<base::Ref<RequestImpl>()> pgen_factory;
  /// pgeneric: state pinned for the handle's lifetime (a persistent
  /// collective pins its compiled schedule, cursor, and scratch so every
  /// start() after the first is allocation-free). Freed when the handle's
  /// last reference drops.
  std::shared_ptr<void> pgen_pinned;

  bool cancelled = false;
};

// Every request of every message comes from one pool block of this size.
// Growing it reaches the small-message paths, so a new field has to find
// room in the padding first.
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(RequestImpl) == 416,
              "RequestImpl changed size: check the small-message paths");
#endif

/// Parked blocks per shard of request_pool().
inline constexpr std::size_t kRequestPoolCap = 1024;

/// Process-wide storage pool behind RequestImpl::operator new/delete.
/// Under ASan or MPX_POOL_DISABLE=1 every block passes through the global
/// allocator.
inline base::FixedBlockPool& request_pool() {
  static base::FixedBlockPool pool("request", sizeof(RequestImpl),
                                   kRequestPoolCap);
  return pool;
}

inline void* RequestImpl::operator new(std::size_t n) {
  return request_pool().allocate(n);
}

inline void RequestImpl::operator delete(void* p) noexcept {
  request_pool().deallocate(p);
}

/// Take an extra reference for in-flight protocol state and encode it as a
/// wire cookie.
inline std::uint64_t cookie_of(RequestImpl* r) {
  r->ref_inc();
  return reinterpret_cast<std::uint64_t>(r);
}

/// Decode a wire cookie, adopting the reference taken by cookie_of.
inline base::Ref<RequestImpl> from_cookie(std::uint64_t c) {
  return base::Ref<RequestImpl>(reinterpret_cast<RequestImpl*>(c));
}

}  // namespace mpx::core_detail
