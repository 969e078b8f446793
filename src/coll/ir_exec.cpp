// The compiled-schedule executor: a ProgressSource ("coll-exec") that runs
// Schedule graphs to completion from inside the progress engine.
//
// Execution state lives in pooled ExecCursors. launch() arms a cursor
// (resolves the symbolic block ranges against the call's count, seeds the
// ready set from the graph's entry nodes) and pushes it onto the target
// VCI's inbox — a Treiber MPSC stack, because member threads launch while
// the VCI owner polls. Each poll drains the inbox and steps every running
// cursor: harvest completed sends/receives, walk the CSR successor lists,
// post or locally execute newly ready nodes, repeat until a pass makes no
// progress. A drained graph completes the cursor's generalized request.
//
// The steady-state allocation story (the point of the cache): a cursor is
// pool storage, its per-run arrays live in one pooled buffer sized by the
// schedule, its scratch arena comes from the schedule's recycler, and the
// grequest recycles through the request pool — a repeated cached collective
// touches the allocator zero times. Persistent handles go further and pin
// one cursor for their lifetime; start() only re-arms it.
//
// This file is model-checked (MODELED_FILES): cross-thread state uses
// mc::atomic, per-VCI state is plain and serialized by the VCI lock.
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "ir_internal.hpp"
#include "mpx/base/buffer.hpp"
#include "mpx/base/pool.hpp"
#include "mpx/core/progress_source.hpp"
#include "mpx/core/world.hpp"
#include "mpx/mc/mc.hpp"
#include "mpx/mc/sync.hpp"

namespace mpx::coll::ir {
namespace {

using core_detail::ProgressSource;
using core_detail::RequestImpl;
using core_detail::Vci;

class SchedExecSource;

/// One in-flight (or pinned) schedule execution. Created by launch(),
/// stepped by the executor under the VCI lock, destroyed at completion
/// (or owned by a persistent handle when pinned).
struct ExecCursor {
  ExecCursor* next = nullptr;  ///< inbox / running-list link

  SchedPtr sched;
  Comm comm;       ///< collective-context view the nodes post on
  Request handle;  ///< grequest completed when the graph drains
  const std::byte* sbuf = nullptr;
  std::byte* rbuf = nullptr;
  std::size_t count = 0;
  int tag = 0;
  bool pinned = false;  ///< owned by a persistent handle, not the executor

  /// One pooled block holds every per-run array (laid out by state_layout);
  /// sized once per schedule and reused across persistent cycles.
  base::Buffer state;
  std::byte* arena = nullptr;  ///< scratch arena from the schedule recycler
  std::size_t arena_sz = 0;
  std::size_t* slot_off = nullptr;   ///< [nslots] arena byte offsets
  Request* reqs = nullptr;           ///< [nreq] request slots
  std::uint32_t* ready = nullptr;    ///< [nodes] ready stack
  std::uint32_t* inflight = nullptr; ///< [nreq] posted node ids
  std::uint16_t* deps = nullptr;     ///< [nodes] remaining dependency counts
  std::uint32_t nready = 0;
  std::uint32_t ninflight = 0;
  std::uint32_t ndone = 0;
  bool reqs_live = false;  ///< reqs[] constructed (stays true while pinned)

  static void* operator new(std::size_t n);
  static void operator delete(void* p) noexcept;
};

base::FixedBlockPool& cursor_pool() {
  static base::FixedBlockPool pool("coll-cursor", sizeof(ExecCursor), 256);
  return pool;
}

void* ExecCursor::operator new(std::size_t n) {
  return cursor_pool().allocate(n);
}
void ExecCursor::operator delete(void* p) noexcept {
  cursor_pool().deallocate(p);
}

// ---- per-run state block ---------------------------------------------------

constexpr std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) & ~(a - 1);
}

struct StateLayout {
  std::size_t slot_off = 0;
  std::size_t reqs = 0;
  std::size_t ready = 0;
  std::size_t inflight = 0;
  std::size_t deps = 0;
  std::size_t total = 0;
};

/// Offsets of the per-run arrays within one pooled block, members ordered
/// by alignment so no element is misaligned (pooled buffers are at least
/// pointer-aligned).
StateLayout state_layout(const Schedule& s) {
  const std::size_t n = s.nodes.size();
  StateLayout l;
  std::size_t off = 0;
  l.slot_off = off;
  off += s.slots.size() * sizeof(std::size_t);
  l.reqs = off = align_up(off, alignof(Request));
  off += s.nreq * sizeof(Request);
  l.ready = off = align_up(off, alignof(std::uint32_t));
  off += n * sizeof(std::uint32_t);
  l.inflight = off;
  off += s.nreq * sizeof(std::uint32_t);
  l.deps = off = align_up(off, alignof(std::uint16_t));
  off += n * sizeof(std::uint16_t);
  l.total = off != 0 ? off : 1;
  return l;
}

/// Bind (allocating on first use) the cursor's state block and scratch
/// arena. Scratch offsets are laid out at the schedule's max_count, so the
/// layout is count-independent and a pinned cursor never relocates slots.
void bind_state(ExecCursor& c) {
  const Schedule& s = *c.sched;
  const StateLayout l = state_layout(s);
  if (c.state.size() < l.total) c.state = base::pooled_buffer(l.total);
  std::byte* base = c.state.data();
  c.slot_off = reinterpret_cast<std::size_t*>(base + l.slot_off);
  c.reqs = reinterpret_cast<Request*>(base + l.reqs);
  c.ready = reinterpret_cast<std::uint32_t*>(base + l.ready);
  c.inflight = reinterpret_cast<std::uint32_t*>(base + l.inflight);
  c.deps = reinterpret_cast<std::uint16_t*>(base + l.deps);
  for (std::size_t i = 0; i < s.slots.size(); ++i) {
    c.slot_off[i] = s.slot_offset(static_cast<std::uint16_t>(i), s.max_count);
  }
  const std::size_t ab = s.arena_bytes(s.max_count);
  if (c.arena == nullptr && ab != 0) {
    c.arena = s.arena_pool.get(ab);
    c.arena_sz = ab;
  }
}

/// Arm one execution: bind buffers, reset the dependency counts to the
/// schedule's indegrees, seed the ready stack with the entry nodes.
void arm(ExecCursor& c, const void* sendbuf, void* recvbuf,
         std::size_t count) {
  const Schedule& s = *c.sched;
  expects(count <= s.max_count,
          "coll ir: count exceeds the schedule's count class");
  expects(count % s.unit == 0,
          "coll ir: count is not a multiple of the schedule's unit");
  c.sbuf = static_cast<const std::byte*>(sendbuf);
  c.rbuf = static_cast<std::byte*>(recvbuf);
  c.count = count;
  bind_state(c);
  const std::size_t n = s.nodes.size();
  if (n != 0) std::memcpy(c.deps, s.indeg.data(), n * sizeof(std::uint16_t));
  c.nready = 0;
  for (std::uint32_t e : s.entry) c.ready[c.nready++] = e;
  c.ninflight = 0;
  c.ndone = 0;
  if (!c.reqs_live) {
    for (std::uint32_t i = 0; i < s.nreq; ++i) new (&c.reqs[i]) Request();
    c.reqs_live = true;
  }
}

/// Release everything arm()/bind_state() acquired. The cursor itself
/// survives (its owner decides whether to delete it).
void release_exec_state(ExecCursor& c) {
  if (c.reqs_live) {
    for (std::uint32_t i = 0; i < c.sched->nreq; ++i) c.reqs[i].~Request();
    c.reqs_live = false;
  }
  if (c.arena != nullptr) {
    c.sched->arena_pool.put(c.arena, c.arena_sz);
    c.arena = nullptr;
    c.arena_sz = 0;
  }
}

void destroy_cursor(ExecCursor* c) {
  release_exec_state(*c);
  delete c;
}

// ---- node execution --------------------------------------------------------

/// Resolve an operand against the armed buffers. Scratch refs index within
/// their slot's arena window; user-space refs index the user buffers.
/// Elements are `extent` bytes apart (equal to the size for contiguous
/// types).
std::byte* ref_ptr(const ExecCursor& c, const Ref& r) {
  const std::size_t off =
      r.r.lo(c.count) * static_cast<std::size_t>(c.sched->dt.extent());
  switch (r.space) {
    case Space::send:
      return const_cast<std::byte*>(c.sbuf) + off;
    case Space::recv:
      return c.rbuf + off;
    case Space::scratch:
      return c.arena + c.slot_off[r.slot] + off;
    case Space::none:
      break;
  }
  expects(false, "coll ir: operand without a buffer space");
  return nullptr;
}

/// Post one send/recv node on the cursor's comm.
///
/// This runs inside the progress engine, on the VCI whose lock the engine
/// already holds; isend/irecv re-acquire that same lock recursively — the
/// sanctioned re-entry the VCI mutex is recursive for.
// mpxlint: allow(progress-contract) posting re-enters the held recursive VCI lock
void post_node(ExecCursor& c, std::uint32_t nid) {
  const Schedule& s = *c.sched;
  const Node& nd = s.nodes[nid];
  const int tag = c.tag + nd.tag_off;
  if (nd.kind == NodeKind::send) {
    c.reqs[nd.req_slot] = c.comm.isend(
        ref_ptr(c, nd.a), nd.a.r.elems(c.count), s.dt, nd.peer, tag);
  } else {
    c.reqs[nd.req_slot] = c.comm.irecv(
        ref_ptr(c, nd.b), nd.b.r.elems(c.count), s.dt, nd.peer, tag);
  }
}

/// Copy `n` elements of a non-contiguous type between two buffers of that
/// layout, one flattened piece at a time (the gaps stay untouched).
void typed_copy(std::byte* dst, const std::byte* src, std::size_t n,
                const dtype::Datatype& dt) {
  const std::ptrdiff_t ext = dt.extent();
  for (std::size_t e = 0; e < n; ++e) {
    for (const dtype::Iov& p : dt.iov()) {
      const std::ptrdiff_t off =
          static_cast<std::ptrdiff_t>(e) * ext + p.offset;
      std::memcpy(dst + off, src + off, p.length);
    }
  }
}

/// Execute a local (copy/reduce/fn) node.
void exec_local(ExecCursor& c, const Node& nd) {
  const Schedule& s = *c.sched;
  switch (nd.kind) {
    case NodeKind::copy: {
      const std::size_t elems = nd.b.r.elems(c.count);
      if (elems == 0) break;
      if (s.dt.is_contiguous()) {
        std::memcpy(ref_ptr(c, nd.b), ref_ptr(c, nd.a), elems * s.dt.size());
      } else {
        typed_copy(ref_ptr(c, nd.b), ref_ptr(c, nd.a), elems, s.dt);
      }
      break;
    }
    case NodeKind::reduce: {
      const std::size_t elems = nd.b.r.elems(c.count);
      if (elems != 0) {
        dtype::reduce_apply(s.op, ref_ptr(c, nd.a), ref_ptr(c, nd.b), elems,
                            s.dt);
      }
      break;
    }
    case NodeKind::fn: {
      ExecView v;
      v.sendbuf = c.sbuf;
      v.recvbuf = c.rbuf;
      v.scratch = c.arena;
      v.count = c.count;
      v.esz = static_cast<std::size_t>(s.dt.extent());
      v.rank = s.rank;
      v.size = s.size;
      s.fns[nd.fn_id](v);
      break;
    }
    default:
      break;
  }
}

/// A node finished: retire it and push newly unblocked successors.
void finish_node(ExecCursor& c, std::uint32_t nid) {
  const Schedule& s = *c.sched;
  ++c.ndone;
  for (std::uint32_t i = s.succ_off[nid]; i < s.succ_off[nid + 1]; ++i) {
    const std::uint32_t t = s.succ[i];
    if (--c.deps[t] == 0) c.ready[c.nready++] = t;
  }
}

/// Advance one cursor as far as it will go. Returns true when the whole
/// graph has executed. Runs under the cursor's VCI lock.
bool step(ExecCursor& c, int* made) {
  const Schedule& s = *c.sched;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Harvest completed communication (swap-pop keeps the scan dense).
    for (std::uint32_t i = 0; i < c.ninflight;) {
      const std::uint32_t nid = c.inflight[i];
      Request& rq = c.reqs[s.nodes[nid].req_slot];
      if (rq.is_complete()) {
        rq = Request();  // release the impl ref; the slot may be reused
        c.inflight[i] = c.inflight[--c.ninflight];
        finish_node(c, nid);
        *made += 1;
        progressed = true;
      } else {
        ++i;
      }
    }
    // Drain the ready stack: post communication, run local work inline.
    while (c.nready != 0) {
      const std::uint32_t nid = c.ready[--c.nready];
      const Node& nd = s.nodes[nid];
      if (nd.kind == NodeKind::send || nd.kind == NodeKind::recv) {
        post_node(c, nid);
        c.inflight[c.ninflight++] = nid;
      } else {
        exec_local(c, nd);
        finish_node(c, nid);
        *made += 1;
      }
      progressed = true;
    }
  }
  return c.ndone == s.nodes.size();
}

// ---- the progress source ---------------------------------------------------

/// Per-(rank, vci) execution lane.
struct Slot {
  /// Treiber MPSC inbox: any member thread pushes launched cursors, the
  /// VCI's poll drains with one exchange.
  mc::atomic<ExecCursor*> inbox{nullptr};
  /// Count of cursors this lane owes progress (inbox + running). Relaxed,
  /// same contract as the engine's hook_count: polling may briefly lag a
  /// remote launch, never miss it forever.
  mc::atomic<std::uint32_t> pending{0};
  /// Armed cursors being stepped; plain — only the VCI lock's holder
  /// touches it.
  ExecCursor* running = nullptr;
};

class SchedExecSource final : public ProgressSource {
 public:
  explicit SchedExecSource(World& w)
      : world_(w),
        nvcis_(w.config().max_vcis),
        slots_(static_cast<std::size_t>(w.config().nranks) *
               static_cast<std::size_t>(w.config().max_vcis)) {}

  ~SchedExecSource() override {
    // World teardown: free executor-owned cursors; pinned ones belong to
    // their persistent handles (whose PinnedColl frees them).
    for (Slot& sl : slots_) {
      drop_chain(sl.inbox.exchange(nullptr, std::memory_order_acquire));
      drop_chain(sl.running);
      MPX_MC_PLAIN_WRITE(&sl.running, "teardown of the running list");
      sl.running = nullptr;
    }
  }

  const char* name() const override { return "coll-exec"; }
  unsigned mask_bit() const override { return progress_coll; }

  bool idle(Vci& v) override {
    return slot(v).pending.load(std::memory_order_relaxed) == 0;
  }

  void poll(Vci& v, int* made) override {
    Slot& sl = slot(v);
    drain_inbox(sl);
    ExecCursor** pp = &sl.running;
    while (*pp != nullptr) {
      ExecCursor* c = *pp;
      if (step(*c, made)) {
        *pp = c->next;
        retire(sl, c);
        *made += 1;
      } else {
        pp = &c->next;
      }
    }
  }

  bool quiescent(Vci& v) override {
    return slot(v).pending.load(std::memory_order_relaxed) == 0;
  }

  /// Hand an armed cursor to its VCI's lane. Called from the launching
  /// member thread; the push is the release edge the polling thread's
  /// acquire exchange pairs with, so the cursor's armed state is visible.
  void enqueue(ExecCursor* c, int rank, int vci) {
    Slot& sl = slots_[static_cast<std::size_t>(rank) *
                          static_cast<std::size_t>(nvcis_) +
                      static_cast<std::size_t>(vci)];
    sl.pending.fetch_add(1, std::memory_order_relaxed);
    ExecCursor* head = sl.inbox.load(std::memory_order_relaxed);
    for (;;) {
      MPX_MC_PLAIN_WRITE(&c->next, "cursor inbox link");
      c->next = head;
      if (sl.inbox.compare_exchange_strong(head, c,
                                           std::memory_order_release)) {
        break;
      }
    }
    // A helper asleep on the lane's VCI wakes to run the schedule.
    core_detail::ring_vci(world_, rank, vci);
  }

 private:
  Slot& slot(Vci& v) {
    return slots_[static_cast<std::size_t>(core_detail::vci_rank(v)) *
                      static_cast<std::size_t>(nvcis_) +
                  static_cast<std::size_t>(core_detail::vci_id(v))];
  }

  /// Move freshly launched cursors onto the running list, oldest first
  /// (the Treiber stack yields newest-first).
  void drain_inbox(Slot& sl) {
    ExecCursor* c = sl.inbox.exchange(nullptr, std::memory_order_acquire);
    if (c == nullptr) return;
    ExecCursor* rev = nullptr;
    while (c != nullptr) {
      ExecCursor* nx = c->next;
      MPX_MC_PLAIN_WRITE(&c->next, "cursor running link");
      c->next = rev;
      rev = c;
      c = nx;
    }
    ExecCursor** pp = &sl.running;
    while (*pp != nullptr) pp = &(*pp)->next;
    *pp = rev;
  }

  /// A cursor's graph drained: recycle it (unless pinned) and complete its
  /// grequest. The cursor is already off the running list, so completion
  /// hooks (persistent cycle accounting) see a quiescent executor.
  void retire(Slot& sl, ExecCursor* c) {
    Request h = std::move(c->handle);
    if (!c->pinned) destroy_cursor(c);
    sl.pending.fetch_sub(1, std::memory_order_relaxed);
    World::grequest_complete(h);
  }

  static void drop_chain(ExecCursor* c) {
    while (c != nullptr) {
      ExecCursor* nx = c->next;
      if (!c->pinned) destroy_cursor(c);
      c = nx;
    }
  }

  World& world_;
  const int nvcis_;
  std::vector<Slot> slots_;
};

std::unique_ptr<ProgressSource> make_exec_source(World& w) {
  return std::make_unique<SchedExecSource>(w);
}

/// Static registrar: linking the coll IR layer gives every World the
/// executor stage (see register_static_source's contract). Any reference
/// into this TU — launch(), the front end — pulls the registration in.
[[maybe_unused]] const bool registered =
    (core_detail::register_static_source(&make_exec_source), true);

/// The world's executor stage, resolved once per comm and cached in the
/// comm's extension (the registry scan is cold-path only).
SchedExecSource& exec_source(const Comm& comm) {
  CollCommExt& ext = coll_ext(comm);
  if (void* cached = ext.exec.load(std::memory_order_acquire)) {
    return *static_cast<SchedExecSource*>(cached);
  }
  const core_detail::ProgressRegistry& reg = comm.world().progress_registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    if (auto* src = dynamic_cast<SchedExecSource*>(&reg.at(i))) {
      ext.exec.store(src, std::memory_order_release);
      return *src;
    }
  }
  expects(false, "coll ir: coll-exec progress source not registered");
  std::abort();
}

ExecCursor* new_cursor(SchedPtr sched, const Comm& comm, bool pinned) {
  expects(sched != nullptr && comm.valid(), "coll ir launch: bad arguments");
  expects(sched->size == comm.size() && sched->rank == comm.rank(),
          "coll ir launch: schedule compiled for a different comm shape");
  auto* c = new ExecCursor;
  c->sched = std::move(sched);
  c->comm = comm.coll_view();
  c->pinned = pinned;
  return c;
}

}  // namespace

Request launch(SchedPtr sched, const void* sendbuf, void* recvbuf,
               std::size_t count, const Comm& comm) {
  ExecCursor* c = new_cursor(std::move(sched), comm, /*pinned=*/false);
  c->tag = comm.next_coll_tag();
  arm(*c, sendbuf, recvbuf, count);
  const Stream st = c->comm.stream();
  c->handle = c->comm.world().grequest_start(st, core_detail::GrequestFns{});
  Request out = c->handle;
  exec_source(comm).enqueue(c, st.rank(), st.vci());
  return out;
}

namespace {

/// Owner of a persistent collective's pinned cursor; the persistent handle
/// keeps one alive (via make_persistent_generic's `pinned`), so the
/// cursor, its state block, and its scratch arena outlive every cycle and
/// are freed exactly once, when the handle's last reference drops.
struct PinnedColl {
  ExecCursor* cur = nullptr;
  ~PinnedColl() {
    if (cur != nullptr) destroy_cursor(cur);
  }
};

}  // namespace

Request persistent_launch(SchedPtr sched, const void* sendbuf, void* recvbuf,
                          std::size_t count, const Comm& comm) {
  auto pin = std::make_shared<PinnedColl>();
  pin->cur = new_cursor(std::move(sched), comm, /*pinned=*/true);
  ExecCursor* c = pin->cur;
  // Pay the state-block and arena allocations at init time: every start()
  // after this touches only pre-built storage.
  bind_state(*c);
  SchedExecSource* ex = &exec_source(comm);
  const Stream st = c->comm.stream();
  const Comm user = comm;  // the collective tag counter lives on the comm
  auto factory = [c, ex, st, user, sendbuf, recvbuf,
                  count]() -> base::Ref<RequestImpl> {
    // One cycle: fresh collective tag (members start persistent ops in the
    // same order, so tags line up), re-arm the pinned state, fresh pooled
    // grequest, hand the cursor to the executor.
    c->tag = user.next_coll_tag();
    arm(*c, sendbuf, recvbuf, count);
    c->handle =
        c->comm.world().grequest_start(st, core_detail::GrequestFns{});
    auto inner = base::Ref<RequestImpl>::share(c->handle.impl());
    ex->enqueue(c, st.rank(), st.vci());
    return inner;
  };
  return make_persistent_generic(c->comm.world(), st, std::move(factory),
                                 std::move(pin));
}

}  // namespace mpx::coll::ir
