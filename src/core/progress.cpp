// The collated progress engine (paper Listing 1.1) and the MPIX_Async
// runtime (§3.3). Stages are no longer hardwired: each VCI carries a
// compiled table of ProgressSources (dtype engine, user async things,
// registered extras such as the collective executor, then one stage per
// transport with the LMT copy stage behind the mapped-memory transport),
// scanned with an early exit as soon as progress is made — exactly MPICH's
// MPIDI_progress_test shape, with the stage list open for registration.
//
// Fair scheduling: the scan resumes one past the last productive stage, so
// with S stages a stage waits at most S calls for its next poll even when
// an earlier stage is productive on every call.
#include "internal.hpp"

namespace mpx {

void AsyncThing::spawn(AsyncPollFn fn, void* extra_state, const Stream& stream,
                       StateDeleter state_deleter) {
  expects(fn != nullptr && stream.valid(), "AsyncThing::spawn: bad arguments");
  spawned_.push_back(SpawnRec{fn, extra_state, stream, state_deleter});
}

namespace core_detail {

int vci_rank(const Vci& v) { return v.rank; }
int vci_id(const Vci& v) { return v.id; }

int vci_poll(Vci& v, unsigned mask) { return progress_test(v, mask); }

Vci::~Vci() {
  // Release anything still owned at world teardown: unfinished hooks
  // (~AsyncThing runs their state deleters), never-matched unexpected
  // messages, never-matched posted receives.
  while (AsyncThing* t = asyncs.pop_front()) delete t;
  while (auto t = inbox_asyncs.try_pop()) delete *t;
  // Sends still parked behind a fence and completion events never
  // synthesized both carry protocol references; adopt-and-drop them so a
  // world torn down mid-swap doesn't leak the requests.
  for (ParkedSend& p : fence_parked) {
    if (p.cookie != 0) base::Ref<RequestImpl> drop = from_cookie(p.cookie);
  }
  for (std::uint64_t c : synth_cq) {
    base::Ref<RequestImpl> drop = from_cookie(c);
  }
  while (UnexpMsg* u = unexpected.pop_front_any()) unexp_pool.release(u);
  while (RequestImpl* r = posted.pop_any()) {
    base::Ref<RequestImpl> drop(r);  // adopt the posted-queue reference
  }
  // ~FreelistPool frees the parked UnexpMsg storage after this returns.
}

namespace {

/// Enqueue a new hook onto the target stream's mailbox. Mailboxes decouple
/// registration from the VCI lock, so spawning onto another stream from
/// inside a poll function cannot deadlock.
void enqueue_hook(AsyncPollFn fn, void* state, const Stream& s,
                  AsyncThing::StateDeleter deleter) {
  Vci& v = s.world().vci(s.rank(), s.vci());
  expects(v.active.load(std::memory_order_acquire),
          "async_start: stream has been freed");
  AsyncThing* t = AsyncRuntime::make(fn, state, s, deleter);
  v.hook_count.fetch_add(1, std::memory_order_relaxed);
  v.inbox_asyncs.push(std::move(t));
  v.bell->ring();
}

/// Poll every hook on v's async list once. A hook returning done is
/// unlinked and destroyed and counts as progress; pending hooks do not.
void poll_hooks(Vci& v, int* made) MPX_REQUIRES(v.mu) {
  v.asyncs.for_each_safe([&](AsyncThing* t) {
    const AsyncResult r = AsyncRuntime::fn(*t)(*t);
    if (AsyncRuntime::has_spawned(*t)) {
      // Spawned tasks are staged inside the thing and registered after
      // poll_fn returns (paper: avoids recursion / queue self-mutation).
      for (auto& rec : AsyncRuntime::take_spawned(*t)) {
        enqueue_hook(rec.fn, rec.state, rec.stream, rec.deleter);
      }
    }
    if (r == AsyncResult::done) {
      v.asyncs.erase(t);
      // Done means poll_fn already released the state (paper contract);
      // disarm so ~AsyncThing does not free it a second time.
      AsyncRuntime::disarm(*t);
      delete t;
      v.hook_count.fetch_sub(1, std::memory_order_relaxed);
      *made = 1;
    }
  });
}

// ---- in-tree progress sources ----
//
// poll()/idle() bodies access members guarded by v.mu. The lock IS held —
// progress_test takes it before scanning the stage table — but the
// virtual-dispatch hop hides that from clang's thread-safety analysis
// (ProgressSource::poll cannot carry MPX_REQUIRES(v.mu): Vci is incomplete
// in the public header). Hence the per-method opt-outs; the runtime
// lock-rank validator still checks the real acquisition order.

class DtypeSource final : public ProgressSource {
 public:
  const char* name() const override { return "dtype"; }
  unsigned mask_bit() const override { return progress_dtype; }
  StageFastGate fast_gate() const override { return StageFastGate::dtype; }
  bool idle(Vci& v) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    return v.pack_engine.idle();
  }
  void poll(Vci& v, int* made) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    v.pack_engine.progress(made);
  }
};

class AsyncSource final : public ProgressSource {
 public:
  const char* name() const override { return "async"; }
  unsigned mask_bit() const override { return progress_async; }
  StageFastGate fast_gate() const override {
    return StageFastGate::async_hooks;
  }
  bool idle(Vci& v) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    return v.asyncs.empty();
  }
  void poll(Vci& v, int* made) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    poll_hooks(v, made);
  }
};

/// One poll stage per transport. No engine-side idle check: transports keep
/// their own cheap empty-endpoint fast paths inside poll() (the seed polled
/// them unconditionally too), and Transport::idle() is a teardown-grade
/// check that may cost more than the poll it would skip — so
/// has_idle_check() is false and the scan skips the idle() hop entirely.
class TransportSource final : public ProgressSource {
 public:
  explicit TransportSource(transport::Transport& t) : t_(t) {}
  const char* name() const override { return t_.name(); }
  unsigned mask_bit() const override { return t_.progress_bit(); }
  bool has_idle_check() const override { return false; }
  bool idle(Vci&) override { return false; }
  void poll(Vci& v, int* made) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    t_.poll(v.rank, v.id, *v.sink, made);
  }

 private:
  transport::Transport& t_;
};

/// Mapped-memory LMT copy work of both sides (LmtWork), registered directly
/// after the mapped transport's poll stage and sharing its mask bit (the
/// seed ran the receiver's copy inside the shm slot).
class LmtSource final : public ProgressSource {
 public:
  explicit LmtSource(unsigned mask) : mask_(mask) {}
  const char* name() const override { return "lmt"; }
  unsigned mask_bit() const override { return mask_; }
  StageFastGate fast_gate() const override { return StageFastGate::lmt; }
  bool idle(Vci& v) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    return v.lmt.empty();
  }
  void poll(Vci& v, int* made) override MPX_NO_THREAD_SAFETY_ANALYSIS {
    lmt_progress(v, made);
  }

 private:
  unsigned mask_;
};

}  // namespace

namespace {
std::vector<StaticSourceFactory>& static_sources_mut() {
  static std::vector<StaticSourceFactory> factories;
  return factories;
}
}  // namespace

void register_static_source(StaticSourceFactory make) {
  expects(make != nullptr, "register_static_source: null factory");
  static_sources_mut().push_back(make);
}

const std::vector<StaticSourceFactory>& static_source_factories() {
  return static_sources_mut();
}

void register_builtin_sources(ProgressRegistry& reg) {
  reg.add(std::make_unique<DtypeSource>());
  reg.add(std::make_unique<AsyncSource>());
}

void register_transport_sources(
    ProgressRegistry& reg, const std::vector<transport::Transport*>& ts) {
  bool lmt_staged = false;
  for (transport::Transport* t : ts) {
    reg.add(std::make_unique<TransportSource>(*t));
    if (!lmt_staged && (t->caps() & transport::cap_mapped_memory) != 0) {
      reg.add(std::make_unique<LmtSource>(t->progress_bit()));
      lmt_staged = true;
    }
  }
}

int progress_test(Vci& v, unsigned mask) {
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  // The section's ONE topology acquire-load (re-entrant calls from poll
  // callbacks find the cache set and load nothing). Every routing decision
  // below — transport polls delivering arrivals, handlers replying, the
  // fence-parked flush — resolves against this pin.
  TopoRef topo(v);
  ++v.progress_calls;

  // Empty-stage fast path: hook_count covers linked hooks AND mailbox
  // entries (enqueue_hook increments before pushing), so when it reads zero
  // the mailbox spinlock can be skipped outright. A racing registration
  // is picked up by a later progress call — polling may lag registration.
  // Relaxed: the counter only gates whether we take the mailbox lock,
  // which provides the actual ordering; there is no release store to pair
  // an acquire with (both RMWs are relaxed).
  if (v.hook_count.load(std::memory_order_relaxed) != 0) {
    while (auto t = v.inbox_asyncs.try_pop()) v.asyncs.push_back(*t);
  }

  // Topology-swap follow-up work, ahead of the stage scan. Both lists are
  // empty except around a swap, so this is two branch tests on the hot
  // path. (1) Flush sends parked while their pair was fenced. (2) Deliver
  // completion events the carrier finished locally (synthesized by
  // route_send; see Vci::synth_cq) — swap-out loop because a completion
  // handler may inject follow-up chunks that synthesize again.
  {
    int swept = 0;
    if (!v.fence_parked.empty()) swept |= flush_parked(v);
    while (!v.synth_cq.empty()) {
      std::vector<std::uint64_t> cq;
      cq.swap(v.synth_cq);
      for (std::uint64_t c : cq) v.sink->on_send_complete(c);
      swept = 1;
    }
    if (swept != 0) return swept;
  }

  // Scan the compiled stage table with early exit on first progress,
  // starting at the rotation cursor. Each source owns its skip condition
  // via idle(); skipped stages don't count as calls.
  // Hoisted locals: the table is immutable while v.mu is held, but the
  // virtual poll/idle calls are opaque to the compiler, which would
  // otherwise reload data()/size() after every stage.
  ProgressStage* const stages = v.stages.data();
  const std::size_t n = v.stages.size();
  const std::size_t start = v.stage_cursor;
  int made = 0;
  // Two linear passes ([start,n) then [0,start)) instead of modular index
  // arithmetic per stage — the wrap cost would be paid on every iteration
  // of every wait loop.
  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t lo = pass == 0 ? start : 0;
    const std::size_t hi = pass == 0 ? n : start;
    for (std::size_t i = lo; i < hi; ++i) {
      ProgressStage& st = stages[i];
      if ((mask & st.mask) == 0) continue;
      // Speculative devirtualization (StageFastGate): in-tree stages get
      // the seed ladder's inlined skip checks; user sources take the
      // virtual idle() hop. Identical semantics either way — the tag only
      // picks how the same emptiness test is evaluated.
      switch (st.gate) {
        case StageFastGate::dtype:
          if (v.pack_engine.idle()) continue;
          break;
        case StageFastGate::async_hooks:
          if (v.asyncs.empty()) continue;
          break;
        case StageFastGate::lmt:
          if (v.lmt.empty()) continue;
          break;
        case StageFastGate::external:
          if (st.check_idle && st.source->idle(v)) continue;
          break;
      }
      ++st.calls;
      st.source->poll(v, &made);
      if (made != 0) {
        ++st.hits;
        trace_emit(v, trace::Event::progress, -1, -1, 0, i);
        v.stage_cursor = static_cast<std::uint32_t>(i + 1 == n ? 0 : i + 1);
        return made;
      }
    }
  }
  return made;
}

void complete_request(RequestImpl* r, Err err) {
  if (r->vci != nullptr) {
    trace_emit(*r->vci, trace::Event::complete, r->peer, r->status.tag,
               r->status.count_bytes, static_cast<std::uint64_t>(r->kind));
  }
  r->status.error = err;
  if (r->kind == ReqKind::grequest && r->greq.query_fn != nullptr) {
    r->greq.query_fn(r->greq.extra_state, &r->status);
  }
  if (r->on_complete != nullptr) {
    r->on_complete(r, r->on_complete_arg);
    r->on_complete = nullptr;
  }
  // Completion contract (request_impl.hpp): status and payload writes above
  // are ordered for pollers ONLY by this release store. The matching
  // MPX_MC_PLAIN_READ sits in Request::status().
  MPX_MC_PLAIN_WRITE(&r->status, "Request::status");
  r->complete.store(true, std::memory_order_release);
  if (r->vci != nullptr &&
      (r->kind == ReqKind::send || r->kind == ReqKind::recv ||
       r->kind == ReqKind::pack)) {
    r->vci->active_ops.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace core_detail

int stream_progress(const Stream& stream) {
  // Not delegated to the two-arg overload: this is the wait-loop hot path
  // and would pay the validity expects() twice.
  expects(stream.valid(), "stream_progress: invalid stream");
  core_detail::Vci& v = stream.world().vci(stream.rank(), stream.vci());
  return core_detail::progress_test(v, stream.mask());
}

int stream_progress(const Stream& stream, unsigned mask) {
  expects(stream.valid(), "stream_progress: invalid stream");
  core_detail::Vci& v = stream.world().vci(stream.rank(), stream.vci());
  return core_detail::progress_test(v, mask);
}

void async_start(AsyncPollFn fn, void* extra_state, const Stream& stream,
                 AsyncThing::StateDeleter state_deleter) {
  expects(fn != nullptr, "async_start: null poll function");
  expects(stream.valid(), "async_start: invalid stream");
  core_detail::enqueue_hook(fn, extra_state, stream, state_deleter);
}

namespace {

struct FnHookState {
  std::function<AsyncResult()> fn;
};

AsyncResult fn_hook_trampoline(AsyncThing& t) {
  auto* s = static_cast<FnHookState*>(t.state());
  const AsyncResult r = s->fn();
  if (r == AsyncResult::done) delete s;
  return r;
}

void fn_hook_state_deleter(void* p) { delete static_cast<FnHookState*>(p); }

}  // namespace

void async_start(std::function<AsyncResult()> fn, const Stream& stream) {
  expects(static_cast<bool>(fn), "async_start: empty callable");
  // Keep ownership until registration succeeds: async_start throws on an
  // invalid/freed stream, and the state must not leak then. Afterwards the
  // hook owns it: freed by the trampoline when the poll returns done, or by
  // the registered deleter when the hook is dropped still pending
  // (stream_free / world teardown).
  auto state = std::make_unique<FnHookState>(FnHookState{std::move(fn)});
  async_start(&fn_hook_trampoline, state.get(), stream,
              &fn_hook_state_deleter);
  state.release();
}

}  // namespace mpx
