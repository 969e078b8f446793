// mpxlint fixture: progress-driver-shaped contract violations, mirroring
// the adaptive engine's shared poll (src/task/progress_engine.cpp
// ProgressEngine::poll_shared) and the stream-scoped helper that runs it
// and is also the engine's dedicated poller (src/task/progress_thread.cpp
// ProgressThread::run). A driver root may call the progress entry points
// (vci_poll, stream_progress et al.) — that is its job — but it must stay
// non-blocking and lock-free like any poll path. Three seeded bugs:
//
//   * drain_completions() blocks on wait_all while flushing finished
//     slots — a stalled peer now stalls every VCI riding the shared
//     poller's rotation (reached transitively: poll_shared -> rotate_once
//     -> drain_completions);
//   * lock_slot_vci() wraps the vci_poll call in a vci-ranked LockGuard:
//     vci_poll acquires the VCI lock itself, so holding one across the
//     call re-enters the progress engine;
//   * ProgressThread::run() drains its stream's requests with a blocking
//     wait when an idle poll finds them pending (reached through
//     settle()): the helper would stall on the very progress it exists
//     to make.
//
// The clean poll_one() path shows the allowed boundary: a bare vci_poll
// from a driver root is NOT a finding (PROGRESS_ENTRY_CALL_NAMES), even
// though vci_poll is a blocking call for ordinary ProgressSource roots.
//
// Expected findings: progress-contract (two blocking-call paths, one
// forbidden-rank acquisition path; nothing for poll_one or the bare
// stream_progress in ProgressThread::run).

namespace fix {

enum class LockRank { none = 0, vci = 100 };

struct InstrumentedMutex {
  void lock();
  void unlock();
};

template <class Mutex>
struct LockGuard {
  explicit LockGuard(Mutex& m);
};

struct Vci {
  InstrumentedMutex mu{"vci", LockRank::vci};
};

int vci_poll(Vci& v, unsigned mask);
int stream_progress(int stream);
void wait(int req);
void wait_all(int* reqs, int n);

struct ProgressEngine {
  struct Slot {
    Vci* vci;
    unsigned mask;
    int pending[4];
    int npending;
  };

  Slot* slots;
  int nslots;

  // Allowed boundary: driver roots may call progress entry points bare.
  int poll_one(Slot& s) { return vci_poll(*s.vci, s.mask); }

  void drain_completions(Slot& s) {
    wait_all(s.pending, s.npending);  // blocking wait inside a driver loop
    s.npending = 0;
  }

  int lock_slot_vci(Slot& s) {
    LockGuard g(s.vci->mu);  // vci-ranked: vci_poll re-acquires it inside
    return vci_poll(*s.vci, s.mask);
  }

  int rotate_once(int i) {
    Slot& s = slots[i];
    int made = poll_one(s);
    if (s.npending != 0) drain_completions(s);
    made += lock_slot_vci(s);
    return made;
  }

  int poll_shared() {
    int made = 0;
    for (int i = 0; i < nslots; ++i) {
      made += rotate_once(i);
    }
    return made;
  }
};

struct ProgressThread {
  int stream;
  int pending_req;
  bool stop;

  void settle() {
    if (pending_req != 0) wait(pending_req);  // blocking wait in a helper
  }

  void run() {
    while (!stop) {
      // Allowed boundary: the helper's whole job.
      if (stream_progress(stream) == 0) settle();
    }
  }
};

}  // namespace fix
