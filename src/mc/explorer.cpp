// src/mc/explorer.cpp
//
// The mpx::mc schedule explorer. One Session per explore() call; virtual
// threads are real std::threads cooperating through a single token (the
// session mutex + condvar + `cur_`) so exactly one executes scenario code
// at a time. Every instrumented operation is a *schedule point*: the
// running thread consults the DFS trail (or extends it), possibly hands the
// token to another thread, performs the modeled effect under the session
// lock, and continues. There is no separate controller thread — decision
// logic runs in whichever thread hits the schedule point.
//
// Memory model (see mc.hpp header comment): sequentially consistent
// interleaving as the base, plus
//   - vector-clock happens-before from release stores -> acquire loads
//     (seq_cst counts as both); relaxed never synchronizes;
//   - relaxed loads may read stale values from a bounded per-location store
//     history, each legal value a DFS branch; acquire/seq_cst loads read the
//     newest store (a sound under-approximation of allowed executions);
//   - plain accesses (MPX_MC_PLAIN_*) race-checked FastTrack-style: an
//     unordered pair fails the exploration regardless of observed values.
//
// Failure handling:
//   - benign violations (mc::check, data race, replay nondeterminism) flip
//     the session to `freerun`: modeling stops and the virtual threads
//     finish the body on the real primitives, so destructors run and the
//     exploration returns cleanly;
//   - failures that mean the scenario's own memory is now unsafe (mutex
//     destroyed while held, deadlock, livelock, unjoined vthreads) flip to
//     `abandon`: every virtual thread parks forever, the std::threads are
//     detached, and the Session is deliberately leaked. A small heap leak in
//     an already-failing test process beats executing the use-after-free the
//     bug would cause.

#include "mpx/mc/mc.hpp"

#if MPX_MODEL_CHECK

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "mpx/base/cvar.hpp"

namespace mpx::mc {
namespace {

constexpr int kMaxThreads = 8;
constexpr std::size_t kStoreHistory = 4;  // stale values visible to relaxed
constexpr int kStaleReadBound = 3;  // stale relaxed loads per (loc, thread)
constexpr std::size_t kOpLog = 256;       // ring of recent ops for dumps

using Clock = std::array<std::uint64_t, kMaxThreads>;

void clock_join(Clock& into, const Clock& from) {
  for (int i = 0; i < kMaxThreads; ++i) into[i] = std::max(into[i], from[i]);
}
bool clock_leq(const Clock& a, const Clock& b) {
  for (int i = 0; i < kMaxThreads; ++i)
    if (a[i] > b[i]) return false;
  return true;
}

bool is_acquire(int mo) {
  auto m = static_cast<std::memory_order>(mo);
  return m == std::memory_order_acquire || m == std::memory_order_acq_rel ||
         m == std::memory_order_seq_cst || m == std::memory_order_consume;
}
bool is_release(int mo) {
  auto m = static_cast<std::memory_order>(mo);
  return m == std::memory_order_release || m == std::memory_order_acq_rel ||
         m == std::memory_order_seq_cst;
}

struct Store {
  std::uint64_t seq = 0;  // per-location sequence number
  std::uint64_t val = 0;
  Clock clk{};  // releasing thread's clock (joined on acquire read)
  bool release_op = false;
  int by = -1;
};

struct Loc {
  std::deque<Store> hist;  // newest at back; trimmed to kStoreHistory
  std::array<std::uint64_t, kMaxThreads> last_seen{};  // coherence floor
  // Stale-read budget per reader: without it a relaxed polling loop grows
  // one extra value decision per backtrack (read stale -> poll again ->
  // new branch), an unbounded DFS tail. After the budget a relaxed load
  // reads the newest store without branching — still an interleaving
  // under-approximation, now a finite one.
  std::array<int, kMaxThreads> stale_reads{};
  std::uint64_t next_seq = 1;
  std::vector<int> waiters;  // vthreads parked in mc_wait_change
  // vthreads parked in mc_futex_wait: unlike `waiters`, a store does not
  // wake them — only mc_futex_wake does, as only FUTEX_WAKE does.
  std::vector<int> futex_waiters;
};

struct MutexSt {
  int owner = -1;
  int depth = 0;
  bool recursive = false;
  Clock rel{};  // clock published by the last full unlock
  std::vector<int> waiters;
};

struct Epoch {
  int tid = -1;
  Clock clk{};
  const char* what = "";
};

struct PlainSt {
  Epoch last_write;
  std::vector<Epoch> reads;
};

enum class TState {
  ready,
  running,
  blocked_mutex,
  blocked_join,
  blocked_loc,
  finished,
  parked,  // abandon mode: never runs again
};

struct Decision {
  // Thread choice at this schedule point (canonical order: current thread
  // first, so index 0 = "continue", index > 0 = preemption)...
  std::vector<int> cands;
  std::size_t idx = 0;
  // ...or a value choice (stale relaxed load) over store seqs, newest first.
  bool value_point = false;
  std::vector<std::uint64_t> value_cands;
  std::size_t value_idx = 0;
};

enum class Mode { explore, freerun, abandon };

struct OpRec {
  int tid = -1;
  const char* what = "";
  const void* addr = nullptr;
  std::uint64_t val = 0;
};

struct VThread {
  std::thread th;
  std::function<void()> fn;
  TState state = TState::ready;
  Clock clk{};
  std::vector<int> joiners;
};

class Session;
thread_local Session* tl_session = nullptr;  // set inside vthreads only
thread_local int tl_tid = -1;

class Session {
 public:
  Session(const Options& opt, const std::function<void()>& body)
      : opt_(opt), body_(body) {}

  Result run();
  bool abandoned() {
    std::lock_guard<std::mutex> g(mu_);
    return mode_ == Mode::abandon;
  }

  // ---- entry points from the shims (vthreads only) ----------------------

  bool on_load(const void* loc, std::uint64_t seed, int mo, const char* what,
               std::uint64_t* out);
  bool on_store(const void* loc, std::uint64_t seed, std::uint64_t val,
                int mo, const char* what);
  bool on_rmw(const void* loc, std::uint64_t seed, std::uint64_t operand,
              bool add, int mo, const char* what, std::uint64_t* old_out);
  bool on_cas(const void* loc, std::uint64_t seed, std::uint64_t expected,
              std::uint64_t desired, int mo, const char* what,
              std::uint64_t* observed, bool* success);
  void on_forget(const void* loc);
  bool on_wait_change(const void* loc);
  bool on_futex_wait(const void* loc, std::uint64_t seed,
                     std::uint64_t expected);
  bool on_futex_wake(const void* loc);
  bool on_fence(int mo);
  void on_mtx_lock(const void* m, bool recursive, const char* what);
  bool on_mtx_try_lock(const void* m, bool recursive, const char* what,
                       bool* acquired);
  void on_mtx_unlock(const void* m);
  void on_mtx_destroy(const void* m);
  void on_plain(const void* addr, const char* what, bool write);
  void on_yield();
  void on_check_fail(const char* what);
  int spawn(std::function<void()> fn);
  void join_thread(int id);

 private:
  // All mutable state below is guarded by mu_ (the token mutex). Scenario
  // code runs WITHOUT mu_; hooks take it on entry.
  std::mutex mu_;
  std::condition_variable cv_;
  Options opt_;
  const std::function<void()>& body_;
  Result res_;

  std::array<VThread, kMaxThreads> vt_;
  int nthreads_ = 0;
  int cur_ = -1;  // vthread holding the token (-1: none / not exploring)
  Mode mode_ = Mode::explore;

  std::map<const void*, Loc> locs_;
  std::map<const void*, MutexSt> mtx_;
  std::map<const void*, PlainSt> plain_;

  std::vector<Decision> trail_;
  std::size_t depth_ = 0;  // decisions consumed this schedule
  long steps_ = 0;
  bool replaying_ = false;
  std::vector<std::pair<char, std::size_t>> replay_;

  std::array<OpRec, kOpLog> oplog_{};
  std::size_t opn_ = 0;

  // -- helpers (mu_ held) -------------------------------------------------

  void logop(const char* what, const void* addr, std::uint64_t v) {
    oplog_[opn_++ % kOpLog] = OpRec{cur_, what, addr, v};
  }

  void fail(const std::string& why, bool fatal);

  /// Abandon-mode terminal state for the calling vthread: never returns.
  void park(std::unique_lock<std::mutex>& lk) {
    if (tl_tid >= 0) vt_[tl_tid].state = TState::parked;
    cv_.notify_all();
    for (;;) cv_.wait(lk);
  }

  /// Wait until this vthread may continue: it holds the token again, or the
  /// session left explore mode. Parks forever on abandon.
  void resume_wait(std::unique_lock<std::mutex>& lk, int me) {
    cv_.wait(lk, [&] { return mode_ != Mode::explore || cur_ == me; });
    if (mode_ == Mode::abandon) park(lk);
  }

  std::vector<int> runnable() const {
    std::vector<int> r;
    for (int i = 0; i < nthreads_; ++i)
      if (vt_[i].state == TState::ready || vt_[i].state == TState::running)
        r.push_back(i);
    return r;
  }

  std::vector<int> candidates() const {
    std::vector<int> c;
    auto r = runnable();
    if (cur_ >= 0 && std::find(r.begin(), r.end(), cur_) != r.end())
      c.push_back(cur_);
    for (int t : r)
      if (t != cur_) c.push_back(t);
    return c;
  }

  std::size_t pick_thread(const std::vector<int>& tc,
                          std::unique_lock<std::mutex>& lk);
  std::size_t pick_value(const std::vector<std::uint64_t>& vc,
                         std::unique_lock<std::mutex>& lk);
  void schedule_point(std::unique_lock<std::mutex>& lk);
  void hand_token(int next) {
    if (cur_ >= 0 && vt_[cur_].state == TState::running)
      vt_[cur_].state = TState::ready;
    cur_ = next;
    vt_[next].state = TState::running;
    cv_.notify_all();
  }
  void block_cur(TState why, std::unique_lock<std::mutex>& lk);
  std::string deadlock_report() const;
  void wake(int id) {
    if (vt_[id].state == TState::blocked_mutex ||
        vt_[id].state == TState::blocked_join ||
        vt_[id].state == TState::blocked_loc)
      vt_[id].state = TState::ready;
  }

  bool advance_trail();
  std::string trail_string() const;
  void parse_replay();
  void dump(const std::string& why);
  void finish_schedule();

  Loc& loc_at(const void* p, std::uint64_t seed) {
    auto it = locs_.find(p);
    if (it == locs_.end()) {
      Loc l;
      Store s;
      s.seq = l.next_seq++;
      s.val = seed;
      s.by = -1;  // pre-session init, visible to everyone
      l.hist.push_back(s);
      it = locs_.emplace(p, std::move(l)).first;
    }
    return it->second;
  }

  void do_store(Loc& l, std::uint64_t val, int mo);
  std::uint64_t do_read(Loc& l, int mo, std::unique_lock<std::mutex>& lk);
};

// ---------------------------------------------------------------------------
// DFS trail

std::size_t Session::pick_thread(const std::vector<int>& tc,
                                 std::unique_lock<std::mutex>& lk) {
  if (replaying_) {
    if (depth_ >= replay_.size()) return 0;  // past the trail: default
    auto [k, idx] = replay_[depth_];
    if (k != 'T' || idx >= tc.size()) {
      fail("replay: decision mismatch (nondeterministic scenario?)", false);
      return 0;
    }
    ++depth_;
    return idx;
  }
  if (depth_ < trail_.size()) {
    Decision& d = trail_[depth_];
    if (d.value_point || d.cands != tc) {
      std::ostringstream os;
      os << "exploration nondeterminism: scenario must reset all state "
            "between runs (thread pick at depth "
         << depth_ << ": expected "
         << (d.value_point ? "value point" : "cands");
      if (!d.value_point) {
        os << " [";
        for (int c : d.cands) os << 'T' << c << ' ';
        os << ']';
      }
      os << ", got [";
      for (int c : tc) os << 'T' << c << ' ';
      os << "])";
      fail(os.str(), false);
      return 0;
    }
    ++depth_;
    return d.idx;
  }
  Decision d;
  d.cands = tc;
  d.idx = 0;  // default: continue the current thread
  trail_.push_back(std::move(d));
  ++depth_;
  (void)lk;
  return 0;
}

std::size_t Session::pick_value(const std::vector<std::uint64_t>& vc,
                                std::unique_lock<std::mutex>& lk) {
  if (replaying_) {
    if (depth_ >= replay_.size()) return 0;
    auto [k, idx] = replay_[depth_];
    if (k != 'V' || idx >= vc.size()) {
      fail("replay: decision mismatch (nondeterministic scenario?)", false);
      return 0;
    }
    ++depth_;
    return idx;
  }
  if (depth_ < trail_.size()) {
    Decision& d = trail_[depth_];
    if (!d.value_point || d.value_cands != vc) {
      fail("exploration nondeterminism: scenario must reset all state "
           "between runs",
           false);
      return 0;
    }
    ++depth_;
    return d.value_idx;
  }
  Decision d;
  d.value_point = true;
  d.value_cands = vc;
  d.value_idx = 0;  // default: newest store
  trail_.push_back(std::move(d));
  ++depth_;
  (void)lk;
  return 0;
}

bool Session::advance_trail() {
  while (!trail_.empty()) {
    Decision& d = trail_.back();
    const std::size_t n =
        d.value_point ? d.value_cands.size() : d.cands.size();
    std::size_t next = (d.value_point ? d.value_idx : d.idx) + 1;
    if (next < n && !d.value_point) {
      // A thread pick with idx > 0 switches away from a runnable current
      // thread: one preemption. Skip alternatives at this point when the
      // prefix has already spent the budget. Value picks are free.
      int spent = 0;
      for (std::size_t k = 0; k + 1 < trail_.size(); ++k)
        if (!trail_[k].value_point && trail_[k].idx > 0) ++spent;
      if (spent >= opt_.preemption_bound) {
        res_.bound_limited = true;
        next = n;
      }
    }
    if (next < n) {
      if (d.value_point)
        d.value_idx = next;
      else
        d.idx = next;
      return true;
    }
    trail_.pop_back();
  }
  return false;
}

std::string Session::trail_string() const {
  std::ostringstream os;
  for (const Decision& d : trail_) {
    if (d.value_point)
      os << 'V' << d.value_idx << '.';
    else
      os << 'T' << d.idx << '.';
  }
  return os.str();
}

void Session::parse_replay() {
  replay_.clear();
  const std::string& s = opt_.replay;
  std::size_t i = 0;
  while (i < s.size()) {
    const char k = s[i++];
    if (k != 'T' && k != 'V') continue;
    std::size_t v = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9')
      v = v * 10 + static_cast<std::size_t>(s[i++] - '0');
    replay_.emplace_back(k, v);
  }
  replaying_ = !replay_.empty();
}

// ---------------------------------------------------------------------------
// Scheduling

void Session::schedule_point(std::unique_lock<std::mutex>& lk) {
  if (mode_ != Mode::explore) return;
  if (++steps_ > opt_.max_steps) {
    fail("livelock: schedule exceeded MPX_MC_MAX_STEPS without finishing "
         "(spin loop without mc::yield?)",
         /*fatal=*/true);
    park(lk);
  }
  ++res_.points;
  auto c = candidates();
  if (c.size() <= 1) return;  // nothing to decide
  std::size_t idx = pick_thread(c, lk);
  if (mode_ != Mode::explore) return;
  if (idx >= c.size()) idx = 0;
  const int next = c[idx];
  if (next != cur_) {
    const int me = cur_;
    hand_token(next);
    resume_wait(lk, me);
  }
}

std::string Session::deadlock_report() const {
  std::ostringstream os;
  os << "deadlock: all virtual threads blocked (";
  for (int i = 0; i < nthreads_; ++i) {
    os << 'T' << i << '='
       << (vt_[i].state == TState::blocked_mutex  ? "mutex"
           : vt_[i].state == TState::blocked_join ? "join"
           : vt_[i].state == TState::blocked_loc  ? "loc"
           : vt_[i].state == TState::finished     ? "done"
                                                  : "?")
       << (i + 1 < nthreads_ ? " " : "");
  }
  os << ")";
  return os.str();
}

void Session::block_cur(TState why, std::unique_lock<std::mutex>& lk) {
  const int me = cur_;
  vt_[me].state = why;
  auto r = runnable();
  if (r.empty()) {
    fail(deadlock_report(), /*fatal=*/true);
    park(lk);
  }
  // Forced switch, not a preemption: the blocker cannot continue.
  cur_ = r.front();
  vt_[cur_].state = TState::running;
  cv_.notify_all();
  resume_wait(lk, me);
}

// ---------------------------------------------------------------------------
// Memory model

void Session::do_store(Loc& l, std::uint64_t val, int mo) {
  Store s;
  s.seq = l.next_seq++;
  s.val = val;
  s.by = cur_;
  s.release_op = is_release(mo);
  if (s.release_op) s.clk = vt_[cur_].clk;
  l.hist.push_back(s);
  while (l.hist.size() > kStoreHistory) l.hist.pop_front();
  l.last_seen[cur_] = s.seq;
  for (int w : l.waiters) wake(w);
  l.waiters.clear();
}

std::uint64_t Session::do_read(Loc& l, int mo,
                               std::unique_lock<std::mutex>& lk) {
  const int me = cur_;
  // Readable set: stores at or after the reader's coherence floor.
  // Acquire / seq_cst loads read the newest store; relaxed may read any
  // store in the window, each choice a DFS value branch. Relaxed reads
  // NEVER join clocks — that asymmetry, not the value, is what the race
  // detector keys on.
  const std::uint64_t floor = l.last_seen[me];
  std::vector<const Store*> readable;  // newest first
  for (auto it = l.hist.rbegin(); it != l.hist.rend(); ++it) {
    readable.push_back(&*it);
    if (it->seq <= floor) break;  // older than the floor: invisible
  }
  const Store* chosen = readable.front();
  if (!is_acquire(mo) && opt_.stale_relaxed_loads && readable.size() > 1 &&
      l.stale_reads[me] < kStaleReadBound) {
    std::vector<std::uint64_t> seqs;
    seqs.reserve(readable.size());
    for (const Store* s : readable) seqs.push_back(s->seq);
    std::size_t vi = pick_value(seqs, lk);
    if (mode_ != Mode::explore) return readable.front()->val;
    if (vi >= readable.size()) vi = 0;
    chosen = readable[vi];
    if (vi != 0) ++l.stale_reads[me];
  }
  l.last_seen[me] = std::max(l.last_seen[me], chosen->seq);
  if (is_acquire(mo) && chosen->release_op) clock_join(vt_[me].clk, chosen->clk);
  return chosen->val;
}

// ---------------------------------------------------------------------------
// Shim entry points. MPX_MC_ENTER: bail (not modeled) unless this thread is
// a vthread of this session in explore mode; park forever in abandon mode.

#define MPX_MC_ENTER(...)                             \
  if (tl_session != this || tl_tid < 0) return __VA_ARGS__; \
  std::unique_lock<std::mutex> lk(mu_);               \
  if (mode_ == Mode::abandon) park(lk);               \
  if (mode_ != Mode::explore) return __VA_ARGS__

bool Session::on_load(const void* loc, std::uint64_t seed, int mo,
                      const char* what, std::uint64_t* out) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  Loc& l = loc_at(loc, seed);
  *out = do_read(l, mo, lk);
  if (mode_ != Mode::explore) return false;
  vt_[cur_].clk[cur_]++;
  logop(what, loc, *out);
  return true;
}

bool Session::on_store(const void* loc, std::uint64_t seed, std::uint64_t val,
                       int mo, const char* what) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  Loc& l = loc_at(loc, seed);
  vt_[cur_].clk[cur_]++;
  do_store(l, val, mo);
  logop(what, loc, val);
  return true;
}

bool Session::on_rmw(const void* loc, std::uint64_t seed,
                     std::uint64_t operand, bool add, int mo,
                     const char* what, std::uint64_t* old_out) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  Loc& l = loc_at(loc, seed);
  // RMW atomicity: always reads the latest store.
  const Store latest = l.hist.back();
  *old_out = latest.val;
  l.last_seen[cur_] = latest.seq;
  if (is_acquire(mo) && latest.release_op)
    clock_join(vt_[cur_].clk, latest.clk);
  vt_[cur_].clk[cur_]++;
  do_store(l, add ? latest.val + operand : operand, mo);
  logop(what, loc, *old_out);
  return true;
}

bool Session::on_cas(const void* loc, std::uint64_t seed,
                     std::uint64_t expected, std::uint64_t desired, int mo,
                     const char* what, std::uint64_t* observed,
                     bool* success) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  Loc& l = loc_at(loc, seed);
  const Store latest = l.hist.back();
  *observed = latest.val;
  l.last_seen[cur_] = latest.seq;
  if (is_acquire(mo) && latest.release_op)
    clock_join(vt_[cur_].clk, latest.clk);
  vt_[cur_].clk[cur_]++;
  *success = (latest.val == expected);
  if (*success) do_store(l, desired, mo);
  logop(what, loc, *observed);
  return true;
}

void Session::on_forget(const void* loc) {
  MPX_MC_ENTER();
  auto it = locs_.find(loc);
  if (it == locs_.end()) return;
  if (!it->second.waiters.empty() || !it->second.futex_waiters.empty()) {
    fail("atomic destroyed while a virtual thread waits on it "
         "(use-after-free)",
         /*fatal=*/true);
    park(lk);
  }
  locs_.erase(it);
}

bool Session::on_wait_change(const void* loc) {
  MPX_MC_ENTER(false);
  auto it = locs_.find(loc);
  if (it == locs_.end()) return true;  // nothing modeled yet: just retry
  it->second.waiters.push_back(cur_);
  block_cur(TState::blocked_loc, lk);
  return mode_ == Mode::explore;
}

bool Session::on_futex_wait(const void* loc, std::uint64_t seed,
                            std::uint64_t expected) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  Loc& l = loc_at(loc, seed);
  // The kernel compares against the word's current value and queues the
  // waiter in one step: no schedule point between the two. The model has
  // no timeout, so a wake-up nobody sends is a deadlock report.
  const std::uint64_t now = l.hist.back().val;
  logop("futex.wait", loc, now);
  if (now != expected) return true;
  l.futex_waiters.push_back(cur_);
  block_cur(TState::blocked_loc, lk);
  return mode_ == Mode::explore;
}

bool Session::on_futex_wake(const void* loc) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  auto it = locs_.find(loc);
  if (it != locs_.end()) {
    for (int w : it->second.futex_waiters) wake(w);
    it->second.futex_waiters.clear();
  }
  logop("futex.wake", loc, 0);
  return true;
}

bool Session::on_fence(int mo) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  // Only the store->load (Dekker) half of a seq_cst fence is modeled: the
  // fencing thread's later loads read no store older than the newest one
  // at the fence. The interleaving is already sequentially consistent, so
  // this is what separates a fenced relaxed load from an unfenced one.
  if (static_cast<std::memory_order>(mo) == std::memory_order_seq_cst) {
    for (auto& [p, l] : locs_) l.last_seen[cur_] = l.hist.back().seq;
  }
  vt_[cur_].clk[cur_]++;
  logop("fence", nullptr, static_cast<std::uint64_t>(mo));
  return true;
}

void Session::on_mtx_lock(const void* m, bool recursive, const char* what) {
  MPX_MC_ENTER();
  schedule_point(lk);
  if (mode_ != Mode::explore) return;
  MutexSt& s = mtx_[m];
  s.recursive = recursive;
  if (s.owner == cur_ && !recursive) {
    fail("non-recursive mutex relocked by its owner (self-deadlock)", true);
    park(lk);
  }
  while (s.owner != -1 && s.owner != cur_) {
    s.waiters.push_back(cur_);
    block_cur(TState::blocked_mutex, lk);
    if (mode_ != Mode::explore) return;
  }
  s.owner = cur_;
  ++s.depth;
  clock_join(vt_[cur_].clk, s.rel);  // acquire the last unlock's clock
  vt_[cur_].clk[cur_]++;
  logop(what, m, static_cast<std::uint64_t>(s.depth));
}

bool Session::on_mtx_try_lock(const void* m, bool recursive,
                              const char* what, bool* acquired) {
  MPX_MC_ENTER(false);
  schedule_point(lk);
  if (mode_ != Mode::explore) return false;
  MutexSt& s = mtx_[m];
  s.recursive = recursive;
  if (s.owner == -1 || (s.owner == cur_ && recursive)) {
    s.owner = cur_;
    ++s.depth;
    clock_join(vt_[cur_].clk, s.rel);
    *acquired = true;
  } else {
    *acquired = false;
  }
  vt_[cur_].clk[cur_]++;
  logop(what, m, *acquired ? 1 : 0);
  return true;
}

void Session::on_mtx_unlock(const void* m) {
  MPX_MC_ENTER();
  auto it = mtx_.find(m);
  if (it == mtx_.end() || it->second.owner != cur_) return;
  // Leading schedule point: model the instant where the critical section is
  // over but the unlock is not yet visible. This is where publish-before-
  // unlock bugs live — a peer acting on the published value can reach the
  // mutex destructor while the modeled owner still holds it.
  schedule_point(lk);
  if (mode_ != Mode::explore) return;
  it = mtx_.find(m);  // re-find: the map may rehash while suspended
  if (it == mtx_.end() || it->second.owner != cur_) return;
  MutexSt& s = it->second;
  vt_[cur_].clk[cur_]++;
  if (--s.depth == 0) {
    s.owner = -1;
    s.rel = vt_[cur_].clk;
    for (int w : s.waiters) wake(w);
    s.waiters.clear();
  }
  logop("mutex.unlock", m, static_cast<std::uint64_t>(s.depth));
  schedule_point(lk);  // let a waiter win the lock race here
}

void Session::on_mtx_destroy(const void* m) {
  MPX_MC_ENTER();
  auto it = mtx_.find(m);
  if (it == mtx_.end()) return;
  if (it->second.owner != -1 || !it->second.waiters.empty()) {
    fail(it->second.owner != -1
             ? "mutex destroyed while held by another thread "
               "(use-after-free)"
             : "mutex destroyed while threads wait on it (use-after-free)",
         /*fatal=*/true);
    park(lk);  // the destructor must not complete
  }
  mtx_.erase(it);
}

void Session::on_plain(const void* addr, const char* what, bool write) {
  MPX_MC_ENTER();
  PlainSt& p = plain_[addr];
  const Clock& myclk = vt_[cur_].clk;
  const int me = cur_;
  auto report = [&](const Epoch& other, const char* kind) {
    std::ostringstream os;
    os << "data race on plain data: " << kind << " '" << other.what
       << "' by T" << other.tid << " unordered with "
       << (write ? "write" : "read") << " '" << what << "' by T" << me;
    fail(os.str(), /*fatal=*/false);
  };
  if (p.last_write.tid >= 0 && p.last_write.tid != me &&
      !clock_leq(p.last_write.clk, myclk)) {
    report(p.last_write, "write");
    return;
  }
  if (write) {
    for (const Epoch& r : p.reads) {
      if (r.tid != me && !clock_leq(r.clk, myclk)) {
        report(r, "read");
        return;
      }
    }
    p.last_write = Epoch{me, myclk, what};
    p.reads.clear();
  } else {
    p.reads.push_back(Epoch{me, myclk, what});
  }
  vt_[cur_].clk[cur_]++;
}

void Session::on_yield() {
  MPX_MC_ENTER();
  // Deterministic round-robin: no DFS branch, no preemption charge. Spin
  // loops use this so waiting does not explode the schedule tree.
  if (++steps_ > opt_.max_steps) {
    fail("livelock: schedule exceeded MPX_MC_MAX_STEPS in a yield loop",
         /*fatal=*/true);
    park(lk);
  }
  int next = -1;
  for (int d = 1; d <= nthreads_; ++d) {
    const int cand = (cur_ + d) % nthreads_;
    if (cand != cur_ && vt_[cand].state == TState::ready) {
      next = cand;
      break;
    }
  }
  if (next < 0) return;  // nobody else runnable
  const int me = cur_;
  hand_token(next);
  resume_wait(lk, me);
}

void Session::on_check_fail(const char* what) {
  MPX_MC_ENTER();
  fail(std::string("mc::check failed: ") + what, /*fatal=*/false);
}

// ---------------------------------------------------------------------------
// Threads

int Session::spawn(std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (nthreads_ >= kMaxThreads) {
    fail("too many virtual threads (max 8)", false);
    return -1;
  }
  const int id = nthreads_++;
  VThread& v = vt_[id];
  v.fn = std::move(fn);
  v.state = TState::ready;
  v.clk = {};
  v.joiners.clear();
  // Thread creation synchronizes: child inherits the spawner's clock. The
  // child's own component then advances past the inherited prefix so its
  // very first access already carries an epoch no other clock covers —
  // without this, first-op races compare as ordered (own component 0).
  if (cur_ >= 0) v.clk = vt_[cur_].clk;
  v.clk[id]++;
  Session* self = this;
  v.th = std::thread([self, id] {
    tl_session = self;
    tl_tid = id;
    {
      std::unique_lock<std::mutex> lk2(self->mu_);
      self->resume_wait(lk2, id);
    }
    self->vt_[id].fn();
    std::unique_lock<std::mutex> lk2(self->mu_);
    VThread& me = self->vt_[id];
    me.state = TState::finished;
    for (int j : me.joiners) self->wake(j);
    me.joiners.clear();
    if (self->mode_ == Mode::explore && self->cur_ == id) {
      auto r = self->runnable();
      if (!r.empty()) {
        // Deterministic handoff (lowest id): thread exit is not a DFS
        // branch — the choice points before it already cover the orderings.
        self->cur_ = r.front();
        self->vt_[self->cur_].state = TState::running;
      } else {
        self->cur_ = -1;
        // The last runnable thread left while others still wait on it (a
        // futex wake-up it never sent): nobody can ever run again.
        for (int j = 0; j < self->nthreads_; ++j) {
          if (self->vt_[j].state != TState::finished) {
            self->fail(self->deadlock_report(), /*fatal=*/true);
            break;
          }
        }
      }
    }
    self->cv_.notify_all();
  });
  return id;
}

void Session::join_thread(int id) {
  if (id < 0 || id >= nthreads_) return;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (tl_session == this && tl_tid >= 0 && mode_ == Mode::explore &&
        vt_[id].state != TState::finished) {
      vt_[id].joiners.push_back(cur_);
      block_cur(TState::blocked_join, lk);
    }
    if (mode_ == Mode::abandon) {
      if (vt_[id].th.joinable()) vt_[id].th.detach();
      return;
    }
    // Join synchronizes: everything the joined thread did happens-before
    // the joiner's subsequent accesses.
    if (tl_session == this && tl_tid >= 0 && mode_ == Mode::explore) {
      clock_join(vt_[tl_tid].clk, vt_[id].clk);
      vt_[tl_tid].clk[tl_tid]++;
    }
  }
  if (vt_[id].th.joinable()) vt_[id].th.join();
}

// ---------------------------------------------------------------------------
// Failure + dump

void Session::fail(const std::string& why, bool fatal) {
  if (!res_.failed) {
    res_.failed = true;
    res_.failure = why;
    res_.replay = replaying_ ? opt_.replay : trail_string();
    dump(why);
  }
  if (fatal)
    mode_ = Mode::abandon;
  else if (mode_ == Mode::explore)
    mode_ = Mode::freerun;
  if (mode_ == Mode::freerun) {
    // Release every blocked vthread; they finish on the real primitives.
    for (int i = 0; i < nthreads_; ++i)
      if (vt_[i].state != TState::finished) vt_[i].state = TState::ready;
    cur_ = -1;
  }
  cv_.notify_all();
}

void Session::dump(const std::string& why) {
  // Traces land under the build tree by default (MPX_MC_DUMP_DIR_DEFAULT,
  // set by src/mc/CMakeLists.txt) so failing runs never litter the source
  // checkout; MPX_MC_DUMP_DIR overrides, and "." restores the old
  // write-to-CWD behavior.
  const char* dir = std::getenv("MPX_MC_DUMP_DIR");  // NOLINT(concurrency-mt-unsafe)
#ifdef MPX_MC_DUMP_DIR_DEFAULT
  if (dir == nullptr || *dir == '\0') dir = MPX_MC_DUMP_DIR_DEFAULT;
#endif
  std::string prefix;
  if (dir != nullptr && *dir != '\0' && std::string_view(dir) != ".") {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) prefix = std::string(dir) + "/";
  }
  res_.dump_path = prefix + "mc_replay_" + opt_.name + ".txt";
  std::FILE* f = std::fopen(res_.dump_path.c_str(), "w");
  if (!f) {
    res_.dump_path.clear();
    return;
  }
  std::fprintf(f, "mpx::mc failing schedule\nscenario: %s\nfailure: %s\n",
               opt_.name, why.c_str());
  std::fprintf(f, "schedules-before-failure: %ld\n", res_.schedules);
  std::fprintf(f, "replay: %s\n", res_.replay.c_str());
  std::fprintf(f, "rerun: MPX_MC_REPLAY='%s' <test binary>\n\n",
               res_.replay.c_str());
  const std::size_t n = std::min(opn_, kOpLog);
  std::fprintf(f, "last %zu op(s), oldest first:\n", n);
  for (std::size_t k = 0; k < n; ++k) {
    const OpRec& o = oplog_[(opn_ - n + k) % kOpLog];
    std::fprintf(f, "  T%d %-22s %p = %llu\n", o.tid, o.what, o.addr,
                 static_cast<unsigned long long>(o.val));
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Exploration driver

void Session::finish_schedule() {
  locs_.clear();
  mtx_.clear();
  plain_.clear();
  for (int i = 0; i < nthreads_; ++i) vt_[i] = VThread{};  // all joined
  nthreads_ = 0;
  cur_ = -1;
  depth_ = 0;
  steps_ = 0;
  opn_ = 0;
}

Result Session::run() {
  res_.name = opt_.name;
  parse_replay();

  for (;;) {
    const int root = spawn(body_);
    if (root < 0) break;  // spawn failure already recorded
    {
      std::unique_lock<std::mutex> lk(mu_);
      hand_token(root);
      cv_.wait(lk, [&] {
        return vt_[root].state == TState::finished || mode_ == Mode::abandon;
      });
      if (mode_ == Mode::abandon) {
        for (int i = 0; i < nthreads_; ++i)
          if (vt_[i].th.joinable()) vt_[i].th.detach();
        ++res_.schedules;
        return res_;  // session is leaked by the caller
      }
      // Root finished. Any vthread the body failed to join is a scenario
      // bug that would dangle once we reset state below.
      bool unjoined = false;
      for (int i = 0; i < nthreads_; ++i)
        if (vt_[i].state != TState::finished) unjoined = true;
      if (unjoined && mode_ == Mode::explore) {
        fail("scenario body returned with unjoined mc::thread(s)", true);
        for (int i = 0; i < nthreads_; ++i)
          if (vt_[i].th.joinable()) vt_[i].th.detach();
        ++res_.schedules;
        return res_;
      }
    }
    for (int i = 0; i < nthreads_; ++i)
      if (vt_[i].th.joinable()) vt_[i].th.join();
    ++res_.schedules;

    std::unique_lock<std::mutex> lk(mu_);
    const bool failed = res_.failed;
    // MPX_MC_LOG_OPS=1: stream every schedule's op log to stderr — the
    // debugging view for exploration-nondeterminism reports (diff two
    // schedules' op streams to find the op that diverged).
    static const bool log_ops = base::cvar_int("MPX_MC_LOG_OPS", 0) != 0;
    if (log_ops) {
      const std::size_t n = std::min(opn_, kOpLog);
      std::fprintf(stderr, "[mc] %s schedule %ld (%s): %zu op(s)\n", opt_.name,
                   res_.schedules, trail_string().c_str(), n);
      for (std::size_t k = 0; k < n; ++k) {
        const OpRec& o = oplog_[(opn_ - n + k) % kOpLog];
        std::fprintf(stderr, "  T%d %-22s %p = %llu\n", o.tid, o.what, o.addr,
                     static_cast<unsigned long long>(o.val));
      }
    }
    finish_schedule();
    if (failed || replaying_) break;
    if (res_.schedules >= opt_.max_schedules) {
      res_.truncated = true;
      break;
    }
    if (!advance_trail()) {
      res_.exhausted = true;
      break;
    }
    mode_ = Mode::explore;
  }
  return res_;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

Options::Options()
    : max_schedules(base::cvar_int("MPX_MC_MAX_SCHEDULES", 20000)),
      preemption_bound(
          static_cast<int>(base::cvar_int("MPX_MC_PREEMPTION_BOUND", 2))),
      max_steps(base::cvar_int("MPX_MC_MAX_STEPS", 100000)) {}

std::string Result::summary() const {
  std::ostringstream os;
  os << "[mc] " << name << ": " << schedules << " schedule(s), " << points
     << " point(s), "
     << (failed ? "FAILED"
         : exhausted ? "exhausted"
         : truncated ? "budget-truncated"
                     : "stopped");
  if (bound_limited) os << " (preemption-bounded)";
  if (failed) os << " — " << failure << "; replay=" << replay;
  return os.str();
}

Result explore(const Options& opt, const std::function<void()>& body) {
  if (opt.replay.empty()) {
    if (const char* env = std::getenv("MPX_MC_REPLAY"); env && *env) {
      Options o = opt;
      o.replay = env;
      return explore(o, body);
    }
  }
  if (tl_session != nullptr) {
    Result r;
    r.name = opt.name;
    r.failed = true;
    r.failure = "nested explore() inside a virtual thread";
    return r;
  }
  auto* s = new Session(opt, body);
  Result r = s->run();
  // Abandon mode leaves parked threads referencing the session forever:
  // leak it by design. Clean and freerun sessions joined everything.
  if (!s->abandoned()) delete s;
  return r;
}

thread::thread(std::function<void()> fn) {
  Session* s = tl_session;
  if (!s) {
    fn();  // outside a session: degrade to synchronous execution
    joined_ = true;
    return;
  }
  id_ = s->spawn(std::move(fn));
}

void thread::join() {
  if (joined_) return;
  joined_ = true;
  if (id_ < 0) return;
  if (Session* s = tl_session) s->join_thread(id_);
}

void yield() {
  if (tl_session) tl_session->on_yield();
}

void check(bool ok, const char* what) {
  if (ok) return;
  if (tl_session)
    tl_session->on_check_fail(what);
  else
    std::fprintf(stderr, "mc::check failed outside session: %s\n", what);
}

void plain_read(const void* addr, const char* what) {
  if (tl_session) tl_session->on_plain(addr, what, false);
}
void plain_write(const void* addr, const char* what) {
  if (tl_session) tl_session->on_plain(addr, what, true);
}

namespace detail {

bool modeled() { return tl_session != nullptr && tl_tid >= 0; }

bool mc_load(const void* loc, std::uint64_t seed, int mo, const char* what,
             std::uint64_t* out) {
  return tl_session && tl_session->on_load(loc, seed, mo, what, out);
}
bool mc_store(const void* loc, std::uint64_t seed, std::uint64_t val, int mo,
              const char* what) {
  return tl_session && tl_session->on_store(loc, seed, val, mo, what);
}
bool mc_rmw_exchange(const void* loc, std::uint64_t seed, std::uint64_t val,
                     int mo, const char* what, std::uint64_t* old_out) {
  return tl_session && tl_session->on_rmw(loc, seed, val, /*add=*/false, mo,
                                          what, old_out);
}
bool mc_rmw_add(const void* loc, std::uint64_t seed, std::uint64_t delta,
                int mo, const char* what, std::uint64_t* old_out) {
  return tl_session && tl_session->on_rmw(loc, seed, delta, /*add=*/true, mo,
                                          what, old_out);
}
bool mc_cas(const void* loc, std::uint64_t seed, std::uint64_t expected,
            std::uint64_t desired, int mo, const char* what,
            std::uint64_t* observed, bool* success) {
  return tl_session && tl_session->on_cas(loc, seed, expected, desired, mo,
                                          what, observed, success);
}
void mc_forget_atomic(const void* loc) {
  if (tl_session) tl_session->on_forget(loc);
}
bool mc_wait_change(const void* loc) {
  return tl_session && tl_session->on_wait_change(loc);
}
bool mc_futex_wait(const void* loc, std::uint64_t seed,
                   std::uint64_t expected) {
  return tl_session && tl_session->on_futex_wait(loc, seed, expected);
}
bool mc_futex_wake(const void* loc) {
  return tl_session && tl_session->on_futex_wake(loc);
}
bool mc_fence(int mo) { return tl_session && tl_session->on_fence(mo); }
void mtx_lock(const void* m, bool recursive, const char* what) {
  if (tl_session) tl_session->on_mtx_lock(m, recursive, what);
}
bool mtx_try_lock(const void* m, bool recursive, const char* what,
                  bool* acquired) {
  return tl_session &&
         tl_session->on_mtx_try_lock(m, recursive, what, acquired);
}
void mtx_unlock(const void* m) {
  if (tl_session) tl_session->on_mtx_unlock(m);
}
void mtx_destroy(const void* m) {
  if (tl_session) tl_session->on_mtx_destroy(m);
}

}  // namespace detail
}  // namespace mpx::mc

#endif  // MPX_MODEL_CHECK
