// mpxlint fixture: process-wide counters written on the datapath. Three
// seeded violations (namespace-scope, function-local static, the static
// accessor idiom) plus the shapes that must NOT fire: per-endpoint member
// counters, thread_local counters, load-only statics and an annotated
// exception.

namespace fix {

constexpr int memory_order_relaxed = 0;

namespace std {
template <class T>
struct atomic {
  T fetch_add(T, int);
  T fetch_sub(T, int);
  T exchange(T, int);
  T load(int) const;
};
}  // namespace std

// Violation 1: namespace-scope counter bumped per message.
std::atomic<unsigned long> g_sends{0};

// Exception: claim bookkeeping, once per thread. Not a finding.
std::atomic<unsigned> g_claims{0};  // mpxlint: allow(shared-counter) per thread

struct Endpoint {
  std::atomic<unsigned long> sends;  // per endpoint: fine
};

struct Request {
  // Violation 3: the static accessor idiom.
  static std::atomic<long>& live_count() {
    static std::atomic<long> count{0};
    return count;
  }
  Request() { live_count().fetch_add(1, memory_order_relaxed); }
  ~Request() { live_count().fetch_sub(1, memory_order_relaxed); }
};

void send(Endpoint& ep) {
  g_sends.fetch_add(1, memory_order_relaxed);
  ep.sends.fetch_add(1, memory_order_relaxed);
  g_claims.fetch_add(1, memory_order_relaxed);
}

int poll() {
  // Violation 2: function-local static swapped on every poll.
  static std::atomic<int> last{0};
  thread_local static std::atomic<int> mine{0};  // per thread: fine
  static std::atomic<int> config{0};             // read-only: fine
  mine.fetch_add(1, memory_order_relaxed);
  return last.exchange(config.load(memory_order_relaxed),
                       memory_order_relaxed);
}

}  // namespace fix
