// mpxlint fixture: the library's idle loop reached from a
// ProgressSource::poll override. SettleSource::poll calls settle(), which
// calls core_detail::poll_until() to wait for a flag another poll would
// set — poll_until drives progress and idles until its condition holds, so
// running it inside progress is the paper's §3.4 deadlock, whatever the
// loop's poll and done callables are.
// Expected finding: progress-contract (blocking call 'poll_until', via the
// transitive call graph, not just the direct body).

namespace fix {

struct Vci;
struct WaitPolicy {
  int spin = 200;
};
struct WaitLadderCounters;

namespace core_detail {
template <class Poll, class Done>
void poll_until(WaitPolicy policy, WaitLadderCounters* rungs, Poll&& poll,
                Done&& done);
}  // namespace core_detail

struct ProgressSource {
  virtual bool idle(Vci& v) = 0;
  virtual void poll(Vci& v, int* made) = 0;
};

struct SettleSource final : ProgressSource {
  bool idle(Vci&) override { return true; }
  void poll(Vci& v, int* made) override {
    settle(v);
    *made = 0;
  }
  void settle(Vci&) {
    core_detail::poll_until(
        WaitPolicy{}, nullptr, [] { return 0; },
        [this] { return ready; });  // blocking idle loop inside poll
  }
  bool ready = false;
};

}  // namespace fix
