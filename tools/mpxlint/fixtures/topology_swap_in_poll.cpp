// mpxlint fixture: a control-plane topology mutation reached from a
// ProgressSource::poll override. RerouteSource::poll calls maybe_reroute(),
// which calls swap_topology_for_test() — topology writers take the control
// mutex (rank 50, below vci) and drive progress while holding it, so a
// poll context (already under a vci-ranked lock) reaching one inverts the
// lock order and re-enters the engine mid-swap. Snapshot READS (the TopoRef
// acquire-load) are poll-safe; the mutation entry points are not.
// Expected finding: progress-contract (control-plane call, via the
// transitive call graph, not just the direct body).

namespace fix {

struct Vci;
struct Transport;
struct World;

namespace core_detail {
void swap_topology_for_test(World& w, int a, int b, Transport& t);
}  // namespace core_detail

struct ProgressSource {
  virtual bool idle(Vci& v) = 0;
  virtual void poll(Vci& v, int* made) = 0;
};

void maybe_reroute(World& w, Transport& t) {
  core_detail::swap_topology_for_test(w, 0, 1, t);  // writer from poll
}

struct RerouteSource final : ProgressSource {
  explicit RerouteSource(World& w, Transport& t) : w_(w), t_(t) {}
  bool idle(Vci&) override { return true; }
  void poll(Vci&, int* made) override {
    maybe_reroute(w_, t_);
    *made = 0;
  }
  World& w_;
  Transport& t_;
};

}  // namespace fix
