// mpx/net/nic.hpp
//
// The simulated NIC ("netmod"), last hook of the collated progress function.
// The paper's footnote 1 applies: "NIC loosely refers to either hardware
// operations or software emulations" — this is the software emulation.
//
// Key property the paper's analysis depends on: completions exist *in time*
// (a message "arrives" when the cost model says so) but are only *observed*
// when somebody polls. Unpolled progress therefore delays everything
// downstream, which is exactly the phenomenon the extensions address.
//
// Responsibilities:
//  - inject(): place a Msg on a directed (src, dst, vci) channel with a
//    delivery deadline from the CostModel; optionally register a sender-side
//    completion (cookie) that fires when the injection DMA would finish.
//  - poll(): on (rank, vci) — deliver every due message to the sink and fire
//    every due sender-side completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "mpx/base/clock.hpp"
#include "mpx/base/lock_rank.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/net/cost_model.hpp"
#include "mpx/transport/msg.hpp"
#include "mpx/transport/transport.hpp"

namespace mpx::net {

/// Counters for observability and tests.
struct NicStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cq_events = 0;
};

class Nic final : public transport::Transport {
 public:
  Nic(int nranks, int max_vcis, CostModel model, const base::Clock& clock,
      transport::TransportLimits limits = {});

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // --- transport::Transport ---
  const char* name() const override { return "nic"; }
  unsigned caps() const override { return transport::cap_send_cq; }
  const transport::TransportLimits& limits() const override { return limits_; }
  /// ProgressMask::progress_net (net/ cannot include core headers).
  unsigned progress_bit() const override { return 1u << 4; }
  /// The NIC reaches everything; it routes last, as the catch-all.
  bool reaches(int, int) const override { return true; }
  /// inject() never completes locally unless fire-and-forget (cookie 0).
  bool send(transport::Msg&& m, std::uint64_t cookie) override {
    inject(std::move(m), cookie);
    return cookie == 0;
  }
  transport::TransportStats transport_stats() const override;

  /// Inject a message. If `cookie` is nonzero, a sender-side completion event
  /// fires (via on_send_complete on the sender's poll) when the local
  /// injection finishes; payload buffers must stay valid until then.
  /// If `cookie` is zero the payload was copied/owned and nothing fires.
  void inject(transport::Msg&& m, std::uint64_t cookie);

  /// Poll endpoint (rank, vci): deliver due arrivals and fire due sender-side
  /// completion events. Sets *made_progress when anything was delivered.
  void poll(int rank, int vci, transport::TransportSink& sink,
            int* made_progress) override;

  /// True when nothing is in flight to or from (rank, vci). A cheap check —
  /// the paper notes netmod empty-polls are NOT always cheap, which is why
  /// the collated progress function places netmod last; idle() lets the
  /// progress engine skip it entirely when provably quiet.
  bool idle(int rank, int vci) const override;

  NicStats stats() const;
  const CostModel& model() const { return model_; }

 private:
  struct TimedMsg {
    double due = 0.0;
    transport::Msg msg;
  };
  struct CqEntry {
    double due = 0.0;
    std::uint64_t cookie = 0;
  };
  /// Cache-line aligned: neighbouring channels belong to other pairs.
  struct alignas(64) Channel {
    mutable base::Spinlock mu{"net:channel", base::LockRank::transport};
    // FIFO, monotonically increasing due.
    std::deque<TimedMsg> in_flight MPX_GUARDED_BY(mu);
    double clear_time MPX_GUARDED_BY(mu) = 0.0;  // previous message clears
  };
  /// Per-(rank, vci) state: the sender-side completion queue, the
  /// in-flight count and the endpoint's share of the stats. Cache-line
  /// aligned so threads on different endpoints never write a common line;
  /// stats() sums them.
  struct alignas(64) Endpoint {
    mutable base::Spinlock mu{"net:cq", base::LockRank::transport};
    std::deque<CqEntry> cq MPX_GUARDED_BY(mu);  // FIFO, increasing due
    /// Entries in flight to/from this endpoint — arrivals on its channels
    /// plus its unfired send completions. inject() increments (before
    /// pushing, so a zero read proves the queues were empty at that
    /// point); poll() decrements per pop. Lets poll() bail out without the
    /// clock read or any spinlock when the endpoint is quiet — the "netmod
    /// empty-polls are not cheap" cost the paper calls out, made cheap.
    std::atomic<std::uint32_t> pending{0};
    std::atomic<std::uint64_t> injected{0};   ///< sends from this endpoint
    std::atomic<std::uint64_t> delivered{0};  ///< arrivals polled here
    std::atomic<std::uint64_t> cq_events{0};  ///< completions fired here
  };

  Channel& channel(int src, int dst, int vci);
  const Channel& channel(int src, int dst, int vci) const;
  Endpoint& endpoint(int rank, int vci);
  const Endpoint& endpoint(int rank, int vci) const;

  int nranks_;
  int max_vcis_;
  CostModel model_;
  transport::TransportLimits limits_;
  const base::Clock& clock_;
  std::vector<Channel> channels_;    // [src][dst][vci]
  std::vector<Endpoint> endpoints_;  // [rank][vci]
};

}  // namespace mpx::net
