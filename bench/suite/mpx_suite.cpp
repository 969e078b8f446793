// mpx_suite: the repository benchmark driver.
//
//   mpx_suite --workload <name> --seed <n> --seconds <s> [--trace-file <path>]
//
// Every workload is a closed loop in one process with at most four threads
// (rank threads plus engine helpers; the main thread runs rank 0). A run
// builds kWorlds fresh Worlds in sequence, because latency differs between
// fresh Worlds more than between runs of one World; every reported value is
// the median of the per-World values. Per World:
//
//   set-up   World::create, helper start, two warm-up passes; the second
//            calibrates how many ops fill the timed phase (all ranks run the
//            same count, so collective and paired calls stay matched)
//   phase    the timed, untraced closed loop: end-to-end metrics
//   traced   (--trace-file only) the same loop with spans recorded around
//            each call into a layer: per-layer metrics
//
// Every payload and every reduction result is checked byte for byte; the
// last record reports attempted and failed checks, and the exit code is 1
// when any check failed. Output is JSONL, one record per metric (see
// README.md for the names and what each should move).
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "suite_util.hpp"

namespace {

using namespace mpx;
using namespace mpx_suite;

/// The per-World p50s of one run spread by 10-20% (interquartile range over
/// median), so the run reports the median of many short Worlds.
constexpr int kWorlds = 60;
/// Span slots per thread and World in a traced run (32 B each).
constexpr std::size_t kSpanCap = std::size_t{1} << 18;
/// Spans per thread of the last World written to the trace file.
constexpr std::size_t kTraceFileSpans = 10000;
constexpr int kTag = 7;

std::atomic<int> g_reported{0};

/// Per-rank-thread state of one World.
struct Worker {
  int rank = 0;
  bool traced = false;
  SpanLog log;
  std::vector<double> lat_us;         ///< untraced phase samples
  std::vector<double> traced_lat_us;  ///< traced phase samples
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double unexpected_max = 0.0;

  void record(double us) { (traced ? traced_lat_us : lat_us).push_back(us); }

  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (g_reported.fetch_add(1, std::memory_order_relaxed) < 10) {
      std::fprintf(stderr, "mpx_suite: rank %d: check failed: %s\n", rank,
                   what);
    }
  }

  /// Traced runs only: sample the matching engine's unexpected depth (the
  /// accessor takes the VCI lock, so untraced phases never call it).
  void sample_unexpected(World& w, std::uint64_t op) {
    if (!traced || op % 64 != 0) return;
    const auto mc = w.vci_match_counters(rank, 0);
    unexpected_max =
        std::max(unexpected_max, static_cast<double>(mc.unexpected));
  }
};

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "mpx_suite: fatal: %s\n", what);
  std::fflush(stdout);
  std::_Exit(3);
}

bool ok(const Status& s) { return s.error == Err::success && !s.cancelled; }

/// One closed-loop workload. Inputs are made from the seed once, before
/// the first World; open()/close() bracket each World.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Rank threads, including the main thread's rank 0.
  virtual int ranks() const = 0;
  virtual WorldConfig config() const = 0;
  virtual void open(World& w) = 0;
  virtual void close() {}
  /// Run `n` units on this rank. Every rank of a World runs the same n.
  virtual void run(Worker& me, std::uint64_t n) = 0;
  /// Units per warm-up pass.
  virtual std::uint64_t warmup_units() const = 0;
  /// Ops per unit, the denominator of per-op counters and ops_per_s.
  virtual double ops_per_unit() const { return 1.0; }
  /// Upper bounds on the spans one unit (any thread) and one op add.
  virtual std::size_t spans_per_unit() const = 0;
  virtual std::size_t spans_per_op() const = 0;
  virtual std::vector<Endpoint> endpoints() const = 0;
  virtual const Comm* coll_comm() const { return nullptr; }
  virtual const task::ProgressEngine* engine() const { return nullptr; }
};

// ------------------------------------------------------------ p2p_pingpong --

/// Rank 0 sends, rank 1 echoes, both on one node (shm). The size picks the
/// protocol: 8 B rides in the ring slot, 4 KiB in a pooled eager block,
/// 256 KiB through the LMT rendezvous.
class PingPong final : public Workload {
 public:
  PingPong(std::uint64_t seed, std::size_t bytes)
      : bytes_(bytes),
        out_(seed, 0, bytes),
        expect_(seed, 0, bytes),
        echo_(bytes),
        in_(bytes) {}

  int ranks() const override { return 2; }
  WorldConfig config() const override { return WorldConfig{.nranks = 2}; }
  void open(World& w) override { w_ = &w; }
  std::uint64_t warmup_units() const override {
    return bytes_ > 64 * 1024 ? 200 : 2000;
  }
  std::size_t spans_per_unit() const override { return 5; }
  std::size_t spans_per_op() const override { return 5; }
  std::vector<Endpoint> endpoints() const override { return {{0, 0}, {1, 0}}; }

  void run(Worker& me, std::uint64_t n) override {
    const Comm c = w_->comm_world(me.rank);
    const auto dt = dtype::Datatype::byte();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (me.rank == 0) {
        out_.stamp(op_[0]);
        const std::int64_t t0 = now_ns();
        me.log.begin_op(t0);
        Request r, s;
        Status rs, ss;
        {
          Scope sp(me.log, "core.irecv");
          r = c.irecv(echo_.data(), bytes_, dt, 1, kTag);
        }
        {
          Scope sp(me.log, "core.isend");
          s = c.isend(out_.data(), bytes_, dt, 1, kTag);
        }
        {
          Scope sp(me.log, "core.wait");
          ss = s.wait();
        }
        {
          Scope sp(me.log, "core.wait");
          rs = r.wait();
        }
        const std::int64_t t1 = now_ns();
        me.log.end_op(t1);
        me.record(static_cast<double>(t1 - t0) * 1e-3);
        me.check(ok(ss) && ok(rs) && rs.count_bytes == bytes_ &&
                     out_.matches(echo_.data()),
                 "pingpong: echo differs from the sent payload");
        me.sample_unexpected(*w_, op_[0]);
      } else {
        expect_.stamp(op_[1]);
        me.log.begin_op(now_ns());
        Request r, s;
        Status rs, ss;
        {
          Scope sp(me.log, "core.irecv");
          r = c.irecv(in_.data(), bytes_, dt, 0, kTag);
        }
        {
          Scope sp(me.log, "core.wait");
          rs = r.wait();
        }
        {
          Scope sp(me.log, "core.isend");
          s = c.isend(in_.data(), bytes_, dt, 0, kTag);
        }
        {
          Scope sp(me.log, "core.wait");
          ss = s.wait();
        }
        me.log.end_op(now_ns());
        me.check(ok(rs) && ok(ss) && rs.count_bytes == bytes_ &&
                     expect_.matches(in_.data()),
                 "pingpong: received payload differs from the sent one");
      }
      ++op_[me.rank];
    }
  }

 private:
  World* w_ = nullptr;
  std::size_t bytes_;
  StampedPayload out_;     // rank 0's message
  StampedPayload expect_;  // rank 1's copy of what rank 0 sends
  std::vector<std::byte> echo_;
  std::vector<std::byte> in_;
  std::uint64_t op_[2] = {0, 0};
};

// -------------------------------------------------------------- fanin_rate --

/// Three senders, one receiver, one node. Credit-based: each sender sends a
/// window of kWindow 64 B messages and waits for the receiver's ack; the
/// receiver posts one any_source receive at a time, so arrivals queue as
/// unexpected messages and meet the wildcard path.
class FanIn final : public Workload {
 public:
  static constexpr int kSenders = 3;
  static constexpr int kWindow = 32;
  static constexpr std::size_t kBytes = 64;
  static constexpr int kAckTag = 8;

  explicit FanIn(std::uint64_t seed) : seed_(seed) {}

  int ranks() const override { return kSenders + 1; }
  WorldConfig config() const override {
    return WorldConfig{.nranks = kSenders + 1};
  }
  void open(World& w) override { w_ = &w; }
  std::uint64_t warmup_units() const override { return 40; }
  double ops_per_unit() const override { return kSenders * kWindow; }
  std::size_t spans_per_unit() const override {
    return kSenders * kWindow * 3 + kSenders * 2;
  }
  std::size_t spans_per_op() const override { return 3 + 2 * kWindow + 2; }
  std::vector<Endpoint> endpoints() const override {
    std::vector<Endpoint> eps;
    for (int r = 0; r <= kSenders; ++r) eps.push_back({r, 0});
    return eps;
  }

  void run(Worker& me, std::uint64_t n) override {
    if (me.rank == 0) {
      receive(me, n);
    } else {
      send(me, n);
    }
  }

 private:
  void payload(int src, std::uint64_t seq, std::byte* out) const {
    for (std::size_t w = 0; w < kBytes / 8; ++w) {
      const std::uint64_t v =
          mix(seed_, static_cast<std::uint64_t>(src), seq, w);
      std::memcpy(out + w * 8, &v, 8);
    }
  }

  void send(Worker& me, std::uint64_t n) {
    const Comm c = w_->comm_world(me.rank);
    const auto dt = dtype::Datatype::byte();
    std::vector<std::byte> bufs(kWindow * kBytes);
    std::vector<Request> reqs(kWindow);
    std::vector<Status> sts(kWindow);
    std::uint64_t& window = windows_[me.rank];
    for (std::uint64_t i = 0; i < n; ++i, ++window) {
      for (int j = 0; j < kWindow; ++j) {
        payload(me.rank, window * kWindow + static_cast<std::uint64_t>(j),
                bufs.data() + static_cast<std::size_t>(j) * kBytes);
      }
      std::uint64_t ack = ~std::uint64_t{0};
      const std::int64_t t0 = now_ns();
      me.log.begin_op(t0);
      Request ar;
      {
        Scope sp(me.log, "core.irecv");
        ar = c.irecv(&ack, sizeof ack, dt, 0, kAckTag);
      }
      for (int j = 0; j < kWindow; ++j) {
        Scope sp(me.log, "core.isend");
        reqs[static_cast<std::size_t>(j)] =
            c.isend(bufs.data() + static_cast<std::size_t>(j) * kBytes, kBytes,
                    dt, 0, kTag);
      }
      for (int j = 0; j < kWindow; ++j) {
        Scope sp(me.log, "core.wait");
        sts[static_cast<std::size_t>(j)] = reqs[static_cast<std::size_t>(j)].wait();
      }
      Status as;
      {
        Scope sp(me.log, "core.wait");
        as = ar.wait();
      }
      const std::int64_t t1 = now_ns();
      me.log.end_op(t1);
      me.record(static_cast<double>(t1 - t0) * 1e-3);
      bool sent = true;
      for (const Status& s : sts) sent = sent && ok(s);
      me.check(sent && ok(as) && ack == window,
               "fanin: send failed or ack names the wrong window");
    }
  }

  void receive(Worker& me, std::uint64_t n) {
    const Comm c = w_->comm_world(0);
    const auto dt = dtype::Datatype::byte();
    std::byte got[kBytes];
    std::byte want[kBytes];
    const std::uint64_t msgs = n * kSenders * kWindow;
    for (std::uint64_t m = 0; m < msgs; ++m) {
      me.log.begin_op(now_ns());
      Request r;
      Status st;
      {
        Scope sp(me.log, "core.irecv");
        r = c.irecv(got, kBytes, dt, any_source, kTag);
      }
      {
        Scope sp(me.log, "core.wait");
        st = r.wait();
      }
      const int src = st.source;
      if (src < 1 || src > kSenders) fatal("fanin: message from no sender");
      const std::uint64_t seq = seq_[src]++;
      Status ss;
      if ((seq + 1) % kWindow == 0) {
        std::uint64_t ack = seq / kWindow;
        Request s;
        {
          Scope sp(me.log, "core.isend");
          s = c.isend(&ack, sizeof ack, dt, src, kAckTag);
        }
        Scope sp(me.log, "core.wait");
        ss = s.wait();
      }
      me.log.end_op(now_ns());
      payload(src, seq, want);
      me.check(ok(st) && ok(ss) && st.count_bytes == kBytes &&
                   std::memcmp(got, want, kBytes) == 0,
               "fanin: payload differs from the sender's");
      me.sample_unexpected(*w_, m);
    }
  }

  World* w_ = nullptr;
  std::uint64_t seed_;
  std::uint64_t windows_[kSenders + 1] = {};
  std::uint64_t seq_[kSenders + 1] = {};
};

// ----------------------------------------------------------- allreduce_nic --

/// Four ranks, one per node (every message crosses the simulated NIC),
/// running cached compiled iallreduce (int64 sum) back to back.
class Allreduce final : public Workload {
 public:
  static constexpr int kRanks = 4;

  Allreduce(std::uint64_t seed, std::size_t count) : count_(count) {
    sum_.assign(count, 0);
    for (int r = 0; r < kRanks; ++r) {
      auto& b = base_[r];
      b.resize(count);
      for (std::size_t k = 0; k < count; ++k) {
        // 40-bit inputs: the sum of four never overflows.
        b[k] = static_cast<std::int64_t>(
            mix(seed, static_cast<std::uint64_t>(r), k) >> 24);
        sum_[k] += b[k];
      }
      in_[r].resize(count);
      out_[r].resize(count);
    }
  }

  int ranks() const override { return kRanks; }
  WorldConfig config() const override {
    return WorldConfig{.nranks = kRanks, .ranks_per_node = 1};
  }
  void open(World& w) override {
    for (int r = 0; r < kRanks; ++r) comms_[r] = w.comm_world(r);
  }
  std::uint64_t warmup_units() const override {
    return count_ * 8 > 1024 ? 100 : 400;
  }
  std::size_t spans_per_unit() const override { return 3; }
  std::size_t spans_per_op() const override { return 3; }
  std::vector<Endpoint> endpoints() const override {
    return {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  }
  const Comm* coll_comm() const override { return &comms_[0]; }

  void run(Worker& me, std::uint64_t n) override {
    const int r = me.rank;
    const auto dt = dtype::Datatype::int64();
    auto& in = in_[r];
    auto& out = out_[r];
    const auto& base = base_[r];
    // Every rank contributes base + op * (rank + 1), so the expected sum
    // changes with each op: sum + op * (1 + 2 + 3 + 4).
    constexpr std::int64_t kWeights = kRanks * (kRanks + 1) / 2;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto op = static_cast<std::int64_t>(op_[r]++);
      for (std::size_t k = 0; k < count_; ++k) in[k] = base[k] + op * (r + 1);
      const std::int64_t t0 = now_ns();
      me.log.begin_op(t0);
      Request q;
      Status st;
      {
        Scope sp(me.log, "coll.launch");
        q = coll::ir::iallreduce(in.data(), out.data(), count_, dt,
                                 dtype::ReduceOp::sum, comms_[r]);
      }
      {
        Scope sp(me.log, "coll.complete");
        st = q.wait();
      }
      const std::int64_t t1 = now_ns();
      me.log.end_op(t1);
      me.record(static_cast<double>(t1 - t0) * 1e-3);
      bool right = ok(st);
      for (std::size_t k = 0; k < count_ && right; ++k) {
        right = out[k] == sum_[k] + op * kWeights;
      }
      me.check(right, "allreduce: result differs from the expected sum");
      me.sample_unexpected(comms_[r].world(), op_[r]);
    }
  }

 private:
  std::size_t count_;
  std::vector<std::int64_t> base_[kRanks];
  std::vector<std::int64_t> sum_;
  std::vector<std::int64_t> in_[kRanks];
  std::vector<std::int64_t> out_[kRanks];
  Comm comms_[kRanks];
  std::uint64_t op_[kRanks] = {};
};

// ------------------------------------------------------------ overlap_halo --

/// Two ranks swap 1 MiB halos (LMT) around a 500 us offloaded compute: the
/// host thread sleeps while the adaptive progress engine (one worker) may
/// move the halos, then both ranks wait.
class Halo final : public Workload {
 public:
  static constexpr std::size_t kBytes = std::size_t{1} << 20;
  static constexpr int kComputeUs = 500;

  explicit Halo(std::uint64_t seed)
      : out_{StampedPayload(seed, 0, kBytes), StampedPayload(seed, 1, kBytes)},
        expect_{StampedPayload(seed, 1, kBytes),
                StampedPayload(seed, 0, kBytes)},
        in_{std::vector<std::byte>(kBytes), std::vector<std::byte>(kBytes)} {}

  int ranks() const override { return 2; }
  WorldConfig config() const override {
    WorldConfig cfg{.nranks = 2};
    // The overlap bench's engine settings, with a single worker so the
    // process stays at four threads (two ranks, controller, worker).
    cfg.shm_lmt_chunk = 128 * 1024;
    cfg.wait_sleep_max_us = 16;
    cfg.progress_engine.epoch_us = 200;
    cfg.progress_engine.dedicate_hit_rate = 0.05;
    cfg.progress_engine.max_workers = 1;
    return cfg;
  }
  void open(World& w) override {
    w_ = &w;
    engine_.emplace(w);
    engine_->attach(w.null_stream(0));
    engine_->attach(w.null_stream(1));
  }
  void close() override { engine_.reset(); }
  std::uint64_t warmup_units() const override { return 20; }
  std::size_t spans_per_unit() const override { return 6; }
  std::size_t spans_per_op() const override { return 6; }
  std::vector<Endpoint> endpoints() const override { return {{0, 0}, {1, 0}}; }
  const task::ProgressEngine* engine() const override {
    return engine_ ? &*engine_ : nullptr;
  }

  void run(Worker& me, std::uint64_t n) override {
    const int r = me.rank;
    const int peer = 1 - r;
    const Comm c = w_->comm_world(r);
    const auto dt = dtype::Datatype::byte();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t it = it_[r]++;
      out_[r].stamp(it);
      const std::int64_t t0 = now_ns();
      me.log.begin_op(t0);
      Request rr, sr;
      Status rs, ss;
      {
        Scope sp(me.log, "core.irecv");
        rr = c.irecv(in_[r].data(), kBytes, dt, peer, kTag);
      }
      {
        Scope sp(me.log, "core.isend");
        sr = c.isend(out_[r].data(), kBytes, dt, peer, kTag);
      }
      {
        Scope sp(me.log, "app.compute");
        std::this_thread::sleep_for(std::chrono::microseconds(kComputeUs));
      }
      {
        Scope sp(me.log, "core.wait");
        ss = sr.wait();
      }
      {
        Scope sp(me.log, "core.wait");
        rs = rr.wait();
      }
      const std::int64_t t1 = now_ns();
      me.log.end_op(t1);
      me.record(static_cast<double>(t1 - t0) * 1e-3);
      expect_[r].stamp(it);
      me.check(ok(ss) && ok(rs) && rs.count_bytes == kBytes &&
                   expect_[r].matches(in_[r].data()),
               "halo: received halo differs from the peer's");
      me.sample_unexpected(*w_, it);
    }
  }

 private:
  World* w_ = nullptr;
  std::optional<task::ProgressEngine> engine_;
  StampedPayload out_[2];
  StampedPayload expect_[2];  // rank r's copy of what its peer sends
  std::vector<std::byte> in_[2];
  std::uint64_t it_[2] = {0, 0};
};

// ---------------------------------------------------------- async_progress --

/// The paper's section 4 instrument: one thread keeps kTasks dummy tasks
/// pending on one stream, each completing at a seeded deadline; a task's
/// progress latency is the gap between its deadline and the poll that
/// observes it. Each observed task is replaced by a fresh one from inside
/// its poll function, so the pending count stays constant.
///
/// A pending task compares its deadline with the time the scan started,
/// not with a fresh clock read: a clock read costs about 50 ns on a KVM
/// guest and drifts by 15%, so 256 of them per scan made the latency a
/// measure of the clock rather than of the async stage. Only the poll that
/// observes a task reads the clock.
class AsyncProgress final : public Workload {
 public:
  static constexpr int kTasks = 256;

  explicit AsyncProgress(std::uint64_t seed)
      : rng_(mix(seed, 0xa5)), deadline_ns_(2e3, 2e6) {}

  int ranks() const override { return 1; }
  WorldConfig config() const override { return WorldConfig{.nranks = 1}; }
  void open(World& w) override {
    w_ = &w;
    stream_ = w.stream_create(0);
    stopping_ = false;
    const std::int64_t now = now_ns();
    for (Slot& s : slots_) {
      s.self = this;
      s.deadline = now + next_interval();
      s.armed = true;
      async_start(&poll, &s, stream_);
    }
  }
  void close() override {
    // Stop replenishing and drain: every pending task retires on its next
    // poll, and none may be left pending or lost.
    stopping_ = true;
    const std::int64_t give_up = now_ns() + 1'000'000'000;
    while (std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.armed; })) {
      stream_progress(stream_);
      if (now_ns() > give_up) fatal("async: pending tasks never retired");
    }
    w_->stream_free(stream_);
  }
  std::uint64_t warmup_units() const override { return 4000; }
  std::size_t spans_per_unit() const override { return 8; }
  std::size_t spans_per_op() const override { return 2; }
  std::vector<Endpoint> endpoints() const override {
    return {{0, stream_.vci()}};
  }

  void run(Worker& me, std::uint64_t n) override {
    me_ = &me;
    const std::uint64_t target = observed_ + n;
    while (observed_ < target) {
      scan_start_ = now_ns();
      me.log.begin_op(scan_start_);
      {
        Scope sp(me.log, "core.progress");
        stream_progress(stream_);
      }
      me.log.end_op(now_ns());
    }
    me_ = nullptr;
  }

 private:
  struct Slot {
    AsyncProgress* self = nullptr;
    std::int64_t deadline = 0;  ///< now_ns() time
    bool armed = false;
  };

  std::int64_t next_interval() {
    return static_cast<std::int64_t>(deadline_ns_(rng_));
  }

  static AsyncResult poll(AsyncThing& thing) {
    auto* s = static_cast<Slot*>(thing.state());
    AsyncProgress& a = *s->self;
    if (!a.stopping_ && a.scan_start_ < s->deadline) {
      return AsyncResult::pending;
    }
    if (a.me_ != nullptr) {
      a.me_->check(s->armed, "async: task observed twice");
    }
    s->armed = false;
    if (a.stopping_) return AsyncResult::done;
    const std::int64_t now = now_ns();
    ++a.observed_;
    if (a.me_ != nullptr) {
      a.me_->record(static_cast<double>(now - s->deadline) * 1e-3);
    }
    s->deadline = now + a.next_interval();
    s->armed = true;
    thing.spawn(&poll, s, thing.stream());
    return AsyncResult::done;
  }

  World* w_ = nullptr;
  Stream stream_;
  Worker* me_ = nullptr;
  bool stopping_ = false;
  std::int64_t scan_start_ = 0;
  std::uint64_t observed_ = 0;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> deadline_ns_;
  std::array<Slot, kTasks> slots_{};
};

// ----------------------------------------------------------------- harness --

struct WorldResult {
  double setup_s = 0.0;
  double phase_s = 0.0;
  double cpu_s = 0.0;
  double ops = 0.0;
  std::vector<double> lat_us;
  std::vector<double> traced_lat_us;
  MetricMap layer;  ///< traced runs only
};

/// Span names every traced run reports (0 where a workload has none).
constexpr const char* kSpanNames[] = {
    "op",          "core.isend",   "core.irecv",   "core.wait",
    "core.progress", "coll.launch", "coll.complete", "app.compute"};

WorldResult run_world(Workload& wl, double phase_s, bool traced,
                      std::FILE* trace_file, std::uint64_t& attempted,
                      std::uint64_t& failed) {
  const int nranks = wl.ranks();
  std::vector<Worker> workers(static_cast<std::size_t>(nranks));
  WorldResult res;
  const std::uint64_t warm = wl.warmup_units();
  std::uint64_t units = 0;
  std::uint64_t traced_units = 0;
  Counters before, after;
  std::int64_t t_cal = 0;
  std::int64_t t_phase = 0;
  double cpu0 = 0.0;

  // Rank 0 hands the barrier a step that runs once every rank has arrived
  // and before any leaves: timestamps and counter snapshots taken there
  // see every rank quiescent.
  std::function<void()> on_sync;
  auto completion = [&]() noexcept {
    if (on_sync) on_sync();
    on_sync = nullptr;
  };
  std::barrier sync(nranks, completion);
  auto step = [&](int rank, std::function<void()> fn) {
    if (rank == 0) on_sync = std::move(fn);
    sync.arrive_and_wait();
  };

  const std::int64_t t_setup = now_ns();
  std::shared_ptr<World> world = World::create(wl.config());
  wl.open(*world);
  auto snap = [&] {
    return snapshot(*world, wl.endpoints(), wl.coll_comm(), wl.engine());
  };

  auto body = [&](int rank) {
    Worker& me = workers[static_cast<std::size_t>(rank)];
    me.rank = rank;
    wl.run(me, warm);
    step(rank, [&] { t_cal = now_ns(); });
    wl.run(me, warm);
    step(rank, [&] {
      const std::int64_t t = now_ns();
      res.setup_s = static_cast<double>(t - t_setup) * 1e-9;
      const double rate = static_cast<double>(warm) /
                          (static_cast<double>(t - t_cal) * 1e-9);
      units = std::max<std::uint64_t>(
          warm, static_cast<std::uint64_t>(std::llround(rate * phase_s)));
      traced_units =
          std::min<std::uint64_t>(units, kSpanCap / wl.spans_per_unit());
    });
    me.lat_us.clear();
    me.lat_us.reserve(static_cast<std::size_t>(units) + 1);
    me.traced_lat_us.reserve(static_cast<std::size_t>(traced_units) + 1);
    step(rank, [&] {
      before = snap();
      cpu0 = process_cpu_s();
      t_phase = now_ns();
    });
    wl.run(me, units);
    step(rank, [&] {
      res.phase_s = static_cast<double>(now_ns() - t_phase) * 1e-9;
      res.cpu_s = process_cpu_s() - cpu0;
      after = snap();
    });
    if (!traced) return;
    me.traced = true;
    me.log.enable(kSpanCap, wl.spans_per_op());
    wl.run(me, traced_units);
    me.log.disable();
    me.traced = false;
  };

  std::vector<std::thread> threads;
  for (int r = 1; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (const std::exception& e) {
        fatal(e.what());
      }
    });
  }
  try {
    body(0);
  } catch (const std::exception& e) {
    fatal(e.what());
  }
  for (auto& t : threads) t.join();
  wl.close();
  for (int r = 0; r < nranks; ++r) world->finalize_rank(r);
  world.reset();

  res.ops = static_cast<double>(units) * wl.ops_per_unit();
  for (Worker& me : workers) {
    res.lat_us.insert(res.lat_us.end(), me.lat_us.begin(), me.lat_us.end());
    res.traced_lat_us.insert(res.traced_lat_us.end(),
                             me.traced_lat_us.begin(), me.traced_lat_us.end());
    attempted += me.attempted;
    failed += me.failed;
  }
  if (!traced) return res;

  counter_metrics(before, after, res.ops, res.layer);
  SpanSummary sum;
  double unexpected_max = 0.0;
  for (const Worker& me : workers) {
    summarize_spans(me.log.spans(), sum);
    unexpected_max = std::max(unexpected_max, me.unexpected_max);
  }
  res.layer["core.match.unexpected_max"] = unexpected_max;
  for (const char* name : kSpanNames) {
    res.layer[std::string(name) + ".self_frac"] =
        ratio(sum.self_ns[name], sum.op_ns);
  }
  for (const char* name : {"core.isend", "core.irecv", "core.wait",
                           "core.progress", "coll.launch"}) {
    res.layer[std::string(name) + ".ns_p50"] = median(sum.dur_ns[name]);
  }
  res.layer["coll.complete.us_p50"] = median(sum.dur_ns["coll.complete"]) * 1e-3;
  res.layer["trace_overhead_frac"] =
      ratio(median(res.traced_lat_us), median(res.lat_us)) - 1.0;
  if (trace_file != nullptr) {
    for (const Worker& me : workers) {
      write_spans(trace_file, me.rank, me.log, t_phase, kTraceFileSpans);
    }
  }
  return res;
}

/// Unit of a per-layer metric, from its name.
const char* unit_of(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("ns_p50")) return "ns";
  if (ends("us_p50")) return "us";
  if (ends("ratio") || ends("frac")) return "ratio";
  if (ends("_max") || ends("promotions") || ends("demotions") ||
      ends("steals")) {
    return "count";
  }
  return "1/op";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "p2p_pingpong.8b") return std::make_unique<PingPong>(seed, 8);
  if (name == "p2p_pingpong.4k") return std::make_unique<PingPong>(seed, 4096);
  if (name == "p2p_pingpong.256k") {
    return std::make_unique<PingPong>(seed, 256 * 1024);
  }
  if (name == "fanin_rate") return std::make_unique<FanIn>(seed);
  if (name == "allreduce_nic.8b") return std::make_unique<Allreduce>(seed, 1);
  if (name == "allreduce_nic.64k") {
    return std::make_unique<Allreduce>(seed, 8192);
  }
  if (name == "overlap_halo") return std::make_unique<Halo>(seed);
  if (name == "async_progress") return std::make_unique<AsyncProgress>(seed);
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: mpx_suite --workload <name> --seed <n> --seconds <s> "
               "[--trace-file <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        seconds = std::stod(val);
      } else if (key == "--trace-file") {
        trace_path = val;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || !have_seed || !(seconds > 0.0)) return usage();
  std::unique_ptr<Workload> wl = make_workload(workload, seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "mpx_suite: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const bool traced = !trace_path.empty();
  std::FILE* trace_file = nullptr;
  if (traced) {
    trace_file = std::fopen(trace_path.c_str(), "w");
    if (trace_file == nullptr) {
      std::fprintf(stderr, "mpx_suite: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }

  // A traced run splits each World's time between the untraced phase and
  // the traced one.
  const double phase_s = seconds / kWorlds / (traced ? 2.0 : 1.0);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<WorldResult> worlds;
  for (int i = 0; i < kWorlds; ++i) {
    worlds.push_back(run_world(*wl, phase_s, traced,
                               i + 1 == kWorlds ? trace_file : nullptr,
                               attempted, failed));
  }
  if (trace_file != nullptr) std::fclose(trace_file);

  const char* v = workload.c_str();
  std::uint64_t samples = 0;
  std::vector<double> p50, rate, util, setup;
  for (WorldResult& w : worlds) {
    samples += w.lat_us.size();
    p50.push_back(quantile(w.lat_us, 0.50));
    rate.push_back(w.ops / w.phase_s);
    util.push_back(w.cpu_s / w.phase_s);
    setup.push_back(w.setup_s);
  }
  emit(v, "setup_s", "s", median(setup), kWorlds);
  emit(v, "lat_p50_us", "us", median(p50), samples);
  emit(v, "ops_per_s", "1/s", median(rate), samples);
  emit(v, "cpu_util", "cores", median(util), kWorlds);
  emit(v, "fail_frac", "ratio",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       attempted);
  if (traced) {
    // The tail moves too much between runs to gate on: a diagnostic, taken
    // over the samples of every World so that many lie beyond it.
    std::vector<double> all;
    all.reserve(samples);
    for (const WorldResult& w : worlds) {
      all.insert(all.end(), w.lat_us.begin(), w.lat_us.end());
    }
    emit(v, "tail.lat_p99_us", "us", quantile(all, 0.99), samples);
    for (const auto& [name, value] : worlds.front().layer) {
      std::vector<double> per_world;
      for (const WorldResult& w : worlds) per_world.push_back(w.layer.at(name));
      emit(v, name, unit_of(name), median(per_world), kWorlds);
    }
  }
  std::printf(
      "{\"bench\":\"mpx_suite\",\"variant\":\"%s\",\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu}\n",
      v, failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}
