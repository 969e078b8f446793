// Communicator management (dup/split/stream comms) and the p2p entry points.
// Management operations are collective: every member must call; a
// Coordinator rendezvous gathers the per-member inputs, the last arrival
// builds the result, and everyone leaves with its own view.
//
// Layer note: communicator construction is CONTROL-PLANE work — context-id
// allocation goes through World::alloc_context_ids (the ranked control
// mutex). The p2p entry points below it are pure datapath: they resolve
// their VCI and route through that VCI's pinned TopologySnapshot, never a
// control-plane lock (see "Control plane vs datapath" in
// docs/architecture.md).
#include <algorithm>

#include "internal.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx {

using core_detail::CommImpl;
using core_detail::Coordinator;

namespace core_detail {

std::any Coordinator::run(int member, std::any input,
                          std::vector<std::any> (*make)(std::vector<std::any>&,
                                                        void*),
                          void* arg) {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t my_epoch = epoch_;
  inputs_[static_cast<std::size_t>(member)] = std::move(input);
  ++arrived_;
  if (arrived_ == n_) {
    outputs_ =
        std::make_shared<std::vector<std::any>>(make(inputs_, arg));
    ensures(static_cast<int>(outputs_->size()) == n_,
            "Coordinator: make() must return one output per member");
    arrived_ = 0;
    ++epoch_;
    for (auto& in : inputs_) in.reset();
    cv_.notify_all();
    return (*outputs_)[static_cast<std::size_t>(member)];
  }
  cv_.wait(lk, [&] { return epoch_ != my_epoch; });
  return (*outputs_)[static_cast<std::size_t>(member)];
}

CommImpl::~CommImpl() {
  // Single-threaded by the time the last shared_ptr drops; the acquire
  // pairs with the installer's CAS release so the extension's contents
  // (compiled schedules) are visible before deletion.
  delete ext.load(std::memory_order_acquire);
}

CommExt* comm_ext(const Comm& comm) {
  expects(comm.valid(), "comm_ext: invalid communicator");
  return comm.impl()->ext.load(std::memory_order_acquire);
}

CommExt* comm_ext_get_or_install(const Comm& comm,
                                 std::unique_ptr<CommExt> (*make)(void* arg),
                                 void* arg) {
  expects(comm.valid() && make != nullptr,
          "comm_ext_get_or_install: bad arguments");
  CommImpl* ci = comm.impl();
  CommExt* cur = ci->ext.load(std::memory_order_acquire);
  if (cur != nullptr) return cur;
  std::unique_ptr<CommExt> fresh = make(arg);
  expects(fresh != nullptr, "comm_ext_get_or_install: factory returned null");
  CommExt* expected = nullptr;
  if (ci->ext.compare_exchange_strong(expected, fresh.get(),
                                      std::memory_order_acq_rel)) {
    return fresh.release();  // now owned by the CommImpl
  }
  return expected;  // a racing member installed first; ours is destroyed
}

}  // namespace core_detail

int Comm::rank() const {
  expects(valid(), "Comm::rank: invalid communicator");
  return my_rank_;
}

int Comm::size() const {
  expects(valid(), "Comm::size: invalid communicator");
  return static_cast<int>(impl_->group.size());
}

World& Comm::world() const {
  expects(valid(), "Comm::world: invalid communicator");
  return *impl_->world;
}

int Comm::context_id() const {
  expects(valid(), "Comm::context_id: invalid communicator");
  return impl_->context_id;
}

Stream Comm::stream() const {
  expects(valid(), "Comm::stream: invalid communicator");
  const int vci = impl_->vcis[static_cast<std::size_t>(my_rank_)];
  World& w = *impl_->world;
  if (vci == 0) return w.null_stream(impl_->to_world(my_rank_));
  // Reconstruct the handle; mask comes from the VCI itself.
  core_detail::Vci& v = w.vci(impl_->to_world(my_rank_), vci);
  return Stream(&w, impl_->to_world(my_rank_), vci, v.default_mask);
}

int Comm::world_rank(int comm_rank) const {
  expects(valid() && comm_rank >= 0 && comm_rank < size(),
          "Comm::world_rank: rank out of range");
  return impl_->to_world(comm_rank);
}

Request Comm::isend(const void* buf, std::size_t count, dtype::Datatype dt,
                    int dst, int tag) const {
  expects(valid(), "Comm::isend: invalid communicator");
  return core_detail::isend_impl(impl_, my_rank_, buf, count, dt, dst, tag);
}

Request Comm::irecv(void* buf, std::size_t count, dtype::Datatype dt, int src,
                    int tag) const {
  expects(valid(), "Comm::irecv: invalid communicator");
  return core_detail::irecv_impl(impl_, my_rank_, buf, count, dt, src, tag);
}

Status Comm::send(const void* buf, std::size_t count, dtype::Datatype dt,
                  int dst, int tag) const {
  Request r = isend(buf, count, std::move(dt), dst, tag);
  return wait_on_stream(r, stream());
}

Status Comm::recv(void* buf, std::size_t count, dtype::Datatype dt, int src,
                  int tag) const {
  Request r = irecv(buf, count, std::move(dt), src, tag);
  return wait_on_stream(r, stream());
}

Request Comm::issend(const void* buf, std::size_t count, dtype::Datatype dt,
                     int dst, int tag) const {
  expects(valid(), "Comm::issend: invalid communicator");
  return core_detail::isend_impl(impl_, my_rank_, buf, count, dt, dst, tag,
                                 /*sync=*/true);
}

Status Comm::ssend(const void* buf, std::size_t count, dtype::Datatype dt,
                   int dst, int tag) const {
  Request r = issend(buf, count, std::move(dt), dst, tag);
  return wait_on_stream(r, stream());
}

Status Comm::sendrecv(const void* sendbuf, std::size_t sendcount,
                      dtype::Datatype sendtype, int dst, int sendtag,
                      void* recvbuf, std::size_t recvcount,
                      dtype::Datatype recvtype, int src, int recvtag) const {
  Request sreq = isend(sendbuf, sendcount, std::move(sendtype), dst, sendtag);
  Request rreq = irecv(recvbuf, recvcount, std::move(recvtype), src, recvtag);
  const Stream s = stream();
  core_detail::stream_poll_until(
      core_detail::wait_policy(&s.world()), s,
      [&sreq, &rreq] { return sreq.is_complete() && rreq.is_complete(); });
  return rreq.status();
}

std::optional<Status> Comm::iprobe(int src, int tag) const {
  expects(valid(), "Comm::iprobe: invalid communicator");
  World& w = *impl_->world;
  const int self = impl_->to_world(my_rank_);
  core_detail::Vci& v =
      w.vci(self, impl_->vcis[static_cast<std::size_t>(my_rank_)]);
  core_detail::progress_test(v, v.default_mask);

  const int match_src = src == any_source ? any_source : impl_->to_world(src);
  std::optional<Status> out;
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  if (const core_detail::UnexpMsg* u =
          v.unexpected.find(impl_->context_id, match_src, tag);
      u != nullptr) {
    Status s;
    s.source = impl_->to_comm(u->msg.h.src_rank);
    s.tag = u->msg.h.tag;
    s.count_bytes = u->msg.h.total_bytes;
    out = s;
  }
  return out;
}

MatchedMsg::MatchedMsg(MatchedMsg&& o) noexcept
    : msg_(o.msg_), vci_(o.vci_), envelope_(o.envelope_) {
  o.msg_ = nullptr;
}

MatchedMsg& MatchedMsg::operator=(MatchedMsg&& o) noexcept {
  if (this != &o) {
    if (msg_ != nullptr) core_detail::requeue_unexpected(*vci_, msg_);
    msg_ = o.msg_;
    vci_ = o.vci_;
    envelope_ = o.envelope_;
    o.msg_ = nullptr;
  }
  return *this;
}

MatchedMsg::~MatchedMsg() {
  if (msg_ != nullptr) core_detail::requeue_unexpected(*vci_, msg_);
}

std::optional<MatchedMsg> Comm::improbe(int src, int tag) const {
  expects(valid(), "Comm::improbe: invalid communicator");
  World& w = *impl_->world;
  const int self = impl_->to_world(my_rank_);
  core_detail::Vci& v =
      w.vci(self, impl_->vcis[static_cast<std::size_t>(my_rank_)]);
  core_detail::progress_test(v, v.default_mask);

  const int match_src = src == any_source ? any_source : impl_->to_world(src);
  core_detail::UnexpMsg* hit = nullptr;
  {
    base::LockGuard<base::InstrumentedMutex> g(v.mu);
    hit = v.unexpected.pop(impl_->context_id, match_src, tag);
  }
  if (hit == nullptr) return std::nullopt;
  Status env;
  env.source = impl_->to_comm(hit->msg.h.src_rank);
  env.tag = hit->msg.h.tag;
  env.count_bytes = hit->msg.h.total_bytes;
  return MatchedMsg(hit, &v, env);
}

Request Comm::imrecv(void* buf, std::size_t count, dtype::Datatype dt,
                     MatchedMsg&& m) const {
  expects(valid(), "Comm::imrecv: invalid communicator");
  expects(m.valid(), "Comm::imrecv: invalid matched message");
  return core_detail::imrecv_impl(impl_, my_rank_, buf, count, dt,
                                  m.release());
}

Comm Comm::coll_view() const {
  expects(valid(), "Comm::coll_view: invalid communicator");
  base::LockGuard<base::InstrumentedMutex> g(impl_->clone_mu);
  if (impl_->coll_clone == nullptr) {
    auto ci = std::make_shared<CommImpl>();
    ci->world = impl_->world;
    ci->context_id = impl_->coll_context_id;
    ci->coll_context_id = impl_->coll_context_id;
    ci->group = impl_->group;
    ci->coll_seq.assign(ci->group.size(), 0);
    ci->vcis = impl_->vcis;
    ci->world_to_comm = impl_->world_to_comm;
    impl_->coll_clone = std::move(ci);
  }
  return Comm(impl_->coll_clone, my_rank_);
}

int Comm::next_coll_tag() const {
  expects(valid(), "Comm::next_coll_tag: invalid communicator");
  int& slot = impl_->coll_seq[static_cast<std::size_t>(my_rank_)];
  const int tag = slot;
  // Each collective instance owns a 64-tag range so a schedule can give
  // several same-peer messages distinct tags (see coll::ir::Builder).
  slot = (slot + 64) & 0x3FFFFFFF;
  return tag;
}

namespace {

/// Shared result-building helpers for the collective management ops.

struct MakeGroupArg {
  const CommImpl* parent;
  World* world;
};

std::shared_ptr<CommImpl> build_comm(World& w,
                                     const std::vector<int>& group_world,
                                     const std::vector<int>& vcis) {
  auto ci = std::make_shared<CommImpl>();
  ci->world = &w;
  ci->context_id = w.alloc_context_ids(2);
  ci->coll_context_id = ci->context_id + 1;
  ci->group = group_world;
  ci->coll_seq.assign(group_world.size(), 0);
  ci->vcis = vcis;
  ci->world_to_comm.assign(static_cast<std::size_t>(w.size()), -1);
  for (std::size_t i = 0; i < group_world.size(); ++i) {
    ci->world_to_comm[static_cast<std::size_t>(group_world[i])] =
        static_cast<int>(i);
  }
  ci->coord = std::make_unique<core_detail::Coordinator>(
      static_cast<int>(group_world.size()));
  return ci;
}

std::vector<std::any> make_dup(std::vector<std::any>& inputs, void* argp) {
  auto* arg = static_cast<MakeGroupArg*>(argp);
  auto ci = build_comm(*arg->world, arg->parent->group, arg->parent->vcis);
  return std::vector<std::any>(inputs.size(), std::any(ci));
}

std::vector<std::any> make_stream_comm(std::vector<std::any>& inputs,
                                       void* argp) {
  auto* arg = static_cast<MakeGroupArg*>(argp);
  std::vector<int> vcis(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    vcis[i] = std::any_cast<int>(inputs[i]);
  }
  auto ci = build_comm(*arg->world, arg->parent->group, vcis);
  return std::vector<std::any>(inputs.size(), std::any(ci));
}

struct SplitInput {
  int color;
  int key;
};

std::vector<std::any> make_split(std::vector<std::any>& inputs, void* argp) {
  auto* arg = static_cast<MakeGroupArg*>(argp);
  struct Member {
    int parent_rank;
    SplitInput in;
  };
  // Group members by color.
  std::vector<Member> members;
  members.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    members.push_back(Member{static_cast<int>(i),
                             std::any_cast<SplitInput>(inputs[i])});
  }
  std::vector<std::any> outputs(inputs.size());
  std::vector<int> colors;
  for (const Member& m : members) {
    if (m.in.color >= 0 &&
        std::find(colors.begin(), colors.end(), m.in.color) == colors.end()) {
      colors.push_back(m.in.color);
    }
  }
  std::sort(colors.begin(), colors.end());
  for (int color : colors) {
    std::vector<Member> sub;
    for (const Member& m : members) {
      if (m.in.color == color) sub.push_back(m);
    }
    std::stable_sort(sub.begin(), sub.end(), [](const Member& a,
                                                const Member& b) {
      return a.in.key < b.in.key;
    });
    std::vector<int> group_world, vcis;
    for (const Member& m : sub) {
      group_world.push_back(arg->parent->to_world(m.parent_rank));
      vcis.push_back(
          arg->parent->vcis[static_cast<std::size_t>(m.parent_rank)]);
    }
    auto ci = build_comm(*arg->world, group_world, vcis);
    for (std::size_t i = 0; i < sub.size(); ++i) {
      outputs[static_cast<std::size_t>(sub[i].parent_rank)] =
          std::make_pair(ci, static_cast<int>(i));
    }
  }
  return outputs;
}

}  // namespace

Comm Comm::dup() const {
  expects(valid(), "Comm::dup: invalid communicator");
  MakeGroupArg arg{impl_.get(), impl_->world};
  std::any out = impl_->coord->run(my_rank_, std::any(), &make_dup, &arg);
  return Comm(std::any_cast<std::shared_ptr<CommImpl>>(out), my_rank_);
}

Comm Comm::with_stream(const Stream& local_stream) const {
  expects(valid(), "Comm::with_stream: invalid communicator");
  expects(local_stream.valid() &&
              &local_stream.world() == impl_->world &&
              local_stream.rank() == impl_->to_world(my_rank_),
          "Comm::with_stream: stream must belong to the calling rank");
  MakeGroupArg arg{impl_.get(), impl_->world};
  std::any out = impl_->coord->run(my_rank_, std::any(local_stream.vci()),
                                   &make_stream_comm, &arg);
  return Comm(std::any_cast<std::shared_ptr<CommImpl>>(out), my_rank_);
}

Comm Comm::split(int color, int key) const {
  expects(valid(), "Comm::split: invalid communicator");
  MakeGroupArg arg{impl_.get(), impl_->world};
  std::any out = impl_->coord->run(
      my_rank_, std::any(SplitInput{color, key}), &make_split, &arg);
  if (!out.has_value()) return Comm();  // color < 0: not a member
  auto [ci, new_rank] =
      std::any_cast<std::pair<std::shared_ptr<CommImpl>, int>>(out);
  return Comm(std::move(ci), new_rank);
}

}  // namespace mpx
