// Cross-rank schedule verifier (ir_verify.hpp): resolves the symbolic Part
// operands of N per-rank schedules and proves matching, deadlock-freedom,
// tag-window discipline, hazard-freedom, and reduce determinism before a
// schedule is cached or executed.
//
// Deadlock-freedom is decided on a post/complete event graph, two events
// per node:
//
//   complete(u) -> post(v)    for every intra-rank dependency edge u -> v
//                             (the executor hands v to the transport only
//                             after all its predecessors complete);
//   post(n)     -> complete(n)
//   post(s)     -> complete(r)   for a matched send s / recv r pair (the
//                             receive cannot finish before the send starts);
//   post(r)     -> complete(s)   conservatively: under rendezvous (no
//                             buffering) the send cannot finish before the
//                             receive is posted — the MPI-safe discipline,
//                             so a schedule that only works because of
//                             eager buffering is rejected.
//
// The union is acyclic iff some execution order exists for every rank
// simultaneously; a cycle IS the deadlock, and is emitted step by step as
// the counterexample trace.
//
// Everything here is compile-path only: the verifier allocates freely and
// must never be reachable from ProgressSource::poll (mpxlint enforces
// this via the progress-contract check).
#include "mpx/coll/ir_verify.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "ir_internal.hpp"

namespace mpx::coll::ir::verify {

const char* to_string(Check c) {
  switch (c) {
    case Check::structure: return "structure";
    case Check::matching: return "matching";
    case Check::acyclic: return "acyclic";
    case Check::tag_window: return "tag_window";
    case Check::hazard: return "hazard";
    case Check::reduce_order: return "reduce_order";
  }
  return "?";
}

namespace {

// ---- rendering -------------------------------------------------------------

std::string part_str(const Part& p) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "[%u..%u)/%u", p.b0, p.b1, p.div);
  return buf;
}

std::string ref_str(const Ref& r) {
  switch (r.space) {
    case Space::none: return "<mem>";
    case Space::send: return "sendbuf" + part_str(r.r);
    case Space::recv: return "recvbuf" + part_str(r.r);
    case Space::scratch:
      return "scratch#" + std::to_string(r.slot) + part_str(r.r);
  }
  return "?";
}

std::string node_desc(const Schedule& s, std::uint32_t id) {
  const Node& nd = s.nodes[id];
  switch (nd.kind) {
    case NodeKind::send:
      return "send -> r" + std::to_string(nd.peer) + " tag" +
             std::to_string(nd.tag_off) + " " + ref_str(nd.a);
    case NodeKind::recv:
      return "recv <- r" + std::to_string(nd.peer) + " tag" +
             std::to_string(nd.tag_off) + " " + ref_str(nd.b);
    case NodeKind::reduce:
      return "reduce " + ref_str(nd.a) + " into " + ref_str(nd.b);
    case NodeKind::copy:
      return "copy " + ref_str(nd.a) + " -> " + ref_str(nd.b);
    case NodeKind::fn:
      return "fn#" + std::to_string(nd.fn_id);
  }
  return "?";
}

CexStep step(const Schedule& s, std::uint32_t node, bool posted) {
  return CexStep{s.rank, node, posted, node_desc(s, node)};
}

// ---- access re-derivation --------------------------------------------------

struct Acc {
  Ref ref;
  bool writes;
};

/// The Builder's access sets, re-derived from node kind alone so a
/// hand-mutated schedule cannot lie about what it touches.
std::vector<Acc> accesses(const Node& nd) {
  switch (nd.kind) {
    case NodeKind::send: return {{nd.a, false}};
    case NodeKind::recv: return {{nd.b, true}};
    case NodeKind::reduce: return {{nd.a, false}, {nd.b, true}};
    case NodeKind::copy: return {{nd.a, false}, {nd.b, true}};
    case NodeKind::fn: return {{Ref{}, true}};  // whole-memory barrier
  }
  return {};
}

bool nodes_conflict(const Node& x, const Node& y) {
  for (const Acc& a : accesses(x)) {
    for (const Acc& b : accesses(y)) {
      if (!a.writes && !b.writes) continue;
      if (refs_conflict(a.ref, b.ref)) return true;
    }
  }
  return false;
}

// ---- intra-rank reachability ----------------------------------------------

/// Transitive closure over one rank's dependency edges as bitsets. Edges
/// respect program order (validated by the structure pass first), so one
/// reverse sweep suffices. Schedules are tiny (O(P log P) nodes), so the
/// O(n^2/64 * e) closure is nothing.
class Reach {
 public:
  explicit Reach(const Schedule& s)
      : n_(s.nodes.size()), words_((n_ + 63) / 64), bits_(n_ * words_, 0) {
    for (std::size_t i = n_; i-- > 0;) {
      for (std::uint32_t k = s.succ_off[i]; k < s.succ_off[i + 1]; ++k) {
        const std::uint32_t j = s.succ[k];
        set(i, j);
        for (std::size_t w = 0; w < words_; ++w) {
          bits_[i * words_ + w] |= bits_[j * words_ + w];
        }
      }
    }
  }

  bool get(std::size_t i, std::size_t j) const {
    return (bits_[i * words_ + j / 64] >> (j % 64)) & 1u;
  }
  bool ordered(std::size_t i, std::size_t j) const {
    return get(i, j) || get(j, i);
  }

 private:
  void set(std::size_t i, std::size_t j) {
    bits_[i * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
  }
  std::size_t n_, words_;
  std::vector<std::uint64_t> bits_;
};

// ---- structure -------------------------------------------------------------

void diag(Report& rep, Check c, std::string msg,
          std::vector<CexStep> trace = {}) {
  rep.diags.push_back(Diagnostic{c, std::move(msg), std::move(trace)});
}

std::string rk(const Schedule& s) {
  return "rank " + std::to_string(s.rank) + ": ";
}

bool part_valid(const Part& p) { return p.div >= 1 && p.b0 < p.b1; }

void check_operand(const Schedule& s, std::uint32_t id, const Ref& r,
                   bool is_dest, Report& rep) {
  const std::string where = rk(s) + "node " + std::to_string(id) + " (" +
                            node_desc(s, id) + "): ";
  if (r.space == Space::none) {
    diag(rep, Check::structure, where + "unset operand", {step(s, id, true)});
    return;
  }
  if (!part_valid(r.r)) {
    diag(rep, Check::structure, where + "empty Part " + part_str(r.r),
         {step(s, id, true)});
    return;
  }
  if (r.space == Space::scratch) {
    if (r.slot >= s.slots.size()) {
      diag(rep, Check::structure, where + "scratch slot out of range",
           {step(s, id, true)});
      return;
    }
    const Part& sz = s.slots[r.slot];
    if (static_cast<std::uint64_t>(r.r.b1) * sz.div >
        static_cast<std::uint64_t>(sz.b1) * r.r.div) {
      diag(rep, Check::structure, where + "scratch ref outside its slot",
           {step(s, id, true)});
    }
    return;
  }
  if (r.r.b1 > r.r.div) {
    diag(rep, Check::structure, where + "ref outside the vector",
         {step(s, id, true)});
  }
  if (r.space == Space::send && (s.in_place || is_dest)) {
    diag(rep, Check::structure,
         where + (is_dest ? "writes the send buffer"
                          : "send-space ref in an in-place schedule"),
         {step(s, id, true)});
  }
}

/// Graph- and operand-level sanity of one schedule. Returns false when the
/// CSR arrays themselves are unusable (deeper passes would index out of
/// bounds).
bool check_structure(const Schedule& s, Report& rep) {
  const std::size_t n = s.nodes.size();
  if (s.succ_off.size() != n + 1 || s.indeg.size() != n ||
      s.succ_off.front() != 0 || s.succ_off.back() != s.succ.size()) {
    diag(rep, Check::structure, rk(s) + "malformed CSR arrays");
    return false;
  }
  std::vector<std::uint16_t> indeg(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    if (s.succ_off[u] > s.succ_off[u + 1]) {
      diag(rep, Check::structure, rk(s) + "succ_off not monotone");
      return false;
    }
    for (std::uint32_t k = s.succ_off[u]; k < s.succ_off[u + 1]; ++k) {
      const std::uint32_t v = s.succ[k];
      if (v >= n || v <= u) {
        diag(rep, Check::structure,
             rk(s) + "edge " + std::to_string(u) + " -> " +
                 std::to_string(v) + " against program order");
        return false;
      }
      ++indeg[v];
    }
  }
  bool deg_ok = true;
  for (std::size_t i = 0; i < n; ++i) deg_ok &= indeg[i] == s.indeg[i];
  std::vector<std::uint32_t> entry;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) entry.push_back(i);
  }
  if (!deg_ok || entry != s.entry) {
    diag(rep, Check::structure,
         rk(s) + "indeg/entry arrays disagree with the edge set");
  }

  std::vector<bool> req_seen(s.nreq, false);
  std::uint32_t nreq = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    const Node& nd = s.nodes[id];
    switch (nd.kind) {
      case NodeKind::send:
      case NodeKind::recv: {
        const Ref& r = nd.kind == NodeKind::send ? nd.a : nd.b;
        check_operand(s, id, r, nd.kind == NodeKind::recv, rep);
        if (nd.peer < 0 || nd.peer >= s.size || nd.peer == s.rank) {
          diag(rep, Check::structure,
               rk(s) + "node " + std::to_string(id) + ": bad peer " +
                   std::to_string(nd.peer),
               {step(s, id, true)});
        }
        if (nd.tag_off >= 64) {
          diag(rep, Check::tag_window,
               rk(s) + "node " + std::to_string(id) + ": tag offset " +
                   std::to_string(nd.tag_off) +
                   " outside the instance's 64-tag window",
               {step(s, id, true)});
        }
        ++nreq;
        if (nd.req_slot >= s.nreq || req_seen[nd.req_slot]) {
          diag(rep, Check::structure,
               rk(s) + "node " + std::to_string(id) +
                   ": duplicate or out-of-range request slot",
               {step(s, id, true)});
        } else {
          req_seen[nd.req_slot] = true;
        }
        break;
      }
      case NodeKind::reduce:
      case NodeKind::copy:
        check_operand(s, id, nd.a, false, rep);
        check_operand(s, id, nd.b, true, rep);
        if (!parts_same_length(nd.a.r, nd.b.r, s.unit)) {
          diag(rep, Check::structure,
               rk(s) + "node " + std::to_string(id) +
                   ": operand Parts differ (resolved lengths can diverge)",
               {step(s, id, true)});
        }
        break;
      case NodeKind::fn:
        if (nd.fn_id >= s.fns.size()) {
          diag(rep, Check::structure,
               rk(s) + "node " + std::to_string(id) + ": fn_id out of range",
               {step(s, id, true)});
        }
        break;
    }
  }
  if (nreq != s.nreq) {
    diag(rep, Check::structure,
         rk(s) + "nreq " + std::to_string(s.nreq) + " != " +
             std::to_string(nreq) + " send/recv nodes");
  }
  return true;
}

// ---- single-rank checks ----------------------------------------------------

/// (c) 64-tag window discipline: two messages of one (peer, direction)
/// channel sharing a tag offset must be ordered by dependency edges —
/// matching is FIFO per (peer, tag), so unordered reuse is ambiguous.
void check_tag_windows(const Schedule& s, const Reach& reach, Report& rep) {
  const std::size_t n = s.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Node& a = s.nodes[i];
    if (a.kind != NodeKind::send && a.kind != NodeKind::recv) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      const Node& b = s.nodes[j];
      if (b.kind != a.kind || b.peer != a.peer || b.tag_off != a.tag_off) {
        continue;
      }
      if (reach.ordered(i, j)) continue;
      diag(rep, Check::tag_window,
           rk(s) + (a.kind == NodeKind::send ? "sends to" : "receives from") +
               " r" + std::to_string(a.peer) + " reuse tag " +
               std::to_string(a.tag_off) +
               " without a serialization edge — FIFO matching is ambiguous",
           {step(s, i, true), step(s, j, true)});
    }
  }
}

/// (d)+(e) hazard freedom: dependency-unordered nodes of one rank must not
/// overlap with a write. Reduce/reduce overlap on the accumulator is
/// classified reduce_order — it additionally breaks determinism for
/// non-commutative ops.
void check_hazards(const Schedule& s, const Reach& reach, Report& rep) {
  const std::size_t n = s.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (reach.ordered(i, j)) continue;
      const Node& a = s.nodes[i];
      const Node& b = s.nodes[j];
      if (!nodes_conflict(a, b)) continue;
      if (a.kind == NodeKind::reduce && b.kind == NodeKind::reduce &&
          refs_conflict(a.b, b.b)) {
        diag(rep, Check::reduce_order,
             rk(s) + "reduces into overlapping ranges are unordered — the "
                     "accumulation order (hence the result for "
                     "non-commutative ops) is nondeterministic",
             {step(s, i, true), step(s, j, true)});
      } else {
        diag(rep, Check::hazard,
             rk(s) + "unordered nodes overlap with a write (RAW/WAR/WAW "
                     "race inside one rank's schedule)",
             {step(s, i, true), step(s, j, true)});
      }
    }
  }
}

void run_local(const Schedule& s, const Reach& reach, Report& rep) {
  check_tag_windows(s, reach, rep);
  check_hazards(s, reach, rep);
}

// ---- cross-rank matching ---------------------------------------------------

struct Endpoint {
  int rank;
  std::uint32_t node;
};
/// (src, dst, tag_off) FIFO channel.
using ChanKey = std::tuple<int, int, std::uint16_t>;

struct Channels {
  std::map<ChanKey, std::vector<Endpoint>> sends, recvs;
};

Channels collect_channels(const std::vector<SchedPtr>& scheds) {
  Channels ch;
  for (const SchedPtr& s : scheds) {
    for (std::uint32_t id = 0; id < s->nodes.size(); ++id) {
      const Node& nd = s->nodes[id];
      // Program order indexes each channel: dependency edges respect it,
      // and the tag_window pass proved same-channel messages are totally
      // ordered, so program order IS the FIFO posting order.
      if (nd.kind == NodeKind::send) {
        ch.sends[{s->rank, nd.peer, nd.tag_off}].push_back({s->rank, id});
      } else if (nd.kind == NodeKind::recv) {
        ch.recvs[{nd.peer, s->rank, nd.tag_off}].push_back({s->rank, id});
      }
    }
  }
  return ch;
}

std::string chan_str(const ChanKey& k) {
  return "channel r" + std::to_string(std::get<0>(k)) + " -> r" +
         std::to_string(std::get<1>(k)) + " tag " +
         std::to_string(std::get<2>(k));
}

/// (a) perfect pairing with equal resolved byte counts. Returns the
/// matched pairs for the event-graph pass.
std::vector<std::pair<Endpoint, Endpoint>> check_matching(
    const std::vector<SchedPtr>& scheds,
    const std::vector<std::size_t>& probes, Report& rep) {
  const Channels ch = collect_channels(scheds);
  std::vector<std::pair<Endpoint, Endpoint>> pairs;

  std::map<ChanKey, const std::vector<Endpoint>*> all;
  for (const auto& [k, v] : ch.sends) all.emplace(k, nullptr);
  for (const auto& [k, v] : ch.recvs) all.emplace(k, nullptr);
  static const std::vector<Endpoint> kNone;
  for (const auto& [key, unused] : all) {
    auto its = ch.sends.find(key);
    auto itr = ch.recvs.find(key);
    const std::vector<Endpoint>& snd = its == ch.sends.end() ? kNone
                                                             : its->second;
    const std::vector<Endpoint>& rcv = itr == ch.recvs.end() ? kNone
                                                             : itr->second;
    if (snd.size() != rcv.size()) {
      std::vector<CexStep> trace;
      for (std::size_t i = std::min(snd.size(), rcv.size());
           i < std::max(snd.size(), rcv.size()); ++i) {
        const Endpoint& e = snd.size() > rcv.size() ? snd[i] : rcv[i];
        trace.push_back(step(*scheds[e.rank], e.node, true));
      }
      diag(rep, Check::matching,
           chan_str(key) + ": " + std::to_string(snd.size()) +
               " send(s) vs " + std::to_string(rcv.size()) +
               " receive(s) — the unmatched side hangs",
           std::move(trace));
    }
    const std::size_t m = std::min(snd.size(), rcv.size());
    for (std::size_t i = 0; i < m; ++i) {
      const Schedule& ss = *scheds[snd[i].rank];
      const Schedule& rs = *scheds[rcv[i].rank];
      const Part sp = ss.nodes[snd[i].node].a.r;
      const Part rp = rs.nodes[rcv[i].node].b.r;
      for (const std::size_t c : probes) {
        if (sp.elems(c) == rp.elems(c)) continue;
        const std::size_t esz = ss.dt.size();
        diag(rep, Check::matching,
             chan_str(key) + " pair " + std::to_string(i) + ": at count " +
                 std::to_string(c) + " the send resolves to " +
                 std::to_string(sp.elems(c) * esz) + " byte(s) but the "
                 "receive to " + std::to_string(rp.elems(c) * esz),
             {step(ss, snd[i].node, true), step(rs, rcv[i].node, true)});
        break;
      }
      pairs.push_back({snd[i], rcv[i]});
    }
  }
  rep.pairs += pairs.size();
  return pairs;
}

// ---- global deadlock-freedom -----------------------------------------------

/// (b) acyclicity of the post/complete event graph; a cycle is emitted as
/// the counterexample wait-for loop.
void check_acyclic(const std::vector<SchedPtr>& scheds,
                   const std::vector<std::pair<Endpoint, Endpoint>>& pairs,
                   Report& rep) {
  const int nranks = static_cast<int>(scheds.size());
  std::vector<std::uint32_t> base(nranks + 1, 0);
  for (int r = 0; r < nranks; ++r) {
    base[r + 1] = base[r] +
                  2 * static_cast<std::uint32_t>(scheds[r]->nodes.size());
  }
  const std::uint32_t total = base[nranks];
  const auto post = [&](int r, std::uint32_t node) {
    return base[r] + 2 * node;
  };
  const auto complete = [&](int r, std::uint32_t node) {
    return base[r] + 2 * node + 1;
  };

  std::vector<std::vector<std::uint32_t>> adj(total), pred(total);
  std::vector<std::uint32_t> indeg(total, 0);
  const auto edge = [&](std::uint32_t u, std::uint32_t v) {
    adj[u].push_back(v);
    pred[v].push_back(u);
    ++indeg[v];
  };
  for (int r = 0; r < nranks; ++r) {
    const Schedule& s = *scheds[r];
    for (std::uint32_t i = 0; i < s.nodes.size(); ++i) {
      edge(post(r, i), complete(r, i));
      for (std::uint32_t k = s.succ_off[i]; k < s.succ_off[i + 1]; ++k) {
        edge(complete(r, i), post(r, s.succ[k]));
      }
    }
  }
  for (const auto& [snd, rcv] : pairs) {
    edge(post(snd.rank, snd.node), complete(rcv.rank, rcv.node));
    // Conservative rendezvous: no buffering may be assumed.
    edge(post(rcv.rank, rcv.node), complete(snd.rank, snd.node));
  }

  // Kahn's algorithm; whatever survives contains the cycle(s).
  std::vector<std::uint32_t> q;
  for (std::uint32_t e = 0; e < total; ++e) {
    if (indeg[e] == 0) q.push_back(e);
  }
  std::size_t done = 0;
  while (!q.empty()) {
    const std::uint32_t e = q.back();
    q.pop_back();
    ++done;
    for (const std::uint32_t v : adj[e]) {
      if (--indeg[v] == 0) q.push_back(v);
    }
  }
  if (done == total) return;

  // Extract one cycle: from any surviving event, predecessors stay within
  // the surviving set, so walking them must revisit an event.
  std::uint32_t start = 0;
  while (indeg[start] == 0) ++start;
  std::vector<std::uint32_t> walk;
  std::vector<std::int32_t> pos(total, -1);
  std::uint32_t e = start;
  while (pos[e] < 0) {
    pos[e] = static_cast<std::int32_t>(walk.size());
    walk.push_back(e);
    for (const std::uint32_t p : pred[e]) {
      if (indeg[p] != 0) {
        e = p;
        break;
      }
    }
  }
  // walk[pos[e]..] is the cycle in reverse (predecessor) order.
  std::vector<CexStep> trace;
  for (auto it = walk.rbegin(); it != walk.rend() - pos[e]; ++it) {
    const std::uint32_t ev = *it;
    const int r = static_cast<int>(
        std::upper_bound(base.begin(), base.end(), ev) - base.begin() - 1);
    trace.push_back(
        step(*scheds[r], (ev - base[r]) / 2, (ev - base[r]) % 2 == 0));
  }
  diag(rep, Check::acyclic,
       "dependency cycle across " + std::to_string(nranks) +
           " rank(s): each step waits on the next (and the last on the "
           "first) — the executor deadlocks",
       std::move(trace));
}

/// Class corners plus an odd interior point, in multiples of the
/// schedule's unit (the only counts it ever runs at).
std::vector<std::size_t> default_probes(std::size_t max_count,
                                        std::uint32_t unit) {
  const std::size_t m = max_count / unit;
  std::vector<std::size_t> p{1, 2, m / 2 + 1, m};
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  while (!p.empty() && p.back() > std::max<std::size_t>(m, 1)) {
    p.pop_back();
  }
  for (std::size_t& c : p) c *= unit;
  return p;
}

}  // namespace

// ---- public entry points ---------------------------------------------------

Report verify_local(const Schedule& s) {
  Report rep;
  rep.ranks = 1;
  rep.nodes = s.nodes.size();
  if (!check_structure(s, rep)) return rep;
  const Reach reach(s);
  run_local(s, reach, rep);
  return rep;
}

Report verify_ranks(const std::vector<SchedPtr>& scheds,
                    const std::vector<std::size_t>& probe_counts) {
  Report rep;
  rep.ranks = static_cast<int>(scheds.size());
  if (scheds.empty()) {
    diag(rep, Check::structure, "no schedules to verify");
    return rep;
  }
  for (int r = 0; r < rep.ranks; ++r) {
    if (scheds[r] == nullptr) {
      diag(rep, Check::structure,
           "rank " + std::to_string(r) + ": null schedule");
      return rep;
    }
    rep.nodes += scheds[r]->nodes.size();
  }
  const Schedule& first = *scheds[0];
  for (int r = 0; r < rep.ranks; ++r) {
    const Schedule& s = *scheds[r];
    if (s.rank != r || s.size != rep.ranks) {
      diag(rep, Check::structure,
           rk(s) + "schedule compiled for rank " + std::to_string(s.rank) +
               " of " + std::to_string(s.size) + ", verified as rank " +
               std::to_string(r) + " of " + std::to_string(rep.ranks));
    }
    if (s.kind != first.kind || s.op != first.op ||
        s.root != first.root || s.dt.size() != first.dt.size() ||
        s.max_count != first.max_count || s.unit != first.unit) {
      diag(rep, Check::structure,
           rk(s) + "disagrees with rank 0 on kind/op/root/dtype size/"
                   "max_count/unit — ranks compiled different collectives");
    }
  }
  if (!rep.diags.empty()) return rep;

  bool csr_ok = true;
  for (const SchedPtr& s : scheds) csr_ok &= check_structure(*s, rep);
  if (!csr_ok) return rep;

  for (const SchedPtr& s : scheds) {
    const Reach reach(*s);
    run_local(*s, reach, rep);
  }

  const std::vector<std::size_t> probes =
      probe_counts.empty() ? default_probes(first.max_count, first.unit)
                           : probe_counts;
  rep.counts_probed = probes.size();
  const auto pairs = check_matching(scheds, probes, rep);
  check_acyclic(scheds, pairs, rep);
  return rep;
}

std::string Report::to_string() const {
  std::string out = "schedule verification: ";
  if (ok()) {
    out += "OK";
  } else {
    out += std::to_string(diags.size()) + " diagnostic(s)";
  }
  out += " (" + std::to_string(ranks) + " rank(s), " +
         std::to_string(nodes) + " node(s), " + std::to_string(pairs) +
         " matched pair(s), " + std::to_string(counts_probed) +
         " count(s) probed)\n";
  for (const Diagnostic& d : diags) {
    out += "[" + std::string(verify::to_string(d.check)) + "] " + d.message +
           "\n";
    std::size_t i = 0;
    for (const CexStep& st : d.trace) {
      out += "    #" + std::to_string(i++) + " rank " +
             std::to_string(st.rank) + " node " + std::to_string(st.node) +
             (st.posted ? " (post): " : " (complete): ") + st.desc + "\n";
    }
  }
  return out;
}

ScheduleVerifyError::ScheduleVerifyError(Report r)
    : InternalError(r.to_string()), report_(std::move(r)) {}

// ---- tooling helpers -------------------------------------------------------

std::shared_ptr<Schedule> clone(const Schedule& s) {
  auto c = std::make_shared<Schedule>();
  c->kind = s.kind;
  c->algo = s.algo;
  c->dt = s.dt;
  c->op = s.op;
  c->in_place = s.in_place;
  c->root = s.root;
  c->rank = s.rank;
  c->size = s.size;
  c->max_count = s.max_count;
  c->unit = s.unit;
  c->nodes = s.nodes;
  c->succ = s.succ;
  c->succ_off = s.succ_off;
  c->indeg = s.indeg;
  c->entry = s.entry;
  c->slots = s.slots;
  c->fns = s.fns;
  c->nreq = s.nreq;
  return c;
}

void rebuild_edges(
    Schedule& s, std::vector<std::pair<std::uint32_t, std::uint32_t>> edges) {
  const auto n = static_cast<std::uint32_t>(s.nodes.size());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  s.succ_off.assign(n + 1, 0);
  s.indeg.assign(n, 0);
  s.entry.clear();
  for (const auto& [from, to] : edges) {
    ensures(from < to && to < n, "rebuild_edges: edge out of range");
    ++s.succ_off[from + 1];
    ++s.indeg[to];
  }
  for (std::uint32_t i = 0; i < n; ++i) s.succ_off[i + 1] += s.succ_off[i];
  s.succ.resize(edges.size());
  std::vector<std::uint32_t> cursor(s.succ_off.begin(),
                                    s.succ_off.end() - 1);
  for (const auto& [from, to] : edges) s.succ[cursor[from]++] = to;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (s.indeg[i] == 0) s.entry.push_back(i);
  }
}

namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list(
    const Schedule& s) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t u = 0; u < s.nodes.size(); ++u) {
    for (std::uint32_t k = s.succ_off[u]; k < s.succ_off[u + 1]; ++k) {
      out.push_back({u, s.succ[k]});
    }
  }
  return out;
}

}  // namespace

bool inject_fault(Schedule& s, std::string_view name) {
  if (name == "swap_tag") {
    for (Node& nd : s.nodes) {
      if (nd.kind == NodeKind::send) {
        nd.tag_off = static_cast<std::uint16_t>((nd.tag_off + 1) % 64);
        return true;
      }
    }
    return false;
  }
  if (name == "truncate_part") {
    for (Node& nd : s.nodes) {
      if (nd.kind == NodeKind::send) {
        // Halve the top of the range rationally: [b0/d, b1/d) becomes
        // [2*b0/2d, (2*b1-1)/2d) — strictly fewer resolved elements at
        // large counts, exactly the "one rank truncated its count" bug.
        nd.a.r = Part{nd.a.r.div * 2, nd.a.r.b0 * 2, nd.a.r.b1 * 2 - 1};
        return true;
      }
    }
    return false;
  }
  if (name == "drop_edge") {
    // Remove a load-bearing edge: one whose endpoints conflict directly
    // and stay unordered once it is gone (no transitive detour).
    const auto full = edge_list(s);
    for (std::size_t e = 0; e < full.size(); ++e) {
      const auto [u, v] = full[e];
      if (!nodes_conflict(s.nodes[u], s.nodes[v])) continue;
      auto pruned = full;
      pruned.erase(pruned.begin() + static_cast<std::ptrdiff_t>(e));
      rebuild_edges(s, pruned);
      if (!Reach(s).get(u, v)) return true;
      rebuild_edges(s, full);  // detour exists; restore and keep looking
    }
    return false;
  }
  if (name == "reorder_reduce") {
    // Strip every ordering edge into the second of two accumulating
    // reduces, leaving the accumulation order undefined.
    for (std::uint32_t i = 0; i < s.nodes.size(); ++i) {
      if (s.nodes[i].kind != NodeKind::reduce) continue;
      for (std::uint32_t j = i + 1; j < s.nodes.size(); ++j) {
        if (s.nodes[j].kind != NodeKind::reduce ||
            !refs_conflict(s.nodes[i].b, s.nodes[j].b)) {
          continue;
        }
        auto edges = edge_list(s);
        std::erase_if(edges, [j](const auto& e) { return e.second == j; });
        rebuild_edges(s, std::move(edges));
        return true;
      }
    }
    return false;
  }
  return false;
}

}  // namespace mpx::coll::ir::verify

namespace mpx::coll::ir {

verify::Report Builder::verify() const {
  // Local battery only: materialize a throwaway schedule (max_count is
  // irrelevant — the checks are symbolic) and run the single-rank passes.
  return verify::verify_local(*materialize(Algo::auto_, 0, 1));
}

}  // namespace mpx::coll::ir
