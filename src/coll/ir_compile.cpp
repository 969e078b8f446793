// The collective schedule compiler: algorithm selection against the NIC
// cost model and the per-algorithm IR builders. Allreduce and bcast choose
// among algorithms; every other kind has exactly one.
//
// Every builder is straight-line emission in program order; dependency
// edges come from the Builder's hazard analysis (ir.cpp). Non-power-of-two
// rank counts run the standard pairwise fold: ranks below 2*rem pair up,
// odd members contribute their vector to the even neighbor and retire, the
// surviving power-of-two group runs the core exchange on renumbered ranks,
// and retired members receive the final vector back. Ring algorithms need
// no fold — they are natively correct for any rank count.
//
// Selection is deterministic from (shape, rank count, cost model) alone,
// evaluated at the count class's upper bound, so every member of a
// communicator independently compiles the same algorithm — no negotiation
// round.
#include <bit>
#include <string>

#include "mpx/base/cvar.hpp"
#include "mpx/coll/ir.hpp"

namespace mpx::coll::ir {

namespace {

int floor_pow2(int n) { return 1 << (std::bit_width(static_cast<unsigned>(n)) - 1); }

int log2_exact(int pow2) { return std::bit_width(static_cast<unsigned>(pow2)) - 1; }

/// Real rank of post-fold rank `nr`: the fold retires odd ranks below
/// 2*rem, so newranks [0, rem) are the surviving even ranks and the rest
/// map up by rem.
int fold_map(int nr, int rem) { return nr < rem ? nr * 2 : nr + rem; }

/// Pairwise pre-fold to a power-of-two group. Returns the caller's
/// newrank, or -1 for retired (odd) ranks — whose whole schedule,
/// including the final result hand-back receive, is emitted here.
int emit_fold_pre(Builder& b, const Ref& acc) {
  const int P = b.size(), r = b.rank();
  const int rem = P - floor_pow2(P);
  if (r >= 2 * rem) return r - rem;
  if (r % 2 == 1) {
    b.send(acc, r - 1);
    b.recv(acc, r - 1);  // the finished vector comes back (WAR on the send)
    return -1;
  }
  const std::uint16_t s = b.scratch(full());
  b.recv(scratch_ref(s, full()), r + 1);
  b.reduce(scratch_ref(s, full()), acc);
  return r / 2;
}

/// Even fold ranks hand the finished vector back to their retired partner.
void emit_fold_post(Builder& b, const Ref& acc) {
  const int P = b.size(), r = b.rank();
  const int rem = P - floor_pow2(P);
  if (r < 2 * rem) b.send(acc, r + 1);
}

/// Copy the caller's contribution into the accumulator (the recv buffer);
/// in-place schedules already have it there.
Ref emit_acc_setup(Builder& b) {
  const Ref acc = recv_buf(full());
  if (!b.in_place()) b.copy(send_buf(full()), acc);
  return acc;
}

// ---- allreduce -------------------------------------------------------------

/// Recursive doubling: log2(p2) full-vector exchange+reduce rounds. Two
/// alternating scratch slots let the next round's receive pre-post while
/// the current round reduces.
void build_allreduce_rd(Builder& b) {
  const Ref acc = emit_acc_setup(b);
  const int p2 = floor_pow2(b.size());
  const int rem = b.size() - p2;
  const int nr = emit_fold_pre(b, acc);
  if (nr < 0) return;
  if (p2 > 1) {
    const std::uint16_t sl[2] = {b.scratch(full()), b.scratch(full())};
    int i = 0;
    for (int m = 1; m < p2; m <<= 1, ++i) {
      const int peer = fold_map(nr ^ m, rem);
      const Ref sc = scratch_ref(sl[i & 1], full());
      b.recv(sc, peer);
      b.send(acc, peer);
      b.reduce(sc, acc);
    }
  }
  emit_fold_post(b, acc);
}

/// Ring reduce-scatter + ring allgather over div = P blocks. Works for any
/// P. Every reduce-scatter receive lands in its own scratch block, so all
/// P-1 of them pre-post at launch and chunks stream independently — the
/// schedule the round-based model cannot express.
void build_allreduce_ring(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref acc = emit_acc_setup(b);
  if (P == 1) return;
  (void)acc;
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  const auto blk = [P](int i) {
    return block(static_cast<std::uint32_t>(P),
                 static_cast<std::uint32_t>(((i % P) + P) % P));
  };
  const std::uint16_t st = b.scratch(full());
  for (int s = 0; s < P - 1; ++s) {
    b.send(recv_buf(blk(r - s)), next);
    b.recv(scratch_ref(st, blk(r - s - 1)), prev);
    b.reduce(scratch_ref(st, blk(r - s - 1)), recv_buf(blk(r - s - 1)));
  }
  for (int s = 0; s < P - 1; ++s) {
    b.send(recv_buf(blk(r + 1 - s)), next);
    b.recv(recv_buf(blk(r - s)), prev);
  }
}

/// Recursive-halving reduce-scatter + recursive-doubling allgather
/// (Rabenseifner): rd's latency profile at ring's bandwidth profile for
/// power-of-two groups, with the pairwise fold for the remainder.
void build_allreduce_rsag(Builder& b) {
  const Ref acc = emit_acc_setup(b);
  const int p2 = floor_pow2(b.size());
  const int rem = b.size() - p2;
  const int nr = emit_fold_pre(b, acc);
  if (nr < 0) return;
  if (p2 > 1) {
    const auto rng = [p2](int a, int c) {
      return blocks(static_cast<std::uint32_t>(p2),
                    static_cast<std::uint32_t>(a),
                    static_cast<std::uint32_t>(c));
    };
    const std::uint16_t st = b.scratch(full());
    int lo = 0, hi = p2;
    for (int d = p2 / 2; d >= 1; d /= 2) {
      const int peer = fold_map(nr ^ d, rem);
      const int mid = lo + (hi - lo) / 2;
      if ((nr & d) == 0) {
        b.send(recv_buf(rng(mid, hi)), peer);
        b.recv(scratch_ref(st, rng(lo, mid)), peer);
        b.reduce(scratch_ref(st, rng(lo, mid)), recv_buf(rng(lo, mid)));
        hi = mid;
      } else {
        b.send(recv_buf(rng(lo, mid)), peer);
        b.recv(scratch_ref(st, rng(mid, hi)), peer);
        b.reduce(scratch_ref(st, rng(mid, hi)), recv_buf(rng(mid, hi)));
        lo = mid;
      }
    }
    for (int d = 1; d < p2; d *= 2) {
      const int peer = fold_map(nr ^ d, rem);
      const int span = hi - lo;
      b.send(recv_buf(rng(lo, hi)), peer);
      if ((nr & d) == 0) {
        b.recv(recv_buf(rng(hi, hi + span)), peer);
        hi += span;
      } else {
        b.recv(recv_buf(rng(lo - span, lo)), peer);
        lo -= span;
      }
    }
  }
  emit_fold_post(b, acc);
}

// ---- bcast / reduce trees --------------------------------------------------

/// Largest power of `k` strictly below `P` (the root's widest child
/// stride). P must be >= 2.
long top_scale(int P, int k) {
  long t = 1;
  while (t * k < P) t *= k;
  return t;
}

/// Radix-k tree bcast (knomial; k=2 is binomial). The root-relative rank's
/// lowest nonzero base-k digit fixes its parent and receive level;
/// children hang off every lower level. All of a rank's sends depend only
/// on its receive, so subtrees fan out concurrently.
void build_bcast_knomial(Builder& b, int root, int k) {
  const int P = b.size(), r = b.rank();
  if (P == 1) return;
  const int rel = (r - root + P) % P;
  const auto abs = [&](long x) {
    return static_cast<int>((x + root) % P);
  };
  long scale = 1;
  while (scale < P && rel % (scale * k) == 0) scale *= k;
  if (rel != 0) {
    const long parent = rel - (rel % (scale * k));
    b.recv(recv_buf(full()), abs(parent));
  }
  for (long cs = rel == 0 ? top_scale(P, k) : scale / k; cs >= 1; cs /= k) {
    for (int j = 1; j < k; ++j) {
      const long child = rel + j * cs;
      if (child < P) b.send(recv_buf(full()), abs(child));
    }
  }
}

/// Binomial scatter of root-relative blocks followed by a ring allgather:
/// each rank forwards only its subtree's blocks down the tree, then the
/// single-block ring fills everyone in. Bandwidth-optimal bcast for large
/// vectors at any rank count.
void build_bcast_scatter_ag(Builder& b, int root) {
  const int P = b.size(), r = b.rank();
  if (P == 1) return;
  const int rel = (r - root + P) % P;
  const auto abs = [&](long x) {
    return static_cast<int>((x + root) % P);
  };
  const auto blk = [P](long i) {
    return block(static_cast<std::uint32_t>(P),
                 static_cast<std::uint32_t>(((i % P) + P) % P));
  };
  const auto rng = [P](long a, long c) {
    return blocks(static_cast<std::uint32_t>(P), static_cast<std::uint32_t>(a),
                  static_cast<std::uint32_t>(c));
  };
  long scale = 1;
  while (scale < P && rel % (scale * 2) == 0) scale *= 2;
  if (rel != 0) {
    const long parent = rel - (rel % (scale * 2));
    b.recv(recv_buf(rng(rel, std::min<long>(rel + scale, P))), abs(parent));
  }
  for (long cs = rel == 0 ? top_scale(P, 2) : scale / 2; cs >= 1; cs /= 2) {
    const long child = rel + cs;
    if (child < P) {
      b.send(recv_buf(rng(child, std::min<long>(child + cs, P))), abs(child));
    }
  }
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  for (int s = 0; s < P - 1; ++s) {
    b.send(recv_buf(blk(rel - s)), next);
    b.recv(recv_buf(blk(rel - s - 1)), prev);
  }
}

/// Radix-k tree reduce: the bcast tree reversed. Each child's vector lands
/// in its own scratch slot (receives pre-post concurrently); reductions
/// into the accumulator serialize in emission order for a deterministic
/// result.
void build_reduce_knomial(Builder& b, int root, int k) {
  const int P = b.size(), r = b.rank();
  const int rel = (r - root + P) % P;
  Ref acc;
  if (rel == 0) {
    acc = recv_buf(full());
    if (!b.in_place()) b.copy(send_buf(full()), acc);
  } else {
    const std::uint16_t a = b.scratch(full());
    acc = scratch_ref(a, full());
    b.copy(send_buf(full()), acc);
  }
  if (P == 1) return;
  const auto abs = [&](long x) {
    return static_cast<int>((x + root) % P);
  };
  long scale = 1;
  while (scale < P && rel % (scale * k) == 0) scale *= k;
  for (long cs = rel == 0 ? top_scale(P, k) : scale / k; cs >= 1; cs /= k) {
    for (int j = 1; j < k; ++j) {
      const long child = rel + j * cs;
      if (child >= P) continue;
      const std::uint16_t s = b.scratch(full());
      b.recv(scratch_ref(s, full()), abs(child));
      b.reduce(scratch_ref(s, full()), acc);
    }
  }
  if (rel != 0) {
    const long parent = rel - (rel % (scale * k));
    b.send(acc, abs(parent));
  }
}

// ---- single-algorithm kinds ------------------------------------------------
//
// Blocked kinds (gather, scatter, allgather, alltoall, reduce_scatter_block)
// run over a vector of P*count elements: block(P, i) is rank i's block of a
// P-block buffer, and send_buf(block(P, 0)) names a count-sized send buffer.

std::uint32_t u32(int v) { return static_cast<std::uint32_t>(v); }

/// Block i (mod P) of the P-block vector.
Part pblock(int P, int i) { return block(u32(P), u32(((i % P) + P) % P)); }

/// Dissemination rounds for P ranks: ceil(log2 P).
int dissemination_steps(int P) {
  int rounds = 0;
  for (int d = 1; d < P; d *= 2) ++rounds;
  return rounds;
}

/// Dissemination barrier: round k sends a token to r + 2^k and receives
/// one from r - 2^k. Tokens carry no data, so only their operands can
/// order the rounds: one token slot of rounds+1 blocks, round k receives
/// into block k+1, and a copy folds block k-1 into block k after round
/// k-1's receive. Round k's send reads block k, so it follows EVERY
/// earlier receive (no rank leaves before every rank has entered), while
/// every receive still pre-posts at launch.
void build_barrier(Builder& b) {
  const int P = b.size(), r = b.rank();
  const auto blocks_n = u32(dissemination_steps(P) + 1);
  const std::uint16_t tok = b.scratch(full());
  const auto t = [&](int j) {
    return scratch_ref(tok, block(blocks_n, u32(j)));
  };
  for (int k = 0, d = 1; d < P; ++k, d *= 2) {
    if (k > 0) b.copy(t(k - 1), t(k));
    b.send(t(k), (r + d) % P);
    b.recv(t(k + 1), (r - d + P) % P);
  }
}

/// Linear gather: the root posts one receive per rank straight into that
/// rank's block; every other rank sends its buffer.
void build_gather_linear(Builder& b, int root) {
  const int P = b.size(), r = b.rank();
  if (r != root) {
    b.send(send_buf(pblock(P, 0)), root);
    return;
  }
  if (!b.in_place()) b.copy(send_buf(pblock(P, 0)), recv_buf(pblock(P, r)));
  for (int i = 0; i < P; ++i) {
    if (i != r) b.recv(recv_buf(pblock(P, i)), i);
  }
}

/// Linear scatter. In place, the root's P blocks sit in the recv space and
/// its own block stays where it is.
void build_scatter_linear(Builder& b, int root) {
  const int P = b.size(), r = b.rank();
  if (r != root) {
    b.recv(recv_buf(pblock(P, 0)), root);
    return;
  }
  for (int i = 0; i < P; ++i) {
    if (i == r) continue;
    b.send(b.in_place() ? recv_buf(pblock(P, i)) : send_buf(pblock(P, i)), i);
  }
  if (!b.in_place()) b.copy(send_buf(pblock(P, r)), recv_buf(pblock(P, 0)));
}

/// Ring allgather: step s forwards block r-s to the next rank and receives
/// block r-s-1 from the previous one. Every receive targets a distinct
/// block, so all of them pre-post at launch.
void build_allgather_ring(Builder& b) {
  const int P = b.size(), r = b.rank();
  if (!b.in_place()) b.copy(send_buf(pblock(P, 0)), recv_buf(pblock(P, r)));
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  for (int s = 0; s < P - 1; ++s) {
    // The first send reads the caller's buffer, not the copy.
    b.send(s == 0 && !b.in_place() ? send_buf(pblock(P, 0))
                                   : recv_buf(pblock(P, r - s)),
           next);
    b.recv(recv_buf(pblock(P, r - s - 1)), prev);
  }
}

/// Pairwise alltoall: one exchange with every other rank, all posted at
/// once (rank r sends block r+s to r+s and receives block r-s from r-s).
void build_alltoall_pairwise(Builder& b) {
  const int P = b.size(), r = b.rank();
  b.copy(send_buf(pblock(P, r)), recv_buf(pblock(P, r)));
  for (int s = 1; s < P; ++s) {
    const int dst = (r + s) % P, src = (r - s + P) % P;
    b.recv(recv_buf(pblock(P, src)), src);
    b.send(send_buf(pblock(P, dst)), dst);
  }
}

/// Ring reduce-scatter: step s forwards the partial result of block r-s-1
/// and receives the partial of block r-s-2 into its own scratch block,
/// where the local contribution is folded in. The last partial to arrive
/// is the rank's own block. Every receive lands in a distinct scratch
/// block, so all of them pre-post. In place, the input vector is the recv
/// buffer and the result overwrites its first block.
void build_reduce_scatter_ring(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref out = recv_buf(pblock(P, 0));
  const auto in = [&](int i) {
    return b.in_place() ? recv_buf(pblock(P, i)) : send_buf(pblock(P, i));
  };
  if (P == 1) {
    if (!b.in_place()) b.copy(in(0), out);
    return;
  }
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  const std::uint16_t acc = b.scratch(full());
  for (int s = 0; s < P - 1; ++s) {
    b.send(s == 0 ? in(r - 1) : scratch_ref(acc, pblock(P, r - s - 1)),
           next);
    b.recv(scratch_ref(acc, pblock(P, r - s - 2)), prev);
    b.reduce(in(r - s - 2), scratch_ref(acc, pblock(P, r - s - 2)));
  }
  b.copy(scratch_ref(acc, pblock(P, r)), out);
}

/// Chain scan: rank r receives op(x_0..x_{r-1}) from r-1, folds in its own
/// contribution and forwards the prefix to r+1.
void build_scan_chain(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref out = recv_buf(full());
  if (r == 0) {
    if (!b.in_place()) b.copy(send_buf(full()), out);
  } else if (b.in_place()) {
    const std::uint16_t t = b.scratch(full());
    b.recv(scratch_ref(t, full()), r - 1);
    b.reduce(scratch_ref(t, full()), out);
  } else {
    b.recv(out, r - 1);
    b.reduce(send_buf(full()), out);
  }
  if (r < P - 1) b.send(out, r + 1);
}

/// Chain exscan: rank r receives op(x_0..x_{r-1}) straight into its recv
/// buffer (rank 0's stays untouched) and forwards that prefix folded with
/// its own contribution.
void build_exscan_chain(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref out = recv_buf(full());
  const Ref mine = b.in_place() ? out : send_buf(full());
  if (r == 0) {
    if (P > 1) b.send(mine, 1);
    return;
  }
  if (r == P - 1) {
    b.recv(out, r - 1);
    return;
  }
  const Ref fwd = scratch_ref(b.scratch(full()), full());
  b.copy(mine, fwd);
  b.recv(out, r - 1);
  b.reduce(out, fwd);
  b.send(fwd, r + 1);
}

// ---- selection -------------------------------------------------------------

/// Tree radix for knomial bcast/reduce: depth shrinks with k but a parent
/// pays per-child injection, so cost_k ~ ceil(log_k P) * (alpha + B*beta +
/// (k-2)*B*inj_beta). Small messages take wide trees, large messages fall
/// back to binomial.
int knomial_radix(int P, double bytes, const net::CostModel& net) {
  if (P <= 2) return 2;
  int best_k = 2;
  double best = 0;
  for (const int k : {2, 4, 8}) {
    int depth = 0;
    long reach = 1;
    while (reach < P) {
      reach *= k;
      ++depth;
    }
    const double c =
        depth * (net.alpha + bytes * net.beta +
                 (k - 2) * bytes * net.inj_beta);
    if (best_k == 2 || c < best) {
      best = c;
      best_k = k;
    }
    if (k == 2) best = c;
  }
  return best_k;
}

Algo env_algo() {
  static const Algo a = [] {
    const std::string s = base::cvar_string("MPX_COLL_ALGO", "auto");
    for (const Algo c :
         {Algo::rd, Algo::ring, Algo::rsag, Algo::knomial, Algo::scatter_ag,
          Algo::dissemination, Algo::linear, Algo::pairwise, Algo::chain}) {
      if (s == to_string(c)) return c;
    }
    return Algo::auto_;
  }();
  return a;
}

/// The one algorithm of each single-algorithm kind.
Algo fixed_algo(CollKind kind) {
  switch (kind) {
    case CollKind::barrier: return Algo::dissemination;
    case CollKind::gather:
    case CollKind::scatter: return Algo::linear;
    case CollKind::allgather:
    case CollKind::reduce_scatter_block: return Algo::ring;
    case CollKind::alltoall: return Algo::pairwise;
    case CollKind::scan:
    case CollKind::exscan: return Algo::chain;
    case CollKind::reduce: return Algo::knomial;
    default: return Algo::auto_;
  }
}

bool algo_valid_for(CollKind kind, Algo a) {
  switch (kind) {
    case CollKind::allreduce:
      return a == Algo::rd || a == Algo::ring || a == Algo::rsag;
    case CollKind::bcast:
      return a == Algo::knomial || a == Algo::scatter_ag;
    default:
      return a == fixed_algo(kind);
  }
}

}  // namespace

Algo select_algo(CollKind kind, std::size_t bytes, int size,
                 const net::CostModel& net) {
  const int P = size < 1 ? 1 : size;
  const double B = static_cast<double>(bytes);
  const double a = net.alpha, be = net.beta;
  const int p2 = floor_pow2(P);
  const int rem = P - p2;
  const int lg = log2_exact(p2);
  switch (kind) {
    case CollKind::allreduce: {
      if (P <= 2) return Algo::rd;
      const double fold = rem > 0 ? 2.0 * (a + B * be) : 0.0;
      const double c_rd = fold + lg * (a + B * be);
      const double c_ring = 2.0 * (P - 1) * a + 2.0 * B * be * (P - 1) / P;
      const double c_rsag =
          fold + 2.0 * lg * a + 2.0 * B * be * (p2 - 1) / p2;
      if (c_rd <= c_ring && c_rd <= c_rsag) return Algo::rd;
      if (c_ring < c_rsag) return Algo::ring;
      return Algo::rsag;
    }
    case CollKind::bcast: {
      if (P <= 2) return Algo::knomial;
      const int k = knomial_radix(P, B, net);
      int depth = 0;
      long reach = 1;
      while (reach < P) {
        reach *= k;
        ++depth;
      }
      const double c_kno =
          depth * (a + B * be + (k - 2) * B * net.inj_beta);
      const double c_sag = (lg + (rem > 0 ? 1 : 0)) * a +
                           B * be * (P - 1) / P +  // scatter
                           (P - 1) * a + B * be * (P - 1) / P;  // ring AG
      return c_kno <= c_sag ? Algo::knomial : Algo::scatter_ag;
    }
    default:
      return fixed_algo(kind);
  }
}

// ---- count classes ---------------------------------------------------------

int count_class(std::size_t bytes) {
  return static_cast<int>(std::bit_width(bytes));
}

std::size_t class_max_bytes(int cls) {
  if (cls <= 0) return 0;
  if (cls >= 48) return (std::size_t{1} << 48) - 1;  // clamp: plenty
  return (std::size_t{1} << cls) - 1;
}

// ---- compile ---------------------------------------------------------------

Algo resolve_algo(CollKind kind, std::size_t bytes, int size,
                  const net::CostModel& net, Algo force) {
  if (force != Algo::auto_ && algo_valid_for(kind, force)) return force;
  const Algo env = env_algo();
  if (env != Algo::auto_ && algo_valid_for(kind, env)) return env;
  return select_algo(kind, bytes, size, net);
}

SchedPtr compile(CollKind kind, std::size_t count, dtype::Datatype dt,
                 dtype::ReduceOp op, bool in_place, int root, int rank,
                 int size, const net::CostModel& net, Algo force) {
  expects(dt.valid(), "ir::compile: invalid datatype");
  expects(root >= 0 && root < size, "ir::compile: root out of range");
  expects(!blocked(kind) || count % static_cast<std::size_t>(size) == 0,
          "ir::compile: blocked kinds take a vector of P*count elements");
  const std::size_t esz = dt.size();
  const int cls = count_class(count * esz);
  const std::size_t max_count =
      esz == 0 ? count : std::max(count, class_max_bytes(cls) / esz);
  const Algo algo =
      resolve_algo(kind, class_max_bytes(cls), size, net, force);
  // Blocked kinds run at multiples of P; the barrier's token copies move
  // between blocks of its token slot (and it always runs at count 0).
  const std::uint32_t unit = blocked(kind) ? u32(size)
                             : kind == CollKind::barrier
                                 ? u32(dissemination_steps(size) + 1)
                                 : 1;
  Builder b(kind, std::move(dt), op, in_place, rank, size, unit);
  switch (kind) {
    case CollKind::allreduce:
      if (algo == Algo::ring) {
        build_allreduce_ring(b);
      } else if (algo == Algo::rsag) {
        build_allreduce_rsag(b);
      } else {
        build_allreduce_rd(b);
      }
      break;
    case CollKind::bcast:
      // Radix evaluated at the class bound, like algorithm selection: every
      // count in the class shares one tree shape, so a schedule cached at
      // one count serves the whole class consistently on every rank.
      if (algo == Algo::scatter_ag) {
        build_bcast_scatter_ag(b, root);
      } else {
        build_bcast_knomial(
            b, root,
            knomial_radix(size, static_cast<double>(class_max_bytes(cls)),
                          net));
      }
      break;
    case CollKind::reduce:
      build_reduce_knomial(
          b, root,
          knomial_radix(size, static_cast<double>(class_max_bytes(cls)),
                        net));
      break;
    case CollKind::barrier:
      build_barrier(b);
      break;
    case CollKind::gather:
      build_gather_linear(b, root);
      break;
    case CollKind::scatter:
      build_scatter_linear(b, root);
      break;
    case CollKind::allgather:
      build_allgather_ring(b);
      break;
    case CollKind::alltoall:
      build_alltoall_pairwise(b);
      break;
    case CollKind::reduce_scatter_block:
      build_reduce_scatter_ring(b);
      break;
    case CollKind::scan:
      build_scan_chain(b);
      break;
    case CollKind::exscan:
      build_exscan_chain(b);
      break;
  }
  return b.finish(algo, root, max_count);
}

}  // namespace mpx::coll::ir
