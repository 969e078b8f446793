// mpx/base/pool.hpp
//
// Freelist object pools for the datapath. The point-to-point hot path
// allocates a RequestImpl per operation, an UnexpMsg per early arrival, an
// AsyncThing per hook, and a payload buffer per eager message; recycling
// them through freelists removes the global allocator from the per-message
// cost (MPICH ships the same design: CH4 request pools and cell pools).
//
// Three shapes:
//   - FreelistPool<T>    : typed freelist of raw storage, NOT thread-safe;
//                          per-VCI pools guarded by the VCI lock.
//   - FixedBlockPool     : per-thread-sharded raw-block freelist for
//                          class-level operator new/delete overloads whose
//                          release site crosses threads (refcounted
//                          requests, async hooks).
//   - PayloadPool        : per-thread-sharded power-of-two size-class pool
//                          behind pooled_buffer()/pooled_copy(); eager
//                          payloads are allocated under the sender's VCI
//                          and freed under the receiver's, so the pool is
//                          process-wide and thread-safe.
//
// SHARDS. The two process-wide pools keep kPoolShards freelist shards, each
// on its own cache lines behind its own spinlock. A thread claims an unused
// shard on its first pool call and returns it when it exits, so threads
// driving different VCIs share no pool line; shards are shared only while
// more than kPoolShards threads are live. Acquire and release use the
// calling thread's shard. A block freed on another thread parks there, so
// a one-way stream (payloads allocated by the sender, freed by the
// receiver) keeps recycling through a refill: on a home miss the acquirer
// takes a whole parked list from another shard, holding one shard lock at
// a time. Each capacity is a cap PER SHARD (per shard and size class
// for payloads): at most kPoolShards * cap blocks stay parked. Stats are
// exact sums over the shards at quiescence; a shard's own `live` may go
// negative (frees land on the releasing thread's shard), only the sum is
// meaningful.
//
// SANITIZERS. Freelist reuse would blind AddressSanitizer to lifetime bugs
// (a use-after-release lands in recycled, still-mapped storage), so under
// ASan every pool degrades to plain operator new/delete per acquire —
// stats still count, the allocator sees every lifetime. MPX_POOL_DISABLE=1
// forces the same passthrough at runtime. TSan keeps pooling enabled: pool
// access is lock-guarded, and racy reuse is exactly what it should see.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "mpx/base/buffer.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/stats.hpp"
#include "mpx/base/thread_safety.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define MPX_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPX_POOL_ASAN 1
#endif
#endif
#ifndef MPX_POOL_ASAN
#define MPX_POOL_ASAN 0
#endif

namespace mpx::base {

/// True when pools must pass every acquire/release through the global
/// allocator: compiled under ASan, or MPX_POOL_DISABLE=1 in the
/// environment (read once).
bool pool_passthrough();

/// Typed freelist pool: acquire() placement-constructs T on recycled
/// storage, release() destroys and parks the storage (up to `max_free`
/// blocks; beyond that the storage is freed). NOT thread-safe — each VCI
/// owns its pools and guards them with its lock. Parked storage is freed
/// by the destructor (the Vci teardown drain path).
template <class T>
class FreelistPool {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "FreelistPool: over-aligned T not supported");

 public:
  explicit FreelistPool(std::size_t max_free = 256) : max_free_(max_free) {}
  FreelistPool(const FreelistPool&) = delete;
  FreelistPool& operator=(const FreelistPool&) = delete;
  ~FreelistPool() { drain(); }

  template <class... Args>
  T* acquire(Args&&... args) {
    ++st_.live;
    if (free_ != nullptr && !pool_passthrough()) {
      Node* n = free_;
      free_ = n->next;
      --st_.free_count;
      ++st_.hits;
      return ::new (static_cast<void*>(n)) T(std::forward<Args>(args)...);
    }
    ++st_.misses;
    return ::new (::operator new(storage_size())) T(std::forward<Args>(args)...);
  }

  void release(T* p) {
    if (p == nullptr) return;
    p->~T();
    --st_.live;
    if (st_.free_count < max_free_ && !pool_passthrough()) {
      Node* n = ::new (static_cast<void*>(p)) Node{free_};
      free_ = n;
      ++st_.free_count;
      return;
    }
    ++st_.overflow;
    ::operator delete(static_cast<void*>(p));
  }

  /// Free all parked storage (live objects are unaffected).
  void drain() {
    while (free_ != nullptr) {
      Node* n = free_;
      free_ = n->next;
      ::operator delete(static_cast<void*>(n));
    }
    st_.free_count = 0;
  }

  PoolStats stats() const { return st_; }

 private:
  struct Node {
    Node* next;
  };
  static constexpr std::size_t storage_size() {
    return sizeof(T) > sizeof(Node) ? sizeof(T) : sizeof(Node);
  }

  Node* free_ = nullptr;
  std::size_t max_free_;
  PoolStats st_;
};

/// Freelist shards per process-wide pool. A constant on purpose: the
/// rank threads, stream threads and engine workers of one process stay
/// well below it, and each shard costs a few cache lines per pool.
inline constexpr std::size_t kPoolShards = 16;

namespace pool_detail {

/// The calling thread's shard in [0, kPoolShards): claimed on the thread's
/// first call (the least-used shard, so an unused one while any is free)
/// and released when the thread exits. Under the model checker every
/// modeled thread maps to one shard (see ShardedFreelists).
std::size_t this_thread_shard();

/// The storage behind FixedBlockPool (N = 1) and PayloadPool (N = size
/// classes): kPoolShards shards of N raw-block freelists, each list capped
/// at `cap` parked blocks. acquire() returns nullptr on a miss (the caller
/// allocates); release() returns false when the block must go back to the
/// allocator (cap reached, or passthrough). Both count toward the stats.
template <std::size_t N>
class ShardedFreelists {
 public:
  explicit ShardedFreelists(std::size_t cap) : cap_(cap) {}
  ShardedFreelists(const ShardedFreelists&) = delete;
  ShardedFreelists& operator=(const ShardedFreelists&) = delete;
  ~ShardedFreelists();

  void* acquire(std::size_t cls);
  bool release(std::size_t cls, void* p) noexcept;
  /// Account an acquire that bypasses the freelists (oversized request).
  void count_bypass();
  PoolStats stats() const;

 private:
  struct Node {
    Node* next;
  };
  /// A freelist with its tail, so a refill moves a whole list in O(1):
  /// the blocks are out of every shard's view only between two locks.
  struct List {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  struct alignas(64) Shard {
    mutable Spinlock mu;
    List free[N] MPX_GUARDED_BY(mu);
    /// Parked blocks per list. Written only under mu; read without it as
    /// the refill scan's "anything here?" hint (a stale read costs one
    /// lock or one missed refill, never correctness).
    std::atomic<std::size_t> parked[N] = {};
    std::uint64_t hits MPX_GUARDED_BY(mu) = 0;
    std::uint64_t misses MPX_GUARDED_BY(mu) = 0;
    std::uint64_t overflow MPX_GUARDED_BY(mu) = 0;
    std::int64_t live MPX_GUARDED_BY(mu) = 0;
  };

  /// Home miss: take the whole list `cls` parked on another shard, keep
  /// one block for the caller and park the rest at home.
  void* refill(std::size_t home, std::size_t cls);

  const std::size_t cap_;
  Shard shards_[kPoolShards];
};

}  // namespace pool_detail

/// Per-thread-sharded freelist of fixed-size raw blocks, for class-level
/// operator new/delete overloads (allocation and release may happen on
/// different threads). Intended for static-storage pools; registers itself
/// in the process-wide pool registry under `name`. `max_free` caps each
/// shard's parked blocks.
class FixedBlockPool {
 public:
  FixedBlockPool(const char* name, std::size_t block_size,
                 std::size_t max_free);
  FixedBlockPool(const FixedBlockPool&) = delete;
  FixedBlockPool& operator=(const FixedBlockPool&) = delete;
  ~FixedBlockPool();

  void* allocate(std::size_t n);
  void deallocate(void* p) noexcept;

  const char* name() const { return name_; }
  PoolStats stats() const { return lists_.stats(); }

 private:
  const char* name_;
  const std::size_t block_size_;
  pool_detail::ShardedFreelists<1> lists_;
};

/// Power-of-two size-class pool behind pooled payload buffers. Blocks up
/// to max_block() bytes are recycled per class; larger requests fall
/// through to the allocator. Thread-safe (per-thread shards, each with one
/// freelist per class capped at kCap).
class PayloadPool {
 public:
  /// Parked blocks per shard and size class.
  static constexpr std::size_t kCap = 128;

  static PayloadPool& instance();

  /// Raw-block interface; `n` is the caller's requested byte count. The
  /// class is derived from `n`, so release() must receive the same `n`.
  std::byte* allocate(std::size_t n);
  void release(std::byte* p, std::size_t n) noexcept;

  static constexpr std::size_t max_block() {
    return class_bytes(kClasses - 1);
  }
  PoolStats stats() const { return lists_.stats(); }

 private:
  PayloadPool();
  ~PayloadPool();

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kClasses = 11;  // 64 B .. 64 KiB

  static std::size_t class_of(std::size_t n);
  static constexpr std::size_t class_bytes(std::size_t cls) {
    return kMinBlock << cls;
  }

  pool_detail::ShardedFreelists<kClasses> lists_;
};

/// A Buffer of `n` bytes whose storage is recycled through the payload
/// pool when `n` fits a size class (plain new[] storage otherwise).
Buffer pooled_buffer(std::size_t n);

/// pooled_buffer(src.size()) plus a copy of `src`.
Buffer pooled_copy(ConstByteSpan src);

/// One registry row: pool name plus a snapshot of its counters.
struct NamedPoolStats {
  std::string name;
  PoolStats stats;
};

/// Snapshot every registered process-wide pool (request, async-thing,
/// payload). Per-VCI pools are reported through World accessors instead —
/// they live and die with their VCI.
std::vector<NamedPoolStats> pool_registry_snapshot();

namespace pool_detail {
void register_pool(const char* name, PoolStats (*fn)(const void*),
                   const void* self);
void unregister_pool(const void* self);
}  // namespace pool_detail

}  // namespace mpx::base
