// Process-wide pool machinery: the passthrough switch, shard claims, the
// sharded fixed-block and payload pools, and the stats registry. Pool
// capacities are compile-time constants fixed by each pool's owner.
#include "mpx/base/pool.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "mpx/base/cvar.hpp"
#include "mpx/mc/mc.hpp"

namespace mpx::base {

bool pool_passthrough() {
  static const bool off = MPX_POOL_ASAN || cvar_bool("MPX_POOL_DISABLE", false);
  return off;
}

// ---- registry ----

namespace {

struct RegistryRow {
  const char* name;
  PoolStats (*fn)(const void*);
  const void* self;
};

// Raw std::mutex, deliberately NOT base::Spinlock: pools register lazily on
// first use (function-local statics), so under MPX_MODEL_CHECK a modeled
// registry lock would add one-time schedule points in whichever schedule
// first touches a pool — breaking the explorer's requirement that every
// schedule replay the same op stream. Registration is init bookkeeping, not
// a protocol under test.
struct Registry {
  std::mutex mu;
  std::vector<RegistryRow> rows;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

namespace pool_detail {

void register_pool(const char* name, PoolStats (*fn)(const void*),
                   const void* self) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  r.rows.push_back(RegistryRow{name, fn, self});
}

void unregister_pool(const void* self) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  r.rows.erase(std::remove_if(r.rows.begin(), r.rows.end(),
                              [&](const RegistryRow& row) {
                                return row.self == self;
                              }),
               r.rows.end());
}

}  // namespace pool_detail

std::vector<NamedPoolStats> pool_registry_snapshot() {
  // Copy the rows first: fn() takes the pool's own lock, and holding the
  // registry lock across that would order registry -> pool for readers
  // while registration orders pool-construction -> registry.
  std::vector<RegistryRow> rows;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    rows = r.rows;
  }
  std::vector<NamedPoolStats> out;
  out.reserve(rows.size());
  for (const RegistryRow& row : rows) {
    out.push_back(NamedPoolStats{row.name, row.fn(row.self)});
  }
  return out;
}

// ---- shard claims ----

namespace {

// Claim table: how many live threads map to each shard. Touched once per
// thread (first pool call, thread exit), so a plain mutex is enough.
// Raw std::mutex for the same reason as the registry: claims happen lazily
// and must not add modeled schedule points.
std::mutex g_claim_mu;
std::uint32_t g_claim_users[kPoolShards] = {};  // guarded by g_claim_mu

std::size_t claim_shard() {
  std::lock_guard<std::mutex> g(g_claim_mu);
  std::size_t best = 0;
  for (std::size_t i = 1; i < kPoolShards; ++i) {
    if (g_claim_users[i] < g_claim_users[best]) best = i;
  }
  ++g_claim_users[best];
  return best;
}

// The fast path reads this trivially-destructible slot; the ShardClaim
// below owns the claim and hands it back at thread exit. After that (pool
// calls from later thread-exit destructors) the thread stays on the shard
// it had, shared like any other: every shard access is locked.
thread_local std::size_t tl_shard = kPoolShards;

struct ShardClaim {
  ShardClaim() = default;
  ShardClaim(const ShardClaim&) = delete;
  ShardClaim& operator=(const ShardClaim&) = delete;
  ~ShardClaim() {
    std::lock_guard<std::mutex> g(g_claim_mu);
    --g_claim_users[idx];
  }

  std::size_t idx = claim_shard();
};

}  // namespace

namespace pool_detail {

// Under the model checker every modeled thread shares the last shard: the
// explorer requires each schedule to replay the same operation stream, so
// the freelists must behave like the single list they model (one lock per
// acquire/release, no refill whose lock count depends on what earlier
// schedules left parked).
std::size_t this_thread_shard() {
#if MPX_MODEL_CHECK
  if (mc::detail::modeled()) return kPoolShards - 1;
#endif
  if (tl_shard != kPoolShards) return tl_shard;
  thread_local ShardClaim claim;
  tl_shard = claim.idx;
  return tl_shard;
}

template <std::size_t N>
ShardedFreelists<N>::~ShardedFreelists() {
  for (Shard& s : shards_) {
    LockGuard<Spinlock> g(s.mu);
    for (List& l : s.free) {
      while (l.head != nullptr) {
        Node* n = l.head;
        l.head = n->next;
        ::operator delete(static_cast<void*>(n));
      }
    }
  }
}

template <std::size_t N>
void* ShardedFreelists<N>::acquire(std::size_t cls) {
  const std::size_t home = this_thread_shard();
  Shard& s = shards_[home];
  {
    LockGuard<Spinlock> g(s.mu);
    ++s.live;
    if (pool_passthrough()) {
      ++s.misses;
      return nullptr;
    }
    List& l = s.free[cls];
    if (Node* n = l.head; n != nullptr) {
      l.head = n->next;
      if (l.head == nullptr) l.tail = nullptr;
      s.parked[cls].store(s.parked[cls].load(std::memory_order_relaxed) - 1,
                          std::memory_order_relaxed);
      ++s.hits;
      return n;
    }
#if MPX_MODEL_CHECK
    // No refill under the model checker (see this_thread_shard): a miss
    // costs exactly the one lock a hit does.
    if (mc::detail::modeled()) {
      ++s.misses;
      return nullptr;
    }
#endif
  }
  return refill(home, cls);
}

template <std::size_t N>
void* ShardedFreelists<N>::refill(std::size_t home, std::size_t cls) {
  // Two passes over the other shards: lists move while we scan (another
  // refill may carry one to a shard we already passed), and a spurious
  // miss grows the pool for good.
  List batch;
  std::size_t n = 0;
  for (std::size_t i = 1; i < 2 * kPoolShards && batch.head == nullptr; ++i) {
    if (i == kPoolShards) continue;  // home
    Shard& v = shards_[(home + i) % kPoolShards];
    if (v.parked[cls].load(std::memory_order_relaxed) == 0) continue;
    LockGuard<Spinlock> g(v.mu);
    batch = v.free[cls];
    v.free[cls] = List{};
    n = v.parked[cls].load(std::memory_order_relaxed);
    v.parked[cls].store(0, std::memory_order_relaxed);
  }
  Shard& s = shards_[home];
  Node* excess = nullptr;
  {
    LockGuard<Spinlock> g(s.mu);
    if (batch.head == nullptr) {
      ++s.misses;
      return nullptr;
    }
    ++s.hits;
    // Keep the first block for the caller and splice the rest in front of
    // whatever a thread sharing this shard parked since our miss.
    Node* rest = batch.head->next;
    List& l = s.free[cls];
    std::size_t parked = s.parked[cls].load(std::memory_order_relaxed);
    if (parked + (n - 1) <= cap_) {
      if (rest != nullptr) {
        batch.tail->next = l.head;
        l.head = rest;
        if (l.tail == nullptr) l.tail = batch.tail;
      }
      parked += n - 1;
    } else {
      // Over the cap (rare: only a shard shared by several threads can
      // have refilled meanwhile): park up to it, drop the excess.
      for (Node* m = rest; m != nullptr;) {
        Node* next = m->next;
        if (parked < cap_) {
          m->next = l.head;
          l.head = m;
          if (l.tail == nullptr) l.tail = m;
          ++parked;
        } else {
          m->next = excess;
          excess = m;
          ++s.overflow;
        }
        m = next;
      }
    }
    s.parked[cls].store(parked, std::memory_order_relaxed);
  }
  while (excess != nullptr) {
    Node* m = excess;
    excess = m->next;
    ::operator delete(static_cast<void*>(m));
  }
  return batch.head;
}

template <std::size_t N>
bool ShardedFreelists<N>::release(std::size_t cls, void* p) noexcept {
  Shard& s = shards_[this_thread_shard()];
  LockGuard<Spinlock> g(s.mu);
  --s.live;
  const std::size_t parked = s.parked[cls].load(std::memory_order_relaxed);
  if (parked < cap_ && !pool_passthrough()) {
    List& l = s.free[cls];
    l.head = ::new (p) Node{l.head};
    if (l.tail == nullptr) l.tail = l.head;
    s.parked[cls].store(parked + 1, std::memory_order_relaxed);
    return true;
  }
  ++s.overflow;
  return false;
}

template <std::size_t N>
void ShardedFreelists<N>::count_bypass() {
  Shard& s = shards_[this_thread_shard()];
  LockGuard<Spinlock> g(s.mu);
  ++s.live;
  ++s.misses;
}

template <std::size_t N>
PoolStats ShardedFreelists<N>::stats() const {
  PoolStats total;
  std::int64_t live = 0;
  for (const Shard& s : shards_) {
    LockGuard<Spinlock> g(s.mu);
    total.hits += s.hits;
    total.misses += s.misses;
    total.overflow += s.overflow;
    live += s.live;
    for (const auto& n : s.parked) {
      total.free_count += n.load(std::memory_order_relaxed);
    }
  }
  // Per-shard `live` is only meaningful summed; a sum read mid-flight (an
  // acquire counted on a shard already read, its release on one not yet
  // read) can dip below zero.
  total.live = live > 0 ? static_cast<std::size_t>(live) : 0;
  return total;
}

template class ShardedFreelists<1>;

}  // namespace pool_detail

// ---- FixedBlockPool ----

FixedBlockPool::FixedBlockPool(const char* name, std::size_t block_size,
                               std::size_t max_free)
    : name_(name),
      block_size_(std::max(block_size, sizeof(void*))),
      lists_(max_free) {
  pool_detail::register_pool(
      name, [](const void* self) {
        return static_cast<const FixedBlockPool*>(self)->stats();
      },
      this);
}

FixedBlockPool::~FixedBlockPool() { pool_detail::unregister_pool(this); }

void* FixedBlockPool::allocate(std::size_t n) {
  if (n <= block_size_) {
    if (void* p = lists_.acquire(0)) return p;
  } else {
    lists_.count_bypass();
  }
  return ::operator new(std::max(n, block_size_));
}

void FixedBlockPool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  if (!lists_.release(0, p)) ::operator delete(p);
}

// ---- PayloadPool ----

PayloadPool::PayloadPool() : lists_(kCap) {
  pool_detail::register_pool(
      "payload", [](const void* self) {
        return static_cast<const PayloadPool*>(self)->stats();
      },
      this);
}

PayloadPool::~PayloadPool() { pool_detail::unregister_pool(this); }

PayloadPool& PayloadPool::instance() {
  static PayloadPool pool;
  return pool;
}

std::size_t PayloadPool::class_of(std::size_t n) {
  const std::size_t rounded = std::bit_ceil(std::max(n, kMinBlock));
  return static_cast<std::size_t>(std::countr_zero(rounded)) -
         static_cast<std::size_t>(std::countr_zero(kMinBlock));
}

std::byte* PayloadPool::allocate(std::size_t n) {
  const std::size_t cls = class_of(n);
  void* p = lists_.acquire(cls);
  if (p == nullptr) p = ::operator new(class_bytes(cls));
  return static_cast<std::byte*>(p);
}

void PayloadPool::release(std::byte* p, std::size_t n) noexcept {
  if (!lists_.release(class_of(n), p)) ::operator delete(static_cast<void*>(p));
}

namespace pool_detail {
template class ShardedFreelists<PayloadPool::kClasses>;
}

namespace {

void payload_deleter(std::byte* p, std::size_t n) noexcept {
  PayloadPool::instance().release(p, n);
}

}  // namespace

Buffer pooled_buffer(std::size_t n) {
  if (n == 0) return Buffer();
  if (n > PayloadPool::max_block()) return Buffer(n);
  return Buffer(PayloadPool::instance().allocate(n), n, &payload_deleter);
}

Buffer pooled_copy(ConstByteSpan src) {
  Buffer b = pooled_buffer(src.size());
  if (!src.empty()) std::memcpy(b.data(), src.data(), src.size());
  return b;
}

}  // namespace mpx::base
